"""Exact root systems and Weyl machinery for the simple types A-D, E6, E7.

Weights live in the simple-root basis (tuples of Fractions or ints, length =
rank).  The invariant form is normalized so that long roots have squared
length 2; short roots (types B, C) get 1, which keeps every Cartan pairing
<a,b> = 2(a,b)/(b,b) integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import List, Sequence, Tuple

Weight = Tuple[Fraction, ...]


@dataclass(frozen=True)
class SimpleLieType:
    family: str
    rank: int

    def __post_init__(self):
        fam, l = self.family, self.rank
        ok = (
            (fam == "A" and l >= 1)
            or (fam in ("B", "C") and l >= 2)
            or (fam == "D" and l >= 3)
            or (fam == "E" and l in (6, 7))
        )
        if not ok:
            raise ValueError(f"unsupported simple type {fam}{l}")

    def __str__(self):
        return f"{self.family}{self.rank}"


def _cartan_and_lengths(t: SimpleLieType):
    """Bourbaki Cartan matrix C[i][j] = <alpha_i, alpha_j> and (a_i,a_i)."""
    l = t.rank
    C = [[2 if i == j else 0 for j in range(l)] for i in range(l)]

    def link(i, j, cij=-1, cji=-1):
        C[i][j] = cij
        C[j][i] = cji

    if t.family == "A":
        for i in range(l - 1):
            link(i, i + 1)
        norms = [2] * l
    elif t.family == "B":
        for i in range(l - 2):
            link(i, i + 1)
        # alpha_{l-1} long, alpha_l short: <a_{l-1},a_l> = -2, <a_l,a_{l-1}> = -1
        link(l - 2, l - 1, -2, -1)
        norms = [2] * (l - 1) + [1]
    elif t.family == "C":
        for i in range(l - 2):
            link(i, i + 1)
        link(l - 2, l - 1, -1, -2)
        norms = [1] * (l - 1) + [2]
    elif t.family == "D":
        for i in range(l - 3):
            link(i, i + 1)
        link(l - 3, l - 2)
        link(l - 3, l - 1)
        norms = [2] * l
    else:  # E6, E7 in Bourbaki numbering: a2 hangs off a4
        chain = [0, 2, 3, 4, 5] + ([6] if l == 7 else [])
        for a, b in zip(chain, chain[1:]):
            link(a, b)
        link(1, 3)
        norms = [2] * l
    return C, norms


def _weyl_orbit_roots(cartan: List[List[int]], l: int) -> List[Tuple[int, ...]]:
    """All roots as the Weyl orbit of the simple roots (exact, integer coords)."""

    def reflect(v, i):
        # <v, a_i> = sum_j v_j <a_j, a_i>
        pr = sum(v[j] * cartan[j][i] for j in range(l))
        w = list(v)
        w[i] -= pr
        return tuple(w)

    simple = [tuple(1 if j == i else 0 for j in range(l)) for i in range(l)]
    seen = set(simple)
    queue = list(simple)
    while queue:
        v = queue.pop()
        for i in range(l):
            w = reflect(v, i)
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return sorted(seen)


def _require(cond: bool, msg: str) -> None:
    """An invariant check that, unlike assert, python -O does not remove."""
    if not cond:
        raise AssertionError(msg)


def _scaled_to_integers(xi: Sequence) -> Tuple[Tuple[int, ...], int]:
    """(D xi, D) for the least common denominator D of xi's coordinates."""
    xi = [Fraction(c) for c in xi]
    D = math.lcm(*(c.denominator for c in xi))
    return tuple(c.numerator * (D // c.denominator) for c in xi), D


@dataclass(frozen=True)
class RootDatum:
    type: SimpleLieType
    simple_roots: Tuple[Weight, ...]
    cartan: Tuple[Tuple[int, ...], ...]          # <a_i, a_j>
    gram: Tuple[Tuple[Fraction, ...], ...]       # (a_i, a_j), long roots norm 2
    positive_roots: Tuple[Weight, ...]
    gamma: Weight                                # half sum of positive roots
    delta: Weight                                # highest root
    n_coeffs: Tuple[int, ...]                    # coefficients of delta

    @property
    def rank(self) -> int:
        return self.type.rank

    # -- bilinear forms ----------------------------------------------------
    def inner(self, lam: Sequence, mu: Sequence) -> Fraction:
        """(lam, mu) in the normalization with long roots of squared length 2."""
        g = self.gram
        return sum(
            Fraction(a) * g[i][j] * Fraction(b)
            for i, a in enumerate(lam)
            for j, b in enumerate(mu)
            if a and b
        ) or Fraction(0)

    # -- Weyl group --------------------------------------------------------
    @cached_property
    def two_gamma(self) -> Tuple[int, ...]:
        return tuple((2 * g).numerator for g in self.gamma)

    @cached_property
    def _two_gram_pos(self) -> Tuple[Tuple[int, ...], ...]:
        """2 gram alpha for each positive root alpha: v . (2 gram alpha) = 2 (v, alpha)."""
        g2 = [[(2 * x).numerator for x in row] for row in self.gram]
        return tuple(tuple(sum(g * a.numerator for g, a in zip(row, al)) for row in g2)
                     for al in self.positive_roots)

    def simple_pairings(self, v: Sequence[int]) -> List[int]:
        """[<v, alpha_i> for every i], in integers for an integer v."""
        return [sum(map(mul, v, col)) for col in zip(*self.cartan)]

    def fold(
        self, v: Sequence[int], simple: Sequence[int]
    ) -> Tuple[Tuple[int, ...], int, bool]:
        """Fold an integer vector into the closed dominant chamber of W_simple.

        v is in simple-root coordinates.  While <v, alpha_i> < 0 for some i
        in `simple` (the first such i in `simple`), v becomes s_i v.  Returns
        (folded, steps, singular); singular means <folded, alpha_i> = 0 for
        some i in `simple`, since a point of the closed chamber is regular
        iff every simple pairing is positive.  Integer arithmetic only.
        """
        pr = self.simple_pairings(v)
        v = list(v)
        steps = 0
        while True:
            i = next((i for i in simple if pr[i] < 0), None)
            if i is None:
                return tuple(v), steps, any(pr[i] == 0 for i in simple)
            c = pr[i]
            v[i] -= c
            # s_i changes <v, alpha_k> by -<v, alpha_i><alpha_i, alpha_k>
            pr = [p - c * cik for p, cik in zip(pr, self.cartan[i])]
            steps += 1

    def dominant_representative(self, xi: Sequence) -> Tuple[Weight, int, bool]:
        """Weyl-orbit representative in the dominant chamber.

        Returns (dominant, index, singular): index = #{a in D+ : (xi, a) < 0},
        equal to the number of greedy simple reflections applied; singular is
        set when (xi, a) = 0 for some positive root (callers must check it
        before trusting Bott degrees).  xi is scaled by the common denominator
        D of its coordinates, folded in integers and divided by D again.
        """
        v, D = _scaled_to_integers(xi)
        dom, index, singular = self.fold_dominant(v)
        return tuple(Fraction(c, D) for c in dom), index, singular

    def fold_dominant(self, v: Sequence[int]) -> Tuple[Tuple[int, ...], int, bool]:
        """`dominant_representative` of an integer vector v, in integers."""
        pairs = [sum(map(mul, v, g2al)) for g2al in self._two_gram_pos]  # 2 (v, a)
        index = sum(1 for s in pairs if s < 0)
        singular = 0 in pairs
        dom, steps, _ = self.fold(v, range(self.rank))
        _require(singular or steps == index,
                 f"greedy reflection count {steps} != root-counting index {index}")
        return dom, index, singular

    def is_dominant(self, lam: Sequence) -> bool:
        return min(self.simple_pairings(lam)) >= 0

    def coset_weights(self, S: Sequence[int]) -> List[List[Tuple[int, ...]]]:
        """The weights w(rho) - rho (minus the sum of the inversion set of w)
        of the minimal representatives w of the cosets W_S w, by length.
        w, kept as its images of the simple roots, grows on the right: when
        w(alpha_j) is a positive root outside span(S), w s_j is again minimal
        and its inversion set gains w(alpha_j).  Dropping the last letter of
        a minimal w leaves one, so all are reached; the weight fixes w."""
        l = self.rank
        outside = [i for i in range(l) if i not in S]
        level = {(0,) * l: tuple(tuple(int(i == j) for j in range(l)) for i in range(l))}
        out = []
        while level:
            out.append(sorted(level, reverse=True))
            grown = {}
            for wt, images in level.items():
                for j, r in enumerate(images):
                    key = tuple(a - b for a, b in zip(wt, r))
                    if key not in grown and any(r[i] > 0 for i in outside):
                        # w s_j (alpha_k) = w(alpha_k) - <alpha_k, alpha_j> w(alpha_j)
                        grown[key] = tuple(tuple(x - row[j] * y for x, y in zip(im, r))
                                           for im, row in zip(images, self.cartan))
            level = grown
        return out

    def special_simple_roots(self) -> List[int]:
        """Indices i with n_{alpha_i} = 1 in the highest root."""
        return [i for i, n in enumerate(self.n_coeffs) if n == 1]

    def weyl_dimension(self, lam: Sequence) -> int:
        """Weyl dimension formula for a dominant weight of the full group:
        the product over positive roots of (lam + gamma, a) / (gamma, a),
        computed on D lam for the common denominator D of lam."""
        v, D = _scaled_to_integers(lam)
        two_gamma = self.two_gamma
        u = [2 * a + D * g for a, g in zip(v, two_gamma)]  # 2D (lam + gamma)
        num = math.prod(sum(map(mul, u, g2al)) for g2al in self._two_gram_pos)
        den = math.prod(D * sum(map(mul, two_gamma, g2al)) for g2al in self._two_gram_pos)
        if num % den:
            raise ValueError(f"{tuple(lam)} is not an integral weight of {self.type}")
        return num // den


_CLASSICAL_COUNT = {
    "A": lambda l: l * (l + 1) // 2,
    "B": lambda l: l * l,
    "C": lambda l: l * l,
    "D": lambda l: l * (l - 1),
    "E": lambda l: {6: 36, 7: 63}[l],
}


def build_root_system(t: SimpleLieType) -> RootDatum:
    l = t.rank
    cartan, norms = _cartan_and_lengths(t)
    gram = tuple(
        tuple(Fraction(cartan[j][i] * norms[i], 2) for j in range(l)) for i in range(l)
    )
    # gram[i][j] = (a_i, a_j) = <a_j, a_i>(a_i,a_i)/2; symmetry is checked below
    _require(all(gram[i][j] == gram[j][i] for i in range(l) for j in range(l)), "Gram symmetry")

    roots = _weyl_orbit_roots(cartan, l)
    pos = [r for r in roots if all(c >= 0 for c in r)]
    _require(len(pos) == _CLASSICAL_COUNT[t.family](l), "positive-root count")
    # a root above every root has the largest height, so only those are scanned
    top = max(map(sum, pos))
    highest = [r for r in pos if sum(r) == top
               and all(all(a >= b for a, b in zip(r, s)) for s in pos)]
    _require(len(highest) == 1, "highest root uniqueness")
    n_coeffs = highest[0]
    _require(all(n > 0 for n in n_coeffs), "highest root has a zero coefficient")
    pos_w: List[Weight] = [tuple(Fraction(c) for c in r) for r in sorted(pos)]
    delta = tuple(Fraction(c) for c in n_coeffs)
    gamma = tuple(Fraction(sum(r[i] for r in pos), 2) for i in range(l))

    rd = RootDatum(
        type=t,
        simple_roots=tuple(
            tuple(Fraction(1) if j == i else Fraction(0) for j in range(l))
            for i in range(l)
        ),
        cartan=tuple(tuple(row) for row in cartan),
        gram=gram,
        positive_roots=tuple(pos_w),
        gamma=gamma,
        delta=delta,
        n_coeffs=n_coeffs,
    )
    _require(rd.inner(delta, delta) == 2, "highest root is long")
    return rd


def root_system(spec: str) -> RootDatum:
    """Convenience: root_system('B3') etc."""
    fam = spec[0].upper()
    return build_root_system(SimpleLieType(fam, int(spec[1:])))
