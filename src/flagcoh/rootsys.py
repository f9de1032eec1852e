"""Root systems of types A-D, E6, E7 from root strings, and Weyl machinery.

Weights live in the simple-root basis as int tuples of length rank; the
root datum holds only ints.  The invariant form is normalized so that long
roots have squared length 2 and short roots (types B, C) 1; the datum keeps
twice it, form2[i][j] = 2(a_i, a_j), and gamma as 2 gamma, the sum of the
positive roots.  Only `dominant_representative` and `weyl_dimension` take
rational weights, scaled to integers by their common denominator; `inner`
and `gamma` are the rational reads.  Every weight has one coordinate per
simple root: `inner`, `simple_pairings` and `root_pairings`, the reads that
every other method goes through, refuse any other length (`check_weight`).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import List, Sequence, Tuple

from .record import Record

Weight = Tuple[int, ...]


class SimpleLieType(Record):
    _fields = ("family", "rank")

    def __init__(self, family: str, rank: int):
        ok = (
            (family == "A" and rank >= 1)
            or (family in ("B", "C") and rank >= 2)
            or (family == "D" and rank >= 3)
            or (family == "E" and rank in (6, 7))
        )
        if not ok:
            raise ValueError(f"unsupported simple type {family}{rank}")
        super().__init__(family, rank)

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


def _positive_roots_from_strings(cartan: List[List[int]], l: int) -> List[Weight]:
    """The positive roots, sorted, height by height from root strings
    (Humphreys 9.4): beta + alpha_i is a root iff p > c = <beta, alpha_i>
    for the largest p with beta - p alpha_i a root, that is, as the string
    is unbroken, iff c < 0 or beta - (c + 1) alpha_i is a root.  The
    pairings of beta + alpha_i add row i of the Cartan matrix to beta's."""
    level = {tuple(int(i == j) for j in range(l)): cartan[i] for i in range(l)}
    roots = set(level)
    while level:
        grown = {}
        for beta, pr in level.items():
            for i, c in enumerate(pr):
                if c < 0 or beta[:i] + (beta[i] - c - 1,) + beta[i + 1:] in roots:
                    grown[beta[:i] + (beta[i] + 1,) + beta[i + 1:]] = [
                        a + b for a, b in zip(pr, cartan[i])]
        roots.update(grown)
        level = grown
    return sorted(roots)


def _require(cond: bool, msg: str) -> None:
    """An invariant check that, unlike assert, python -O does not remove."""
    if not cond:
        raise AssertionError(msg)


def _scaled_to_integers(xi: Sequence) -> Tuple[Weight, int]:
    """(D xi, D) for the least common denominator D of xi's coordinates."""
    if all(isinstance(c, int) for c in xi):
        return tuple(xi), 1
    xi = [Fraction(c) for c in xi]
    D = math.lcm(*(c.denominator for c in xi))
    return tuple(c.numerator * (D // c.denominator) for c in xi), D


class RootDatum(Record):
    type: SimpleLieType
    simple_roots: Tuple[Weight, ...]
    cartan: Tuple[Tuple[int, ...], ...]          # <a_i, a_j>
    form2: Tuple[Tuple[int, ...], ...]           # 2(a_i, a_j), long roots norm 2
    positive_roots: Tuple[Weight, ...]
    two_gamma: Weight                            # sum of the positive roots
    delta: Weight                                # highest root
    _fields = ("type", "simple_roots", "cartan", "form2", "positive_roots",
               "two_gamma", "delta")

    @property
    def rank(self) -> int:
        return self.type.rank

    # -- bilinear forms ----------------------------------------------------
    def inner(self, lam: Sequence, mu: Sequence) -> Fraction:
        """(lam, mu) in the normalization with long roots of squared length 2."""
        self.check_weight(lam)
        self.check_weight(mu)
        g = self.form2
        return Fraction(sum(a * g[i][j] * b for i, a in enumerate(lam)
                            for j, b in enumerate(mu)), 2)

    @property
    def gamma(self) -> Tuple[Fraction, ...]:
        """Half the sum of the positive roots."""
        return tuple(Fraction(g, 2) for g in self.two_gamma)

    # -- Weyl group --------------------------------------------------------
    @cached_property
    def _form2_pos(self) -> Tuple[Weight, ...]:
        """form2 alpha for each positive root alpha: v . (form2 alpha) = 2 (v, alpha)."""
        return tuple(tuple(sum(map(mul, row, al)) for row in self.form2)
                     for al in self.positive_roots)

    @cached_property
    def _two_gamma_pairings(self) -> Tuple[int, ...]:
        """2 (2 gamma, alpha) for every positive root alpha."""
        return tuple(self.root_pairings(self.two_gamma))

    @cached_property
    def _cartan_columns(self) -> Tuple[Weight, ...]:
        """The columns of `cartan`, kept for `simple_pairings`."""
        return tuple(zip(*self.cartan))

    def root_pairings(self, v: Sequence[int]) -> List[int]:
        """[2 (v, alpha) for every positive root alpha]: v is singular iff
        one is 0, and its index is the number below 0."""
        self.check_weight(v)
        return [sum(map(mul, v, g2al)) for g2al in self._form2_pos]

    def check_weight(self, w: Sequence) -> None:
        """ValueError unless w has one coordinate per simple root."""
        if len(w) != self.rank:
            raise ValueError(f"weight must have {self.rank} coordinates")

    def simple_pairings(self, v: Sequence[int]) -> List[int]:
        """[<v, alpha_i> for every i], in integers for an integer v."""
        self.check_weight(v)
        return [sum(map(mul, v, col)) for col in self._cartan_columns]

    def fold(
        self, v: Sequence[int], simple: Sequence[int]
    ) -> Tuple[Weight, int, bool]:
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

    def dominant_representative(self, xi: Sequence) -> Tuple[Tuple[Fraction, ...], int, bool]:
        """Weyl-orbit representative in the dominant chamber.

        Returns (dominant, index, singular): index = #{a in D+ : (xi, a) < 0},
        equal to the number of greedy simple reflections applied; singular is
        set when (xi, a) = 0 for some positive root (callers must check it
        before trusting Bott degrees).  xi is scaled by the common denominator
        D of its coordinates, folded in integers and divided by D again.
        """
        v, D = _scaled_to_integers(xi)
        pairs = self.root_pairings(v)
        index = sum(1 for s in pairs if s < 0)
        dom, steps, _ = self.fold(v, range(self.rank))
        _require(0 in pairs or steps == index,
                 f"greedy reflection count {steps} != root-counting index {index}")
        return tuple(Fraction(c, D) for c in dom), index, 0 in pairs

    def is_dominant(self, lam: Sequence) -> bool:
        return min(self.simple_pairings(lam)) >= 0

    def coset_weights(self, S: Sequence[int]) -> List[List[Weight]]:
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
        return [i for i, n in enumerate(self.delta) if n == 1]

    def weyl_dimension(self, lam: Sequence) -> int:
        """Weyl dimension formula for a dominant weight of the full group:
        the product over positive roots of (lam + gamma, a) / (gamma, a),
        computed on D lam for the common denominator D of lam."""
        v, D = _scaled_to_integers(lam)
        # 2 (2D (lam + gamma), alpha) = 2 * 2 (D lam, alpha) + D * 2 (2 gamma, alpha)
        g = self._two_gamma_pairings
        num = math.prod(2 * a + D * b for a, b in zip(self.root_pairings(v), g))
        den = math.prod(D * b for b in g)
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
    # form2[i][j] = 2(a_i, a_j) = <a_j, a_i>(a_i,a_i); symmetry is checked below
    form2 = tuple(tuple(cartan[j][i] * norms[i] for j in range(l)) for i in range(l))
    _require(all(form2[i][j] == form2[j][i] for i in range(l) for j in range(l)),
             "form symmetry")

    pos = _positive_roots_from_strings(cartan, l)
    _require(len(pos) == _CLASSICAL_COUNT[t.family](l), "positive-root count")
    # a root above every root has the largest height, so only those are scanned
    top = max(map(sum, pos))
    highest = [r for r in pos if sum(r) == top
               and all(all(a >= b for a, b in zip(r, s)) for s in pos)]
    _require(len(highest) == 1, "highest root uniqueness")
    delta = highest[0]
    _require(all(n > 0 for n in delta), "highest root has a zero coefficient")

    rd = RootDatum(
        type=t,
        simple_roots=tuple(tuple(int(j == i) for j in range(l)) for i in range(l)),
        cartan=tuple(tuple(row) for row in cartan),
        form2=form2,
        positive_roots=tuple(pos),
        two_gamma=tuple(map(sum, zip(*pos))),
        delta=delta,
    )
    _require(rd.inner(delta, delta) == 2, "highest root is long")
    return rd


def root_system(spec: str) -> RootDatum:
    """The root datum of a type written as a letter and a rank, e.g. 'B3'."""
    if not re.fullmatch(r"[A-Za-z][0-9]+", spec):
        raise ValueError(f"simple type {spec!r} is not a letter and a rank, e.g. B3")
    return build_root_system(SimpleLieType(spec[0].upper(), int(spec[1:])))
