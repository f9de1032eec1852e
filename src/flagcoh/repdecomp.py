"""Formal characters and decomposition of completely reducible modules over
the Levi subgroup R of a parabolic.

Characters are weight -> multiplicity dicts keyed by the ambient group's
int-tuple weights (`rootsys.Weight`, simple-root basis); the central
directions ride along untouched.  `decompose` folds weights into the
dominant chamber of the Levi Weyl group W_S (Racah-Speiser/Klimyk;
Humphreys, Introduction to Lie Algebras and Representation Theory, 24):
a W_S-invariant chi is sum_lam c_lam ch V_lam, and chi is a module
character exactly when every c_lam is >= 0; given lam, it decomposes
V_lam (x) chi by folding lam + mu over the weights mu of chi alone
(Brauer-Klimyk), so the Bott layer forms no tensor character.  It checks
that chi is W_S-invariant unless chi is an `InvariantCharacter` of the same
Levi datum, a read-only character checked once when it is built, as each
space's n+ character is.  The Freudenthal recursion `irreducible_character`
is kept as an independent reference.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .record import Record
from .rootsys import RootDatum, Weight, _require

FormalCharacter = Dict[Weight, int]


def char_of_roots(weights: Iterable[Weight]) -> FormalCharacter:
    chi: FormalCharacter = {}
    for w in weights:
        chi[w] = chi.get(w, 0) + 1
    return chi


def tensor(chi1: FormalCharacter, chi2: FormalCharacter) -> FormalCharacter:
    out: FormalCharacter = {}
    for w1, m1 in chi1.items():
        for w2, m2 in chi2.items():
            k = tuple(a + b for a, b in zip(w1, w2))
            out[k] = out.get(k, 0) + m1 * m2
    return out


def trivial_character(rank: int) -> FormalCharacter:
    return {(0,) * rank: 1}


def exterior_power(chi: FormalCharacter, p: int) -> FormalCharacter:
    """Character of the p-th exterior power: the sums of the p-subsets of a
    weight basis, each weight of chi repeated by its multiplicity."""
    if p < 0:
        raise ValueError("exterior power degree must be >= 0")
    if p == 0:
        return trivial_character(len(next(iter(chi))) if chi else 0)
    out: FormalCharacter = {}
    basis = [w for w in sorted(chi) for _ in range(chi[w])]
    for subset in itertools.combinations(basis, p):
        k = tuple(sum(c) for c in zip(*subset))
        out[k] = out.get(k, 0) + 1
    return out


# ---------------------------------------------------------------------------


class LeviDatum(Record):
    """Levi data for P = R x| N-: S = Pi \\ {alpha_0} (or any proper subset)."""

    _fields = ("rd", "S")

    def __init__(self, rd: RootDatum, S: Sequence[int]):
        if set(S) >= set(range(rd.rank)):
            raise ValueError("S must be a proper subset of the simple roots")
        super().__init__(rd, tuple(sorted(S)))

    def levi_positive_roots(self) -> List[Weight]:
        s = set(self.S)
        return [r for r in self.rd.positive_roots
                if all(c == 0 for i, c in enumerate(r) if i not in s)]

    @cached_property
    def two_rho(self) -> Weight:
        """2 rho_S: the sum of the Levi positive roots."""
        pos = self.levi_positive_roots()
        return tuple(sum(r[i] for r in pos) for i in range(self.rd.rank))

    def is_S_dominant(self, lam: Sequence) -> bool:
        return all(c >= 0 for i, c in enumerate(self.rd.simple_pairings(lam)) if i in self.S)

    def check_S_dominant(self, lam: Sequence) -> None:
        """ValueError unless lam is S-dominant, as the highest weight of an
        irreducible R-module (a bundle Bott's theorem takes) is; a wrong
        length is refused first, by `RootDatum.simple_pairings`."""
        if not self.is_S_dominant(lam):
            raise ValueError("weight is not S-dominant for this space")


def irreducible_character(L: LeviDatum, lam: Sequence) -> FormalCharacter:
    """Character of the irreducible R-module with highest weight lam.

    Freudenthal recursion over the Levi's positive roots, run level by level
    from the highest weight.  Exact integer arithmetic throughout: the
    recursion is evaluated with 2x the invariant form, which is integral on
    the root lattice shifted by lam.  The ambient form needs no projection:
    the central component of every weight is constant and orthogonal to span(S).
    """
    lam = tuple(lam)
    L.check_S_dominant(lam)
    rd = L.rd
    rank = rd.rank
    pos = L.levi_positive_roots()
    two_rho = L.two_rho

    g2 = rd.form2

    def inner2(x, y):  # 2(x, y)
        tot = 0
        for i, a in enumerate(x):
            if a:
                row = g2[i]
                tot += a * sum(row[j] * b for j, b in enumerate(y) if b)
        return tot

    mult: Dict[Weight, int] = {lam: 1}
    level = [lam]
    simples = [tuple(1 if j == i else 0 for j in range(rank)) for i in L.S]
    while level:
        nxt = set()
        for w in level:
            for a in simples:
                nxt.add(tuple(x - y for x, y in zip(w, a)))
        new_level = []
        for mu in sorted(nxt):
            # denominator: (lam+rho,lam+rho) - (mu+rho,mu+rho) = (lam+mu+2rho, lam-mu)
            upl = tuple(a + b + c for a, b, c in zip(lam, mu, two_rho))
            dif = tuple(a - b for a, b in zip(lam, mu))
            den = inner2(upl, dif)
            if den <= 0:
                continue
            num = 0
            for al in pos:
                k = 1
                while True:
                    w = tuple(a + k * b for a, b in zip(mu, al))
                    if any(a > b for a, b in zip(w, lam)):
                        break
                    m = mult.get(w, 0)
                    if m:
                        num += 2 * m * inner2(w, al)
                    k += 1
            if num:
                q, r = divmod(num, den)
                _require(r == 0, "Freudenthal multiplicity must be integral")
                if q > 0:
                    mult[mu] = q
                    new_level.append(mu)
        level = new_level
    return dict(mult)


def _check_invariant(L: LeviDatum, chi: Mapping) -> None:
    """ValueError unless chi is W_S-invariant: each simple reflection of S
    takes a weight to one of the same multiplicity."""
    rd, S = L.rd, L.S
    for mu, m in chi.items():
        pr = rd.simple_pairings(mu)
        for i in S:
            c = pr[i]
            if c and chi.get(mu[:i] + (mu[i] - c,) + mu[i + 1:], 0) != m:
                raise ValueError(f"not an R-module character (not W_S-invariant at {mu})")


class InvariantCharacter(Mapping):
    """A read-only W_S-invariant character of the Levi datum `levi`,
    checked once when it is built: `decompose` does not check it again."""

    __slots__ = ("levi", "_chi")

    def __init__(self, L: LeviDatum, chi: Mapping):
        chi = dict(chi)
        _check_invariant(L, chi)
        self.levi, self._chi = L, chi

    def __getitem__(self, w: Weight) -> int:
        return self._chi[w]

    def __iter__(self):
        return iter(self._chi)

    def __len__(self) -> int:
        return len(self._chi)

    def items(self):  # the dict's own view, for `decompose`'s fold loop
        return self._chi.items()


def decompose(L: LeviDatum, chi: FormalCharacter,
              lam: Optional[Sequence[int]] = None) -> List[Tuple[Weight, int]]:
    """Highest weights (with multiplicities) of V_lam (x) chi, for an
    S-dominant lam (default 0: the module chi itself).

    Brauer-Klimyk: each weight mu of chi is folded by W_S: 2(lam + mu +
    rho_S) goes into the closed dominant chamber in integers, a result on a
    wall is dropped, and otherwise (-1)^steps m(mu) is added to the
    coefficient of w(lam + mu + rho_S) - rho_S.  Sorted by (height, lex),
    largest first.  Raises ValueError unless chi is an R-module character:
    chi must be W_S-invariant, and then every coefficient must be >= 0.
    """
    if chi.__class__ is not InvariantCharacter or chi.levi is not L:
        _check_invariant(L, chi)
    rd, S = L.rd, L.S
    two_rho = L.two_rho
    shift = two_rho
    if lam is not None:
        L.check_S_dominant(lam)
        shift = tuple(2 * a + b for a, b in zip(lam, two_rho))
    coeffs: Dict[Weight, int] = {}
    for mu, m in chi.items():
        v, steps, singular = rd.fold(tuple(2 * a + b for a, b in zip(mu, shift)), S)
        if not singular:
            top = tuple((a - b) // 2 for a, b in zip(v, two_rho))
            coeffs[top] = coeffs.get(top, 0) + (-m if steps % 2 else m)
    out = [(top, k) for top, k in coeffs.items() if k]
    for top, k in out:
        if k < 0:
            raise ValueError(f"not an R-module character (V{top} has multiplicity {k})")
    out.sort(key=lambda t: (-sum(t[0]), tuple(-c for c in t[0])))
    return out
