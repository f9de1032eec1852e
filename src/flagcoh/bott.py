"""Bott's algorithm and bundle cohomology H^q(M, Omega^p (x) Theta) for the
irreducible compact Hermitian symmetric spaces, with the case-I/II/III
classification.

Vector bundles enter as R-characters (the isotropy representation restricted
to the Levi determines everything here); non-Hermitian-symmetric parabolic
data is refused outright.  Every column and invariant count reads the
Brauer-Klimyk folds of V(a) (x) n+ through `HermitianSymmetricSpace.fold`,
which folds each Kostant weight a once per space and keeps the read-only
result on the frozen space, keyed by a alone: no root datum is hashed.
The n+ character it folds over is built, and checked W_S-invariant, once
per space.
The module only computes: the published k list, case tables and their
recorded deviations are `verify`'s.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional, Sequence, Tuple

from .record import Record
from .repdecomp import InvariantCharacter, LeviDatum, char_of_roots, decompose
from .rootsys import RootDatum, SimpleLieType, Weight, _require, build_root_system

Case = str  # "I" | "II" | "III"


class HermitianSymmetricSpace(Record):
    rd: RootDatum
    alpha0: int
    levi: LeviDatum
    N_plus: Tuple[Weight, ...]
    case: Case
    _fields = ("rd", "alpha0", "levi", "N_plus", "case")

    @property
    def dim(self) -> int:
        return len(self.N_plus)

    def n_plus_character(self) -> InvariantCharacter:
        """The character of n+, built and checked W_S-invariant once per
        space (`_n_plus`); read-only, as the space is shared."""
        return self._n_plus

    @functools.cached_property
    def _n_plus(self) -> InvariantCharacter:
        return InvariantCharacter(self.levi, char_of_roots(self.N_plus))

    @functools.cached_property
    def kostant_weights(self) -> Tuple[Tuple[Weight, ...], ...]:
        """Per p = 0..dim, the highest weights of wedge^p n- = H^p(n+, C) (n+
        is abelian), each once: Kostant's w(rho) - rho over the minimal coset
        representatives w of length p (Ann. of Math. 74, 1961)."""
        return tuple(map(tuple, self.rd.coset_weights(self.levi.S)))

    @functools.cached_property
    def _folds(self) -> Dict[Weight, Tuple[Tuple[Weight, int], ...]]:
        """`fold`'s memo, one per space."""
        return {}

    def fold(self, a: Weight) -> Tuple[Tuple[Weight, int], ...]:
        """The highest weights, with multiplicities, of V(a) (x) n+ by one
        Brauer-Klimyk fold (`repdecomp.decompose`), once per weight a of the
        space; read-only, as the space is shared."""
        got = self._folds.get(a)
        if got is None:
            got = self._folds[a] = tuple(decompose(self.levi, self.n_plus_character(), a))
        return got

    def __str__(self):
        return f"{self.rd.type}/alpha{self.alpha0}"


@functools.cache
def build_space(t: SimpleLieType, alpha0: int) -> HermitianSymmetricSpace:
    """The space G/P for the special simple root alpha0 of t, built once per
    (t, alpha0) and shared: it is frozen, and nothing mutates it."""
    rd = build_root_system(t)
    if alpha0 not in rd.special_simple_roots():
        raise ValueError(
            f"alpha_{alpha0} of {t} is not special (n_alpha = "
            f"{rd.delta[alpha0] if 0 <= alpha0 < rd.rank else '?'})"
        )
    S = tuple(i for i in range(rd.rank) if i != alpha0)
    # a positive root is at most delta coefficient-wise, so its alpha0-coefficient is 0 or 1
    n_plus = [r for r in rd.positive_roots if r[alpha0]]
    # n+ is abelian: the sum of two of its roots has alpha0-coefficient 2
    roots = set(rd.positive_roots)
    _require(all(tuple(x + y for x, y in zip(a, b)) not in roots for a in n_plus for b in n_plus),
             f"n+ of {t}/alpha{alpha0} is abelian")

    neighbors = tuple(
        i for i in range(rd.rank) if i != alpha0 and rd.cartan[i][alpha0] != 0
    )
    a0 = tuple(1 if j == alpha0 else 0 for j in range(rd.rank))
    d_a0 = rd.inner(rd.delta, a0)
    case = "III" if d_a0 != 0 else {2: "II", 1: "I"}.get(len(neighbors))
    _require(case is not None, "special root with no neighbor")
    return HermitianSymmetricSpace(
        rd=rd,
        alpha0=alpha0,
        levi=LeviDatum(rd, S),
        N_plus=tuple(sorted(n_plus)),
        case=case,
    )


# ---------------------------------------------------------------------------
# Desk-scale presets
# ---------------------------------------------------------------------------

# name -> (type, alpha0, classical dimension)
_PRESETS: Dict[str, Tuple[str, int, int]] = {
    "CP2": ("A2", 1, 2),        # Gr(3,1)
    "CP3": ("A3", 2, 3),        # Gr(4,1)
    "Q3": ("B2", 0, 3),
    "Q5": ("B3", 0, 5),
    "Gr(4,2)": ("A3", 1, 4),
    "Gr(5,2)": ("A4", 2, 6),
    "Gr(5,3)": ("A4", 1, 6),
    "Gr(6,3)": ("A5", 2, 9),
    "LG3": ("C3", 2, 6),
    "S-D4": ("D4", 3, 6),
}

PRESET_NAMES = tuple(_PRESETS)

# presets the acceptance suite runs over (spec's desk-scale catalog)
DESK_PRESETS = (
    "CP2", "CP3", "Q3", "Q5", "Gr(4,2)", "Gr(5,2)", "Gr(6,3)", "LG3", "S-D4",
)


def preset_key(name: str) -> str:
    """The preset's normalised name (spaces dropped, an alias resolved);
    `ValueError` if name names no preset."""
    s = name.strip().replace(" ", "")
    alias = {
        "CP^2": "CP2", "CP^3": "CP3", "Q^3": "Q3", "Q^5": "Q5",
        "LG(3)": "LG3", "SD4": "S-D4", "S(D4)": "S-D4",
        "Gr(3,1)": "CP2", "Gr(4,1)": "CP3",
    }
    key = alias.get(s, s)
    if key not in _PRESETS:
        raise ValueError(f"unknown space preset {name!r}; try one of {PRESET_NAMES}")
    return key


def space_from_preset(name: str) -> HermitianSymmetricSpace:
    """The preset space of that name, built once per normalised name (through
    `build_space`)."""
    key = preset_key(name)
    tspec, a0, dim = _PRESETS[key]
    H = build_space(SimpleLieType(tspec[0], int(tspec[1:])), a0)
    _require(H.dim == dim, f"{key}: dim {H.dim} != classical {dim}")
    return H


def grassmannian_rs(H: HermitianSymmetricSpace) -> Optional[Tuple[int, int]]:
    """(r, s) with n+ = Mat_{r x s} when H is a type-A Grassmannian."""
    if H.rd.type.family != "A":
        return None
    n = H.rd.rank + 1
    r = H.alpha0 + 1
    return r, n - r


# ---------------------------------------------------------------------------
# Bott algorithm
# ---------------------------------------------------------------------------


def bott_irreducible(
    H: HermitianSymmetricSpace, lam: Sequence
) -> Optional[Tuple[int, Weight]]:
    """One irreducible bundle through Bott: None if Lam+gamma is singular,
    else (q, Lam*) with q the index and Lam* = dominant(Lam+gamma) - gamma,
    in integers through 2(Lam + gamma).  The wall is decided from the positive
    root pairings before any fold, and only a regular weight is folded."""
    rd = H.rd
    H.levi.check_S_dominant(lam)
    two_gamma = rd.two_gamma
    v = tuple(2 * c + g for c, g in zip(lam, two_gamma))
    pairs = rd.root_pairings(v)
    if 0 in pairs:
        return None
    dom, index, _ = rd.fold(v, range(rd.rank))
    _require(index == sum(1 for s in pairs if s < 0),
             f"greedy reflection count {index} != the number of negative root pairings")
    lam_star = tuple((a - g) // 2 for a, g in zip(dom, two_gamma))
    _require(rd.is_dominant(lam_star), "Bott's lam* is dominant")
    return index, lam_star


class ModuleDescriptor(Record):
    """A G-module in a cohomology table: trivial, adjoint, or other."""

    tag: str            # "trivial" | "adjoint" | "other"
    weight: Weight
    dim: int
    mult: int
    _fields = ("tag", "weight", "dim", "mult")

    def total_dim(self) -> int:
        return self.dim * self.mult


def _descriptor(H: HermitianSymmetricSpace, w: Weight, mult: int) -> ModuleDescriptor:
    if not any(w):
        return ModuleDescriptor("trivial", w, 1, mult)
    tag = "adjoint" if w == H.rd.delta else "other"
    return ModuleDescriptor(tag, w, H.rd.weyl_dimension(w), mult)


def tag_counts(descs: Sequence[ModuleDescriptor]) -> Tuple[int, int, int]:
    """The (adjoint, trivial, other) multiplicity totals of descs."""
    return tuple(sum(d.mult for d in descs if d.tag == tag)
                 for tag in ("adjoint", "trivial", "other"))


def _merge_descriptors(items: List[ModuleDescriptor]) -> List[ModuleDescriptor]:
    acc: Dict[Tuple[str, Weight, int], int] = {}
    for d in items:
        key = (d.tag, d.weight, d.dim)
        acc[key] = acc.get(key, 0) + d.mult
    order = {"adjoint": 0, "other": 1, "trivial": 2}
    return sorted((ModuleDescriptor(*key, m) for key, m in acc.items()),
                  key=lambda d: (order[d.tag], tuple(-c for c in d.weight)))


def cohomology_omega_p_theta(
    H: HermitianSymmetricSpace, p: int, q_max: int
) -> Dict[int, List[ModuleDescriptor]]:
    """H^q(M, Omega^p (x) Theta) for q = 0..q_max, as module descriptors.

    The bundle is tau (x) wedge^p tau^* = sum over Kostant's weights a of
    degree p of V(a) (x) n+, each decomposed by the space's one Brauer-Klimyk
    fold per weight (`HermitianSymmetricSpace.fold`); each irreducible is
    pushed through Bott.
    """
    if not 0 <= p <= H.dim:
        raise ValueError(f"p = {p} out of range 0..{H.dim}")
    coeffs: Dict[Weight, int] = {}
    for a in H.kostant_weights[p]:
        for lam, mult in H.fold(a):
            coeffs[lam] = coeffs.get(lam, 0) + mult
    column: Dict[int, List[ModuleDescriptor]] = {q: [] for q in range(q_max + 1)}
    for lam, mult in coeffs.items():
        res = bott_irreducible(H, lam)
        if res is not None and res[0] <= q_max:
            column[res[0]].append(_descriptor(H, res[1], mult))
    return {q: _merge_descriptors(v) for q, v in column.items()}


def invariant_dimension(H: HermitianSymmetricSpace, p: int, q: int) -> int:
    """dim H^q(M, Omega^p (x) Theta)^G via the isotropy-invariants route:
    the trivial multiplicity of wedge^p n- (x) wedge^q n+ (x) n+ over R, the
    sum over Kostant's a, b of degrees p, q of [V(a) (x) n+ : V(b)], read
    off the same folds as `cohomology_omega_p_theta`."""
    if not (0 <= p <= H.dim and 0 <= q <= H.dim):
        raise ValueError("p, q out of range")
    targets = set(H.kostant_weights[q])
    return sum(mult for a in H.kostant_weights[p]
               for lam, mult in H.fold(a) if lam in targets)


def k_value(H: HermitianSymmetricSpace) -> int:
    """k = dim H^2(M, Omega^3 (x) Theta)^G, 0 when dim M < 3."""
    return invariant_dimension(H, 3, 2) if H.dim >= 3 else 0
