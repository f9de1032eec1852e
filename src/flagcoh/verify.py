"""The acceptance gate: one named check per published-result criterion,
shared by the test suite and the command-line verify-all gate, and the one
home of the published values those checks and the CLI compare against: the
k list, the case tables with their hand-checked deviations, the E3 rows, the
(3,2) reading and the (n^2-1 | n^2) check.  `bott` and `spectral` only
compute.

Each check returns (ok, detail).  Checks asserting published table entries
that the exact computation disproves stay red by design; the companion
`*_computed` variants pin the verified values so regressions get caught.
The repository's errata notes explain every red cell.
"""

from __future__ import annotations

import functools
import math
import random
import time
from fractions import Fraction
from itertools import repeat
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from . import bott, exterior, invforms, liecoh, spectral, superfields
from .bott import DESK_PRESETS, ModuleDescriptor, space_from_preset, tag_counts
from .record import Record
from .rootsys import _require
from .scalars import QSqrt2, RT2


class CheckResult(Record):
    name: str
    ok: bool
    detail: str
    seconds: float
    _fields = ("name", "ok", "detail", "seconds")


Check = Tuple[str, str, Callable[[], Tuple[bool, str]]]


# --- the published values ----------------------------------------------------

def published_k_value(H: bott.HermitianSymmetricSpace) -> Optional[int]:
    """The k = dim H^2(Omega^3 (x) Theta)^G value the published case list
    gives, or None when the space is outside that list."""
    fam = H.rd.type.family
    l = H.rd.rank
    if H.case == "III":
        return 0 if l == 2 else 1
    if H.case == "II":
        rs = bott.grassmannian_rs(H)
        _require(rs is not None, "a case II space is a Grassmannian")
        r, s = sorted(rs)
        if (r, s) == (2, 2):
            return 2
        if r == 2:
            return 3
        return 4
    # case I
    if fam in ("B", "E"):
        return 1
    if fam == "C":
        return 2
    if fam == "D":
        if H.alpha0 == 0:
            # quadric node; the published list covers only l > 4 here
            return 1 if l > 4 else None
        return 2  # fork node: maximal isotropic Grassmannian
    return None


# Verified deviations of the computed tables from the published case tables
# (extra G-modules the published proofs of the H^1/H^2 vanishing statements
# miss; each entry hand-checked in epsilon coordinates and, for Q3, against
# a Riemann-Roch Euler characteristic).  preset -> {(p, q): [descriptors]}.
PUBLISHED_TABLE_DEVIATIONS: Dict[str, Dict[Tuple[int, int], List[ModuleDescriptor]]] = {
    "Q3": {(2, 1): [ModuleDescriptor("other", (1, 1), 5, 1)]},
    "Q5": {(3, 2): [ModuleDescriptor("other", (1, 1, 1), 7, 1)]},
    "LG3": {
        (2, 2): [ModuleDescriptor("adjoint", (2, 2, 1), 21, 1)],
        (3, 2): [ModuleDescriptor("other", (1, 2, 1), 14, 1)],
    },
    "Gr(5,2)": {(2, 2): [ModuleDescriptor("adjoint", (1, 1, 1, 1), 24, 1)]},
    "Gr(6,3)": {(2, 2): [ModuleDescriptor("adjoint", (1, 1, 1, 1, 1), 35, 2)]},
}


def published_table_entry(case: str, k: int, p: int, q: int) -> Tuple[int, int]:
    """(adjoint count, trivial count) the published case table shows at (p,q),
    for q <= 2; everything outside the listed cells is 0."""
    cells = {
        ("I", 0, 0): (1, 0), ("I", 1, 0): (0, 1),
        ("I", 1, 1): (1, 0), ("I", 2, 1): (0, 1), ("I", 3, 2): (0, k),
        ("II", 0, 0): (1, 0), ("II", 1, 0): (0, 1),
        ("II", 1, 1): (1, 0), ("II", 2, 1): (0, 2), ("II", 3, 2): (0, k),
        ("III", 0, 0): (1, 0), ("III", 1, 0): (0, 1),
        ("III", 2, 1): (0, 1), ("III", 3, 2): (0, k),
    }
    return cells.get((case, p, q), (0, 0))


# rows q = 0,1 of the published E3 tables as (adjoint, trivial) counts per
# (p, q), one row per regime; the II-special row follows the item-(3) statement,
# and III-CP2 is regime III on CP2 (n = 3), where (1,1) keeps a trivial
_PUBLISHED_E3_ROWS: Dict[str, Dict[Tuple[int, int], Tuple[int, int]]] = {
    "I": {(0, 0): (1, 0), (1, 0): (0, 1), (0, 1): (1, 0)},
    "II-generic": {(0, 0): (1, 0), (1, 0): (0, 1), (0, 1): (1, 0), (2, 1): (0, 1)},
    "II-special": {(0, 0): (1, 0), (1, 0): (0, 1), (0, 1): (1, 0), (1, 1): (0, 1),
                   (2, 1): (0, 1)},
    "II-eta": {(-1, 0): (1, 0), (0, 0): (1, 0), (1, 0): (0, 1), (0, 1): (1, 0),
               (1, 1): (1, 0), (2, 1): (0, 1)},
    "III": {(-1, 0): (1, 0), (0, 0): (1, 0), (1, 0): (0, 1)},
    "III-CP2": {(-1, 0): (1, 0), (0, 0): (1, 0), (1, 0): (0, 1), (1, 1): (0, 1)},
}


def published_e3_rows(regime: str) -> Dict[Tuple[int, int], Tuple[int, int]]:
    """The published rows of `regime` ('I', 'II-generic', 'II-special',
    'II-eta', 'III', 'III-CP2')."""
    if regime not in _PUBLISHED_E3_ROWS:
        raise ValueError(regime)
    return dict(_PUBLISHED_E3_ROWS[regime])


def e3_rows_summary(res: spectral.E3Result) -> Dict[Tuple[int, int], Tuple[int, int, int]]:
    """Computed (adjoint, trivial, other) totals per entry, rows 0,1."""
    out = {}
    for (p, q), entry in res.E3.items():
        counts = tag_counts([s.descriptor for s in entry])
        if q <= 1 and any(counts):
            out[(p, q)] = counts
    return out


def flagged_32_comparison(res: spectral.E3Result) -> Dict[str, object]:
    """The (3,2) entry: computed trivial part vs the published superscript
    read as k-1 (case I, theta = theta2) resp. k-2 (case II)."""
    H = res.H
    k = bott.k_value(H)
    entry = res.E3.get((3, 2), [])
    computed = sum(
        s.descriptor.mult for s in entry
        if s.descriptor.tag == "trivial" and s.status == "ok"
    )
    if H.case == "II":
        published = max(k - 2, 0)
    else:
        published = max(k - 1, 0)
    return {
        "computed_trivial": computed,
        "published_reading": published,
        "agree": computed == published,
        "k": k,
    }


def pq_consistency(H: bott.HermitianSymmetricSpace) -> Dict[str, object]:
    """For Gr(n,s) with theta = eta, the super vector-field dimensions must
    be (n^2 - 1 | n^2), matching q_n / <I>."""
    rs = bott.grassmannian_rs(H)
    if rs is None:
        raise ValueError("pq consistency is a Grassmannian check")
    n = rs[0] + rs[1]
    report, _ = spectral.cohomology_of_T(H, 0, 1)
    dims = report.dims()
    expected = {"even": n * n - 1, "odd": n * n}
    ok = dims["H0_even"] == expected["even"] and dims["H0_odd"] == expected["odd"]
    return {
        "space": str(H),
        "n": n,
        "H0_even": dims["H0_even"],
        "H0_odd": dims["H0_odd"],
        "expected": expected,
        "ok": ok,
    }


# --- criterion 1: published cohomology tables --------------------------------

def _c1_cells(H: bott.HermitianSymmetricSpace, k: int) -> Iterator[Tuple]:
    """(p, q, computed (adjoint, trivial, other), published (adjoint,
    trivial)) per cell p <= min(4, dim M), q <= 2 of H's table."""
    for p in range(0, min(4, H.dim) + 1):
        col = bott.cohomology_omega_p_theta(H, p, q_max=2)
        for q in range(3):
            yield p, q, tag_counts(col[q]), published_table_entry(H.case, k, p, q)


def check_c1_tables(name: str) -> Tuple[bool, str]:
    H = space_from_preset(name)
    k = bott.k_value(H)
    bad = [f"(p={p},q={q}): computed {got} != published {cell + (0,)}"
           for p, q, got, cell in _c1_cells(H, k) if got != cell + (0,)]
    if bad:
        return False, "; ".join(bad)
    return True, f"matches the published case-{H.case} table, k={k}"


def check_c1_tables_computed(name: str) -> Tuple[bool, str]:
    """The same cells against the verified values (published + recorded
    deviations); guards the computation itself."""
    H = space_from_preset(name)
    deviations = PUBLISHED_TABLE_DEVIATIONS.get(name, {})
    for p, q, got, (ea, et) in _c1_cells(H, bott.k_value(H)):
        xa, _, eo = tag_counts(deviations.get((p, q), []))
        if got != (ea + xa, et, eo):
            return False, f"(p={p},q={q}): {got} != {(ea + xa, et, eo)}"
    return True, "verified table reproduced"


# --- criterion 2: dual-route invariants ---------------------------------------

def check_c2_dual_route(name: str) -> Tuple[bool, str]:
    H = space_from_preset(name)
    for p in range(0, min(3, H.dim) + 1):
        col = bott.cohomology_omega_p_theta(H, p, q_max=2)
        for q in range(0, 3):
            triv = tag_counts(col[q])[1]
            inv = bott.invariant_dimension(H, p, q)
            if inv != triv:
                return False, f"(p={p},q={q}): {inv} != {triv}"
            if q != p - 1 and inv != 0:
                return False, f"(p={p},q={q}): nonzero off the diagonal"
            if q == p - 1 and p >= 1 and inv == 0:
                return False, f"(p={p},q={q}): zero on the diagonal"
    return True, "both routes agree; nonzero exactly at q = p-1"


# --- criterion 3: the k-values -------------------------------------------------

_K_EXPECTED = {
    "CP2": 0, "CP3": 1, "Q3": 1, "Q5": 1, "Gr(4,2)": 2, "LG3": 2,
    "S-D4": 2, "Gr(5,2)": 3, "Gr(6,3)": 4,
}


def check_c3_k_values() -> Tuple[bool, str]:
    bad = []
    for name, want in _K_EXPECTED.items():
        H = space_from_preset(name)
        got = bott.k_value(H)
        stated = published_k_value(H)
        if got != want:
            bad.append(f"{name}: computed {got} != {want}")
        if stated is not None and stated != got:
            bad.append(f"{name}: flagged - computed {got}, stated {stated}")
    if bad:
        return False, "; ".join(bad)
    return True, "all k-values match the stated list"


# --- criterion 4: exterior calculus -------------------------------------------

class _Ids:
    """An id for each distinct value, in order of first sight: memos that
    live for one check call key on these ids."""

    def __init__(self):
        self.values: List[object] = []
        self._ids: Dict[object, int] = {}

    def of(self, value) -> int:
        i = self._ids.setdefault(value, len(self.values))
        if i == len(self.values):
            self.values.append(value)
        return i


def check_c4_exterior() -> Tuple[bool, str]:
    t0 = time.perf_counter()
    # cj = p!(m-p) id for p < m <= 5
    for m in range(1, 6):
        for p in range(m):
            for mono in exterior.basis_monomials(m, p):
                psi = exterior.GrassmannElement.make(m, {mono: Fraction(1)})
                got = exterior.contraction_c(exterior.j_map(m, psi))
                if got != psi.scale(math.factorial(p) * (m - p)):
                    return False, f"cj failed at m={m}, p={p}"
    # i(bracket) = supercommutator on every basis pair, m <= 4, compared as
    # terms (on every generator).  i(psi)xi_g is psi's image of xi_g, so
    # i([phi, psi])xi_g is the bracket's image: no bracket is applied.
    # Values are held as ids, one per distinct element: each i(phi)x for the
    # images x and each distinct right-hand side is computed once, and only
    # where phi or psi has an image.  The brackets of m <= 3 are kept as
    # the table that super-Jacobi reads.
    bases, tables = {}, {}
    for m in (2, 3, 4):
        basis = bases[m] = [exterior.VectorValuedForm.basis_element(m, mo, j)
                            for mo, j in exterior.wedge_basis(m)]
        xs, ys = _Ids(), _Ids()
        on_gens = [[xs.of(x) for x in psi.images] for psi in basis]
        nonzero = [[g for g, x in enumerate(psi.images) if x.terms] for psi in basis]
        on_xs = [[ys.of(exterior.apply_derivation(phi, x)) for x in xs.values] for phi in basis]

        @functools.cache
        def side(u: int, v: int, sgn: int) -> Tuple[Tuple[tuple, object], ...]:
            """The terms of a generator's right-hand side, by the ids of
            i(phi)psi_g and i(psi)phi_g and the sign."""
            return (ys.values[u] - ys.values[v].scale(sgn)).terms

        table = tables[m] = []
        for phi, xa, ga, na in zip(basis, on_xs, on_gens, nonzero):
            odd = phi.degree % 2
            row = [exterior.bracket(phi, psi) for psi in basis]
            for br, psi, xb, gb, nb in zip(row, basis, on_xs, on_gens, nonzero):
                sgn = -1 if odd and psi.degree % 2 else 1
                rhs = {(g, mono): c for g in na + nb
                       for mono, c in side(xa[gb[g]], xb[ga[g]], sgn)}
                if br.terms != rhs:
                    return False, f"bracket identity failed at m={m}"
            if m < 4:
                table.append(row)
    # the grading-bracket, insertion-of-j and splitting identities
    for m, basis in bases.items():
        eps = exterior.grading_derivation(m)
        for v in basis:
            if exterior.bracket(eps, v).terms != v.scale(v.degree).terms:
                return False, "grading bracket identity failed"
        for p in range(m + 1):
            for mono in exterior.basis_monomials(m, p):
                psi = exterior.GrassmannElement.make(m, {mono: Fraction(1)})
                jpsi = exterior.j_map(m, psi)
                for q in range(m + 1):
                    for mo2 in exterior.basis_monomials(m, q):
                        a = exterior.GrassmannElement.make(m, {mo2: Fraction(1)})
                        if exterior.apply_derivation(jpsi, a) != (psi * a).scale(q):
                            return False, "i(j(psi)) = psi eps failed"
        rng = random.Random(4)
        for p in range(m):
            comps = []
            for _ in range(m):
                data = {
                    mono: Fraction(rng.randint(-2, 2))
                    for mono in exterior.basis_monomials(m, p + 1)
                }
                comps.append(exterior.GrassmannElement.make(m, data))
            phi = exterior.VectorValuedForm.make(m, p, comps)
            psi, chi = exterior.decompose_im_j_ker_c(phi)
            if not exterior.contraction_c(chi).is_zero():
                return False, "splitting failed"
            if (exterior.j_map(m, psi, degree=p) + chi).terms != phi.terms:
                return False, "splitting reconstruction failed"
    # super-Jacobi on every basis triple, m <= 3.  Forms are held as ids,
    # one per distinct value, and the basis ids come first.  Each bracket
    # [b, v] and [v, b] of a basis form b and a form v of the table off the
    # basis is computed once.  Each (b1, b2) row of triples gives its b3 keys
    # (lhs, r1, r2, s12) at once, into one set per m, and each distinct key
    # is decided once, lhs against r1 + s12 r2; zero results of different
    # degrees compare equal, as their terms are compared.
    for m in (2, 3):
        forms = _Ids()

        def br(x: int, y: int) -> int:
            return forms.of(exterior.bracket(forms.values[x], forms.values[y]))

        basis = [forms.of(b) for b in bases[m]]
        table = [[forms.of(v) for v in row] for row in tables[m]]
        ids = range(len(forms.values))      # the basis and the table's values
        in_basis = set(basis)
        left = [[table[b][v] if v in in_basis else br(b, v) for v in ids] for b in basis]
        right = [[table[v][b] if v in in_basis else br(v, b) for b in basis] for v in ids]
        keys = set()
        for b1 in basis:
            odd1 = forms.values[b1].degree % 2
            for b2 in basis:
                s12 = -1 if odd1 and forms.values[b2].degree % 2 else 1
                keys.update(zip(map(left[b1].__getitem__, table[b2]), right[table[b1][b2]],
                                map(left[b2].__getitem__, table[b1]), repeat(s12)))
        for key in keys:
            lhs, r1, r2 = (forms.values[z] for z in key[:3])
            if lhs.terms != (r1 + r2.scale(key[3])).terms:
                return False, f"super-Jacobi failed at m={m}"
    dt = time.perf_counter() - t0
    return dt < 30, "all identities exact (budget 30s)"


# --- criterion 5: invariant-form algebra ---------------------------------------

def check_c5_theta_product_law() -> Tuple[bool, str]:
    for rs in ((3, 2), (3, 3)):
        space = invforms.MatrixPairSpace(*rs)
        for p in range(1, 5):
            for q in range(1, 5):
                if p + q > 5 or p + q - 1 > space.dim:
                    continue
                got = invforms.barwedge_inv(invforms.theta_p(space, p), invforms.theta_p(space, q))
                want = invforms.theta_p(space, p + q - 1).scale(p)
                if got != want:
                    return False, f"theta_{p} ^ theta_{q} failed on {rs}"
    return True, "theta_p ^ theta_q = p theta_{p+q-1} for p+q <= 5"


def _c5_products_hold(sp: invforms.MatrixPairSpace, factors) -> List[bool]:
    """Whether theta2^theta2, theta2^eta, eta^theta2 and eta^eta on sp equal
    factors times theta3, eta1+eta2, eta2 and eta3, in that order.  On Mat
    3x3 these forms set the gate's peak memory, so each right-hand side is
    built when it is compared and each product is dropped after."""
    def rhs():
        yield invforms.theta_p(sp, 3)
        e2 = invforms.eta2(sp)
        yield invforms.eta1(sp) + e2
        yield e2
        yield invforms.eta3(sp)

    products = [f for row in invforms.theta_products(sp) for f in row][::-1]
    return [products.pop() == r.scale(c) for r, c in zip(rhs(), factors)]


def check_c5_product_identities_published() -> Tuple[bool, str]:
    names = ("theta2^theta2 = 2 theta3", "theta2^eta = 2(eta1+eta2)",
             "eta^theta2 = 4 eta2", "eta^eta = 4 eta3")
    holds = _c5_products_hold(invforms.MatrixPairSpace(2, 2), (2, 2, 4, 4))
    bad = [nm for nm, ok in zip(names, holds) if not ok]
    if bad:
        return False, "published equalities failing (computed values are half): " + ", ".join(bad)
    return True, "all four published product identities hold"


def check_c5_product_identities_computed() -> Tuple[bool, str]:
    for rs in ((2, 2), (3, 2), (3, 3)):
        if not all(_c5_products_hold(invforms.MatrixPairSpace(*rs), (2, 1, 2, 2))):
            return False, f"verified product values failed on {rs}"
    return True, "verified products: th2^eta = eta1+eta2, eta^th2 = 2 eta2, eta^eta = 2 eta3"


def check_c5_relations_and_ranks() -> Tuple[bool, str]:
    half = QSqrt2(Fraction(1, 2))
    g53 = invforms.MatrixPairSpace(2, 3)
    if invforms.eta3(g53) != (
        invforms.eta2(g53) + invforms.eta1(g53).scale(half)
        - invforms.theta_p(g53, 3).scale(half)
    ):
        return False, "r=2 eta relation failed on Gr(5,3)"
    g52 = invforms.MatrixPairSpace(3, 2)
    if invforms.eta3(g52) != (
        invforms.eta2(g52).scale(-1) - invforms.eta1(g52).scale(half)
        - invforms.theta_p(g52, 3).scale(half)
    ):
        return False, "s=2 eta relation failed on Gr(5,2)"
    g42 = invforms.MatrixPairSpace(2, 2)
    if invforms.eta2(g42) != invforms.eta1(g42).scale(-half):
        return False, "Gr(4,2) eta2 relation failed"
    if invforms.eta3(g42) != invforms.theta_p(g42, 3).scale(-half):
        return False, "Gr(4,2) eta3 relation failed"
    g63 = invforms.MatrixPairSpace(3, 3)
    ranks = (
        invforms.rank_of([invforms.theta_p(g63, 3), invforms.eta1(g63),
                          invforms.eta2(g63), invforms.eta3(g63)]) == 4
        and invforms.rank_of([invforms.theta_p(g52, 3), invforms.eta1(g52),
                              invforms.eta2(g52)]) == 3
        and invforms.rank_of([invforms.theta_p(g42, 3), invforms.eta1(g42)]) == 2
        and invforms.rank_of([invforms.theta_p(g42, 3), invforms.eta1(g42),
                              invforms.eta2(g42), invforms.eta3(g42)]) == 2
    )
    if not ranks:
        return False, "independence ranks failed"
    return True, "eta/theta linear relations exact; ranks per the independence lemma"


def check_c5_nilpotent_sqrt2() -> Tuple[bool, str]:
    """The published statement: on Gr(4,2) the nontrivial solutions are
    theta = sqrt2 theta2 +- eta with phi = theta2 +- sqrt2 eta, and none
    exist for n >= 5."""
    sp = invforms.MatrixPairSpace(2, 2)
    th2, et = invforms.theta_p(sp, 2), invforms.eta(sp)
    theta = th2.scale(RT2) + et
    phi = th2 + et.scale(RT2)
    if not invforms.barwedge_inv(theta, phi).is_zero():
        return False, (
            "sqrt2 theta2 + eta does not annihilate theta2 + sqrt2 eta; "
            "computed solutions are theta2 +- eta with theta2 +- 2 eta"
        )
    rep52 = invforms.nilpotent_pairs(invforms.MatrixPairSpace(3, 2))
    if not rep52.trivial_only:
        return False, "nontrivial pairs exist on Gr(5,2) (published: none for n >= 5)"
    return True, "published sqrt2 solutions verified"


def check_c5_nilpotent_computed() -> Tuple[bool, str]:
    rep42 = invforms.nilpotent_pairs(invforms.MatrixPairSpace(2, 2))
    names = {
        (str(ab[0]), str(ab[1]), str(cd[0]), str(cd[1]))
        for ab, cd in rep42.solutions
    }
    if names != {("1", "1", "1/2", "1"), ("-1", "1", "-1/2", "1")}:
        return False, f"Gr(4,2) solutions {names}"
    rep52 = invforms.nilpotent_pairs(invforms.MatrixPairSpace(3, 2))
    if {tuple(map(str, ab + cd)) for ab, cd in rep52.solutions} != {
        ("1", "1", "1/2", "1")
    }:
        return False, "Gr(5,2) computed solutions changed"
    if not invforms.nilpotent_pairs(invforms.MatrixPairSpace(3, 3)).trivial_only:
        return False, "Gr(6,3) should be trivial-only"
    return True, "computed: theta2 +- eta pairs with theta2 +- 2 eta (rational)"


# --- criterion 6: d2 at E2^{-1,1} -----------------------------------------------

def check_c6_d2_ranks() -> Tuple[bool, str]:
    for name, dim_g in (("Gr(4,2)", 15), ("Gr(5,2)", 24)):
        H = space_from_preset(name)
        if liecoh.d2_rank_on_vector_fields(H, 1, 0) != dim_g:
            return False, f"{name}: rank(theta2) != {dim_g}"
        rank, res = liecoh.d2_on_vector_fields(H, 0, 1)
        if rank != 0:
            return False, f"{name}: rank(eta) != 0"
        if not res.is_coboundary or res.witness is None:
            return False, f"{name}: no coboundary witness for c_eta"
        gb = liecoh.build_g_basis(H)
        c_eta = liecoh.cochain_from_form(gb, liecoh.theta_form(gb, 0, 1))
        if liecoh.ce_differential(res.witness) != c_eta:
            return False, f"{name}: witness does not work"
    return True, "ranks dim g / 0 with explicit witnesses recovered"


# --- criterion 7: E3 tables and H^0/H^1 -----------------------------------------

def _regime_check(name, a, b, regime, expected_dims) -> Tuple[bool, str]:
    H = space_from_preset(name)
    report, res = spectral.cohomology_of_T(H, a, b)
    rows = e3_rows_summary(res)
    got_rows = {k: (x, t) for k, (x, t, o) in rows.items()}
    extra_other = {k: o for k, (x, t, o) in rows.items() if o}
    want_rows = published_e3_rows(regime)
    problems = []
    if got_rows != want_rows or extra_other:
        problems.append(
            f"rows {got_rows} (+other {extra_other}) != published {want_rows}"
        )
    d = report.dims()
    got = (d["H0_even"], d["H0_odd"], d["H1_even"], d["H1_odd"])
    if got != expected_dims:
        problems.append(f"H dims {got} != {expected_dims}")
    if problems:
        return False, "; ".join(problems)
    return True, "matches the published tables and module structure"


# the five published parameter regimes (plus the super-dimension check);
# expected_dims = published (H0_even, H0_odd, H1_even, H1_odd)
C7_REGIMES = [
    ("7.I[Q3]", "Q3", 1, 0, "I", (10, 1, 10, 0)),
    ("7.II-generic[Gr(4,2)]", "Gr(4,2)", 1, 0, "II-generic", (15, 1, 16, 0)),
    ("7.II-generic[Gr(5,2)]", "Gr(5,2)", 1, 0, "II-generic", (24, 1, 25, 0)),
    ("7.II-special-sqrt2[Gr(4,2)]", "Gr(4,2)", RT2, 1, "II-special", (15, 1, 16, 1)),
    ("7.II-eta[Gr(4,2)]", "Gr(4,2)", 0, 1, "II-eta", (15, 16, 16, 15)),
    ("7.II-eta[Gr(5,2)]", "Gr(5,2)", 0, 1, "II-eta", (24, 25, 25, 24)),
    ("7.III[CP2]", "CP2", 1, 0, "III-CP2", (8, 9, 0, 1)),
    ("7.III[CP3]", "CP3", 1, 0, "III", (15, 16, 0, 0)),
]


def check_c7_pq_consistency() -> Tuple[bool, str]:
    for nm in ("Gr(4,2)", "Gr(5,2)", "CP2"):
        res = pq_consistency(space_from_preset(nm))
        if not res["ok"]:
            return False, f"{nm}: {res}"
    return True, "(n^2-1 | n^2) dimension checks hold"


def check_c7_computed_deviations() -> Tuple[bool, str]:
    """Pins the verified deviating values so regressions are caught."""
    report, res = spectral.cohomology_of_T(space_from_preset("Q3"), 1, 0)
    d = report.dims()
    if (d["H1_even"], d["H1_odd"]) != (15, 5):
        return False, f"Q3 computed H1 changed: {d}"
    report, res = spectral.cohomology_of_T(space_from_preset("Gr(5,2)"), 1, 0)
    d = report.dims()
    if (d["H1_even"], d["H1_odd"]) != (1, 0):
        return False, f"Gr(5,2) computed H1 changed: {d}"
    rep, res = spectral.cohomology_of_T(space_from_preset("Gr(4,2)"), 1, 1)
    if rep.dims()["H1_odd"] != 1:
        return False, "the rational special value theta2+eta lost its kernel"
    return True, "verified deviations stable"


# --- criterion 8: superfields ----------------------------------------------------

def check_c8_superfields() -> Tuple[bool, str]:
    t0 = time.perf_counter()
    # explicit formulas for all n <= 5 handled in the test suite; here the
    # structural facts at the stated sizes
    for (n, s) in ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)):
        res = superfields.homomorphism_check(n, s)
        if res["sigma"] != 1:
            return False, f"sigma != 1 at (n,s)=({n},{s})"
    for (n, s) in ((2, 1), (3, 1), (4, 2)):
        ker = superfields.kernel_of_action(n, s)
        if len(ker) != 1:
            return False, f"kernel dim != 1 at ({n},{s})"
        k = ker[0]
        c = k.A[0][0]
        if not c or any(
            k.A[i][j] != (c if i == j else 0) for i in range(n) for j in range(n)
        ) or any(any(row) for row in k.B):
            return False, f"kernel not <I> at ({n},{s})"
    for (n, s) in ((2, 1), (3, 1), (4, 2), (5, 2)):
        out = superfields.transitivity_at_origin(n, s)
        if not (out["even"] == out["odd"] == out["expected"]):
            return False, f"transitivity failed at ({n},{s})"
    # jet formulas spot check for n = 5 at every s
    rng = random.Random(1)
    for s in (1, 2, 3, 4):
        n = 5
        r = n - s
        Y = [[Fraction(rng.randint(-2, 2)) for _ in range(s)] for _ in range(r)]
        B = [[Fraction(0)] * n for _ in range(n)]
        for i in range(r):
            for a in range(s):
                B[i][r + a] = Y[i][a]
        f = superfields.fundamental_field(superfields.QnElement.make(n, B=B), s)
        for i in range(r):
            for a in range(s):
                expect = {} if not Y[i][a] else {((), ()): -Y[i][a]}
                if dict(f.c_xi[i * s + a].terms) != expect:
                    return False, f"y* formula failed at n=5, s={s}"
                if not f.c_x[i * s + a].is_zero():
                    return False, "y* has x components"
    dt = time.perf_counter() - t0
    return dt < 120, "sign, kernel, transitivity, n=5 formulas (budget 120s)"


# --- runner ---------------------------------------------------------------------

def all_checks() -> List[Check]:
    checks: List[Check] = []
    for name in DESK_PRESETS:
        checks.append(("1", f"1.tables[{name}]", lambda n=name: check_c1_tables(n)))
        checks.append(
            ("1c", f"1c.tables-computed[{name}]",
             lambda n=name: check_c1_tables_computed(n))
        )
    for name in DESK_PRESETS:
        checks.append(("2", f"2.dual-route[{name}]", lambda n=name: check_c2_dual_route(n)))
    checks.append(("3", "3.k-values", check_c3_k_values))
    checks.append(("4", "4.exterior", check_c4_exterior))
    checks.append(("5", "5.theta-products", check_c5_theta_product_law))
    checks.append(("5", "5.products-published", check_c5_product_identities_published))
    checks.append(("5c", "5c.products-computed", check_c5_product_identities_computed))
    checks.append(("5", "5.relations-ranks", check_c5_relations_and_ranks))
    checks.append(("5", "5.nilpotent-published-sqrt2", check_c5_nilpotent_sqrt2))
    checks.append(("5c", "5c.nilpotent-computed", check_c5_nilpotent_computed))
    checks.append(("6", "6.d2-ranks", check_c6_d2_ranks))
    for label, nm, a, b, regime, dims in C7_REGIMES:
        checks.append(
            ("7", label,
             lambda nm=nm, a=a, b=b, regime=regime, dims=dims:
             _regime_check(nm, a, b, regime, dims))
        )
    checks.append(("7", "7.pq-consistency", check_c7_pq_consistency))
    checks.append(("7c", "7c.computed-deviations", check_c7_computed_deviations))
    checks.append(("8", "8.superfields", check_c8_superfields))
    return checks


def _run_one(job: Check) -> CheckResult:
    _, name, fn = job
    t0 = time.perf_counter()
    try:
        ok, detail = fn()
    except Exception as exc:  # noqa: BLE001 - the gate reports, not raises
        ok, detail = False, f"exception: {exc}"
    return CheckResult(name, ok, detail, time.perf_counter() - t0)


def run_all(criteria: Optional[List[str]] = None,
            spaces: Optional[List[str]] = None) -> List[CheckResult]:
    """Run the selected checks in order, one at a time.  With `spaces`, only
    checks whose `[space]` is listed run.  A criterion no check has, or a
    selection that matches no check, is a ValueError."""
    checks = all_checks()
    known = {k for c, _, _ in checks for k in (c, c.rstrip("c"))}
    unknown = sorted(set(criteria or ()) - known)
    if unknown:
        raise ValueError(f"unknown criteria {unknown}; known: {sorted(known)}")
    jobs: List[Check] = []
    for crit, name, fn in checks:
        if criteria and crit.rstrip("c") not in criteria and crit not in criteria:
            continue
        space = name[name.index("[") + 1: name.index("]")] if "[" in name else None
        if spaces and space not in spaces:
            continue
        jobs.append((crit, name, fn))
    if not jobs:
        raise ValueError(f"no check matches criteria={criteria} spaces={spaces}")
    return [_run_one(job) for job in jobs]
