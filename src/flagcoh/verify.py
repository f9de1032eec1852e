"""The acceptance gate: one named check per published-result criterion,
shared by the test suite and the command-line verify-all gate.

Each check returns (ok, detail).  Checks asserting published table entries
that the exact computation disproves stay red by design; the companion
`*_computed` variants pin the verified values so regressions get caught.
The repository's errata notes explain every red cell.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from . import bott, invforms, liecoh, spectral, superfields
from .bott import (
    DESK_PRESETS,
    PUBLISHED_TABLE_DEVIATIONS,
    space_from_preset,
    tag_counts,
)
from .scalars import QSqrt2, RT2


@dataclass
class CheckResult:
    criterion: str
    name: str
    ok: bool
    detail: str = ""
    seconds: float = 0.0


Check = Tuple[str, str, Callable[[], Tuple[bool, str]]]


# --- criterion 1: published cohomology tables --------------------------------

def check_c1_tables(name: str) -> Tuple[bool, str]:
    H = space_from_preset(name)
    k = bott.k_value(H)
    bad = []
    for p in range(0, min(4, H.dim) + 1):
        col = bott.cohomology_omega_p_theta(H, p, q_max=2)
        for q in range(3):
            got = tag_counts(col[q])
            want = bott.published_table_entry(H.case, k, p, q) + (0,)
            if got != want:
                bad.append(f"(p={p},q={q}): computed {got} != published {want}")
    if bad:
        return False, "; ".join(bad)
    return True, f"matches the published case-{H.case} table, k={k}"


def check_c1_tables_computed(name: str) -> Tuple[bool, str]:
    """The same cells against the verified values (published + recorded
    deviations); guards the computation itself."""
    H = space_from_preset(name)
    k = bott.k_value(H)
    deviations = PUBLISHED_TABLE_DEVIATIONS.get(name, {})
    for p in range(0, min(4, H.dim) + 1):
        col = bott.cohomology_omega_p_theta(H, p, q_max=2)
        for q in range(3):
            a, t, o = tag_counts(col[q])
            ea, et = bott.published_table_entry(H.case, k, p, q)
            xa, _, eo = tag_counts(deviations.get((p, q), []))
            ea += xa
            if (a, t, o) != (ea, et, eo):
                return False, f"(p={p},q={q}): {(a, t, o)} != {(ea, et, eo)}"
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
        stated = bott.published_k_value(H)
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
    import math

    from .exterior import (
        GrassmannElement,
        VectorValuedForm,
        apply_derivation,
        basis_monomials,
        bracket,
        contraction_c,
        decompose_im_j_ker_c,
        grading_derivation,
        j_map,
        wedge_basis,
    )

    t0 = time.perf_counter()
    # cj = p!(m-p) id for p < m <= 5
    for m in range(1, 6):
        for p in range(m):
            for mono in basis_monomials(m, p):
                psi = GrassmannElement.make(m, {mono: Fraction(1)})
                got = contraction_c(j_map(m, psi))
                if got != psi.scale(math.factorial(p) * (m - p)):
                    return False, f"cj failed at m={m}, p={p}"
    # i(bracket) = supercommutator on every basis pair, m <= 4, compared as
    # derivations (on every generator).  Every instance is decided.  Values
    # are held as ids, one per distinct element: each i(psi)xi_g, each
    # i(phi)x for those values x and each distinct right-hand side is
    # computed once, the bracket and its value on xi_g once per pair.
    for m in (2, 3, 4):
        gens = [GrassmannElement.generator(m, j) for j in range(1, m + 1)]
        basis = [VectorValuedForm.basis_element(m, mo, j) for mo, j in wedge_basis(m)]
        xs, ys = _Ids(), _Ids()
        on_gens = [[xs.of(apply_derivation(psi, g)) for g in gens] for psi in basis]
        on_xs = [[ys.of(apply_derivation(phi, x)) for x in xs.values] for phi in basis]
        sides: Dict[Tuple[int, int, int], GrassmannElement] = {}
        for a, phi in enumerate(basis):
            for b, psi in enumerate(basis):
                br = bracket(phi, psi)
                sgn = -1 if (phi.degree % 2) and (psi.degree % 2) else 1
                for g, gen in enumerate(gens):
                    key = (on_xs[a][on_gens[b][g]], on_xs[b][on_gens[a][g]], sgn)
                    rhs = sides.get(key)
                    if rhs is None:
                        rhs = sides[key] = ys.values[key[0]] - ys.values[key[1]].scale(sgn)
                    if apply_derivation(br, gen) != rhs:
                        return False, f"bracket identity failed at m={m}"
    # the grading-bracket, insertion-of-j and splitting identities
    for m in (2, 3, 4):
        eps = grading_derivation(m)
        for mo, j in wedge_basis(m):
            v = VectorValuedForm.basis_element(m, mo, j)
            if bracket(eps, v).components != v.scale(v.degree).components:
                return False, "grading bracket identity failed"
        for p in range(m + 1):
            for mono in basis_monomials(m, p):
                psi = GrassmannElement.make(m, {mono: Fraction(1)})
                jpsi = j_map(m, psi)
                for q in range(m + 1):
                    for mo2 in basis_monomials(m, q):
                        a = GrassmannElement.make(m, {mo2: Fraction(1)})
                        if apply_derivation(jpsi, a) != (psi * a).scale(q):
                            return False, "i(j(psi)) = psi eps failed"
        import random as _r

        rng = _r.Random(4)
        for p in range(m):
            comps = []
            for _ in range(m):
                data = {
                    mono: Fraction(rng.randint(-2, 2))
                    for mono in basis_monomials(m, p + 1)
                }
                comps.append(GrassmannElement.make(m, data))
            phi = VectorValuedForm.make(m, p, comps)
            psi, chi = decompose_im_j_ker_c(phi)
            if not contraction_c(chi).is_zero():
                return False, "splitting failed"
            if (j_map(m, psi, degree=p) + chi).components != phi.components:
                return False, "splitting reconstruction failed"
    # super-Jacobi on every basis triple, m <= 3.  Forms are held as ids,
    # one per distinct value, and the basis ids come first.  Each bracket
    # [b, v] and [v, b] of a basis form b and a form v of the table is
    # computed once, and so is each distinct (lhs, r1, r2, s12) comparison;
    # zero results of different degrees compare equal, as the components
    # are compared.
    for m in (2, 3):
        forms = _Ids()

        def br(x: int, y: int) -> int:
            return forms.of(bracket(forms.values[x], forms.values[y]))

        basis = [forms.of(VectorValuedForm.basis_element(m, mo, j)) for mo, j in wedge_basis(m)]
        table = [[br(x, y) for y in basis] for x in basis]
        ids = range(len(forms.values))      # the basis and the table's values
        left = [[table[b][v] if v in basis else br(b, v) for v in ids] for b in basis]
        right = [[table[v][b] if v in basis else br(v, b) for b in basis] for v in ids]
        verdicts: Dict[Tuple[int, int, int, int], bool] = {}
        for b1 in basis:
            for b2 in basis:
                s12 = -1 if forms.values[b1].degree % 2 and forms.values[b2].degree % 2 else 1
                for b3 in basis:
                    key = (left[b1][table[b2][b3]], right[table[b1][b2]][b3],
                           left[b2][table[b1][b3]], s12)
                    ok = verdicts.get(key)
                    if ok is None:
                        lhs, r1, r2 = (forms.values[z] for z in key[:3])
                        ok = verdicts[key] = (lhs - (r1 + r2.scale(s12))).components == (
                            VectorValuedForm.zero(m, lhs.degree).components)
                    if not ok:
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
                got = invforms.theta_barwedge_theta(space, p, q)
                want = invforms.theta_p(space, p + q - 1).scale(p)
                if got != want:
                    return False, f"theta_{p} ^ theta_{q} failed on {rs}"
    return True, "theta_p ^ theta_q = p theta_{p+q-1} for p+q <= 5"


def check_c5_product_identities_published() -> Tuple[bool, str]:
    sp = invforms.MatrixPairSpace(2, 2)
    th2, et = invforms.theta_p(sp, 2), invforms.eta(sp)
    e1, e2, e3 = invforms.eta1(sp), invforms.eta2(sp), invforms.eta3(sp)
    th3 = invforms.theta_p(sp, 3)
    checks = [
        ("theta2^theta2 = 2 theta3", invforms.barwedge_inv(th2, th2) == th3.scale(2)),
        ("theta2^eta = 2(eta1+eta2)", invforms.barwedge_inv(th2, et) == (e1 + e2).scale(2)),
        ("eta^theta2 = 4 eta2", invforms.barwedge_inv(et, th2) == e2.scale(4)),
        ("eta^eta = 4 eta3", invforms.barwedge_inv(et, et) == e3.scale(4)),
    ]
    bad = [nm for nm, ok in checks if not ok]
    if bad:
        return False, "published equalities failing (computed values are half): " + ", ".join(bad)
    return True, "all four published product identities hold"


def check_c5_product_identities_computed() -> Tuple[bool, str]:
    for rs in ((2, 2), (3, 2), (3, 3)):
        sp = invforms.MatrixPairSpace(*rs)
        th2, et = invforms.theta_p(sp, 2), invforms.eta(sp)
        e1, e2, e3 = invforms.eta1(sp), invforms.eta2(sp), invforms.eta3(sp)
        th3 = invforms.theta_p(sp, 3)
        ok = (
            invforms.barwedge_inv(th2, th2) == th3.scale(2)
            and invforms.barwedge_inv(th2, et) == e1 + e2
            and invforms.barwedge_inv(et, th2) == e2.scale(2)
            and invforms.barwedge_inv(et, et) == e3.scale(2)
        )
        if not ok:
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
        if not (liecoh.ce_differential(res.witness) - c_eta).is_zero():
            return False, f"{name}: witness does not work"
    return True, "ranks dim g / 0 with explicit witnesses recovered"


# --- criterion 7: E3 tables and H^0/H^1 -----------------------------------------

def _regime_check(name, a, b, regime, n=None,
                  expected_dims=None) -> Tuple[bool, str]:
    H = space_from_preset(name)
    report, res = spectral.cohomology_of_T(H, a, b)
    rows = spectral.e3_rows_summary(res)
    got_rows = {k: (x, t) for k, (x, t, o) in rows.items()}
    extra_other = {k: o for k, (x, t, o) in rows.items() if o}
    want_rows = spectral.published_e3_rows(regime, n)
    problems = []
    if got_rows != want_rows or extra_other:
        problems.append(
            f"rows {got_rows} (+other {extra_other}) != published {want_rows}"
        )
    if expected_dims is not None:
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
    ("7.I[Q3]", "Q3", 1, 0, "I", None, (10, 1, 10, 0)),
    ("7.II-generic[Gr(4,2)]", "Gr(4,2)", 1, 0, "II-generic", None, (15, 1, 16, 0)),
    ("7.II-generic[Gr(5,2)]", "Gr(5,2)", 1, 0, "II-generic", None, (24, 1, 25, 0)),
    ("7.II-special-sqrt2[Gr(4,2)]", "Gr(4,2)", RT2, 1, "II-special", None,
     (15, 1, 16, 1)),
    ("7.II-eta[Gr(4,2)]", "Gr(4,2)", 0, 1, "II-eta", None, (15, 16, 16, 15)),
    ("7.II-eta[Gr(5,2)]", "Gr(5,2)", 0, 1, "II-eta", None, (24, 25, 25, 24)),
    ("7.III[CP2]", "CP2", 1, 0, "III", 3, (8, 9, 0, 1)),
    ("7.III[CP3]", "CP3", 1, 0, "III", 4, (15, 16, 0, 0)),
]


def check_c7_pq_consistency() -> Tuple[bool, str]:
    for nm, n in (("Gr(4,2)", 4), ("Gr(5,2)", 5), ("CP2", 3)):
        res = spectral.pq_consistency(space_from_preset(nm))
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
    import random as _r

    rng = _r.Random(1)
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

def all_checks() -> List[Tuple[str, str, Callable]]:
    checks: List[Tuple[str, str, Callable]] = []
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
    for label, nm, a, b, regime, n, dims in C7_REGIMES:
        checks.append(
            ("7", label,
             lambda nm=nm, a=a, b=b, regime=regime, n=n, dims=dims:
             _regime_check(nm, a, b, regime, n, dims))
        )
    checks.append(("7", "7.pq-consistency", check_c7_pq_consistency))
    checks.append(("7c", "7c.computed-deviations", check_c7_computed_deviations))
    checks.append(("8", "8.superfields", check_c8_superfields))
    return checks


def _run_one(job) -> CheckResult:
    crit, name, fn = job
    t0 = time.perf_counter()
    try:
        ok, detail = fn()
    except Exception as exc:  # noqa: BLE001 - the gate reports, not raises
        ok, detail = False, f"exception: {exc}"
    return CheckResult(crit, name, ok, detail, time.perf_counter() - t0)


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
    jobs: List[Tuple[str, str, Callable]] = []
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
