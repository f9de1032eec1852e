"""The acceptance gate as a test module: every criterion check from
flagcoh.verify runs exactly once and prints one pass/fail line.

Checks suffixed `-published` / named `1.tables[...]`, `5.products-published`,
`5.nilpotent-published-sqrt2`, `7.I[Q3]`, `7.II-generic[Gr(5,2)]` and
`7.II-special-sqrt2[Gr(4,2)]` assert published table entries exactly as
stated.  Five spaces' tables and three product identities are disproved by
the exact computation (see README errata and the verified deviation
registry); those tests stay red by design rather than silently weakening
the criteria.  The `*c.*-computed` twins pin the verified values.

Last, the green checks of criteria 1c, 2, 3, 4, 5, 6, 7, 7c and 8 are shown
to go red: each test perturbs the one library result a check reads and asserts
the failing verdict and its detail.
"""

import json
import time
from pathlib import Path

import pytest

from flagcoh import bott, exterior, invforms, liecoh, spectral, superfields, verify
from flagcoh.bott import ModuleDescriptor
from flagcoh.scalars import RT2

GOLDEN = Path(__file__).resolve().parent / "golden" / "verify_all.json"

_CHECKS = verify.all_checks()
_RESULTS = {}


def _run(crit, name, fn):
    if name not in _RESULTS:
        t0 = time.perf_counter()
        ok, detail = fn()
        _RESULTS[name] = (ok, detail, time.perf_counter() - t0)
    return _RESULTS[name]


@pytest.mark.parametrize(
    "crit,name,fn", _CHECKS, ids=[name for _, name, _ in _CHECKS]
)
def test_criterion(crit, name, fn):
    ok, detail, seconds = _run(crit, name, fn)
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name} ({seconds:.1f}s): {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion9_runtime_budget():
    """The whole gate, run sequentially above, fits the 10-minute budget."""
    # force everything to have run
    for crit, name, fn in _CHECKS:
        _run(crit, name, fn)
    total = sum(sec for _, _, sec in _RESULTS.values())
    print(f"[INFO] acceptance gate total compute time: {total:.0f}s")
    assert total < 600, f"acceptance gate took {total:.0f}s"


def test_verdicts_and_details_match_golden():
    """Every check's verdict and detail, from the runs above, equal the ones
    recorded in tests/golden/verify_all.json."""
    for crit, name, fn in _CHECKS:
        _run(crit, name, fn)
    got = {name: [ok, detail] for name, (ok, detail, _) in _RESULTS.items()}
    assert got == json.loads(GOLDEN.read_text(encoding="utf-8"))


# --- green checks shown to go red: each perturbs the one library result the
# check reads, and the check must fail with the detail that names it

@pytest.mark.parametrize("space, p, q, edit, detail", [
    ("CP2", 0, 0, lambda ds: [ModuleDescriptor(d.tag, d.weight, d.dim, d.mult + 1) for d in ds],
     "(p=0,q=0): (2, 0, 0) != (1, 0, 0)"),
    ("Q3", 2, 1, lambda ds: [d for d in ds if d.tag != "other"],
     "(p=2,q=1): (0, 1, 0) != (0, 1, 1)"),
], ids=["CP2", "Q3"])
def test_criterion_1c_fails_on_a_wrong_cell(monkeypatch, space, p, q, edit, detail):
    """The computed twin compares every cell with the published value plus
    the recorded deviation (Q3's extra module at (2,1))."""
    assert verify.check_c1_tables_computed(space)[0]
    column = bott.cohomology_omega_p_theta

    def perturbed(H, p_, q_max):
        col = column(H, p_, q_max)
        if p_ == p:
            col[q] = edit(col[q])
        return col
    monkeypatch.setattr(bott, "cohomology_omega_p_theta", perturbed)
    assert verify.check_c1_tables_computed(space) == (False, detail)


def test_criterion_2_fails_when_the_two_routes_disagree(monkeypatch):
    invariants = bott.invariant_dimension
    monkeypatch.setattr(bott, "invariant_dimension",
                        lambda H, p, q: invariants(H, p, q) + ((p, q) == (0, 0)))
    assert verify.check_c2_dual_route("CP2") == (False, "(p=0,q=0): 1 != 0")


@pytest.mark.parametrize("edit, detail", [
    (lambda a, got: got + (((0, 0), 1),) if not any(a) else got,
     "(p=0,q=0): nonzero off the diagonal"),
    (lambda a, got: (), "(p=1,q=0): zero on the diagonal"),
], ids=["trivial-in-n+", "empty"])
def test_criterion_2_fails_when_both_routes_read_a_wrong_fold(monkeypatch, edit, detail):
    """Both routes read `HermitianSymmetricSpace.fold`, so a wrong fold moves
    them together: an extra trivial summand of n+ puts a C into H^0, and
    empty folds leave the diagonal q = p - 1 zero."""
    fold = bott.HermitianSymmetricSpace.fold
    monkeypatch.setattr(bott.HermitianSymmetricSpace, "fold",
                        lambda H, a: edit(a, fold(H, a)))
    assert verify.check_c2_dual_route("CP2") == (False, detail)


def test_criterion_3_fails_on_a_wrong_k(monkeypatch):
    """A wrong k misses the expected value and the stated one alike."""
    k_value, cp2 = bott.k_value, bott.space_from_preset("CP2")
    monkeypatch.setattr(bott, "k_value", lambda H: k_value(H) + (H is cp2))
    assert verify.check_c3_k_values() == (
        False, "CP2: computed 1 != 0; CP2: flagged - computed 1, stated 0")


def test_criterion_3_fails_on_a_wrong_stated_k(monkeypatch):
    stated, gr42 = verify.published_k_value, bott.space_from_preset("Gr(4,2)")
    monkeypatch.setattr(verify, "published_k_value", lambda H: stated(H) + (H is gr42))
    assert verify.check_c3_k_values() == (False, "Gr(4,2): flagged - computed 2, stated 3")


# criterion 4's exterior results as they are, for the perturbed ones to call
_CONTRACTION, _GRADING = exterior.contraction_c, exterior.grading_derivation
_J_MAP, _DECOMPOSE = exterior.j_map, exterior.decompose_im_j_ker_c


def _j_map_with_a_wrong_top_degree(m, psi, degree=None):
    """j(psi), except that a psi of top degree m, where j vanishes, gives
    the grading derivation; j of lower degrees, which criterion 4's other
    identities read, is left alone."""
    if psi.is_homogeneous() == m:
        return exterior.grading_derivation(m)
    return _J_MAP(m, psi, degree)


def _split_off_the_kernel(phi):
    """The splitting with j(xi_1 ... xi_p) added to chi: c(chi) != 0."""
    psi, chi = _DECOMPOSE(phi)
    unit = exterior.GrassmannElement.make(phi.m, {tuple(range(1, phi.degree + 1)): 1})
    return psi, chi + _J_MAP(phi.m, unit)


def _split_with_twice_chi(phi):
    """The splitting with chi doubled: c(2 chi) = 0, but j(psi) + 2 chi != phi."""
    psi, chi = _DECOMPOSE(phi)
    return psi, chi.scale(2)


@pytest.mark.parametrize("name, perturbed, detail", [
    ("contraction_c", lambda phi: _CONTRACTION(phi).scale(2), "cj failed at m=1, p=0"),
    ("grading_derivation", lambda m: _GRADING(m).scale(2), "grading bracket identity failed"),
    ("j_map", _j_map_with_a_wrong_top_degree, "i(j(psi)) = psi eps failed"),
    ("decompose_im_j_ker_c", _split_off_the_kernel, "splitting failed"),
    ("decompose_im_j_ker_c", _split_with_twice_chi, "splitting reconstruction failed"),
], ids=["cj", "grading-bracket", "i-of-j", "splitting", "reconstruction"])
def test_criterion_4_fails_on_a_wrong_identity(monkeypatch, name, perturbed, detail):
    """Each identity of criterion 4 after the bracket identity reads one
    `exterior` result: made wrong, the check fails with that identity's
    detail (super-Jacobi going red is in tests/test_exterior.py)."""
    monkeypatch.setattr(exterior, name, perturbed)
    assert verify.check_c4_exterior() == (False, detail)


# criterion 5 reads `invforms` results through the module, so each test
# patches that binding; none reaches the cached `theta_basis` or
# `product_table` with a perturbed product
GR42, GR52, GR53, GR63 = (invforms.MatrixPairSpace(*rs) for rs in ((2, 2), (3, 2), (2, 3), (3, 3)))


def _doubled_on(name, space):
    """`invforms.<name>` with its result doubled on space alone."""
    form = getattr(invforms, name)
    return lambda sp: form(sp).scale(2) if sp == space else form(sp)


def test_criterion_5_theta_product_law_fails_on_a_wrong_product(monkeypatch):
    barwedge = invforms.barwedge_inv
    monkeypatch.setattr(invforms, "barwedge_inv", lambda phi, psi: (
        barwedge(phi, psi).scale(2 if (phi.p, psi.p) == (2, 3) else 1)))
    assert verify.check_c5_theta_product_law() == (False, "theta_2 ^ theta_3 failed on (3, 2)")


def test_criterion_5_products_computed_fails_on_a_wrong_product(monkeypatch):
    """eta ^ eta doubled on Mat 3x2 alone: Mat 2x2 passes first."""
    products = invforms.theta_products
    monkeypatch.setattr(invforms, "theta_products", lambda sp: tuple(
        tuple(f.scale(2) if (sp, x, y) == (GR52, 1, 1) else f for y, f in enumerate(row))
        for x, row in enumerate(products(sp))))
    assert verify.check_c5_product_identities_computed() == (
        False, "verified product values failed on (3, 2)")


@pytest.mark.parametrize("name, space, detail", [
    ("eta3", GR53, "r=2 eta relation failed on Gr(5,3)"),
    ("eta3", GR52, "s=2 eta relation failed on Gr(5,2)"),
    ("eta2", GR42, "Gr(4,2) eta2 relation failed"),
    ("eta3", GR42, "Gr(4,2) eta3 relation failed"),
], ids=["Gr(5,3)", "Gr(5,2)", "Gr(4,2)-eta2", "Gr(4,2)-eta3"])
def test_criterion_5_relations_fail_on_a_wrong_form(monkeypatch, name, space, detail):
    """Each relation reads the eta forms of one space: one of them doubled
    there fails that relation, the ones before it holding."""
    monkeypatch.setattr(invforms, name, _doubled_on(name, space))
    assert verify.check_c5_relations_and_ranks() == (False, detail)


def test_criterion_5_ranks_fail_on_a_wrong_rank(monkeypatch):
    """The rank of theta3, eta1, eta2, eta3 on Mat 3x3, read one lower."""
    rank_of = invforms.rank_of
    monkeypatch.setattr(invforms, "rank_of", lambda forms: rank_of(forms) - (
        forms[0].space == GR63))
    assert verify.check_c5_relations_and_ranks() == (False, "independence ranks failed")


def test_criterion_5_published_sqrt2_check_reads_gr52_past_a_vanishing_pair(monkeypatch):
    """With the published sqrt2 pair made to annihilate, the check goes on
    to Gr(5,2), whose nontrivial pair fails the published n >= 5 claim.
    Gr(5,2)'s product table is cached before the patch, from the genuine
    products, which the patch leaves alone anyway."""
    th2, et = invforms.theta_p(GR42, 2), invforms.eta(GR42)
    pair = (th2.scale(RT2) + et, th2 + et.scale(RT2))
    invforms.product_table(GR52)
    barwedge = invforms.barwedge_inv
    monkeypatch.setattr(invforms, "barwedge_inv", lambda phi, psi: (
        barwedge(phi, psi).scale(0) if (phi, psi) == pair else barwedge(phi, psi)))
    assert verify.check_c5_nilpotent_sqrt2() == (
        False, "nontrivial pairs exist on Gr(5,2) (published: none for n >= 5)")


def _first_solution_only(report):
    return invforms.NilpotentPairReport(report.space, report.solutions[:1])


def _no_solution(report):
    return invforms.NilpotentPairReport(report.space, [])


def _gr42_solutions(report):
    return invforms.NilpotentPairReport(report.space, invforms.nilpotent_pairs(GR42).solutions)


@pytest.mark.parametrize("space, edit, detail", [
    (GR42, _first_solution_only, "Gr(4,2) solutions {('-1', '1', '-1/2', '1')}"),
    (GR52, _no_solution, "Gr(5,2) computed solutions changed"),
    (GR63, _gr42_solutions, "Gr(6,3) should be trivial-only"),
], ids=["Gr(4,2)", "Gr(5,2)", "Gr(6,3)"])
def test_criterion_5_nilpotent_computed_fails_on_wrong_pairs(monkeypatch, space, edit, detail):
    """`invforms.nilpotent_pairs` itself is patched, on one space, so no
    cached product table sees a perturbed value; a single solution keeps
    the detail's set free of hash order."""
    pairs = invforms.nilpotent_pairs
    monkeypatch.setattr(invforms, "nilpotent_pairs", lambda sp: (
        edit(pairs(sp)) if sp == space else pairs(sp)))
    assert verify.check_c5_nilpotent_computed() == (False, detail)


@pytest.mark.parametrize("result, detail", [
    (lambda rank, res: (1, res), "rank(eta) != 0"),
    (lambda rank, res: (rank, liecoh.CoboundaryResult(False, None)),
     "no coboundary witness for c_eta"),
    (lambda rank, res: (rank, liecoh.CoboundaryResult(True, None)),
     "no coboundary witness for c_eta"),
    (lambda rank, res: (rank, liecoh.CoboundaryResult(True, res.witness.scale(2))),
     "witness does not work"),
], ids=["rank", "no-coboundary", "no-witness", "wrong-witness"])
def test_criterion_6_fails_on_a_wrong_eta_solve(monkeypatch, result, detail):
    """Criterion 6 reads the rank and the coboundary solve at theta = eta
    from `liecoh.d2_on_vector_fields`; theta2's rank is left alone."""
    solve = liecoh.d2_on_vector_fields
    monkeypatch.setattr(liecoh, "d2_on_vector_fields", lambda H, a, b: result(
        *solve(H, a, b)) if (a, b) == (0, 1) else solve(H, a, b))
    assert verify.check_c6_d2_ranks() == (False, f"Gr(4,2): {detail}")


def test_criterion_6_fails_on_a_wrong_theta2_rank(monkeypatch):
    monkeypatch.setattr(liecoh, "d2_rank_on_vector_fields", lambda H, a, b: 0)
    assert verify.check_c6_d2_ranks() == (False, "Gr(4,2): rank(theta2) != 15")


def _empty_field_of_T(monkeypatch, name, a, b, field):
    """`spectral.cohomology_of_T` with the report's `field` emptied on the
    preset `name` at theta = a theta2 + b eta, and as it is elsewhere."""
    cohomology, H = spectral.cohomology_of_T, bott.space_from_preset(name)

    def perturbed(space, a2, b2):
        report, res = cohomology(space, a2, b2)
        if space is H and (a2, b2) == (a, b):
            report = spectral.CohomologyReport(
                *[[] if f == field else getattr(report, f) for f in report._fields])
        return report, res

    monkeypatch.setattr(spectral, "cohomology_of_T", perturbed)


def test_criterion_7_pq_consistency_fails_on_a_wrong_h0(monkeypatch):
    _empty_field_of_T(monkeypatch, "Gr(4,2)", 0, 1, "H0_odd")
    assert verify.check_c7_pq_consistency() == (False, (
        "Gr(4,2): {'space': 'A3/alpha1', 'n': 4, 'H0_even': 15, 'H0_odd': 0, "
        "'expected': {'even': 15, 'odd': 16}, 'ok': False}"))


@pytest.mark.parametrize("name, a, b, field, detail", [
    ("Q3", 1, 0, "H1_odd", "Q3 computed H1 changed: "
     "{'H0_even': 10, 'H0_odd': 1, 'H1_even': 15, 'H1_odd': 0}"),
    ("Gr(5,2)", 1, 0, "H1_even", "Gr(5,2) computed H1 changed: "
     "{'H0_even': 24, 'H0_odd': 1, 'H1_even': 0, 'H1_odd': 0}"),
    ("Gr(4,2)", 1, 1, "H1_odd", "the rational special value theta2+eta lost its kernel"),
], ids=["Q3", "Gr(5,2)", "Gr(4,2)"])
def test_criterion_7c_fails_on_a_wrong_deviation(monkeypatch, name, a, b, field, detail):
    """Each pinned deviation, one cohomology_of_T call, goes red alone."""
    _empty_field_of_T(monkeypatch, name, a, b, field)
    assert verify.check_c7_computed_deviations() == (False, detail)


def test_criterion_7_helpers_refuse_what_they_do_not_cover():
    with pytest.raises(ValueError, match="^IV$"):
        verify.published_e3_rows("IV")
    with pytest.raises(ValueError, match="^pq consistency is a Grassmannian check$"):
        verify.pq_consistency(bott.space_from_preset("Q3"))


def _record_calls(monkeypatch, module, name, key):
    """The key of each call of module.name, in order, as the call goes on to
    the genuine function."""
    calls, genuine = [], getattr(module, name)

    def recorded(*args):
        calls.append(key(*args))
        return genuine(*args)

    monkeypatch.setattr(module, name, recorded)
    return calls


def test_criteria_5_and_8_cover_their_stated_inputs(monkeypatch):
    """The inputs each green check covers, read at the binding the check
    calls: the theta product law on Mat 3x2 and Mat 3x3 for every p, q >= 1
    with p + q <= 5; the computed product identities on Mat 2x2, 3x2 and
    3x3, all four per space; criterion 8's six homomorphism checks, three
    kernels, four transitivity checks and the n = 5 jets at s = 1..4.  A
    check that covers less fails here even where its detail is unchanged.
    The cached basis fields are filled first, so the jets recorded are the
    n = 5 spot check's alone."""
    def rs(sp):
        return sp.r, sp.s

    law = _record_calls(monkeypatch, invforms, "barwedge_inv",
                        lambda phi, psi: (rs(phi.space), phi.p, psi.p))
    assert verify.check_c5_theta_product_law()[0]
    assert law == [(space, p, q) for space in ((3, 2), (3, 3))
                   for p in range(1, 5) for q in range(1, 5) if p + q <= 5]
    tables = _record_calls(monkeypatch, invforms, "theta_products", rs)
    eta3s = _record_calls(monkeypatch, invforms, "eta3", rs)
    assert verify.check_c5_product_identities_computed()[0]
    assert tables == eta3s == [(2, 2), (3, 2), (3, 3)]

    assert verify.check_c8_superfields()[0]
    n_s = {name: _record_calls(monkeypatch, superfields, name, lambda n, s: (n, s))
           for name in ("homomorphism_check", "kernel_of_action", "transitivity_at_origin")}
    jets = _record_calls(monkeypatch, superfields, "fundamental_field", lambda g, s: (g.n, s))
    assert verify.check_c8_superfields()[0]
    assert n_s == {
        "homomorphism_check": [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)],
        "kernel_of_action": [(2, 1), (3, 1), (4, 2)],
        "transitivity_at_origin": [(2, 1), (3, 1), (4, 2), (5, 2)],
    }
    assert jets == [(5, 1), (5, 2), (5, 3), (5, 4)]


def test_criterion_8_fails_on_a_wrong_n5_jet(monkeypatch):
    """The n = 5 spot check reads `superfields.fundamental_field` directly;
    the checks before it read the cached basis fields, filled first here so
    that the sign flip reaches only the spot check."""
    assert verify.check_c8_superfields()[0]
    field = superfields.fundamental_field
    monkeypatch.setattr(superfields, "fundamental_field", lambda g, s: field(g, s).scale(-1))
    assert verify.check_c8_superfields() == (False, "y* formula failed at n=5, s=1")


def _with_an_x_component(f):
    """f plus xi_0 d/dx_0, a term of f's parity that moves no xi."""
    x_part = superfields.SuperDerivation(f.r, f.s, f.parity, exterior.terms_of(
        [superfields.SuperPolynomial.xi(f.m, 0)]))
    return f + x_part


@pytest.mark.parametrize("name, perturbed, detail", [
    ("kernel_of_action", lambda kernel: lambda n, s: kernel(n, s) * 2,
     "kernel dim != 1 at (2,1)"),
    ("kernel_of_action", lambda kernel: lambda n, s: [superfields.QnElement.unit(n, 0, 0, False)],
     "kernel not <I> at (2,1)"),
    ("transitivity_at_origin", lambda dims: lambda n, s: dict(dims(n, s), even=0),
     "transitivity failed at (2,1)"),
    ("fundamental_field", lambda field: lambda g, s: (
        _with_an_x_component(field(g, s)) if g.n == 5 else field(g, s)),
     "y* has x components"),
], ids=["kernel-dim", "kernel-not-identity", "transitivity", "y-star-x-part"])
def test_criterion_8_fails_on_a_wrong_structural_fact(monkeypatch, name, perturbed, detail):
    """The kernel, transitivity and n = 5 checks each read one
    `superfields` result: made wrong, criterion 8 fails with its detail.
    The cached basis fields are filled first, so a wrong jet reaches only
    the n = 5 spot check."""
    assert verify.check_c8_superfields()[0]
    monkeypatch.setattr(superfields, name, perturbed(getattr(superfields, name)))
    assert verify.check_c8_superfields() == (False, detail)


def test_criterion_8_fails_when_every_bracket_is_negated(monkeypatch):
    """`superfields.homomorphism_check` reads each basis bracket through
    `superfields.bracket`: negated, every pair agrees on sigma = -1."""
    field_bracket = superfields.bracket
    monkeypatch.setattr(superfields, "bracket", lambda d1, d2: -field_bracket(d1, d2))
    assert verify.check_c8_superfields() == (False, "sigma != 1 at (n,s)=(2,1)")


def test_criterion_8_goes_red_on_one_wrong_basis_bracket(monkeypatch):
    """A bracket doubled on the last nonzero basis pair of q_2 at s = 1,
    after sigma is fixed, has no uniform sign: the check raises, and the
    gate's runner reports the verdict red with the pair."""
    fields = superfields.basis_fields(2, 1)
    field_bracket = superfields.bracket
    i, j = max((i, j) for i, f in enumerate(fields) for j, g in enumerate(fields)
               if not field_bracket(f, g).is_zero())
    monkeypatch.setattr(superfields, "bracket", lambda d1, d2: field_bracket(d1, d2).scale(
        2 if d1 is fields[i] and d2 is fields[j] else 1))
    result, = verify.run_all(criteria=["8"])
    assert result.name == "8.superfields" and result.ok is False
    assert result.detail == f"exception: no uniform sign at basis pair ({i}, {j})"
