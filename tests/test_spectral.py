import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from flagcoh import spectral
from flagcoh.bott import (PRESET_NAMES, build_space, cohomology_omega_p_theta,
                          grassmannian_rs, space_from_preset)
from flagcoh.invforms import (
    MatrixPairSpace, RootPairSpace, barwedge_inv, eta, rank_of, theta_p,
)
from flagcoh.rootsys import SimpleLieType, build_root_system
from flagcoh.scalars import QSqrt2, RT2, parse_scalar
from flagcoh.spectral import apply_d2, assemble_E2, cohomology_of_T, theta_for
from flagcoh.verify import (
    e3_rows_summary,
    flagged_32_comparison,
    pq_consistency,
    published_e3_rows,
)


def prov_summary(table, p, q, prov):
    entry = [s for s in table.get((p, q), []) if s.provenance == prov]
    a = sum(s.descriptor.mult for s in entry if s.descriptor.tag == "adjoint")
    t = sum(s.descriptor.mult for s in entry if s.descriptor.tag == "trivial")
    return a, t


def test_assemble_e2_examples():
    tI = assemble_E2(space_from_preset("Q3"), 2)
    assert prov_summary(tI, 0, 0, "l") == (1, 0)
    assert prov_summary(tI, 0, 0, "i") == (0, 1)

    tII = assemble_E2(space_from_preset("Gr(4,2)"), 2)
    assert prov_summary(tII, 1, 1, "l") == (1, 0)
    assert prov_summary(tII, 1, 1, "i") == (0, 2)

    tIII = assemble_E2(space_from_preset("CP3"), 2)
    assert (-1, 1) not in tIII


def test_theta_parameter_validation():
    H = space_from_preset("Q3")
    with pytest.raises(ValueError):
        theta_for(H, 0, 0)
    with pytest.raises(ValueError):
        theta_for(H, 1, 1)  # eta is Grassmann-specific
    # case III collapses eta into theta2 (eta = -theta2 for s = 1)
    H3 = space_from_preset("CP2")
    assert theta_for(H3, 2, 1) == (1,)
    with pytest.raises(ValueError):
        theta_for(H3, 1, 1)  # collapses to zero


def test_d2_squared_zero_entrywise():
    """Where d2 removes multiplicity the source and target lose the same
    amount, and targets of targets receive nothing (checked structurally)."""
    for name, ab in (("Gr(4,2)", (1, 0)), ("Gr(5,2)", (0, 1)), ("Q3", (1, 0))):
        H = space_from_preset(name)
        res = apply_d2(H, *ab)
        for (p, q), entry in res.E2.items():
            e2_tot = sum(s.descriptor.total_dim() for s in entry)
            e3_tot = sum(s.descriptor.total_dim() for s in res.E3.get((p, q), []))
            assert e3_tot <= e2_tot


def test_e3_dimension_bookkeeping():
    """dim E3 = dim E2 - rank(in) - rank(out) per entry for rows 0,1."""
    H = space_from_preset("Gr(4,2)")
    res = apply_d2(H, 1, 0)
    lost = {
        (-1, 0): res.rank_vector_fields and H.rd.weyl_dimension(H.rd.delta),
        (0, 0): 1,
        (1, 1): (res.rank_vector_fields and H.rd.weyl_dimension(H.rd.delta))
        + (2 - res.kernel_dim_11),
        (2, 1): 1 + 0,
    }
    for (p, q), drop in lost.items():
        e2_tot = sum(s.descriptor.total_dim() for s in res.E2.get((p, q), []))
        e3_tot = sum(s.descriptor.total_dim() for s in res.E3.get((p, q), []))
        assert e2_tot - e3_tot == drop, (p, q)


def test_epsilon_never_survives():
    for name, ab in (("Q3", (1, 0)), ("Gr(4,2)", (0, 1)), ("CP2", (1, 0))):
        H = space_from_preset(name)
        res = apply_d2(H, *ab)
        assert prov_summary(res.E3, 0, 0, "i") == (0, 0)


# --- the five published regimes, computed truth ------------------------------

def test_case_I_q3_computed():
    """Q3: H0 matches the published (g | C); H1 carries the two extra
    5-dimensional summands the published table misses."""
    H = space_from_preset("Q3")
    rep, res = cohomology_of_T(H, 1, 0)
    d = rep.dims()
    assert (d["H0_even"], d["H0_odd"]) == (10, 1)
    assert (d["H1_even"], d["H1_odd"]) == (15, 5)
    assert [x.tag for x in rep.H0_even] == ["adjoint"]
    assert [x.tag for x in rep.H1_odd] == ["other"]


def test_case_I_sd4_matches_published():
    H = space_from_preset("S-D4")
    rep, res = cohomology_of_T(H, 1, 0)
    d = rep.dims()
    assert (d["H0_even"], d["H0_odd"]) == (28, 1)
    assert (d["H1_even"], d["H1_odd"]) == (28, 0)
    rows = e3_rows_summary(res)
    assert rows == {(0, 0): (1, 0, 0), (1, 0): (0, 1, 0), (0, 1): (1, 0, 0)}


def test_case_II_generic_gr42():
    H = space_from_preset("Gr(4,2)")
    rep, res = cohomology_of_T(H, 1, 0)
    d = rep.dims()
    assert (d["H0_even"], d["H0_odd"]) == (15, 1)
    assert (d["H1_even"], d["H1_odd"]) == (16, 0)
    want = published_e3_rows("II-generic")
    got = e3_rows_summary(res)
    assert {k: (a, t) for k, (a, t, o) in got.items()} == want


def test_case_II_special_value_is_rational_not_sqrt2():
    """The special member of the a != 0 family on Gr(4,2) sits at
    theta2 + eta (kernel of phi -> theta /\\ phi is 1-dimensional), while
    the published sqrt2 theta2 + eta value behaves generically."""
    H = space_from_preset("Gr(4,2)")
    rep, res = cohomology_of_T(H, 1, 1)
    assert res.kernel_dim_11 == 1
    d = rep.dims()
    assert (d["H1_even"], d["H1_odd"]) == (16, 1)

    rep2, res2 = cohomology_of_T(H, RT2, 1)
    assert res2.kernel_dim_11 == 0
    assert rep2.dims()["H1_odd"] == 0


def test_case_II_eta_gr42_and_gr52():
    for name, dims in (("Gr(4,2)", (15, 16, 16, 15)), ("Gr(5,2)", (24, 25, 25, 24))):
        H = space_from_preset(name)
        rep, res = cohomology_of_T(H, 0, 1)
        d = rep.dims()
        assert (d["H0_even"], d["H0_odd"], d["H1_even"], d["H1_odd"]) == dims
        want = published_e3_rows("II-eta")
        got = {k: (a, t) for k, (a, t, o) in e3_rows_summary(res).items()}
        assert got == want, name


def test_case_II_generic_gr52_deviates_from_published():
    """On Gr(5,2) with a theta2-component the adjoint at (0,1) is killed by
    the honest d2 (the published tables lack the adjoint target); H1 = C."""
    H = space_from_preset("Gr(5,2)")
    rep, res = cohomology_of_T(H, 1, 0)
    assert not res.adjoint_01_survives
    d = rep.dims()
    assert (d["H1_even"], d["H1_odd"]) == (1, 0)
    assert res.notes


def test_case_III():
    H2 = space_from_preset("CP2")
    rep2, res2 = cohomology_of_T(H2, 1, 0)
    d2 = rep2.dims()
    assert (d2["H0_even"], d2["H0_odd"]) == (8, 9)
    assert (d2["H1_even"], d2["H1_odd"]) == (0, 1)
    got = {k: (a, t) for k, (a, t, o) in e3_rows_summary(res2).items()}
    assert got == published_e3_rows("III-CP2")

    H3 = space_from_preset("CP3")
    rep3, res3 = cohomology_of_T(H3, 1, 0)
    d3 = rep3.dims()
    assert (d3["H1_even"], d3["H1_odd"]) == (0, 0)
    got3 = {k: (a, t) for k, (a, t, o) in e3_rows_summary(res3).items()}
    assert got3 == published_e3_rows("III")


def test_pq_consistency():
    for name, n in (("Gr(4,2)", 4), ("Gr(5,2)", 5), ("CP2", 3)):
        out = pq_consistency(space_from_preset(name))
        assert out["ok"], out
        assert out["n"] == n


def test_flagged_32_entry():
    # case I theta2: computed k - 1; the published superscript (read as
    # k-1 resp. k-2) is compared, never silently reconciled
    H = space_from_preset("Q3")
    res = apply_d2(H, 1, 0)
    cmp = flagged_32_comparison(res)
    assert cmp["k"] == 1 and cmp["computed_trivial"] == 0 and cmp["agree"]

    H = space_from_preset("Gr(5,2)")
    res = apply_d2(H, 1, 0)
    cmp = flagged_32_comparison(res)
    rank11 = 2 - res.kernel_dim_11
    assert cmp["k"] == 3
    assert cmp["computed_trivial"] == 3 - rank11
    assert cmp["agree"] == (cmp["computed_trivial"] == 1)


def test_undetermined_entries_are_marked():
    H = space_from_preset("Gr(5,2)")
    res = apply_d2(H, 0, 1)
    row2 = [
        s for (p, q), entry in res.E3.items() if q == 2 for s in entry
    ]
    assert any(s.status == "undetermined" for s in row2)
    # rows 0,1 are always fully determined
    for (p, q), entry in res.E3.items():
        if q <= 1:
            assert all(s.status == "ok" for s in entry)


@pytest.mark.parametrize("key, marker", [
    *(pytest.param(f"e3 --space {space} --a 1 --b 0", '"H0"', id=space)
      for space in ("Gr(4,2)", "CP2", "Q3")),
    pytest.param("d2 --space Gr(4,2) --a 0 --b 1", '"coboundary_witness": {', id="d2-Gr(4,2)"),
])
def test_e3_is_the_same_under_python_O(under_python_O, key, marker):
    """The E3 bookkeeping and the d2 witness must not live inside asserts
    that -O strips: the golden query replays unchanged under -O."""
    entry = under_python_O.golden(key)
    assert entry["rc"] == 0 and marker in entry["stdout"]


# --- step (iii) against the whole-tensor rank ---------------------------------
#
# The oracle builds theta = a theta2 + b eta as a form, multiplies it with the
# invariant (2,1)-forms and takes the rank of the products over every stored
# (key, n+ index); apply_d2 reads the same rank off the product table.

def _whole_tensor_kernel11(H, coeffs):
    rs = grassmannian_rs(H)
    space = MatrixPairSpace(*rs) if rs is not None else RootPairSpace(H.dim)
    basis = [theta_p(space, 2)]
    if rs is not None and min(rs) >= 2:
        basis.append(eta(space))
    # on CP^n theta_for folds eta into the one theta2 coordinate
    theta = basis[0].scale(coeffs[0])
    for c, f in zip(coeffs[1:], basis[1:], strict=True):
        theta = theta + f.scale(c)
    images = [f for f in (barwedge_inv(theta, phi) for phi in basis) if not f.is_zero()]
    return len(basis) - (rank_of(images) if images else 0)


def _golden_e3_parameters(name):
    """(a, b) of every golden e3 query on the space that exits 0."""
    queries = json.loads((Path(__file__).resolve().parent / "golden" / "queries.json")
                         .read_text(encoding="utf-8"))
    return [(parse_scalar(argv[4]), parse_scalar(argv[6]))
            for key, rec in queries.items() for argv in [key.split(" ")]
            if argv[:3] == ["e3", "--space", name] and argv[3::2] == ["--a", "--b"]
            and rec["rc"] == 0]


def _random_parameters(H, rng, count):
    """Nonzero (a, b) in Q(sqrt2)^2; b = 0 where eta is undefined."""
    out = []
    while len(out) < count:
        a, b = (QSqrt2(rng.randint(-3, 3), rng.randint(-2, 2)) for _ in range(2))
        if grassmannian_rs(H) is None:
            b = QSqrt2(0)
        if a or b:
            out.append((a, b))
    return out


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_step_iii_matches_the_whole_tensor_rank(name, monkeypatch):
    """Same kernel11 at every golden e3 parameter and at seeded random
    parameters; steps (i) and (iv) are stubbed, since kernel11 does not
    depend on them and the golden outputs pin them."""
    monkeypatch.setattr(spectral, "d2_rank_on_vector_fields", lambda H, a, b: 0)
    monkeypatch.setattr(spectral, "d2_vanishes_on_adjoint_at_01", lambda H, a, b: True)
    H = space_from_preset(name)
    params = _golden_e3_parameters(name)
    assert params
    params += _random_parameters(H, random.Random(name), 4)
    for a, b in params:
        try:
            coeffs = theta_for(H, a, b)
        except ValueError:  # a + b sign = 0 where eta folds into theta2
            continue
        assert apply_d2(H, a, b).kernel_dim_11 == _whole_tensor_kernel11(H, coeffs), (a, b)


# --- one answer per space, whatever its presentation ----------------------------

def _descriptors(items):
    """A list of summands up to the diagram automorphism, which moves their
    highest weights: (tag, dim, mult), sorted."""
    return sorted((d.tag, d.dim, d.mult) for d in items)


def _invariants(H, a, b):
    """H^0, H^1, the d2 rank on vector fields, kernel_dim_11,
    adjoint_01_survives and the Bott table H^q(Omega^p (x) Theta), or
    None when theta_for refuses (a, b)."""
    try:
        theta_for(H, a, b)
    except ValueError:
        return None
    report, res = cohomology_of_T(H, a, b)
    bott = {(p, q): _descriptors(col)
            for p in range(H.dim + 1)
            for q, col in cohomology_omega_p_theta(H, p, H.dim).items()}
    return ([_descriptors(x) for x in (report.H0_even, report.H0_odd,
                                        report.H1_even, report.H1_odd)],
            res.rank_vector_fields, res.kernel_dim_11, res.adjoint_01_survives, bott)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_grassmannian_duality_negates_b(n):
    """Gr(n, k+1) as (A_{n-1}, k) at (a, b) gives the invariants of
    Gr(n, n-k-1) as (A_{n-1}, n-2-k) at (a, -b); on CP^n both sides refuse
    the parameter that folds to zero."""
    t = SimpleLieType("A", n - 1)
    for k in range(n - 1):
        H, dual = build_space(t, k), build_space(t, n - 2 - k)
        for a, b in ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2)):
            got = _invariants(H, a, b)
            assert got == _invariants(dual, a, -b), (n, k, a, b)
            assert got is not None or min(grassmannian_rs(H)) == 1, (n, k, a, b)


@pytest.mark.parametrize("presentations", [
    (("B", 2, 0), ("C", 2, 1)),                                # Q3
    (("A", 3, 0), ("A", 3, 2), ("D", 3, 1), ("D", 3, 2)),      # CP3
    (("D", 4, 0), ("D", 4, 2), ("D", 4, 3)),                   # Q6, by triality
    (("E", 6, 0), ("E", 6, 5)),                                # E III
])
def test_low_rank_coincidences_agree(presentations):
    """One space realized in sl, so and sp, or on both ends of E6's
    diagram automorphism, gives one answer."""
    spaces = [build_space(SimpleLieType(f, r), k) for f, r, k in presentations]
    first = _invariants(spaces[0], 1, 0)
    assert first is not None
    for H in spaces[1:]:
        assert _invariants(H, 1, 0) == first, H


def test_quadric_q4_is_refused_with_a_value_error():
    """Gr(4,2) as (D3, 0) has the two trivial i*-summands at (1,1) of
    theta2 and eta, but its so(6) pair space carries theta2 alone: every
    parameter is refused with a ValueError that names (A3, 1)."""
    H = build_space(SimpleLieType("D", 3), 0)
    for a, b in ((1, 0), (0, 1)):
        with pytest.raises(ValueError, match=r"\(A3, 1\)"):
            cohomology_of_T(H, a, b)
    with pytest.raises(ValueError, match="eta undefined"):
        theta_for(H, 0, 1)


E6_NODES = [build_space(SimpleLieType("E", 6), a0) for a0 in (0, 5)]


@pytest.mark.parametrize("H", E6_NODES, ids=str)
def test_e6_goes_through_apply_d2_like_every_other_space(H):
    """E III on either node, at every accepted theta = a theta2: H^0 =
    (78 | 1), H^1 = 0, d2 of rank 78 on vector fields, no kernel on the
    invariant (2,1)-forms, and the adjoint at (0,1) killed by the (2,2)
    l*-adjoint; rows 0-1 of E3 are the l*-adjoint at (0,0) and the
    l*-trivial at (1,0).  The published case-I rows keep an adjoint at
    (0,1).  A zero theta and any eta are still refused."""
    for a in (1, Fraction(-3, 2), RT2, 1 + RT2):
        report, res = cohomology_of_T(H, a, 0)
        assert report.dims() == {"H0_even": 78, "H0_odd": 1,
                                 "H1_even": 0, "H1_odd": 0}, a
        assert (res.rank_vector_fields, res.kernel_dim_11,
                res.adjoint_01_survives) == (78, 0, False), a
        rows = {pq: [(s.provenance, s.descriptor.tag, s.descriptor.mult) for s in entry]
                for pq, entry in res.E3.items() if pq[1] <= 1}
        assert rows == {(0, 0): [("l", "adjoint", 1)], (1, 0): [("l", "trivial", 1)]}, a
    with pytest.raises(ValueError, match="theta parameter must be nonzero"):
        cohomology_of_T(H, 0, 0)
    for a, b in ((0, 1), (1, 1)):
        with pytest.raises(ValueError, match="eta undefined"):
            cohomology_of_T(H, a, b)


# --- the A-D classification up to dim 12 and E6, as computed --------------------

# the special nodes of A4-A7, B4-B5, C4-C5 and D4-D6 with dim M <= 12: 29 spaces
CLASSIFICATION_SWEEP = [
    H for t in (SimpleLieType(f, r) for f, lo, hi in (
        ("A", 4, 7), ("B", 4, 5), ("C", 4, 5), ("D", 4, 6)) for r in range(lo, hi + 1))
    for H in (build_space(t, a0) for a0 in build_root_system(t).special_simple_roots())
    if H.dim <= 12]


@pytest.mark.parametrize("H", CLASSIFICATION_SWEEP + E6_NODES, ids=str)
def test_classification_sweep(H):
    """On the 29 spaces and both E6 nodes, at every (a, b) of (1, 0),
    (0, 1), (1, 1), (1, -1) that theta_for accepts: d2 on vector fields has
    rank dim g exactly when a != 0, except on CP^n, where it is 0; the
    adjoint at (0,1) is killed exactly when a != 0 and E2 has the (2,2)
    l*-adjoint; H^0 at (0, 1) is (n^2-1 | n^2) on Gr(n,k); and with n+ =
    Mat_{r x s}, kernel_dim_11 is 1 at (1, 1) iff s = 2 and at (1, -1) iff
    r = 2, else 0, and equals H^1 odd when a != 0.  The last pins the sign
    of eta that the duality test cannot."""
    rs = grassmannian_rs(H)
    dim_g = H.rd.weyl_dimension(H.rd.delta)
    projective = rs is not None and min(rs) == 1
    runs = 0
    for a, b in ((1, 0), (0, 1), (1, 1), (1, -1)):
        try:
            theta_for(H, a, b)
        except ValueError:
            continue
        runs += 1
        report, res = cohomology_of_T(H, a, b)
        d = report.dims()
        assert res.rank_vector_fields == (dim_g if a and not projective else 0), (a, b)
        adjoint_22 = prov_summary(res.E2, 2, 2, "l")[0] > 0
        assert res.adjoint_01_survives == (not (a and adjoint_22)), (a, b)
        if rs is not None and (a, b) == (0, 1):
            n = sum(rs)
            assert (d["H0_even"], d["H0_odd"]) == (n * n - 1, n * n)
        r, s = rs or (0, 0)
        kernel = int((a, b, s) == (1, 1, 2) or (a, b, r) == (1, -1, 2))
        assert res.kernel_dim_11 == kernel, (a, b)
        if a:
            assert d["H1_odd"] == kernel, (a, b)
    assert runs == (1 if rs is None else 3 if projective else 4)
