import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import flagcoh
from flagcoh import spectral
from flagcoh.bott import (PRESET_NAMES, build_space, cohomology_omega_p_theta,
                          grassmannian_rs, space_from_preset)
from flagcoh.invforms import (
    MatrixPairSpace, RootPairSpace, barwedge_inv, eta, rank_of, theta_p,
)
from flagcoh.rootsys import SimpleLieType
from flagcoh.scalars import QSqrt2, RT2, parse_scalar
from flagcoh.spectral import (
    ThetaParameter,
    apply_d2,
    assemble_E2,
    cohomology_of_T,
    e3_rows_summary,
    flagged_32_comparison,
    pq_consistency,
    published_e3_rows,
    theta_for,
)


def summary(table, p, q):
    entry = table.get((p, q), [])
    a = sum(s.descriptor.mult for s in entry if s.descriptor.tag == "adjoint")
    t = sum(s.descriptor.mult for s in entry if s.descriptor.tag == "trivial")
    o = sum(s.descriptor.mult for s in entry if s.descriptor.tag == "other")
    return a, t, o


def prov_summary(table, p, q, prov):
    entry = [s for s in table.get((p, q), []) if s.provenance == prov]
    a = sum(s.descriptor.mult for s in entry if s.descriptor.tag == "adjoint")
    t = sum(s.descriptor.mult for s in entry if s.descriptor.tag == "trivial")
    return a, t


def test_assemble_e2_examples():
    tI = assemble_E2(space_from_preset("Q3"))
    assert prov_summary(tI, 0, 0, "l") == (1, 0)
    assert prov_summary(tI, 0, 0, "i") == (0, 1)

    tII = assemble_E2(space_from_preset("Gr(4,2)"))
    assert prov_summary(tII, 1, 1, "l") == (1, 0)
    assert prov_summary(tII, 1, 1, "i") == (0, 2)

    tIII = assemble_E2(space_from_preset("CP3"))
    assert (-1, 1) not in tIII


def test_theta_parameter_validation():
    H = space_from_preset("Q3")
    with pytest.raises(ValueError):
        theta_for(H, 0, 0)
    with pytest.raises(ValueError):
        theta_for(H, 1, 1)  # eta is Grassmann-specific
    # case III collapses eta into theta2 (eta = -theta2 for s = 1)
    H3 = space_from_preset("CP2")
    th = theta_for(H3, 2, 1)
    assert th.b == QSqrt2(0) and th.a == QSqrt2(1)
    with pytest.raises(ValueError):
        theta_for(H3, 1, 1)  # collapses to zero


def test_d2_squared_zero_entrywise():
    """Where d2 removes multiplicity the source and target lose the same
    amount, and targets of targets receive nothing (checked structurally)."""
    for name, ab in (("Gr(4,2)", (1, 0)), ("Gr(5,2)", (0, 1)), ("Q3", (1, 0))):
        H = space_from_preset(name)
        res = apply_d2(H, theta_for(H, *ab))
        for (p, q), entry in res.E2.items():
            e2_tot = sum(s.descriptor.total_dim() for s in entry)
            e3_tot = sum(s.descriptor.total_dim() for s in res.E3.get((p, q), []))
            assert e3_tot <= e2_tot


def test_e3_dimension_bookkeeping():
    """dim E3 = dim E2 - rank(in) - rank(out) per entry for rows 0,1."""
    H = space_from_preset("Gr(4,2)")
    res = apply_d2(H, theta_for(H, 1, 0))
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
        res = apply_d2(H, theta_for(H, *ab))
        assert prov_summary(res.E3, 0, 0, "i") == (0, 0)


# --- the five published regimes, computed truth ------------------------------

def test_case_I_q3_computed():
    """Q3: H0 matches the published (g | C); H1 carries the two extra
    5-dimensional summands the published table misses."""
    H = space_from_preset("Q3")
    rep, res = cohomology_of_T(H, theta_for(H, 1, 0))
    d = rep.dims()
    assert (d["H0_even"], d["H0_odd"]) == (10, 1)
    assert (d["H1_even"], d["H1_odd"]) == (15, 5)
    assert [x.tag for x in rep.H0_even] == ["adjoint"]
    assert [x.tag for x in rep.H1_odd] == ["other"]


def test_case_I_sd4_matches_published():
    H = space_from_preset("S-D4")
    rep, res = cohomology_of_T(H, theta_for(H, 1, 0))
    d = rep.dims()
    assert (d["H0_even"], d["H0_odd"]) == (28, 1)
    assert (d["H1_even"], d["H1_odd"]) == (28, 0)
    rows = e3_rows_summary(res)
    assert rows == {(0, 0): (1, 0, 0), (1, 0): (0, 1, 0), (0, 1): (1, 0, 0)}


def test_case_II_generic_gr42():
    H = space_from_preset("Gr(4,2)")
    rep, res = cohomology_of_T(H, theta_for(H, 1, 0))
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
    rep, res = cohomology_of_T(H, theta_for(H, 1, 1))
    assert res.kernel_dim_11 == 1
    d = rep.dims()
    assert (d["H1_even"], d["H1_odd"]) == (16, 1)

    rep2, res2 = cohomology_of_T(H, theta_for(H, RT2, 1))
    assert res2.kernel_dim_11 == 0
    assert rep2.dims()["H1_odd"] == 0


def test_case_II_eta_gr42_and_gr52():
    for name, dims in (("Gr(4,2)", (15, 16, 16, 15)), ("Gr(5,2)", (24, 25, 25, 24))):
        H = space_from_preset(name)
        rep, res = cohomology_of_T(H, theta_for(H, 0, 1))
        d = rep.dims()
        assert (d["H0_even"], d["H0_odd"], d["H1_even"], d["H1_odd"]) == dims
        want = published_e3_rows("II-eta")
        got = {k: (a, t) for k, (a, t, o) in e3_rows_summary(res).items()}
        assert got == want, name


def test_case_II_generic_gr52_deviates_from_published():
    """On Gr(5,2) with a theta2-component the adjoint at (0,1) is killed by
    the honest d2 (the published tables lack the adjoint target); H1 = C."""
    H = space_from_preset("Gr(5,2)")
    rep, res = cohomology_of_T(H, theta_for(H, 1, 0))
    assert not res.adjoint_01_survives
    d = rep.dims()
    assert (d["H1_even"], d["H1_odd"]) == (1, 0)
    assert res.notes


def test_case_III():
    H2 = space_from_preset("CP2")
    rep2, res2 = cohomology_of_T(H2, theta_for(H2, 1, 0))
    d2 = rep2.dims()
    assert (d2["H0_even"], d2["H0_odd"]) == (8, 9)
    assert (d2["H1_even"], d2["H1_odd"]) == (0, 1)
    got = {k: (a, t) for k, (a, t, o) in e3_rows_summary(res2).items()}
    assert got == published_e3_rows("III", n=3)

    H3 = space_from_preset("CP3")
    rep3, res3 = cohomology_of_T(H3, theta_for(H3, 1, 0))
    d3 = rep3.dims()
    assert (d3["H1_even"], d3["H1_odd"]) == (0, 0)
    got3 = {k: (a, t) for k, (a, t, o) in e3_rows_summary(res3).items()}
    assert got3 == published_e3_rows("III", n=4)


def test_pq_consistency():
    for name, n in (("Gr(4,2)", 4), ("Gr(5,2)", 5), ("CP2", 3)):
        out = pq_consistency(space_from_preset(name))
        assert out["ok"], out
        assert out["n"] == n


def test_flagged_32_entry():
    # case I theta2: computed k - 1; the published superscript (read as
    # k-1 resp. k-2) is compared, never silently reconciled
    H = space_from_preset("Q3")
    res = apply_d2(H, theta_for(H, 1, 0))
    cmp = flagged_32_comparison(res)
    assert cmp["k"] == 1 and cmp["computed_trivial"] == 0 and cmp["agree"]

    H = space_from_preset("Gr(5,2)")
    res = apply_d2(H, theta_for(H, 1, 0))
    cmp = flagged_32_comparison(res)
    rank11 = 2 - res.kernel_dim_11
    assert cmp["k"] == 3
    assert cmp["computed_trivial"] == 3 - rank11
    assert cmp["agree"] == (cmp["computed_trivial"] == 1)


def test_undetermined_entries_are_marked():
    H = space_from_preset("Gr(5,2)")
    res = apply_d2(H, theta_for(H, 0, 1))
    row2 = [
        s for (p, q), entry in res.E3.items() if q == 2 for s in entry
    ]
    assert any(s.status == "undetermined" for s in row2)
    # rows 0,1 are always fully determined
    for (p, q), entry in res.E3.items():
        if q <= 1:
            assert all(s.status == "ok" for s in entry)


@pytest.mark.parametrize("space", ["Gr(4,2)", "CP2", "Q3"])
def test_e3_is_the_same_under_python_O(space):
    """The E3 bookkeeping must not live inside asserts that -O strips."""
    src = str(Path(flagcoh.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    argv = ["-m", "flagcoh.cli", "e3", "--space", space, "--a", "1", "--b", "0"]
    plain, optimized = (
        subprocess.run([sys.executable, *flags, *argv], env=env, check=True,
                       capture_output=True, text=True).stdout
        for flags in ([], ["-O"])
    )
    assert '"H0"' in plain
    assert optimized == plain


# --- step (iii) against the whole-tensor rank ---------------------------------
#
# The oracle builds theta = a theta2 + b eta as a form, multiplies it with the
# invariant (2,1)-forms and takes the rank of the products over every stored
# (key, n+ index); apply_d2 reads the same rank off the product table.

def _whole_tensor_kernel11(H, a, b):
    rs = grassmannian_rs(H)
    if rs is not None and min(rs) >= 2:
        space = MatrixPairSpace(*rs)
        basis = [theta_p(space, 2), eta(space)]
        theta = basis[0].scale(a) + basis[1].scale(b)
    else:
        space = MatrixPairSpace(*rs) if rs is not None else RootPairSpace(H.dim)
        basis = [theta_p(space, 2)]
        theta = basis[0].scale(a)  # b collapsed by theta_for
    images = [f for f in (barwedge_inv(theta, phi) for phi in basis) if not f.is_zero()]
    return len(basis) - (rank_of(images) if images else 0)


def _golden_e3_parameters(name):
    keys = json.loads((Path(__file__).resolve().parent / "golden" / "spectral.json")
                      .read_text(encoding="utf-8"))
    return [(parse_scalar(a), parse_scalar(b))
            for cmd, space, a, b in (k.split(" ") for k in keys)
            if cmd == "e3" and space == name]


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
            theta = theta_for(H, a, b)
        except ValueError:  # a + b sign = 0 where eta folds into theta2
            continue
        assert apply_d2(H, theta).kernel_dim_11 == \
            _whole_tensor_kernel11(H, theta.a, theta.b), (a, b)


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
        theta = theta_for(H, a, b)
    except ValueError:
        return None
    report, res = cohomology_of_T(H, theta)
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
])
def test_low_rank_coincidences_agree(presentations):
    """One space realized in sl, so and sp gives one answer."""
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
            cohomology_of_T(H, ThetaParameter(H.case, QSqrt2(a), QSqrt2(b)))
    with pytest.raises(ValueError, match="eta undefined"):
        theta_for(H, 0, 1)
