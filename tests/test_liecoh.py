import random
from fractions import Fraction

import pytest

from flagcoh.bott import space_from_preset
from flagcoh.liecoh import (
    Cochain,
    _commutator,
    build_g_basis,
    ce_differential,
    cochain_from_form,
    d2_rank_on_vector_fields,
    h1_invariant_dimension,
    invariant_zero_cochains,
    is_invariant_coboundary,
    is_r_invariant,
    theta_form,
)
from flagcoh.scalars import QS_ONE, QS_ZERO, QSqrt2


@pytest.fixture(scope="module")
def gr42():
    return build_g_basis(space_from_preset("Gr(4,2)"))


def test_basis_dimensions():
    assert build_g_basis(space_from_preset("Gr(4,2)")).dim == 15
    assert build_g_basis(space_from_preset("Q3")).dim == 10
    assert build_g_basis(space_from_preset("LG3")).dim == 21
    assert build_g_basis(space_from_preset("S-D4")).dim == 28


@pytest.mark.parametrize("name", ["Gr(4,2)", "Q5", "LG3", "S-D4"])
def test_bracket_coords_memo_matches_fresh_expansion(name):
    gb = build_g_basis(space_from_preset(name))
    for i, ei in enumerate(gb.elements):
        for j, ej in enumerate(gb.elements):
            coords = gb.bracket_coords(i, j)
            assert list(coords) == gb.expand(_commutator(ei.matrix, ej.matrix))
            assert gb.bracket_coords(i, j) is coords
    with pytest.raises(TypeError):
        coords[0] = Fraction(1)


def test_projection_structure(gr42):
    gb = gr42
    # pi is the identity on n+, zero on r and n-
    for k, idx in enumerate(gb.nplus_order):
        coords = gb.project_nplus(gb.elements[idx].matrix)
        assert coords == [Fraction(1 if i == k else 0) for i in range(gb.n)]
    for idx, el in enumerate(gb.elements):
        if el.block in ("r", "t", "n-"):
            assert not any(gb.project_nplus(el.matrix))


def test_delta_squared_zero_on_random_invariant_cochains(gr42):
    gb = gr42
    basis = invariant_zero_cochains(gb)
    assert len(basis) >= 2
    rng = random.Random(42)
    for _ in range(50):
        c = Cochain(gb, 0, {})
        for b in basis:
            c = c + b.scale(QSqrt2(rng.randint(-3, 3), rng.randint(-1, 1)))
        assert ce_differential(ce_differential(c)).is_zero()


def test_delta_of_zero_and_rejections(gr42):
    gb = gr42
    zero1 = Cochain(gb, 1, {})
    assert ce_differential(zero1).is_zero()
    with pytest.raises(ValueError):
        ce_differential(Cochain(gb, 2, {}))
    # non-cocycle rejection: build some non-invariant 1-cochain
    bad = Cochain(gb, 1, {(0, 0): [QS_ONE] * (gb.n * gb.n)})
    if not ce_differential(bad).is_zero():
        with pytest.raises(ValueError):
            is_invariant_coboundary(bad)


def test_c_theta2_explicit_formula(gr42):
    """c_theta2(v)(w) = v (x) pi(w) - (pi(w), v) sum_i e_i* (x) e_i."""
    gb = gr42
    n = gb.n
    c = cochain_from_form(gb, theta_form(gb, 1, 0))
    for w in range(gb.dim):
        pw = gb.project_nplus(gb.elements[w].matrix)
        for v in range(n):
            expect = [QS_ZERO] * (n * n)
            # v (x) pi(w): the n- index equals v
            for u, co in enumerate(pw):
                if co:
                    expect[v * n + u] = expect[v * n + u] + QSqrt2(co)
            # -(pi(w), v) sum_i e_i* (x) e_i; Kronecker pairing here
            if pw[v]:
                for i in range(n):
                    expect[i * n + i] = expect[i * n + i] - QSqrt2(pw[v])
            assert c.value((v, w)) == expect, (v, w)


def test_c_theta2_on_lowest_and_highest_root_vectors(gr42):
    """c_theta2(e_{-alpha0})(e_delta) = e_{-alpha0} (x) e_delta."""
    gb = gr42
    H = gb.H
    n = gb.n
    c = cochain_from_form(gb, theta_form(gb, 1, 0))
    # alpha0 root = E_{r-1, r} matrix position; find its n+/n- indices
    from flagcoh.liecoh import roots_key

    a0 = tuple(
        Fraction(1 if i == H.alpha0 else 0) for i in range(H.rd.rank)
    )
    delta = H.rd.delta
    i_a0 = next(
        k for k, idx in enumerate(gb.nminus_order)
        if roots_key(H, gb.elements[idx]) == tuple(-c0 for c0 in a0)
    )
    w_delta = next(
        idx for idx in gb.nplus_order
        if roots_key(H, gb.elements[idx]) == tuple(Fraction(c0) for c0 in delta)
    )
    u_delta = gb.nplus_order.index(w_delta)
    val = c.value((i_a0, w_delta))
    expect = [QS_ZERO] * (n * n)
    expect[i_a0 * n + u_delta] = QS_ONE
    assert val == expect


def test_c_zero_form(gr42):
    assert cochain_from_form(gr42, theta_form(gr42, 0, 0)).is_zero()


def test_linearity_of_c_theta(gr42):
    gb = gr42
    c_t = cochain_from_form(gb, theta_form(gb, 1, 0))
    c_e = cochain_from_form(gb, theta_form(gb, 0, 1))
    a, b = QSqrt2(2, 1), QSqrt2(-1, 3)
    combo = cochain_from_form(gb, theta_form(gb, a, b))
    assert (combo - (c_t.scale(a) + c_e.scale(b))).is_zero()


def test_cocycle_and_invariance(gr42):
    gb = gr42
    for (a, b) in ((1, 0), (0, 1), (2, 3)):
        c = cochain_from_form(gb, theta_form(gb, a, b))
        assert ce_differential(c).is_zero()
        assert is_r_invariant(c)


def test_explicit_witness_for_c_eta(gr42):
    """The explicit 0-cochain c(E_ij) = sum_rho E_{rho j} (x) E_{i rho},
    c(E_{ab}) = sum_k E_{a k} (x) E_{k b}, c(n+) = c(n-) = 0 satisfies
    delta c = c_eta (restricted to sl_n)."""
    gb = gr42
    H = gb.H
    n = gb.n
    r = H.alpha0 + 1
    s = H.rd.rank + 1 - r
    sp = gb.space

    def nminus_idx(a, i):
        # n- basis: E_{a, i} stored at flat index i*s + a
        return i * s + a

    data = {}
    for w, el in enumerate(gb.elements):
        if el.block != "r" and el.block != "t":
            continue
        vec = [QS_ZERO] * (n * n)
        mat = el.matrix
        for (i, j), co in mat.items():
            if i < r and j < r:
                # c(E_ij) = sum_rho E_{rho j} (x) E_{i rho}
                for rho in range(s):
                    vi = nminus_idx(rho, j)
                    ui = sp.index(i, rho)
                    vec[vi * n + ui] = vec[vi * n + ui] + QSqrt2(co)
            elif i >= r and j >= r:
                a, b2 = i - r, j - r
                # c(E_{a b}) = sum_k E_{a k} (x) E_{k b}
                for k in range(r):
                    vi = nminus_idx(a, k)
                    ui = sp.index(k, b2)
                    vec[vi * n + ui] = vec[vi * n + ui] + QSqrt2(co)
        if any(vec):
            data[w] = vec
    witness = Cochain(gb, 0, data)
    c_eta = cochain_from_form(gb, theta_form(gb, 0, 1))
    assert (ce_differential(witness) - c_eta).is_zero()


def test_coboundary_solver(gr42):
    gb = gr42
    c_eta = cochain_from_form(gb, theta_form(gb, 0, 1))
    res = is_invariant_coboundary(c_eta)
    assert res.is_coboundary
    assert (ce_differential(res.witness) - c_eta).is_zero()

    c_t = cochain_from_form(gb, theta_form(gb, 1, 0))
    assert not is_invariant_coboundary(c_t).is_coboundary

    # delta of any invariant 0-cochain is recognized
    b0 = invariant_zero_cochains(gb)[0]
    res2 = is_invariant_coboundary(ce_differential(b0))
    assert res2.is_coboundary


@pytest.mark.parametrize("name,ab,expected", [
    ("Gr(4,2)", (1, 0), 15),
    ("Gr(4,2)", (0, 1), 0),
    ("Gr(5,2)", (1, 1), 24),
    ("Gr(5,2)", (0, 1), 0),
    ("CP2", (1, 0), 0),
    ("CP3", (1, 0), 0),
    ("Q3", (1, 0), 10),
    ("LG3", (1, 0), 21),
])
def test_d2_rank_on_vector_fields(name, ab, expected):
    H = space_from_preset(name)
    assert d2_rank_on_vector_fields(H, *ab) == expected


@pytest.mark.parametrize("name,expected", [
    ("CP2", 0), ("CP3", 0), ("Q3", 1), ("Gr(4,2)", 1), ("Gr(5,2)", 1),
])
def test_frobenius_consistency_h1(name, expected):
    """dim H^1(n-, Hom(g, .))^R equals the adjoint multiplicity in
    H^1(M, Omega^1 (x) Theta) from the Bott route: 1 in I/II, 0 in III."""
    gb = build_g_basis(space_from_preset(name))
    assert h1_invariant_dimension(gb) == expected
    from flagcoh.bott import cohomology_omega_p_theta

    col = cohomology_omega_p_theta(gb.H, 1, q_max=1)
    adj = sum(d.mult for d in col[1] if d.tag == "adjoint")
    assert adj == expected
