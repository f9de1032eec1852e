import functools
import itertools
import json
import operator
import random
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import pytest
from canonical import add_into, form_value, is_canonical, nested
from matrix_route import chevalley_images, combination, commutator, expand, matrix_basis
from subset_route import dual, trivial_multiplicity

from flagcoh import liecoh, spectral
from flagcoh.bott import PRESET_NAMES, build_space, grassmannian_rs, space_from_preset
from flagcoh.exterior import _Terms
from flagcoh.invforms import (
    InvariantVectorForm,
    MatrixPairSpace,
    VecTensor,
    barwedge_inv,
    eta,
    eta1,
    eta2,
    eta3,
    span_solve,
    theta_basis,
    theta_p,
)
from flagcoh.liecoh import (
    Cochain,
    GModuleBasis,
    _delta,
    _invariant_zero,
    build_g_basis,
    ce_differential,
    cochain_from_form,
    d2_rank_on_vector_fields,
    invariant_zero_cochains,
    is_invariant_coboundary,
    roots_key,
    theta_form,
    two_cochain_from_d2_image,
    two_cochain_is_coboundary,
)
from flagcoh.record import Record
from flagcoh.repdecomp import char_of_roots, tensor
from flagcoh.rootsys import SimpleLieType, build_root_system
from flagcoh.scalars import QS_ONE, QS_ZERO, QSqrt2, canonical, nullspace, parse_scalar, rank

MATRIX_PRESETS = ["CP2", "CP3", "Q3", "Q5", "Gr(4,2)", "Gr(5,2)", "Gr(5,3)",
                  "Gr(6,3)", "LG3", "S-D4"]
GRASSMANN_PRESETS = ["CP2", "CP3", "Gr(4,2)", "Gr(5,2)", "Gr(5,3)", "Gr(6,3)"]


@pytest.fixture(scope="module")
def gr42():
    return build_g_basis(space_from_preset("Gr(4,2)"))


def value(c: Cochain, key) -> list:
    """The value of c at key as a dense list of module_dim scalars."""
    return [c.data.get((key, t), Fraction(0)) for t in range(c.module_dim)]


def is_r_invariant(c: Cochain) -> bool:
    """Oracle: x . c = 0 for every x in r, for a 1-cochain c: c has weight
    zero (the torus) and satisfies the equivariant system (the raising
    generators)."""
    if c.degree != 1:
        raise ValueError("R-invariance test implemented for 1-cochains")
    gb = c.gb
    nminus = liecoh._ad_module(gb, gb.nminus_order)
    unknowns, rows = liecoh._equivariant_system(
        liecoh._tensor(nminus, liecoh._ad_module(gb, range(gb.dim))),
        liecoh._tensor(nminus, liecoh._ad_module(gb, gb.nplus_order)))
    index = {u: k for k, u in enumerate(unknowns)}
    coords = {}
    for ((v, w), t), x in c.data.items():
        k = index.get((v * c.gb.dim + w, t))
        if k is None:
            return False
        coords[k] = x
    return not any(sum(co * coords[k] for k, co in row.items() if k in coords)
                   for row in rows)


def test_basis_dimensions():
    assert build_g_basis(space_from_preset("Gr(4,2)")).dim == 15
    assert build_g_basis(space_from_preset("Q3")).dim == 10
    assert build_g_basis(space_from_preset("LG3")).dim == 21
    assert build_g_basis(space_from_preset("S-D4")).dim == 28


def ref_nplus_coords(gb, X):
    """Oracle: the n+ coordinates of a matrix X of type A, as n+ index ->
    coefficient."""
    coords = expand(gb, X)
    return {u: coords[g] for u, g in enumerate(gb.nplus_order) if g in coords}


@pytest.mark.parametrize("name", MATRIX_PRESETS)
def test_bracket_coords_memo_matches_fresh_expansion(name):
    """The table against the matrix realization (`matrix_route`): on type A
    it holds the coordinates of the commutators of the basis matrices; on
    B, C and D the map fixed by the simple root vectors is injective and
    takes every bracket of the table to the matrix commutator."""
    gb = build_g_basis(space_from_preset(name))
    type_a = gb.H.rd.type.family == "A"
    mats = matrix_basis(gb) if type_a else chevalley_images(gb)
    cells = sorted({cell for m in mats for cell in m})
    assert rank([[m.get(cell, 0) for cell in cells] for m in mats]) == gb.dim
    for i, ei in enumerate(mats):
        for j, ej in enumerate(mats):
            coords = gb.bracket_coords(i, j)
            if type_a:
                assert coords == expand(gb, commutator(ei, ej))
            else:
                assert combination(mats, coords) == commutator(ei, ej), (i, j)
            assert gb.bracket_coords(i, j) is coords
            assert {g: -c for g, c in gb.bracket_coords(j, i).items()} == coords
    with pytest.raises(TypeError):
        coords[0] = Fraction(1)


@pytest.mark.parametrize("name", MATRIX_PRESETS)
def test_coefficients_are_canonical(name):
    """Every basis scale, bracket coordinate, delta coefficient, invariant
    0-cochain value and value of the differential of an invariant 1-cochain
    (the reference basis) is an int when integral, a Fraction otherwise."""
    gb = build_g_basis(space_from_preset(name))
    values = [el.scale for el in gb.elements]
    values += [c for i in range(gb.dim) for j in range(gb.dim)
               for c in gb.bracket_coords(i, j).values()]
    values += [co for k in (0, 1) for key in _pattern_keys(gb, k) for _, co in _delta(gb, k)[key]]
    values += [x for c in invariant_zero_cochains(gb) for _, x in c.entries()]
    values += [x for c in ref_invariant_one_cochains(gb) for _, x in ce_differential(c).entries()]
    assert values and all(is_canonical(x) for x in values)


def _bracket_vec(gb, x, y):
    """[x, y] for coordinate vectors x, y, through bracket_coords."""
    out = {}
    for i, a in x.items():
        for j, b in y.items():
            add_into(out, a * b, gb.bracket_coords(i, j))
    return out


@pytest.mark.parametrize("name", MATRIX_PRESETS)
def test_bracket_coords_satisfy_jacobi_on_random_triples(name):
    gb = build_g_basis(space_from_preset(name))
    rng = random.Random(f"jacobi-{name}")
    for _ in range(40):
        x, y, z = ({g: Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                    for g in rng.sample(range(gb.dim), 3)} for _ in range(3))
        total = {}
        for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
            add_into(total, 1, _bracket_vec(gb, a, _bracket_vec(gb, b, c)))
        assert total == {}


E_TYPE_SPACES = [(SimpleLieType("E", 6), 0, 78), (SimpleLieType("E", 7), 6, 133)]
PRESETS_AND_E6 = [space_from_preset(name) for name in PRESET_NAMES] + [
    build_space(SimpleLieType("E", 6), 0)]


@pytest.mark.parametrize("t,alpha0,dim", E_TYPE_SPACES, ids=str)
def test_e_type_tables_satisfy_jacobi(t, alpha0, dim):
    """The table is antisymmetric, and ad x is a derivation of it for every
    Chevalley generator x (e_{+-alpha_i}, h_i) over every pair (y, z).  The x
    whose ad is a derivation form a subalgebra, and the generators generate
    g, so the Jacobi identity holds exactly on all of g."""
    gb = build_g_basis(build_space(t, alpha0))
    assert gb.dim == dim and gb.n == len(gb.H.N_plus)
    rd, torus = gb.H.rd, gb.dim - t.rank
    gens = [gb.root_index[tuple(sign * c for c in a)] for sign in (1, -1)
            for a in rd.simple_roots]
    gens += range(torus, gb.dim)
    for y in range(gb.dim):
        for z in range(gb.dim):
            assert {g: -c for g, c in gb.bracket_coords(z, y).items()} == \
                gb.bracket_coords(y, z)
    for x in gens:
        for y in range(gb.dim):
            xy = gb.bracket_coords(x, y)
            for z in range(gb.dim):
                out = _bracket_vec(gb, {x: 1}, gb.bracket_coords(y, z))
                add_into(out, -1, _bracket_vec(gb, xy, {z: 1}))
                add_into(out, -1, _bracket_vec(gb, {y: 1}, gb.bracket_coords(x, z)))
                assert out == {}, (x, y, z)


@pytest.mark.parametrize("H", PRESETS_AND_E6, ids=str)
def test_roots_key_reads_the_weight_off_the_torus_rows(H):
    gb = build_g_basis(H)
    for g, el in enumerate(gb.elements):
        if el.block != "t":
            assert roots_key(gb, g) == el.weight


def test_projection_structure():
    for name in MATRIX_PRESETS:
        gb = build_g_basis(space_from_preset(name))
        # pi is the identity on n+, zero on r and n-; so pi(e_w) is the
        # unit vector at w's position in nplus_order
        assert sorted(gb.nplus_order) == [g for g, el in enumerate(gb.elements)
                                          if el.block == "n+"]


def test_delta_squared_zero_on_random_invariant_cochains(gr42):
    gb = gr42
    basis = invariant_zero_cochains(gb)
    assert len(basis) >= 2
    rng = random.Random(42)
    for _ in range(50):
        c = Cochain(gb, 0, _Terms())
        for b in basis:
            c = c + b.scale(QSqrt2(rng.randint(-3, 3), rng.randint(-1, 1)))
        assert ce_differential(ce_differential(c)).is_zero()


def test_delta_of_zero_and_rejections(gr42):
    gb = gr42
    zero1 = Cochain(gb, 1, _Terms())
    assert ce_differential(zero1).is_zero()
    # non-cocycle rejection: build some non-invariant 1-cochain
    bad = Cochain(gb, 1, _Terms({((0, 0), t): QS_ONE for t in range(gb.n * gb.n)}))
    if not ce_differential(bad).is_zero():
        with pytest.raises(ValueError):
            is_invariant_coboundary(bad)


def test_c_theta2_explicit_formula(gr42):
    """c_theta2(v)(w) = v (x) pi(w) - (pi(w), v) sum_i e_i* (x) e_i."""
    gb = gr42
    n = gb.n
    c = cochain_from_form(gb, theta_form(gb, 1, 0))
    for w, mat in enumerate(matrix_basis(gb)):
        pw = ref_nplus_coords(gb, mat)
        for v in range(n):
            expect = [QS_ZERO] * (n * n)
            # v (x) pi(w): the n- index equals v
            for u, co in pw.items():
                expect[v * n + u] = expect[v * n + u] + QSqrt2(co)
            # -(pi(w), v) sum_i e_i* (x) e_i; Kronecker pairing here
            if pw.get(v):
                for i in range(n):
                    expect[i * n + i] = expect[i * n + i] - QSqrt2(pw[v])
            assert value(c, (v, w)) == expect, (v, w)


def test_c_theta2_on_lowest_and_highest_root_vectors(gr42):
    """c_theta2(e_{-alpha0})(e_delta) = e_{-alpha0} (x) e_delta."""
    gb = gr42
    H = gb.H
    n = gb.n
    c = cochain_from_form(gb, theta_form(gb, 1, 0))
    # alpha0 root = E_{r-1, r} matrix position; find its n+/n- indices
    a0 = tuple(
        Fraction(1 if i == H.alpha0 else 0) for i in range(H.rd.rank)
    )
    delta = H.rd.delta
    i_a0 = next(
        k for k, idx in enumerate(gb.nminus_order)
        if roots_key(gb, idx) == tuple(-c0 for c0 in a0)
    )
    w_delta = next(
        idx for idx in gb.nplus_order
        if roots_key(gb, idx) == tuple(Fraction(c0) for c0 in delta)
    )
    u_delta = gb.nplus_order.index(w_delta)
    val = value(c, (i_a0, w_delta))
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


def killing(gb, a, b):
    """Oracle: the Killing form tr(ad b_a ad b_b), read from the table."""
    return sum(c * gb.bracket_coords(a, h).get(g, 0)
               for g in range(gb.dim) for h, c in gb.bracket_coords(b, g).items())


@pytest.mark.parametrize("H", PRESETS_AND_E6, ids=str)
def test_nminus_is_dual_to_nplus_under_the_killing_form(H):
    """(x_k, y_j) is one nonzero multiple of delta_kj, so the scaled n- basis
    is the dual of n+ that the pair space's Kronecker pairing stands for,
    and c_theta2 is an R-invariant cocycle."""
    gb = build_g_basis(H)
    gram = [[killing(gb, x, y) for y in gb.nminus_order] for x in gb.nplus_order]
    c = gram[0][0]
    assert c and gram == [[c * (k == j) for j in range(gb.n)] for k in range(gb.n)]
    if H.rd.type.family != "E":   # E6's 1-cochain system is large
        theta2 = cochain_from_form(gb, theta_form(gb, 1, 0))
        assert ce_differential(theta2).is_zero() and is_r_invariant(theta2)


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
    for w, (el, mat) in enumerate(zip(gb.elements, matrix_basis(gb))):
        if el.block != "r" and el.block != "t":
            continue
        vec = {}
        for (i, j), co in mat.items():
            if i < r and j < r:
                # c(E_ij) = sum_rho E_{rho j} (x) E_{i rho}
                for rho in range(s):
                    vi = nminus_idx(rho, j)
                    ui = sp.index(i, rho)
                    vec[vi * n + ui] = vec.get(vi * n + ui, 0) + co
            elif i >= r and j >= r:
                a, b2 = i - r, j - r
                # c(E_{a b}) = sum_k E_{a k} (x) E_{k b}
                for k in range(r):
                    vi = nminus_idx(a, k)
                    ui = sp.index(k, b2)
                    vec[vi * n + ui] = vec.get(vi * n + ui, 0) + co
        data.update(((w, t), x) for t, x in vec.items() if x)
    witness = Cochain(gb, 0, _Terms(data))
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


def _cochain_rank(cochains: Sequence[Cochain]) -> int:
    return len(span_solve([c.entries() for c in cochains])[1])


def h1_invariant_dimension(gb: GModuleBasis) -> int:
    """dim H^1(n-, Hom(g, n- (x) n+))^R = invariant cocycles modulo the
    differentials of invariant 0-cochains (delta commutes with R)."""
    ones = ref_invariant_one_cochains(gb)
    cocycle_dim = len(ones) - _cochain_rank([ce_differential(c) for c in ones])
    return cocycle_dim - _cochain_rank(_invariant_zero(gb)[1])


FROBENIUS_H1 = {"CP2": 0, "CP3": 0, "Q3": 1, "Q5": 1, "Gr(4,2)": 1, "Gr(5,2)": 1,
                "Gr(5,3)": 1, "Gr(6,3)": 1, "LG3": 1, "S-D4": 1}


@pytest.mark.parametrize("name,expected",
                         [(name, FROBENIUS_H1[name]) for name in PRESET_NAMES])
def test_frobenius_consistency_h1(name, expected):
    """dim H^1(n-, Hom(g, .))^R equals the adjoint multiplicity in
    H^1(M, Omega^1 (x) Theta) from the Bott route: 1 in I/II, 0 in III."""
    gb = build_g_basis(space_from_preset(name))
    assert h1_invariant_dimension(gb) == expected
    from flagcoh.bott import cohomology_omega_p_theta

    col = cohomology_omega_p_theta(gb.H, 1, q_max=1)
    adj = sum(d.mult for d in col[1] if d.tag == "adjoint")
    assert adj == expected


# ---------------------------------------------------------------------------
# Reference implementations: hand-written invariance solves over the torus
# and both the raising and the lowering Levi generators, with dense rows,
# and the hand-written degree-2 differential.
# ---------------------------------------------------------------------------

def _levi_lower(gb):
    """e_{-alpha_i}, i in S, in the order of gb.levi_raise."""
    out = []
    for x in gb.levi_raise:
        neg = tuple(-c for c in gb.elements[x].weight)
        out.append(next(k for k, el in enumerate(gb.elements)
                        if el.block == "r" and el.weight == neg))
    return out


def _ref_module_nminus_nplus(gb):
    n = gb.n

    def wsum(a, b):
        return tuple(x + y for x, y in zip(a, b))

    weights = [wsum(gb.elements[gb.nminus_order[v]].weight,
                    gb.elements[gb.nplus_order[u]].weight)
               for v in range(n) for u in range(n)]

    def act(gen_idx, t):
        v, u = divmod(t, n)
        out = {}
        bv = gb.bracket_coords(gen_idx, gb.nminus_order[v])
        for vi, nm in enumerate(gb.nminus_order):
            if bv.get(nm):
                out[vi * n + u] = out.get(vi * n + u, Fraction(0)) + bv[nm]
        bu = gb.bracket_coords(gen_idx, gb.nplus_order[u])
        for ui, npl in enumerate(gb.nplus_order):
            if bu.get(npl):
                out[v * n + ui] = out.get(v * n + ui, Fraction(0)) + bu[npl]
        return out

    return weights, act


def ref_invariant_zero_cochains(gb):
    n, dim_g = gb.n, gb.dim
    g_weights = [el.weight for el in gb.elements]
    e_weights, e_act = _ref_module_nminus_nplus(gb)
    unknowns = [(w, t) for w in range(dim_g) for t in range(n * n)
                if g_weights[w] == e_weights[t]]
    index = {ut: k for k, ut in enumerate(unknowns)}
    rows = []
    for gen in gb.levi_raise + _levi_lower(gb):
        e_imgs = [e_act(gen, s) for s in range(n * n)]
        for w in range(dim_g):
            coords = gb.bracket_coords(gen, w)
            for t in range(n * n):
                row = {}
                for s in range(n * n):
                    if (w, s) in index and e_imgs[s].get(t):
                        k = index[(w, s)]
                        row[k] = row.get(k, Fraction(0)) + e_imgs[s][t]
                for w2, co in coords.items():
                    if (w2, t) in index:
                        k = index[(w2, t)]
                        row[k] = row.get(k, Fraction(0)) - co
                if row:
                    dense = [Fraction(0)] * len(unknowns)
                    for k, v in row.items():
                        dense[k] = v
                    rows.append(dense)
    out = []
    for vec in nullspace(rows, len(unknowns)):
        data = {}
        for k, c in enumerate(vec):
            if c:
                data[unknowns[k]] = canonical(c)
        out.append(Cochain(gb, 0, _Terms(data)))
    return out


@functools.cache
def ref_invariant_one_cochains(gb):
    n, dim_g = gb.n, gb.dim
    e_weights, e_act = _ref_module_nminus_nplus(gb)
    v_weights = [tuple(a + b for a, b in zip(
        gb.elements[gb.nminus_order[v]].weight, gb.elements[w].weight))
        for v in range(n) for w in range(dim_g)]
    unknowns = [(k, t) for k in range(n * dim_g) for t in range(n * n)
                if v_weights[k] == e_weights[t]]
    index = {ut: i for i, ut in enumerate(unknowns)}
    rows = []
    for gen in gb.levi_raise + _levi_lower(gb):
        act_v = {}
        for v in range(n):
            brv = gb.bracket_coords(gen, gb.nminus_order[v])
            act_v[v] = {vi: brv[nm] for vi, nm in enumerate(gb.nminus_order)
                        if brv.get(nm)}
        for k in range(n * dim_g):
            v, w = divmod(k, dim_g)
            img = {}
            for vi, c in act_v[v].items():
                img[vi * dim_g + w] = img.get(vi * dim_g + w, Fraction(0)) + c
            for w2, c in gb.bracket_coords(gen, w).items():
                img[v * dim_g + w2] = img.get(v * dim_g + w2, Fraction(0)) + c
            for t in range(n * n):
                row = {}
                for s in range(n * n):
                    if (k, s) in index:
                        c = e_act(gen, s).get(t)
                        if c:
                            row[index[(k, s)]] = row.get(index[(k, s)], Fraction(0)) + c
                for k2, c in img.items():
                    if (k2, t) in index:
                        row[index[(k2, t)]] = row.get(index[(k2, t)], Fraction(0)) - c
                if row:
                    dense = [Fraction(0)] * len(unknowns)
                    for i, val in row.items():
                        dense[i] = val
                    rows.append(dense)
    out = []
    for vec in nullspace(rows, len(unknowns)):
        data = {}
        for i, c in enumerate(vec):
            if c:
                k, t = unknowns[i]
                data[(divmod(k, dim_g), t)] = canonical(c)
        out.append(Cochain(gb, 1, _Terms(data)))
    return out


@pytest.mark.parametrize("name", MATRIX_PRESETS)
def test_invariant_bases_match_reference_solves(name):
    gb = build_g_basis(space_from_preset(name))
    got, want = invariant_zero_cochains(gb), ref_invariant_zero_cochains(gb)
    assert [c.data for c in got] == [c.data for c in want]


@pytest.mark.parametrize("name", MATRIX_PRESETS)
def test_invariant_bases_match_character_count(name):
    """dim Hom_R(V, n- (x) n+) = trivial multiplicity of V* (x) n- (x) n+."""
    H = space_from_preset(name)
    gb = build_g_basis(H)
    roots = [tuple(int(c) for c in r) for r in H.rd.positive_roots]
    chi_g = char_of_roots(roots + [tuple(-c for c in r) for r in roots])
    chi_g[(0,) * H.rd.rank] = H.rd.rank
    chi_nminus = dual(H.n_plus_character())
    chi_e = tensor(chi_nminus, H.n_plus_character())
    for basis, chi_v in ((invariant_zero_cochains(gb), chi_g),
                         (ref_invariant_one_cochains(gb), tensor(chi_nminus, chi_g))):
        assert len(basis) == trivial_multiplicity(H.levi, tensor(dual(chi_v), chi_e))


def test_is_r_invariant_rejects_non_invariant_cochains(gr42):
    gb = gr42
    n = gb.n
    e_weights, _ = _ref_module_nminus_nplus(gb)

    def weight(v, w, t):
        return (tuple(a + b for a, b in zip(gb.elements[gb.nminus_order[v]].weight,
                                            gb.elements[w].weight)), e_weights[t])

    def single(v, w, t):
        return Cochain(gb, 1, _Terms({((v, w), t): QS_ONE}))

    coords = [(v, w, t) for v in range(n) for w in range(gb.dim) for t in range(n * n)]
    off = next(k for k in coords if weight(*k)[0] != weight(*k)[1])
    assert not is_r_invariant(single(*off))
    # a weight-zero coordinate outside the span of the reference invariant
    # basis, so that a raising or lowering generator moves it
    ref = ref_invariant_one_cochains(gb)

    def in_ref_span(k):
        flat = [[value(c, (v, w))[t] for v, w, t in coords] for c in ref]
        return rank(flat + [[QS_ONE if x == k else QS_ZERO for x in coords]]) == len(ref)

    on = next(k for k in coords if weight(*k)[0] == weight(*k)[1]
              and not in_ref_span(k))
    assert not is_r_invariant(single(*on))
    # the invariant cochain c_theta2 stays invariant, plus a weight-zero
    # perturbation it does not
    c = cochain_from_form(gb, theta_form(gb, 1, 0))
    assert is_r_invariant(c)
    assert not is_r_invariant(c + single(*on))
    with pytest.raises(ValueError):
        is_r_invariant(Cochain(gb, 0, _Terms()))


@pytest.mark.parametrize("name", GRASSMANN_PRESETS)
def test_rational_forms_and_cochains_hold_no_qsqrt2(name):
    """The theta and eta families, the four theta2/eta products and the
    cocycle of the rational parameter (0, 1) are computed over Fraction;
    sqrt(2) enters only with a parameter or a root that carries it."""
    gb = build_g_basis(space_from_preset(name))
    sp = gb.space
    th2, et = theta_p(sp, 2), eta(sp)
    forms = [theta_p(sp, p) for p in range(1, sp.dim + 1)]
    forms += [et, eta1(sp), eta2(sp), eta3(sp)]
    forms += [barwedge_inv(x, y) for x in (th2, et) for y in (th2, et)]
    for f in forms:
        assert not any(isinstance(c, QSqrt2) for _, c in f.entries()), f.p
    c = cochain_from_form(gb, theta_form(gb, QSqrt2(0), QSqrt2(1)))
    assert not c.is_zero()
    assert not any(isinstance(x, QSqrt2) for _, x in c.entries())


# ---------------------------------------------------------------------------
# The cached CE differential map against a scan of the whole pattern
# ---------------------------------------------------------------------------

def _ref_delta_terms(gb, k):
    """Reference: every key of delta c of a k-cochain c with its terms
    [(key of c, coefficient)], rescanned on every call."""
    ad = [[gb.bracket_coords(v, w).items() for w in range(gb.dim)]
          for v in gb.nminus_order]
    for vs in itertools.combinations(range(gb.n), k + 1):
        for w in range(gb.dim):
            terms = []
            for i, v in enumerate(vs):
                rest, sign = vs[:i] + vs[i + 1:], -1 if i % 2 else 1
                terms.extend((rest + (gi,) if rest else gi, sign * co)
                             for gi, co in ad[v][w])
            if terms:
                yield vs + (w,), terms


def _ref_differential(c):
    vectors, out = nested(c), {}
    for key, terms in _ref_delta_terms(c.gb, c.degree):
        for src, co in terms:
            if src in vectors:
                add_into(out, co, {(key, t): x for t, x in vectors[src].items()})
    return Cochain(c.gb, c.degree + 1, _Terms(out), c.mdim)


def _pattern_keys(gb, degree):
    """Every key of a degree-k cochain: w, or (v1 < ... < vk, w)."""
    return [vs + (w,) if vs else w for vs in itertools.combinations(range(gb.n), degree)
            for w in range(gb.dim)]


def _random_sparse_cochain(gb, degree, rng, scalar):
    """A random k-cochain with a few nonzero entries per key, plus one key
    (w = dim g) that no key of the pattern reads."""
    keys = [vs + (w,) if vs else w
            for vs in itertools.combinations(range(gb.n), degree)
            for w in range(gb.dim + 1) if w == gb.dim or rng.random() < 0.3]
    data = {}
    for key in keys:
        vec = {t: scalar(rng) for t in rng.sample(range(gb.n * gb.n), 3)}
        data.update(((key, t), x) for t, x in vec.items() if x)
    return Cochain(gb, degree, _Terms(data))


SCALARS = {
    "fraction": lambda rng: Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
    "qsqrt2": lambda rng: QSqrt2(Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                                 rng.randint(-2, 2)),
}


@pytest.mark.parametrize("name", ["Gr(4,2)", "Q5", "Gr(5,3)"])
def test_delta_squared_zero_through_degree_3(name):
    gb = build_g_basis(space_from_preset(name))
    rng = random.Random(name)
    for _ in range(3):
        c1 = _random_sparse_cochain(gb, 1, rng, SCALARS["qsqrt2"])
        d1 = ce_differential(c1)
        assert not d1.is_zero()
        assert ce_differential(d1).is_zero()
        c2 = _random_sparse_cochain(gb, 2, rng, SCALARS["qsqrt2"])
        d2 = ce_differential(c2)
        assert d2.degree == 3 and d2.data == _ref_differential(c2).data
        assert ce_differential(d2).is_zero()


@pytest.mark.parametrize("field", sorted(SCALARS))
@pytest.mark.parametrize("name", ["Gr(4,2)", "Q5", "LG3", "Gr(5,3)"])
def test_differential_matches_the_whole_pattern_scan(name, field):
    gb = build_g_basis(space_from_preset(name))
    rng = random.Random(f"{name}-{field}")
    for degree in range(4):
        c = _random_sparse_cochain(gb, degree, rng, SCALARS[field])
        outside = (tuple(range(degree)) + (gb.dim,)) if degree else gb.dim
        assert outside in nested(c) and _delta(gb, degree)[outside] == []
        got = ce_differential(c)
        assert got.degree == degree + 1 and not got.is_zero()
        assert got.data == _ref_differential(c).data


def test_delta_is_built_once_per_basis_and_degree(monkeypatch):
    """A d2 query and the e3 query after it on the same space share one memo
    per degree, and each key's feeds are built once, when first read.  The
    d2 query builds no degree-1 feed: its only degree-1 read, the cocycle
    check on c_theta, meets keys (v, w), w in n+, which feed nothing."""
    liecoh._g_basis.cache_clear()
    built = []
    missing = liecoh._Delta.__missing__

    def spy(memo, key):
        built.append((id(memo.inv), memo.k, key))
        return missing(memo, key)

    monkeypatch.setattr(liecoh._Delta, "__missing__", spy)
    H = space_from_preset("Gr(5,2)")
    assert liecoh.d2_on_vector_fields(H, 0, 1)[0] == 0
    gb = build_g_basis(H)
    after_d2 = {k: dict(_delta(gb, k)) for k in (0, 1, 2)}
    assert after_d2[0] and any(after_d2[0].values()) and not after_d2[2]
    assert after_d2[1] and not any(after_d2[1].values())
    assert all(gb.elements[w].block == "n+" for _, w in after_d2[1])
    spectral.cohomology_of_T(H, 0, 1)
    assert any(_delta(gb, 1).values()) and _delta(gb, 2)
    assert len(built) == len(set(built)) == sum(len(_delta(gb, k)) for k in (0, 1, 2))
    assert {i for i, _, _ in built} == {id(liecoh._inverse_ad(gb))}
    assert all(_delta(gb, k)[key] is feeds for k, memo in after_d2.items()
               for key, feeds in memo.items())


TEN_TYPES = sorted({space_from_preset(name).rd.type for name in PRESET_NAMES}, key=str) + [
    SimpleLieType("E", 6), SimpleLieType("E", 7)]


def _ref_chevalley(rd):
    """Reference: `liecoh._chevalley` in tuple arithmetic, each root a
    tuple of simple-root coordinates, with its checks."""
    def add(x, y):
        return tuple(map(operator.add, x, y))

    def sub(x, y):
        return tuple(map(operator.sub, x, y))

    def neg(x):
        return tuple(-c for c in x)

    pos = sorted(rd.positive_roots, key=lambda r: (sum(r), neg(r)))
    order = {r: k for k, r in enumerate(pos)}
    roots = tuple(pos) + tuple(map(neg, pos))
    norm = {r: canonical(rd.inner(r, r)) for r in roots}
    N = {}

    def string(a, b):
        p = 0
        while (b := sub(b, a)) in norm:
            p += 1
        return p + 1

    def n(a, b):
        c = neg(add(a, b))
        if (a in order) == (b in order):
            return N[(a, b)] if a in order else -N[(neg(a), neg(b))]
        if (b in order) == (c in order):
            return Fraction(norm[c] * n(b, c), norm[a])
        return Fraction(norm[c] * n(c, a), norm[b])

    def term(w, x, y, z):
        s = add(w, x)
        return Fraction(n(w, x) * n(y, z), norm[s]) if s in norm else 0

    def put(a, b, v):
        assert abs(v) == string(a, b), (a, b, v)
        N[(a, b)], N[(b, a)] = int(v), -int(v)

    for xi in pos:
        special = [(a, sub(xi, a)) for a in pos if order.get(sub(xi, a), -1) > order[a]]
        if special:
            (a1, b1), *rest = special
            put(a1, b1, string(a1, b1))
            for a, b in rest:
                na, nb = neg(a), neg(b)
                put(a, b, Fraction(norm[xi], N[(a1, b1)]) * (
                    term(b1, na, a1, nb) + term(na, a1, b1, nb)))
    for a in roots:
        for b in roots:
            if add(a, b) in norm and (a, b) not in N:
                put(a, b, n(a, b))
    return roots, N


@pytest.mark.parametrize("t", TEN_TYPES, ids=str)
def test_structure_constants_on_every_type(t):
    """On each of the ten types a basis is built for, the table equals the
    tuple-arithmetic reference and satisfies Carter 4.1.2: it is defined
    exactly where a + b is a root, |N(a, b)| = p + 1, N(a, b) = -N(b, a) =
    -N(-a, -b), and N(a, b)/(c, c) = N(b, c)/(a, a) for a + b + c = 0."""
    rd = build_root_system(t)
    roots, N = liecoh._chevalley(rd)
    assert (roots, N) == _ref_chevalley(rd)
    norm = {r: rd.inner(r, r) for r in roots}
    neg = {r: tuple(-c for c in r) for r in roots}
    for a in roots:
        for b in roots:
            s = tuple(map(operator.add, a, b))
            assert ((a, b) in N) == (s in norm), (a, b)
            if s in norm:
                p = next(p for p in range(5)
                         if tuple(y - (p + 1) * x for x, y in zip(a, b)) not in norm)
                assert abs(N[a, b]) == p + 1
                assert N[a, b] == -N[b, a] == -N[neg[a], neg[b]]
                c = neg[s]
                assert Fraction(N[a, b], norm[c]) == Fraction(N[b, c], norm[a])


@pytest.mark.parametrize("t", TEN_TYPES, ids=str)
def test_root_codes_are_injective_on_every_vector_the_table_forms(t):
    """`liecoh._code` tells apart every root, every sum of two roots and
    every b - k a, k = 1 .. 4, of roots a, b: a superset of the vectors
    `_chevalley` codes, root strings included."""
    roots = liecoh._chevalley(build_root_system(t))[0]
    vectors = {tuple(y + k * x for x, y in zip(a, b))
               for a in roots for b in roots for k in (0, 1, -1, -2, -3, -4)}
    assert len({liecoh._code(v) for v in vectors}) == len(vectors)
    assert all((liecoh._code(r) > 0) == (sum(r) > 0) for r in roots)
    assert all(liecoh._code(tuple(map(operator.add, a, b))) ==
               liecoh._code(a) + liecoh._code(b) for a in roots for b in roots)


def test_spaces_and_bases_are_built_once():
    """One space per normalised preset name, and one basis per simple type
    and alpha0: a new, equal space finds the cached basis."""
    H = space_from_preset("Gr(6,3)")
    assert space_from_preset(" Gr (6,3)") is H
    fresh = build_space.__wrapped__(H.rd.type, H.alpha0)
    assert fresh == H and fresh is not H
    assert build_g_basis(fresh) is build_g_basis(H)


def test_constants_are_built_once_per_type():
    """Every basis of a simple type, one per special node, reads one table,
    and a fresh equal root datum finds it."""
    constants = liecoh._chevalley
    for t in TEN_TYPES:
        rd = build_root_system(t)
        nodes = rd.special_simple_roots()
        constants.cache_clear()
        bases = [liecoh._g_basis.__wrapped__(t, alpha0) for alpha0 in nodes]
        info = constants.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, len(nodes) - 1, 1)
        roots, N = constants(build_root_system(t))
        assert all(gb.constants is N for gb in bases)
        assert type(roots) is tuple and len(roots) == 2 * len(rd.positive_roots)


def test_cochains_on_different_bases_do_not_mix():
    g52, g53 = (build_g_basis(space_from_preset(name)) for name in ("Gr(5,2)", "Gr(5,3)"))
    assert g52.n == g53.n
    a, b = (cochain_from_form(gb, theta_form(gb, 1, 0)) for gb in (g52, g53))
    assert (a - a).is_zero()
    for op in (lambda: a + b, lambda: a - b, lambda: b + a, lambda: b - a):
        with pytest.raises(ValueError, match="of a Cochain and a Cochain with different gb"):
            op()


def test_cochains_with_different_coefficient_modules_do_not_add():
    """On Q3 the coboundary of a 1-cochain has values in n- (x) n+ and the
    d2-image 2-cochain in Lambda^2 n- (x) n+; both modules have 9
    coordinates, but mdim tells them apart."""
    gb = build_g_basis(space_from_preset("Q3"))
    d = ce_differential(Cochain(gb, 1, _Terms({((0, gb.dim - 1), 0): 1})))
    t = two_cochain_from_d2_image(gb, theta_form(gb, 1, 0))
    assert (d.degree, d.module_dim) == (t.degree, t.module_dim) == (2, 9)
    assert not d.is_zero() and not t.is_zero() and d != t
    for op in (lambda: d + t, lambda: t + d, lambda: d - t, lambda: t - d):
        with pytest.raises(ValueError, match="of a Cochain and a Cochain with different mdim"):
            op()


def test_forms_and_cochains_refuse_each_other():
    """A form and a cochain neither add nor subtract (ValueError) and are
    never equal; a form compared with a number is unequal to it."""
    gb = build_g_basis(space_from_preset("CP2"))
    form = theta_form(gb, 1, 0)
    cochain = cochain_from_form(gb, form)
    for op in (lambda: form + cochain, lambda: cochain + form,
               lambda: form - cochain, lambda: cochain - form):
        with pytest.raises(ValueError, match="of a (InvariantVectorForm|Cochain) and a "
                                             "(InvariantVectorForm|Cochain)$"):
            op()
    assert not cochain == form and not form == cochain
    assert cochain != form and form != cochain
    theta1 = theta_p(MatrixPairSpace(2, 1), 1)
    assert not theta1 == 1 and theta1 != 1 and not 1 == theta1


def test_forms_and_cochains_share_one_tensor_arithmetic():
    """Like-construction, the label rule, equality and hash are written
    once: VecTensor's, and Record's equality and hash; the arithmetic is
    TermMap's."""
    for name in ("is_zero", "entries", "scale", "_sum", "__add__", "__sub__", "_like",
                 "_other_label", "__eq__", "__hash__"):
        shared = getattr(VecTensor, name)
        assert getattr(InvariantVectorForm, name) is shared, name
        assert getattr(Cochain, name) is shared, name
        assert name not in vars(InvariantVectorForm) and name not in vars(Cochain)
    assert VecTensor.__eq__ is Record.__eq__ and VecTensor.__hash__ is Record.__hash__


def _stores_no_zero(t: VecTensor) -> bool:
    """Whether t stores its entries as one read-only term map holding no zero."""
    return type(t.terms) is _Terms and all(t.terms.values())


@pytest.mark.parametrize("name", ["CP2", "Q3", "Gr(4,2)", "Gr(5,3)", "LG3"])
def test_no_form_or_cochain_builder_stores_a_zero_or_an_empty_vector(name):
    """Forms and cochains take Record's equality, which compares the stored
    dicts: equal values must be stored alike, so no builder may keep a zero
    entry or an empty vector, also where a sum, a difference, a scaling or
    delta o delta cancels."""
    gb = build_g_basis(space_from_preset(name))
    space = gb.space
    forms = [theta_p(space, p) for p in range(1, min(space.dim, 3) + 1)]
    if isinstance(space, MatrixPairSpace):
        forms += [f(space) for f in (eta, eta1, eta2, eta3)]
    forms += [barwedge_inv(f, g) for f in forms[:3] for g in forms[:3]]
    forms += [h for f, g in itertools.product(forms, repeat=2) if (f.p, f.q) == (g.p, g.q)
              for h in (f + g, f - g, f - f, f + g.scale(Fraction(-1, 2)),
                        f.scale(QSqrt2(1, 1)) - g)]
    forms += [f.scale(0) for f in forms[:3]]
    assert all(_stores_no_zero(f) for f in forms)
    assert any(f.is_zero() for f in forms) and not all(f.is_zero() for f in forms)

    thetas = [theta_form(gb, 1, 0), theta_form(gb, QSqrt2(1, 1), 0)]
    if len(theta_basis(space)) == 2:
        thetas.append(theta_form(gb, 0, 1))
    ones = [cochain_from_form(gb, th) for th in thetas]
    cochains = ones + [two_cochain_from_d2_image(gb, th) for th in thetas]
    cochains += invariant_zero_cochains(gb)
    cochains += [ce_differential(c) for c in cochains if c.degree < 2]
    cochains += [ce_differential(ce_differential(c)) for c in ones]
    cochains += [c - c for c in ones] + [a + b.scale(-1) for a in ones for b in ones]
    cochains += [c.scale(0) for c in ones]
    assert all(_stores_no_zero(c) for c in cochains)
    assert any(c.is_zero() for c in cochains)


# ---------------------------------------------------------------------------
# The stored-entry reads of c_theta and phi_w against the form_value sweeps
# ---------------------------------------------------------------------------

def ref_cochain_from_form(gb, theta):
    """c_theta by the n^3 sweep of form_value(theta) over (i, w, v)."""
    n, vectors = gb.n, nested(theta)
    out = {}
    for j, w in enumerate(gb.nplus_order):
        for v in range(n):
            for i in range(n):
                add_into(out, 1, {((v, w), i * n + u): x
                                  for u, x in form_value(vectors, [i, j], [v]).items()})
    return Cochain(gb, 1, _Terms(out))


def ref_two_cochain_from_d2_image(gb, theta):
    """The d2-image 2-cochain with each phi_w(u; v) = theta2(pi(w), u; v) by
    the n^2 sweep of form_value(theta2) over (u, v)."""
    n = gb.n
    th2 = nested(theta_p(gb.space, 2))
    pairs, pair_index, _ = liecoh._lambda2_module(gb)
    data = {}
    for j, w in enumerate(gb.nplus_order):
        phi_tensor = {}
        for a in range(n):
            for b in range(n):
                add_into(phi_tensor, 1, {(((a,), (b,)), t): x
                                         for t, x in form_value(th2, [j, a], [b]).items()})
        phi_w = InvariantVectorForm(gb.space, 1, 1, _Terms(phi_tensor))
        for ((i, k), (v1, v2)), vec in nested(barwedge_inv(theta, phi_w)).items():
            add_into(data, 1, {((v1, v2, w), pair_index[(i, k)] * n + u): x
                               for u, x in vec.items()})
    return Cochain(gb, 2, _Terms(data), len(pairs) * n)


def _assert_same_cochain(got, want):
    assert got == want
    assert all(type(x) is type(want.data[coord]) for coord, x in got.entries())
    assert all(isinstance(x, QSqrt2) or is_canonical(x) for _, x in got.entries())


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_stored_entry_reads_match_the_value_sweeps(name):
    """Every `invforms.theta_basis` form, and on Gr(5,2) one theta with
    QSqrt2 entries."""
    gb = build_g_basis(space_from_preset(name))
    forms = list(theta_basis(gb.space))
    if name == "Gr(5,2)":
        forms.append(theta_form(gb, QSqrt2(Fraction(1, 2), 1), QSqrt2(-2, Fraction(3, 2))))
        assert any(isinstance(x, QSqrt2) for _, x in forms[-1].entries())
    for theta in forms:
        _assert_same_cochain(cochain_from_form(gb, theta), ref_cochain_from_form(gb, theta))
        _assert_same_cochain(two_cochain_from_d2_image(gb, theta),
                             ref_two_cochain_from_d2_image(gb, theta))


def test_theta_form_on_the_projective_spaces_is_a_multiple_of_theta2():
    """eta = theta2 when r = 1 and eta = -theta2 when s = 1, and theta_form
    sums `invforms.theta_basis` at `invforms.theta_coordinates`, which fold
    b into a there; b = 0 gives a theta2, and b != 0 is refused where eta
    is undefined."""
    rng = random.Random(18)
    for H, sign in ((build_space(SimpleLieType("A", 2), 0), 1),
                    (space_from_preset("CP2"), -1)):
        gb = build_g_basis(H)
        assert (gb.space.r, gb.space.s) == ((1, 2) if sign == 1 else (2, 1))
        th2 = theta_p(gb.space, 2)
        for _ in range(10):
            a, b = (QSqrt2(Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                           rng.randint(-2, 2)) for _ in range(2))
            assert theta_form(gb, a, b).tensor == th2.scale(a + b * sign).tensor
        assert theta_form(gb, 1, -sign).is_zero()
    gr42 = build_g_basis(space_from_preset("Gr(4,2)"))
    assert theta_form(gr42, 2, 0).tensor == theta_p(gr42.space, 2).scale(2).tensor
    q3 = build_g_basis(space_from_preset("Q3"))
    assert theta_form(q3, 1, 0).tensor == theta_p(q3.space, 2).tensor
    with pytest.raises(ValueError):
        theta_form(q3, 1, 1)


# ---------------------------------------------------------------------------
# The theta families against the per-(a, b) solves
# ---------------------------------------------------------------------------

GOLDEN_THETAS = sorted({  # (space, a, b) of every golden d2 and e3 query that exits 0
    (argv[2], argv[4], argv[6]) for key, rec in json.loads(
        (Path(__file__).resolve().parent / "golden" / "queries.json").read_text(
            encoding="utf-8")).items()
    for argv in [key.split(" ")]
    if argv[0] in ("d2", "e3") and argv[1::2] == ["--space", "--a", "--b"] and rec["rc"] == 0})


def per_parameter_route(H, a, b):
    """Reference: rank, witness and adjoint verdict of theta = a theta2 +
    b eta from c_theta and its d2-image family built at (a, b) and solved
    on their own."""
    gb = build_g_basis(H)
    theta = theta_form(gb, a, b)
    res = is_invariant_coboundary(cochain_from_form(gb, theta))
    adjoint = two_cochain_is_coboundary(gb, two_cochain_from_d2_image(gb, theta))
    return 0 if res.is_coboundary else gb.dim, res.witness, adjoint


def _random_parameters(rng, eta_defined):
    def scalar():
        return QSqrt2(Fraction(rng.randint(-3, 3), rng.randint(1, 2)), rng.randint(-2, 2))
    return [(scalar(), scalar() if eta_defined else 0) for _ in range(20)]


@pytest.mark.parametrize("name", ["Gr(4,2)", "Gr(5,2)", "Gr(5,3)", "CP2", "Q3", "LG3"])
def test_theta_family_reads_match_the_per_parameter_solves(name):
    """At every (a, b) of the golden spectral queries on the space and at 20
    random (a, b) in Q(sqrt2)^2 (b = 0 off the Grassmannians; on CP2 b folds
    into a through `invforms.theta_coordinates`), the reads of the theta
    families give the rank, the witness values and the adjoint verdict of
    the per-(a, b) solves."""
    H = space_from_preset(name)
    params = []
    for space, a, b in GOLDEN_THETAS:
        if space == name:
            a, b = parse_scalar(a), parse_scalar(b)
            spectral.theta_for(H, a, b)
            params.append((a, b))
    assert params
    rng = random.Random(f"theta-family/{name}")
    params += _random_parameters(rng, grassmannian_rs(H) is not None)
    for a, b in params:
        rank, res = liecoh.d2_on_vector_fields(H, a, b)
        want_rank, want_witness, want_adjoint = per_parameter_route(H, a, b)
        assert rank == want_rank and res.is_coboundary == (rank == 0), (a, b)
        if want_witness is None:
            assert res.witness is None, (a, b)
        else:
            assert res.witness.data == want_witness.data, (a, b)
        assert liecoh.d2_vanishes_on_adjoint_at_01(H, a, b) == want_adjoint, (a, b)


def test_theta_family_targets_are_the_theta_basis(monkeypatch):
    """Each theta family is reduced against one cochain per form of
    `invforms.theta_basis`: theta2 alone on CP^n, where eta = +-theta2, and
    theta2 and eta on Gr(4,2)."""
    seen = []
    reduce = liecoh.reduce_targets
    monkeypatch.setattr(liecoh, "reduce_targets", lambda rows, n, targets: (
        seen.append(len(targets)) or reduce(rows, n, targets)))
    spaces = [build_space(SimpleLieType("A", 2), 0)] + [
        space_from_preset(name) for name in ("CP2", "CP3", "Gr(4,2)")]
    for H in spaces:
        for degree in (1, 2):
            liecoh._theta_family.__wrapped__(build_g_basis(H), degree)
    assert seen == [1, 1, 1, 1, 1, 1, 2, 2]


DEGREE_2_CONDITION = ("Gr(5,2)", "Gr(5,3)", "Gr(6,3)", "LG3")


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_theta_family_loci(name):
    """Computed loci in (a : b): c_theta is a coboundary (d2 vanishes on the
    vector fields) exactly when a = 0, except on CP2 and CP3, where always;
    the d2-image family is one exactly when a = 0 on Gr(5,2), Gr(5,3),
    Gr(6,3) and LG3, and always elsewhere.  Each is one condition row
    {theta2: 1}."""
    H = space_from_preset(name)
    gb = build_g_basis(H)
    conditions = [liecoh._theta_family(gb, degree)[0] for degree in (1, 2)]
    assert conditions[0] == ([] if name in ("CP2", "CP3") else [{0: 1}])
    assert conditions[1] == ([{0: 1}] if name in DEGREE_2_CONDITION else [])
    rng = random.Random(f"locus/{name}")
    for a, b in _random_parameters(rng, isinstance(gb.space, liecoh.MatrixPairSpace)):
        assert (liecoh.d2_rank_on_vector_fields(H, a, b) == 0) == (
            name in ("CP2", "CP3") or not a), (a, b)
        assert liecoh.d2_vanishes_on_adjoint_at_01(H, a, b) == (
            name not in DEGREE_2_CONDITION or not a), (a, b)


def test_eta_is_refused_where_it_is_undefined():
    with pytest.raises(ValueError, match="eta undefined"):
        liecoh.d2_on_vector_fields(space_from_preset("Q3"), 0, 1)
    with pytest.raises(ValueError, match="eta undefined"):
        liecoh.d2_vanishes_on_adjoint_at_01(space_from_preset("LG3"), 1, 1)
