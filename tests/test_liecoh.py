import itertools
import json
import random
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import pytest
from canonical import is_canonical
from subset_route import dual, trivial_multiplicity

from flagcoh import liecoh, spectral
from flagcoh.bott import PRESET_NAMES, build_space, grassmannian_rs, space_from_preset
from flagcoh.invforms import _add_into, barwedge_inv, eta, eta1, eta2, eta3, theta_p
from flagcoh.liecoh import (
    Cochain,
    GModuleBasis,
    _accumulate,
    _cochain_system,
    _commutator,
    _delta,
    _differential,
    _entries,
    _invariant_zero,
    _span_solve,
    build_g_basis,
    ce_differential,
    cochain_from_form,
    d2_rank_on_vector_fields,
    invariant_one_cochains,
    invariant_zero_cochains,
    is_invariant_coboundary,
    theta_form,
    two_cochain_from_d2_image,
    two_cochain_is_coboundary,
)
from flagcoh.repdecomp import char_of_roots, tensor
from flagcoh.rootsys import SimpleLieType
from flagcoh.scalars import QS_ONE, QS_ZERO, QSqrt2, nullspace, parse_scalar, rank

MATRIX_PRESETS = ["CP2", "CP3", "Q3", "Q5", "Gr(4,2)", "Gr(5,2)", "Gr(5,3)",
                  "Gr(6,3)", "LG3", "S-D4"]
GRASSMANN_PRESETS = ["CP2", "CP3", "Gr(4,2)", "Gr(5,2)", "Gr(5,3)", "Gr(6,3)"]


@pytest.fixture(scope="module")
def gr42():
    return build_g_basis(space_from_preset("Gr(4,2)"))


def value(c: Cochain, key) -> list:
    """The value of c at key as a dense list of module_dim scalars."""
    vec = c.data.get(key, {})
    return [vec.get(t, Fraction(0)) for t in range(c.module_dim)]


def is_r_invariant(c: Cochain) -> bool:
    """Oracle: x . c = 0 for every x in r, for a 1-cochain c: c has weight
    zero (the torus) and satisfies the equivariant system (the raising
    generators)."""
    if c.degree != 1:
        raise ValueError("R-invariance test implemented for 1-cochains")
    unknowns, rows = _cochain_system(c.gb, 1)
    index = {u: k for k, u in enumerate(unknowns)}
    coords = {}
    for (v, w), vec in c.data.items():
        for t, x in vec.items():
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


def ref_expand(gb, X):
    """Oracle: the coordinates of X by a scan over all dim g elements, each
    read at its canonical cell (cumulative diagonal sums for the A-family
    torus), checked by rebuilding X."""
    out = {}
    fam_a_torus = gb.H.rd.type.family == "A"
    acc = Fraction(0)
    for g, el in enumerate(gb.elements):
        pos = el.canonical
        if el.block == "t" and fam_a_torus:
            acc += X.get(pos, Fraction(0))
            c = acc
        else:
            c = X.get(pos, Fraction(0)) / el.matrix[pos]
        if c:
            out[g] = c
    rec = {}
    for g, c in out.items():
        _add_into(rec, c, gb.elements[g].matrix)
    assert rec == {k: v for k, v in X.items() if v}
    return out


def ref_nplus_coords(gb, X):
    """Oracle: the n+ coordinates of X, as n+ index -> coefficient."""
    coords = ref_expand(gb, X)
    return {u: coords[g] for u, g in enumerate(gb.nplus_order) if g in coords}


@pytest.mark.parametrize("name", MATRIX_PRESETS)
def test_bracket_coords_memo_matches_fresh_expansion(name):
    gb = build_g_basis(space_from_preset(name))
    for i, ei in enumerate(gb.elements):
        for j, ej in enumerate(gb.elements):
            coords = gb.bracket_coords(i, j)
            assert coords == ref_expand(gb, _commutator(ei.matrix, ej.matrix))
            assert gb.bracket_coords(i, j) is coords
            assert {g: -c for g, c in gb.bracket_coords(j, i).items()} == coords
    with pytest.raises(TypeError):
        coords[0] = Fraction(1)


@pytest.mark.parametrize("name", MATRIX_PRESETS)
def test_coefficients_are_canonical(name):
    """Every basis-matrix entry, bracket coordinate, delta coefficient and
    invariant-cochain value is an int when integral, a Fraction otherwise."""
    gb = build_g_basis(space_from_preset(name))
    values = [c for el in gb.elements for c in el.matrix.values()]
    values += [c for i in range(gb.dim) for j in range(gb.dim)
               for c in gb.bracket_coords(i, j).values()]
    values += [co for k in (0, 1) for feeds in _delta(gb, k).values() for _, co in feeds]
    values += [x for basis in (invariant_zero_cochains(gb), invariant_one_cochains(gb))
               for c in basis for vec in c.data.values() for x in vec.values()]
    assert values and all(is_canonical(x) for x in values)


def _bracket_vec(gb, x, y):
    """[x, y] for coordinate vectors x, y, through bracket_coords."""
    out = {}
    for i, a in x.items():
        for j, b in y.items():
            _add_into(out, a * b, gb.bracket_coords(i, j))
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
            _add_into(total, 1, _bracket_vec(gb, a, _bracket_vec(gb, b, c)))
        assert total == {}


def test_projection_structure():
    for name in MATRIX_PRESETS:
        gb = build_g_basis(space_from_preset(name))
        # every basis matrix expands to its own unit vector
        for g, el in enumerate(gb.elements):
            assert gb.expand(el.matrix) == {g: Fraction(1)}
        # pi is the identity on n+, zero on r and n-; so pi(e_w) is the
        # unit vector at w's position in nplus_order
        assert sorted(gb.nplus_order) == [g for g, el in enumerate(gb.elements)
                                          if el.block == "n+"]
        for k, idx in enumerate(gb.nplus_order):
            coords = ref_nplus_coords(gb, gb.elements[idx].matrix)
            assert coords == {k: Fraction(1)}
        for idx, el in enumerate(gb.elements):
            if el.block in ("r", "t", "n-"):
                assert not any(ref_nplus_coords(gb, el.matrix).values())


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
        pw = ref_nplus_coords(gb, gb.elements[w].matrix)
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


def _cochain_rank(cochains: Sequence[Cochain]) -> int:
    return len(_span_solve([_entries(c) for c in cochains])[1])


def h1_invariant_dimension(gb: GModuleBasis) -> int:
    """dim H^1(n-, Hom(g, n- (x) n+))^R = invariant cocycles modulo the
    differentials of invariant 0-cochains (delta commutes with R)."""
    ones = invariant_one_cochains(gb)
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
        neg = tuple(-c for c in gb.elements[x].eps_weight)
        out.append(next(k for k, el in enumerate(gb.elements)
                        if el.block == "r" and el.eps_weight == neg))
    return out


def _ref_module_nminus_nplus(gb):
    n = gb.n

    def wsum(a, b):
        return tuple(x + y for x, y in zip(a, b))

    weights = [wsum(gb.elements[gb.nminus_order[v]].eps_weight,
                    gb.elements[gb.nplus_order[u]].eps_weight)
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
    g_weights = [el.eps_weight for el in gb.elements]
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
                w, t = unknowns[k]
                arr = data.setdefault(w, [QS_ZERO] * (n * n))
                arr[t] = arr[t] + QSqrt2(c)
        out.append(Cochain(gb, 0, data))
    return out


def ref_invariant_one_cochains(gb):
    n, dim_g = gb.n, gb.dim
    e_weights, e_act = _ref_module_nminus_nplus(gb)
    v_weights = [tuple(a + b for a, b in zip(
        gb.elements[gb.nminus_order[v]].eps_weight, gb.elements[w].eps_weight))
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
                arr = data.setdefault(divmod(k, dim_g), [QS_ZERO] * (n * n))
                arr[t] = arr[t] + QSqrt2(c)
        out.append(Cochain(gb, 1, data))
    return out


def ref_two_differential(c):
    gb = c.gb
    n, dim_g, md = gb.n, gb.dim, c.module_dim
    out = {}
    for v1 in range(n):
        for v2 in range(v1 + 1, n):
            for v3 in range(v2 + 1, n):
                for w in range(dim_g):
                    acc = [QS_ZERO] * md
                    for (va, pair, sgn) in (
                        (v1, (v2, v3), 1), (v2, (v1, v3), -1), (v3, (v1, v2), 1)
                    ):
                        for gi, co in gb.bracket_coords(
                                gb.nminus_order[va], w).items():
                            val = c.data.get(pair + (gi,), {})
                            for t, x in val.items():
                                acc[t] = acc[t] + x * QSqrt2(sgn * co)
                    if any(acc):
                        out[(v1, v2, v3, w)] = acc
    return Cochain(gb, 3, out, c.mdim)


@pytest.mark.parametrize("name", MATRIX_PRESETS)
def test_invariant_bases_match_reference_solves(name):
    gb = build_g_basis(space_from_preset(name))
    for got, want in ((invariant_zero_cochains(gb), ref_invariant_zero_cochains(gb)),
                      (invariant_one_cochains(gb), ref_invariant_one_cochains(gb))):
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
                         (invariant_one_cochains(gb), tensor(chi_nminus, chi_g))):
        assert len(basis) == trivial_multiplicity(H.levi, tensor(dual(chi_v), chi_e))


def _random_cochain(gb, degree, rng):
    data = {}
    for vs in itertools.combinations(range(gb.n), degree):
        for w in range(gb.dim):
            if rng.random() < 0.3:
                data[vs + (w,)] = [QSqrt2(rng.randint(-2, 2), rng.randint(-1, 1))
                                   for _ in range(gb.n * gb.n)]
    return Cochain(gb, degree, data)


@pytest.mark.parametrize("name", ["Gr(4,2)", "Q5", "Gr(5,3)"])
def test_delta_squared_zero_through_degree_3(name):
    gb = build_g_basis(space_from_preset(name))
    rng = random.Random(name)
    for _ in range(3):
        c1 = _random_cochain(gb, 1, rng)
        d1 = ce_differential(c1)
        assert not d1.is_zero()
        assert _differential(d1).is_zero()
        c2 = _random_cochain(gb, 2, rng)
        d2 = _differential(c2)
        assert d2.degree == 3 and d2.data == ref_two_differential(c2).data
        assert _differential(d2).is_zero()


def test_is_r_invariant_rejects_non_invariant_cochains(gr42):
    gb = gr42
    n = gb.n
    e_weights, _ = _ref_module_nminus_nplus(gb)

    def weight(v, w, t):
        return (tuple(a + b for a, b in zip(gb.elements[gb.nminus_order[v]].eps_weight,
                                            gb.elements[w].eps_weight)), e_weights[t])

    def single(v, w, t):
        vec = [QS_ZERO] * (n * n)
        vec[t] = QS_ONE
        return Cochain(gb, 1, {(v, w): vec})

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
        is_r_invariant(Cochain(gb, 0, {}))


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
        assert not any(isinstance(c, QSqrt2)
                       for vec in f.tensor.values() for c in vec.values()), f.p
    c = cochain_from_form(gb, theta_form(gb, QSqrt2(0), QSqrt2(1)))
    assert not c.is_zero()
    assert not any(isinstance(x, QSqrt2)
                   for vec in c.data.values() for x in vec.values())


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
    out = {}
    for key, terms in _ref_delta_terms(c.gb, c.degree):
        for src, co in terms:
            if src in c.data:
                _accumulate(out, key, co, c.data[src])
    return Cochain(c.gb, c.degree + 1, out, c.mdim)


def _random_sparse_cochain(gb, degree, rng, scalar):
    """A random k-cochain with a few nonzero entries per key, plus one key
    (w = dim g) that no key of the pattern reads."""
    keys = [vs + (w,) if vs else w
            for vs in itertools.combinations(range(gb.n), degree)
            for w in range(gb.dim + 1) if w == gb.dim or rng.random() < 0.3]
    data = {}
    for key in keys:
        vec = {t: scalar(rng) for t in rng.sample(range(gb.n * gb.n), 3)}
        data[key] = {t: x for t, x in vec.items() if x}
    return Cochain(gb, degree, data)


SCALARS = {
    "fraction": lambda rng: Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
    "qsqrt2": lambda rng: QSqrt2(Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                                 rng.randint(-2, 2)),
}


@pytest.mark.parametrize("field", sorted(SCALARS))
@pytest.mark.parametrize("name", ["Gr(4,2)", "Q5", "LG3", "Gr(5,3)"])
def test_differential_matches_the_whole_pattern_scan(name, field):
    gb = build_g_basis(space_from_preset(name))
    rng = random.Random(f"{name}-{field}")
    for degree in range(4):
        c = _random_sparse_cochain(gb, degree, rng, SCALARS[field])
        outside = (tuple(range(degree)) + (gb.dim,)) if degree else gb.dim
        assert outside in c.data and outside not in _delta(gb, degree)
        got = _differential(c)
        assert got.degree == degree + 1 and not got.is_zero()
        assert got.data == _ref_differential(c).data


def test_delta_is_built_once_per_basis_and_degree(monkeypatch):
    """A d2 query and the e3 query after it on the same space build each
    degree's map once, and the e3 query reads the d2 query's map."""
    liecoh._g_basis.cache_clear()
    calls = []
    delta = liecoh._delta

    def spy(gb, k):
        misses = delta.cache_info().misses
        out = delta(gb, k)
        calls.append((id(gb), k, delta.cache_info().misses == misses))
        return out

    monkeypatch.setattr(liecoh, "_delta", spy)
    H = space_from_preset("Gr(5,2)")
    assert liecoh.d2_on_vector_fields(H, 0, 1)[0] == 0
    gb = build_g_basis(H)
    after_d2 = {k: delta(gb, k) for _, k, _ in calls}
    assert set(after_d2) == {0, 1}
    n_d2 = len(calls)
    spectral.cohomology_of_T(H, spectral.theta_for(H, 0, 1))
    assert {k for _, k, cached in calls[n_d2:]} == {1, 2}
    assert {id(gb)} == {g for g, _, _ in calls}
    built = [k for _, k, cached in calls if not cached]
    assert sorted(built) == [0, 1, 2]
    assert all(delta(gb, k) is m for k, m in after_d2.items())


def test_spaces_and_bases_are_built_once():
    """One space per normalised preset name, and one basis per simple type
    and alpha0: a new, equal space finds the cached basis."""
    H = space_from_preset("Gr(6,3)")
    assert space_from_preset(" Gr (6,3)") is H
    fresh = build_space.__wrapped__(H.rd.type, H.alpha0)
    assert fresh == H and fresh is not H
    assert build_g_basis(fresh) is build_g_basis(H)


def test_simple_roots_are_built_once_per_family_and_rank():
    simple = liecoh._simple_roots_eps
    for name in MATRIX_PRESETS:
        H = space_from_preset(name)
        simple.cache_clear()
        liecoh._g_basis.__wrapped__(H.rd.type, H.alpha0)
        info = simple.cache_info()
        assert (info.misses, info.currsize) == (1, 1) and info.hits > 0
        roots = simple(H.rd.type.family, H.rd.rank)
        assert type(roots) is tuple and len(roots) == H.rd.rank


def test_cochains_on_different_bases_do_not_mix():
    g52, g53 = (build_g_basis(space_from_preset(name)) for name in ("Gr(5,2)", "Gr(5,3)"))
    assert g52.n == g53.n
    a, b = (cochain_from_form(gb, theta_form(gb, 1, 0)) for gb in (g52, g53))
    assert (a - a).is_zero()
    for op in (lambda: a + b, lambda: a - b, lambda: b + a, lambda: b - a):
        with pytest.raises(ValueError, match="different bases"):
            op()


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

GOLDEN_SPECTRAL = json.loads(
    (Path(__file__).resolve().parent / "golden" / "spectral.json").read_text(encoding="utf-8"))


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
    for key in GOLDEN_SPECTRAL:
        _, space, a, b = key.split(" ")
        if space == name:
            theta = spectral.theta_for(H, parse_scalar(a), parse_scalar(b))
            params.append((theta.a, theta.b))
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
