import random
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagcoh import repdecomp
from flagcoh.bott import DESK_PRESETS, build_space, space_from_preset
from flagcoh.repdecomp import (
    InvariantCharacter,
    LeviDatum,
    char_of_roots,
    decompose,
    exterior_power,
    irreducible_character,
    tensor,
    trivial_character,
)
from flagcoh.rootsys import SimpleLieType, root_system
from subset_route import dual, reflect_simple, trivial_multiplicity


# ---------------------------------------------------------------------------
# Kostant-partition oracle for Levi irreducible characters (rank(S) <= 3)
# ---------------------------------------------------------------------------

def _levi_weyl_group(L):
    """All Weyl elements of the Levi as (matrix action memo, sign)."""
    rd = L.rd
    idgen = tuple(tuple(1 if j == i else 0 for j in range(rd.rank)) for i in range(rd.rank))

    def act(mat, v):
        return tuple(sum(mat[i][j] * v[j] for j in range(rd.rank)) for i in range(rd.rank))

    def refl_matrix(i):
        cols = []
        for j in range(rd.rank):
            e = tuple(1 if k == j else 0 for k in range(rd.rank))
            cols.append(reflect_simple(rd, e, i))
        return tuple(tuple(int(cols[j][i2]) for j in range(rd.rank)) for i2 in range(rd.rank))

    gens = [refl_matrix(i) for i in L.S]
    seen = {idgen: 1}
    frontier = [idgen]
    while frontier:
        new = []
        for m in frontier:
            for g in gens:
                prod = tuple(
                    tuple(sum(g[i][k] * m[k][j] for k in range(rd.rank))
                          for j in range(rd.rank))
                    for i in range(rd.rank)
                )
                if prod not in seen:
                    seen[prod] = -seen[m]
                    new.append(prod)
        frontier = new
    return [(m, s) for m, s in seen.items()]


def _kostant_partition_count(target, pos_roots, memo):
    """Number of ways to write target as a nonneg combination of pos_roots."""
    key = target
    if key in memo:
        return memo[key]
    if all(c == 0 for c in target):
        return 1
    if any(c < 0 for c in target):
        return 0
    # recurse on the first root deterministically to avoid double counting
    first, rest = pos_roots[0], pos_roots[1:]
    total = 0
    t = target
    while all(c >= 0 for c in t):
        if rest:
            total += _kostant_partition_count(t, rest, memo.setdefault(rest, {})) \
                if isinstance(memo, dict) and False else _kp(t, rest)
        else:
            total += 1 if all(c == 0 for c in t) else 0
        t = tuple(a - b for a, b in zip(t, first))
    memo[key] = total
    return total


def _kp(target, roots):
    if all(c == 0 for c in target):
        return 1
    if not roots or any(c < 0 for c in target):
        return 0
    first, rest = roots[0], roots[1:]
    total = 0
    t = target
    while all(c >= 0 for c in t):
        total += _kp(t, rest)
        t = tuple(a - b for a, b in zip(t, first))
    return total


def kostant_multiplicity(L, lam, mu):
    """Oracle: mult of mu in L(lam) = sum_w (-1)^l(w) P(w(lam+rho)-(mu+rho))."""
    rd = L.rd
    pos = tuple(tuple(int(c) for c in r) for r in L.levi_positive_roots())
    rho = tuple(Fraction(c, 2) for c in L.two_rho)
    total = 0
    for mat, sign in _levi_weyl_group(L):
        lam_rho = tuple(Fraction(a) + b for a, b in zip(lam, rho))
        w_lam_rho = tuple(
            sum(mat[i][j] * lam_rho[j] for j in range(rd.rank)) for i in range(rd.rank)
        )
        tgt = tuple(w_lam_rho[i] - Fraction(mu[i]) - rho[i] for i in range(rd.rank))
        if any(t.denominator != 1 for t in tgt):
            continue
        total += sign * _kp(tuple(int(t) for t in tgt), pos)
    return total


# ---------------------------------------------------------------------------
# Peeling oracle: decomposition by subtracting Freudenthal characters
# ---------------------------------------------------------------------------

def peel_decompose(L, chi):
    """Repeatedly take the (height, lex)-maximal S-dominant weight of chi and
    subtract its Freudenthal character; ValueError when a multiplicity goes
    negative or no S-dominant weight is left."""
    work = dict(chi)
    out = []
    while work:
        cands = [w for w in work if L.is_S_dominant(w)]
        if not cands:
            raise ValueError("no S-dominant weight left; not an R-module character")
        best_h = max(sum(w) for w in cands)
        top = max(w for w in cands if sum(w) == best_h)
        k = work[top]
        for w, m in irreducible_character(L, top).items():
            cur = work.get(w, 0) - k * m
            if cur < 0:
                raise ValueError("not an R-module character (negative multiplicity)")
            if cur:
                work[w] = cur
            else:
                work.pop(w, None)
        out.append((top, k))
    out.sort(key=lambda t: (-sum(t[0]), tuple(-c for c in t[0])))
    return out


def _table_and_invariant_cells(H):
    """((p, q), character) for every character that cohomology_omega_p_theta
    (p <= 4) and invariant_dimension at (2,1), (3,2), (4,3) decompose; (p, q)
    is that of wedge^p n- (x) wedge^q n+ (x) n+, with q = 0 for the columns
    n+ (x) wedge^p n- of the table."""
    chi_n = H.n_plus_character()
    for p in range(min(4, H.dim) + 1):
        yield (p, 0), tensor(chi_n, exterior_power(dual(chi_n), p))
    for p, q in ((2, 1), (3, 2), (4, 3)):
        if p <= H.dim and q <= H.dim:
            yield (p, q), tensor(tensor(exterior_power(dual(chi_n), p),
                                        exterior_power(chi_n, q)), chi_n)


@pytest.mark.parametrize("name", DESK_PRESETS + ("Gr(5,3)",))
def test_fold_matches_peeling_on_presets(name):
    H = space_from_preset(name)
    for (p, q), chi in _table_and_invariant_cells(H):
        if name == "Gr(6,3)" and p + q > 4:
            continue  # the peeling oracle takes seconds per cell beyond this
        assert decompose(H.levi, chi) == peel_decompose(H.levi, chi), (p, q)


# ---------------------------------------------------------------------------


def test_char_of_roots_gr42():
    H = space_from_preset("Gr(4,2)")
    chi = H.n_plus_character()
    assert sum(chi.values()) == 4
    assert set(chi) == {(0, 1, 0), (1, 1, 0), (0, 1, 1), (1, 1, 1)}
    assert all(m == 1 for m in chi.values())


def test_char_of_roots_cp2_and_empty():
    H = space_from_preset("CP2")
    assert sum(H.n_plus_character().values()) == 2
    assert char_of_roots([]) == {}


def test_exterior_power_basics():
    H = space_from_preset("Gr(4,2)")
    chi = H.n_plus_character()
    assert exterior_power(chi, 0) == trivial_character(3)
    e2 = exterior_power(chi, 2)
    assert sum(e2.values()) == 6
    assert exterior_power(chi, 5) == {}
    with pytest.raises(ValueError):
        exterior_power(chi, -1)


def test_exterior_newton_agrees_with_subsets():
    """The subset route satisfies Newton's identity
    p e_p = sum_{j=1..p} (-1)^(j-1) e_{p-j} psi_j, with psi_j scaling every
    weight by j, with and without multiplicities, and gives
    wedge^2(V + V) = 2 wedge^2 V + V (x) V."""
    H = space_from_preset("Gr(5,2)")
    chi = H.n_plus_character()
    chi2 = {w: 2 * m for w, m in chi.items()}  # chi + chi

    def add(*terms):
        out = {}
        for k, c in terms:
            for w, m in c.items():
                out[w] = out.get(w, 0) + k * m
        return {w: m for w, m in out.items() if m}

    assert exterior_power(chi, 0) == exterior_power(chi2, 0) == trivial_character(4)
    for c in (chi, chi2):
        def psi(j):
            return {tuple(j * x for x in w): m for w, m in c.items()}

        for p in range(1, 4):
            rhs = add(*[((-1) ** (j - 1), tensor(exterior_power(c, p - j), psi(j)))
                        for j in range(1, p + 1)])
            assert add((p, exterior_power(c, p))) == rhs
    e2 = exterior_power(chi, 2)
    got = exterior_power(chi2, 2)
    assert got == add((2, e2), (1, tensor(chi, chi)))
    assert sum(got.values()) == 12 * 11 // 2


def test_tensor_dual():
    H = space_from_preset("Gr(4,2)")
    chi = H.n_plus_character()
    assert tensor(chi, trivial_character(3)) == chi
    assert dual(dual(chi)) == chi
    assert dual(chi) == char_of_roots(
        [tuple(-c for c in w) for w in chi]
    )
    ch2 = tensor(chi, dual(chi))
    assert sum(ch2.values()) == 16


def test_irreducible_character_trivial_and_sl2():
    a2 = root_system("A2")
    L = LeviDatum(a2, (0,))
    assert irreducible_character(L, (0, 0)) == {(0, 0): 1}
    # <Lam, alpha_0> = 1: Lam = alpha_0/... use Lam with pairing 1: (1,0):
    # <(1,0),a0> = 2 - 0 = 2; use (1,1): <(1,1),a0> = 2-1 = 1
    ch = irreducible_character(L, (1, 1))
    assert sum(ch.values()) == 2
    assert ch == {(1, 1): 1, (0, 1): 1}


def test_irreducible_character_a2_adjoint():
    a3 = root_system("A3")
    L = LeviDatum(a3, (0, 1))
    delta_s = (1, 1, 0)  # highest root of the A2 Levi
    ch = irreducible_character(L, delta_s)
    assert sum(ch.values()) == 8
    assert ch[(0, 0, 0)] == 2


@pytest.mark.parametrize("S", [(0,), (0, 1), (1, 2), (0, 2)])
def test_freudenthal_vs_kostant_a3(S):
    rd = root_system("A3")
    L = LeviDatum(rd, S)
    rng = random.Random(7 + len(S))
    tried = 0
    while tried < 4:
        lam = tuple(rng.randint(0, 2) for _ in range(3))
        if not L.is_S_dominant(lam):
            continue
        tried += 1
        ch = irreducible_character(L, lam)
        for mu, m in ch.items():
            assert m == kostant_multiplicity(L, lam, mu)
        # and a couple of non-weights give 0
        probe = tuple(c - 1 for c in lam)
        if probe not in ch:
            assert kostant_multiplicity(L, lam, probe) == 0


def test_freudenthal_vs_kostant_b3_levi():
    rd = root_system("B3")
    L = LeviDatum(rd, (1, 2))  # B2 Levi
    lam = (0, 1, 1)
    assert L.is_S_dominant(lam)
    ch = irreducible_character(L, lam)
    for mu, m in ch.items():
        assert m == kostant_multiplicity(L, lam, mu)


def test_decompose_round_trip_and_examples():
    H = space_from_preset("Gr(4,2)")
    L = H.levi
    chi = H.n_plus_character()
    # wedge^2 n+ has two components in case II
    comps = decompose(L, exterior_power(chi, 2))
    assert sum(m for _, m in comps) == 2
    # case I and III: irreducible
    for name in ("Q3", "CP2"):
        Hc = space_from_preset(name)
        comps_c = decompose(Hc.levi, exterior_power(Hc.n_plus_character(), 2))
        assert sum(m for _, m in comps_c) == 1
    # round trip on a single irreducible
    lam = comps[0][0]
    assert decompose(L, irreducible_character(L, lam)) == [(lam, 1)]


def test_decompose_dimension_bookkeeping():
    H = space_from_preset("Gr(5,2)")
    L = H.levi
    chi_n = H.n_plus_character()
    chi = tensor(chi_n, exterior_power(dual(chi_n), 2))
    comps = decompose(L, chi)
    total = sum(sum(irreducible_character(L, w).values()) * m for w, m in comps)
    assert total == sum(chi.values())
    for w, m in comps:
        assert chi.get(w, 0) >= m


def test_decompose_rejects_non_module():
    rd = root_system("A2")
    L = LeviDatum(rd, (0,))
    # a bare non-extreme weight multiset is not W(S)-symmetric
    with pytest.raises(ValueError, match="not W_S-invariant"):
        decompose(L, {(1, 1): 1, (1, 0): 2})


def test_a_character_that_is_not_invariant_is_refused_with_one_message():
    """By the checked character's constructor, by `decompose` on a plain
    dict and on another mapping, and by `decompose` on a character checked
    for another Levi datum."""
    rd = root_system("A2")
    L, other = LeviDatum(rd, (0,)), LeviDatum(rd, (1,))
    bad = {(1, 1): 1, (1, 0): 2}
    message = r"^not an R-module character \(not W_S-invariant at \(1, 1\)\)$"
    for refuse in (lambda: InvariantCharacter(L, bad), lambda: decompose(L, bad),
                   lambda: decompose(L, MappingProxyType(bad))):
        with pytest.raises(ValueError, match=message):
            refuse()
    # (2, 1) is fixed by s_1 and moved by s_0
    checked = InvariantCharacter(other, {(2, 1): 1})
    assert decompose(other, checked) == [((2, 1), 1)]
    with pytest.raises(ValueError, match=r"^not an R-module .* at \(2, 1\)\)$"):
        decompose(L, checked)


def test_a_space_checks_its_n_plus_character_once(monkeypatch):
    """Every fold of a fresh space reads one read-only n+ character, checked
    when it was built; a plain dict of it is still checked."""
    calls = []
    check = repdecomp._check_invariant
    monkeypatch.setattr(repdecomp, "_check_invariant",
                        lambda L, chi: calls.append(type(chi)) or check(L, chi))
    H = build_space.__wrapped__(SimpleLieType("B", 3), 0)
    chi = H.n_plus_character()
    assert H.n_plus_character() is chi and chi == char_of_roots(H.N_plus)
    assert type(chi) is InvariantCharacter and chi.levi is H.levi and calls == [dict]
    for weights in H.kostant_weights:
        for a in weights:
            assert H.fold(a) == tuple(decompose(H.levi, dict(chi), a))
    assert calls == [dict] * (1 + sum(map(len, H.kostant_weights)))
    with pytest.raises(TypeError):
        chi[H.N_plus[0]] = 2
    assert chi == char_of_roots(H.N_plus)


def test_decompose_rejects_invariant_virtual_character():
    """{alpha, -alpha} is W_S-invariant but equals V(alpha) - V(0)."""
    rd = root_system("A2")
    L = LeviDatum(rd, (0,))
    chi = {(1, 0): 1, (-1, 0): 1}
    with pytest.raises(ValueError, match="multiplicity -1"):
        decompose(L, chi)
    with pytest.raises(ValueError):
        peel_decompose(L, chi)
    # adding the missing zero weight makes it the adjoint of sl2
    assert decompose(L, {**chi, (0, 0): 1}) == [((1, 0), 1)]


def test_decompose_of_empty_and_negative_characters():
    L = LeviDatum(root_system("A2"), (0,))
    assert decompose(L, {}) == []
    with pytest.raises(ValueError):
        decompose(L, {(0, 0): -1})


def test_trivial_multiplicity_examples():
    H = space_from_preset("Gr(4,2)")
    L = H.levi
    assert trivial_multiplicity(L, trivial_character(3)) == 1
    chi_n = H.n_plus_character()
    # (wedge^2 n- (x) n+ (x) n+)^R = C^2 in case II
    chi = tensor(tensor(exterior_power(dual(chi_n), 2), chi_n), chi_n)
    assert trivial_multiplicity(L, chi) == 2
    # (n- (x) n+)^R = <id>
    assert trivial_multiplicity(L, tensor(dual(chi_n), chi_n)) == 1


def test_schur_lower_bound():
    for name in ("CP2", "Q3", "Gr(4,2)"):
        H = space_from_preset(name)
        chi = H.n_plus_character()
        assert trivial_multiplicity(H.levi, tensor(chi, dual(chi))) >= 1


@given(st.sampled_from(["A2", "A3", "B3", "C3", "D4"]), st.integers(0, 400))
@settings(max_examples=25, deadline=None)
def test_decompose_of_sums_is_identity(spec, seed):
    rd = root_system(spec)
    rng = random.Random(seed)
    S = tuple(sorted(rng.sample(range(rd.rank), rng.randint(1, rd.rank - 1))))
    L = LeviDatum(rd, S)
    picks = {}
    for _ in range(rng.randint(1, 3)):
        lam = tuple(rng.randint(0, 2) for _ in range(rd.rank))
        if L.is_S_dominant(lam):
            picks[lam] = picks.get(lam, 0) + 1
    if not picks:
        return
    chi = {}
    for lam, k in picks.items():
        for w, m in irreducible_character(L, lam).items():
            chi[w] = chi.get(w, 0) + k * m
    got = dict(decompose(L, chi))
    assert got == picks


@given(st.sampled_from(["A2", "A3", "B3", "C3", "D4"]), st.integers(0, 400))
@settings(max_examples=40, deadline=None)
def test_brauer_klimyk_fold_equals_decomposing_the_tensor_character(spec, seed):
    """decompose(L, chi, lam) folds lam + mu over the weights of chi alone;
    it must equal the decomposition of the whole character V_lam (x) chi."""
    rd = root_system(spec)
    rng = random.Random(seed)
    S = tuple(sorted(rng.sample(range(rd.rank), rng.randint(1, rd.rank - 1))))
    L = LeviDatum(rd, S)
    lam, nu = (tuple(rng.randint(-1, 2) for _ in range(rd.rank)) for _ in range(2))
    if not (L.is_S_dominant(lam) and L.is_S_dominant(nu)):
        return
    chi = irreducible_character(L, nu)
    assert decompose(L, chi, lam) == decompose(L, tensor(irreducible_character(L, lam), chi))


def test_brauer_klimyk_fold_refuses_a_weight_that_is_not_S_dominant():
    L = LeviDatum(root_system("A2"), (0,))
    chi = {(1, 0): 1, (0, 0): 1, (-1, 0): 1}
    assert decompose(L, chi, (0, 0)) == decompose(L, chi)
    with pytest.raises(ValueError, match="not S-dominant"):
        decompose(L, chi, (-1, 0))
