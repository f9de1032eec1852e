import functools
import json
import random
from fractions import Fraction

import pytest

from flagcoh.bott import (
    DESK_PRESETS,
    PRESET_NAMES,
    bott_irreducible,
    build_space,
    cohomology_omega_p_theta,
    grassmannian_rs,
    invariant_dimension,
    k_value,
    preset_key,
    space_from_preset,
    tag_counts,
)
from flagcoh.repdecomp import char_of_roots, decompose, irreducible_character
from flagcoh.rootsys import SimpleLieType, build_root_system
from flagcoh.spectral import assemble_E2
from flagcoh.verify import published_k_value


# the irreducible compact Hermitian symmetric spaces up to rank 9, one per
# special node of A2-A9, B2-B7, C3-C7, D4-D8, E6 and E7: 73 spaces
CLASSIFICATION = [
    build_space(t, a0)
    for t in (SimpleLieType(f, r) for f, lo, hi in (
        ("A", 2, 9), ("B", 2, 7), ("C", 3, 7), ("D", 4, 8), ("E", 6, 7))
        for r in range(lo, hi + 1))
    for a0 in build_root_system(t).special_simple_roots()]
_DESK_IDS = {str(space_from_preset(name)) for name in DESK_PRESETS}
# the desk presets by name, then the rest of the classification
SWEEP = dict([(name, space_from_preset(name)) for name in DESK_PRESETS]
             + [(str(H), H) for H in CLASSIFICATION if str(H) not in _DESK_IDS])


def descr_summary(descs):
    """Collapse a descriptor list to (adjoint count, trivial count, others)."""
    a = sum(d.mult for d in descs if d.tag == "adjoint")
    t = sum(d.mult for d in descs if d.tag == "trivial")
    o = sum(d.mult for d in descs if d.tag == "other")
    return a, t, o


def test_build_space_presets_and_cases():
    expectations = {
        "CP2": ("III", 2),
        "CP3": ("III", 3),
        "Q3": ("I", 3),
        "Q5": ("I", 5),
        "Gr(4,2)": ("II", 4),
        "Gr(5,2)": ("II", 6),
        "Gr(6,3)": ("II", 9),
        "LG3": ("I", 6),
        "S-D4": ("I", 6),
    }
    for name, (case, dim) in expectations.items():
        H = space_from_preset(name)
        assert H.case == case, name
        assert H.dim == dim, name
        assert H.rd.delta[H.alpha0] == 1
        for r in H.rd.positive_roots:
            assert int(r[H.alpha0]) in (0, 1)


def test_non_special_root_rejected():
    with pytest.raises(ValueError):
        build_space(SimpleLieType("B", 3), 1)  # n_alpha2 = 2 in B3
    with pytest.raises(ValueError):
        build_space(SimpleLieType("C", 3), 0)


def _m_coefficient(H, lam):
    """Coefficient at alpha_1 (case I/III) or the sum over both neighbors
    of alpha0, read off the Cartan matrix."""
    return sum(Fraction(lam[i]) for i, row in enumerate(H.rd.cartan)
               if i != H.alpha0 and row[H.alpha0])


def test_m_coefficient_of_delta():
    for name in DESK_PRESETS:
        H = space_from_preset(name)
        m = _m_coefficient(H, H.rd.delta)
        assert m == (1 if H.case == "III" else 2)


def test_e_type_constructible():
    H6 = build_space(SimpleLieType("E", 6), 0)
    assert H6.case == "I" and H6.dim == 16
    H7 = build_space(SimpleLieType("E", 7), 6)
    assert H7.case == "I" and H7.dim == 27


def test_preset_key_normalises_a_name_or_raises_space_from_presets_error():
    for name in PRESET_NAMES:
        assert preset_key(name) == name
    for alias, key in (("CP^2", "CP2"), (" Gr(5, 3) ", "Gr(5,3)"), ("S(D4)", "S-D4"),
                       ("Gr(4,1)", "CP3"), ("LG(3)", "LG3")):
        assert preset_key(alias) == key
    for bad in ("Gr(9,9)", "", "cp2"):
        with pytest.raises(ValueError) as raised:
            preset_key(bad)
        with pytest.raises(ValueError) as built:
            space_from_preset(bad)
        assert str(raised.value) == str(built.value)
        assert str(raised.value).startswith(f"unknown space preset {bad!r}; try one of")


def test_bott_irreducible_basics():
    H = space_from_preset("Gr(4,2)")
    zero = (0, 0, 0)
    assert bott_irreducible(H, zero) == (0, zero)

    # Lam = delta - alpha0: index 1 and Lam* = delta in cases I/II
    for name in ("Q3", "Gr(4,2)", "LG3"):
        Hc = space_from_preset(name)
        lam = tuple(
            int(d) - (1 if i == Hc.alpha0 else 0)
            for i, d in enumerate(Hc.rd.delta)
        )
        q, lam_star = bott_irreducible(Hc, lam)
        assert q == 1
        assert lam_star == Hc.rd.delta

    # ... and vanishes in case III
    Hc = space_from_preset("CP2")
    lam = tuple(
        int(d) - (1 if i == Hc.alpha0 else 0) for i, d in enumerate(Hc.rd.delta)
    )
    assert bott_irreducible(Hc, lam) is None


@pytest.mark.parametrize("call", [
    lambda H: bott_irreducible(H, (0, 0, 0, 0)),
    lambda H: bott_irreducible(H, (1,)),
    lambda H: H.rd.weyl_dimension((1,)),
    lambda H: H.rd.dominant_representative((0, 0, 0, 7)),
    lambda H: decompose(H.levi, H.n_plus_character(), (0, 0, 0, 9)),
    lambda H: irreducible_character(H.levi, (0, 0, 0, 9)),
    lambda H: irreducible_character(H.levi, (1,)),
    lambda H: H.levi.is_S_dominant((1,)),
    lambda H: H.levi.is_S_dominant((0, 0, 0, -5)),
    lambda H: H.rd.is_dominant((0, 0, 0, -1)),
    lambda H: H.rd.inner((1,), (1, 1, 1)),
    lambda H: H.rd.simple_pairings((1,)),
    lambda H: H.rd.root_pairings((1,)),
    lambda H: H.rd.weyl_dimension((0, 0, 0, 5)),
], ids=["bott-4", "bott-1", "weyl_dimension-1", "dominant_representative-4", "decompose-4",
        "irreducible_character-4", "irreducible_character-1", "is_S_dominant-1",
        "is_S_dominant-4", "is_dominant-4", "inner-1", "simple_pairings-1",
        "root_pairings-1", "weyl_dimension-4"])
def test_a_weight_of_the_wrong_length_is_refused(call):
    """`inner`, `simple_pairings` and `root_pairings` refuse the length, so
    every weight helper built on them does too: none truncates a weight, not
    even `weyl_dimension`, which shifts it by 2 gamma first."""
    H = space_from_preset("Gr(4,2)")
    with pytest.raises(ValueError) as exc:
        call(H)
    assert str(exc.value) == "weight must have 3 coordinates"


@pytest.mark.parametrize("call", [
    lambda H, lam: bott_irreducible(H, lam),
    lambda H, lam: decompose(H.levi, H.n_plus_character(), lam),
    lambda H, lam: irreducible_character(H.levi, lam),
], ids=["bott", "decompose", "irreducible_character"])
def test_a_weight_that_is_not_S_dominant_is_refused_with_one_message(call):
    """-alpha_0 pairs to -2 with alpha_0, a simple root of the Levi of
    Gr(4,2) (S = {0, 2}); the one refusal is `LeviDatum.check_S_dominant`."""
    H = space_from_preset("Gr(4,2)")
    assert H.levi.S == (0, 2)
    with pytest.raises(ValueError) as exc:
        call(H, (-1, 0, 0))
    assert str(exc.value) == "weight is not S-dominant for this space"


# --- cohomology tables, q = 0..2, p = 0..4 ----------------------------------
#
# The published case tables are wrong at a handful of cells (the H^1/H^2
# vanishing proofs have inequality gaps at short-root neighbors); the module
# tests assert the computed-and-hand-verified values, published table plus
# the recorded deviations.  The acceptance suite separately asserts the
# published tables as stated and stays red at exactly the deviating cells.

from flagcoh.verify import PUBLISHED_TABLE_DEVIATIONS, published_table_entry


@pytest.mark.parametrize("name", DESK_PRESETS)
def test_cohomology_tables_verified_values(name):
    H = space_from_preset(name)
    k = invariant_dimension(H, 3, 2) if H.dim >= 3 else 0
    deviations = PUBLISHED_TABLE_DEVIATIONS.get(name, {})
    for p in range(0, min(4, H.dim) + 1):
        col = cohomology_omega_p_theta(H, p, q_max=2)
        for q in range(3):
            a, t, o = descr_summary(col[q])
            ea, et = published_table_entry(H.case, k, p, q)
            extra = deviations.get((p, q), [])
            ea += sum(d.mult for d in extra if d.tag == "adjoint")
            eo = sum(d.mult for d in extra if d.tag == "other")
            assert (a, t, o) == (ea, et, eo), f"{name} p={p} q={q}"
            # the deviating modules match the frozen hand-verified data
            for d in extra:
                got = [x for x in col[q] if (x.tag, x.weight) == (d.tag, d.weight)]
                assert got and got[0].mult == d.mult and got[0].dim == d.dim


@pytest.mark.parametrize("name", DESK_PRESETS)
def test_bott_no_multiple_degrees(name):
    """Each component contributes to exactly one q (one surviving degree per component)."""
    H = space_from_preset(name)
    from flagcoh.repdecomp import decompose, exterior_power, tensor
    from subset_route import dual

    chi_n = H.n_plus_character()
    for p in (0, 1, 2):
        chi = tensor(chi_n, exterior_power(dual(chi_n), p))
        for lam, _ in decompose(H.levi, chi):
            res = bott_irreducible(H, lam)
            if res is not None:
                q, lam_star = res
                assert H.rd.is_dominant(lam_star)


# --- invariant dimensions ---------------------------------------------------

@pytest.mark.parametrize("name", SWEEP)
def test_invariant_dimension_diagonal_law(name):
    """Nonzero invariants exactly on the diagonal q = p-1."""
    H = SWEEP[name]
    for p in range(0, min(H.dim, 4) + 1):
        for q in range(0, min(H.dim, 3) + 1):
            d = invariant_dimension(H, p, q)
            if q != p - 1:
                assert d == 0, f"{name} ({p},{q})"
            elif p >= 1:
                assert d >= 1, f"{name} ({p},{q})"


def test_invariant_dimension_examples():
    H = space_from_preset("Gr(4,2)")
    assert invariant_dimension(H, 1, 0) == 1
    assert invariant_dimension(H, 2, 2) == 0
    assert invariant_dimension(H, 3, 2) == 2


@pytest.mark.parametrize("name", SWEEP)
def test_cross_oracle_invariants_vs_bott(name):
    """isotropy-invariants route equals the trivial count of the Bott route exactly."""
    H = SWEEP[name]
    for p in range(0, min(3, H.dim) + 1):
        col = cohomology_omega_p_theta(H, p, q_max=2)
        for q in range(0, 3):
            triv = sum(d.mult for d in col[q] if d.tag == "trivial")
            assert invariant_dimension(H, p, q) == triv, f"{name} ({p},{q})"


@pytest.mark.parametrize("name,k", [
    ("CP2", 0), ("CP3", 1), ("Q3", 1), ("Q5", 1),
    ("Gr(4,2)", 2), ("LG3", 2), ("S-D4", 2), ("Gr(5,2)", 3), ("Gr(6,3)", 4),
])
def test_k_values_match_published_list(name, k):
    H = space_from_preset(name)
    computed = invariant_dimension(H, 3, 2) if H.dim >= 3 else 0
    assert computed == k
    expected = published_k_value(H)
    if expected is not None:
        assert computed == expected, (
            f"{name}: computed k={computed} disagrees with the stated {expected}"
        )


# --- published vanishing statements as properties ---------------------------

@pytest.mark.parametrize("name", DESK_PRESETS)
def test_h1_invariance_statement_for_p_ge_2(name):
    """H^1(Omega^p (x) Theta) is all-trivial for p >= 2 everywhere except the
    verified Q3 exception (one extra 5-dim module at p = 2)."""
    H = space_from_preset(name)
    for p in range(2, min(H.dim, 4) + 1):
        col = cohomology_omega_p_theta(H, p, q_max=1)
        extra = PUBLISHED_TABLE_DEVIATIONS.get(name, {}).get((p, 1), [])
        nontrivial = [d for d in col[1] if d.tag != "trivial"]
        assert len(nontrivial) == len(extra), f"{name} p={p}"


@pytest.mark.parametrize("name", DESK_PRESETS)
def test_h2_vanishing_statement(name):
    """H^2 vanishing for p = 2 and p >= 4, all-trivial for p = 3 — up to the
    verified deviations on Q5/LG3/Gr(5,2)/Gr(6,3)."""
    H = space_from_preset(name)
    deviations = PUBLISHED_TABLE_DEVIATIONS.get(name, {})
    for p in (2, 4):
        if p <= H.dim:
            col = cohomology_omega_p_theta(H, p, q_max=2)
            extra = deviations.get((p, 2), [])
            assert sum(d.mult for d in col[2]) == sum(d.mult for d in extra), (
                f"{name} p={p}"
            )
    if H.dim >= 3:
        col = cohomology_omega_p_theta(H, 3, q_max=2)
        extra = deviations.get((3, 2), [])
        nontrivial = [d for d in col[2] if d.tag != "trivial"]
        assert len(nontrivial) == len(extra)


# --- tangent sheaf E2 (spectral.assemble_E2) --------------------------------

def e2_part(table, p, q, provenance):
    """The descriptors of the (p, q) entry of an E2 table with that
    provenance ("i" or "l")."""
    return [s.descriptor for s in table[(p, q)] if s.provenance == provenance]


def test_tangent_sheaf_e2_examples():
    HI = space_from_preset("Q3")
    t = assemble_E2(HI, 2)
    a, tr, o = descr_summary(e2_part(t, -1, 0, "i"))
    assert (a, tr, o) == (1, 0, 0) and e2_part(t, -1, 0, "l") == []

    HIII = space_from_preset("CP3")
    t3 = assemble_E2(HIII, 2)
    assert descr_summary(e2_part(t3, 1, 1, "i")) == (0, 1, 0)
    assert e2_part(t3, 1, 1, "l") == []

    HII = space_from_preset("Gr(4,2)")
    t2 = assemble_E2(HII, 2)
    assert descr_summary(e2_part(t2, 2, 1, "l")) == (0, 2, 0)
    assert descr_summary(e2_part(t2, 1, 1, "l")) == (1, 0, 0)
    assert descr_summary(e2_part(t2, 1, 1, "i")) == (0, 2, 0)


@pytest.mark.parametrize("name", DESK_PRESETS)
def test_tangent_sheaf_e2_matches_published(name):
    """published split-tangent tables for p in -1..4, q in 0..2, adjusted by the verified
    deviations of the underlying bundle cohomology."""
    H = space_from_preset(name)
    k = invariant_dimension(H, 3, 2) if H.dim >= 3 else 0
    table = assemble_E2(H, 2)
    deviations = PUBLISHED_TABLE_DEVIATIONS.get(name, {})

    def get(p, q, part):
        if (p, q) not in table:
            return (0, 0, 0)
        a, t, o = descr_summary(e2_part(table, p, q, part))
        # strip the recorded extra modules: i* at (p,q) carries column p+1,
        # l* carries column p
        col = p + 1 if part == "i" else p
        for d in deviations.get((col, q), []):
            if d.tag == "adjoint":
                a -= d.mult
            elif d.tag == "other":
                o -= d.mult
            else:
                t -= d.mult
        return (a, t, o)

    rows = {
        "I": {
            (-1, 0, "i"): (1, 0, 0), (0, 0, "l"): (1, 0, 0), (0, 0, "i"): (0, 1, 0),
            (1, 0, "l"): (0, 1, 0),
            (0, 1, "i"): (1, 0, 0), (1, 1, "l"): (1, 0, 0), (1, 1, "i"): (0, 1, 0),
            (2, 1, "l"): (0, 1, 0),
            (2, 2, "i"): (0, k, 0), (3, 2, "l"): (0, k, 0),
        },
        "II": {
            (-1, 0, "i"): (1, 0, 0), (0, 0, "l"): (1, 0, 0), (0, 0, "i"): (0, 1, 0),
            (1, 0, "l"): (0, 1, 0),
            (0, 1, "i"): (1, 0, 0), (1, 1, "l"): (1, 0, 0), (1, 1, "i"): (0, 2, 0),
            (2, 1, "l"): (0, 2, 0),
            (2, 2, "i"): (0, k, 0), (3, 2, "l"): (0, k, 0),
        },
        "III": {
            (-1, 0, "i"): (1, 0, 0), (0, 0, "l"): (1, 0, 0), (0, 0, "i"): (0, 1, 0),
            (1, 0, "l"): (0, 1, 0),
            (1, 1, "i"): (0, 1, 0), (2, 1, "l"): (0, 1, 0),
            (2, 2, "i"): (0, k, 0), (3, 2, "l"): (0, k, 0),
        },
    }[H.case]

    for p in range(-1, min(4, H.dim) + 1):
        for q in range(3):
            for part in ("i", "l"):
                want = rows.get((p, q, part), (0, 0, 0))
                assert get(p, q, part) == want, f"{name} ({p},{q},{part})"


# --- Kostant's wedge^p n- and the Brauer-Klimyk fold against subset sums ----

from collections import Counter
from math import comb, prod
from operator import mul

from subset_route import (
    bott_by_fractions,
    column_by_subsets,
    invariants_by_subsets,
    wedge_n_minus,
)

# the presets and the probes up to dim 12: Gr(7,3), the quadric Q8 = D5/alpha_0,
# S-D5 and LG4
ORACLE_SPACES = [space_from_preset(n) for n in PRESET_NAMES] + [
    build_space(SimpleLieType(f, r), a0)
    for f, r, a0 in (("A", 6, 2), ("D", 5, 0), ("D", 5, 4), ("C", 4, 3))]
E_SPACES = [build_space(SimpleLieType("E", 6), 0), build_space(SimpleLieType("E", 7), 6)]


@pytest.mark.parametrize("H", ORACLE_SPACES, ids=str)
def test_kostant_weights_are_the_components_of_wedge_n_minus(H):
    for p in range(H.dim + 1):
        comps = wedge_n_minus(H, p)
        assert all(m == 1 for _, m in comps), p
        assert sorted(H.kostant_weights[p]) == sorted(w for w, _ in comps), p


@pytest.mark.parametrize("H", ORACLE_SPACES, ids=str)
def test_bott_columns_equal_the_subset_route(H):
    for p in range(H.dim + 1):
        assert cohomology_omega_p_theta(H, p, H.dim) == column_by_subsets(H, p, H.dim), p


@pytest.mark.parametrize("H", ORACLE_SPACES, ids=str)
def test_invariant_counts_equal_the_subset_route(H):
    for p in range(min(H.dim, 4) + 1):
        for q in range(min(H.dim, 3) + 1):
            if p + q <= (6 if H.dim <= 10 else 5):
                assert invariant_dimension(H, p, q) == invariants_by_subsets(H, p, q), (p, q)


@pytest.mark.parametrize("H", ORACLE_SPACES[:10], ids=str)
def test_integer_bott_step_equals_the_fraction_route(H):
    rng = random.Random(str(H))
    seen = 0
    while seen < 40:
        lam = tuple(rng.randint(-4, 4) for _ in range(H.rd.rank))
        if H.levi.is_S_dominant(lam):
            seen += 1
            assert bott_irreducible(H, lam) == bott_by_fractions(H, lam), lam


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_bott_vanishes_exactly_on_the_walls_of_dominant_representative(name):
    """Every lam that the space's folds feed to Bott vanishes exactly when
    `dominant_representative` finds lam + gamma singular, and otherwise
    gets the (q, lam*) read off that representative."""
    H = space_from_preset(name)
    lams = {lam for level in H.kostant_weights for a in level for lam, _ in H.fold(a)}
    want = {lam: bott_by_fractions(H, lam) for lam in lams}
    assert {lam: bott_irreducible(H, lam) for lam in lams} == want
    assert None in want.values() and set(want.values()) != {None}


def _weyl_order(roots):
    """|W| of a root system from its positive roots in simple-root
    coordinates: the product of e + 1 over its exponents e, the partition
    dual to the number of positive roots of each height (Kostant, 1959)."""
    per_height = Counter(sum(r) for r in roots)
    return prod(1 + sum(1 for m in per_height.values() if m >= i)
                for i in range(1, per_height[1] + 1))


def _levi_weyl_dimension(L, lam):
    """Weyl's dimension formula for the Levi: the product over its positive
    roots a of (2 lam + 2 rho_S, a) / (2 rho_S, a)."""
    rd, two_rho = L.rd, L.two_rho
    shifted = tuple(2 * c + r for c, r in zip(lam, two_rho))
    return prod(rd.inner(shifted, a) / rd.inner(two_rho, a)
                for a in L.levi_positive_roots())


@pytest.mark.parametrize("H", ORACLE_SPACES + E_SPACES, ids=str)
def test_kostant_weights_count_the_cosets_and_the_dimensions(H):
    rd, L = H.rd, H.levi
    cosets = _weyl_order(tuple(map(int, r)) for r in rd.positive_roots) // \
        _weyl_order(L.levi_positive_roots())
    assert sum(map(len, H.kostant_weights)) == cosets
    dims = [sum(_levi_weyl_dimension(L, a) for a in level) for level in H.kostant_weights]
    assert dims == [comb(H.dim, p) for p in range(H.dim + 1)]
    assert sum(dims) == 2 ** H.dim


def test_weyl_orders_and_coset_counts_of_the_e_spaces():
    assert _weyl_order(tuple(map(int, r)) for r in E_SPACES[1].rd.positive_roots) == 2903040
    assert [sum(map(len, H.kostant_weights)) for H in E_SPACES] == [27, 56]


@pytest.mark.parametrize("H", CLASSIFICATION, ids=str)
def test_k_value_of_the_e_spaces_is_the_published_one(H):
    """On the E spaces and over the rest of the classification.  The
    published list leaves out only the quadric D4/alpha0, whose computed k is
    2, as on the other two D4 nodes."""
    published = published_k_value(H)
    if published is None:
        assert (str(H), k_value(H)) == ("D4/alpha0", 2)
    else:
        assert k_value(H) == published
    if H.rd.type.family == "E":
        assert published == 1


def _family_deviations(H):
    """{(p, q): (extra adjoints, extra others)} of the computed tables over
    the published ones for p <= 4, q <= 2, as computed over the
    classification: extra adjoints at (2,2) on Gr(n,2) for n >= 5 (one), on
    Gr(n,k) for 3 <= k <= n-3 (two), on LG(n) for n >= 3, on the spinor nodes
    of D_n for n >= 5 and on E6 and E7 (one each); one other module at (2,1)
    on Q3 and at (3,2) on Q5 and LG3."""
    t = H.rd.type
    rs = grassmannian_rs(H)
    if rs is None:
        adjoints = int(t.family in ("C", "E")
                       or (t.family == "D" and H.alpha0 != 0 and t.rank >= 5))
    elif min(rs) == 1:
        adjoints = 0
    elif min(rs) == 2:
        adjoints = int(sum(rs) >= 5)
    else:
        adjoints = 2
    out = {(2, 2): (adjoints, 0)} if adjoints else {}
    other = {("B", 2): (2, 1), ("B", 3): (3, 2), ("C", 3): (3, 2)}.get((t.family, t.rank))
    if other:
        out[other] = (0, 1)
    return out


@pytest.mark.parametrize("H", CLASSIFICATION, ids=str)
def test_tables_differ_from_the_published_ones_by_the_family_pattern(H):
    """The q <= 2 tables for p <= 4 are the published ones plus
    `_family_deviations`; up to dim 12 the columns are also the subset
    route's."""
    k = published_k_value(H)
    if k is None:
        k = k_value(H)
    extra = _family_deviations(H)
    for p in range(min(4, H.dim) + 1):
        col = cohomology_omega_p_theta(H, p, q_max=2)
        if H.dim <= 12:
            assert col == column_by_subsets(H, p, 2), p
        for q in range(3):
            ea, et = published_table_entry(H.case, k, p, q)
            xa, xo = extra.get((p, q), (0, 0))
            assert tag_counts(col[q]) == (ea + xa, et, xo), (p, q)


def test_the_recorded_deviations_are_cases_of_the_family_pattern():
    for name in DESK_PRESETS:
        recorded = {}
        for cell, descs in PUBLISHED_TABLE_DEVIATIONS.get(name, {}).items():
            adjoints, _, others = tag_counts(descs)
            recorded[cell] = (adjoints, others)
        assert recorded == _family_deviations(space_from_preset(name)), name


# --- Borel-Weil-Bott's Euler characteristic, with no fold -------------------

def _euler_by_bott(H, p):
    """sum_q (-1)^q dim H^q(Omega^p (x) Theta), over every q."""
    return sum((-1) ** q * sum(d.total_dim() for d in descs)
               for q, descs in cohomology_omega_p_theta(H, p, q_max=H.dim).items())


def _euler_by_weyl(H, p_max):
    """Per p <= p_max, sum_mu m(mu) d(mu) over the distinct weights mu of
    wedge^p tau* (x) tau: a root of n+ minus p distinct ones, with d Weyl's
    dimension polynomial (signed, and 0 on a singular weight).  pi^* of the
    bundle on G/B has a B-stable filtration with line-bundle quotients L_mu,
    and chi(G/B, L_mu) = d(mu).  d is evaluated once per distinct weight,
    and not at all when <mu, alpha_i> = -1 for a simple root alpha_i: then
    mu + rho lies on a wall, as it does for most weights."""
    rd = H.rd
    wedge = [Counter({(0,) * rd.rank: 1})] + [Counter() for _ in range(p_max)]
    for beta in H.N_plus:
        for p in range(p_max, 0, -1):
            for w, m in wedge[p - 1].items():
                wedge[p][tuple(a - b for a, b in zip(w, beta))] += m
    columns = tuple(zip(*rd.cartan))

    @functools.cache
    def d(mu):
        on_wall = any(sum(map(mul, mu, col)) == -1 for col in columns)
        return 0 if on_wall else rd.weyl_dimension(mu)

    return [sum(m * d(tuple(a + b for a, b in zip(w, beta)))
                for w, m in level.items() for beta in H.N_plus)
            for level in wedge]


# the special nodes of A2-A9, B2-B7, C3-C7, D4-D8, E6 and E7 with dim <= 12: 43 spaces
EULER_SPACES = [H for H in CLASSIFICATION if H.dim <= 12]


@pytest.mark.parametrize("H", EULER_SPACES, ids=str)
def test_euler_characteristic_of_every_bott_column(H):
    """For p <= 4, the alternating sum of the Bott column, every q included,
    is the Euler characteristic that Borel-Weil-Bott gives with no fold: a
    sum of Weyl's d(mu) over the weights of the fibre.  The Bott route folds
    each summand into the dominant chamber (`repdecomp.decompose`, then
    `bott.bott_irreducible`) and walks Kostant's cosets
    (`RootDatum.coset_weights`); this route does neither.  It shares
    `RootDatum.weyl_dimension` and `H.N_plus` with the code under test."""
    p_max = min(4, H.dim)
    assert [_euler_by_bott(H, p) for p in range(p_max + 1)] == _euler_by_weyl(H, p_max)


def test_euler_characteristic_of_q3_counts_erratum_1():
    """chi(Q3, Omega^2 (x) Theta) = -6 on both routes: H^1 is the trivial
    module of the published table plus erratum 1's 5-dimensional one (README),
    without which the table would give -1."""
    H = space_from_preset("Q3")
    assert _euler_by_bott(H, 2) == _euler_by_weyl(H, 2)[2] == -6
    assert [d.dim for d in cohomology_omega_p_theta(H, 2, H.dim)[1]] == [5, 1]


# --- Serre duality: H^q(Omega^p (x) Theta) = H^(N-q)(Omega^(N-p) (x) Omega^1)* --

def _bott_cells(H, p):
    """Per q, the {highest weight: multiplicity} of H^q(Omega^p (x) Theta)."""
    return {q: {d.weight: d.mult for d in descs}
            for q, descs in cohomology_omega_p_theta(H, p, q_max=H.dim).items()}


def _serre_dual_cells(H, p):
    """Per q, the {highest weight: multiplicity} of
    H^(N-q)(M, Omega^(N-p) (x) Omega^1)*, N = dim M.  K_M = Omega^N and
    wedge^p tau (x) wedge^N tau* = wedge^(N-p) tau*, so Serre duality makes
    it H^q(Omega^p (x) Theta).  The bundle is the sum over Kostant's weights
    a of degree N - p of V(a) (x) n-, each decomposed and pushed through
    Bott; the dual of V(lam) is V(-w0 lam), the dominant weight in the
    orbit of -lam."""
    N, rd = H.dim, H.rd
    n_minus = char_of_roots(tuple(-c for c in r) for r in H.N_plus)
    coeffs = Counter()
    for a in H.kostant_weights[N - p]:
        for lam, mult in decompose(H.levi, n_minus, a):
            coeffs[lam] += mult
    cells = {q: Counter() for q in range(N + 1)}
    for lam, mult in coeffs.items():
        res = bott_irreducible(H, lam)
        if res is not None:
            dual = rd.fold(tuple(-c for c in res[1]), range(rd.rank))[0]
            cells[N - res[0]][dual] += mult
    return {q: dict(c) for q, c in cells.items()}


# the special nodes with dim <= 12 (43 spaces): Q3, Q5, Gr(5,2), Gr(6,3) and
# LG3, with their erratum cells, among them
@pytest.mark.parametrize("H", EULER_SPACES, ids=str)
def test_serre_duality_of_every_bott_cell(H):
    """Every cell of every Bott column, q up to dim M, is module by module
    the dual of its Serre-dual cell, which goes through Bott on the
    complementary degree with n- in place of n+."""
    for p in range(H.dim + 1):
        assert _bott_cells(H, p) == _serre_dual_cells(H, p), p


@pytest.mark.parametrize("name, p, q, cell", [
    ("Q3", 2, 1, {(1, 1): 1, (0, 0): 1}),
    ("Gr(5,2)", 2, 2, {(1, 1, 1, 1): 1}),
])
def test_serre_duality_pins_erratum_1_cells(name, p, q, cell):
    """Erratum 1's extra 5-dimensional module of Q3 at (2,1) and extra
    adjoint of Gr(5,2) at (2,2) (README) are in the Serre-dual cells too."""
    H = space_from_preset(name)
    assert _bott_cells(H, p)[q] == _serre_dual_cells(H, p)[q] == cell


def test_all_bott_columns_of_e7():
    H = E_SPACES[1]
    table = assemble_E2(H, H.dim)
    assert tag_counts(e2_part(table, -1, 0, "i")) == (1, 0, 0)
    assert tag_counts(e2_part(table, 0, 0, "i")) == (0, 1, 0)


@pytest.mark.parametrize("p, q", [(-1, 0), (0, -1), (-1, -1), (7, 0), (0, 7), (7, 7)])
def test_degrees_outside_zero_to_dim_are_refused(p, q):
    H = space_from_preset("Gr(5,2)")
    with pytest.raises(ValueError, match="out of range"):
        invariant_dimension(H, p, q)
    if q == 0:
        with pytest.raises(ValueError, match="out of range"):
            cohomology_omega_p_theta(H, p, q_max=2)


def test_grassmannian_rs():
    assert grassmannian_rs(space_from_preset("Gr(4,2)")) == (2, 2)
    assert grassmannian_rs(space_from_preset("Gr(5,2)")) == (3, 2)
    assert grassmannian_rs(space_from_preset("CP2")) == (2, 1)
    assert grassmannian_rs(space_from_preset("Q3")) is None


@pytest.mark.parametrize("space", ["Gr(5,2)", "Gr(6,3)"])
@pytest.mark.parametrize("query", ["--format json cohomology-table", "invariants"],
                         ids=["cohomology-table", "invariants"])
def test_tables_are_the_same_under_python_O(under_python_O, space, query):
    """No check that guards a value in rootsys, repdecomp or bott may live in
    an assert that -O strips: the golden table (invariants at the default
    (p, q) = (3, 2)) replays unchanged under -O."""
    entry = under_python_O.golden(f"{query} --space {space}")
    assert entry["rc"] == 0 and json.loads(entry["stdout"])


# --- one Brauer-Klimyk fold per space and weight ---------------------------------

def test_run_all_folds_each_space_and_weight_once(monkeypatch):
    """Criteria 1, 1c, 2 and 7 and `k_value` read the same folds of
    V(a) (x) n+: each (space, Kostant weight) is folded once in a gate run."""
    import flagcoh.bott as bott
    from flagcoh import verify

    names = ["Q3", "Gr(4,2)", "Gr(5,2)", "CP2"]
    for name in names:
        monkeypatch.delitem(vars(space_from_preset(name)), "_folds", raising=False)
    calls = []
    fold = bott.decompose
    monkeypatch.setattr(bott, "decompose", lambda L, chi, a: calls.append(
        (L.rd.type, L.S, a)) or fold(L, chi, a))
    results = verify.run_all(spaces=names)
    assert {r.name.split("[")[0] for r in results} >= {
        "1.tables", "1c.tables-computed", "2.dual-route", "7.II-eta", "7.III"}
    assert calls and max(Counter(calls).values()) == 1
    weights = {(H.rd.type, H.levi.S, a) for H in map(space_from_preset, names)
               for p in range(H.dim + 1) for a in H.kostant_weights[p]}
    assert set(calls) <= weights


def test_a_cold_query_hashes_no_root_datum(monkeypatch):
    """The fold memo is held on the space: a fresh space answers every
    column, invariant count and k without hashing its `RootDatum`."""
    from flagcoh.rootsys import RootDatum

    def refuse(self):
        raise AssertionError("a RootDatum was hashed")

    monkeypatch.setattr(RootDatum, "__hash__", refuse)
    H = build_space.__wrapped__(SimpleLieType("B", 3), 0)
    assert vars(H).get("_folds", {}) == {}
    with pytest.raises(AssertionError, match="hashed"):
        hash(H.rd)
    for p in range(H.dim + 1):
        cohomology_omega_p_theta(H, p, q_max=H.dim)
        for q in range(H.dim + 1):
            invariant_dimension(H, p, q)
    assert k_value(H) == 1
    assert len(H._folds) == sum(map(len, H.kostant_weights))


def test_folds_are_read_only_and_shared_by_both_routes():
    """Each weight's fold is `decompose`'s, kept as nested tuples, and what
    a caller does to a column does not reach it."""
    H = space_from_preset("Gr(5,2)")
    invariant_dimension(H, 2, 1)
    for weights in H.kostant_weights:
        for b in weights:
            assert H.fold(b) == tuple(decompose(H.levi, H.n_plus_character(), b)), b
    a = H.kostant_weights[2][0]
    folded = H.fold(a)
    assert H.fold(a) is folded
    assert type(folded) is tuple and all(
        type(t) is tuple and type(t[0]) is tuple for t in folded)
    with pytest.raises(TypeError):
        folded[0] = folded[0]
    with pytest.raises(TypeError):
        folded[0][0][0] = 0
    column = cohomology_omega_p_theta(H, 2, q_max=2)
    column[1].clear()
    assert H.fold(a) is folded and cohomology_omega_p_theta(H, 2, q_max=2)[1]
