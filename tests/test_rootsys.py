import itertools
import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagcoh.rootsys import SimpleLieType, build_root_system, root_system
from subset_route import pairing_simple, reflect, reflect_simple


ALL_TYPES = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "C3", "D4", "E6", "E7"]


def _epsilon_realization(spec):
    """Oracle data: all roots and the simple roots in epsilon coordinates."""
    fam, l = spec[0], int(spec[1:])
    e = lambda i, n: tuple(1 if j == i else 0 for j in range(n))

    def minus(a, b):
        return tuple(x - y for x, y in zip(a, b))

    def plus(a, b):
        return tuple(x + y for x, y in zip(a, b))

    if fam == "A":
        n = l + 1
        roots = [minus(e(i, n), e(j, n)) for i in range(n) for j in range(n) if i != j]
        simple = [minus(e(i, n), e(i + 1, n)) for i in range(l)]
    elif fam == "B":
        n = l
        roots = [tuple(s * c for c in e(i, n)) for i in range(n) for s in (1, -1)]
        for i in range(n):
            for j in range(i + 1, n):
                for si in (1, -1):
                    for sj in (1, -1):
                        roots.append(plus(tuple(si * c for c in e(i, n)),
                                          tuple(sj * c for c in e(j, n))))
        simple = [minus(e(i, n), e(i + 1, n)) for i in range(l - 1)] + [e(l - 1, n)]
    elif fam == "C":
        n = l
        roots = [tuple(2 * s * c for c in e(i, n)) for i in range(n) for s in (1, -1)]
        for i in range(n):
            for j in range(i + 1, n):
                for si in (1, -1):
                    for sj in (1, -1):
                        roots.append(plus(tuple(si * c for c in e(i, n)),
                                          tuple(sj * c for c in e(j, n))))
        simple = [minus(e(i, n), e(i + 1, n)) for i in range(l - 1)] + [
            tuple(2 * c for c in e(l - 1, n))
        ]
    elif fam == "D":
        n = l
        roots = []
        for i in range(n):
            for j in range(i + 1, n):
                for si in (1, -1):
                    for sj in (1, -1):
                        roots.append(plus(tuple(si * c for c in e(i, n)),
                                          tuple(sj * c for c in e(j, n))))
        simple = [minus(e(i, n), e(i + 1, n)) for i in range(l - 1)] + [
            plus(e(l - 2, n), e(l - 1, n))
        ]
    else:
        raise ValueError(spec)
    return roots, simple


def brute_force_positive_roots(spec):
    """Oracle: realize the system in epsilon coordinates, rewrite every root
    in the simple-root basis by exact solving, keep the nonnegative ones."""
    from flagcoh.scalars import solve

    roots, simple = _epsilon_realization(spec)
    dim = len(simple[0])
    cols = list(simple)
    out = []
    for r in roots:
        mat = [[Fraction(cols[j][i]) for j in range(len(cols))] for i in range(dim)]
        x = solve(mat, [Fraction(c) for c in r])
        assert x is not None and all(v.denominator == 1 for v in x)
        coords = tuple(int(v) for v in x)
        if all(c >= 0 for c in coords):
            out.append(coords)
    return sorted(out)


@pytest.mark.parametrize("spec", ["A1", "A2", "A3", "B2", "B3", "C3", "D4"])
def test_positive_roots_against_epsilon_oracle(spec):
    rd = root_system(spec)
    oracle = brute_force_positive_roots(spec)
    got = sorted(tuple(int(c) for c in r) for r in rd.positive_roots)
    assert got == oracle


def weyl_orbit_roots(rd):
    """Oracle: every root, as the Weyl orbit of the simple roots, closed under
    the simple reflections s_i v = v - <v, alpha_i> alpha_i."""
    seen = set(rd.simple_roots)
    queue = list(seen)
    while queue:
        v = queue.pop()
        for i, c in enumerate(rd.simple_pairings(v)):
            w = v[:i] + (v[i] - c,) + v[i + 1:]
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


ORBIT_TYPES = ([f"A{l}" for l in range(1, 9)] + [f"B{l}" for l in range(2, 7)]
               + [f"C{l}" for l in range(2, 7)] + [f"D{l}" for l in range(3, 8)]
               + ["E6", "E7"])


@pytest.mark.parametrize("spec", ORBIT_TYPES)
def test_root_strings_give_the_positive_half_of_the_weyl_orbit(spec):
    rd = root_system(spec)
    orbit = weyl_orbit_roots(rd)
    pos = rd.positive_roots
    assert list(pos) == sorted(r for r in orbit if min(r) >= 0)
    assert set(pos) | {tuple(-c for c in r) for r in pos} == orbit
    assert len(orbit) == 2 * len(pos)


@pytest.mark.parametrize("spec,count", [
    ("A1", 1), ("A3", 6), ("B3", 9), ("C3", 9), ("D4", 12), ("E6", 36), ("E7", 63),
])
def test_positive_root_counts(spec, count):
    assert len(root_system(spec).positive_roots) == count


def test_a1_data():
    rd = root_system("A1")
    assert rd.positive_roots == ((Fraction(1),),)
    assert rd.delta == (Fraction(1),)
    assert rd.gamma == (Fraction(1, 2),)


def test_a3_highest_root():
    rd = root_system("A3")
    assert tuple(int(c) for c in rd.delta) == (1, 1, 1)
    assert rd.delta == (1, 1, 1)


@pytest.mark.parametrize("spec", ALL_TYPES)
def test_delta_maximality_and_gamma(spec):
    rd = root_system(spec)
    for al in rd.positive_roots:
        assert all(d - a >= 0 for d, a in zip(rd.delta, al))
    total = [sum(r[i] for r in rd.positive_roots) for i in range(rd.rank)]
    assert tuple(Fraction(t, 2) for t in total) == rd.gamma
    # gamma pairs to 1 against every simple root
    for i in range(rd.rank):
        assert pairing_simple(rd, rd.gamma, i) == 1


@pytest.mark.parametrize("spec", ALL_TYPES)
def test_normalization(spec):
    rd = root_system(spec)
    assert rd.inner(rd.delta, rd.delta) == 2
    lengths = {rd.inner(a, a) for a in rd.positive_roots}
    assert lengths <= {Fraction(1), Fraction(2)}


def test_inner_examples():
    a2 = root_system("A2")
    assert a2.inner(a2.simple_roots[0], a2.simple_roots[1]) == -1
    b2 = root_system("B2")
    assert b2.inner(b2.simple_roots[1], b2.simple_roots[1]) == 1
    assert b2.inner(b2.simple_roots[0], b2.simple_roots[0]) == 2


@pytest.mark.parametrize("spec,special", [
    ("A3", [0, 1, 2]),
    ("C3", [2]),
    ("E7", [6]),
    ("B3", [0]),
    ("D4", [0, 2, 3]),
])
def test_special_simple_roots(spec, special):
    assert root_system(spec).special_simple_roots() == special


def test_reflection_basics():
    a2 = root_system("A2")
    a1, a2_root = a2.simple_roots
    assert reflect(a2, a1, a1) == tuple(-c for c in a1)
    assert reflect(a2, a2_root, a1) == (Fraction(1), Fraction(1))
    with pytest.raises(ValueError):
        reflect(a2, a1, (Fraction(1), Fraction(1, 2)))


@pytest.mark.parametrize("spec", ALL_TYPES)
def test_simple_reflection_permutes_other_positives(spec):
    rd = root_system(spec)
    for i in range(rd.rank):
        others = {r for r in rd.positive_roots if r != rd.simple_roots[i]}
        image = {reflect_simple(rd, r, i) for r in others}
        assert image == others


def test_dominant_representative_examples():
    a2 = root_system("A2")
    xi = (Fraction(3), Fraction(2))
    dom, idx, sing = a2.dominant_representative(xi)
    assert (dom, idx, sing) == (xi, 0, False)

    neg_gamma = tuple(-c for c in a2.gamma)
    dom, idx, sing = a2.dominant_representative(neg_gamma)
    assert not sing
    assert idx == 3
    assert dom == a2.gamma

    # (xi, alpha_1) = 0 makes it singular
    xi = (Fraction(1), Fraction(2))
    assert a2.inner(xi, a2.simple_roots[0]) == 0
    dom, idx, sing = a2.dominant_representative(xi)
    assert sing


def _det_of_accumulated_reflections(rd, xi):
    """Sign of the Weyl element carrying xi to the dominant chamber."""
    cur = tuple(Fraction(c) for c in xi)
    sign = 1
    while True:
        for i in range(rd.rank):
            if pairing_simple(rd, cur, i) < 0:
                cur = reflect_simple(rd, cur, i)
                sign = -sign
                break
        else:
            return sign


def _regularity_table(rd):
    """form2 * alpha for each positive root alpha, so that xi . row =
    2 (xi, alpha) in integers."""
    return [tuple(sum(g * a for g, a in zip(row, al)) for row in rd.form2)
            for al in rd.positive_roots]


@pytest.mark.parametrize("spec", ["A2", "A3", "B2", "B3", "C3", "D4", "E6"])
def test_index_parity_and_greedy_count(spec):
    rd = root_system(spec)
    table = _regularity_table(rd)
    rng = random.Random(20240811)
    trials = 0
    while trials < 200:
        coords = [rng.randint(-4, 4) for _ in range(rd.rank)]
        # regular: (xi, alpha) != 0 for every positive root, in integers
        if not all(sum(map(mul, coords, row)) for row in table):
            continue
        xi = tuple(map(Fraction, coords))
        trials += 1
        dom, idx, sing = rd.dominant_representative(xi)
        assert not sing
        assert rd.is_dominant(dom)
        assert _det_of_accumulated_reflections(rd, xi) == (-1) ** idx


def test_exhaustive_small_rank_index():
    """Small box exhaustively for rank <= 3: greedy count == root count."""
    for spec in ("A1", "A2", "B2", "A3", "B3", "C3"):
        rd = root_system(spec)
        rng = range(-2, 3)
        for coords in itertools.product(rng, repeat=rd.rank):
            xi = tuple(Fraction(c) for c in coords)
            dom, idx, sing = rd.dominant_representative(xi)
            assert rd.is_dominant(dom)
            if not sing:
                assert idx == sum(
                    1 for al in rd.positive_roots if rd.inner(xi, al) < 0
                )


@given(st.sampled_from(["A2", "B2", "A3", "C3"]),
       st.lists(st.integers(-6, 6), min_size=4, max_size=4))
@settings(max_examples=120, deadline=None)
def test_reflection_involutive_and_isometric(spec, coords):
    rd = root_system(spec)
    xi = tuple(Fraction(c) for c in coords[: rd.rank])
    for al in rd.positive_roots:
        ref = reflect(rd, xi, al)
        assert reflect(rd, ref, al) == xi
        assert rd.inner(ref, ref) == rd.inner(xi, xi)


INTEGRAL_TYPES = ([f"A{l}" for l in range(1, 10)] + [f"B{l}" for l in range(2, 8)]
                  + [f"C{l}" for l in range(2, 8)] + [f"D{l}" for l in range(3, 9)]
                  + ["E6", "E7"])


def _leaves(x):
    if isinstance(x, tuple):
        for y in x:
            yield from _leaves(y)
    else:
        yield x


@pytest.mark.parametrize("spec", INTEGRAL_TYPES)
def test_root_datum_is_integral(spec):
    """Every field but the type holds ints; form2 is symmetric with
    diagonal 2(a_i, a_i) in {2, 4}; and inner equals the rational Gram read
    (a_i, a_j) = <a_j, a_i> (a_i, a_i) / 2, built here from the root lengths."""
    rd = root_system(spec)
    for name in rd._fields:
        if name != "type":
            assert all(type(c) is int for c in _leaves(getattr(rd, name))), name
    l = rd.rank
    assert all(rd.form2[i][j] == rd.form2[j][i] for i in range(l) for j in range(l))
    assert {rd.form2[i][i] for i in range(l)} <= {2, 4}
    norms = {"B": [2] * (l - 1) + [1], "C": [1] * (l - 1) + [2]}.get(spec[0], [2] * l)
    gram = [[Fraction(rd.cartan[j][i] * norms[i], 2) for j in range(l)] for i in range(l)]
    rng = random.Random(spec)
    for _ in range(20):
        lam, mu = ([Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(l)]
                   for _ in range(2))
        want = sum(a * gram[i][j] * b for i, a in enumerate(lam) for j, b in enumerate(mu))
        assert rd.inner(lam, mu) == want
        assert type(rd.inner(lam, mu)) is Fraction
    for i in range(l):
        for j in range(l):
            assert rd.inner(rd.simple_roots[i], rd.simple_roots[j]) == gram[i][j]


@pytest.mark.parametrize("spec", ["", "B", "B+3", "B 3", "B3 ", "B\u00b3", "33"])
def test_root_system_reads_only_a_letter_and_ascii_digits(spec):
    with pytest.raises(ValueError) as exc:
        root_system(spec)
    assert str(exc.value) == f"simple type {spec!r} is not a letter and a rank, e.g. B3"


def test_root_system_reads_the_letter_in_either_case():
    assert root_system("b3") == root_system("B3")


def test_unsupported_types_rejected():
    for fam, rank in (("B", 1), ("D", 2), ("E", 8), ("F", 4)):
        with pytest.raises(ValueError):
            build_root_system(SimpleLieType(fam, rank))


def greedy_dominant_representative(rd, xi, simple=None):
    """The Fraction loop dominant_representative used before the integer fold:
    reflect by the first simple root with a negative pairing until none is
    left.  Returns (dominant, steps)."""
    simple = range(rd.rank) if simple is None else simple
    cur = tuple(Fraction(c) for c in xi)
    steps = 0
    while True:
        for i in simple:
            if pairing_simple(rd, cur, i) < 0:
                cur = reflect_simple(rd, cur, i)
                steps += 1
                break
        else:
            return cur, steps


@pytest.mark.parametrize("spec", ["A2", "B3", "C3", "D4", "E6"])
def test_dominant_representative_of_thirds_matches_greedy_loop(spec):
    rd = root_system(spec)
    rng = random.Random(spec)
    for _ in range(150):
        xi = tuple(Fraction(rng.randint(-9, 9), rng.choice((1, 3, 6)))
                   for _ in range(rd.rank))
        dom, idx, sing = rd.dominant_representative(xi)
        want, steps = greedy_dominant_representative(rd, xi)
        assert dom == want
        assert all(type(c) is Fraction for c in dom)
        assert sing == any(rd.inner(xi, al) == 0 for al in rd.positive_roots)
        assert idx == sum(1 for al in rd.positive_roots if rd.inner(xi, al) < 0)
        if not sing:
            assert idx == steps


@pytest.mark.parametrize("spec", ["A3", "B3", "C3", "D4", "E6"])
def test_fold_over_a_subset_matches_greedy_loop(spec):
    rd = root_system(spec)
    rng = random.Random(spec + "/fold")
    for _ in range(150):
        simple = tuple(sorted(rng.sample(range(rd.rank), rng.randint(1, rd.rank))))
        v = tuple(rng.randint(-6, 6) for _ in range(rd.rank))
        folded, steps, singular = rd.fold(v, simple)
        want, want_steps = greedy_dominant_representative(rd, v, simple)
        assert folded == want and steps == want_steps
        assert all(type(c) is int for c in folded)
        assert singular == any(pairing_simple(rd, folded, i) == 0 for i in simple)
        assert rd.simple_pairings(v) == [pairing_simple(rd, v, i) for i in range(rd.rank)]


def test_fold_examples():
    a2 = root_system("A2")
    # -alpha_0 folds to alpha_0 in one step under W = <s_0>
    assert a2.fold((-1, 0), (0,)) == ((1, 0), 1, False)
    # the highest root pairs to 1 with both simple roots
    assert a2.fold((1, 1), (0, 1)) == ((1, 1), 0, False)
    # <(1, 2), alpha_0> = 2 - 2 = 0: on the wall of s_0
    assert a2.fold((1, 2), (0,)) == ((1, 2), 0, True)
    # simple roots outside `simple` are never used: <(0, -1), alpha_1> = -2
    assert a2.fold((-1, -1), (0,)) == ((0, -1), 1, False)


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "E6"])
def test_weyl_dimension_of_integer_weights_matches_the_weyl_product(name):
    """Integer weights skip the Fraction scaling (D = 1); the result is the
    Weyl product over the positive roots in Fractions, and the weight's
    Fraction copy gives the same."""
    rd = root_system(name)
    gamma = rd.gamma
    for lam in itertools.islice(itertools.product(range(3), repeat=rd.rank), 60):
        shifted = [c + g for c, g in zip(lam, gamma)]
        want = 1
        for a in rd.positive_roots:
            want *= Fraction(rd.inner(shifted, a)) / rd.inner(gamma, a)
        assert rd.weyl_dimension(lam) == want == rd.weyl_dimension(tuple(map(Fraction, lam)))


def test_weyl_dimension_rejects_non_integral_weights():
    rd = root_system("A2")
    assert rd.weyl_dimension(rd.delta) == 8
    assert rd.weyl_dimension((Fraction(2, 3), Fraction(1, 3))) == 3
    with pytest.raises(ValueError):
        rd.weyl_dimension((Fraction(1, 3), Fraction(1, 3)))
