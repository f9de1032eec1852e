import copy
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canonical import is_canonical

from flagcoh.scalars import (
    QS_ZERO,
    QSqrt2,
    RT2,
    _int_sqrt,
    nullspace,
    parse_scalar,
    rank,
    reduce_targets,
    rref,
    solve,
    sparse_rref,
    sqrt_of_rational,
)


def qs(a, b=0):
    return QSqrt2(a, b)


def dense_rref(mat):
    """Reference: dense Gauss-Jordan, columns in order, first nonzero pivot."""
    m = [list(r) for r in mat]
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        pr = None
        for i in range(r, n_rows):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m, pivots


def dense_solve(mat, rhs):
    """Reference solve over the dense RREF of [mat | rhs]."""
    n_cols = len(mat[0])
    red, pivots = dense_rref([list(r) + [b] for r, b in zip(mat, rhs)])
    if n_cols in pivots:
        return None
    x = [QS_ZERO] * n_cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][n_cols]
    return x


def random_sparse(rng, kind, n_rows, n_cols, density):
    """A random matrix with some dependent rows; kind is 'fraction',
    'rational-qsqrt2' (QSqrt2 entries with no sqrt2 part) or 'qsqrt2'."""
    def entry():
        if rng.random() > density:
            return Fraction(0) if kind == "fraction" else QS_ZERO
        v = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if kind == "fraction":
            return v
        return qs(v, rng.randint(-2, 2) if kind == "qsqrt2" else 0)

    mat = [[entry() for _ in range(n_cols)] for _ in range(n_rows)]
    for i in range(2, n_rows, 3):
        mat[i] = [a - 2 * b for a, b in zip(mat[i - 2], mat[i - 1])]
    rng.shuffle(mat)
    return mat


@pytest.mark.parametrize("kind", ["fraction", "rational-qsqrt2", "qsqrt2"])
def test_rref_matches_dense_reference(kind):
    rng = random.Random(f"rref/{kind}")
    for _ in range(20):
        n_rows, n_cols = rng.randint(1, 40), rng.randint(1, 40)
        density = rng.choice((0.05, 0.15, 0.4, 1.0))
        mat = random_sparse(rng, kind, n_rows, n_cols, density)
        want_rows, want_pivots = dense_rref(mat)
        got_rows, got_pivots = rref(mat)
        assert got_pivots == want_pivots
        assert got_rows == want_rows
        entry_type = Fraction if kind == "fraction" else QSqrt2
        assert all(type(x) is entry_type for row in got_rows for x in row)


def reference_gauss_jordan(rows, n_cols):
    """Reference: the sparse Gauss-Jordan over Fraction that reduced every
    rational matrix before the fraction-free kernel, the same column order
    and fewest-nonzeros pivot choice; consumes rows."""
    where = {}
    for i, row in enumerate(rows):
        for c in row:
            where.setdefault(c, set()).add(i)
    red, pivots = [], []
    for c in range(n_cols):
        cand = where.pop(c, None)
        if not cand:
            continue
        p = min(cand, key=lambda i: (len(rows[i]), i))
        cand.discard(p)
        piv = rows[p].pop(c)
        prow = {k: x / piv for k, x in rows[p].items()}
        for k in prow:
            where[k].discard(p)
        for i in cand:
            reference_axpy(rows[i], rows[i].pop(c), prow, where, i)
        prow[c] = piv / piv
        red.append(prow)
        pivots.append(c)
    for k in range(len(red) - 1, 0, -1):
        c, prow = pivots[k], red[k]
        tail = {j: x for j, x in prow.items() if j != c}
        for row in red[:k]:
            f = row.pop(c, None)
            if f is not None:
                reference_axpy(row, f, tail, None, 0)
    return red, pivots


def reference_axpy(row, f, prow, where, i):
    for k, x in prow.items():
        old = row.get(k)
        if old is None:
            row[k] = -f * x
            if where is not None:
                where.setdefault(k, set()).add(i)
            continue
        new = old - f * x
        if new:
            row[k] = new
        else:
            del row[k]
            if where is not None:
                where[k].discard(i)


def reference_sparse_rref(rows, n_cols, rhs=None):
    """Reference: `sparse_rref` on a rational matrix as it was over Fraction,
    the right-hand side r + s*sqrt2 reduced as the columns [rows | r | s]."""
    def frac(x):
        return x.a if isinstance(x, QSqrt2) else Fraction(x)

    work = [{c: frac(x) for c, x in row.items() if x} for row in rows]
    typed_rhs = rhs is not None and any(isinstance(b, QSqrt2) for b in rhs)
    for row, b in zip(work, rhs or ()):
        if b:
            r, s = frac(b), QSqrt2(b).b
            if r:
                row[n_cols] = r
            if s:
                row[n_cols + 1] = s
    red, pivots = reference_gauss_jordan(work, n_cols + (2 if rhs is not None else 0))
    x = {}
    while pivots and pivots[-1] >= n_cols:
        pivots.pop()
        red.pop()
        x = None
    for row, pc in zip(red, pivots):
        r, s = row.pop(n_cols, 0), row.pop(n_cols + 1, 0)
        if x is not None and (r or s):
            x[pc] = QSqrt2(r, s) if typed_rhs else r
    return red, pivots, x


def random_rational_rows(rng, n_rows, n_cols, density, big):
    """Sparse rows of int, Fraction and rational QSqrt2 entries, small or
    large numerators and denominators, with some empty rows and some rows
    that combine two others."""
    def entry():
        if big:
            v = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**6))
        else:
            v = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        kind = rng.randrange(3)
        return v.numerator if kind == 0 else v if kind == 1 else QSqrt2(v)

    rows = [{c: x for c in range(n_cols) if rng.random() < density and (x := entry())}
            for _ in range(n_rows)]
    for i in range(2, n_rows, 3):
        if rng.random() < 0.3:
            rows[i] = {}
        else:
            a, b = rows[i - 2], rows[i - 1]
            rows[i] = {c: a.get(c, 0) - 3 * b.get(c, 0) for c in {*a, *b}}
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("big", [False, True], ids=["small", "large"])
def test_fraction_free_kernel_matches_fraction_gauss_jordan(big):
    """On random sparse rational matrices, with no, rational, Q(sqrt2) and
    sqrt2-only-inconsistent right-hand sides, `sparse_rref` gives the same
    red, pivots and x as the Fraction Gauss-Jordan, every entry canonical."""
    rng = random.Random(f"fraction-free/{big}")
    kinds = {"none": 0, "rational": 0, "qsqrt2": 0, "rt2-inconsistent": 0}
    for trial in range(240):
        size = 12 if big else 30
        n_rows, n_cols = rng.randint(0, size), rng.randint(1, size)
        rows = random_rational_rows(rng, n_rows, n_cols,
                                    rng.choice((0.05, 0.2, 0.5, 1.0)), big)
        kind = list(kinds)[trial % 4]
        rhs = None
        if kind == "rational":
            rhs = [rng.choice((0, 1, -2, Fraction(3, 7))) for _ in rows]
        elif kind == "qsqrt2":
            rhs = [QSqrt2(rng.randint(-3, 3), rng.randint(-2, 2)) for _ in rows]
        elif kind == "rt2-inconsistent" and n_rows:
            # a consistent rational right-hand side, then one last row that
            # sums two others and whose right-hand side is off by sqrt2 only
            x0 = {c: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for c in range(n_cols)}
            rows.append({c: rows[0].get(c, 0) + rows[-1].get(c, 0)
                         for c in {*rows[0], *rows[-1]}})
            rhs = [sum((QSqrt2(x) * x0[c] for c, x in row.items()), QS_ZERO) for row in rows]
            rhs[-1] = rhs[-1] + RT2
        got = sparse_rref([dict(row) for row in rows], n_cols, rhs)
        want = reference_sparse_rref(rows, n_cols, rhs)
        assert got == want, trial
        assert all(is_canonical(x) for row in got[0] for x in row.values())
        if got[2] is not None:
            assert all(is_canonical(x) or isinstance(x, QSqrt2) for x in got[2].values())
        if kind == "rt2-inconsistent" and n_rows:
            assert got[2] is None
            rational = [b.a for b in rhs]
            assert sparse_rref(rows, n_cols, rational)[2] is not None
        kinds[kind] += got[2] is not None
    assert all(kinds[k] for k in ("none", "rational", "qsqrt2"))


def reference_reduce_targets(rows, n_cols, targets):
    """Reference: `reduce_targets` by the Fraction Gauss-Jordan, over QSqrt2
    when any row or target entry has a sqrt2 part."""
    entries = [x for row in rows for x in row.values()] + [b for t in targets for b in t]
    if any(isinstance(x, QSqrt2) and x.b for x in entries):
        conv = QSqrt2
    else:
        conv = lambda x: x.a if isinstance(x, QSqrt2) else Fraction(x)  # noqa: E731
    work = [{c: conv(x) for c, x in row.items() if x} for row in rows]
    for j, target in enumerate(targets, n_cols):
        for row, b in zip(work, target):
            if b:
                row[j] = conv(b)
    red, pivots = reference_gauss_jordan(work, n_cols + len(targets))
    blocks = [{j: row.pop(n_cols + j) for j in range(len(targets)) if n_cols + j in row}
              for row in red]
    k = sum(pc < n_cols for pc in pivots)
    return red[:k], pivots[:k], (blocks[k:], list(zip(pivots[:k], blocks[:k])))


def _layout(rows, targets):
    """Every entry of rows and targets with its type, in order."""
    return ([[(c, type(x), x) for c, x in row.items()] for row in rows],
            [[(type(b), b) for b in target] for target in targets])


@pytest.mark.parametrize("kind", ["int", "mixed", "rt2-in-a-target", "rt2-in-the-last-row"])
def test_reduce_targets_matches_the_reference_and_keeps_its_input(kind):
    """All-int rows and targets; rows and targets mixing int, Fraction and
    rational QSqrt2; a sqrt2 part in one target entry only; a sqrt2 part in
    the last row only.  The rows and targets passed in are left as they were."""
    rng = random.Random(f"reduce-targets/{kind}")
    irrational = kind.startswith("rt2")
    for trial in range(120):
        size = 15 if irrational else 25  # QSqrt2 arithmetic is slow
        n_rows, n_cols = rng.randint(1 if irrational else 0, size), rng.randint(1, size)
        rows = random_rational_rows(rng, n_rows, n_cols, rng.choice((0.1, 0.3, 1.0)), False)
        targets = [[rng.choice((0, 0, 1, -2, Fraction(3, 7), QSqrt2(Fraction(-1, 2))))
                    for _ in rows] for _ in range(2)]
        if kind == "int":
            # every entry of random_rational_rows has a denominator dividing 6
            rows = [{c: int(6 * QSqrt2(x).a) for c, x in row.items()} for row in rows]
            targets = [[int(6 * QSqrt2(b).a) for b in target] for target in targets]
        elif kind == "rt2-in-a-target":
            targets[rng.randrange(2)][rng.randrange(n_rows)] = QSqrt2(1, rng.choice((1, -2)))
        elif kind == "rt2-in-the-last-row":
            rows[-1][rng.randrange(n_cols)] = QSqrt2(Fraction(1, 3), 1)
        before = _layout(copy.deepcopy(rows), copy.deepcopy(targets))
        got = reduce_targets(rows, n_cols, targets)
        assert _layout(rows, targets) == before, trial
        assert got == reference_reduce_targets(rows, n_cols, targets), trial
        red, _, (conditions, blocks) = got
        values = [x for row in red + conditions + [b for _, b in blocks] for x in row.values()]
        if irrational:
            assert all(type(x) is QSqrt2 for x in values), trial
        else:
            assert all(is_canonical(x) for x in values), trial


@given(st.integers(-20, 20), st.integers(-20, 20),
       st.integers(-20, 20), st.integers(-20, 20))
@settings(max_examples=80, deadline=None)
def test_field_axioms(a1, b1, a2, b2):
    x, y = qs(a1, b1), qs(a2, b2)
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) * RT2 == x * RT2 + y * RT2
    if y:
        assert (x / y) * y == x
    assert RT2 * RT2 == qs(2)


@pytest.mark.parametrize("a,b,truth", [
    (0, 0, False),
    (Fraction(-3, 4), 0, True),
    (0, Fraction(1, 2), True),
    (1, -1, True),
])
def test_truth_is_nonzero(a, b, truth):
    x = qs(a, b)
    assert bool(x) is truth
    assert bool(-x) is truth
    assert bool(x - x) is False


@given(st.integers(-20, 20), st.integers(1, 20), st.integers(-20, 20))
@settings(max_examples=60, deadline=None)
def test_equal_values_hash_equal(a, d, b):
    """An element equal to a rational hashes like it, so it finds the int or
    Fraction key in a dict or set, and the other way round."""
    r = Fraction(a, d)
    assert hash(qs(r)) == hash(r)
    assert hash(qs(r, b)) == hash(qs(r, b) + 0)
    assert len({qs(r), r}) == 1
    assert {r: "a"}.get(qs(r)) == "a"
    assert {qs(r): "a"}.get(r) == "a"
    assert {1: "a"}.get(qs(1)) == "a"
    assert len({qs(1), 1, Fraction(1)}) == 1


def test_sqrt_in_field():
    """A rational has a root in Q(sqrt2) when it is a square or twice one."""
    assert sqrt_of_rational(2) in (RT2, -RT2)
    assert sqrt_of_rational(4) in (qs(2), qs(-2))
    assert sqrt_of_rational(8) in (qs(0, 2), qs(0, -2))
    assert sqrt_of_rational(Fraction(9, 2)) in (qs(0, Fraction(3, 2)), qs(0, Fraction(-3, 2)))
    assert sqrt_of_rational(0) == 0
    for q in (3, -4, -2, Fraction(1, 3)):
        assert sqrt_of_rational(q) is None


@pytest.mark.parametrize("digits", [40, 400])
def test_sqrt_of_large_squares_is_exact(digits):
    """Roots past the 53-bit float mantissa: (r/3)^2 and 10^digits."""
    r = 10**(digits // 2) + 7
    assert _int_sqrt(r * r) == r
    assert sqrt_of_rational(Fraction(r * r, 9)) in (qs(Fraction(r, 3)), qs(Fraction(-r, 3)))
    assert _int_sqrt(10**digits) == 10**(digits // 2)
    # a large near-square has no integer root
    assert _int_sqrt(r * r + 1) is None and _int_sqrt(r * r - 1) is None
    assert sqrt_of_rational(Fraction(r * r + 1, 9)) is None


@pytest.mark.parametrize("field", ["fraction", "qsqrt2"])
def test_linear_algebra_round_trip(field):
    rng = random.Random(17)

    def mk(v):
        return Fraction(v) if field == "fraction" else qs(v, rng.randint(-2, 2))

    for _ in range(10):
        n, m = rng.randint(1, 4), rng.randint(1, 5)
        mat = [[mk(rng.randint(-4, 4)) for _ in range(m)] for _ in range(n)]
        r = rank(mat)
        ns = nullspace(mat, m)
        assert r + len(ns) == m
        zero = Fraction(0) if field == "fraction" else QS_ZERO
        for v in ns:
            for row in mat:
                assert sum((c * x for c, x in zip(row, v)),
                           start=zero) == zero
        # a consistent system solves exactly
        x0 = [mk(rng.randint(-3, 3)) for _ in range(m)]
        rhs = [sum((c * x for c, x in zip(row, x0)), start=zero) for row in mat]
        sol = solve(mat, rhs)
        assert sol is not None
        for row, b in zip(mat, rhs):
            assert sum((c * x for c, x in zip(row, sol)), start=zero) == b


@pytest.mark.parametrize("n", [3, 0])
def test_nullspace_of_no_rows_is_all_of_q_n(n):
    """A 0 x n matrix has the n unit vectors as its kernel basis, as a zero
    row does."""
    units = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    assert nullspace([], n) == units == nullspace([[0] * n], n)


@pytest.mark.parametrize("kind", ["fraction", "rational-qsqrt2"])
def test_solve_splits_qsqrt2_rhs_of_rational_matrix(kind):
    rng = random.Random(f"split/{kind}")
    for _ in range(10):
        n_rows, n_cols = rng.randint(2, 30), rng.randint(1, 30)
        mat = random_sparse(rng, kind, n_rows, n_cols, rng.choice((0.1, 0.5)))
        mat.append([a + b for a, b in zip(mat[0], mat[1])])
        x0 = [qs(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n_cols)]
        rhs = [sum((x * c for c, x in zip(row, x0)), start=QS_ZERO)
               for row in mat]
        sol = solve(mat, rhs)
        assert sol == dense_solve(mat, rhs)
        assert all(isinstance(x, QSqrt2) for x in sol)
        # the last row is the sum of the first two: shifting its right-hand
        # side by sqrt2 leaves the rational part consistent
        bad = rhs[:-1] + [rhs[-1] + RT2]
        assert solve(mat, bad) is None
        assert dense_solve(mat, bad) is None
        assert solve(mat, [b.a for b in bad]) is not None


def test_solve_detects_inconsistency():
    mat = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert solve(mat, [Fraction(1), Fraction(3)]) is None
    assert solve(mat, [Fraction(1), Fraction(2)]) == [Fraction(1), Fraction(0)]


def test_nested_qsqrt2_takes_no_second_part():
    assert QSqrt2(qs(1, 2)) == qs(1, 2)
    assert QSqrt2(qs(1, 2), 0) == qs(1, 2)
    with pytest.raises(ValueError):
        QSqrt2(qs(1, 2), 1)


def test_nested_qsqrt2_check_survives_optimized_interpreter(under_python_O):
    """python -O drops assert statements, not this check: the test above
    replays under -O."""
    assert under_python_O.passed("tests.test_scalars::test_nested_qsqrt2_takes_no_second_part")


def test_parse_round_trip():
    for text in ("0", "5", "-7/3", "rt2", "-rt2", "2+3*rt2", "1/2-5/4*rt2"):
        v = parse_scalar(text)
        assert isinstance(v, QSqrt2)
    assert parse_scalar("2+3*rt2") * parse_scalar("2-3*rt2") == qs(4 - 18)


@pytest.mark.parametrize("text", ["rt2*rt2", "rt2rt2", "sqrt2*sqrt2", "1+2*rt2*rt2",
                                  "3*rt2-rt2*rt2"])
def test_parse_rejects_two_rt2_factors_in_a_term(text):
    with pytest.raises(ValueError, match="more than one rt2"):
        parse_scalar(text)


@pytest.mark.parametrize("text", ["1/0", "0/0", "1+2/0*rt2", "-3/0"])
def test_parse_rejects_zero_denominators(text):
    with pytest.raises(ValueError, match="zero denominator"):
        parse_scalar(text)


def test_parse_keeps_one_rt2_per_term():
    assert parse_scalar("rt2+rt2") == qs(0, 2)
    assert parse_scalar("2rt2-1/2*rt2") == qs(0, Fraction(3, 2))


@pytest.mark.parametrize("text,b", [
    ("rt2", 1), ("-rt2", -1), ("3*rt2", 3), ("1/2*rt2", Fraction(1, 2)), ("3rt2", 3),
    ("rt2/2", Fraction(1, 2)), ("rt2*3", 3), ("-rt2/2", Fraction(-1, 2)),
    ("rt2*1/2", Fraction(1, 2)), ("sqrt2/4", Fraction(1, 4))])
def test_parse_reads_the_rt2_factor_alone_first_or_last(text, b):
    assert parse_scalar(text) == qs(0, b)
    assert parse_scalar(("1" if text[0] == "-" else "1+") + text) == qs(1, b)


def test_parse_gives_one_value_for_the_factor_first_or_last():
    assert parse_scalar("rt2*3") == parse_scalar("3*rt2") == parse_scalar("3rt2")
    assert parse_scalar("rt2/2") == parse_scalar("1/2*rt2")
    assert parse_scalar("2-rt2/2") == qs(2, Fraction(-1, 2))


@pytest.mark.parametrize("text", ["2/rt2", "3*rt2/2", "2*rt2*3", "rt2/2/3", "rt2*",
                                  "rt2/", "3**rt2", "rt2x", "1+2/rt2"])
def test_parse_rejects_other_rt2_terms_clearly(text):
    with pytest.raises(ValueError, match="as a multiple of rt2"):
        parse_scalar(text)


def test_parse_rejects_a_zero_denominator_after_rt2():
    with pytest.raises(ValueError, match="zero denominator"):
        parse_scalar("rt2/0")
