import functools
import itertools
import random
from fractions import Fraction

import pytest
from canonical import form_value, is_canonical, nested

from flagcoh.invforms import (
    InvariantVectorForm,
    MatrixPairSpace,
    RootPairSpace,
    barwedge_inv,
    eta,
    eta1,
    eta2,
    eta3,
    independent_coefficients,
    nilpotent_pairs,
    rank_of,
    theta_basis,
    theta_coordinates,
    theta_p,
    theta_products,
    _projective_roots,
    _sorted_with_sign,
)
from flagcoh.exterior import _merge_sign, _Terms
from flagcoh.scalars import (QS_ONE, QS_ZERO, QSqrt2, RT2, canonical, narrow, nullspace,
                             rank, rref, solve, sqrt_of_rational)


GR42 = MatrixPairSpace(2, 2)
GR52 = MatrixPairSpace(3, 2)
GR53 = MatrixPairSpace(2, 3)
GR63 = MatrixPairSpace(3, 3)


def half(i=1):
    return QSqrt2(Fraction(i, 2))


# --- 2x2 matrix identity , helper fact behind the eta/theta relations ----

def test_two_by_two_trace_identity():
    rng = random.Random(3)
    for _ in range(200):
        A = [[Fraction(rng.randint(-9, 9)) for _ in range(2)] for _ in range(2)]
        B = [[Fraction(rng.randint(-9, 9)) for _ in range(2)] for _ in range(2)]

        def mul(X, Y):
            return [
                [sum(X[i][k] * Y[k][j] for k in range(2)) for j in range(2)]
                for i in range(2)
            ]

        def add(X, Y):
            return [[X[i][j] + Y[i][j] for j in range(2)] for i in range(2)]

        def smul(c, X):
            return [[c * X[i][j] for j in range(2)] for i in range(2)]

        tr = lambda X: X[0][0] + X[1][1]
        lhs = add(mul(A, B), mul(B, A))
        ident = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
        rhs = add(
            add(smul(tr(A), B), smul(tr(B), A)),
            smul(tr(mul(A, B)) - tr(A) * tr(B), ident),
        )
        assert lhs == rhs


# --- theta family -------------------------------------------------------------

def test_theta1_is_identity():
    for sp in (GR42, GR52, RootPairSpace(5)):
        th1 = nested(theta_p(sp, 1))
        for u in range(sp.dim):
            assert form_value(th1, [u], []) == {u: QS_ONE}


def test_theta2_formula():
    sp = GR42
    th2 = nested(theta_p(sp, 2))
    # theta2(u1,u2,v) = (u1,v) u2 - (u2,v) u1 with Kronecker pairing
    for u1 in range(4):
        for u2 in range(4):
            for v in range(4):
                expect = {}
                if u1 == v:
                    expect[u2] = expect.get(u2, QS_ZERO) + QS_ONE
                if u2 == v:
                    expect[u1] = expect.get(u1, QS_ZERO) - QS_ONE
                expect = {k: c for k, c in expect.items() if c}
                assert form_value(th2, [u1, u2], [v]) == expect, (u1, u2, v)


def test_theta_range_and_vanishing():
    sp = GR42
    assert not theta_p(sp, 4).is_zero()
    with pytest.raises(ValueError):
        theta_p(sp, 5)
    with pytest.raises(ValueError):
        theta_p(sp, 0)


def test_antisymmetry_of_stored_tensors():
    sp = GR52
    for form in map(nested, (theta_p(sp, 3), eta(sp), eta2(sp))):
        for (us, vs), vec in list(form.items())[:20]:
            if len(us) >= 2:
                swapped = (us[1], us[0]) + us[2:]
                got = form_value(form, swapped, vs)
                assert got == {k: -c for k, c in vec.items()}
            if len(vs) >= 2:
                swapped_v = (vs[1], vs[0]) + vs[2:]
                got = form_value(form, us, swapped_v)
                assert got == {k: -c for k, c in vec.items()}


# --- eta family ---------------------------------------------------------------

def test_eta_proportional_theta2_for_projective_spaces():
    """eta and theta2 coincide up to sign when s = 1 or r = 1: the matrix
    product u1 v u2 collapses to (u2, v) u1 for column vectors (s = 1, sign
    -1) and to (u1, v) u2 for row vectors (r = 1, sign +1)."""
    for (r, s), sign in (((2, 1), -1), ((1, 2), 1), ((3, 1), -1), ((1, 3), 1)):
        sp = MatrixPairSpace(r, s)
        assert eta(sp) == theta_p(sp, 2).scale(sign)
        assert rank_of([theta_p(sp, 2), eta(sp)]) == 1


def test_theta_basis_and_coordinates():
    """theta2 and eta where r, s >= 2; theta2 alone on CP^n, where b folds
    into a with the sign of eta = +-theta2 and the sum is narrowed, and off
    the Grassmannians, where b != 0 is refused."""
    for sp in (GR42, GR52, GR63):
        assert theta_basis(sp) == (theta_p(sp, 2), eta(sp))
        assert theta_coordinates(sp, QSqrt2(2), RT2) == (2, RT2)
    for (r, s), sign in (((2, 1), -1), ((1, 3), 1), ((3, 1), -1)):
        sp = MatrixPairSpace(r, s)
        assert theta_basis(sp) == (theta_p(sp, 2),)
        for a, b in ((2, 1), (QSqrt2(1, 1), QSqrt2(Fraction(1, 2), -sign))):
            (c,), = [theta_coordinates(sp, a, b)]
            assert theta_p(sp, 2).scale(c) == theta_p(sp, 2).scale(a) + eta(sp).scale(b)
        assert type(c) is Fraction and c == Fraction(2 + sign, 2)
    sp = RootPairSpace(4)
    assert theta_basis(sp) == (theta_p(sp, 2),)
    assert theta_coordinates(sp, QSqrt2(3), QSqrt2(0)) == (3,)
    with pytest.raises(ValueError, match="eta undefined"):
        theta_coordinates(sp, 1, RT2)


def test_theta_products_are_rows_x_of_columns_y():
    """B_x /\\ B_y over `theta_basis`: 2 x 2 where eta is a basis form,
    1 x 1 on CP^n and off the Grassmannians."""
    sp = MatrixPairSpace(2, 2)
    products = theta_products(sp)
    assert [len(row) for row in products] == [2, 2]
    assert products[1][0] == barwedge_inv(eta(sp), theta_p(sp, 2))
    assert products[1][0] != products[0][1]
    for sp in (MatrixPairSpace(1, 3), RootPairSpace(4)):
        th2 = theta_p(sp, 2)
        assert theta_products(sp) == ((barwedge_inv(th2, th2),),)


def test_forms_compare_by_their_stored_entries():
    """Forms take `Record`'s equality, over their labels and their stored
    entries: no builder stores a zero (see test_liecoh.py), so a form padded
    with one, at a key it holds or at one it does not, is another value,
    and so is a form with one entry more or one entry changed."""
    th2 = theta_p(GR42, 2)
    assert th2 == theta_p(GR42, 2) == (th2 + th2) - th2 == th2.scale(QSqrt2(1))
    (key, i), c = next(iter(th2.entries()))
    assert ((0, 1), (2,)) not in nested(th2)
    for tensor in (th2.tensor | {(key, 3): 0}, th2.tensor | {(((0, 1), (2,)), 0): 0},
                   {k: v for k, v in th2.tensor.items() if k != (key, i)},
                   th2.tensor | {(key, i): 2 * c}):
        other = InvariantVectorForm(GR42, 2, 1, _Terms(tensor))
        assert other != th2 and th2 != other


def test_forms_on_different_spaces_neither_compare_equal_nor_add():
    """theta2 on Mat 2x3, Mat 3x2 and the root-vector space of dimension 6
    has the same tensor on each; the space still tells them apart."""
    forms = [theta_p(MatrixPairSpace(2, 3), 2), theta_p(MatrixPairSpace(3, 2), 2),
             theta_p(RootPairSpace(6), 2)]
    assert forms[0].tensor == forms[1].tensor == forms[2].tensor
    assert forms[0] == theta_p(MatrixPairSpace(2, 3), 2)
    for f, g in itertools.permutations(forms, 2):
        assert f != g
        for op in (lambda: f + g, lambda: f - g):
            with pytest.raises(ValueError, match="InvariantVectorForms with different space"):
                op()
    with pytest.raises(ValueError, match="InvariantVectorForms with different space"):
        forms[0] + eta(MatrixPairSpace(3, 2))


def test_a_form_refuses_a_number():
    """The label check runs before the operand is read, so a sum and a
    difference with a number raise the contract's ValueError."""
    form = theta_p(MatrixPairSpace(2, 2), 2)
    for op in (lambda: form + 1, lambda: form - 1):
        with pytest.raises(ValueError, match="InvariantVectorForm and int do not combine"):
            op()


def test_eta_theta2_independent_in_the_middle():
    for sp in (GR42, GR52, GR63):
        assert rank_of([theta_p(sp, 2), eta(sp)]) == 2


# --- barwedge normalization and the theta product law -------------------------

def test_theta1_unit_laws():
    for sp in (GR42, GR52):
        th1 = theta_p(sp, 1)
        for q in (2, 3):
            thq = theta_p(sp, q)
            assert barwedge_inv(th1, thq) == thq
            assert barwedge_inv(thq, th1) == thq.scale(q)


@pytest.mark.parametrize("space,pairs", [
    (GR52, [(2, 2), (2, 3), (3, 2), (1, 4), (4, 1), (2, 4)]),
    (GR63, [(2, 2), (2, 3), (3, 2), (1, 4)]),
    (MatrixPairSpace(3, 1), [(2, 2)]),  # the smallest space with theta3 != 0
])
def test_theta_product_law(space, pairs):
    """theta_p /\\ theta_q = p theta_{p+q-1} for p+q <= 5."""
    for (p, q) in pairs:
        got = barwedge_inv(theta_p(space, p), theta_p(space, q))
        assert got == theta_p(space, p + q - 1).scale(p), (space, p, q)


def test_theta_products_on_root_space():
    """Same law on a generic root-vector space (case-I style)."""
    sp = RootPairSpace(5)
    for (p, q) in ((2, 2), (2, 3), (3, 2)):
        got = barwedge_inv(theta_p(sp, p), theta_p(sp, q))
        assert got == theta_p(sp, p + q - 1).scale(p)


# --- the eta products: computed truth vs the published factor-2 claims --------
#
# The published identities read theta2^eta = 2(eta1+eta2), eta^theta2 = 4 eta2,
# eta^eta = 4 eta3; the genuine alternation product (anchored by
# theta2^theta2 = 2 theta3, cross-checked against the exterior-calculus
# insertion product) gives exactly half of each.  The acceptance suite keeps
# the published equalities and stays red there; these tests pin the truth.

def test_eta_products_computed_values():
    for sp in (GR42, GR52, GR53, GR63):
        th2, et = theta_p(sp, 2), eta(sp)
        e1, e2, e3 = eta1(sp), eta2(sp), eta3(sp)
        assert barwedge_inv(th2, et) == e1 + e2, sp
        assert barwedge_inv(et, th2) == e2.scale(2), sp
        assert barwedge_inv(et, et) == e3.scale(2), sp


def test_product_expansion_general():
    """(a th2 + b eta) /\\ (c th2 + d eta) has coordinates
    (2ac, ad, ad+2bc, 2bd) in the basis {th3, e1, e2, e3} on Gr(6,3):
    the eta3 reading of the published display, with the factor-2 error
    divided out."""
    sp = GR63
    th2, et = theta_p(sp, 2), eta(sp)
    basis = [theta_p(sp, 3), eta1(sp), eta2(sp), eta3(sp)]
    rng = random.Random(5)
    for _ in range(4):
        a, b, c, d = (QSqrt2(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(4))
        theta = th2.scale(a) + et.scale(b)
        phi = th2.scale(c) + et.scale(d)
        got = independent_coefficients(barwedge_inv(theta, phi), basis)
        want = [
            QSqrt2(2) * a * c,
            a * d,
            a * d + QSqrt2(2) * b * c,
            QSqrt2(2) * b * d,
        ]
        assert got == want


# --- eta/theta linear relations ---------------------------------------------------

def test_eta_theta_linear_relations():
    # r = 2, s >= 3 (Gr(5,3)): e3 = e2 + 1/2 e1 - 1/2 th3
    sp = GR53
    th3 = theta_p(sp, 3)
    assert eta3(sp) == eta2(sp) + eta1(sp).scale(half()) - th3.scale(half())
    # s = 2, r >= 3 (Gr(5,2)): e3 = -e2 - 1/2 e1 - 1/2 th3
    sp = GR52
    th3 = theta_p(sp, 3)
    assert eta3(sp) == (
        eta2(sp).scale(-1) - eta1(sp).scale(half()) - theta_p(sp, 3).scale(half())
    )
    # r = s = 2 (Gr(4,2)): e2 = -1/2 e1, e3 = -1/2 th3
    sp = GR42
    assert eta2(sp) == eta1(sp).scale(-half())
    assert eta3(sp) == theta_p(sp, 3).scale(-half())


# --- independence ranks ---------------------------------------------------------

def test_independence_lemma_ranks():
    assert rank_of([theta_p(GR63, 3), eta1(GR63), eta2(GR63), eta3(GR63)]) == 4
    assert rank_of([theta_p(GR52, 3), eta1(GR52), eta2(GR52)]) == 3
    assert rank_of([theta_p(GR53, 3), eta1(GR53), eta2(GR53)]) == 3
    assert rank_of([theta_p(GR42, 3), eta1(GR42)]) == 2
    assert rank_of([theta_p(GR42, 3), eta1(GR42), eta2(GR42), eta3(GR42)]) == 2
    with pytest.raises(ValueError):
        rank_of([theta_p(GR42, 2), theta_p(GR42, 3)])


# --- nilpotent pairs -------------------------------------------------------------

def _norm_pairs(report):
    out = set()
    for (ab, cd) in report.solutions:
        out.add((str(ab[0]), str(ab[1]), str(cd[0]), str(cd[1])))
    return out


def test_nilpotent_pairs_computed_truth():
    """Honest solutions: theta = th2 +- eta pairs with phi = th2 +- 2 eta on
    Gr(4,2); the + family persists on every s=2 space (mirror on r=2);
    nothing on Gr(6,3).  The published sqrt2 values and the n>=5 triviality
    claim fail; acceptance records that red."""
    rep42 = nilpotent_pairs(GR42)
    assert not rep42.trivial_only
    assert _norm_pairs(rep42) == {
        ("1", "1", "1/2", "1"),
        ("-1", "1", "-1/2", "1"),
    }
    # and the claimed sqrt2 pair is NOT nilpotent
    th2, et = theta_p(GR42, 2), eta(GR42)
    theta_claim = th2.scale(RT2) + et
    phi_claim = th2 + et.scale(RT2)
    assert not barwedge_inv(theta_claim, phi_claim).is_zero()
    # th2 alone is never nilpotent against itself
    assert not barwedge_inv(th2, th2).is_zero()

    rep52 = nilpotent_pairs(GR52)
    assert _norm_pairs(rep52) == {("1", "1", "1/2", "1")}
    rep53 = nilpotent_pairs(GR53)
    assert _norm_pairs(rep53) == {("-1", "1", "-1/2", "1")}
    assert nilpotent_pairs(GR63).trivial_only


def test_nilpotent_pairs_zero_verification():
    th2, et = theta_p(GR42, 2), eta(GR42)
    theta = th2 + et                     # (a, b) = (1, 1)
    phi = th2 + et.scale(2)              # (c, d) = (1, 2)
    assert barwedge_inv(theta, phi).is_zero()
    theta_m = th2 - et
    phi_m = th2 - et.scale(2)
    assert barwedge_inv(theta_m, phi_m).is_zero()
    s52 = nilpotent_pairs(GR52)
    th2_52, et_52 = theta_p(GR52, 2), eta(GR52)
    assert barwedge_inv(th2_52 + et_52, th2_52 + et_52.scale(2)).is_zero()


def test_nilpotent_pairs_rejects_degenerate_spaces():
    """Where eta is no basis form (CP^n, and the root-vector spaces where it
    is undefined) theta has one coordinate and no pair problem."""
    for space in (MatrixPairSpace(3, 1), MatrixPairSpace(1, 2), RootPairSpace(3),
                  RootPairSpace(4)):
        with pytest.raises(ValueError, match="eta is no basis form"):
            nilpotent_pairs(space)


# --- nilpotent pairs against the exhaustive minor scan ----------------------------
#
# The oracle takes 2x2 minors over every coordinate pair of the flattened
# products (stopping after ~400 nonzero ones), intersects the root sets of
# the reduced quadratics one by one (dropping a root outside Q(sqrt2)
# without a word), and takes the kernel over all N coordinates.

def _flat_coefficients(form, keys, dim):
    """The form's coefficients over every (key, n+ index), zeros included."""
    vectors = nested(form)
    return [vectors.get(k, {}).get(i, QS_ZERO) for k in keys for i in range(dim)]


def _scan_roots(quads):
    if not quads:
        return [(QS_ONE, QS_ZERO), (QS_ZERO, QS_ONE)]
    out = []
    if all(not q[0] for q in quads):
        out.append((QS_ONE, QS_ZERO))
    roots = None
    for (A, B, C) in quads:
        cur = set()
        if A:
            disc = B * B - 4 * A * C
            sq = sqrt_of_rational(narrow(disc))
            if sq is not None:
                for sgn in (1, -1):
                    t = (QSqrt2(0) - B + sq * QSqrt2(sgn)) / (A * QSqrt2(2))
                    cur.add((t.a, t.b))
        elif B:
            t = (QSqrt2(0) - C) / B
            cur.add((t.a, t.b))
        else:
            if not C:
                cur = None
        if cur is None:
            continue
        roots = cur if roots is None else (roots & cur)
        if not roots:
            break
    if roots:
        for (ta, tb) in sorted(roots):
            out.append((QSqrt2(ta, tb), QS_ONE))
    return out


def _scan_reduced_roots(rows):
    red, pivots = rref(rows) if rows else ([], [])
    return _scan_roots([tuple(red[r]) for r in range(len(pivots))])


def _scan_nilpotent_pairs(space):
    th2 = theta_p(space, 2)
    et = eta(space)
    P = {
        (0, 0): barwedge_inv(th2, th2),
        (0, 1): barwedge_inv(th2, et),
        (1, 0): barwedge_inv(et, th2),
        (1, 1): barwedge_inv(et, et),
    }
    keys = sorted({k for f in P.values() for k in nested(f)})
    flat = {ab: _flat_coefficients(P[ab], keys, space.dim) for ab in P}
    N = len(flat[(0, 0)])
    # a pair with an index where all four vectors vanish has A = B = C = 0
    # and adds no quad, so the scan runs over the support in increasing order
    support = [i for i in range(N) if any(f[i] for f in flat.values())]
    quads = []
    for pos, i in enumerate(support):
        for j in support[pos + 1:]:
            A = flat[(0, 0)][i] * flat[(0, 1)][j] - flat[(0, 0)][j] * flat[(0, 1)][i]
            B = (
                flat[(0, 0)][i] * flat[(1, 1)][j]
                - flat[(0, 0)][j] * flat[(1, 1)][i]
                + flat[(1, 0)][i] * flat[(0, 1)][j]
                - flat[(1, 0)][j] * flat[(0, 1)][i]
            )
            C = flat[(1, 0)][i] * flat[(1, 1)][j] - flat[(1, 0)][j] * flat[(1, 1)][i]
            if A or B or C:
                quads.append((A, B, C))
            if len(quads) > 400:
                break
        if len(quads) > 400:
            break
    solutions = []
    for (a, b) in _scan_reduced_roots([list(q) for q in quads]):
        V1 = [a * flat[(0, 0)][i] + b * flat[(1, 0)][i] for i in range(N)]
        V2 = [a * flat[(0, 1)][i] + b * flat[(1, 1)][i] for i in range(N)]
        for c, d in nullspace([[V1[i], V2[i]] for i in range(N)], 2):
            if c or d:
                solutions.append(((a, b), (c, d)))
    return solutions


@pytest.mark.parametrize("rs", [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2)], ids=str)
def test_nilpotent_pairs_match_the_exhaustive_minor_scan(rs):
    """Same solutions, with the same representatives, in the same order."""
    space = MatrixPairSpace(*rs)
    assert nilpotent_pairs(space).solutions == _scan_nilpotent_pairs(space)


def q(a, b=0):
    return QSqrt2(a, b)


@pytest.mark.parametrize("rows,roots", [
    # rank 0: every (a : b) solves, reported as the two axes
    ([], [(q(1), q(0)), (q(0), q(1))]),
    ([[q(0), q(0), q(0)]], [(q(1), q(0)), (q(0), q(1))]),
    # rank 1: one quadratic, its roots in Q(sqrt2), (1 : 0) when A = 0
    ([[q(1), q(0), q(-2)], [q(2), q(0), q(-4)]], [(q(0, -1), q(1)), (q(0, 1), q(1))]),
    ([[q(1), q(-3), q(2)]], [(q(1), q(1)), (q(2), q(1))]),
    ([[q(1), q(-2), q(1)]], [(q(1), q(1))]),
    ([[q(0), q(1), q(1)]], [(q(1), q(0)), (q(-1), q(1))]),
    ([[q(0), q(0), q(5)]], [(q(1), q(0))]),
    # rank 2: the cross product w is proportional to (a^2, ab, b^2)
    ([[q(1), q(-2), q(0)], [q(0), q(1), q(-2)]], [(q(2), q(1))]),
    ([[q(1), q(0), q(-2)], [q(0), q(1), q(0, -1)]], [(q(0, 1), q(1))]),
    ([[q(0), q(1), q(0)], [q(0), q(0), q(1)]], [(q(1), q(0))]),
    # rank 2 with w1^2 != w0 w2: a^2 + b^2 = ab = 0 has no root
    ([[q(1), q(0), q(1)], [q(0), q(1), q(0)]], []),
    ([[q(1), q(0), q(0)], [q(0), q(0), q(1)]], []),
    # rank 3: only a = b = 0
    ([[q(1), q(0), q(0)], [q(0), q(1), q(0)], [q(1), q(1), q(1)]], []),
])
def test_projective_roots_by_rank(rows, roots):
    assert _projective_roots(rows) == roots
    assert _scan_reduced_roots(rows) == roots


def test_projective_roots_outside_the_field_raise():
    """a^2 - 3 b^2 has roots +-sqrt3; the minor scan dropped them silently."""
    rows = [[q(1), q(0), q(-3)]]
    with pytest.raises(ValueError):
        _projective_roots(rows)
    assert _scan_reduced_roots(rows) == []


def test_forms_under_optimized_interpreter_gives_same_output(under_python_O):
    """python -O drops assert statements; no result may depend on them."""
    entry = under_python_O.golden("forms --space Gr(4,2)")
    assert entry["rc"] == 0 and entry["stdout"]


# --- the sparse product and the sparse rows against the dense originals -----------
#
# The oracle product visits every (us, vs) key tuple and every shuffle of both
# argument groups, evaluating psi and phi through `form_value`; the oracle linear
# algebra flattens the forms over every (key, n+ index), zeros included.

def _shuffles(universe, k):
    """(subset, complement, sign) triples over increasing universe."""
    n = len(universe)
    for picks in itertools.combinations(range(n), k):
        subset = tuple(universe[i] for i in picks)
        rest = tuple(universe[i] for i in range(n) if i not in picks)
        sign = 1
        for out_pos, i in enumerate(picks):
            sign *= (-1) ** (i - out_pos)
        yield subset, rest, sign


def _dense_barwedge_raw(phi, psi):
    space = phi.space
    P = phi.p + psi.p - 1
    Q = phi.q + psi.q
    n = space.dim
    tensor = {}
    if P > n or Q > n or P < 0:
        return InvariantVectorForm(space, max(P, 0), Q, _Terms(tensor))
    # both forms are evaluated on sorted arguments, or on one index in front
    # of a sorted tuple; the values depend on nothing else, so memoize them
    psi_value = functools.lru_cache(maxsize=None)(functools.partial(form_value, nested(psi)))
    phi_value = functools.lru_cache(maxsize=None)(functools.partial(form_value, nested(phi)))
    for us in itertools.combinations(range(n), P):
        u_shuffles = list(_shuffles(us, psi.p))
        for vs in itertools.combinations(range(n), Q):
            out = {}
            for vsub, vrest, vsign in _shuffles(vs, psi.q):
                for usub, urest, usign in u_shuffles:
                    w = psi_value(usub, vsub)
                    if not w:
                        continue
                    sgn = usign * vsign
                    for widx, wc in w.items():
                        inner = phi_value((widx,) + urest, vrest)
                        if not inner:
                            continue
                        coeff = wc if sgn == 1 else -wc
                        for i, c in inner.items():
                            nc = out.get(i, QS_ZERO) + coeff * c
                            if nc:
                                out[i] = nc
                            else:
                                out.pop(i, None)
            tensor.update((((us, vs), i), c) for i, c in out.items())
    return InvariantVectorForm(space, P, Q, _Terms(tensor))


def _family(space):
    forms = {f"theta{p}": theta_p(space, p) for p in range(1, min(4, space.dim) + 1)}
    forms.update(eta=eta(space), eta1=eta1(space), eta2=eta2(space), eta3=eta3(space))
    return forms


def _assert_same_product(phi, psi, label):
    got, want = barwedge_inv(phi, psi), _dense_barwedge_raw(phi, psi)
    assert got == want, label


@pytest.mark.parametrize("rs", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)], ids=str)
def test_sparse_barwedge_matches_the_shuffle_sum(rs):
    """Every ordered pair of the theta and eta families whose product fits
    the dimension."""
    space = MatrixPairSpace(*rs)
    forms = _family(space)
    for (x, phi), (y, psi) in itertools.product(forms.items(), repeat=2):
        if phi.p + psi.p - 1 <= space.dim and phi.q + psi.q <= space.dim:
            _assert_same_product(phi, psi, (rs, x, y))


def test_sparse_barwedge_matches_the_shuffle_sum_on_gr63():
    forms = {"theta2": theta_p(GR63, 2), "eta": eta(GR63)}
    for (x, phi), (y, psi) in itertools.product(forms.items(), repeat=2):
        _assert_same_product(phi, psi, (x, y))


def _slot_barwedge(phi, psi):
    """Reference: `barwedge_inv` as the slot-by-slot loop, both merges made
    again for every entry of phi, slot k and entry of psi that meet."""
    space = phi.space
    P, Q = phi.p + psi.p - 1, phi.q + psi.q
    tensor = {}
    if P > space.dim or Q > space.dim or P < 0:
        return InvariantVectorForm(space, max(P, 0), Q, _Terms(tensor))
    by_index = {}
    for (ku, kv), w in nested(psi).items():
        for widx, wc in w.items():
            by_index.setdefault(widx, []).append((ku, kv, wc))
    for (lu, lv), vec in nested(phi).items():
        for k, widx in enumerate(lu):
            urest = lu[:k] + lu[k + 1:]
            for ku, kv, wc in by_index.get(widx, ()):
                us, su = _merge_sign(ku, urest)
                if us is None:
                    continue
                vs, sv = _merge_sign(kv, lv)
                if vs is None:
                    continue
                coeff = wc if su * sv == (-1) ** k else -wc
                for i, c in vec.items():
                    coord = ((us, vs), i)
                    nc = tensor.get(coord, 0) + coeff * c
                    if nc:
                        tensor[coord] = canonical(nc)
                    else:
                        tensor.pop(coord, None)
    return InvariantVectorForm(space, P, Q, _Terms(tensor))


def _assert_same_as_slot_loop(phi, psi, label):
    """Equal, with the same value type at every (key, index) entry, every
    value an int iff integral.  The order of the entries is no part of the
    value: the product sums into one dict and drops its zeros once, so an
    entry that cancels and comes back keeps the place where it first came."""
    got, want = barwedge_inv(phi, psi), _slot_barwedge(phi, psi)
    assert got == want, label
    types = {coord: type(c) for coord, c in want.entries()}
    assert {coord: type(c) for coord, c in got.entries()} == types, label
    assert all(is_canonical(c) for _, c in got.entries()), label


@pytest.mark.parametrize("rs", [(2, 2), (3, 2), (2, 3), (3, 3)], ids=str)
def test_barwedge_matches_the_slot_by_slot_loop(rs):
    """Every ordered pair of theta_1..theta_4, eta and eta1-eta3, and of a
    half-eta whose products have non-integral entries."""
    space = MatrixPairSpace(*rs)
    forms = {**_family(space), "eta/2": eta(space).scale(Fraction(1, 2))}
    for (x, phi), (y, psi) in itertools.product(forms.items(), repeat=2):
        _assert_same_as_slot_loop(phi, psi, (rs, x, y))


def test_barwedge_matches_the_slot_by_slot_loop_on_a_root_space():
    space = RootPairSpace(5)
    forms = [theta_p(space, p) for p in range(1, 6)]
    for phi, psi in itertools.product(forms, repeat=2):
        _assert_same_as_slot_loop(phi, psi, (phi.p, psi.p))


def _dense_rank_of(forms):
    keys = sorted({k for f in forms for k in nested(f)})
    return rank([_flat_coefficients(f, keys, f.space.dim) for f in forms])


def _dense_coefficients(target, basis):
    keys = sorted({k for f in basis + [target] for k in nested(f)})
    dim = target.space.dim
    cols = [_flat_coefficients(f, keys, dim) for f in basis]
    rhs = _flat_coefficients(target, keys, dim)
    return solve([[col[i] for col in cols] for i in range(len(rhs))], rhs)


@pytest.mark.parametrize("space", [GR42, GR52, GR53], ids=str)
def test_sparse_rows_match_the_dense_flatten(space):
    th2, th3, et = theta_p(space, 2), theta_p(space, 3), eta(space)
    e1, e2, e3 = eta1(space), eta2(space), eta3(space)
    mixed = th2.scale(RT2) + et
    for forms in ([th2, et], [th2, et, mixed], [mixed, th2 + et.scale(RT2)],
                  [th3, e1, e2, e3], [th3, e1, e1.scale(RT2)]):
        assert rank_of(forms) == _dense_rank_of(forms)
    basis = [th3, e1, e2, e3]
    targets = [barwedge_inv(x, y) for x in (th2, et, mixed) for y in (th2, et, mixed)]
    for target in targets:
        got = independent_coefficients(target, basis)
        assert got is not None and got == _dense_coefficients(target, basis)
        assert all(isinstance(c, QSqrt2) for c in got)
    assert independent_coefficients(mixed, [th2, et]) == [RT2, QS_ONE]
    assert independent_coefficients(mixed, [th2, et]) == _dense_coefficients(mixed, [th2, et])
    # outside the span: eta is not a multiple of theta2 on these spaces
    assert independent_coefficients(mixed, [th2]) is None
    assert _dense_coefficients(mixed, [th2]) is None
    assert independent_coefficients(e1, []) is None


# --- the eta family against its hand-written displays ------------------------
#
# The oracle evaluates the six- and twelve-term displays of eta, eta1, eta2 and
# eta3 on every (us, vs) key pair of C(n,p) x C(n,q), in the order of
# `itertools.combinations`; the library alternates one matrix chain instead.

def _uvu(space, ua, v, ub):
    """Index of E_{ua} E_v E_{ub} with E_v the n- matrix E_{av, iv}."""
    ia, aa = divmod(ua, space.s)
    iv, av = divmod(v, space.s)
    ib, ab = divmod(ub, space.s)
    return space.index(ia, ab) if aa == av and iv == ib else None


def _uvuvu(space, ua, v1, ub, v2, uc):
    ia, aa = divmod(ua, space.s)
    i1, a1 = divmod(v1, space.s)
    ib, ab = divmod(ub, space.s)
    i2, a2 = divmod(v2, space.s)
    ic, ac = divmod(uc, space.s)
    return space.index(ia, ac) if aa == a1 and i1 == ib and ab == a2 and i2 == ic else None


def _pair4(space, ua, v1, ub, v2):
    """(u_a v_1, u_b v_2) = tr(u_a v_1 u_b v_2)."""
    ia, aa = divmod(ua, space.s)
    i1, a1 = divmod(v1, space.s)
    ib, ab = divmod(ub, space.s)
    i2, a2 = divmod(v2, space.s)
    return 1 if (aa == a1 and i1 == ib and ab == a2 and i2 == ia) else 0


def _alt6(u1, u2, u3):
    """The displayed six-term alternation:
    (1,2,3)+, (2,3,1)+, (3,1,2)+, (2,1,3)-, (3,2,1)-, (1,3,2)-."""
    return [
        (u1, u2, u3, 1), (u2, u3, u1, 1), (u3, u1, u2, 1),
        (u2, u1, u3, -1), (u3, u2, u1, -1), (u1, u3, u2, -1),
    ]


def _vec_add(vec, idx, coeff):
    if idx is None:
        return
    c = vec.get(idx, 0) + Fraction(coeff)
    if c:
        vec[idx] = c
    else:
        vec.pop(idx, None)


def _alternation_form(space, p, q, term_fn):
    tensor = {}
    for us in itertools.combinations(range(space.dim), p):
        for vs in itertools.combinations(range(space.dim), q):
            tensor.update((((us, vs), i), c) for i, c in term_fn(space, us, vs).items())
    return InvariantVectorForm(space, p, q, _Terms(tensor))


def _terms_eta(space, us, vs):
    """u1 v u2 - u2 v u1."""
    (u1, u2), (v,) = us, vs
    out = {}
    _vec_add(out, _uvu(space, u1, v, u2), 1)
    _vec_add(out, _uvu(space, u2, v, u1), -1)
    return out


def _terms_eta1(space, us, vs):
    """2 Alt (u1 v1, u2 v2) u3: six terms with the overall 2."""
    (u1, u2, u3), (v1, v2) = us, vs
    out = {}
    for a, b, c, sign in _alt6(u1, u2, u3):
        _vec_add(out, c, 2 * sign * _pair4(space, a, v1, b, v2))
    return out


def _terms_eta2(space, us, vs):
    """Alt (u1, v1) u2 v2 u3: twelve terms, the v-swap included."""
    (u1, u2, u3), (v1, v2) = us, vs
    out = {}
    for a, b, c, sign in _alt6(u1, u2, u3):
        if a == v1:
            _vec_add(out, _uvu(space, b, v2, c), sign)
        if a == v2:
            _vec_add(out, _uvu(space, b, v1, c), -sign)
    return out


def _terms_eta3(space, us, vs):
    """Alt u1 v1 u2 v2 u3: twelve five-factor matrix products."""
    (u1, u2, u3), (v1, v2) = us, vs
    out = {}
    for a, b, c, sign in _alt6(u1, u2, u3):
        _vec_add(out, _uvuvu(space, a, v1, b, v2, c), sign)
        _vec_add(out, _uvuvu(space, a, v2, b, v1, c), -sign)
    return out


ETA_DISPLAYS = {
    "eta": (eta, 2, 1, _terms_eta),
    "eta1": (eta1, 3, 2, _terms_eta1),
    "eta2": (eta2, 3, 2, _terms_eta2),
    "eta3": (eta3, 3, 2, _terms_eta3),
}


@pytest.mark.parametrize("rs", [(1, 2), (2, 1), (1, 4), (2, 2), (3, 2), (2, 3),
                                (3, 3), (4, 2), (2, 4)], ids=str)
def test_eta_family_matches_the_displays(rs):
    """Same bidegree, same keys in the same sorted order, and the same
    entries as the displays evaluated on every key pair, each canonical
    (an int iff integral)."""
    space = MatrixPairSpace(*rs)
    for name, (form, p, q, terms) in ETA_DISPLAYS.items():
        got, want = form(space), _alternation_form(space, p, q, terms)
        assert (got.p, got.q) == (want.p, want.q), name
        assert list(nested(got)) == list(nested(want)), name
        assert got.tensor == want.tensor, name
        assert all(is_canonical(c) for _, c in got.entries())


# --- the sorting sign against the merge route it replaced -----------------------

def old_sorted_with_sign(group):
    """`_sorted_with_sign` before the inversion count: one `_merge_sign` call
    per index."""
    mono, sign = (), 1
    for x in group:
        mono, s = _merge_sign(mono, (x,))
        if mono is None:
            return None, 0
        sign *= s
    return mono, sign


def test_sorted_with_sign_matches_the_merge_route():
    """Every tuple of length <= 4 over range(5), repeated indices included."""
    groups = [g for k in range(5) for g in itertools.product(range(5), repeat=k)]
    assert len(groups) == 781
    for g in groups:
        assert _sorted_with_sign(g) == old_sorted_with_sign(g), g
