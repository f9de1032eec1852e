import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flagcoh.superfields as superfields
from canonical import assert_canonical, check_against_fractions, is_canonical
import leibniz_oracle
from leibniz_oracle import check_against_old_kernel, merge_sign
from flagcoh.exterior import (Derivation, GrassmannElement, VectorValuedForm, _Terms,
                              grading_derivation, terms_of, wedge_basis)

from flagcoh import verify
from flagcoh.superfields import (
    QnElement,
    SuperDerivation,
    SuperPolynomial,
    bracket,
    derivation_zero,
    fundamental_field,
    homomorphism_check,
    isotropy_weights,
    kernel_of_action,
    qn_basis,
    qn_bracket,
    transitivity_at_origin,
)


def P(nv):
    return SuperPolynomial


def x(nv, k):
    return SuperPolynomial.x(nv, k)


def xi(nv, k):
    return SuperPolynomial.xi(nv, k)


# --- explicit displayed block formulas as oracles -------------------------------

def images_zero(nv):
    """Zero coefficient lists (c_x, c_xi) to fill before building a field."""
    return [SuperPolynomial.zero(nv)] * nv, [SuperPolynomial.zero(nv)] * nv


def field_a1(n, s, A1):
    """a1* = -sum a_ik x_ka d/dx_ia - sum a_ik xi_ka d/dxi_ia."""
    r = n - s
    nv = r * s
    cx, cxi = images_zero(nv)
    for i in range(r):
        for k in range(r):
            if A1[i][k]:
                for a in range(s):
                    cx[i * s + a] = cx[i * s + a] + x(nv, k * s + a).scale(-A1[i][k])
                    cxi[i * s + a] = cxi[i * s + a] + xi(nv, k * s + a).scale(-A1[i][k])
    return SuperDerivation(r, s, 0, terms_of(cx + cxi))


def field_a2(n, s, B2):
    """a2* = +sum b_ba x_ib d/dx_ia + same on xi."""
    r = n - s
    nv = r * s
    cx, cxi = images_zero(nv)
    for a in range(s):
        for b in range(s):
            if B2[b][a]:
                for i in range(r):
                    cx[i * s + a] = cx[i * s + a] + x(nv, i * s + b).scale(B2[b][a])
                    cxi[i * s + a] = cxi[i * s + a] + xi(nv, i * s + b).scale(B2[b][a])
    return SuperDerivation(r, s, 0, terms_of(cx + cxi))


def field_v(n, s, V):
    """v* with v_{b j}: x-part sum v_bj (x_ib x_ja + xi_ib xi_ja) d/dx_ia etc."""
    r = n - s
    nv = r * s
    cx, cxi = images_zero(nv)
    for i in range(r):
        for j in range(r):
            for a in range(s):
                for b in range(s):
                    c = V[b][j]
                    if not c:
                        continue
                    xx = x(nv, i * s + b) * x(nv, j * s + a)
                    ss = xi(nv, i * s + b) * xi(nv, j * s + a)
                    cx[i * s + a] = cx[i * s + a] + (xx + ss).scale(c)
                    xs = xi(nv, i * s + b) * x(nv, j * s + a)
                    sx = x(nv, i * s + b) * xi(nv, j * s + a)
                    cxi[i * s + a] = cxi[i * s + a] + (xs + sx).scale(c)
    return SuperDerivation(r, s, 0, terms_of(cx + cxi))


def field_y(n, s, Y):
    """y* = -sum y_ia d/dxi_ia for the odd upper-right block."""
    r = n - s
    nv = r * s
    cx, cxi = images_zero(nv)
    for i in range(r):
        for a in range(s):
            if Y[i][a]:
                cxi[i * s + a] = cxi[i * s + a] + SuperPolynomial.const(nv, -Y[i][a])
    return SuperDerivation(r, s, 1, terms_of(cx + cxi))


def _eq(d1, d2):
    if d1.is_zero() and d2.is_zero():
        return True
    return (d1 - d2).is_zero()


@pytest.mark.parametrize("n,s", [(2, 1), (3, 1), (3, 2), (4, 2), (5, 2), (5, 3), (5, 4), (5, 1)])
def test_jet_reproduces_explicit_formulas(n, s):
    """The generic jet equals the displayed a1/a2/v/y formulas for n <= 5."""
    r = n - s
    rng = random.Random(n * 10 + s)
    # a1 block
    A = [[Fraction(0)] * n for _ in range(n)]
    A1 = [[Fraction(rng.randint(-3, 3)) for _ in range(r)] for _ in range(r)]
    for i in range(r):
        for k in range(r):
            A[i][k] = A1[i][k]
    g = QnElement.make(n, A=A)
    assert _eq(fundamental_field(g, s), field_a1(n, s, A1))
    # a2 block
    A = [[Fraction(0)] * n for _ in range(n)]
    B2 = [[Fraction(rng.randint(-3, 3)) for _ in range(s)] for _ in range(s)]
    for a in range(s):
        for b in range(s):
            A[r + a][r + b] = B2[a][b]
    g = QnElement.make(n, A=A)
    assert _eq(fundamental_field(g, s), field_a2(n, s, B2))
    # v block (lower-left of A)
    A = [[Fraction(0)] * n for _ in range(n)]
    V = [[Fraction(rng.randint(-3, 3)) for _ in range(r)] for _ in range(s)]
    for b in range(s):
        for j in range(r):
            A[r + b][j] = V[b][j]
    g = QnElement.make(n, A=A)
    assert _eq(fundamental_field(g, s), field_v(n, s, V))
    # y block (odd upper-right)
    B = [[Fraction(0)] * n for _ in range(n)]
    Y = [[Fraction(rng.randint(-3, 3)) for _ in range(s)] for _ in range(r)]
    for i in range(r):
        for a in range(s):
            B[i][r + a] = Y[i][a]
    g = QnElement.make(n, B=B)
    assert _eq(fundamental_field(g, s), field_y(n, s, Y))


def identity_nn(n):
    """I_{n|n}: the identity as the even part, zero odd part."""
    return QnElement.make(n, A=[[1 if i == j else 0 for j in range(n)] for i in range(n)])


def test_identity_nn_acts_by_zero():
    for (n, s) in ((2, 1), (3, 1), (4, 2)):
        f = fundamental_field(identity_nn(n), s)
        assert f.is_zero()


def test_bracket_basics():
    r, s = 2, 2
    nv = r * s
    cx, cxi = images_zero(nv)
    cxi[0] = SuperPolynomial.const(nv, 1)              # d/dxi_0
    d1 = SuperDerivation(r, s, 1, terms_of(cx + cxi))
    cx, cxi = images_zero(nv)
    cx[0] = xi(nv, 0)                                  # xi_0 d/dx_0
    d2 = SuperDerivation(r, s, 1, terms_of(cx + cxi))
    br = bracket(d1, d2)                               # odd, odd
    assert br.parity == 0
    assert dict(br.c_x[0].terms) == {((), ()): Fraction(1)}
    # [eps-analog, d/dxi] = -d/dxi
    cx, _ = images_zero(nv)
    eps = SuperDerivation(r, s, 0, terms_of(cx + [xi(nv, k) for k in range(nv)]))
    br2 = bracket(eps, d1)
    assert _eq(br2, d1.scale(-1))


def test_super_jacobi_random_triples_exact():
    """Leibniz-form super-Jacobi on 100 random derivation triples, n=3,s=1."""
    r, s = 2, 1
    nv = r * s
    rng = random.Random(99)
    basis = qn_basis(3)
    fields = [fundamental_field(g, 1) for g in basis]

    def rand_field():
        # random rational combination of same-parity fundamental fields
        parity = rng.randint(0, 1)
        d = derivation_zero(r, s, parity)
        for idx, f in enumerate(fields):
            if f.parity == parity and rng.random() < 0.4:
                d = d + f.scale(Fraction(rng.randint(-2, 2)))
        return d

    for _ in range(100):
        a, b, c = rand_field(), rand_field(), rand_field()
        lhs = bracket(a, bracket(b, c))
        rhs = bracket(bracket(a, b), c)
        sgn = -1 if (a.parity and b.parity) else 1
        rhs = rhs + bracket(b, bracket(a, c)).scale(sgn)
        assert _eq(lhs, rhs)


def test_parity_bookkeeping():
    for (n, s) in ((3, 1), (4, 2)):
        for g in qn_basis(n):
            f = fundamental_field(g, s)
            odd = any(any(row) for row in g.B)
            assert f.parity == (1 if odd else 0)


@pytest.mark.parametrize("n,s", [(2, 1), (3, 1), (3, 2), (4, 2), (4, 1), (4, 3)])
def test_homomorphism_uniform_sign(n, s):
    res = homomorphism_check(n, s)
    assert res["sigma"] == 1
    assert res["pairs"] == (2 * n * n) ** 2


def test_even_part_matches_classical_grassmannian_action():
    """Setting xi = 0, the even fields are the classical chart fields of the
    GL_n action on Gr(n, s): delta X = -(A11 X + A12 - X A21 X - X A22)."""
    n, s = 4, 2
    r = n - s
    nv = r * s
    rng = random.Random(5)
    A = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
    g = QnElement.make(n, A=A)
    f = fundamental_field(g, s)

    # classical oracle on the x-only chart
    def classical_delta(i, a):
        # X row i col a; matrix blocks: A11 (r x r), A12 (r x s),
        # A21 (s x r), A22 (s x s)
        term = SuperPolynomial.zero(nv)
        for k in range(r):
            term = term + x(nv, k * s + a).scale(A[i][k])          # A11 X
        term = term + SuperPolynomial.const(nv, A[i][r + a])       # A12
        for k in range(r):
            for b in range(s):
                # X A21 X
                term = term - (x(nv, i * s + b) * x(nv, k * s + a)).scale(A[r + b][k])
        for b in range(s):
            term = term - x(nv, i * s + b).scale(A[r + b][r + a])  # X A22
        return term.scale(-1)

    for i in range(r):
        for a in range(s):
            got = f.c_x[i * s + a]
            # drop xi-containing terms
            got_even = SuperPolynomial._from_dict(
                nv, {k: c for k, c in got.terms.items() if not k[1]}
            )
            assert got_even == classical_delta(i, a), (i, a)


@pytest.mark.parametrize("n,s", [(2, 1), (3, 1), (4, 2), (4, 1)])
def test_kernel_is_identity_line(n, s):
    ker = kernel_of_action(n, s)
    assert len(ker) == 1
    k = ker[0]
    ident = identity_nn(n)
    # proportional to I_{n|n}: even part scalar, odd part zero
    c = k.A[0][0]
    assert c != 0
    assert all(
        k.A[i][j] == (c if i == j else 0) for i in range(n) for j in range(n)
    )
    assert not any(any(row) for row in k.B)


@pytest.mark.parametrize("n,s", [(2, 1), (3, 1), (3, 2), (4, 2), (5, 2)])
def test_transitivity_span(n, s):
    out = transitivity_at_origin(n, s)
    assert out["even"] == out["expected"] == (n - s) * s
    assert out["odd"] == out["expected"]


def test_odd_span_comes_from_y_fields():
    n, s = 3, 1
    r = n - s
    for g in qn_basis(n):
        f = fundamental_field(g, s)
        cx, cxi = f.evaluate_at_origin()
        if f.parity == 1 and any(cxi):
            # the constant part can only come from the upper-right block
            found = any(g.B[i][r + a] for i in range(r) for a in range(s))
            assert found


@pytest.mark.parametrize("n,s", [(2, 1), (3, 1), (4, 2)])
def test_isotropy_weights(n, s):
    r = n - s
    w = isotropy_weights(n, s)
    assert len(w) == r * s
    for key, mult in w.items():
        assert mult == {"even": 1, "odd": 1}
        assert sum(1 for c in key if c == -1) == 1
        assert sum(1 for c in key if c == 1) == 1
        i = key.index(-1)
        j = key.index(1)
        assert i < r <= j
    # trace direction acts by zero on every weight
    for key in w:
        assert sum(key) == 0


def test_mixed_parity_element_rejected():
    g = QnElement.make(3, A=[[1, 0, 0], [0, 0, 0], [0, 0, 0]],
                       B=[[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(ValueError):
        fundamental_field(g, 1)
    parts = fundamental_field_parts(g, 1)
    assert len(parts) == 2


# --- the dense q_n bracket, the per-letter Leibniz loop and the dense jet
#     field that the sparse code replaced, as oracles -------------------------
#
# Copied from the implementation before superfields shared exterior's
# Grassmann-monomial kernel; the xi-part sign is `leibniz_oracle.merge_sign`,
# an inversion count.  Polynomials are plain {monomial: Fraction} dicts here,
# so the oracles share no arithmetic with the library.

def dense_qn_bracket(g1, g2):
    n = g1.n

    def mm(X, Y):
        return tuple(
            tuple(sum(X[i][k] * Y[k][j] for k in range(n)) for j in range(n))
            for i in range(n)
        )

    def add(X, Y, sgn=1):
        return tuple(
            tuple(a + sgn * b for a, b in zip(rx, ry)) for rx, ry in zip(X, Y)
        )

    A = add(
        add(mm(g1.A, g2.A), mm(g2.A, g1.A), -1),
        add(mm(g1.B, g2.B), mm(g2.B, g1.B), 1),
    )
    Bm = add(
        add(mm(g1.A, g2.B), mm(g2.B, g1.A), -1),
        add(mm(g1.B, g2.A), mm(g2.A, g1.B), -1),
    )
    return QnElement(n, A, Bm)


def old_merge_x(a, b):
    acc = {}
    for (k, e) in a:
        acc[k] = acc.get(k, 0) + e
    for (k, e) in b:
        acc[k] = acc.get(k, 0) + e
    return tuple(sorted(acc.items()))


def old_mul(p, q):
    acc = {}
    for (xa, sa), ca in p.items():
        for (xb, sb), cb in q.items():
            ss, sg = merge_sign(sa, sb)
            if ss is None:
                continue
            key = (old_merge_x(xa, xb), ss)
            acc[key] = acc.get(key, Fraction(0)) + sg * ca * cb
    return acc


def add_into(out, p, c=1):
    for k, v in p.items():
        out[k] = out.get(k, Fraction(0)) + c * v
    return out


def clean(p):
    return {k: v for k, v in p.items() if v}


def old_apply(d, f):
    """SuperDerivation.apply before dict accumulation: one product per letter."""
    out = {}
    for (xs, ss), coeff in f.items():
        for pos, (k, e) in enumerate(xs):
            if d.c_x[k].is_zero():
                continue
            rest_x = list(xs)
            if e == 1:
                rest_x.pop(pos)
            else:
                rest_x[pos] = (k, e - 1)
            base = {(tuple(rest_x), ss): coeff * e}
            add_into(out, old_mul(d.c_x[k].terms, base))
        for j, sidx in enumerate(ss):
            if d.c_xi[sidx].is_zero():
                continue
            sign = -1 if (d.parity and j % 2 == 1) else 1
            left = {(xs, ss[:j]): Fraction(sign) * coeff}
            right = {((), ss[j + 1:]): Fraction(1)}
            add_into(out, old_mul(old_mul(left, d.c_xi[sidx].terms), right))
    return clean(out)


def old_bracket(d1, d2):
    nv = d1.m
    sign = -1 if (d1.parity and d2.parity) else 1

    def comm(g):
        a = old_apply(d1, old_apply(d2, g))
        return clean(add_into(a, old_apply(d2, old_apply(d1, g)), -sign))

    return ([comm({(((k, 1),), ()): Fraction(1)}) for k in range(nv)],
            [comm({((), (k,)): Fraction(1)}) for k in range(nv)])


def old_jet_field(n, s, M, odd):
    """The dense jet: MZ over the whole 2n x 2n pattern matrix, then the
    frame correction; returns the x and xi coefficient dicts."""
    r = n - s
    one = Fraction(1)
    Z = [[{} for _ in range(2 * s)] for _ in range(2 * n)]
    for i in range(r):
        for a in range(s):
            k = i * s + a
            Z[i][a] = Z[n + i][s + a] = {(((k, 1),), ()): one}
            Z[i][s + a] = Z[n + i][a] = {((), (k,)): one}
    for a in range(s):
        Z[r + a][a] = Z[n + r + a][s + a] = {((), ()): one}
    big = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            if M[i][j]:
                if odd:
                    big[i][n + j] = big[n + i][j] = M[i][j]
                else:
                    big[i][j] = big[n + i][n + j] = M[i][j]
    MZ = [[{} for _ in range(2 * s)] for _ in range(2 * n)]
    for i in range(2 * n):
        for j in range(2 * s):
            for k in range(2 * n):
                if big[i][k]:
                    add_into(MZ[i][j], Z[k][j], big[i][k])
    frame_rows = list(range(r, r + s)) + list(range(n + r, 2 * n))
    C1 = [[clean(MZ[fr][j]) for j in range(2 * s)] for fr in frame_rows]

    def sigma(p):
        return {k: -c if len(k[1]) % 2 else c for k, c in p.items()}

    def tparts(row):
        out = []
        for j in range(2 * s):
            corr = {}
            for k in range(2 * s):
                z0 = Z[row][k]
                if not z0 or not C1[k][j]:
                    continue
                add_into(corr, old_mul(sigma(z0) if odd else z0, C1[k][j]))
            out.append(clean(add_into(dict(MZ[row][j]), corr, -1)))
        return out

    field_x = [{} for _ in range(r * s)]
    field_xi = [{} for _ in range(r * s)]
    for i in range(r):
        upper, lower = tparts(i), tparts(n + i)
        for j in range(2 * s):
            assert upper[j] == (lower[j + s] if j < s else lower[j - s])
            target = field_x if j < s else field_xi
            target[i * s + j % s] = {k: -c for k, c in upper[j].items()}
    return field_x, field_xi


def fundamental_field_parts(g, s):
    """Fundamental fields of the even and odd parts of g (each homogeneous),
    one jet per nonzero parity block."""
    out = []
    for odd in (False, True):
        M = g.B if odd else g.A
        if any(any(row) for row in M):
            out.append(superfields._jet_field(g.n, s, M, odd))
    return out


def old_homomorphism_check(n, s):
    """homomorphism_check before the linear expansion: the jet runs again on
    the parity parts of every basis bracket."""
    basis = qn_basis(n)
    fields = [fundamental_field(g, s) for g in basis]
    sigma = None
    checked = 0
    for i, g1 in enumerate(basis):
        p1 = 1 if i >= n * n else 0
        for j, g2 in enumerate(basis):
            p2 = 1 if j >= n * n else 0
            br_alg = qn_bracket(g1, g2)
            br_fields = bracket(fields[i], fields[j])
            target = derivation_zero(n - s, s, br_fields.parity)
            for p in fundamental_field_parts(br_alg, s):
                if p.parity == br_fields.parity:
                    target = target + p
                elif not p.is_zero():
                    raise AssertionError("parity bookkeeping broken")
            twist = -1 if (p1 and p2) else 1
            if br_fields.is_zero() and target.is_zero():
                checked += 1
                continue
            for cand in (1, -1) if sigma is None else (sigma,):
                if (br_fields - target.scale(cand * twist)).is_zero():
                    sigma = cand
                    break
            else:
                raise AssertionError(f"no uniform sign at basis pair ({i}, {j})")
            checked += 1
    return {
        "sigma": sigma if sigma is not None else 1,
        "pairs": checked,
        "convention": "super sign rule: [g1*,g2*] = sigma (-1)^{p1 p2} [g1,g2]*",
    }


def random_qn(rng, n, density):
    def block():
        return [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                 if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]

    return QnElement.make(n, A=block(), B=block())


def random_super_polynomial(rng, nv):
    data = {}
    for _ in range(rng.randint(0, 6)):
        xs = tuple(sorted((k, rng.randint(1, 2))
                          for k in rng.sample(range(nv), rng.randint(0, min(nv, 2)))))
        ss = tuple(sorted(rng.sample(range(nv), rng.randint(0, min(nv, 3)))))
        data[(xs, ss)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return SuperPolynomial._from_dict(nv, data)


def assert_canonical_entries(g):
    assert all(is_canonical(x, zero_ok=True) for X in (g.A, g.B) for row in X for x in row)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sparse_qn_bracket_matches_dense_on_every_basis_pair(n):
    basis = qn_basis(n)
    for g1 in basis:
        for g2 in basis:
            got = qn_bracket(g1, g2)
            assert got == dense_qn_bracket(g1, g2)
            assert_canonical_entries(got)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_sparse_qn_bracket_matches_dense_on_random_elements(n):
    rng = random.Random(n)
    for density in (0.2, 0.5, 1.0):
        for _ in range(15):
            g1, g2 = random_qn(rng, n, density), random_qn(rng, n, density)
            got = qn_bracket(g1, g2)
            assert got == dense_qn_bracket(g1, g2)
            assert_canonical_entries(got)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_structure_constants_match_qn_bracket_on_every_basis_pair(n):
    """Against the sparse qn_bracket and the dense products; the dense
    oracle runs on integer unit matrices, which compare equal to their
    Fraction counterparts."""
    basis = qn_basis(n)
    int_basis = [QnElement(n, *(tuple(tuple(int(x) for x in row) for row in X)
                                for X in (g.A, g.B))) for g in basis]
    table = superfields.qn_structure_constants(n)
    for i, g1 in enumerate(basis):
        for j, g2 in enumerate(basis):
            entries = table[i][j]
            assert [k for k, _ in entries] == sorted({k for k, _ in entries})
            assert all(is_canonical(c) for _, c in entries)
            A = [[Fraction(0)] * n for _ in range(n)]
            B = [[Fraction(0)] * n for _ in range(n)]
            for k, c in entries:
                odd, (a, b) = k // (n * n), divmod(k % (n * n), n)
                (B if odd else A)[a][b] += c
            got = QnElement.make(n, A, B)
            assert got == qn_bracket(g1, g2), (n, i, j)
            assert got == dense_qn_bracket(int_basis[i], int_basis[j]), (n, i, j)


@pytest.mark.parametrize("n,s", [(3, 1), (4, 2), (5, 2)])
def test_fields_match_dense_jet_on_every_basis_element(n, s):
    rng = random.Random(10 * n + s)
    elements = qn_basis(n) + [random_qn(rng, n, 0.5) for _ in range(3)]
    for g in elements:
        for f in fundamental_field_parts(g, s):
            M = g.B if f.parity else g.A
            fx, fxi = old_jet_field(n, s, M, bool(f.parity))
            assert [p.terms for p in f.c_x] == fx
            assert [p.terms for p in f.c_xi] == fxi


@pytest.mark.parametrize("n,s", [(3, 1), (4, 2), (5, 2)])
def test_apply_and_bracket_match_the_per_letter_loop(n, s):
    rng = random.Random(100 * n + s)
    nv = (n - s) * s
    fields = [fundamental_field(g, s) for g in qn_basis(n)]
    for f in fields:
        for _ in range(3):
            p = random_super_polynomial(rng, nv)
            got = f.apply(p)
            assert got.terms == old_apply(f, p.terms)
            assert all(is_canonical(c) for c in got.terms.values())
            assert type(got.terms) is _Terms
    for _ in range(60):
        d1, d2 = rng.choice(fields), rng.choice(fields)
        br = bracket(d1, d2)
        assert ([p.terms for p in br.c_x], [p.terms for p in br.c_xi]) \
            == old_bracket(d1, d2)
        for p in br.c_x + br.c_xi:
            assert_canonical(p)


def test_superfields_shares_the_exterior_kernel():
    import flagcoh.exterior as exterior
    import flagcoh.superfields as superfields

    assert not hasattr(superfields, "_merge_xi")
    assert superfields._merge_sign is exterior._merge_sign


def test_pi_grassmannian_is_the_same_under_python_O(under_python_O):
    """The Pi-symmetry, transitivity and isotropy checks are not asserts
    that -O strips, and the output does not depend on them running."""
    entry = under_python_O.golden("pi-grassmannian --n 4 --s 2")
    assert entry["rc"] == 0 and json.loads(entry["stdout"])["kernel_dim"] == 1


# --- the linear expansion in homomorphism_check ------------------------------

C8_SIZES = [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)]


@pytest.mark.parametrize("n,s", C8_SIZES)
def test_homomorphism_check_matches_the_per_pair_jet(n, s):
    assert homomorphism_check(n, s) == old_homomorphism_check(n, s)


@pytest.mark.parametrize("n,s", [(2, 1), (3, 1), (3, 2), (4, 2)])
def test_field_map_is_linear(n, s):
    """f(x g1 + y g2) = x f(g1) + y f(g2) on random elements of each parity,
    which the expansion of brackets over the basis fields rests on."""
    rng = random.Random(7 * n + s)
    for odd in (False, True):
        for _ in range(4):
            h1, h2 = random_qn(rng, n, 1.0), random_qn(rng, n, 1.0)
            b1, b2 = (h1.B, h2.B) if odd else (h1.A, h2.A)
            x = Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4))
            y = Fraction(rng.choice([-2, 1, 3]), rng.randint(1, 4))
            combo = [[x * u + y * v for u, v in zip(r1, r2)] for r1, r2 in zip(b1, b2)]
            g1, g2, g = (QnElement.make(n, B=M) if odd else QnElement.make(n, A=M)
                         for M in (b1, b2, combo))
            lhs = fundamental_field(g, s)
            rhs = fundamental_field(g1, s).scale(x) + fundamental_field(g2, s).scale(y)
            assert lhs.parity == rhs.parity == int(odd)
            assert (lhs.c_x, lhs.c_xi) == (rhs.c_x, rhs.c_xi)


def test_homomorphism_check_runs_the_jet_once_per_basis_element(monkeypatch):
    """Brackets are expanded over the 2n^2 basis fields, not re-jetted, and
    `kernel_of_action`, `transitivity_at_origin` and `isotropy_weights` read
    the same fields: one jet per basis element and (n, s) in all."""
    calls = []
    jet = superfields._jet_field
    monkeypatch.setattr(superfields, "_jet_field",
                        lambda *args: calls.append(args[:2]) or jet(*args))
    for n, s in C8_SIZES:
        superfields.basis_fields.cache_clear()
        calls.clear()
        homomorphism_check(n, s)
        kernel_of_action(n, s)
        transitivity_at_origin(n, s)
        isotropy_weights(n, s)
        assert calls == [(n, s)] * (2 * n * n), (n, s)


def test_homomorphism_check_builds_each_distinct_target_once(monkeypatch):
    """One `_combination` per distinct (structure constants, parity) pair:
    82 nonzero targets among the 436 nonzero pairs at n = 4, plus the zero
    of each parity."""
    calls = []
    combination = superfields._combination
    monkeypatch.setattr(superfields, "_combination",
                        lambda *args: calls.append(args[1:]) or combination(*args))
    for n, s in C8_SIZES:
        calls.clear()
        homomorphism_check(n, s)
        nn = n * n
        consts = superfields.qn_structure_constants(n)
        keys = {(consts[i][j], (i >= nn) ^ (j >= nn))
                for i in range(2 * nn) for j in range(2 * nn)}
        assert len(calls) == len(set(calls)) == len(keys), (n, s)
        if n == 4:
            assert len({k for k in keys if k[0]}) == 82


def test_homomorphism_check_reads_brackets_from_the_structure_constants(monkeypatch):
    """No qn_bracket call, and every one of the (2n^2)^2 pairs is checked."""
    calls = []
    monkeypatch.setattr(superfields, "qn_bracket",
                        lambda *args: calls.append(args) or qn_bracket(*args))
    for n, s in C8_SIZES:
        res = homomorphism_check(n, s)
        assert res["pairs"] == 4 * n ** 4, (n, s)
    assert calls == []


@pytest.mark.parametrize("k", [-1, 3, 5, 1.0, None])
def test_variable_constructors_reject_out_of_range_indices(k):
    for ctor in (SuperPolynomial.x, SuperPolynomial.xi):
        with pytest.raises(ValueError, match="outside 0..2"):
            ctor(3, k)


def test_make_accepts_canonical_monomials():
    """Products of the variables make the canonical monomial: the x-part's
    (index, exponent) pairs and the xi-part both increasing."""
    mono = (((0, 1), (2, 3)), (0, 1, 2))
    p = (xi(3, 0) * x(3, 2) * xi(3, 1) * x(3, 2) * x(3, 0) * x(3, 2) * xi(3, 2)).scale(2)
    assert p + SuperPolynomial.const(3, 0) == p
    assert p.terms == {mono: 2}


def test_arithmetic_rejects_different_nvars():
    p, q = x(3, 0), x(4, 0)
    for op in (lambda: p + q, lambda: p - q, lambda: p * q, lambda: q + p):
        with pytest.raises(ValueError, match="with different m"):
            op()
    with pytest.raises(ValueError):
        p + SuperPolynomial.zero(4)


def test_grassmann_and_super_polynomials_refuse_each_other():
    """Elements of the two term algebras of one m neither add, subtract nor
    multiply, and a derivation of either applies to its own algebra only."""
    g, p = GrassmannElement.generator(2, 1), x(2, 0)
    for a, b in ((g, p), (p, g)):
        for op in (lambda: a + b, lambda: a - b, lambda: a * b):
            with pytest.raises(ValueError, match=f"of a {type(a).__name__} and a "
                                                 f"{type(b).__name__}"):
                op()
    field = superfields.basis_fields(3, 1)[0]
    assert field.m == 2
    for d, a in ((grading_derivation(2), p), (field, g)):
        with pytest.raises(ValueError, match=f"^application of a {type(d).__name__} and a "
                                             f"{type(a).__name__}$"):
            d.apply(a)


SHARED = ("__add__", "__sub__", "__neg__", "scale", "__mul__", "_from_dict", "zero",
          "is_zero")


def test_grassmann_and_super_polynomials_share_one_arithmetic():
    def impl(cls, name):
        attr = getattr(cls, name)
        return getattr(attr, "__func__", attr)

    for name in SHARED:
        assert name not in vars(GrassmannElement) and name not in vars(SuperPolynomial)
        assert impl(GrassmannElement, name) is impl(SuperPolynomial, name), name


def test_cancelling_sum_is_zero():
    nv = 3
    mono = (((0, 1),), (1,))
    zero = SuperPolynomial.zero(nv)
    assert zero.terms == {} and type(zero.terms) is _Terms
    got = SuperPolynomial._from_dict(nv, {mono: Fraction(0), ((), ()): Fraction(0)})
    assert got == zero
    p = x(nv, 0) * xi(nv, 1)
    assert p - p == zero
    assert -zero == zero
    for c in (-1, 0, 1, 3, Fraction(1, 2)):
        assert zero.scale(c) == zero
    assert SuperPolynomial._from_dict(nv, {}) == zero
    assert SuperPolynomial.const(nv, 0) == zero
    assert -SuperPolynomial(nv, ()) == zero
    assert SuperPolynomial.zero(nv) is not GrassmannElement.zero(nv)
    assert SuperPolynomial.zero(nv) != GrassmannElement.zero(nv)


def test_m_of_a_field_is_r_times_s_and_read_only():
    """A field's m, its number of even (and of odd) variables, is r s, the m
    of each of its coefficients, and no second name holds it."""
    for r, s in ((1, 1), (2, 1), (2, 3)):
        d = derivation_zero(r, s, 1)
        assert d.m == r * s == d.c_x[0].m and len(d.c_x) == len(d.c_xi) == r * s
        with pytest.raises(AttributeError):
            d.m = 5
        assert not hasattr(d, "nvars") and not hasattr(d.c_x[0], "nvars")


# --- one derivation type ------------------------------------------------------

def test_both_derivation_types_share_one_arithmetic_and_bracket():
    for name in ("__add__", "__sub__", "__neg__", "scale", "is_zero", "apply", "bracket"):
        shared = getattr(Derivation, name)
        assert getattr(VectorValuedForm, name) is shared, name
        assert getattr(SuperDerivation, name) is shared, name
        assert name not in vars(VectorValuedForm) and name not in vars(SuperDerivation)
    # one Leibniz loop: each class supplies only its letter table and odd length
    assert VectorValuedForm._into is Derivation._into is SuperDerivation._into
    assert "_into" not in vars(VectorValuedForm) and "_into" not in vars(SuperDerivation)


def test_a_different_space_raises_value_error_even_with_a_zero():
    rng = random.Random(5)
    f = rng.choice([f for f in (fundamental_field(g, 1) for g in qn_basis(3))
                    if not f.is_zero()])                      # r, s = 2, 1
    for other in (derivation_zero(1, 2, f.parity), derivation_zero(1, 2, 1 - f.parity),
                  derivation_zero(2, 2, f.parity), fundamental_field(qn_basis(3)[1], 2)):
        for op in (lambda a, b: a + b, lambda a, b: a - b, bracket):
            with pytest.raises(ValueError, match="with different space"):
                op(f, other)
            with pytest.raises(ValueError, match="with different space"):
                op(other, f)


def test_nonzero_fields_of_different_parity_raise_value_error():
    fields = [fundamental_field(g, 1) for g in qn_basis(3)]
    even = next(f for f in fields if f.parity == 0 and not f.is_zero())
    odd = next(f for f in fields if f.parity == 1 and not f.is_zero())
    for a, b in ((even, odd), (odd, even)):
        with pytest.raises(ValueError, match="with different parity"):
            a + b
        with pytest.raises(ValueError, match="with different parity"):
            a - b
    assert bracket(even, odd).parity == 1


def test_a_zero_field_of_the_other_parity_is_absorbed():
    for f in (fundamental_field(g, 2) for g in qn_basis(4)):
        zero = derivation_zero(2, 2, 1 - f.parity)
        assert f + zero is f and zero + f is f and f - zero is f
        assert zero - f == -f == f.scale(-1)
        assert (zero - f).parity == f.parity


def test_images_are_read_only():
    f = fundamental_field(qn_basis(3)[0], 1)
    assert f.images == f.c_x + f.c_xi and len(f.c_x) == len(f.c_xi) == 2
    with pytest.raises(TypeError):
        f.c_x[0] = SuperPolynomial.zero(2)
    with pytest.raises(TypeError):
        f.c_xi[1] = SuperPolynomial.zero(2)
    with pytest.raises(AttributeError):
        f.c_x = f.c_xi
    with pytest.raises(AttributeError):
        f.images = ()


def random_super_derivation(rng, r, s, parity):
    """A field of the given parity: c_x[k] of that parity, c_xi[k] of the
    other, from random_super_polynomial's terms."""
    nv = r * s
    images = []
    for k in range(2 * nv):
        want = parity if k < nv else 1 - parity
        p = random_super_polynomial(rng, nv)
        images.append(SuperPolynomial._from_dict(
            nv, {mono: c for mono, c in p.terms.items() if len(mono[1]) % 2 == want}))
    return SuperDerivation(r, s, parity, terms_of(images))


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_arithmetic_is_canonical_and_agrees_with_fractions(seed):
    rng = random.Random(seed)
    r, s = rng.randint(1, 2), rng.randint(1, 2)
    nv = r * s
    a, b = random_super_polynomial(rng, nv), random_super_polynomial(rng, nv)
    d1, d2 = (random_super_derivation(rng, r, s, rng.randint(0, 1)) for _ in range(2))
    check_against_fractions(a, b, d1, d2)



@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_apply_and_bracket_match_the_per_call_kernel(seed):
    """The set-up fetched once per apply or bracket, the letter tables, the
    product memo and the skipped empty halves give the old kernel's values
    on random fields with (n, s) <= (4, 3)."""
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    s = rng.randint(1, min(3, n - 1))
    r, nv = n - s, (n - s) * s
    a, b = random_super_polynomial(rng, nv), random_super_polynomial(rng, nv)
    d1, d2 = (random_super_derivation(rng, r, s, rng.randint(0, 1)) for _ in range(2))
    check_against_old_kernel(a, b, d1, d2)


@pytest.mark.parametrize("n, s", [(3, 1), (4, 2)])
def test_basis_field_brackets_and_applies_match_the_per_call_kernel(n, s):
    """On every ordered pair of q_n basis fields, the bracket and the first
    field applied to each image of the second equal the old kernel's,
    coefficient types included."""
    fields = superfields.basis_fields(n, s)
    pairs = []
    for d1 in fields:
        for d2 in fields:
            pairs += leibniz_oracle.bracket_pairs(d1.bracket(d2),
                                                  leibniz_oracle.old_bracket(d1, d2))
            pairs += [(d1.apply(a), leibniz_oracle.old_apply(d1, a)) for a in d2.images]
    leibniz_oracle.assert_same_values(pairs)


# the basis derivations of criterion 4 at m = 3 and of criterion 8 at n = 3, 4
FLAT_FAMILIES = {
    "forms-m3": lambda: [VectorValuedForm.basis_element(3, mono, j)
                         for mono, j in wedge_basis(3)],
    **{f"q{n}-s{s}": (lambda n=n, s=s: superfields.basis_fields(n, s))
       for n in (3, 4) for s in (1, 2)},
}


@pytest.mark.parametrize("family", sorted(FLAT_FAMILIES))
def test_flat_brackets_and_applies_match_the_per_image_kernel(family):
    """On every ordered pair of a family's basis derivations, the bracket
    filled into one flat dict has the terms of the old per-image kernel's
    bracket, values and types (an int iff integral), never a zero value, and
    images equal to the old kernel's sorted elements; equal derivations hash
    equal; the first applied to each image of the second gives the old
    kernel's value.  Zero brackets of different grades have equal terms
    but are different derivations."""
    ds = FLAT_FAMILIES[family]()
    pairs, zeros = [], {}
    for d1 in ds:
        for d2 in ds:
            got = d1.bracket(d2)
            grade, images = leibniz_oracle.old_bracket_images(d1, d2)
            want = d1._relabel(grade, terms_of(images))
            assert got == want and hash(got) == hash(want) and got._grade == grade
            assert {k: type(c) for k, c in got.terms.items()} == \
                {k: type(c) for k, c in want.terms.items()}
            assert all(is_canonical(c) for c in got.terms.values())
            assert got.images == images
            pairs += zip(got.images, images)
            pairs += [(d1.apply(a), leibniz_oracle.old_apply(d1, a)) for a in d2.images]
            if got.is_zero():
                zeros.setdefault(grade, got)
    leibniz_oracle.assert_same_values(pairs)
    assert len(zeros) >= 2, family
    for a in zeros.values():
        for b in zeros.values():
            assert a.terms == b.terms and (a == b) == (a._grade == b._grade)


def test_letter_tables_are_kept_per_nvars():
    """xi_0 is generator nv + 0 of a field, so its letters depend on nvars:
    d/dxi_0 applied to xi_0 x_1 at nvars 2 and then at nvars 4, in one
    process, gives x_1 at both."""
    SuperDerivation._letter_tables.clear()
    for r, s in ((1, 2), (2, 2)):
        nv = r * s
        zero = SuperPolynomial.zero(nv)
        images = [zero] * (2 * nv)
        images[nv] = SuperPolynomial.const(nv, 1)
        d = SuperDerivation(r, s, 1, terms_of(images))
        a = SuperPolynomial.xi(nv, 0) * SuperPolynomial.x(nv, 1)
        assert d.apply(a) == SuperPolynomial.x(nv, 1), nv
    assert sorted(SuperDerivation._letter_tables) == [2, 4]


def test_every_memoized_product_is_the_monomial_product():
    """After a pass of criteria 4 and 8, each entry of a term algebra's
    product memo is `_mono_mul` of its key."""
    assert verify.check_c4_exterior()[0] and verify.check_c8_superfields()[0]
    for algebra in (GrassmannElement, SuperPolynomial):
        memo = algebra._products
        assert memo, algebra
        for (k, rest), product in memo.items():
            assert product == algebra._mono_mul(k, rest), (k, rest)


def test_integral_values_are_ints():
    mono = (((0, 1),), (1,))
    half = (x(2, 0) * xi(2, 1)).scale(Fraction(1, 2))
    assert half.scale(2).terms == {mono: 1} and type(half.scale(2).terms[mono]) is int
    for c in (True, Fraction(1, 1)):
        assert type(SuperPolynomial.const(2, c).terms[(), ()]) is int
    three, = SuperPolynomial.const(2, Fraction(3, 1)).terms.values()
    assert type(three) is int and three == 3
    for p in (SuperPolynomial.x(2, 0), SuperPolynomial.xi(2, 1)):
        assert all(type(c) is int for c in p.terms.values())
    assert type(SuperPolynomial.zero(2).constant_term()) is int


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_structure_constants_are_built_once_per_n_and_read_only(n):
    table = superfields.qn_structure_constants(n)
    assert superfields.qn_structure_constants(n) is table
    assert type(table) is tuple and len(table) == 2 * n * n
    assert all(type(row) is tuple and len(row) == 2 * n * n for row in table)
    with pytest.raises(TypeError):
        table[0][0] = ()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_structure_constants_and_basis_entries_are_ints(n):
    for row in superfields.qn_structure_constants(n):
        for entries in row:
            assert all(type(c) is int and c for _, c in entries)
    for g in qn_basis(n):
        assert all(type(x) is int for X in (g.A, g.B) for row in X for x in row)


def test_qn_entries_are_canonical():
    g = QnElement.make(2, A=[[Fraction(2, 2), Fraction(1, 2)], [True, 0]])
    assert g.A == ((1, Fraction(1, 2)), (1, 0)) and g.B == ((0, 0), (0, 0))
    assert_canonical_entries(g)
    # (1/2) * 2 is integral: the bracket's entries are ints there
    h = QnElement.make(2, A=[[0, 0], [2, 0]])
    assert_canonical_entries(qn_bracket(g, h))
    for k in kernel_of_action(3, 1):
        assert_canonical_entries(k)
