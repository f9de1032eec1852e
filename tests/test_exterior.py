import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canonical import assert_canonical, check_against_fractions
from leibniz_oracle import (assert_same_values, bracket_pairs, check_against_old_kernel,
                            merge_sign, perm_sign)

from flagcoh.exterior import (
    GrassmannElement,
    VectorValuedForm,
    apply_derivation,
    basis_monomials,
    bracket,
    contraction_c,
    decompose_im_j_ker_c,
    grading_derivation,
    j_map,
    terms_of,
    wedge_basis,
)


def G(m, data):
    return GrassmannElement.make(m, {k: Fraction(v) for k, v in data.items()})


def gen(m, j):
    return GrassmannElement.generator(m, j)


def zero_form(m, degree):
    return VectorValuedForm(m, degree, terms_of(()))


def random_form(rng, m, degree):
    comps = []
    for _ in range(m):
        data = {}
        for mono in basis_monomials(m, degree + 1):
            if rng.random() < 0.5:
                data[mono] = Fraction(rng.randint(-3, 3))
        comps.append(G(m, data))
    return VectorValuedForm.make(m, degree, comps)


# --- multilinear-form oracles ------------------------------------------------
#
# Identify Lambda^q E with antisymmetric q-forms on E* by the determinant
# convention; each displayed alternation formula then holds up to one
# conversion constant per degree, measured on a probe input and verified on
# every basis input.  The constants are recorded facts, not inputs to the
# implementation.

def det_form_value(a: GrassmannElement, xs):
    """a as an antisymmetric form, evaluated on basis covectors xi_{t}^*."""
    q = len(xs)
    total = Fraction(0)
    for mono, c in a.terms:
        if len(mono) != q:
            continue
        if set(mono) != set(xs):
            continue
        # sign of the permutation taking xs to sorted order
        perm = [sorted(xs).index(x) for x in xs]
        sign = 1
        seen = [False] * q
        for i in range(q):
            if seen[i]:
                continue
            j = i
            clen = 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                clen += 1
            if clen % 2 == 0:
                sign = -sign
        total += sign * c
    return total


def form_to_grassmann(m, q, value_fn):
    data = {}
    for mono in basis_monomials(m, q):
        data[mono] = value_fn(list(mono))
    return GrassmannElement.make(m, data)


def i_formula_oracle(phi: VectorValuedForm, a: GrassmannElement, q: int):
    """Alternation formula for i(phi)(a), det convention, no prefactor.

    Returns the (p+q)-form as a Grassmann element; the caller divides by the
    measured conversion constant.
    """
    m, p = phi.m, phi.degree
    import math

    def value(xs):
        total = Fraction(0)
        for alpha in itertools.permutations(range(p + q)):
            sign = perm_sign(alpha)
            head = [xs[i] for i in alpha[: p + 1]]
            tail = [xs[i] for i in alpha[p + 1:]]
            # phi(head) = sum_k det_form(comp_k)(head) xi_k*
            for k in range(1, m + 1):
                ck = det_form_value(phi.images[k - 1], head)
                if ck:
                    total += sign * ck * det_form_value(a, [k] + tail)
        return total / (math.factorial(p + 1) * math.factorial(q - 1))

    return form_to_grassmann(m, p + q, value)


def j_formula_oracle(m: int, psi: GrassmannElement):
    """p! sum_k (-1)^{k-1} psi(..hat x_k..) x_k as a vector-valued form."""
    import math

    p = psi.is_homogeneous()
    comps_data = [dict() for _ in range(m)]
    for mono in basis_monomials(m, p + 1):
        xs = list(mono)
        for k_pos in range(p + 1):
            rest = xs[:k_pos] + xs[k_pos + 1:]
            val = det_form_value(psi, rest)
            if val:
                sgn = -1 if k_pos % 2 else 1
                tgt = xs[k_pos]
                comps_data[tgt - 1][mono] = (
                    comps_data[tgt - 1].get(mono, Fraction(0))
                    + math.factorial(p) * sgn * val
                )
    comps = [GrassmannElement.make(m, d) for d in comps_data]
    return VectorValuedForm.make(m, p, comps)


def c_formula_oracle(phi: VectorValuedForm):
    """sum_k phi(xi_k*, x_1..x_p)(xi_k) under the det convention."""
    m, p = phi.m, phi.degree

    def value(xs):
        total = Fraction(0)
        for k in range(1, m + 1):
            total += det_form_value(phi.images[k - 1], [k] + xs)
        return total

    return form_to_grassmann(m, p, value)


# --- basic derivation behavior ----------------------------------------------

def test_partial_derivative():
    m = 3
    d1 = VectorValuedForm.basis_element(m, (), 1)
    assert apply_derivation(d1, G(m, {(1, 2): 1})) == G(m, {(2,): 1})
    assert apply_derivation(d1, G(m, {(2, 3): 1})).is_zero()
    # derivations kill scalars
    phi = VectorValuedForm.basis_element(m, (1, 2), 3)
    assert apply_derivation(phi, G(m, {(): 1})).is_zero()


def test_grading_derivation_eq_1_1():
    m = 4
    eps = grading_derivation(m)
    for p in range(m + 1):
        for mono in basis_monomials(m, p):
            a = G(m, {mono: 1})
            assert apply_derivation(eps, a) == a.scale(p)


def test_grading_bracket_identity():
    """[eps, v] = p v for v in W(E)_p."""
    m = 3
    eps = grading_derivation(m)
    for mono, j in wedge_basis(m):
        v = VectorValuedForm.basis_element(m, mono, j)
        br = bracket(eps, v)
        expect = v.scale(v.degree)
        assert br.images == expect.images


def test_insertion_of_j_is_grading_multiple():
    """i(j(psi)) = psi * eps."""
    m = 4
    rng = random.Random(1)
    for p in range(m + 1):
        data = {mono: Fraction(rng.randint(-2, 2)) for mono in basis_monomials(m, p)}
        psi = G(m, data)
        jpsi = j_map(m, psi)
        for q in range(m + 1):
            for mono in basis_monomials(m, q):
                a = G(m, {mono: 1})
                assert apply_derivation(jpsi, a) == (psi * a).scale(q)


def test_j_examples():
    m = 3
    # j(1) = identity form = epsilon's symbol
    assert j_map(m, G(m, {(): 1})).images == grading_derivation(m).images
    jxi1 = j_map(m, gen(m, 1))
    assert jxi1.images[0].is_zero()
    assert jxi1.images[1] == G(m, {(1, 2): 1})
    assert jxi1.images[2] == G(m, {(1, 3): 1})


def test_j_injective_below_top_degree():
    for m in (2, 3, 4):
        for p in range(m):
            monos = basis_monomials(m, p)
            images = []
            for mono in monos:
                jm = j_map(m, G(m, {mono: 1}))
                flat = []
                for comp in jm.images:
                    d = comp.tdict()
                    flat.extend(d.get(t, Fraction(0)) for t in basis_monomials(m, p + 1))
                images.append(flat)
            from flagcoh.scalars import rank

            assert rank(images) == len(monos)
        # and j is 0 at top degree
        top = basis_monomials(m, m)[0]
        assert j_map(m, G(m, {top: 1})).is_zero()


# --- contraction -------------------------------------------------------------

def test_cj_normalization_all_p_m_le_5():
    """c(j(psi)) = p! (m-p) psi for all p < m <= 5 on all basis psi."""
    import math

    for m in range(1, 6):
        for p in range(m):
            for mono in basis_monomials(m, p):
                psi = G(m, {mono: 1})
                got = contraction_c(j_map(m, psi))
                assert got == psi.scale(math.factorial(p) * (m - p)), (m, p, mono)


def test_c_identity_form_and_zero():
    m = 4
    assert contraction_c(grading_derivation(m)) == G(m, {(): 1}).scale(m)
    assert contraction_c(zero_form(m, 2)).is_zero()


def test_image_j_kernel_c_splitting():
    m = 4
    rng = random.Random(7)
    for p in range(m):
        for _ in range(5):
            phi = random_form(rng, m, p)
            psi, chi = decompose_im_j_ker_c(phi)
            assert contraction_c(chi).is_zero()
            recon = j_map(m, psi, degree=p) + chi
            assert recon.images == phi.images
    # j-part of j(psi) is psi; ker-c input passes through
    psi0 = G(m, {(1, 2): 3})
    jp, kc = decompose_im_j_ker_c(j_map(m, psi0))
    assert jp == psi0 and kc.is_zero()
    with pytest.raises(ValueError):
        decompose_im_j_ker_c(random_form(rng, 3, 3))


# --- bracket -----------------------------------------------------------------

def _forms_equal(f1, f2):
    return f1.images == f2.images


def test_bracket_constant_coefficient_fields():
    m = 3
    d1 = VectorValuedForm.basis_element(m, (), 1)
    d2 = VectorValuedForm.basis_element(m, (), 2)
    assert bracket(d1, d2).is_zero()
    assert bracket(d1, d1).is_zero()


@pytest.mark.parametrize("m", [2, 3, 4])
def test_i_bracket_is_supercommutator_exhaustive(m):
    """i({phi,psi}) = [i(phi), i(psi)] on all basis pairs, all monomials."""
    basis = wedge_basis(m)
    monos = [mono for p in range(m + 1) for mono in basis_monomials(m, p)]
    for (mo1, j1) in basis:
        phi = VectorValuedForm.basis_element(m, mo1, j1)
        for (mo2, j2) in basis:
            psi = VectorValuedForm.basis_element(m, mo2, j2)
            br = bracket(phi, psi)
            sgn = -1 if (phi.degree % 2) and (psi.degree % 2) else 1
            for mono in monos:
                a = G(m, {mono: 1})
                lhs = apply_derivation(br, a)
                rhs = apply_derivation(phi, apply_derivation(psi, a)) - (
                    apply_derivation(psi, apply_derivation(phi, a)).scale(sgn)
                )
                assert lhs == rhs, (mo1, j1, mo2, j2, mono)


def test_super_jacobi_basis_triples_m_le_3():
    """{a,{b,c}} = {{a,b},c} + (-1)^{p(a)p(b)} {b,{a,c}} on all basis triples."""
    for m in (2, 3):
        basis = [VectorValuedForm.basis_element(m, mo, j) for mo, j in wedge_basis(m)]
        table = {}
        for i1, b1 in enumerate(basis):
            for i2, b2 in enumerate(basis):
                table[(i1, i2)] = bracket(b1, b2)
        for i1, b1 in enumerate(basis):
            for i2, b2 in enumerate(basis):
                s12 = -1 if (b1.degree % 2) and (b2.degree % 2) else 1
                for i3, b3 in enumerate(basis):
                    lhs = bracket(b1, table[(i2, i3)])
                    rhs = bracket(table[(i1, i2)], b3) + bracket(
                        b2, table[(i1, i3)]
                    ).scale(s12)
                    assert _forms_equal(lhs, rhs), (m, i1, i2, i3)


def test_dim_w_e_p():
    import math

    for m in (2, 3, 4, 5):
        counts = {}
        for mono, j in wedge_basis(m):
            counts[len(mono) - 1] = counts.get(len(mono) - 1, 0) + 1
        for p in range(-1, m + 1):
            assert counts.get(p, 0) == m * math.comb(m, p + 1)
        assert set(counts) == set(range(-1, m + 1)) - (
            {m} if math.comb(m, m + 1) == 0 else set()
        )


# --- alternation-formula oracles ---------------------------------------------

def test_i_formula_oracle_matches_leibniz_m_le_4():
    """The displayed i(phi)(a) alternation formula agrees with the Leibniz
    implementation up to one measured constant per (p, q)."""
    for m in (2, 3, 4):
        constants = {}
        for mono, j in wedge_basis(m):
            phi = VectorValuedForm.basis_element(m, mono, j)
            p = phi.degree
            for q in range(1, m + 1):
                for amono in basis_monomials(m, q):
                    if p + q > m or p + q < 0:
                        continue
                    a = G(m, {amono: 1})
                    got = apply_derivation(phi, a)
                    oracle = i_formula_oracle(phi, a, q)
                    if got.is_zero():
                        assert oracle.is_zero(), (m, mono, j, amono)
                        continue
                    ratios = set()
                    gd, od = got.tdict(), oracle.tdict()
                    assert set(gd) == set(k for k, v in od.items() if v)
                    for k, v in gd.items():
                        ratios.add(od[k] / v)
                    assert len(ratios) == 1
                    const = ratios.pop()
                    key = (p, q)
                    if key in constants:
                        assert constants[key] == const, (m, key)
                    else:
                        constants[key] = const
        # the conversion constant is degree-dependent but input-independent
        assert all(c != 0 for c in constants.values())


def test_j_formula_oracle_matches_algebraic_j():
    for m in (2, 3, 4):
        constants = {}
        for p in range(m):
            for mono in basis_monomials(m, p):
                psi = G(m, {mono: 1})
                direct = j_map(m, psi)
                oracle = j_formula_oracle(m, psi)
                ratios = set()
                for cd, co in zip(direct.images, oracle.images):
                    dd, do = cd.tdict(), co.tdict()
                    assert set(dd) == set(do)
                    for k in dd:
                        ratios.add(do[k] / dd[k])
                if ratios:
                    assert len(ratios) == 1
                    const = ratios.pop()
                    if p in constants:
                        assert constants[p] == const
                    else:
                        constants[p] = const


def test_c_formula_oracle_matches_normalized_c():
    """The displayed contraction formula agrees with contraction_c up to a
    measured per-degree constant (the stated cj = p!(m-p) law pins ours)."""
    rng = random.Random(11)
    for m in (2, 3, 4):
        for p in range(m):
            consts = set()
            for _ in range(4):
                phi = random_form(rng, m, p)
                mine = contraction_c(phi)
                oracle = c_formula_oracle(phi)
                md, od = mine.tdict(), oracle.tdict()
                if not md:
                    assert not od
                    continue
                assert set(md) == set(k for k, v in od.items() if v)
                for k, v in md.items():
                    consts.add(od[k] / v)
            assert len(consts) <= 1, (m, p)


# --- the product and Leibniz loop the shared kernel replaced, as oracles ------
#
# The Leibniz loop is copied from the implementation before `_merge_sign`
# became the one Grassmann-monomial kernel: it builds
# xi_left * phi(xi_letter) * xi_right for every letter.  The monomial product
# takes its sign from `leibniz_oracle.merge_sign`, an inversion count.  They
# run on plain dicts, so they share no code with the library's kernel.

def old_mul(x, y):
    acc = {}
    for ka, ca in x.items():
        for kb, cb in y.items():
            k, s = merge_sign(ka, kb)
            if k is not None:
                acc[k] = acc.get(k, Fraction(0)) + s * ca * cb
    return acc


def old_apply_derivation(phi, a):
    par = phi.degree % 2
    out = {}
    for mono, c in a.terms:
        for pos, letter in enumerate(mono):
            sign = -1 if (par and pos % 2 == 1) else 1
            left = {tuple(mono[:pos]): Fraction(1)}
            right = {tuple(mono[pos + 1:]): Fraction(1)}
            term = old_mul(old_mul(left, phi.images[letter - 1].tdict()), right)
            for k, v in term.items():
                out[k] = out.get(k, Fraction(0)) + sign * c * v
    return GrassmannElement.make(phi.m, out)


def random_element(rng, m, degrees):
    data = {}
    for q in degrees:
        for mono in basis_monomials(m, q):
            if rng.random() < 0.6:
                data[mono] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return G(m, data)


def test_kernel_matches_old_leibniz_loop_m_le_5():
    """apply_derivation and the product equal the per-letter loop on random
    rational elements, for m <= 5 and every derivation degree -1..m, on
    homogeneous and mixed-degree arguments."""
    rng = random.Random(5)
    for m in range(1, 6):
        for degree in range(-1, m + 1):
            for _ in range(4):
                comps = [random_element(rng, m, [degree + 1]) for _ in range(m)]
                phi = VectorValuedForm.make(m, degree, comps)
                q = rng.randint(0, m)
                for a in (random_element(rng, m, [q]),
                          random_element(rng, m, range(m + 1))):
                    got = apply_derivation(phi, a)
                    assert got == old_apply_derivation(phi, a), (m, degree)
                    assert_canonical(got)
                    b = random_element(rng, m, range(m + 1))
                    prod = a * b
                    assert prod == GrassmannElement.make(m, old_mul(a.tdict(), b.tdict()))
                    assert_canonical(prod)
                    assert_canonical(a + b)
                    assert_canonical(a - b)


def test_kernel_matches_old_leibniz_loop_on_every_basis_pair_m_le_3():
    for m in (1, 2, 3):
        for mono, j in wedge_basis(m):
            phi = VectorValuedForm.basis_element(m, mono, j)
            for q in range(m + 1):
                for amono in basis_monomials(m, q):
                    a = G(m, {amono: 1})
                    assert apply_derivation(phi, a) == old_apply_derivation(phi, a)


def test_make_rejects_malformed_monomials():
    for bad in ((2, 1), (1, 1), (0,), (4,)):
        with pytest.raises(ValueError, match="monomials"):
            GrassmannElement.make(3, {bad: 1})
    with pytest.raises(ValueError, match="j_map needs a homogeneous element"):
        j_map(3, G(3, {(1,): 1, (1, 2): 1}))
    for degree, comp in ((0, {(1, 2): 1}), (1, {(): 1}), (0, {(1,): 1, (): 1})):
        with pytest.raises(ValueError, match="homogeneous"):
            VectorValuedForm.make(2, degree, [G(2, comp), G(2, {})])


def test_arithmetic_rejects_different_m_as_super_polynomials_do():
    a, b = GrassmannElement.generator(2, 1), GrassmannElement.generator(3, 1)
    for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: b - a,
               lambda: a + GrassmannElement.zero(3)):
        with pytest.raises(ValueError, match="polynomials in [23] and [23] variables"):
            op()


@pytest.mark.parametrize("optimized", [False, True], ids=["plain", "-O"])
def test_inhomogeneous_j_map_raises_with_and_without_python_O(request, optimized):
    """The homogeneity check of j_map is a ValueError, not an assert that
    -O strips: the plain case raises in process, and the -O case is the
    plain case replayed under python -O (tests/conftest.py), so only it
    asks for that run."""
    if optimized:
        run = request.getfixturevalue("under_python_O")
        assert run.passed("tests.test_exterior::"
                          "test_inhomogeneous_j_map_raises_with_and_without_python_O[plain]")
        return
    with pytest.raises(ValueError, match="j_map needs a homogeneous element"):
        j_map(3, G(3, {(1,): 1, (1, 2): 1}))


# --- the one-pass bracket against the two-barwedge bracket it replaced -------

def barwedge(phi, psi):
    """The insertion product the bracket was built from: i(psi) applied to
    the images of phi, of degree p + q, zero outside [-1, m]."""
    deg = phi.degree + psi.degree
    if deg < -1 or deg > phi.m:
        return zero_form(phi.m, min(max(deg, -1), phi.m))
    return VectorValuedForm(phi.m, deg, terms_of([psi.apply(c) for c in phi.images]))


def old_bracket(phi, psi):
    """{phi, psi} as barwedge(psi, phi) -+ barwedge(phi, psi), + when both
    are odd: two intermediate forms, a negation and a sum."""
    left, right = barwedge(psi, phi), barwedge(phi, psi)
    return left + right if (phi.degree % 2) and (psi.degree % 2) else left + (-right)


def random_rational_form(rng, m, degree, density):
    comps = [random_element(rng, m, [degree + 1]) if rng.random() < density
             else GrassmannElement.zero(m) for _ in range(m)]
    return VectorValuedForm.make(m, degree, comps)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_bracket_matches_the_two_barwedge_oracle_m_le_4(m):
    """Every degree pair in [-1, m]^2, among them the clamped pairs with
    p + q < -1 and p + q > m, on random rational forms with some zero
    components."""
    rng = random.Random(40 + m)
    for p in range(-1, m + 1):
        for q in range(-1, m + 1):
            for density in (1.0, 0.5, 0.0):
                phi = random_rational_form(rng, m, p, density)
                psi = random_rational_form(rng, m, q, 1.0)
                for a, b in ((phi, psi), (psi, phi)):
                    got = bracket(a, b)
                    assert got == old_bracket(a, b), (m, p, q)
                    for comp in got.images:
                        assert_canonical(comp)


def test_cancelled_bracket_component_is_the_shared_zero():
    """{phi, phi} of an even form: on each component the two halves
    i(phi)phi_k and -i(phi)phi_k cancel exactly.  Negating, scaling or
    making a zero gives the shared zero too."""
    rng = random.Random(12)
    for m in (2, 3, 4):
        zero = GrassmannElement.zero(m)
        assert zero is GrassmannElement.zero(m)
        assert -zero is zero
        for c in (-1, 0, 1, 3, Fraction(1, 2)):
            assert zero.scale(c) is zero
        assert GrassmannElement.make(m, {}) is zero
        assert GrassmannElement.make(m, {(1,): 0}) is zero
        assert GrassmannElement(m, ()).scale(-1) is zero
        cancelled = 0
        for density in (1.0, 0.5, 1.0):
            phi = random_rational_form(rng, m, 0, density)
            br = bracket(phi, phi)
            cancelled += sum(bool(apply_derivation(phi, half).terms)
                             for half in phi.images)
            for comp in br.images:
                assert comp == zero
                assert comp is zero
        assert cancelled, m
    # a vanishing component beside a surviving one
    m = 2
    phi = VectorValuedForm.basis_element(m, (1,), 1)     # xi1 d/dxi1
    psi = VectorValuedForm.basis_element(m, (1,), 2)     # xi1 d/dxi2
    br = bracket(phi, psi)
    assert br.images[0] is GrassmannElement.zero(m)
    assert br.images[1] == G(m, {(1,): 1})


def test_bracket_calls_apply_derivation_zero_times(monkeypatch):
    import flagcoh.exterior as exterior

    calls = []
    apply = exterior.apply_derivation
    monkeypatch.setattr(exterior, "apply_derivation",
                        lambda phi, a: calls.append(a) or apply(phi, a))
    rng = random.Random(3)
    for p, q in ((0, 1), (1, 1), (-1, 2), (2, 2)):
        br = exterior.bracket(random_form(rng, 3, p), random_form(rng, 3, q))
        assert br.degree == min(p + q, 3)
    assert calls == []


def test_sub_matches_add_of_negation():
    rng = random.Random(8)
    for m in range(1, 5):
        for _ in range(10):
            a = random_element(rng, m, range(m + 1))
            b = random_element(rng, m, range(m + 1))
            for x, y in ((a, b), (b, a), (a, a), (a, GrassmannElement.zero(m)),
                         (GrassmannElement.zero(m), b)):
                assert x - y == x + (-y)
                assert_canonical(x - y)
        for p in range(-1, m + 1):
            phi, psi = random_form(rng, m, p), random_form(rng, m, p)
            assert phi - psi == phi + (-psi)
            for q in range(-1, m + 1):
                if q == p:
                    continue
                zero = zero_form(m, q)
                assert phi - zero == phi + (-zero)
                assert zero - phi == zero + (-phi)
                other = random_form(rng, m, q)
                if not phi.is_zero() and not other.is_zero():
                    with pytest.raises(ValueError, match="of degree"):
                        phi - other


def test_scale_by_one_is_the_same_object():
    rng = random.Random(9)
    phi = random_form(rng, 3, 1)
    assert phi.scale(1) is phi
    assert phi.images[0].scale(Fraction(1)) is phi.images[0]


def test_a_different_m_raises_value_error_even_with_a_zero():
    rng = random.Random(10)
    phi = random_form(rng, 3, 1)
    for other in (zero_form(2, 1), zero_form(2, 0),
                  random_form(rng, 4, 1)):
        for op in (lambda a, b: a + b, lambda a, b: a - b, bracket):
            with pytest.raises(ValueError, match="on 3 and|on [24] and 3"):
                op(phi, other)
            with pytest.raises(ValueError, match="on 3 and|on [24] and 3"):
                op(other, phi)
    with pytest.raises(ValueError, match="derivation in 3 variables"):
        apply_derivation(phi, gen(4, 1))


def test_a_derivation_refuses_a_number():
    """The operand's class is tested before its space is read: a sum, a
    difference and a bracket with a number raise the mismatch ValueError."""
    eps = grading_derivation(2)
    for op in (lambda: eps + 1, lambda: eps - 1, lambda: eps.bracket(1)):
        with pytest.raises(ValueError, match="of a VectorValuedForm and a int"):
            op()


def test_form_images_are_read_only():
    phi = random_form(random.Random(11), 3, 0)
    with pytest.raises(TypeError):
        phi.images[0] = GrassmannElement.zero(3)
    with pytest.raises(AttributeError):
        phi.images = phi.images
    with pytest.raises(AttributeError):
        phi.degree = 1


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_arithmetic_is_canonical_and_agrees_with_fractions(seed):
    rng = random.Random(seed)
    m = rng.randint(1, 4)
    a = random_element(rng, m, range(m + 1))
    b = random_element(rng, m, range(m + 1))
    p, q = rng.randint(-1, m), rng.randint(-1, m)
    d1, d2 = (VectorValuedForm.make(m, deg, [random_element(rng, m, [deg + 1])
                                             for _ in range(m)]) for deg in (p, q))
    check_against_fractions(a, b, d1, d2)



@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_apply_and_bracket_match_the_per_call_kernel(seed):
    """The set-up fetched once per apply or bracket, the letter tables, the
    product memo and the skipped empty halves give the old kernel's values
    on random forms with some zero components."""
    rng = random.Random(seed)
    m = rng.randint(1, 4)
    a = random_element(rng, m, range(m + 1))
    b = random_element(rng, m, [rng.randint(0, m)])
    d1, d2 = (random_rational_form(rng, m, rng.randint(-1, m), rng.choice([0.3, 0.7, 1.0]))
              for _ in range(2))
    check_against_old_kernel(a, b, d1, d2)


def test_a_warm_compiled_action_gives_the_values_of_a_fresh_copy():
    """A form whose compiled action already holds the monomials it met
    applies and brackets as a copy built from its fields, whose set-up and
    compiled images are made afresh: equal values, coefficient types
    included, on rational forms of every degree."""
    rng = random.Random(12)
    m = 4
    forms = [random_rational_form(rng, m, p, 0.7) for p in range(-1, m + 1)]
    elements = [random_element(rng, m, range(m + 1)) for _ in range(4)]
    for d in forms:
        for a in elements:
            d.apply(a)
        for e in forms:
            d.bracket(e), e.bracket(d)
    for d in forms:
        assert d._leibniz()[0]
        fresh = VectorValuedForm(d.m, d.degree, d.terms)
        assert not hasattr(fresh, "_setup")
        pairs = [(d.apply(a), fresh.apply(a)) for a in elements]
        for e in forms:
            copy = VectorValuedForm(e.m, e.degree, e.terms)
            pairs += bracket_pairs(d.bracket(e), fresh.bracket(copy))
            pairs += bracket_pairs(e.bracket(d), copy.bracket(fresh))
        assert_same_values(pairs)


def test_integral_values_are_ints():
    half = G(3, {(1,): Fraction(1, 2), (1, 2): Fraction(3, 2)})
    assert half.scale(2).terms == (((1,), 1), ((1, 2), 3))
    assert all(type(c) is int for _, c in half.scale(2).terms)
    for c in (True, Fraction(2, 2), 1.0):
        (_, v), = GrassmannElement.make(2, {(1,): c}).terms
        assert type(v) is int and v == 1
    assert type(gen(2, 1).terms[0][1]) is int


def test_splitting_of_the_criterion_4_forms_is_canonical():
    """psi and chi of the random forms check_c4_exterior splits: psi comes
    from a scale by 1 / (p! (m - p)), so it mixes ints and Fractions."""
    for m in (2, 3, 4):
        rng = random.Random(4)
        for p in range(m):
            comps = [GrassmannElement.make(m, {mono: Fraction(rng.randint(-2, 2))
                                               for mono in basis_monomials(m, p + 1)})
                     for _ in range(m)]
            psi, chi = decompose_im_j_ker_c(VectorValuedForm.make(m, p, comps))
            for x in (psi,) + chi.images:
                assert_canonical(x)


def _with_one_more_term(f):
    """f with xi_1 added to its first image: a different form of f's degree."""
    first = f.images[0] + GrassmannElement.make(f.m, {(1,): 1})
    return VectorValuedForm(f.m, f.degree, terms_of((first,) + f.images[1:]))


def _n_terms(f):
    return sum(len(a.terms) for a in f.images)


def test_criterion_4_catches_a_bracket_wrong_off_the_basis(monkeypatch):
    """A bracket that is wrong only when its second argument has two or
    more terms passes every basis-pair loop; super-Jacobi, which brackets
    with the table's values, must still catch it."""
    import flagcoh.exterior as exterior
    from flagcoh.verify import check_c4_exterior

    true_bracket = exterior.bracket

    def wrong(x, y):
        z = true_bracket(x, y)
        return _with_one_more_term(z) if _n_terms(y) >= 2 else z

    monkeypatch.setattr(exterior, "bracket", wrong)
    assert check_c4_exterior() == (False, "super-Jacobi failed at m=2")


def test_criterion_4_catches_one_wrong_basis_bracket(monkeypatch):
    import flagcoh.exterior as exterior
    from flagcoh.verify import check_c4_exterior

    true_bracket = exterior.bracket
    bad = (VectorValuedForm.basis_element(2, (1,), 1),
           VectorValuedForm.basis_element(2, (1, 2), 2))

    def wrong(x, y):
        z = true_bracket(x, y)
        return _with_one_more_term(z) if (x, y) == bad else z

    monkeypatch.setattr(exterior, "bracket", wrong)
    assert check_c4_exterior() == (False, "bracket identity failed at m=2")


def test_criterion_4_brackets_each_distinct_pair_once_in_super_jacobi(monkeypatch):
    """Super-Jacobi (the m = 2, 3 brackets after the last m = 4 one) passes
    no (x, y) pair to the bracket twice, and the whole check stays well
    under the 48,480 brackets of one call per operand pair and triple."""
    from collections import Counter

    import flagcoh.exterior as exterior
    from flagcoh.verify import check_c4_exterior

    calls = []
    true_bracket = exterior.bracket
    monkeypatch.setattr(exterior, "bracket",
                        lambda x, y: calls.append((x, y)) or true_bracket(x, y))
    assert check_c4_exterior()[0]
    last_m4 = max(k for k, (x, _) in enumerate(calls) if x.m == 4)
    jacobi = Counter(calls[last_m4 + 1:])
    assert jacobi and {x.m for x, _ in jacobi} == {2, 3}
    assert max(jacobi.values()) == 1
    assert len(calls) < 10_000, len(calls)


def test_criterion_4_catches_a_pair_given_another_pairs_bracket(monkeypatch):
    """A pair whose bracket is another pair's correct one, seen earlier in
    the loop, meets a bracket id that is already decided; its right-hand
    sides differ, so the verdict memo must still decide it."""
    import flagcoh.exterior as exterior
    from flagcoh.verify import check_c4_exterior

    true_bracket = exterior.bracket
    seen = (VectorValuedForm.basis_element(2, (), 1),
            VectorValuedForm.basis_element(2, (1, 2), 1))
    bad = (VectorValuedForm.basis_element(2, (), 1),
           VectorValuedForm.basis_element(2, (1, 2), 2))
    assert true_bracket(*seen) != true_bracket(*bad)
    assert not true_bracket(*seen).is_zero()

    def wrong(x, y):
        return true_bracket(*seen) if (x, y) == bad else true_bracket(x, y)

    monkeypatch.setattr(exterior, "bracket", wrong)
    assert check_c4_exterior() == (False, "bracket identity failed at m=2")


def test_criterion_4_applies_brackets_once_per_distinct_bracket_generator_and_rhs(
        monkeypatch):
    """Every basis pair is bracketed, in order, and no bracket is ever
    applied: i([phi, psi])xi_g is read as the bracket's image of xi_g.  At
    m = 4 the 4,096 pairs give 180 distinct brackets."""
    import flagcoh.exterior as exterior
    from flagcoh.verify import check_c4_exterior

    calls, applied = [], []
    true_bracket, true_apply = exterior.bracket, exterior.apply_derivation
    monkeypatch.setattr(exterior, "bracket", lambda x, y: calls.append(
        (x, y, true_bracket(x, y))) or calls[-1][2])
    monkeypatch.setattr(exterior, "apply_derivation",
                        lambda phi, a: applied.append(phi) or true_apply(phi, a))
    assert check_c4_exterior()[0]
    # every result is kept alive in `calls`, so ids tell them apart
    results = {id(b) for _, _, b in calls}
    assert applied and not any(id(phi) in results for phi in applied)
    # the pairs come first: 8^2 at m = 2, 24^2 at m = 3, 64^2 at m = 4
    start = 0
    for m in (2, 3, 4):
        basis = [VectorValuedForm.basis_element(m, mo, j) for mo, j in wedge_basis(m)]
        pairs = calls[start:start + len(basis) ** 2]
        assert [(x, y) for x, y, _ in pairs] == [(x, y) for x in basis for y in basis]
        start += len(basis) ** 2
    assert len(basis) == 64 and len({b for _, _, b in pairs}) == 180
