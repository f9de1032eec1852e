"""The canonical coefficient form shared by the exterior, superfields,
invforms and liecoh tests: a coefficient is an int when integral and a
Fraction otherwise.  Also `nested`, the one read of a form's or a
cochain's flat entries as vectors by key; `form_value`, an invariant form
read on index tuples in any order from its canonical (increasing) keys;
and `add_into`, the plain sparse add of the test oracles, which share no
code with the library kernels they check."""

from fractions import Fraction

from flagcoh.exterior import Derivation, terms_of
from flagcoh.invforms import _sorted_with_sign
from flagcoh.scalars import canonical


def is_canonical(c, zero_ok: bool = False) -> bool:
    """An int (never a bool), nonzero unless zero_ok, or a non-integral
    Fraction; zero_ok is for QnElement entries, where 0 fills the blocks."""
    if type(c) is int:
        return zero_ok or c != 0
    return type(c) is Fraction and c.denominator != 1


def assert_canonical(x) -> None:
    """Strictly increasing monomials and canonical nonzero coefficients."""
    keys = [k for k, _ in x.terms]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert all(is_canonical(c) for _, c in x.terms), x.terms


def fraction_copy(x):
    """x with every coefficient a Fraction, built past the constructors that
    would make the integral ones ints: arithmetic on the copy starts from
    Fractions only."""
    if isinstance(x, Derivation):
        return x._relabel(x._grade, terms_of([fraction_copy(a) for a in x.images]))
    return type(x)(x.m, tuple((k, Fraction(c)) for k, c in x.terms))


def check_against_fractions(a, b, d1, d2) -> None:
    """+, -, negation, *, scale (by an int, by 1/2 and then by 2), apply and
    the bracket on a, b (term-algebra elements) and d1, d2 (derivations)
    give canonical results equal to the same computations on Fraction
    copies."""
    fa, fb, fd1, fd2 = map(fraction_copy, (a, b, d1, d2))
    half = a.scale(Fraction(1, 2))
    pairs = [
        (a + b, fa + fb), (a - b, fa - fb), (-a, -fa), (a * b, fa * fb),
        (a.scale(-3), fa.scale(Fraction(-3))), (half, fa.scale(Fraction(1, 2))),
        (half.scale(2), fa), (d1.apply(a), fd1.apply(fa)), (d2.apply(b), fd2.apply(fb)),
    ]
    pairs += zip(d1.bracket(d2).images, fd1.bracket(fd2).images)
    pairs += zip(d1.scale(Fraction(1, 2)).images, fd1.scale(Fraction(1, 2)).images)
    for got, ref in pairs:
        assert got.terms == ref.terms
        assert_canonical(got)


def nested(t) -> dict:
    """The flat {(key, index): value} entries of a form or a cochain as
    {key: {index: value}}, keys and indices in stored order."""
    out = {}
    for (key, i), c in t.entries():
        out.setdefault(key, {})[i] = c
    return out


def form_value(vectors, us, vs) -> dict:
    """The form with `nested` vectors on basis-index tuples us and vs in any
    order, read from its stored increasing keys by antisymmetry; {} when an
    index repeats."""
    ku, su = _sorted_with_sign(us)
    kv, sv = _sorted_with_sign(vs)
    base = vectors.get((ku, kv), {})
    return base if su * sv == 1 else {k: -c for k, c in base.items()}


def add_into(tgt: dict, coeff, vec: dict) -> None:
    """tgt += coeff * vec, dropping the entries that cancel and keeping the
    rational ones canonical (an int iff integral)."""
    for i, c in vec.items():
        nc = tgt.get(i, 0) + coeff * c
        if nc:
            tgt[i] = canonical(nc)
        else:
            tgt.pop(i, None)
