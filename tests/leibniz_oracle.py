"""The Leibniz kernel as it was written before `Derivation.apply` and
`Derivation.bracket` fetched each operand's set-up once: `_into` called per
image, rebuilding its set-up on each call, with each monomial's letters and
every monomial product computed afresh, and every image of both operands
walked.  It is the oracle of the shared kernel's letter tables, product
memo, compiled action and sparse walk.  `merge_sign` is the oracle of the
Grassmann-monomial kernel `exterior._merge_sign`."""

from typing import Dict

from flagcoh.exterior import terms_of


def perm_sign(perm) -> int:
    """(-1) to the number of inversions of perm."""
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def merge_sign(a, b):
    """The sorted concatenation of the index tuples a and b and the sign of
    the sort, read from its inversion count; (None, 0) on a repeated index."""
    ab = a + b
    if len(set(ab)) < len(ab):
        return None, 0
    return tuple(sorted(ab)), perm_sign(ab)


def old_into(d, acc: Dict, a, sign: int) -> None:
    """Add sign * d(a) into acc, one `_letters` call per term of a and one
    `_mono_mul` call per image term."""
    if not a.terms:
        return
    images, mul, odd_len = d.images, d._algebra._mono_mul, d._odd_len
    grade, letters, m = getattr(d, d._grade_field), d._letters, a.m
    for mono, c in a.terms.items():
        for g, rest, e, j in letters(mono, m):
            image = images[g].terms
            if not image:
                continue
            ce = c * e if e > 1 else c
            for k, v in image.items():
                merged, s = mul(k, rest)
                if merged is None:
                    continue
                if j % 2 and (grade + odd_len(k)) % 2:
                    s = -s
                t = ce * v
                old = acc.get(merged)
                if s == sign:
                    acc[merged] = t if old is None else old + t
                else:
                    acc[merged] = -t if old is None else old - t


def old_apply(d, a):
    if not a.terms:
        return a
    acc: Dict = {}
    old_into(d, acc, a, 1)
    return d._algebra._from_dict(d.m, acc)


def old_bracket_images(d1, d2):
    """The grade and the images of {d1, d2}, one element per generator,
    each built by `_from_dict` from one dict."""
    grade, sign = d1._bracket_label(d2)
    algebra, nv = d1._algebra, d1.m
    images = [algebra.zero(nv)] * len(d1.images)
    if sign:
        for k, (a, b) in enumerate(zip(d1.images, d2.images)):
            if a.terms or b.terms:
                acc: Dict = {}
                old_into(d1, acc, b, 1)
                old_into(d2, acc, a, sign)
                images[k] = algebra._from_dict(nv, acc)
    return grade, tuple(images)


def old_bracket(d1, d2):
    grade, images = old_bracket_images(d1, d2)
    return d1._relabel(grade, terms_of(images))


def assert_same_values(pairs) -> None:
    """Each (got, want) pair of elements has equal terms, coefficient types
    included."""
    for got, want in pairs:
        assert got.terms == want.terms
        assert ({k: type(c) for k, c in got.terms.items()}
                == {k: type(c) for k, c in want.terms.items()})


def bracket_pairs(got, want):
    """The (got, want) image pairs of two brackets, whose grades agree."""
    assert got._grade == want._grade
    return list(zip(got.images, want.images))


def check_against_old_kernel(a, b, d1, d2) -> None:
    """apply of d1 and d2 on a and b, and both brackets of d1 and d2, equal
    the old kernel's, coefficient types included."""
    pairs = [(d.apply(x), old_apply(d, x)) for d in (d1, d2) for x in (a, b)]
    for x, y in ((d1, d2), (d2, d1), (d1, d1)):
        pairs += bracket_pairs(x.bracket(y), old_bracket(x, y))
    assert_same_values(pairs)
