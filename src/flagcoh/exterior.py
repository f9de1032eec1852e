"""Grassmann algebra over an m-dimensional space, its derivation superalgebra,
and the insertion / j / contraction / algebraic-bracket calculus.

Derivations are Leibniz extensions of their values on generators; the
multilinear alternation formulas of the source material are kept in the test
suite as oracles (their prefactor conventions are mutually inconsistent, so
they pin per-degree constants there instead of driving this implementation).

`_merge_sign` is the one Grassmann-monomial kernel: it multiplies two sorted
index tuples with the anticommutation sign.  `TermAlgebra` is the one sparse
term arithmetic (sum, difference, negation, scaling, product, the shared zero)
on top of it; `GrassmannElement` and `superfields.SuperPolynomial` subclass
it and differ only in their monomial product and their constructors.  A
coefficient is an int when integral and a Fraction otherwise.  Products, sums
and derivations accumulate kernel output, in ints while the values are ints,
into one dict per call and build the result through `_from_dict`, which makes
an integral Fraction an int but validates nothing else; only the public
constructors validate, and `_canon` normalises each value they take.

`Derivation` is the one derivation type, held as `images`, its values on
the generators: it writes sums, scaling, `apply`, the bracket and the one
Leibniz loop `_into` (it adds +-i(phi)a into a caller's dict) once, with
one mismatch rule (`ValueError`).  `VectorValuedForm` and
`superfields.SuperDerivation` subclass it with their labels and hooks: the
term algebra, a same-space constructor, a monomial's odd length and
`_letters`, which lists the generators of a monomial that `_compile` walks.
`apply` and `bracket` fetch each operand's set-up (`_leibniz`), which a
derivation builds on first use and keeps in its `_setup` slot, outside its
fields: its compiled action, a dict from a monomial to its image d(mono)
that `_compile` builds on first read, and its nonzero images.  `_into` only
scales and adds compiled images, and `bracket` walks only the nonzero
images of its operands.  `_compile` keeps each monomial's letters in the
class's `_letter_tables` dict (one per m) and each monomial product in the
algebra's `_products` dict, so both are computed once per process.

Elements and derivations are read-only `record.Record` values with slots:
each class sets its fields in a short `__init__` of its own, through
`record.slot_setters`, and takes its repr from `Record`.  Equality is never across classes.  `TermAlgebra`
compares and hashes on (m, terms) directly, and `SuperDerivation` compares
its fields directly, with `Record`'s results but without its key tuples;
`VectorValuedForm` takes its equality and hash from `Record`.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import add, attrgetter, sub
from typing import Dict, List, Optional, Sequence, Tuple

from .record import Record, setfield, slot_setters
from .scalars import Coeff, canonical

Monomial = Tuple[int, ...]  # strictly increasing indices in 1..m


def _merge_sign(a: Monomial, b: Monomial) -> Tuple[Optional[Monomial], int]:
    """Concatenate-and-sort with the anticommutation sign; None if repeated."""
    if not a:
        return b, 1
    if not b:
        return a, 1
    out: List[int] = []
    sign = 1
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return None, 0
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            # b[j] jumps over the remaining len(a)-i letters of a
            if (len(a) - i) % 2 == 1:
                sign = -sign
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out), sign


def _canon(c):
    """c as an int when it is integral (a bool too), else as a Fraction."""
    return c if type(c) is int else canonical(c if type(c) is Fraction else Fraction(c))


class TermAlgebra(Record):
    """Exact sparse combination of monomials in m variables, the arithmetic
    shared by `GrassmannElement` and `superfields.SuperPolynomial`.

    terms holds (monomial, nonzero int-or-Fraction) pairs sorted by monomial,
    an int iff integral.  A subclass supplies `_mono_mul`, the product of two
    monomials as (monomial, sign), or (None, 0) when it vanishes; each class
    keeps one shared zero per m in `_zeros` and the products the Leibniz
    rule has formed in `_products`.  An element is a read-only `Record` with
    the slots m and terms; subclasses add no field and no slot, so they take
    this `__init__`, `__eq__` and `__hash__`, and `Record`'s `__repr__`.
    """

    __slots__ = _fields = ("m", "terms")

    def __init__(self, m: int, terms: Tuple[Tuple[object, Coeff], ...]):
        _set_m(self, m)
        _set_terms(self, terms)

    # `Record`'s equality and hash on (m, terms), without building key tuples
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.m == other.m and self.terms == other.terms

    def __hash__(self):
        return hash((self.m, self.terms))

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._zeros = _PerM(lambda m: cls(m, ()))
        cls._products = {}

    @classmethod
    def _from_dict(cls, m: int, acc: Dict[object, Coeff]):
        """The element of kernel-produced monomials and values, an integral
        Fraction made an int; the shared zero when every value cancelled."""
        if len(acc) == 1:
            (k, c), = acc.items()
            if c:
                return cls(m, ((k, c if type(c) is int else _canon(c)),))
        elif acc:
            terms = tuple(sorted([(k, c if type(c) is int else _canon(c))
                                  for k, c in acc.items() if c]))
            if terms:
                return cls(m, terms)
        return cls._zeros[m]

    @classmethod
    def zero(cls, m: int):
        """The zero in m variables, one shared instance per class and m."""
        return cls._zeros[m]

    def tdict(self) -> Dict[object, Coeff]:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if other.__class__ is not self.__class__ or self.m != other.m:
            raise _mismatch("sum", self, other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        acc = dict(self.terms)
        for k, c in other.terms:
            old = acc.get(k)
            acc[k] = c if old is None else old + c
        return self._from_dict(self.m, acc)

    def __sub__(self, other):
        if other.__class__ is not self.__class__ or self.m != other.m:
            raise _mismatch("difference", self, other)
        if not other.terms:
            return self
        acc = dict(self.terms)
        for k, c in other.terms:
            old = acc.get(k)
            acc[k] = -c if old is None else old - c
        return self._from_dict(self.m, acc)

    def __neg__(self):
        if not self.terms:
            return self.zero(self.m)
        return type(self)(self.m, tuple((k, -c) for k, c in self.terms))

    def scale(self, c):
        if not (self.terms and c):
            return self.zero(self.m)
        if c == 1:
            return self
        c = _canon(c)
        # an int times a Fraction can be integral: only all-int products are ints
        if type(c) is int and all(type(v) is int for _, v in self.terms):
            return type(self)(self.m, tuple((k, c * v) for k, v in self.terms))
        return self._from_dict(self.m, {k: c * v for k, v in self.terms})

    def __mul__(self, other):
        if other.__class__ is not self.__class__ or self.m != other.m:
            raise _mismatch("product", self, other)
        mono_mul = self._mono_mul
        acc: Dict[object, Coeff] = {}
        for ka, ca in self.terms:
            for kb, cb in other.terms:
                k, s = mono_mul(ka, kb)
                if k is not None:
                    t = ca * cb if s > 0 else -(ca * cb)
                    old = acc.get(k)
                    acc[k] = t if old is None else old + t
        return self._from_dict(self.m, acc)


_set_m, _set_terms = slot_setters(TermAlgebra)


class _PerM(dict):
    """A class's values by m (its shared zeros, its letter tables), each
    made by `make(m)` on first use; `superfields.homomorphism_check` keeps
    a target by sign in one, so its negation is made on first read."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, m: int):
        value = self[m] = self.make(m)
        return value


def _mismatch(op: str, a: TermAlgebra, b) -> ValueError:
    if b.__class__ is not a.__class__:
        return ValueError(f"{op} of a {type(a).__name__} and a {type(b).__name__}")
    return ValueError(f"{op} of polynomials in {a.m} and {b.m} variables")


class GrassmannElement(TermAlgebra):
    """Element of Lambda(xi_1..xi_m) with exact rational coefficients."""

    __slots__ = ()
    _mono_mul = staticmethod(_merge_sign)

    @staticmethod
    def make(m: int, data: Dict[Monomial, Coeff]) -> "GrassmannElement":
        clean = {k: _canon(v) for k, v in data.items() if v}
        bad = [k for k in clean
               if not (all(1 <= i <= m for i in k) and list(k) == sorted(set(k)))]
        if bad:
            raise ValueError(f"not strictly increasing monomials in 1..{m}: {bad}")
        if not clean:
            return GrassmannElement.zero(m)
        return GrassmannElement(m, tuple(sorted(clean.items())))

    @staticmethod
    def generator(m: int, j: int) -> "GrassmannElement":
        return GrassmannElement.make(m, {(j,): 1})

    def is_homogeneous(self) -> Optional[int]:
        degs = {len(k) for k, _ in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None if degs else 0


def basis_monomials(m: int, p: int) -> List[Monomial]:
    return [tuple(c) for c in itertools.combinations(range(1, m + 1), p)]


class Derivation(Record):
    """A derivation of a `TermAlgebra`, held as `images`, its values on the
    generators; sums, scaling, `apply`, the bracket and the Leibniz loop
    `_into` are written once here.

    A subclass is a read-only `Record` with slots whose last field is
    `images`, and sets its fields in its own `__init__`.  It names
    its `_algebra` (a `TermAlgebra` class), that algebra's `m`, `_space` (the
    labels of its space, which fix m: m itself, or (r, s)) and its
    `_grade_field` (degree or parity), and supplies `_letters(mono, m)` and
    `_odd_len(mono)`, which `_compile` reads, `_bracket_label`
    and `_relabel(grade, images)`, a derivation on the same space.  Operands
    on different spaces raise `ValueError`, and so do nonzero operands of
    different grades in a sum; a zero of another grade is absorbed.
    """

    __slots__ = ("_setup",)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._letter_tables = _PerM(lambda m: {})

    @property
    def _grade(self) -> int:
        return getattr(self, self._grade_field)

    def _same_space(self, other: "Derivation", op: str) -> None:
        if other.__class__ is not self.__class__:
            raise _mismatch(op, self, other)
        if self._space != other._space:
            raise ValueError(f"{op} of derivations on {self._space} and {other._space}")

    def _sum_grade(self, other: "Derivation", op: str) -> Optional[int]:
        """The grade of both operands; None if other has another grade,
        which only a zero operand may."""
        self._same_space(other, op)
        field = self._grade_field
        grade, other_grade = getattr(self, field), getattr(other, field)
        if grade == other_grade:
            return grade
        if self.is_zero() or other.is_zero():
            return None
        raise ValueError(f"{op} of derivations of {field} {grade} and {other_grade}")

    def __add__(self, other):
        grade = self._sum_grade(other, "sum")
        if grade is None:
            return other if self.is_zero() else self
        return self._relabel(grade, tuple(map(add, self.images, other.images)))

    def __sub__(self, other):
        grade = self._sum_grade(other, "difference")
        if grade is None:
            return -other if self.is_zero() else self
        return self._relabel(grade, tuple(map(sub, self.images, other.images)))

    def __neg__(self):
        return self._relabel(self._grade, tuple(-a for a in self.images))

    def scale(self, c):
        if c == 1:
            return self
        return self._relabel(self._grade, tuple(a.scale(c) for a in self.images))

    def is_zero(self) -> bool:
        return not any(a.terms for a in self.images)

    def apply(self, a):
        """self(a) by the Leibniz loop `_into`."""
        if a.__class__ is not self._algebra or a.m != self.m:
            raise ValueError(f"derivation in {self.m} variables of "
                             f"{self._algebra.__name__}s applied to {a!r}")
        if not a.terms:
            return a
        acc: Dict[object, Coeff] = {}
        self._into(acc, a.terms, 1, self._leibniz())
        return self._algebra._from_dict(self.m, acc)

    def bracket(self, other):
        """{self, other} on the generators: image k is self(other_k) +
        sign * other(self_k), both summed into one dict, with the grade and
        the sign (-1, +1 when both are odd, 0 when the bracket vanishes by
        degree) from `_bracket_label`.  Each operand's set-up is fetched
        once and only nonzero images are walked: other's fill image k's dict
        with self(other_k) first, then self's add sign * other(self_k); an
        image whose halves cancel is the shared zero."""
        self._same_space(other, "bracket")
        grade, sign = self._bracket_label(other)
        algebra, nv = self._algebra, self.m
        images = [algebra._zeros[nv]] * len(self.images)
        if sign:
            mine, theirs = self._leibniz(), other._leibniz()
            into, accs = self._into, {}
            for k, b in theirs[1]:
                into(accs.setdefault(k, {}), b, 1, mine)
            for k, a in mine[1]:
                into(accs.setdefault(k, {}), a, sign, theirs)
            from_dict = algebra._from_dict
            for k, acc in accs.items():
                images[k] = from_dict(nv, acc)
        return self._relabel(grade, tuple(images))

    def _leibniz(self):
        """What `_into` and `bracket` read of self: its compiled action (a
        dict from a monomial to d(monomial), filled by `_compile` on first
        read), its nonzero images as (k, terms), and what `_compile` reads:
        the images, the grade, `_odd_len`, this m's letter table and
        `_letters` that fills it, m, and the algebra's product memo and
        `_mono_mul`.  It is built once per derivation and kept in the
        `_setup` slot, which is not a field: equality, hash and repr never
        read it."""
        try:
            return self._setup
        except AttributeError:
            pass
        algebra, m, images = self._algebra, self.m, self.images
        setup = ({}, tuple([(k, a.terms) for k, a in enumerate(images) if a.terms]),
                 images, getattr(self, self._grade_field), self._odd_len,
                 self._letter_tables[m], self._letters, m,
                 algebra._products, algebra._mono_mul)
        setfield(self, "_setup", setup)
        return setup

    @staticmethod
    def _into(acc: Dict[object, Coeff], terms, sign: int, setup) -> None:
        """Add sign * d(a) into acc, for the terms of a and the `_leibniz`
        set-up of d: each term c * mono adds c times the compiled d(mono)."""
        compiled = setup[0]
        for mono, c in terms:
            image = compiled.get(mono)
            if image is None:
                image = compiled[mono] = Derivation._compile(mono, setup)
            if sign < 0:
                c = -c
            for merged, v in image:
                t = c * v
                old = acc.get(merged)
                acc[merged] = t if old is None else old + t

    @staticmethod
    def _compile(mono, setup) -> Tuple[Tuple[object, Coeff], ...]:
        """d(mono) as (monomial, nonzero value) pairs, an int iff integral,
        by the super-Leibniz rule: a letter (g, rest, e, j) of `_letters`
        (generator index, the monomial without it, exponent, odd letters
        before it) gives e * images[g] * rest by `_mono_mul`, times
        (-1)^{j (grade + odd length of the image term)}."""
        _, _, images, grade, odd_len, table, letters_of, m, products, mul = setup
        letters = table.get(mono)
        if letters is None:
            letters = table[mono] = letters_of(mono, m)
        acc: Dict[object, Coeff] = {}
        for g, rest, e, j in letters:
            for k, v in images[g].terms:
                key = (k, rest)
                product = products.get(key)
                if product is None:
                    product = products[key] = mul(k, rest)
                merged, s = product
                if merged is None:
                    continue
                if j % 2 and (grade + odd_len(k)) % 2:
                    s = -s
                t = e * v if s > 0 else -e * v
                old = acc.get(merged)
                acc[merged] = t if old is None else old + t
        return tuple([(k, v if type(v) is int else _canon(v))
                      for k, v in acc.items() if v]) if acc else ()


def _grassmann_letters(mono: Monomial, m: int):
    """The letters of `Derivation._compile`: xi_i at place j is (i - 1, rest, 1, j)."""
    return tuple((i - 1, mono[:j] + mono[j + 1:], 1, j) for j, i in enumerate(mono))


class VectorValuedForm(Derivation):
    """Element of Lambda^{p+1} E (x) E*, i.e. the degree-p part of der Lambda E:
    degree is p in [-1, m], and images[k] is the image of xi_{k+1}, of
    degree p+1."""

    __slots__ = _fields = ("m", "degree", "images")
    _algebra = GrassmannElement
    _odd_len = staticmethod(len)
    _letters = staticmethod(_grassmann_letters)
    _space = property(attrgetter("m"))
    _grade_field = "degree"

    def __init__(self, m: int, degree: int, images: Tuple[GrassmannElement, ...]):
        _set_form_m(self, m)
        _set_degree(self, degree)
        _set_form_images(self, images)

    def _key(self):
        return self.m, self.degree, self.images

    def _bracket_label(self, other: "VectorValuedForm") -> Tuple[int, int]:
        deg = self.degree + other.degree
        if deg < -1 or deg > self.m:
            return min(max(deg, -1), self.m), 0
        return deg, 1 if self.degree % 2 and other.degree % 2 else -1

    def _relabel(self, degree: int, images) -> "VectorValuedForm":
        return VectorValuedForm(self.m, degree, images)

    @staticmethod
    def make(m: int, degree: int, comps: Sequence[GrassmannElement]) -> "VectorValuedForm":
        if len(comps) != m:
            raise ValueError(f"a form on m={m} needs {m} components")
        if not -1 <= degree <= m:
            raise ValueError(f"derivation degree {degree} outside [-1, {m}]")
        for c in comps:
            if c.m != m:
                raise ValueError("component of a different m")
            if not (c.is_zero() or c.is_homogeneous() == degree + 1):
                raise ValueError(f"component not homogeneous of degree {degree + 1}")
        return VectorValuedForm(m, degree, tuple(comps))

    @staticmethod
    def basis_element(m: int, mono: Monomial, j: int) -> "VectorValuedForm":
        """xi_{mono} d/dxi_j."""
        comps = [GrassmannElement.zero(m)] * m
        comps[j - 1] = GrassmannElement.make(m, {tuple(mono): 1})
        return VectorValuedForm.make(m, len(mono) - 1, comps)


_set_form_m, _set_degree, _set_form_images = slot_setters(VectorValuedForm)


# i(phi)a by the one super-Leibniz loop `Derivation._into`, and the algebraic
# bracket {phi, psi} with i({phi,psi}) = [i(phi), i(psi)], as functions
apply_derivation = Derivation.apply
bracket = Derivation.bracket


def grading_derivation(m: int) -> VectorValuedForm:
    """epsilon = sum xi_k d/dxi_k, the identity form in W(E)_0."""
    comps = [GrassmannElement.generator(m, k) for k in range(1, m + 1)]
    return VectorValuedForm.make(m, 0, comps)


def j_map(m: int, psi: GrassmannElement, degree: int = None) -> VectorValuedForm:
    """j(psi) = sum_k (psi xi_k) (x) xi_k*; degree disambiguates psi = 0."""
    if psi.m != m:
        raise ValueError(f"j_map on m={m} got an element of m={psi.m}")
    p = psi.is_homogeneous()
    if p is None:
        raise ValueError("j_map needs a homogeneous element")
    if degree is not None and psi.is_zero():
        p = degree
    comps = [psi * GrassmannElement.generator(m, k) for k in range(1, m + 1)]
    return VectorValuedForm.make(m, min(p, m), comps)


def contraction_c(phi: VectorValuedForm) -> GrassmannElement:
    """c(phi) normalized so that c(j(psi)) = p! (m-p) psi for deg-p psi.

    The bare interior-product contraction sum_k d_k(phi_k) satisfies
    cj = (-1)^p (m-p) id; the (-1)^p p! factor restores the stated law.
    """
    m, p = phi.m, phi.degree
    total = GrassmannElement.zero(m)
    for k in range(1, m + 1):
        dk = VectorValuedForm.basis_element(m, (), k)
        total = total + apply_derivation(dk, phi.images[k - 1])
    return total.scale((-1) ** p * math.factorial(p) if p >= 0 else 1)


def decompose_im_j_ker_c(
    phi: VectorValuedForm,
) -> Tuple[GrassmannElement, VectorValuedForm]:
    """Split phi = j(psi) + chi with c(chi) = 0, valid for degree p < m."""
    m, p = phi.m, phi.degree
    if p >= m:
        raise ValueError("the Im j (+) Ker c splitting needs degree < m")
    psi = contraction_c(phi).scale(Fraction(1, math.factorial(max(p, 0)) * (m - p)))
    chi = phi - j_map(m, psi, degree=p)
    return psi, chi


def wedge_basis(m: int) -> List[Tuple[Monomial, int]]:
    """Basis (monomial, j) of W(E): xi_mono d/dxi_j."""
    return [(mono, j) for p in range(-1, m + 1)
            for mono in basis_monomials(m, p + 1) for j in range(1, m + 1)]
