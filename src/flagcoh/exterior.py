"""Grassmann algebra over an m-dimensional space, its derivation superalgebra,
and the insertion / j / contraction / algebraic-bracket calculus.

Derivations are Leibniz extensions of their values on generators; the
multilinear alternation formulas of the source material are kept in the test
suite as oracles (their prefactor conventions are mutually inconsistent, so
they pin per-degree constants there instead of driving this implementation).

`_merge_sign` is the one Grassmann-monomial kernel: it multiplies two sorted
index tuples with the anticommutation sign.  `TermAlgebra` is the one sparse
term arithmetic on top of it; `GrassmannElement` and
`superfields.SuperPolynomial` subclass it with their monomial product and
constructors.  A coefficient is an int when integral and a Fraction
otherwise.  Kernels accumulate into one dict per call, in ints while the
values are ints, and build the result through `_from_dict`, which makes an
integral Fraction an int but validates nothing else; only the public
constructors validate, and `_canon` normalises each value they take.

`_Terms`, the one read-only term map, holds a derivation's terms and a
form's or a cochain's entries (`invforms.VecTensor`); beside it are their
one sum loop `_signed_sum` (`TermAlgebra._sum`'s too), scaling `_scaled`
and zero-dropping `scalars.canonical` rule `_frozen`.

`Derivation` is the one derivation type, held as one `_Terms` map `terms`
from (generator index k, monomial) to the value; `images`, the values as
canonical elements, is built on first read.  It writes `apply`, the
bracket, the one Leibniz loop `_into` and one mismatch rule (`ValueError`)
once, on dicts, and `VectorValuedForm` and `superfields.SuperDerivation`
add their labels and hooks.  A derivation's set-up (`_leibniz`) holds
its compiled action, a dict from a monomial to d(mono) that `_compile`
fills on first read, and its terms by generator.  A bracket adds both
operands' compiled actions into one dict keyed (k, monomial) and builds
no element.  `_compile` keeps each monomial's
letters in `_letter_tables` (one per m) and each monomial product in the
algebra's `_products`, so both are computed once per process.

Elements and derivations are read-only `record.Record` values with slots,
set in a short `__init__` through `record.slot_setters`, with `Record`'s
repr.  Equality is never across classes.  `TermAlgebra` compares and hashes
on (m, terms) directly; a derivation takes `Record`'s equality and hash on
its written-out `_key`, and keeps the hash in its `_hash` slot.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import attrgetter
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
        return self._sum(other, 1, "sum")

    def __sub__(self, other):
        return self._sum(other, -1, "difference")

    def _sum(self, other, sign: int, op: str):
        """self + sign * other."""
        if other.__class__ is not self.__class__ or self.m != other.m:
            raise _mismatch(op, self, other)
        if not other.terms:
            return self
        if not self.terms and sign > 0:
            return other
        return self._from_dict(self.m, _signed_sum(self.terms, other.terms, sign))

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
    made by `make(m)` on first use."""

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


class _Terms(dict):
    """A term map {key: nonzero value} of a derivation or a
    `invforms.VecTensor`: a read-only dict that hashes by its items."""

    __slots__ = ()

    def __hash__(self):
        return hash(frozenset(self.items()))

    def _read_only(self, *args, **kwargs):
        raise TypeError("term maps are read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _read_only


def terms_of(images: Sequence[TermAlgebra]) -> _Terms:
    """The terms of a derivation with these values on the generators."""
    return _Terms({(k, mono): c for k, a in enumerate(images) for mono, c in a.terms})


def _signed_sum(a, b, sign: int) -> Dict[object, Coeff]:
    """a + sign * b, sign 1 or -1, as a new dict with its zeros, for a map or
    the (key, value) pairs a and the pairs b."""
    acc = dict(a)
    for k, c in b:
        old = acc.get(k, 0)
        acc[k] = old + c if sign > 0 else old - c
    return acc


def _frozen(acc: Dict[object, Coeff]) -> _Terms:
    """The nonzero values of acc as terms, each `canonical`: an integral
    Fraction made an int, QSqrt2 values as they are."""
    values = acc.values()
    if type(sum(values)) is not int or 0 in values:  # a value no int, or a zero
        acc = {k: v if type(v) is int else canonical(v) for k, v in acc.items() if v}
    return _Terms(acc)


def _scaled(terms: _Terms, c) -> _Terms:
    """c * terms, for a canonical scalar c."""
    return _frozen({k: c * v for k, v in terms.items()})


class Derivation(Record):
    """A derivation of a `TermAlgebra`, held as `terms`, its values on the
    generators k as one read-only map {(k, monomial): nonzero value}.

    A subclass is a read-only `Record` with slots whose last field is
    `terms`.  It names its `_algebra` (a `TermAlgebra` class), that
    algebra's `m`, `_n_gens`, `_space` (the labels that fix m: m itself, or
    (r, s)) and `_grade_field` (degree or parity), and supplies `_letters`
    and `_odd_len`, which `_compile` reads, `_bracket_label` and
    `_relabel(grade, terms)`, a derivation on the same space.  Operands on
    different spaces raise `ValueError`, and so do nonzero operands of
    different grades in a sum; a zero of another grade is absorbed.
    """

    __slots__ = ("_setup", "_images", "_hash")

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._letter_tables = _PerM(lambda m: {})

    def __hash__(self):
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash(self._key())
            setfield(self, "_hash", h)
        return h

    @property
    def images(self) -> tuple:
        """The values on the generators as elements, built on first read."""
        images = getattr(self, "_images", None)
        if images is None:
            groups, from_dict, m = self._leibniz()[2], self._algebra._from_dict, self.m
            images = tuple([from_dict(m, dict(groups.get(k, ()))) for k in range(self._n_gens)])
            setfield(self, "_images", images)
        return images

    @property
    def _grade(self) -> int:
        return getattr(self, self._grade_field)

    def _same_space(self, other: "Derivation", op: str) -> None:
        if other.__class__ is not self.__class__:
            raise _mismatch(op, self, other)
        if self._space != other._space:
            raise ValueError(f"{op} of derivations on {self._space} and {other._space}")

    def _sum(self, other: "Derivation", sign: int, op: str) -> "Derivation":
        """self + sign * other, of their grade; when the grades differ, the
        operand that is not zero, which only one may be."""
        self._same_space(other, op)
        grade, other_grade = self._grade, other._grade
        if grade != other_grade:
            if self.terms and other.terms:
                raise ValueError(f"{op} of derivations of {self._grade_field} "
                                 f"{grade} and {other_grade}")
            return self if self.terms else other if sign > 0 else -other
        return self._relabel(grade, _frozen(_signed_sum(self.terms, other.terms.items(), sign)))

    def __add__(self, other):
        return self._sum(other, 1, "sum")

    def __sub__(self, other):
        return self._sum(other, -1, "difference")

    def __neg__(self):
        return self._relabel(self._grade, _Terms({k: -c for k, c in self.terms.items()}))

    def scale(self, c):
        if c == 1:
            return self
        return self._relabel(self._grade, _scaled(self.terms, _canon(c)))

    def is_zero(self) -> bool:
        return not self.terms

    def apply(self, a):
        """self(a) by the Leibniz loop `_into`."""
        if a.__class__ is not self._algebra or a.m != self.m:
            raise ValueError(f"derivation in {self.m} variables of "
                             f"{self._algebra.__name__}s applied to {a!r}")
        if not a.terms:
            return a
        acc: Dict[Tuple[int, object], Coeff] = {}
        self._into(acc, ((0, a.terms),), 1, self._leibniz())
        return self._algebra._from_dict(self.m, {mono: v for (_, mono), v in acc.items()})

    def bracket(self, other):
        """{self, other} on the generators: its value on generator k is
        self(other_k) + sign * other(self_k), with the grade and the sign
        (-1, +1 when both are odd, 0 when the bracket vanishes by degree)
        from `_bracket_label`.  Both halves go into one dict keyed
        (k, monomial), walking only the nonzero terms of each operand."""
        self._same_space(other, "bracket")
        grade, sign = self._bracket_label(other)
        acc: Dict[Tuple[int, object], Coeff] = {}
        if sign:
            mine, theirs = self._leibniz(), other._leibniz()
            self._into(acc, theirs[1], 1, mine)
            self._into(acc, mine[1], sign, theirs)
        return self._relabel(grade, _frozen(acc))

    def _leibniz(self):
        """What `_into`, `bracket` and `images` read of self: its compiled
        action (a dict from a monomial to d(monomial) that `_compile` fills),
        its terms by generator as (k, [(monomial, value)]) pairs and as a
        dict, and what `_compile` reads: the grade, `_odd_len`, this m's
        letter table and `_letters` that fills it, m, and the algebra's
        product memo and `_mono_mul`.  It is built once and kept in the
        `_setup` slot, which equality, hash and repr never read."""
        try:
            return self._setup
        except AttributeError:
            pass
        algebra, m = self._algebra, self.m
        groups: Dict[int, List[Tuple[object, Coeff]]] = {}
        for (k, mono), c in self.terms.items():
            groups.setdefault(k, []).append((mono, c))
        setup = ({}, tuple(groups.items()), groups, getattr(self, self._grade_field),
                 self._odd_len, self._letter_tables[m], self._letters, m,
                 algebra._products, algebra._mono_mul)
        setfield(self, "_setup", setup)
        return setup

    @staticmethod
    def _into(acc: Dict[Tuple[int, object], Coeff], groups, sign: int, setup) -> None:
        """Add sign * d(a_k) into acc under the keys (k, monomial), for the
        (k, terms of a_k) pairs of groups and the `_leibniz` set-up of d:
        each term c * mono adds c times the compiled d(mono)."""
        compiled = setup[0]
        for k, terms in groups:
            for mono, c in terms:
                image = compiled.get(mono)
                if image is None:
                    image = compiled[mono] = Derivation._compile(mono, setup)
                if sign < 0:
                    c = -c
                for merged, v in image:
                    key = k, merged
                    t = c * v
                    old = acc.get(key)
                    acc[key] = t if old is None else old + t

    @staticmethod
    def _compile(mono, setup) -> Tuple[Tuple[object, Coeff], ...]:
        """d(mono) as (monomial, nonzero value) pairs, an int iff integral,
        by the super-Leibniz rule: a letter (g, rest, e, j) of `_letters`
        (generator index, the monomial without it, exponent, odd letters
        before it) gives e * d(generator g) * rest by `_mono_mul`, times
        (-1)^{j (grade + odd length of the image term)}."""
        _, _, groups, grade, odd_len, table, letters_of, m, products, mul = setup
        letters = table.get(mono)
        if letters is None:
            letters = table[mono] = letters_of(mono, m)
        acc: Dict[object, Coeff] = {}
        for g, rest, e, j in letters:
            for k, v in groups.get(g, ()):
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
    degree p+1, held in terms under the keys (k, monomial)."""

    __slots__ = _fields = ("m", "degree", "terms")
    _algebra = GrassmannElement
    _odd_len = staticmethod(len)
    _letters = staticmethod(_grassmann_letters)
    _space = _n_gens = property(attrgetter("m"))
    _grade_field = "degree"

    def __init__(self, m: int, degree: int, terms: _Terms):
        _set_form_m(self, m)
        _set_degree(self, degree)
        _set_form_terms(self, terms)

    def _key(self):
        return self.m, self.degree, self.terms

    def _bracket_label(self, other: "VectorValuedForm") -> Tuple[int, int]:
        deg = self.degree + other.degree
        if deg < -1 or deg > self.m:
            return min(max(deg, -1), self.m), 0
        return deg, 1 if self.degree % 2 and other.degree % 2 else -1

    def _relabel(self, degree: int, terms: _Terms) -> "VectorValuedForm":
        return VectorValuedForm(self.m, degree, terms)

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
        return VectorValuedForm(m, degree, terms_of(comps))

    @staticmethod
    def basis_element(m: int, mono: Monomial, j: int) -> "VectorValuedForm":
        """xi_{mono} d/dxi_j."""
        comps = [GrassmannElement.zero(m)] * m
        comps[j - 1] = GrassmannElement.make(m, {tuple(mono): 1})
        return VectorValuedForm.make(m, len(mono) - 1, comps)


_set_form_m, _set_degree, _set_form_terms = slot_setters(VectorValuedForm)


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
    Read off the terms: d_k xi_mono = (-1)^j xi_{mono without k}, j k's place.
    """
    m, p = phi.m, phi.degree
    acc: Dict[Monomial, Coeff] = {}
    for (k, mono), c in phi.terms.items():
        if k + 1 in mono:
            j = mono.index(k + 1)
            rest = mono[:j] + mono[j + 1:]
            acc[rest] = acc.get(rest, 0) + (-c if j % 2 else c)
    total = GrassmannElement._from_dict(m, acc)
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
