"""Every value class of flagcoh is a `record.Record`: built by position or
keyword, equal by value within its class and never across classes, hashed
as the tuple of its fields, and read-only.  The arithmetic value classes
meet one refusal contract over a generated matrix of foreign operands."""

import operator
import re
from fractions import Fraction

import pytest

from flagcoh import invforms, liecoh, spectral, superfields, verify
from flagcoh.bott import ModuleDescriptor, space_from_preset
from flagcoh.exterior import GrassmannElement, VectorValuedForm, _Terms, grading_derivation
from flagcoh.record import Record, setfield
from flagcoh.repdecomp import LeviDatum
from flagcoh.rootsys import SimpleLieType
from flagcoh.scalars import QSqrt2


def _instances():
    """One instance of each value class, by class name."""
    H = space_from_preset("CP2")
    gb = liecoh.build_g_basis(H)
    report, e3 = spectral.cohomology_of_T(H, 1, 0)
    space = invforms.MatrixPairSpace(2, 1)
    values = [
        SimpleLieType("A", 2), H.rd, H.levi, H, ModuleDescriptor("trivial", (0, 0), 1, 2),
        gb.elements[0], gb, liecoh.Cochain(gb, 0, _Terms({(0, 1): 3})),
        liecoh.CoboundaryResult(True, None), space, invforms.RootPairSpace(3),
        invforms.theta_p(space, 1), invforms.NilpotentPairReport(space, []),
        e3.E2[(0, 0)][0], e3, report,
        GrassmannElement.make(2, {(1,): 3}), superfields.SuperPolynomial.x(2, 1),
        grading_derivation(2), superfields.basis_fields(2, 1)[5],
        superfields.qn_basis(2)[5], verify.CheckResult("c", True, "d", 0.5),
    ]
    return {type(v).__name__: v for v in values}


INSTANCES = _instances()
# the classes equal by the value of every field, by `Record.__eq__` or by an
# equal one written out: GModuleBasis is equal only to itself
BY_VALUE = sorted(set(INSTANCES) - {"GModuleBasis"})
# the classes that hold their values in one read-only `exterior._Terms` map,
# by the field that holds it
TERM_MAPS = {"VectorValuedForm": "terms", "SuperDerivation": "terms",
             "InvariantVectorForm": "tensor", "Cochain": "data"}


def _copy(x):
    """x rebuilt from its fields by its own constructor."""
    return type(x)(*(getattr(x, f) for f in x._fields))


def _with(x, name, value):
    """x with one field replaced, built past its constructor."""
    y = object.__new__(type(x))
    for f in x._fields:
        setfield(y, f, value if f == name else getattr(x, f))
    return y


def test_every_value_class_is_a_record():
    assert len(INSTANCES) == 22 and len(BY_VALUE) == 21
    assert all(isinstance(v, Record) for v in INSTANCES.values())


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_equal_values_compare_and_hash_equal(name):
    x = INSTANCES[name]
    y = _copy(x)
    assert y is not x and x._key() == tuple(getattr(x, f) for f in x._fields)
    assert x == x and not x != x
    if name == "GModuleBasis":
        assert y != x and hash(x) == object.__hash__(x)
        return
    assert y == x and not y != x
    if name in TERM_MAPS:  # hashable through the read-only map, whatever it holds
        assert hash(x) == hash(y) == hash(x._key())
    try:
        hash(x._key())
    except TypeError:
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == hash(y) == hash(x._key())


@pytest.mark.parametrize("name", BY_VALUE)
def test_every_field_takes_part_in_equality(name):
    x = INSTANCES[name]
    for f in x._fields:
        other = _with(x, f, object())
        assert other != x and not other == x and not x == other, f
        assert _with(x, f, getattr(x, f)) == x, f


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_fields_are_read_only(name):
    x = INSTANCES[name]
    for f in x._fields:
        with pytest.raises(AttributeError):
            setattr(x, f, getattr(x, f))
        with pytest.raises(AttributeError):
            delattr(x, f)
    with pytest.raises(AttributeError):
        x.other = 1


def test_values_of_different_classes_are_never_equal():
    terms = (((1,), 3),)
    g = GrassmannElement(2, terms)
    p = superfields.SuperPolynomial(2, terms)
    assert g._key() == p._key()
    assert g != p and p != g and not g == p
    assert g != (2, terms) and (2, terms) != g
    assert len({g, p}) == 2
    phi = grading_derivation(1)
    assert phi != (phi.m, phi.degree, phi.images)
    assert invforms.MatrixPairSpace(1, 1) != invforms.RootPairSpace(1)


@pytest.mark.parametrize("name", ["VectorValuedForm", "SuperDerivation"])
def test_the_cached_leibniz_set_up_is_no_field(name):
    """A derivation built past its constructor caches its Leibniz set-up on
    first use and then brackets and applies as an equal one built normally;
    the cached set-up, even a wrong one, enters no equality, hash or repr."""
    x = INSTANCES[name]
    past, fresh = _with(x, "terms", x.terms), _copy(x)
    assert not hasattr(past, "_setup") and not hasattr(fresh, "_setup")
    elements = list(x.images) + [a * b for a in x.images for b in x.images]
    for d in (past, fresh):
        assert [d.apply(a) for a in elements] == [x.apply(a) for a in elements]
        assert d.bracket(x) == x.bracket(d) == d.bracket(d) == x.bracket(x)
    assert past._leibniz() is past._setup and past._setup == fresh._setup
    assert past == fresh == x and hash(past) == hash(fresh) == hash(x)
    assert repr(past) == repr(fresh) == repr(x) and "_setup" not in repr(x)
    wrong = _with(x, "terms", x.terms)
    setfield(wrong, "_setup", None)
    assert wrong == x and hash(wrong) == hash(x) and repr(wrong) == repr(x)


@pytest.mark.parametrize("name", sorted(TERM_MAPS))
def test_a_term_map_is_read_only(name):
    """A derivation's terms, a form's tensor and a cochain's data refuse
    every change in place with TypeError, and a copy of them is a plain
    dict."""
    terms = getattr(INSTANCES[name], TERM_MAPS[name])
    key = next(iter(terms))
    before = dict(terms)
    for change in (lambda t: t.__setitem__(key, 2), lambda t: t.__delitem__(key),
                   lambda t: t.clear(), lambda t: t.pop(key), lambda t: t.popitem(),
                   lambda t: t.setdefault(key, 2), lambda t: t.update({key: 2}),
                   lambda t: t.__ior__({key: 2})):
        with pytest.raises(TypeError, match="read-only"):
            change(terms)
    assert terms == before and type(before) is dict
    before[key] = 2
    assert terms != before


def test_construction_by_position_keyword_and_default():
    w = (0, 0)
    d = ModuleDescriptor("trivial", w, 1, 2)
    assert ModuleDescriptor(tag="trivial", weight=w, dim=1, mult=2) == d
    assert ModuleDescriptor("trivial", w, mult=2, dim=1) == d
    assert repr(d) == "ModuleDescriptor(tag='trivial', weight=(0, 0), dim=1, mult=2)"
    for args, kwargs in [(("trivial", w, 1), {}), (("trivial", w, 1, 2, 3), {}),
                         (("trivial", w, 1, 2), {"dim": 1}),
                         (("trivial", w, 1, 2), {"weights": w})]:
        with pytest.raises(TypeError):
            ModuleDescriptor(*args, **kwargs)
    assert liecoh.BasisElement(w, "t").scale == 1
    assert spectral.Summand("i", d).status == "ok"
    assert spectral.Summand("i", d) == spectral.Summand("i", d, "ok")
    terms = grading_derivation(1).terms
    assert VectorValuedForm(1, 0, terms) == VectorValuedForm(m=1, degree=0, terms=terms)


def test_constructors_keep_their_checks_and_conversions():
    with pytest.raises(ValueError, match="unsupported simple type A0"):
        SimpleLieType("A", 0)
    H = space_from_preset("Gr(5,2)")
    assert LeviDatum(H.rd, (3, 0)).S == (0, 3)
    with pytest.raises(ValueError, match="proper subset"):
        LeviDatum(H.rd, range(H.rd.rank))
    gb = liecoh.build_g_basis(space_from_preset("CP2"))
    dense = liecoh.Cochain(gb, 0, {0: [0, 3, 0, 0], 1: [0] * 4})
    assert type(dense.data) is _Terms and dense.data == {(0, 1): 3}
    assert dense == liecoh.Cochain(gb, 0, _Terms({(0, 1): 3}))


def test_cached_properties_fill_the_instance_dict():
    H = space_from_preset("CP2")
    assert H.kostant_weights is H.kostant_weights and "kostant_weights" in vars(H)
    assert H.levi.two_rho is H.levi.two_rho and "two_rho" in vars(H.levi)
    assert H.rd._cartan_columns is H.rd._cartan_columns and "_cartan_columns" in vars(H.rd)


# --- one refusal contract for the arithmetic value classes ----------------------

# each arithmetic class: a value and one of the same class with other labels
# (QSqrt2 has no labels; the foreign QSqrt2 below is another of its values)
ARITHMETIC = {
    "GrassmannElement": (INSTANCES["GrassmannElement"], GrassmannElement.make(3, {(1,): 3})),
    "SuperPolynomial": (INSTANCES["SuperPolynomial"], superfields.SuperPolynomial.x(3, 1)),
    "VectorValuedForm": (INSTANCES["VectorValuedForm"], grading_derivation(3)),
    "SuperDerivation": (INSTANCES["SuperDerivation"], superfields.basis_fields(3, 1)[5]),
    "InvariantVectorForm": (INSTANCES["InvariantVectorForm"],
                            invforms.theta_p(invforms.MatrixPairSpace(3, 1), 1)),
    "Cochain": (INSTANCES["Cochain"], liecoh.Cochain(
        liecoh.build_g_basis(space_from_preset("CP3")), 0, _Terms({(0, 1): 3}))),
    "QSqrt2": (QSqrt2(Fraction(1, 2), 3), None),
}
FOREIGN = (1, Fraction(1, 2), QSqrt2(1, 1), None, "x")
OPERATIONS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "==": operator.eq,
              "bracket": lambda a, b: a.bracket(b), "apply": lambda a, b: a.apply(b)}
# the library's mismatch messages: exterior's `_mismatch`, a derivation's
# space, grade and algebra checks, and `VecTensor._check_like`
MISMATCH = re.compile(
    r"^(sum|difference|product|bracket) of (a \w+ and a \w+|polynomials in \d+ and \d+ "
    r"variables|derivations (on .+ and .+|of \w+ -?\d+ and -?\d+))$"
    r"|^derivation in \d+ variables of \w+s applied to "
    r"|^\w+ and \w+ do not combine$|^\w+s with different \w+ do not combine$")


def _operand_cases():
    """(class name, operation) for each operation a class defines; the
    operators are defined on every class, if only to refuse."""
    return [(name, op) for name, (x, _) in ARITHMETIC.items() for op in OPERATIONS
            if op not in ("bracket", "apply") or hasattr(x, op)]


@pytest.mark.parametrize("name, op", _operand_cases())
def test_every_foreign_operand_meets_the_refusal_contract(name, op):
    """With a number, None, a str, a value of every other arithmetic class
    and one of its own class with other labels, both ways round for the
    operators: every outcome is a result, the library's mismatch ValueError
    or Python's TypeError, never an AttributeError, IndexError or KeyError,
    and == is False."""
    x, relabelled = ARITHMETIC[name]
    operands = [*FOREIGN, *(v for n, (v, _) in ARITHMETIC.items() if n != name)]
    if relabelled is not None:
        operands.append(relabelled)
    fn = OPERATIONS[op]
    for y in operands:
        for a, b in ((x, y),) if op in ("bracket", "apply") else ((x, y), (y, x)):
            try:
                result = fn(a, b)
            except TypeError:
                continue
            except ValueError as exc:
                assert MISMATCH.search(str(exc)), (op, a, b, exc)
                continue
            if op == "==":
                assert result is False, (a, b)
