"""`Record`, the one base of flagcoh's value classes.

A subclass names its fields in `_fields`, in constructor order.  An instance
equals an instance of exactly its class with equal fields, hashes as the
tuple of its fields, shows as `Name(field=value, ...)` and is read-only, so
a constructor sets each field with `setfield`.  The classes that make many
instances declare `__slots__ = _fields` and write their own `__init__` and
`_key`; the term algebra and the derivations, which every bracket builds,
set their slots through `slot_setters`.  Those with a
`functools.cached_property` keep the instance `__dict__` it fills.
`invforms.VecTensor` reads `_fields` too, to build a tensor with another's
labels and to refuse one with other labels.  A derivation, an invariant
form and a cochain hold their values in one read-only `exterior._Terms`
map, which hashes by its items, so they hash like every other record.
"""

from itertools import repeat

setfield = object.__setattr__


def slot_setters(cls) -> tuple:
    """The setters of the slots cls declares for its `_fields`, in that
    order: faster than `setfield`, which finds the slot by name each call."""
    return tuple(vars(cls)[f].__set__ for f in cls._fields)


class Record:
    __slots__ = ()
    _fields = ()

    def __init__(self, *args, **kwargs):
        """The fields by position, then by keyword; a field with a class
        attribute of its name defaults to that."""
        fields = self._fields
        if kwargs or len(args) != len(fields):
            given = dict(zip(fields, args), **kwargs)
            if (len(given) < len(args) + len(kwargs) or not given.keys() <= set(fields)
                    or any(f not in given and not hasattr(type(self), f) for f in fields)):
                raise TypeError(f"{type(self).__name__} takes the fields {fields}")
            fields, args = given.keys(), given.values()
        # setfield returns None, so any() sets every field
        any(map(setfield, repeat(self), fields, args))

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r} of a {type(self).__name__}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"
