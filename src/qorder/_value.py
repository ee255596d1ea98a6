"""The bases of the package's value classes.

A value class names its fields in ``_fields``, keeps each in a slot of
the same name and sets each once, in ``__init__``, with ``_set``; after
that, assigning or deleting a field raises ``AttributeError``.  A value
equals only a value of its own class with equal fields, equal values
hash alike, the repr is ``Name(field=value, ...)``, and copy and pickle
go through the constructor.  ``Record`` is the same without the hash
and the read-only fields, for ``ParseError``, an exception.

The classes were dataclasses once, and the functions of
:mod:`dataclasses` (``replace``, ``fields``, ``asdict``) still accept
their values; that module is imported only when one of them asks.
"""

import functools

_set = object.__setattr__


@functools.cache
def _dataclass_twin(cls) -> type:
    import dataclasses
    return dataclasses.make_dataclass(cls.__name__, cls._fields,
                                      frozen=issubclass(cls, Value))


class _DataclassView:
    """``__dataclass_fields__`` or ``__dataclass_params__`` of a value
    class: those of a dataclass with the same fields, made on the first
    access.  ``pprint`` reads the parameters of whatever
    ``dataclasses.is_dataclass`` accepts."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, value, cls):
        return getattr(_dataclass_twin(cls), self.name)


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    __dataclass_fields__ = _DataclassView()
    __dataclass_params__ = _DataclassView()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # the default would restore the slots through __setattr__
        return type(self), self._key()


class Value(Record):
    __slots__ = ()

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
