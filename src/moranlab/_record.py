"""Immutable value records, the base of every parameter and result class.

A record class lists its fields in ``_fields`` and sets them in its own
``__init__`` (``self.__dict__.update(...)``, or ``object.__setattr__`` for a
class with ``__slots__``) after running its checks. The base supplies
equality within one class, a hash over the fields, a ``Name(field=value,
...)`` repr, and a guard that makes every attribute read-only. Attributes
that are not fields (derived data, ``cached_property`` values) stay out of
equality, hash and repr.

This replaces ``dataclasses``: importing it pulls ``inspect``, ``ast`` and
``dis`` into the process, and each decorated class generates its methods
through ``exec``, which together cost every command line run tens of ms.
"""


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
