"""Immutable value records, the base of every parameter and result class.

A record class lists its fields in ``_fields``, and defaults for trailing
fields in ``_defaults``. The base supplies a constructor that binds
positional, then keyword arguments to the fields; a class whose constructor
runs checks writes its own and sets its fields with
``self.__dict__.update(...)``. The base also supplies equality within one
class, a hash over the fields, a ``Name(field=value, ...)`` repr, and a guard
that makes every attribute read-only. Attributes that are not fields
(derived data, ``cached_property`` values) stay out of equality, hash and
repr.

This replaces ``dataclasses``: importing it pulls ``inspect``, ``ast`` and
``dis`` into the process, and each decorated class generates its methods
through ``exec``, which together cost every command line run tens of ms.
"""


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init__(self, *args, **kwargs):
        fields, name = self._fields, type(self).__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} positional arguments, got {len(args)}")
        given = dict(zip(fields, args))
        for key in kwargs:
            if key in given or key not in fields:
                why = "multiple values for" if key in given else "an unexpected keyword"
                raise TypeError(f"{name}() got {why} argument {key!r}")
        values = {**self._defaults, **given, **kwargs}
        for key in fields:
            if key not in values:
                raise TypeError(f"{name}() missing required argument {key!r}")
            object.__setattr__(self, key, values[key])  # also fills __slots__

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
