"""Immutable records: classes made of annotated fields.

A subclass of `Record` lists its fields as class annotations, in order; a
value assigned in the class body is that field's default. Records are built
positionally or by keyword, cannot be assigned to, compare equal only to a
record of the same class with equal fields, hash by their fields and print
as ``Name(field=value, ...)``. A `__post_init__` method, if the class
defines one, runs after the fields are set and may refuse them.

All records share the methods below. Nothing is generated or compiled per
class, so defining a record costs about as much as defining any class.

>>> class Point(Record):
...     x: int
...     y: int = 0
>>> Point(1)
Point(x=1, y=0)
>>> Point(1, 2) == Point(x=1, y=2), Point(1, 2) == (1, 2)
(True, False)
>>> Point(1, z=2)
Traceback (most recent call last):
    ...
TypeError: Point has no field 'z'
"""

from __future__ import annotations


class Record:
    """Base class of the package's immutable records (see the module)."""

    _fields = ()      # field names, in order
    _defaults = {}    # field name -> default value

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(n for n in cls.__annotations__ if n not in cls._fields)
        cls._fields = cls._fields + own
        cls._defaults = {n: getattr(cls, n) for n in cls._fields if hasattr(cls, n)}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__} takes {len(fields)} fields, "
                            f"{len(args)} given")
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields:
                raise TypeError(f"{cls.__name__} has no field {name!r}")
            if name in values:
                raise TypeError(f"{cls.__name__} got field {name!r} twice")
            values[name] = value
        for name in fields[len(args):]:
            if name not in values:
                if name not in cls._defaults:
                    raise TypeError(f"{cls.__name__} is missing field {name!r}")
                values[name] = cls._defaults[name]
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        inner = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({inner})"
