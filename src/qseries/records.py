"""The base of the package's value records: the AST nodes, the product and
rule specs, the claims and their reports.

A record lists its fields as class annotations, in order; a field with a
default gives it on its annotation line (``order: int = 0``), and only an
immutable default may stand there, as every record shares it.  The one
``Record.__init__`` takes positional values in field order, then keywords,
then the defaults, and sets every field, in field order, with
``object.__setattr__``: a frozen record is built the same way, and all
instances of a class can share their dict's keys.  ``Record`` gives the field-wise repr
``Name(field=value, ...)`` and equality with a record of its own class
whose fields are equal, and leaves it mutable and unhashable.
``FrozenRecord`` adds a hash of the fields and refuses assignment.

These are plain classes, not ``dataclasses``: importing that module pulls
in ``inspect`` and generating each class costs a fraction of a
millisecond, which every process paid before its first coefficient.
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


class Record:
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        if cls._fields:  # FrozenRecord itself declares none
            given = cls.__dict__
            cls._defaults = {name: given[name] for name in cls._fields if name in given}
            # called as self._values(self): the field's value, or a tuple of
            # them for two or more fields
            cls._values = attrgetter(*cls._fields)

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(
                f"{self.__class__.__qualname__} got {len(args)} values for the fields {fields}"
            )
        for name, value in zip(fields, args):
            _set(self, name, value)
        if kwargs or len(args) < len(fields):
            rest = fields[len(args):]
            values = {**self._defaults, **kwargs}
            try:
                for name in rest:
                    _set(self, name, values[name])
            except KeyError:
                raise TypeError(
                    f"{self.__class__.__qualname__} is missing field {name!r}"
                ) from None
            for name in kwargs:
                if name not in rest:
                    problem = "repeated" if name in fields else "unknown"
                    raise TypeError(f"{self.__class__.__qualname__} got {problem} field {name!r}")

    def __eq__(self, other: object) -> bool:
        # one comparison of the values, so comparing two trees takes one frame a level
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class FrozenRecord(Record):
    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
