"""The base of the package's value records: the AST nodes, the product and
rule specs, the claims and their reports.

A record lists its fields as class annotations, in order, and sets them in
a straight-line ``__init__``.  ``Record`` gives it the field-wise repr
``Name(field=value, ...)`` and equality with a record of its own class
whose fields are equal, and leaves it mutable and unhashable.
``FrozenRecord`` adds a hash of the fields and refuses assignment, so its
``__init__`` sets each field with ``object.__setattr__``.

These are plain classes, not ``dataclasses``: importing that module pulls
in ``inspect`` and generating each class costs a fraction of a
millisecond, which every process paid before its first coefficient.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        if cls._fields:  # FrozenRecord itself declares none
            # called as self._values(self): the field's value, or a tuple of
            # them for two or more fields
            cls._values = attrgetter(*cls._fields)

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
