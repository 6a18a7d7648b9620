"""The base of the compression path's plain records.

A record lists its fields, in order, as its `__slots__` and sets each of
them in a hand-written `__init__`.  The base gives it a `repr` of the form
`Name(field=value, ...)`, field-wise `==` between instances of the same
class, and no hash, as a non-frozen dataclass would, without importing
`dataclasses` (and through it `inspect`) on the compression path.
"""


class Record:
    __slots__ = ()
    __hash__ = None  # records are mutable

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()
