"""The base of the package's immutable value types.

A value's fields are the names in its class's `__slots__`.  Its own
`__init__` validates them and sets each once with `object.__setattr__`;
after that every assignment and deletion is refused.
"""

from operator import attrgetter

__all__ = ["Value"]


class Value:
    """Immutable, equal by the `__slots__` fields within one class, and
    hashable over them.  A subclass holding a mutable field sets
    `__hash__ = None`."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # one C-level getter per class: the tuple of fields, in slot order
        cls._fields = attrgetter(*cls.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = self._fields
        return fields(self) == fields(other)

    def __hash__(self):
        return hash(self._fields(self))
