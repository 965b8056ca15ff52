"""Base of the package's frozen value classes."""

from __future__ import annotations


class Frozen:
    """Immutable value whose fields are the names in ``_fields``.

    Equality, hash and repr read those fields only, so attributes that
    ``__init__`` derives from them take no part.  Assigning or deleting an
    attribute raises :class:`AttributeError`.
    """

    _fields: tuple[str, ...] = ()

    def _set(self, **values) -> None:
        # Called once by ``__init__``.  ``object.__setattr__`` goes round the
        # class's own, which raises; writing ``self.__dict__`` instead would
        # give the instance a dict of its own, and from CPython 3.11 on that
        # makes every attribute read slower, in the closed loop too.
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}"
                         for name in self._fields)
        return f"{type(self).__name__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is frozen: "
                             f"cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is frozen: "
                             f"cannot delete {name!r}")
