"""Base class of the package's immutable value types.

A record lists its fields, in order, as both ``__slots__`` and
``_fields``; its own ``__init__`` validates the arguments and then
stores them with ``object.__setattr__``.  Equality, hashing and repr
follow the fields as a frozen dataclass's do, and the repr text is the
same.  Records are built without the ``dataclasses`` module: its import
(it loads ``inspect``, ``ast`` and ``tokenize``) and its per-class code
generation take about a seventh of a short CLI call.
"""


class Record:
    """Immutable record whose fields are the names in ``_fields``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__: slots hold no __dict__
        # to restore, and __setattr__ refuses to set them one by one
        return self.__class__, self._values()
