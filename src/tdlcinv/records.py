"""Immutable value records.

A subclass of ``Record`` names its fields, in order, in ``__slots__`` and
gets what a frozen dataclass would give, written once here instead of
generated per class: construction by position or keyword in field order,
an optional ``__post_init__`` check, equality and hash by value between
instances of the same class only, the dataclass-style ``repr``, and
``AttributeError`` on assignment.  A ``__post_init__`` that normalizes a
field sets it with ``object.__setattr__``.  Records are not tuples: they
never equal one and have no order.
"""


class Record:
    __slots__ = ()

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        values = dict(zip(fields, args))
        if len(args) > len(fields) or values.keys() & kwargs or values.keys() | kwargs.keys() != set(fields):
            raise TypeError(f"{type(self).__qualname__} takes the fields ({', '.join(fields)})")
        values.update(kwargs)
        for name in fields:
            object.__setattr__(self, name, values[name])
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r} on an immutable {type(self).__qualname__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r} from an immutable {type(self).__qualname__}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, since __setattr__ refuses
        return type(self), self._values()
