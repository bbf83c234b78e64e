"""Frozen value records: `record` gives a class what
`dataclasses.dataclass(frozen=True)` would (`__init__`, `__repr__`, `__eq__`,
`__hash__`, refusal of assignment) from functions shared by every record,
with no code generated per class and no import of `dataclasses`, which
loads `inspect` and `ast` at start-up."""
from __future__ import annotations

_MISSING = object()
_set = object.__setattr__


def _init(self, *args, **kwargs):
    # fields are set one by one, as dataclasses does: an instance whose
    # __dict__ is never read keeps its values in CPython's compact per-class
    # layout, about half the memory of a materialized __dict__
    names = self._fields
    if kwargs or len(args) != len(names):
        args = _bound(self, args, kwargs)
    for name, value in zip(names, args):
        _set(self, name, value)
    if self._post_init:
        self.__post_init__()


def _bound(self, args: tuple, kwargs: dict):
    """Every field's value, in field order, or TypeError."""
    names = self._fields
    if not args and kwargs.keys() == self._defaults.keys():
        return map(kwargs.__getitem__, names)
    values = dict(self._defaults)  # every field, in order
    values.update(zip(names, args))
    values.update(kwargs)
    if (len(values) != len(names) or len(args) > len(names)
            or _MISSING in values.values()
            or not kwargs.keys().isdisjoint(names[:len(args)])):
        raise TypeError(f"{type(self).__qualname__} takes the fields "
                        f"{', '.join(names)}; got {args!r} and {kwargs!r}")
    return values.values()


def _values(self) -> tuple:
    return tuple(map(self.__getattribute__, self._fields))


def _repr(self) -> str:
    fields = [f"{name}={getattr(self, name)!r}" for name in self._fields]
    return f"{type(self).__qualname__}({', '.join(fields)})"


def _eq(self, other):
    if other.__class__ is self.__class__:
        return _values(self) == _values(other)
    return NotImplemented


def _hash(self) -> int:
    return hash(_values(self))


def _setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def record(cls=None, *, eq: bool = True):
    """Make cls a frozen record over its annotated fields, inherited ones
    first, defaults read from the class attributes.  `__init__` takes them
    by position or keyword, then calls `__post_init__` if there is one;
    only `object.__setattr__` can change a field.  With eq=False, equality
    and hashing stay by identity.  A method the class defines is kept."""
    if cls is None:
        return lambda cls: record(cls, eq=eq)
    cls._post_init = hasattr(cls, "__post_init__")
    methods = {"__init__": _init, "__repr__": _repr,
               "__setattr__": _setattr, "__delattr__": _delattr}
    if eq:
        methods.update(__eq__=_eq, __hash__=_hash)
    for name, method in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    cls._fields = getattr(cls, "_fields", ()) + tuple(
        cls.__dict__.get("__annotations__", ()))
    cls._defaults = {name: getattr(cls, name, _MISSING)
                     for name in cls._fields}
    return cls
