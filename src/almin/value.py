"""Immutable value types: the one base class of every engine record.

`class X(Value)` with annotated fields makes an immutable record.  Its
fields are the class's annotations, in order; a class attribute of the same
name is that field's default, and fields with defaults come last.  `X(...)`
takes the fields positionally or by name, stores them, then runs
`__post_init__` when the class defines one (which may normalize a field
with `object.__setattr__`, or set an attribute that is not a field).  After
that no attribute can be assigned or deleted.  Two values are equal when
they have the same class and equal field tuples, a value hashes as its field
tuple, `hash((x.f1, ...))`, and its repr reads `X(f1=..., ...)`.  A class
may still define its own `__eq__`, `__hash__` or `__repr__`.

Nothing here generates or compiles code: a class statement only reads the
annotations and binds a closure over the field names.
"""

from __future__ import annotations

from operator import attrgetter

_store = object.__setattr__


class Value:
    _fields: tuple[str, ...] = ()
    _defaults: tuple = ()  # the defaults of the last len(_defaults) fields

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls._fields + tuple(cls.__annotations__)
        defaults = tuple(getattr(cls, n) for n in names if hasattr(cls, n))
        n = len(names)
        if any(hasattr(cls, name) for name in names[: n - len(defaults)]):
            raise TypeError(f"{cls.__qualname__}: a field without a default follows one with")
        cls._fields, cls._defaults = names, defaults
        cls.__init__ = _initializer(cls, names, getattr(cls, "__post_init__", None))
        if n == 1:
            get = attrgetter(*names)
            cls._field_tuple = staticmethod(lambda obj: (get(obj),))
        else:
            cls._field_tuple = staticmethod(attrgetter(*names) if names else lambda obj: ())

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._field_tuple(self) == other._field_tuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._field_tuple(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"


def _initializer(cls, names: tuple[str, ...], post):
    """cls.__init__: one positional argument per field is stored as given;
    a call that names fields or leaves defaults goes through _bind."""
    n = len(names)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = _bind(cls, args, kwargs)
        for name, value in zip(names, args):
            _store(self, name, value)
        if post is not None:
            post(self)

    return __init__


def _bind(cls, args: tuple, kwargs: dict) -> tuple:
    """The field values of a call that does not give exactly one positional
    argument per field: keywords name fields, and defaults fill the rest."""
    names, defaults = cls._fields, cls._defaults
    first_default = len(names) - len(defaults)
    if not kwargs and first_default <= len(args) <= len(names):
        return args + defaults[len(args) - first_default :]
    values = dict(zip(names[first_default:], defaults))
    values.update(zip(names, args))
    for name, value in kwargs.items():
        if name not in names or names.index(name) < len(args):
            raise TypeError(f"{cls.__qualname__} got an unexpected or repeated field {name!r}")
        values[name] = value
    if len(args) > len(names) or len(values) < len(names):
        raise TypeError(f"{cls.__qualname__}{names} cannot take {args} and {kwargs}")
    return tuple(map(values.__getitem__, names))


def replace(obj: Value, **changes) -> Value:
    """A copy of obj with the named fields changed, built through its class,
    so `__post_init__` checks the new values."""
    return type(obj)(**{**{n: getattr(obj, n) for n in obj._fields}, **changes})
