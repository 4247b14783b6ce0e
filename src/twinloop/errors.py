"""Exception hierarchy shared across the package, and the decorator that
declares its frozen record and config classes."""

import dataclasses
import operator
import reprlib


class TwinloopError(Exception):
    """Base class for all package errors."""


class InvalidInput(TwinloopError):
    """An argument, or a record or config field, violates a documented precondition."""


class PlantIoError(TwinloopError):
    """Transport or protocol failure while talking to a plant."""


class ParseError(TwinloopError):
    """No heater action could be extracted from a backend response."""


class BackendError(TwinloopError):
    """A decision backend failed to produce a usable response."""

    def __init__(self, detail: str, status: int | None = None, elapsed: float = 0.0):
        super().__init__(detail)
        self.status = status
        self.elapsed = elapsed


class ConfigError(TwinloopError):
    """A config file, a command-line flag or the environment is invalid, or
    a file the run names cannot serve it: an output that cannot be written,
    or a replayed transcript that runs out."""


class LogFormatError(TwinloopError):
    """A run log or transcript line is malformed."""

    def __init__(self, detail: str, line_number: int | None = None):
        super().__init__(detail)
        self.line_number = line_number


# The methods ``frozen`` supplies; a class that defines one itself is refused.
_SUPPLIED = ("__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__")


def frozen(cls: type) -> type:
    """A frozen dataclass declared with one ``exec`` of its own generated source.

    ``dataclasses.dataclass(frozen=True)`` generates six methods per class
    and, before Python 3.13, ``exec``s each on its own; a process start-up
    pays for every one.  Here dataclasses collects the fields and sets
    ``__match_args__`` only; one ``exec`` then builds two methods:

    - ``__init__`` stores the arguments straight into the new instance's
      ``__dict__``, with the frozen ``__init__``'s keys in its order, then
      calls ``__post_init__``.  Plain defaults, ``init=False`` fields with
      a default, and the ``repr``, ``compare`` and ``hash`` options work as
      in dataclasses.  ``InitVar``, keyword-only and ``default_factory``
      fields are refused: a record's default is one shared frozen value.
    - ``__repr__`` is the dataclasses text, ``Name(a=1, b=2)`` over the
      ``repr`` fields, with the same guard against recursion.

    ``__eq__``, ``__hash__``, ``__setattr__`` and ``__delattr__`` are
    closures over the class and its field names, with dataclasses'
    semantics.  Equality compares the tuples of the ``compare`` fields of
    two instances of the same class; Python 3.13's field-by-field
    comparison differs from it only for a value unequal to itself.  The
    hash is that of the tuple of the ``hash`` fields.  Setting or deleting
    a field, or any attribute of the class's own instances, raises
    ``FrozenInstanceError``.  The class reads as ``dataclass(frozen=True)``,
    so a stdlib frozen dataclass may subclass it, and ``fields``,
    ``replace`` and ``asdict`` are dataclasses' own.

    From Python 3.13 on, dataclasses ``exec``s one source per class, all
    its methods together, and does so even when it generates none; a class
    there costs two ``exec``s, as it did with the stdlib's methods, but the
    stdlib's compiles no method.
    """
    for name in _SUPPLIED:
        if name in cls.__dict__:
            raise TypeError(f"{cls.__name__} defines {name}, which frozen supplies")
    cls = dataclasses.dataclass(init=False, repr=False, eq=False)(cls)
    # what dataclass(frozen=True, init=False) records
    recorded = cls.__dataclass_params__
    recorded.repr = recorded.eq = recorded.frozen = True
    fields = [f for f in cls.__dataclass_fields__.values() if f._field_type is not dataclasses._FIELD_CLASSVAR]
    # Generated names start with two underscores: a field so named in a
    # class body is mangled, so none can shadow them.
    namespace = {"__guard": reprlib.recursive_repr()}
    params, body = ["__self"], ["__d = __self.__dict__"]
    for f in fields:
        unsupported = f._field_type is dataclasses._FIELD_INITVAR or f.kw_only is True
        if unsupported or f.default_factory is not dataclasses.MISSING:
            name = f"{cls.__name__}.{f.name}"
            raise TypeError(f"{name}: InitVar, keyword-only and default_factory fields are not supported")
        if not f.init:
            # a plain default stays the class attribute, as in dataclasses
            continue
        if f.default is not dataclasses.MISSING:
            namespace[f"__default_{f.name}"] = f.default
            params.append(f"{f.name}=__default_{f.name}")
        elif "=" in params[-1]:
            raise TypeError(f"non-default argument {f.name!r} follows default argument")
        else:
            params.append(f.name)
        body.append(f"__d[{f.name!r}] = {f.name}")
    if hasattr(cls, "__post_init__"):
        body.append("__self.__post_init__()")
    shown = ", ".join(f"{f.name}={{__self.{f.name}!r}}" for f in fields if f.repr)
    exec(
        f"def __init__({', '.join(params)}):\n"
        + "".join(f"    {line}\n" for line in body)
        + "@__guard\ndef __repr__(__self):\n"
        + f'    return __self.__class__.__qualname__ + f"({shown})"\n',
        namespace,
    )

    names = tuple(f.name for f in fields)
    compared = _fields_tuple([f.name for f in fields if f.compare])
    hashed = _fields_tuple([f.name for f in fields if (f.compare if f.hash is None else f.hash)])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return compared(self) == compared(other)
        return NotImplemented

    def __hash__(self):
        return hash(hashed(self))

    # Every attribute of the class's own instances is frozen; a plain
    # subclass's instances may add attributes, but not change a field.
    def __setattr__(self, name, value):
        if type(self) is cls or name in names:
            raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in names:
            raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    for method in (namespace["__init__"], namespace["__repr__"], __eq__, __hash__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls


def _fields_tuple(names: list):
    """A function from an instance to the tuple of its ``names`` fields."""
    if len(names) == 1:
        get = operator.attrgetter(names[0])
        return lambda self: (get(self),)
    return operator.attrgetter(*names) if names else lambda self: ()
