"""Exception hierarchy shared across the package, and the decorator that
declares its frozen record and config classes."""

import dataclasses


class TwinloopError(Exception):
    """Base class for all package errors."""


class InvalidState(TwinloopError):
    """An object is in a state that makes the requested operation meaningless."""


class InvalidInput(TwinloopError):
    """An argument violates a documented precondition."""


class PlantIoError(TwinloopError):
    """Transport or protocol failure while talking to a plant."""


class TemplateError(TwinloopError):
    """A prompt template could not be rendered."""


class ParseError(TwinloopError):
    """No heater action could be extracted from a backend response."""


class BackendError(TwinloopError):
    """A decision backend failed to produce a usable response."""

    def __init__(self, detail: str, status: int | None = None, elapsed: float = 0.0):
        super().__init__(detail)
        self.status = status
        self.elapsed = elapsed


class ConfigError(TwinloopError):
    """A configuration document or environment prerequisite is invalid."""


class OutputError(TwinloopError):
    """A run output, the run log or a transcript, could not be written."""


class ReplayExhausted(TwinloopError):
    """A replay backend received more calls than its transcript holds."""


class LogFormatError(TwinloopError):
    """A run log or transcript line is malformed."""

    def __init__(self, detail: str, line_number: int | None = None):
        super().__init__(detail)
        self.line_number = line_number


def frozen(cls: type) -> type:
    """``dataclasses.dataclass(frozen=True)`` with an ``__init__`` that
    stores the fields straight into the new instance's ``__dict__``.

    The frozen ``__init__`` of dataclasses sets each field through
    ``object.__setattr__``.  This one, generated the same way, fills
    ``__dict__`` in one pass with the same keys in the same order, then
    calls ``__post_init__``.  Defaults, ``default_factory`` and
    ``init=False`` fields work as they do there; ``InitVar`` and keyword-only
    fields are refused.  The instance stays frozen, and equality, hashing,
    ``repr``, ``replace`` and ``fields`` are dataclasses' own.
    """
    cls = dataclasses.dataclass(frozen=True, init=False)(cls)
    # Generated names start with two underscores: a field so named in a
    # class body is mangled, so none can shadow them.
    namespace = {"__factory": dataclasses._HAS_DEFAULT_FACTORY}
    params, body = ["__self"], ["__d = __self.__dict__"]
    for f in cls.__dataclass_fields__.values():
        if f._field_type is dataclasses._FIELD_INITVAR or f.kw_only is True:
            raise TypeError(f"{cls.__name__}.{f.name}: InitVar and keyword-only fields are not supported")
        if f._field_type is not dataclasses._FIELD:
            continue
        if f.default_factory is not dataclasses.MISSING:
            namespace[f"__make_{f.name}"] = f.default_factory
            if f.init:
                params.append(f"{f.name}=__factory")
                value = f"__make_{f.name}() if {f.name} is __factory else {f.name}"
            else:
                value = f"__make_{f.name}()"
        elif not f.init:
            # a plain default stays the class attribute, as in dataclasses
            continue
        elif f.default is not dataclasses.MISSING:
            namespace[f"__default_{f.name}"] = f.default
            params.append(f"{f.name}=__default_{f.name}")
            value = f.name
        elif "=" in params[-1]:
            raise TypeError(f"non-default argument {f.name!r} follows default argument")
        else:
            params.append(f.name)
            value = f.name
        body.append(f"__d[{f.name!r}] = {value}")
    if hasattr(cls, "__post_init__"):
        body.append("__self.__post_init__()")
    exec(f"def __init__({', '.join(params)}):\n" + "".join(f"    {line}\n" for line in body), namespace)
    cls.__init__ = namespace["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    return cls
