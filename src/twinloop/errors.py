"""Exception hierarchy shared across the package."""


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
