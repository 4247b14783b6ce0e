"""Decision backends: live HTTP chat completions, scripted policies with
seeded error behaviour and injected inference latency, and record/replay.

Every backend exposes one method, ``complete(system_text, user_text, ctx)``,
returning an :class:`Exchange` stamped with ``ctx.timestamp``.  Scripted
backends decide from the structured fields in ``ctx`` (the rendered texts
are carried along for the transcript); the HTTP backend sends the texts;
replay ignores both and returns the recorded stream, failed calls included.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import random
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING
from urllib.parse import urlsplit  # loaded with pathlib already

from .agents import DecisionContext, expected_action
from .errors import BackendError, ConfigError, InvalidInput, LogFormatError, frozen
from .jsonio import RecordWriter, dumps_record, is_blank, loads_json
from .plantio import MAX_DURATION_S

if TYPE_CHECKING:
    import urllib.request

HTTP = "http"
SCRIPTED = "scripted"
REPLAY = "replay"

ORACLE = "oracle"
FLIP = "flip"
ALWAYS_WRONG = "always_wrong"

CHAT_COMPLETIONS_PATH = "/v1/chat/completions"
MAX_OUTPUT_TOKENS = 512
DEFAULT_API_KEY_ENV = "LLM_API_KEY"

@frozen
class Exchange:
    """One backend call: both prompt texts, the reply, and its latency."""

    system_text: str
    user_text: str
    response_text: str
    latency: float
    model: str
    timestamp: float

    def __post_init__(self):
        if not 0.0 <= self.latency < math.inf:
            raise InvalidInput(f"latency must be finite and >= 0, got {self.latency!r}")


_LOG_FLOAT_MAX = math.log(sys.float_info.max)


@frozen
class LatencySpec:
    """Injected inference latency: none, a fixed value, or lognormal draws."""

    kind: str = "none"
    seconds: float = 0.0
    mu: float = 0.0
    sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("none", "fixed", "lognormal"):
            raise InvalidInput(f"unknown latency kind {self.kind!r}")
        # an infinite latency is refused here, not at the run's first call
        if self.kind == "fixed" and not 0.0 <= self.seconds < math.inf:
            raise InvalidInput(f"fixed latency must be finite and >= 0, got {self.seconds!r}")
        if self.kind == "lognormal" and not self.sigma >= 0.0:
            raise InvalidInput("lognormal sigma must be >= 0")
        # a draw is exp of a normal one, so no draw within 30 sigma overflows
        if self.kind == "lognormal" and not self.mu + 30.0 * self.sigma < _LOG_FLOAT_MAX:
            raise InvalidInput(f"lognormal mu + 30 * sigma must be below log(max float), {_LOG_FLOAT_MAX:.2f}")


@frozen
class ScriptedPolicy:
    """Deterministic stand-in for a language model.

    ``oracle`` always answers with the rule's expected action; ``always_wrong``
    always answers the opposite; ``flip`` is wrong on a first attempt with
    probability ``p_wrong_first`` and, once feedback is present, correct with
    probability ``p_correct_on_feedback``.  All draws come from one stream
    seeded with ``seed``, consumed in episode order.
    """

    kind: str = ORACLE
    p_wrong_first: float = 0.0
    p_correct_on_feedback: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in (ORACLE, FLIP, ALWAYS_WRONG):
            raise InvalidInput(f"unknown scripted policy {self.kind!r}")
        for name in ("p_wrong_first", "p_correct_on_feedback"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise InvalidInput(f"{name} must lie in [0, 1], got {p!r}")


_FIELDS_READ = {
    HTTP: {"kind", "base_url", "model", "temperature", "timeout", "api_key_env"},
    SCRIPTED: {"kind", "script", "latency"},
    REPLAY: {"kind", "transcript_path"},
}


@frozen
class BackendConfig:
    """Union config for the three backend kinds: each kind reads the fields
    ``_FIELDS_READ`` names and refuses any other field that is not at its default."""

    kind: str = SCRIPTED
    base_url: str = ""
    model: str = ""
    temperature: float = 0.0
    timeout: float = 30.0
    api_key_env: str = DEFAULT_API_KEY_ENV
    script: ScriptedPolicy = ScriptedPolicy()
    transcript_path: str = ""
    latency: LatencySpec = LatencySpec()

    def __post_init__(self):
        if self.kind not in _FIELDS_READ:
            raise InvalidInput(f"unknown backend kind {self.kind!r}")
        if not self.timeout > 0.0:
            raise InvalidInput("backend timeout must be > 0")
        # a socket timeout beyond time_t overflows on the first call
        if not self.timeout <= MAX_DURATION_S:
            raise InvalidInput(f"backend timeout may not exceed {MAX_DURATION_S:g} s, got {self.timeout!r}")
        if self.kind == HTTP:
            if not self.base_url:
                raise InvalidInput("http backend requires base_url")
            # any other URL fails every call, or only mid-run, or reaches a non-HTTP handler
            try:
                url = urlsplit(self.base_url)
                url.port  # raises for a port urllib cannot read
            except ValueError as exc:
                raise InvalidInput(f"http backend base_url {self.base_url!r} is not a URL: {exc}") from None
            if url.scheme not in ("http", "https") or not url.hostname:
                raise InvalidInput(f"http backend base_url must be http(s)://<host>[:<port>], got {self.base_url!r}")
            if not self.model:
                raise InvalidInput("http backend requires model")
            # JSON has no Infinity for the request body to carry
            if not 0.0 <= self.temperature < math.inf:
                raise InvalidInput(f"http temperature must be finite and >= 0, got {self.temperature!r}")
        if self.kind == REPLAY and not self.transcript_path:
            raise InvalidInput("replay backend requires transcript_path")
        for f in dataclasses.fields(self):
            if f.name not in _FIELDS_READ[self.kind] and getattr(self, f.name) != f.default:
                raise InvalidInput(f"'{f.name}' does not apply to a {self.kind} backend")


class HttpBackend:
    """Chat-completions client: one system plus one user message per call.

    Retries exactly once on transport timeout; HTTP error statuses are not
    retried, so systematic failures surface immediately.

    The HTTP client stack (``http.client`` pulls in ``ssl`` and ``email``)
    is imported here rather than with the package, so runs that never build
    this backend do not pay for it, and before the first call, so its
    one-off import time never lands in a call's latency.
    """

    def __init__(self, config: BackendConfig):
        self.config = config
        key = os.environ.get(config.api_key_env, "")
        if not key:
            raise ConfigError(f"missing API key: set ${config.api_key_env}")
        # it goes into a header line, which http.client refuses mid-run otherwise
        if not (key.isascii() and key.isprintable()):
            raise ConfigError(f"API key in ${config.api_key_env} must be printable ASCII")
        self._key = key
        self._url = config.base_url.rstrip("/") + CHAT_COMPLETIONS_PATH
        import http.client
        import urllib.error
        import urllib.request

        self._http = http
        self._urllib = urllib

    def complete(self, system_text: str, user_text: str, ctx: DecisionContext) -> Exchange:
        body = {
            "model": self.config.model,
            "temperature": self.config.temperature,
            "max_tokens": MAX_OUTPUT_TOKENS,
            "messages": [
                {"role": "system", "content": system_text},
                {"role": "user", "content": user_text},
            ],
        }
        request = self._urllib.request.Request(
            self._url,
            data=json.dumps(body).encode("utf-8"),
            headers={"Authorization": f"Bearer {self._key}", "Content-Type": "application/json"},
            method="POST",
        )
        t0 = time.monotonic()
        for attempt in range(2):
            try:
                status, raw = self._post(request)
                break
            except (OSError, self._http.client.HTTPException) as exc:
                # urlopen wraps a connect timeout in URLError; a read timeout arrives bare
                timed_out = isinstance(exc, TimeoutError) or isinstance(
                    getattr(exc, "reason", None), TimeoutError
                )
                if timed_out and attempt == 0:
                    continue
                detail = "request timed out after one retry" if timed_out else f"transport failure: {exc}"
                raise BackendError(detail, elapsed=time.monotonic() - t0) from exc
        latency = time.monotonic() - t0
        if status != 200:
            raise BackendError(
                f"HTTP {status} from completion endpoint", status=status, elapsed=latency
            )
        try:
            content = loads_json(raw.decode("utf-8"))["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise BackendError(f"malformed response body: {exc}", elapsed=latency) from exc
        if not isinstance(content, str):
            raise BackendError("malformed response body: content is not text", elapsed=latency)
        return Exchange(system_text, user_text, content, latency, self.config.model, ctx.timestamp)

    def _post(self, request: urllib.request.Request) -> tuple[int, bytes]:
        """One POST; an HTTP error status is returned, not raised."""
        try:
            with self._urllib.request.urlopen(request, timeout=self.config.timeout) as response:
                return response.status, response.read()
        except self._urllib.error.HTTPError as exc:
            exc.close()
            return exc.code, b""


class ScriptedBackend:
    """Policy-driven fake model with optional injected latency.

    The latency is only attached to the exchange and the call returns at
    once; the control loop waits it out on the plant's clock, which steps a
    lockstep plant and sleeps on a realtime one.
    """

    def __init__(self, policy: ScriptedPolicy, latency: LatencySpec | None = None):
        self.policy = policy
        self.model = f"scripted-{policy.kind}"
        # fixed for the backend's life, so read once here, not per call
        self._kind, self._draw = policy.kind, random.Random(policy.seed).random
        # latencies draw from a stream of their own, so they never change a decision
        latency = latency or LatencySpec()
        if latency.kind == "lognormal":
            draw = random.Random(latency.seed).lognormvariate
            self._sample = functools.partial(draw, latency.mu, latency.sigma)
        else:
            seconds = latency.seconds if latency.kind == "fixed" else 0.0
            self._sample = lambda: seconds

    def complete(self, system_text: str, user_text: str, ctx: DecisionContext) -> Exchange:
        expected = expected_action(ctx.t_sensor, ctx.prev_action, ctx.thresholds)
        kind = self._kind
        if kind == ORACLE:
            action = expected
        elif kind == ALWAYS_WRONG:
            action = expected.opposite
        else:
            if ctx.has_feedback:
                wrong = self._draw() >= self.policy.p_correct_on_feedback
            else:
                wrong = self._draw() < self.policy.p_wrong_first
            action = expected.opposite if wrong else expected
        return Exchange(
            system_text, user_text, f"ACTION: {action._value_}", self._sample(), self.model, ctx.timestamp
        )


class ReplayBackend:
    """Feeds back a recorded exchange stream, one entry per call, in order.

    An entry with an ``error`` raises that :class:`BackendError` again, with
    its recorded ``status`` and ``elapsed`` time.  Prompt content is ignored;
    only the call count is checked against the transcript length.
    """

    def __init__(self, entries: list[dict]):
        self._entries = entries
        self._cursor = 0

    def complete(self, system_text: str, user_text: str, ctx: DecisionContext) -> Exchange:
        if self._cursor >= len(self._entries):
            raise ConfigError(
                f"transcript holds {len(self._entries)} exchanges; call {self._cursor + 1} has no recording"
            )
        entry = self._entries[self._cursor]
        self._cursor += 1
        if "error" in entry:
            raise BackendError(entry["error"], status=entry.get("status"), elapsed=entry["elapsed"])
        return Exchange(
            system_text, user_text, entry["response_text"], entry["latency"], entry.get("model", "replay"),
            ctx.timestamp,
        )


def _replayable(doc: dict) -> bool:
    """A recorded failure (``error``, ``elapsed``) or exchange
    (``response_text``, ``latency``), of the types the recorder writes."""
    text, seconds = ("error", "elapsed") if "error" in doc else ("response_text", "latency")
    value = doc.get(seconds)
    if type(doc.get("model", "")) is not str or type(doc.get("status")) not in (int, type(None)):
        return False
    return type(doc.get(text)) is str and type(value) in (int, float) and 0.0 <= value < math.inf


def load_replay(transcript_path: str | Path) -> ReplayBackend:
    """Build a replay backend from a recorded transcript file, checking
    each line before the run starts."""
    entries = []
    with open(transcript_path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if is_blank(line):
                continue
            try:
                doc = loads_json(line.decode("utf-8"))
            except ValueError as exc:
                raise LogFormatError(f"bad transcript line: {exc}", line_number=lineno) from exc
            if not (isinstance(doc, dict) and _replayable(doc)):
                raise LogFormatError(
                    "transcript line needs a string response_text and a latency, or a string error and an elapsed "
                    "time, in seconds >= 0, and any model a string, any status an integer or null", line_number=lineno
                )
            entries.append(doc)
    return ReplayBackend(entries)


class TranscriptRecorder:
    """Wraps any backend and appends each call to a transcript file: an
    exchange, or a failed call's ``error``, ``elapsed`` and ``status``, after
    which the :class:`BackendError` propagates unchanged.  A failed write or
    close raises :class:`ConfigError`."""

    def __init__(self, inner, path: str | Path):
        self._inner = inner
        self._file = RecordWriter(path, "transcript")

    def complete(self, system_text: str, user_text: str, ctx: DecisionContext) -> Exchange:
        try:
            exchange = self._inner.complete(system_text, user_text, ctx)
        except BackendError as exc:
            failure = {"error": str(exc), "elapsed": exc.elapsed, "status": exc.status}
            self._file.write_line(dumps_record(failure))
            raise
        self._file.write_line(dumps_record(exchange))
        return exchange

    def close(self) -> None:
        self._file.close()
