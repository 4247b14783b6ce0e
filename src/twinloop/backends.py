"""Decision backends: live HTTP chat completions, scripted policies with
seeded error behaviour and injected inference latency, and record/replay.

Every backend exposes one method, ``complete(system_text, user_text, ctx)``,
returning an :class:`Exchange`.  Scripted backends decide from the structured
fields in ``ctx`` (the rendered texts are carried along for the transcript);
the HTTP backend sends the texts and ignores ``ctx``; replay ignores both and
returns the recorded stream.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from .agents import Thresholds, expected_action
from .errors import BackendError, ConfigError, InvalidInput, LogFormatError, ReplayExhausted
from .jsonio import dumps_record, loads_record
from .plantio import HeaterAction

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

# Emulated single-attempt inference latencies (s) for popular hosted models,
# derived from observed decision throughput over a 40-minute session.
MODEL_LATENCY_PROFILES = {
    "gpt-3.5": 5.67,
    "gpt-4o-mini": 6.09,
    "gpt-4o": 4.33,
    "gpt-4": 18.75,
}


@dataclass(frozen=True)
class Exchange:
    """One backend call: both prompt texts, the reply, and its latency."""

    system_text: str
    user_text: str
    response_text: str
    latency: float
    model: str
    timestamp: float

    def __post_init__(self):
        if self.latency < 0.0:
            raise InvalidInput(f"latency must be >= 0, got {self.latency!r}")


@dataclass(frozen=True)
class DecisionContext:
    """Structured view of the decision a prompt asks for.

    Scripted backends act on this instead of parsing their own prompt text;
    it also carries the run clock so recorded exchanges are timestamped in
    simulation time, not wall time.
    """

    t_sensor: float
    prev_action: HeaterAction
    thresholds: Thresholds
    has_feedback: bool
    timestamp: float


@dataclass(frozen=True)
class LatencySpec:
    """Injected inference latency: none, a fixed value, or lognormal draws."""

    kind: str = "none"
    seconds: float = 0.0
    mu: float = 0.0
    sigma: float = 0.0
    seed: int = 0

    def validate(self) -> "LatencySpec":
        if self.kind not in ("none", "fixed", "lognormal"):
            raise ConfigError(f"unknown latency kind {self.kind!r}")
        if self.kind == "fixed" and self.seconds < 0.0:
            raise ConfigError("fixed latency must be >= 0")
        if self.kind == "lognormal" and self.sigma < 0.0:
            raise ConfigError("lognormal sigma must be >= 0")
        return self


class LatencySampler:
    """Draws latencies from a spec; its RNG stream is independent of any
    decision stream so injected latency can never change a decision."""

    def __init__(self, spec: LatencySpec):
        self.spec = spec.validate()
        self._rng = random.Random(spec.seed)

    def sample(self) -> float:
        if self.spec.kind == "fixed":
            return self.spec.seconds
        if self.spec.kind == "lognormal":
            return self._rng.lognormvariate(self.spec.mu, self.spec.sigma)
        return 0.0


@dataclass(frozen=True)
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

    def validate(self) -> "ScriptedPolicy":
        if self.kind not in (ORACLE, FLIP, ALWAYS_WRONG):
            raise ConfigError(f"unknown scripted policy {self.kind!r}")
        for name in ("p_wrong_first", "p_correct_on_feedback"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {p!r}")
        return self


@dataclass(frozen=True)
class BackendConfig:
    """Union config for the three backend kinds; only the selected kind's
    fields may be set."""

    kind: str = SCRIPTED
    base_url: str = ""
    model: str = ""
    temperature: float = 0.0
    timeout: float = 30.0
    api_key_env: str = DEFAULT_API_KEY_ENV
    script: ScriptedPolicy = field(default_factory=ScriptedPolicy)
    transcript_path: str = ""
    latency: LatencySpec = field(default_factory=LatencySpec)

    def validate(self) -> "BackendConfig":
        if self.kind not in (HTTP, SCRIPTED, REPLAY):
            raise ConfigError(f"unknown backend kind {self.kind!r}")
        if self.timeout <= 0.0:
            raise ConfigError("backend timeout must be > 0")
        if self.kind == HTTP:
            if not self.base_url:
                raise ConfigError("http backend requires base_url")
            if not self.model:
                raise ConfigError("http backend requires model")
            if self.temperature < 0.0:
                raise ConfigError("http temperature must be >= 0")
        if self.kind == REPLAY and not self.transcript_path:
            raise ConfigError("replay backend requires transcript_path")
        if self.kind == SCRIPTED:
            self.script.validate()
            self.latency.validate()
        return self


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
        self.config = config.validate()
        key = os.environ.get(config.api_key_env, "")
        if not key:
            raise ConfigError(f"missing API key: set ${config.api_key_env}")
        self._key = key
        self._url = config.base_url.rstrip("/") + CHAT_COMPLETIONS_PATH
        import http.client
        import urllib.error
        import urllib.request

        self._http = http
        self._urllib = urllib

    def complete(self, system_text: str, user_text: str, ctx: DecisionContext | None = None) -> Exchange:
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
            content = json.loads(raw)["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise BackendError(f"malformed response body: {exc}", elapsed=latency) from exc
        if not isinstance(content, str):
            raise BackendError("malformed response body: content is not text", elapsed=latency)
        return Exchange(
            system_text, user_text, content, latency, self.config.model,
            ctx.timestamp if ctx else 0.0,
        )

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

    In lockstep runs the latency is only attached to the exchange; set
    ``sleep_latency`` for realtime runs where it must actually elapse.
    """

    def __init__(
        self,
        policy: ScriptedPolicy,
        latency: LatencySpec | None = None,
        sleep_latency: bool = False,
    ):
        self.policy = policy.validate()
        self._rng = random.Random(policy.seed)
        self._latency = LatencySampler(latency or LatencySpec())
        self._sleep = sleep_latency
        self.model = f"scripted-{policy.kind}"

    def complete(self, system_text: str, user_text: str, ctx: DecisionContext) -> Exchange:
        expected = expected_action(ctx.t_sensor, ctx.prev_action, ctx.thresholds)
        if self.policy.kind == ORACLE:
            action = expected
        elif self.policy.kind == ALWAYS_WRONG:
            action = expected.opposite
        else:
            if ctx.has_feedback:
                wrong = self._rng.random() >= self.policy.p_correct_on_feedback
            else:
                wrong = self._rng.random() < self.policy.p_wrong_first
            action = expected.opposite if wrong else expected
        latency = self._latency.sample()
        if self._sleep and latency > 0.0:
            time.sleep(latency)
        return Exchange(
            system_text, user_text, f"ACTION: {action.value}", latency, self.model, ctx.timestamp
        )


class ReplayBackend:
    """Feeds back a recorded exchange stream, one entry per call, in order.

    Prompt content is ignored; only the call count is checked against the
    transcript length.
    """

    def __init__(self, entries: list[dict]):
        self._entries = entries
        self._cursor = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def calls_made(self) -> int:
        return self._cursor

    def complete(self, system_text: str, user_text: str, ctx: DecisionContext | None = None) -> Exchange:
        if self._cursor >= len(self._entries):
            raise ReplayExhausted(
                f"transcript holds {len(self._entries)} exchanges; call {self._cursor + 1} has no recording"
            )
        entry = self._entries[self._cursor]
        self._cursor += 1
        return Exchange(
            system_text,
            user_text,
            entry["response_text"],
            entry["latency"],
            entry.get("model", "replay"),
            ctx.timestamp if ctx else entry.get("timestamp", 0.0),
        )


def load_replay(transcript_path: str | Path) -> ReplayBackend:
    """Build a replay backend from a recorded transcript file."""
    entries = []
    with open(transcript_path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                doc = loads_record(line)
            except ValueError as exc:
                raise LogFormatError(f"bad transcript line: {exc}", line_number=lineno) from exc
            if "response_text" not in doc or "latency" not in doc:
                raise LogFormatError(
                    "transcript line lacks response_text/latency", line_number=lineno
                )
            entries.append(doc)
    return ReplayBackend(entries)


class TranscriptRecorder:
    """Wraps any backend and appends each exchange to a transcript file."""

    def __init__(self, inner, path: str | Path):
        self._inner = inner
        self._fh = open(path, "w", encoding="utf-8")

    def complete(self, system_text: str, user_text: str, ctx: DecisionContext | None = None) -> Exchange:
        exchange = self._inner.complete(system_text, user_text, ctx)
        self.record(exchange)
        return exchange

    def record(self, exchange: Exchange) -> None:
        self._fh.write(dumps_record(exchange) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()
