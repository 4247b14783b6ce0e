"""The control loop: sample the plant, let the backend propose an action,
validate it, and either apply it, reprompt with corrective feedback, or fall
back to the safety action once the attempt budget is exhausted.

Clock semantics are the heart of this module.  While a decision is being
made the previously applied action stays in force and the clock advances by
that attempt's inference latency, whether the call succeeded or failed -- in
lockstep mode the twin is integrated forward by exactly that much, in
realtime mode wall time simply passes.  Slow models therefore hold stale
actions longer, and that shows up in the control metrics.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import twin
from .agents import (
    AgentSpec,
    Thresholds,
    Verdict,
    compose_feedback,
    expected_action,
    monitor_trigger,
    parse_action,
    render_prompt,
    validate_rule,
    validate_twin,
    DEFAULT_OPERATOR,
)
from .backends import DecisionContext
from .errors import (
    BackendError,
    InvalidInput,
    InvalidState,
    LogFormatError,
    ParseError,
)
from .jsonio import dumps_record, from_doc, loads_record
from .plantio import HeaterAction, LOCKSTEP, CLOCK_MODES

RULE = "rule"
TWIN = "twin"

EXPECTED_RULE = "expected_rule"
FORCE_OFF = "force_off"

LOG_FORMAT = "twinloop-run-log/1"

# Idle poll period when the anomaly monitor declines a sample and no explicit
# sample_period_floor is set; without it a lockstep clock would never move.
DEFAULT_IDLE_POLL = 1.0
# Minimum simulated time an episode or an idle poll spans, so the loop ends
# after at most duration / MIN_IDLE_TICK episodes even with a zero or
# vanishing backend latency.
MIN_IDLE_TICK = 1e-3


@dataclass(frozen=True)
class ValidatorMode:
    kind: str = RULE
    horizon: float = 300.0
    envelope: tuple[float, float] = (-math.inf, math.inf)

    def validate(self) -> "ValidatorMode":
        if self.kind not in (RULE, TWIN):
            raise InvalidInput(f"unknown validator mode {self.kind!r}")
        if self.kind == TWIN:
            if self.horizon <= 0.0:
                raise InvalidInput("twin validation horizon must be > 0")
            if not self.envelope[0] < self.envelope[1]:
                raise InvalidInput(f"envelope must be well ordered, got {self.envelope!r}")
            # an envelope open on both sides would pass every proposal
            if not (math.isfinite(self.envelope[0]) or math.isfinite(self.envelope[1])):
                raise InvalidInput("twin validation envelope needs at least one finite bound")
        return self


@dataclass(frozen=True)
class MonitorMode:
    kind: str = "continuous"
    margin: float = 0.0

    def validate(self) -> "MonitorMode":
        if self.kind not in ("continuous", "anomaly"):
            raise InvalidInput(f"unknown monitor mode {self.kind!r}")
        if self.margin < 0.0:
            raise InvalidInput("monitor margin must be >= 0")
        return self


@dataclass(frozen=True)
class RunConfig:
    duration: float = 2400.0
    max_reprompts: int = 3
    sample_period_floor: float = 0.0
    thresholds: Thresholds = field(default_factory=Thresholds)
    validator: ValidatorMode = field(default_factory=ValidatorMode)
    monitor: MonitorMode = field(default_factory=MonitorMode)
    clock_mode: str = LOCKSTEP
    initial_action: HeaterAction = HeaterAction.OFF
    safe_action_policy: str = EXPECTED_RULE

    def validate(self) -> "RunConfig":
        if self.duration <= 0.0 or not math.isfinite(self.duration):
            raise InvalidInput("duration must be > 0")
        if self.max_reprompts < 0:
            raise InvalidInput("max_reprompts must be >= 0")
        if self.sample_period_floor < 0.0:
            raise InvalidInput("sample_period_floor must be >= 0")
        if self.clock_mode not in CLOCK_MODES:
            raise InvalidInput(f"unknown clock mode {self.clock_mode!r}")
        if self.safe_action_policy not in (EXPECTED_RULE, FORCE_OFF):
            raise InvalidInput(f"unknown safety policy {self.safe_action_policy!r}")
        self.validator.validate()
        # a rollout samples every simulated second of its horizon
        if self.validator.kind == TWIN and not self.validator.horizon <= self.duration:
            raise InvalidInput(
                f"twin validation horizon {self.validator.horizon:g} s exceeds "
                f"the run duration {self.duration:g} s"
            )
        self.monitor.validate()
        return self


@dataclass(frozen=True)
class AttemptRecord:
    """One backend invocation inside an episode.

    ``error`` is None for a validated attempt, "parse_error" when no ACTION
    line was found, and "backend_error" when the backend call itself failed.
    """

    attempt_index: int
    raw_response: str | None
    parsed: HeaterAction | None
    passed: bool
    expected: HeaterAction | None
    reason: str
    error: str | None
    latency: float


@dataclass(frozen=True)
class EpisodeRecord:
    """One full decision cycle, from sensor sample to applied action."""

    # Tags the record's run-log line; not a constructor argument.
    kind: str = field(default="episode", init=False, repr=False, compare=False)
    index: int
    t_start: float
    t_sensor: float
    prev_action: HeaterAction
    attempts: tuple[AttemptRecord, ...]
    applied: HeaterAction
    override: bool
    t_end: float


def safety_action(
    policy: str, t: float, prev: HeaterAction, th: Thresholds
) -> HeaterAction:
    """Action forced on the plant when every attempt failed validation."""
    if policy == EXPECTED_RULE:
        return expected_action(t, prev, th)
    if policy == FORCE_OFF:
        return HeaterAction.OFF
    raise InvalidInput(f"unknown safety policy {policy!r}")


def _advance_clock(plant, dt: float, clock_mode: str) -> None:
    if dt <= 0.0:
        return
    if clock_mode == LOCKSTEP:
        plant.advance(dt)
    else:
        time.sleep(dt)


def _twin_snapshot(plant, t_sensor: float, clock: float) -> twin.TwinState:
    state = getattr(plant, "state", None)
    if isinstance(state, twin.TwinState):
        return state
    # Remote plants expose only the sensor reading; assume the nodes are in
    # equilibrium with each other at that temperature.
    return twin.TwinState(t_sensor, t_sensor, clock)


def _validate_proposal(
    proposal: HeaterAction,
    sample_t: float,
    prev: HeaterAction,
    config: RunConfig,
    plant,
    twin_params: twin.TwinParams | None,
    clock: float,
) -> Verdict:
    if config.validator.kind == RULE:
        return validate_rule(proposal, sample_t, prev, config.thresholds)
    if twin_params is None:
        raise InvalidState("twin validator mode requires twin parameters")
    state = _twin_snapshot(plant, sample_t, clock)
    return validate_twin(
        twin_params, state, proposal, config.validator.horizon, config.validator.envelope
    )


def run_episode(
    plant,
    backend,
    config: RunConfig,
    prev: HeaterAction,
    index: int,
    operator: AgentSpec = DEFAULT_OPERATOR,
    twin_params: twin.TwinParams | None = None,
) -> EpisodeRecord:
    """Run one decision cycle and apply its outcome to the plant.

    The temperature is sampled once, at t_start, and drives every attempt of
    the episode.  Parse failures and backend errors consume an attempt just
    like a failed validation; a backend error's elapsed time is its attempt's
    latency.  If no attempt passes within ``max_reprompts + 1``, the safety
    action is applied and the episode is marked as overridden.
    """
    th = config.thresholds
    sample = plant.read_temperature()
    t_start = sample.timestamp
    attempts: list[AttemptRecord] = []
    feedback: str | None = None
    applied: HeaterAction | None = None
    budget = config.max_reprompts + 1

    for attempt_index in range(budget):
        system_text, user_text = render_prompt(operator, sample, prev, th, feedback)
        ctx = DecisionContext(
            t_sensor=sample.t_sensor,
            prev_action=prev,
            thresholds=th,
            has_feedback=feedback is not None,
            timestamp=plant.clock,
        )
        response = proposal = verdict = None
        try:
            exchange = backend.complete(system_text, user_text, ctx)
        except BackendError as exc:
            exchange, latency = None, exc.elapsed
            reason, error = f"backend error: {exc}", "backend_error"
        else:
            latency = exchange.latency
        # The previous action stays in force while "inference" runs, and a
        # failed call takes as long as it took.
        if config.clock_mode == LOCKSTEP:
            _advance_clock(plant, latency, LOCKSTEP)
        if exchange is not None:
            response = exchange.response_text
            try:
                proposal = parse_action(response)
            except ParseError:
                reason, error = "no ACTION line found", "parse_error"
            else:
                verdict = _validate_proposal(
                    proposal, sample.t_sensor, prev, config, plant, twin_params, plant.clock
                )
                reason, error = verdict.reason, None
        passed = verdict is not None and verdict.passed
        attempts.append(
            AttemptRecord(
                attempt_index, response, proposal, passed,
                verdict.expected if verdict else None, reason, error, latency,
            )
        )
        if passed:
            applied = proposal
            break
        if attempt_index < config.max_reprompts:
            feedback = compose_feedback(
                verdict, attempt_index + 1, budget, sample.t_sensor, prev, proposal, th
            )

    override = applied is None
    if override:
        applied = safety_action(config.safe_action_policy, sample.t_sensor, prev, th)
    plant.apply_heater(applied)
    return EpisodeRecord(
        index=index,
        t_start=t_start,
        t_sensor=sample.t_sensor,
        prev_action=prev,
        attempts=tuple(attempts),
        applied=applied,
        override=override,
        t_end=plant.clock,
    )


def run_loop(
    plant,
    backend,
    config: RunConfig,
    operator: AgentSpec = DEFAULT_OPERATOR,
    twin_params: twin.TwinParams | None = None,
    on_episode=None,
) -> list[EpisodeRecord]:
    """Drive decision episodes until the clock reaches ``config.duration``.

    The first sample always produces an episode (the cold-start decision);
    after that the monitor gate decides.  ``on_episode`` is called with each
    completed record before the loop moves on, so an incremental log stays
    valid even if the run aborts.
    """
    config.validate()
    if config.validator.kind == TWIN and twin_params is None:
        twin_params = getattr(plant, "params", None)
        if twin_params is None:
            raise InvalidState("twin validator mode requires twin parameters")

    plant.apply_heater(config.initial_action)
    prev = config.initial_action
    episodes: list[EpisodeRecord] = []

    while plant.clock < config.duration:
        # the cold-start episode always runs; afterwards the anomaly monitor
        # (when configured) gates on a fresh reading
        if episodes and config.monitor.kind == "anomaly":
            sample = plant.read_temperature()
            if not monitor_trigger(
                sample, config.monitor.kind, config.thresholds, config.monitor.margin
            ):
                floor = config.sample_period_floor
                poll = max(floor, MIN_IDLE_TICK) if floor > 0 else DEFAULT_IDLE_POLL
                _advance_clock(plant, poll, config.clock_mode)
                continue
        record = run_episode(
            plant, backend, config, prev, len(episodes), operator, twin_params
        )
        episodes.append(record)
        if on_episode is not None:
            on_episode(record)
        prev = record.applied

        floor_target = record.t_start + config.sample_period_floor
        if floor_target > plant.clock:
            _advance_clock(plant, floor_target - plant.clock, config.clock_mode)
        # a zero-latency episode (elapsed 0.0) advances by exactly MIN_IDLE_TICK
        elapsed = plant.clock - record.t_start
        if elapsed < MIN_IDLE_TICK:
            _advance_clock(plant, MIN_IDLE_TICK - elapsed, config.clock_mode)
    return episodes


# --- run log ----------------------------------------------------------------


def config_digest(config: RunConfig) -> str:
    payload = dumps_record(config).encode("utf-8")
    return "sha256:" + hashlib.sha256(payload).hexdigest()


class RunLogWriter:
    """Streams a run to disk: header first, then one episode line per
    completed episode, flushed immediately so partial runs stay readable."""

    def __init__(self, path: str | Path, config: RunConfig):
        self._fh = open(path, "w", encoding="utf-8")
        header = {
            "kind": "header",
            "format": LOG_FORMAT,
            "config": config,
            "config_digest": config_digest(config),
        }
        self._fh.write(dumps_record(header) + "\n")
        self._fh.flush()

    def write_episode(self, record: EpisodeRecord) -> None:
        self._fh.write(dumps_record(record) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "RunLogWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_run_log(path: str | Path, on_torn_tail=None) -> tuple[RunConfig, list[EpisodeRecord]]:
    """Parse a run log back into its config and episode records.

    Every field of the header's config and of each episode must be present.
    A writer killed mid-line leaves a final episode line with no newline
    that is not JSON; given ``on_torn_tail``, such a line is dropped and the
    callback gets its line number, otherwise it is an error like any other.
    """
    config: RunConfig | None = None
    episodes: list[EpisodeRecord] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                if config is None:
                    header = loads_record(line)
                    if header.get("kind") != "header":
                        raise LogFormatError("first log record must be the header", line_number=lineno)
                    config = from_doc(RunConfig, header.get("config"), "config")
                else:
                    episodes.append(loads_record(line, EpisodeRecord))
            except json.JSONDecodeError as exc:
                # only the last line can lack its newline
                if on_torn_tail is not None and config is not None and not line.endswith("\n"):
                    on_torn_tail(lineno)
                    break
                raise LogFormatError(f"bad log line: {exc}", line_number=lineno) from exc
            except ValueError as exc:
                raise LogFormatError(f"bad log line: {exc}", line_number=lineno) from exc
            except InvalidInput as exc:
                raise LogFormatError(f"bad log record: {exc}", line_number=lineno) from exc
    if config is None:
        raise LogFormatError("log is empty")
    return config, episodes
