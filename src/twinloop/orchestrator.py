"""The control loop: sample the plant, let the backend propose an action,
validate it, and either apply it, reprompt with corrective feedback, or fall
back to the safety action once the attempt budget is exhausted.

Clock semantics are the heart of this module.  The plant owns the run's
clock: the loop only ever asks it to ``advance``, which steps a lockstep
plant and sleeps on a realtime one.  While a decision is being made the
previously applied action stays in force and the clock advances by that
attempt's inference latency, whether the call succeeded or failed.  After
each call the loop waits out the part of the latency the call did not
already spend on the plant's clock: all of it in lockstep and for an
emulated latency, next to nothing for a real HTTP call in realtime, where
no wait runs past the run's end.  Slow models therefore hold stale actions
longer, and that shows up in the control metrics.
"""

from __future__ import annotations

import json
import math
from dataclasses import field
from pathlib import Path

from . import twin
from .agents import (
    ANOMALY,
    CONTINUOUS,
    AgentSpec,
    DecisionContext,
    Thresholds,
    compose_feedback,
    expected_action,
    monitor_trigger,
    parse_action,
    render_prompt,
    validate_rule,
    validate_twin,
    DEFAULT_OPERATOR,
)
from .errors import BackendError, InvalidInput, LogFormatError, ParseError, frozen
from .jsonio import RecordWriter, dumps_record, from_doc, is_blank, loads_record
from .plantio import CLOCK_MODES, LOCKSTEP, MAX_DURATION_S, REALTIME, HeaterAction

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
# Most reprompts an episode may make: 33 times the paper's 3.  Each costs a
# backend call and a logged attempt, and a lockstep episode makes them all,
# however long they take.
MAX_REPROMPTS = 100


@frozen
class ValidatorMode:
    """How a proposal is judged: by the hysteresis rule, or by a twin
    rollout of ``horizon`` seconds that must keep the sensor inside
    ``envelope``."""

    kind: str = RULE
    horizon: float = 300.0
    envelope: tuple[float, float] = (-math.inf, math.inf)

    def __post_init__(self):
        if self.kind not in (RULE, TWIN):
            raise InvalidInput(f"unknown validator mode {self.kind!r}")
        # The run log holds both fields for either kind.  It writes an
        # infinity as null, which reads back only as a field's infinite
        # default: a horizon must be finite, an envelope's lower bound below
        # +inf and its upper bound above -inf.
        if not math.isfinite(self.horizon):
            raise InvalidInput(f"validation horizon must be finite, got {self.horizon!r}")
        if len(self.envelope) != 2:
            raise InvalidInput(f"envelope must be a pair of bounds, got {self.envelope!r}")
        if not self.envelope[0] < self.envelope[1]:
            raise InvalidInput(f"envelope must be well ordered, got {self.envelope!r}")
        if self.kind == TWIN:
            if not self.horizon > 0.0:
                raise InvalidInput("twin validation horizon must be > 0")
            # an envelope open on both sides would pass every proposal
            if not (math.isfinite(self.envelope[0]) or math.isfinite(self.envelope[1])):
                raise InvalidInput("twin validation envelope needs at least one finite bound")


@frozen
class MonitorMode:
    """Which samples start an episode: every one, or, for ``anomaly``, only
    a reading more than ``margin`` beyond the band."""

    kind: str = CONTINUOUS
    margin: float = 0.0

    def __post_init__(self):
        if self.kind not in (CONTINUOUS, ANOMALY):
            raise InvalidInput(f"unknown monitor mode {self.kind!r}")
        if not 0.0 <= self.margin < math.inf:
            raise InvalidInput("monitor margin must be finite and >= 0")


@frozen
class RunConfig:
    """The ``run`` section of a config and the run log header's ``config``:
    how long the loop runs, how often it reprompts, and how it validates,
    monitors, keeps time and falls back to a safety action."""

    duration: float = 2400.0
    max_reprompts: int = 3
    sample_period_floor: float = 0.0
    thresholds: Thresholds = Thresholds()
    validator: ValidatorMode = ValidatorMode()
    monitor: MonitorMode = MonitorMode()
    clock_mode: str = LOCKSTEP
    initial_action: HeaterAction = HeaterAction.OFF
    safe_action_policy: str = EXPECTED_RULE

    def __post_init__(self):
        if not 0.0 < self.duration <= MAX_DURATION_S:
            raise InvalidInput(f"duration must lie in (0, {MAX_DURATION_S:g}] s, got {self.duration!r}")
        # a bool is an int to Python, but not to the run log's reader
        count = self.max_reprompts
        if not isinstance(count, int) or isinstance(count, bool) or count < 0:
            raise InvalidInput("max_reprompts must be an integer >= 0")
        if count > MAX_REPROMPTS:
            raise InvalidInput(f"max_reprompts may not exceed {MAX_REPROMPTS}, got {count}")
        if not 0.0 <= self.sample_period_floor < math.inf:
            raise InvalidInput("sample_period_floor must be finite and >= 0")
        if self.clock_mode not in CLOCK_MODES:
            raise InvalidInput(f"unknown clock mode {self.clock_mode!r}")
        if self.safe_action_policy not in (EXPECTED_RULE, FORCE_OFF):
            raise InvalidInput(f"unknown safety policy {self.safe_action_policy!r}")
        # a rollout samples every simulated second of its horizon
        if self.validator.kind == TWIN and not self.validator.horizon <= self.duration:
            raise InvalidInput(
                f"twin validation horizon {self.validator.horizon:g} s exceeds "
                f"the run duration {self.duration:g} s"
            )


@frozen
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


@frozen
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
    action is applied and the episode is marked as overridden.  In realtime
    a wait that would pass ``config.duration`` ends there, and so do the
    episode's attempts, as they do after a call that ran past it.  In
    lockstep a wait that would make the clock infinite raises
    :class:`InvalidInput` before the plant moves.  A twin
    validator rolls each proposal out from the plant's state with
    ``twin_params``, which :func:`run_loop` has checked are given.
    """
    th = config.thresholds
    rule = config.validator.kind == RULE
    horizon, envelope = config.validator.horizon, config.validator.envelope
    t_sensor = plant.read_temperature()
    t_start = plant.clock
    realtime = config.clock_mode == REALTIME
    ended = False
    attempts: list[AttemptRecord] = []
    feedback: str | None = None
    applied: HeaterAction | None = None
    budget = config.max_reprompts + 1

    for attempt_index in range(budget):
        system_text, user_text = render_prompt(operator, t_sensor, prev, th, feedback)
        ctx = DecisionContext(t_sensor, prev, th, feedback is not None, plant.clock)
        response = proposal = verdict = None
        try:
            exchange = backend.complete(system_text, user_text, ctx)
        except BackendError as exc:
            exchange, latency = None, exc.elapsed
            reason, error = f"backend error: {exc}", "backend_error"
        else:
            latency = exchange.latency
        # The previous action stays in force while "inference" runs, and a
        # failed call takes as long as it took.  Only the part of it the call
        # did not already spend on the plant's clock is still to pass; in
        # realtime none past the run's end, where the episode ends.
        clock, end = plant.clock, config.duration
        wait = latency - (clock - ctx.timestamp)
        if realtime:
            ended = _wait_ends_run(plant, clock, wait, end) if wait > 0.0 else clock >= end
        elif wait > 0.0:
            # an infinite clock would end the run with an episode no log reader takes
            if not math.isfinite(clock + wait):
                raise InvalidInput(f"a wait of {wait:g} s at t={clock:g} s would take the lockstep clock to infinity")
            plant.advance(wait)
        if exchange is not None:
            response = exchange.response_text
            try:
                proposal = parse_action(response)
            except ParseError:
                reason, error = "no ACTION line found", "parse_error"
            else:
                if rule:
                    verdict = validate_rule(proposal, t_sensor, prev, th)
                else:
                    verdict = validate_twin(twin_params, plant.state, proposal, horizon, envelope)
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
        if passed or ended:
            break
        if attempt_index < config.max_reprompts:
            feedback = compose_feedback(
                verdict, attempt_index + 1, budget, t_sensor, prev, proposal,
                backend_error=reason if exchange is None else None,
            )

    override = applied is None
    if override:
        applied = safety_action(config.safe_action_policy, t_sensor, prev, th)
    plant.apply_heater(applied)
    return EpisodeRecord(
        index, t_start, t_sensor, prev, tuple(attempts), applied, override, plant.clock
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
    valid even if the run aborts.  The plant's clock mode must be the
    config's; a twin validator needs ``twin_params``, not the plant's own.
    """
    if plant.mode != config.clock_mode:
        raise InvalidInput(f"a {plant.mode} plant cannot run a {config.clock_mode} config")
    if config.validator.kind == TWIN and twin_params is None:
        raise InvalidInput("twin validator mode requires twin parameters")

    plant.apply_heater(config.initial_action)
    prev = config.initial_action
    episodes: list[EpisodeRecord] = []

    while plant.clock < config.duration:
        # the cold-start episode always runs; afterwards the anomaly monitor
        # (when configured) gates on a fresh reading
        if episodes and config.monitor.kind == ANOMALY:
            if not monitor_trigger(plant.read_temperature(), config.thresholds, config.monitor.margin):
                floor = config.sample_period_floor
                poll = max(floor, MIN_IDLE_TICK) if floor > 0 else DEFAULT_IDLE_POLL
                if _wait_ends_run(plant, plant.clock, poll, config.duration):
                    break
                continue
        record = run_episode(
            plant, backend, config, prev, len(episodes), operator, twin_params
        )
        episodes.append(record)
        if on_episode is not None:
            on_episode(record)
        prev = record.applied

        # one clock read per wait: a realtime clock moves between reads; the
        # clock never runs back, so without a floor there is nothing to wait
        if config.sample_period_floor > 0.0:
            clock = plant.clock
            floor_wait = record.t_start + config.sample_period_floor - clock
            if floor_wait > 0.0 and _wait_ends_run(plant, clock, floor_wait, config.duration):
                break
        # a zero-latency episode (elapsed 0.0) advances by exactly MIN_IDLE_TICK
        elapsed = plant.clock - record.t_start
        if elapsed < MIN_IDLE_TICK:
            plant.advance(MIN_IDLE_TICK - elapsed)
    return episodes


def _wait_ends_run(plant, clock: float, wait: float, end: float) -> bool:
    """Let ``wait`` seconds pass from ``clock``, but not past ``end``; true
    if the wait reached ``end``, where the caller stops the run rather than
    test a clock that ``clock + (end - clock)`` may leave an ulp short."""
    if clock + wait < end:
        plant.advance(wait)
        return False
    if clock < end:
        plant.advance(end - clock)
    return True


# --- run log ----------------------------------------------------------------


def config_digest(config: RunConfig) -> str:
    import hashlib  # only a log writer's set-up digests a config

    payload = dumps_record(config).encode("utf-8")
    return "sha256:" + hashlib.sha256(payload).hexdigest()


class RunLogWriter(RecordWriter):
    """Streams a run to disk, a line at a time as :class:`RecordWriter`
    writes: the header first, then one line per completed episode."""

    def __init__(self, path: str | Path, config: RunConfig):
        header = dumps_record({
            "kind": "header", "format": LOG_FORMAT, "config": config, "config_digest": config_digest(config),
        })
        super().__init__(path, "run log")
        self.write_line(header)

    def write_episode(self, record: EpisodeRecord) -> None:
        self.write_line(dumps_record(record))


def read_run_log(path: str | Path, on_torn_tail=None) -> tuple[RunConfig, list[EpisodeRecord]]:
    """Parse a run log back into its config and episode records.

    The header must name :data:`LOG_FORMAT`, every field of its config and
    of each episode must be present, and every line must be UTF-8.  A line
    of JSON whitespace alone is skipped.
    A writer killed mid-line leaves a final episode line with no newline
    that is not JSON; given ``on_torn_tail``, such a line is dropped and the
    callback gets its line number, otherwise it is an error like any other.
    """
    config, episodes = None, []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                if config is not None:
                    episodes.append(loads_record(raw.decode(), EpisodeRecord))
                    continue
                header = loads_record(raw.decode())
                if header.get("kind") != "header":
                    raise LogFormatError("first log record must be the header", line_number=lineno)
                if header.get("format") != LOG_FORMAT:
                    raise LogFormatError(
                        f"unknown log format {header.get('format')!r}, expected {LOG_FORMAT!r}",
                        line_number=lineno,
                    )
                config = from_doc(RunConfig, header.get("config"), "config")
            except ValueError as exc:
                # a blank line does not parse either: look for one only here
                if is_blank(raw):
                    continue
                # only the last line can lack its newline, and only an episode's is torn
                torn = config is not None and isinstance(exc, json.JSONDecodeError) and not raw.endswith(b"\n")
                if torn and on_torn_tail is not None:
                    on_torn_tail(lineno)
                    break
                raise LogFormatError(f"bad log line: {exc}", line_number=lineno) from exc
            except InvalidInput as exc:
                raise LogFormatError(f"bad log record: {exc}", line_number=lineno) from exc
    if config is None:
        raise LogFormatError("log is empty")
    return config, episodes
