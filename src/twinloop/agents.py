"""The operator agent's spec and the deterministic decision-checking machinery.

The operator is declarative: a role, a goal and a task template.  The
validator and the reprompter are the pure functions of this module --
hysteresis-rule and twin-rollout validation and corrective-feedback
composition -- next to prompt rendering and action parsing.  The verdicts
come from code, not from a model: accuracy accounting needs an oracle that
cannot hallucinate.
"""

from __future__ import annotations

import math
import re
import string
from dataclasses import dataclass, field

from . import twin
from .errors import InvalidInput, InvalidState, ParseError, TemplateError
from .plantio import HeaterAction, PlantSample, format_celsius

CONTINUOUS = "continuous"
ANOMALY = "anomaly"

PLACEHOLDERS = frozenset({"temperature", "prev_action", "low", "high", "feedback"})

_ACTION_RE = re.compile(r"action\s*:\s*(on|off)\b", re.IGNORECASE)


@dataclass(frozen=True)
class Thresholds:
    """Hysteresis band: heater OFF above ``high``, ON below ``low``."""

    low: float = 25.0
    high: float = 27.0

    def __post_init__(self):
        if not (math.isfinite(self.low) and math.isfinite(self.high)):
            raise InvalidInput("thresholds must be finite")
        if not self.low < self.high:
            raise InvalidInput(f"thresholds must satisfy low < high, got {self.low} >= {self.high}")

    @property
    def midpoint(self) -> float:
        return (self.low + self.high) / 2.0


@dataclass(frozen=True)
class TaskSpec:
    """The operator's task template; the live readings fill its placeholders."""

    description_template: str = (
        "Current sensor temperature: {temperature} degC.\n"
        "Previous heater state: {prev_action}.\n"
        "Control rule: turn the heater OFF when the temperature exceeds {high} degC, "
        "turn it ON when it falls below {low} degC, otherwise keep the previous state.\n"
        "Decide the next heater action. Respond with a final line 'ACTION: ON' or 'ACTION: OFF'."
    )

    def validate(self) -> "TaskSpec":
        for _, name, _, _ in string.Formatter().parse(self.description_template):
            if name is None:
                continue
            if name not in PLACEHOLDERS:
                raise TemplateError(f"unknown placeholder {{{name}}} in task template")
        return self


@dataclass(frozen=True)
class AgentSpec:
    """The operator agent: the role and goal form its system text, the task
    its user text.  Validation and reprompting are code, not agents."""

    role: str = "Heater operator for a benchtop two-heater temperature rig."
    goal: str = (
        "Keep the sensor temperature inside the configured comfort band by "
        "switching the heater fully on or fully off at each reading."
    )
    task: TaskSpec = field(default_factory=TaskSpec)


@dataclass(frozen=True)
class Verdict:
    passed: bool
    expected: HeaterAction | None
    reason: str

    def __post_init__(self):
        if not self.passed and not self.reason:
            raise InvalidInput("a failing verdict needs a reason")


DEFAULT_OPERATOR = AgentSpec()


def _fmt_threshold(x: float) -> str:
    return f"{x:g}"


def render_prompt(
    spec: AgentSpec,
    sample: PlantSample,
    prev: HeaterAction,
    thresholds: Thresholds,
    feedback: str | None = None,
) -> tuple[str, str]:
    """Render (system_text, user_text) for one decision attempt.

    The system text is the agent's role and goal verbatim.  The user text is
    its task template with the live readings bound; validator feedback, when
    present, is appended (or substituted where the template places it).
    """
    system_text = f"{spec.role}\n\n{spec.goal}"
    bindings = {
        "temperature": format_celsius(sample.t_sensor),
        "prev_action": prev.value,
        "low": _fmt_threshold(thresholds.low),
        "high": _fmt_threshold(thresholds.high),
        "feedback": feedback or "",
    }
    try:
        user_text = spec.task.description_template.format(**bindings)
    except (KeyError, IndexError) as exc:
        raise TemplateError(f"unbound placeholder in task template: {exc}") from exc
    if feedback and "{feedback}" not in spec.task.description_template:
        user_text = f"{user_text}\n\n{feedback}"
    return system_text, user_text


def parse_action(response: str) -> HeaterAction:
    """Extract the last `ACTION: ON|OFF` directive (any case, any spacing)."""
    match = None
    for match in _ACTION_RE.finditer(response):
        pass
    if match is None:
        raise ParseError("no ACTION line found")
    return HeaterAction(match.group(1).upper())


def expected_action(t: float, prev: HeaterAction, th: Thresholds) -> HeaterAction:
    """The hysteresis rule: OFF above the band, ON below it, hold inside.

    Boundary readings equal to a threshold hold the previous action; both
    comparisons are strict.
    """
    if not math.isfinite(t):
        raise InvalidInput(f"temperature must be finite, got {t!r}")
    if t > th.high:
        return HeaterAction.OFF
    if t < th.low:
        return HeaterAction.ON
    return prev


def validate_rule(
    proposal: HeaterAction, t: float, prev: HeaterAction, th: Thresholds
) -> Verdict:
    """Check a proposal against the hysteresis rule at the sampled reading."""
    expected = expected_action(t, prev, th)
    if proposal is expected:
        return Verdict(True, expected, "proposal matches the control rule")
    if t > th.high:
        reason = (
            f"temperature {format_celsius(t)} degC exceeds {_fmt_threshold(th.high)} degC, "
            f"so the heater must be OFF"
        )
    elif t < th.low:
        reason = (
            f"temperature {format_celsius(t)} degC is below {_fmt_threshold(th.low)} degC, "
            f"so the heater must be ON"
        )
    else:
        reason = (
            f"temperature {format_celsius(t)} degC is inside the band, "
            f"so the previous state {prev} must be held"
        )
    return Verdict(False, expected, reason)


def validate_twin(
    params: twin.TwinParams,
    state: twin.TwinState,
    proposal: HeaterAction,
    horizon: float,
    envelope: tuple[float, float],
) -> Verdict:
    """Roll the proposal forward in the twin and check the sensor envelope.

    Passes iff every sampled sensor temperature over the horizon stays inside
    [envelope[0], envelope[1]].  No expected action exists in this mode; the
    reason reports the first violation instant.
    """
    lo, hi = envelope
    if not lo < hi:
        raise InvalidInput(f"envelope must be well ordered, got {envelope!r}")
    trajectory = twin.rollout(params, state, proposal.duty, horizon)
    for clock, t_sensor in trajectory:
        if t_sensor < lo or t_sensor > hi:
            return Verdict(
                False,
                None,
                f"simulated sensor temperature {t_sensor:.2f} degC at t={clock:.1f} s "
                f"leaves the safe envelope [{_fmt_threshold(lo)}, {_fmt_threshold(hi)}]",
            )
    return Verdict(True, None, "simulated trajectory stays inside the safe envelope")


def compose_feedback(
    verdict: Verdict | None,
    attempt: int,
    max_attempts: int,
    t: float,
    prev: HeaterAction,
    proposal: HeaterAction | None,
    th: Thresholds,
) -> str:
    """Deterministic corrective feedback for a failed attempt.

    ``proposal=None`` means the response had no parseable ACTION line; a
    verdict passed alongside a real proposal must be a failing one.
    """
    if proposal is None:
        proposal_text = "UNPARSEABLE"
        reason = "no ACTION line found"
    else:
        if verdict is None or verdict.passed:
            raise InvalidState("feedback is only composed for failed attempts")
        proposal_text = proposal.value
        reason = verdict.reason
    return (
        f"VALIDATION FAILED (attempt {attempt}/{max_attempts}): "
        f"at {format_celsius(t)}°C with previous heater state {prev.value}, "
        f"your proposed action {proposal_text} violates the control rule: {reason}. "
        f"Rule: turn OFF above {_fmt_threshold(th.high)}°C, "
        f"turn ON below {_fmt_threshold(th.low)}°C, "
        f"otherwise hold the previous state. "
        f"Respond with a final line 'ACTION: ON' or 'ACTION: OFF'."
    )


def monitor_trigger(
    sample: PlantSample, mode: str, th: Thresholds, margin: float = 0.0
) -> bool:
    """Decide whether a reading spawns a decision episode.

    Continuous mode triggers on every sample; anomaly mode only when the
    reading strays more than ``margin`` beyond the band.
    """
    if margin < 0.0:
        raise InvalidInput(f"margin must be >= 0, got {margin!r}")
    if mode == CONTINUOUS:
        return True
    if mode == ANOMALY:
        return sample.t_sensor < th.low - margin or sample.t_sensor > th.high + margin
    raise InvalidInput(f"unknown monitor mode {mode!r}")
