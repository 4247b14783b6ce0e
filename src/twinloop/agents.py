"""The operator agent's spec and the deterministic decision-checking machinery.

The operator is declarative: a role, a goal and a task template.  The
validator and the reprompter are the pure functions of this module --
hysteresis-rule and twin-rollout validation and corrective-feedback
composition -- next to prompt rendering, action parsing and the decision
context a backend answers.  The verdicts come from code, not from a model:
accuracy accounting needs an oracle that cannot hallucinate.
"""

from __future__ import annotations

import functools
import math
import re
import string

from . import twin
from .errors import InvalidInput, ParseError, frozen
from .jsonio import _bind
from .plantio import HeaterAction

CONTINUOUS = "continuous"
ANOMALY = "anomaly"

PLACEHOLDERS = frozenset({"temperature", "prev_action", "low", "high", "feedback"})

_ACTION_RE = re.compile(r"action\s*:\s*(on|off)\b", re.IGNORECASE)
_ACTIONS = {a._value_: a for a in HeaterAction}
_CONVERSIONS = {"r": "repr", "s": "str", "a": "ascii"}
_ALIGNS = frozenset("<>=^")


@frozen
class Thresholds:
    """Hysteresis band: heater OFF above ``high``, ON below ``low``."""

    low: float = 25.0
    high: float = 27.0

    def __post_init__(self):
        if not (math.isfinite(self.low) and math.isfinite(self.high)):
            raise InvalidInput("thresholds must be finite")
        if not self.low < self.high:
            raise InvalidInput(f"thresholds must satisfy low < high, got {self.low} >= {self.high}")
        # ``(low, high, criterion)``: the band as the prompt and the rule's
        # feedback print it, on this instance, not shared by equal ones:
        # ``-0.0 == 0.0``, yet the first prints as ``-0``
        low, high = f"{self.low:g}", f"{self.high:g}"
        criterion = f"Rule: turn OFF above {high}°C, turn ON below {low}°C, otherwise hold the previous state."
        object.__setattr__(self, "_texts", (low, high, criterion))

    @property
    def midpoint(self) -> float:
        return (self.low + self.high) / 2.0


@frozen
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


@frozen
class AgentSpec:
    """The operator agent: the role and goal form its system text, the task
    template its user text, whose placeholders the live readings fill.
    Validation and reprompting are code, not agents."""

    role: str = "Heater operator for a benchtop two-heater temperature rig."
    goal: str = (
        "Keep the sensor temperature inside the configured comfort band by "
        "switching the heater fully on or fully off at each reading."
    )
    task: str = (
        "Current sensor temperature: {temperature} degC.\n"
        "Previous heater state: {prev_action}.\n"
        "Control rule: turn the heater OFF when the temperature exceeds {high} degC, "
        "turn it ON when it falls below {low} degC, otherwise keep the previous state.\n"
        "Decide the next heater action. Respond with a final line 'ACTION: ON' or 'ACTION: OFF'."
    )

    def __post_init__(self):
        _compile_prompt(self.role, self.goal, self.task)


@functools.lru_cache(maxsize=32)
def _compile_prompt(role: str, goal: str, task: str) -> tuple:
    """``(system text, render, whether the task template places the
    feedback)`` for a spec's texts, after checking its template.  Kept in this
    cache, not on the spec, so a spec that rendered a prompt still pickles and
    compares as a plain record.  ``render(temperature, prev_action, low, high,
    feedback)`` is generated the way ``jsonio`` generates record writers: one
    f-string whose source holds only the placeholder names and names bound to
    each literal chunk and format spec.  A conversion calls ``repr``, ``str``
    or ``ascii``, a spec calls ``format``; no template text enters the source."""
    namespace, fields = {}, []
    try:
        for literal, name, spec, conversion in string.Formatter().parse(task):
            if literal:
                fields.append(_bind(namespace, literal))
            if name is None:
                continue
            if name not in PLACEHOLDERS:
                raise InvalidInput(f"unknown placeholder {{{name}}} in task template")
            if "{" in spec:
                raise InvalidInput(f"nested field in the format spec of {{{name}}} in task template")
            # a precision cuts a text short (26.45 at .1 shows 2); a "." after the fill and alignment starts one
            fill_align = 2 if spec[1:2] in _ALIGNS else 1 if spec[:1] in _ALIGNS else 0
            if "." in spec[fill_align:]:
                raise InvalidInput(f"precision in the format spec of {{{name}}} in task template")
            value = f"{_CONVERSIONS[conversion]}({name})" if conversion in _CONVERSIONS else name
            fields.append(f"format({value}, {_bind(namespace, spec)})" if spec else value)
        # the renderer binds strings only, so one rendering with empty
        # strings tries every conversion and format spec
        task.format(**dict.fromkeys(PLACEHOLDERS, ""))
    except ValueError as exc:
        raise InvalidInput(f"task template cannot be rendered: {exc}") from None
    source = "".join(f"{{{field}}}" for field in fields)
    exec(f'def render(temperature, prev_action, low, high, feedback):\n    return f"{source}"\n', namespace)
    return f"{role}\n\n{goal}", namespace["render"], "{feedback}" in task


@frozen
class Verdict:
    """A validator's judgement of one proposal.  ``criterion`` states, for
    the corrective feedback, the check a failing verdict applied."""

    passed: bool
    expected: HeaterAction | None
    reason: str
    criterion: str = ""

    def __post_init__(self):
        if not self.passed and not self.reason:
            raise InvalidInput("a failing verdict needs a reason")


DEFAULT_OPERATOR = AgentSpec()

# One passing verdict per expected action, by name (a str caches its hash, a
# member's hash is a Python call); a frozen Verdict can be shared.
_RULE_PASSES = {a._name_: Verdict(True, a, "proposal matches the control rule") for a in HeaterAction}
_TWIN_PASSES = Verdict(True, None, "simulated trajectory stays inside the safe envelope")


def render_prompt(
    spec: AgentSpec,
    t: float,
    prev: HeaterAction,
    thresholds: Thresholds,
    feedback: str | None = None,
) -> tuple[str, str]:
    """Render (system_text, user_text) for one decision attempt.

    The system text is the agent's role and goal verbatim.  The user text is
    its task template with the live readings bound; validator feedback, when
    present, is appended (or substituted where the template places it).
    ``t`` is the plant's two-decimal reading, so its text is exact.  The
    system text and the template's compiled renderer are built once per spec
    text, the thresholds' texts once per ``thresholds`` instance; an attempt
    formats only the reading and calls the renderer.
    """
    system_text, render, places_feedback = _compile_prompt(spec.role, spec.goal, spec.task)
    low, high, _ = thresholds._texts
    user_text = render(f"{t:.2f}", prev._value_, low, high, feedback or "")
    if feedback and not places_feedback:
        user_text = f"{user_text}\n\n{feedback}"
    return system_text, user_text


def parse_action(response: str) -> HeaterAction:
    """Extract the last `ACTION: ON|OFF` directive (any case, any spacing)."""
    found = _ACTION_RE.findall(response)
    if not found:
        raise ParseError("no ACTION line found")
    return _ACTIONS[found[-1].upper()]


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
    """Check a proposal against the hysteresis rule at the sampled reading.

    ``t`` is the plant's two-decimal reading: the rule judges the number the
    prompt showed, and the reason quotes it exactly.
    """
    expected = expected_action(t, prev, th)
    if proposal is expected:
        return _RULE_PASSES[expected._name_]
    low, high, criterion = th._texts
    if t > th.high:
        reason = f"temperature {t:.2f} degC exceeds {high} degC, so the heater must be OFF"
    elif t < th.low:
        reason = f"temperature {t:.2f} degC is below {low} degC, so the heater must be ON"
    else:
        reason = (
            f"temperature {t:.2f} degC is inside the band, "
            f"so the previous state {prev._value_} must be held"
        )
    return Verdict(False, expected, reason, criterion)


def validate_twin(
    params: twin.TwinParams,
    state: twin.TwinState,
    proposal: HeaterAction,
    horizon: float,
    envelope: tuple[float, float],
) -> Verdict:
    """Roll the proposal forward in the twin and check the sensor envelope.

    Passes iff every sampled sensor temperature over the horizon (the samples
    of ``twin.rollout``) stays inside [envelope[0], envelope[1]].
    ``twin.first_exit`` finds the first sample outside from the trajectory's
    single turning point, without building the rollout.  No expected action
    exists in this mode; the reason reports the first violation instant, and
    the criterion states the envelope and the horizon.  The envelope is well
    ordered, as :class:`ValidatorMode` makes it.
    """
    lo, hi = envelope
    exit_sample = twin.first_exit(params, state, proposal.duty, horizon, lo, hi)
    if exit_sample is None:
        return _TWIN_PASSES
    clock, t_sensor = exit_sample
    bounds = f"[{lo:g}, {hi:g}]"
    return Verdict(
        False,
        None,
        f"simulated sensor temperature {t_sensor:.2f} degC at t={clock:.1f} s "
        f"leaves the safe envelope {bounds}",
        f"Twin check: under the proposed action the simulated sensor temperature "
        f"must stay inside the safe envelope {bounds} degC for the next "
        f"{horizon:g} s.",
    )


def compose_feedback(
    verdict: Verdict | None,
    attempt: int,
    max_attempts: int,
    t: float,
    prev: HeaterAction,
    proposal: HeaterAction | None,
    backend_error: str | None = None,
) -> str:
    """Deterministic corrective feedback for a failed attempt.

    ``t`` is the plant's two-decimal reading the attempt was asked about.
    ``backend_error`` describes a backend call that never returned a reply.
    Otherwise ``proposal=None`` means the reply had no parseable ACTION line,
    and a verdict passed alongside a real proposal must be a failing one; the
    feedback then states the criterion that verdict applied.
    """
    head = f"(attempt {attempt}/{max_attempts}): "
    situation = f"at {t:.2f}°C with previous heater state {prev._value_}"
    respond = "Respond with a final line 'ACTION: ON' or 'ACTION: OFF'."
    if backend_error is not None:
        return (
            f"BACKEND ERROR {head}the request for a decision {situation} got no reply "
            f"({backend_error}). This was a transport failure, not a fault in your "
            f"answer. {respond}"
        )
    if proposal is None:
        return (
            f"VALIDATION FAILED {head}{situation}, your reply is UNPARSEABLE: "
            f"no ACTION line found. {respond}"
        )
    if verdict is None or verdict.passed:
        raise InvalidInput("feedback is only composed for failed attempts")
    criterion = f"{verdict.criterion} " if verdict.criterion else ""
    return (
        f"VALIDATION FAILED {head}{situation}, your proposed action "
        f"{proposal._value_} was rejected: {verdict.reason}. {criterion}{respond}"
    )


def monitor_trigger(t: float, th: Thresholds, margin: float = 0.0) -> bool:
    """Whether a reading spawns a decision episode under the anomaly monitor:
    only when it strays more than ``margin`` beyond the band.  The continuous
    monitor spawns one at every sample and asks nothing.
    """
    return t < th.low - margin or t > th.high + margin
