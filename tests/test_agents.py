"""Tests for prompt rendering, action parsing, validation and feedback."""

import math
import re

import pytest
from hypothesis import assume, given, settings, strategies as st

from twinloop import agents
from twinloop.agents import (
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
from twinloop.backends import ALWAYS_WRONG, LatencySpec, ScriptedBackend, ScriptedPolicy
from twinloop.errors import InvalidInput, ParseError
from twinloop.orchestrator import RunConfig, run_loop
from twinloop.plantio import HeaterAction, TwinPlant
from twinloop.twin import TwinParams, TwinState

TH = Thresholds()
ON = HeaterAction.ON
OFF = HeaterAction.OFF


class TestThresholds:
    def test_defaults(self):
        assert TH.low == 25.0
        assert TH.high == 27.0
        assert TH.midpoint == 26.0

    def test_must_be_ordered(self):
        with pytest.raises(InvalidInput):
            Thresholds(27.0, 25.0)
        with pytest.raises(InvalidInput):
            Thresholds(26.0, 26.0)


class TestRenderPrompt:
    def test_system_text_is_role_and_goal(self):
        system_text, _ = render_prompt(DEFAULT_OPERATOR, 26.0, OFF, TH)
        assert system_text == f"{DEFAULT_OPERATOR.role}\n\n{DEFAULT_OPERATOR.goal}"

    def test_no_feedback_block_without_feedback(self):
        _, user_text = render_prompt(DEFAULT_OPERATOR, 26.0, OFF, TH)
        assert "VALIDATION FAILED" not in user_text

    def test_feedback_is_appended(self):
        feedback = compose_feedback(
            validate_rule(OFF, 24.0, OFF, TH), 1, 3, 24.0, OFF, OFF
        )
        _, user_text = render_prompt(
            DEFAULT_OPERATOR, 24.0, OFF, TH, feedback
        )
        assert user_text.endswith(feedback)
        assert "VALIDATION FAILED" in user_text

    def test_temperature_rendered_with_two_decimals(self):
        _, user_text = render_prompt(DEFAULT_OPERATOR, 26.434999, OFF, TH)
        assert "26.43" in user_text

    def test_deterministic(self):
        args = (DEFAULT_OPERATOR, 25.5, ON, TH, "try harder")
        assert render_prompt(*args) == render_prompt(*args)

    def test_no_unresolved_placeholders(self):
        _, user_text = render_prompt(DEFAULT_OPERATOR, 26.0, OFF, TH)
        assert not re.search(r"\{[a-z_]+\}", user_text)

    def test_inline_feedback_placeholder_is_substituted(self):
        spec = AgentSpec(task="T={temperature} prev={prev_action} notes: {feedback}")
        _, with_feedback = render_prompt(spec, 26.0, OFF, TH, "do better")
        assert with_feedback.endswith("notes: do better")
        _, without = render_prompt(spec, 26.0, OFF, TH)
        assert without.endswith("notes: ")

    def test_unknown_placeholder_rejected_at_validation(self):
        with pytest.raises(InvalidInput):
            AgentSpec(task="T={temperature} setpoint={setpoint}")

    def test_unbound_placeholder_raises_template_error(self):
        # templates that got past the placeholder check and then failed at
        # the first prompt, or at load with a bare ValueError
        for template in (
            "T={temperature:{setpoint}}",
            "T={temperature:{prev_action}}",
            "T={temperature!z}",
            "T={temperature:d}",
            "T={temperature",
            "T=temperature}",
        ):
            with pytest.raises(InvalidInput):
                AgentSpec(task=template)

    @pytest.mark.parametrize(
        "spec, refused",
        # a fill may itself be "."; only a "." after the fill and alignment starts a precision
        [(".1", True), ("^.3", True), (".<.3", True), ("x>8.2", True), (".^7", False), ("x<4", False), ("<<5", False)],
    )
    def test_a_format_spec_may_not_set_a_precision(self, spec, refused):
        # every value is bound as a text, which a precision cuts short: 26.45 at .1 shows 2
        task = f"T={{temperature:{spec}}}"
        if refused:
            with pytest.raises(InvalidInput, match=re.escape("precision in the format spec of {temperature}")):
                AgentSpec(task=task)
        else:
            assert render_prompt(AgentSpec(task=task), 26.45, OFF, TH)[1] == task.format(temperature="26.45")


class TestParseAction:
    def test_plain(self):
        assert parse_action("ACTION: ON") is ON

    def test_case_and_whitespace_tolerant(self):
        assert parse_action("I should cool down.\naction:   off") is OFF

    def test_last_occurrence_wins(self):
        text = "First I thought ACTION: ON, but no.\nACTION: OFF"
        assert parse_action(text) is OFF

    def test_no_directive(self):
        with pytest.raises(ParseError):
            parse_action("The temperature looks fine.")

    def test_word_boundary_required(self):
        with pytest.raises(ParseError):
            parse_action("ACTION: ONWARD")

    def test_feedback_suggestions_reparse(self):
        feedback = compose_feedback(
            validate_rule(OFF, 24.0, OFF, TH), 1, 3, 24.0, OFF, OFF
        )
        assert parse_action("ACTION: ON") is ON
        assert parse_action("ACTION: OFF") is OFF
        # the literal guidance embedded in the feedback is itself parseable
        assert parse_action(feedback) in (ON, OFF)


class TestExpectedAction:
    def test_above_band_turns_off(self):
        assert expected_action(28.0, ON, TH) is OFF

    def test_below_band_turns_on(self):
        assert expected_action(24.0, OFF, TH) is ON

    def test_inside_band_holds(self):
        assert expected_action(26.0, ON, TH) is ON
        assert expected_action(26.0, OFF, TH) is OFF

    def test_boundaries_hold_previous(self):
        for prev in (ON, OFF):
            assert expected_action(25.0, prev, TH) is prev
            assert expected_action(27.0, prev, TH) is prev

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInput):
            expected_action(math.nan, ON, TH)

    @given(t=st.floats(0.0, 50.0), prev=st.sampled_from([ON, OFF]))
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, t, prev):
        once = expected_action(t, prev, TH)
        assert expected_action(t, once, TH) is once

    @given(t=st.floats(0.0, 50.0))
    @settings(max_examples=200, deadline=None)
    def test_prev_independent_outside_band(self, t):
        if t < TH.low or t > TH.high:
            assert expected_action(t, ON, TH) is expected_action(t, OFF, TH)


class TestValidateRule:
    def test_correct_off_above_band(self):
        verdict = validate_rule(OFF, 28.0, ON, TH)
        assert verdict.passed
        assert verdict.expected is OFF

    def test_wrong_off_below_band(self):
        verdict = validate_rule(OFF, 24.0, OFF, TH)
        assert not verdict.passed
        assert verdict.expected is ON
        assert "below 25" in verdict.reason

    def test_hold_case_passes(self):
        assert validate_rule(ON, 26.0, ON, TH).passed

    def test_reason_cites_high_clause(self):
        verdict = validate_rule(ON, 28.0, ON, TH)
        assert not verdict.passed
        assert "exceeds 27" in verdict.reason

    @given(t=st.floats(0.0, 50.0), prev=st.sampled_from([ON, OFF]))
    @settings(max_examples=200, deadline=None)
    def test_expected_always_passes_and_opposite_fails_outside(self, t, prev):
        expected = expected_action(t, prev, TH)
        assert validate_rule(expected, t, prev, TH).passed
        if t < TH.low or t > TH.high:
            assert not validate_rule(expected.opposite, t, prev, TH).passed

    def test_failing_verdict_requires_reason(self):
        with pytest.raises(InvalidInput):
            Verdict(False, ON, "")


class TestValidateTwin:
    PARAMS = TwinParams()

    def test_ambient_stays_inside_wide_envelope(self):
        verdict = validate_twin(
            self.PARAMS, TwinState(23.0, 23.0, 0.0), OFF, 300.0, (20.0, 35.0)
        )
        assert verdict.passed
        assert verdict.expected is None
        assert verdict.reason == "simulated trajectory stays inside the safe envelope"
        # one shared passing verdict, as the rule validator's
        assert validate_twin(self.PARAMS, TwinState(23.0, 23.0, 0.0), ON, 1.0, (20.0, 35.0)) is verdict

    def test_heating_a_hot_plant_breaks_the_envelope(self):
        verdict = validate_twin(
            self.PARAMS, TwinState(43.0, 27.0, 0.0), ON, 600.0, (20.0, 28.0)
        )
        assert not verdict.passed
        assert "28" in verdict.reason
        assert "t=" in verdict.reason

    def test_infinite_envelope_always_passes(self):
        verdict = validate_twin(
            self.PARAMS, TwinState(43.0, 33.0, 0.0), ON, 600.0, (-math.inf, math.inf)
        )
        assert verdict.passed


class TestComposeFeedback:
    def test_template_contents(self):
        verdict = validate_rule(OFF, 24.0, OFF, TH)
        text = compose_feedback(verdict, 1, 3, 24.0, OFF, OFF)
        assert "attempt 1/3" in text
        assert "turn ON below 25" in text
        assert "24.00" in text
        assert "ACTION: ON" in text and "ACTION: OFF" in text

    def test_parse_failure_marks_unparseable(self):
        text = compose_feedback(None, 2, 3, 26.0, ON, None)
        assert "UNPARSEABLE" in text
        assert "no ACTION line found" in text
        assert "attempt 2/3" in text
        assert "transport failure" not in text

    def test_backend_error_is_a_transport_failure(self):
        text = compose_feedback(None, 2, 3, 26.0, ON, None, backend_error="backend error: timed out")
        assert text.startswith("BACKEND ERROR (attempt 2/3)")
        assert "backend error: timed out" in text
        assert "transport failure" in text
        assert "UNPARSEABLE" not in text and "no ACTION line" not in text
        assert "VALIDATION FAILED" not in text
        assert "ACTION: ON" in text and "ACTION: OFF" in text

    def test_rule_verdict_states_the_rule(self):
        text = compose_feedback(validate_rule(ON, 28.0, ON, TH), 1, 3, 28.0, ON, ON)
        assert "Rule: turn OFF above 27°C, turn ON below 25°C" in text
        assert "Twin check" not in text

    def test_twin_verdict_states_its_envelope_and_horizon(self):
        verdict = validate_twin(TwinParams(), TwinState(43.0, 27.0, 0.0), ON, 450.0, (20.0, 28.0))
        text = compose_feedback(verdict, 1, 3, 27.0, OFF, ON)
        assert verdict.reason in text
        assert "Twin check" in text
        assert "[20, 28] degC for the next 450 s" in text
        assert "Rule:" not in text and "turn OFF above" not in text

    def test_deterministic(self):
        verdict = validate_rule(ON, 28.0, ON, TH)
        a = compose_feedback(verdict, 1, 3, 28.0, ON, ON)
        b = compose_feedback(verdict, 1, 3, 28.0, ON, ON)
        assert a == b

    def test_passing_verdict_rejected(self):
        verdict = validate_rule(OFF, 28.0, ON, TH)
        with pytest.raises(InvalidInput):
            compose_feedback(verdict, 1, 3, 28.0, ON, OFF)


class TestMonitorTrigger:
    def test_anomaly_quiet_inside_band(self):
        assert not monitor_trigger(26.0, TH, margin=0.0)

    def test_anomaly_boundary_arithmetic(self):
        assert monitor_trigger(27.6, TH, margin=0.5)
        assert not monitor_trigger(27.4, TH, margin=0.5)
        assert monitor_trigger(24.4, TH, margin=0.5)


# --- texts built once per instance read as the per-call formatting did ---------
#
# The references below format every threshold with f"{x:g}" and read every
# action through its ``value`` on each call.  Equal thresholds may print
# differently (-0.0 == 0.0, but prints as "-0"), so the tests draw both zeros.

band_edges = st.sampled_from([-0.0, 0.0, 1e-5, -1e-5, 1e16, -1e16, 25, 27, 26.5]) | st.integers(-100, 100)


@st.composite
def bands(draw):
    low, high = draw(band_edges), draw(band_edges)
    assume(low < high)
    return Thresholds(low, high)


actions = st.sampled_from(HeaterAction)
readings = st.floats(-1e17, 1e17) | band_edges


def ref_render(spec, reading, prev, th, feedback):
    template = spec.task
    user = template.format(
        temperature=f"{reading:.2f}", prev_action=prev.value,
        low=f"{th.low:g}", high=f"{th.high:g}", feedback=feedback or "",
    )
    if feedback and "{feedback}" not in template:
        user = f"{user}\n\n{feedback}"
    return f"{spec.role}\n\n{spec.goal}", user


def ref_rule_texts(t, prev, th):
    """(reason, criterion) of a failing rule verdict."""
    if t > th.high:
        reason = f"temperature {t:.2f} degC exceeds {th.high:g} degC, so the heater must be OFF"
    elif t < th.low:
        reason = f"temperature {t:.2f} degC is below {th.low:g} degC, so the heater must be ON"
    else:
        reason = f"temperature {t:.2f} degC is inside the band, so the previous state {prev} must be held"
    criterion = (
        f"Rule: turn OFF above {th.high:g}°C, turn ON below {th.low:g}°C, "
        "otherwise hold the previous state."
    )
    return reason, criterion


RENDER_ARGS = ("temperature", "prev_action", "low", "high", "feedback")
# Literal chunks with braces escaped, quotes, backslashes, newlines,
# non-ASCII and text that reads as Python; fields with every conversion and
# string specs.
literal_chunks = st.sampled_from(
    ["{{", "}}", '"', "'", '"""', "\\", "\\N{{BULLET}}", "\n", "°C", "é", " "]
    + ["__import__('os')", "{{feedback}}", "f'{{x}}'"]
) | st.text(st.characters(blacklist_characters="{}", blacklist_categories=("Cs",)), max_size=5)
template_fields = st.builds(
    lambda name, conversion, spec: f"{{{name}{conversion}{spec and ':' + spec}}}",
    st.sampled_from(RENDER_ARGS), st.sampled_from(["", "!r", "!s", "!a"]),
    st.sampled_from(["", ">8", "^5", "x<4"]),
)
templates = st.lists(literal_chunks | template_fields, max_size=8).map("".join)

INLINE_FEEDBACK = AgentSpec(task="{feedback}|{low}|{high}|{prev_action}")


class TestTextsBuiltOnce:
    @settings(max_examples=200, deadline=None)
    @given(
        th=bands(), t=readings, prev=actions,
        spec=st.sampled_from([DEFAULT_OPERATOR, INLINE_FEEDBACK]),
        feedback=st.none() | st.just("") | st.just("VALIDATION FAILED (attempt 1/4): x"),
    )
    def test_render_prompt(self, th, t, prev, spec, feedback):
        expected = ref_render(spec, t, prev, th, feedback)
        for _ in range(2):  # the second call reads the kept texts
            assert render_prompt(spec, t, prev, th, feedback) == expected

    @settings(max_examples=300, deadline=None)
    @given(
        template=templates, values=st.lists(st.text(max_size=6), min_size=5, max_size=5),
        th=bands(), t=readings, prev=actions, feedback=st.none() | st.text(max_size=12),
    )
    def test_compiled_template_renders_as_str_format(self, template, values, th, t, prev, feedback):
        spec = AgentSpec(task=template)
        render = agents._compile_prompt(spec.role, spec.goal, template)[1]
        for _ in range(2):  # the second call takes the cached renderer
            assert render(*values) == template.format(**dict(zip(RENDER_ARGS, values)))
            for fb in (None, feedback):
                assert render_prompt(spec, t, prev, th, fb) == ref_render(spec, t, prev, th, fb)

    def test_generated_source_holds_only_identifiers(self, monkeypatch):
        sources = []

        def spy(source, namespace):
            sources.append(source)
            exec(source, namespace)

        monkeypatch.setattr(agents, "exec", spy, raising=False)
        task = "{{__import__('os')}}\\n\"'\n°{low!r:>8}{high!a}{temperature:.^7}{feedback!s}{prev_action}\")"
        render = agents._compile_prompt.__wrapped__("role", "goal", task)[1]
        values = dict(zip(RENDER_ARGS, ["12.34", "ON", "25", "27", "x"]))
        assert render(*values.values()) == task.format(**values)
        (source,) = sources
        head, body = source.split('return f"')
        assert head == f"def render({', '.join(RENDER_ARGS)}):\n    " and body.endswith('"\n')
        assert re.fullmatch(r"(\{[\w(), ]+\})+", body[:-2])
        names = set(re.findall(r"\w+", body))
        bound = {name for name in names if re.fullmatch(r"_n\d+", name)}
        assert names - bound == {"format", "repr", "str", "ascii", *RENDER_ARGS}

    @settings(max_examples=200, deadline=None)
    @given(th=bands(), t=readings, prev=actions, proposal=actions)
    def test_validate_rule_and_compose_feedback(self, th, t, prev, proposal):
        verdict = validate_rule(proposal, t, prev, th)
        expected = expected_action(t, prev, th)
        if proposal is expected:
            assert verdict.passed and verdict.expected is expected
            return
        reason, criterion = ref_rule_texts(t, prev, th)
        assert (verdict.reason, verdict.criterion) == (reason, criterion)
        assert compose_feedback(verdict, 1, 4, t, prev, proposal) == (
            f"VALIDATION FAILED (attempt 1/4): at {t:.2f}°C with previous heater state {prev.value}, "
            f"your proposed action {proposal.value} was rejected: {reason}. {criterion} "
            "Respond with a final line 'ACTION: ON' or 'ACTION: OFF'."
        )

    @settings(max_examples=100, deadline=None)
    @given(th=bands(), horizon=st.sampled_from([1e-5, 1, 60, 300.0, 1e4]), proposal=actions)
    def test_validate_twin_bounds_text(self, th, horizon, proposal):
        lo, hi = th.low, th.high
        # the start reading lies above the envelope, so its first sample leaves it
        start = abs(hi) * 2 + 1
        verdict = validate_twin(TwinParams(), TwinState(start, start, 0.0), proposal, horizon, (lo, hi))
        bounds = f"[{lo:g}, {hi:g}]"
        assert verdict.reason.endswith(f"leaves the safe envelope {bounds}")
        assert verdict.criterion.endswith(f"envelope {bounds} degC for the next {horizon:g} s.")

    def test_runs_whose_zeros_differ_in_sign_print_their_own(self):
        negative, positive = Thresholds(-0.0, 1.0), Thresholds(0.0, 1.0)
        assert negative == positive and hash(negative) == hash(positive)
        prompts = {}
        for th in (negative, positive, negative):
            backend = Recording(ScriptedBackend(ScriptedPolicy(kind=ALWAYS_WRONG), LatencySpec("fixed", 5.0)))
            config = RunConfig(duration=30.0, thresholds=th, max_reprompts=1)
            episodes = run_loop(TwinPlant(), backend, config)
            assert all(e.override for e in episodes)
            prompts[th.low.hex()] = backend.users
        low = {"-0x0.0p+0": "-0", "0x0.0p+0": "0"}
        for key, users in prompts.items():
            assert users
            for user in users:
                assert f"falls below {low[key]} degC" in user
            assert f"turn ON below {low[key]}°C" in users[1]


class Recording:
    """A backend that keeps every user text it was sent."""

    def __init__(self, inner):
        self.inner, self.users = inner, []

    def complete(self, system_text, user_text, ctx):
        self.users.append(user_text)
        return self.inner.complete(system_text, user_text, ctx)


ACTION_RE = re.compile(r"action\s*:\s*(on|off)\b", re.IGNORECASE)


@st.composite
def mixed_case(draw, word):
    return "".join(c.upper() if draw(st.booleans()) else c for c in word)


@st.composite
def replies(draw):
    """Text with zero or more ACTION directives in any case and spacing."""
    spaces = st.text(" \t\n", max_size=3)
    parts = [draw(st.text(max_size=8))]
    for _ in range(draw(st.integers(0, 3))):
        parts += [
            draw(mixed_case("action")), draw(spaces), ":", draw(spaces),
            draw(mixed_case(draw(st.sampled_from(["on", "off"])))), draw(st.text(max_size=4)),
        ]
    return "".join(parts)


@settings(max_examples=300, deadline=None)
@given(reply=replies())
def test_parse_action_reads_the_last_directive_by_table(reply):
    matches = list(ACTION_RE.finditer(reply))
    if not matches:
        with pytest.raises(ParseError):
            parse_action(reply)
    else:
        assert parse_action(reply) is HeaterAction(matches[-1].group(1).upper())
