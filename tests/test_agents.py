"""Tests for prompt rendering, action parsing, validation and feedback."""

import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from twinloop.agents import (
    AgentSpec,
    TaskSpec,
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
    ANOMALY,
    CONTINUOUS,
)
from twinloop.errors import InvalidInput, InvalidState, ParseError, TemplateError
from twinloop.plantio import HeaterAction, PlantSample
from twinloop.twin import TwinParams, TwinState

TH = Thresholds()
ON = HeaterAction.ON
OFF = HeaterAction.OFF


def sample(t, applied=OFF, timestamp=0.0):
    return PlantSample(timestamp, t, applied)


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
        system_text, _ = render_prompt(DEFAULT_OPERATOR, sample(26.0), OFF, TH)
        assert system_text == f"{DEFAULT_OPERATOR.role}\n\n{DEFAULT_OPERATOR.goal}"

    def test_no_feedback_block_without_feedback(self):
        _, user_text = render_prompt(DEFAULT_OPERATOR, sample(26.0), OFF, TH)
        assert "VALIDATION FAILED" not in user_text

    def test_feedback_is_appended(self):
        feedback = compose_feedback(
            validate_rule(OFF, 24.0, OFF, TH), 1, 3, 24.0, OFF, OFF, TH
        )
        _, user_text = render_prompt(
            DEFAULT_OPERATOR, sample(24.0), OFF, TH, feedback
        )
        assert user_text.endswith(feedback)
        assert "VALIDATION FAILED" in user_text

    def test_temperature_rendered_with_two_decimals(self):
        _, user_text = render_prompt(DEFAULT_OPERATOR, sample(26.434999), OFF, TH)
        assert "26.43" in user_text

    def test_deterministic(self):
        args = (DEFAULT_OPERATOR, sample(25.5, ON), ON, TH, "try harder")
        assert render_prompt(*args) == render_prompt(*args)

    def test_no_unresolved_placeholders(self):
        _, user_text = render_prompt(DEFAULT_OPERATOR, sample(26.0), OFF, TH)
        assert not re.search(r"\{[a-z_]+\}", user_text)

    def test_inline_feedback_placeholder_is_substituted(self):
        spec = AgentSpec(task=TaskSpec("T={temperature} prev={prev_action} notes: {feedback}").validate())
        _, with_feedback = render_prompt(spec, sample(26.0), OFF, TH, "do better")
        assert with_feedback.endswith("notes: do better")
        _, without = render_prompt(spec, sample(26.0), OFF, TH)
        assert without.endswith("notes: ")

    def test_unknown_placeholder_rejected_at_validation(self):
        with pytest.raises(TemplateError):
            TaskSpec("T={temperature} setpoint={setpoint}").validate()

    def test_unbound_placeholder_raises_template_error(self):
        rogue = AgentSpec(task=TaskSpec("T={temperature} setpoint={setpoint}"))
        with pytest.raises(TemplateError):
            render_prompt(rogue, sample(26.0), OFF, TH)


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
            validate_rule(OFF, 24.0, OFF, TH), 1, 3, 24.0, OFF, OFF, TH
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

    def test_ill_ordered_envelope_rejected(self):
        with pytest.raises(InvalidInput):
            validate_twin(self.PARAMS, TwinState(23.0, 23.0, 0.0), OFF, 60.0, (30.0, 20.0))


class TestComposeFeedback:
    def test_template_contents(self):
        verdict = validate_rule(OFF, 24.0, OFF, TH)
        text = compose_feedback(verdict, 1, 3, 24.0, OFF, OFF, TH)
        assert "attempt 1/3" in text
        assert "turn ON below 25" in text
        assert "24.00" in text
        assert "ACTION: ON" in text and "ACTION: OFF" in text

    def test_parse_failure_marks_unparseable(self):
        text = compose_feedback(None, 2, 3, 26.0, ON, None, TH)
        assert "UNPARSEABLE" in text
        assert "no ACTION line found" in text
        assert "attempt 2/3" in text

    def test_deterministic(self):
        verdict = validate_rule(ON, 28.0, ON, TH)
        a = compose_feedback(verdict, 1, 3, 28.0, ON, ON, TH)
        b = compose_feedback(verdict, 1, 3, 28.0, ON, ON, TH)
        assert a == b

    def test_passing_verdict_rejected(self):
        verdict = validate_rule(OFF, 28.0, ON, TH)
        with pytest.raises(InvalidState):
            compose_feedback(verdict, 1, 3, 28.0, ON, OFF, TH)


class TestMonitorTrigger:
    def test_continuous_always_fires(self):
        assert monitor_trigger(sample(26.0), CONTINUOUS, TH)
        assert monitor_trigger(sample(40.0), CONTINUOUS, TH)

    def test_anomaly_quiet_inside_band(self):
        assert not monitor_trigger(sample(26.0), ANOMALY, TH, margin=0.0)

    def test_anomaly_boundary_arithmetic(self):
        assert monitor_trigger(sample(27.6), ANOMALY, TH, margin=0.5)
        assert not monitor_trigger(sample(27.4), ANOMALY, TH, margin=0.5)
        assert monitor_trigger(sample(24.4), ANOMALY, TH, margin=0.5)

    def test_negative_margin_rejected(self):
        with pytest.raises(InvalidInput):
            monitor_trigger(sample(26.0), ANOMALY, TH, margin=-0.1)

    def test_unknown_mode_rejected(self):
        with pytest.raises(InvalidInput):
            monitor_trigger(sample(26.0), "sometimes", TH)

