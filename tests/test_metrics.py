"""Metric tests: accuracy counters against frozen published-table counts,
hand-computed zero-order-hold control figures, and report formats."""

import pytest
from hypothesis import given, settings, strategies as st

from twinloop.agents import Thresholds
from twinloop.errors import InvalidInput, LogFormatError
from twinloop.jsonio import dumps_record, loads_record
from twinloop.metrics import (
    CSV_COLUMNS,
    RunMetrics,
    accuracy_metrics,
    control_metrics,
    points_dump,
    report,
    run_metrics,
)
from twinloop.orchestrator import AttemptRecord, EpisodeRecord
from twinloop.plantio import HeaterAction

TH = Thresholds()
ON = HeaterAction.ON
OFF = HeaterAction.OFF


def make_attempt(index, passed, latency=1.0):
    return AttemptRecord(
        attempt_index=index,
        raw_response="ACTION: ON" if passed else "ACTION: OFF",
        parsed=ON if passed else OFF,
        passed=passed,
        expected=ON,
        reason="test",
        error=None,
        latency=latency,
    )


def make_episode(index, outcome, t_start=None, t_sensor=26.0):
    """outcome: 'pass', 'reprompt' (fails once then passes), or 'override'."""
    if outcome == "pass":
        attempts = (make_attempt(0, True),)
        override = False
    elif outcome == "reprompt":
        attempts = (make_attempt(0, False), make_attempt(1, True))
        override = False
    else:
        attempts = tuple(make_attempt(i, False) for i in range(4))
        override = True
    t0 = float(index) if t_start is None else t_start
    return EpisodeRecord(
        index=index,
        t_start=t0,
        t_sensor=t_sensor,
        prev_action=OFF,
        attempts=attempts,
        applied=ON,
        override=override,
        t_end=t0 + sum(a.latency for a in attempts),
    )


def synthetic_log(samples, passes, pass_after_reprompts):
    episodes = []
    for i in range(samples):
        if i < passes:
            outcome = "pass"
        elif i < passes + pass_after_reprompts:
            outcome = "reprompt"
        else:
            outcome = "override"
        episodes.append(make_episode(i, outcome))
    return episodes


class TestAccuracyMetrics:
    def test_known_counts_423(self):
        # 254 first-pass and 107 rescued out of 423: 60.05% / 85.34%
        m = accuracy_metrics(synthetic_log(423, 254, 107))
        assert m.samples == 423
        assert m.passes == 254
        assert m.fails == 169
        assert m.pass_after_reprompts == 107
        assert m.overrides == 62
        assert m.accuracy_first_pass == pytest.approx(60.05, abs=0.02)
        assert m.accuracy_with_reprompts == pytest.approx(85.34, abs=0.02)

    def test_known_counts_554(self):
        m = accuracy_metrics(synthetic_log(554, 552, 1))
        assert m.accuracy_first_pass == pytest.approx(99.64, abs=0.02)
        assert m.accuracy_with_reprompts == pytest.approx(99.82, abs=0.02)

    def test_known_counts_128_exact(self):
        m = accuracy_metrics(synthetic_log(128, 120, 3))
        assert m.accuracy_first_pass == 93.75
        assert m.accuracy_with_reprompts == 96.09

    def test_counter_identities(self):
        m = accuracy_metrics(synthetic_log(50, 30, 12))
        assert m.samples == m.passes + m.fails
        assert m.pass_after_reprompts + m.overrides == m.fails

    def test_a_log_with_no_episode_reports_zero_samples(self):
        # a run aborted before its first episode leaves a header-only log
        m = run_metrics([], TH, 60.0)
        assert dumps_record(m) == (
            '{"accuracy":{"samples":0,"passes":0,"fails":0,"pass_after_reprompts":0,"overrides":0,'
            '"accuracy_first_pass":0.000,"accuracy_with_reprompts":0.000},'
            '"control":{"avg_deviation":0.000,"time_above":0.000,"time_below":0.000,'
            f'"time_outside":0.000,"midpoint":{TH.midpoint:.3f}}}}}'
        )
        assert report(m, "csv").splitlines()[1] == f"0,0,0,0,0,0.00,0.00,0.00,0.00,0.00,0.00,{TH.midpoint:.2f}"

    @given(
        samples=st.integers(1, 300),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_reprompts_never_reduce_accuracy(self, samples, data):
        passes = data.draw(st.integers(0, samples))
        rescued = data.draw(st.integers(0, samples - passes))
        m = accuracy_metrics(synthetic_log(samples, passes, rescued))
        assert m.accuracy_with_reprompts >= m.accuracy_first_pass


class TestControlMetrics:
    def test_hand_computed_zoh_example(self):
        episodes = [
            make_episode(0, "pass", t_start=0.0, t_sensor=26.0),
            make_episode(1, "pass", t_start=10.0, t_sensor=28.0),
            make_episode(2, "pass", t_start=20.0, t_sensor=28.0),
            make_episode(3, "pass", t_start=30.0, t_sensor=26.0),
        ]
        m = control_metrics(episodes, TH, 40.0)
        assert m.time_above == 20.0
        assert m.time_below == 0.0
        assert m.time_outside == 20.0
        assert m.avg_deviation == pytest.approx(1.0)
        assert m.midpoint == 26.0

    def test_constant_midpoint_temperature(self):
        episodes = [make_episode(i, "pass", t_start=5.0 * i, t_sensor=26.0) for i in range(10)]
        m = control_metrics(episodes, TH, 50.0)
        assert m.time_above == 0.0
        assert m.time_below == 0.0
        assert m.time_outside == 0.0
        assert m.avg_deviation == 0.0

    def test_single_sample_holds_to_duration(self):
        episodes = [make_episode(0, "pass", t_start=0.0, t_sensor=28.0)]
        m = control_metrics(episodes, TH, 100.0)
        assert m.time_above == 100.0
        assert m.avg_deviation == pytest.approx(2.0)

    def test_boundary_temperatures_are_inside(self):
        episodes = [
            make_episode(0, "pass", t_start=0.0, t_sensor=27.0),
            make_episode(1, "pass", t_start=10.0, t_sensor=25.0),
        ]
        m = control_metrics(episodes, TH, 20.0)
        assert m.time_outside == 0.0

    def test_unordered_timestamps_rejected(self):
        episodes = [
            make_episode(0, "pass", t_start=10.0),
            make_episode(1, "pass", t_start=5.0),
        ]
        with pytest.raises(LogFormatError):
            control_metrics(episodes, TH, 20.0)
        # two episodes at one time are refused too
        episodes = [make_episode(0, "pass", t_start=5.0), make_episode(1, "pass", t_start=5.0)]
        with pytest.raises(LogFormatError, match="not strictly increasing at index 1"):
            control_metrics(episodes, TH, 20.0)

    @given(
        temps=st.lists(st.floats(20.0, 32.0), min_size=1, max_size=40),
    )
    @settings(max_examples=80, deadline=None)
    def test_outside_equals_above_plus_below_exactly(self, temps):
        episodes = [
            make_episode(i, "pass", t_start=3.0 * i, t_sensor=t) for i, t in enumerate(temps)
        ]
        duration = 3.0 * len(temps)
        m = control_metrics(episodes, TH, duration)
        assert m.time_outside == m.time_above + m.time_below
        assert 0.0 <= m.time_outside <= duration + 1e-9


class TestReport:
    METRICS = run_metrics(synthetic_log(423, 254, 107), TH, 423.0)

    def test_table_labels(self):
        table = report(self.METRICS, "table")
        assert "Accuracy- first pass (%)" in table
        assert "Accuracy - reprompts (%)" in table
        assert "60.05" in table
        assert "85.34" in table
        assert "Time outside range (s)" in table

    def test_csv_header_is_stable(self):
        csv_a = report(self.METRICS, "csv")
        csv_b = report(run_metrics(synthetic_log(10, 5, 2), TH, 10.0), "csv")
        assert csv_a.splitlines()[0] == csv_b.splitlines()[0]
        assert csv_a.splitlines()[0] == ",".join(CSV_COLUMNS)

    def test_machine_round_trips(self):
        text = report(self.METRICS, "machine")
        parsed = loads_record(text, RunMetrics)
        assert parsed == self.METRICS

    def test_csv_and_machine_agree(self):
        csv_text = report(self.METRICS, "csv")
        parsed = loads_record(report(self.METRICS, "machine"), RunMetrics)
        header, values = csv_text.splitlines()
        by_name = dict(zip(header.split(","), values.split(",")))
        assert by_name["samples"] == str(parsed.accuracy.samples)
        assert by_name["accuracy_first_pass_pct"] == f"{parsed.accuracy.accuracy_first_pass:.2f}"
        assert by_name["avg_deviation_c"] == f"{parsed.control.avg_deviation:.2f}"
        assert by_name["time_outside_s"] == f"{parsed.control.time_outside:.2f}"

    def test_unknown_format_rejected(self):
        # a bad argument, not a malformed log line
        for fmt in ("yaml", "xml"):
            with pytest.raises(InvalidInput, match=f"^unknown report format '{fmt}'$"):
                report(self.METRICS, fmt)

    def test_points_dump_one_line_per_episode(self):
        episodes = synthetic_log(5, 3, 1)
        lines = points_dump(episodes).splitlines()
        assert len(lines) == 5
        t, temp, action = lines[0].split(",")
        assert float(t) == 0.0
        assert float(temp) == 26.0
        assert action in ("ON", "OFF")
