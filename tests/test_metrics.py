"""Metric tests: accuracy counters against frozen published-table counts,
hand-computed zero-order-hold control figures, the metric loops written
plainly as the oracle of run_metrics, and report formats."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from twinloop.agents import Thresholds
from twinloop.errors import InvalidInput
from twinloop.jsonio import dumps_record, loads_record
from twinloop.metrics import (
    CSV_COLUMNS,
    AccuracyMetrics,
    ControlMetrics,
    RunMetrics,
    accuracy_metrics,
    control_metrics,
    points_dump,
    report,
    run_metrics,
)
from twinloop.orchestrator import AttemptRecord, EpisodeRecord
from twinloop.plantio import HeaterAction, round_half_away

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
        with pytest.raises(InvalidInput):
            control_metrics(episodes, TH, 20.0)
        # two episodes at one time are refused too
        episodes = [make_episode(0, "pass", t_start=5.0), make_episode(1, "pass", t_start=5.0)]
        with pytest.raises(InvalidInput, match="not strictly increasing at index 1"):
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


# --- the metric loops written plainly: the oracle of run_metrics ---------------


def reference_accuracy(episodes):
    """``accuracy_metrics`` written plainly: each episode's attempts looked
    up on every use."""
    samples = len(episodes)
    passes = 0
    pass_after_reprompts = 0
    overrides = 0
    for episode in episodes:
        if not episode.attempts:
            raise InvalidInput(f"episode {episode.index} has no attempts")
        if episode.attempts[0].passed:
            passes += 1
        elif any(a.passed for a in episode.attempts[1:]):
            pass_after_reprompts += 1
        else:
            overrides += 1
    fails = samples - passes
    return AccuracyMetrics(
        samples=samples,
        passes=passes,
        fails=fails,
        pass_after_reprompts=pass_after_reprompts,
        overrides=overrides,
        accuracy_first_pass=round_half_away(100.0 * passes / max(samples, 1)),
        accuracy_with_reprompts=round_half_away(100.0 * (passes + pass_after_reprompts) / max(samples, 1)),
    )


def reference_control(episodes, thresholds, run_duration):
    """``control_metrics`` written plainly: each episode checked against the
    one before it, and held until ``episodes[i + 1]`` starts."""
    midpoint = thresholds.midpoint
    time_above = 0.0
    time_below = 0.0
    weighted_dev = 0.0
    total = 0.0
    previous_start = None
    for i, episode in enumerate(episodes):
        if previous_start is not None and episode.t_start <= previous_start:
            raise InvalidInput(
                f"episode timestamps are not strictly increasing at index {episode.index}"
            )
        previous_start = episode.t_start
        t_next = episodes[i + 1].t_start if i + 1 < len(episodes) else run_duration
        width = max(0.0, t_next - episode.t_start)
        if episode.t_sensor > thresholds.high:
            time_above += width
        elif episode.t_sensor < thresholds.low:
            time_below += width
        weighted_dev += abs(episode.t_sensor - midpoint) * width
        total += width
    return ControlMetrics(
        avg_deviation=weighted_dev / total if total > 0 else 0.0,
        time_above=time_above,
        time_below=time_below,
        time_outside=time_above + time_below,
        midpoint=midpoint,
    )


def reported(compute, *args):
    """The machine report of ``compute(*args)``, or what it raised."""
    try:
        return dumps_record(compute(*args))
    except (InvalidInput, ValueError) as exc:
        return type(exc), str(exc)


NON_FINITE = (math.nan, math.inf, -math.inf)


@st.composite
def episode_lists(draw):
    """Episodes as a run log holds them, or as a hand-edited one may: any
    attempts after a passing one, no attempt at all, a start that does not
    follow the one before it (first pair, last pair or any), and, off the
    log path, a start that is not finite."""
    n = draw(st.integers(0, 12))
    starts = []
    for _ in range(n):
        starts.append((starts[-1] if starts else 0.0) + draw(st.floats(1e-3, 50.0)))
    if n >= 2:
        where = draw(st.sampled_from([None, 1, n - 1, draw(st.integers(1, n - 1))]))
        if where is not None:
            starts[where] = starts[where - 1] - draw(st.sampled_from([0.0, 1.0, 1e-9]))
    if n and draw(st.integers(0, 9)) == 0:
        starts[draw(st.integers(0, n - 1))] = draw(st.sampled_from(NON_FINITE))
    temperatures = st.one_of(st.floats(20.0, 32.0), st.sampled_from([25.0, 27.0, 26.0]))
    episodes = []
    for i, t_start in enumerate(starts):
        passed = draw(st.lists(st.booleans(), min_size=0 if draw(st.integers(0, 19)) == 0 else 1, max_size=5))
        episodes.append(EpisodeRecord(
            index=i,
            t_start=t_start,
            t_sensor=draw(temperatures),
            prev_action=OFF,
            attempts=tuple(make_attempt(k, p) for k, p in enumerate(passed)),
            applied=ON,
            override=not any(passed),
            t_end=t_start,
        ))
    return episodes


@given(
    episodes=episode_lists(),
    bounds=st.sampled_from([(25.0, 27.0), (20.0, 30.0), (26.0, 26.5)]),
    tail=st.floats(-5.0, 100.0),
)
@settings(max_examples=400, deadline=None)
def test_run_metrics_reports_what_the_plain_loops_report(episodes, bounds, tail):
    thresholds = Thresholds(*bounds)
    last = episodes[-1].t_start if episodes and math.isfinite(episodes[-1].t_start) else 0.0
    # the run may end before the last episode starts, which holds it for no time
    duration = last + tail
    expected = reported(
        lambda: RunMetrics(reference_accuracy(episodes), reference_control(episodes, thresholds, duration))
    )
    assert reported(run_metrics, episodes, thresholds, duration) == expected


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
