"""Control loop tests: episode anatomy, reprompting, safety override, gating,
clock accounting, and run-log round trips."""

import hashlib
import json
import math
import re
import sys
import time
from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from test_jsonio import run_configs
from twinloop.agents import (
    ANOMALY,
    DEFAULT_OPERATOR,
    DecisionContext,
    Thresholds,
    compose_feedback,
    expected_action,
    monitor_trigger,
    parse_action,
    render_prompt,
    validate_rule,
    validate_twin,
)
from twinloop.backends import Exchange, LatencySpec, ReplayBackend, ScriptedBackend, ScriptedPolicy
from twinloop.errors import BackendError, InvalidInput, ParseError
from twinloop.jsonio import dumps_record, loads_record
from twinloop.orchestrator import (
    MIN_IDLE_TICK,
    RULE,
    AttemptRecord,
    EpisodeRecord,
    MonitorMode,
    RunConfig,
    RunLogWriter,
    ValidatorMode,
    config_digest,
    read_run_log,
    run_episode,
    run_loop,
    safety_action,
)
from twinloop.plantio import LOCKSTEP, HeaterAction, TwinPlant
from twinloop.twin import TwinParams, TwinState

TH = Thresholds()
ON = HeaterAction.ON
OFF = HeaterAction.OFF


def make_plant(t_heater=23.0, t_sensor=23.0):
    return TwinPlant(initial_state=TwinState(t_heater, t_sensor, 0.0))


def scripted(kind="oracle", latency=5.0, seed=0, p_wrong=0.4, p_correct=0.63):
    return ScriptedBackend(
        ScriptedPolicy(kind=kind, p_wrong_first=p_wrong, p_correct_on_feedback=p_correct, seed=seed),
        LatencySpec(kind="fixed", seconds=latency),
    )


class FailingBackend:
    """Raises BackendError for the first `failures` calls, each after
    `elapsed` seconds, then delegates."""

    def __init__(self, failures, inner, elapsed=0.0):
        self.failures = failures
        self.inner = inner
        self.elapsed = elapsed
        self.calls = 0

    def complete(self, system_text, user_text, ctx):
        self.calls += 1
        if self.calls <= self.failures:
            raise BackendError("stub transport failure", status=500, elapsed=self.elapsed)
        return self.inner.complete(system_text, user_text, ctx)


class TestRunEpisode:
    def test_oracle_single_passing_attempt(self):
        plant = make_plant(t_sensor=28.0, t_heater=40.0)
        record = run_episode(plant, scripted(), RunConfig(), prev=ON, index=0)
        assert len(record.attempts) == 1
        assert record.attempts[0].passed
        assert record.applied is OFF
        assert not record.override

    def test_degenerate_flip_fails_then_passes(self):
        plant = make_plant(t_sensor=24.0)
        backend = scripted(kind="flip", p_wrong=1.0, p_correct=1.0)
        record = run_episode(plant, backend, RunConfig(), prev=OFF, index=0)
        assert [a.passed for a in record.attempts] == [False, True]
        assert record.attempts[0].parsed is OFF
        assert record.attempts[1].parsed is ON
        assert record.applied is ON
        assert not record.override

    def test_always_wrong_exhausts_and_overrides(self):
        plant = make_plant(t_sensor=28.0, t_heater=40.0)
        record = run_episode(plant, scripted(kind="always_wrong"), RunConfig(), prev=ON, index=0)
        assert len(record.attempts) == 4
        assert all(not a.passed for a in record.attempts)
        assert record.override
        assert record.applied is OFF  # expected_rule safety action

    def test_feedback_names_the_attempt_budget(self):
        prompts = []
        inner = scripted(kind="always_wrong")

        class Recording:
            def complete(self, system_text, user_text, ctx):
                prompts.append(user_text)
                return inner.complete(system_text, user_text, ctx)

        plant = make_plant(t_sensor=28.0, t_heater=40.0)
        run_episode(plant, Recording(), RunConfig(), prev=ON, index=0)
        assert len(prompts) == 4
        assert "VALIDATION FAILED" not in prompts[0]
        for k, prompt in enumerate(prompts[1:], start=1):
            assert f"(attempt {k}/4)" in prompt

    def test_force_off_safety_policy(self):
        plant = make_plant(t_sensor=24.0)
        config = RunConfig(safe_action_policy="force_off")
        record = run_episode(plant, scripted(kind="always_wrong"), config, prev=OFF, index=0)
        assert record.override
        assert record.applied is OFF

    def test_clock_accounting_in_lockstep(self):
        plant = make_plant(t_sensor=24.0)
        backend = scripted(kind="always_wrong", latency=2.25)
        record = run_episode(plant, backend, RunConfig(max_reprompts=2), prev=OFF, index=0)
        total_latency = sum(a.latency for a in record.attempts)
        assert record.t_end - record.t_start == pytest.approx(total_latency, abs=1e-9)
        assert plant.clock == pytest.approx(3 * 2.25, abs=1e-9)

    def test_previous_action_holds_during_inference(self):
        # heater previously ON keeps heating while the decision is made
        plant = make_plant(t_sensor=26.0, t_heater=35.0)
        plant.apply_heater(ON)
        run_episode(plant, scripted(latency=30.0), RunConfig(), prev=ON, index=0)
        assert plant.read_temperature() > 26.0

    def test_backend_error_counts_as_failed_attempt(self):
        plant = make_plant(t_sensor=28.0, t_heater=40.0)
        backend = FailingBackend(1, scripted())
        record = run_episode(plant, backend, RunConfig(), prev=ON, index=0)
        assert record.attempts[0].error == "backend_error"
        assert not record.attempts[0].passed
        assert record.attempts[1].passed
        assert record.applied is OFF
        assert not record.override

    def test_backend_error_feedback_is_not_a_parse_failure(self):
        prompts = []
        inner = FailingBackend(1, scripted())

        class Recording:
            def complete(self, system_text, user_text, ctx):
                prompts.append(user_text)
                return inner.complete(system_text, user_text, ctx)

        plant = make_plant(t_sensor=28.0, t_heater=40.0)
        run_episode(plant, Recording(), RunConfig(), prev=ON, index=0)
        assert len(prompts) == 2
        assert "BACKEND ERROR (attempt 1/4)" in prompts[1]
        assert "stub transport failure" in prompts[1]
        assert "UNPARSEABLE" not in prompts[1]

    def test_backend_error_costs_its_elapsed_time_in_lockstep(self):
        # a timed-out call must not look faster than a slow success
        plant = make_plant(t_sensor=28.0, t_heater=40.0)
        backend = FailingBackend(1, scripted(latency=0.0), elapsed=2.5)
        record = run_episode(plant, backend, RunConfig(), prev=ON, index=0)
        assert record.attempts[0].error == "backend_error"
        assert record.attempts[0].latency == 2.5
        assert plant.clock == 2.5
        assert record.t_end - record.t_start == 2.5

    def test_backend_error_on_every_attempt_triggers_override(self):
        plant = make_plant(t_sensor=28.0, t_heater=40.0)
        backend = FailingBackend(99, scripted())
        record = run_episode(plant, backend, RunConfig(), prev=ON, index=0)
        assert len(record.attempts) == 4
        assert record.override
        assert record.applied is OFF

    def test_parse_failure_counts_as_failed_attempt(self):
        class MumblingBackend:
            def __init__(self):
                self.calls = 0

            def complete(self, system_text, user_text, ctx):
                self.calls += 1
                text = "hmm, let me think" if self.calls == 1 else "ACTION: OFF"
                return Exchange(system_text, user_text, text, 1.0, "stub", ctx.timestamp)

        plant = make_plant(t_sensor=28.0, t_heater=40.0)
        record = run_episode(plant, MumblingBackend(), RunConfig(), prev=ON, index=0)
        assert record.attempts[0].error == "parse_error"
        assert record.attempts[0].parsed is None
        assert record.attempts[1].passed

    def test_twin_validator_mode(self):
        params = TwinParams()
        config = RunConfig(
            validator=ValidatorMode(kind="twin", horizon=600.0, envelope=(20.0, 28.0))
        )
        # hot plant: heating further would leave the envelope, cooling passes
        plant = make_plant(t_heater=43.0, t_sensor=27.5)
        record = run_episode(
            plant, scripted(kind="always_wrong"), config, prev=ON, index=0, twin_params=params
        )
        # always_wrong proposes ON (expected is OFF); the twin rollout rejects it
        assert not record.attempts[0].passed
        assert record.attempts[0].expected is None


class TestSafetyAction:
    def test_expected_rule(self):
        assert safety_action("expected_rule", 24.0, OFF, TH) is ON
        assert safety_action("expected_rule", 26.0, ON, TH) is ON

    def test_force_off(self):
        assert safety_action("force_off", 24.0, OFF, TH) is OFF

    def test_unknown_policy(self):
        with pytest.raises(InvalidInput):
            safety_action("wing_it", 24.0, OFF, TH)


class TestRunLoop:
    def test_episode_count_at_fixed_latency(self):
        plant = make_plant()
        episodes = run_loop(plant, scripted(latency=5.67), RunConfig(duration=2400.0))
        assert abs(len(episodes) - 423) <= 1

    def test_tiny_duration_still_runs_one_episode(self):
        plant = make_plant()
        episodes = run_loop(plant, scripted(latency=5.0), RunConfig(duration=0.001))
        assert len(episodes) == 1

    def test_an_episode_ending_at_the_end_starts_no_other(self):
        # the loop starts an episode only while the clock is short of the end
        episodes = run_loop(make_plant(), scripted(latency=5.0), RunConfig(duration=10.0))
        assert [(e.t_start, e.t_end) for e in episodes] == [(0.0, 5.0), (5.0, 10.0)]

    def test_the_default_idle_poll_is_one_second(self):
        class ReadClocks(TwinPlant):
            """A plant that records its clock at each reading."""

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.reads = []

            def read_temperature(self):
                self.reads.append(self.clock)
                return super().read_temperature()

        plant = ReadClocks(initial_state=TwinState(23.0, 23.0, 0.0))
        config = RunConfig(duration=120.0, sample_period_floor=0.0, monitor=MonitorMode(kind="anomaly"))
        episodes = run_loop(plant, scripted(kind="flip", latency=5.674, seed=1), config)
        # a reading that starts no episode is an idle poll, and the next one follows it
        starts = {e.t_start for e in episodes}
        idle = [b - a for a, b in zip(plant.reads, plant.reads[1:]) if a not in starts]
        assert idle and all(gap == pytest.approx(1.0, abs=1e-9) for gap in idle)
        assert len(plant.reads) == 51

    def test_anomaly_monitor_gates_after_cold_start(self):
        # start inside the band; with a wide margin nothing ever triggers
        plant = make_plant(t_heater=26.0, t_sensor=26.0)
        config = RunConfig(duration=60.0, monitor=MonitorMode(kind="anomaly", margin=10.0))
        episodes = run_loop(plant, scripted(latency=1.0), config)
        assert len(episodes) == 1
        assert plant.clock >= 60.0

    def test_anomaly_monitor_fires_out_of_band(self):
        plant = make_plant()  # 23 degC, below the band
        config = RunConfig(duration=30.0, monitor=MonitorMode(kind="anomaly", margin=0.5))
        episodes = run_loop(plant, scripted(latency=5.0), config)
        assert len(episodes) > 1

    def test_prev_action_chains_between_episodes(self):
        plant = make_plant()
        episodes = run_loop(
            plant, scripted(kind="flip", latency=7.0, seed=3), RunConfig(duration=600.0)
        )
        for earlier, later in zip(episodes, episodes[1:]):
            assert later.prev_action is earlier.applied
        assert episodes[0].prev_action is OFF

    def test_attempt_bound_holds(self):
        plant = make_plant()
        config = RunConfig(duration=400.0, max_reprompts=2)
        episodes = run_loop(
            plant, scripted(kind="flip", latency=4.0, seed=9, p_wrong=0.7, p_correct=0.3), config
        )
        assert all(1 <= len(e.attempts) <= 3 for e in episodes)
        assert all(a.attempt_index <= 2 for e in episodes for a in e.attempts)

    def test_episode_indices_are_sequential(self):
        plant = make_plant()
        episodes = run_loop(plant, scripted(latency=9.0), RunConfig(duration=100.0))
        assert [e.index for e in episodes] == list(range(len(episodes)))

    def test_sample_period_floor_spaces_episodes(self):
        plant = make_plant()
        config = RunConfig(duration=120.0, sample_period_floor=10.0)
        episodes = run_loop(plant, scripted(latency=1.0), config)
        starts = [e.t_start for e in episodes]
        assert all(b - a == pytest.approx(10.0, abs=1e-9) for a, b in zip(starts, starts[1:]))

    def test_zero_latency_backend_still_terminates(self):
        plant = make_plant()
        episodes = run_loop(plant, scripted(latency=0.0), RunConfig(duration=0.01))
        assert len(episodes) >= 1
        assert plant.clock >= 0.01

    def test_sub_tick_latency_still_moves_the_clock_by_the_tick(self):
        # each episode adds 1e-300 s, which used to keep the idle tick away
        def stop_runaway(record):
            if record.index > 1001:
                raise AssertionError("more episodes than 1 s / MIN_IDLE_TICK")

        plant = make_plant()
        episodes = run_loop(
            plant, scripted(latency=1e-300), RunConfig(duration=1.0), on_episode=stop_runaway
        )
        assert plant.clock >= 1.0
        starts = [e.t_start for e in episodes]
        assert all(b - a >= 0.999e-3 for a, b in zip(starts, starts[1:]))

    def test_zero_latency_episodes_advance_by_exactly_the_tick(self):
        plant = make_plant()
        episodes = run_loop(plant, scripted(latency=0.0), RunConfig(duration=0.01))
        expected = [0.0]
        for _ in episodes[1:]:
            expected.append(expected[-1] + 1e-3)
        assert [e.t_start for e in episodes] == expected

    def test_a_tick_past_the_end_stops_at_the_end(self):
        # the eleventh episode starts at 0.01 s, and its 1 ms tick would end at 0.011 s
        plant = make_plant()
        episodes = run_loop(plant, scripted(latency=0.0), RunConfig(duration=0.0105))
        assert len(episodes) == 11
        assert plant.clock == 0.0105

    def test_sub_tick_idle_poll_still_moves_the_clock(self):
        class CountingPlant(TwinPlant):
            advances = 0

            def advance(self, dt):
                self.advances += 1
                if self.advances > 10_000:
                    raise AssertionError("the clock is not moving")
                super().advance(dt)

        # the plant sits inside the band, so the anomaly monitor idles
        plant = CountingPlant(initial_state=TwinState(27.0, 27.0, 0.0))
        config = RunConfig(
            duration=1.0, sample_period_floor=1e-300, monitor=MonitorMode(kind="anomaly")
        )
        episodes = run_loop(plant, scripted(latency=0.5), config)
        assert len(episodes) == 1
        assert plant.clock >= 1.0
        assert plant.advances <= 1000

    # each run's log as written when these waits still ran past the end:
    # cutting them at the end moves no episode, only the plant's last clock
    FLOOR_PAST_THE_END_LOGS = {
        ("continuous", 7.3): "9122d0d88500e61355589237f7348084f2781b315d0d7791db2e95103371eddd",
        ("continuous", 1e300): "57a10fc8b8011542a779fedef98375859b7734c57e73b4710489e16058cc04d3",
        ("anomaly", 7.3): "b019f0b4598528374ad914b0a6a7c4b1c8dc66de1ecdfa1595599c934ad6a8e2",
        ("anomaly", 1e300): "23de88d8844ff92639dd3a19f5b63bb3349bb49376d70f141c6c5c620bf2c8ee",
    }

    @pytest.mark.parametrize("monitor, floor", list(FLOOR_PAST_THE_END_LOGS))
    def test_a_wait_past_the_end_stops_at_the_end(self, tmp_path, monitor, floor):
        plant = make_plant()
        config = RunConfig(duration=100.0, sample_period_floor=floor, monitor=MonitorMode(kind=monitor))
        path = tmp_path / "run.jsonl"
        with RunLogWriter(path, config) as writer:
            run_loop(plant, scripted(kind="flip", latency=1.0, seed=3), config, on_episode=writer.write_episode)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.FLOOR_PAST_THE_END_LOGS[monitor, floor]
        assert plant.clock == 100.0

    def test_an_idle_poll_past_the_end_stops_at_the_end(self):
        # inside the band the anomaly monitor idles, 7.3 s a poll from 7.3 s
        plant = make_plant(t_heater=26.0, t_sensor=26.0)
        config = RunConfig(
            duration=60.0, sample_period_floor=7.3, monitor=MonitorMode(kind="anomaly", margin=10.0)
        )
        episodes = run_loop(plant, scripted(latency=1.0), config)
        assert len(episodes) == 1
        assert 60.0 - 1e-9 < plant.clock <= 60.0

    def test_a_wait_cut_at_the_end_starts_no_episode_an_ulp_before_it(self):
        # 0.0456 + (0.3 - 0.0456) is 0.29999999999999993, short of the end
        assert 0.0456 + (0.3 - 0.0456) < 0.3
        plant = make_plant()
        config = RunConfig(duration=0.3, sample_period_floor=1.0)
        episodes = run_loop(plant, scripted(latency=0.0456), config)
        assert len(episodes) == 1
        assert plant.clock <= 0.3

    def test_safety_guarantee_regardless_of_backend(self):
        plant = make_plant()
        backend = scripted(kind="flip", latency=6.0, seed=21, p_wrong=0.8, p_correct=0.2)
        episodes = run_loop(plant, backend, RunConfig(duration=1200.0))
        for episode in episodes:
            if episode.t_sensor < TH.low or episode.t_sensor > TH.high:
                assert episode.applied is expected_action(
                    episode.t_sensor, episode.prev_action, TH
                )

    def test_oracle_never_overrides(self):
        plant = make_plant()
        episodes = run_loop(plant, scripted(latency=5.0), RunConfig(duration=1200.0))
        assert all(len(e.attempts) == 1 and not e.override for e in episodes)

    def test_realtime_mode_smoke(self):
        plant = TwinPlant(mode="realtime")
        backend = ScriptedBackend(
            ScriptedPolicy(kind="oracle"), LatencySpec(kind="fixed", seconds=0.02)
        )
        config = RunConfig(duration=0.2, clock_mode="realtime")
        episodes = run_loop(plant, backend, config)
        assert len(episodes) >= 1
        assert all(not e.override for e in episodes)
        # wall time elapsed during inference shows up between sample and apply
        assert episodes[0].t_end > episodes[0].t_start

    def test_twin_mode_requires_params(self):
        class BarePlant:
            clock = 0.0
            mode = "lockstep"

            def read_temperature(self):
                raise AssertionError("should fail before sampling")

            def apply_heater(self, action):
                pass

        config = RunConfig(validator=ValidatorMode(kind="twin", horizon=60.0, envelope=(0.0, 50.0)))
        with pytest.raises(InvalidInput, match="twin validator mode requires twin parameters"):
            run_loop(BarePlant(), scripted(), config)


def stop_after(n):
    """on_episode guard: a run that would never end fails instead of hanging."""

    def guard(record):
        if record.index >= n:
            raise AssertionError(f"run still going after {n} episodes")

    return guard


class SleepingBackend:
    """Spends its latency on the wall clock before returning, as HttpBackend
    does, and reports the time it took as the latency.  It answers the rule's
    action, or with ``wrong`` the other one."""

    def __init__(self, seconds, wrong=False):
        self.seconds = seconds
        self.wrong = wrong

    def complete(self, system_text, user_text, ctx):
        t0 = time.monotonic()
        time.sleep(self.seconds)
        action = expected_action(ctx.t_sensor, ctx.prev_action, ctx.thresholds)
        if self.wrong:
            action = OFF if action == ON else ON
        return Exchange(
            system_text, user_text, f"ACTION: {action}", time.monotonic() - t0, "sleeper",
            ctx.timestamp,
        )


class TestPlantOwnsTheClock:
    @pytest.mark.parametrize(
        "plant_mode, config_mode", [("lockstep", "realtime"), ("realtime", "lockstep")]
    )
    def test_mode_mismatch_refused_before_the_first_call(self, plant_mode, config_mode):
        backend = FailingBackend(0, scripted(latency=0.02))
        config = RunConfig(duration=1.0, clock_mode=config_mode)
        with pytest.raises(InvalidInput, match=f"{plant_mode} plant cannot run a {config_mode}"):
            run_loop(TwinPlant(mode=plant_mode), backend, config, on_episode=stop_after(50))
        assert backend.calls == 0

    def test_realtime_run_waits_out_scripted_latency(self):
        backend = scripted(kind="flip", latency=0.02, seed=3, p_wrong=0.5, p_correct=0.5)
        config = RunConfig(duration=0.3, clock_mode="realtime")
        episodes = run_loop(TwinPlant(mode="realtime"), backend, config, on_episode=stop_after(50))
        assert any(len(e.attempts) > 1 for e in episodes)
        for e in episodes:
            # the slack covers float rounding of the run-relative clock
            if e.t_end - e.t_start >= len(e.attempts) * 0.02 - 1e-9:
                continue
            # only the run's last attempt may be cut, and it ends at the run's end
            assert e is episodes[-1] and e.t_end >= config.duration
            assert e.t_end - e.t_start >= (len(e.attempts) - 1) * 0.02 - 1e-9

    @pytest.mark.parametrize("kind", ["oracle", "always_wrong"])
    def test_realtime_latency_past_the_end_is_not_waited(self, kind):
        config = RunConfig(duration=0.5, clock_mode="realtime")
        t0 = time.monotonic()
        backend = scripted(kind, latency=3.0)
        episodes = run_loop(TwinPlant(mode="realtime"), backend, config, on_episode=stop_after(50))
        assert time.monotonic() - t0 < 1.0
        # the one attempt's wait ends at the run's end, and so does its episode
        (episode,) = episodes
        assert [a.latency for a in episode.attempts] == [3.0]
        assert 0.5 <= episode.t_end < 1.0
        assert episode.override is (kind == "always_wrong")

    @pytest.mark.parametrize("monitor", ["continuous", "anomaly"])
    def test_realtime_floor_past_the_end_is_not_waited(self, monitor):
        config = RunConfig(
            duration=0.5, sample_period_floor=3.0, clock_mode="realtime", monitor=MonitorMode(kind=monitor)
        )
        t0 = time.monotonic()
        episodes = run_loop(TwinPlant(mode="realtime"), scripted(latency=0.02), config, on_episode=stop_after(50))
        assert len(episodes) == 1
        assert 0.5 <= time.monotonic() - t0 < 1.5

    def test_realtime_idle_poll_past_the_end_is_not_waited(self):
        # the plant sits inside the band: after its floor wait the monitor
        # idles for 1 s a poll, from 1 s into a 1.2 s run
        plant = TwinPlant(mode="realtime", initial_state=TwinState(26.0, 26.0, 0.0))
        config = RunConfig(
            duration=1.2, sample_period_floor=1.0, clock_mode="realtime",
            monitor=MonitorMode(kind="anomaly", margin=10.0),
        )
        t0 = time.monotonic()
        episodes = run_loop(plant, scripted(latency=0.02), config, on_episode=stop_after(50))
        assert len(episodes) == 1
        assert 1.2 <= time.monotonic() - t0 < 1.8

    def test_call_that_spent_its_latency_is_not_waited_again(self):
        plant = TwinPlant(mode="realtime")
        config = RunConfig(clock_mode="realtime")
        record = run_episode(plant, SleepingBackend(0.05), config, prev=OFF, index=0)
        assert record.attempts[0].latency >= 0.05
        assert record.t_end - record.t_start < 0.09

    def test_a_call_that_ran_past_the_end_ends_its_episode(self):
        # every call takes 0.08 s and fails validation: the first call that
        # ends past the 0.1 s run ends the episode with the safety action,
        # instead of all six attempts running on to about 0.48 s
        plant = TwinPlant(mode="realtime")
        config = RunConfig(duration=0.1, max_reprompts=5, clock_mode="realtime")
        record = run_episode(plant, SleepingBackend(0.08, wrong=True), config, prev=OFF, index=0)
        assert len(record.attempts) <= 2
        assert not any(a.passed for a in record.attempts)
        assert record.override and record.t_end >= config.duration
        assert record.applied == expected_action(record.t_sensor, OFF, TH)


# Every latency kind up to the largest it accepts: a fixed one, a lognormal
# one with mu + 30 * sigma below log(max float), and replayed calls that
# fail as a parse error or as a backend error after the drawn time.
huge_latencies = st.floats(1.0, sys.float_info.max)
lockstep_latencies = st.one_of(
    st.tuples(st.just("fixed"), huge_latencies),
    st.tuples(st.just("lognormal"), st.floats(0.0, 709.78), st.floats(0.0, 0.5)),
    st.tuples(st.just("replay"), st.lists(st.tuples(st.booleans(), huge_latencies), min_size=1, max_size=3)),
)


def always_wrong(latency):
    """A backend whose every answer fails validation, with ``latency``, a
    draw of :data:`lockstep_latencies`."""
    kind, *spec = latency
    if kind == "replay":
        calls = [
            {"error": "overloaded", "elapsed": seconds} if failed else {"response_text": "ON", "latency": seconds}
            for failed, seconds in spec[0]
        ]
        # enough calls for a 5 s run of one-second attempts and a last episode of 101
        return ReplayBackend(calls * 106)
    if kind == "fixed":
        spec = LatencySpec(kind="fixed", seconds=spec[0])
    else:
        mu, sigma = spec
        assume(mu + 30.0 * sigma < math.log(sys.float_info.max))
        spec = LatencySpec(kind="lognormal", mu=mu, sigma=sigma)
    return ScriptedBackend(ScriptedPolicy(kind="always_wrong"), spec)


@settings(max_examples=60, deadline=None)
@example(latency=("fixed", 1e308), max_reprompts=3)
@example(latency=("lognormal", 709.0, 0.0), max_reprompts=3)
@example(latency=("replay", [(False, 1e308)]), max_reprompts=1)
@given(latency=lockstep_latencies, max_reprompts=st.integers(0, 100))
def test_a_lockstep_clock_stops_short_of_infinity_and_the_log_reads_back(tmp_path_factory, latency, max_reprompts):
    # a wait that would make the clock infinite would log an episode whose
    # t_end no reader takes; the run stops before the plant moves instead
    config = RunConfig(duration=5.0, max_reprompts=max_reprompts)
    path = tmp_path_factory.mktemp("lockstep") / "run.jsonl"
    backend, handed = always_wrong(latency), []
    with RunLogWriter(path, config) as writer:
        def on_episode(record):
            handed.append(record)
            writer.write_episode(record)

        try:
            run_loop(TwinPlant(), backend, config, on_episode=on_episode)
        except InvalidInput as exc:
            assert "would take the lockstep clock to infinity" in str(exc)
    assert read_run_log(path) == (config, handed)


class TestRunLogRoundTrip:
    def run_and_log(self, tmp_path, seed=7):
        plant = make_plant()
        config = RunConfig(duration=200.0)
        path = tmp_path / "run.jsonl"
        with RunLogWriter(path, config) as writer:
            episodes = run_loop(
                plant,
                scripted(kind="flip", latency=5.0, seed=seed),
                config,
                on_episode=writer.write_episode,
            )
        return path, config, episodes

    def test_round_trip_preserves_everything(self, tmp_path):
        path, config, episodes = self.run_and_log(tmp_path)
        parsed_config, parsed_episodes = read_run_log(path)
        assert parsed_config == config
        assert parsed_episodes == episodes

    def test_reserialization_is_a_fixpoint(self, tmp_path):
        path, config, _ = self.run_and_log(tmp_path)
        first = path.read_text()
        parsed_config, parsed_episodes = read_run_log(path)
        out = tmp_path / "again.jsonl"
        with RunLogWriter(out, parsed_config) as writer:
            for episode in parsed_episodes:
                writer.write_episode(episode)
        assert out.read_text() == first

    def test_lockstep_runs_are_byte_identical(self, tmp_path):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        dir_a.mkdir()
        dir_b.mkdir()
        path_a, _, _ = self.run_and_log(dir_a)
        path_b, _, _ = self.run_and_log(dir_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_header_carries_digest(self, tmp_path):
        path, config, _ = self.run_and_log(tmp_path)
        header_line = path.read_text().splitlines()[0]
        import json

        header = json.loads(header_line)
        assert header["kind"] == "header"
        assert header["config_digest"] == config_digest(config)
        assert header["config"]["duration"] == 200.0

    def test_integer_config_values_are_written_as_floats(self, tmp_path):
        paths = [tmp_path / "int.jsonl", tmp_path / "float.jsonl"]
        for path, config in zip(paths, (RunConfig(duration=200), RunConfig(duration=200.0))):
            RunLogWriter(path, config).close()
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert '"duration":200.000,' in paths[0].read_text()
        assert config_digest(RunConfig(duration=200)) == config_digest(RunConfig(duration=200.0))

    def test_timestamps_have_at_least_three_decimals(self, tmp_path):
        import re

        path, _, _ = self.run_and_log(tmp_path)
        for line in path.read_text().splitlines()[1:]:
            for key in ("t_start", "t_end"):
                match = re.search(rf'"{key}":(-?[0-9]+\.[0-9]+)', line)
                assert match, f"{key} missing decimal form in {line[:80]}"
                assert len(match.group(1).split(".")[1]) >= 3

    def test_malformed_log_reports_line_number(self, tmp_path):
        path, _, _ = self.run_and_log(tmp_path)
        lines = path.read_text().splitlines()
        lines[2] = "definitely not json"
        broken = tmp_path / "broken.jsonl"
        broken.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidInput) as excinfo:
            read_run_log(broken)
        assert excinfo.value.line_number == 3

    def test_lines_of_json_whitespace_are_skipped(self, tmp_path):
        path, config, episodes = self.run_and_log(tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        spaced = tmp_path / "spaced.jsonl"
        spaced.write_text(" \t\r\n" + lines[0] + "\n" + "".join(lines[1:3]) + "  \n" + "".join(lines[3:]) + "\t")
        assert read_run_log(spaced) == (config, episodes)

    @pytest.mark.parametrize("index", [0, 2])
    @pytest.mark.parametrize("blank", ["\xa0", "\x0b", "\x0c", "\x1c", "\u2028", "\u3000", " \x85 "])
    def test_a_line_of_other_whitespace_is_an_error(self, tmp_path, blank, index):
        # str.strip() calls these whitespace; JSON does not
        path, _, _ = self.run_and_log(tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        lines.insert(index, blank + "\n")
        broken = tmp_path / "blank.jsonl"
        broken.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(InvalidInput, match="^bad log line: Expecting value") as excinfo:
            read_run_log(broken)
        assert excinfo.value.line_number == index + 1

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ('"t_sensor":', "NaN", "bad log line: NaN is not a finite JSON number"),
            ('"t_sensor":', "Infinity", "bad log line: Infinity is not a finite JSON number"),
            ('"t_start":', "-Infinity", "bad log line: -Infinity is not a finite JSON number"),
            ('"t_sensor":', "1e999", "bad log record: 't_sensor' does not fit a float"),
            ('"latency":', "-1e999", "bad log record: 'attempts.0.latency' does not fit a float"),
            ('"duration":', "1E400", "bad log record: 'config.duration' does not fit a float"),
            ('"margin":', "NaN", "bad log line: NaN is not a finite JSON number"),
        ],
    )
    def test_non_finite_numbers_are_refused(self, tmp_path, field, value, message):
        path, _, _ = self.run_and_log(tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        index = 0 if field in lines[0] else 1
        lines[index] = re.sub(f"{field}[^,}}]+", field + value, lines[index], count=1)
        broken = tmp_path / "non_finite.jsonl"
        broken.write_text("".join(lines))
        with pytest.raises(InvalidInput) as excinfo:
            read_run_log(broken, on_torn_tail=pytest.fail)
        assert (str(excinfo.value), excinfo.value.line_number) == (message, index + 1)

    def test_missing_header_rejected(self, tmp_path):
        path, _, episodes = self.run_and_log(tmp_path)
        headerless = tmp_path / "headerless.jsonl"
        headerless.write_text("\n".join(path.read_text().splitlines()[1:]) + "\n")
        with pytest.raises(InvalidInput):
            read_run_log(headerless)

    @pytest.mark.parametrize("fmt", ["something-else/7", None])
    def test_unknown_log_format_rejected_on_line_1(self, tmp_path, fmt):
        path, _, _ = self.run_and_log(tmp_path)
        header, rest = path.read_text().split("\n", 1)
        other = tmp_path / "other.jsonl"
        header = header.replace('"format":"twinloop-run-log/1"', f'"format":{json.dumps(fmt)}')
        other.write_text(header + "\n" + rest)
        with pytest.raises(InvalidInput, match="unknown log format") as excinfo:
            read_run_log(other)
        assert excinfo.value.line_number == 1

    def test_episode_doc_round_trip(self):
        plant = make_plant(t_sensor=24.0)
        record = run_episode(
            plant, scripted(kind="flip", p_wrong=1.0, p_correct=1.0), RunConfig(), prev=OFF, index=5
        )
        assert loads_record(dumps_record(record), EpisodeRecord) == record


class TestPlantFailureMidRun:
    class FlakyPlant:
        """Delegates to a twin plant, then starts failing after N reads."""

        mode = "lockstep"

        def __init__(self, reads_before_failure):
            self.inner = make_plant()
            self.remaining = reads_before_failure

        @property
        def clock(self):
            return self.inner.clock

        def read_temperature(self):
            from twinloop.errors import PlantIoError

            if self.remaining <= 0:
                raise PlantIoError("sensor link lost")
            self.remaining -= 1
            return self.inner.read_temperature()

        def apply_heater(self, action):
            self.inner.apply_heater(action)

        def advance(self, dt):
            self.inner.advance(dt)

    def test_partial_log_survives_abort(self, tmp_path):
        from twinloop.errors import PlantIoError

        plant = self.FlakyPlant(reads_before_failure=4)
        config = RunConfig(duration=2400.0)
        path = tmp_path / "partial.jsonl"
        writer = RunLogWriter(path, config)
        with pytest.raises(PlantIoError):
            run_loop(plant, scripted(latency=5.0), config, on_episode=writer.write_episode)
        writer.close()
        parsed_config, episodes = read_run_log(path)
        assert parsed_config == config
        assert len(episodes) == 4


class TestRunConfigValidation:
    def test_defaults_validate(self):
        RunConfig()

    def test_bad_duration(self):
        with pytest.raises(InvalidInput):
            RunConfig(duration=0.0)

    def test_duration_beyond_a_week_refused(self):
        # a mistyped duration would run without end and fill the disk
        assert RunConfig(duration=604800.0).duration == 604800.0
        for duration in (604800.5, 1e12, math.inf, math.nan):
            with pytest.raises(InvalidInput, match=r"duration must lie in \(0, 604800\] s"):
                RunConfig(duration=duration)

    def test_bad_clock_mode(self):
        with pytest.raises(InvalidInput):
            RunConfig(clock_mode="sundial")

    def test_a_twin_horizon_of_zero_is_refused(self):
        with pytest.raises(InvalidInput, match="^twin validation horizon must be > 0$"):
            ValidatorMode(kind="twin", horizon=0.0, envelope=(20.0, 30.0))
        # the rule validator ignores its horizon
        ValidatorMode(horizon=0.0)

    def test_bad_envelope(self):
        with pytest.raises(InvalidInput):
            ValidatorMode(kind="twin", horizon=60.0, envelope=(5.0, 5.0))

    @pytest.mark.parametrize("kind", ["rule", "twin"])
    @pytest.mark.parametrize("envelope", [(), (20.0,), (20.0, 30.0, 40.0)])
    def test_envelope_must_be_a_pair(self, kind, envelope):
        # validate_twin unpacks two bounds, and the run log writes each item
        with pytest.raises(InvalidInput, match=r"^envelope must be a pair of bounds, got \("):
            ValidatorMode(kind=kind, horizon=60.0, envelope=envelope)

    def test_twin_envelope_open_on_both_sides_rejected(self):
        with pytest.raises(InvalidInput, match="finite bound"):
            ValidatorMode(kind="twin")
        with pytest.raises(InvalidInput, match="finite bound"):
            run_loop(make_plant(), scripted(), RunConfig(validator=ValidatorMode(kind="twin")))
        # one finite bound is enough, and the rule validator has no envelope
        ValidatorMode(kind="twin", envelope=(-math.inf, 30.0))
        ValidatorMode(kind="twin", envelope=(20.0, math.inf))
        ValidatorMode()

    def test_twin_horizon_bounded_by_duration(self):
        twin_mode = ValidatorMode(kind="twin", horizon=1e12, envelope=(20.0, 30.0))
        with pytest.raises(InvalidInput, match="exceeds the run duration"):
            RunConfig(validator=twin_mode)
        with pytest.raises(InvalidInput, match="exceeds the run duration"):
            run_loop(make_plant(), scripted(), RunConfig(validator=twin_mode))
        RunConfig(duration=300.0, validator=replace(twin_mode, horizon=300.0))
        # the rule validator ignores its horizon
        RunConfig(duration=60.0, validator=ValidatorMode(horizon=1e12))

    def test_negative_reprompts(self):
        with pytest.raises(InvalidInput):
            RunConfig(max_reprompts=-1)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: RunConfig(validator=ValidatorMode(horizon=math.inf)),
            lambda: ValidatorMode(kind="twin", horizon=math.inf, envelope=(20.0, 30.0)),
            lambda: ValidatorMode(envelope=(0.0, -math.inf)),
            lambda: ValidatorMode(envelope=(math.inf, 30.0)),
            lambda: RunConfig(max_reprompts=True),
            lambda: RunConfig(max_reprompts=2.5),
            lambda: RunConfig(sample_period_floor=math.inf),
            lambda: RunConfig(monitor=MonitorMode(margin=math.inf)),
        ],
        ids=[
            "infinite rule horizon", "infinite twin horizon", "upper bound -inf", "lower bound +inf",
            "bool reprompts", "float reprompts", "infinite floor", "infinite margin",
        ],
    )
    def test_a_config_the_run_log_cannot_hold_is_refused(self, build):
        # each would write a log line that reads back as an error, or as another config
        with pytest.raises(InvalidInput):
            build()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: MonitorMode(kind="sometimes"),
            lambda: MonitorMode(margin=-0.1),
            lambda: ValidatorMode(kind="twin", horizon=60.0, envelope=(30.0, 20.0)),
        ],
        ids=["unknown monitor mode", "negative margin", "ill-ordered twin envelope"],
    )
    def test_a_mode_the_loop_does_not_check_again_is_refused(self, build):
        # monitor_trigger and validate_twin take these values as given
        with pytest.raises(InvalidInput):
            build()


# --- the loop written plainly: the whole-run oracle of run_loop ------------------


def reference_loop(plant, backend, config, twin_params, on_episode):
    """``run_loop`` in lockstep, one rule at a time, each comment quoting
    README's statement of it.  A wait that would make the clock infinite
    is left out: the drawn latencies are bounded."""
    th, end, budget = config.thresholds, config.duration, config.max_reprompts + 1
    prev, index = config.initial_action, 0
    plant.apply_heater(prev)

    def wait_ends_run(seconds):
        # "a wait that would reach [run.duration] lasts until the run's end, and the run stops there"
        if plant.clock + seconds < end:
            plant.advance(seconds)
            return False
        if plant.clock < end:
            plant.advance(end - plant.clock)
        return True

    # "No episode starts once the clock has reached `run.duration`."
    while plant.clock < end:
        # "The loop's first sample always starts an episode"; after it, "under `run.monitor` of kind
        # `anomaly`, a reading starts an episode only if it lies more than `margin` outside the band"
        if index and config.monitor.kind == ANOMALY:
            if not monitor_trigger(plant.read_temperature(), th, config.monitor.margin):
                # "one idle poll, `run.sample_period_floor` but at least 1 ms, or 1 s with no floor"
                floor = config.sample_period_floor
                if wait_ends_run(max(floor, MIN_IDLE_TICK) if floor > 0.0 else 1.0):
                    break
                continue
        # "An episode samples the plant once and asks the backend for an action at that reading,
        # at most `run.max_reprompts + 1` times."
        t_sensor, t_start = plant.read_temperature(), plant.clock
        attempts, feedback, applied = [], None, None
        for attempt in range(budget):
            ctx = DecisionContext(t_sensor, prev, th, feedback is not None, plant.clock)
            exchange = response = proposal = verdict = None
            try:
                exchange = backend.complete(*render_prompt(DEFAULT_OPERATOR, t_sensor, prev, th, feedback), ctx)
                latency = exchange.latency
            except BackendError as exc:
                # "A failed backend call ... advances the lockstep clock by the time it took"
                latency, reason, error = exc.elapsed, f"backend error: {exc}", "backend_error"
            # "In lockstep mode the injected latency advances the simulation clock": "while a decision is
            # in flight the previous action stays applied"
            if latency > 0.0:
                plant.advance(latency)
            if exchange is not None:
                response = exchange.response_text
                try:
                    proposal = parse_action(response)
                except ParseError:
                    # "A reply without an `ACTION:` line and a failed backend call each use up an attempt"
                    reason, error = "no ACTION line found", "parse_error"
                else:
                    # "a deterministic validator checks each proposal against a hysteresis control rule
                    # (or a digital-twin rollout)"; "Each rollout starts from the plant's `state`"
                    if config.validator.kind == RULE:
                        verdict = validate_rule(proposal, t_sensor, prev, th)
                    else:
                        horizon, envelope = config.validator.horizon, config.validator.envelope
                        verdict = validate_twin(twin_params, plant.state, proposal, horizon, envelope)
                    reason, error = verdict.reason, None
            passed = verdict is not None and verdict.passed
            expected = verdict.expected if verdict else None
            attempts.append(AttemptRecord(attempt, response, proposal, passed, expected, reason, error, latency))
            # "The first proposal that passes is applied"
            if passed:
                applied = proposal
                break
            # "each but the last is followed by a reprompt whose feedback the reprompter composes from the failure"
            if attempt < budget - 1:
                failure = reason if exchange is None else None
                feedback = compose_feedback(verdict, attempt + 1, budget, t_sensor, prev, proposal, failure)
        # "if none does, the safety action of `run.safe_action_policy` is applied instead ..., and the
        # episode is logged as an override"
        override = applied is None
        if override:
            applied = safety_action(config.safe_action_policy, t_sensor, prev, th)
        plant.apply_heater(applied)
        on_episode(EpisodeRecord(index, t_start, t_sensor, prev, tuple(attempts), applied, override, plant.clock))
        prev, index = applied, index + 1
        # "After each episode it waits until the floor, but at least 1 ms, has passed since the episode's start"
        wait = t_start + max(config.sample_period_floor, MIN_IDLE_TICK) - plant.clock
        if wait > 0.0 and wait_ends_run(wait):
            break


class ReadBudget(Exception):
    """A plant's reading beyond its budget: the run is cut there."""


class BudgetPlant(TwinPlant):
    """A lockstep twin plant that gives ``reads`` readings, then raises
    :class:`ReadBudget`: every episode and every idle poll reads once, so a
    run makes at most ``reads`` of them."""

    def __init__(self, reads, t0):
        super().__init__(initial_state=TwinState(t0, t0, 0.0))
        self.reads = reads

    def read_temperature(self):
        self.reads -= 1
        if self.reads < 0:
            raise ReadBudget
        return super().read_temperature()


class Mangling:
    """``inner``, but each call in ``faults`` raises :class:`BackendError`
    after ``elapsed`` seconds (``"error"``) or answers with no ACTION line
    (``"mumble"``)."""

    def __init__(self, inner, faults, elapsed):
        self.inner, self.faults, self.elapsed, self.calls = inner, faults, elapsed, 0

    def complete(self, system_text, user_text, ctx):
        self.calls += 1
        fault = self.faults.get(self.calls)
        if fault == "error":
            raise BackendError(f"stub outage on call {self.calls}", status=503, elapsed=self.elapsed)
        exchange = self.inner.complete(system_text, user_text, ctx)
        return replace(exchange, response_text="I would rather not say") if fault == "mumble" else exchange


# a latency of each kind: none, fixed below the 1 ms tick, fixed, lognormal
latency_specs = st.one_of(
    st.just(LatencySpec(kind="none")),
    st.builds(LatencySpec, kind=st.just("fixed"), seconds=st.floats(0.0, MIN_IDLE_TICK, exclude_max=True)),
    st.builds(LatencySpec, kind=st.just("fixed"), seconds=st.sampled_from([0.5, 1.0, 2.5, 5.67]) | st.floats(0.0, 10.0)),
    st.builds(LatencySpec, kind=st.just("lognormal"), mu=st.floats(-8.0, 2.0), sigma=st.floats(0.0, 1.0), seed=st.integers(0, 2**32)),
)


@st.composite
def lockstep_runs(draw):
    """A lockstep config of at most a minute and a few reprompts, with the
    rest of :func:`test_jsonio.run_configs`' draw: floor, band, validator,
    monitor, initial action and safety policy."""
    config = draw(run_configs())
    duration = draw(st.sampled_from([0.0105, 1.0, 10.0, 30.0]) | st.floats(MIN_IDLE_TICK, 60.0))
    validator = replace(config.validator, horizon=min(config.validator.horizon, duration))
    config = replace(
        config, duration=duration, clock_mode=LOCKSTEP, validator=validator, max_reprompts=min(config.max_reprompts, 4)
    )
    policy = st.builds(
        ScriptedPolicy, kind=st.sampled_from(["oracle", "flip", "always_wrong"]), p_wrong_first=st.floats(0.0, 1.0),
        p_correct_on_feedback=st.floats(0.0, 1.0), seed=st.integers(0, 2**32),
    )
    faults = st.dictionaries(st.integers(1, 60), st.sampled_from(["error", "mumble"]), max_size=6)
    return config, draw(policy), draw(latency_specs), draw(faults), draw(st.sampled_from([0.0, 0.3, 2.0]))


@settings(max_examples=150, deadline=None)
# an episode that ends at the run's end, and an idle poll with no floor
@example(
    run=(RunConfig(duration=10.0), ScriptedPolicy(), LatencySpec(kind="fixed", seconds=5.0), {}, 0.0), t0=23.0
)
@example(
    run=(
        RunConfig(duration=10.0, monitor=MonitorMode(kind="anomaly", margin=5.0)), ScriptedPolicy(),
        LatencySpec(kind="fixed", seconds=1.0), {}, 0.0,
    ),
    t0=26.0,
)
@given(run=lockstep_runs(), t0=st.sampled_from([18.0, 23.0, 26.0, 29.0, 35.0]))
def test_run_loop_is_the_loop_written_plainly(run, t0):
    config, policy, latency, faults, elapsed = run
    outcomes = []
    for loop in (run_loop, reference_loop):
        plant, records = BudgetPlant(40, t0), []
        backend = Mangling(ScriptedBackend(policy, latency), faults, elapsed)
        try:
            loop(plant, backend, config, twin_params=TwinParams(), on_episode=records.append)
        except ReadBudget:
            pass
        outcomes.append((records, [dumps_record(r) for r in records], plant.clock, plant.state))
    assert outcomes[0] == outcomes[1]
