"""Control loop tests: episode anatomy, reprompting, safety override, gating,
clock accounting, and run-log round trips."""

import math
from dataclasses import replace

import pytest

from twinloop.agents import Thresholds, expected_action
from twinloop.backends import Exchange, LatencySpec, ScriptedBackend, ScriptedPolicy
from twinloop.errors import BackendError, InvalidInput, InvalidState, LogFormatError
from twinloop.jsonio import dumps_record, loads_record
from twinloop.orchestrator import (
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
from twinloop.plantio import HeaterAction, TwinPlant
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
        assert plant.read_temperature().t_sensor > 26.0

    def test_backend_error_counts_as_failed_attempt(self):
        plant = make_plant(t_sensor=28.0, t_heater=40.0)
        backend = FailingBackend(1, scripted())
        record = run_episode(plant, backend, RunConfig(), prev=ON, index=0)
        assert record.attempts[0].error == "backend_error"
        assert not record.attempts[0].passed
        assert record.attempts[1].passed
        assert record.applied is OFF
        assert not record.override

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
            ScriptedPolicy(kind="oracle"),
            LatencySpec(kind="fixed", seconds=0.02),
            sleep_latency=True,
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

            def read_temperature(self):
                raise AssertionError("should fail before sampling")

            def apply_heater(self, action):
                pass

        config = RunConfig(validator=ValidatorMode(kind="twin", horizon=60.0, envelope=(0.0, 50.0)))
        with pytest.raises(InvalidState):
            run_loop(BarePlant(), scripted(), config)


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
        with pytest.raises(LogFormatError) as excinfo:
            read_run_log(broken)
        assert excinfo.value.line_number == 3

    def test_missing_header_rejected(self, tmp_path):
        path, _, episodes = self.run_and_log(tmp_path)
        headerless = tmp_path / "headerless.jsonl"
        headerless.write_text("\n".join(path.read_text().splitlines()[1:]) + "\n")
        with pytest.raises(LogFormatError):
            read_run_log(headerless)

    def test_episode_doc_round_trip(self):
        plant = make_plant(t_sensor=24.0)
        record = run_episode(
            plant, scripted(kind="flip", p_wrong=1.0, p_correct=1.0), RunConfig(), prev=OFF, index=5
        )
        assert loads_record(dumps_record(record), EpisodeRecord) == record


class TestPlantFailureMidRun:
    class FlakyPlant:
        """Delegates to a twin plant, then starts failing after N reads."""

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
        RunConfig().validate()

    def test_bad_duration(self):
        with pytest.raises(InvalidInput):
            RunConfig(duration=0.0).validate()

    def test_bad_clock_mode(self):
        with pytest.raises(InvalidInput):
            RunConfig(clock_mode="sundial").validate()

    def test_bad_envelope(self):
        with pytest.raises(InvalidInput):
            ValidatorMode(kind="twin", horizon=60.0, envelope=(5.0, 5.0)).validate()

    def test_twin_envelope_open_on_both_sides_rejected(self):
        with pytest.raises(InvalidInput, match="finite bound"):
            ValidatorMode(kind="twin").validate()
        with pytest.raises(InvalidInput, match="finite bound"):
            run_loop(make_plant(), scripted(), RunConfig(validator=ValidatorMode(kind="twin")))
        # one finite bound is enough, and the rule validator has no envelope
        ValidatorMode(kind="twin", envelope=(-math.inf, 30.0)).validate()
        ValidatorMode(kind="twin", envelope=(20.0, math.inf)).validate()
        ValidatorMode().validate()

    def test_twin_horizon_bounded_by_duration(self):
        twin_mode = ValidatorMode(kind="twin", horizon=1e12, envelope=(20.0, 30.0))
        with pytest.raises(InvalidInput, match="exceeds the run duration"):
            RunConfig(validator=twin_mode).validate()
        with pytest.raises(InvalidInput, match="exceeds the run duration"):
            run_loop(make_plant(), scripted(), RunConfig(validator=twin_mode))
        RunConfig(duration=300.0, validator=replace(twin_mode, horizon=300.0)).validate()
        # the rule validator ignores its horizon
        RunConfig(duration=60.0, validator=ValidatorMode(horizon=1e12)).validate()

    def test_negative_reprompts(self):
        with pytest.raises(InvalidInput):
            RunConfig(max_reprompts=-1).validate()
