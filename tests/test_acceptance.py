"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line and enforcing its runtime budget.

Everything runs with scripted backends and the lockstep twin; no network
access is needed.
"""

import socket
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from twinloop.agents import Thresholds, expected_action
from twinloop.backends import LatencySpec, ScriptedBackend, ScriptedPolicy
from twinloop.cli import main
from twinloop.metrics import accuracy_metrics, control_metrics
from twinloop.orchestrator import AttemptRecord, EpisodeRecord, RunConfig, read_run_log, run_loop
from twinloop.plantio import HeaterAction, TwinPlant
from twinloop.tcp import PlantServer
from twinloop.twin import TwinParams, TwinState, rollout, steady_state, step

TH = Thresholds()
ON = HeaterAction.ON
OFF = HeaterAction.OFF
PARAMS = TwinParams()
CASE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "case_study.json"


@contextmanager
def criterion(number, name, budget_s):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    elapsed = time.monotonic() - start
    if elapsed >= budget_s:
        print(f"ACCEPTANCE {number} ({name}): FAIL (runtime {elapsed:.2f}s over budget {budget_s}s)")
        pytest.fail(f"criterion {number} exceeded its {budget_s}s runtime budget: {elapsed:.2f}s")
    print(f"ACCEPTANCE {number} ({name}): PASS ({elapsed:.2f}s)")


def flip_backend(seed, latency=5.67, p_wrong=0.40, p_correct=0.63):
    return ScriptedBackend(
        ScriptedPolicy(kind="flip", p_wrong_first=p_wrong, p_correct_on_feedback=p_correct, seed=seed),
        LatencySpec(kind="fixed", seconds=latency),
    )


def oracle_backend(latency):
    return ScriptedBackend(
        ScriptedPolicy(kind="oracle"), LatencySpec(kind="fixed", seconds=latency)
    )


def synthetic_attempt(index, passed):
    return AttemptRecord(index, "ACTION: OFF", OFF, passed, OFF, "synthetic", None, 1.0)


def synthetic_log(samples, passes, pass_after_reprompts):
    episodes = []
    for i in range(samples):
        if i < passes:
            attempts = (synthetic_attempt(0, True),)
        elif i < passes + pass_after_reprompts:
            attempts = (synthetic_attempt(0, False), synthetic_attempt(1, True))
        else:
            attempts = tuple(synthetic_attempt(j, False) for j in range(4))
        episodes.append(
            EpisodeRecord(i, float(i), 26.0, OFF, attempts, OFF, all(not a.passed for a in attempts), float(i) + 1.0)
        )
    return episodes


def test_criterion_1_metric_reproduction():
    with criterion(1, "metric reproduction", 1.0):
        m = accuracy_metrics(synthetic_log(423, 254, 107))
        assert m.accuracy_first_pass == pytest.approx(60.05, abs=0.02)
        assert m.accuracy_with_reprompts == pytest.approx(85.34, abs=0.02)

        m = accuracy_metrics(synthetic_log(554, 552, 1))
        assert m.accuracy_first_pass == pytest.approx(99.64, abs=0.02)
        assert m.accuracy_with_reprompts == pytest.approx(99.82, abs=0.02)

        m = accuracy_metrics(synthetic_log(128, 120, 3))
        assert m.accuracy_first_pass == 93.75
        assert m.accuracy_with_reprompts == 96.09


def test_criterion_2_reprompting_gain():
    with criterion(2, "reprompting gain", 30.0):
        seeds = range(25)
        first_pass = {1: [], 3: []}
        with_reprompts = {1: [], 3: []}
        for max_reprompts in (3, 1):
            config = RunConfig(duration=2400.0, max_reprompts=max_reprompts)
            for seed in seeds:
                plant = TwinPlant(PARAMS)
                episodes = run_loop(plant, flip_backend(seed), config)
                m = accuracy_metrics(episodes)
                first_pass[max_reprompts].append(m.accuracy_first_pass)
                with_reprompts[max_reprompts].append(m.accuracy_with_reprompts)

        mean_first = sum(first_pass[3] + first_pass[1]) / (2 * len(list(seeds)))
        assert mean_first == pytest.approx(60.0, abs=5.0)

        # single-reprompt regime: 1 - p*(1-q) = 85.2%
        mean_with_1 = sum(with_reprompts[1]) / len(with_reprompts[1])
        assert mean_with_1 == pytest.approx(85.2, abs=5.0)

        # three-reprompt regime: 1 - p*(1-q)^3 = 98.0%
        mean_with_3 = sum(with_reprompts[3]) / len(with_reprompts[3])
        assert mean_with_3 == pytest.approx(98.0, abs=5.0)


def test_criterion_3_oracle_closed_loop():
    with criterion(3, "oracle closed loop", 5.0):
        config = RunConfig(duration=2400.0)
        plant = TwinPlant(PARAMS)
        episodes = run_loop(plant, oracle_backend(5.0), config)

        accuracy = accuracy_metrics(episodes)
        assert accuracy.accuracy_first_pass == 100.00
        assert accuracy.overrides == 0

        applied = [e.applied for e in episodes]
        on_to_off = sum(1 for a, b in zip(applied, applied[1:]) if a is ON and b is OFF)
        off_to_on = sum(1 for a, b in zip(applied, applied[1:]) if a is OFF and b is ON)
        assert on_to_off >= 2 and off_to_on >= 2, "trajectory must complete >= 2 full cycles"

        control = control_metrics(episodes, TH, config.duration)
        assert control.time_outside > 0.0
        assert control.time_outside == control.time_above + control.time_below


def test_criterion_4_latency_degradation():
    with criterion(4, "latency degradation", 30.0):
        seeds = range(10)
        means = []
        for latency in (1.0, 10.0, 30.0):
            deviations = []
            for seed in seeds:
                plant = TwinPlant(PARAMS)
                backend = ScriptedBackend(
                    ScriptedPolicy(kind="oracle", seed=seed),
                    LatencySpec(kind="fixed", seconds=latency),
                )
                episodes = run_loop(plant, backend, RunConfig(duration=2400.0))
                deviations.append(control_metrics(episodes, TH, 2400.0).avg_deviation)
            means.append(sum(deviations) / len(deviations))
        assert means[0] <= means[1] <= means[2], f"deviation not monotone: {means}"
        assert means[0] < means[2], f"longer inference must degrade control: {means}"


def test_criterion_5_safety_guarantee():
    with criterion(5, "safety guarantee", 5.0):
        config = RunConfig(duration=2400.0, max_reprompts=3)
        plant = TwinPlant(PARAMS)
        backend = ScriptedBackend(
            ScriptedPolicy(kind="always_wrong"), LatencySpec(kind="fixed", seconds=5.0)
        )
        episodes = run_loop(plant, backend, config)
        assert len(episodes) > 0
        for episode in episodes:
            assert len(episode.attempts) == 4
            assert episode.override
            if episode.t_sensor < TH.low or episode.t_sensor > TH.high:
                assert episode.applied is expected_action(episode.t_sensor, episode.prev_action, TH)


def test_criterion_6_twin_numerics():
    with criterion(6, "twin numerics", 5.0):
        # the exact twin against a fine-step explicit Euler oracle over piecewise duty
        def euler(th, ts, duty, horizon, dt=0.001):
            q = PARAMS.alpha * duty
            for _ in range(int(round(horizon / dt))):
                dh = (q + PARAMS.u_ha * (PARAMS.t_amb - th) + PARAMS.u_hs * (ts - th)) / PARAMS.c_h
                ds = (PARAMS.u_hs * (th - ts) + PARAMS.u_sa * (PARAMS.t_amb - ts)) / PARAMS.c_s
                th += dt * dh
                ts += dt * ds
            return th, ts

        for segments in (
            [(100.0, 600.0)],
            [(100.0, 150.0), (0.0, 200.0), (60.0, 250.0)],
        ):
            state = TwinState(23.0, 23.0, 0.0)
            th, ts = 23.0, 23.0
            for duty, seconds in segments:
                state = step(PARAMS, state, duty, seconds)
                th, ts = euler(th, ts, duty, seconds)
            assert abs(state.t_sensor - ts) <= 1e-3

        # steady-state fixed point residual
        for duty in (0.0, 30.0, 100.0):
            th, ts = steady_state(PARAMS, duty)
            out = step(PARAMS, TwinState(th, ts, 0.0), duty, 60.0)
            assert abs(out.t_heater - th) <= 1e-9
            assert abs(out.t_sensor - ts) <= 1e-9

        # turn-off overshoot from a hot heater node
        peak = max(ts for _, ts in rollout(PARAMS, TwinState(43.0, 27.0, 0.0), 0.0, 600.0))
        assert peak > 27.0


def test_criterion_7_determinism(tmp_path, capsys):
    with criterion(7, "determinism", 10.0):
        logs = []
        for name in ("one.jsonl", "two.jsonl"):
            path = tmp_path / name
            code = main([
                "run", "--config", str(CASE_CONFIG), "--backend", "scripted:flip",
                "--duration", "300", "--seed", "7", "--out", str(path),
            ])
            assert code == 0
            logs.append(path.read_bytes())
        assert logs[0] == logs[1], "seeded lockstep runs must be byte-identical"

        transcript = tmp_path / "transcript.jsonl"
        recorded_log = tmp_path / "recorded.jsonl"
        replayed_log = tmp_path / "replayed.jsonl"
        assert main([
            "run", "--config", str(CASE_CONFIG), "--backend", "scripted:flip",
            "--duration", "300", "--seed", "7", "--out", str(recorded_log),
            "--record", str(transcript),
        ]) == 0
        assert main([
            "run", "--config", str(CASE_CONFIG), "--backend", f"replay:{transcript}",
            "--duration", "300", "--out", str(replayed_log),
        ]) == 0
        _, recorded_episodes = read_run_log(recorded_log)
        _, replayed_episodes = read_run_log(replayed_log)
        assert recorded_episodes == replayed_episodes
        capsys.readouterr()


GOLDEN_SESSION = [
    ("VER", "AGENTIC-TWIN 1.0"),
    ("T1", "23.00"),
    ("Q1 150", "100.00"),
    ("X_ADV 5.0", "OK"),
    ("T1", "23.02"),
    ("Q1 abc", "ERR"),
    ("NOISE 42", "ERR"),
    ("q1 0", "0.00"),
    ("x_adv 600", "OK"),
    ("t1", "23.01"),
    ("X_ADV -1", "ERR"),
    ("T1 extra", "ERR"),
    ("Q1 60", "60.00"),
    ("X_ADV 120", "OK"),
    ("T1", "25.44"),
]


def test_criterion_8_protocol_conformance():
    with criterion(8, "protocol conformance", 2.0):
        server = PlantServer(("127.0.0.1", 0), TwinPlant(PARAMS, mode="lockstep"))
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        thread.start()
        try:
            with socket.create_connection(server.server_address, timeout=5.0) as sock:
                with sock.makefile("rb") as fh:
                    received = b""
                    for command, _ in GOLDEN_SESSION:
                        sock.sendall(command.encode() + b"\n")
                        received += fh.readline()
        finally:
            server.shutdown()
            server.server_close()
        golden = b"".join(reply.encode() + b"\n" for _, reply in GOLDEN_SESSION)
        assert received == golden
