"""Thermal twin tests: frozen fixed points, independent Euler and RK4
oracles, the exact propagator's structural properties, and the envelope
search against a scan of the rollout."""

import hashlib
import json
import math
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from twinloop import twin
from twinloop.backends import LatencySpec, ScriptedBackend, ScriptedPolicy
from twinloop.cli import main
from twinloop.errors import InvalidInput
from twinloop.orchestrator import RunConfig, RunLogWriter, ValidatorMode, read_run_log, run_loop
from twinloop.plantio import TwinPlant
from twinloop.twin import TwinParams, TwinState, first_exit, rollout, steady_state, step

PARAMS = TwinParams()
CASE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "case_study.json"

# Frozen analytic fixed points for the default parameters: the sensor gains
# 0.1 degC and the heater 0.2 degC per percent duty above 23 degC ambient.
SS_DUTY_0 = (23.0, 23.0)
SS_DUTY_50 = (33.0, 28.0)
SS_DUTY_100 = (43.0, 33.0)


def euler_oracle(state, duty, horizon, dt=0.001, params=PARAMS):
    """Independent explicit-Euler integration of the same ODE pair."""
    th, ts = state.t_heater, state.t_sensor
    q = params.alpha * duty
    n = int(round(horizon / dt))
    for _ in range(n):
        dh = (q + params.u_ha * (params.t_amb - th) + params.u_hs * (ts - th)) / params.c_h
        ds = (params.u_hs * (th - ts) + params.u_sa * (params.t_amb - ts)) / params.c_s
        th += dt * dh
        ts += dt * ds
    return th, ts


def rk4_oracle(params, th, ts, duty, dt, h=0.1):
    """Classical fixed-step RK4 of the ODE pair at step h; a final partial
    substep absorbs any remainder."""
    q = params.alpha * duty
    t_amb = params.t_amb
    inv_ch = 1.0 / params.c_h
    inv_cs = 1.0 / params.c_s
    u_ha, u_hs, u_sa = params.u_ha, params.u_hs, params.u_sa
    n = int(dt / h)
    rem = dt - n * h
    for i in range(n + 1):
        if i == n:
            if rem <= 1e-12:
                break
            h = rem
        half = 0.5 * h
        k1h = (q + u_ha * (t_amb - th) + u_hs * (ts - th)) * inv_ch
        k1s = (u_hs * (th - ts) + u_sa * (t_amb - ts)) * inv_cs
        ah = th + half * k1h
        as_ = ts + half * k1s
        k2h = (q + u_ha * (t_amb - ah) + u_hs * (as_ - ah)) * inv_ch
        k2s = (u_hs * (ah - as_) + u_sa * (t_amb - as_)) * inv_cs
        ah = th + half * k2h
        as_ = ts + half * k2s
        k3h = (q + u_ha * (t_amb - ah) + u_hs * (as_ - ah)) * inv_ch
        k3s = (u_hs * (ah - as_) + u_sa * (t_amb - as_)) * inv_cs
        ah = th + h * k3h
        as_ = ts + h * k3s
        k4h = (q + u_ha * (t_amb - ah) + u_hs * (as_ - ah)) * inv_ch
        k4s = (u_hs * (ah - as_) + u_sa * (t_amb - as_)) * inv_cs
        sixth = h / 6.0
        th += sixth * (k1h + 2.0 * (k2h + k3h) + k4h)
        ts += sixth * (k1s + 2.0 * (k2s + k3s) + k4s)
    return th, ts


def rk4_step(params, state, duty, dt):
    """``step`` with its argument checks, integrated by ``rk4_oracle``."""
    twin._check_step_args(state, duty, dt)
    th, ts = rk4_oracle(params, state.t_heater, state.t_sensor, duty, dt)
    return TwinState(th, ts, state.clock + dt)


def stepwise_rollout(params, state, duty, horizon, step=step):
    """Rollout oracle: one ``step`` per sample on the grid ``rollout``
    documents."""
    end = state.clock + horizon
    sample_times = []
    t = math.floor(state.clock) + 1.0
    while t < end - 1e-9:
        if t > state.clock:
            sample_times.append(t)
        t += 1.0
    sample_times.append(end)
    trajectory = [(state.clock, state.t_sensor)]
    current = state
    for target in sample_times:
        current = step(params, current, duty, target - current.clock)
        trajectory.append((target, current.t_sensor))
    return trajectory


def rk4_rollout(params, state, duty, horizon):
    return stepwise_rollout(params, state, duty, horizon, step=rk4_step)


def scan_exit(trajectory, lo, hi):
    """The first sample of ``trajectory`` outside ``[lo, hi]``, or None."""
    return next((s for s in trajectory if not lo <= s[1] <= hi), None)


def rk4_first_exit(params, state, duty, horizon, lo, hi):
    return scan_exit(rk4_rollout(params, state, duty, horizon), lo, hi)


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@st.composite
def twin_params(draw):
    """Parameter sets that construct: capacities and conductances
    spread over two orders of magnitude each, so the two nodes' time
    constants can differ by far more than the defaults' factor of three.
    The heater's full-duty steady state stays at or below 200 degC, so an
    absolute tolerance in degC means the same for every draw."""
    c_h, c_s = draw(log_uniform(1.0, 200.0)), draw(log_uniform(1.0, 200.0))
    u_ha, u_hs, u_sa = (draw(log_uniform(0.005, 0.5)) for _ in range(3))
    t_amb = draw(st.floats(0.0, 30.0))
    # alpha from the full-duty sensor rise, which TwinParams needs above 27 degC
    rise = draw(st.floats(max(1.0, 28.0 - t_amb), 60.0))
    det = u_ha * u_hs + u_ha * u_sa + u_hs * u_sa
    params = TwinParams(t_amb, rise * det / (100.0 * u_hs), c_h, c_s, u_ha, u_hs, u_sa)
    assume(steady_state(params, 100.0)[0] <= 200.0)
    return params


@st.composite
def rollout_cases(draw):
    """Start clocks below and above 1 s, whole or fractional; ends on an
    integer second or between two; horizons under and over 1 s."""
    clock = draw(
        st.one_of(
            st.floats(0.0, 1.0, exclude_max=True),
            st.floats(1.0, 5000.0),
            st.integers(0, 5000).map(float),
        )
    )
    if draw(st.booleans()):
        # end on an integer second, possibly the first one after the start
        horizon = math.floor(clock) + 1 + draw(st.integers(0, 400)) - clock
    else:
        horizon = draw(st.one_of(st.floats(0.01, 1.0), st.floats(1.0, 400.0)))
    state = TwinState(draw(st.floats(15.0, 60.0)), draw(st.floats(15.0, 45.0)), clock)
    params = draw(st.one_of(st.just(PARAMS), twin_params()))
    return params, state, draw(st.floats(0.0, 100.0)), horizon


class TestSteadyState:
    def test_ambient_fixed_point_at_zero_duty(self):
        assert steady_state(PARAMS, 0.0) == pytest.approx(SS_DUTY_0, abs=1e-12)

    def test_full_duty(self):
        assert steady_state(PARAMS, 100.0) == pytest.approx(SS_DUTY_100, abs=1e-9)

    def test_half_duty_is_linear_in_duty(self):
        assert steady_state(PARAMS, 50.0) == pytest.approx(SS_DUTY_50, abs=1e-9)

    def test_degenerate_conductances_rejected(self):
        # positive and finite, but their determinant overflows; construction
        # asks steady_state for the full-duty sensor temperature
        with pytest.raises(InvalidInput, match="no unique steady state"):
            TwinParams(u_ha=1e200, u_hs=1e200, u_sa=1e200)

    def test_duty_out_of_range(self):
        with pytest.raises(InvalidInput):
            steady_state(PARAMS, 120.0)


class TestStep:
    def test_equilibrium_holds_at_ambient(self):
        out = step(PARAMS, TwinState(23.0, 23.0, 0.0), 0.0, 60.0)
        assert out.t_heater == pytest.approx(23.0, abs=1e-12)
        assert out.t_sensor == pytest.approx(23.0, abs=1e-12)
        assert out.clock == 60.0

    def test_clock_advances_by_exactly_dt(self):
        out = step(PARAMS, TwinState(24.0, 24.0, 7.25), 30.0, 0.37)
        assert out.clock == 7.25 + 0.37

    def test_post_turnoff_sensor_keeps_rising(self):
        # Hot heater node at 43 degC still feeds the sensor: the initial
        # sensor slope is (0.1*16 - 0.1*4)/20 = +0.06 degC/s.
        state = TwinState(43.0, 27.0, 0.0)
        previous = state.t_sensor
        for _ in range(100):
            state = step(PARAMS, state, 0.0, 0.1)
            assert state.t_sensor > previous
            previous = state.t_sensor
        first = step(PARAMS, TwinState(43.0, 27.0, 0.0), 0.0, 0.001)
        assert (first.t_sensor - 27.0) / 0.001 == pytest.approx(0.06, rel=1e-3)

    def test_long_heat_soak_reaches_steady_state(self):
        out = step(PARAMS, TwinState(23.0, 23.0, 0.0), 100.0, 3600.0)
        assert out.t_sensor == pytest.approx(SS_DUTY_100[1], abs=0.05)

    def test_deterministic_bit_for_bit(self):
        a = step(PARAMS, TwinState(25.3, 24.1, 0.0), 73.5, 12.34)
        b = step(PARAMS, TwinState(25.3, 24.1, 0.0), 73.5, 12.34)
        assert (a.t_heater, a.t_sensor, a.clock) == (b.t_heater, b.t_sensor, b.clock)

    def test_duty_out_of_range(self):
        with pytest.raises(InvalidInput):
            step(PARAMS, TwinState(23.0, 23.0, 0.0), -1.0, 1.0)
        with pytest.raises(InvalidInput):
            step(PARAMS, TwinState(23.0, 23.0, 0.0), 100.5, 1.0)

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(InvalidInput):
            step(PARAMS, TwinState(23.0, 23.0, 0.0), 0.0, 0.0)

    def test_non_finite_state_rejected(self):
        with pytest.raises(InvalidInput):
            step(PARAMS, TwinState(math.nan, 23.0, 0.0), 0.0, 1.0)
        with pytest.raises(InvalidInput):
            step(PARAMS, TwinState(23.0, math.inf, 0.0), 0.0, 1.0)


class TestRollout:
    def test_ambient_rollout_sample_count_and_values(self):
        trajectory = rollout(PARAMS, TwinState(23.0, 23.0, 0.0), 0.0, 5.0)
        assert len(trajectory) == 6
        assert trajectory[0] == (0.0, 23.0)
        assert [t for t, _ in trajectory] == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        assert all(ts == pytest.approx(23.0, abs=1e-12) for _, ts in trajectory)

    def test_endpoint_matches_step(self):
        state = TwinState(26.0, 24.5, 3.0)
        trajectory = rollout(PARAMS, state, 80.0, 41.7)
        end_clock, end_sensor = trajectory[-1]
        direct = step(PARAMS, state, 80.0, 41.7)
        assert end_clock == pytest.approx(direct.clock, abs=1e-9)
        assert end_sensor == pytest.approx(direct.t_sensor, abs=1e-9)

    def test_cold_start_heating_is_monotone(self):
        trajectory = rollout(PARAMS, TwinState(23.0, 23.0, 0.0), 100.0, 600.0)
        temps = [ts for _, ts in trajectory]
        assert all(b >= a for a, b in zip(temps, temps[1:]))

    def test_fractional_start_clock(self):
        trajectory = rollout(PARAMS, TwinState(23.0, 23.0, 0.25), 100.0, 2.0)
        assert [t for t, _ in trajectory] == [0.25, 1.0, 2.0, 2.25]

    def test_no_whole_second_within_1e9_of_the_end(self):
        trajectory = rollout(PARAMS, TwinState(23.0, 23.0, 0.0), 100.0, 3.0 + 5e-10)
        assert [t for t, _ in trajectory] == [0.0, 1.0, 2.0, 3.0 + 5e-10]

    def test_bad_horizon(self):
        with pytest.raises(InvalidInput):
            rollout(PARAMS, TwinState(23.0, 23.0, 0.0), 0.0, 0.0)

    @staticmethod
    def check_against_oracle(params, state, duty, horizon):
        fast = rollout(params, state, duty, horizon)
        slow = stepwise_rollout(params, state, duty, horizon)
        assert fast[0] == (state.clock, state.t_sensor)
        assert [t for t, _ in fast] == [t for t, _ in slow]
        assert max(abs(a - b) for (_, a), (_, b) in zip(fast, slow)) <= 1e-9
        return fast

    @given(case=rollout_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_one_step_per_sample(self, case):
        self.check_against_oracle(*case)

    def test_maps_follow_params_and_duty(self):
        # interleave parameter sets and duties so a map cached for one
        # (params, duty) pair would show up in another pair's rollout
        other = TwinParams(alpha=0.03, c_s=15.0)
        state = TwinState(30.0, 26.0, 0.0)
        seen = set()
        for params in (PARAMS, other, PARAMS, other):
            for duty in (100.0, 0.0):
                fast = self.check_against_oracle(params, state, duty, 120.0)
                seen.add(round(fast[-1][1], 6))
        assert len(seen) == 4


@st.composite
def exit_cases(draw, cases=rollout_cases()):
    """A rollout case with an envelope: closed or open on one side, its
    bounds drawn from the rollout's own sample values or at random."""
    params, state, duty, horizon = draw(cases)
    values = [ts for _, ts in rollout(params, state, duty, horizon)]
    bound = st.one_of(st.sampled_from(values), st.floats(10.0, 60.0))
    a = draw(bound)
    side = draw(st.sampled_from(["upper", "lower", "both"]))
    if side == "upper":
        return params, state, duty, horizon, -math.inf, a
    if side == "lower":
        return params, state, duty, horizon, a, math.inf
    b = draw(bound)
    assume(a != b)
    return params, state, duty, horizon, min(a, b), max(a, b)


class ExpCounter:
    """Stands in for the ``math`` module and counts ``exp`` calls."""

    def __init__(self):
        self.exp_calls = 0

    def exp(self, x):
        self.exp_calls += 1
        return math.exp(x)

    def __getattr__(self, name):
        return getattr(math, name)


# Right after switching off, the hot heater keeps raising the sensor, which
# peaks 32 s in and then decays to ambient.
OVERSHOOT = TwinState(43.0, 27.0, 0.0)


class TestFirstExit:
    @given(case=exit_cases())
    @settings(max_examples=300, deadline=None)
    def test_equals_a_scan_of_the_rollout(self, case):
        params, state, duty, horizon, lo, hi = case
        assert first_exit(params, state, duty, horizon, lo, hi) == scan_exit(
            rollout(params, state, duty, horizon), lo, hi
        )

    @pytest.mark.parametrize("clock", [0.0, 0.4, 0.9, 12.0])
    @pytest.mark.parametrize("horizon", [0.5, 60.0, 300.0])
    def test_every_sample_as_a_bound_past_the_turning_point(self, clock, horizon):
        state = TwinState(OVERSHOOT.t_heater, OVERSHOOT.t_sensor, clock)
        trajectory = rollout(PARAMS, state, 0.0, horizon)
        values = [ts for _, ts in trajectory]
        if horizon >= 60.0:
            assert values[0] < max(values) > values[-1]
        for v in values:
            for lo, hi in ((-math.inf, v), (v, math.inf), (v - 3.0, v), (v, v + 3.0)):
                assert first_exit(PARAMS, state, 0.0, horizon, lo, hi) == scan_exit(trajectory, lo, hi)

    @given(
        case=exit_cases(
            st.tuples(
                st.one_of(st.just(PARAMS), twin_params()),
                st.builds(TwinState, st.floats(15.0, 60.0), st.floats(15.0, 45.0), st.floats(0.0, 5000.0)),
                st.floats(0.0, 100.0),
                st.just(3600.0),
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_a_long_horizon_costs_few_exp_calls(self, case):
        params, state, duty, horizon, lo, hi = case
        expected = scan_exit(rollout(params, state, duty, horizon), lo, hi)
        counter = ExpCounter()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(twin, "math", counter)
            assert first_exit(params, state, duty, horizon, lo, hi) == expected
        # A 3600 s horizon from any clock has at most 3602 samples.  A check
        # reads the ends of the two monotone pieces, four samples, and a
        # failing one then bisects a piece of at most 3601 gaps in at most
        # ceil(log2(3602)) = 12 probes.  Every sample costs two exp calls.
        probes = 4 if expected is None else 4 + math.ceil(math.log2(3602))
        assert counter.exp_calls <= 2 * probes

    def test_bad_horizon(self):
        with pytest.raises(InvalidInput):
            first_exit(PARAMS, OVERSHOOT, 0.0, 0.0, 20.0, 30.0)


@pytest.mark.parametrize("duty, dt", [(0.0, 1.0), (100.0, 0.25), (37.5, 3600.0)])
def test_a_step_costs_two_exp_calls(monkeypatch, duty, dt):
    expected = step(PARAMS, OVERSHOOT, duty, dt)
    counter = ExpCounter()
    monkeypatch.setattr(twin, "math", counter)
    assert step(PARAMS, OVERSHOOT, duty, dt) == expected
    assert counter.exp_calls == 2


# sha256 of the logs twin_guard_run and lower_guard_run write;
# test_logs_match_under_rk4 checks that RK4 takes the same decisions on them
TWIN_GUARD_LOG_SHA256 = "e659dcdad25cae4bd1e4484ccc54d4412b87a9a2a5a5160352bcadff2f6d39b4"
LOWER_GUARD_LOG_SHA256 = "61b2e664877c3ad5522ab44bb4e565c43b5ad7d87276cb2cb3127c49f25db571"


def twin_guard_run(path, envelope=(20.0, 30.0), seed=7):
    """600 s under the twin validator (300 s horizon, envelope [20, 30])."""
    config = RunConfig(
        duration=600.0,
        validator=ValidatorMode(kind="twin", horizon=300.0, envelope=envelope),
    )
    backend = ScriptedBackend(
        ScriptedPolicy(kind="flip", p_wrong_first=0.4, p_correct_on_feedback=0.63, seed=seed),
        LatencySpec(kind="fixed", seconds=5.67),
    )
    with RunLogWriter(path, config) as writer:
        return run_loop(TwinPlant(PARAMS), backend, config, on_episode=writer.write_episode)


def lower_guard_run(path):
    """twin_guard_run against the lower bound alone: envelope (24, inf),
    seed 11.  Its rejections exit below 24 degC, some of them only after the
    rollout's turning point."""
    return twin_guard_run(path, envelope=(24.0, math.inf), seed=11)


def case_study_run(path):
    """The case study with the flip policy, seed 7."""
    args = ["run", "--config", str(CASE_CONFIG), "--backend", "scripted:flip", "--seed", "7"]
    assert main([*args, "--out", str(path)]) == 0
    return read_run_log(path)[1]


def assert_run_log_pinned(run, digest, path):
    episodes = run(path)
    # the twin rejects proposals, so the log carries rollout temperatures
    assert any(not a.passed for e in episodes for a in e.attempts)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_twin_validator_run_log_is_pinned(tmp_path):
    assert_run_log_pinned(twin_guard_run, TWIN_GUARD_LOG_SHA256, tmp_path / "run.jsonl")


def test_lower_bound_twin_validator_run_log_is_pinned(tmp_path):
    assert_run_log_pinned(lower_guard_run, LOWER_GUARD_LOG_SHA256, tmp_path / "run.jsonl")


@pytest.mark.parametrize("run", [case_study_run, twin_guard_run])
def test_a_log_header_config_as_the_run_section_reproduces_the_log(tmp_path, run):
    # both pinned runs use the case study's twin, operator and backend, with
    # the flip policy at seed 7
    run(tmp_path / "first.jsonl")
    first = (tmp_path / "first.jsonl").read_bytes()
    doc = json.loads(CASE_CONFIG.read_text(encoding="utf-8"))
    doc["run"] = json.loads(first.splitlines()[0])["config"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    args = ["run", "--config", str(config), "--backend", "scripted:flip", "--seed", "7"]
    assert main([*args, "--out", str(tmp_path / "again.jsonl")]) == 0
    assert (tmp_path / "again.jsonl").read_bytes() == first


class TestAgainstRk4Oracle:
    @given(
        params=twin_params(),
        th=st.floats(0.0, 100.0),
        ts=st.floats(0.0, 100.0),
        duty=st.floats(0.0, 100.0),
        dt=st.one_of(log_uniform(1e-3, 600.0), st.floats(1e-3, 600.0)),
    )
    @settings(max_examples=40, deadline=None)
    def test_propagator_matches_fine_rk4(self, params, th, ts, duty, dt):
        # an RK4 step of 0.004 over the fastest rate (a Gershgorin bound)
        # keeps the oracle's own error below 1e-10 degC
        rate = max((params.u_ha + 2 * params.u_hs) / params.c_h, (2 * params.u_hs + params.u_sa) / params.c_s)
        h = min(0.1, 0.004 / rate)
        out = step(params, TwinState(th, ts, 0.0), duty, dt)
        ref_h, ref_s = rk4_oracle(params, th, ts, duty, dt, h=h)
        assert abs(out.t_heater - ref_h) <= 1e-9
        assert abs(out.t_sensor - ref_s) <= 1e-9

    @pytest.mark.parametrize("run", [case_study_run, twin_guard_run, lower_guard_run])
    def test_logs_match_under_rk4(self, run, tmp_path, monkeypatch):
        exact = run(tmp_path / "exact.jsonl")
        monkeypatch.setattr(twin, "step", rk4_step)
        monkeypatch.setattr(twin, "rollout", rk4_rollout)
        monkeypatch.setattr(twin, "first_exit", rk4_first_exit)
        oracle = run(tmp_path / "rk4.jsonl")
        assert len(exact) == len(oracle) > 0
        for a, b in zip(exact, oracle):
            assert (a.t_start, a.t_end, a.applied, a.override) == (b.t_start, b.t_end, b.applied, b.override)
            assert [(x.passed, x.parsed, x.error) for x in a.attempts] == [
                (x.passed, x.parsed, x.error) for x in b.attempts
            ]
            assert abs(a.t_sensor - b.t_sensor) <= 1e-9


class TestAgainstEulerOracle:
    @pytest.mark.parametrize(
        "segments",
        [
            [(100.0, 600.0)],
            [(0.0, 120.0), (100.0, 300.0), (0.0, 180.0)],
            [(100.0, 90.0), (0.0, 60.0), (100.0, 90.0), (30.0, 360.0)],
        ],
    )
    def test_rk4_matches_fine_euler(self, segments):
        state = TwinState(23.0, 23.0, 0.0)
        th, ts = state.t_heater, state.t_sensor
        for duty, seconds in segments:
            state = step(PARAMS, state, duty, seconds)
            th, ts = euler_oracle(TwinState(th, ts, 0.0), duty, seconds)
        assert state.t_sensor == pytest.approx(ts, abs=1e-3)
        assert state.t_heater == pytest.approx(th, abs=1e-3)

    def test_overshoot_exists_after_turnoff(self):
        # Residual heater heat must push the sensor above its 27 degC start.
        state = TwinState(43.0, 27.0, 0.0)
        peak = max(ts for _, ts in rollout(PARAMS, state, 0.0, 600.0))
        assert peak > 27.0
        oracle_peak = 27.0
        th, ts = 43.0, 27.0
        for _ in range(600_000):
            dh = (PARAMS.u_ha * (23.0 - th) + PARAMS.u_hs * (ts - th)) / PARAMS.c_h
            ds = (PARAMS.u_hs * (th - ts) + PARAMS.u_sa * (23.0 - ts)) / PARAMS.c_s
            th += 0.001 * dh
            ts += 0.001 * ds
            oracle_peak = max(oracle_peak, ts)
        assert peak == pytest.approx(oracle_peak, abs=1e-3)


class TestProperties:
    @pytest.mark.parametrize("duty", [0.0, 25.0, 50.0, 100.0])
    def test_steady_state_is_a_step_fixed_point(self, duty):
        th, ts = steady_state(PARAMS, duty)
        out = step(PARAMS, TwinState(th, ts, 0.0), duty, 10.0)
        assert out.t_heater == pytest.approx(th, abs=1e-9)
        assert out.t_sensor == pytest.approx(ts, abs=1e-9)

    @given(
        duty=st.floats(0.0, 100.0),
        a=st.integers(1, 40),
        b=st.integers(1, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_step_composability_on_substep_multiples(self, duty, a, b):
        state = TwinState(30.0, 26.0, 0.0)
        whole = step(PARAMS, state, duty, (a + b) * 0.1)
        parts = step(PARAMS, step(PARAMS, state, duty, a * 0.1), duty, b * 0.1)
        assert whole.t_heater == pytest.approx(parts.t_heater, abs=1e-9)
        assert whole.t_sensor == pytest.approx(parts.t_sensor, abs=1e-9)

    @given(
        params=twin_params(),
        th=st.floats(0.0, 100.0),
        ts=st.floats(0.0, 100.0),
        duty=st.floats(0.0, 100.0),
        a=st.floats(1e-3, 300.0),
        b=st.floats(1e-3, 300.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_semigroup(self, params, th, ts, duty, a, b):
        state = TwinState(th, ts, 0.0)
        whole = step(params, state, duty, a + b)
        parts = step(params, step(params, state, duty, a), duty, b)
        assert abs(whole.t_heater - parts.t_heater) <= 1e-12
        assert abs(whole.t_sensor - parts.t_sensor) <= 1e-12

    @given(
        params=twin_params(),
        th=st.floats(0.0, 100.0),
        ts=st.floats(0.0, 100.0),
        duty=st.floats(0.0, 100.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_vanishing_dt_returns_the_state(self, params, th, ts, duty):
        for dt in (1e-15, 1e-300, 5e-324):
            out = step(params, TwinState(th, ts, 0.0), duty, dt)
            assert abs(out.t_heater - th) <= 1e-12
            assert abs(out.t_sensor - ts) <= 1e-12

    def test_monotone_heating_from_ambient_until_steady(self):
        target = steady_state(PARAMS, 60.0)[1]
        state = TwinState(23.0, 23.0, 0.0)
        previous = state.t_sensor
        while target - state.t_sensor > 1e-6:
            state = step(PARAMS, state, 60.0, 5.0)
            assert state.t_sensor >= previous
            previous = state.t_sensor
            assert state.clock < 5000.0, "did not converge"

    @given(
        th0=st.floats(23.0, 43.0),
        ts0=st.floats(23.0, 33.0),
        duty=st.floats(0.0, 100.0),
        seconds=st.floats(0.5, 900.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_full_duty_steady_box_is_forward_invariant(self, th0, ts0, duty, seconds):
        # the joint region bounded by the full-duty steady state of each node;
        # with ambient below, no duty can push either node out of it
        heater_ceiling, sensor_ceiling = steady_state(PARAMS, 100.0)
        out = step(PARAMS, TwinState(th0, ts0, 0.0), duty, seconds)
        assert PARAMS.t_amb - 0.001 <= out.t_heater <= heater_ceiling + 0.001
        assert PARAMS.t_amb - 0.001 <= out.t_sensor <= sensor_ceiling + 0.001

    @given(
        duties=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=8),
        seconds=st.floats(1.0, 300.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_reachable_states_stay_between_ambient_and_heater_ceiling(self, duties, seconds):
        heater_ceiling = steady_state(PARAMS, 100.0)[0]
        state = TwinState(PARAMS.t_amb, PARAMS.t_amb, 0.0)
        for duty in duties:
            state = step(PARAMS, state, duty, seconds)
            assert PARAMS.t_amb - 0.001 <= state.t_heater <= heater_ceiling + 0.001
            assert PARAMS.t_amb - 0.001 <= state.t_sensor <= heater_ceiling + 0.001


class TestParamValidation:
    def test_defaults_validate(self):
        TwinParams()

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(InvalidInput):
            TwinParams(c_h=0.0)

    def test_underpowered_heater_rejected(self):
        # Full duty must be able to push the sensor past the upper threshold.
        with pytest.raises(InvalidInput):
            TwinParams(alpha=0.005)
