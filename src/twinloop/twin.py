"""Two-node lumped thermal model of the heater/sensor rig.

The plant is a heater element conductively coupled to a sensor mass, with
both nodes leaking to ambient:

    c_h * dT_h/dt = alpha*u + u_ha*(t_amb - T_h) + u_hs*(T_s - T_h)
    c_s * dT_s/dt = u_hs*(T_h - T_s) + u_sa*(t_amb - T_s)

Heater power enters the heater node only, so after switching off, the still
hot heater element keeps pushing the sensor temperature up for a while.  That
turn-off overshoot is what makes tight on/off control of this rig
interesting, and every default below is calibrated so it shows up clearly.

Integration is classical fixed-step RK4 at ``dt_internal`` (a final partial
substep absorbs any remainder), which keeps trajectories deterministic and
bit-for-bit replayable.  ``step`` runs that integrator directly.  ``rollout``
holds one duty over many whole seconds; the model is linear, so one second of
the same RK4 is a fixed affine map ``x <- M x + c``, which it takes from the
integrator once per (parameters, duty) and reuses.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import InvalidInput, InvalidState

# Defaults give a 33 degC sensor steady state at full duty and heater/sensor
# time constants of roughly 33 s / 100 s, so a 40 minute run cycles several
# times through a 25..27 degC band.
DEFAULT_T_AMB = 23.0
DEFAULT_ALPHA = 0.02
DEFAULT_C_H = 5.0
DEFAULT_C_S = 20.0
DEFAULT_U_HA = 0.05
DEFAULT_U_HS = 0.10
DEFAULT_U_SA = 0.10
DEFAULT_DT_INTERNAL = 0.1

_MIN_FULL_DUTY_SENSOR_SS = 27.0


@dataclass(frozen=True)
class TwinParams:
    """Physical coefficients of the two-node model.

    Temperatures in degC, capacities in J/K, conductances in W/K, alpha in
    W per percent duty, dt_internal in seconds.
    """

    t_amb: float = DEFAULT_T_AMB
    alpha: float = DEFAULT_ALPHA
    c_h: float = DEFAULT_C_H
    c_s: float = DEFAULT_C_S
    u_ha: float = DEFAULT_U_HA
    u_hs: float = DEFAULT_U_HS
    u_sa: float = DEFAULT_U_SA
    dt_internal: float = DEFAULT_DT_INTERNAL

    def validate(self) -> "TwinParams":
        """Check every invariant; returns self so calls can be chained."""
        for name in ("t_amb", "alpha", "c_h", "c_s", "u_ha", "u_hs", "u_sa", "dt_internal"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidState(f"twin parameter {name} is not finite")
        for name in ("c_h", "c_s", "u_ha", "u_hs", "u_sa"):
            if getattr(self, name) <= 0.0:
                raise InvalidState(f"twin parameter {name} must be strictly positive")
        if self.alpha < 0.0:
            raise InvalidState("twin parameter alpha must be >= 0")
        if not 0.0 < self.dt_internal <= 1.0:
            raise InvalidState("twin parameter dt_internal must lie in (0, 1]")
        # Without headroom above the upper control threshold the plant can
        # never oscillate through the band.
        _, ts_full = steady_state(self, 100.0)
        if ts_full <= _MIN_FULL_DUTY_SENSOR_SS:
            raise InvalidState(
                f"sensor steady state at full duty ({ts_full:.2f} degC) must exceed "
                f"{_MIN_FULL_DUTY_SENSOR_SS} degC"
            )
        return self


@dataclass(frozen=True)
class TwinState:
    """Instantaneous node temperatures (degC) and simulation clock (s)."""

    t_heater: float
    t_sensor: float
    clock: float = 0.0


def _check_step_args(state: TwinState, duty: float, dt: float) -> None:
    if not (math.isfinite(state.t_heater) and math.isfinite(state.t_sensor) and math.isfinite(state.clock)):
        raise InvalidState(f"twin state is not finite: {state}")
    if not (math.isfinite(duty) and 0.0 <= duty <= 100.0):
        raise InvalidInput(f"duty must lie in [0, 100], got {duty!r}")
    if not (math.isfinite(dt) and dt > 0.0):
        raise InvalidInput(f"dt must be > 0, got {dt!r}")


def _advance(p: TwinParams, th: float, ts: float, duty: float, dt: float) -> tuple[float, float]:
    """RK4-integrate both nodes over dt; hot loop, locals only."""
    q = p.alpha * duty
    t_amb = p.t_amb
    inv_ch = 1.0 / p.c_h
    inv_cs = 1.0 / p.c_s
    u_ha = p.u_ha
    u_hs = p.u_hs
    u_sa = p.u_sa
    h = p.dt_internal

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


def step(params: TwinParams, state: TwinState, duty: float, dt: float) -> TwinState:
    """Advance the plant by dt seconds under a constant duty.

    The clock moves by exactly dt; the temperatures come from fixed-substep
    RK4.  Identical inputs produce identical outputs bit for bit.
    """
    _check_step_args(state, duty, dt)
    th, ts = _advance(params, state.t_heater, state.t_sensor, duty, dt)
    return TwinState(th, ts, state.clock + dt)


def steady_state(params: TwinParams, duty: float) -> tuple[float, float]:
    """Fixed point (t_heater, t_sensor) of the ODE pair at a constant duty.

    Solved analytically from the 2x2 linear balance equations.
    """
    if not (math.isfinite(duty) and 0.0 <= duty <= 100.0):
        raise InvalidInput(f"duty must lie in [0, 100], got {duty!r}")
    det = params.u_ha * params.u_hs + params.u_ha * params.u_sa + params.u_hs * params.u_sa
    if det <= 0.0 or not math.isfinite(det):
        raise InvalidState("conductances admit no unique steady state")
    q = params.alpha * duty
    t_heater = params.t_amb + q * (params.u_hs + params.u_sa) / det
    t_sensor = params.t_amb + q * params.u_hs / det
    return t_heater, t_sensor


@functools.lru_cache(maxsize=64)
def _one_second_map(p: TwinParams, duty: float) -> tuple[float, float, float, float, float, float]:
    """``(m_hh, m_hs, m_sh, m_ss, c_h, c_s)`` of ``_advance`` over one second.

    The integrator is affine in the state, so its images of the origin and of
    the two unit vectors determine the map.
    """
    c_h, c_s = _advance(p, 0.0, 0.0, duty, 1.0)
    e_hh, e_sh = _advance(p, 1.0, 0.0, duty, 1.0)
    e_hs, e_ss = _advance(p, 0.0, 1.0, duty, 1.0)
    return e_hh - c_h, e_hs - c_h, e_sh - c_s, e_ss - c_s, c_h, c_s


def rollout(
    params: TwinParams, state: TwinState, duty: float, horizon: float
) -> list[tuple[float, float]]:
    """Simulate ahead and return (clock, t_sensor) samples.

    Sampling grid: the initial instant, every integer second inside the
    horizon, and the final instant.  Each one-second segment applies the
    cached one-second map of the RK4 integrator; the shorter first and last
    segments run the integrator itself.  The samples agree with chained
    ``step`` calls to rounding error (about 1e-12 degC over 300 s).
    """
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise InvalidInput(f"horizon must be > 0, got {horizon!r}")
    _check_step_args(state, duty, horizon)

    end = state.clock + horizon
    sample_times = []
    t = math.floor(state.clock) + 1.0
    while t < end - 1e-9:
        if t > state.clock:
            sample_times.append(t)
        t += 1.0
    sample_times.append(end)

    m_hh, m_hs, m_sh, m_ss, c_h, c_s = _one_second_map(params, duty)
    clock, th, ts = state.clock, state.t_heater, state.t_sensor
    trajectory = [(clock, ts)]
    for target in sample_times:
        dt = target - clock
        if dt == 1.0:
            th, ts = m_hh * th + m_hs * ts + c_h, m_sh * th + m_ss * ts + c_s
        else:
            th, ts = _advance(params, th, ts, duty, dt)
        clock = target
        trajectory.append((target, ts))
    return trajectory
