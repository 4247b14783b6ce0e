"""Two-node lumped thermal model of the heater/sensor rig.

The plant is a heater element conductively coupled to a sensor mass, with
both nodes leaking to ambient:

    c_h * dT_h/dt = alpha*u + u_ha*(t_amb - T_h) + u_hs*(T_s - T_h)
    c_s * dT_s/dt = u_hs*(T_h - T_s) + u_sa*(t_amb - T_s)

Heater power enters the heater node only, so after switching off, the still
hot heater element keeps pushing the sensor temperature up for a while.  That
turn-off overshoot is what makes tight on/off control of this rig
interesting, and every default below is calibrated so it shows up clearly.

Under a held duty the model is linear and time-invariant, ``x' = A x + f``,
so it is solved exactly (zero-order hold): ``x(t+dt) = x_ss + e^{A dt}
(x(t) - x_ss)``.  ``A`` is a passive two-node RC network with real, distinct,
negative eigenvalues, and ``e^{A dt}`` has a closed form with two ``exp``
calls (Moler & Van Loan, *Nineteen Dubious Ways to Compute the Exponential of
a Matrix*, 2003).  ``exp`` comes from the platform's libm, as it does for the
lognormal latency stream, so trajectories are deterministic and bit-for-bit
replayable on one platform.  Each parameter set holds one propagator, the
same at every duty, and its steady states at duty 0 and 100, the duties a
heater action sets; any other duty solves its steady state per call.

``step`` applies the propagator to both nodes.  A rollout needs the sensor
alone: from a start state its deviation from steady state is ``p e^{l1 t} +
q e^{l2 t}``, so each sample is solved directly from the start state.  That
curve turns at most once, so the samples are monotone on either side of the
turning point, and ``first_exit`` finds the first sample outside an envelope
by checking the ends of the two monotone pieces and bisecting, in
O(log horizon) samples instead of a scan of the whole rollout.  A check costs
only its samples: the grid and constants are computed once per call, and
each sample is one closed-form expression with two ``exp`` calls that builds
nothing.
"""

from __future__ import annotations

import math
from .errors import InvalidInput, frozen

_MIN_FULL_DUTY_SENSOR_SS = 27.0
# Largest magnitude (degC) of ambient and full-duty heater steady state, the
# bounds of every temperature a run from ambient reaches.  A float below it
# still resolves hundredths (its spacing is under 2e-4), so a reading rounds
# to two decimals; near 1e26 the decimal rounding of a reading would fail.
MAX_TEMPERATURE_C = 1e12


@frozen
class TwinParams:
    """Physical coefficients of the two-node model.

    Temperatures in degC, capacities in J/K, conductances in W/K, alpha in
    W per percent duty.  Every invariant is checked at construction, among
    them that the propagator's constants are finite, with distinct negative
    eigenvalues (a rollout divides by them), and that the ambient and
    full-duty temperatures stay within ``MAX_TEMPERATURE_C``; the propagator
    and the steady states at duty 0 and 100 are then stored, once.
    """

    # Defaults give a 33 degC sensor steady state at full duty and heater/sensor
    # time constants of roughly 33 s / 100 s, so a 40 minute run cycles several
    # times through a 25..27 degC band.
    t_amb: float = 23.0
    alpha: float = 0.02
    c_h: float = 5.0
    c_s: float = 20.0
    u_ha: float = 0.05
    u_hs: float = 0.10
    u_sa: float = 0.10
    dt_internal = 0.1  # not a field; only perfbench/tracing.py reads it, to count substeps

    def __post_init__(self):
        for name in ("t_amb", "alpha", "c_h", "c_s", "u_ha", "u_hs", "u_sa"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidInput(f"twin parameter {name} is not finite")
        for name in ("c_h", "c_s", "u_ha", "u_hs", "u_sa"):
            if getattr(self, name) <= 0.0:
                raise InvalidInput(f"twin parameter {name} must be strictly positive")
        if self.alpha < 0.0:
            raise InvalidInput("twin parameter alpha must be >= 0")
        # Without headroom above the upper control threshold the plant can
        # never oscillate through the band.
        xh, ts_full = full = steady_state(self, 100.0)
        if ts_full <= _MIN_FULL_DUTY_SENSOR_SS:
            raise InvalidInput(
                f"sensor steady state at full duty ({ts_full:.2f} degC) must exceed "
                f"{_MIN_FULL_DUTY_SENSOR_SS} degC"
            )
        try:
            l1, l2, *gains = propagator = _propagator(self)
            fits = l2 < l1 < 0.0 and all(map(math.isfinite, (l2, *gains)))
        except (OverflowError, ZeroDivisionError):
            fits = False
        if not fits:
            raise InvalidInput("twin parameters give a propagator that does not fit a float")
        if not (abs(self.t_amb) <= MAX_TEMPERATURE_C and xh <= MAX_TEMPERATURE_C):
            raise InvalidInput(
                f"twin temperatures reach {max(abs(self.t_amb), xh):g} degC in magnitude, beyond the "
                f"{MAX_TEMPERATURE_C:g} degC a reading resolves to two decimals"
            )
        object.__setattr__(self, "_propagator", propagator)
        object.__setattr__(self, "_off", steady_state(self, 0.0))
        object.__setattr__(self, "_full", full)


@frozen
class TwinState:
    """Instantaneous node temperatures (degC) and simulation clock (s)."""

    t_heater: float
    t_sensor: float
    clock: float = 0.0


def _check_step_args(state: TwinState, duty: float, dt: float) -> None:
    if not (math.isfinite(state.t_heater) and math.isfinite(state.t_sensor) and math.isfinite(state.clock)):
        raise InvalidInput(f"twin state is not finite: {state}")
    if not (math.isfinite(duty) and 0.0 <= duty <= 100.0):
        raise InvalidInput(f"duty must lie in [0, 100], got {duty!r}")
    if not (math.isfinite(dt) and dt > 0.0):
        raise InvalidInput(f"dt must be > 0, got {dt!r}")


def step(params: TwinParams, state: TwinState, duty: float, dt: float) -> TwinState:
    """Advance the plant by dt seconds under a constant duty.

    The clock moves by exactly dt; the temperatures come from the exact
    propagator.  Identical inputs produce identical outputs bit for bit.
    """
    _check_step_args(state, duty, dt)
    # x(t + dt) = x_ss + e^{A dt} (x(t) - x_ss), e^{A dt} = e2 I + e12 G
    l1, l2, g_hh, g_hs, g_sh, g_ss = params._propagator
    xh, xs = _steady(params, duty)
    e2 = math.exp(l2 * dt)
    e12 = math.exp(l1 * dt) - e2
    yh, ys = state.t_heater - xh, state.t_sensor - xs
    th = xh + (e2 + e12 * g_hh) * yh + e12 * g_hs * ys
    return TwinState(th, xs + e12 * g_sh * yh + (e2 + e12 * g_ss) * ys, state.clock + dt)


def steady_state(params: TwinParams, duty: float) -> tuple[float, float]:
    """Fixed point (t_heater, t_sensor) of the ODE pair at a constant duty.

    Solved analytically from the 2x2 linear balance equations.
    """
    if not (math.isfinite(duty) and 0.0 <= duty <= 100.0):
        raise InvalidInput(f"duty must lie in [0, 100], got {duty!r}")
    det = params.u_ha * params.u_hs + params.u_ha * params.u_sa + params.u_hs * params.u_sa
    if det <= 0.0 or not math.isfinite(det):
        raise InvalidInput("conductances admit no unique steady state")
    q = params.alpha * duty
    t_heater = params.t_amb + q * (params.u_hs + params.u_sa) / det
    t_sensor = params.t_amb + q * params.u_hs / det
    return t_heater, t_sensor


def _steady(p: TwinParams, duty: float) -> tuple[float, float]:
    """:func:`steady_state`, stored on ``p`` for duty 0 and 100."""
    if duty == 100.0:
        return p._full
    return p._off if duty == 0.0 else steady_state(p, duty)


def _propagator(p: TwinParams) -> tuple[float, float, float, float, float, float]:
    """Constants ``(l1, l2, g_hh, g_hs, g_sh, g_ss)`` of the exact propagator,
    the same at every duty.

    With ``x' = A x + f``, ``A``'s eigenvalues ``l1 > l2`` are real, distinct
    and negative for a passive RC network, and Sylvester's formula gives
    ``e^{A dt} = e2 I + (e1 - e2) G`` with ``ek = exp(lk dt)`` and
    ``G = (A - l2 I) / (l1 - l2)``.
    """
    a = -(p.u_ha + p.u_hs) / p.c_h
    b = p.u_hs / p.c_h
    c = p.u_hs / p.c_s
    d = -(p.u_hs + p.u_sa) / p.c_s
    root = math.sqrt((0.5 * (a - d)) ** 2 + b * c)
    l2 = 0.5 * (a + d) - root
    # det(A) = l1 * l2, written without the cancellation in a*d - b*c
    l1 = (p.u_ha * p.u_hs + p.u_ha * p.u_sa + p.u_hs * p.u_sa) / (p.c_h * p.c_s * l2)
    k = 1.0 / (l1 - l2)
    return l1, l2, k * (a - l2), k * b, k * c, k * (d - l2)


def _grid(params: TwinParams, state: TwinState, duty: float, horizon: float):
    """The rollout grid and the closed-form constants of its samples.

    Returns ``(clock, end, first, last, split, xs, p, q, l1, l2)``.  Samples
    are indexed ``0..last``: sample 0 is the state's own reading at
    ``clock``, sample ``i`` of ``1..last - 1`` lies at the whole second
    ``first + i - 1``, and sample ``last`` at ``end``.  Under a held duty the
    sensor's deviation from steady state is ``p e^{l1 dt} + q e^{l2 dt}``, so
    the sample at ``t`` reads ``xs + (p e^{l1 dt} + q e^{l2 dt})`` with
    ``dt = t - clock``.  That curve turns at most once, so the samples are
    monotone on ``[0, split]`` and on ``[split + 1, last]``.
    """
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise InvalidInput(f"horizon must be > 0, got {horizon!r}")
    _check_step_args(state, duty, horizon)

    l1, l2, _, _, g_sh, g_ss = params._propagator
    xh, xs = _steady(params, duty)
    clock = state.clock
    ys = state.t_sensor - xs
    p = g_sh * (state.t_heater - xh) + g_ss * ys
    q = ys - p
    end = clock + horizon
    # whole seconds first, first + 1, ... strictly before end - 1e-9
    first = math.floor(clock) + 1
    seconds = max(0, math.ceil(end - 1e-9) - first)
    last = seconds + 1
    split = last
    if p * q < 0.0:
        # the deviation's slope p l1 e^{l1 t} + q l2 e^{l2 t} vanishes at t = turn
        turn = math.log(-(q / p) * (l2 / l1)) / (l1 - l2)
        if 0.0 < turn < horizon:
            split = min(seconds, max(0, math.floor(clock + turn) - first + 1))
    return clock, end, first, last, split, xs, p, q, l1, l2


def rollout(
    params: TwinParams, state: TwinState, duty: float, horizon: float
) -> list[tuple[float, float]]:
    """Simulate ahead and return (clock, t_sensor) samples.

    Sampling grid: the initial instant, every integer second inside the
    horizon, and the final instant.  Each sample is the exact solution from
    the start state, so the samples agree with chained ``step`` calls to
    rounding error.
    """
    clock, end, first, last, _, xs, p, q, l1, l2 = _grid(params, state, duty, horizon)
    exp = math.exp
    samples = [(clock, state.t_sensor)]
    for t in (*map(float, range(first, first + last - 1)), end):
        dt = t - clock
        samples.append((t, xs + (p * exp(l1 * dt) + q * exp(l2 * dt))))
    return samples


def first_exit(
    params: TwinParams, state: TwinState, duty: float, horizon: float, lo: float, hi: float
) -> tuple[float, float] | None:
    """The first ``rollout`` sample outside ``[lo, hi]``, or None.

    Each of the trajectory's two monotone pieces is checked at its ends; a
    piece that starts inside and ends outside holds its outside samples as a
    suffix, found by bisection.  A passing check costs four samples whatever
    the horizon, a failing one O(log horizon), and each sample is the one
    expression of :func:`rollout`.
    """
    clock, end, first, last, split, xs, p, q, l1, l2 = _grid(params, state, duty, horizon)
    exp = math.exp
    v = state.t_sensor
    if not lo <= v <= hi:
        return clock, v
    # sample 0, the first piece's start, is inside: it needs no probe
    for a, b in ((0, split), (split + 1, last)):
        if a > b:
            break
        if a:
            t = end if a == last else float(first + a - 1)
            v = xs + (p * exp(l1 * (dt := t - clock)) + q * exp(l2 * dt))
            if not lo <= v <= hi:
                return t, v
        if a == b:
            continue
        t = end if b == last else float(first + b - 1)
        v = xs + (p * exp(l1 * (dt := t - clock)) + q * exp(l2 * dt))
        if lo <= v <= hi:
            continue
        while b - a > 1:
            mid = (a + b) // 2
            u = float(first + mid - 1)
            w = xs + (p * exp(l1 * (dt := u - clock)) + q * exp(l2 * dt))
            if lo <= w <= hi:
                a = mid
            else:
                b, t, v = mid, u, w
        return t, v
    return None
