"""Plant access: binary heater actions, the in-process twin plant, and the
line protocol that exposes the same plant to external controllers.

The wire protocol is deliberately dumb hobby-firmware style: one UTF-8
command per line, one reply line per command, in order, temperatures always
printed with exactly two decimals.  A controller that speaks it to the
bundled server could drive a real serial-attached rig through the same verbs.
The TCP server and client live in :mod:`twinloop.tcp`, so an in-process run
never loads the socket stack.
"""

from __future__ import annotations

import enum
import math
import time
from decimal import ROUND_HALF_UP, Decimal

from . import twin
from .errors import InvalidInput

PROTOCOL_VERSION = "AGENTIC-TWIN 1.0"

LOCKSTEP = "lockstep"
REALTIME = "realtime"
CLOCK_MODES = (LOCKSTEP, REALTIME)
# Longest run a config may ask for, and longest backend timeout: one week,
# 252 times the case study.  A mistyped duration such as 1e12 would run
# without end and fill the disk.
MAX_DURATION_S = 604800.0


def round_half_away(x: float) -> float:
    """Round to two decimals with ties going away from zero: how a plant
    reads its sensor, prints a duty and a report prints a percentage.

    A tie is judged on the shortest repr, so 26.445 rounds to 26.45 although
    the float stored for it lies just below.  Only where ``x * 100`` lies
    within a tiny relative window of a half can that differ from
    :func:`round`, which rounds the exact binary value; there, and for any
    value that is not a finite float, the decimal repr is rounded.
    ``decimal`` is imported with this module, so the first tie of a run does
    not pay for the import inside the loop.
    """
    if type(x) is float:
        scaled = abs(x) * 100.0
        if abs(scaled % 1.0 - 0.5) > 1e-9 * scaled:
            return round(x, 2)
    return float(Decimal(repr(x)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


class HeaterAction(enum.Enum):
    """Binary heater command; the case study has no intermediate levels.

    Each member's ``duty`` and ``opposite`` are plain attributes, set once
    when the class is built, so the loop reads them without calling into
    ``enum``; hot code reads a member's text as ``_value_`` for the same
    reason.
    """

    ON = "ON"
    OFF = "OFF"

    duty: float
    opposite: HeaterAction

    def __init__(self, value: str):
        self.duty = 100.0 if value == "ON" else 0.0

    def __str__(self) -> str:
        return self._value_


HeaterAction.ON.opposite, HeaterAction.OFF.opposite = HeaterAction.OFF, HeaterAction.ON


class TwinPlant:
    """The simulated plant: a twin instance plus the currently applied duty.

    The plant owns the run's clock, and :meth:`advance` is how time passes in
    either mode.  In ``lockstep`` mode the clock moves only through
    :meth:`advance` (or the protocol's X_ADV), so 40 simulated minutes take
    milliseconds.  In ``realtime`` mode the clock is wall time,
    :meth:`advance` sleeps, and the model is integrated lazily up to "now" on
    every read or apply.  :meth:`read_temperature` returns the sensor
    temperature rounded once to two decimals, ties away from zero, as ``T1``
    prints it: the prompt, the rule, the feedback and the log all see that
    one float, and an in-process run equals the same run over TCP.
    :attr:`state` stays exact.
    """

    def __init__(
        self,
        params: twin.TwinParams | None = None,
        mode: str = LOCKSTEP,
        initial_state: twin.TwinState | None = None,
    ):
        if mode not in CLOCK_MODES:
            raise InvalidInput(f"unknown clock mode {mode!r}")
        self.params = params or twin.TwinParams()
        self.mode = mode
        self._state = initial_state or twin.TwinState(self.params.t_amb, self.params.t_amb, 0.0)
        self._duty = 0.0
        self._wall0 = time.monotonic() - self._state.clock if mode == REALTIME else 0.0

    def _sync_to_wall(self) -> None:
        dt = (time.monotonic() - self._wall0) - self._state.clock
        if dt > 0.0:
            self._state = twin.step(self.params, self._state, self._duty, dt)

    @property
    def clock(self) -> float:
        if self.mode == REALTIME:
            return time.monotonic() - self._wall0
        return self._state.clock

    @property
    def state(self) -> twin.TwinState:
        if self.mode == REALTIME:
            self._sync_to_wall()
        return self._state

    @property
    def duty(self) -> float:
        return self._duty

    def read_temperature(self) -> float:
        if self.mode == REALTIME:
            self._sync_to_wall()
        return round_half_away(self._state.t_sensor)

    def apply_heater(self, action: HeaterAction) -> None:
        self.set_duty(action.duty)

    def set_duty(self, duty: float) -> None:
        """Hold the heater at ``duty`` percent from now on."""
        if not (math.isfinite(duty) and 0.0 <= duty <= 100.0):
            raise InvalidInput(f"duty must lie in [0, 100], got {duty!r}")
        if self.mode == REALTIME:
            self._sync_to_wall()
        self._duty = duty

    def advance(self, dt: float) -> None:
        """Let dt seconds pass under the current duty: step the model in
        lockstep mode, sleep in realtime mode."""
        if self.mode == REALTIME:
            time.sleep(dt)
        else:
            self._state = twin.step(self.params, self._state, self._duty, dt)


class PlantProtocol:
    """Line-command handler over a :class:`TwinPlant`.

    Commands (verbs case-insensitive, one per line):
      T1        -> sensor temperature, two decimals
      Q1 <v>    -> set duty to clamp(v, 0, 100); replies the applied value
      VER       -> fixed version string
      MODE      -> the plant's clock mode, "lockstep" or "realtime"
      X_ADV <s> -> lockstep only: advance the sim clock by s seconds; "OK"
    A verb takes no argument or one number.  Anything else, including a
    non-finite Q1 argument and an X_ADV that would leave the clock infinite,
    replies "ERR"; no line raises.  Each line is answered on its own, so a
    client may send several lines before it reads their replies.
    """

    def __init__(self, plant: TwinPlant):
        self.plant = plant

    def handle_command(self, line: str) -> str:
        parts = line.split()
        if len(parts) == 2:  # X_ADV and Q1 make up most of a lockstep run's lines
            verb, arg = parts
            try:
                value = float(arg)
            except ValueError:
                return "ERR"
            verb = verb.upper()
            # a realtime plant's advance sleeps, and no client may stall the
            # server; a step to an infinite clock would refuse every later one
            if verb == "X_ADV" and self.plant.mode == LOCKSTEP and value > 0.0 and math.isfinite(self.plant.clock + value):
                self.plant.advance(value)
                return "OK"
            if verb == "Q1" and math.isfinite(value):
                duty = min(100.0, max(0.0, value))
                self.plant.set_duty(duty)
                return f"{round_half_away(duty):.2f}"
            return "ERR"
        verb = parts[0].upper() if len(parts) == 1 else ""
        if verb == "T1":
            return f"{self.plant.read_temperature():.2f}"
        if verb == "VER":
            return PROTOCOL_VERSION
        if verb == "MODE":
            return self.plant.mode
        return "ERR"
