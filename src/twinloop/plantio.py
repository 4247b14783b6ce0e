"""Plant access: binary heater actions, the in-process twin plant, and the
TCP line protocol that exposes the same plant to external controllers.

The wire protocol is deliberately dumb hobby-firmware style: one UTF-8
command per line, one reply line per command, temperatures always printed
with exactly two decimals.  A controller that speaks it to the bundled
server could drive a real serial-attached rig through the same verbs.
"""

from __future__ import annotations

import enum
import math
import socket
import socketserver
import time
from dataclasses import dataclass

from . import twin
from .errors import InvalidInput, PlantIoError
from .jsonio import round_half_away

PROTOCOL_VERSION = "AGENTIC-TWIN 1.0"

LOCKSTEP = "lockstep"
REALTIME = "realtime"
CLOCK_MODES = (LOCKSTEP, REALTIME)


class HeaterAction(enum.Enum):
    """Binary heater command; the case study has no intermediate levels."""

    ON = "ON"
    OFF = "OFF"

    @property
    def duty(self) -> float:
        return 100.0 if self is HeaterAction.ON else 0.0

    @property
    def opposite(self) -> "HeaterAction":
        return HeaterAction.OFF if self is HeaterAction.ON else HeaterAction.ON

    @classmethod
    def parse(cls, text: str) -> "HeaterAction":
        try:
            return cls(text.strip().upper())
        except ValueError:
            raise InvalidInput(f"not a heater action: {text!r}") from None

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class PlantSample:
    """One sensor reading: run-relative timestamp (s) and temperature (degC).

    Every plant reads two decimals, as the wire protocol's ``T1`` does, so
    the prompt, the rule, the feedback and the log all see one number and an
    in-process run equals the same run over TCP.
    """

    timestamp: float
    t_sensor: float


class TwinPlant:
    """The simulated plant: a twin instance plus the currently applied duty.

    The plant owns the run's clock, and :meth:`advance` is how time passes in
    either mode.  In ``lockstep`` mode the clock moves only through
    :meth:`advance` (or the protocol's X_ADV), so 40 simulated minutes take
    milliseconds.  In ``realtime`` mode the clock is wall time,
    :meth:`advance` sleeps, and the model is integrated lazily up to "now" on
    every read or apply.  A reading is the sensor temperature rounded once
    to two decimals, ties away from zero; :attr:`state` stays exact.
    """

    def __init__(
        self,
        params: twin.TwinParams | None = None,
        mode: str = LOCKSTEP,
        initial_state: twin.TwinState | None = None,
    ):
        if mode not in CLOCK_MODES:
            raise InvalidInput(f"unknown clock mode {mode!r}")
        self.params = (params or twin.TwinParams()).validate()
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

    def read_temperature(self) -> PlantSample:
        if self.mode == REALTIME:
            self._sync_to_wall()
        return PlantSample(self._state.clock, round_half_away(self._state.t_sensor, 2))

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
      X_ADV <s> -> lockstep only: advance the sim clock by s seconds; "OK"
    Anything else, including malformed arguments, replies "ERR".
    """

    def __init__(self, plant: TwinPlant):
        self.plant = plant

    def handle_command(self, line: str) -> str:
        parts = line.strip().split()
        if not parts:
            return "ERR"
        verb = parts[0].upper()
        if verb == "T1" and len(parts) == 1:
            return f"{self.plant.read_temperature().t_sensor:.2f}"
        if verb == "Q1" and len(parts) == 2:
            try:
                value = float(parts[1])
            except ValueError:
                return "ERR"
            if not math.isfinite(value):
                return "ERR"
            duty = min(100.0, max(0.0, value))
            self.plant.set_duty(duty)
            return f"{round_half_away(duty, 2):.2f}"
        if verb == "VER" and len(parts) == 1:
            return PROTOCOL_VERSION
        if verb == "X_ADV" and len(parts) == 2:
            # a realtime plant's advance sleeps: no client may stall the server
            if self.plant.mode != LOCKSTEP:
                return "ERR"
            try:
                seconds = float(parts[1])
            except ValueError:
                return "ERR"
            if not (math.isfinite(seconds) and seconds > 0.0):
                return "ERR"
            self.plant.advance(seconds)
            return "OK"
        return "ERR"


class _LineHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        protocol: PlantProtocol = self.server.protocol  # type: ignore[attr-defined]
        for raw in self.rfile:
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                line = ""
            reply = protocol.handle_command(line)
            self.wfile.write(reply.encode("utf-8") + b"\n")
            self.wfile.flush()


class PlantServer(socketserver.TCPServer):
    """Serves one client connection at a time; later connections queue.

    The plant is an exclusive resource, so the single-threaded accept loop is
    a feature: replies always correspond one-to-one, in order, with the lines
    of the connection being served.
    """

    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], plant: TwinPlant):
        super().__init__(address, _LineHandler)
        self.plant = plant
        self.protocol = PlantProtocol(plant)


class TcpPlantClient:
    """Drives a remote plant through the line protocol.

    Presents the same read/apply/advance surface as :class:`TwinPlant`, so the
    control loop cannot tell a served plant from an in-process one.  The
    client keeps its own run-relative clock: accumulated X_ADV time in
    lockstep, wall time since connect in realtime, where :meth:`advance`
    sleeps and sends nothing.
    """

    def __init__(self, host: str, port: int, mode: str = LOCKSTEP, timeout: float = 10.0):
        if mode not in CLOCK_MODES:
            raise InvalidInput(f"unknown clock mode {mode!r}")
        self.mode = mode
        try:
            self._sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise PlantIoError(f"cannot connect to plant at {host}:{port}: {exc}") from exc
        self._rfile = self._sock.makefile("rb")
        self._clock = 0.0
        self._wall0 = time.monotonic()

    @property
    def clock(self) -> float:
        if self.mode == REALTIME:
            return time.monotonic() - self._wall0
        return self._clock

    def _exchange(self, command: str) -> str:
        try:
            self._sock.sendall(command.encode("utf-8") + b"\n")
            reply = self._rfile.readline()
        except OSError as exc:
            raise PlantIoError(f"plant link failed during {command!r}: {exc}") from exc
        if not reply:
            raise PlantIoError(f"plant closed the connection during {command!r}")
        return reply.decode("utf-8").rstrip("\n")

    def read_temperature(self) -> PlantSample:
        reply = self._exchange("T1")
        try:
            t_sensor = float(reply)
        except ValueError:
            raise PlantIoError(f"unparseable temperature reply {reply!r}") from None
        return PlantSample(self.clock, t_sensor)

    def apply_heater(self, action: HeaterAction) -> None:
        reply = self._exchange(f"Q1 {action.duty:.0f}")
        if reply == "ERR":
            raise PlantIoError(f"plant rejected heater command for {action}")

    def advance(self, dt: float) -> None:
        if self.mode == REALTIME:
            time.sleep(dt)
            return
        reply = self._exchange(f"X_ADV {dt!r}")
        if reply != "OK":
            raise PlantIoError(f"plant rejected clock advance of {dt} s: {reply!r}")
        self._clock += dt

    def close(self) -> None:
        try:
            self._rfile.close()
            self._sock.close()
        except OSError:
            pass
