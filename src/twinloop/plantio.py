"""Plant access: binary heater actions, the in-process twin plant, and the
TCP line protocol that exposes the same plant to external controllers.

The wire protocol is deliberately dumb hobby-firmware style: one UTF-8
command per line, one reply line per command, in order, temperatures always
printed with exactly two decimals.  A controller that speaks it to the
bundled server could drive a real serial-attached rig through the same verbs.
"""

from __future__ import annotations

import enum
import math
import socket
import socketserver
import time
from collections.abc import Callable
from dataclasses import dataclass

from . import twin
from .errors import InvalidInput, PlantIoError
from .jsonio import round_half_away

PROTOCOL_VERSION = "AGENTIC-TWIN 1.0"

LOCKSTEP = "lockstep"
REALTIME = "realtime"
CLOCK_MODES = (LOCKSTEP, REALTIME)

# A served connection that sends no complete line this long after connecting
# is dropped, so a silent client cannot hold the single-connection server.
FIRST_LINE_TIMEOUT_S = 10.0


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
      MODE      -> the plant's clock mode, "lockstep" or "realtime"
      X_ADV <s> -> lockstep only: advance the sim clock by s seconds; "OK"
    Anything else, including malformed arguments, replies "ERR".  Each line
    is answered on its own, so a client may send several lines before it
    reads their replies.
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
        if verb == "MODE" and len(parts) == 1:
            return self.plant.mode
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


class _LineHandler(socketserver.BaseRequestHandler):
    """Answers every complete line of one read, in order, with one send."""

    def handle(self) -> None:
        protocol: PlantProtocol = self.server.protocol  # type: ignore[attr-defined]
        sock: socket.socket = self.request
        # pipelined replies must not wait for the client's delayed ACK
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        deadline: float | None = time.monotonic() + FIRST_LINE_TIMEOUT_S
        pending = b""
        while True:
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0.0:
                    return
                sock.settimeout(remaining)
            try:
                data = sock.recv(65536)
            except TimeoutError:
                return
            *lines, pending = (pending + data).split(b"\n")
            if not data and pending:
                lines.append(pending)  # an unterminated last line before EOF
            if lines:
                if deadline is not None:
                    deadline = None
                    sock.settimeout(None)
                replies = []
                for raw in lines:
                    try:
                        line = raw.decode("utf-8")
                    except UnicodeDecodeError:
                        line = ""
                    replies.append(protocol.handle_command(line))
                sock.sendall(("\n".join(replies) + "\n").encode("utf-8"))
            if not data:
                return


class PlantServer(socketserver.TCPServer):
    """Serves one client connection at a time; later connections queue.

    The plant is an exclusive resource, so the single-threaded accept loop is
    a feature: replies always correspond one-to-one, in order, with the lines
    of the connection being served.  A connection that sends no complete
    line within ``FIRST_LINE_TIMEOUT_S`` of connecting is closed, so a silent
    client cannot hold the plant; once a line has arrived the connection may
    idle for as long as its controller thinks.
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

    The link is pipelined and keeps the order of the commands.  ``Q1`` and
    ``X_ADV`` replies only confirm, so those commands are queued and the
    clock moves at once; :meth:`read_temperature` sends the queue and its
    ``T1`` in one write, then checks the queued replies in order before it
    reads its own.  In realtime ``Q1`` is sent at once, because the heater
    must switch now; only its check waits.  :meth:`close` sends and checks
    what is still queued.  Connecting asks the plant's ``MODE`` and refuses
    a plant whose clock mode is not ``mode``.
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
        # lines not sent yet, and every command whose reply is still unread,
        # with the check its reply must pass
        self._outbox: list[str] = []
        self._unread: list[tuple[str, Callable[[str], None] | None]] = []
        self._failed = False
        self._clock = 0.0
        try:
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            served = self._request("MODE")
            if served != mode:
                raise PlantIoError(
                    f"this run needs a {mode} plant, but the plant at {host}:{port} "
                    f"answered MODE with {served!r}"
                )
        except (OSError, PlantIoError):
            self._disconnect()
            raise
        self._wall0 = time.monotonic()

    @property
    def clock(self) -> float:
        if self.mode == REALTIME:
            return time.monotonic() - self._wall0
        return self._clock

    def _queue(self, line: str, check: Callable[[str], None] | None) -> None:
        self._outbox.append(line)
        self._unread.append((line, check))

    def _send(self) -> None:
        if not self._outbox:
            return
        data = "".join(f"{line}\n" for line in self._outbox).encode("utf-8")
        try:
            self._sock.sendall(data)
        except OSError as exc:
            self._failed = True
            raise PlantIoError(f"plant link failed during {self._outbox[-1]!r}: {exc}") from exc
        self._outbox.clear()

    def _confirm(self) -> str:
        """Send the queue in one write, then read and check the reply of every
        unread command in order; returns the last reply."""
        self._send()
        unread, self._unread = self._unread, []
        reply = ""
        try:
            for line, check in unread:
                try:
                    raw = self._rfile.readline()
                except OSError as exc:
                    raise PlantIoError(f"plant link failed during {line!r}: {exc}") from exc
                if not raw:
                    raise PlantIoError(f"plant closed the connection during {line!r}")
                # undecodable bytes fail the reply's check, not the decoder
                reply = raw.decode("utf-8", "replace").rstrip("\n")
                if check is not None:
                    check(reply)
        except PlantIoError:
            self._failed = True
            raise
        return reply

    def _request(self, line: str) -> str:
        self._queue(line, None)
        return self._confirm()

    def read_temperature(self) -> PlantSample:
        reply = self._request("T1")
        try:
            t_sensor = float(reply)
        except ValueError:
            t_sensor = math.nan  # refused below, as a non-finite reply is
        if not math.isfinite(t_sensor):
            raise PlantIoError(f"unparseable temperature reply {reply!r}")
        return PlantSample(self.clock, t_sensor)

    def apply_heater(self, action: HeaterAction) -> None:
        line = f"Q1 {action.duty:.0f}"

        def check(reply: str) -> None:
            if reply == "ERR":
                raise PlantIoError(f"plant rejected heater command for {action}: {line!r}")

        self._queue(line, check)
        if self.mode == REALTIME:
            self._send()

    def advance(self, dt: float) -> None:
        if self.mode == REALTIME:
            time.sleep(dt)
            return

        def check(reply: str) -> None:
            if reply != "OK":
                raise PlantIoError(f"plant rejected clock advance of {dt} s: {reply!r}")

        self._queue(f"X_ADV {dt!r}", check)
        self._clock += dt

    def close(self) -> None:
        """Send and check the queued commands, unless the link has already
        failed, then disconnect."""
        try:
            if self._unread and not self._failed:
                self._confirm()
        finally:
            self._disconnect()

    def _disconnect(self) -> None:
        try:
            self._rfile.close()
            self._sock.close()
        except OSError:
            pass
