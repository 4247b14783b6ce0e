"""The plant over TCP: a single-connection server for :class:`PlantProtocol`
and the client that drives it.

This is the only module that loads the socket stack.  Import it where a run
serves or drives a remote plant, during set-up, never inside the loop.
"""

from __future__ import annotations

import math
import socket
import socketserver
import struct
import time

from .errors import InvalidInput, PlantIoError
from .plantio import CLOCK_MODES, LOCKSTEP, REALTIME, HeaterAction, PlantProtocol, TwinPlant
from .twin import TwinState

# A served connection that sends no complete line this long after connecting
# is dropped, so a silent client cannot hold the single-connection server.
FIRST_LINE_TIMEOUT_S = 10.0
# The client's longest wait for a plant to accept it, to take a write, or to
# send every reply to one write, counted from that write.
REPLY_TIMEOUT_S = 10.0
# The longest line either end reads, in bytes, newline excluded: the client's
# longest command is about 30 and a reply at most 313 (a float with two
# decimals).  A longer line ends the connection, with ERR from the server and
# a failed run at the client, so neither end holds a line without end.
MAX_LINE_BYTES = 1024


class _LineHandler(socketserver.BaseRequestHandler):
    """Answers every complete line of one read, in order, with one send;
    a line longer than ``MAX_LINE_BYTES`` is the connection's last, and a
    socket error ends the connection without a word."""

    def handle(self) -> None:
        try:
            self._serve(self.request, self.server.protocol.handle_command)  # type: ignore[attr-defined]
        except OSError:  # a connection that times out, resets or breaks ends quietly
            pass

    def _serve(self, sock: socket.socket, answer) -> None:
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
            data = sock.recv(65536)
            *lines, pending = (pending + data).split(b"\n")
            # an unterminated last line is answered at EOF, or once it is too long
            if pending and (not data or len(pending) > MAX_LINE_BYTES):
                lines.append(pending)
            if lines:
                if deadline is not None:
                    deadline = None
                    sock.settimeout(None)
                long = max(map(len, lines)) > MAX_LINE_BYTES
                if long:  # the connection ends with ERR to its first long line
                    lines = lines[: [len(raw) > MAX_LINE_BYTES for raw in lines].index(True)]
                    data = b""
                # a replaced byte lands inside a token, so the line gets ERR
                replies = [answer(raw.decode("utf-8", "replace")) for raw in lines]
                if long:
                    replies.append("ERR")
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
    idle for as long as its controller thinks.  A line longer than
    ``MAX_LINE_BYTES`` is answered ``ERR`` and closes the connection.
    """

    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], plant: TwinPlant):
        if ":" in address[0]:  # an IPv6 literal
            self.address_family = socket.AF_INET6
        super().__init__(address, _LineHandler)
        self.protocol = PlantProtocol(plant)


class TcpPlantClient:
    """Drives a remote plant through the line protocol.

    Presents the same read/apply/advance surface as :class:`TwinPlant`, so the
    control loop cannot tell a served plant from an in-process one.  The
    client keeps its own run-relative clock: accumulated X_ADV time in
    lockstep, wall time since connect in realtime, where :meth:`advance`
    sleeps and sends nothing.

    The link is pipelined and keeps the order of the commands in one queue:
    each command whose reply is not checked yet.  ``Q1`` and ``X_ADV``
    replies only confirm, so in lockstep those commands wait in the queue and
    the clock moves at once; :meth:`read_temperature` sends the queue and its
    ``T1`` in one write and checks the queued replies in order before it
    returns its own, so a lockstep episode is one ``send`` and one ``recv``.
    In realtime ``Q1`` is sent and checked at once, because the heater must
    switch now.  Bytes read past the last reply fail the call, as they answer
    no command.  :meth:`close` sends and checks what is still queued; a
    failed call leaves nothing queued.  Connecting asks the plant's ``MODE``
    and refuses a plant whose clock mode is not ``mode``.  The socket
    blocks, with each write and read bounded by the kernel (``SO_SNDTIMEO``,
    ``SO_RCVTIMEO``), and all the replies to one write must arrive within
    ``REPLY_TIMEOUT_S`` of it, or the call fails with ``plant reply to 'T1'
    timed out after 10.0 s``.
    """

    def __init__(self, host: str, port: int, mode: str = LOCKSTEP):
        if mode not in CLOCK_MODES:
            raise InvalidInput(f"unknown clock mode {mode!r}")
        self.mode = mode
        try:
            self._sock = socket.create_connection((host, port), timeout=REPLY_TIMEOUT_S)
        except OSError as exc:
            raise PlantIoError(f"cannot connect to plant at {host}:{port}: {exc}") from exc
        # each command whose reply is not checked yet, with its verb and argument
        self._unread: list[tuple[str, str, object]] = []
        self._clock = 0.0
        self._reading: float | None = None
        try:
            self._sock.settimeout(None)
            for option in (socket.SO_RCVTIMEO, socket.SO_SNDTIMEO):
                self._sock.setsockopt(socket.SOL_SOCKET, option, _timeval(REPLY_TIMEOUT_S))
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

    @property
    def state(self) -> TwinState:
        """Both nodes at the last reading, at this clock: the plant sends its sensor alone."""
        if self._reading is None:
            raise PlantIoError("the plant has no state before its first reading")
        return TwinState(self._reading, self._reading, self.clock)

    def _confirm(self) -> str:
        """Send the queue in one write, then read one reply per queued command
        and check them in order; returns the last reply.  The queue is empty
        after, whether the call returns or raises."""
        unread, self._unread = self._unread, []
        try:
            self._sock.sendall(("\n".join(line for line, _, _ in unread) + "\n").encode("utf-8"))
        except OSError as exc:
            raise PlantIoError(f"plant link failed during {unread[-1][0]!r}: {exc}") from exc
        deadline = time.monotonic() + REPLY_TIMEOUT_S
        sock, data, start, reads = self._sock, b"", 0, 0
        try:
            for line, verb, arg in unread:
                # a reply ends within MAX_LINE_BYTES, or is refused unread
                while (end := data.find(b"\n", start, start + MAX_LINE_BYTES + 1)) < 0:
                    if len(data) - start > MAX_LINE_BYTES:
                        raise PlantIoError(f"plant reply to {line!r} is longer than {MAX_LINE_BYTES} bytes")
                    try:
                        if reads:
                            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, _timeval(deadline - time.monotonic()))
                        reads += 1
                        more = sock.recv(65536)
                    except BlockingIOError as exc:  # the kernel's bound ran out
                        raise PlantIoError(f"plant reply to {line!r} timed out after {REPLY_TIMEOUT_S} s") from exc
                    except OSError as exc:
                        raise PlantIoError(f"plant link failed during {line!r}: {exc}") from exc
                    if not more:
                        raise PlantIoError(f"plant closed the connection during {line!r}")
                    data += more
                reply, start = data[start:end], end + 1
                if verb == "X_ADV" and reply != b"OK":
                    text = reply.decode("utf-8", "replace")  # undecodable bytes are quoted too
                    raise PlantIoError(f"plant rejected clock advance of {arg} s: {text!r}")
                if verb == "Q1" and reply == b"ERR":
                    raise PlantIoError(f"plant rejected heater command for {arg}: {line!r}")
        finally:
            if reads > 1:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, _timeval(REPLY_TIMEOUT_S))
        # a reply with no command would be read as the next command's
        if start < len(data):
            raise PlantIoError(f"plant sent more than the replies to {line!r}")
        # undecodable bytes fail the reading's parse, not the decoder
        return reply.decode("utf-8", "replace")

    def _request(self, line: str) -> str:
        self._unread.append((line, line, None))
        return self._confirm()

    def read_temperature(self) -> float:
        reply = self._request("T1")
        try:
            t_sensor = float(reply)
        except ValueError:
            t_sensor = math.nan  # refused below, as a non-finite reply is
        if not math.isfinite(t_sensor):
            raise PlantIoError(f"unparseable temperature reply {reply!r}")
        self._reading = t_sensor
        return t_sensor

    def apply_heater(self, action: HeaterAction) -> None:
        self._unread.append((f"Q1 {action.duty:.0f}", "Q1", action))
        if self.mode == REALTIME:  # the heater switches now, and a refusal fails here
            self._confirm()

    def advance(self, dt: float) -> None:
        if self.mode == REALTIME:
            time.sleep(dt)
            return
        self._unread.append((f"X_ADV {dt!r}", "X_ADV", dt))
        self._clock += dt

    def close(self) -> None:
        """Send and check the queued commands, then disconnect; a failed
        link has left nothing queued."""
        try:
            if self._unread:
                self._confirm()
        finally:
            self._disconnect()

    def _disconnect(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


def _timeval(seconds: float) -> bytes:
    """``seconds`` as the POSIX ``struct timeval`` of ``SO_RCVTIMEO`` and ``SO_SNDTIMEO``;
    one that rounds to 0 would wait without end, so it raises as a read past its bound does."""
    usec = round(seconds * 1e6)
    if usec <= 0:
        raise BlockingIOError
    return struct.pack("@ll", *divmod(usec, 1_000_000))
