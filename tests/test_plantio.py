"""Plant layer tests: the in-process twin plant, the line protocol, and the
TCP server/client pair."""

import contextlib
import errno
import hashlib
import itertools
import math
import os
import re
import socket
import struct
import threading
import time
import types
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from test_orchestrator import BudgetPlant, Mangling, ReadBudget, lockstep_runs
from twinloop.backends import LatencySpec, ScriptedBackend, ScriptedPolicy
from twinloop.errors import InvalidInput, PlantIoError
from twinloop.jsonio import dumps_record
from twinloop.orchestrator import RunConfig, ValidatorMode, run_loop
from twinloop import tcp
from twinloop.plantio import (
    CLOCK_MODES,
    HeaterAction,
    PlantProtocol,
    TwinPlant,
    LOCKSTEP,
    REALTIME,
    round_half_away,
)
from twinloop.tcp import PlantServer, TcpPlantClient
from twinloop.twin import TwinParams, TwinState


class TestHeaterAction:
    def test_duty_mapping_is_exact(self):
        assert HeaterAction.ON.duty == 100.0
        assert HeaterAction.OFF.duty == 0.0

    def test_opposite(self):
        assert HeaterAction.ON.opposite is HeaterAction.OFF
        assert HeaterAction.OFF.opposite is HeaterAction.ON


def reading(t_sensor):
    """The plant's reading, and the T1 text, at a sensor temperature."""
    plant = TwinPlant(initial_state=TwinState(30.0, t_sensor, 0.0))
    return plant.read_temperature(), PlantProtocol(plant).handle_command("T1")


class TestFormatCelsius:
    """A plant reads two decimals, ties rounded away from zero, and T1
    prints that reading."""

    def test_truncates_to_nearest(self):
        assert reading(26.434999) == (26.43, "26.43")

    def test_ties_round_away_from_zero(self):
        assert reading(26.445) == (26.45, "26.45")
        assert reading(2.5e-3) == (0.0, "0.00")
        assert reading(0.005) == (0.01, "0.01")

    def test_exact_values_untouched(self):
        assert reading(23.0) == (23.0, "23.00")
        assert reading(100.0) == (100.0, "100.00")

    @given(st.floats(0.0, 60.0))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_within_half_a_centidegree(self, t):
        value, text = reading(t)
        assert abs(value - t) <= 0.005 + 1e-12
        assert float(text) == value


class TestTwinPlant:
    def test_initial_sample(self):
        plant = TwinPlant()
        assert plant.read_temperature() == 23.0
        assert plant.clock == 0.0

    def test_read_does_not_advance_lockstep_clock(self):
        plant = TwinPlant()
        for _ in range(5):
            plant.read_temperature()
        assert plant.clock == 0.0

    def test_heating_after_apply_and_advance(self):
        plant = TwinPlant()
        plant.apply_heater(HeaterAction.ON)
        plant.advance(60.0)
        assert plant.read_temperature() > 23.0

    def test_apply_off_at_equilibrium_changes_nothing(self):
        plant = TwinPlant()
        plant.apply_heater(HeaterAction.OFF)
        plant.advance(300.0)
        assert plant.read_temperature() == pytest.approx(23.0, abs=1e-12)

    def test_zero_duration_on_off_is_a_no_op(self):
        toggled = TwinPlant()
        toggled.apply_heater(HeaterAction.ON)
        toggled.apply_heater(HeaterAction.OFF)
        toggled.advance(120.0)
        untouched = TwinPlant()
        untouched.advance(120.0)
        assert toggled.read_temperature() == untouched.read_temperature()

    def test_longer_heating_is_strictly_hotter(self):
        short, long = TwinPlant(), TwinPlant()
        for plant in (short, long):
            plant.apply_heater(HeaterAction.ON)
        short.advance(60.0)
        long.advance(120.0)
        assert long.read_temperature() > short.read_temperature()

    def test_realtime_advance_sleeps(self):
        plant = TwinPlant(mode=REALTIME)
        before = plant.clock
        plant.advance(0.02)
        assert plant.clock - before >= 0.02

    def test_realtime_clock_moves_by_itself(self):
        plant = TwinPlant(mode=REALTIME)
        first = plant.clock
        plant.read_temperature()
        assert plant.clock >= first

    def test_realtime_state_catches_up_with_wall_time(self):
        plant = TwinPlant(mode=REALTIME)
        plant.set_duty(100.0)
        time.sleep(0.05)
        state = plant.state
        assert state.clock >= 0.05 and state.t_heater > 23.0

    def test_invalid_mode(self):
        with pytest.raises(InvalidInput):
            TwinPlant(mode="warp")

    @pytest.mark.parametrize("duty", [100.01, -0.01])
    def test_a_finite_duty_just_outside_the_range_is_refused(self, duty):
        plant = TwinPlant()
        with pytest.raises(InvalidInput, match=r"duty must lie in \[0, 100\]"):
            plant.set_duty(duty)
        assert plant.duty == 0.0


class TestProtocol:
    def make(self, mode=LOCKSTEP, state=None):
        return PlantProtocol(TwinPlant(mode=mode, initial_state=state))

    def test_t1_at_ambient(self):
        assert self.make().handle_command("T1\n") == "23.00"

    def test_q1_clamps_high_and_low(self):
        protocol = self.make()
        assert protocol.handle_command("Q1 150") == "100.00"
        assert protocol.handle_command("Q1 -3") == "0.00"
        assert protocol.handle_command("Q1 37.5") == "37.50"

    def test_ver(self):
        assert self.make().handle_command("VER") == "AGENTIC-TWIN 1.0"

    def test_mode_names_the_clock(self):
        assert self.make(LOCKSTEP).handle_command("mode") == "lockstep"
        assert self.make(REALTIME).handle_command("MODE") == "realtime"

    def test_x_adv_lockstep_only(self):
        assert self.make(LOCKSTEP).handle_command("X_ADV 5.0") == "OK"
        assert self.make(REALTIME).handle_command("X_ADV 5.0") == "ERR"

    def test_verbs_are_case_insensitive(self):
        protocol = self.make()
        assert protocol.handle_command("t1") == "23.00"
        assert protocol.handle_command("q1 100") == "100.00"
        assert protocol.handle_command("x_adv 10") == "OK"
        assert protocol.handle_command("ver") == "AGENTIC-TWIN 1.0"

    @pytest.mark.parametrize(
        "line",
        ["", "  ", "FROB", "T1 now", "Q1", "Q1 a lot", "Q1 nan", "Q1 inf",
         "X_ADV", "X_ADV fast", "X_ADV -5", "X_ADV 0", "VER 2", "MODE now"],
    )
    def test_malformed_lines_reply_err(self, line):
        assert self.make().handle_command(line) == "ERR"

    def test_x_adv_to_a_clock_that_is_not_finite_replies_err(self):
        protocol = self.make()
        assert protocol.handle_command("X_ADV 1e308") == "OK"
        state = protocol.plant.state
        assert protocol.handle_command("X_ADV 1e308") == "ERR"
        assert protocol.plant.state == state
        # the plant still serves every verb
        assert protocol.handle_command("Q1 100") == "100.00"
        assert protocol.handle_command("X_ADV 1") == "OK"
        assert protocol.handle_command("T1") == "23.00"

    @settings(max_examples=200, deadline=None)
    @given(
        mode=st.sampled_from([LOCKSTEP, REALTIME]),
        lines=st.lists(
            st.builds(
                "{} {}".format,
                st.sampled_from(["T1", "Q1", "X_ADV", "x_adv", "VER", "MODE", "FROB"]),
                st.sampled_from(["", "1", "5e-324", "1e308", "1.7976931348623157e308", "-1", "inf", "nan", "?"]),
            ),
            max_size=8,
        ),
    )
    @example(mode=LOCKSTEP, lines=["X_ADV 1e308", "X_ADV 1e308", "X_ADV 1", "T1"])
    def test_no_line_raises(self, mode, lines):
        protocol = self.make(mode)
        for line in lines:
            assert isinstance(protocol.handle_command(line), str)

    def test_protocol_reports_two_decimal_quantized_reading(self):
        state = TwinState(30.0, 26.434999, 0.0)
        assert self.make(state=state).handle_command("T1") == "26.43"

    def test_heating_visible_through_protocol(self):
        protocol = self.make()
        assert protocol.handle_command("Q1 100") == "100.00"
        assert protocol.handle_command("X_ADV 600") == "OK"
        reading = float(protocol.handle_command("T1"))
        # 600 s at full duty from ambient: about 3.5 slow time constants,
        # still ~0.36 degC shy of the 33 degC steady state.
        assert reading == pytest.approx(32.64, abs=0.05)

    def test_lockstep_script_gives_identical_transcripts(self):
        script = ["VER", "T1", "Q1 100", "X_ADV 90", "T1", "Q1 0", "X_ADV 45", "T1", "NOISE"]
        protocol_a, protocol_b = self.make(), self.make()
        replies_a = [protocol_a.handle_command(c) for c in script]
        replies_b = [protocol_b.handle_command(c) for c in script]
        assert replies_a == replies_b


@contextlib.contextmanager
def serving(plant):
    server = PlantServer(("127.0.0.1", 0), plant)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


@pytest.fixture
def served_plant():
    with serving(TwinPlant(mode=LOCKSTEP)) as server:
        yield server.server_address


def raw_session(address, commands):
    # close the makefile explicitly: it pins the socket open, and a half-open
    # connection would park the single-threaded server forever
    with socket.create_connection(address, timeout=5.0) as sock:
        with sock.makefile("rb") as fh:
            replies = []
            for command in commands:
                sock.sendall(command.encode() + b"\n")
                replies.append(fh.readline().decode().rstrip("\n"))
            return replies


def one_segment_session(address, data):
    """Send ``data`` in one write, end the stream, and read every reply."""
    with socket.create_connection(address, timeout=5.0) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        with sock.makefile("rb") as fh:
            return fh.read().decode().splitlines()


@contextlib.contextmanager
def fake_plant(*writes, pause=0.0, close=False):
    """A client of a lockstep plant that answers ``MODE``, and each ``T1`` by
    sending the bytes ``writes`` one by one, ``pause`` s apart: they carry
    the replies to the lines sent since the last ``T1``, that one included.
    With ``close`` the plant closes the connection after the writes."""

    def serve(listener):
        conn, _ = listener.accept()
        # the client may close with the rest of a long reply unread
        with conn, conn.makefile("rb") as lines, contextlib.suppress(OSError):
            for raw in lines:
                if raw.strip() == b"MODE":
                    conn.sendall(b"lockstep\n")
                elif raw.strip() == b"T1":
                    for i, data in enumerate(writes):
                        time.sleep(pause if i else 0.0)
                        conn.sendall(data)
                    if close:
                        return

    with socket.create_server(("127.0.0.1", 0)) as listener:
        thread = threading.Thread(target=serve, args=(listener,), daemon=True)
        thread.start()
        client = TcpPlantClient(*listener.getsockname(), mode=LOCKSTEP)
        try:
            yield client
        finally:
            client.close()
        thread.join(5.0)
        assert not thread.is_alive()


def kernel_bounds(sock):
    """A socket's ``SO_RCVTIMEO`` and ``SO_SNDTIMEO``, as (seconds, microseconds)."""
    size = struct.calcsize("@ll")
    return [struct.unpack("@ll", sock.getsockopt(socket.SOL_SOCKET, option, size))
            for option in (socket.SO_RCVTIMEO, socket.SO_SNDTIMEO)]


class CountingSocket:
    """A client socket that counts its writes, reads and options set."""

    def __init__(self, sock):
        self.sock, self.sends, self.recvs, self.options = sock, 0, 0, 0

    def sendall(self, data):
        self.sends += 1
        return self.sock.sendall(data)

    def recv(self, size):
        self.recvs += 1
        return self.sock.recv(size)

    def setsockopt(self, *args):
        self.options += 1
        return self.sock.setsockopt(*args)

    def __getattr__(self, name):
        return getattr(self.sock, name)


@pytest.fixture
def client_sockets(monkeypatch):
    """Every socket a client connects from now on, counting its writes."""
    sockets = []
    connect = socket.create_connection

    def counting(*args, **kwargs):
        sockets.append(CountingSocket(connect(*args, **kwargs)))
        return sockets[-1]

    monkeypatch.setattr(tcp.socket, "create_connection", counting)
    return sockets


class TestServer:
    def test_serves_basic_session(self, served_plant):
        assert raw_session(served_plant, ["T1"]) == ["23.00"]

    def test_a_refused_x_adv_keeps_the_connection_and_the_plant(self, served_plant):
        assert raw_session(served_plant, ["X_ADV 1e308", "X_ADV 1e308", "T1"]) == ["OK", "ERR", "23.00"]
        assert raw_session(served_plant, ["X_ADV 1e308", "X_ADV 1", "VER"]) == ["ERR", "OK", "AGENTIC-TWIN 1.0"]

    def test_two_sequential_connections(self, served_plant):
        first = raw_session(served_plant, ["VER", "Q1 100", "X_ADV 60"])
        second = raw_session(served_plant, ["T1"])
        assert first == ["AGENTIC-TWIN 1.0", "100.00", "OK"]
        assert float(second[0]) > 23.0

    def test_replies_stay_in_order(self, served_plant):
        commands = ["T1", "VER", "Q1 12", "BAD", "T1"]
        replies = raw_session(served_plant, commands)
        assert replies == ["23.00", "AGENTIC-TWIN 1.0", "12.00", "ERR", "23.00"]

    @pytest.mark.parametrize(
        "data, replies",
        [
            (b"T1\nVER\nQ1 12\nBAD\nT1\n", ["23.00", "AGENTIC-TWIN 1.0", "12.00", "ERR", "23.00"]),
            # an unterminated last line before EOF is still answered
            (b"VER\nT1", ["AGENTIC-TWIN 1.0", "23.00"]),
            (b"T1\n\xff\xfe\nMODE\n", ["23.00", "ERR", "lockstep"]),
        ],
    )
    def test_lines_of_one_segment_answered_in_order(self, served_plant, data, replies):
        assert one_segment_session(served_plant, data) == replies

    @pytest.mark.parametrize("first", [b"", b"VER\n"], ids=["first-line", "after-a-line"])
    def test_an_overlong_line_is_answered_err_and_ends_the_connection(self, served_plant, first):
        t0 = time.monotonic()
        with socket.create_connection(served_plant, timeout=5.0) as sock:
            # the server may close before it has read every byte
            with contextlib.suppress(OSError):
                sock.sendall(first + b"x" * 2**20)
            with sock.makefile("rb") as fh:
                replies = fh.read()
        assert replies == (b"AGENTIC-TWIN 1.0\n" if first else b"") + b"ERR\n"
        assert time.monotonic() - t0 < 1.0
        assert raw_session(served_plant, ["VER"]) == ["AGENTIC-TWIN 1.0"]

    def test_a_client_that_trickles_its_first_line_is_dropped_at_the_deadline(self, monkeypatch, capsys):
        # each look at the handler's clock moves it one second: the deadline
        # is set at 0 for 3 and is reached exactly at the third look, after
        # two reads that each get a byte, so no read times out
        ticks = itertools.count()
        monkeypatch.setattr(tcp, "time", types.SimpleNamespace(monotonic=lambda: float(next(ticks))))
        monkeypatch.setattr(tcp, "FIRST_LINE_TIMEOUT_S", 3.0)
        with serving(TwinPlant(mode=LOCKSTEP)) as server:
            with socket.create_connection(server.server_address, timeout=5.0) as trickle:
                for byte in (b"T", b"1"):
                    trickle.sendall(byte)
                    time.sleep(0.1)
                assert trickle.recv(64) == b""
            assert raw_session(server.server_address, ["VER"]) == ["AGENTIC-TWIN 1.0"]
        # the handler returned; it did not fail on a read with no time left
        assert capsys.readouterr().err == ""

    def test_a_client_that_resets_its_connection_ends_it_quietly(self, served_plant, capsys):
        with socket.create_connection(served_plant, timeout=5.0) as sock:
            # close with a reset, so the server's next read or write fails
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            sock.sendall(b"T1\n" * 2000)
        # served only once the reset connection has ended
        assert raw_session(served_plant, ["VER"]) == ["AGENTIC-TWIN 1.0"]
        assert "Traceback" not in capsys.readouterr().err

    def test_a_line_completed_at_the_deadline_is_not_answered(self, monkeypatch):
        # as above, but the look that reaches the deadline first waits for
        # the newline to arrive: the connection ends with that line unread
        ticks = itertools.count()

        def monotonic():
            tick = next(ticks)
            if tick == 3:
                time.sleep(0.3)
            return float(tick)

        monkeypatch.setattr(tcp, "time", types.SimpleNamespace(monotonic=monotonic))
        monkeypatch.setattr(tcp, "FIRST_LINE_TIMEOUT_S", 3.0)
        with serving(TwinPlant(mode=LOCKSTEP)) as server:
            with socket.create_connection(server.server_address, timeout=5.0) as trickle:
                for byte in (b"T", b"1", b"\n"):
                    trickle.sendall(byte)
                    time.sleep(0.1)
                assert trickle.recv(64) == b""

    def test_a_line_of_the_longest_length_is_answered(self, served_plant):
        line = b"T1" + b" " * (tcp.MAX_LINE_BYTES - 2)
        assert one_segment_session(served_plant, line + b"\n" + line) == ["23.00", "23.00"]

    def test_a_line_of_the_longest_length_before_a_longer_one_is_answered(self, served_plant):
        line = b"T1" + b" " * (tcp.MAX_LINE_BYTES - 2)
        assert one_segment_session(served_plant, line + b"\n" + line + b" \nVER\n") == ["23.00", "ERR"]

    def test_a_connection_may_idle_past_the_first_line_deadline(self, monkeypatch):
        monkeypatch.setattr(tcp, "FIRST_LINE_TIMEOUT_S", 0.2)
        with serving(TwinPlant(mode=LOCKSTEP)) as server:
            with socket.create_connection(server.server_address, timeout=5.0) as sock, sock.makefile("rb") as fh:
                for _ in range(2):
                    sock.sendall(b"VER\n")
                    assert fh.readline() == b"AGENTIC-TWIN 1.0\n"
                    time.sleep(0.3)

    @pytest.mark.parametrize("greeting", [b"", b"T1"])
    def test_client_without_a_complete_line_is_dropped(self, monkeypatch, greeting):
        monkeypatch.setattr(tcp, "FIRST_LINE_TIMEOUT_S", 0.2)
        with serving(TwinPlant(mode=LOCKSTEP)) as server:
            with socket.create_connection(server.server_address, timeout=5.0) as silent:
                silent.sendall(greeting)
                # queued behind the silent connection until it is dropped
                client = TcpPlantClient(*server.server_address, mode=LOCKSTEP)
                try:
                    assert client.read_temperature() == 23.0
                finally:
                    client.close()
                assert silent.recv(64) == b""


def grammar_reply(raw, plant):
    """The pattern of the reply the wire grammar gives the line ``raw``, acting
    on ``plant``, a twin of the plant that answers: one verb alone, or one
    verb and one finite number; anything else, a line that is not UTF-8
    included, is ``ERR``."""
    try:
        tokens = raw.decode("utf-8").split()
    except UnicodeDecodeError:
        return "ERR"
    verb = tokens[0].upper() if tokens else ""
    if len(tokens) == 1 and verb == "T1":
        # a realtime plant warms with wall time, which its twin cannot follow
        return re.escape(f"{plant.read_temperature():.2f}") if plant.mode == LOCKSTEP else r"-?\d+\.\d\d"
    if len(tokens) == 1 and verb in ("VER", "MODE"):
        return "AGENTIC-TWIN 1.0" if verb == "VER" else plant.mode
    try:
        value = float(tokens[1]) if len(tokens) == 2 else math.nan
    except ValueError:
        value = math.nan
    if verb == "Q1" and math.isfinite(value):
        plant.set_duty(min(100.0, max(0.0, value)))
        return re.escape(f"{round_half_away(plant.duty):.2f}")
    if verb == "X_ADV" and plant.mode == LOCKSTEP and value > 0.0 and math.isfinite(plant.clock + value):
        plant.advance(value)
        return "OK"
    return "ERR"


def any_case(word):
    return st.lists(st.booleans(), min_size=len(word), max_size=len(word)).map(
        lambda upper: "".join(c.upper() if u else c.lower() for c, u in zip(word, upper))
    )


SPACE = " \t\r\x0b\x0c\u00a0"
ARGUMENT = st.one_of(
    st.floats().map(repr),
    st.integers(-200, 200).map(str),
    st.sampled_from(["nan", "-nan", "inf", "-Infinity", "1e308", "5e-324", "1_0", "0x10", "1e", "?"]),
    st.text(alphabet="0123456789.e+-_xQTé", min_size=1, max_size=6),
)


@st.composite
def wire_lines(draw):
    """One line's bytes: a verb in any case, or none, with 0 to 2 arguments,
    whitespace around them and maybe a byte that is not UTF-8."""
    verb = draw(st.sampled_from(["", "T1", "Q1", "VER", "MODE", "X_ADV", "FROB"]).flatmap(any_case))
    line = draw(st.text(SPACE, max_size=2))
    for token in [verb, *draw(st.lists(ARGUMENT, max_size=2))]:
        line += token + draw(st.text(SPACE, min_size=1, max_size=2))
    raw = line.encode("utf-8")
    if draw(st.booleans()):
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(st.sampled_from([b"\xff", b"\xfe", b"\x80", b"\xc3", b"\xed\xa0\x80"])) + raw[at:]
    return raw


@pytest.fixture(scope="module")
def servers():
    """One served plant per clock mode; a test gives each connection a fresh
    plant by setting the server's ``protocol``."""
    with serving(TwinPlant(mode=LOCKSTEP)) as lockstep, serving(TwinPlant(mode=REALTIME)) as realtime:
        yield {LOCKSTEP: lockstep, REALTIME: realtime}


@settings(max_examples=150, deadline=None)
@given(mode=st.sampled_from(CLOCK_MODES), lines=st.lists(wire_lines(), min_size=1, max_size=6))
@example(mode=LOCKSTEP, lines=[b"x_adv 1e308", b"Q1\t37.5 ", b"X_Adv 1e308", b"t1", b"T1 \xff", b"\xffT1"])
@example(mode=REALTIME, lines=[b"\x0bmode\xc2\xa0", b"X_ADV 1", b"q1 -0.0", b"VER\r", b"Q1 nan", b"T1"])
def test_each_line_gets_the_reply_of_the_wire_grammar(servers, mode, lines):
    server = servers[mode]
    server.protocol = PlantProtocol(TwinPlant(mode=mode))
    served = one_segment_session(server.server_address, b"".join(raw + b"\n" for raw in lines))
    direct = PlantProtocol(TwinPlant(mode=mode))
    in_process = [direct.handle_command(raw.decode("utf-8", "replace")) for raw in lines]
    for replies in (in_process, served):
        twin = TwinPlant(mode=mode)
        assert len(replies) == len(lines)
        for raw, reply in zip(lines, replies):
            assert re.fullmatch(grammar_reply(raw, twin), reply), (raw, reply)


@pytest.mark.parametrize("t_sensor", [23.0, 26.445, -0.004, 1e11 + 0.125])
@pytest.mark.parametrize("served", [False, True], ids=["in-process", "served"])
def test_a_reading_is_the_float_of_the_t1_reply(served, t_sensor):
    plant = TwinPlant(initial_state=TwinState(30.0, t_sensor, 0.0))
    reply = PlantProtocol(plant).handle_command("T1")
    with serving(plant) if served else contextlib.nullcontext() as server:
        reader = TcpPlantClient(*server.server_address, mode=LOCKSTEP) if served else plant
        value = reader.read_temperature()
        if served:
            reader.close()
    assert type(value) is float and value == float(reply)


class TestTcpClient:
    def test_client_round_trip(self, served_plant):
        client = TcpPlantClient(*served_plant, mode=LOCKSTEP)
        try:
            assert client.read_temperature() == 23.0
            assert client.clock == 0.0
            client.apply_heater(HeaterAction.ON)
            client.advance(120.0)
            assert client.read_temperature() > 23.0
            assert client.clock == 120.0
        finally:
            client.close()

    @pytest.mark.parametrize("seed", [100, 101])
    def test_served_plant_gives_the_in_process_run(self, served_plant, seed):
        # both plants read two decimals, so even a reading at a band edge
        # takes the same decision in-process and over TCP
        def episode_lines(plant):
            backend = ScriptedBackend(
                ScriptedPolicy(kind="flip", p_wrong_first=0.4, p_correct_on_feedback=0.63, seed=seed),
                LatencySpec(kind="lognormal", sigma=0.5, seed=seed),
            )
            return [dumps_record(e) for e in run_loop(plant, backend, RunConfig(duration=2400.0))]

        client = TcpPlantClient(*served_plant, mode=LOCKSTEP)
        try:
            remote = episode_lines(client)
        finally:
            client.close()
        assert remote == episode_lines(TwinPlant())

    @pytest.mark.parametrize(
        ("horizon", "episodes", "overrides", "digest"),
        [(120.0, 423, 0, "5d08d4d862676cf6"), (300.0, 198, 30, "9d381c5a7486fc62")],
    )
    def test_a_twin_validated_run_over_a_served_plant_is_pinned(
        self, served_plant, horizon, episodes, overrides, digest
    ):
        # the twin starts each rollout with both nodes at the client's last reading
        validator = ValidatorMode(kind="twin", horizon=horizon, envelope=(20.0, 30.0))
        backend = ScriptedBackend(
            ScriptedPolicy(kind="flip", p_wrong_first=0.4, p_correct_on_feedback=0.63, seed=1),
            LatencySpec(kind="fixed", seconds=5.674),
        )
        client = TcpPlantClient(*served_plant, mode=LOCKSTEP)
        try:
            run = run_loop(client, backend, RunConfig(duration=2400.0, validator=validator), twin_params=TwinParams())
        finally:
            client.close()
        lines = "\n".join(dumps_record(e) for e in run)
        assert (len(run), sum(e.override for e in run)) == (episodes, overrides)
        assert hashlib.sha256(lines.encode()).hexdigest()[:16] == digest

    def test_state_is_the_last_reading_at_the_client_clock(self, served_plant):
        client = TcpPlantClient(*served_plant, mode=LOCKSTEP)
        try:
            with pytest.raises(PlantIoError, match="before its first reading"):
                client.state
            client.apply_heater(HeaterAction.ON)
            client.advance(30.0)
            t_sensor = client.read_temperature()
            client.advance(5.0)
            assert client.state == TwinState(t_sensor, t_sensor, 35.0)
        finally:
            client.close()

    def test_realtime_advance_sleeps_and_sends_nothing(self):
        with serving(TwinPlant(mode=REALTIME)) as server:
            seen = []
            handle = server.protocol.handle_command
            server.protocol.handle_command = lambda line: seen.append(line.strip()) or handle(line)
            # the served plant refuses to be advanced from outside
            assert raw_session(server.server_address, ["X_ADV 5"]) == ["ERR"]
            client = TcpPlantClient(*server.server_address, mode=REALTIME)
            try:
                before = client.clock
                client.advance(0.02)
                assert client.clock - before >= 0.02
                client.read_temperature()
            finally:
                client.close()
        assert seen == ["X_ADV 5", "MODE", "T1"]

    def test_one_write_per_episode(self, client_sockets):
        plant = TwinPlant(mode=LOCKSTEP)
        with serving(plant) as server:
            client = TcpPlantClient(*server.server_address, mode=LOCKSTEP)
            try:
                backend = ScriptedBackend(
                    ScriptedPolicy(kind="flip", p_wrong_first=0.4, p_correct_on_feedback=0.63, seed=3),
                    LatencySpec(kind="lognormal", sigma=0.5, seed=3),
                )
                episodes = run_loop(client, backend, RunConfig(duration=600.0))
            finally:
                client.close()
            # MODE at connect, one T1 per episode carrying the queued Q1 and
            # X_ADV lines, and the close flush that delivers the last Q1: each
            # one write, and all of its replies in one read
            assert (client_sockets[0].sends, client_sockets[0].recvs) == (len(episodes) + 2,) * 2
            # the two kernel bounds and TCP_NODELAY, all at connect
            assert client_sockets[0].options == 3
            assert plant.duty == episodes[-1].applied.duty
            assert plant.clock == client.clock

    @pytest.mark.parametrize("confirm", ["read_temperature", "close"])
    def test_rejected_heater_command_raises_at_the_next_confirm(self, confirm):
        with serving(TwinPlant(mode=LOCKSTEP)) as server:
            handle = server.protocol.handle_command
            server.protocol.handle_command = (
                lambda line: "ERR" if line.startswith("Q1") else handle(line)
            )
            client = TcpPlantClient(*server.server_address, mode=LOCKSTEP)
            try:
                client.apply_heater(HeaterAction.ON)
                with pytest.raises(PlantIoError, match="'Q1 100'"):
                    getattr(client, confirm)()
            finally:
                client.close()

    def test_rejected_clock_advance_raises_at_the_next_reading(self):
        with serving(TwinPlant(mode=LOCKSTEP)) as server:
            handle = server.protocol.handle_command
            server.protocol.handle_command = (
                lambda line: "ERR" if line.startswith("X_ADV") else handle(line)
            )
            client = TcpPlantClient(*server.server_address, mode=LOCKSTEP)
            try:
                client.advance(5.0)
                with pytest.raises(PlantIoError, match=r"^plant rejected clock advance of 5.0 s: 'ERR'$"):
                    client.read_temperature()
            finally:
                client.close()

    def test_realtime_heater_command_is_sent_at_once(self, client_sockets):
        plant = TwinPlant(mode=REALTIME)
        with serving(plant) as server:
            client = TcpPlantClient(*server.server_address, mode=REALTIME)
            try:
                client.apply_heater(HeaterAction.ON)
                assert client_sockets[0].sends == 2
                # no later call carries it: the plant switches on its own
                deadline = time.monotonic() + 5.0
                while plant.duty != 100.0 and time.monotonic() < deadline:
                    time.sleep(0.005)
                assert plant.duty == 100.0
            finally:
                client.close()

    def test_a_realtime_heater_command_is_confirmed_before_the_apply_returns(self, client_sockets):
        plant = TwinPlant(mode=REALTIME)
        with serving(plant) as server:
            client = TcpPlantClient(*server.server_address, mode=REALTIME)
            try:
                client.apply_heater(HeaterAction.ON)
                # MODE at connect, then Q1 sent and its reply read
                assert (client_sockets[0].sends, client_sockets[0].recvs) == (2, 2)
                assert plant.duty == 100.0
            finally:
                client.close()
            assert client_sockets[0].sends == 2

    def test_a_refused_realtime_heater_command_raises_at_the_apply(self):
        with serving(TwinPlant(mode=REALTIME)) as server:
            handle = server.protocol.handle_command
            server.protocol.handle_command = (
                lambda line: "ERR" if line.startswith("Q1") else handle(line)
            )
            client = TcpPlantClient(*server.server_address, mode=REALTIME)
            try:
                with pytest.raises(PlantIoError, match=r"^plant rejected heater command for ON: 'Q1 100'$"):
                    client.apply_heater(HeaterAction.ON)
            finally:
                client.close()

    @pytest.mark.parametrize("extra", [b"23.99\n", b"2"])
    def test_bytes_past_the_last_reply_fail_the_reading(self, extra):
        # they answer no command, so they must not be read as the next one's reply
        with fake_plant(b"23.45\n" + extra) as client:
            with pytest.raises(PlantIoError, match=r"^plant sent more than the replies to 'T1'$"):
                client.read_temperature()

    @pytest.mark.parametrize("served_mode, reply", [(REALTIME, "'realtime'"), (LOCKSTEP, "'ERR'")])
    def test_clock_mode_mismatch_refused_at_connect(self, served_mode, reply):
        with serving(TwinPlant(mode=served_mode)) as server:
            if served_mode == LOCKSTEP:
                # a plant that does not know MODE
                handle = server.protocol.handle_command
                server.protocol.handle_command = (
                    lambda line: "ERR" if line.strip() == "MODE" else handle(line)
                )
            with pytest.raises(PlantIoError, match=f"needs a lockstep plant.*{reply}"):
                TcpPlantClient(*server.server_address, mode=LOCKSTEP)

    def test_undecodable_reply_raises_plant_io_error(self):
        with fake_plant(b"\xff\n") as client:
            with pytest.raises(PlantIoError, match="unparseable temperature reply"):
                client.read_temperature()

    @pytest.mark.parametrize("reply", ["nan", "inf", "-inf"])
    def test_non_finite_temperature_reply_raises_plant_io_error(self, reply):
        with fake_plant(reply.encode() + b"\n") as client:
            with pytest.raises(PlantIoError, match=f"unparseable temperature reply '{reply}'"):
                client.read_temperature()

    @pytest.mark.parametrize(
        "pad, refused", [(tcp.MAX_LINE_BYTES - 5, False), (tcp.MAX_LINE_BYTES - 4, True), (2**23, True)]
    )
    def test_a_reply_beyond_the_line_limit_raises_plant_io_error(self, pad, refused):
        # the client reads at most MAX_LINE_BYTES of a reply, newline excluded,
        # and refuses a longer one without quoting it, however long it runs
        with fake_plant(b" " * pad + b"23.00\n") as client:
            if refused:
                with pytest.raises(PlantIoError) as excinfo:
                    client.read_temperature()
                assert str(excinfo.value) == f"plant reply to 'T1' is longer than {tcp.MAX_LINE_BYTES} bytes"
            else:
                assert client.read_temperature() == 23.0

    def test_the_socket_blocks_and_the_kernel_bounds_each_call(self, served_plant, client_sockets):
        # a Python timeout would poll before every send and recv
        client = TcpPlantClient(*served_plant, mode=LOCKSTEP)
        try:
            assert client_sockets[0].gettimeout() is None
            assert kernel_bounds(client_sockets[0]) == [divmod(round(tcp.REPLY_TIMEOUT_S * 1e6), 10**6)] * 2
        finally:
            client.close()

    def test_a_silent_plant_fails_the_reading_at_the_bound(self, monkeypatch):
        monkeypatch.setattr(tcp, "REPLY_TIMEOUT_S", 0.3)
        with fake_plant() as client:
            t0 = time.monotonic()
            with pytest.raises(PlantIoError, match=r"^plant reply to 'T1' timed out after 0\.3 s$"):
                client.read_temperature()
            assert 0.25 < time.monotonic() - t0 < 0.6

    def test_a_trickled_reply_is_bounded_from_its_write(self, monkeypatch):
        # each byte comes within the bound of the one before, the last 1.0 s
        # after the write
        monkeypatch.setattr(tcp, "REPLY_TIMEOUT_S", 0.3)
        with fake_plant(*(b"23.00\n"[i : i + 1] for i in range(6)), pause=0.2) as client:
            t0 = time.monotonic()
            with pytest.raises(PlantIoError, match=r"^plant reply to 'T1' timed out after 0\.3 s$"):
                client.read_temperature()
            assert time.monotonic() - t0 < 0.6

    def test_a_reply_in_two_reads_leaves_the_standing_bound(self, client_sockets):
        with fake_plant(b"23.", b"45\n", pause=0.05) as client:
            assert client.read_temperature() == 23.45
            assert client_sockets[0].recvs == 3
            assert kernel_bounds(client_sockets[0]) == [divmod(round(tcp.REPLY_TIMEOUT_S * 1e6), 10**6)] * 2

    def test_a_reply_cut_by_a_close_fails_the_reading(self):
        with fake_plant(b"23.4", close=True) as client:
            with pytest.raises(PlantIoError, match=r"^plant closed the connection during 'T1'$"):
                client.read_temperature()

    def test_a_bound_is_a_posix_timeval_and_never_zero(self):
        assert tcp._timeval(10.0) == struct.pack("@ll", 10, 0)
        assert tcp._timeval(2.5) == struct.pack("@ll", 2, 500000)
        assert tcp._timeval(6e-7) == struct.pack("@ll", 0, 1)
        # a zero timeval would wait without end: the bound has run out
        for seconds in (4e-7, 0.0, -1.0):
            with pytest.raises(BlockingIOError):
                tcp._timeval(seconds)

    def test_connection_refused_raises_plant_io_error(self):
        with pytest.raises(PlantIoError):
            TcpPlantClient("127.0.0.1", 1, mode=LOCKSTEP)

    # a failed write names the batch's last command, a failed read the
    # command whose reply it waits for
    @pytest.mark.parametrize("call, command", [("sendall", "T1"), ("recv", "Q1 100")])
    def test_a_reset_connection_fails_the_command_it_carries(self, served_plant, client_sockets, call, command):
        reset = ConnectionResetError(errno.ECONNRESET, os.strerror(errno.ECONNRESET))

        def resets(*args):
            raise reset

        client = TcpPlantClient(*served_plant, mode=LOCKSTEP)
        try:
            client.apply_heater(HeaterAction.ON)
            client.advance(5.0)
            setattr(client_sockets[0], call, resets)
            with pytest.raises(PlantIoError) as excinfo:
                client.read_temperature()
            assert str(excinfo.value) == f"plant link failed during {command!r}: {reset}"
            assert excinfo.value.__cause__ is reset
        finally:
            # a failed link is not flushed again as it closes
            client.close()


def test_a_served_plant_keeps_its_state_between_connections():
    # a run's log starts at t = 0, but the plant starts where the last client left it
    plant = TwinPlant(mode=LOCKSTEP)
    runs, closed_at = [], []
    with serving(plant) as server:
        for seed in (0, 1):
            backend = ScriptedBackend(ScriptedPolicy(seed=seed), LatencySpec(kind="fixed", seconds=5.0))
            client = TcpPlantClient(*server.server_address, mode=LOCKSTEP)
            try:
                runs.append(run_loop(client, backend, RunConfig(duration=60.0)))
            finally:
                client.close()
            closed_at.append(plant.read_temperature())
    assert runs[0][0].t_sensor == TwinParams().t_amb
    assert runs[1][0].t_start == 0.0
    assert runs[1][0].t_sensor == closed_at[0] > TwinParams().t_amb


class BudgetClient(TcpPlantClient):
    """A lockstep client that raises :class:`ReadBudget` in place of its
    ``reads + 1``-th reading, before it sends that ``T1``."""

    def __init__(self, address, reads):
        super().__init__(*address, mode=LOCKSTEP)
        self.reads = reads

    def read_temperature(self):
        self.reads -= 1
        if self.reads < 0:
            raise ReadBudget
        return super().read_temperature()


@settings(max_examples=60, deadline=None)
@given(run=lockstep_runs(), t0=st.sampled_from([18.0, 23.0, 26.0, 29.0, 35.0]))
def test_a_served_plant_gives_the_in_process_run_on_drawn_runs(servers, run, t0):
    # a twin validator starts each rollout from the plant's full state, which
    # a served plant does not send, so both runs are rule-validated
    config, policy, latency, faults, elapsed = run
    config = replace(config, validator=ValidatorMode())
    served = TwinPlant(initial_state=TwinState(t0, t0, 0.0))
    servers[LOCKSTEP].protocol = PlantProtocol(served)
    in_process, client = BudgetPlant(40, t0), BudgetClient(servers[LOCKSTEP].server_address, 40)
    outcomes = []
    try:
        for plant in (in_process, client):
            records = []
            backend = Mangling(ScriptedBackend(policy, latency), faults, elapsed)
            with contextlib.suppress(ReadBudget):
                run_loop(plant, backend, config, on_episode=records.append)
            outcomes.append((records, [dumps_record(r) for r in records], plant.clock))
    finally:
        client.close()
    assert outcomes[0] == outcomes[1]
    # the close sent and confirmed what the client still had queued
    assert served.state == in_process.state


# a batch whose T1 reply is the longest a client reads
LONGEST = b"100.00\nOK\n" + b"2" * 1024 + b"\n"
# What a lockstep client makes of each batch of replies to ``Q1 100``,
# ``X_ADV 5.0`` and ``T1`` before the plant closes the connection: its
# reading, or the text of its PlantIoError
BATCHES = {
    b"100.00\nOK\n23.45\n": 23.45,
    # only ERR refuses a heater command
    b"\nOK\n23.45\n": 23.45,
    b"ERR\nOK\n23.45\n": "plant rejected heater command for ON: 'Q1 100'",
    b"ERR\nO": "plant rejected heater command for ON: 'Q1 100'",
    b"100.00\nERR\n23.45\n": "plant rejected clock advance of 5.0 s: 'ERR'",
    b"100.00\nOK\xff\n23.45\n": "plant rejected clock advance of 5.0 s: 'OK\ufffd'",
    LONGEST: "unparseable temperature reply '" + "2" * 1024 + "'",
    b"100.00\nOK\n" + b"2" * 1025 + b"\n": f"plant reply to 'T1' is longer than {tcp.MAX_LINE_BYTES} bytes",
    b"100.00\nO": "plant closed the connection during 'X_ADV 5.0'",
    b"100.00\nOK\n23.4": "plant closed the connection during 'T1'",
}


@st.composite
def split_batches(draw):
    """A batch of replies, cut into 1 to 4 writes at drawn points."""
    batch = draw(st.sampled_from(sorted(BATCHES)))
    cuts = sorted(draw(st.sets(st.integers(1, len(batch) - 1), max_size=3)))
    return batch, [batch[i:j] for i, j in zip([0, *cuts], [*cuts, len(batch)])]


@settings(max_examples=60, deadline=None)
@given(split_batches())
@example((LONGEST, [LONGEST[:-1], LONGEST[-1:]]))
def test_a_batch_of_replies_reads_the_same_in_any_number_of_writes(split):
    batch, writes = split
    with fake_plant(*writes, pause=0.003, close=True) as client:
        client.apply_heater(HeaterAction.ON)
        client.advance(5.0)
        try:
            outcome = client.read_temperature()
        except PlantIoError as exc:
            outcome = str(exc)
    assert outcome == BATCHES[batch]
