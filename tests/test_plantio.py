"""Plant layer tests: the in-process twin plant, the line protocol, and the
TCP server/client pair."""

import socket
import threading

import pytest
from hypothesis import given, settings, strategies as st

from twinloop.errors import InvalidInput, InvalidState, PlantIoError
from twinloop.plantio import (
    HeaterAction,
    PlantProtocol,
    PlantServer,
    TcpPlantClient,
    TwinPlant,
    format_celsius,
    LOCKSTEP,
    REALTIME,
)
from twinloop.twin import TwinState


class TestHeaterAction:
    def test_duty_mapping_is_exact(self):
        assert HeaterAction.ON.duty == 100.0
        assert HeaterAction.OFF.duty == 0.0

    def test_opposite(self):
        assert HeaterAction.ON.opposite is HeaterAction.OFF
        assert HeaterAction.OFF.opposite is HeaterAction.ON

    def test_parse(self):
        assert HeaterAction.parse(" on ") is HeaterAction.ON
        with pytest.raises(InvalidInput):
            HeaterAction.parse("HALF")


class TestFormatCelsius:
    def test_truncates_to_nearest(self):
        assert format_celsius(26.434999) == "26.43"

    def test_ties_round_away_from_zero(self):
        assert format_celsius(26.445) == "26.45"
        assert format_celsius(2.5e-3) == "0.00"
        assert format_celsius(0.005) == "0.01"

    def test_exact_values_untouched(self):
        assert format_celsius(23.0) == "23.00"
        assert format_celsius(100.0) == "100.00"

    @given(st.floats(0.0, 60.0))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_within_half_a_centidegree(self, t):
        assert abs(float(format_celsius(t)) - t) <= 0.005 + 1e-12


class TestTwinPlant:
    def test_initial_sample(self):
        plant = TwinPlant()
        sample = plant.read_temperature()
        assert sample.timestamp == 0.0
        assert sample.t_sensor == 23.0
        assert sample.applied is HeaterAction.OFF

    def test_read_does_not_advance_lockstep_clock(self):
        plant = TwinPlant()
        for _ in range(5):
            plant.read_temperature()
        assert plant.clock == 0.0

    def test_heating_after_apply_and_advance(self):
        plant = TwinPlant()
        plant.apply_heater(HeaterAction.ON)
        plant.advance(60.0)
        assert plant.read_temperature().t_sensor > 23.0

    def test_apply_off_at_equilibrium_changes_nothing(self):
        plant = TwinPlant()
        plant.apply_heater(HeaterAction.OFF)
        plant.advance(300.0)
        sample = plant.read_temperature()
        assert sample.t_sensor == pytest.approx(23.0, abs=1e-12)

    def test_zero_duration_on_off_is_a_no_op(self):
        toggled = TwinPlant()
        toggled.apply_heater(HeaterAction.ON)
        toggled.apply_heater(HeaterAction.OFF)
        toggled.advance(120.0)
        untouched = TwinPlant()
        untouched.advance(120.0)
        assert toggled.read_temperature().t_sensor == untouched.read_temperature().t_sensor

    def test_longer_heating_is_strictly_hotter(self):
        short, long = TwinPlant(), TwinPlant()
        for plant in (short, long):
            plant.apply_heater(HeaterAction.ON)
        short.advance(60.0)
        long.advance(120.0)
        assert long.read_temperature().t_sensor > short.read_temperature().t_sensor

    def test_advance_requires_lockstep(self):
        plant = TwinPlant(mode=REALTIME)
        with pytest.raises(InvalidState):
            plant.advance(1.0)

    def test_realtime_clock_moves_by_itself(self):
        plant = TwinPlant(mode=REALTIME)
        first = plant.read_temperature()
        second = plant.read_temperature()
        assert second.timestamp >= first.timestamp

    def test_invalid_mode(self):
        with pytest.raises(InvalidInput):
            TwinPlant(mode="warp")


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
         "X_ADV", "X_ADV fast", "X_ADV -5", "X_ADV 0", "VER 2"],
    )
    def test_malformed_lines_reply_err(self, line):
        assert self.make().handle_command(line) == "ERR"

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


@pytest.fixture
def served_plant():
    server = PlantServer(("127.0.0.1", 0), TwinPlant(mode=LOCKSTEP))
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    yield server.server_address
    server.shutdown()
    server.server_close()


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


class TestServer:
    def test_serves_basic_session(self, served_plant):
        assert raw_session(served_plant, ["T1"]) == ["23.00"]

    def test_two_sequential_connections(self, served_plant):
        first = raw_session(served_plant, ["VER", "Q1 100", "X_ADV 60"])
        second = raw_session(served_plant, ["T1"])
        assert first == ["AGENTIC-TWIN 1.0", "100.00", "OK"]
        assert float(second[0]) > 23.0

    def test_replies_stay_in_order(self, served_plant):
        commands = ["T1", "VER", "Q1 12", "BAD", "T1"]
        replies = raw_session(served_plant, commands)
        assert replies == ["23.00", "AGENTIC-TWIN 1.0", "12.00", "ERR", "23.00"]


class TestTcpClient:
    def test_client_round_trip(self, served_plant):
        client = TcpPlantClient(*served_plant, mode=LOCKSTEP)
        try:
            sample = client.read_temperature()
            assert sample.timestamp == 0.0
            assert sample.t_sensor == 23.0
            assert sample.applied is HeaterAction.OFF
            client.apply_heater(HeaterAction.ON)
            client.advance(120.0)
            after = client.read_temperature()
            assert after.timestamp == 120.0
            assert after.t_sensor > 23.0
            assert after.applied is HeaterAction.ON
        finally:
            client.close()

    def test_connection_refused_raises_plant_io_error(self):
        with pytest.raises(PlantIoError):
            TcpPlantClient("127.0.0.1", 1, mode=LOCKSTEP)
