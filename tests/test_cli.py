"""End-to-end CLI tests: run/report/plant-serve wiring, exit codes, config
validation, and cross-format report agreement."""

import gc
import hashlib
import json
import math
import os
import re
import socket
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import pytest

from twinloop.agents import AgentSpec, TaskSpec
from twinloop.cli import main, load_config
from twinloop.errors import ConfigError, LogFormatError
from twinloop.jsonio import loads_record
from twinloop.metrics import RunMetrics
from twinloop.orchestrator import read_run_log
from twinloop.plantio import PlantServer, TwinPlant

CASE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "case_study.json"
SRC = Path(__file__).resolve().parent.parent / "src"


def child_env():
    """The environment for a child interpreter that imports the package
    from this checkout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def write_config(tmp_path, overrides=None, name="config.json"):
    doc = json.loads(CASE_CONFIG.read_text())
    for dotted, value in (overrides or {}).items():
        node = doc
        *parents, leaf = dotted.split(".")
        for key in parents:
            node = node.setdefault(key, {})
        node[leaf] = value
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestLoadConfig:
    def test_case_study_config_loads(self):
        cfg = load_config(CASE_CONFIG)
        assert cfg.run.thresholds.low == 25.0
        assert cfg.run.duration == 2400.0
        assert cfg.backend.kind == "scripted"
        assert cfg.operator == AgentSpec()

    def test_empty_config_gets_defaults(self, tmp_path):
        path = tmp_path / "minimal.json"
        path.write_text("{}")
        cfg = load_config(path)
        assert cfg.run.max_reprompts == 3
        assert cfg.twin_params.t_amb == 23.0

    def test_unknown_top_level_key_named(self, tmp_path):
        path = write_config(tmp_path, {"plant": {}})
        with pytest.raises(ConfigError, match="'plant'"):
            load_config(path)

    def test_unknown_nested_key_named(self, tmp_path):
        path = write_config(tmp_path, {"twin.radiation": 1.0})
        with pytest.raises(ConfigError, match="twin.radiation"):
            load_config(path)

    def test_bad_thresholds_rejected(self, tmp_path):
        path = write_config(tmp_path, {"thresholds.low": 28.0})
        with pytest.raises(ConfigError, match="thresholds"):
            load_config(path)

    def test_http_field_on_scripted_backend_rejected(self, tmp_path):
        path = write_config(tmp_path, {"backend.base_url": "http://example"})
        with pytest.raises(ConfigError, match="base_url"):
            load_config(path)

    def test_unknown_backend_reference_rejected(self, tmp_path):
        path = write_config(tmp_path, {"agents.operator.backend": "gpu-farm"})
        with pytest.raises(ConfigError, match=re.escape("unknown key 'agents.operator.backend'")):
            load_config(path)

    @pytest.mark.parametrize("agent", ["validator", "reprompter"])
    def test_only_the_operator_is_configurable(self, tmp_path, agent):
        path = write_config(tmp_path, {f"agents.{agent}": {"role": "r", "goal": "g"}})
        with pytest.raises(ConfigError, match=re.escape(f"unknown key 'agents.{agent}'")):
            load_config(path)

    def test_operator_keys_default_one_by_one(self, tmp_path):
        path = write_config(
            tmp_path, {"agents": {"operator": {"task": {"description_template": "T={temperature}"}}}}
        )
        operator = load_config(path).operator
        assert (operator.role, operator.goal) == (AgentSpec().role, AgentSpec().goal)
        assert operator.task == TaskSpec("T={temperature}")

    def test_bad_task_placeholder_rejected(self, tmp_path):
        path = write_config(
            tmp_path, {"agents.operator.task.description_template": "T={setpoint}"}
        )
        with pytest.raises(ConfigError, match="task"):
            load_config(path)

    @pytest.mark.parametrize(
        "dotted, value",
        [
            ("run.max_reprompts", 2.7),
            ("backend.script.seed", 1.5),
            ("agents.operator.role", None),
            ("thresholds.low", "25"),
            ("run.initial_action", "DIM"),
        ],
    )
    def test_mistyped_value_rejected_by_dotted_key(self, tmp_path, dotted, value):
        path = write_config(tmp_path, {dotted: value})
        with pytest.raises(ConfigError, match=re.escape(f"'{dotted}'")):
            load_config(path)

    def test_twin_validator_without_a_finite_bound_rejected(self, tmp_path):
        path = write_config(tmp_path, {"run.validator_mode": {"kind": "twin", "horizon": 300}})
        with pytest.raises(ConfigError, match=r"'run\.validator_mode'.*finite bound"):
            load_config(path)
        path = write_config(tmp_path, {"run.validator_mode": {"kind": "twin", "envelope": [None, 30]}})
        assert load_config(path).run.validator.envelope == (-math.inf, 30.0)

    def test_twin_horizon_longer_than_the_run_rejected(self, tmp_path):
        path = write_config(
            tmp_path, {"run.validator_mode": {"kind": "twin", "horizon": 1e12, "envelope": [20, 30]}}
        )
        with pytest.raises(ConfigError, match=r"'run'.*horizon.*exceeds the run duration"):
            load_config(path)
        path = write_config(
            tmp_path, {"run.validator_mode": {"kind": "twin", "horizon": 2400, "envelope": [20, 30]}}
        )
        assert load_config(path).run.validator.horizon == 2400.0

    def test_integral_float_accepted_for_integer_field(self, tmp_path):
        path = write_config(tmp_path, {"run.max_reprompts": 2.0})
        assert load_config(path).run.max_reprompts == 2


class TestCmdRun:
    def test_oracle_run_exits_clean_and_reports(self, tmp_path, capsys):
        log = tmp_path / "run.jsonl"
        code = main([
            "run", "--config", str(CASE_CONFIG), "--backend", "scripted:oracle",
            "--plant", "sim", "--duration", "2400", "--out", str(log),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "100.00" in out
        config, episodes = read_run_log(log)
        assert len(episodes) > 0
        assert all(not e.override for e in episodes)

    def test_missing_config_exits_2_naming_path(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "ghost.json"), "--out", str(tmp_path / "r.jsonl")])
        assert code == 2
        assert "ghost.json" in capsys.readouterr().err

    def test_unreachable_tcp_plant_exits_3(self, tmp_path, capsys):
        code = main([
            "run", "--config", str(CASE_CONFIG), "--plant", "tcp:127.0.0.1:1",
            "--out", str(tmp_path / "r.jsonl"),
        ])
        assert code == 3

    def test_directory_as_run_log_exits_2(self, tmp_path, capsys):
        code = main([
            "run", "--config", str(CASE_CONFIG), "--duration", "60", "--out", str(tmp_path),
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_failing_plant_closes_the_transcript(self, tmp_path, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([
                "run", "--config", str(CASE_CONFIG), "--plant", "tcp:127.0.0.1:1",
                "--record", str(tmp_path / "t.jsonl"), "--out", str(tmp_path / "r.jsonl"),
            ])
            gc.collect()
        assert code == 3
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_no_log_path_exits_2(self, capsys):
        code = main(["run", "--config", str(CASE_CONFIG)])
        assert code == 2
        assert "output.log" in capsys.readouterr().err

    def test_seeded_runs_are_byte_identical(self, tmp_path, capsys):
        logs = []
        for name in ("a.jsonl", "b.jsonl"):
            path = tmp_path / name
            code = main([
                "run", "--config", str(CASE_CONFIG), "--backend", "scripted:flip",
                "--duration", "300", "--seed", "7", "--out", str(path),
            ])
            assert code == 0
            logs.append(path.read_bytes())
        assert logs[0] == logs[1]

    def test_record_then_replay_reproduces_episodes(self, tmp_path, capsys):
        transcript = tmp_path / "transcript.jsonl"
        log_a = tmp_path / "a.jsonl"
        log_b = tmp_path / "b.jsonl"
        assert main([
            "run", "--config", str(CASE_CONFIG), "--backend", "scripted:flip",
            "--duration", "300", "--seed", "11", "--out", str(log_a),
            "--record", str(transcript),
        ]) == 0
        assert main([
            "run", "--config", str(CASE_CONFIG), "--backend", f"replay:{transcript}",
            "--duration", "300", "--out", str(log_b),
        ]) == 0
        _, episodes_a = read_run_log(log_a)
        _, episodes_b = read_run_log(log_b)
        assert episodes_a == episodes_b

    def test_duration_override(self, tmp_path, capsys):
        log = tmp_path / "short.jsonl"
        assert main([
            "run", "--config", str(CASE_CONFIG), "--duration", "60", "--out", str(log),
        ]) == 0
        config, episodes = read_run_log(log)
        assert config.duration == 60.0
        assert episodes[-1].t_start < 60.0

    def test_duration_shorter_than_twin_horizon_exits_2(self, tmp_path, capsys):
        path = write_config(
            tmp_path, {"run.validator_mode": {"kind": "twin", "horizon": 300, "envelope": [20, 30]}}
        )
        log = tmp_path / "r.jsonl"
        code = main(["run", "--config", str(path), "--duration", "60", "--out", str(log)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "exceeds the run duration" in err
        assert not log.exists()

    @pytest.mark.parametrize(
        "doc", [{}, {"backend": {"latency": {"kind": "fixed", "seconds": 0.0}}}]
    )
    def test_zero_latency_lockstep_run_exits_2(self, tmp_path, capsys, doc):
        path = tmp_path / "zero_latency.json"
        path.write_text(json.dumps(doc))
        log = tmp_path / "r.jsonl"
        code = main(["run", "--config", str(path), "--duration", "24", "--out", str(log)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "run.sample_period_floor" in err and "backend.latency" in err
        assert not log.exists()

    @pytest.mark.parametrize("floor", [0.0, 1e-6])
    def test_sub_tick_fixed_latency_lockstep_run_exits_2(self, tmp_path, capsys, monkeypatch, floor):
        # 1e-300 s per episode used to write 72702 episodes in 5 s
        def no_run(*args, **kwargs):
            raise AssertionError("the run was not refused")

        monkeypatch.setattr("twinloop.cli.run_loop", no_run)
        path = tmp_path / "sub_tick.json"
        doc = {
            "backend": {"latency": {"kind": "fixed", "seconds": 1e-300}},
            "run": {"sample_period_floor": floor},
        }
        path.write_text(json.dumps(doc))
        log = tmp_path / "r.jsonl"
        code = main(["run", "--config", str(path), "--duration", "24", "--out", str(log)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "run.sample_period_floor" in err and "backend.latency" in err
        assert not log.exists()

    def test_zero_latency_run_with_a_sample_period_floor_runs(self, tmp_path, capsys):
        path = write_config(
            tmp_path, {"backend.latency": {"kind": "none"}, "run.sample_period_floor": 1.0}
        )
        log = tmp_path / "r.jsonl"
        assert main(["run", "--config", str(path), "--duration", "60", "--out", str(log)]) == 0
        _, episodes = read_run_log(log)
        assert len(episodes) == 60

    def test_case_study_output_is_pinned(self, tmp_path, capsys):
        # a config refactor must not move a byte of the case study's output
        log = tmp_path / "case.jsonl"
        assert main([
            "run", "--config", str(CASE_CONFIG), "--backend", "scripted:flip",
            "--seed", "7", "--out", str(log),
        ]) == 0
        capsys.readouterr()
        assert main(["report", "--log", str(log), "--format", "machine"]) == 0
        machine = capsys.readouterr().out
        assert hashlib.sha256(log.read_bytes()).hexdigest() == (
            "b0235fa474f7b838b634f3d939142021c675878387f5a3d480753e7ee514bf2e"
        )
        assert hashlib.sha256(machine.encode()).hexdigest() == (
            "bacdf112e5d2ff7f2a7611282de1d848f7b453b2933e71fdcd47912301215b9f"
        )

    def test_bad_backend_override_exits_2(self, tmp_path, capsys):
        code = main([
            "run", "--config", str(CASE_CONFIG), "--backend", "psychic",
            "--out", str(tmp_path / "r.jsonl"),
        ])
        assert code == 2

    def test_run_against_served_plant(self, tmp_path, capsys):
        server = PlantServer(("127.0.0.1", 0), TwinPlant(mode="lockstep"))
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        thread.start()
        try:
            host, port = server.server_address
            log = tmp_path / "tcp.jsonl"
            code = main([
                "run", "--config", str(CASE_CONFIG), "--plant", f"tcp:{host}:{port}",
                "--duration", "120", "--out", str(log),
            ])
            assert code == 0
            _, episodes = read_run_log(log)
            assert len(episodes) > 10
            assert all(not e.override for e in episodes)
        finally:
            server.shutdown()
            server.server_close()


class TestCmdReport:
    @pytest.fixture
    def oracle_log(self, tmp_path, capsys):
        log = tmp_path / "run.jsonl"
        assert main([
            "run", "--config", str(CASE_CONFIG), "--duration", "600", "--out", str(log),
        ]) == 0
        capsys.readouterr()
        return log

    def test_table_shows_perfect_first_pass(self, oracle_log, capsys):
        assert main(["report", "--log", str(oracle_log)]) == 0
        out = capsys.readouterr().out
        assert "Accuracy- first pass (%)" in out
        assert "100.00" in out

    def test_points_dump(self, oracle_log, tmp_path, capsys):
        points = tmp_path / "points.csv"
        assert main(["report", "--log", str(oracle_log), "--points", str(points)]) == 0
        _, episodes = read_run_log(oracle_log)
        lines = points.read_text().strip().splitlines()
        assert len(lines) == len(episodes)

    def test_csv_and_machine_agree(self, oracle_log, capsys):
        assert main(["report", "--log", str(oracle_log), "--format", "csv"]) == 0
        csv_out = capsys.readouterr().out.strip()
        assert main(["report", "--log", str(oracle_log), "--format", "machine"]) == 0
        machine_out = capsys.readouterr().out.strip()
        parsed = loads_record(machine_out, RunMetrics)
        header, values = csv_out.splitlines()
        by_name = dict(zip(header.split(","), values.split(",")))
        assert by_name["samples"] == str(parsed.accuracy.samples)
        assert by_name["time_above_s"] == f"{parsed.control.time_above:.2f}"

    def test_missing_log_exits_2(self, tmp_path, capsys):
        assert main(["report", "--log", str(tmp_path / "none.jsonl")]) == 2

    def test_empty_log_exits_2_without_a_line_number(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["report", "--log", str(empty)]) == 2
        assert capsys.readouterr().err == "report error: log is empty\n"

    def test_directory_as_log_exits_2(self, tmp_path, capsys):
        assert main(["report", "--log", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("report error:")

    def test_header_config_without_a_key_is_rejected(self, oracle_log, tmp_path, capsys):
        lines = oracle_log.read_text().splitlines()
        header = json.loads(lines[0])
        del header["config"]["duration"]
        lines[0] = json.dumps(header)
        broken = tmp_path / "no_duration.jsonl"
        broken.write_text("\n".join(lines) + "\n")
        with pytest.raises(LogFormatError) as excinfo:
            read_run_log(broken)
        assert excinfo.value.line_number == 1
        assert main(["report", "--log", str(broken)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_malformed_log_exits_2_with_line_number(self, oracle_log, tmp_path, capsys):
        lines = oracle_log.read_text().splitlines()
        lines[1] = '{"kind": "episode"}'
        broken = tmp_path / "broken.jsonl"
        broken.write_text("\n".join(lines) + "\n")
        assert main(["report", "--log", str(broken)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_torn_final_line_reports_the_complete_episodes(self, oracle_log, tmp_path, capsys):
        lines = oracle_log.read_text().splitlines(keepends=True)
        complete = tmp_path / "complete.jsonl"
        complete.write_text("".join(lines[:-1]))
        torn = tmp_path / "torn.jsonl"
        torn.write_text("".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
        assert main(["report", "--log", str(complete)]) == 0
        expected = capsys.readouterr().out
        assert main(["report", "--log", str(torn)]) == 0
        out, err = capsys.readouterr()
        assert out == expected
        assert err.startswith("report warning:")
        assert err.count("\n") == 1
        assert f"line {len(lines)}" in err
        # readers that do not opt in still refuse the torn line
        with pytest.raises(LogFormatError):
            read_run_log(torn)

    @pytest.mark.parametrize("final", [False, True])
    def test_truncated_line_elsewhere_exits_2_with_line_number(self, oracle_log, tmp_path, capsys, final):
        lines = oracle_log.read_text().splitlines(keepends=True)
        index = len(lines) - 1 if final else 2
        lines[index] = lines[index][: len(lines[index]) // 2] + "\n"
        broken = tmp_path / "truncated.jsonl"
        broken.write_text("".join(lines))
        assert main(["report", "--log", str(broken)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"report error (line {index + 1}):")
        assert "warning" not in err


class TestCmdPlantServe:
    def test_serve_session_and_clean_interrupt(self, tmp_path):
        import signal
        import subprocess
        import sys
        import time

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()

        proc = subprocess.Popen(
            [
                sys.executable, "-c",
                "from twinloop.cli import entrypoint; entrypoint()",
                "plant-serve", "--listen", f"127.0.0.1:{port}", "--mode", "lockstep",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=child_env(),
        )
        try:
            assert "serving plant on" in proc.stdout.readline()
            with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
                with sock.makefile("rb") as fh:
                    sock.sendall(b"VER\n")
                    assert fh.readline() == b"AGENTIC-TWIN 1.0\n"
                    sock.sendall(b"Q1 100\nX_ADV 60\nT1\n")
                    assert fh.readline() == b"100.00\n"
                    assert fh.readline() == b"OK\n"
                    assert float(fh.readline()) > 23.0
            time.sleep(0.1)
            proc.send_signal(signal.SIGINT)
            out, _ = proc.communicate(timeout=10)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        assert "plant stopped" in out
        assert "60.000s" in out

    def test_bind_failure_exits_2(self, capsys):
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        try:
            port = blocker.getsockname()[1]
            code = main(["plant-serve", "--listen", f"127.0.0.1:{port}"])
            assert code == 2
        finally:
            blocker.close()

    def test_bad_listen_spec_exits_2(self, capsys):
        assert main(["plant-serve", "--listen", "nonsense"]) == 2

    def test_bad_params_file_exits_2(self, tmp_path, capsys):
        params = tmp_path / "params.json"
        params.write_text('{"c_h": -1.0}')
        assert main(["plant-serve", "--listen", "127.0.0.1:0", "--params", str(params)]) == 2


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ["twinloop", "twinloop.cli"])
    def test_help_via_python_m(self, module):
        proc = subprocess.run(
            [sys.executable, "-m", module, "--help"],
            capture_output=True,
            text=True,
            timeout=60,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: twinloop")
        assert "plant-serve" in proc.stdout


HTTP_STACK = ("http.client", "urllib.request", "ssl", "email")


def test_http_client_stack_loads_only_with_an_http_backend():
    script = f"""
import os, sys
import twinloop.cli
print(sorted(m for m in {HTTP_STACK!r} if m in sys.modules))
from twinloop.backends import BackendConfig, HttpBackend
os.environ["LLM_API_KEY"] = "k"
HttpBackend(BackendConfig(kind="http", base_url="http://127.0.0.1:9", model="m"))
print(sorted(m for m in {HTTP_STACK!r} if m in sys.modules))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    after_import, after_backend = proc.stdout.splitlines()
    assert after_import == "[]"
    assert after_backend == repr(sorted(HTTP_STACK))
