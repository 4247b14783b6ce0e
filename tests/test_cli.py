"""End-to-end CLI tests: run/report/plant-serve wiring, exit codes, config
validation, and cross-format report agreement."""

import contextlib
import dataclasses
import errno
import gc
import hashlib
import io
import json
import math
import os
import re
import socket
import subprocess
import sys
import threading
import time
import typing
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from twinloop import cli, jsonio
from twinloop.agents import AgentSpec, render_prompt
from twinloop.backends import BackendConfig, LatencySpec, ScriptedBackend, ScriptedPolicy
from twinloop.cli import LoadedConfig, main, load_config
from twinloop.errors import BackendError, ConfigError, InvalidInput, LogFormatError, PlantIoError
from twinloop.jsonio import dumps_record, loads_record
from twinloop.metrics import RunMetrics
from twinloop.orchestrator import LOG_FORMAT, RunConfig, config_digest, read_run_log
from twinloop.plantio import HeaterAction, PlantProtocol, TwinPlant
from twinloop.tcp import PlantServer

CASE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "case_study.json"
SRC = Path(__file__).resolve().parent.parent / "src"


def child_env():
    """The environment for a child interpreter that imports the package
    from this checkout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def ipv6_loopback() -> bool:
    try:
        with socket.socket(socket.AF_INET6) as probe:
            probe.bind(("::1", 0))
    except OSError:
        return False
    return True


needs_ipv6 = pytest.mark.skipif(not ipv6_loopback(), reason="needs an IPv6 loopback")


@contextlib.contextmanager
def serving(plant, host="127.0.0.1"):
    """Serve ``plant`` on a loopback port from a thread; yields the plant
    spec, with an IPv6 host in brackets."""
    server = PlantServer((host, 0), plant)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        port = server.server_address[1]
        yield f"tcp:[{host}]:{port}" if ":" in host else f"tcp:{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()


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


# Every leaf key a config file may set, by dotted name.
SETTABLE_KEYS = sorted(
    [f"twin.{k}" for k in ("t_amb", "alpha", "c_h", "c_s", "u_ha", "u_hs", "u_sa")]
    + ["operator.role", "operator.goal", "operator.task"]
    + [f"backend.{k}" for k in ("kind", "base_url", "model", "temperature", "timeout", "api_key_env")]
    + [f"backend.script.{k}" for k in ("kind", "p_wrong_first", "p_correct_on_feedback", "seed")]
    + ["backend.transcript_path"]
    + [f"backend.latency.{k}" for k in ("kind", "seconds", "mu", "sigma", "seed")]
    + [f"run.{k}" for k in ("duration", "max_reprompts", "sample_period_floor")]
    + ["run.thresholds.low", "run.thresholds.high"]
    + ["run.validator.kind", "run.validator.horizon", "run.validator.envelope"]
    + ["run.monitor.kind", "run.monitor.margin"]
    + ["run.clock_mode", "run.initial_action", "run.safe_action_policy"]
)


def settable_keys(cls, prefix=""):
    """The dotted name of every constructor argument of ``cls`` that is not
    itself a record, found through the records it holds."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(hints[f.name]):
            yield from settable_keys(hints[f.name], f"{prefix}{f.name}.")
        elif f.init:
            yield prefix + f.name


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
        assert cfg.twin.t_amb == 23.0
        # one default rule: a missing section is the very record the class declares
        default = LoadedConfig()
        assert all(getattr(cfg, f.name) is getattr(default, f.name) for f in dataclasses.fields(cfg))

    def test_no_setting_is_added_or_lost(self):
        assert sorted(settable_keys(LoadedConfig)) == SETTABLE_KEYS

    def test_unknown_top_level_key_named(self, tmp_path):
        path = write_config(tmp_path, {"plant": {}})
        with pytest.raises(ConfigError, match="'plant'"):
            load_config(path)

    def test_unknown_nested_key_named(self, tmp_path):
        path = write_config(tmp_path, {"twin.radiation": 1.0})
        with pytest.raises(ConfigError, match="twin.radiation"):
            load_config(path)

    def test_bad_thresholds_rejected(self, tmp_path):
        path = write_config(tmp_path, {"run.thresholds.low": 28.0})
        with pytest.raises(ConfigError, match="thresholds"):
            load_config(path)

    def test_http_field_on_scripted_backend_rejected(self, tmp_path):
        path = write_config(tmp_path, {"backend.base_url": "http://example"})
        with pytest.raises(ConfigError, match="base_url"):
            load_config(path)

    def test_timeout_on_scripted_backend_rejected(self, tmp_path):
        # only the http backend has a call that can time out
        path = write_config(tmp_path, {"backend.timeout": 5.0})
        with pytest.raises(ConfigError, match="'backend': 'timeout' does not apply to a scripted"):
            load_config(path)

    def test_unknown_backend_reference_rejected(self, tmp_path):
        path = write_config(tmp_path, {"operator.backend": "gpu-farm"})
        with pytest.raises(ConfigError, match=re.escape("unknown key 'operator.backend'")):
            load_config(path)

    @pytest.mark.parametrize("agent", ["validator", "reprompter"])
    def test_only_the_operator_is_configurable(self, tmp_path, agent):
        path = write_config(tmp_path, {agent: {"role": "r", "goal": "g"}})
        with pytest.raises(ConfigError, match=re.escape(f"unknown key '{agent}'")):
            load_config(path)

    def test_operator_keys_default_one_by_one(self, tmp_path):
        path = write_config(tmp_path, {"operator": {"task": "T={temperature}"}})
        operator = load_config(path).operator
        assert (operator.role, operator.goal) == (AgentSpec().role, AgentSpec().goal)
        assert operator.task == "T={temperature}"

    def test_bad_task_placeholder_rejected(self, tmp_path):
        path = write_config(tmp_path, {"operator.task": "T={setpoint}"})
        message = "'operator': unknown placeholder {setpoint} in task template"
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(path)

    @pytest.mark.parametrize(
        "dotted, value",
        [
            ("run.max_reprompts", 2.7),
            ("backend.script.seed", 1.5),
            ("operator.role", None),
            ("run.thresholds.low", "25"),
            ("run.initial_action", "DIM"),
            # a base_url the http backend cannot call: unparseable, not HTTP, or without a host
            *(
                ("backend", {"kind": "http", "base_url": url, "model": "m"})
                for url in ["http://[::1", "ftp://example.invalid", "file:///etc", "localhost:8000"]
            ),
        ],
    )
    def test_mistyped_value_rejected_by_dotted_key(self, tmp_path, dotted, value):
        path = write_config(tmp_path, {dotted: value})
        with pytest.raises(ConfigError, match=re.escape(f"'{dotted}'")):
            load_config(path)

    def test_twin_validator_without_a_finite_bound_rejected(self, tmp_path):
        path = write_config(tmp_path, {"run.validator": {"kind": "twin", "horizon": 300}})
        with pytest.raises(ConfigError, match=r"'run\.validator'.*finite bound"):
            load_config(path)
        path = write_config(tmp_path, {"run.validator": {"kind": "twin", "envelope": [None, 30]}})
        assert load_config(path).run.validator.envelope == (-math.inf, 30.0)

    def test_twin_horizon_longer_than_the_run_rejected(self, tmp_path):
        path = write_config(
            tmp_path, {"run.validator": {"kind": "twin", "horizon": 1e12, "envelope": [20, 30]}}
        )
        with pytest.raises(ConfigError, match=r"'run'.*horizon.*exceeds the run duration"):
            load_config(path)
        path = write_config(
            tmp_path, {"run.validator": {"kind": "twin", "horizon": 2400, "envelope": [20, 30]}}
        )
        assert load_config(path).run.validator.horizon == 2400.0

    def test_integral_float_accepted_for_integer_field(self, tmp_path):
        path = write_config(tmp_path, {"run.max_reprompts": 2.0})
        assert load_config(path).run.max_reprompts == 2

    def test_underpowered_heater_rejected(self, tmp_path):
        # full duty must be able to push the sensor past the upper threshold
        path = write_config(tmp_path, {"twin.alpha": 0.005})
        message = "'twin': full duty holds the sensor at 25.50 degC, not above run.thresholds.high (27 degC)"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_config(path)

    @pytest.mark.parametrize("high, loads", [(27.0, False), (26.99, True)])
    def test_headroom_is_judged_at_the_band_top(self, tmp_path, high, loads):
        # with no heater gain, full duty holds the sensor at the ambient 27 degC
        path = write_config(tmp_path, {"twin.t_amb": 27.0, "twin.alpha": 0.0, "run.thresholds.high": high})
        if loads:
            assert load_config(path).run.thresholds.high == high
        else:
            with pytest.raises(ConfigError, match=re.escape("at 27.00 degC, not above run.thresholds.high (27 degC)")):
                load_config(path)

    def test_a_band_above_the_twins_reach_exits_2_before_the_log_opens(self, tmp_path, capsys):
        # the case study's twin tops out at 33 degC
        path = write_config(tmp_path, {"run.thresholds": {"low": 35.0, "high": 40.0}})
        log = tmp_path / "r.jsonl"
        assert main(["run", "--config", str(path), "--out", str(log)]) == 2
        assert capsys.readouterr().err == (
            "config error: 'twin': full duty holds the sensor at 33.00 degC, not above run.thresholds.high (40 degC)\n"
        )
        assert not log.exists()


    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"thresholds": {"low": 25.0, "high": 27.0}}, "unknown key 'thresholds'"),
            ({"run.validator_mode": "rule"}, "unknown key 'run.validator_mode'"),
            ({"run.monitor_mode": "continuous"}, "unknown key 'run.monitor_mode'"),
            ({"run.validator": "rule"}, "'run.validator' must be an object"),
            ({"run.monitor": "anomaly"}, "'run.monitor' must be an object"),
            # without a kind these keys would silently configure the rule validator
            ({"run.validator": {"horizon": 300, "envelope": [20, 30]}}, "missing key 'run.validator.kind'"),
            # the operator's section before it left the one-field agents wrapper
            ({"agents.operator.task.description_template": "T={temperature}"}, "unknown key 'agents'"),
        ],
    )
    def test_old_spellings_and_a_validator_without_a_kind_exit_2(self, tmp_path, capsys, overrides, message):
        path, log = write_config(tmp_path, overrides), tmp_path / "r.jsonl"
        assert main(["run", "--config", str(path), "--out", str(log)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not log.exists()

    def test_an_inapplicable_backend_key_at_its_default_loads(self, tmp_path):
        # the codec writes every field, so a scripted section holds the http fields at their defaults
        path = write_config(tmp_path, {"backend.model": "", "backend.timeout": 30, "backend.transcript_path": ""})
        assert load_config(path) == load_config(CASE_CONFIG)

    def test_a_config_that_starts_with_a_byte_order_mark_says_so(self, tmp_path):
        path = tmp_path / "bom.json"
        path.write_bytes(b"\xef\xbb\xbf" + CASE_CONFIG.read_bytes())
        with pytest.raises(ConfigError, match=re.escape(f"config file {path} is not valid JSON: Unexpected UTF-8 BOM")):
            load_config(path)

    def test_a_template_precision_exits_2_naming_operator(self, tmp_path, capsys):
        # the reading 26.45 would show as "2", while the rule judges 26.45
        task = "Sensor {temperature:.1} degC, band {low:.1}..{high:.1}. {feedback}"
        path, log = write_config(tmp_path, {"operator.task": task}), tmp_path / "r.jsonl"
        assert main(["run", "--config", str(path), "--out", str(log)]) == 2
        assert capsys.readouterr().err == (
            "config error: 'operator': precision in the format spec of {temperature} in task template\n"
        )
        assert not log.exists()


def dotted_keys(doc, prefix=""):
    """Every key path of a config document, objects included."""
    for key, value in doc.items():
        path = f"{prefix}{key}"
        yield path
        if isinstance(value, dict):
            yield from dotted_keys(value, path + ".")


def config_floats(obj, path=""):
    """(dotted path, value) of every float in a loaded config."""
    if isinstance(obj, float):
        yield path, obj
    elif isinstance(obj, tuple):
        for i, item in enumerate(obj):
            yield from config_floats(item, f"{path}.{i}")
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from config_floats(getattr(obj, f.name), f"{path}.{f.name}".lstrip("."))


CASE_KEYS = sorted(dotted_keys(json.loads(CASE_CONFIG.read_text())))
odd_texts = st.sampled_from([
    "{temperature:{setpoint}}", "{temperature:{prev_action}}", "{temperature!z}", "{temperature:d}",
    "{temperature", "}", "{}", "{0}", "{temperature.real}", "{{feedback}}", "{feedback:>9}",
    "twin", "anomaly", "realtime", "force_off", "lognormal", "http", "replay", "flip",
]) | st.text(alphabet="{}!:.[]0dz temperaturefedbck", max_size=20) | st.text(max_size=10)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10**400) | st.floats() | odd_texts,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8) | odd_texts, inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(dotted=st.sampled_from(CASE_KEYS), value=json_values)
def test_loaded_config_is_finite_and_renders(tmp_path_factory, dotted, value):
    # one random JSON value (NaN and infinities included) at one key of the
    # case study: the loader refuses it or returns a config that can run
    path = write_config(tmp_path_factory.mktemp("fuzz"), {dotted: value})
    try:
        cfg = load_config(path)
    except ConfigError:
        return
    for where, x in config_floats(cfg):
        # null writes an infinite envelope bound; nothing else is infinite
        assert math.isfinite(x) or where.startswith("run.validator.envelope") and math.isinf(x), where
    render_prompt(cfg.operator, 26.0, HeaterAction.ON, cfg.run.thresholds, "retry")


def unwritable(tmp_path, where):
    """A path no file can be opened for writing at: a directory, or a file
    in a directory that does not exist."""
    return tmp_path if where == "directory" else tmp_path / "missing" / "file.jsonl"


UNWRITABLE = ["directory", "missing parent"]


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

    def test_the_loop_runs_with_set_up_frozen_and_leaves_nothing_frozen(self, tmp_path, capsys, monkeypatch):
        frozen_in_loop = []
        run_loop = cli.run_loop

        def counted(*args, **kwargs):
            frozen_in_loop.append(gc.get_freeze_count())
            return run_loop(*args, **kwargs)

        def failing(*args, **kwargs):
            frozen_in_loop.append(gc.get_freeze_count())
            raise PlantIoError("connection lost")

        argv = ["run", "--config", str(CASE_CONFIG), "--duration", "600", "--out"]
        monkeypatch.setattr(cli, "run_loop", counted)
        assert main([*argv, str(tmp_path / "run.jsonl")]) == 0
        assert gc.get_freeze_count() == 0
        monkeypatch.setattr(cli, "run_loop", failing)
        assert main([*argv, str(tmp_path / "failed.jsonl")]) == 3
        assert gc.get_freeze_count() == 0
        assert len(frozen_in_loop) == 2 and min(frozen_in_loop) > 0

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

    @pytest.mark.parametrize("where", UNWRITABLE)
    def test_unopenable_run_log_is_named(self, tmp_path, capsys, where):
        log = unwritable(tmp_path, where)
        code = main(["run", "--config", str(CASE_CONFIG), "--duration", "60", "--out", str(log)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"config error: cannot open run log {log}: ")

    def test_unopenable_transcript_is_named(self, tmp_path, capsys):
        code = main([
            "run", "--config", str(CASE_CONFIG), "--duration", "60",
            "--record", str(tmp_path), "--out", str(tmp_path / "r.jsonl"),
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"config error: cannot open transcript {tmp_path}: ")

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
        assert capsys.readouterr().err == "config error: no run log path: pass --out\n"

    def test_config_with_an_output_section_exits_2(self, tmp_path, capsys):
        # the command line names every output: --out, and report's --format and --points
        config, log = write_config(tmp_path, {"output.report_format": "table"}), tmp_path / "r.jsonl"
        assert main(["run", "--config", str(config), "--out", str(log)]) == 2
        assert capsys.readouterr().err == "config error: unknown key 'output'\n"
        assert not log.exists()

    def test_run_log_over_the_config_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path)
        before = config.read_bytes()
        assert main(["run", "--config", str(config), "--duration", "60", "--out", str(config)]) == 2
        assert capsys.readouterr().err == f"config error: --out and --config name the same file: {config}\n"
        assert config.read_bytes() == before

    def test_transcript_over_the_run_log_exits_2(self, tmp_path, capsys, monkeypatch):
        # one file, spelled relative and absolute
        monkeypatch.chdir(tmp_path)
        log = tmp_path / "s.jsonl"
        code = main([
            "run", "--config", str(CASE_CONFIG), "--duration", "60",
            "--out", "s.jsonl", "--record", str(log),
        ])
        assert code == 2
        assert capsys.readouterr().err == f"config error: --record and --out name the same file: {log}\n"
        assert not log.exists()

    def test_run_log_over_the_replayed_transcript_exits_2(self, tmp_path, capsys):
        transcript = tmp_path / "t.jsonl"
        base = ["run", "--config", str(CASE_CONFIG), "--duration", "60"]
        assert main([*base, "--record", str(transcript), "--out", str(tmp_path / "r.jsonl")]) == 0
        capsys.readouterr()
        before = transcript.read_bytes()
        assert main([*base, "--backend", f"replay:{transcript}", "--out", str(transcript)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == f"config error: --out and the replayed transcript name the same file: {transcript}"
        assert transcript.read_bytes() == before

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

    def test_replay_that_runs_out_exits_2_keeping_the_partial_log(self, tmp_path, capsys):
        transcript, recorded, replayed = tmp_path / "t.jsonl", tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        base = ["run", "--config", str(CASE_CONFIG)]
        assert main([*base, "--duration", "30", "--record", str(transcript), "--out", str(recorded)]) == 0
        capsys.readouterr()
        calls = len(transcript.read_text().splitlines())
        code = main([*base, "--backend", f"replay:{transcript}", "--duration", "60", "--out", str(replayed)])
        assert code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == (
            "config error, aborting run (partial log kept): "
            f"transcript holds {calls} exchanges; call {calls + 1} has no recording"
        )
        assert read_run_log(replayed)[1] == read_run_log(recorded)[1]

    @pytest.mark.parametrize(
        "where, errno", [("directory", "[Errno 21] Is a directory"), ("missing", "[Errno 2] No such file or directory")]
    )
    def test_a_transcript_that_cannot_be_read_exits_2_before_the_log(self, tmp_path, capsys, where, errno):
        transcript = tmp_path if where == "directory" else tmp_path / "missing.jsonl"
        out = tmp_path / "r.jsonl"
        code = main(["run", "--config", str(CASE_CONFIG), "--backend", f"replay:{transcript}", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: cannot read transcript {transcript}: {errno}: '{transcript}'\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("flag, what", [("--out", "run log"), ("--record", "transcript")])
    def test_failed_output_write_exits_2_keeping_the_partial_log(
        self, tmp_path, capsys, monkeypatch, flag, what
    ):
        failing = {"--out": tmp_path / "r.jsonl", "--record": tmp_path / "t.jsonl"}[flag]

        class FullDisk:
            """A file with room for 5000 characters, which then fails every
            write, and its close, as a buffered file on a full disk does."""

            def __init__(self, fh):
                self._fh, self._room, self._failed = fh, 5000, False

            def write(self, text):
                if len(text) > self._room:
                    self._failed = True
                    raise OSError(errno.ENOSPC, "No space left on device")
                self._room -= len(text)
                return self._fh.write(text)

            def flush(self):
                self._fh.flush()

            def close(self):
                self._fh.close()
                if self._failed:
                    raise OSError(errno.ENOSPC, "No space left on device")

        def open_failing(path, mode="r", **kwargs):
            fh = open(path, mode, **kwargs)
            return FullDisk(fh) if Path(path) == failing and "w" in mode else fh

        # both files are opened by jsonio's RecordWriter
        monkeypatch.setattr(jsonio, "open", open_failing, raising=False)
        log, transcript = tmp_path / "r.jsonl", tmp_path / "t.jsonl"
        code = main([
            "run", "--config", str(CASE_CONFIG), "--out", str(log), "--record", str(transcript),
        ])
        assert code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == (
            "config error, aborting run (partial log kept): "
            f"cannot write {what} {failing}: [Errno 28] No space left on device"
        )
        _, episodes = read_run_log(log)
        assert 0 < len(episodes) < 100

    def test_failed_header_write_exits_2(self, tmp_path, capsys, monkeypatch):
        class FullDisk:
            closed = False

            def write(self, text):
                raise OSError(errno.ENOSPC, "No space left on device")

            def close(self):
                # a buffered file's close fails too; the write's error is reported
                FullDisk.closed = True
                raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(jsonio, "open", lambda *args, **kwargs: FullDisk(), raising=False)
        log = tmp_path / "r.jsonl"
        assert main(["run", "--config", str(CASE_CONFIG), "--out", str(log)]) == 2
        assert capsys.readouterr().err == (
            f"config error: cannot write run log {log}: [Errno 28] No space left on device\n"
        )
        # no caller holds a writer whose header failed: it closes its own file
        assert FullDisk.closed

    def test_duration_override(self, tmp_path, capsys):
        log = tmp_path / "short.jsonl"
        assert main([
            "run", "--config", str(CASE_CONFIG), "--duration", "60", "--out", str(log),
        ]) == 0
        config, episodes = read_run_log(log)
        assert config.duration == 60.0
        assert episodes[-1].t_start < 60.0

    def test_duration_beyond_a_week_exits_2_before_the_log_is_opened(self, tmp_path):
        # in a child with a timeout: a run that is not refused would not end
        log = tmp_path / "long.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "twinloop", "run", "--config", str(CASE_CONFIG),
             "--duration", "1e12", "--out", str(log)],
            capture_output=True, text=True, timeout=30, env=child_env(),
        )
        assert proc.returncode == 2
        assert proc.stderr == "config error: duration must lie in (0, 604800] s, got 1000000000000.0\n"
        assert not log.exists()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"run.max_reprompts": 101}, "'run': max_reprompts may not exceed 100, got 101"),
            (
                {"backend": {"kind": "http", "base_url": "http://x", "model": "m", "timeout": 1e300}},
                "'backend': backend timeout may not exceed 604800 s, got 1e+300",
            ),
        ],
        ids=["max_reprompts", "timeout"],
    )
    def test_unbounded_reprompts_or_timeout_exit_2_before_the_log_is_opened(
        self, tmp_path, capsys, monkeypatch, overrides, message
    ):
        monkeypatch.setenv("LLM_API_KEY", "k")
        log = tmp_path / "r.jsonl"
        code = main(["run", "--config", str(write_config(tmp_path, overrides)), "--out", str(log)])
        assert code == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not log.exists()

    def test_an_api_key_a_header_cannot_carry_exits_2_before_the_log_is_opened(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("LLM_API_KEY", "sk-abc\n")
        log = tmp_path / "r.jsonl"
        path = write_config(tmp_path, {"backend": {"kind": "http", "base_url": "http://127.0.0.1:9", "model": "m"}})
        assert main(["run", "--config", str(path), "--out", str(log)]) == 2
        assert capsys.readouterr().err == "config error: API key in $LLM_API_KEY must be printable ASCII\n"
        assert not log.exists()

    def test_realtime_latency_beyond_a_clock_ends_at_the_run_end(self, tmp_path):
        # the wait is cut at the run's end: no sleep past it, no overflow
        path = write_config(
            tmp_path, {"run.clock_mode": "realtime", "backend.latency": {"kind": "fixed", "seconds": 1e300}}
        )
        log = tmp_path / "r.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "twinloop", "run", "--config", str(path), "--duration", "0.5",
             "--out", str(log)],
            capture_output=True, text=True, timeout=30, env=child_env(),
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        (episode,) = read_run_log(log)[1]
        assert 0.5 <= episode.t_end < 5.0

    def test_duration_shorter_than_twin_horizon_exits_2(self, tmp_path, capsys):
        path = write_config(
            tmp_path, {"run.validator": {"kind": "twin", "horizon": 300, "envelope": [20, 30]}}
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

    def test_sub_tick_lognormal_latency_lockstep_run_exits_2(self, tmp_path, capsys, monkeypatch):
        # a median of exp(-600) s per episode used to write 24000 episodes
        def no_run(*args, **kwargs):
            raise AssertionError("the run was not refused")

        monkeypatch.setattr("twinloop.cli.run_loop", no_run)
        path = tmp_path / "sub_tick.json"
        path.write_text(json.dumps(
            {"backend": {"latency": {"kind": "lognormal", "mu": -600, "sigma": 1}}}
        ))
        log = tmp_path / "r.jsonl"
        code = main(["run", "--config", str(path), "--duration", "24", "--out", str(log)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "run.sample_period_floor" in err and "backend.latency" in err
        assert not log.exists()

    def test_unit_median_lognormal_latency_runs(self, tmp_path, capsys):
        path = tmp_path / "lognormal.json"
        path.write_text(json.dumps(
            {"backend": {"latency": {"kind": "lognormal", "mu": 0, "sigma": 1}}}
        ))
        log = tmp_path / "r.jsonl"
        assert main(["run", "--config", str(path), "--duration", "24", "--out", str(log)]) == 0
        _, episodes = read_run_log(log)
        assert 0 < len(episodes) < 100

    def test_zero_latency_run_with_a_sample_period_floor_runs(self, tmp_path, capsys):
        path = write_config(
            tmp_path, {"backend.latency": {"kind": "none"}, "run.sample_period_floor": 1.0}
        )
        log = tmp_path / "r.jsonl"
        assert main(["run", "--config", str(path), "--duration", "60", "--out", str(log)]) == 0
        _, episodes = read_run_log(log)
        assert len(episodes) == 60

    def test_realtime_run_with_a_floor_past_the_end_ends_at_the_end(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "run.clock_mode": "realtime", "run.sample_period_floor": 1e300, "backend.latency": {"kind": "none"},
        })
        log = tmp_path / "r.jsonl"
        t0 = time.monotonic()
        assert main(["run", "--config", str(path), "--duration", "0.5", "--out", str(log)]) == 0
        assert time.monotonic() - t0 < 1.5
        _, episodes = read_run_log(log)
        assert len(episodes) == 1

    def test_case_study_output_is_pinned(self, tmp_path, capsys):
        # a config refactor must not move a byte of the case study's output;
        # test_twin.py's test_logs_match_under_rk4 runs the same case study
        # under an RK4 twin and checks that every decision is the same
        log = tmp_path / "case.jsonl"
        assert main([
            "run", "--config", str(CASE_CONFIG), "--backend", "scripted:flip",
            "--seed", "7", "--out", str(log),
        ]) == 0
        capsys.readouterr()
        assert main(["report", "--log", str(log), "--format", "machine"]) == 0
        machine = capsys.readouterr().out
        assert hashlib.sha256(log.read_bytes()).hexdigest() == (
            "ea3a4ce3fb75f18901dce1e8a6d081b4f6384eeff4ad10ce342929ed17ce6737"
        )
        assert hashlib.sha256(machine.encode()).hexdigest() == (
            "68ad6a67358e333412b3d3ed57bf3b5bed9f81f733f3c1abb43de45608b9d5e9"
        )

    @pytest.mark.parametrize(
        "task, digest",
        [
            (None, "16aadd8c0da694a70a45b610b6b93345b66f403fb727d29e1fcdc256804960b6"),
            (
                "Notes: {feedback}\nSensor {temperature:>8} °C, band {low!r} to {high!s:^7}, "
                "previous {prev_action!a}.\nReply {{ACTION: ON}} or {{ACTION: OFF}} as 'ACTION: ON' or 'ACTION: OFF'.",
                "2bd6584ed530f0aea637707c6459d34e0706a554c08c532a202065d521806b98",
            ),
        ],
        ids=["case-study", "placed-feedback"],
    )
    def test_transcript_is_pinned(self, tmp_path, capsys, task, digest):
        # a transcript is the only file that holds prompt text; the flip
        # policy fails first attempts, so reprompts carry feedback
        config = write_config(tmp_path, {"operator.task": task} if task else {})
        transcript = tmp_path / "t.jsonl"
        assert main([
            "run", "--config", str(config), "--backend", "scripted:flip", "--seed", "7",
            "--duration", "600", "--record", str(transcript), "--out", str(tmp_path / "r.jsonl"),
        ]) == 0
        assert "VALIDATION FAILED" in transcript.read_text()
        assert hashlib.sha256(transcript.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "dotted, literal",
        [
            ("backend.latency.seconds", "NaN"),
            ("backend.latency.seconds", "Infinity"),
            ("backend.latency.seconds", "1e999"),
            ("run.duration", "1e999"),
            ("run.sample_period_floor", "NaN"),
            ("run.monitor", '{"kind": "anomaly", "margin": NaN}'),
        ],
    )
    def test_non_finite_number_in_config_exits_2(self, tmp_path, capsys, dotted, literal):
        # json.loads reads these literals, and a NaN passes every "x < 0" check;
        # a number beyond a float's range reads as an infinity, which its field refuses by name
        problem = f"'{dotted}' does not fit a float" if literal == "1e999" else "is not a finite JSON number"
        path = write_config(tmp_path, {dotted: "@"})
        path.write_text(path.read_text().replace('"@"', literal))
        log = tmp_path / "r.jsonl"
        code = main(["run", "--config", str(path), "--duration", "60", "--out", str(log)])
        assert code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("config error:") and problem in line
        assert not log.exists()

    def test_overflowing_lognormal_latency_exits_2(self, tmp_path, capsys):
        # the first draw would be exp(1000 + ...), beyond the largest float
        path = write_config(tmp_path, {"backend.latency": {"kind": "lognormal", "mu": 1000, "sigma": 1}})
        log = tmp_path / "r.jsonl"
        code = main(["run", "--config", str(path), "--duration", "60", "--out", str(log)])
        assert code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("config error: 'backend.latency': lognormal mu + 30 * sigma")
        assert not log.exists()

    @pytest.mark.parametrize(
        "twin, problem",
        [
            ({"c_h": 1e-300}, "does not fit a float"),
            # finite constants, but the slow eigenvalue underflows to zero
            ({"c_s": 1e300, "u_ha": 1e-160, "u_hs": 1e-160, "u_sa": 1e-160, "alpha": 1e-159},
             "does not fit a float"),
            ({"alpha": 1e300}, "beyond the 1e+12 degC"),
            ({"t_amb": 1e13}, "beyond the 1e+12 degC"),
        ],
    )
    def test_extreme_twin_coefficients_exit_2(self, tmp_path, capsys, twin, problem):
        path = write_config(tmp_path, {"twin": twin, "backend.latency": {"kind": "fixed", "seconds": 5.0}})
        log = tmp_path / "r.jsonl"
        code = main(["run", "--config", str(path), "--duration", "60", "--out", str(log)])
        assert code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("config error: 'twin':") and problem in line
        assert not log.exists()

    @pytest.mark.parametrize(
        "template",
        ["T={temperature", "T={temperature:{setpoint}}", "T={temperature:{prev_action}}",
         "T={temperature!z}", "T={temperature:d}"],
    )
    def test_unrenderable_task_template_exits_2(self, tmp_path, capsys, template):
        path = write_config(tmp_path, {"operator.task": template})
        log = tmp_path / "r.jsonl"
        code = main(["run", "--config", str(path), "--duration", "60", "--out", str(log)])
        assert code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("config error: 'operator':") and "task template" in line
        assert not log.exists()

    @pytest.mark.parametrize(
        "entry",
        [
            b'{"response_text": "ACTION: ON", "latency": "slow"}',
            b'{"error": "x", "elapsed": "slow"}',
            b'{"response_text": 5, "latency": 1.0}',
            b'{"response_text": "ACTION: ON", "latency": -1.0}',
            b'{"response_text": "ACTION: ON", "latency": NaN}',
            b'{"response_text": "ACTION: \xff", "latency": 1.0}',
            # a model and a status of types the recorder never writes
            b'{"response_text": "ACTION: ON", "latency": 1.0, "model": 7}',
            b'{"response_text": "ACTION: ON", "latency": 1.0, "model": ["m"]}',
            b'{"error": "x", "elapsed": 1.0, "status": 503.5}',
            b'{"error": "x", "elapsed": 1.0, "status": "503"}',
            b'{"error": "x", "elapsed": 1.0, "status": [503]}',
        ],
    )
    def test_mistyped_transcript_value_exits_2(self, tmp_path, capsys, entry):
        transcript = tmp_path / "t.jsonl"
        transcript.write_bytes(b'{"response_text": "ACTION: ON", "latency": 6}\n' + entry + b"\n")
        log = tmp_path / "r.jsonl"
        code = main([
            "run", "--config", str(CASE_CONFIG), "--backend", f"replay:{transcript}",
            "--duration", "60", "--out", str(log),
        ])
        assert code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("config error: bad transcript") and "(line 2)" in line
        assert not log.exists()

    def test_http_backend_override_exits_2(self, tmp_path, capsys):
        # backend.kind in the config selects http; the override never could
        code = main([
            "run", "--config", str(CASE_CONFIG), "--backend", "http", "--out", str(tmp_path / "r.jsonl"),
        ])
        assert code == 2
        assert capsys.readouterr().err == "config error: unknown --backend override 'http'\n"

    def test_a_transcript_latency_beyond_a_float_exits_2_with_its_line(self, tmp_path, capsys):
        transcript = tmp_path / "t.jsonl"
        transcript.write_text(
            '{"response_text": "ACTION: ON", "latency": 6}\n{"response_text": "ACTION: ON", "latency": 1e999}\n'
        )
        log = tmp_path / "r.jsonl"
        code = main(["run", "--config", str(CASE_CONFIG), "--backend", f"replay:{transcript}", "--out", str(log)])
        assert code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"config error: bad transcript {transcript} (line 2): ")
        assert not log.exists()

    @pytest.mark.parametrize("endpoint", ["127.0.0.1:99999", "127.0.0.1:65536", "127.0.0.1:", ":5850", "127.0.0.1:\u00b2"])
    def test_bad_plant_endpoint_exits_2(self, tmp_path, capsys, endpoint):
        log = tmp_path / "r.jsonl"
        code = main(["run", "--config", str(CASE_CONFIG), "--plant", f"tcp:{endpoint}", "--out", str(log)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: --plant tcp needs <host:port> with a port up to 65535, got {endpoint!r}\n"
        )
        assert not log.exists()

    @pytest.mark.parametrize(
        "flag, value, error",
        [
            ("--backend", "replay:", "--backend replay needs a transcript path: replay:<path>"),
            ("--plant", "serial:/dev/ttyS0", "--plant must be 'sim' or 'tcp:<host:port>', got 'serial:/dev/ttyS0'"),
        ],
        ids=["replay-without-a-path", "unknown-plant"],
    )
    def test_a_backend_or_plant_of_no_known_form_exits_2(self, tmp_path, capsys, flag, value, error):
        log = tmp_path / "r.jsonl"
        assert main(["run", "--config", str(CASE_CONFIG), flag, value, "--out", str(log)]) == 2
        assert capsys.readouterr().err == f"config error: {error}\n"
        assert not log.exists()

    def test_bad_backend_override_exits_2(self, tmp_path, capsys):
        code = main([
            "run", "--config", str(CASE_CONFIG), "--backend", "psychic",
            "--out", str(tmp_path / "r.jsonl"),
        ])
        assert code == 2

    def test_unknown_scripted_policy_override_exits_2(self, tmp_path, capsys):
        code = main([
            "run", "--config", str(CASE_CONFIG), "--backend", "scripted:psychic",
            "--out", str(tmp_path / "r.jsonl"),
        ])
        assert code == 2
        (line,) = [l for l in capsys.readouterr().err.splitlines() if l.startswith("config error:")]
        assert "psychic" in line

    def test_run_against_served_plant(self, tmp_path, capsys):
        with serving(TwinPlant(mode="lockstep")) as plant:
            log = tmp_path / "tcp.jsonl"
            code = main([
                "run", "--config", str(CASE_CONFIG), "--plant", plant,
                "--duration", "120", "--out", str(log),
            ])
            assert code == 0
            _, episodes = read_run_log(log)
            assert len(episodes) > 10
            assert all(not e.override for e in episodes)

    @needs_ipv6
    def test_run_against_a_bracketed_ipv6_plant(self, tmp_path, capsys):
        args = ["run", "--config", str(CASE_CONFIG), "--duration", "120"]
        assert main([*args, "--out", str(tmp_path / "sim.jsonl")]) == 0
        with serving(TwinPlant(mode="lockstep"), host="::1") as plant:
            assert plant.startswith("tcp:[::1]:")
            assert main([*args, "--plant", plant, "--out", str(tmp_path / "tcp.jsonl")]) == 0
        assert read_run_log(tmp_path / "tcp.jsonl") == read_run_log(tmp_path / "sim.jsonl")

    def test_lockstep_run_refuses_a_realtime_served_plant(self, tmp_path, capsys, monkeypatch):
        calls = []
        complete = ScriptedBackend.complete
        monkeypatch.setattr(
            ScriptedBackend, "complete", lambda self, *a: calls.append(a) or complete(self, *a)
        )
        log = tmp_path / "tcp.jsonl"
        with serving(TwinPlant(mode="realtime")) as plant:
            code = main(["run", "--config", str(CASE_CONFIG), "--plant", plant, "--out", str(log)])
        assert code == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("plant error:")
        assert "lockstep" in line and "'realtime'" in line
        assert not log.exists()
        assert calls == []

    def test_failed_final_flush_reports_plant_error(self, tmp_path, capsys):
        # a plant that drops the link right after answering the first T1; a
        # 5 s run has one episode, so its X_ADV and Q1 are only sent at close
        def serve_until_first_t1(listener):
            conn, _ = listener.accept()
            protocol = PlantProtocol(TwinPlant(mode="lockstep"))
            with conn, conn.makefile("rb") as lines:
                for raw in lines:
                    conn.sendall(protocol.handle_command(raw.decode()).encode() + b"\n")
                    if raw.strip() == b"T1":
                        return

        with socket.create_server(("127.0.0.1", 0)) as listener:
            thread = threading.Thread(target=serve_until_first_t1, args=(listener,), daemon=True)
            thread.start()
            host, port = listener.getsockname()
            log = tmp_path / "tcp.jsonl"
            code = main([
                "run", "--config", str(CASE_CONFIG), "--plant", f"tcp:{host}:{port}",
                "--duration", "5", "--out", str(log),
            ])
            thread.join(5.0)
            assert not thread.is_alive()
        assert code == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("plant error: ")
        # the close flush carries "X_ADV 5.67\nQ1 100\n"; either can meet the dropped link
        assert "'X_ADV 5.67'" in line or "'Q1 100'" in line
        _, episodes = read_run_log(log)
        assert len(episodes) == 1


    def test_non_finite_temperature_reply_exits_3(self, tmp_path, capsys):
        # a plant whose sensor reads nan: a plant error, not a traceback
        def serve_nan(listener):
            conn, _ = listener.accept()
            protocol = PlantProtocol(TwinPlant(mode="lockstep"))
            with conn, conn.makefile("rb") as lines:
                for raw in lines:
                    reply = "nan" if raw.strip() == b"T1" else protocol.handle_command(raw.decode())
                    conn.sendall(reply.encode() + b"\n")

        with socket.create_server(("127.0.0.1", 0)) as listener:
            thread = threading.Thread(target=serve_nan, args=(listener,), daemon=True)
            thread.start()
            host, port = listener.getsockname()
            code = main([
                "run", "--config", str(CASE_CONFIG), "--plant", f"tcp:{host}:{port}",
                "--duration", "60", "--out", str(tmp_path / "nan.jsonl"),
            ])
            thread.join(5.0)
            assert not thread.is_alive()
        assert code == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("plant error")
        assert line.endswith(": unparseable temperature reply 'nan'")


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

    @pytest.mark.parametrize("where", UNWRITABLE)
    def test_unwritable_points_file_exits_2(self, oracle_log, tmp_path, capsys, where):
        points = unwritable(tmp_path, where)
        assert main(["report", "--log", str(oracle_log), "--points", str(points)]) == 2
        assert capsys.readouterr().err.startswith(f"report error: cannot write points file {points}: ")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device whose writes fail")
    def test_failed_points_write_exits_2(self, oracle_log, capsys):
        assert main(["report", "--log", str(oracle_log), "--points", "/dev/full"]) == 2
        assert capsys.readouterr().err.startswith("report error: cannot write points file /dev/full: ")

    def test_points_over_the_log_exits_2(self, oracle_log, capsys):
        # one file, spelled two ways
        before = oracle_log.read_bytes()
        points = oracle_log.parent / ".." / oracle_log.parent.name / oracle_log.name
        assert main(["report", "--log", str(oracle_log), "--points", str(points)]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"report error: --points and --log name the same file: {points}\n")
        assert oracle_log.read_bytes() == before

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

    def test_an_episode_without_attempts_exits_2(self, oracle_log, tmp_path, capsys):
        lines = oracle_log.read_text().splitlines(keepends=True)
        lines[1] = re.sub(r'"attempts":\[.*\],"applied"', '"attempts":[],"applied"', lines[1])
        broken = tmp_path / "no_attempts.jsonl"
        broken.write_text("".join(lines))
        assert main(["report", "--log", str(broken)]) == 2
        assert capsys.readouterr() == ("", "report error: episode 0 has no attempts\n")

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

    def test_a_header_only_log_writes_an_empty_points_file(self, tmp_path, capsys):
        # one line per episode: no episode, no line
        log, points = tmp_path / "header.jsonl", tmp_path / "points.csv"
        log.write_text(RUN_LOG_HEADER + "\n")
        assert main(["report", "--log", str(log), "--points", str(points)]) == 0
        assert points.read_bytes() == b""

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


    @pytest.mark.parametrize("tail", [b"\xff\n", b"\xff", b'{"kind": "episode", "index": "\xe9"}\n'])
    def test_non_utf8_line_exits_2_with_line_number(self, oracle_log, tmp_path, capsys, tail):
        data = oracle_log.read_bytes()
        broken = tmp_path / "latin1.jsonl"
        broken.write_bytes(data + tail)
        lineno = data.count(b"\n") + 1
        assert main(["report", "--log", str(broken)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"report error (line {lineno}): bad log line:")
        assert "utf-8" in err and "warning" not in err

    @pytest.mark.parametrize(
        "value, error",
        [("NaN", "bad log line: NaN is not"), ("1e999", "bad log record: 't_sensor' does not fit a float")],
    )
    def test_non_finite_sensor_reading_exits_2(self, oracle_log, tmp_path, capsys, value, error):
        lines = oracle_log.read_text().splitlines(keepends=True)
        lines[2] = re.sub('"t_sensor":[^,]+', '"t_sensor":' + value, lines[2])
        broken = tmp_path / "non_finite.jsonl"
        broken.write_text("".join(lines))
        assert main(["report", "--log", str(broken)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"report error (line 3): {error}")

    def test_crlf_log_reports_as_written(self, oracle_log, tmp_path, capsys):
        crlf = tmp_path / "crlf.jsonl"
        crlf.write_bytes(oracle_log.read_bytes().replace(b"\n", b"\r\n"))
        assert main(["report", "--log", str(oracle_log)]) == 0
        expected = capsys.readouterr().out
        assert main(["report", "--log", str(crlf)]) == 0
        assert capsys.readouterr().out == expected


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

    @pytest.mark.parametrize("host", ["127.0.0.1", pytest.param("::1", marks=needs_ipv6)])
    def test_bind_failure_is_a_config_error(self, capsys, host):
        family, endpoint = (socket.AF_INET6, f"[{host}]") if ":" in host else (socket.AF_INET, host)
        with socket.socket(family) as blocker:
            blocker.bind((host, 0))
            blocker.listen(1)
            listen = f"{endpoint}:{blocker.getsockname()[1]}"
            assert main(["plant-serve", "--listen", listen]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"config error: cannot bind {listen}: ")

    @staticmethod
    def serve_until_interrupted(monkeypatch, listen, advance=None):
        """Run ``plant-serve --listen listen``, interrupted as it starts to
        serve, after an ``X_ADV advance`` if one is given; returns the host
        and port it bound."""
        bound = []

        def interrupt(server, poll_interval=0.5):
            bound.append(server.server_address[:2])
            if advance is not None:
                assert server.protocol.handle_command(f"X_ADV {advance!r}") == "OK"
            raise KeyboardInterrupt

        monkeypatch.setattr(PlantServer, "serve_forever", interrupt)
        assert main(["plant-serve", "--listen", listen]) == 0
        ((host, port),) = bound
        assert port > 0
        return host, port

    def test_listen_on_port_0_prints_the_bound_port(self, capsys, monkeypatch):
        host, port = self.serve_until_interrupted(monkeypatch, "127.0.0.1:0")
        assert host == "127.0.0.1"
        out = capsys.readouterr().out
        assert out.startswith(f"serving plant on 127.0.0.1:{port} (lockstep)\nplant stopped at t=0.000s")

    @pytest.mark.parametrize("advance, clock", [(12345.6789, "12345.679"), (1e308, "1e+308")])
    def test_the_stop_line_prints_its_clock_short(self, capsys, monkeypatch, advance, clock):
        self.serve_until_interrupted(monkeypatch, "127.0.0.1:0", advance)
        last = capsys.readouterr().out.splitlines()[-1]
        assert last.startswith(f"plant stopped at t={clock}s: heater ")
        assert len(last) < 100

    @needs_ipv6
    def test_bracketed_ipv6_listen_serves(self, capsys, monkeypatch):
        host, port = self.serve_until_interrupted(monkeypatch, "[::1]:0")
        assert host == "::1"
        out = capsys.readouterr().out
        assert out.startswith(f"serving plant on [::1]:{port} (lockstep)\nplant stopped at t=0.000s")

    def test_bad_listen_spec_exits_2(self, capsys):
        assert main(["plant-serve", "--listen", "nonsense"]) == 2

    @pytest.mark.parametrize("listen", ["127.0.0.1:99999", "127.0.0.1:65536", "127.0.0.1:\u00b2", ":5850"])
    def test_bad_listen_port_exits_2(self, capsys, listen):
        assert main(["plant-serve", "--listen", listen]) == 2
        assert capsys.readouterr().err == (
            f"config error: --listen needs <host:port> with a port up to 65535, got {listen!r}\n"
        )

    @pytest.mark.parametrize(
        "text, message",
        [(None, "params file not found: {}"), ("[]", "params file {} must hold a JSON object")],
    )
    def test_unreadable_params_file_is_named(self, tmp_path, capsys, text, message):
        params = tmp_path / "params.json"
        if text is not None:
            params.write_text(text)
        assert main(["plant-serve", "--listen", "127.0.0.1:0", "--params", str(params)]) == 2
        assert capsys.readouterr().err == "config error: " + message.format(params) + "\n"

    def test_bad_params_file_exits_2(self, tmp_path, capsys):
        params = tmp_path / "params.json"
        params.write_text('{"c_h": -1.0}')
        assert main(["plant-serve", "--listen", "127.0.0.1:0", "--params", str(params)]) == 2
        params.write_text('{"c_h": NaN}')
        assert main(["plant-serve", "--listen", "127.0.0.1:0", "--params", str(params)]) == 2
        assert "NaN is not a finite JSON number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, message",
        [
            ('{"c_h": -1}', "config error: 'twin': twin parameter c_h must be strictly positive"),
            ('{"c_hh": 1}', "config error: unknown key 'twin.c_hh'"),
            ('{"dt_internal": 0.1}', "config error: unknown key 'twin.dt_internal'"),
        ],
    )
    def test_bad_params_are_named_as_the_twin_section(self, tmp_path, capsys, doc, message):
        assert serve_on_an_occupied_port(tmp_path, doc) == 2
        assert capsys.readouterr().err.strip() == message

    def test_a_heater_below_the_case_studys_band_is_served(self, tmp_path, capsys, monkeypatch):
        # a served plant has no band: any twin whose arithmetic fits is served
        params = tmp_path / "params.json"
        params.write_text('{"alpha": 0.008}')
        replies = []

        def interrupt(server, poll_interval=0.5):
            replies.extend(map(server.protocol.handle_command, ["Q1 100", "X_ADV 100000", "T1"]))
            raise KeyboardInterrupt

        monkeypatch.setattr(PlantServer, "serve_forever", interrupt)
        assert main(["plant-serve", "--listen", "127.0.0.1:0", "--params", str(params)]) == 0
        assert replies == ["100.00", "OK", "27.00"]

    @pytest.mark.parametrize(
        "twin, problem",
        [('{"c_h": 1e-300}', "does not fit a float"), ('{"alpha": 1e300}', "beyond the 1e+12 degC")],
    )
    def test_extreme_params_exit_2_before_binding(self, tmp_path, capsys, twin, problem):
        assert serve_on_an_occupied_port(tmp_path, twin) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and problem in err


def serve_on_an_occupied_port(tmp_path, params_doc: str) -> int:
    """``plant-serve``'s exit code with ``params_doc`` as its ``--params``
    file; params taken as valid fail to bind instead of serving."""
    params = tmp_path / "params.json"
    params.write_text(params_doc)
    blocker = socket.socket()
    blocker.bind(("127.0.0.1", 0))
    blocker.listen(1)
    try:
        port = blocker.getsockname()[1]
        return main(["plant-serve", "--listen", f"127.0.0.1:{port}", "--params", str(params)])
    finally:
        blocker.close()


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


# --- an odd input file is one error line and exit 2 ----------------------------

ODD_LINES = {
    "deep nesting": b"[" * 100000,
    "NaN": b'{"latency": NaN}',
    "non-UTF-8 byte": b'{"model": "\xff"}',
    "vertical tab and form feed": b"\x0b\x0c",
}

# the first line of a run log, as RunLogWriter writes it
RUN_LOG_HEADER = dumps_record({
    "kind": "header", "format": LOG_FORMAT, "config": RunConfig(), "config_digest": config_digest(RunConfig()),
})

# Per input: the argv naming the file as {file} and any output as {out}, the
# file's lines before the odd one, and how the error line starts.
ODD_FILE_COMMANDS = {
    "report --log": (
        ["report", "--log", "{file}"], [RUN_LOG_HEADER], "report error (line 2): bad log line: ",
    ),
    "run --config": (
        ["run", "--config", "{file}", "--out", "{out}"], [],
        "config error: config file {file} is not valid JSON: ",
    ),
    "run --backend replay:": (
        ["run", "--config", str(CASE_CONFIG), "--backend", "replay:{file}", "--out", "{out}"],
        ['{"response_text": "ACTION: ON", "latency": 1.0}'],
        "config error: bad transcript {file} (line 2): bad transcript line: ",
    ),
    "plant-serve --params": (
        ["plant-serve", "--listen", "127.0.0.1:0", "--params", "{file}"], [],
        "config error: params file {file} is not valid JSON: ",
    ),
}


@pytest.mark.parametrize("odd", list(ODD_LINES))
@pytest.mark.parametrize("command", list(ODD_FILE_COMMANDS))
def test_an_odd_input_file_is_one_error_line_and_exit_2(tmp_path, capsys, command, odd):
    argv, before, message = ODD_FILE_COMMANDS[command]
    names = {"file": tmp_path / "input", "out": tmp_path / "out.jsonl"}
    names["file"].write_bytes("".join(line + "\n" for line in before).encode() + ODD_LINES[odd] + b"\n")
    code = main([arg.format(**names) for arg in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    (line,) = err.splitlines()
    assert line.startswith(message.format(**names))


# --- the exit-code contract, drawn ---------------------------------------------------


class Faulty:
    """``inner`` with the ``nth`` call of its method ``name`` raising
    ``error()`` instead; every other attribute is ``inner``'s."""

    def __init__(self, inner, name: str, nth: int, error):
        self._inner, self._name, self._left, self._error = inner, name, nth, error

    def __getattr__(self, attr):
        value = getattr(self._inner, attr)
        if attr != self._name:
            return value

        def call(*args, **kwargs):
            self._left -= 1
            if self._left == 0:
                raise self._error()
            return value(*args, **kwargs)

        return call


class FailingFile:
    """A file whose ``nth`` write fails as a full disk does, and its close
    after that too."""

    def __init__(self, fh, nth: int):
        self._fh, self._left = fh, nth

    def write(self, text):
        self._left -= 1
        if self._left <= 0:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self._fh.write(text)

    def flush(self):
        self._fh.flush()

    def close(self):
        self._fh.close()
        if self._left <= 0:
            raise OSError(errno.ENOSPC, "No space left on device")


@st.composite
def accepted_configs(draw):
    """A config document that loads: a short lockstep run of the case study
    with a drawn validator, monitor, reprompt budget, policy and latency."""
    duration = draw(st.sampled_from([5.0, 30.0, 120.0]))
    twin = {"kind": "twin", "horizon": draw(st.sampled_from([1.0, duration])), "envelope": [20.0, 30.0]}
    latency = draw(st.sampled_from([
        {"kind": "fixed", "seconds": 5.67}, {"kind": "fixed", "seconds": 0.5},
        {"kind": "lognormal", "mu": 0.0, "sigma": 0.5},
    ]))
    return {
        "backend": {
            "kind": "scripted",
            "script": {
                "kind": draw(st.sampled_from(["oracle", "flip", "always_wrong"])),
                "p_wrong_first": draw(st.sampled_from([0.0, 0.4, 1.0])),
                "p_correct_on_feedback": draw(st.sampled_from([0.0, 0.63, 1.0])),
                "seed": draw(st.integers(0, 3)),
            },
            "latency": latency,
        },
        "run": {
            "duration": duration,
            "max_reprompts": draw(st.integers(0, 3)),
            "validator": draw(st.sampled_from([{"kind": "rule"}, twin])),
            "monitor": draw(st.sampled_from([{"kind": "continuous"}, {"kind": "anomaly", "margin": 0.5}])),
            "initial_action": draw(st.sampled_from(["ON", "OFF"])),
            "safe_action_policy": draw(st.sampled_from(["expected_rule", "force_off"])),
        },
    }


# a fresh exception per raise: a re-raised one keeps growing its traceback
BACKEND_ERRORS = {
    "backend error": lambda: BackendError("service unavailable", status=503, elapsed=2.0),
    "transcript runs out": lambda: ConfigError("no recording"),
}
backend_faults = st.none() | st.tuples(st.integers(1, 30), st.sampled_from(list(BACKEND_ERRORS)))
plant_faults = st.none() | st.tuples(
    st.sampled_from(["read_temperature", "apply_heater", "advance"]), st.integers(1, 30)
)


@settings(max_examples=100, deadline=None)
# a failed header write: the run log is closed before exit 2
@example(doc={"backend": {"latency": {"kind": "fixed", "seconds": 1.0}}, "run": {"duration": 5.0}},
         backend_fault=None, plant_fault=None, write_fault=1)
@given(
    doc=accepted_configs(),
    backend_fault=backend_faults,
    plant_fault=plant_faults,
    write_fault=st.none() | st.integers(1, 30),
)
def test_every_failure_after_set_up_is_an_exit_code_and_one_line(
    tmp_path_factory, doc, backend_fault, plant_fault, write_fault
):
    # a backend that fails on a drawn call, a plant that fails on a drawn
    # call and a run log whose drawn write fails, each or none
    tmp = tmp_path_factory.mktemp("contract")
    config, log = tmp / "config.json", tmp / "run.jsonl"
    config.write_text(json.dumps(doc))
    build_backend, build_plant = cli._build_backend, cli._build_plant

    def faulty_backend(backend_config):
        backend = build_backend(backend_config)
        if backend_fault is None:
            return backend
        nth, error = backend_fault
        return Faulty(backend, "complete", nth, BACKEND_ERRORS[error])

    def faulty_plant(*args):
        plant = build_plant(*args)
        if plant_fault is None:
            return plant
        name, nth = plant_fault
        return Faulty(plant, name, nth, lambda: PlantIoError(f"link lost on {name} call {nth}"))

    def open_failing(path, mode="r", **kwargs):
        fh = open(path, mode, **kwargs)
        return FailingFile(fh, write_fault) if write_fault and Path(path) == log else fh

    err = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        patch.setattr(cli, "_build_backend", faulty_backend)
        patch.setattr(cli, "_build_plant", faulty_plant)
        patch.setattr(jsonio, "open", open_failing, raising=False)
        code = main(["run", "--config", str(config), "--out", str(log)])
    lines = err.getvalue().splitlines()
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert lines == []
        assert read_run_log(log)[1]
    else:
        (line,) = lines
        assert line.startswith("config error" if code == 2 else "plant error")


# --- one exit path: main turns every error into its code and one line ------------

# Per command: its arguments, with {tmp} for the test's directory, and the
# owner and name of a call it makes during set-up and of one it makes mid-run.
EXIT_PATHS = {
    "run": (
        ["run", "--config", str(CASE_CONFIG), "--duration", "60", "--out", "{tmp}/out.jsonl"],
        (cli, "load_config"), (cli, "run_loop"),
    ),
    "plant-serve": (["plant-serve", "--listen", "127.0.0.1:0"], (cli, "TwinPlant"), (PlantServer, "serve_forever")),
    "report": (["report", "--log", "{tmp}/run.jsonl"], (cli, "read_run_log"), (cli, "run_metrics")),
}
# a fresh exception per raise, each with the exit code main returns for it
EXIT_ERRORS = [
    (lambda: ConfigError("boom"), 2),
    (lambda: InvalidInput("boom"), 2),
    (lambda: PlantIoError("boom"), 3),
]


@pytest.mark.parametrize("stage", ["set-up", "mid-run"])
@pytest.mark.parametrize("command", list(EXIT_PATHS))
def test_main_alone_turns_an_error_into_its_exit_code_and_one_line(tmp_path, capsys, monkeypatch, command, stage):
    argv, during, after = EXIT_PATHS[command]
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    owner, name = during if stage == "set-up" else after
    errors = EXIT_ERRORS
    if command == "report":
        # the log the report reads
        log = str(tmp_path / "run.jsonl")
        assert main(["run", "--config", str(CASE_CONFIG), "--duration", "60", "--out", log]) == 0
        errors = [*errors, (lambda: LogFormatError("boom", line_number=7), 2)]
    capsys.readouterr()
    for error, code in errors:
        raised = error()

        def fail(*args, **kwargs):
            raise raised

        with monkeypatch.context() as patch:
            patch.setattr(owner, name, fail)
            assert main(argv) == code, raised
        err = capsys.readouterr().err
        what = "report" if command == "report" else "plant" if code == 3 else "config"
        where = " (line 7)" if isinstance(raised, LogFormatError) else ""
        if command == "run" and stage == "mid-run":
            where = ", aborting run (partial log kept)"
        assert err == f"{what} error{where}: boom\n"


class BrokenStdout:
    """A stdout whose every write fails as a pipe's does once its reader has gone."""

    error = BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

    def write(self, text):
        raise self.error

    def flush(self):
        pass


def exit_path_argv(tmp_path, command):
    """``EXIT_PATHS``' arguments of ``command``; for ``report``, after the run that writes its log."""
    if command == "report":
        log = str(tmp_path / "run.jsonl")
        assert main(["run", "--config", str(CASE_CONFIG), "--duration", "60", "--out", log]) == 0
    return [arg.format(tmp=tmp_path) for arg in EXIT_PATHS[command][0]]


@pytest.mark.parametrize("command", list(EXIT_PATHS))
def test_a_stdout_that_cannot_be_written_is_exit_2_and_one_line(tmp_path, capsys, monkeypatch, command):
    argv = exit_path_argv(tmp_path, command)
    capsys.readouterr()
    monkeypatch.setattr(sys, "stdout", BrokenStdout())
    assert main(argv) == 2
    what = "report" if command == "report" else "config"
    assert capsys.readouterr().err == f"{what} error: cannot write stdout: {BrokenStdout.error}\n"


@pytest.mark.parametrize(
    "command, stage",
    # an interrupt while plant-serve serves is how it stops: exit 0
    [(command, stage) for command in EXIT_PATHS for stage in ("set-up", "mid-run") if command != "plant-serve"]
    + [("plant-serve", "set-up")],
)
def test_main_turns_an_interrupt_into_exit_130_and_one_line(tmp_path, capsys, monkeypatch, command, stage):
    argv = exit_path_argv(tmp_path, command)
    owner, name = EXIT_PATHS[command][1 if stage == "set-up" else 2]

    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    capsys.readouterr()
    monkeypatch.setattr(owner, name, interrupt)
    assert main(argv) == 130
    assert capsys.readouterr().err == f"{command} interrupted\n"
    if command == "run" and stage == "mid-run":
        # the partial log is kept: here, its header
        assert read_run_log(tmp_path / "out.jsonl")[1] == []


# --- an override builds a clean section of its backend kind ---------------------

HTTP_SECTION = {"kind": "http", "base_url": "http://127.0.0.1:9", "model": "m", "temperature": 0.5, "timeout": 5.0}


def backend_as_run(tmp_path, monkeypatch, config, *flags):
    """The backend config ``run --config config flags...`` builds its backend from."""
    built = []

    def capture(backend_config):
        built.append(backend_config)
        raise ConfigError("captured")

    monkeypatch.setattr(cli, "_build_backend", capture)
    assert main(["run", "--config", str(config), *flags, "--out", str(tmp_path / "r.jsonl")]) == 2
    (backend_config,) = built
    return backend_config


@pytest.mark.parametrize("section", [None, HTTP_SECTION], ids=["case-study", "http"])
def test_a_replay_override_is_a_replay_section_alone(tmp_path, monkeypatch, capsys, section):
    config = write_config(tmp_path, {"backend": section} if section else {})
    built = backend_as_run(tmp_path, monkeypatch, config, "--backend", "replay:T.jsonl")
    assert built == BackendConfig(kind="replay", transcript_path="T.jsonl")


def test_a_scripted_override_of_an_http_section_keeps_no_http_field(tmp_path, monkeypatch, capsys):
    # the sample period floor bounds a lockstep run of a scripted backend with no latency
    config = write_config(tmp_path, {"backend": HTTP_SECTION, "run.sample_period_floor": 1.0})
    built = backend_as_run(tmp_path, monkeypatch, config, "--backend", "scripted:flip", "--seed", "7")
    assert built == BackendConfig(script=ScriptedPolicy(kind="flip", seed=7), latency=LatencySpec(seed=7))


@pytest.mark.parametrize(
    "section", [HTTP_SECTION, {"kind": "replay", "transcript_path": "T.jsonl"}], ids=["http", "replay"]
)
def test_a_seed_seeds_a_scripted_backend_only(tmp_path, monkeypatch, capsys, section):
    config = write_config(tmp_path, {"backend": section})
    assert backend_as_run(tmp_path, monkeypatch, config, "--seed", "7") == load_config(config).backend


# --- a stderr that cannot be written never changes the exit code -----------------


class UnwritableStderr:
    """A stderr whose every write fails as a full device's does."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def flush(self):
        pass


def test_a_stderr_that_cannot_be_written_never_changes_the_exit_code(tmp_path, capsys, monkeypatch):
    log, torn = tmp_path / "run.jsonl", tmp_path / "torn.jsonl"
    assert main(["run", "--config", str(CASE_CONFIG), "--duration", "60", "--out", str(log)]) == 0
    lines = log.read_text().splitlines(keepends=True)
    torn.write_text("".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
    capsys.readouterr()
    assert main(["report", "--log", str(torn)]) == 0
    expected = capsys.readouterr().out
    monkeypatch.setattr(sys, "stderr", UnwritableStderr())
    # the error line, the torn-tail warning and the interrupt line
    assert main(["report", "--log", str(tmp_path / "nope.jsonl")]) == 2
    assert main(["report", "--log", str(torn)]) == 0
    assert capsys.readouterr().out == expected

    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "read_run_log", interrupt)
    assert main(["report", "--log", str(torn)]) == 130
