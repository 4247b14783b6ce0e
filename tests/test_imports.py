"""Import footprint: each process loads only the modules it runs.

Every case runs in a fresh interpreter, since the test process itself has
long since loaded ``socket`` and every twinloop module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CASE_CONFIG = ROOT / "configs" / "case_study.json"

# The public names of the package, by the module that defines them.
PUBLIC = {
    "agents": [
        "AgentSpec", "DecisionContext", "Thresholds", "Verdict", "compose_feedback",
        "expected_action", "monitor_trigger", "parse_action", "render_prompt", "validate_rule",
        "validate_twin",
    ],
    "backends": [
        "BackendConfig", "Exchange", "HttpBackend", "LatencySpec", "ReplayBackend",
        "ScriptedBackend", "ScriptedPolicy", "TranscriptRecorder", "load_replay",
    ],
    "errors": [
        "BackendError", "InvalidInput", "ParseError", "PlantIoError", "TwinloopError",
    ],
    "metrics": [
        "AccuracyMetrics", "ControlMetrics", "RunMetrics", "accuracy_metrics", "control_metrics",
        "report", "run_metrics",
    ],
    "orchestrator": [
        "AttemptRecord", "EpisodeRecord", "MonitorMode", "RunConfig", "RunLogWriter",
        "ValidatorMode", "read_run_log", "run_episode", "run_loop", "safety_action",
    ],
    "plantio": ["HeaterAction", "PlantProtocol", "TwinPlant"],
    "tcp": ["PlantServer", "TcpPlantClient"],
    "twin": ["TwinParams", "TwinState", "rollout", "steady_state", "step"],
}

# Everything the control loop needs, and nothing a plant server runs.
LOOP_MODULES = ["agents", "backends", "orchestrator", "metrics", "jsonio", "cli"]

# A child's expression for the modules of interest it has loaded.
LOADED = "json.dumps(sorted(m for m in sys.modules if m == 'socket' or m.startswith('twinloop')))"


def run_child(script: str, *args: str) -> dict:
    """Run ``script`` in a fresh interpreter; it prints one JSON object last."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_public_names_are_pinned():
    import twinloop

    assert sorted(twinloop.__all__) == sorted(name for names in PUBLIC.values() for name in names)
    assert len(twinloop.__all__) == 52
    assert twinloop.__version__ == "0.1.0"


def test_public_names_resolve_bind_and_list_lazily():
    got = run_child(
        "import importlib, json, twinloop\n"
        "listed = dir(twinloop)\n"
        "namespace = {}\n"
        "exec('from twinloop import *', namespace)\n"
        "public = json.loads(__import__('sys').argv[1])\n"
        "print(json.dumps({\n"
        "    'unlisted': sorted(set(twinloop.__all__) - set(listed)),\n"
        "    'bound': sorted(set(namespace) - {'__builtins__'}),\n"
        "    'foreign': sorted(\n"
        "        name for module, names in public.items() for name in names\n"
        "        if getattr(twinloop, name)\n"
        "        is not getattr(importlib.import_module('twinloop.' + module), name)\n"
        "    ),\n"
        "}))\n",
        json.dumps(PUBLIC),
    )
    assert got["unlisted"] == []
    assert got["bound"] == sorted(name for names in PUBLIC.values() for name in names)
    assert got["foreign"] == []


def test_unknown_name_is_an_attribute_error():
    import twinloop

    with pytest.raises(AttributeError, match="no attribute 'plantio_server'"):
        twinloop.plantio_server  # noqa: B018


def test_submodules_still_import_from_the_package():
    loaded = run_child(f"import json, sys\nfrom twinloop import twin, tcp\nprint({LOADED})")
    assert loaded == ["socket", "twinloop", "twinloop.errors", "twinloop.plantio",
                      "twinloop.tcp", "twinloop.twin"]


def test_plant_server_loads_no_loop_module():
    loaded = run_child(
        "import json, sys\n"
        "from twinloop import PlantProtocol, PlantServer, TwinParams, TwinPlant\n"
        f"print({LOADED})"
    )
    assert not {f"twinloop.{m}" for m in LOOP_MODULES} & set(loaded)
    assert "twinloop.tcp" in loaded



def test_cli_import_generates_one_code_object_per_frozen_class():
    """Start-up compiles generated source once per record class, and never
    builds a signature (dataclasses' docstring of an undocumented class)."""
    got = run_child(
        "import builtins, inspect, json, sys\n"
        "generated, signatures = [], []\n"
        "def counting(call):\n"
        "    def counted(source, *args, **kwargs):\n"
        "        if isinstance(source, str):\n"
        "            generated.append(call.__name__)\n"
        "        return call(source, *args, **kwargs)\n"
        "    return counted\n"
        "for name in ('exec', 'eval', 'compile'):\n"
        "    setattr(builtins, name, counting(getattr(builtins, name)))\n"
        "signature = inspect.signature\n"
        "inspect.signature = lambda *args, **kwargs: signatures.append(args) or signature(*args, **kwargs)\n"
        "import twinloop.cli\n"
        "imported = len(generated)\n"
        "classes = {\n"
        "    v for m in list(sys.modules.values()) if m.__name__.startswith('twinloop.')\n"
        "    for v in vars(m).values() if '__dataclass_fields__' in getattr(v, '__dict__', ())\n"
        "}\n"
        "import dataclasses\n"
        "bare = type('Bare', (), {'__doc__': 'A bare class.', '__annotations__': {'x': int}})\n"
        "dataclasses.dataclass(init=False, repr=False, eq=False)(bare)\n"
        "print(json.dumps({'generated': imported, 'classes': len(classes),\n"
        "                  'stdlib': len(generated) - imported, 'signatures': len(signatures)}))\n"
    )
    # ``stdlib`` is what the dataclasses call inside frozen compiles for one
    # class: nothing before Python 3.13, from 3.13 on one source that holds
    # no method; the constant covers generated source elsewhere, such as a
    # namedtuple's
    assert got["classes"] == 19
    assert got["stdlib"] <= 1
    assert got["generated"] <= got["classes"] * (1 + got["stdlib"]) + 3
    assert got["signatures"] == 0

@pytest.fixture(scope="module")
def run_log(tmp_path_factory):
    from twinloop.cli import main

    log = tmp_path_factory.mktemp("imports") / "run.jsonl"
    argv = ["run", "--config", str(CASE_CONFIG), "--backend", "scripted:flip"]
    assert main(argv + ["--duration", "240", "--out", str(log)]) == 0
    return log


def test_reading_a_run_log_loads_no_backend(run_log):
    loaded = run_child(
        "import json, sys\n"
        "from twinloop import read_run_log, run_metrics, report\n"
        "config, episodes = read_run_log(sys.argv[1])\n"
        "report(run_metrics(episodes, config.thresholds, config.duration))\n"
        f"print({LOADED})",
        str(run_log),
    )
    assert "twinloop.orchestrator" in loaded and "twinloop.metrics" in loaded
    assert "twinloop.backends" not in loaded


@pytest.mark.parametrize("command", ["run", "report"])
def test_cli_without_a_served_plant_loads_no_socket(tmp_path, run_log, command):
    if command == "run":
        argv = ["run", "--config", str(CASE_CONFIG), "--plant", "sim", "--backend",
                "scripted:flip", "--duration", "240", "--out", str(tmp_path / "run.jsonl")]
    else:
        argv = ["report", "--log", str(run_log), "--format", "machine"]
    loaded = run_child(
        "import json, sys\n"
        "from twinloop import cli\n"
        "assert cli.main(json.loads(sys.argv[1])) == 0\n"
        f"print({LOADED})",
        json.dumps(argv),
    )
    assert "twinloop.cli" in loaded
    assert "socket" not in loaded and "twinloop.tcp" not in loaded


@pytest.mark.parametrize(
    "validator",
    [pytest.param({"kind": "rule"}, id="rule"), {"kind": "twin", "horizon": 300.0, "envelope": [20.0, 30.0]}],
)
def test_the_loop_imports_nothing(tmp_path, validator):
    """A deferred import belongs in set-up; a module first loaded by an
    episode would land in that episode's decision time."""
    doc = json.loads(CASE_CONFIG.read_text())
    doc["backend"]["script"]["kind"] = "flip"
    doc["run"]["validator"] = validator
    # the plant starts at ambient, so the first reading takes the rare
    # decimal path of a rounding tie
    doc["twin"]["t_amb"] = 23.005
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    got = run_child(
        "import json, sys\n"
        "from twinloop.backends import ScriptedBackend\n"
        "from twinloop.cli import load_config\n"
        "from twinloop.orchestrator import RunLogWriter, run_loop\n"
        "from twinloop.plantio import TwinPlant\n"
        "cfg = load_config(sys.argv[1])\n"
        "backend = ScriptedBackend(cfg.backend.script, cfg.backend.latency)\n"
        "plant = TwinPlant(cfg.twin, mode=cfg.run.clock_mode)\n"
        "snapshots = []\n"
        "with RunLogWriter(sys.argv[2], cfg.run) as writer:\n"
        "    def on_episode(record):\n"
        "        if len(snapshots) == 1:\n"
        "            snapshots.append(sorted(sys.modules))\n"
        "        writer.write_episode(record)\n"
        "    snapshots.append(sorted(sys.modules))\n"
        "    episodes = run_loop(plant, backend, cfg.run, operator=cfg.operator,\n"
        "                        twin_params=cfg.twin, on_episode=on_episode)\n"
        "    snapshots.append(sorted(sys.modules))\n"
        "print(json.dumps({'episodes': len(episodes), 'first': episodes[0].t_sensor,\n"
        "                  'snapshots': snapshots}))\n",
        str(config),
        str(tmp_path / "run.jsonl"),
    )
    assert got["first"] == 23.01 and got["episodes"] > 100
    before, first_episode, after = got["snapshots"]
    assert first_episode == before
    assert after == before
