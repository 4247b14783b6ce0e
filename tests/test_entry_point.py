"""The ``twinloop`` command as a user starts it: exit code, stderr and the
files a run leaves, one row per probe.

Each row runs ``$TWINLOOP_EXE`` when it is set, e.g. to the installed console
script with ``TWINLOOP_EXE=$(command -v twinloop)``; otherwise
``python -m twinloop`` from this checkout.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CASE_CONFIG = ROOT / "configs" / "case_study.json"


def twinloop(args: list, cwd: Path) -> subprocess.CompletedProcess:
    exe = os.environ.get("TWINLOOP_EXE")
    if exe:
        argv, env = [exe], os.environ
    else:
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        argv, env = [sys.executable, "-m", "twinloop"], {**os.environ, "PYTHONPATH": path}
    return subprocess.run([*argv, *args], capture_output=True, text=True, timeout=60, cwd=cwd, env=env)


def old_agents_spelling(config: dict) -> None:
    operator = config.pop("operator")
    operator["task"] = {"description_template": operator["task"]}
    config["agents"] = {"operator": operator}


# name: (config edit, arguments after --config, exit code, stderr check,
# files that must not exist afterwards)
ROWS = {
    "old-agents-spelling": (
        old_agents_spelling, ["--duration", "60", "--out", "agents.jsonl"], 2,
        lambda err: len(err.splitlines()) == 1 and "'agents'" in err, ["agents.jsonl"],
    ),
}


@pytest.mark.parametrize("edit, args, code, stderr_ok, absent", ROWS.values(), ids=ROWS.keys())
def test_run(tmp_path, edit, args, code, stderr_ok, absent):
    config = json.loads(CASE_CONFIG.read_text())
    edit(config)
    (tmp_path / "config.json").write_text(json.dumps(config))
    proc = twinloop(["run", "--config", "config.json", *args], tmp_path)
    assert proc.returncode == code, proc.stderr
    assert stderr_ok(proc.stderr), proc.stderr
    assert "Traceback" not in proc.stderr
    assert not [name for name in absent if (tmp_path / name).exists()]
