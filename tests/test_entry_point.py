"""The ``twinloop`` command as a user starts it: exit code, stderr and the
files a run leaves, one row per single-run probe, and one test each for the
README quick start and the served plant.

Each command runs ``$TWINLOOP_EXE`` when it is set, e.g. to the installed
console script with ``TWINLOOP_EXE=$(command -v twinloop)``; otherwise
``python -m twinloop`` from this checkout.
"""

import contextlib
import json
import os
import re
import select
import signal
import socket
import subprocess
import sys
import threading
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

ROOT = Path(__file__).resolve().parent.parent
CASE_CONFIG = ROOT / "configs" / "case_study.json"


def command() -> tuple[list, dict]:
    exe = os.environ.get("TWINLOOP_EXE")
    if exe:
        return [exe], os.environ
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return [sys.executable, "-m", "twinloop"], {**os.environ, "PYTHONPATH": path}


def twinloop(args: list, cwd: Path, timeout: float = 60.0) -> subprocess.CompletedProcess:
    argv, env = command()
    return subprocess.run([*argv, *args], capture_output=True, text=True, timeout=timeout, cwd=cwd, env=env)


@contextlib.contextmanager
def served(cwd: Path):
    """``plant-serve`` on a port the system picks: yields ``(port,
    stopped)``; on exit a SIGINT stops the server, and ``stopped`` then holds
    its exit code, stdout and stderr."""
    argv, env = command()
    listen = [*argv, "plant-serve", "--listen", "127.0.0.1:0"]
    with subprocess.Popen(listen, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=cwd, env=env) as proc:
        first, stopped = "", []
        try:
            assert select.select([proc.stdout], [], [], 10.0)[0], "plant-serve printed no address in 10 s"
            first = proc.stdout.readline()
            port = re.match(r"serving plant on 127\.0\.0\.1:([0-9]+) ", first)
            assert port, first
            yield int(port[1]), stopped
        finally:
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=60)
            stopped += [proc.returncode, first + out, err]


def answer_as_a_fake_plant(listener: socket.socket) -> None:
    conn, _ = listener.accept()
    # the client closes with the rest of the long reply unread
    with conn, conn.makefile("rb") as lines, contextlib.suppress(OSError):
        for raw in lines:
            verb, *args = raw.split()
            replies = {b"MODE": b"lockstep", b"T1": b"2" * 2**20, b"X_ADV": b"OK"}
            reply = b"%.2f" % float(args[0]) if verb == b"Q1" else replies.get(verb, b"ERR")
            conn.sendall(reply + b"\n")


@contextlib.contextmanager
def fake_plant():
    """A plant on a thread that answers MODE and Q1 as a plant does, and T1
    with 1 MiB; yields the ``--plant`` arguments that reach it."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        thread = threading.Thread(target=answer_as_a_fake_plant, args=(listener,))
        thread.start()
        try:
            yield ["--plant", "tcp:127.0.0.1:%d" % listener.getsockname()[1]]
        finally:
            if thread.is_alive():
                # a run that never connected leaves accept() waiting
                socket.create_connection(listener.getsockname(), timeout=10).close()
            thread.join(60)
            assert not thread.is_alive()


def old_agents_spelling(config: dict) -> None:
    operator = config.pop("operator")
    operator["task"] = {"description_template": operator["task"]}
    config["agents"] = {"operator": operator}


def twin_dt_internal(config: dict) -> None:
    config["twin"]["dt_internal"] = 0.1


def realtime_past_the_end(config: dict) -> None:
    config["run"]["clock_mode"] = "realtime"
    config["backend"]["latency"] = {"kind": "fixed", "seconds": 1e300}


class Row(NamedTuple):
    args: list  # after ``run --config config.json``
    code: int
    stderr_ok: Callable = lambda err: True
    edit: Callable = lambda config: None
    first: tuple = ()  # the arguments of a run before this one, which must exit 0
    plant: Callable = lambda: contextlib.nullcontext([])  # yields more arguments
    absent: tuple = ()  # files that must not exist afterwards
    wall: float = 60.0  # seconds the run may take


ROWS = {
    "old-agents-spelling": Row(
        ["--duration", "60", "--out", "agents.jsonl"], 2,
        lambda err: len(err.splitlines()) == 1 and "'agents'" in err, old_agents_spelling, absent=("agents.jsonl",),
    ),
    "twin-dt-internal": Row(
        ["--duration", "60", "--out", "dt.jsonl"], 2,
        lambda err: len(err.splitlines()) == 1 and "'twin.dt_internal'" in err, twin_dt_internal, absent=("dt.jsonl",),
    ),
    "replay-runs-out": Row(
        ["--duration", "1200", "--backend", "replay:transcript.jsonl", "--out", "replayed.jsonl"], 2,
        first=("--duration", "600", "--record", "transcript.jsonl", "--out", "recorded.jsonl"),
    ),
    # a run that is not refused would not end in its wall bound
    "beyond-one-week": Row(["--duration", "1e12", "--out", "long.jsonl"], 2, absent=("long.jsonl",)),
    "realtime-wait-past-the-end": Row(
        ["--duration", "0.5", "--out", "realtime.jsonl"], 0, edit=realtime_past_the_end, wall=30.0,
    ),
    "long-plant-reply": Row(
        ["--duration", "240", "--out", "fake.jsonl"], 3,
        lambda err: err.count("\n") == 1 and len(err.split("\n")[0]) < 200, plant=fake_plant,
    ),
}


@pytest.mark.parametrize("row", ROWS.values(), ids=ROWS.keys())
def test_run(tmp_path, row):
    config = json.loads(CASE_CONFIG.read_text())
    row.edit(config)
    (tmp_path / "config.json").write_text(json.dumps(config))
    run = ["run", "--config", "config.json"]
    if row.first:
        first = twinloop([*run, *row.first], tmp_path)
        assert first.returncode == 0, first.stderr
    with row.plant() as plant:
        proc = twinloop([*run, *row.args, *plant], tmp_path, timeout=row.wall)
    assert proc.returncode == row.code, proc.stderr
    assert row.stderr_ok(proc.stderr), proc.stderr
    assert "Traceback" not in proc.stderr
    assert not [name for name in row.absent if (tmp_path / name).exists()]


def test_quick_start_and_a_rerun_from_the_log_header(tmp_path):
    oracle = ["run", "--config", str(CASE_CONFIG), "--backend", "scripted:oracle", "--plant", "sim"]
    for args in (
        [*oracle, "--duration", "2400", "--out", "run.jsonl"],
        *(["report", "--log", "run.jsonl", "--format", fmt] for fmt in ("table", "csv", "machine")),
        ["report", "--log", "run.jsonl", "--points", "points.csv"],
    ):
        proc = twinloop(args, tmp_path)
        assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "points.csv").stat().st_size > 0
    # a run log header's config is a valid run section of a config file
    config = json.loads(CASE_CONFIG.read_text())
    with open(tmp_path / "run.jsonl") as fh:
        config["run"] = json.loads(fh.readline())["config"]
    (tmp_path / "spliced.json").write_text(json.dumps(config))
    oracle[2] = "spliced.json"
    proc = twinloop([*oracle, "--out", "rerun.jsonl"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "run.jsonl").read_bytes() == (tmp_path / "rerun.jsonl").read_bytes()


def test_a_served_plant_writes_the_in_process_log_and_stops_cleanly(tmp_path):
    with served(tmp_path) as (port, stopped):
        for plant in (f"tcp:127.0.0.1:{port}", "sim"):
            flip = ["--backend", "scripted:flip", "--seed", "5", "--duration", "240"]
            out = plant.partition(":")[0] + ".jsonl"
            proc = twinloop(["run", "--config", str(CASE_CONFIG), *flip, "--plant", plant, "--out", out], tmp_path)
            assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "tcp.jsonl").read_bytes() == (tmp_path / "sim.jsonl").read_bytes()
        address = ("127.0.0.1", port)
        # an advance to an infinite clock is refused, and the plant serves on
        with socket.create_connection(address, timeout=10) as sock, sock.makefile("rb") as fh:
            sock.sendall(b"X_ADV 1e308\nX_ADV 1e308\nVER\n")
            assert [fh.readline() for _ in range(3)] == [b"OK\n", b"ERR\n", b"AGENTIC-TWIN 1.0\n"]
        # a line beyond the server's limit is answered ERR and ends its
        # connection, and the next connection is served
        with socket.create_connection(address, timeout=10) as sock:
            with contextlib.suppress(OSError):
                sock.sendall(b"x" * 2**20)
            with sock.makefile("rb") as fh:
                replies = fh.read()
        with socket.create_connection(address, timeout=10) as sock, sock.makefile("rb") as fh:
            sock.sendall(b"VER\n")
            replies += fh.readline()
        assert replies == b"ERR\nAGENTIC-TWIN 1.0\n"
    code, out, err = stopped
    assert code == 0 and re.search("^plant stopped at", out, re.M) and "Traceback" not in err, out + err
    # the X_ADV probe left the clock at 1e308, which the stop line prints short
    last = out.splitlines()[-1]
    assert last.startswith("plant stopped at t=1e+308s: ") and len(last) < 100, last


def test_ci_calls_the_command_only_through_this_module():
    # a new probe of the command is a row here, which Tier-1 runs as well
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    assert not re.findall(r"\btwinloop\s+(?:run|report|plant-serve)\b.*", workflow)
    assert 'TWINLOOP_EXE="$(command -v twinloop)" python -m pytest -q tests/test_entry_point.py' in workflow
