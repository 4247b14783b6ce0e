"""The four benchmark workloads, their output checks and the twin reference.

Every workload is a closed loop with one controller: ``run_loop`` starts the
next decision only after the previous one is applied.  Load comes from this
process plus at most one child at a time (the plant server or a CLI command).
All of them run the flip policy (wrong first answer with probability 0.4,
corrected by feedback with probability 0.63) for 2400 simulated seconds.

One call of :func:`run_once` is one complete run of one scripted seed: set-up,
the episodes with their log written as the CLI writes it, and the report read
back from that log.  Host times come from ``time.monotonic``, which child
processes share, so a child's stamps and the parent's clock compare directly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from twinloop import (
    LatencySpec,
    RunConfig,
    RunLogWriter,
    ScriptedBackend,
    ScriptedPolicy,
    TcpPlantClient,
    TwinParams,
    TwinPlant,
    ValidatorMode,
    read_run_log,
    report,
    run_loop,
    run_metrics,
    safety_action,
)

from tracing import Tracer, episodes_digest, instrument_run, merge, quantile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CASE_STUDY = ROOT / "configs" / "case_study.json"
CHILD_TIMEOUT_S = 120.0

DURATION_S = 2400.0
FLIP = ScriptedPolicy(kind="flip", p_wrong_first=0.4, p_correct_on_feedback=0.63)
LOGNORMAL_1S = LatencySpec(kind="lognormal", mu=0.0, sigma=0.5)
FIXED_5_67S = LatencySpec(kind="fixed", seconds=5.67)


@dataclass(frozen=True)
class Workload:
    """``plant`` is "sim" (in-process), "tcp" (server child) or "cli" (the
    ``twinloop run``/``report`` commands on ``configs/case_study.json``, whose
    own config then replaces ``validator`` and ``latency``)."""

    name: str
    plant: str
    seeds_per_run: int
    validator: ValidatorMode = field(default_factory=ValidatorMode)
    latency: LatencySpec = LOGNORMAL_1S

    def seeds(self, seed: int) -> list[int]:
        """Scripted seeds of one benchmark run; distinct ``seed`` give disjoint sets."""
        return [seed * 1000 + i for i in range(self.seeds_per_run)]

    def run_config(self) -> RunConfig:
        return RunConfig(duration=DURATION_S, validator=self.validator)

    def backend(self, seed: int) -> ScriptedBackend:
        # Both streams take the seed, as ``twinloop run --seed`` does.
        return ScriptedBackend(
            dataclasses.replace(FLIP, seed=seed), dataclasses.replace(self.latency, seed=seed)
        )


# The seed counts keep the seed-to-seed spread of override_pct, a rare event
# (about 2% of episodes on the rule workloads), small next to its bound.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("cli-case-study", "cli", 24),
        Workload("flip-sweep", "sim", 16),
        # Without an explicit envelope the twin validator passes every proposal.
        Workload(
            "twin-guard", "sim", 8,
            validator=ValidatorMode(kind="twin", horizon=300.0, envelope=(20.0, 30.0)),
            latency=FIXED_5_67S,
        ),
        # Same seeds, backend and run config as flip-sweep; only the plant moves.
        Workload("tcp-plant", "tcp", 16),
    )
}


@dataclass
class Run:
    """Host times (s) and outputs of one run of one scripted seed."""

    seed: int
    setup_s: float
    wall_s: float
    loop_s: float
    report_s: float
    episodes: int
    # Percentiles of the host time between successive episode callbacks.
    gap_p50_s: float
    gap_p99_s: float
    checks: dict[str, bool] = field(default_factory=dict)
    attempts: int = 0
    log_digest: str = ""
    avg_deviation_c: float = 0.0
    time_outside_s: float = 0.0
    override_pct: float = 0.0
    ref_err_c: float = 0.0
    scale: float = 1.0  # machine-speed factor the caller applies to the host times


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


class PlantChild:
    """``plant_server.py`` in its own process, on the loopback port it reports."""

    def __init__(self, trace: bool):
        command = [sys.executable, str(HERE / "plant_server.py")] + (["--trace"] if trace else [])
        self._proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, env=child_env(), text=True
        )
        line = self._proc.stdout.readline().strip()
        if not line.isdigit():
            self.close()
            raise RuntimeError(f"plant server did not report a port: {line!r}")
        self.port = int(line)

    def finish(self) -> dict:
        """Wait for the server to exit after its client left; its span totals."""
        out, _ = self._proc.communicate(timeout=CHILD_TIMEOUT_S)
        if self._proc.returncode != 0:
            raise RuntimeError(f"plant server exited with {self._proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def close(self) -> None:
        if self._proc.poll() is None:
            self._proc.kill()
        self._proc.communicate()


def run_once(w: Workload, seed: int, workdir: Path, tracer: Tracer | None, totals: dict) -> Run:
    """One complete run of ``seed``; with a tracer, fold its spans into ``totals``."""
    log_path = workdir / f"{seed}.jsonl"
    if w.plant == "cli":
        run, digest, mem_report = _run_cli(seed, log_path, workdir, tracer is not None, totals)
        config, logged = read_run_log(log_path)
    else:
        run, digest, mem_report, (config, logged) = _run_in_process(
            w, seed, log_path, tracer, totals
        )
    m = run_metrics(logged, config.thresholds, config.duration)
    run.attempts = sum(len(e.attempts) for e in logged)
    run.avg_deviation_c = m.control.avg_deviation
    run.time_outside_s = m.control.time_outside
    run.override_pct = 100.0 * m.accuracy.overrides / m.accuracy.samples
    run.log_digest = hashlib.sha256(log_path.read_bytes()).hexdigest()
    # Every run then creates its log afresh; truncating a previous run's
    # log costs set-up time the first run of a seed does not pay.
    log_path.unlink()
    run.checks.update(output_checks(config, logged, digest, mem_report, report(m)))
    run.ref_err_c = reference_error(logged, config, TwinParams())
    return run


def _run_in_process(w: Workload, seed: int, log_path: Path, tracer: Tracer | None, totals: dict):
    clock = time.monotonic
    gaps: list[float] = []
    last = None
    server = None
    t0 = clock()
    config = w.run_config()
    params = TwinParams()
    backend = w.backend(seed)
    try:
        if w.plant == "tcp":
            server = PlantChild(trace=tracer is not None)
            plant = TcpPlantClient("127.0.0.1", server.port)
        else:
            plant = TwinPlant(params)
        writer = RunLogWriter(log_path, config)
        write = writer.write_episode
        read, compute, render = read_run_log, run_metrics, report
        if tracer is not None:
            instrument_run(tracer, plant, backend)
            write = tracer.wrap("orchestrator.log_write", write)
            read = tracer.wrap("orchestrator.log_read", read)
            compute = tracer.wrap("metrics.compute", compute)
            render = tracer.wrap("metrics.render", render)

        def on_episode(record):
            nonlocal last
            now = clock()
            if last is not None:
                gaps.append(now - last)
            last = now
            write(record)

        t1 = clock()
        try:
            episodes = run_loop(plant, backend, config, twin_params=params, on_episode=on_episode)
        finally:
            writer.close()
            if server is not None:
                plant.close()
        t2 = clock()
        if server is not None:
            merge(totals, server.finish())
    finally:
        if server is not None:
            server.close()
    logged_config, logged = read(log_path)
    render(compute(logged, logged_config.thresholds, logged_config.duration))
    t3 = clock()
    if tracer is not None:
        tracer.fold(totals)
    mem_report = report(run_metrics(episodes, config.thresholds, config.duration))
    run = Run(seed, t1 - t0, t2 - t0, t2 - t1, t3 - t2, len(episodes),
              quantile(gaps, 0.5), quantile(gaps, 0.99))
    return run, episodes_digest(episodes), mem_report, (logged_config, logged)


def _cli(stamps: Path, trace: bool, *argv: str) -> tuple[subprocess.CompletedProcess, float, float]:
    """Run one CLI command in a fresh interpreter; (result, start, end) on the monotonic clock."""
    command = [sys.executable, str(HERE / "cli_child.py"), str(stamps), "1" if trace else "0", *argv]
    start = time.monotonic()
    proc = subprocess.run(
        command, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    return proc, start, time.monotonic()


def _run_cli(seed: int, log_path: Path, workdir: Path, trace: bool, totals: dict):
    stamps_path = workdir / "stamps.json"
    run_proc, t0, t1 = _cli(
        stamps_path, trace, "run", "--config", str(CASE_STUDY), "--backend", "scripted:flip",
        "--seed", str(seed), "--out", str(log_path),
    )
    if run_proc.returncode != 0:
        raise RuntimeError(f"twinloop run exited {run_proc.returncode}: {run_proc.stderr.strip()}")
    stamps = json.loads(stamps_path.read_text(encoding="utf-8"))
    merge(totals, stamps.get("totals", {}))
    report_proc, t2, t3 = _cli(stamps_path, trace, "report", "--log", str(log_path))
    if report_proc.returncode != 0:
        raise RuntimeError(f"twinloop report exited {report_proc.returncode}: {report_proc.stderr.strip()}")
    merge(totals, json.loads(stamps_path.read_text(encoding="utf-8")).get("totals", {}))
    run = Run(
        seed, stamps["loop_start"] - t0, t1 - t0, stamps["loop_end"] - stamps["loop_start"],
        t3 - t2, stamps["episodes"], stamps["gap_p50_s"], stamps["gap_p99_s"],
    )
    # ``twinloop run`` prints the report of its in-memory episodes.
    run.checks["twinloop report prints what twinloop run printed"] = (
        report_proc.stdout == run_proc.stdout
    )
    return run, stamps["digest"], run_proc.stdout


def output_checks(config: RunConfig, logged: list, mem_digest: str, mem_report: str,
                  log_report: str) -> dict[str, bool]:
    return {
        "log re-read equals in-memory episodes": episodes_digest(logged) == mem_digest,
        "report from log equals in-memory report": log_report == mem_report.rstrip("\n"),
        "attempts within max_reprompts + 1": all(
            len(e.attempts) <= config.max_reprompts + 1 for e in logged
        ),
        "overrides apply the safety action": all(
            e.applied is safety_action(config.safe_action_policy, e.t_sensor, e.prev_action,
                                       config.thresholds)
            for e in logged if e.override
        ),
        "last episode ends at or after the run duration": bool(logged)
        and logged[-1].t_end >= config.duration,
    }


def _exact_step(p: TwinParams, th: float, ts: float, duty: float, dt: float):
    """Closed-form solution of the two-node ODE over dt under constant duty."""
    if dt <= 0.0:
        return th, ts
    a = -(p.u_ha + p.u_hs) / p.c_h
    b = p.u_hs / p.c_h
    c = p.u_hs / p.c_s
    d = -(p.u_hs + p.u_sa) / p.c_s
    fh = (p.alpha * duty + p.u_ha * p.t_amb) / p.c_h
    fs = p.u_sa * p.t_amb / p.c_s
    det = a * d - b * c
    # Fixed point x* = -A^-1 f, and x(t) = x* + exp(A t) (x0 - x*).
    xh = -(d * fh - b * fs) / det
    xs = -(-c * fh + a * fs) / det
    yh, ys = th - xh, ts - xs
    # A has real distinct eigenvalues (b*c > 0); Sylvester's formula for exp(A t).
    half_trace = (a + d) / 2.0
    root = math.sqrt(((a - d) / 2.0) ** 2 + b * c)
    l1, l2 = half_trace + root, half_trace - root
    e1, e2 = math.exp(l1 * dt), math.exp(l2 * dt)
    k = 1.0 / (l1 - l2)
    th_new = xh + k * (e1 * ((a - l2) * yh + b * ys) - e2 * ((a - l1) * yh + b * ys))
    ts_new = xs + k * (e1 * (c * yh + (d - l2) * ys) - e2 * (c * yh + (d - l1) * ys))
    return th_new, ts_new


def reference_error(episodes: list, config: RunConfig, params: TwinParams) -> float:
    """Largest |logged t_sensor - reference| over a run's samples, in degC.

    The applied-duty schedule is rebuilt from the log: the initial action
    until the first episode ends, then each episode's applied action from its
    ``t_end`` on.  The reference integrates it exactly, so the figure is the
    plant's own integration error plus any quantisation of the reading.
    """
    th = ts = params.t_amb
    clock = 0.0
    duty = config.initial_action.duty
    worst = 0.0
    for e in episodes:
        th, ts = _exact_step(params, th, ts, duty, e.t_start - clock)
        worst = max(worst, abs(ts - e.t_sensor))
        th, ts = _exact_step(params, th, ts, duty, e.t_end - e.t_start)
        clock = e.t_end
        duty = e.applied.duty
    return worst
