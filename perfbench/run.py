"""Run one twinloop benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout: the package is imported from ``src/`` next to this
directory.  ``--trace 0`` measures the end-to-end metrics with nothing
instrumented; ``--trace 1`` runs every seed once untraced and once traced and
prints the per-layer metrics.  Every run's outputs are checked.  The last
stdout line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``, whose names and units are those of
``BENCHMARK.json``; the exit code is 1 when a check or run failed.  Untraced,
the line before it starts with ``# unscaled `` and carries the median kernel
time and the host-time metrics as measured, before scaling to the reference
machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
PROBE_REPEATS = 5
# About the median time of ``kernel.py``'s kernel on the 2-CPU Xeon machine the
# baseline was recorded on, in a fast hour (it read 1.7 to 2.3 ms there).
# Host times are reported in seconds of that machine: each run's raw time is
# scaled by this over the kernel time measured around it.  The speed of shared
# machines drifts by a third within a minute, for the kernel and twinloop
# alike, so raw medians of two runs differ by as much.
REFERENCE_KERNEL_S = 0.0017
QUALITY = ("avg_deviation_c", "time_outside_s", "override_pct")
# Prefix of the line that carries the median kernel time and the host-time
# metrics before scaling.
UNSCALED_PREFIX = "# unscaled "
LOAD_CONFIG_PROBE = (
    "import sys, time\n"
    "from twinloop.cli import load_config\n"
    "t = time.monotonic()\n"
    "load_config(sys.argv[1])\n"
    "print(time.monotonic() - t)\n"
)


class Tally:
    """Operations attempted and failed: runs, CLI commands and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(name)

    def call(self, name: str, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            traceback.print_exc()
            self.failed.append(name)
            return None


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "git_sha": git_sha()}


def _wall(command: list[str], env: dict) -> float:
    start = time.monotonic()
    subprocess.run(command, env=env, check=True, stdout=subprocess.DEVNULL, timeout=60)
    return time.monotonic() - start


def cli_probes(env: dict, case_study: Path) -> tuple[float, float]:
    """(import_ms, load_config_ms) in fresh interpreters, medians of repeats.

    import_ms is ``python -c "import twinloop"`` minus ``python -c pass``;
    load_config_ms is one cold ``twinloop.cli.load_config`` of the case study.
    """
    bare, imported, load = [], [], []
    for _ in range(PROBE_REPEATS):
        bare.append(_wall([sys.executable, "-c", "pass"], env))
        imported.append(_wall([sys.executable, "-c", "import twinloop"], env))
        out = subprocess.run(
            [sys.executable, "-c", LOAD_CONFIG_PROBE, str(case_study)],
            env=env, check=True, capture_output=True, text=True, timeout=60,
        )
        load.append(float(out.stdout))
    return (
        (statistics.median(imported) - statistics.median(bare)) * 1e3,
        statistics.median(load) * 1e3,
    )


def quality(runs) -> dict[str, float]:
    """Simulated control quality, mean over the seeds (each seed counted once)."""
    first = {r.seed: r for r in reversed(runs)}.values()
    return {name: statistics.fmean(getattr(r, name) for r in first) for name in QUALITY}


def episodes_per_s(runs, scaled: bool = True) -> float:
    return statistics.median(r.episodes / (r.loop_s * (r.scale if scaled else 1.0)) for r in runs)


def host_times(runs, scaled: bool) -> dict[str, float]:
    """Median host-time metrics, in reference seconds or (unscaled) as measured."""

    def median(field):
        return statistics.median(getattr(r, field) * (r.scale if scaled else 1.0) for r in runs)

    # Percentiles are taken per run and their median reported, so a burst of
    # machine noise in one run does not set the tail.
    return {
        "setup_s": median("setup_s"),
        "run_wall_s": median("wall_s"),
        "episodes_per_s": episodes_per_s(runs, scaled),
        "decision_p50_us": median("gap_p50_s") * 1e6,
        "decision_p99_us": median("gap_p99_s") * 1e6,
        "report_s": median("report_s"),
    }


def check_runs(tally: Tally, runs) -> None:
    """Per-run output checks, plus byte-identical logs for every repeated seed."""
    first_digest: dict[int, str] = {}
    for r in runs:
        for name, ok in r.checks.items():
            tally.check(f"seed {r.seed}: {name}", ok)
        if r.seed in first_digest:
            tally.check(f"seed {r.seed}: repeat writes a byte-identical log",
                        r.log_digest == first_digest[r.seed])
        first_digest.setdefault(r.seed, r.log_digest)


class ScaledRuns:
    """Runs ``run_once`` with the machine's speed measured before and after each run.

    The kernel runs in a child process of its own (``kernel.py``), which waits
    on its pipe while a run goes on.  Use as a context manager, so the child
    ends with the benchmark.
    """

    def __init__(self, w, workdir: Path, tally: Tally):
        self.w, self.workdir, self.tally = w, workdir, tally
        self._kernel = subprocess.Popen(
            [sys.executable, str(HERE / "kernel.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.kernel_times: list[float] = []
        self.last_kernel_s = self.kernel_s()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._kernel.stdin.close()
        try:
            self._kernel.wait(timeout=30)
        finally:
            if self._kernel.poll() is None:
                self._kernel.kill()
                self._kernel.wait()

    def kernel_s(self) -> float:
        self._kernel.stdin.write("\n")
        self._kernel.stdin.flush()
        return float(self._kernel.stdout.readline())

    def run(self, name: str, seed: int, tracer=None, totals=None):
        from workloads import run_once

        run = self.tally.call(f"{name} seed {seed}", run_once, self.w, seed, self.workdir,
                              tracer, {} if totals is None else totals)
        before, self.last_kernel_s = self.last_kernel_s, self.kernel_s()
        kernel = (before + self.last_kernel_s) / 2.0
        self.kernel_times.append(kernel)
        if run is not None:
            run.scale = REFERENCE_KERNEL_S / kernel
        return run


def measure(w, seed: int, seconds: int, workdir: Path, tally: Tally):
    """Untraced: a warm-up run, then every seed once and repeats until ``seconds`` pass.

    Returns the end-to-end metrics (None when no run succeeded), the runs, and
    the unscaled host times with the median kernel time.
    """
    seeds = w.seeds(seed)
    with ScaledRuns(w, workdir, tally) as runner:
        warm = runner.run("warm-up", seeds[0])
        runs = []
        deadline = time.monotonic() + seconds
        i = 0
        while i < len(seeds) or time.monotonic() < deadline:
            run = runner.run("run", seeds[i % len(seeds)])
            if run is not None:
                runs.append(run)
            i += 1
        kernel = statistics.median(runner.kernel_times[1:])
    check_runs(tally, ([warm] if warm else []) + runs)
    if not runs:
        return None, runs, None
    self_or_children = resource.RUSAGE_CHILDREN if w.plant == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(self_or_children).ru_maxrss / 1024.0
    metrics = {**host_times(runs, scaled=True), "peak_rss_mb": peak_rss_mb, **quality(runs)}
    return metrics, runs, {"kernel_s": kernel, "metrics": host_times(runs, scaled=False)}


def measure_traced(w, seed: int, workdir: Path, tally: Tally):
    """Every seed once untraced, then once traced; the per-layer metrics."""
    from tracing import Tracer, instrument_modules, layer_metrics
    from workloads import CASE_STUDY, child_env

    seeds = w.seeds(seed)
    tracer = Tracer()
    totals: dict = {}
    with ScaledRuns(w, workdir, tally) as runner:
        runner.run("warm-up", seeds[0])
        plain = [runner.run("run", s) for s in seeds]
        if w.plant != "cli":
            instrument_modules(tracer)
        try:
            traced = [runner.run("traced run", s, tracer, totals) for s in seeds]
        finally:
            tracer.restore()
    if None in plain or None in traced:
        return None, []
    # Each traced run repeats an untraced seed, so its log must match byte for
    # byte: tracing changes no simulated figure.
    check_runs(tally, plain + traced)
    out = layer_metrics(totals, len(traced), remote_plant=w.plant == "tcp")
    out["orchestrator.attempts_per_episode"] = (
        sum(r.attempts for r in traced) / sum(r.episodes for r in traced)
    )
    out["twin.ref_err_c"] = max(r.ref_err_c for r in plain)
    out["cli.import_ms"], out["cli.load_config_ms"] = cli_probes(child_env(), CASE_STUDY)
    out["trace.overhead_pct"] = 100.0 * (1.0 - episodes_per_s(traced) / episodes_per_s(plain))
    loop_ms = sum(r.loop_s for r in traced) / len(traced) * 1e3
    twin_ms = out["twin.step.self_ms"] + out["twin.rollout.self_ms"]
    print(f"# twin self time is {100.0 * twin_ms / loop_ms:.1f}% of the traced loop time "
          f"({twin_ms:.1f} of {loop_ms:.1f} ms per run)")
    return out, plain


def main(argv: list[str] | None = None) -> int:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "twinloop" / "__init__.py").is_file():
        print(f"perfbench: no twinloop sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A closed loop has one runnable process at a time.  On one CPU the
    # controller and a child (plant server, CLI command) hand over directly;
    # spread over two virtual CPUs, each hand-over can wait milliseconds for
    # the idle one to wake, which made tcp-plant's p99 swing tenfold.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    from workloads import WORKLOADS

    w = WORKLOADS[args.workload]
    print(f"# workload {w.name}, seed {args.seed}, seeds {w.seeds(args.seed)[0]}.."
          f"{w.seeds(args.seed)[-1]}, trace {args.trace}, {json.dumps(machine())}")
    workdir = ROOT / ".perfbench_tmp" / f"{w.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        if args.trace:
            metrics, runs = measure_traced(w, args.seed, workdir, tally)
            unscaled = None
        else:
            metrics, runs, unscaled = measure(w, args.seed, args.seconds, workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    for name in tally.failed:
        print(f"# FAILED: {name}")
    print(f"# {len(runs)} runs, {sum(r.episodes for r in runs)} episodes, "
          f"fail_ratio {len(tally.failed) / max(1, tally.attempted):.4f} "
          f"({len(tally.failed)} of {tally.attempted} operations)")
    if metrics is None:
        return 1
    for m in wanted:
        print(f"{m['name']:36s} {metrics[m['name']]:14.6g} {m['unit']}")
    if unscaled is not None:
        # The result object's keys are fixed, so the raw figures ride on a
        # line of their own; sweep.py records them next to the result.
        print(f"{UNSCALED_PREFIX}{json.dumps(unscaled)}")
    result = {
        "correct": not tally.failed,
        "attempted": tally.attempted,
        "failed": len(tally.failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if not tally.failed else 1


if __name__ == "__main__":
    sys.exit(main())
