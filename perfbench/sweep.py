"""Run every workload over several seeds and record the results.

    python3 perfbench/sweep.py --out results.jsonl [--seeds 0-9] [--trace 0|1]

Runs ``run.py`` once per workload and seed (seeds outermost, so slow drift of
the machine spreads over every workload), appends one JSON record per run to
``--out`` -- workload, seed, trace flag, Python version, CPU count, git SHA,
exit code, the run's result object and, untraced, its unscaled host times
and kernel time -- and prints, per workload, every metric's median,
quartiles and spread with its unit.  Exits 1 when any run failed a check or
printed no result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from compare import load_records, spread, values_by_workload
from run import SPEC, UNSCALED_PREFIX, machine

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 600


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str] | None = None) -> int:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON-lines file the records are appended to")
    parser.add_argument("--seeds", default="0-9", help="N or FIRST-LAST")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    host = machine()
    ok = True
    with open(args.out, "a", encoding="utf-8") as out:
        for seed in parse_seeds(args.seeds):
            for workload in (w["name"] for w in spec["workloads"]):
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
                    capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
                )
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
                unscaled = next((json.loads(line[len(UNSCALED_PREFIX):]) for line in lines
                                 if line.startswith(UNSCALED_PREFIX)), None)
                ok &= proc.returncode == 0 and result is not None and result["correct"]
                if proc.returncode != 0:
                    sys.stderr.write(proc.stdout + proc.stderr)
                record = {"workload": workload, "seed": seed, "trace": args.trace,
                          "seconds": seconds, **host, "exit": proc.returncode, "result": result, "unscaled": unscaled}
                out.write(json.dumps(record) + "\n")
                out.flush()
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    for workload, values in values_by_workload(load_records(args.out), args.trace).items():
        print(f"\n{workload}")
        for m in metrics:
            v = list(values.get(m["name"], {}).values())
            if not v:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
            bound = bounds[m["name"]]
            flag = "" if bound is None or spread(v) <= bound / 3 else "  (spread above a third of bound)"
            print(f"  {m['name']:34s} {med:14.6g} {m['unit']:17s} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread(v):.3f} n {len(v)}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
