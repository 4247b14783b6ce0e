"""Compare two sets of benchmark results, metric by metric and workload by workload.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the records ``sweep.py`` writes, one untraced run per line.
For every workload and end-to-end metric of ``BENCHMARK.json``, the medians
of the two sides are compared against the metric's bound:

- unresolved: either side's spread (quartile distance over median) exceeds
  the bound, and not every new run beats every base run;
- worse: the new median is worse than the base median by more than the bound;
- better: the new median is better by more than the base side's own spread,
  and the new run wins at least nine in ten of the pairs of runs with the
  same seed;
- unchanged: anything else.

The simulated quality metrics (``avg_deviation_c``, ``time_outside_s``,
``override_pct``) are fixed for a given seed, so on the seeds both files hold
any difference counts, without a bound: unchanged when every seed gives the
same figure, else better or worse by the sign of the summed difference.

One row is printed per workload, ending with the median calibration-kernel
time of each side: host times are scaled by it (see ``run.py``), so a large
gap between the two says the machine ran at different speeds.  Sweeps of the
two commits made alternately, seed by seed, share the machine's drift and
need the scaling least.  The exit code is 1 when any metric is worse.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from run import QUALITY, SPEC


def load_records(path: str | Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def values_by_workload(records: list[dict], trace: int = 0) -> dict[str, dict[str, dict[int, float]]]:
    """``{workload: {metric: {seed: value}}}`` over runs that printed a result."""
    out: dict[str, dict[str, dict[int, float]]] = {}
    for rec in records:
        if rec["trace"] != trace or rec.get("result") is None:
            continue
        metrics = out.setdefault(rec["workload"], {})
        for name, m in rec["result"]["metrics"].items():
            metrics.setdefault(name, {})[rec["seed"]] = m["value"]
    return out


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(base: dict[int, float], new: dict[int, float], better: str,
            bound: float) -> tuple[str, float]:
    """(status, signed change of the median, positive when better)."""
    b, n = list(base.values()), list(new.values())
    m0, m1 = statistics.median(b), statistics.median(n)
    sign = 1.0 if better == "higher" else -1.0
    change = sign * (m1 - m0) / abs(m0) if m0 else 0.0
    if max(spread(b), spread(n)) > bound and not all(sign * (x - y) > 0 for x in n for y in b):
        return "unresolved", change
    if change < -bound:
        return "worse", change
    pairs = [sign * (new[s] - base[s]) for s in base.keys() & new.keys()]
    wins = sum(d > 0 for d in pairs)
    if change > spread(b) and pairs and wins >= 0.9 * len(pairs):
        return "better", change
    return "unchanged", change


def exact_verdict(base: dict[int, float], new: dict[int, float],
                  better: str) -> tuple[str, float] | None:
    """Status of a per-seed deterministic figure on the shared seeds; None without any."""
    common = sorted(base.keys() & new.keys())
    if not common:
        return None
    sign = 1.0 if better == "higher" else -1.0
    diffs = [sign * (new[s] - base[s]) for s in common]
    if not any(diffs):
        return "unchanged", 0.0
    scale = sum(abs(base[s]) for s in common)
    change = sum(diffs) / scale if scale else 0.0
    return ("better" if sum(diffs) > 0 else "worse"), change


def kernel_ms(records: list[dict]) -> dict[str, float]:
    """Median calibration-kernel time per workload, in ms."""
    times: dict[str, list[float]] = {}
    for rec in records:
        if rec.get("unscaled"):
            times.setdefault(rec["workload"], []).append(rec["unscaled"]["kernel_s"] * 1e3)
    return {workload: statistics.median(v) for workload, v in times.items()}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    base_records, new_records = load_records(argv[0]), load_records(argv[1])
    base, new = values_by_workload(base_records), values_by_workload(new_records)
    base_kernel, new_kernel = kernel_ms(base_records), kernel_ms(new_records)
    any_worse = False
    for workload in sorted(set(base) & set(new)):
        cells = []
        for m in spec["end_to_end"]:
            b, n = base[workload].get(m["name"]), new[workload].get(m["name"])
            if not b or not n:
                continue
            exact = exact_verdict(b, n, m["better"]) if m["name"] in QUALITY else None
            status, change = exact or verdict(b, n, m["better"], m["bound"])
            any_worse |= status == "worse"
            cells.append(f"{m['name']} {status} ({100 * change:+.3g}%)")
        if workload in base_kernel and workload in new_kernel:
            cells.append(f"kernel {base_kernel[workload]:.3f} vs {new_kernel[workload]:.3f} ms")
        print(f"{workload}: " + "; ".join(cells))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
