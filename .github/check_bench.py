"""Check a traced perfbench run's per-layer figures.

    python3 .github/check_bench.py OUT NAME... [--per-episode NAME...]

OUT holds the output of ``perfbench/run.py ... --trace 1``, whose last line
is the JSON report.  Each NAME before ``--per-episode`` must read above 0;
each after it must read at least ``orchestrator.episode.calls``.  Exits 0
when every check holds, else 1 with one line naming each that fails.
"""

import json
import sys


def problems(out: str, names: list) -> list:
    split = names.index("--per-episode") if "--per-episode" in names else len(names)
    with open(out, encoding="utf-8") as fh:
        metrics = json.loads(fh.read().splitlines()[-1])["metrics"]
    found = [f"{name} reads 0" for name in names[:split] if not metrics[name]["value"] > 0]
    episodes = metrics["orchestrator.episode.calls"]["value"]
    found += [
        f"{name} reads fewer calls than episodes" for name in names[split + 1:] if not metrics[name]["value"] >= episodes
    ]
    return found


if __name__ == "__main__":
    sys.exit("; ".join(problems(sys.argv[1], sys.argv[2:])) or None)
