"""Run one twinloop CLI command in a fresh interpreter and stamp its phases.

Run with ``src`` on ``PYTHONPATH``::

    python3 perfbench/cli_child.py STAMPS TRACE COMMAND [ARGS...]

``COMMAND ARGS`` go to ``twinloop.cli.main`` exactly as the ``twinloop``
console script passes them (the package has no ``__main__``).  The exit code
and stdout are the CLI's own.  When the CLI returns, one JSON object is
written to ``STAMPS``: ``time.monotonic`` instants of interpreter start, end
of ``import twinloop.cli``, and entry to and exit from ``run_loop`` (the end of
set-up and of the episodes), the median and 99th percentile of the gaps
between successive episode callbacks, a digest of the in-memory episodes, and with ``TRACE`` = 1 the folded span
totals of every layer.
"""

import sys
import time

START = time.monotonic()

import twinloop.cli as cli  # noqa: E402

IMPORTED = time.monotonic()

import json  # noqa: E402

from tracing import (  # noqa: E402
    Tracer, episodes_digest, instrument_modules, instrument_run, quantile,
)


def main(argv: list[str]) -> int:
    stamps_path, trace, cli_argv = argv[0], argv[1] == "1", argv[2:]
    stamps = {"start": START, "imported": IMPORTED}
    tracer = Tracer() if trace else None
    if tracer is not None:
        instrument_modules(tracer)
        tracer.patch(cli, "read_run_log", "orchestrator.log_read")
        tracer.patch(cli, "run_metrics", "metrics.compute")
        tracer.patch(cli, "report", "metrics.render")

    run_loop = cli.run_loop

    def stamped_run_loop(plant, backend, *args, on_episode, **kwargs):
        gaps: list[float] = []
        write = on_episode
        if tracer is not None:
            instrument_run(tracer, plant, backend)
            write = tracer.wrap("orchestrator.log_write", write)
        last = None

        def stamped_on_episode(record):
            nonlocal last
            now = time.monotonic()
            if last is not None:
                gaps.append(now - last)
            last = now
            write(record)

        stamps["loop_start"] = time.monotonic()
        episodes = run_loop(plant, backend, *args, on_episode=stamped_on_episode, **kwargs)
        stamps["loop_end"] = time.monotonic()
        stamps["gap_p50_s"] = quantile(gaps, 0.5)
        stamps["gap_p99_s"] = quantile(gaps, 0.99)
        stamps["episodes"] = len(episodes)
        stamps["digest"] = episodes_digest(episodes)
        return episodes

    cli.run_loop = stamped_run_loop
    code = cli.main(cli_argv)
    if tracer is not None:
        stamps["totals"] = tracer.fold({})
    with open(stamps_path, "w", encoding="utf-8") as fh:
        json.dump(stamps, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
