"""In-memory spans around the public names twinloop's layers call each other by.

A :class:`Tracer` replaces a module attribute or an instance method with a
wrapper that records one span per call: name, start, end, the span that was
open when it started (its parent) and whether the call succeeded.  Spans stay
in memory until :meth:`fold` turns them into per-name totals -- calls, total
and self time, failures and, for a few names, every duration -- which merge
by addition, so totals from the controller and from child processes combine
into one report.

Self time is a span's duration minus the durations of its direct children.
The child processes import this module, so it imports nothing from twinloop
at module level.
"""

from __future__ import annotations

import hashlib
import time

# Names whose individual durations are kept for percentiles.
KEEP_DURATIONS = frozenset({"plantio.read", "plantio.apply", "plantio.advance", "twin.rollout"})


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.values: dict[str, float] = {}
        self._stack: list[int] = []
        self._patched: list = []

    def add(self, key: str, amount: float) -> None:
        self.values[key] = self.values.get(key, 0.0) + amount

    def wrap(self, name: str, fn, observe=None):
        """Return ``fn`` recording a span per call.

        ``observe(args, result)`` runs after a call that returned; returning
        False marks the span failed.  A call that raises is marked failed.
        """
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                if ok and observe is not None and observe(args, result) is False:
                    ok = False
                spans[index] = (name, start, end, parent, ok)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper until :meth:`restore`."""
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, observe))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def fold(self, totals: dict) -> dict:
        """Add the recorded spans and values into ``totals`` and forget them."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for _name, start, end, parent, _ok in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (name, start, end, _parent, ok) in enumerate(spans):
            entry = totals.setdefault(name, new_entry())
            duration = end - start
            entry["calls"] += 1
            entry["total_ns"] += duration
            entry["self_ns"] += duration - child_ns[i]
            if not ok:
                entry["failed"] += 1
            if name in KEEP_DURATIONS:
                entry["durations_ns"].append(duration)
        values = totals.setdefault("values", {})
        for key, amount in self.values.items():
            values[key] = values.get(key, 0.0) + amount
        spans.clear()
        self.values.clear()
        return totals


def new_entry() -> dict:
    return {"calls": 0, "total_ns": 0, "self_ns": 0, "failed": 0, "durations_ns": []}


def merge(totals: dict, other: dict) -> dict:
    """Add folded totals ``other`` (for instance from a child process) into ``totals``."""
    for name, entry in other.items():
        if name == "values":
            values = totals.setdefault("values", {})
            for key, amount in entry.items():
                values[key] = values.get(key, 0.0) + amount
            continue
        mine = totals.setdefault(name, new_entry())
        for key in ("calls", "total_ns", "self_ns", "failed"):
            mine[key] += entry[key]
        mine["durations_ns"].extend(entry["durations_ns"])
    return totals


def episodes_digest(episodes) -> str:
    """Identifies a run's episode records across processes."""
    return hashlib.sha256(repr(list(episodes)).encode("utf-8")).hexdigest()


def rk4_substeps(dt: float, h: float) -> int:
    """Substeps ``twinloop.twin.step`` takes for ``dt`` at internal step ``h``."""
    n = int(dt / h)
    return n + (1 if dt - n * h > 1e-12 else 0)


def step_observer(tracer: Tracer):
    def observe(args, _result):
        params, _state, _duty, dt = args
        tracer.add("twin.substeps", rk4_substeps(dt, params.dt_internal))

    return observe


def instrument_modules(tracer: Tracer) -> None:
    """Trace the twin, agents and jsonio layers at the names the loop looks up.

    ``twin.rollout`` calls ``step`` through the twin module's globals, and the
    orchestrator calls the agents' functions and the log encoder through its
    own globals, so patching those attributes catches every call.
    """
    from twinloop import orchestrator, twin

    tracer.patch(twin, "step", "twin.step", step_observer(tracer))
    tracer.patch(twin, "rollout", "twin.rollout")
    tracer.patch(orchestrator, "run_episode", "orchestrator.episode")
    tracer.patch(orchestrator, "render_prompt", "agents.render")
    tracer.patch(orchestrator, "parse_action", "agents.parse")
    passed = lambda _args, verdict: verdict.passed  # noqa: E731
    tracer.patch(orchestrator, "validate_rule", "agents.validate", passed)
    tracer.patch(orchestrator, "validate_twin", "agents.validate", passed)
    tracer.patch(orchestrator, "compose_feedback", "agents.feedback")
    tracer.patch(
        orchestrator, "dumps_record", "jsonio.encode",
        lambda _args, line: tracer.add("jsonio.bytes_written", len(line.encode("utf-8")) + 1),
    )
    tracer.patch(orchestrator, "loads_record", "jsonio.decode")


def instrument_run(tracer: Tracer, plant, backend) -> None:
    """Trace the plant and backend objects of one run."""
    plant.read_temperature = tracer.wrap("plantio.read", plant.read_temperature)
    plant.apply_heater = tracer.wrap("plantio.apply", plant.apply_heater)
    plant.advance = tracer.wrap("plantio.advance", plant.advance)
    backend.complete = tracer.wrap(
        "backends.complete", backend.complete,
        lambda _args, exchange: tracer.add("backends.sim_latency_s", exchange.latency),
    )


def quantile(values: list, q: float) -> float:
    """Nearest-rank quantile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(totals: dict, runs: int, remote_plant: bool) -> dict[str, float]:
    """Per-layer figures from folded totals, as means per 2400 s run.

    Counts are calls per run, ``self_ms`` is self time per run, percentiles
    are over every call.  Plant round trips only exist for a remote plant.
    """

    def entry(name):
        return totals.get(name) or new_entry()

    values = totals.get("values", {})
    out: dict[str, float] = {}

    def per_run(name, *fields):
        e = entry(name)
        if "calls" in fields:
            out[f"{name}.calls"] = e["calls"] / runs
        if "self_ms" in fields:
            out[f"{name}.self_ms"] = e["self_ns"] / runs / 1e6
        if "failed" in fields:
            out[f"{name}.failed"] = e["failed"] / runs

    per_run("twin.step", "calls", "self_ms")
    per_run("twin.rollout", "calls", "self_ms")
    out["twin.rollout.p50_us"] = quantile(entry("twin.rollout")["durations_ns"], 0.5) / 1e3
    substeps = values.get("twin.substeps", 0.0)
    out["twin.substeps"] = substeps / runs
    out["twin.ns_per_substep"] = entry("twin.step")["self_ns"] / substeps if substeps else 0.0

    per_run("agents.render", "calls", "self_ms")
    per_run("agents.parse", "calls", "self_ms", "failed")
    per_run("agents.validate", "calls", "self_ms")
    validate = entry("agents.validate")
    out["agents.validate.pass_ratio"] = (
        (validate["calls"] - validate["failed"]) / validate["calls"] if validate["calls"] else 0.0
    )
    per_run("agents.feedback", "calls", "self_ms")

    per_run("backends.complete", "calls", "self_ms", "failed")
    out["backends.sim_latency_s"] = values.get("backends.sim_latency_s", 0.0) / runs

    read = entry("plantio.read")
    out["plantio.read.calls"] = read["calls"] / runs
    out["plantio.read.p50_us"] = quantile(read["durations_ns"], 0.5) / 1e3
    out["plantio.read.p99_us"] = quantile(read["durations_ns"], 0.99) / 1e3
    per_run("plantio.apply", "calls")
    per_run("plantio.advance", "calls", "self_ms")
    trips: list = []
    if remote_plant:
        for name in ("plantio.read", "plantio.apply", "plantio.advance"):
            trips.extend(entry(name)["durations_ns"])
    out["plantio.roundtrips"] = len(trips) / runs
    out["plantio.roundtrip.p50_us"] = quantile(trips, 0.5) / 1e3
    out["plantio.roundtrip.p99_us"] = quantile(trips, 0.99) / 1e3
    handle = entry("plantio.server_handle")
    out["plantio.server_handle.self_ms"] = handle["self_ns"] / runs / 1e6
    out["plantio.wait_ms"] = (sum(trips) - handle["total_ns"]) / runs / 1e6 if trips else 0.0

    per_run("orchestrator.episode", "calls", "self_ms")
    per_run("orchestrator.log_write", "self_ms")
    per_run("orchestrator.log_read", "self_ms")

    per_run("jsonio.encode", "calls", "self_ms")
    out["jsonio.bytes_written"] = values.get("jsonio.bytes_written", 0.0) / runs
    per_run("jsonio.decode", "calls", "self_ms")

    per_run("metrics.compute", "self_ms")
    per_run("metrics.render", "self_ms")
    return out
