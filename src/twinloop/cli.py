"""Operator commands: run a control experiment, serve the simulated plant
over TCP, and turn run logs into reports.

Exit codes are contract values: 0 clean finish, 2 a :class:`ConfigError` (a
bad config, flag or environment during set-up; after it, an output that
cannot be written, stdout among them, or a replayed transcript that runs
out), an :class:`InvalidInput` or a :class:`LogFormatError`, 3 a
:class:`PlantIoError`, 130 an interrupt.  Commands raise; :func:`main` is
the one place that turns an error or an interrupt into its exit code and its
one stderr line.  Partial run logs survive an abort because every completed
episode is flushed before the next one starts.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import math
import os
import sys
from pathlib import Path

from . import plantio
from .agents import AgentSpec
from .backends import (
    BackendConfig,
    HttpBackend,
    ScriptedBackend,
    TranscriptRecorder,
    load_replay,
    HTTP,
    REPLAY,
    SCRIPTED,
)
from .errors import ConfigError, InvalidInput, LogFormatError, PlantIoError, frozen
from .jsonio import from_doc, loads_json
from .metrics import CSV, MACHINE, TABLE, points_dump, report, run_metrics
from .orchestrator import MIN_IDLE_TICK, RunConfig, RunLogWriter, read_run_log, run_loop
from .plantio import TwinPlant
from .twin import TwinParams, steady_state

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PLANT_IO = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports a process Ctrl-C ended


@frozen
class LoadedConfig:
    """A run configuration file: one section per field, each written as
    the run log writes its class, so a run log header's ``config`` is a
    valid ``run`` section and :func:`load_config` reads back whatever
    ``dumps_record`` writes of a config it accepts.  Only the operator is
    an agent with a prompt; validation and reprompting are code."""

    twin: TwinParams = TwinParams()
    operator: AgentSpec = AgentSpec()
    backend: BackendConfig = BackendConfig()
    run: RunConfig = RunConfig()


def _read(what: str, path, reader, *args, **kwargs):
    """``reader(*args, **kwargs)``, whose OSError becomes a config error naming the ``what`` file at ``path``."""
    try:
        return reader(*args, **kwargs)
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc}") from exc


def _json_object(what: str, path: str | Path) -> dict:
    """The JSON object held by the ``what`` file at ``path``."""
    try:
        doc = loads_json(_read(what, path, Path(path).read_text, encoding="utf-8"))
    except ValueError as exc:
        raise ConfigError(f"{what} file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} file {path} must hold a JSON object")
    return doc


def load_config(path: str | Path) -> LoadedConfig:
    """Load a run configuration file, before any side effect.

    Each section's dataclass checks itself as it is built; unknown keys
    anywhere in the document are rejected by name.
    """
    doc = _json_object("config", path)
    try:
        cfg = from_doc(LoadedConfig, doc, defaults=True)
    except InvalidInput as exc:
        raise ConfigError(str(exc)) from None
    # without headroom above the band's top the plant never cycles through the band
    reach, high = steady_state(cfg.twin, 100.0)[1], cfg.run.thresholds.high
    if not reach > high:
        problem = f"full duty holds the sensor at {reach:.2f} degC, not above run.thresholds.high ({high:g} degC)"
        raise ConfigError(f"'twin': {problem}")
    # the kind says which of a validator's keys apply, so it is never a default
    validator = doc.get("run", {}).get("validator")
    if validator is not None and "kind" not in validator:
        raise ConfigError("missing key 'run.validator.kind'")
    return cfg


def _apply_backend_overrides(config: BackendConfig, override: str | None, seed: int | None) -> BackendConfig:
    """``config`` after ``--backend`` and ``--seed``: a new kind's section
    holds only that kind's fields, and a seed seeds a scripted backend only."""
    kind, _, detail = (override or "").partition(":")
    if kind == SCRIPTED:
        script = dataclasses.replace(config.script, kind=detail or config.script.kind)
        config = BackendConfig(kind=SCRIPTED, script=script, latency=config.latency)
    elif kind == REPLAY:
        if not detail:
            raise ConfigError("--backend replay needs a transcript path: replay:<path>")
        config = BackendConfig(kind=REPLAY, transcript_path=detail)
    elif override:
        raise ConfigError(f"unknown --backend override {override!r}")
    if seed is not None and config.kind == SCRIPTED:
        script, latency = (dataclasses.replace(part, seed=seed) for part in (config.script, config.latency))
        config = BackendConfig(kind=SCRIPTED, script=script, latency=latency)
    return config


def _build_backend(config: BackendConfig):
    if config.kind == HTTP:
        return HttpBackend(config)
    if config.kind == REPLAY:
        try:
            return _opened("read transcript", config.transcript_path, load_replay, config.transcript_path)
        except LogFormatError as exc:
            raise ConfigError(
                f"bad transcript {config.transcript_path} (line {exc.line_number}): {exc}"
            ) from exc
    return ScriptedBackend(config.script, config.latency)


def _host_port(flag: str, text: str) -> tuple[str, int]:
    """The host and port of ``text``, split at its last colon; an IPv6
    host may be bracketed, as in ``[::1]:5850``."""
    host, _, port = text.rpartition(":")
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]
    if not host or not port.isdecimal() or int(port) > 65535:
        raise ConfigError(f"{flag} needs <host:port> with a port up to 65535, got {text!r}")
    return host, int(port)


def _build_plant(spec: str, cfg: LoadedConfig, resources: contextlib.ExitStack):
    """The run's plant; a served plant's client is closed with ``resources``."""
    if spec == "sim":
        return TwinPlant(cfg.twin, mode=cfg.run.clock_mode)
    if spec.startswith("tcp:"):
        host, port = _host_port("--plant tcp", spec[len("tcp:"):])
        from .tcp import TcpPlantClient  # set-up only: a sim run never loads sockets

        client = TcpPlantClient(host, port, mode=cfg.run.clock_mode)
        resources.callback(client.close)
        return client
    raise ConfigError(f"--plant must be 'sim' or 'tcp:<host:port>', got {spec!r}")


def _opened(what: str, path, opener, *args, **kwargs):
    """``opener(*args, **kwargs)``, which opens ``path``; an OSError becomes
    a config error that names the file."""
    try:
        return opener(*args, **kwargs)
    except OSError as exc:
        raise ConfigError(f"cannot {what} {path}: {exc}") from exc


def _say(text: str) -> None:
    """Print ``text`` to stdout, flushed, so a failed write is refused as a failed open is."""
    _opened("write", "stdout", print, text, flush=True)


def _warn(text: str) -> None:
    """Print ``text`` to stderr; a stderr that cannot be written never changes the exit code."""
    with contextlib.suppress(OSError):
        print(text, file=sys.stderr)


def _refuse_overwrites(inputs: dict, outputs: dict) -> None:
    """Refuse, before anything is opened for writing, an output path that
    names an input or another output, however the two are spelled.  Both
    map a flag to its path; an empty path is none."""
    named = {os.path.realpath(path): flag for flag, path in inputs.items() if path}
    for flag, path in outputs.items():
        if not path:
            continue
        real = os.path.realpath(path)
        if real in named:
            raise ConfigError(f"{flag} and {named[real]} name the same file: {path}")
        named[real] = flag


def _refuse_unbounded(run_config: RunConfig, backend_config: BackendConfig) -> None:
    """Refuse a lockstep run whose clock would creep forward by the minimum
    idle tick per episode: a scripted backend with no latency, a fixed one
    below the tick or a lognormal one whose median ``exp(mu)`` is below it,
    and a sample period floor below the tick."""
    latency = backend_config.latency
    sub_tick = (
        latency.kind == "none"
        or (latency.kind == "fixed" and latency.seconds < MIN_IDLE_TICK)
        or (latency.kind == "lognormal" and latency.mu < math.log(MIN_IDLE_TICK))
    )
    if (
        run_config.clock_mode == plantio.LOCKSTEP
        and backend_config.kind == SCRIPTED
        and sub_tick
        and run_config.sample_period_floor < MIN_IDLE_TICK
    ):
        raise ConfigError(
            f"a lockstep run with a scripted backend latency under {MIN_IDLE_TICK:g} s advances "
            f"only {MIN_IDLE_TICK:g} s per episode, about {run_config.duration / MIN_IDLE_TICK:.0f} "
            f"episodes; set run.sample_period_floor or backend.latency to at least {MIN_IDLE_TICK:g} s"
        )


def cmd_run(args: argparse.Namespace) -> int:
    if not args.out:
        raise ConfigError("no run log path: pass --out")
    cfg = load_config(args.config)
    backend_config = _apply_backend_overrides(cfg.backend, args.backend, args.seed)
    run_config = cfg.run
    if args.duration is not None:
        run_config = dataclasses.replace(run_config, duration=float(args.duration))
    _refuse_unbounded(run_config, backend_config)
    inputs = {"--config": args.config, "the replayed transcript": backend_config.transcript_path}
    _refuse_overwrites(inputs, {"--out": args.out, "--record": args.record})
    with contextlib.ExitStack() as resources:
        backend = _build_backend(backend_config)
        if args.record:
            backend = _opened("open transcript", args.record, TranscriptRecorder, backend, args.record)
            resources.callback(backend.close)
        plant = _build_plant(args.plant, cfg, resources)
        writer = resources.enter_context(_opened("open run log", args.out, RunLogWriter, args.out, run_config))

        aborted = ", aborting run (partial log kept)"
        # The modules and config live as long as the run: frozen, they are
        # left out of the collections the loop's garbage sets off.
        gc.freeze()
        try:
            try:
                episodes = run_loop(
                    plant,
                    backend,
                    run_config,
                    operator=cfg.operator,
                    twin_params=cfg.twin,
                    on_episode=writer.write_episode,
                )
                aborted = ""
            finally:
                gc.unfreeze()
                # a served plant confirms its last queued commands as it closes
                resources.close()
        except (ConfigError, InvalidInput, PlantIoError) as exc:
            # main writes the error's line, which says whether the run was cut short
            exc.aborted = aborted
            raise

    m = run_metrics(episodes, run_config.thresholds, run_config.duration)
    _say(report(m))
    return EXIT_OK


def cmd_plant_serve(args: argparse.Namespace) -> int:
    address = _host_port("--listen", args.listen)
    params_doc = _json_object("params", args.params) if args.params else {}
    plant = TwinPlant(from_doc(TwinParams, params_doc, "twin", defaults=True), mode=args.mode)

    from .tcp import PlantServer

    server = _opened("bind", args.listen, PlantServer, address, plant)
    # the bound port, which port 0 leaves to the system
    host, port = server.server_address[:2]
    endpoint = f"[{host}]:{port}" if ":" in host else f"{host}:{port}"
    with server:
        _say(f"serving plant on {endpoint} ({args.mode})")
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
    state = plant.state
    # three decimals resolve a clock below 1e12 s; X_ADV may leave one near 1e308
    _say(
        f"plant stopped at t={state.clock:{'.3f' if state.clock < 1e12 else '.6g'}}s: "
        f"heater {state.t_heater:.2f} degC, sensor {state.t_sensor:.2f} degC, "
        f"duty {plant.duty:.2f}%"
    )
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    def warn_torn(lineno: int) -> None:
        _warn(f"report warning: ignoring the torn final line {lineno} of {args.log}; reporting the complete episodes")

    config, episodes = _read("log", args.log, read_run_log, args.log, on_torn_tail=warn_torn)
    m = run_metrics(episodes, config.thresholds, config.duration)
    if args.points:
        _refuse_overwrites({"--log": args.log}, {"--points": args.points})
        # one call opens, writes and closes, so a failed write is refused as a failed open is
        _opened("write points file", args.points, Path(args.points).write_text, points_dump(episodes), encoding="utf-8")
    _say(report(m, args.format))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twinloop",
        description="Twin-in-the-loop heater control experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a control experiment")
    run_p.add_argument("--config", required=True, help="path to the JSON run configuration")
    run_p.add_argument("--backend", help="override: scripted:<policy> or replay:<path>")
    run_p.add_argument("--plant", default="sim", help="'sim' or 'tcp:<host:port>'")
    run_p.add_argument("--duration", type=float, help="override run duration in seconds")
    run_p.add_argument("--out", help="run log path (JSON lines)")
    run_p.add_argument("--seed", type=int, help="override the scripted policy and latency seeds")
    run_p.add_argument("--record", help="record every backend exchange to this transcript")
    run_p.set_defaults(func=cmd_run)

    serve_p = sub.add_parser("plant-serve", help="serve the simulated plant over TCP")
    serve_p.add_argument("--listen", default="127.0.0.1:5850", help="<host:port> to listen on")
    serve_p.add_argument("--params", help="JSON file with twin parameters")
    serve_p.add_argument(
        "--mode", choices=[plantio.REALTIME, plantio.LOCKSTEP], default=plantio.LOCKSTEP
    )
    serve_p.set_defaults(func=cmd_plant_serve)

    report_p = sub.add_parser("report", help="compute metrics from a run log")
    report_p.add_argument("--log", required=True, help="run log path")
    report_p.add_argument("--format", choices=[TABLE, CSV, MACHINE], default=TABLE)
    report_p.add_argument("--points", help="also dump (t, temperature, action) lines here")
    report_p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; the one place that turns an error into its exit code and stderr line."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InvalidInput, LogFormatError, PlantIoError) as exc:
        plant = isinstance(exc, PlantIoError)
        what = "report" if args.command == "report" else "plant" if plant else "config"
        line = getattr(exc, "line_number", None)
        where = f" (line {line})" if line is not None else getattr(exc, "aborted", "")
        _warn(f"{what} error{where}: {exc}")
        return EXIT_PLANT_IO if plant else EXIT_CONFIG
    except KeyboardInterrupt:
        _warn(f"{args.command} interrupted")
        return EXIT_INTERRUPTED


def entrypoint() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except OSError:  # main reported it; the bytes left would fail again, loudly, at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
