"""Operator commands: run a control experiment, serve the simulated plant
over TCP, and turn run logs into reports.

Exit codes are contract values: 0 clean finish, 2 configuration problems,
3 plant I/O failures.  Partial run logs survive an abort because every
completed episode is flushed before the next one starts.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
from pathlib import Path

from . import plantio, twin
from .agents import ANOMALY, CONTINUOUS, AgentSpec, Thresholds
from .backends import (
    BackendConfig,
    HttpBackend,
    ScriptedBackend,
    TranscriptRecorder,
    load_replay,
    HTTP,
    REPLAY,
    SCRIPTED,
    ALWAYS_WRONG,
    FLIP,
    ORACLE,
)
from .errors import ConfigError, InvalidInput, LogFormatError, PlantIoError
from .jsonio import from_doc
from .metrics import CSV, MACHINE, TABLE, points_dump, report, run_metrics
from .orchestrator import (
    MIN_IDLE_TICK,
    MonitorMode,
    RULE,
    RunConfig,
    RunLogWriter,
    TWIN,
    ValidatorMode,
    read_run_log,
    run_loop,
)
from .plantio import PlantServer, TcpPlantClient, TwinPlant

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PLANT_IO = 3


@dataclasses.dataclass(frozen=True)
class _Output:
    """The ``output`` section of a config file."""

    log: str | None = None
    points: str | None = None
    report_format: str = TABLE


@dataclasses.dataclass(frozen=True)
class _Agents:
    """The ``agents`` section of a config file.  Only the operator is an
    agent with a prompt; validation and reprompting are code."""

    operator: AgentSpec = dataclasses.field(default_factory=AgentSpec)


@dataclasses.dataclass
class LoadedConfig:
    """Validated contents of a run configuration file."""

    twin_params: twin.TwinParams
    operator: AgentSpec
    backend: BackendConfig
    run: RunConfig
    output: _Output


# The keys a backend section may hold, by backend kind.
_BACKEND_KEYS = {
    HTTP: {"kind", "base_url", "model", "temperature", "timeout", "api_key_env"},
    SCRIPTED: {"kind", "script", "latency", "timeout"},
    REPLAY: {"kind", "transcript_path", "timeout"},
}


def _reject_unknown(doc, allowed: tuple[str, ...], where: str) -> None:
    if not isinstance(doc, dict):
        raise ConfigError(f"'{where}' must be an object")
    for key in doc:
        path = f"{where}.{key}" if where else key
        if key not in allowed:
            raise ConfigError(f"unknown key '{path}'")


def _backend_from_doc(doc, where: str) -> BackendConfig:
    config = from_doc(BackendConfig, doc, where, defaults=True)
    for key in doc:
        if key not in _BACKEND_KEYS[config.kind]:
            raise ConfigError(f"'{where}.{key}' does not apply to a {config.kind} backend")
    return config


def _validator_from_doc(value, where: str) -> ValidatorMode:
    if value is None or value == RULE:
        return ValidatorMode()
    if not isinstance(value, dict):
        raise ConfigError(f"'{where}' must be \"rule\" or a twin-mode object")
    if value.get("kind") not in (RULE, TWIN):
        raise ConfigError(f"'{where}.kind' must be rule or twin")
    mode = from_doc(ValidatorMode, value, where, defaults=True)
    # the rule validator has no horizon or envelope to record
    return ValidatorMode() if mode.kind == RULE else mode


def _monitor_from_doc(value, where: str) -> MonitorMode:
    if value is None:
        return MonitorMode()
    if value in (CONTINUOUS, ANOMALY):
        value = {"kind": value}
    elif not isinstance(value, dict):
        raise ConfigError(f"'{where}' must be \"continuous\", \"anomaly\" or an object")
    return from_doc(MonitorMode, value, where, defaults=True)


def _run_from_doc(doc, where: str, thresholds: Thresholds) -> RunConfig:
    """The run section names the validator and monitor ``validator_mode`` and
    ``monitor_mode``; the thresholds come from their own section."""
    if not isinstance(doc, dict):
        raise ConfigError(f"'{where}' must be an object")
    doc = dict(doc)
    given = {
        "thresholds": thresholds,
        "validator": _validator_from_doc(doc.pop("validator_mode", None), f"{where}.validator_mode"),
        "monitor": _monitor_from_doc(doc.pop("monitor_mode", None), f"{where}.monitor_mode"),
    }
    return from_doc(RunConfig, doc, where, defaults=True, given=given)


def load_config(path: str | Path) -> LoadedConfig:
    """Load and strictly validate a run configuration file.

    Every module-level invariant is checked here, before any side effect;
    unknown keys anywhere in the document are rejected by name.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")

    _reject_unknown(doc, ("twin", "thresholds", "agents", "backend", "run", "output"), "")
    try:
        twin_params = from_doc(twin.TwinParams, doc.get("twin", {}), "twin", defaults=True)
        thresholds = from_doc(Thresholds, doc.get("thresholds", {}), "thresholds", defaults=True)
        agents = from_doc(_Agents, doc.get("agents", {}), "agents", defaults=True)
        backend = _backend_from_doc(doc.get("backend", {}), "backend")
        run_config = _run_from_doc(doc.get("run", {}), "run", thresholds)
        output = from_doc(_Output, doc.get("output", {}), "output", defaults=True)
    except InvalidInput as exc:
        raise ConfigError(str(exc)) from None
    if output.report_format not in (TABLE, CSV, MACHINE):
        raise ConfigError("'output.report_format' must be table, csv or machine")

    return LoadedConfig(twin_params, agents.operator, backend, run_config, output)


def _apply_backend_override(config: BackendConfig, override: str) -> BackendConfig:
    kind, _, detail = override.partition(":")
    if kind == HTTP:
        return dataclasses.replace(config, kind=HTTP).validate()
    if kind == SCRIPTED:
        policy_kind = detail or config.script.kind
        if policy_kind not in (ORACLE, FLIP, ALWAYS_WRONG):
            raise ConfigError(f"unknown scripted policy '{policy_kind}' in --backend")
        return dataclasses.replace(
            config,
            kind=SCRIPTED,
            script=dataclasses.replace(config.script, kind=policy_kind),
        ).validate()
    if kind == REPLAY:
        if not detail:
            raise ConfigError("--backend replay needs a transcript path: replay:<path>")
        return dataclasses.replace(config, kind=REPLAY, transcript_path=detail).validate()
    raise ConfigError(f"unknown --backend override {override!r}")


def _build_backend(config: BackendConfig, clock_mode: str):
    if config.kind == HTTP:
        return HttpBackend(config)
    if config.kind == REPLAY:
        try:
            return load_replay(config.transcript_path)
        except OSError as exc:
            raise ConfigError(f"cannot read transcript {config.transcript_path}: {exc}") from exc
        except LogFormatError as exc:
            raise ConfigError(
                f"bad transcript {config.transcript_path} (line {exc.line_number}): {exc}"
            ) from exc
    return ScriptedBackend(
        config.script, config.latency, sleep_latency=clock_mode == plantio.REALTIME
    )


def _build_plant(spec: str, cfg: LoadedConfig):
    if spec == "sim":
        return TwinPlant(cfg.twin_params, mode=cfg.run.clock_mode)
    if spec.startswith("tcp:"):
        hostport = spec[len("tcp:"):]
        host, _, port_text = hostport.rpartition(":")
        if not host or not port_text.isdigit():
            raise ConfigError(f"--plant tcp endpoint must be tcp:<host:port>, got {spec!r}")
        return TcpPlantClient(host, int(port_text), mode=cfg.run.clock_mode)
    raise ConfigError(f"--plant must be 'sim' or 'tcp:<host:port>', got {spec!r}")


def _refuse_unbounded(run_config: RunConfig, backend_config: BackendConfig) -> None:
    """Refuse a lockstep run whose clock would creep forward by the minimum
    idle tick per episode: a scripted backend with no latency, or a fixed one
    below the tick, and a sample period floor below the tick."""
    latency = backend_config.latency
    if (
        run_config.clock_mode == plantio.LOCKSTEP
        and backend_config.kind == SCRIPTED
        and (latency.kind == "none" or (latency.kind == "fixed" and latency.seconds < MIN_IDLE_TICK))
        and run_config.sample_period_floor < MIN_IDLE_TICK
    ):
        raise ConfigError(
            f"a lockstep run with a scripted backend latency under {MIN_IDLE_TICK:g} s advances "
            f"only {MIN_IDLE_TICK:g} s per episode, about {run_config.duration / MIN_IDLE_TICK:.0f} "
            f"episodes; set run.sample_period_floor or backend.latency to at least {MIN_IDLE_TICK:g} s"
        )


def cmd_run(args: argparse.Namespace) -> int:
    with contextlib.ExitStack() as resources:
        try:
            cfg = load_config(args.config)
            backend_config = cfg.backend
            if args.backend:
                backend_config = _apply_backend_override(backend_config, args.backend)
            if args.seed is not None:
                backend_config = dataclasses.replace(
                    backend_config,
                    script=dataclasses.replace(backend_config.script, seed=args.seed),
                    latency=dataclasses.replace(backend_config.latency, seed=args.seed),
                )
            run_config = cfg.run
            if args.duration is not None:
                if args.duration <= 0:
                    raise ConfigError("--duration must be > 0")
                run_config = dataclasses.replace(run_config, duration=float(args.duration))
            run_config.validate()
            _refuse_unbounded(run_config, backend_config)
            log_path = args.out or cfg.output.log
            if not log_path:
                raise ConfigError("no run log path: pass --out or set output.log in the config")
            backend = _build_backend(backend_config, run_config.clock_mode)
            if args.record:
                backend = TranscriptRecorder(backend, args.record)
                resources.callback(backend.close)
            plant = _build_plant(args.plant, cfg)
            if isinstance(plant, TcpPlantClient):
                resources.callback(plant.close)
            writer = resources.enter_context(RunLogWriter(log_path, run_config))
        # an OSError here means the transcript or the run log cannot be opened
        except (ConfigError, InvalidInput, OSError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except PlantIoError as exc:
            print(f"plant error: {exc}", file=sys.stderr)
            return EXIT_PLANT_IO

        try:
            episodes = run_loop(
                plant,
                backend,
                run_config,
                operator=cfg.operator,
                twin_params=cfg.twin_params,
                on_episode=writer.write_episode,
            )
        except PlantIoError as exc:
            print(f"plant error, aborting run (partial log kept): {exc}", file=sys.stderr)
            return EXIT_PLANT_IO

    m = run_metrics(episodes, run_config.thresholds, run_config.duration)
    print(report(m, cfg.output.report_format))
    if cfg.output.points:
        Path(cfg.output.points).write_text(points_dump(episodes) + "\n", encoding="utf-8")
    return EXIT_OK


def cmd_plant_serve(args: argparse.Namespace) -> int:
    host, _, port_text = args.listen.rpartition(":")
    if not host or not port_text.isdigit():
        print(f"config error: --listen must be <host:port>, got {args.listen!r}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if args.params:
            params_doc = json.loads(Path(args.params).read_text(encoding="utf-8"))
            if not isinstance(params_doc, dict):
                raise ConfigError("params file must hold a JSON object")
            params = from_doc(twin.TwinParams, params_doc, defaults=True)
        else:
            params = twin.TwinParams()
        plant = TwinPlant(params, mode=args.mode)
    except (ConfigError, OSError, json.JSONDecodeError, InvalidInput) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        server = PlantServer((host, int(port_text)), plant)
    except OSError as exc:
        print(f"cannot bind {args.listen}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"serving plant on {args.listen} ({args.mode})", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        state = plant.state
        print(
            f"plant stopped at t={state.clock:.3f}s: "
            f"heater {state.t_heater:.2f} degC, sensor {state.t_sensor:.2f} degC, "
            f"duty {plant.duty:.2f}%"
        )
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    def warn_torn(lineno: int) -> None:
        print(
            f"report warning: ignoring the torn final line {lineno} of {args.log}; "
            "reporting the complete episodes",
            file=sys.stderr,
        )

    try:
        config, episodes = read_run_log(args.log, on_torn_tail=warn_torn)
        m = run_metrics(episodes, config.thresholds, config.duration)
    except FileNotFoundError:
        print(f"report error: log file not found: {args.log}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"report error: cannot read log file {args.log}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except LogFormatError as exc:
        where = f" (line {exc.line_number})" if exc.line_number is not None else ""
        print(f"report error{where}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.points:
        Path(args.points).write_text(points_dump(episodes) + "\n", encoding="utf-8")
    print(report(m, args.format))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twinloop",
        description="Twin-in-the-loop heater control experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a control experiment")
    run_p.add_argument("--config", required=True, help="path to the JSON run configuration")
    run_p.add_argument("--backend", help="override: http, scripted:<policy>, replay:<path>")
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
    args = build_parser().parse_args(argv)
    return args.func(args)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
