"""Twin-in-the-loop heater control.

A decision backend (live model, scripted policy, or replayed transcript)
proposes binary heater actions; a deterministic validator checks each
proposal against the hysteresis control rule or a digital-twin rollout;
failed proposals are reprompted with corrective feedback up to a bound,
after which a safety action is forced.  The bundled two-node thermal twin
doubles as the simulated plant, either in-process or served over a small
TCP line protocol.

The public names are loaded on first use (PEP 562): a process imports only
the modules whose names it touches, so a plant server never loads the
agents and a simulated run never loads the socket stack.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "agents": (
            "AgentSpec", "DecisionContext", "Thresholds", "Verdict", "compose_feedback",
            "expected_action", "monitor_trigger", "parse_action", "render_prompt",
            "validate_rule", "validate_twin",
        ),
        "backends": (
            "BackendConfig", "Exchange", "HttpBackend", "LatencySpec", "ReplayBackend",
            "ScriptedBackend", "ScriptedPolicy", "TranscriptRecorder", "load_replay",
        ),
        "errors": (
            "BackendError", "ConfigError", "InvalidInput", "LogFormatError", "ParseError",
            "PlantIoError", "TwinloopError",
        ),
        "metrics": (
            "AccuracyMetrics", "ControlMetrics", "RunMetrics", "accuracy_metrics",
            "control_metrics", "report", "run_metrics",
        ),
        "orchestrator": (
            "AttemptRecord", "EpisodeRecord", "MonitorMode", "RunConfig", "RunLogWriter",
            "ValidatorMode", "read_run_log", "run_episode", "run_loop", "safety_action",
        ),
        "plantio": ("HeaterAction", "PlantProtocol", "TwinPlant"),
        "tcp": ("PlantServer", "TcpPlantClient"),
        "twin": ("TwinParams", "TwinState", "rollout", "steady_state", "step"),
    }.items()
    for name in names
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
