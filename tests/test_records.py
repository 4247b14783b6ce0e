"""Every frozen dataclass of the package against the methods it replaced.

The record and config classes are declared through ``errors.frozen``, whose
generated ``__init__`` stores the fields straight into ``__dict__`` and
whose ``__repr__``, ``__eq__``, ``__hash__``, ``__setattr__`` and
``__delattr__`` are its own.  The oracle is what
``dataclasses.dataclass(frozen=True)`` generates: an ``__init__`` that sets
each field through ``object.__setattr__`` and then calls
``__post_init__``, and the other five methods.  A subclass declared that way
gets them.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib
import math
import pickle
import re

import pytest
from hypothesis import given, settings, strategies as st

from twinloop.agents import AgentSpec, DecisionContext, Thresholds, Verdict, render_prompt, validate_rule
from twinloop.backends import BackendConfig, Exchange, LatencySpec, ScriptedPolicy
from twinloop.cli import LoadedConfig
from twinloop.errors import InvalidInput, frozen
from twinloop.metrics import AccuracyMetrics, ControlMetrics, RunMetrics
from twinloop.orchestrator import (
    MAX_DURATION_S,
    AttemptRecord,
    EpisodeRecord,
    MonitorMode,
    RunConfig,
    ValidatorMode,
)
from twinloop.plantio import HeaterAction
from twinloop.twin import TwinParams, TwinState, first_exit, step

ON, OFF = HeaterAction.ON, HeaterAction.OFF
ATTEMPT = AttemptRecord(0, "ACTION: OFF", OFF, False, ON, "expected ON", None, 0.5)

# Positional arguments that build each class; () takes every default.
CASES = {
    TwinParams: (),
    TwinState: (30.0, 26.0, 1.5),
    Thresholds: (24.0, 28.0),
    AgentSpec: ("role", "goal", "{temperature} {feedback}"),
    Verdict: (False, ON, "expected ON", "Rule: ..."),
    Exchange: ("system", "user", "ACTION: ON", 1.25, "scripted:flip", 3.0),
    DecisionContext: (26.0, OFF, Thresholds(), True, 3.0),
    LatencySpec: ("lognormal", 0.0, 0.0, 0.5, 7),
    ScriptedPolicy: ("flip", 0.4, 0.63, 3),
    BackendConfig: (),
    ValidatorMode: ("twin", 300.0, (20.0, 30.0)),
    MonitorMode: ("anomaly", 0.5),
    RunConfig: (600.0, 2),
    AttemptRecord: tuple(ATTEMPT.__dict__.values()),
    EpisodeRecord: (3, 1.5, 26.0, ON, (ATTEMPT,), ON, True, 3.0),
    AccuracyMetrics: (10, 7, 3, 2, 1, 70.0, 90.0),
    ControlMetrics: (0.75, 12.0, 3.0, 15.0, 26.0),
    RunMetrics: (AccuracyMetrics(1, 1, 0, 0, 0, 100.0, 100.0), ControlMetrics(0.1, 0.0, 0.0, 0.0, 26.0)),
    LoadedConfig: (),
}

# Changes each class's __post_init__ refuses, with the refusal's text.
INVALID = {
    TwinParams: [({"c_h": -1.0}, "twin parameter c_h must be strictly positive")],
    Thresholds: [({"low": 30.0}, "thresholds must satisfy low < high, got 30.0 >= 28.0")],
    AgentSpec: [({"task": "{setpoint}"}, "unknown placeholder {setpoint} in task template")],
    Verdict: [({"reason": ""}, "a failing verdict needs a reason")],
    Exchange: [
        ({"latency": -1.0}, "latency must be finite and >= 0, got -1.0"),
        ({"latency": math.nan}, "latency must be finite and >= 0, got nan"),
        ({"latency": math.inf}, "latency must be finite and >= 0, got inf"),
    ],
    LatencySpec: [({"kind": "gamma"}, "unknown latency kind 'gamma'")],
    ScriptedPolicy: [({"p_wrong_first": 2.0}, "p_wrong_first must lie in [0, 1], got 2.0")],
    BackendConfig: [({"timeout": 0.0}, "backend timeout must be > 0")],
    ValidatorMode: [({"envelope": (30.0, 20.0)}, "envelope must be well ordered, got (30.0, 20.0)")],
    MonitorMode: [({"margin": -1.0}, "monitor margin must be finite and >= 0")],
    RunConfig: [({"duration": MAX_DURATION_S * 2}, "duration must lie in (0, 604800] s, got 1209600.0")],
}


@frozen
class Tagged:
    """Field options no package class uses: a list that is neither compared
    nor hashed, and a compared field left out of the hash."""

    a: int
    tags: list = dataclasses.field(compare=False, hash=False)
    b: float = dataclasses.field(default=1.0, hash=False)


MODULES = ("twin", "plantio", "agents", "backends", "orchestrator", "metrics", "jsonio", "tcp", "cli", "errors")


def package_dataclasses() -> set:
    found = set()
    for name in MODULES:
        module = importlib.import_module(f"twinloop.{name}")
        found |= {
            v for v in vars(module).values()
            if isinstance(v, type) and dataclasses.is_dataclass(v) and v.__module__ == module.__name__
        }
    return found


_ORACLES: dict = {}


def oracle(cls: type) -> type:
    """``cls`` with the frozen ``__init__`` of dataclasses."""
    if cls not in _ORACLES:
        _ORACLES[cls] = dataclasses.dataclass(frozen=True)(type(cls.__name__, (cls,), {}))
    return _ORACLES[cls]


def init_kwargs(record) -> dict:
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record) if f.init}


def outcome(build):
    """What ``build()`` stores, in order, or the type and text of what it raises."""
    try:
        return list(build().__dict__.items())
    except Exception as exc:  # noqa: BLE001 - the oracle's exception is the expectation
        return type(exc), str(exc)


def assert_built_as_the_oracle_builds(cls, *args, **kwargs):
    got = outcome(lambda: cls(*args, **kwargs))
    assert got == outcome(lambda: oracle(cls)(*args, **kwargs))
    return got


def test_every_package_dataclass_has_a_case():
    assert package_dataclasses() == set(CASES)
    assert set(INVALID) == {cls for cls in CASES if hasattr(cls, "__post_init__")}


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_the_package_init_fills_dict_as_the_frozen_init(cls):
    # no field goes through __setattr__; a class's own checks may
    assert "__setattr__" not in cls.__init__.__code__.co_names
    record = cls(*CASES[cls])
    items = assert_built_as_the_oracle_builds(cls, *CASES[cls])
    assert list(record.__dict__.items()) == items
    assert assert_built_as_the_oracle_builds(cls, **init_kwargs(record)) == items
    assert record == cls(**init_kwargs(record)) and hash(record) == hash(cls(*CASES[cls]))
    assert repr(record) == repr(oracle(cls)(*CASES[cls]))


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_defaults_factories_and_init_false_fields(cls):
    # no factory: an argument left out takes the one default the class declares
    assert all(f.default_factory is dataclasses.MISSING for f in dataclasses.fields(cls))
    first = assert_built_as_the_oracle_builds(cls, *CASES[cls])
    record = cls(*CASES[cls])
    for f in [f for f in dataclasses.fields(cls) if f.init][len(CASES[cls]):]:
        assert getattr(record, f.name) is f.default
    for f in dataclasses.fields(cls):
        if not f.init:
            # a plain default stays the class attribute
            assert f.name not in record.__dict__ and getattr(record, f.name) == f.default
    assert list(record.__dict__.items()) == first


@pytest.mark.parametrize("cls", list(INVALID), ids=lambda cls: cls.__name__)
def test_checks_run_at_construction_and_on_replace(cls):
    valid = init_kwargs(cls(*CASES[cls]))
    for changes, message in INVALID[cls]:
        error, text = assert_built_as_the_oracle_builds(cls, **{**valid, **changes})
        # every record check raises the one precondition error
        assert (error, text) == (InvalidInput, message)
        with pytest.raises(error) as raised:
            dataclasses.replace(cls(*CASES[cls]), **changes)
        assert str(raised.value) == text


def test_episode_kind_is_refused_as_an_argument():
    with pytest.raises(TypeError):
        EpisodeRecord(3, 1.5, 26.0, ON, (), ON, True, 3.0, kind="episode")
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(EpisodeRecord(*CASES[EpisodeRecord]), kind="other")


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_docstrings_are_written_not_generated(cls):
    # dataclasses writes ``Name(...)`` from inspect.signature, at import time
    assert cls.__doc__ and not re.fullmatch(rf"{cls.__name__}\(.*\)", cls.__doc__, re.S)


# --- the methods frozen supplies, against the oracle's ------------------------------


def as_oracle(record):
    """An instance of the oracle class with ``record``'s state."""
    twin = object.__new__(oracle(type(record)))
    twin.__dict__.update(record.__dict__)
    return twin


def assert_compared_as_the_oracle_compares(a, b):
    oa, ob = as_oracle(a), as_oracle(b)
    assert (a == b, a != b, b == a) == (oa == ob, oa != ob, ob == oa)
    assert (hash(a), hash(b)) == (hash(oa), hash(ob))
    assert (repr(a), repr(b)) == (repr(oa), repr(ob))


def raised(action, *args):
    try:
        action(*args)
    except Exception as exc:  # noqa: BLE001 - the oracle's exception is the expectation
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_equality_hash_and_repr_are_the_oracles(cls):
    record = cls(*CASES[cls])
    assert_compared_as_the_oracle_compares(record, cls(**init_kwargs(record)))
    assert record == cls(*CASES[cls]) and not record != cls(*CASES[cls])
    # another class's instance, the oracle's too, is never equal
    assert record.__eq__(as_oracle(record)) is NotImplemented and record.__eq__(None) is NotImplemented
    assert record != as_oracle(record) and as_oracle(record) != record


def test_fields_left_out_of_compare_and_hash_as_the_oracle_leaves_them():
    episode = EpisodeRecord(*CASES[EpisodeRecord])
    renamed = EpisodeRecord(*CASES[EpisodeRecord])
    object.__setattr__(renamed, "kind", "other")
    tagged = Tagged(1, ["x"])
    pairs = [
        (episode, renamed), (Tagged(1, [], 2.0), Tagged(1, [], 3.0)), (Tagged(1, []), Tagged(2, [])),
        (tagged, Tagged(1, [])),
    ]
    for a, b in pairs:
        assert_compared_as_the_oracle_compares(a, b)
    assert episode == renamed and hash(episode) == hash(renamed) and repr(episode) == repr(renamed)
    assert Tagged(1, [], 2.0) != Tagged(1, [], 3.0) and hash(Tagged(1, [], 2.0)) == hash(Tagged(1, [], 3.0))
    assert tagged == Tagged(1, [])


def test_a_record_inside_itself_is_shown_as_the_oracle_shows_it():
    tagged, twin = Tagged(1, []), oracle(Tagged)(1, [])
    tagged.tags.append(tagged)
    twin.tags.append(twin)
    assert repr(tagged) == repr(twin) == "Tagged(a=1, tags=[...], b=1.0)"


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_instances_stay_frozen(cls):
    record, twin = cls(*CASES[cls]), oracle(cls)(*CASES[cls])
    for name in [f.name for f in dataclasses.fields(cls)] + ["extra"]:
        for action, args in ((setattr, (name, None)), (delattr, (name,))):
            refused = raised(action, record, *args)
            assert refused[0] is dataclasses.FrozenInstanceError and refused == raised(action, twin, *args)
    # a plain subclass may add attributes, but not set or delete a field
    plain = type(cls.__name__, (cls,), {})(*CASES[cls])
    plain.extra = 1
    assert plain.extra == 1
    del plain.extra
    assert "extra" not in plain.__dict__
    for f in dataclasses.fields(cls):
        assert raised(setattr, plain, f.name, None) == (
            dataclasses.FrozenInstanceError, f"cannot assign to field {f.name!r}"
        )
        assert raised(delattr, plain, f.name) == (dataclasses.FrozenInstanceError, f"cannot delete field {f.name!r}")


@pytest.mark.parametrize("cls", list(CASES) + [Tagged], ids=lambda cls: cls.__name__)
def test_the_class_reads_as_a_stdlib_frozen_dataclass(cls):
    declared = dataclasses.dataclass(frozen=True, init=False)(type("Declared", (), {}))
    assert repr(cls.__dataclass_params__) == repr(declared.__dataclass_params__)
    # the oracle, a stdlib frozen subclass, takes the fields as they are
    assert dataclasses.fields(oracle(cls)) == dataclasses.fields(cls)
    assert cls.__match_args__ == oracle(cls).__match_args__
    with pytest.raises(TypeError, match="cannot inherit non-frozen dataclass from a frozen one"):
        dataclasses.dataclass(type(cls.__name__, (cls,), {}))


def test_records_match_by_position():
    match AttemptRecord(*CASES[AttemptRecord]):
        case AttemptRecord(index, _, parsed, passed, _, _, _, latency):
            assert (index, parsed, passed, latency) == (0, OFF, False, 0.5)
        case _:
            pytest.fail("no match")


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_replace_astuple_copy_and_pickle_keep_the_record(cls):
    record = cls(*CASES[cls])
    # a record that was used holds what a new one holds
    if cls is TwinParams:
        state = TwinState(24.0, 23.5)
        for duty in (0.0, 100.0, 37.5):
            state = step(record, state, duty, 1.5)
            first_exit(record, state, duty, 300.0, 24.0, 28.0)
    if cls in (AgentSpec, Thresholds, LoadedConfig):
        spec = record if cls is AgentSpec else record.operator if cls is LoadedConfig else AgentSpec()
        band = record if cls is Thresholds else Thresholds()
        render_prompt(spec, 26.0, OFF, band)
        assert not validate_rule(ON, 30.0, OFF, band).passed
    for made in (dataclasses.replace(record), copy.copy(record), pickle.loads(pickle.dumps(record))):
        assert type(made) is cls and made == record
        assert list(made.__dict__.items()) == list(record.__dict__.items())
    # a shallow copy shares only values that cannot change: every one hashes
    hash(tuple(copy.copy(record).__dict__.values()))
    twin = oracle(cls)(*CASES[cls])
    assert dataclasses.astuple(record) == dataclasses.astuple(twin)
    assert dataclasses.asdict(record) == dataclasses.asdict(twin)


# --- the decorator on its own ----------------------------------------------------


def test_unsupported_fields_are_refused_when_the_class_is_declared():
    with pytest.raises(TypeError, match="InitVar"):
        @frozen
        class WithInitVar:
            scale: dataclasses.InitVar[float]

    with pytest.raises(TypeError, match="keyword-only"):
        @frozen
        class KeywordField:
            a: int = dataclasses.field(kw_only=True)

    with pytest.raises(TypeError, match="keyword-only"):
        @frozen
        class AfterKwOnly:
            a: int
            _: dataclasses.KW_ONLY
            b: int

    # a factory would make its field a required argument
    with pytest.raises(TypeError, match="default_factory"):
        @frozen
        class WithFactory:
            tags: list = dataclasses.field(default_factory=list)

    with pytest.raises(TypeError, match="non-default argument 'b' follows default argument"):
        @frozen
        class Misordered:
            a: int = 0
            b: int


@pytest.mark.parametrize("method", ["__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__"])
def test_a_class_defining_a_supplied_method_is_refused(method):
    with pytest.raises(TypeError, match=f"Own defines {method}, which frozen supplies"):
        frozen(type("Own", (), {"__annotations__": {"a": int}, method: lambda self, *args: None}))


# --- the seven classes each attempt builds, drawn ----------------------------------

texts = st.text(max_size=20)
numbers = st.floats(allow_nan=False) | st.integers(-(10**6), 10**6)
actions = st.sampled_from(HeaterAction)
attempt_records = st.builds(
    AttemptRecord,
    attempt_index=st.integers(0, 10),
    raw_response=st.none() | texts,
    parsed=st.none() | actions,
    passed=st.booleans(),
    expected=st.none() | actions,
    reason=texts,
    error=st.none() | texts,
    latency=numbers,
)
HOT = {
    "DecisionContext": st.builds(
        DecisionContext, t_sensor=numbers, prev_action=actions,
        thresholds=st.builds(Thresholds, low=st.just(25.0), high=st.floats(26.0, 30.0)),
        has_feedback=st.booleans(), timestamp=numbers,
    ),
    "Exchange": st.builds(
        Exchange, system_text=texts, user_text=texts, response_text=texts,
        latency=st.floats(min_value=0.0, allow_infinity=False) | st.integers(0, 10**6), model=texts, timestamp=numbers,
    ),
    "TwinState": st.builds(TwinState, t_heater=numbers, t_sensor=numbers, clock=numbers),
    "AttemptRecord": attempt_records,
    "Verdict": st.builds(
        Verdict, passed=st.booleans(), expected=st.none() | actions, reason=st.text(min_size=1, max_size=20),
        criterion=texts,
    ),
    "EpisodeRecord": st.builds(
        EpisodeRecord, index=st.integers(0, 10**6), t_start=numbers, t_sensor=numbers, prev_action=actions,
        attempts=st.lists(attempt_records, max_size=3).map(tuple), applied=actions, override=st.booleans(),
        t_end=numbers,
    ),
}


@pytest.mark.parametrize("name", list(HOT))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_drawn_hot_records_are_built_as_the_frozen_init_builds_them(name, data):
    record = data.draw(HOT[name])
    cls, kwargs = type(record), init_kwargs(record)
    items = list(record.__dict__.items())
    assert assert_built_as_the_oracle_builds(cls, **kwargs) == items
    assert assert_built_as_the_oracle_builds(cls, *kwargs.values()) == items
    # nan != nan, so equality and hashing are checked where they hold
    if not any(isinstance(v, float) and math.isnan(v) for v in kwargs.values()):
        assert record == cls(**kwargs) and hash(record) == hash(cls(**kwargs))


@pytest.mark.parametrize("name", list(HOT))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_drawn_hot_records_compare_hash_and_show_as_the_oracle(name, data):
    # the draws hold no nan, where tuple equality and the field-by-field
    # equality of newer dataclasses part ways
    record, drawn = data.draw(HOT[name]), data.draw(HOT[name])
    field = data.draw(st.sampled_from([f.name for f in dataclasses.fields(record) if f.init]))
    near = dataclasses.replace(record, **{field: getattr(drawn, field)})
    for other in (drawn, near, type(record)(**init_kwargs(record))):
        assert_compared_as_the_oracle_compares(record, other)
