"""The generated per-class writers against the generic walker they replaced,
the generated readers against the generic decoder, the float form of a log
line, and two-decimal rounding against its decimal definition."""

from __future__ import annotations

import dataclasses
import enum
import errno
import json
import math
import pickle
import re
import types
import typing
from decimal import ROUND_HALF_UP, Decimal
from json.encoder import encode_basestring_ascii
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from twinloop.agents import AgentSpec, Thresholds
from twinloop.backends import BackendConfig, Exchange, LatencySpec, ScriptedPolicy
from twinloop import jsonio
from twinloop.cli import LoadedConfig, load_config
from twinloop.errors import InvalidInput, frozen
from twinloop.jsonio import dumps_record, format_float, from_doc, loads_record
from twinloop.metrics import AccuracyMetrics, ControlMetrics, RunMetrics
from twinloop.orchestrator import (
    EXPECTED_RULE,
    FORCE_OFF,
    LOG_FORMAT,
    MAX_DURATION_S,
    MAX_REPROMPTS,
    RULE,
    TWIN,
    AttemptRecord,
    EpisodeRecord,
    MonitorMode,
    RunConfig,
    ValidatorMode,
    read_run_log,
)
from twinloop.plantio import CLOCK_MODES, HeaterAction, round_half_away
from twinloop.twin import TwinParams, steady_state


# --- reference encoder: the generic walker, one dispatch on type per value -----


def ref_format_float(x) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite value not representable in a log record: {x!r}")
    r = repr(float(x))
    if "e" in r or "E" in r:
        return r
    whole, _, frac = r.partition(".")
    return f"{whole}.{frac.ljust(3, '0')}"


def ref_encode(value) -> str:
    writer = REF_WRITERS.get(type(value))
    if writer is None:
        writer = REF_WRITERS[type(value)] = ref_writer_for(type(value))
    return writer(value)


def ref_write_list(items) -> str:
    return "[" + ",".join([ref_encode(v) for v in items]) + "]"


def ref_write_dict(doc: dict) -> str:
    return "{" + ",".join([f"{encode_basestring_ascii(k)}:{ref_encode(v)}" for k, v in doc.items()]) + "}"


def ref_write_float_field(x) -> str:
    return "null" if math.isinf(x) else ref_format_float(x)


REF_WRITERS = {
    type(None): lambda _: "null",
    bool: lambda v: "true" if v else "false",
    int: int.__repr__,
    float: ref_format_float,
    str: encode_basestring_ascii,
    list: ref_write_list,
    tuple: ref_write_list,
    dict: ref_write_dict,
}


def ref_writer_for(cls: type):
    if issubclass(cls, enum.Enum):
        return {member: ref_encode(member.value) for member in cls}.__getitem__
    if dataclasses.is_dataclass(cls):
        hints = typing.get_type_hints(cls)
        writes = [
            (encode_basestring_ascii(f.name) + ":", f.name, ref_field_writer(hints[f.name]))
            for f in dataclasses.fields(cls)
        ]
        return lambda obj: "{" + ",".join([key + write(getattr(obj, name)) for key, name, write in writes]) + "}"
    for base in (bool, int, float, str, list, tuple, dict):
        if issubclass(cls, base):
            return REF_WRITERS[base]
    raise TypeError(f"cannot encode {cls.__name__} in a log record")


def ref_field_writer(tp):
    if tp is float:
        return ref_write_float_field
    if tp in (int, str, bool) or isinstance(tp, type) and issubclass(tp, enum.Enum):
        return ref_encode
    if dataclasses.is_dataclass(tp):
        return ref_encode
    args = typing.get_args(tp)
    if typing.get_origin(tp) is tuple and args:
        variadic = args[-1] is Ellipsis
        writers = [ref_field_writer(a) for a in (args[:1] if variadic else args)]

        def write(v) -> str:
            return "[" + ",".join([writers[0 if variadic else i](x) for i, x in enumerate(v)]) + "]"

        return write
    if typing.get_origin(tp) in (typing.Union, types.UnionType) and len(args) == 2 and type(None) in args:
        write = ref_field_writer(args[0] if args[1] is type(None) else args[1])
        return lambda v: "null" if v is None else write(v)
    raise TypeError(f"no JSON codec for fields of type {tp!r}")


# --- strategies ----------------------------------------------------------------

# quotes, backslashes, control and non-ASCII characters, astral ones included
texts = st.text(max_size=30) | st.sampled_from(['"', "\\", '\\"', "\n\t", "é ü", " ", "\x00", "😀"])
# a float field may hold an int (written in float form) or an infinity (null)
numbers = st.floats(allow_nan=False) | st.integers(-(10**6), 10**6)
finite = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-(10**6), 10**6)
actions = st.sampled_from(HeaterAction)
# an int field may hold a bool
counts = st.integers(-(10**9), 10**9) | st.booleans()

attempt_records = st.builds(
    AttemptRecord,
    attempt_index=counts,
    raw_response=st.none() | texts,
    parsed=st.none() | actions,
    passed=st.booleans(),
    expected=st.none() | actions,
    reason=texts,
    error=st.none() | texts,
    latency=numbers,
)

episode_records = st.builds(
    EpisodeRecord,
    index=counts,
    t_start=numbers,
    t_sensor=numbers,
    prev_action=actions,
    attempts=st.lists(attempt_records, max_size=4).map(tuple),
    applied=actions,
    override=st.booleans(),
    t_end=numbers,
)

# configs that construct: kinds, modes and policies from their allowed
# values, numbers from their accepted ranges, ints among the floats
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False) | st.integers(1, 10**6)
non_negative = st.floats(min_value=0.0, allow_infinity=False) | st.integers(0, 10**6)


@st.composite
def validator_modes(draw, duration):
    lo, hi = sorted(draw(st.tuples(finite, finite)))
    assume(lo < hi)
    envelope = draw(st.sampled_from([(lo, hi), (-math.inf, hi), (lo, math.inf), (-math.inf, math.inf)]))
    if draw(st.booleans()):
        return ValidatorMode(RULE, draw(finite), envelope)
    assume(envelope != (-math.inf, math.inf))
    horizon = draw(st.just(duration) | st.floats(min_value=0.0, max_value=duration, exclude_min=True))
    return ValidatorMode(TWIN, horizon, envelope)


@st.composite
def run_configs(draw):
    duration = draw(
        st.floats(min_value=0.0, max_value=MAX_DURATION_S, exclude_min=True) | st.integers(1, int(MAX_DURATION_S))
    )
    return RunConfig(
        duration=duration,
        max_reprompts=draw(st.integers(0, MAX_REPROMPTS)),
        sample_period_floor=draw(non_negative),
        thresholds=draw(st.builds(Thresholds, low=st.just(25.0) | st.just(20), high=st.just(27.0) | st.just(30))),
        validator=draw(validator_modes(duration)),
        monitor=draw(st.builds(MonitorMode, kind=st.sampled_from(["continuous", "anomaly"]), margin=non_negative)),
        clock_mode=draw(st.sampled_from(CLOCK_MODES)),
        initial_action=draw(actions),
        safe_action_policy=draw(st.sampled_from([EXPECTED_RULE, FORCE_OFF])),
    )


# A backend section of each kind with only that kind's fields drawn.
backend_configs = st.one_of(
    st.builds(
        BackendConfig, kind=st.just("http"),
        base_url=st.sampled_from(["http://127.0.0.1:8000", "https://x.invalid/v1"]), model=texts.filter(bool), temperature=non_negative, timeout=st.floats(0.0, MAX_DURATION_S, exclude_min=True),
        api_key_env=texts,
    ),
    st.builds(
        BackendConfig, kind=st.just("scripted"),
        script=st.builds(
            ScriptedPolicy, kind=st.sampled_from(["oracle", "flip", "always_wrong"]), p_wrong_first=st.floats(0.0, 1.0),
            p_correct_on_feedback=st.floats(0.0, 1.0), seed=st.integers(0, 2**32),
        ),
        latency=st.builds(
            LatencySpec, kind=st.sampled_from(["none", "fixed", "lognormal"]), seconds=non_negative,
            mu=st.floats(-10.0, 10.0), sigma=st.floats(0.0, 10.0), seed=st.integers(0, 2**32),
        ),
    ),
    st.builds(BackendConfig, kind=st.just("replay"), transcript_path=texts.filter(bool)),
)


@st.composite
def twin_params(draw):
    """Twins whose full-duty sensor rises to at least 31 degC, above both
    band tops that run_configs draws."""
    t_amb = draw(st.floats(0.0, 30.0))
    c_h, c_s, u_ha, u_hs, u_sa = (draw(st.floats(lo, hi)) for lo, hi in [(1.0, 100.0)] * 2 + [(0.01, 0.5)] * 3)
    rise = draw(st.floats(31.0 - t_amb, 60.0))
    # the sensor's full-duty rise is 100 * alpha * u_hs over the conductance determinant
    det = u_ha * u_hs + u_ha * u_sa + u_hs * u_sa
    return TwinParams(t_amb, rise * det / (100.0 * u_hs), c_h, c_s, u_ha, u_hs, u_sa)


# templates with conversions and a "." fill, and plain text without braces
operators = st.builds(
    AgentSpec, role=texts, goal=texts,
    task=st.sampled_from([AgentSpec().task, "{feedback}|{low!r:.^7}|{high!a}|{prev_action:>8}"])
    | st.text(st.characters(blacklist_characters="{}", blacklist_categories=("Cs",)), max_size=20),
)


run_metrics = st.builds(
    RunMetrics,
    accuracy=st.builds(
        AccuracyMetrics,
        samples=counts, passes=counts, fails=counts, pass_after_reprompts=counts, overrides=counts,
        accuracy_first_pass=numbers, accuracy_with_reprompts=numbers,
    ),
    control=st.builds(
        ControlMetrics,
        avg_deviation=numbers, time_above=numbers, time_below=numbers, time_outside=numbers,
        midpoint=numbers,
    ),
)

exchanges = st.builds(
    Exchange,
    system_text=texts,
    user_text=texts,
    response_text=texts,
    latency=st.floats(min_value=0.0, allow_infinity=False) | st.integers(0, 10**6),
    model=texts,
    timestamp=numbers,
)


@dataclasses.dataclass(frozen=True)
class EveryField:
    """One field of each annotation the writers handle, optionals around
    the float and tuple writers included."""

    number: float | None
    numbers: tuple[float, ...] | None
    pair: tuple[float, float]
    counts: tuple[int, ...]
    action: HeaterAction | None
    thresholds: Thresholds | None
    flag: bool


every_fields = st.builds(
    EveryField,
    number=st.none() | numbers,
    numbers=st.none() | st.lists(numbers, max_size=3).map(tuple),
    pair=st.tuples(numbers, numbers),
    counts=st.lists(counts, max_size=3).map(tuple),
    action=st.none() | actions,
    thresholds=st.none() | st.just(Thresholds()),
    flag=st.booleans() | counts,
)


# --- the generated writers write what the walker wrote -------------------------


@pytest.mark.parametrize(
    "records",
    [episode_records, attempt_records, run_configs(), run_metrics, exchanges, every_fields],
    ids=["EpisodeRecord", "AttemptRecord", "RunConfig", "RunMetrics", "Exchange", "EveryField"],
)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_generated_writer_matches_the_walker(records, data):
    record = data.draw(records)
    line = dumps_record(record)
    assert line == ref_encode(record)
    json.loads(line)


@settings(max_examples=50, deadline=None)
@given(config=run_configs(), digest=texts)
def test_header_record_matches_the_walker(config, digest):
    header = {"kind": "header", "format": "twinloop-run-log/1", "config": config, "config_digest": digest}
    assert dumps_record(header) == ref_encode(header)


def test_values_of_another_type_are_written_as_before():
    # a bool in an int field, an int in a float field, a str where an
    # enum is annotated, and infinities in float fields
    attempt = AttemptRecord(True, "ok", "ON", 1, None, "r", None, 2)
    episode = EpisodeRecord(
        index=3, t_start=math.inf, t_sensor=-math.inf, prev_action=HeaterAction.ON,
        attempts=(attempt,), applied=HeaterAction.OFF, override=0, t_end=5,
    )
    line = dumps_record(episode)
    assert line == ref_encode(episode)
    assert '"t_start":null,"t_sensor":null' in line
    assert '"attempt_index":true,"raw_response":"ok","parsed":"ON","passed":1' in line
    assert '"latency":2.000' in line and '"override":0,"t_end":5.000' in line


ATTEMPTS = (
    AttemptRecord(0, "ACTION: OFF", HeaterAction.OFF, False, HeaterAction.ON, "above band", None, 1.25),
    AttemptRecord(1, None, None, False, None, "", "backend_error", 0.5),
)


class Text(str):
    pass


class Count(int):
    pass


@dataclasses.dataclass(frozen=True)
class TaggedAttempt(AttemptRecord):
    tag: str = "retry"


def attempt(**changes):
    return dataclasses.replace(ATTEMPTS[0], **changes)


def episode(**changes):
    record = EpisodeRecord(3, 1.5, 26.0, HeaterAction.ON, ATTEMPTS, HeaterAction.ON, True, 3.0)
    return dataclasses.replace(record, **changes)


@pytest.mark.parametrize(
    "record",
    [
        attempt(reason=Text("a str subclass")),
        attempt(attempt_index=Count(7)),
        attempt(attempt_index=True),
        episode(attempts=(TaggedAttempt(*dataclasses.astuple(ATTEMPTS[0])), ATTEMPTS[1])),
        episode(attempts=list(ATTEMPTS)),
        RunConfig(validator=ValidatorMode(TWIN, 60.0, [20, 30.5])),
        attempt(passed=None, reason=None, attempt_index=None),
        episode(index=None, prev_action=None, applied=None, override=None),
        RunConfig(thresholds=None),
    ],
    ids=[
        "str subclass in a str field", "int subclass in an int field", "bool in an int field",
        "subclass in a tuple of records", "list for a tuple of records", "list for a pair of floats",
        "None in scalar fields", "None in enum and scalar fields", "None in a record field",
    ],
)
def test_values_off_the_inline_path_are_written_as_the_walker_writes_them(record):
    # the generated writer takes a value of exactly the annotated type
    # inline and hands any other to the generic writer
    assert dumps_record(record) == ref_encode(record)
    json.loads(dumps_record(record))


def test_nan_in_a_float_field_is_refused():
    attempt = AttemptRecord(0, None, None, False, None, "r", "parse_error", math.nan)
    with pytest.raises(ValueError, match="non-finite"):
        dumps_record(attempt)


# --- the generated readers read what the generic decoder reads -----------------

RECORDS = {
    "EpisodeRecord": (EpisodeRecord, episode_records),
    "AttemptRecord": (AttemptRecord, attempt_records),
    "RunConfig": (RunConfig, run_configs()),
    "RunMetrics": (RunMetrics, run_metrics),
    "Exchange": (Exchange, exchanges),
    "EveryField": (EveryField, every_fields),
}


def decoded(cls, doc, generic: bool):
    """``doc``'s line read by ``loads_record(line, cls)``, or its InvalidInput
    text.  With ``generic``, the walk alone, ``from_doc``, reads the line."""
    line = json.dumps(doc)
    try:
        return from_doc(cls, json.loads(line)) if generic else loads_record(line, cls)
    except InvalidInput as exc:
        return f"InvalidInput: {exc}"


def assert_same_decoding(cls, doc):
    fast, walked = decoded(cls, doc, False), decoded(cls, doc, True)
    assert fast == walked
    assert repr(fast) == repr(walked)
    if not isinstance(walked, str):
        # equal __dict__ key order too, so pickles match byte for byte
        assert pickle.dumps(fast) == pickle.dumps(walked)


def paths(doc, prefix=()):
    """The path of every value in a decoded document, containers included."""
    found = [prefix]
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        found += paths(value, prefix + (key,))
    return found


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


REPLACEMENTS = {
    "null": None, "bool": True, "unknown member": "DIMMED", "huge int": 10**400,
    "string": "x", "negative": -1, "zero": 0.0, "object": {}, "list": [],
}


def mutate(doc, path, how):
    """``doc`` with the value at ``path`` changed as ``how`` says; "drop"
    removes it from its object or list, "extra key" adds a key to it, and
    "renamed key" gives its key in its object an unknown name, in place, so
    that the object keeps its key count."""
    doc = json.loads(json.dumps(doc))
    if how == "extra key":
        at(doc, path)["extra"] = 1
        return doc
    parent, last = at(doc, path[:-1]), path[-1]
    value = parent[last]
    if how == "drop":
        del parent[last]
    elif how == "renamed key":
        items = list(parent.items())
        parent.clear()
        parent.update((key + "x" if key == last else key, v) for key, v in items)
    elif how == "wrong length":
        parent[last] = value + value[-1:] if isinstance(value, list) and value else [value, value]
    elif how == "int for float":
        parent[last] = int(value) if isinstance(value, float) and math.isfinite(value) else 3
    elif how == "float for int":
        parent[last] = float(value) if type(value) is int and abs(value) < 2**53 else 2.0
    else:
        parent[last] = REPLACEMENTS[how]
    return doc


HOWS = ["extra key", "drop", "renamed key", "wrong length", "int for float", "float for int", *REPLACEMENTS]


def mutation_paths(doc, how):
    """Where ``how`` applies: any object for "extra key", any value in an
    object for "renamed key", any value else."""
    if how == "extra key":
        return [p for p in paths(doc) if isinstance(at(doc, p), dict)]
    if how == "renamed key":
        return [p for p in paths(doc)[1:] if isinstance(at(doc, p[:-1]), dict)]
    return paths(doc)[1:]


FITTING = {
    "number": 1.5, "numbers": None, "pair": [1.0, 2.0], "counts": [1], "action": "ON", "thresholds": None, "flag": True,
}


@pytest.mark.parametrize(
    "cls, changes, message",
    [
        (EveryField, {"number": "1.5"}, "'where.number' must be a number"),
        (EveryField, {"number": 10**400}, "'where.number' does not fit a float"),
        (EveryField, {"pair": [1.0]}, "'where.pair' must be a list of 2 items"),
        (EveryField, {"numbers": {}}, "'where.numbers' must be a list"),
        (EveryField, {"numbers": [1.0, True]}, "'where.numbers.1' must be a number"),
        (EveryField, {"counts": [1, 1.5]}, "'where.counts.1' must be an integer"),
        (EveryField, {"action": "DIM"}, "'where.action' must be one of ON, OFF"),
        (EveryField, {"thresholds": []}, "'where.thresholds' must be an object"),
        (EveryField, {"thresholds": {"low": 1.0, "high": 2.0, "band": 0}}, "unknown key 'where.thresholds.band'"),
        (EveryField, {"thresholds": {"low": 1.0}}, "missing key 'where.thresholds.high'"),
        (
            EveryField, {"thresholds": {"low": 2.0, "high": 1.0}},
            "'where.thresholds': thresholds must satisfy low < high, got 2.0 >= 1.0",
        ),
        (EveryField, {"flag": 1}, "'where.flag' must be true or false"),
        (AgentSpec, {"role": 1, "goal": "g", "task": "t"}, "'where.role' must be a string"),
    ],
)
def test_the_walk_words_each_mismatch_by_its_dotted_key(cls, changes, message):
    # before the drawn tests: a walk that cannot read a tuple or an optional
    # fails here at once, where Hypothesis would shrink its failure for minutes
    doc = {**FITTING, **changes} if cls is EveryField else changes
    with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
        from_doc(cls, doc, "where")


@pytest.mark.parametrize("name", list(RECORDS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_generated_reader_matches_the_decoder(name, data):
    cls, records = RECORDS[name]
    doc = json.loads(dumps_record(data.draw(records)))
    assert_same_decoding(cls, doc)
    how = data.draw(st.sampled_from(HOWS))
    assert_same_decoding(cls, mutate(doc, data.draw(st.sampled_from(mutation_paths(doc, how))), how))


@pytest.mark.parametrize(
    "record",
    [
        EpisodeRecord(3, 1.5, 26.0, HeaterAction.ON, ATTEMPTS, HeaterAction.ON, True, 3.0),
        RunConfig(validator=ValidatorMode(TWIN, 60.0, (20.0, math.inf))),
        EveryField(2.5, (1.5,), (-1.0, 3.0), (4,), HeaterAction.OFF, Thresholds(), False),
    ],
    ids=["EpisodeRecord", "RunConfig", "EveryField"],
)
def test_every_mutation_reads_as_the_decoder_reads_it(record):
    cls = type(record)
    doc = json.loads(dumps_record(record))
    assert from_doc(cls, doc) == record
    for how in HOWS:
        for path in mutation_paths(doc, how):
            assert_same_decoding(cls, mutate(doc, path, how))


def test_a_record_that_fits_is_read_without_the_walk(monkeypatch):
    walked = []
    decode = jsonio._decode
    monkeypatch.setattr(jsonio, "_decode", lambda cls, *args: walked.append(cls) or decode(cls, *args))
    episode = EpisodeRecord(3, 1.5, 26.0, HeaterAction.ON, ATTEMPTS, HeaterAction.ON, True, 3.0)
    config = RunConfig(validator=ValidatorMode(TWIN, 60.0, (20.0, math.inf)))
    for record in (episode, config):
        assert loads_record(dumps_record(record), type(record)) == record
    assert walked == []
    with pytest.raises(InvalidInput, match="'attempts.1.latency' must be a number"):
        loads_record(dumps_record(episode).replace("0.500", '"slow"'), EpisodeRecord)
    assert walked[0] is EpisodeRecord


def test_an_episode_line_is_read_with_no_field_converter(monkeypatch):
    # every field of an episode line, its optional ones included, is read
    # inline; a converter would give the same record, only slower
    converted = []
    convert = jsonio._convert
    monkeypatch.setattr(jsonio, "_convert", lambda tp, *args, **kwargs: converted.append(tp) or convert(tp, *args, **kwargs))
    monkeypatch.setattr(jsonio, "_READERS", jsonio._Table(jsonio._generate_reader))
    episode = EpisodeRecord(3, 1.5, 26.0, HeaterAction.ON, ATTEMPTS, HeaterAction.ON, True, 3.0)
    assert loads_record(dumps_record(episode), EpisodeRecord) == episode
    assert converted == []
    # a value off the inline path goes to its converter
    assert loads_record(dumps_record(episode).replace("1.500", "2"), EpisodeRecord).t_start == 2.0
    assert converted == [float]


def test_a_renamed_key_is_named_by_its_dotted_path():
    # the key count fits, so the reader meets the rename as a missing key
    line = dumps_record(EpisodeRecord(3, 1.5, 26.0, HeaterAction.ON, ATTEMPTS, HeaterAction.ON, True, 3.0))
    renamed = line.replace('"error":null', '"errors":null', 1)
    with pytest.raises(InvalidInput, match=r"^unknown key 'attempts\.0\.errors'$"):
        loads_record(renamed, EpisodeRecord)


@frozen
class Sampled:
    """A record with an ``init=False`` field between the fields its
    constructor takes, and a check of its own."""

    count: int
    unit: str = dataclasses.field(default="degC", init=False)
    level: float = 0.0

    def __post_init__(self):
        if self.count < 0:
            raise InvalidInput("count must be >= 0")


def test_a_record_is_read_as_its_constructor_builds_it():
    built = Sampled(2, 0.5)
    read = loads_record(dumps_record(built), Sampled)
    assert read == built
    # the init=False default stays the class attribute, as in dataclasses
    assert list(read.__dict__.items()) == list(built.__dict__.items()) == [("count", 2), ("level", 0.5)]
    assert read.unit == "degC"
    assert pickle.dumps(read) == pickle.dumps(built)
    # the class's own check refuses a line as the walk words it
    with pytest.raises(InvalidInput, match="^'': count must be >= 0$"):
        loads_record('{"count":-1,"unit":"degC","level":0.5}', Sampled)
    assert_same_decoding(Sampled, {"count": 2, "unit": "K", "level": 0.5})


@frozen
class Probe:
    """A record no other test reads or writes, so its codec is built here."""

    action: HeaterAction
    inner: Sampled | None
    items: tuple[Sampled, ...]
    level: float = 0.0


def test_each_record_class_is_planned_read_and_written_once(monkeypatch):
    built = []
    for name in ("_PLANS", "_READERS", "_WRITERS"):
        table = getattr(jsonio, name)
        # a hit is dict's own subscript, which calls no Python code
        assert type(table).__getitem__ is dict.__getitem__
        monkeypatch.setattr(table, "build", lambda cls, name=name, build=table.build: built.append((name, cls)) or build(cls))
    record = Probe(HeaterAction.ON, Sampled(1, 0.5), (Sampled(2), Sampled(3)), 1.0)
    for _ in range(3):
        line = dumps_record(record)
        assert loads_record(line, Probe) == record
        assert from_doc(Probe, json.loads(line)) == record
    assert {("_PLANS", Probe), ("_READERS", Probe), ("_WRITERS", Probe)} <= set(built)
    assert len(built) == len(set(built))


@dataclasses.dataclass(frozen=True)
class Mixed:
    pair: tuple[int, str]


def test_a_tuple_of_items_of_two_annotations_has_no_writer():
    # a tuple is written with one item expression
    with pytest.raises(TypeError, match=r"^no JSON codec for fields of type tuple\[int, str\]$"):
        dumps_record(Mixed((1, "a")))


def fresh_codec(monkeypatch) -> list:
    """Give jsonio empty plan, reader and writer tables, as a fresh
    interpreter holds them, each build spied on as in
    :func:`test_each_record_class_is_planned_read_and_written_once`.
    Returns the list each build appends its (table, class) to."""
    built = []
    for name in ("_PLANS", "_READERS", "_WRITERS"):
        table = getattr(jsonio, name)
        spied = lambda cls, name=name, build=table.build: built.append((name, cls)) or build(cls)
        # a fresh table holds the writers of plain values
        plain = {k: v for k, v in table.items() if not dataclasses.is_dataclass(k)}
        monkeypatch.setattr(jsonio, name, jsonio._Table(spied, plain))
    return built


def test_a_record_file_builds_its_writer_as_it_opens(tmp_path, monkeypatch):
    built = fresh_codec(monkeypatch)
    path = tmp_path / "probes.jsonl"
    writer = jsonio.RecordWriter(path, "probe file", Probe)
    # the class and the record it nests, before any line
    assert set(built) == {(table, cls) for table in ("_PLANS", "_WRITERS") for cls in (Probe, Sampled)}
    assert path.read_text() == ""
    record = Probe(HeaterAction.OFF, None, (Sampled(1, 0.5),), 2.0)
    opened = list(built)
    with writer:
        for _ in range(2):
            writer.write_line(dumps_record(record))
    assert built == opened
    assert [loads_record(line, Probe) for line in path.read_text().splitlines()] == [record, record]


def test_a_record_class_without_a_writer_is_refused_before_its_file_opens(tmp_path):
    path = tmp_path / "mixed.jsonl"
    with pytest.raises(TypeError, match=r"^no JSON codec for fields of type tuple\[int, str\]$"):
        jsonio.RecordWriter(path, "mixed file", Mixed)
    assert not path.exists()


@dataclasses.dataclass(frozen=True)
class Tagged:
    tags: set[int]


def test_a_field_of_a_type_without_a_codec_has_no_reader():
    with pytest.raises(TypeError, match=r"^no JSON codec for fields of type set\[int\]$"):
        from_doc(Tagged, {"tags": [1]})


@pytest.mark.parametrize(
    "record, name",
    [
        ({"tags": {1, 2}}, "set"),
        ({"applied": HeaterAction.ON}, "HeaterAction"),
        ({"tags": [1, 2]}, "list"),
        ({"tags": (1, 2)}, "tuple"),
        (attempt(reason=HeaterAction.ON), "HeaterAction"),
        (attempt(raw_response=["ACTION: ON"]), "list"),
    ],
    ids=["set in a dict", "enum in a dict", "list in a dict", "tuple in a dict", "enum in a str field",
         "list in a str field"],
)
def test_a_value_no_field_annotates_has_no_writer(record, name):
    # an enum member, a list or a tuple is written only where its field
    # annotates it; the generic writer takes JSON's scalars, dicts and records
    with pytest.raises(TypeError, match=f"^cannot encode {name} in a log record$"):
        dumps_record(record)


CASE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "case_study.json"


@settings(max_examples=100, deadline=None)
@given(config=run_configs())
def test_a_run_config_record_is_a_config_file_run_section(tmp_path_factory, config):
    # a config file's run section is the encoding a run log header's config has
    doc = json.loads(CASE_CONFIG.read_text(encoding="utf-8"))
    doc["run"] = json.loads(dumps_record(config))
    path = tmp_path_factory.mktemp("config") / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert from_doc(RunConfig, doc["run"], "run") == config
    assert load_config(path).run == config


# --- the scan fast path against json.loads and the generic walk ----------------


def ref_refuse(text):
    raise ValueError(f"{text} is not a finite JSON number")


def ref_loads_record(line: str, cls=None):
    """``loads_record`` as ``json.loads`` and the generic walk read a line."""
    doc = json.loads(line, parse_constant=ref_refuse)
    if not isinstance(doc, dict):
        raise ValueError("record line is not a JSON object")
    return doc if cls is None else ref_from_doc(cls, doc)


def ref_from_doc(cls, doc, where=""):
    return jsonio._decode(cls, doc, False, where)


def ref_read_run_log(path, on_torn_tail=None):
    """``read_run_log`` line by line: a line of JSON whitespace is skipped,
    the first other one is the header, and every later one an episode."""
    config, episodes = None, []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise InvalidInput(f"bad log line: {exc}", line_number=lineno) from exc
            if not line.strip(" \t\n\r"):
                continue
            try:
                if config is None:
                    header = ref_loads_record(line)
                    if header.get("kind") != "header":
                        raise InvalidInput("first log record must be the header", line_number=lineno)
                    if header.get("format") != LOG_FORMAT:
                        raise InvalidInput(
                            f"unknown log format {header.get('format')!r}, expected {LOG_FORMAT!r}",
                            line_number=lineno,
                        )
                    config = ref_from_doc(RunConfig, header.get("config"), "config")
                else:
                    episodes.append(ref_loads_record(line, EpisodeRecord))
            except json.JSONDecodeError as exc:
                if on_torn_tail is not None and config is not None and not line.endswith("\n"):
                    on_torn_tail(lineno)
                    break
                raise InvalidInput(f"bad log line: {exc}", line_number=lineno) from exc
            except ValueError as exc:
                raise InvalidInput(f"bad log line: {exc}", line_number=lineno) from exc
            except InvalidInput as exc:
                if exc.line_number is not None:
                    raise
                raise InvalidInput(f"bad log record: {exc}", line_number=lineno) from exc
    if config is None:
        raise InvalidInput("log is empty")
    return config, episodes


def outcome(read, *args):
    """What ``read(*args)`` returns, or the type, text and line number of
    what it raises."""
    try:
        return read(*args)
    except Exception as exc:  # the reads are compared on whatever they raise
        return type(exc), str(exc), getattr(exc, "line_number", None)


NUMBER = re.compile(r"-?[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?")
KEY = re.compile(r'"([a-z_]+)":')
OTHER_SPACE = ["\xa0", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u3000", "\ufeff"]
JSON_SPACE = [" ", "\t", "\r", "\n"]
LINE_CHANGES = [
    "as written", "truncated", "leading space", "trailing space", "BOM", "trailing data",
    "two objects", "not an object", "non-finite number", "other space", "renamed key", "wrong type",
]


@st.composite
def mutated_lines(draw, line: str, how: str):
    """``line``, a record's line with its newline, changed as ``how`` says:
    one of the ways a torn, edited or foreign line differs from a written one."""
    body = line[:-1]
    if how == "truncated":
        return line[: draw(st.integers(0, len(line) - 1))]
    if how in ("leading space", "trailing space"):
        space = "".join(draw(st.lists(st.sampled_from(JSON_SPACE + OTHER_SPACE), min_size=1, max_size=3)))
        return space + line if how == "leading space" else body + space + "\n"
    if how == "BOM":
        return "\ufeff" + line
    if how == "trailing data":
        return body + draw(st.sampled_from([" x", "]", "}", ",", "\x00", " 1", '"'])) + "\n"
    if how == "two objects":
        return body + draw(st.sampled_from(["", " ", "\n"])) + line
    if how == "not an object":
        return draw(st.sampled_from(["[" + body + "]", "[]", "1", '"x"', "null", "true"])) + "\n"
    if how == "other space":
        return draw(st.sampled_from(OTHER_SPACE)) + "\n"
    pattern = KEY if how == "renamed key" else NUMBER
    spans = [m.span() for m in pattern.finditer(body)]
    if how == "as written" or not spans:
        return line
    start, end = draw(st.sampled_from(spans))
    if how == "renamed key":
        new = body[start:end - 2] + 'x":'
    elif how == "non-finite number":
        new = draw(st.sampled_from(["NaN", "Infinity", "-Infinity", "1e999", "-1e999", "1E400"]))
    else:
        new = draw(st.sampled_from(['"x"', "true", "null", "[]", "{}", "1.5", "-1"]))
    return body[:start] + new + body[end:] + "\n"


@pytest.mark.parametrize("how", LINE_CHANGES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_loads_record_reads_as_json_loads_and_the_walk(how, data):
    record = data.draw(st.one_of(episode_records, run_configs(), run_metrics))
    line = data.draw(mutated_lines(dumps_record(record) + "\n", how))
    cls = data.draw(st.sampled_from([None, type(record)]))
    fast, ref = outcome(jsonio.loads_record, line, cls), outcome(ref_loads_record, line, cls)
    assert fast == ref
    assert repr(fast) == repr(ref)


def test_a_repeated_key_is_refused_off_the_run_log_fast_path():
    text = '{"a": {"b": 1, "b": 2}}'
    with pytest.raises(ValueError, match=r"^key 'b' is repeated in one object$"):
        jsonio.loads_json(text)
    # the scan takes a record line as json.loads does; one it cannot take goes to loads_json
    assert jsonio.loads_record(text) == json.loads(text)
    with pytest.raises(ValueError, match="repeated"):
        jsonio.loads_record(" " + text)


@pytest.mark.parametrize("how", LINE_CHANGES)
@settings(max_examples=15, deadline=None)
@given(
    config=run_configs(),
    episodes=st.lists(episode_records, min_size=1, max_size=3),
    data=st.data(),
)
def test_read_run_log_reads_as_json_loads_and_the_walk(tmp_path_factory, how, config, episodes, data):
    # the header, an episode line and the last line are read by different
    # code, so each line takes the change in turn, the last with and without
    # its newline
    header = {"kind": "header", "format": LOG_FORMAT, "config": config, "config_digest": ""}
    written = [dumps_record(r) + "\n" for r in (header, *episodes)]
    path = tmp_path_factory.mktemp("log") / "run.jsonl"
    for index in range(len(written)):
        lines = list(written)
        lines[index] = data.draw(mutated_lines(lines[index], how))
        for torn_tail in (False, True):
            if torn_tail:
                lines[-1] = lines[-1].rstrip("\n")
            path.write_text("".join(lines), encoding="utf-8")
            fast_torn, ref_torn = [], []
            for fast, ref in [
                (outcome(read_run_log, path), outcome(ref_read_run_log, path)),
                (outcome(read_run_log, path, fast_torn.append), outcome(ref_read_run_log, path, ref_torn.append)),
            ]:
                assert fast == ref
                assert repr(fast) == repr(ref)
            assert fast_torn == ref_torn


class FullDisk:
    """A text file whose write of a line holding ``full`` fails as a full
    disk does."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, text):
        if "full" in text:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.fh.write(text)

    def flush(self):
        self.fh.flush()

    def close(self):
        self.fh.close()


def test_a_failed_write_closes_the_record_file_and_every_later_write_fails_alike(tmp_path, monkeypatch):
    opened = []

    def open_full(*args, **kwargs):
        opened.append(FullDisk(open(*args, **kwargs)))
        return opened[-1]

    monkeypatch.setattr(jsonio, "open", open_full, raising=False)
    path = tmp_path / "t.jsonl"
    writer = jsonio.RecordWriter(path, "transcript", Exchange)
    writer.write_line("{}")
    with pytest.raises(InvalidInput, match=r"^cannot write transcript .*: \[Errno 28\] No space left on device$"):
        writer.write_line('"full"')
    assert opened[0].fh.closed
    # the closed file raises ValueError, which the writer reports as it reports a failed write
    with pytest.raises(InvalidInput, match="^cannot write transcript .*: I/O operation on closed file"):
        writer.write_line("{}")
    writer.close()
    assert path.read_text() == "{}\n"


@pytest.mark.parametrize(
    "x, text",
    [
        (1.0, "1.000"),
        (0.5, "0.500"),
        (123.4567, "123.4567"),
        (-0.0, "-0.000"),
        (1e22, "1e+22"),
        (1e-7, "1e-07"),
        (23.03, "23.030"),
    ],
)
def test_format_float(x, text):
    assert format_float(x) == text == ref_format_float(x)


@given(x=st.floats(allow_nan=False, allow_infinity=False) | st.integers(-(10**9), 10**9))
def test_format_float_matches_the_partition_form(x):
    assert format_float(x) == ref_format_float(x)


# --- rounding ------------------------------------------------------------------


def decimal_round(x: float) -> float:
    """Ties away from zero on the shortest repr, to two decimals: the definition."""
    return float(Decimal(repr(x)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


@st.composite
def rounding_cases(draw):
    """Any float up to 1e15, or one on or next to a two-decimal tie, as
    k/100 + 0.005 is."""
    tie = draw(st.integers(0, 10**6)) / 100 + 0.005
    return draw(
        st.floats(min_value=-1e15, max_value=1e15)
        | st.sampled_from([tie, -tie, 26.445, -26.445, 0.005, 0.0025])
    )


@settings(max_examples=500)
@given(x=rounding_cases())
@example(x=26.445)
@example(x=-26.445)
@example(x=0.005)
@example(x=0.0025)
@example(x=2.675)
@example(x=-0.0)
def test_round_half_away_matches_the_decimal_definition(x):
    got = round_half_away(x)
    assert repr(got) == repr(decimal_round(x))  # the sign of a zero too


@settings(max_examples=100, deadline=None)
@example(cfg=load_config(CASE_CONFIG))
@given(cfg=st.builds(LoadedConfig, twin=twin_params(), operator=operators, backend=backend_configs, run=run_configs()))
def test_a_config_file_is_what_the_codec_writes(tmp_path_factory, cfg):
    # load_config refuses a twin whose full-duty sensor stays at or below the band's top
    assume(steady_state(cfg.twin, 100.0)[1] > cfg.run.thresholds.high)
    path = tmp_path_factory.mktemp("config") / "config.json"
    path.write_text(dumps_record(cfg))
    assert load_config(path) == cfg
