"""Line-record JSON encoding with stable float formatting, and the dataclass
codec shared by config files, run logs, transcripts and reports.

Run logs and transcripts must be byte-identical across repeated deterministic
runs and must keep at least millisecond resolution visible on timestamps, so
floats are written from their shortest round-trip repr padded to a minimum of
three decimals.  Output lines are plain JSON; ``json.loads`` reads them back
exactly.

A dataclass is written as an object with one key per field, in field order,
and an enum as its value.  A field annotated ``float`` is always written in
float form, so ``RunConfig(duration=200)`` encodes like ``duration=200.0``,
and an infinite value there as ``null``.  :func:`from_doc` is the inverse.

Each dataclass is written by one function generated on its first encoding,
the way ``dataclasses`` generates ``__init__``: one f-string joins the key
texts with an expression per field that its annotation picks (float, str,
int, bool, enum, ``X | None``, nested dataclass, and a tuple whose items
share one annotation, ``tuple[X, ...]`` or ``tuple[X, X]``).  The
expression tests the value for exactly the annotated type and writes it
inline -- a bool or an enum member by a text lookup, a str, int or nested
dataclass by its writer -- and hands any other value to the generic writer
by the value's own type; either way the line is the same bytes, so an
``int`` in a float field is still written in float form and a ``bool`` in an
int field as ``true``.  A float field always goes through the float writer.
The generic writer takes None, a bool, int, float, str, dict or record, or a
subclass of one; any other value (an enum member, list, tuple) is a TypeError.

Reading is the mirror image, and :func:`loads_record` is its only fast path.
It scans a record line once by json's C scanner; NaN, Infinity and nesting
beyond the recursion limit are refused, as in every file the package reads.
A key repeated in one object is refused in every text but a run-log line
the scan takes, which keeps the last value: only :class:`RecordWriter`
writes run logs.
A record that must hold every field (a run log's episodes, a report's
metrics) is read by one function generated per class on first use: it
counts the keys and subscripts each one, takes each value of exactly its
annotated type inline (a float only if finite) where the field holds what an
episode line holds -- a scalar, an enum, a nested record, a tuple of records,
or ``None`` for one of these -- hands any other field to its converter, and
calls the class, whose own ``__init__`` builds the record.  On any mismatch
it hands the document to the generic walk, :func:`_decode`, the reference
and the only code that words an error.  :func:`from_doc` is the walk alone:
it reads config files, whose keys may be missing, and the config in a run
log's header, once per log.  A missing key takes the field's default, the
very value its constructor takes: ``errors.frozen`` supports plain and
``init=False`` defaults and the ``repr``, ``compare`` and ``hash`` options,
and refuses ``default_factory``.

Two rules hold for every record file, run log or transcript.  A line of
JSON whitespace alone is blank and skipped (:func:`is_blank`); other
whitespace is an error.  A file is written through :class:`RecordWriter`,
whose failed write closes the file and raises :class:`InvalidInput`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import json
import math
import types
import typing
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .errors import InvalidInput

_MISSING = dataclasses.MISSING


def format_float(x: float) -> str:
    """Shortest round-trip decimal form, padded to >= 3 decimals."""
    if not math.isfinite(x):
        raise ValueError(f"non-finite value not representable in a log record: {x!r}")
    return _write_float_field(float(x))  # which pads a finite float in place


class _Table(dict):
    """A dict that builds a missing entry as ``build(key)`` and keeps it.  A
    hit is dict's own subscript: ``__getitem__`` is not overridden."""

    def __init__(self, build, entries=()):
        super().__init__(entries)
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


# --- encoding ------------------------------------------------------------------


def _encode(value) -> str:
    """Write ``value`` by its own type: dicts, and any value whose type is
    not exactly the one its field is annotated with."""
    return _WRITERS[type(value)](value)


def _write_dict(doc: dict) -> str:
    return "{" + ",".join([f"{encode_basestring_ascii(k)}:{_encode(v)}" for k, v in doc.items()]) + "}"


def _write_float_field(x) -> str:
    """A float-annotated field: :func:`format_float`, but null for an infinity."""
    if type(x) is float and math.isfinite(x):
        r = repr(x)
        # an exponent form ends in two or more exponent digits
        if r[-2] == ".":
            return r + "00"
        if r[-3] == ".":
            return r + "0"
        return r
    return "null" if math.isinf(x) else format_float(x)


def _writer_for(cls: type):
    if dataclasses.is_dataclass(cls):
        return _generate_writer(_PLANS[cls].fields)
    for base in (bool, int, float, str, dict):
        if issubclass(cls, base):
            return _WRITERS[base]
    raise TypeError(f"cannot encode {cls.__name__} in a log record")


_BOOL_TEXTS = {True: "true", False: "false"}

# One writer per exact type; dataclasses and subclasses are added on first
# use by _writer_for.
_WRITERS = _Table(_writer_for, {
    type(None): lambda _: "null",
    bool: _BOOL_TEXTS.__getitem__,
    int: int.__repr__,
    float: format_float,
    str: encode_basestring_ascii,
    dict: _write_dict,
})


def _generate_writer(fields: list):
    """One function writing a dataclass from its (name, annotation) fields,
    generated the way ``dataclasses`` generates ``__init__``: one f-string
    joins the key texts and each field's :func:`_write_expr` of
    ``obj.<name>``.  Its source holds only the field names and names bound in
    its namespace, which carries every key text, class, text table and
    writer; it quotes with ``'`` alone and holds no backslash, so it compiles
    before PEP 701 too."""
    namespace = {"_end": "}" if fields else "{}", "_e": _encode, "_f": _write_float_field}
    parts = []
    for i, (name, tp) in enumerate(fields):
        key = _bind(namespace, ("," if i else "{") + encode_basestring_ascii(name) + ":")
        parts.append(f"{{{key}}}{{{_write_expr(tp, f'obj.{name}', namespace)}}}")
    exec(f'def write(obj):\n    return f"{"".join(parts)}{{_end}}"\n', namespace)
    return namespace["write"]


def _write_expr(tp, v: str, namespace: dict) -> str:
    """Source of an expression writing the value named ``v`` into a field
    annotated ``tp``.  A value of exactly the annotated type is written
    inline, a bool or an enum member by a text lookup; any other value as
    _encode writes it, None as null.  A float annotation, also inside tuples
    and optionals, fixes the float form.  A tuple is written item by item
    with one expression, so its items must share one annotation."""
    if tp is float:
        return f"_f({v})"
    if tp in _SCALARS or isinstance(tp, type) and (issubclass(tp, enum.Enum) or dataclasses.is_dataclass(tp)):
        if tp is bool:
            inline = f"{_bind(namespace, _BOOL_TEXTS)}[{v}]"
        elif issubclass(tp, enum.Enum):
            # keyed by name: a str caches its hash, a member's hash is a Python call
            texts = {member._name_: _encode(member._value_) for member in tp}
            inline = f"{_bind(namespace, texts)}[{v}._name_]"
        else:
            inline = f"{_bind(namespace, _WRITERS[tp])}({v})"
        return f"({inline} if type({v}) is {_bind(namespace, tp)} else _e({v}))"
    args = typing.get_args(tp)
    if typing.get_origin(tp) is tuple and len(set(args) - {Ellipsis}) == 1:
        x = f"x{len(namespace)}"
        return f"('[' + ','.join([{_write_expr(args[0], x, namespace)} for {x} in {v}]) + ']')"
    if typing.get_origin(tp) in (typing.Union, types.UnionType) and len(args) == 2 and type(None) in args:
        inner = args[0] if args[1] is type(None) else args[1]
        return f"('null' if {v} is None else {_write_expr(inner, v, namespace)})"
    raise TypeError(f"no JSON codec for fields of type {tp!r}")


def dumps_record(record) -> str:
    """Encode one record (a dict or a dataclass) as a single JSON line, no
    trailing newline."""
    return _encode(record)


class RecordWriter:
    """A file of record lines, opened for writing.  Each line is flushed as
    it is written, so a partial file stays readable.  A failed write closes
    the file; it, or a failed close, raises :class:`InvalidInput` naming the
    file as ``what``."""

    def __init__(self, path: str | Path, what: str):
        self._fh = open(path, "w", encoding="utf-8")
        self._failed = f"cannot write {what} {path}: "

    def write_line(self, line: str) -> None:
        try:
            self._fh.write(line + "\n")
            self._fh.flush()
        except (OSError, ValueError) as exc:
            # a write after a failed one meets a closed file: a ValueError
            with contextlib.suppress(OSError):
                self._fh.close()
            raise InvalidInput(self._failed + str(exc)) from exc

    def close(self) -> None:
        try:
            self._fh.close()
        except OSError as exc:
            raise InvalidInput(self._failed + str(exc)) from exc

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# --- decoding ------------------------------------------------------------------


class _Mismatch(Exception):
    """A document that does not fit its class.  The message holds ``{path}``
    for the dotted key; ``keys`` leads from the bad value up to the decoded
    object, innermost first."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.keys = [] if key is None else [key]


def from_doc(cls: type, doc, where: str = "", defaults: bool = False):
    """Build the dataclass ``cls`` from a decoded JSON object.

    Every key must name a field, and each value must fit the field's type
    hint: a number for a float, an integral number for an int, a string for
    a str, a value of an enum, a list for a tuple, an object for a nested
    dataclass; ``null`` only for ``X | None`` and where the default is
    infinite.  A missing key takes the field's default if ``defaults`` is
    set, else it is an error.  Every mismatch, and the
    :class:`InvalidInput` the class raises as it checks itself at
    construction, raises :class:`InvalidInput` naming the dotted key below
    ``where``.
    """
    try:
        return _decode(cls, doc, defaults)
    except _Mismatch as exc:
        path = ".".join(([where] if where else []) + exc.keys[::-1])
        raise InvalidInput(str(exc).replace("{path}", path)) from None


def _refuse(text: str):
    raise ValueError(f"{text} is not a finite JSON number")


class _Decoder(json.JSONDecoder):
    """json's decoder, with nesting beyond the interpreter's recursion limit
    a ValueError like any other text that is not JSON."""

    def decode(self, s: str):
        try:
            return super().decode(s)
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None


def _one_value_per_key(pairs: list) -> dict:
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"key {key!r} is repeated in one object")
        doc[key] = value
    return doc


def loads_json(text: str):
    """json.loads for every JSON text the package reads: config, twin
    parameters, transcript and run-log lines, and HTTP reply bodies.  NaN and
    Infinity, which JSON lacks, are refused, and so is a key repeated in one
    object; a number beyond a float's range reads as an infinity, which the
    field that holds it refuses."""
    return json.loads(text, cls=_Decoder, parse_constant=_refuse, object_pairs_hook=_one_value_per_key)


# The C scanner json.loads runs after its Python-level checks, with the
# rules of loads_json but the one on repeated keys.
_scan = json.JSONDecoder(parse_constant=_refuse).scan_once
# JSON's whitespace, the only text a record line may hold besides its value;
# str.strip() and bytes.strip() strip more.
_JSON_SPACE = " \t\n\r"
_JSON_SPACE_BYTES = _JSON_SPACE.encode()


def is_blank(raw: bytes) -> bool:
    """Whether a record file's line holds JSON whitespace alone."""
    return not raw.strip(_JSON_SPACE_BYTES)


def loads_record(line: str, cls: type | None = None):
    """Decode one record line: a dict, or with ``cls`` an instance of that
    dataclass with every field present.  A line that is not a JSON object,
    holds NaN or Infinity or nests too deeply raises ValueError; a record
    that does not fit ``cls``, InvalidInput.

    A value that scans from the line's first character and is followed by
    JSON whitespace alone is taken as it is, even with a repeated key.
    Anything else (leading whitespace, a BOM, trailing data, no value) goes
    to :func:`loads_json`, which accepts it or words the error."""
    try:
        doc, end = _scan(line, 0)
    except (StopIteration, ValueError, RecursionError):
        end = -1
    if end < 0 or line[end:].strip(_JSON_SPACE):
        doc = loads_json(line)
    if type(doc) is not dict:
        raise ValueError("record line is not a JSON object")
    if cls is None:
        return doc
    try:
        return _READERS[cls](doc)
    except _REFUSALS:
        return from_doc(cls, doc)


def _decode(cls: type, doc, defaults: bool):
    plan = _PLANS[cls]
    if type(doc) is not dict:
        raise _Mismatch("'{path}' must be an object")
    for key, value in plan.constants:
        found = doc.get(key, value if defaults else _MISSING)
        if found is _MISSING:
            raise _Mismatch("missing key '{path}'", key)
        if found != value:
            raise _Mismatch(f"'{{path}}' must be {value!r}", key)
    if not plan.keys.issuperset(doc):
        raise _Mismatch("unknown key '{path}'", next(k for k in doc if k not in plan.keys))
    args = []
    for key, convert, default in plan.reads:
        value = doc.get(key, _MISSING)
        if value is not _MISSING:
            try:
                args.append(convert(value, defaults))
            except _Mismatch as exc:
                exc.keys.append(key)
                raise
        elif defaults and default is not _MISSING:
            args.append(default)
        else:
            raise _Mismatch("missing key '{path}'", key)
    try:
        return cls(*args)
    except InvalidInput as exc:
        raise _Mismatch("'{path}': " + str(exc)) from exc


# What a generated reader raises when a document does not fit its class, or
# lets through from a field's converter, an enum lookup or the class's own
# check.  _decode then reads the document again and words the error.
_REFUSALS = (_Mismatch, KeyError, TypeError, InvalidInput)


def _generate_reader(cls: type):
    """One function building ``cls`` from a document holding every field,
    generated as the writer is.  It counts the keys, then subscripts each:
    it tests the constant fields and reads each value by its
    :func:`_read_expr`.  A document with as many keys but a foreign one thus
    raises KeyError on the field's key it lacks.  A value of exactly its
    annotated type is taken as it is (a float only if finite), any other goes
    to the field's converter, and whatever does not fit raises.  The record
    is built by calling ``cls``, so its own ``__init__`` lays it out."""
    plan = _PLANS[cls]
    namespace = {"_cls": cls, "_Mismatch": _Mismatch, "_isfinite": math.isfinite}
    test = f"type(doc) is not dict or len(doc) != {len(plan.keys)}"
    for key, value in plan.constants:
        test += f" or doc[{key!r}] != {_bind(namespace, value)}"
    body = [f"if {test}:", "    raise _Mismatch('')"]
    hints = dict(plan.fields)
    for i, (key, _, default) in enumerate(plan.reads):
        body += [f"v = doc[{key!r}]", f"a{i} = {_read_expr(hints[key], default, 'v', namespace)}"]
    body.append(f"return _cls({', '.join(f'a{i}' for i in range(len(plan.reads)))})")
    exec("def read(doc):\n" + "".join(f"    {line}\n" for line in body), namespace)
    return namespace["read"]


_READERS = _Table(_generate_reader)


def _bind(namespace: dict, value) -> str:
    """A new name in ``namespace`` for ``value``, for generated source."""
    name = f"_n{len(namespace)}"
    namespace[name] = value
    return name


def _read_expr(tp, default, v: str, namespace: dict) -> str:
    """Source of an expression reading the JSON value named ``v`` into a
    field annotated ``tp`` with ``default``, as the field's converter does.
    Scalars, enums, nested records, tuples of records and ``X | None`` of
    these are read inline; any other annotation calls the converter."""
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        return f"{_bind(namespace, {m.value: m for m in tp})}[{v}]"
    if dataclasses.is_dataclass(tp):
        return f"{_bind(namespace, _READERS[tp])}({v})"
    args = typing.get_args(tp)
    if typing.get_origin(tp) in (typing.Union, types.UnionType) and len(args) == 2 and type(None) in args:
        inner = args[0] if args[1] is type(None) else args[1]
        return f"(None if {v} is None else {_read_expr(inner, default, v, namespace)})"
    convert = f"{_bind(namespace, _field_reader(tp, default))}({v}, False)"
    if tp in _SCALARS or tp is float:
        finite = f" and _isfinite({v})" if tp is float else ""
        return f"({v} if type({v}) is {tp.__name__}{finite} else {convert})"
    if typing.get_origin(tp) is tuple and args[1:] == (Ellipsis,) and dataclasses.is_dataclass(args[0]):
        return f"(tuple(map({_bind(namespace, _READERS[args[0]])}, {v})) if type({v}) is list else {convert})"
    return convert


# --- one plan per dataclass ----------------------------------------------------


class _Plan:
    """How a dataclass is written and read, built once from its type hints."""

    def __init__(self, cls: type):
        hints = typing.get_type_hints(cls)
        self.fields = []  # (name, annotation) per field, in order, for the writer
        self.reads = []  # (key, converter, default) per constructor argument, in order
        self.constants = []  # (key, value) per field the constructor does not take
        for f in dataclasses.fields(cls):
            self.fields.append((f.name, hints[f.name]))
            if f.init:
                self.reads.append((f.name, _field_reader(hints[f.name], f.default), f.default))
            else:
                self.constants.append((f.name, f.default))
        self.keys = frozenset(f.name for f in dataclasses.fields(cls))


_PLANS = _Table(_Plan)


def _field_reader(tp, default):
    """The converter of a field annotated ``tp`` with ``default``."""
    if tp is float:
        return _number(default)
    if tp in _SCALARS:
        return _SCALARS[tp]
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        return _member(tp)
    if dataclasses.is_dataclass(tp):
        return lambda v, defaults: _decode(tp, v, defaults)
    args = typing.get_args(tp)
    if typing.get_origin(tp) is tuple and args:
        variadic = args[-1] is Ellipsis
        items = args[:1] if variadic else args
        if not isinstance(default, tuple) or len(default) != len(items):
            default = (_MISSING,) * len(items)
        return _tuple([_field_reader(a, d) for a, d in zip(items, default)], variadic)
    if typing.get_origin(tp) in (typing.Union, types.UnionType) and len(args) == 2 and type(None) in args:
        convert = _field_reader(args[0] if args[1] is type(None) else args[1], default)
        return lambda v, defaults: None if v is None else convert(v, defaults)
    raise TypeError(f"no JSON codec for fields of type {tp!r}")


def _number(default):
    # null stands for an infinite default, the way _write_float_field writes it
    infinite = isinstance(default, float) and math.isinf(default)

    def convert(v, _defaults):
        if type(v) is float:
            # json reads a number beyond a float's range as an infinity
            if math.isfinite(v):
                return v
            raise _Mismatch("'{path}' does not fit a float")
        if type(v) is int:
            try:
                return float(v)
            except OverflowError:
                raise _Mismatch("'{path}' does not fit a float") from None
        if v is None and infinite:
            return default
        raise _Mismatch("'{path}' must be a number")

    return convert


def _integer(v, _defaults):
    if type(v) is int:
        return v
    if type(v) is float and v.is_integer():
        return int(v)
    raise _Mismatch("'{path}' must be an integer")


def _exact(tp: type, problem: str):
    def convert(v, _defaults):
        if type(v) is tp:
            return v
        raise _Mismatch("'{path}' " + problem)

    return convert


_SCALARS = {int: _integer, str: _exact(str, "must be a string"), bool: _exact(bool, "must be true or false")}


def _member(cls: type):
    members = {m.value: m for m in cls}
    problem = "'{path}' must be one of " + ", ".join(map(str, members))

    def convert(v, _defaults):
        try:
            return members[v]
        except (KeyError, TypeError):
            raise _Mismatch(problem) from None

    return convert


def _tuple(items: list, variadic: bool):
    """Converter from a list to a tuple: of any length converting each item
    with ``items[0]`` if ``variadic``, else item by item with ``items``."""
    problem = "'{path}' must be a list" + ("" if variadic else f" of {len(items)} items")

    def convert(v, defaults):
        if type(v) is not list or not (variadic or len(v) == len(items)):
            raise _Mismatch(problem)
        out = []
        for i, x in enumerate(v):
            try:
                out.append(items[0 if variadic else i](x, defaults))
            except _Mismatch as exc:
                exc.keys.append(str(i))
                raise
        return tuple(out)

    return convert
