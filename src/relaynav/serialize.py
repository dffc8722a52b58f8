"""Canonical JSON helpers and the record codec.

All persisted artifacts (scenes, episodes, traces, results, manifests) are
written through these functions so that equal values always produce equal
bytes, which is what makes byte-level reproducibility checks meaningful.

Every record the package persists inherits ``Record``, from the per-tick
records of a trace (packets and their observations, events, decisions, the
relay item) to scene sections, manifests and configurations: one codec
driven by the dataclass fields and type hints writes and reads them all,
and no record keeps a hand-written ``to_dict``. The one exception is the
fixed-shape part of a trace's tick line (pose, packet, flags), which the
engine writes from text templates that the tests check against this codec.

Three things are built once per process and reused. A record class's
first ``to_dict`` call replaces its ``to_dict`` with a writer generated
from its hints (``_writer``): one dict display over the fields, nested
records inline, compiled with ``exec`` the way ``dataclasses`` builds
``__init__``, so no value is dispatched on its type. ``from_dict`` reads
each field through a decoder built once per type hint (``_decoder``); a
tuple or frozenset of cells is checked over all its items at once and read
item by item only when the check fails, to name the first item refused.
The compact encoder of ``canonical_dumps`` is one module-level encoder
with sorted keys, where ``json.dumps`` builds one per call; it runs once
per header, result and artifact line, and for each variable-shape part of
a tick line (events, decisions, dialogue, the item).
All are safe to share because they hold no state between calls: writers
and decoders are pure functions of the class or hint, and the compact
encoder keeps no cycle markers (a cyclic value is handed to ``json``'s own
encoder, which raises its usual error).

Indented files (scenes, manifests, reports, ``pending.json``, ``stats``)
are written by ``_indented``, which writes the bytes of ``json.dumps(obj,
sort_keys=True, indent=...)`` (the tests' oracle) without its per-value
Python encoder: strings through json's C quoting, other scalars through
the compact encoder (a scalar's text is the same in both forms), and a
list of int pairs, such as a scene's cells, from one template per pair
filled in a single ``%`` formatting call. A value it cannot write is
handed to the compact encoder, which raises what ``json.dumps`` raises.
A record's tuple is written in the order it holds, and only a frozenset
is sorted on write: a scene's region cells, a tuple that ``world.Region``
keeps sorted, go out without a sort, and its corridors' gate cells are
sorted.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import typing
from itertools import chain, repeat
from pathlib import Path
from types import MappingProxyType, NoneType, UnionType
from typing import Any, Callable, ClassVar, Iterable, Iterator

# field(metadata=ROUNDED) marks a float field written rounded to 6 digits
ROUNDED = MappingProxyType({"rounded": True})

Decoder = Callable[[Any], Any]

# key/value pairs of an event or decision, written as an object whose
# nested tuples are lists; make_payload keeps them sorted by key
Payload = tuple[tuple[str, object], ...]


class RecordFormatError(ValueError):
    """A persisted record lacks a required field or holds a mistyped value."""


class Record:
    """Base of frozen dataclasses persisted as canonical JSON.

    ``to_dict`` writes every field under its own name: nested records as
    objects, tuples as lists, frozensets as lists of their sorted items, a
    ``Payload`` as an object, infinity as ``"inf"`` and fields marked
    ``ROUNDED`` rounded to 6 digits; NaN and negative infinity have no form
    and raise ``ValueError``. ``from_dict`` reads the same shapes back, an
    integer into a float field as a float; a missing field takes its
    default, and a missing field without one, a field the class does not
    have, a value its type cannot take (for a tuple or frozenset, the first
    item it cannot take) or one the class's ``__post_init__`` refuses raises
    ``format_error`` naming the class (and the field).
    """

    format_error: ClassVar[type[ValueError]] = RecordFormatError

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        # its own to_dict, which its first call replaces with its writer,
        # so no class inherits another's writer
        cls.to_dict = Record.to_dict

    def to_dict(self) -> dict:
        write = type(self).to_dict = _writer(type(self))
        return write(self)

    @classmethod
    def from_dict(cls, d: Any):
        if not isinstance(d, dict):
            raise cls.format_error(f"{cls.__name__}: expected an object, got {d!r}")
        fields = _record_fields(cls)
        unknown = set(d).difference(name for name, _, _ in fields)
        if unknown:
            raise cls.format_error(f"{cls.__name__}: unknown field {min(map(repr, unknown))}")
        kwargs = {}
        for name, decode, required in fields:
            if name not in d:
                if required:
                    raise cls.format_error(f"{cls.__name__}: missing field {name!r}")
                continue
            try:
                kwargs[name] = decode(d[name])
            except _REFUSED as exc:  # a list names its first refused item, not all of it
                at, held = exc.args if isinstance(exc, _Mistyped) and exc.args else ("", d[name])
                raise cls.format_error(
                    f"{cls.__name__}: field {name!r}{at} cannot hold {held!r}"
                ) from None
            except RecordFormatError as exc:
                raise cls.format_error(f"{cls.__name__}: field {name!r}: {exc}") from None
        try:
            return cls(**kwargs)
        except ValueError as exc:  # a value the class's own checks refuse
            raise cls.format_error(f"{cls.__name__}: {exc}") from None


@functools.cache
def _record_fields(cls: type) -> tuple[tuple[str, Decoder, bool], ...]:
    """(name, decoder, required) for each field of a record class."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (
            f.name,
            _decoder(hints[f.name]),
            f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING,
        )
        for f in dataclasses.fields(cls)
    )


@functools.cache
def _writer(cls: type) -> Callable[[Any], dict]:
    """The function writing a ``cls`` record as a dict, built once per class."""
    env = {"_float": _float, "_lists": _lists}
    exec(f"def write(r):\n    return {_display(cls, 'r')}", env)
    return env["write"]


def _display(cls: type, value: str, depth: int = 0) -> str:
    """Python source of one dict display writing ``value``, an expression
    naming a ``cls`` record: each field by the expression its hint gives."""
    hints = typing.get_type_hints(cls)
    return "{%s}" % ", ".join(
        f"{f.name!r}: "
        + _write_expr(hints[f.name], f"{value}.{f.name}", f.metadata.get("rounded", False), depth)
        for f in dataclasses.fields(cls)
    )


def _write_expr(hint: Any, value: str, rounded: bool, depth: int) -> str:
    """Python source writing ``value``, an expression of type ``hint``."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint in (bool, int, str, dict):
        return value
    if hint is float:
        return f"_float({value}, {rounded})"
    if hint == Payload:
        return f"{{k: _lists(v) for k, v in {value}}}"
    if origin in (typing.Union, UnionType) and args[1:] == (NoneType,):  # X | None
        return f"None if {value} is None else {_write_expr(args[0], value, rounded, depth)}"
    if origin in (tuple, frozenset):
        item = f"_{depth}"
        exprs = {_write_expr(a, item, False, depth + 1) for a in args if a is not Ellipsis}
        if len(exprs) != 1:
            raise TypeError(f"record codec cannot write {hint!r}: its items need different writers")
        (expr,) = exprs
        items = value if origin is tuple else f"sorted({value})"
        if expr == item:
            return f"list({items})" if origin is tuple else items
        return f"[{expr} for {item} in {items}]"
    if isinstance(hint, type) and issubclass(hint, Record):
        return _display(hint, value, depth)
    raise TypeError(f"record codec cannot write {hint!r}")


def _float(value: float, rounded: bool) -> float | str:
    if math.isfinite(value):
        return round(value, 6) if rounded else value
    if value == math.inf:
        return "inf"
    raise ValueError(f"{value!r} has no canonical JSON form")


def _lists(value: Any) -> Any:
    """``value`` with every tuple in it written as a list."""
    return [_lists(v) for v in value] if isinstance(value, tuple) else value


def _tuples(value: Any) -> Any:
    """``value`` with every list in it read as a tuple."""
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


class _Mistyped(Exception):
    """A value its hint cannot take; ``args`` may name a list's refused item."""


# OverflowError: an int past float range
_REFUSED = (_Mistyped, OverflowError)


def _refused_item(decoders: Iterable[Decoder], values: list) -> _Mistyped:
    """The ``_Mistyped`` naming the first of ``values`` its decoder refuses."""
    for index, (decode, value) in enumerate(zip(decoders, values)):
        try:
            decode(value)
        except _REFUSED:
            return _Mistyped(f" item {index}", value)


@functools.cache
def _decoder(hint: Any) -> Decoder:
    """The function that reads a JSON value into a field typed ``hint``,
    built once per hint; a value the hint cannot take raises ``_Mistyped``."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint == Payload:

        def decode(value):
            if not isinstance(value, dict):
                raise _Mistyped
            return tuple(sorted((k, _tuples(v)) for k, v in value.items()))

    elif origin in (typing.Union, UnionType) and args[1:] == (NoneType,):  # X | None
        inner = _decoder(args[0])

        def decode(value):
            return None if value is None else inner(value)

    elif origin in (tuple, frozenset):
        variadic = origin is frozenset or args[1:] == (Ellipsis,)
        items = tuple(map(_decoder, args[:1] if variadic else args))
        # one decoder for every item (a cell's two ints, too) maps directly
        each = items[0] if variadic or len(set(items)) == 1 else None
        # cells are checked in bulk; only a list that fails goes item by item
        cells = variadic and args[0] == tuple[int, int]

        def decode(value):
            if not isinstance(value, list) or not variadic and len(value) != len(items):
                raise _Mistyped
            if cells and _int_pairs(value, {list}) is not None:
                return origin(map(tuple, value))
            try:
                if each is not None:
                    return origin(map(each, value))
                return origin([item(v) for item, v in zip(items, value)])
            except _REFUSED:
                raise _refused_item(items if each is None else repeat(each), value) from None

    elif isinstance(hint, type) and issubclass(hint, Record):

        def decode(value):
            if not isinstance(value, dict):
                raise _Mistyped
            return hint.from_dict(value)

    elif hint is float:

        def decode(value):
            if value == "inf":
                return math.inf
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                return float(value)
            raise _Mistyped

    elif hint in (bool, int, str, dict):

        def decode(value):
            if type(value) is hint:  # exactly: a bool is an int to isinstance
                return value
            raise _Mistyped

    else:
        raise TypeError(f"record codec cannot decode {hint!r}")
    return decode


_quote = json.encoder.encode_basestring_ascii
# json.dumps builds both encoders on every call
_COMPACT = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
if json.encoder.c_make_encoder is not None:
    # the arguments JSONEncoder.iterencode passes, but no markers dict: a
    # cyclic value overflows the recursion limit instead and is handed to
    # _COMPACT, which raises json's own error
    _compact_chunks = json.encoder.c_make_encoder(
        None, _COMPACT.default, _quote, None,
        ":", ",", True, False, True,
    )
else:
    _compact_chunks = None


def _int_pairs(value: list | tuple, kinds: set[type]) -> tuple[int, ...] | None:
    """The coordinates of ``value`` in order when it is a sequence of pairs
    of ``int``s (exactly: no bools), each pair of a type in ``kinds``;
    None otherwise. Every check runs over all items at once."""
    if set(map(type, value)) <= kinds and set(map(len, value)) <= {2}:
        flat = tuple(chain.from_iterable(value))
        if set(map(type, flat)) <= {int}:
            return flat
    return None


def _indented(o: Any, step: str, nl: str) -> str:
    """``o`` as ``json.dumps(o, sort_keys=True, indent=...)`` writes it,
    ``step`` being one level of indent and ``nl`` the newline and indent of
    the line ``o`` starts on."""
    if isinstance(o, str):
        return _quote(o)
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = nl + step
        flat = _int_pairs(o, {list, tuple})
        if flat is not None:  # cells: one template per pair, filled in one call
            deeper = inner + step
            pair = f"[{deeper}%d,{deeper}%d{inner}]"
            return f"[{inner}{(',' + inner).join([pair] * len(o)) % flat}{nl}]"
        return f"[{inner}{(',' + inner).join([_indented(v, step, inner) for v in o])}{nl}]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = nl + step
        members = (',' + inner).join([
            f"{_quote(k if isinstance(k, str) else canonical_dumps(k))}: {_indented(v, step, inner)}"
            for k, v in sorted(o.items())
        ])
        return f"{{{inner}{members}{nl}}}"
    return canonical_dumps(o)  # a scalar: its text is the same compact or indented


def canonical_dumps(obj: Any, *, indent: int | None = None) -> str:
    """``obj`` as JSON with sorted keys: compact, or indented by ``indent``."""
    if indent is not None:
        try:
            return _indented(obj, " " * indent, "\n")
        except (RecursionError, TypeError, ValueError):
            _COMPACT.encode(obj)  # raises what json.dumps raises for the value
            raise
    if _compact_chunks is not None:
        try:
            return "".join(_compact_chunks(obj, 0))
        except (RecursionError, TypeError, ValueError):
            pass  # re-encoded below, to raise what json.dumps raises
    return _COMPACT.encode(obj)


def write_canonical(path: str | Path, obj: Any, *, indent: int | None = None) -> None:
    Path(path).write_text(canonical_dumps(obj, indent=indent) + "\n", encoding="utf-8")


def _parse(text: str, where: str, error: type[ValueError]) -> Any:
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
        raise error(f"{where}: not JSON ({exc})") from None


def read_json(path: str | Path, error: type[ValueError] = RecordFormatError) -> Any:
    """The JSON value in ``path``; text that is not JSON raises ``error``
    naming the file."""
    return _parse(Path(path).read_text(encoding="utf-8"), str(path), error)


def write_jsonl(path: str | Path, records: list[Any]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(canonical_dumps(rec) + "\n")


def numbered_jsonl(
    path: str | Path, error: type[ValueError] = RecordFormatError
) -> Iterator[tuple[int, Any]]:
    """(line number, value) for each non-blank line of a JSON-lines file; a
    line that is not JSON raises ``error`` naming the file and the line."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if line:
                yield lineno, _parse(line, f"{path}:{lineno}", error)


def sha256_file(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
