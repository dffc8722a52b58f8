"""Canonical JSON helpers and the record codec.

All persisted artifacts (scenes, episodes, traces, results, manifests) are
written through these functions so that equal values always produce equal
bytes, which is what makes byte-level reproducibility checks meaningful.

Records persisted once per episode or run (episodes with their gate
reports, episode rejections, rollout results, per-episode scores, reports,
dataset stats, blockage plans, manifests and their poses), the regions,
objects and corridors of a scene file, the resolved configurations a
manifest records (scene, rollout, sensor, trigger and transport), the
adjudication items of ``pending.json`` and the rare dialogue records of a
trace inherit ``Record``: one codec driven by the dataclass fields and type
hints writes and reads them all. Only the records written on every tick
(a trace's per-tick records) keep hand-written ``to_dict`` methods, because
a reflective encode costs several times more inside the tick loop.

Two things are built once per process and reused. ``from_dict`` reads each
field through a decoder built once per type hint (``_decoder``), so no
value is dispatched on its field's hint again. The
compact encoder of ``canonical_dumps`` is one module-level encoder with
sorted keys, where ``json.dumps`` builds one per call, once per trace line.
Both are safe to share because they hold no state between calls: the
decoders are pure functions of the hint, and the compact encoder keeps no
cycle markers (a cyclic value is handed to ``json``'s own encoder, which
raises its usual error).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import typing
from pathlib import Path
from types import MappingProxyType
from typing import Any, Callable, ClassVar, Iterator

# field(metadata=ROUNDED) marks a float field written rounded to 6 digits
ROUNDED = MappingProxyType({"rounded": True})

Decoder = Callable[[Any], Any]


class RecordFormatError(ValueError):
    """A persisted record lacks a required field or holds a mistyped value."""


class Record:
    """Base of frozen dataclasses persisted as canonical JSON.

    ``to_dict`` writes every field under its own name: nested records as
    objects, tuples as lists, frozensets as lists of their sorted items,
    infinity as ``"inf"`` and fields marked ``ROUNDED`` rounded to 6
    digits; NaN and negative infinity have no form and raise
    ``ValueError``. ``from_dict`` reads the same shapes back, an integer
    into a float field as a float; a missing field takes its default, and a
    missing field without one, a field the class does not have, a value its
    type cannot take or one the class's ``__post_init__`` refuses raises
    ``format_error`` naming the class (and the field).
    """

    format_error: ClassVar[type[ValueError]] = RecordFormatError

    def to_dict(self) -> dict:
        return {
            name: _encode(getattr(self, name), rounded)
            for name, _, rounded, _ in _record_fields(type(self))
        }

    @classmethod
    def from_dict(cls, d: Any):
        if not isinstance(d, dict):
            raise cls.format_error(f"{cls.__name__}: expected an object, got {d!r}")
        fields = _record_fields(cls)
        unknown = set(d).difference(name for name, _, _, _ in fields)
        if unknown:
            raise cls.format_error(f"{cls.__name__}: unknown field {min(map(repr, unknown))}")
        kwargs = {}
        for name, decode, _, required in fields:
            if name not in d:
                if required:
                    raise cls.format_error(f"{cls.__name__}: missing field {name!r}")
                continue
            try:
                kwargs[name] = decode(d[name])
            except (_Mistyped, OverflowError):  # OverflowError: an int past float range
                raise cls.format_error(
                    f"{cls.__name__}: field {name!r} cannot hold {d[name]!r}"
                ) from None
            except RecordFormatError as exc:
                raise cls.format_error(f"{cls.__name__}.{name}: {exc}") from None
        try:
            return cls(**kwargs)
        except ValueError as exc:  # a value the class's own checks refuse
            raise cls.format_error(f"{cls.__name__}: {exc}") from None


@functools.cache
def _record_fields(cls: type) -> tuple[tuple[str, Decoder, bool, bool], ...]:
    """(name, decoder, rounded, required) for each field of a record class."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (
            f.name,
            _decoder(hints[f.name]),
            f.metadata.get("rounded", False),
            f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING,
        )
        for f in dataclasses.fields(cls)
    )


def _encode(value: Any, rounded: bool) -> Any:
    if isinstance(value, float):
        if math.isfinite(value):
            return round(value, 6) if rounded else value
        if value == math.inf:
            return "inf"
        raise ValueError(f"{value!r} has no canonical JSON form")
    if isinstance(value, tuple):
        return [_encode(v, False) for v in value]
    if isinstance(value, frozenset):
        return [_encode(v, False) for v in sorted(value)]
    if isinstance(value, Record):
        return value.to_dict()
    return value


class _Mistyped(Exception):
    pass


@functools.cache
def _decoder(hint: Any) -> Decoder:
    """The function that reads a JSON value into a field typed ``hint``,
    built once per hint; a value the hint cannot take raises ``_Mistyped``."""
    if typing.get_origin(hint) is tuple:
        args = typing.get_args(hint)
        variadic = len(args) == 2 and args[1] is Ellipsis
        items = tuple(map(_decoder, args[:1] if variadic else args))
        # one decoder for every item (a cell's two ints, too) maps directly
        each = items[0] if variadic or len(set(items)) == 1 else None

        def decode(value):
            if not isinstance(value, list) or not variadic and len(value) != len(items):
                raise _Mistyped
            if each is not None:
                return tuple(map(each, value))
            return tuple([item(v) for item, v in zip(items, value)])

    elif typing.get_origin(hint) is frozenset:
        (item,) = map(_decoder, typing.get_args(hint))

        def decode(value):
            if not isinstance(value, list):
                raise _Mistyped
            return frozenset(map(item, value))

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
            # a bool is an int to isinstance, but not to an int field
            if isinstance(value, hint) and (hint is bool or not isinstance(value, bool)):
                return value
            raise _Mistyped

    else:
        raise TypeError(f"record codec cannot decode {hint!r}")
    return decode


# json.dumps builds both encoders on every call, once per trace line
_COMPACT = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
if json.encoder.c_make_encoder is not None:
    # the arguments JSONEncoder.iterencode passes, but no markers dict: a
    # cyclic value overflows the recursion limit instead and is handed to
    # _COMPACT, which raises json's own error
    _compact_chunks = json.encoder.c_make_encoder(
        None, _COMPACT.default, json.encoder.encode_basestring_ascii, None,
        ":", ",", True, False, True,
    )
else:
    _compact_chunks = None


def canonical_dumps(obj: Any, *, indent: int | None = None) -> str:
    """``obj`` as JSON with sorted keys: compact, or indented by ``indent``."""
    if indent is not None:
        return json.dumps(obj, sort_keys=True, indent=indent)
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
