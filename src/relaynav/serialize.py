"""Canonical JSON helpers and the record codec.

All persisted artifacts (scenes, episodes, traces, results, manifests) are
written through these functions so that equal values always produce equal
bytes, which is what makes byte-level reproducibility checks meaningful.

Records persisted once per episode or run (episodes, rollout results,
per-episode scores, reports, blockage plans, manifests and their poses)
and the rare dialogue records of a trace inherit ``Record``: one codec
driven by the dataclass fields and type hints writes and reads them all.
Records written on every tick keep hand-written ``to_dict`` methods,
because a reflective encode costs several times more inside the tick loop.
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
from typing import Any, ClassVar

# field(metadata=ROUNDED) marks a float field written rounded to 6 digits
ROUNDED = MappingProxyType({"rounded": True})


class RecordFormatError(ValueError):
    """A persisted record lacks a required field or holds a mistyped value."""


class Record:
    """Base of frozen dataclasses persisted as canonical JSON.

    ``to_dict`` writes every field under its own name: nested records as
    objects, tuples as lists, non-finite floats as ``"inf"`` and fields
    marked ``ROUNDED`` rounded to 6 digits. ``from_dict`` reads the same
    shapes back; a missing field takes its default, and a missing field
    without one or a value its type cannot take raises ``format_error``
    naming the class and the field.
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
        kwargs = {}
        for name, hint, _, required in _record_fields(cls):
            if name not in d:
                if required:
                    raise cls.format_error(f"{cls.__name__}: missing field {name!r}")
                continue
            try:
                kwargs[name] = _decode(hint, d[name])
            except _Mistyped:
                raise cls.format_error(
                    f"{cls.__name__}: field {name!r} cannot hold {d[name]!r}"
                ) from None
            except RecordFormatError as exc:
                raise cls.format_error(f"{cls.__name__}.{name}: {exc}") from None
        return cls(**kwargs)


@functools.cache
def _record_fields(cls: type) -> tuple[tuple[str, Any, bool, bool], ...]:
    """(name, type hint, rounded, required) for each field of a record class."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (
            f.name,
            hints[f.name],
            f.metadata.get("rounded", False),
            f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING,
        )
        for f in dataclasses.fields(cls)
    )


def _encode(value: Any, rounded: bool) -> Any:
    if isinstance(value, float):
        if not math.isfinite(value):
            return "inf"
        return round(value, 6) if rounded else value
    if isinstance(value, tuple):
        return [_encode(v, False) for v in value]
    if isinstance(value, Record):
        return value.to_dict()
    return value


class _Mistyped(Exception):
    pass


def _decode(hint: Any, value: Any) -> Any:
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise _Mistyped
        args = typing.get_args(hint)
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(_decode(args[0], v) for v in value)
        if len(args) != len(value):
            raise _Mistyped
        return tuple(_decode(a, v) for a, v in zip(args, value))
    if isinstance(hint, type) and issubclass(hint, Record):
        if not isinstance(value, dict):
            raise _Mistyped
        return hint.from_dict(value)
    if hint is float:
        if value == "inf":
            return math.inf
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    elif hint is int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
    elif hint in (bool, str, dict):
        if isinstance(value, hint):
            return value
    else:
        raise TypeError(f"record codec cannot decode {hint!r}")
    raise _Mistyped


def canonical_dumps(obj: Any, *, indent: int | None = None) -> str:
    if indent is None:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return json.dumps(obj, sort_keys=True, indent=indent)


def write_canonical(path: str | Path, obj: Any, *, indent: int | None = None) -> None:
    Path(path).write_text(canonical_dumps(obj, indent=indent) + "\n", encoding="utf-8")


def read_json(path: str | Path) -> Any:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def write_jsonl(path: str | Path, records: list[Any]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(canonical_dumps(rec) + "\n")


def read_jsonl(path: str | Path) -> list[Any]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out


def sha256_file(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
