"""Canonical rollout traces.

One JSON line per tick between a header and a result line, all serialized
canonically (sorted keys, fixed separators), so determinism and
mode-equivalence checks reduce to byte comparisons of trace files. The
header deliberately omits execution mode and transport settings — those live
in the run manifest — because a lockstep run is a run over the zero-latency,
lossless transport and must write the same bytes as a distributed run over it.

A trace keeps each tick as a record and its ``tick_line`` writes the
record's line when the trace is written. A trace read back by
:func:`load_trace` holds each tick's dict and writes it with
``canonical_dumps``. The engine records each tick as one flat tuple of
references to the values the tick made and writes it with its own text
writer, so a rollout whose trace is never written pays for no text. That
rests on one invariant: nothing a record references is mutated after its
tick.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from .serialize import canonical_dumps, numbered_jsonl


def _dict_tick_line(record: dict) -> str:
    """The trace line of a tick record held as a dict."""
    return canonical_dumps({"kind": "tick", **record})


@dataclass
class Trace:
    header: dict
    records: list = field(default_factory=list)
    result: dict | None = None
    tick_line: Callable[[Any], str] = _dict_tick_line

    def append(self, record: Any) -> None:
        self.records.append(record)

    def lines(self) -> list[str]:
        out = [canonical_dumps({"kind": "header", **self.header})]
        out.extend(map(self.tick_line, self.records))
        if self.result is not None:
            out.append(canonical_dumps({"kind": "result", **self.result}))
        return out

    def to_bytes(self) -> bytes:
        return ("\n".join(self.lines()) + "\n").encode("utf-8")


class TraceFormatError(ValueError):
    pass


def load_trace(path) -> Trace:
    """Read a trace back; a malformed line, a tick or result line before
    the header line, or any line after the result line, raises
    TraceFormatError naming the file and the line."""
    header = None
    records: list[dict] = []
    result = None
    for lineno, row in numbered_jsonl(path, TraceFormatError):
        where = f"{path}:{lineno}"
        if not isinstance(row, dict):
            raise TraceFormatError(f"{where}: expected an object, got {row!r}")
        kind = row.pop("kind", None)
        if result is not None:
            raise TraceFormatError(f"{where}: line after the result line")
        if kind == "header":
            if header is not None:
                raise TraceFormatError(f"{where}: duplicate trace header")
            header = row
        elif kind not in ("tick", "result"):
            raise TraceFormatError(f"{where}: unknown trace line kind {kind!r}")
        elif header is None:
            raise TraceFormatError(f"{where}: {kind} line before the header line")
        elif kind == "tick":
            records.append(row)
        else:
            result = row
    if header is None:
        raise TraceFormatError(f"{path}: trace missing header line")
    return Trace(header=header, records=records, result=result)
