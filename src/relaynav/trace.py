"""Canonical rollout traces.

One JSON line per tick between a header and a result line, all serialized
canonically (sorted keys, fixed separators), so determinism and
mode-equivalence checks reduce to byte comparisons of trace files. The
header deliberately omits execution mode and transport settings — those live
in the run manifest — because a distributed run with a degenerate transport
must produce the same bytes as the lockstep run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .serialize import canonical_dumps, numbered_jsonl


@dataclass
class Trace:
    header: dict
    records: list[dict] = field(default_factory=list)
    result: dict | None = None

    def append(self, record: dict) -> None:
        self.records.append(record)

    def lines(self) -> list[str]:
        out = [canonical_dumps({"kind": "header", **self.header})]
        out.extend(canonical_dumps({"kind": "tick", **r}) for r in self.records)
        if self.result is not None:
            out.append(canonical_dumps({"kind": "result", **self.result}))
        return out

    def to_bytes(self) -> bytes:
        return ("\n".join(self.lines()) + "\n").encode("utf-8")


class TraceFormatError(ValueError):
    pass


def emit_trace(trace: Trace, path) -> None:
    with open(path, "wb") as fh:
        fh.write(trace.to_bytes())


def load_trace(path) -> Trace:
    """Read a trace back; a malformed line raises TraceFormatError naming
    the file and the line."""
    header = None
    records: list[dict] = []
    result = None
    for lineno, row in numbered_jsonl(path, TraceFormatError):
        where = f"{path}:{lineno}"
        if not isinstance(row, dict):
            raise TraceFormatError(f"{where}: expected an object, got {row!r}")
        kind = row.pop("kind", None)
        if kind == "header":
            if header is not None:
                raise TraceFormatError(f"{where}: duplicate trace header")
            header = row
        elif kind == "tick":
            records.append(row)
        elif kind == "result":
            result = row
        else:
            raise TraceFormatError(f"{where}: unknown trace line kind {kind!r}")
    if header is None:
        raise TraceFormatError(f"{path}: trace missing header line")
    return Trace(header=header, records=records, result=result)
