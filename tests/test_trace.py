"""Canonical trace files: structure, byte stability, round-tripping."""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaynav.trace import Trace, TraceFormatError, load_trace

from support import junk_lines


def sample_trace() -> Trace:
    trace = Trace(header={"episode_id": "ep1", "t_max": 5, "seed": 0})
    trace.append({"tick": 0, "robots": {"FH": {"action": "stop"}}, "item": {"phase": "AtPickup"}})
    trace.append({"tick": 1, "robots": {"FH": {"action": "move_forward"}}, "item": {"phase": "AtPickup"}})
    trace.result = {"episode_id": "ep1", "both_success": False, "ticks": 2}
    return trace


class TestSerialization:
    def test_line_structure(self):
        lines = sample_trace().lines()
        kinds = [json.loads(line)["kind"] for line in lines]
        assert kinds == ["header", "tick", "tick", "result"]

    def test_bytes_are_canonical_and_stable(self):
        a, b = sample_trace(), sample_trace()
        b.header = dict(reversed(list(b.header.items())))  # key order irrelevant
        assert a.to_bytes() == b.to_bytes()
        assert a.to_bytes().endswith(b"\n")
        for line in a.lines():
            assert ": " not in line and ", " not in line  # compact separators

    def test_result_line_optional(self):
        trace = sample_trace()
        trace.result = None
        kinds = [json.loads(line)["kind"] for line in trace.lines()]
        assert kinds == ["header", "tick", "tick"]


class TestRoundTrip:
    def test_write_load_identity(self, tmp_path):
        path = tmp_path / "ep1.trace.jsonl"
        original = sample_trace()
        path.write_bytes(original.to_bytes())
        loaded = load_trace(path)
        assert loaded.header == original.header
        assert loaded.records == original.records
        assert loaded.result == original.result
        assert loaded.to_bytes() == original.to_bytes()

    def test_blank_lines_tolerated(self, tmp_path):
        path = tmp_path / "ep1.trace.jsonl"
        path.write_bytes(sample_trace().to_bytes())
        padded = tmp_path / "padded.trace.jsonl"
        padded.write_text(path.read_text().replace("\n", "\n\n"))
        assert load_trace(padded).to_bytes() == sample_trace().to_bytes()


class TestFormatErrors:
    def test_duplicate_header_rejected(self, tmp_path):
        path = tmp_path / "bad.trace.jsonl"
        header = json.dumps({"kind": "header", "episode_id": "x"})
        path.write_text(header + "\n" + header + "\n")
        with pytest.raises(TraceFormatError):
            load_trace(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.trace.jsonl"
        path.write_text(json.dumps({"kind": "tick", "tick": 0}) + "\n")
        with pytest.raises(TraceFormatError):
            load_trace(path)

    @pytest.mark.parametrize("late", ["result", "tick", "header"])
    def test_line_after_the_result_rejected(self, tmp_path, late):
        # a second result would replace the first, a tick would extend a
        # finished rollout: either way the file is not one rollout's trace
        lines = sample_trace().lines()
        lines.append(json.dumps({"kind": late, "ticks": 3} if late == "result" else {"kind": late}))
        path = tmp_path / "bad.trace.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceFormatError, match=re.escape(f"{path}:5: ")):
            load_trace(path)

    @pytest.mark.parametrize("early", ["tick", "result"])
    def test_line_before_the_header_rejected(self, tmp_path, early):
        # accepted, the file would be written back with the header moved first
        path = tmp_path / "bad.trace.jsonl"
        header = json.dumps({"kind": "header", "episode_id": "x"})
        path.write_text(json.dumps({"kind": early, "tick": 0}) + "\n" + header + "\n")
        want = f"{path}:1: {early} line before the header line"
        with pytest.raises(TraceFormatError, match=f"^{re.escape(want)}$"):
            load_trace(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.trace.jsonl"
        path.write_text(json.dumps({"kind": "prophecy"}) + "\n")
        with pytest.raises(TraceFormatError):
            load_trace(path)


@settings(max_examples=150, deadline=None)
@given(junk=junk_lines(json.loads(sample_trace().lines()[1])), at=st.integers(0, 4))
def test_fuzzed_line_raises_only_trace_format_error(tmp_path_factory, junk, at):
    line, malformed = junk
    lines = sample_trace().lines()
    lines.insert(at, line)
    path = tmp_path_factory.getbasetemp() / "fuzz.trace.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        load_trace(path)
    except TraceFormatError as exc:
        assert str(path) in str(exc)
        if malformed:
            assert re.match(re.escape(f"{path}:{at + 1}: "), str(exc))
    else:
        assert not malformed
