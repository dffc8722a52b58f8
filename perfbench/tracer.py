"""Spans around relaynav's public functions, recorded from outside the package.

The traced benchmark run wraps each function in :data:`TARGETS`. A module
that imported a function by name (``engine`` does ``from .agent import
observe``) holds its own binding, so :func:`install` replaces every binding
in every loaded ``relaynav`` module that is the same object as the original.
Methods are wrapped once, on their class.

Each call records a span (name, start, end, parent span) in memory; hooks
add counts at the same boundary. :func:`layer_metrics` turns the spans and
counts of one pass into ``<module>.<function>.<stat>`` numbers, where a
span's self time is its duration minus the part of it that its child spans
cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import weakref
from dataclasses import dataclass
from typing import Any, Callable


class Tracer:
    """In-memory span and counter store for one traced pass."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._seen_cells: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def enter(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def exit(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def spans(self) -> list[tuple[str, float, float, int]]:
        return list(zip(self.names, self.starts, self.ends, self.parents))


# --- self time ---------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[tuple[str, float, float, int]]) -> dict[str, float]:
    """Sum, per span name, of duration minus the time covered by child spans.

    ``spans`` holds (name, start, end, parent index) tuples; the parent index
    is -1 for a root span.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, float] = {}
    for idx, (name, start, end, _) in enumerate(spans):
        own = end - start - _covered(children.get(idx, []), start, end)
        out[name] = out.get(name, 0.0) + own
    return out


# --- wrapping ----------------------------------------------------------------


Hook = Callable[[Tracer, tuple, Any, Any], None]


@dataclass(frozen=True)
class Target:
    module: str  # relaynav submodule that defines the function
    attr: str  # function name, or "Class.method"
    span: str  # span name, "<module>.<function>"
    before: Callable[[tuple], Any] | None = None
    after: Hook | None = None


def _vis_miss(tr: Tracer, args: tuple, pre: Any, result: Any) -> None:
    field, cell = args[0], args[1]
    seen = tr._seen_cells.setdefault(field, set())
    if cell not in seen:
        seen.add(cell)
        tr.count("world.visible_offsets.miss")


def _filter_counts(tr: Tracer, args: tuple, pre: Any, result: Any) -> None:
    tr.count("replan.filter_events.history_len", len(args[1]))
    tr.count("replan.filter_events.events_in", len(args[0]))
    tr.count("replan.filter_events.admitted", len(result))


def _swap_counts(tr: Tracer, args: tuple, pre: Any, result: Any) -> None:
    from relaynav.replan import SWAP_SUBTASKS

    if result.kind == SWAP_SUBTASKS:
        tr.count("replan.evaluate_swap.swaps")


def _drop_counts(tr: Tracer, args: tuple, pre: Any, result: Any) -> None:
    transport = args[0]
    tr.count("transport.sent", transport.sent - pre[0])
    tr.count("transport.dropped", transport.dropped - pre[1])


def _trace_bytes(tr: Tracer, args: tuple, pre: Any, result: Any) -> None:
    tr.count("trace.to_bytes.bytes", len(result))


def _episode_accepts(tr: Tracer, args: tuple, pre: Any, result: Any) -> None:
    from relaynav.episodes import EpisodeSpec

    if isinstance(result, EpisodeSpec):
        tr.count("episodes.generate_episode.accepted")


def _blockage_accepts(tr: Tracer, args: tuple, pre: Any, result: Any) -> None:
    if result is not None:
        tr.count("ablation.pick_route_blockage.accepted")


TARGETS: tuple[Target, ...] = (
    Target("agent", "observe", "agent.observe"),
    Target("world", "VisibilityField.visible_offsets", "world.visible_offsets", after=_vis_miss),
    Target("world", "VisibilityField.__init__", "world.VisibilityField.init"),
    Target("world", "apply_blockage", "world.apply_blockage"),
    Target("world", "bfs_shortest_path", "world.bfs_shortest_path"),
    Target("world", "bfs_distance_field", "world.bfs_distance_field"),
    Target("agent", "ensure_plan", "agent.ensure_plan"),
    Target("agent", "plan_to", "agent.plan_to"),
    Target("replan", "extract_events", "replan.extract_events"),
    Target("replan", "filter_events", "replan.filter_events", after=_filter_counts),
    Target("replan", "evaluate_swap", "replan.evaluate_swap", after=_swap_counts),
    Target("bus", "publish", "bus.publish"),
    Target("bus", "compose_context", "bus.compose_context"),
    Target("bus", "compose_muted", "bus.compose_muted"),
    Target(
        "transport",
        "Transport.send",
        "transport.send",
        before=lambda args: (args[0].sent, args[0].dropped),
        after=_drop_counts,
    ),
    Target("transport", "Transport.due", "transport.due"),
    Target("engine", "commit_actions", "engine.commit_actions"),
    Target("engine", "run_lockstep", "engine.rollout"),
    Target("engine", "run_distributed", "engine.rollout"),
    Target("trace", "Trace.to_bytes", "trace.to_bytes", after=_trace_bytes),
    Target("serialize", "write_jsonl", "serialize.write_jsonl"),
    Target("manifest", "make_manifest", "manifest.make_manifest"),
    Target("cli", "do_gen_scenes", "cli.do_gen_scenes"),
    Target("cli", "do_gen_episodes", "cli.do_gen_episodes"),
    Target("cli", "do_run", "cli.do_run"),
    Target("scenegen", "generate_scene", "scenegen.generate_scene"),
    Target("episodes", "generate_episode", "episodes.generate_episode", after=_episode_accepts),
    Target("gates", "trigate_check", "gates.trigate_check"),
    Target(
        "ablation",
        "pick_route_blockage",
        "ablation.pick_route_blockage",
        after=_blockage_accepts,
    ),
    Target("ablation", "build_blockage_suite", "ablation.build_blockage_suite"),
    Target("ablation", "run_suite", "ablation.run_suite"),
)

SPAN_NAMES: tuple[str, ...] = tuple(dict.fromkeys(t.span for t in TARGETS))


def _wrap(fn: Callable, target: Target, tracer: Tracer) -> Callable:
    name, before, after = target.span, target.before, target.after

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        pre = before(args) if before is not None else None
        idx = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(idx)
        if after is not None:
            after(tracer, args, pre, result)
        return result

    return wrapper


PACKAGE = "relaynav"


def _package_modules() -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every target and every by-name binding of it; return the undo."""
    restore: list[tuple[object, str, object]] = []
    for t in TARGETS:
        owner = importlib.import_module(f"{PACKAGE}.{t.module}")
        if "." in t.attr:
            cls_name, meth = t.attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[meth]
            restore.append((cls, meth, original))
            setattr(cls, meth, _wrap(original, t, tracer))
            continue
        original = getattr(owner, t.attr)
        wrapped = _wrap(original, t, tracer)
        for mod in _package_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    restore.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def uninstall() -> None:
        for holder, key, original in reversed(restore):
            setattr(holder, key, original)

    return uninstall


# --- per-layer metrics -------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers for one traced pass, keyed by metric name."""
    spans = tracer.spans()
    own = self_times(spans)
    calls: dict[str, int] = {}
    for name in tracer.names:
        calls[name] = calls.get(name, 0) + 1
    c = tracer.counts
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = own.get(name, 0.0)
    vis_calls = calls.get("world.visible_offsets", 0)
    miss = c.get("world.visible_offsets.miss", 0)
    out["world.visible_offsets.miss"] = miss
    out["world.visible_offsets.hit_ratio"] = _ratio(vis_calls - miss, vis_calls)
    out["agent.ensure_plan.rebuild_ratio"] = _ratio(
        calls.get("agent.plan_to", 0), calls.get("agent.ensure_plan", 0)
    )
    out["replan.filter_events.history_len_mean"] = _ratio(
        c.get("replan.filter_events.history_len", 0), calls.get("replan.filter_events", 0)
    )
    out["replan.filter_events.admit_ratio"] = _ratio(
        c.get("replan.filter_events.admitted", 0), c.get("replan.filter_events.events_in", 0)
    )
    out["replan.evaluate_swap.swap_ratio"] = _ratio(
        c.get("replan.evaluate_swap.swaps", 0), calls.get("replan.evaluate_swap", 0)
    )
    out["transport.drop_ratio"] = _ratio(c.get("transport.dropped", 0), c.get("transport.sent", 0))
    out["trace.to_bytes.bytes"] = c.get("trace.to_bytes.bytes", 0)
    out["episodes.generate_episode.accept_ratio"] = _ratio(
        c.get("episodes.generate_episode.accepted", 0), calls.get("episodes.generate_episode", 0)
    )
    out["ablation.pick_route_blockage.accept_ratio"] = _ratio(
        c.get("ablation.pick_route_blockage.accepted", 0),
        calls.get("ablation.pick_route_blockage", 0),
    )
    return out


_OTHER_UNITS = {
    "world.visible_offsets.miss": "count",
    "trace.to_bytes.bytes": "bytes",
    "replan.filter_events.history_len_mean": "events",
}


def metric_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith(".self_s"):
        return "s"
    return _OTHER_UNITS.get(name, "fraction")


def layer_metric_names() -> list[str]:
    """Every per-layer metric name, in output order (without the overhead)."""
    return list(layer_metrics(Tracer()))
