"""Self-tests of the benchmark: span arithmetic, wrapping, names, digests.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer as tracing  # noqa: E402

rn = run._load_relaynav()


# --- self time ---------------------------------------------------------------


def test_self_time_of_nested_spans():
    spans = [
        ("A", 0.0, 10.0, -1),
        ("B", 1.0, 4.0, 0),
        ("D", 2.0, 3.0, 1),
        ("C", 5.0, 9.0, 0),
        ("B", 6.0, 7.0, 3),
        ("A", 20.0, 21.0, -1),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({"A": 3.0 + 1.0, "B": 2.0 + 1.0, "C": 3.0, "D": 1.0})


def test_overlapping_children_are_covered_once():
    spans = [("P", 0.0, 10.0, -1), ("X", 1.0, 5.0, 0), ("Y", 3.0, 6.0, 0), ("Z", 9.0, 12.0, 0)]
    assert tracing.self_times(spans)["P"] == pytest.approx(10.0 - 5.0 - 1.0)


def test_tracer_records_parents():
    tr = tracing.Tracer()
    outer = tr.enter("outer")
    inner = tr.enter("inner")
    tr.exit(inner)
    tr.exit(outer)
    (n0, s0, e0, p0), (n1, s1, e1, p1) = tr.spans()
    assert (n0, p0, n1, p1) == ("outer", -1, "inner", 0)
    assert s0 <= s1 <= e1 <= e0


# --- wrapping ----------------------------------------------------------------


def _holders(original) -> list[str]:
    return [
        f"{mod.__name__}.{key}"
        for mod in tracing._package_modules()
        for key, value in vars(mod).items()
        if value is original
    ]


def test_install_replaces_every_by_name_binding_and_undoes():
    originals = {
        t: getattr(__import__(f"relaynav.{t.module}", fromlist=["_"]), t.attr)
        for t in tracing.TARGETS
        if "." not in t.attr
    }
    holders = {t: _holders(fn) for t, fn in originals.items()}
    undo = tracing.install(tracing.Tracer())
    try:
        for t, fn in originals.items():
            assert _holders(fn) == [], f"{t.span} still bound unwrapped"
        assert rn.engine.observe is rn.agent.observe
        assert rn.agent.bfs_shortest_path is rn.world.bfs_shortest_path
    finally:
        undo()
    for t, fn in originals.items():
        assert _holders(fn) == holders[t]


def test_counts_come_from_the_call_boundary():
    tr = tracing.Tracer()
    undo = tracing.install(tr)
    try:
        scene = rn.scenegen.generate_scene(5)
        vis = scene.visibility(3.0)
        vis.visible_offsets((10, 10))
        vis.visible_offsets((10, 10))
        vis.visible_offsets((11, 10))
    finally:
        undo()
    m = tracing.layer_metrics(tr)
    assert m["world.visible_offsets.calls"] == 3
    assert m["world.visible_offsets.miss"] == 2
    assert m["world.visible_offsets.hit_ratio"] == pytest.approx(1 / 3)
    assert m["world.VisibilityField.init.calls"] == 1
    assert m["scenegen.generate_scene.calls"] == 1


# --- small traced runs -------------------------------------------------------


SMALL = {
    "discover-lossy": replace(run.WORKLOADS["discover-lossy"], scenes=2, per_scene=1, sets=1),
    "blockage-ablation": replace(run.WORKLOADS["blockage-ablation"], sets=1),
}

# wrapped functions each workload must reach
REACHED = {
    "discover-lossy": {
        "agent.observe", "world.visible_offsets", "world.VisibilityField.init",
        "world.bfs_shortest_path", "world.bfs_distance_field", "agent.ensure_plan",
        "agent.plan_to", "replan.extract_events", "replan.filter_events", "bus.publish",
        "bus.compose_context", "transport.send", "transport.due", "engine.commit_actions",
        "engine.rollout", "trace.to_bytes", "serialize.write_jsonl", "manifest.make_manifest",
        "cli.do_gen_scenes", "cli.do_gen_episodes", "cli.do_run", "scenegen.generate_scene",
        "episodes.generate_episode", "gates.trigate_check",
    },
    "blockage-ablation": {
        "agent.observe", "world.visible_offsets", "world.VisibilityField.init",
        "world.apply_blockage", "world.bfs_shortest_path", "world.bfs_distance_field",
        "agent.ensure_plan", "agent.plan_to", "replan.extract_events",
        "replan.filter_events", "replan.evaluate_swap", "bus.publish", "bus.compose_context",
        "bus.compose_muted", "engine.commit_actions", "engine.rollout",
        "scenegen.generate_scene", "episodes.generate_episode", "gates.trigate_check",
        "ablation.pick_route_blockage", "ablation.build_blockage_suite", "ablation.run_suite",
    },
}


@pytest.fixture(scope="module")
def small_runs(tmp_path_factory):
    """One untraced and one traced pass of each small workload."""
    out = {}
    for name, wl in SMALL.items():
        inputs = tmp_path_factory.mktemp(name) / "set0"
        wl.set_up(rn, 0, 0, inputs)
        plain = wl.run_pass(rn, 0, 0, inputs, in_process_setup=True)
        tr = tracing.Tracer()
        undo = tracing.install(tr)
        try:
            traced = wl.run_pass(rn, 0, 0, inputs, in_process_setup=True)
        finally:
            undo()
        out[name] = (plain, traced, tracing.layer_metrics(tr))
    return out


def test_every_span_name_is_reached_by_some_workload():
    assert set().union(*REACHED.values()) == set(tracing.SPAN_NAMES)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_counts_every_reached_function(small_runs, name):
    metrics = small_runs[name][2]
    missing = sorted(s for s in REACHED[name] if metrics[f"{s}.calls"] == 0)
    assert missing == []


@pytest.mark.parametrize("name", sorted(SMALL))
def test_tracing_leaves_output_digests_unchanged(small_runs, name):
    plain, traced, _ = small_runs[name]
    assert plain.problems == [] and traced.problems == []
    assert traced.digests == plain.digests


def test_passes_over_one_built_suite_match_an_in_process_build(small_runs):
    wl = SMALL["blockage-ablation"]
    suite = wl.build(rn, 0, 0)
    first = wl.run_pass(rn, 0, 0, Path("."), in_process_setup=False, prepared=suite)
    again = wl.run_pass(rn, 0, 0, Path("."), in_process_setup=False, prepared=suite)
    assert first.problems == [] and again.problems == []
    assert first.digests == again.digests == small_runs["blockage-ablation"][0].digests


def test_transport_drops_are_counted(small_runs):
    metrics = small_runs["discover-lossy"][2]
    assert 0.0 < metrics["transport.drop_ratio"] < 1.0


# --- names -------------------------------------------------------------------


def _bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_end_to_end_names_and_units_match_benchmark_json():
    listed = {m["name"]: m["unit"] for m in _bench()["end_to_end"]}
    assert listed == run.END_TO_END


def test_per_layer_names_and_units_match_benchmark_json():
    listed = {m["name"]: m["unit"] for m in _bench()["per_layer"]}
    names = tracing.layer_metric_names() + ["trace_overhead_frac"]
    assert list(listed) == names
    assert all(listed[n] == run.layer_unit(n) for n in names)


def test_benchmark_json_workloads_exist_with_the_same_reason():
    for w in _bench()["workloads"]:
        assert run.WORKLOADS[w["name"]].why == w["why"]


def test_printed_metrics_match_benchmark_json(monkeypatch, capsys, tmp_path):
    # the small workload has no goldens: passes are checked against each other
    monkeypatch.setitem(run.WORKLOADS, "discover-lossy", SMALL["discover-lossy"])
    monkeypatch.setattr(run, "GOLDENS", tmp_path / "goldens.json")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code = run.main(
            ["--workload", "discover-lossy", "--seed", "0", "--seconds", "0",
             "--trace", str(trace)]
        )
        assert code == 0
        last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["failed"] == 0
        want = {m["name"]: m["unit"] for m in _bench()[key]}
        assert {n: v["unit"] for n, v in last["metrics"].items()} == want


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "known-run", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
