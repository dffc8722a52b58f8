"""End-to-end CLI pipeline: generate → run → eval → compare → replay.

Each subcommand is exercised through ``main`` so that exit codes, file
layouts, and manifests are tested exactly as a shell user sees them.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import json
import math
import multiprocessing
import os
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from relaynav import cli
from relaynav.cli import (
    DEBUG_ENV_VAR,
    EXIT_OK,
    EXIT_REJECTED,
    EXIT_RUNTIME,
    EXIT_USAGE,
    JOBS,
    UsageError,
    build_parser,
    do_replay,
    load_config_file,
    main,
    manifest_path_for,
    resolve_run_config,
)
from relaynav.config import RolloutConfig, TransportConfig
from relaynav.episodes import EpisodeRejection, load_episodes, save_episodes
from relaynav.manifest import load_manifest
from relaynav.serialize import (
    canonical_dumps, numbered_jsonl, read_json, write_canonical, write_jsonl
)
from relaynav.trace import load_trace
from relaynav.world import load_scene
from test_goldens import SCENE_GOLDENS

SRC = Path(__file__).resolve().parent.parent / "src"
SCRIPTS = SRC.parent / "scripts"


def jsonl_rows(path):
    return [row for _, row in numbered_jsonl(path)]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Scenes + episodes generated once for the whole module."""
    root = tmp_path_factory.mktemp("cli")
    scenes = root / "scenes"
    episodes = root / "episodes.jsonl"
    assert main(["gen-scenes", "--count", "2", "--seed", "11", "--out", str(scenes)]) == EXIT_OK
    assert (
        main(
            ["gen-episodes", "--scenes", str(scenes), "--per-scene", "2",
             "--seed", "11", "--out", str(episodes)]
        )
        == EXIT_OK
    )
    assert load_episodes(episodes), "fixture seed produced no episodes"
    return root, scenes, episodes


def run_cmd(episodes, scenes, out, *extra):
    return main(
        ["run", "--episodes", str(episodes), "--scenes", str(scenes),
         "--out", str(out), "--seed", "5", *extra]
    )


@pytest.fixture(scope="module")
def run_dirs(pipeline):
    root, scenes, episodes = pipeline
    a, b = root / "run_deconav", root / "run_static"
    assert run_cmd(episodes, scenes, a, "--policy", "deconav") == EXIT_OK
    assert run_cmd(episodes, scenes, b, "--policy", "static") == EXIT_OK
    return a, b


@pytest.fixture(scope="module")
def adjudicated(pipeline):
    """An adjudication export of the pipeline's scenes (weak classifiers leave
    items to resolve) and the import of its auto-resolved CSV."""
    root, scenes, _ = pipeline
    export, csv, final = root / "adj_export", root / "adj_resolved.csv", root / "adj_final"
    assert main(
        ["adjudicate", "export", "--scenes", str(scenes), "--out", str(export),
         "--acc-a", "0.3", "--acc-b", "0.3"]
    ) == EXIT_OK
    assert main(
        ["adjudicate", "auto", "--pending", str(export), "--truth-scenes", str(scenes),
         "--out", str(csv)]
    ) == EXIT_OK
    assert main(
        ["adjudicate", "import", "--pending", str(export), "--csv", str(csv),
         "--out", str(final)]
    ) == EXIT_OK
    return export, final


@pytest.fixture(scope="module")
def manifests(pipeline, run_dirs, adjudicated):
    """command -> the manifest the module's pipeline wrote for it."""
    _, scenes, episodes = pipeline
    return {
        "gen-scenes": scenes / "manifest.json",
        "gen-episodes": manifest_path_for(episodes),
        "run": run_dirs[0] / "manifest.json",
        "adjudicate-export": adjudicated[0] / "manifest.json",
        "adjudicate-import": adjudicated[1] / "manifest.json",
    }


@pytest.fixture(scope="module")
def uneven(tmp_path_factory):
    """Three scenes holding 3, 1 and 2 episodes: more scenes than two workers,
    and scenes of unequal work."""
    root = tmp_path_factory.mktemp("uneven")
    scenes, drawn, episodes = root / "scenes", root / "drawn.jsonl", root / "episodes.jsonl"
    assert main(["gen-scenes", "--count", "3", "--seed", "11", "--out", str(scenes)]) == EXIT_OK
    assert main(
        ["gen-episodes", "--scenes", str(scenes), "--per-scene", "4",
         "--seed", "11", "--out", str(drawn)]
    ) == EXIT_OK
    by_scene: dict[str, list] = {}
    for ep in load_episodes(drawn):
        by_scene.setdefault(ep.scene_id, []).append(ep)
    assert len(by_scene) == 3 and min(len(eps) for eps in by_scene.values()) >= 3
    kept = [ep for eps, n in zip(by_scene.values(), (3, 1, 2)) for ep in eps[:n]]
    save_episodes(kept, episodes)
    return scenes, episodes


class TestGeneration:
    def test_gen_scenes_layout(self, pipeline):
        _, scenes, _ = pipeline
        files = sorted(p.name for p in scenes.glob("*.json") if p.name != "manifest.json")
        assert len(files) == 2
        manifest = load_manifest(scenes)
        assert manifest.command == "gen-scenes" and manifest.seed == 11
        assert set(manifest.outputs) == set(files)

    def test_gen_episodes_layout(self, pipeline):
        _, _, episodes = pipeline
        assert episodes.exists()
        assert episodes.with_name(episodes.name + ".rejects.jsonl").exists()
        manifest = load_manifest(manifest_path_for(episodes))
        assert manifest.command == "gen-episodes"
        assert episodes.name in manifest.outputs

    def test_stats_command(self, pipeline, capsys):
        _, _, episodes = pipeline
        assert main(["stats", "--episodes", str(episodes)]) == EXIT_OK
        stats = json.loads(capsys.readouterr().out)
        assert stats["task_count"] == len(load_episodes(episodes))
        assert stats["combined_path_mean_m"] > 0


class TestRunEvalCompare:
    def test_run_layout(self, pipeline, run_dirs):
        _, _, episodes = pipeline
        run_a, _ = run_dirs
        eps = load_episodes(episodes)
        rows = jsonl_rows(run_a / "results.jsonl")
        assert [r["episode_id"] for r in rows] == sorted(ep.episode_id for ep in eps)
        for ep in eps:
            assert (run_a / f"trace_{ep.episode_id}.jsonl").exists()
        manifest = load_manifest(run_a)
        assert manifest.command == "run"
        assert manifest.config["rollout"]["policy"] == "deconav"

    def test_eval_writes_report(self, run_dirs, capsys):
        run_a, _ = run_dirs
        assert main(["eval", "--results", str(run_a)]) == EXIT_OK
        assert "SR↑" in capsys.readouterr().out
        report = read_json(run_a / "report.json")
        assert set(report) >= {"sr", "bsr", "isr", "spl", "ne", "n_episodes"}
        assert (run_a / "episode_results.jsonl").exists()

    def test_compare_writes_delta(self, pipeline, run_dirs):
        root, _, _ = pipeline
        run_a, run_b = run_dirs
        out = root / "delta.json"
        assert main(["compare", "--a", str(run_a), "--b", str(run_b), "--out", str(out)]) == EXIT_OK
        delta = read_json(out)
        assert set(delta) == {"sr", "bsr", "isr", "spl", "ne", "n_episodes_a", "n_episodes_b"}
        assert set(delta["sr"]) == {"a", "b", "abs_delta", "rel_delta"}

    def test_parallel_jobs_bytes_identical(self, uneven, tmp_path):
        # two workers take the three scenes in whatever order they finish
        scenes, episodes = uneven
        serial, parallel = tmp_path / "jobs1", tmp_path / "jobs2"
        assert run_cmd(episodes, scenes, serial) == EXIT_OK
        assert run_cmd(episodes, scenes, parallel, "--jobs", "2") == EXIT_OK
        names = sorted(p.name for p in serial.iterdir())
        assert len(names) == 6 + 2  # a trace per episode, results.jsonl, manifest.json
        assert names == sorted(p.name for p in parallel.iterdir())
        for name in names:
            assert (parallel / name).read_bytes() == (serial / name).read_bytes(), name

    def test_serial_run_holds_one_scene_and_one_trace(self, uneven, tmp_path, monkeypatch):
        scenes, episodes = uneven
        out = tmp_path / "run"
        # SceneGraph is an unhashable dataclass, so live scenes are weak values
        loaded, alive_scenes, traces, done = [], weakref.WeakValueDictionary(), [], []
        load_scene, rollout_episode = cli.load_scene, cli.rollout_episode

        def counted_load(path):
            scene = load_scene(path)
            loaded.append(scene.scene_id)
            alive_scenes[len(loaded)] = scene
            return scene

        def checked_rollout(scene, episode, rollout, transport):
            assert list(alive_scenes.values()) == [scene]
            assert [t for t in traces if t() is not None] == []
            assert [e for e in done if not (out / f"trace_{e}.jsonl").is_file()] == []
            result, trace = rollout_episode(scene, episode, rollout, transport)
            traces.append(weakref.ref(trace))
            done.append(episode.episode_id)
            return result, trace

        monkeypatch.setattr(cli, "load_scene", counted_load)
        monkeypatch.setattr(cli, "rollout_episode", checked_rollout)
        rollout, _ = resolve_run_config({}, {"t_max": 80}, {})
        cli.do_run(episodes, scenes, out, rollout, None)
        eps = load_episodes(episodes)
        assert done == sorted(ep.episode_id for ep in eps)
        assert loaded == sorted({ep.scene_id for ep in eps})

    @pytest.mark.parametrize("jobs, scenes_run, pool_size", [(8, 3, 3), (4, 1, None)])
    def test_pool_never_outnumbers_scenes(
        self, uneven, tmp_path, monkeypatch, jobs, scenes_run, pool_size
    ):
        scenes, episodes = uneven
        eps = load_episodes(episodes)
        chosen = sorted({ep.scene_id for ep in eps})[:scenes_run]
        subset = tmp_path / "episodes.jsonl"
        save_episodes([ep for ep in eps if ep.scene_id in chosen], subset)
        sizes = []
        pool = multiprocessing.Pool
        monkeypatch.setattr(multiprocessing, "Pool", lambda n: sizes.append(n) or pool(n))
        out = tmp_path / "run"
        assert run_cmd(subset, scenes, out, "--t-max", "20", "--jobs", str(jobs)) == EXIT_OK
        assert sizes == ([] if pool_size is None else [pool_size])
        assert len(jsonl_rows(out / "results.jsonl")) == sum(ep.scene_id in chosen for ep in eps)

    def test_distributed_mode_accepts_transport_flags(self, pipeline):
        root, scenes, episodes = pipeline
        out = root / "run_dist"
        code = run_cmd(
            episodes, scenes, out, "--mode", "distributed",
            "--latency", "1", "--jitter", "1", "--drop-prob", "0.1", "--transport-seed", "3",
        )
        assert code == EXIT_OK
        manifest = load_manifest(out)
        assert manifest.config["transport"]["latency"] == 1


class TestOverrides:
    def test_blockage_override_lands_in_trace_header(self, pipeline):
        root, scenes, episodes = pipeline
        ep = load_episodes(episodes)[0]
        scene = load_scene(scenes / f"{ep.scene_id}.json")
        corridor = sorted(scene.corridors)[0]
        ov_path = root / "overrides.json"
        write_canonical(
            ov_path, {ep.episode_id: {"blockages": [[3, corridor]], "t_max": 123}}
        )
        out = root / "run_override"
        assert run_cmd(episodes, scenes, out, "--overrides", str(ov_path)) == EXIT_OK
        trace = load_trace(out / f"trace_{ep.episode_id}.jsonl")
        assert trace.header["blockage_schedule"] == [[3, corridor]]
        assert trace.header["t_max"] == 123
        others = [e for e in load_episodes(episodes) if e.episode_id != ep.episode_id]
        for other in others:
            header = load_trace(out / f"trace_{other.episode_id}.jsonl").header
            assert header["blockage_schedule"] == []

    def test_jobs_2_writes_the_bytes_of_jobs_1(self, pipeline, tmp_path):
        # each episode's config is resolved once in the parent and handed to
        # the worker, so a blockage and a t_max reach both rollout paths
        _, scenes, episodes = pipeline
        eps = load_episodes(episodes)
        scene = load_scene(scenes / f"{eps[0].scene_id}.json")
        ov_path = tmp_path / "overrides.json"
        write_canonical(ov_path, {
            eps[0].episode_id: {"blockages": [[2, sorted(scene.corridors)[0]]], "t_max": 40},
            eps[-1].episode_id: {"t_max": 7},
        })
        serial, parallel = tmp_path / "jobs1", tmp_path / "jobs2"
        assert run_cmd(episodes, scenes, serial, "--overrides", str(ov_path)) == EXIT_OK
        assert run_cmd(
            episodes, scenes, parallel, "--overrides", str(ov_path), "--jobs", "2"
        ) == EXIT_OK
        header = load_trace(parallel / f"trace_{eps[0].episode_id}.jsonl").header
        assert header["t_max"] == 40 and header["blockage_schedule"][0][0] == 2
        assert load_trace(parallel / f"trace_{eps[-1].episode_id}.jsonl").header["t_max"] == 7
        names = sorted(p.name for p in serial.iterdir() if p.name != "manifest.json")
        assert names == sorted(p.name for p in parallel.iterdir() if p.name != "manifest.json")
        assert len(names) == len(eps) + 1
        for name in names:
            assert (parallel / name).read_bytes() == (serial / name).read_bytes()

    @pytest.mark.parametrize(
        "tick, t_max, flags",
        [(40, 40, []), (5000, 40, []), (30, None, ["--t-max", "30"])],
    )
    def test_blockage_at_or_past_t_max_is_usage_error(
        self, pipeline, tmp_path, capsys, tick, t_max, flags
    ):
        # it would never fire, yet the trace header would record it
        _, scenes, episodes = pipeline
        ep = load_episodes(episodes)[0]
        corridor = sorted(load_scene(scenes / f"{ep.scene_id}.json").corridors)[0]
        ov_path = tmp_path / "overrides.json"
        write_canonical(ov_path, {ep.episode_id: {"blockages": [[tick, corridor]], "t_max": t_max}})
        out = tmp_path / "out"
        assert run_cmd(episodes, scenes, out, "--overrides", str(ov_path), *flags) == EXIT_USAGE
        assert (
            f"usage error: overrides file {ov_path}, episode {ep.episode_id}: "
            f"blockage at tick {tick} is at or past t_max {t_max or 30}"
        ) in capsys.readouterr().err
        assert not out.exists()

    def test_rollout_config_refuses_a_blockage_at_or_past_t_max(self):
        RolloutConfig(t_max=10, blockage_schedule=((9, "c0"),)).validate()
        with pytest.raises(ValueError, match="blockage at tick 10 is at or past t_max 10"):
            RolloutConfig(t_max=10, blockage_schedule=((9, "c0"), (10, "c1"))).validate()

    def test_unknown_episode_in_overrides_is_usage_error(self, pipeline):
        root, scenes, episodes = pipeline
        ov_path = root / "bad_overrides.json"
        write_canonical(ov_path, {"nope": {"blockages": [], "t_max": None}})
        assert run_cmd(episodes, scenes, root / "x", "--overrides", str(ov_path)) == EXIT_USAGE

    @pytest.mark.parametrize(
        "settings",
        [
            [1, 2],
            {"blockages": [[3]], "t_max": None},
            {"blockages": [["3", "c0"]]},
            {"blockages": [[1.5, "c0"]]},
            {"blockages": [[-1, "c0"]]},
            {"blockages": [[3, 7]]},
            {"blockages": {"3": "c0"}},
            {"t_max": 12.5},
            {"t_max": "100"},
            {"t_max": True},
            {"t_max": -1},
            {"tmax": 100},
            {"blockages": [[3, "nope"]]},
        ],
    )
    def test_malformed_override_is_usage_error_naming_file_and_episode(
        self, pipeline, tmp_path, capsys, settings
    ):
        _, scenes, episodes = pipeline
        eid = load_episodes(episodes)[0].episode_id
        ov_path = tmp_path / "overrides.json"
        write_canonical(ov_path, {eid: settings})
        code = run_cmd(episodes, scenes, tmp_path / "out", "--overrides", str(ov_path))
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert str(ov_path) in err and eid in err


class TestReplay:
    def test_run_replay_verifies_bytes(self, pipeline, run_dirs):
        root, _, _ = pipeline
        run_a, _ = run_dirs
        assert (
            main(["replay", "--manifest", str(run_a / "manifest.json"),
                  "--out", str(root / "replay_run")])
            == EXIT_OK
        )

    def test_gen_scenes_replay_verifies_bytes(self, pipeline):
        root, scenes, _ = pipeline
        assert (
            main(["replay", "--manifest", str(scenes / "manifest.json"),
                  "--out", str(root / "replay_scenes")])
            == EXIT_OK
        )

    @pytest.mark.parametrize("command", ["adjudicate-export", "adjudicate-import"])
    def test_adjudication_replay_verifies_bytes(self, manifests, tmp_path, command):
        assert main(
            ["replay", "--manifest", str(manifests[command]), "--out", str(tmp_path / "out")]
        ) == EXIT_OK

    def test_every_manifest_writing_command_has_a_job(self, manifests):
        assert set(manifests) == set(JOBS)

    @pytest.mark.parametrize("command", sorted(JOBS))
    def test_manifest_config_reads_back_as_its_job(self, manifests, command):
        manifest = load_manifest(manifests[command])
        assert manifest.command == command
        job = JOBS[command].from_dict(manifest.config)
        assert canonical_dumps(job.to_dict()) == canonical_dumps(manifest.config)

    def test_tampered_manifest_fails_replay(self, pipeline, run_dirs):
        root, _, _ = pipeline
        run_a, _ = run_dirs
        doctored = json.loads((run_a / "manifest.json").read_text())
        name = next(iter(doctored["outputs"]))
        doctored["outputs"][name]["sha256"] = "0" * 64
        bad = root / "doctored_manifest.json"
        bad.write_text(json.dumps(doctored))
        assert (
            main(["replay", "--manifest", str(bad), "--out", str(root / "replay_bad")])
            == EXIT_RUNTIME
        )

    def test_replay_names_unwritten_and_unexpected_outputs(self, pipeline, run_dirs):
        # an output the manifest records but the replay never writes is a
        # mismatch, even when a file of that name and digest sits in out_dir
        root, _, _ = pipeline
        run_a, _ = run_dirs
        doctored = json.loads((run_a / "manifest.json").read_text())
        doctored["outputs"]["ghost.jsonl"] = doctored["outputs"].pop("results.jsonl")
        bad = root / "ghost_manifest.json"
        bad.write_text(json.dumps(doctored))
        out = root / "replay_ghost"
        out.mkdir()
        (out / "ghost.jsonl").write_bytes((run_a / "results.jsonl").read_bytes())
        with pytest.raises(RuntimeError, match="mismatched: ghost.jsonl; unexpected: results.jsonl"):
            do_replay(bad, out)


    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("gen-scenes", "count", None),
            ("gen-scenes", "count", "x"),
            ("gen-scenes", "count", -1),
            # a manifest written while gen-scenes recorded its scene layout
            ("gen-scenes", "scene", "x"),
            ("gen-scenes", "scene", {"grid_width": 3}),
            ("gen-episodes", "per_scene", None),
            ("gen-episodes", "per_scene", 1.5),
            ("gen-episodes", "scenes_dir", 7),
            ("run", "episodes", None),
            ("run", "episodes", 3),
            ("run", "scenes_dir", [None]),
            ("run", "rollout", None),
            ("run", "rollout", {"tau": "x"}),
            ("run", "rollout", {"tau": -1}),
            ("run", "transport", "x"),
            ("run", "transport", {"latency": -1}),
            ("run", "overrides", 5),
            ("adjudicate-export", "scenes_dir", None),
            ("adjudicate-export", "acc_a", "x"),
            ("adjudicate-export", "acc_b", True),
            ("adjudicate-export", "acc_a", 7),
            ("adjudicate-export", "acc_b", -2),
            ("adjudicate-export", "acc_a", math.nan),
            ("adjudicate-import", "pending_dir", 7),
            ("adjudicate-import", "csv", None),
        ],
    )
    def test_malformed_config_value_is_named(
        self, manifests, tmp_path, capsys, command, key, value
    ):
        # None deletes the key
        doctored = json.loads(manifests[command].read_text())
        if value is None:
            del doctored["config"][key]
        else:
            doctored["config"][key] = value
        bad = tmp_path / "manifest.json"
        bad.write_text(json.dumps(doctored))
        code = main(["replay", "--manifest", str(bad), "--out", str(tmp_path / "out")])
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert f"{bad}: config" in err and repr(key) in err


class TestConfigResolution:
    def test_file_sections_flow_into_configs(self, tmp_path):
        path = tmp_path / "cfg.json"
        write_canonical(path, {"rollout": {"tau": 7}, "trigger": {"n_stag": 15}})
        rollout, transport = resolve_run_config(
            load_config_file(path), {"policy": None}, {"latency": None}
        )
        assert rollout.tau == 7 and rollout.trigger.n_stag == 15
        assert transport is None

    def test_cli_flag_beats_file_value(self, tmp_path):
        path = tmp_path / "cfg.json"
        write_canonical(path, {"rollout": {"tau": 7}})
        rollout, _ = resolve_run_config(load_config_file(path), {"tau": 9}, {})
        assert rollout.tau == 9

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        write_canonical(path, {"bogus": {}})
        with pytest.raises(UsageError):
            load_config_file(path)

    def test_scene_section_rejected_by_name(self):
        with pytest.raises(UsageError, match="scene"):
            resolve_run_config({"scene": {"grid_width": 9999}}, {}, {})

    def test_unknown_section_rejected_by_resolution(self):
        with pytest.raises(UsageError, match="bogus"):
            resolve_run_config({"bogus": 1}, {}, {})

    def test_rollout_blockage_schedule_rejected_by_name(self):
        with pytest.raises(UsageError, match="rollout.blockage_schedule"):
            resolve_run_config({"rollout": {"blockage_schedule": [[5, "c0"]]}}, {}, {})

    @pytest.mark.parametrize("section", [{"latency": 5, "drop_prob": 0.5}, {}])
    def test_lockstep_transport_section_rejected_by_name(self, section):
        with pytest.raises(UsageError, match="config section 'transport' requires --mode distributed"):
            resolve_run_config({"transport": section}, {}, {})
        _, transport = resolve_run_config({"transport": section}, {"mode": "distributed"}, {})
        assert transport == TransportConfig(**section)

    def test_nested_rollout_sensor_rejected_by_name(self):
        with pytest.raises(UsageError, match="rollout.sensor"):
            resolve_run_config({"rollout": {"sensor": {"range_m": 9}}}, {}, {})

    @pytest.mark.parametrize(
        "text, named",
        [
            ('{"rollout": {"t_max": "500"}}', "RolloutConfig: field 't_max' cannot hold '500'"),
            ('{"rollout": {"tau": 2.5}}', "RolloutConfig: field 'tau' cannot hold 2.5"),
            (
                '{"rollout": {"mode": "distributed"}, "transport": {"latency": 1.5}}',
                "TransportConfig: field 'latency' cannot hold 1.5",
            ),
            ('{"sensor": {"range_m": "5"}}', "SensorConfig: field 'range_m' cannot hold '5'"),
            ('{"sensor": {"range_m": 0}}', "SensorConfig: range_m must lie in (0, 10.0] m, got 0.0"),
            ('{"sensor": {"range_m": -1}}', "SensorConfig: range_m must lie in"),
            ('{"sensor": {"range_m": NaN}}', "SensorConfig: range_m must lie in"),
            ('{"sensor": {"range_m": 10.25}}', "SensorConfig: range_m must lie in"),
            ('{"sensor": {"fov_deg": 0}}', "SensorConfig: fov_deg must lie in"),
            ('{"sensor": {"fov_deg": 361}}', "SensorConfig: fov_deg must lie in"),
            ('{"rollout": {"r_succ": NaN}}', "RolloutConfig: r_succ must be positive and finite"),
            ('{"rollout": {"r_int": Infinity}}', "RolloutConfig: r_int must be positive and finite"),
            ('{"trigger": {"epsilon_hyst": Infinity}}', "TriggerConfig: epsilon_hyst must be"),
            ('{"trigger": {"rate": 3}}', "TriggerConfig: unknown field 'rate'"),
            ('{"sensor": [5]}', "config section 'sensor' must be an object"),
        ],
    )
    def test_bad_value_is_usage_error_naming_class_and_field(
        self, pipeline, tmp_path, capsys, text, named
    ):
        _, scenes, episodes = pipeline
        path = tmp_path / "cfg.json"
        path.write_text(text, encoding="utf-8")
        assert run_cmd(episodes, scenes, tmp_path / "out", "--config", str(path)) == EXIT_USAGE
        assert f"usage error: {named}" in capsys.readouterr().err

    def test_int_in_float_field_resolves_like_the_flag(self, tmp_path):
        # a config file's 1 and the flag's 1.0 are the same value, so they
        # must write the same manifest and trace header bytes
        path = tmp_path / "cfg.json"
        write_canonical(path, {"rollout": {"r_succ": 1}})
        from_file, _ = resolve_run_config(load_config_file(path), {}, {})
        from_flag, _ = resolve_run_config({}, {"r_succ": 1.0}, {})
        assert canonical_dumps(from_file.to_dict()) == canonical_dumps(from_flag.to_dict())
        assert '"r_succ":1.0' in canonical_dumps(from_file.to_dict())

    def test_config_env_var_is_read(self, pipeline, monkeypatch, tmp_path):
        root, scenes, episodes = pipeline
        path = tmp_path / "cfg.json"
        write_canonical(path, {"bogus": {}})
        monkeypatch.setenv("RELAYNAV_CONFIG", str(path))
        assert run_cmd(episodes, scenes, root / "env_run") == EXIT_USAGE


class TestRunFlags:
    @staticmethod
    def run_parser() -> argparse.ArgumentParser:
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        return sub.choices["run"]

    def test_each_section_dest_names_a_field_of_its_config(self):
        configs = {"rollout": RolloutConfig, "transport": TransportConfig}
        dests = [a.dest for a in self.run_parser()._actions if "." in a.dest]
        assert len(dests) == 12
        for dest in dests:
            section, name = dest.split(".")
            assert name in {f.name for f in dataclasses.fields(configs[section])}, dest

    def test_help_names_each_flag_field_and_choices(self, capsys):
        assert main(["run", "--help"]) == EXIT_OK
        out = capsys.readouterr().out
        for shown in ("--tau ROLLOUT.TAU", "--transport-seed TRANSPORT.SEED",
                      "--mode {lockstep,distributed}", "--policy {deconav,static}",
                      "--knowledge {known,discover}"):
            assert shown in out

    def test_flags_reach_their_config_fields(self, pipeline, tmp_path):
        _, scenes, episodes = pipeline
        out = tmp_path / "out"
        assert run_cmd(
            episodes, scenes, out, "--mode", "distributed", "--policy", "static",
            "--tau", "7", "--t-max", "90", "--r-succ", "1.5", "--r-int", "0.25",
            "--knowledge", "discover", "--latency", "2", "--jitter", "1",
            "--drop-prob", "0.5", "--transport-seed", "9",
        ) == EXIT_OK
        config = load_manifest(out).config
        assert {k: config["rollout"][k] for k in (
            "mode", "policy", "tau", "t_max", "r_succ", "r_int", "knowledge", "seed"
        )} == {
            "mode": "distributed", "policy": "static", "tau": 7, "t_max": 90,
            "r_succ": 1.5, "r_int": 0.25, "knowledge": "discover", "seed": 5,
        }
        assert config["transport"] == {"latency": 2, "jitter": 1, "drop_prob": 0.5, "seed": 9}


class TestExitCodes:
    def test_transport_flags_require_distributed(self, pipeline):
        root, scenes, episodes = pipeline
        assert run_cmd(episodes, scenes, root / "y", "--latency", "3") == EXIT_USAGE

    def test_lockstep_transport_section_is_usage_error(self, pipeline, tmp_path, capsys):
        root, scenes, episodes = pipeline
        cfg = tmp_path / "cfg.json"
        write_canonical(cfg, {"transport": {"latency": 5, "drop_prob": 0.5}})
        out = tmp_path / "out"
        assert run_cmd(episodes, scenes, out, "--config", str(cfg)) == EXIT_USAGE
        assert "config section 'transport' requires --mode distributed" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_count_is_usage_error(self, tmp_path):
        assert main(["gen-scenes", "--count", "-1", "--seed", "0", "--out", str(tmp_path)]) == EXIT_USAGE

    def test_argparse_rejection_maps_to_2(self, capsys):
        assert main(["no-such-command"]) == 2
        capsys.readouterr()

    def test_eval_without_manifest_is_runtime_error(self, tmp_path):
        assert main(["eval", "--results", str(tmp_path)]) == EXIT_RUNTIME

    @pytest.mark.parametrize("debug", [None, "1"])
    def test_debug_switch_prints_the_traceback_first(self, tmp_path, capsys, monkeypatch, debug):
        if debug is None:
            monkeypatch.delenv(DEBUG_ENV_VAR, raising=False)
        else:
            monkeypatch.setenv(DEBUG_ENV_VAR, debug)
        assert main(["eval", "--results", str(tmp_path)]) == EXIT_RUNTIME
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith("error: ")
        assert ("Traceback (most recent call last):" in err) == (debug == "1")

    def test_eval_names_a_missing_result_field(self, run_dirs, tmp_path, capsys):
        copy = tmp_path / "run"
        shutil.copytree(run_dirs[0], copy)
        rows = jsonl_rows(copy / "results.jsonl")
        del rows[0]["ticks"]
        write_jsonl(copy / "results.jsonl", rows)
        assert main(["eval", "--results", str(copy)]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert f"{copy / 'results.jsonl'}:1: RolloutResult: missing field 'ticks'" in err

    def test_eval_names_an_unknown_result_field(self, run_dirs, tmp_path, capsys):
        copy = tmp_path / "run"
        shutil.copytree(run_dirs[0], copy)
        rows = jsonl_rows(copy / "results.jsonl")
        rows[-1]["note"] = "edited"
        write_jsonl(copy / "results.jsonl", rows)
        assert main(["eval", "--results", str(copy)]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert f"{copy / 'results.jsonl'}:{len(rows)}: RolloutResult: unknown field 'note'" in err

    def test_run_names_an_unknown_episode_field(self, pipeline, tmp_path, capsys):
        _, scenes, episodes = pipeline
        rows = jsonl_rows(episodes)
        rows[-1]["difficulty"] = "hard"
        bad = tmp_path / "episodes.jsonl"
        write_jsonl(bad, rows)
        assert run_cmd(bad, scenes, tmp_path / "out") == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert f"{bad}:{len(rows)}: EpisodeSpec: unknown field 'difficulty'" in err

    @pytest.mark.parametrize("command", ["run", "eval", "stats"])
    def test_repeated_episode_is_refused_by_name(
        self, pipeline, run_dirs, tmp_path, capsys, command
    ):
        _, scenes, episodes = pipeline
        lines = episodes.read_text().splitlines(keepends=True)
        bad = tmp_path / "episodes.jsonl"
        bad.write_text("".join([*lines, lines[0]]))
        if command == "run":
            code = run_cmd(bad, scenes, tmp_path / "out", "--t-max", "10")
        elif command == "eval":
            copy = tmp_path / "run"
            shutil.copytree(run_dirs[0], copy)
            manifest = read_json(copy / "manifest.json")
            manifest["config"]["episodes"] = str(bad)
            write_canonical(copy / "manifest.json", manifest, indent=2)
            code = main(["eval", "--results", str(copy)])
        else:
            code = main(["stats", "--episodes", str(bad)])
        assert code == EXIT_RUNTIME
        eid = json.loads(lines[0])["episode_id"]
        assert f"{bad}:{len(lines) + 1}: episode_id {eid!r} repeats line 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_gen_episodes_names_a_scene_of_another_cell_size(self, pipeline, tmp_path, capsys):
        _, scenes, _ = pipeline
        copy = tmp_path / "scenes"
        shutil.copytree(scenes, copy)
        bad = sorted(p for p in copy.glob("*.json") if p.name != "manifest.json")[-1]
        data = read_json(bad)
        data["meta"]["resolution"] = 0.5
        write_canonical(bad, data, indent=2)
        out = tmp_path / "episodes.jsonl"
        code = main(
            ["gen-episodes", "--scenes", str(copy), "--per-scene", "2",
             "--seed", "11", "--out", str(out)]
        )
        assert code == EXIT_RUNTIME
        assert f"{bad}: resolution 0.5 m" in capsys.readouterr().err
        assert not out.exists()

    def test_all_rejections_exit_3(self, pipeline, monkeypatch):
        root, scenes, _ = pipeline

        def always_reject(scene, seed):
            return EpisodeRejection(scene.scene_id, seed, "no_route", {"no_route": 1})

        monkeypatch.setattr("relaynav.cli.generate_episode", always_reject)
        code = main(
            ["gen-episodes", "--scenes", str(scenes), "--per-scene", "1",
             "--seed", "1", "--out", str(root / "rejected.jsonl")]
        )
        assert code == EXIT_REJECTED


class TestAdjudication:
    @pytest.fixture(scope="class")
    def export(self, pipeline):
        """An export that leaves items to adjudicate: the default accuracies
        resolve every region of these scenes."""
        root, scenes, _ = pipeline
        out = root / "adjudication"
        assert main(
            ["adjudicate", "export", "--scenes", str(scenes), "--out", str(out),
             "--acc-a", "0.3", "--acc-b", "0.3"]
        ) == EXIT_OK
        return out

    @staticmethod
    def auto(pending, scenes, csv):
        return main(
            ["adjudicate", "auto", "--pending", str(pending), "--truth-scenes", str(scenes),
             "--out", str(csv)]
        )

    @pytest.mark.parametrize(
        "acc_a, acc_b, named",
        [("7", "-2", "'acc_a' (--acc-a)"), ("0.5", "-2", "'acc_b' (--acc-b)"),
         ("nan", "0.5", "'acc_a' (--acc-a)"), ("0.5", "1.0001", "'acc_b' (--acc-b)")],
    )
    def test_accuracy_outside_unit_interval_is_usage_error(
        self, pipeline, tmp_path, capsys, acc_a, acc_b, named
    ):
        _, scenes, _ = pipeline
        out = tmp_path / "export"
        code = main(["adjudicate", "export", "--scenes", str(scenes), "--out", str(out),
                     "--acc-a", acc_a, "--acc-b", acc_b])
        assert code == EXIT_USAGE
        assert f"field {named} must lie in [0, 1]" in capsys.readouterr().err
        assert not out.exists()

    def test_auto_and_import_read_the_export(self, pipeline, export, tmp_path, capsys):
        _, scenes, _ = pipeline
        csv = tmp_path / "resolved.csv"
        assert self.auto(export, scenes, csv) == EXIT_OK
        n = int(capsys.readouterr().out.split()[1])  # "auto-resolved <n> items into ..."
        assert n > 0
        final = tmp_path / "final"
        assert main(
            ["adjudicate", "import", "--pending", str(export), "--csv", str(csv),
             "--out", str(final)]
        ) == EXIT_OK
        assert load_manifest(final).command == "adjudicate-import"

    def test_auto_fills_only_the_resolved_label_column(self, pipeline, export, tmp_path):
        _, scenes, _ = pipeline
        csv = tmp_path / "resolved.csv"
        assert self.auto(export, scenes, csv) == EXIT_OK
        exported = (export / "adjudication.csv").read_bytes().split(b"\r\n")
        resolved = csv.read_bytes().split(b"\r\n")
        assert len(resolved) == len(exported) > 2  # a header, rows, and the final newline
        assert resolved[0] == exported[0] and resolved[-1] == exported[-1] == b""
        truth = {(s.scene_id, rid): r.gt_room_label
                 for s in map(load_scene, sorted(scenes.glob("s*.json")))
                 for rid, r in s.regions.items()}
        for before, after in zip(exported[1:-1], resolved[1:-1]):
            before, after = before.split(b","), after.split(b",")
            assert after[:-1] == before[:-1] and before[-1] == b""
            key = (after[0].decode(), after[1].decode())
            assert after[-1].decode() == truth[key]

    def test_auto_reads_no_csv(self, pipeline, export, tmp_path):
        _, scenes, _ = pipeline
        pending = tmp_path / "pending"
        shutil.copytree(export, pending)
        (pending / "adjudication.csv").unlink()
        assert self.auto(pending, scenes, tmp_path / "a.csv") == EXIT_OK
        assert self.auto(export, scenes, tmp_path / "b.csv") == EXIT_OK
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_auto_names_a_region_the_truth_scenes_lack(
        self, pipeline, export, tmp_path, capsys
    ):
        _, scenes, _ = pipeline
        pending = tmp_path / "pending"
        shutil.copytree(export, pending)
        items = read_json(pending / "pending.json")
        items.append({**items[0], "scene_id": "nosuchscene", "region_id": "r9"})
        write_canonical(pending / "pending.json", items, indent=2)
        assert self.auto(pending, scenes, tmp_path / "resolved.csv") == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{pending / 'pending.json'}: " in err
        assert "('nosuchscene', 'r9')" in err

    @staticmethod
    def import_(pending, csv, out):
        return main(
            ["adjudicate", "import", "--pending", str(pending), "--csv", str(csv),
             "--out", str(out)]
        )

    def test_import_names_an_empty_csv(self, export, tmp_path, capsys):
        csv = tmp_path / "resolved.csv"
        csv.write_text("", encoding="utf-8")
        assert self.import_(export, csv, tmp_path / "final") == EXIT_RUNTIME
        assert f"bad adjudication header in {csv}" in capsys.readouterr().err
        assert not (tmp_path / "final").exists()

    @pytest.mark.parametrize("row", ["s1", "  ", "s1,r1,,,,Kitchen,Kitchen"])
    def test_import_names_a_row_of_the_wrong_width(self, pipeline, export, tmp_path, capsys, row):
        """A row with more or fewer fields than the header is refused by line,
        even when every pending item is resolved elsewhere in the file."""
        _, scenes, _ = pipeline
        csv = tmp_path / "resolved.csv"
        assert self.auto(export, scenes, csv) == EXIT_OK
        lines = csv.read_text(encoding="utf-8").splitlines()
        csv.write_text("\r\n".join(lines + [row]) + "\r\n", encoding="utf-8")
        capsys.readouterr()
        assert self.import_(export, csv, tmp_path / "final") == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert f"{csv}:{len(lines) + 1}: a row needs 6 fields" in err
        assert not (tmp_path / "final").exists()

    def test_import_names_each_unresolved_region_with_its_scene(self, export, tmp_path, capsys):
        """Region ids repeat across scenes, so an unfilled row is named by
        its (scene_id, region_id) pair."""
        csv = export / "adjudication.csv"  # as exported: no resolved_label filled in
        assert self.import_(export, csv, tmp_path / "final") == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert f"unresolved regions in {csv}: " in err
        items = read_json(export / "pending.json")
        assert items
        for item in items:
            assert repr((item["scene_id"], item["region_id"])) in err

    @pytest.mark.parametrize(
        "text",
        [
            "[{",
            '{"scene_id": "s1"}',
            "[5]",
            '[{"scene_id": "s1", "region_id": "r1", "votes": []}]',
            '[{"scene_id": "s1", "region_id": "r1", "votes": '
            + "[" + ", ".join(
                '{"source": "%s", "label": "Unknown", "confidence": "high"}' % src
                for src in ("rule", "classifier_a", "classifier_b")
            ) + "]}]",
            '[{"scene_id": "s1", "region_id": "r1", "resolved_label": "Kitchen", "votes": []}]',
        ],
    )
    def test_malformed_pending_file_is_named(self, export, tmp_path, capsys, text):
        pending = tmp_path / "pending"
        shutil.copytree(export, pending)
        (pending / "pending.json").write_text(text, encoding="utf-8")
        code = main(
            ["adjudicate", "import", "--pending", str(pending),
             "--csv", str(pending / "adjudication.csv"), "--out", str(tmp_path / "out")]
        )
        assert code == EXIT_RUNTIME
        assert f"{pending / 'pending.json'}: " in capsys.readouterr().err


# Modules a set-up command must not load: the rollout engine and everything
# only run, eval, compare, adjudicate or the ablation need.
NOT_LOADED_BY_GEN = tuple(
    f"relaynav.{name}"
    for name in ("engine", "agent", "bus", "replan", "transport", "trace", "labeling",
                 "metrics", "ablation")
) + ("multiprocessing",)

COLD_START = """
import json, sys
from relaynav.cli import main
out = sys.argv[1]
loaded = {}
assert main(["gen-scenes", "--count", "1", "--seed", "3", "--out", out + "/scenes"]) == 0
loaded["gen-scenes"] = sorted(sys.modules)
assert main(["gen-episodes", "--scenes", out + "/scenes", "--per-scene", "1", "--seed", "3",
             "--out", out + "/episodes.jsonl"]) == 0
loaded["gen-episodes"] = sorted(sys.modules)
print(json.dumps(loaded))
"""

# the pipeline in a fresh interpreter where ``import numpy`` raises: gen-scenes
# and gen-episodes on the three scenes test_goldens.SCENE_GOLDENS pins (the
# sha256 of every file written), stats, a known lockstep run, a discover run
# distributed over a lossy link, the blockage suite scripts/run_ablation.py
# --out writes run with its overrides under both policies, eval, compare,
# adjudicate export/auto/import and the replay of a run manifest
NUMPY_BLOCKED_PIPELINE = """
import sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import hashlib, json, runpy
from pathlib import Path
from relaynav.cli import main
out, ablation_script = Path(sys.argv[1]), sys.argv[2]
scenes, episodes = str(out / "scenes"), str(out / "episodes.jsonl")
assert main(["gen-scenes", "--count", "3", "--seed", "7", "--out", scenes]) == 0
assert main(["gen-episodes", "--scenes", scenes, "--per-scene", "2", "--seed", "7",
             "--out", episodes]) == 0
files = [out / "episodes.jsonl", *sorted((out / "scenes").glob("s*.json"))]
digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
assert main(["stats", "--episodes", episodes]) == 0
assert main(["run", "--episodes", episodes, "--scenes", scenes, "--out", str(out / "known"),
             "--knowledge", "known"]) == 0
assert main(["run", "--episodes", episodes, "--scenes", scenes, "--out", str(out / "discover"),
             "--knowledge", "discover", "--t-max", "200", "--mode", "distributed",
             "--latency", "1", "--jitter", "1", "--drop-prob", "0.2"]) == 0
abl = out / "abl"
assert runpy.run_path(ablation_script)["main"](["--episodes", "1", "--seed", "0", "--out", str(abl)]) in (0, 1)
blocked, same = {}, {}
for policy in ("deconav", "static"):
    assert main(["run", "--episodes", str(abl / "episodes.jsonl"), "--scenes", str(abl / "scenes"),
                 "--out", str(out / policy), "--knowledge", "known", "--policy", policy,
                 "--overrides", str(abl / "overrides.json")]) == 0
    assert main(["eval", "--results", str(out / policy)]) == 0
    blocked[policy] = sum("PathBlocked" in t.read_text() for t in (out / policy).glob("trace_*.jsonl"))
    same[policy] = (out / policy / "results.jsonl").read_bytes() == (abl / f"results_{policy}.jsonl").read_bytes()
assert main(["compare", "--a", str(out / "static"), "--b", str(out / "deconav")]) == 0
export = str(out / "export")
assert main(["adjudicate", "export", "--scenes", scenes, "--out", export,
             "--acc-a", "0.3", "--acc-b", "0.3"]) == 0
assert main(["adjudicate", "auto", "--pending", export, "--truth-scenes", scenes,
             "--out", str(out / "resolved.csv")]) == 0
assert main(["adjudicate", "import", "--pending", export, "--csv", str(out / "resolved.csv"),
             "--out", str(out / "final")]) == 0
assert main(["replay", "--manifest", str(out / "known" / "manifest.json"), "--out", str(out / "replay")]) == 0
print(json.dumps({
    "digests": digests,
    "results": {run: len((out / run / "results.jsonl").read_text().splitlines())
                for run in ("known", "discover")},
    "traces": len(list((out / "discover").glob("trace_*.jsonl"))),
    "blocked": blocked,
    "same_as_suite": same,
    "numpy_still_blocked": sys.modules["numpy"] is None,
}))
"""
# the episodes file NUMPY_BLOCKED_PIPELINE writes: 4 episodes, 2 rejections
PIPELINE_EPISODES_SHA256 = "b9f80782cf66e5687a25898ea8c3ef37b981989333484eb8388ff52cbafc0f4b"

LAZY_PACKAGE = """
import json, sys
import relaynav
bare = sorted(m for m in sys.modules if m.startswith("relaynav."))
ablation = relaynav.ablation.__name__
try:
    relaynav.nope
    nope = None
except AttributeError as exc:
    nope = str(exc)
print(json.dumps({"bare": bare, "ablation": ablation, "nope": nope}))
"""


def _imports(node: ast.AST, scope: str | None = None):
    """``(function, node)`` for each import statement under ``node``: the
    name of the outermost function holding it, None at module level (an
    ``if TYPE_CHECKING:`` block included)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield scope, child
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _imports(child, scope or child.name)
        else:
            yield from _imports(child, scope)


def fresh_python(code: str, *args: str) -> dict:
    """The JSON a fresh interpreter prints after running ``code`` on ``src``."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestColdStart:
    def test_gen_commands_load_no_engine(self, tmp_path):
        loaded = fresh_python(COLD_START, str(tmp_path))
        for command in ("gen-scenes", "gen-episodes"):
            assert not set(NOT_LOADED_BY_GEN) & set(loaded[command]), command
        assert "relaynav.episodes" in loaded["gen-episodes"]

    def test_pipeline_runs_with_numpy_blocked(self, tmp_path):
        got = fresh_python(NUMPY_BLOCKED_PIPELINE, str(tmp_path), str(SCRIPTS / "run_ablation.py"))
        assert got["numpy_still_blocked"]
        assert got["digests"] == {
            "episodes.jsonl": PIPELINE_EPISODES_SHA256, **SCENE_GOLDENS["scenes"]
        }
        assert got["results"] == {"known": 4, "discover": 4}
        assert got["traces"] == 4
        # after the blockage a known belief differs from the truth at the
        # gate cells, and observe senses just those
        assert got["blocked"] == {"deconav": 1, "static": 1}
        assert got["same_as_suite"] == {"deconav": True, "static": True}

    def test_no_module_imports_numpy_at_module_level(self):
        importers = set()
        for path in sorted((SRC / "relaynav").glob("*.py")):
            for scope, node in _imports(ast.parse(path.read_text(encoding="utf-8"))):
                names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
                if any(name and name.split(".")[0] == "numpy" for name in names):
                    importers.add((path.stem, scope))
        assert importers == set()

    def test_package_imports_submodules_on_first_access(self):
        got = fresh_python(LAZY_PACKAGE)
        assert got["bare"] == []
        assert got["ablation"] == "relaynav.ablation"
        assert got["nope"] == "module 'relaynav' has no attribute 'nope'"
