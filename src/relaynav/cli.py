"""Command-line pipelines: generate, adjudicate, run, evaluate, compare.

Every artifact-producing subcommand resolves its full configuration up
front, fans all randomness out from one root seed by stable derivation, and
writes a manifest holding that resolved config (the command's record in
``JOBS``) plus content hashes of every input and output. ``replay``
re-executes any such manifest and verifies the regenerated bytes. The
scenes of a run may execute in parallel workers; results are written in
episode_id order, so the output bytes do not depend on scheduling. Each
``run`` flag that sets a config field has the dest ``"<section>.<field>"``
(``--tau`` sets ``rollout.tau``): ``--help`` shows it, and ``_dispatch``
reads the section and field from it.

Exit codes: 0 success; 2 usage error; 3 episode generation produced only
rejections; 4 runtime failure, reported in one line, with the traceback
printed before it when ``RELAYNAV_DEBUG=1`` is set.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from collections.abc import Iterable
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING

# Only what gen-scenes and gen-episodes run is imported here; every other
# command imports the modules it needs when it runs (see relaynav/__init__.py).
# The package imports nothing outside the standard library, numpy included.
from .config import (
    KNOWLEDGE,
    MODES,
    POLICIES,
    EpisodeOverride,
    RolloutConfig,
    SensorConfig,
    TransportConfig,
    TriggerConfig,
)
from .episodes import (
    EpisodeSpec,
    dataset_stats,
    generate_episode,
    load_episodes,
    save_episodes,
)
from .manifest import (
    MANIFEST_NAME,
    ManifestError,
    RunManifest,
    load_manifest,
    make_manifest,
    save_manifest,
)
from .scenegen import generate_scene
from .seeds import derive_seed
from .serialize import (
    Record, RecordFormatError, canonical_dumps, numbered_jsonl, read_json, write_canonical,
    write_jsonl,
)
from .world import SceneGraph, load_scene, save_scene

if TYPE_CHECKING:
    from .engine import RolloutResult
    from .labeling import AdjudicationItem
    from .trace import Trace

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_REJECTED = 3
EXIT_RUNTIME = 4

CONFIG_ENV_VAR = "RELAYNAV_CONFIG"
DEBUG_ENV_VAR = "RELAYNAV_DEBUG"
RESULTS_NAME = "results.jsonl"
REPORT_NAME = "report.json"
EPISODE_RESULTS_NAME = "episode_results.jsonl"
PENDING_NAME = "pending.json"
ADJUDICATION_CSV = "adjudication.csv"


class UsageError(ValueError):
    pass


class RejectionOnly(RuntimeError):
    pass


# --- config resolution ----------------------------------------------------


CONFIG_SECTIONS = frozenset({"rollout", "sensor", "trigger", "transport"})


def _check_sections(cfg: dict) -> None:
    unknown = set(cfg) - CONFIG_SECTIONS
    if unknown:
        raise UsageError(f"unknown config sections: {', '.join(sorted(unknown))}")
    for name, section in sorted(cfg.items()):
        if not isinstance(section, dict):
            raise UsageError(f"config section {name!r} must be an object, got {section!r}")


def load_config_file(path: str | Path) -> dict:
    data = read_json(path)
    if not isinstance(data, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    _check_sections(data)
    return data


def _build_section(cls, file_section: dict, overrides: dict):
    """``cls`` from a file section with the flags that are set on top; a
    field it lacks, a value the field cannot hold or one ``validate``
    refuses is a usage error naming the class."""
    merged = {**file_section, **{k: v for k, v in overrides.items() if v is not None}}
    try:
        cfg = cls.from_dict(merged)
        cfg.validate()
    except RecordFormatError as exc:  # already names the class
        raise UsageError(str(exc)) from None
    except ValueError as exc:
        raise UsageError(f"{cls.__name__}: {exc}") from None
    return cfg


def resolve_run_config(
    file_cfg: dict, rollout_overrides: dict, transport_overrides: dict
) -> tuple[RolloutConfig, TransportConfig | None]:
    _check_sections(file_cfg)
    rollout_file = file_cfg.get("rollout", {})
    nested = [f"rollout.{k}" for k in ("sensor", "trigger", "blockage_schedule") if k in rollout_file]
    if nested:
        raise UsageError(
            f"config keys not read: {', '.join(nested)} (sensor and trigger are "
            "top-level sections; blockages come per episode from --overrides)"
        )
    sensor = _build_section(SensorConfig, file_cfg.get("sensor", {}), {})
    trigger = _build_section(TriggerConfig, file_cfg.get("trigger", {}), {})
    rollout = _build_section(RolloutConfig, rollout_file, rollout_overrides)
    rollout = replace(rollout, sensor=sensor, trigger=trigger)
    transport: TransportConfig | None = None
    if rollout.mode == "distributed":
        transport = _build_section(
            TransportConfig, file_cfg.get("transport", {}), transport_overrides
        )
    elif any(v is not None for v in transport_overrides.values()):
        raise UsageError("transport flags require --mode distributed")
    elif "transport" in file_cfg:
        raise UsageError("config section 'transport' requires --mode distributed")
    return rollout, transport


# --- shared artifact helpers ----------------------------------------------


_NON_SCENE_FILES = frozenset({MANIFEST_NAME, PENDING_NAME, REPORT_NAME})


def _scene_files(scenes_dir: str | Path) -> list[Path]:
    base = Path(scenes_dir)
    if not base.is_dir():
        raise UsageError(f"scene directory {base} does not exist")
    return sorted(p for p in base.glob("*.json") if p.name not in _NON_SCENE_FILES)


def _load_scenes(scenes_dir: str | Path) -> list[SceneGraph]:
    return [load_scene(p) for p in _scene_files(scenes_dir)]


def save_scenes(scenes: Iterable[SceneGraph], out: Path) -> dict[str, Path]:
    """Write each scene to ``out/<scene_id>.json``; returns the files by name."""
    outputs: dict[str, Path] = {}
    for scene in scenes:
        path = out / f"{scene.scene_id}.json"
        save_scene(scene, path)
        outputs[path.name] = path
    return outputs


def _out_dir(path: str | Path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


# --- gen-scenes -----------------------------------------------------------


@dataclass(frozen=True)
class GenScenesJob(Record):
    """The config a gen-scenes manifest records."""

    count: int

    def __post_init__(self) -> None:
        if self.count < 0:
            raise UsageError(f"field 'count' must be non-negative, got {self.count}")

    def rerun(self, manifest: RunManifest, out_dir: str | Path) -> RunManifest:
        return do_gen_scenes(self.count, manifest.seed, out_dir)


def do_gen_scenes(count: int, seed: int, out_dir: str | Path) -> RunManifest:
    job = GenScenesJob(count)
    out = _out_dir(out_dir)
    scenes = (generate_scene(derive_seed(seed, "scene", i)) for i in range(count))
    outputs = save_scenes(scenes, out)
    manifest = make_manifest("gen-scenes", seed, job.to_dict(), output_files=outputs)
    save_manifest(manifest, out)
    return manifest


# --- gen-episodes ---------------------------------------------------------


def rejects_path_for(out_file: str | Path) -> Path:
    out = Path(out_file)
    return out.with_name(out.name + ".rejects.jsonl")


def manifest_path_for(out_file: str | Path) -> Path:
    out = Path(out_file)
    return out.with_name(out.name + ".manifest.json")


@dataclass(frozen=True)
class GenEpisodesJob(Record):
    """The config a gen-episodes manifest records."""

    per_scene: int
    scenes_dir: str

    def __post_init__(self) -> None:
        if self.per_scene < 0:
            raise UsageError(f"field 'per_scene' must be non-negative, got {self.per_scene}")

    def rerun(self, manifest: RunManifest, out_dir: str | Path) -> RunManifest:
        out_names = [n for n in manifest.outputs if not n.endswith(".rejects.jsonl")]
        if len(out_names) != 1:
            raise RuntimeError("gen-episodes manifest must list one episode file")
        target = _out_dir(out_dir) / out_names[0]
        return do_gen_episodes(self.scenes_dir, self.per_scene, manifest.seed, target)[0]


def do_gen_episodes(
    scenes_dir: str | Path, per_scene: int, seed: int, out_file: str | Path
) -> tuple[RunManifest, int, int]:
    job = GenEpisodesJob(per_scene, str(scenes_dir))
    scene_paths = _scene_files(scenes_dir)
    out = Path(out_file)
    out.parent.mkdir(parents=True, exist_ok=True)
    episodes: list[EpisodeSpec] = []
    rejects: list[dict] = []
    for path in scene_paths:
        scene = load_scene(path)
        for k in range(per_scene):
            drawn = generate_episode(scene, derive_seed(seed, "episode", scene.scene_id, k))
            if isinstance(drawn, EpisodeSpec):
                episodes.append(drawn)
            else:
                rejects.append(drawn.to_dict())
    save_episodes(episodes, out)
    rej_path = rejects_path_for(out)
    write_jsonl(rej_path, rejects)
    manifest = make_manifest(
        "gen-episodes",
        seed,
        job.to_dict(),
        inputs={p.name: p for p in scene_paths},
        output_files={out.name: out, rej_path.name: rej_path},
    )
    save_manifest(manifest, manifest_path_for(out))
    if rejects and not episodes:
        raise RejectionOnly(
            f"all {len(rejects)} sampled episodes were rejected; see {rej_path}"
        )
    return manifest, len(episodes), len(rejects)


# --- adjudication ---------------------------------------------------------


@dataclass(frozen=True)
class AdjudicateExportJob(Record):
    """The config an adjudicate-export manifest records."""

    scenes_dir: str
    acc_a: float
    acc_b: float

    def __post_init__(self) -> None:
        for name in ("acc_a", "acc_b"):
            acc = getattr(self, name)
            if not 0.0 <= acc <= 1.0:  # NaN fails this too
                flag = "--" + name.replace("_", "-")
                raise UsageError(f"field {name!r} ({flag}) must lie in [0, 1], got {acc}")

    def rerun(self, manifest: RunManifest, out_dir: str | Path) -> RunManifest:
        return do_adjudicate_export(
            self.scenes_dir, out_dir, manifest.seed, self.acc_a, self.acc_b
        )[0]


def do_adjudicate_export(
    scenes_dir: str | Path,
    out_dir: str | Path,
    seed: int,
    acc_a: float,
    acc_b: float,
) -> tuple[RunManifest, int]:
    from .labeling import (
        SeededNoisyClassifier, export_adjudication, run_labeling, scene_truth_lookup
    )

    job = AdjudicateExportJob(str(scenes_dir), acc_a, acc_b)
    scenes = _load_scenes(scenes_dir)
    truth = scene_truth_lookup(scenes)
    client_a = SeededNoisyClassifier("classifier_a", acc_a, derive_seed(seed, "a"), truth)
    client_b = SeededNoisyClassifier("classifier_b", acc_b, derive_seed(seed, "b"), truth)
    out = _out_dir(out_dir)
    labeled = [run_labeling(scene, client_a, client_b) for scene in scenes]
    outputs = save_scenes((result.scene for result in labeled), out)
    pending = [item for result in labeled for item in result.items]
    csv_path = out / ADJUDICATION_CSV
    export_adjudication(pending, csv_path)
    pending_path = out / PENDING_NAME
    write_canonical(
        pending_path,
        [item.to_dict() for item in sorted(pending, key=lambda i: (i.scene_id, i.region_id))],
        indent=2,
    )
    outputs[ADJUDICATION_CSV] = csv_path
    outputs[PENDING_NAME] = pending_path
    manifest = make_manifest(
        "adjudicate-export",
        seed,
        job.to_dict(),
        inputs={p.name: p for p in _scene_files(scenes_dir)},
        output_files=outputs,
    )
    save_manifest(manifest, out)
    return manifest, len(pending)


def _load_pending(pending_dir: str | Path) -> list[AdjudicationItem]:
    from .labeling import AdjudicationItem

    path = Path(pending_dir) / PENDING_NAME
    if not path.exists():
        raise UsageError(f"{path} not found; run adjudicate export first")
    items = read_json(path)
    if not isinstance(items, list):
        raise RecordFormatError(f"{path}: expected a list of adjudication items")
    try:
        return [AdjudicationItem.from_dict(item) for item in items]
    except RecordFormatError as exc:
        raise RecordFormatError(f"{path}: {exc}") from None


def do_adjudicate_auto(
    pending_dir: str | Path, truth_scenes_dir: str | Path, out_csv: str | Path
) -> int:
    """Resolve every pending item from generator ground truth (oracle
    annotator). Reads only ``pending.json``, not the exported CSV, and writes
    the export's rows with each resolved_label filled in."""
    from .labeling import export_adjudication, scene_truth_lookup

    pending = _load_pending(pending_dir)
    truth = scene_truth_lookup(_load_scenes(truth_scenes_dir))
    try:
        resolved = {(i.scene_id, i.region_id): truth(i.scene_id, i.region_id) for i in pending}
    except KeyError as exc:  # the lookup's key: (scene_id, region_id)
        raise UsageError(
            f"{Path(pending_dir) / PENDING_NAME}: no truth scene has region {exc.args[0]!r}"
        ) from None
    out = Path(out_csv)
    out.parent.mkdir(parents=True, exist_ok=True)
    export_adjudication(pending, out, resolved)
    return len(pending)


@dataclass(frozen=True)
class AdjudicateImportJob(Record):
    """The config an adjudicate-import manifest records."""

    pending_dir: str
    csv: str

    def rerun(self, manifest: RunManifest, out_dir: str | Path) -> RunManifest:
        return do_adjudicate_import(self.pending_dir, self.csv, out_dir)[0]


def do_adjudicate_import(
    pending_dir: str | Path, csv_path: str | Path, out_dir: str | Path
) -> tuple[RunManifest, int]:
    from .labeling import apply_adjudication, import_adjudication

    pending = _load_pending(pending_dir)
    resolutions = import_adjudication(csv_path, pending)
    out = _out_dir(out_dir)
    scenes = (apply_adjudication(scene, resolutions) for scene in _load_scenes(pending_dir))
    outputs = save_scenes(scenes, out)
    manifest = make_manifest(
        "adjudicate-import",
        0,
        AdjudicateImportJob(str(pending_dir), str(csv_path)).to_dict(),
        inputs={Path(csv_path).name: csv_path},
        output_files=outputs,
    )
    save_manifest(manifest, out)
    return manifest, len(resolutions)


def do_adjudicate_stats(scenes_dir: str | Path) -> dict:
    from .labeling import label_quality

    return label_quality(_load_scenes(scenes_dir))


# --- run ------------------------------------------------------------------


def _load_overrides(path: str | Path | None) -> dict:
    if path is None:
        return {}
    data = read_json(path)
    if not isinstance(data, dict):
        raise UsageError(f"overrides file {path} must map episode_id to settings")
    out = {}
    for eid, rec in data.items():
        try:
            override = EpisodeOverride.from_dict(rec)
        except RecordFormatError as exc:
            raise UsageError(f"overrides file {path}, episode {eid}: {exc}") from None
        # the RolloutConfig fields the record replaces
        out[eid] = {"blockage_schedule": override.blockages}
        if override.t_max is not None:
            out[eid]["t_max"] = override.t_max
    return out


def rollout_episode(
    scene: SceneGraph,
    episode: EpisodeSpec,
    rollout: RolloutConfig,
    transport: TransportConfig | None,
) -> tuple[RolloutResult, Trace]:
    from .engine import run_distributed

    transport = transport or TransportConfig()
    per_ep = replace(transport, seed=derive_seed(transport.seed, "transport", episode.episode_id))
    return run_distributed(scene, episode, rollout, per_ep)


def _trace_path(out: Path, episode_id: str) -> Path:
    return out / f"trace_{episode_id}.jsonl"


def _run_scene(task: tuple) -> list[tuple[str, dict]]:
    """``(scene_path, [(episode, config), ...], transport, out_dir)`` -> one
    ``(episode_id, result dict)`` row per episode, each trace written as its rollout ends."""
    scene_path, runs, transport, out = task
    scene = load_scene(scene_path)
    rows = []
    for ep, cfg in runs:
        result, trace = rollout_episode(scene, ep, cfg, transport)
        _trace_path(out, ep.episode_id).write_bytes(trace.to_bytes())
        rows.append((ep.episode_id, result.to_dict()))
        del result, trace  # no trace outlives its write
    return rows


@dataclass(frozen=True)
class RunJob(Record):
    """The config a run manifest records."""

    rollout: RolloutConfig
    transport: TransportConfig | None
    episodes: str
    scenes_dir: str
    overrides: str | None

    def rerun(self, manifest: RunManifest, out_dir: str | Path) -> RunManifest:
        return do_run(
            self.episodes, self.scenes_dir, out_dir, self.rollout, self.transport, self.overrides
        )


def do_run(
    episodes_path: str | Path,
    scenes_dir: str | Path,
    out_dir: str | Path,
    rollout: RolloutConfig,
    transport: TransportConfig | None,
    overrides_path: str | Path | None = None,
    jobs: int = 1,
) -> RunManifest:
    """Roll out every episode, writing one trace file each, ``results.jsonl``
    in episode_id order and the manifest.

    A task is one scene's episodes: it loads the scene once and writes each
    trace as soon as its rollout ends, so a process holds one scene and one
    trace at a time, and this one keeps only result rows. With ``jobs`` > 1
    the tasks run in a pool of at most ``jobs`` workers, and never more than
    there are scenes; otherwise they run here, one after another.
    """
    episodes = load_episodes(episodes_path)
    overrides = _load_overrides(overrides_path)
    unknown = sorted(set(overrides) - {ep.episode_id for ep in episodes})
    if unknown:
        raise UsageError(f"overrides reference unknown episodes: {', '.join(unknown)}")
    scene_paths = {p.stem: p for p in _scene_files(scenes_dir)}
    missing = sorted({ep.scene_id for ep in episodes} - set(scene_paths))
    if missing:
        raise RuntimeError(f"scenes missing from {scenes_dir}: {', '.join(missing)}")
    # each episode's config is resolved here, once, and grouped by scene
    runs_of: dict[str, list[tuple[EpisodeSpec, RolloutConfig]]] = {}
    for ep in sorted(episodes, key=lambda ep: ep.episode_id):
        cfg = replace(rollout, **overrides.get(ep.episode_id, {}))
        runs_of.setdefault(ep.scene_id, []).append((ep, cfg))
    for sid, runs in runs_of.items():
        checked = [(ep, cfg) for ep, cfg in runs if ep.episode_id in overrides]
        corridors = load_scene(scene_paths[sid]).corridors if checked else {}  # scene not kept
        for ep, cfg in checked:
            where = f"overrides file {overrides_path}, episode {ep.episode_id}"
            bad = sorted({cid for _, cid in cfg.blockage_schedule if cid not in corridors})
            if bad:
                raise UsageError(f"{where}: unknown corridors {', '.join(bad)} in scene {sid}")
            try:
                cfg.validate()  # a blockage at or past t_max would never fire
            except ValueError as exc:
                raise UsageError(f"{where}: {exc}") from None

    out = _out_dir(out_dir)
    tasks = [(scene_paths[sid], runs, transport, out) for sid, runs in runs_of.items()]
    workers = min(jobs, len(tasks))
    if workers > 1:
        from multiprocessing import Pool

        with Pool(workers) as pool:
            results = dict(row for rows in pool.imap_unordered(_run_scene, tasks) for row in rows)
    else:
        results = dict(row for task in tasks for row in _run_scene(task))

    outputs = {_trace_path(out, eid).name: _trace_path(out, eid) for eid in results}
    results_path = out / RESULTS_NAME
    write_jsonl(results_path, [results[eid] for eid in sorted(results)])
    outputs[RESULTS_NAME] = results_path

    inputs = {Path(episodes_path).name: episodes_path}
    for sid in sorted(runs_of):
        inputs[scene_paths[sid].name] = scene_paths[sid]
    if overrides_path is not None:
        inputs[Path(overrides_path).name] = overrides_path
    manifest = make_manifest(
        "run",
        rollout.seed,
        RunJob(
            rollout, transport, str(episodes_path), str(scenes_dir),
            str(overrides_path) if overrides_path else None,
        ).to_dict(),
        inputs=inputs,
        output_files=outputs,
    )
    save_manifest(manifest, out)
    return manifest


# --- eval / compare / stats -----------------------------------------------


def eval_results_dir(results_dir: str | Path):
    from .engine import RolloutResult
    from .metrics import aggregate, score_episode

    base = Path(results_dir)
    manifest = load_manifest(base)
    if manifest.command != "run":
        raise RuntimeError(f"{base} holds a {manifest.command} manifest, not a run")
    episodes_path = manifest.config["episodes"]
    if not Path(episodes_path).exists():
        raise RuntimeError(f"episodes file {episodes_path} referenced by manifest is gone")
    episodes = {ep.episode_id: ep for ep in load_episodes(episodes_path)}
    results_path = base / RESULTS_NAME
    scored = []
    for lineno, row in numbered_jsonl(results_path):
        try:
            result = RolloutResult.from_dict(row)
        except RecordFormatError as exc:
            raise RecordFormatError(f"{results_path}:{lineno}: {exc}") from None
        episode = episodes.get(result.episode_id)
        if episode is None:
            raise RuntimeError(f"result {result.episode_id} missing from episodes file")
        scored.append(score_episode(result, episode))
    report = aggregate(scored)
    return report, scored


def do_eval(results_dir: str | Path):
    base = Path(results_dir)
    report, scored = eval_results_dir(base)
    write_canonical(base / REPORT_NAME, report.to_dict(), indent=2)
    write_jsonl(base / EPISODE_RESULTS_NAME, [er.to_dict() for er in scored])
    return report


def do_compare(dir_a: str | Path, dir_b: str | Path, out_file: str | Path | None):
    from .metrics import compare

    report_a, _ = eval_results_dir(dir_a)
    report_b, _ = eval_results_dir(dir_b)
    delta = compare(report_a, report_b)
    if out_file is not None:
        Path(out_file).parent.mkdir(parents=True, exist_ok=True)
        write_canonical(out_file, delta, indent=2)
    return delta


# --- replay ---------------------------------------------------------------


# each replayable command's manifest config
JOBS: dict[str, type] = {
    "gen-scenes": GenScenesJob,
    "gen-episodes": GenEpisodesJob,
    "run": RunJob,
    "adjudicate-export": AdjudicateExportJob,
    "adjudicate-import": AdjudicateImportJob,
}


def do_replay(manifest_path: str | Path, out_dir: str | Path) -> RunManifest:
    manifest = load_manifest(manifest_path)
    job_cls = JOBS.get(manifest.command)
    if job_cls is None:
        raise RuntimeError(f"manifest command {manifest.command!r} is not replayable")
    try:
        job = job_cls.from_dict(manifest.config)
    except RecordFormatError as exc:  # already names the class and the field
        raise ManifestError(f"{manifest_path}: config: {exc}") from None
    for key, value in vars(job).items():
        try:
            if hasattr(value, "validate"):
                value.validate()
        except ValueError as exc:
            raise ManifestError(
                f"{manifest_path}: config: {job_cls.__name__}: field {key!r}: {exc}"
            ) from None
    redone = job.rerun(manifest, out_dir)

    mismatched = [
        name
        for name, rec in sorted(manifest.outputs.items())
        if redone.outputs.get(name, {}).get("sha256") != rec["sha256"]
    ]
    extra = sorted(set(redone.outputs) - set(manifest.outputs))
    if mismatched or extra:
        raise RuntimeError(
            "replay diverged — mismatched: "
            f"{', '.join(mismatched) or 'none'}; unexpected: {', '.join(extra) or 'none'}"
        )
    return redone


# --- argument parsing -----------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relaynav",
        description="Dual-robot relay navigation benchmark pipelines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-scenes", help="generate procedural scenes")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("gen-episodes", help="sample verified relay episodes")
    p.add_argument("--scenes", required=True)
    p.add_argument("--per-scene", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("adjudicate", help="room-label adjudication pipeline")
    adj = p.add_subparsers(dest="adj_command", required=True)
    pe = adj.add_parser("export", help="relabel scenes, export unresolved items")
    pe.add_argument("--scenes", required=True)
    pe.add_argument("--out", required=True)
    pe.add_argument("--seed", type=int, default=0)
    pe.add_argument("--acc-a", type=float, default=0.9)
    pe.add_argument("--acc-b", type=float, default=0.85)
    pa = adj.add_parser(
        "auto", help="fill resolutions from generator truth; reads only pending.json"
    )
    pa.add_argument("--pending", required=True)
    pa.add_argument("--truth-scenes", required=True)
    pa.add_argument("--out", required=True)
    pi = adj.add_parser("import", help="apply resolved labels, write final scenes")
    pi.add_argument("--pending", required=True)
    pi.add_argument("--csv", required=True)
    pi.add_argument("--out", required=True)
    ps = adj.add_parser("stats", help="coverage/correctness vs generator truth")
    ps.add_argument("--scenes", required=True)

    p = sub.add_parser("run", help="roll out episodes, write traces + results")
    p.add_argument("--episodes", required=True)
    p.add_argument("--scenes", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", dest="rollout.mode", choices=MODES)
    p.add_argument("--policy", dest="rollout.policy", choices=POLICIES)
    p.add_argument("--tau", dest="rollout.tau", type=int)
    p.add_argument("--t-max", dest="rollout.t_max", type=int)
    p.add_argument("--r-succ", dest="rollout.r_succ", type=float)
    p.add_argument("--r-int", dest="rollout.r_int", type=float)
    p.add_argument("--knowledge", dest="rollout.knowledge", choices=KNOWLEDGE)
    p.add_argument("--seed", dest="rollout.seed", type=int,
                   help="labels the run: written as the manifest seed and in every trace "
                        "header; no rollout draws from it")
    p.add_argument("--latency", dest="transport.latency", type=int)
    p.add_argument("--jitter", dest="transport.jitter", type=int)
    p.add_argument("--drop-prob", dest="transport.drop_prob", type=float)
    p.add_argument("--transport-seed", dest="transport.seed", type=int)
    p.add_argument("--overrides", default=None,
                   help="JSON: episode_id -> {blockages: [[tick, corridor]...], t_max}")
    p.add_argument("--config", default=None,
                   help=f"JSON config file (or set ${CONFIG_ENV_VAR})")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (at most one per scene); a task is one scene's "
                        "episodes, and each process holds one scene and one trace at a time")

    p = sub.add_parser("eval", help="score a run directory")
    p.add_argument("--results", required=True)

    p = sub.add_parser("compare", help="A/B delta between two run directories")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("stats", help="dataset statistics for an episode file")
    p.add_argument("--episodes", required=True)

    p = sub.add_parser("replay", help="re-execute a manifest and verify bytes")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)

    return parser


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "gen-scenes":
        manifest = do_gen_scenes(args.count, args.seed, args.out)
        print(f"wrote {len(manifest.outputs)} scenes to {args.out}")
        return EXIT_OK

    if args.command == "gen-episodes":
        manifest, n_ok, n_rej = do_gen_episodes(
            args.scenes, args.per_scene, args.seed, args.out
        )
        print(f"wrote {n_ok} episodes ({n_rej} rejected) to {args.out}")
        return EXIT_OK

    if args.command == "adjudicate":
        if args.adj_command == "export":
            _, n = do_adjudicate_export(
                args.scenes, args.out, args.seed, args.acc_a, args.acc_b
            )
            print(f"exported {n} unresolved items to {args.out}")
        elif args.adj_command == "auto":
            n = do_adjudicate_auto(args.pending, args.truth_scenes, args.out)
            print(f"auto-resolved {n} items into {args.out}")
        elif args.adj_command == "import":
            _, n = do_adjudicate_import(args.pending, args.csv, args.out)
            print(f"applied {n} resolutions; final scenes in {args.out}")
        else:
            stats = do_adjudicate_stats(args.scenes)
            print(canonical_dumps(stats, indent=2))
        return EXIT_OK

    if args.command == "run":
        config_path = args.config or os.environ.get(CONFIG_ENV_VAR)
        file_cfg = load_config_file(config_path) if config_path else {}
        flags: dict[str, dict] = {"rollout": {}, "transport": {}}
        for dest, value in vars(args).items():
            section, _, name = dest.partition(".")
            if name:
                flags[section][name] = value
        rollout, transport = resolve_run_config(file_cfg, flags["rollout"], flags["transport"])
        if args.jobs < 1:
            raise UsageError("--jobs must be at least 1")
        manifest = do_run(
            args.episodes, args.scenes, args.out, rollout, transport,
            overrides_path=args.overrides, jobs=args.jobs,
        )
        n_traces = sum(1 for n in manifest.outputs if n.startswith("trace_"))
        print(f"ran {n_traces} episodes into {args.out}")
        return EXIT_OK

    if args.command == "eval":
        from .metrics import format_report

        report = do_eval(args.results)
        print(format_report(report))
        return EXIT_OK

    if args.command == "compare":
        from .metrics import format_compare

        delta = do_compare(args.a, args.b, args.out)
        print(format_compare(delta))
        if args.out is None:
            print(canonical_dumps(delta, indent=2))
        return EXIT_OK

    if args.command == "stats":
        stats = dataset_stats(load_episodes(args.episodes))
        print(canonical_dumps(stats.to_dict(), indent=2))
        return EXIT_OK

    if args.command == "replay":
        do_replay(args.manifest, args.out)
        print(f"replay verified against {args.manifest}")
        return EXIT_OK

    raise UsageError(f"unknown command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage
        return int(exc.code or 0)
    try:
        return _dispatch(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RejectionOnly as exc:
        print(f"no episodes generated: {exc}", file=sys.stderr)
        return EXIT_REJECTED
    except Exception as exc:  # pragma: no cover - defensive catch-all
        if os.environ.get(DEBUG_ENV_VAR) == "1":
            traceback.print_exc()
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
