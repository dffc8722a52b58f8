"""Relay episode sampling, verification, and dataset statistics.

An episode names a portable target object, three gated stops (pickup, handoff
at a fixture, delivery at a destination anchor), start poses for the two
robots, and ground-truth shortest routes. Waypoints are sampled per stop; a
gate failure resamples only the failing waypoint within its budget, then the
stop's room, and finally rejects the episode naming the failing stop.
"""

from __future__ import annotations

import math
import random
import statistics
from collections import Counter
from dataclasses import dataclass, field

from .config import EpisodeConfig
from .gates import GateReport, trigate_check
from .seeds import derive_seed
from .serialize import Record, RecordFormatError, numbered_jsonl, write_jsonl
from .world import (
    Cell,
    Geodesics,
    Pose,
    SceneGraph,
    SceneObject,
    TURN_DEG,
    UNKNOWN_LABEL,
    bfs_shortest_path,
    path_length_m,
)

FH = "FH"
SH = "SH"

STOPS = ("pickup", "handoff", "delivery")

INSTRUCTION_TEMPLATE = (
    "Take the {target} in the {pickup_room} to the {delivery_room}; "
    "hand off at the {handoff_room}."
)


class EpisodeGenerationError(ValueError):
    """Raised when a scene cannot support episode sampling at all."""


@dataclass(frozen=True)
class EpisodeSpec(Record):
    episode_id: str
    scene_id: str
    seed: int
    instruction: str
    target_object_id: str
    handoff_fixture_id: str
    delivery_anchor_id: str
    pickup_room: str
    handoff_room: str
    delivery_room: str
    pickup_waypoint: Pose
    handoff_waypoint: Pose
    delivery_waypoint: Pose
    start_pose_fh: Pose
    start_pose_sh: Pose
    gt_path_fh: tuple[Cell, ...]
    gt_path_sh: tuple[Cell, ...]
    gt_length_fh: float
    gt_length_sh: float
    subtasks_fh: tuple[str, ...]
    subtasks_sh: tuple[str, ...]
    gate_reports: dict = field(default_factory=dict)


@dataclass(frozen=True)
class EpisodeRejection:
    scene_id: str
    seed: int
    stop: str
    tallies: dict


def quantize_heading(deg: float) -> int:
    return int(round(deg / TURN_DEG)) % (360 // TURN_DEG) * TURN_DEG


def render_instruction(episode: EpisodeSpec, scene: SceneGraph | None = None) -> str:
    """Render the relay instruction from the episode's verified room labels."""
    target_category = (
        scene.objects[episode.target_object_id].category
        if scene is not None
        else episode.instruction.split(" in the ")[0].removeprefix("Take the ")
    )
    return _render(
        target_category, episode.pickup_room, episode.handoff_room, episode.delivery_room
    )


def _render(target_category: str, pickup: str, handoff: str, delivery: str) -> str:
    if UNKNOWN_LABEL in (pickup, handoff, delivery):
        raise ValueError("cannot render an instruction over Unknown room labels")
    return INSTRUCTION_TEMPLATE.format(
        target=target_category,
        pickup_room=pickup,
        delivery_room=delivery,
        handoff_room=handoff,
    )


def _sample_waypoint(
    scene: SceneGraph,
    rng: random.Random,
    anchor: SceneObject,
    expected_room: str,
    config: EpisodeConfig,
    tally: Counter,
) -> tuple[Pose, GateReport] | None:
    """Try up to ``waypoint_attempts`` cells around one anchor.

    Candidates are limited to the radius at which the anchor's salience and
    occlusion can still clear the recognizability threshold, so attempts are
    spent where a pass is possible at all; the gates still do the verifying.
    """
    region = scene.regions[anchor.region_id]
    res = scene.grid.resolution
    ax, ay = scene.grid.center(anchor.cell)
    reach = config.gate.max_range_m
    effective = anchor.salience * (1.0 - anchor.occlusion)
    if effective > 0:
        reach = min(reach, config.gate.max_range_m * (1.0 - config.gate.theta_rec / effective))
    candidates = [
        c
        for c in region.sorted_cells
        if math.hypot((c[0] + 0.5) * res - ax, (c[1] + 0.5) * res - ay) <= reach
    ]
    rng.shuffle(candidates)
    for cell in candidates[: config.waypoint_attempts]:
        tally["attempts"] += 1
        cx, cy = scene.grid.center(cell)
        if cell == anchor.cell:
            heading = rng.randrange(0, 360, TURN_DEG)
        else:
            heading = quantize_heading(math.degrees(math.atan2(ay - cy, ax - cx)))
        pose = Pose(cx, cy, heading)
        report = trigate_check(scene, pose, anchor, expected_room, config.gate)
        if report.passed:
            return pose, report
        if not report.visibility.passed:
            tally["visibility"] += 1
        if not report.room_consistency.passed:
            tally["room_consistency"] += 1
        if not report.recognizability.passed:
            tally["recognizability"] += 1
    return None


def _sample_stop(
    scene: SceneGraph,
    rng: random.Random,
    anchors: list[SceneObject],
    config: EpisodeConfig,
    tally: Counter,
) -> tuple[SceneObject, Pose, GateReport] | None:
    """Work through up to ``room_attempts`` anchor candidates for one stop."""
    for anchor in anchors[: config.room_attempts]:
        tally["rooms_tried"] += 1
        expected = scene.regions[anchor.region_id].room_label
        found = _sample_waypoint(scene, rng, anchor, expected, config, tally)
        if found is not None:
            pose, report = found
            return anchor, pose, report
    return None


def generate_episode(
    scene: SceneGraph, seed: int, config: EpisodeConfig | None = None
) -> EpisodeSpec | EpisodeRejection:
    """Sample one verified episode; deterministic in (scene, seed)."""
    config = config or EpisodeConfig()
    verified = [
        scene.regions[rid]
        for rid in sorted(scene.regions)
        if scene.regions[rid].room_label != UNKNOWN_LABEL
    ]
    if len(verified) < 3:
        raise EpisodeGenerationError("scene needs at least 3 verified-label regions")
    verified_ids = {r.region_id for r in verified}
    targets = [
        scene.objects[oid]
        for oid in sorted(scene.objects)
        if scene.objects[oid].category in config.target_categories
        and scene.objects[oid].region_id in verified_ids
    ]
    if not targets:
        raise EpisodeGenerationError("scene has no candidate target objects")

    rng = random.Random(derive_seed(seed, "episode", scene.scene_id))
    tallies: dict[str, Counter] = {stop: Counter() for stop in STOPS}

    rng.shuffle(targets)
    picked = _sample_stop(scene, rng, targets, config, tallies["pickup"])
    if picked is None:
        return EpisodeRejection(scene.scene_id, seed, "pickup", _tally_dict(tallies))
    target, pickup_wp, pickup_report = picked
    pickup_room_id = target.region_id

    fixtures = [
        scene.objects[oid]
        for oid in sorted(scene.objects)
        if scene.objects[oid].category in config.handoff_categories
        and scene.objects[oid].region_id in verified_ids
        and (not config.require_distinct_rooms or scene.objects[oid].region_id != pickup_room_id)
    ]
    rng.shuffle(fixtures)
    handed = _sample_stop(scene, rng, fixtures, config, tallies["handoff"])
    if handed is None:
        return EpisodeRejection(scene.scene_id, seed, "handoff", _tally_dict(tallies))
    fixture, handoff_wp, handoff_report = handed
    handoff_room_id = fixture.region_id

    exclude = {pickup_room_id, handoff_room_id} if config.require_distinct_rooms else set()
    delivery_anchors = [
        scene.objects[oid]
        for oid in sorted(scene.objects)
        if scene.objects[oid].region_id in verified_ids
        and scene.objects[oid].region_id not in exclude
        and scene.objects[oid].object_id != target.object_id
    ]
    rng.shuffle(delivery_anchors)
    delivered = _sample_stop(scene, rng, delivery_anchors, config, tallies["delivery"])
    if delivered is None:
        return EpisodeRejection(scene.scene_id, seed, "delivery", _tally_dict(tallies))
    dest, delivery_wp, delivery_report = delivered

    start_fh = _sample_start(scene, rng)
    start_sh = _sample_start(scene, rng)

    grid = scene.grid
    fh0, sh0, handoff, drop = (
        grid.cell_of(p.x, p.y) for p in (start_fh, start_sh, handoff_wp, delivery_wp)
    )
    # the four legs share one packed mask
    geo = Geodesics(~grid.blocked)
    leg1, leg2, leg3, leg4 = (
        bfs_shortest_path(geo.passable, a, b, geo)
        for a, b in ((fh0, target.cell), (target.cell, handoff), (sh0, handoff), (handoff, drop))
    )
    if any(leg is None for leg in (leg1, leg2, leg3, leg4)):
        return EpisodeRejection(scene.scene_id, seed, "routing", _tally_dict(tallies))
    gt_fh = tuple(leg1) + tuple(leg2[1:])
    gt_sh = tuple(leg3) + tuple(leg4[1:])

    pickup_room = scene.regions[pickup_room_id].room_label
    handoff_room = scene.regions[handoff_room_id].room_label
    delivery_room = scene.regions[dest.region_id].room_label

    return EpisodeSpec(
        episode_id=f"{scene.scene_id}-e{seed:06d}",
        scene_id=scene.scene_id,
        seed=seed,
        instruction=_render(target.category, pickup_room, handoff_room, delivery_room),
        target_object_id=target.object_id,
        handoff_fixture_id=fixture.object_id,
        delivery_anchor_id=dest.object_id,
        pickup_room=pickup_room,
        handoff_room=handoff_room,
        delivery_room=delivery_room,
        pickup_waypoint=pickup_wp,
        handoff_waypoint=handoff_wp,
        delivery_waypoint=delivery_wp,
        start_pose_fh=start_fh,
        start_pose_sh=start_sh,
        gt_path_fh=gt_fh,
        gt_path_sh=gt_sh,
        gt_length_fh=path_length_m(list(gt_fh), grid.resolution),
        gt_length_sh=path_length_m(list(gt_sh), grid.resolution),
        subtasks_fh=("GotoPickup", "PickUp", "GotoHandoff", "Deposit", "Stop"),
        subtasks_sh=("GotoHandoff", "Receive", "GotoDelivery", "Deliver", "Stop"),
        gate_reports={
            "pickup": pickup_report.to_dict(),
            "handoff": handoff_report.to_dict(),
            "delivery": delivery_report.to_dict(),
        },
    )


def _tally_dict(tallies: dict[str, Counter]) -> dict:
    return {stop: dict(tallies[stop]) for stop in STOPS}


def _sample_start(scene: SceneGraph, rng: random.Random) -> Pose:
    region_ids = sorted(scene.regions)
    rid = rng.choice(region_ids)
    cell = rng.choice(scene.regions[rid].sorted_cells)
    cx, cy = scene.grid.center(cell)
    return Pose(cx, cy, rng.randrange(0, 360, TURN_DEG))


def verify_episode(scene: SceneGraph, episode: EpisodeSpec, config: EpisodeConfig | None = None) -> dict[str, GateReport]:
    """Re-run the three gates on a stored episode's waypoints."""
    config = config or EpisodeConfig()
    target = scene.objects[episode.target_object_id]
    fixture = scene.objects[episode.handoff_fixture_id]
    dest = scene.objects[episode.delivery_anchor_id]
    return {
        "pickup": trigate_check(scene, episode.pickup_waypoint, target, episode.pickup_room, config.gate),
        "handoff": trigate_check(scene, episode.handoff_waypoint, fixture, episode.handoff_room, config.gate),
        "delivery": trigate_check(scene, episode.delivery_waypoint, dest, episode.delivery_room, config.gate),
    }


# --- dataset statistics ---------------------------------------------------

@dataclass(frozen=True)
class DatasetStats:
    task_count: int
    scene_count: int
    steps_mean: float
    steps_std: float
    path_mean_m: float
    path_std_m: float
    combined_mean_m: float
    combined_std_m: float

    def to_dict(self) -> dict:
        return {
            "task_count": self.task_count,
            "scene_count": self.scene_count,
            "steps_per_robot_mean": self.steps_mean,
            "steps_per_robot_std": self.steps_std,
            "path_per_robot_mean_m": self.path_mean_m,
            "path_per_robot_std_m": self.path_std_m,
            "combined_path_mean_m": self.combined_mean_m,
            "combined_path_std_m": self.combined_std_m,
        }


def dataset_stats(episodes: list[EpisodeSpec]) -> DatasetStats:
    """Per-robot step and path-length statistics (population std)."""
    if not episodes:
        raise ValueError("dataset_stats requires at least one episode")
    steps = []
    paths = []
    combined = []
    for ep in episodes:
        steps.extend([len(ep.gt_path_fh) - 1, len(ep.gt_path_sh) - 1])
        paths.extend([ep.gt_length_fh, ep.gt_length_sh])
        combined.append(ep.gt_length_fh + ep.gt_length_sh)
    return DatasetStats(
        task_count=len(episodes),
        scene_count=len({ep.scene_id for ep in episodes}),
        steps_mean=statistics.fmean(steps),
        steps_std=statistics.pstdev(steps),
        path_mean_m=statistics.fmean(paths),
        path_std_m=statistics.pstdev(paths),
        combined_mean_m=statistics.fmean(combined),
        combined_std_m=statistics.pstdev(combined),
    )


# --- JSONL persistence ----------------------------------------------------

def save_episodes(episodes: list[EpisodeSpec], path) -> None:
    write_jsonl(path, [ep.to_dict() for ep in episodes])


def load_episodes(path) -> list[EpisodeSpec]:
    """Episodes from a JSON-lines file; a malformed line raises
    RecordFormatError naming the file and the line."""
    episodes = []
    for lineno, data in numbered_jsonl(path):
        try:
            episodes.append(EpisodeSpec.from_dict(data))
        except RecordFormatError as exc:
            raise RecordFormatError(f"{path}:{lineno}: {exc}") from None
    return episodes
