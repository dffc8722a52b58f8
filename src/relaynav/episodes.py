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
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field

from .gates import GATE_RANGE_M, THETA_REC, GateReport, trigate_check
from .scenegen import PORTABLE_CATEGORIES
from .seeds import derive_seed
from .serialize import Record, RecordFormatError, numbered_jsonl, write_jsonl
from .tasks import FH_CHAIN, SH_CHAIN
from .world import (
    Cell,
    FORWARD_M,
    Pose,
    Region,
    SceneGraph,
    SceneObject,
    TURN_DEG,
    UNKNOWN_LABEL,
    bfs_shortest_path,
    center,
    descend,
    path_length_m,
)

FH = "FH"
SH = "SH"

STOPS = ("pickup", "handoff", "delivery")
# a stop tries up to ROOM_ATTEMPTS anchors, and up to WAYPOINT_ATTEMPTS cells
# around each; the three stops lie in three different rooms
WAYPOINT_ATTEMPTS = 16
ROOM_ATTEMPTS = 4
HANDOFF_CATEGORIES = ("shelf",)

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
class EpisodeRejection(Record):
    scene_id: str
    seed: int
    stop: str
    tallies: dict


def quantize_heading(deg: float) -> int:
    return int(round(deg / TURN_DEG)) % (360 // TURN_DEG) * TURN_DEG


def cells_within(region: Region, at: tuple[float, float], reach: float) -> list[Cell]:
    """The region's cells, in ``(x, y)`` order, whose centres lie within
    ``reach`` metres of the point ``at``."""
    ax, ay = at
    cells = region.cells
    # only the columns whose centres lie within reach of ax, plus a cell of
    # margin, can hold such a cell; the sorted cells hold each column in one run
    lo = bisect_left(cells, (math.floor((ax - reach) / FORWARD_M) - 1,))
    hi = bisect_left(cells, (math.ceil((ax + reach) / FORWARD_M) + 1,), lo)
    # math.hypot decides every cell, the boundary ones included: the sampled
    # candidates, and so the episodes, depend on its last ulp
    return [
        (x, y) for x, y in cells[lo:hi]
        if math.hypot((x + 0.5) * FORWARD_M - ax, (y + 0.5) * FORWARD_M - ay) <= reach
    ]


def _sample_waypoint(
    scene: SceneGraph,
    rng: random.Random,
    anchor: SceneObject,
    expected_room: str,
    tally: Counter,
) -> tuple[Pose, GateReport] | None:
    """Try up to ``WAYPOINT_ATTEMPTS`` cells around one anchor.

    Candidates are limited to the radius at which the anchor's salience and
    occlusion can still clear the recognizability threshold, so attempts are
    spent where a pass is possible at all; the gates still do the verifying.
    """
    region = scene.regions[anchor.region_id]
    ax, ay = center(anchor.cell)
    reach = GATE_RANGE_M
    effective = anchor.salience * (1.0 - anchor.occlusion)
    if effective > 0:
        reach = min(reach, GATE_RANGE_M * (1.0 - THETA_REC / effective))
    candidates = cells_within(region, (ax, ay), reach)
    rng.shuffle(candidates)
    for cell in candidates[:WAYPOINT_ATTEMPTS]:
        tally["attempts"] += 1
        cx, cy = center(cell)
        if cell == anchor.cell:
            heading = rng.randrange(0, 360, TURN_DEG)
        else:
            heading = quantize_heading(math.degrees(math.atan2(ay - cy, ax - cx)))
        pose = Pose(cx, cy, heading)
        report = trigate_check(scene, pose, anchor, expected_room)
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
    tally: Counter,
) -> tuple[SceneObject, Pose, GateReport] | None:
    """Work through up to ``ROOM_ATTEMPTS`` anchor candidates for one stop."""
    for anchor in anchors[:ROOM_ATTEMPTS]:
        tally["rooms_tried"] += 1
        expected = scene.regions[anchor.region_id].room_label
        found = _sample_waypoint(scene, rng, anchor, expected, tally)
        if found is not None:
            pose, report = found
            return anchor, pose, report
    return None


def generate_episode(scene: SceneGraph, seed: int) -> EpisodeSpec | EpisodeRejection:
    """Sample one verified episode; deterministic in (scene, seed)."""
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
        if scene.objects[oid].category in PORTABLE_CATEGORIES
        and scene.objects[oid].region_id in verified_ids
    ]
    if not targets:
        raise EpisodeGenerationError("scene has no candidate target objects")

    rng = random.Random(derive_seed(seed, "episode", scene.scene_id))
    tallies: dict[str, Counter] = {stop: Counter() for stop in STOPS}

    rng.shuffle(targets)
    picked = _sample_stop(scene, rng, targets, tallies["pickup"])
    if picked is None:
        return EpisodeRejection(scene.scene_id, seed, "pickup", _tally_dict(tallies))
    target, pickup_wp, pickup_report = picked
    pickup_room_id = target.region_id

    fixtures = [
        scene.objects[oid]
        for oid in sorted(scene.objects)
        if scene.objects[oid].category in HANDOFF_CATEGORIES
        and scene.objects[oid].region_id in verified_ids
        and scene.objects[oid].region_id != pickup_room_id
    ]
    rng.shuffle(fixtures)
    handed = _sample_stop(scene, rng, fixtures, tallies["handoff"])
    if handed is None:
        return EpisodeRejection(scene.scene_id, seed, "handoff", _tally_dict(tallies))
    fixture, handoff_wp, handoff_report = handed
    handoff_room_id = fixture.region_id

    delivery_anchors = [
        scene.objects[oid]
        for oid in sorted(scene.objects)
        if scene.objects[oid].region_id in verified_ids
        and scene.objects[oid].region_id not in (pickup_room_id, handoff_room_id)
        and scene.objects[oid].object_id != target.object_id
    ]
    rng.shuffle(delivery_anchors)
    delivered = _sample_stop(scene, rng, delivery_anchors, tallies["delivery"])
    if delivered is None:
        return EpisodeRejection(scene.scene_id, seed, "delivery", _tally_dict(tallies))
    dest, delivery_wp, delivery_report = delivered

    start_fh = _sample_start(scene, rng)
    start_sh = _sample_start(scene, rng)

    fh0, sh0, handoff, drop = (p.cell for p in (start_fh, start_sh, handoff_wp, delivery_wp))
    # the four legs share one packed mask, and the two into the handoff
    # (from the target and from SH's start) one search from it
    geo = scene.grid.geodesics()
    leg1, leg4 = (bfs_shortest_path(geo, a, b) for a, b in ((fh0, target.cell), (handoff, drop)))
    from_handoff = geo.layers(handoff, target.cell, sh0)
    leg2, leg3 = (descend(geo, from_handoff, a) for a in (target.cell, sh0))
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
        instruction=INSTRUCTION_TEMPLATE.format(
            target=target.category,
            pickup_room=pickup_room,
            delivery_room=delivery_room,
            handoff_room=handoff_room,
        ),
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
        gt_length_fh=path_length_m(list(gt_fh)),
        gt_length_sh=path_length_m(list(gt_sh)),
        subtasks_fh=FH_CHAIN,
        subtasks_sh=SH_CHAIN,
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
    cell = rng.choice(scene.regions[rid].cells)
    cx, cy = center(cell)
    return Pose(cx, cy, rng.randrange(0, 360, TURN_DEG))


# --- dataset statistics ---------------------------------------------------

@dataclass(frozen=True)
class DatasetStats(Record):
    task_count: int
    scene_count: int
    steps_per_robot_mean: float
    steps_per_robot_std: float
    path_per_robot_mean_m: float
    path_per_robot_std_m: float
    combined_path_mean_m: float
    combined_path_std_m: float


def dataset_stats(episodes: list[EpisodeSpec]) -> DatasetStats:
    """Per-robot step and path-length statistics (population std)."""
    import statistics  # here, not at the top: gen-episodes never needs it

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
        steps_per_robot_mean=statistics.fmean(steps),
        steps_per_robot_std=statistics.pstdev(steps),
        path_per_robot_mean_m=statistics.fmean(paths),
        path_per_robot_std_m=statistics.pstdev(paths),
        combined_path_mean_m=statistics.fmean(combined),
        combined_path_std_m=statistics.pstdev(combined),
    )


# --- JSONL persistence ----------------------------------------------------

def save_episodes(episodes: list[EpisodeSpec], path) -> None:
    write_jsonl(path, [ep.to_dict() for ep in episodes])


def load_episodes(path) -> list[EpisodeSpec]:
    """Episodes from a JSON-lines file; a malformed line, or one repeating an
    earlier line's episode_id, raises RecordFormatError naming the file and
    the line."""
    first_line: dict[str, int] = {}
    episodes = []
    for lineno, data in numbered_jsonl(path):
        try:
            episode = EpisodeSpec.from_dict(data)
        except RecordFormatError as exc:
            raise RecordFormatError(f"{path}:{lineno}: {exc}") from None
        seen = first_line.setdefault(episode.episode_id, lineno)
        if seen != lineno:
            raise RecordFormatError(
                f"{path}:{lineno}: episode_id {episode.episode_id!r} repeats line {seen}"
            )
        episodes.append(episode)
    return episodes
