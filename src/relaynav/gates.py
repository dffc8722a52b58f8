"""Three-gate waypoint verification.

A candidate waypoint for a stop passes iff (1) its anchor object is in line of
sight within sensing range and field of view, (2) the anchor actually sits in
the room the instruction will claim, and (3) a recognizability score clears a
threshold. The full report keeps all three sub-results so failures stay
diagnosable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

from .serialize import Record
from .world import (
    Pose,
    SceneGraph,
    SceneObject,
    UNKNOWN_LABEL,
    bearing_deg,
    center,
    line_of_sight,
    wrap_angle,
)

# the gates check a waypoint against the paper's sensor: 5 m range, 120 deg FOV
GATE_RANGE_M = 5.0
GATE_FOV_DEG = 120.0
THETA_REC = 0.5


@dataclass(frozen=True)
class VisibilityReport(Record):
    passed: bool
    distance_m: float
    bearing_err_deg: float


@dataclass(frozen=True)
class RoomConsistencyReport(Record):
    passed: bool
    expected_room: str
    actual_room: str


@dataclass(frozen=True)
class RecognizabilityReport(Record):
    passed: bool
    score: float
    threshold: float


@dataclass(frozen=True)
class GateReport(Record):
    visibility: VisibilityReport
    room_consistency: RoomConsistencyReport
    recognizability: RecognizabilityReport
    passed: bool  # every gate passed


class RecognizabilityScorer(Protocol):
    def score(self, scene: SceneGraph, waypoint: Pose, target: SceneObject) -> float: ...


@dataclass(frozen=True)
class DistanceFalloffScorer:
    """Deterministic stand-in for a learned recognizability model:
    ``salience * (1 - distance / max_range) * (1 - occlusion)``, clamped to
    [0, 1]."""

    max_range_m: float = 5.0

    def score(self, scene: SceneGraph, waypoint: Pose, target: SceneObject) -> float:
        tx, ty = center(target.cell)
        dist = math.hypot(tx - waypoint.x, ty - waypoint.y)
        raw = target.salience * (1.0 - dist / self.max_range_m) * (1.0 - target.occlusion)
        return min(1.0, max(0.0, raw))


def gate_visibility(
    scene: SceneGraph,
    waypoint: Pose,
    target: SceneObject,
    max_range_m: float,
    fov_deg: float,
) -> VisibilityReport:
    tx, ty = center(target.cell)
    dist = math.hypot(tx - waypoint.x, ty - waypoint.y)
    if dist == 0.0:
        err = 0.0
    else:
        err = abs(wrap_angle(bearing_deg((waypoint.x, waypoint.y), (tx, ty)) - waypoint.heading))
    visible = line_of_sight(scene, waypoint, target.cell, max_range_m, fov_deg)
    return VisibilityReport(passed=visible, distance_m=dist, bearing_err_deg=err)


def gate_room_consistency(
    scene: SceneGraph, target: SceneObject, expected_room: str
) -> RoomConsistencyReport:
    actual = scene.room_label_of(target.cell)
    passed = (
        expected_room != UNKNOWN_LABEL
        and actual != UNKNOWN_LABEL
        and actual == expected_room
    )
    return RoomConsistencyReport(passed=passed, expected_room=expected_room, actual_room=actual)


def gate_recognizability(
    scorer: RecognizabilityScorer,
    scene: SceneGraph,
    waypoint: Pose,
    target: SceneObject,
    theta_rec: float,
) -> RecognizabilityReport:
    score = scorer.score(scene, waypoint, target)
    return RecognizabilityReport(passed=score >= theta_rec, score=score, threshold=theta_rec)


def trigate_check(
    scene: SceneGraph,
    waypoint: Pose,
    target: SceneObject,
    expected_room: str,
    scorer: RecognizabilityScorer | None = None,
) -> GateReport:
    """Evaluate all three gates; the report passes iff every gate passes."""
    scorer = scorer or DistanceFalloffScorer(GATE_RANGE_M)
    visibility = gate_visibility(scene, waypoint, target, GATE_RANGE_M, GATE_FOV_DEG)
    room = gate_room_consistency(scene, target, expected_room)
    recognizability = gate_recognizability(scorer, scene, waypoint, target, THETA_REC)
    return GateReport(
        visibility,
        room,
        recognizability,
        passed=visibility.passed and room.passed and recognizability.passed,
    )
