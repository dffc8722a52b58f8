"""Three-gate waypoint verification: conjunction semantics, counterexamples."""

from __future__ import annotations

import random

import pytest

from relaynav.gates import (
    GATE_FOV_DEG,
    GATE_RANGE_M,
    THETA_REC,
    DistanceFalloffScorer,
    gate_recognizability,
    gate_room_consistency,
    gate_visibility,
    trigate_check,
)
from relaynav.world import ROOM_LABELS, Pose, center

from support import blocked_array


class ConstantScorer:
    def __init__(self, value: float):
        self.value = value

    def score(self, scene, waypoint, target) -> float:
        return self.value


def random_candidates(scene, rng, count):
    """Random (waypoint, target, expected_room) triples, free cells only."""
    import numpy as np

    free = np.argwhere(~blocked_array(scene.grid))
    objects = sorted(scene.objects)
    out = []
    for _ in range(count):
        y, x = free[rng.randrange(len(free))]
        cx, cy = center((int(x), int(y)))
        pose = Pose(cx, cy, rng.randrange(0, 360, 15))
        target = scene.objects[objects[rng.randrange(len(objects))]]
        expected = rng.choice(ROOM_LABELS)
        out.append((pose, target, expected))
    return out


def test_trigate_is_conjunction_of_named_gates(scene):
    scorer = DistanceFalloffScorer(GATE_RANGE_M)
    rng = random.Random(0)
    for pose, target, expected in random_candidates(scene, rng, 200):
        report = trigate_check(scene, pose, target, expected, scorer)
        vis = gate_visibility(scene, pose, target, GATE_RANGE_M, GATE_FOV_DEG)
        room = gate_room_consistency(scene, target, expected)
        rec = gate_recognizability(scorer, scene, pose, target, THETA_REC)
        assert report.passed == (vis.passed and room.passed and rec.passed)
        assert report.visibility.passed == vis.passed
        assert report.room_consistency.passed == room.passed
        assert report.recognizability.passed == rec.passed


@pytest.fixture(scope="module")
def passing_candidate(scene_episode):
    scene, episode = scene_episode
    target = scene.objects[episode.target_object_id]
    pose = episode.pickup_waypoint
    expected = episode.pickup_room
    report = trigate_check(scene, pose, target, expected)
    assert report.passed
    return scene, pose, target, expected


def test_counterexample_fails_only_visibility(passing_candidate):
    scene, pose, target, expected = passing_candidate
    turned = Pose(pose.x, pose.y, (pose.heading + 180) % 360)
    report = trigate_check(scene, turned, target, expected)
    assert not report.visibility.passed
    assert report.room_consistency.passed
    assert report.recognizability.passed
    assert not report.passed


def test_counterexample_fails_only_room_consistency(passing_candidate):
    scene, pose, target, expected = passing_candidate
    wrong_room = next(l for l in ROOM_LABELS if l != expected)
    report = trigate_check(scene, pose, target, wrong_room)
    assert report.visibility.passed
    assert not report.room_consistency.passed
    assert report.recognizability.passed
    assert not report.passed


def test_counterexample_fails_only_recognizability(passing_candidate):
    scene, pose, target, expected = passing_candidate
    report = trigate_check(scene, pose, target, expected, scorer=ConstantScorer(0.0))
    assert report.visibility.passed
    assert report.room_consistency.passed
    assert not report.recognizability.passed
    assert not report.passed


def test_distance_falloff_scorer_properties(scene):
    scorer = DistanceFalloffScorer(5.0)
    obj = scene.objects[sorted(scene.objects)[0]]
    cx, cy = center(obj.cell)
    at = scorer.score(scene, Pose(cx, cy, 0), obj)
    assert 0.0 <= at <= 1.0
    far = scorer.score(scene, Pose(cx + 10.0, cy, 0), obj)
    assert far == 0.0  # beyond max range clamps to zero
