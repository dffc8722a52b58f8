"""Episode sampling, three-gate verification, and dataset round-trips."""

from __future__ import annotations

import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaynav.episodes import (
    INSTRUCTION_TEMPLATE,
    EpisodeRejection,
    EpisodeSpec,
    cells_within,
    dataset_stats,
    generate_episode,
    load_episodes,
    save_episodes,
)
from relaynav.scenegen import generate_scene
from relaynav.seeds import derive_seed
from relaynav.tasks import FH_CHAIN, SH_CHAIN
from relaynav.gates import GATE_RANGE_M, trigate_check

from relaynav.serialize import RecordFormatError
from relaynav.world import FORWARD_M, bfs_shortest_path, center

from conftest import episode_batch
from support import geodesic_distance, junk_lines


def test_determinism():
    scene = generate_scene(5)
    a = generate_episode(scene, 99)
    b = generate_episode(scene, 99)
    assert type(a) is type(b)
    if isinstance(a, EpisodeSpec):
        assert a.to_dict() == b.to_dict()
    else:
        assert a == b


def test_accepted_episode_passes_all_gates(scene_episode):
    """The gates, re-run on the stored waypoints, pass and give the stored
    reports."""
    scene, episode = scene_episode
    assert set(episode.gate_reports) == {"pickup", "handoff", "delivery"}
    for stop, anchor_id in (
        ("pickup", episode.target_object_id),
        ("handoff", episode.handoff_fixture_id),
        ("delivery", episode.delivery_anchor_id),
    ):
        report = trigate_check(
            scene,
            getattr(episode, f"{stop}_waypoint"),
            scene.objects[anchor_id],
            getattr(episode, f"{stop}_room"),
        )
        assert report.passed
        assert report.to_dict() == episode.gate_reports[stop]


def test_episode_structure(scene_episode):
    scene, episode = scene_episode
    assert episode.scene_id == scene.scene_id
    assert episode.subtasks_fh == FH_CHAIN
    assert episode.subtasks_sh == SH_CHAIN
    assert episode.target_object_id in scene.objects
    # distinct rooms for the three stops
    assert len({episode.pickup_room, episode.handoff_room, episode.delivery_room}) == 3
    # instruction mentions the target category and all three rooms
    category = scene.objects[episode.target_object_id].category
    for token in (category, episode.pickup_room, episode.handoff_room, episode.delivery_room):
        assert token in episode.instruction
    assert episode.instruction == INSTRUCTION_TEMPLATE.format(
        target=category,
        pickup_room=episode.pickup_room,
        delivery_room=episode.delivery_room,
        handoff_room=episode.handoff_room,
    )


def test_gt_paths_and_lengths_consistent(scene_episode):
    scene, episode = scene_episode
    target = scene.objects[episode.target_object_id].cell
    handoff = episode.handoff_waypoint.cell
    delivery = episode.delivery_waypoint.cell
    fh0 = episode.start_pose_fh.cell
    sh0 = episode.start_pose_sh.cell

    assert episode.gt_path_fh[0] == fh0 and episode.gt_path_fh[-1] == handoff
    assert target in episode.gt_path_fh
    assert episode.gt_path_sh[0] == sh0 and episode.gt_path_sh[-1] == delivery
    assert handoff in episode.gt_path_sh

    assert episode.gt_length_fh == pytest.approx((len(episode.gt_path_fh) - 1) * FORWARD_M)
    assert episode.gt_length_sh == pytest.approx((len(episode.gt_path_sh) - 1) * FORWARD_M)
    # legs are geodesics, so the stitched length is the leg sum
    leg_fh = geodesic_distance(scene, fh0, target) + geodesic_distance(scene, target, handoff)
    assert episode.gt_length_fh == pytest.approx(leg_fh)


def test_rejection_reports_stop_and_tallies():
    rejections = []
    for draw in range(200):
        scene = generate_scene(derive_seed(1, "rej-scene", draw))
        out = generate_episode(scene, derive_seed(1, "rej-ep", draw))
        if isinstance(out, EpisodeRejection):
            rejections.append(out)
        if len(rejections) >= 3:
            break
    assert rejections, "no rejection sampled in 200 draws"
    for rej in rejections:
        assert rej.stop in ("pickup", "handoff", "delivery")
        assert rej.tallies  # per-gate failure counts recorded


def test_save_load_roundtrip(tmp_path, batch10):
    episodes = [ep for _, ep in batch10]
    path = tmp_path / "episodes.jsonl"
    save_episodes(episodes, path)
    loaded = load_episodes(path)
    assert [e.to_dict() for e in loaded] == [e.to_dict() for e in episodes]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzzed_line_raises_only_record_format_error(tmp_path_factory, batch10, data):
    episodes = [ep for _, ep in batch10[:3]]
    lines = [json.dumps(ep.to_dict()) for ep in episodes]
    line, malformed = data.draw(junk_lines(episodes[0].to_dict()))
    at = data.draw(st.integers(0, len(lines)))
    lines.insert(at, line)
    path = tmp_path_factory.getbasetemp() / "fuzz-episodes.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        loaded = load_episodes(path)
    except RecordFormatError as exc:
        # a valid line with episodes[0]'s id is refused where the id comes second
        second = 2 if at == 0 and str(exc).endswith(" repeats line 1") else at + 1
        assert re.match(re.escape(f"{path}:{second}: "), str(exc))
    else:
        assert not malformed and len(loaded) == len(lines)


def test_repeated_episode_id_is_refused_by_name(tmp_path, batch10):
    episodes = [ep for _, ep in batch10[:2]]
    path = tmp_path / "episodes.jsonl"
    save_episodes([*episodes, episodes[0]], path)
    with pytest.raises(RecordFormatError) as exc:
        load_episodes(path)
    assert str(exc.value) == (
        f"{path}:3: episode_id {episodes[0].episode_id!r} repeats line 1"
    )


def test_legs_from_one_handoff_search_equal_separate_paths(batch10):
    # legs 2 and 3 descend one search rooted at the handoff; each must be
    # the path a search of its own finds
    for scene, episode in batch10:
        geo = scene.grid.geodesics()
        target = scene.objects[episode.target_object_id].cell
        fh0, sh0 = episode.start_pose_fh.cell, episode.start_pose_sh.cell
        handoff, drop = episode.handoff_waypoint.cell, episode.delivery_waypoint.cell
        leg1, leg2, leg3, leg4 = (
            bfs_shortest_path(geo, a, b)
            for a, b in ((fh0, target), (target, handoff), (sh0, handoff), (handoff, drop))
        )
        assert episode.gt_path_fh == tuple(leg1) + tuple(leg2[1:])
        assert episode.gt_path_sh == tuple(leg3) + tuple(leg4[1:])


def test_dataset_stats(batch10):
    episodes = [ep for _, ep in batch10]
    stats = dataset_stats(episodes).to_dict()
    assert stats["task_count"] == len(episodes)
    assert stats["scene_count"] == len({e.scene_id for e in episodes})
    mean_len = sum(e.gt_length_fh + e.gt_length_sh for e in episodes) / (2 * len(episodes))
    assert stats["path_per_robot_mean_m"] == pytest.approx(mean_len)
    assert stats["steps_per_robot_mean"] == pytest.approx(mean_len / 0.25)


def test_batch_yield_is_reasonable():
    accepted = 0
    for draw in range(40):
        scene = generate_scene(derive_seed(8, "yield-scene", draw))
        if isinstance(generate_episode(scene, derive_seed(8, "yield-ep", draw)), EpisodeSpec):
            accepted += 1
    assert accepted >= 10


def test_episode_batch_helper_is_deterministic():
    a = episode_batch(2, seed=6)
    b = episode_batch(2, seed=6)
    assert [e.to_dict() for _, e in a] == [e.to_dict() for _, e in b]


def test_cells_within_matches_the_math_hypot_filter(scene):
    """The column-windowed radius filter keeps exactly the cells a scan of
    the whole region keeps, from cell centres and from points between them,
    also at a reach equal to a cell's distance or one ulp either side."""
    for obj in sorted(scene.objects.values(), key=lambda o: o.object_id):
        region = scene.regions[obj.region_id]
        cx, cy = center(obj.cell)
        for at in ((cx, cy), (cx + 0.37, cy - 0.11)):

            def dist(c):
                return math.hypot((c[0] + 0.5) * FORWARD_M - at[0], (c[1] + 0.5) * FORWARD_M - at[1])

            edge = dist(region.cells[len(region.cells) // 2])
            for reach in (GATE_RANGE_M, 1.0, 0.0, edge, math.nextafter(edge, 0), math.nextafter(edge, 9)):
                want = [c for c in region.cells if dist(c) <= reach]
                assert cells_within(region, at, reach) == want
