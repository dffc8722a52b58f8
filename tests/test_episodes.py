"""Episode sampling, three-gate verification, and dataset round-trips."""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaynav.episodes import (
    EpisodeRejection,
    EpisodeSpec,
    dataset_stats,
    generate_episode,
    load_episodes,
    render_instruction,
    save_episodes,
    verify_episode,
)
from relaynav.scenegen import generate_scene
from relaynav.seeds import derive_seed
from relaynav.tasks import FH_CHAIN, SH_CHAIN
from relaynav.world import geodesic_distance

from relaynav.serialize import RecordFormatError

from conftest import episode_batch
from support import junk_lines


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
    scene, episode = scene_episode
    reports = verify_episode(scene, episode)
    assert set(reports) == {"pickup", "handoff", "delivery"}
    for report in reports.values():
        assert report.passed


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
    assert render_instruction(episode) == episode.instruction


def test_gt_paths_and_lengths_consistent(scene_episode):
    scene, episode = scene_episode
    grid = scene.grid
    res = grid.resolution
    target = scene.objects[episode.target_object_id].cell
    handoff = grid.cell_of(episode.handoff_waypoint.x, episode.handoff_waypoint.y)
    delivery = grid.cell_of(episode.delivery_waypoint.x, episode.delivery_waypoint.y)
    fh0 = grid.cell_of(episode.start_pose_fh.x, episode.start_pose_fh.y)
    sh0 = grid.cell_of(episode.start_pose_sh.x, episode.start_pose_sh.y)

    assert episode.gt_path_fh[0] == fh0 and episode.gt_path_fh[-1] == handoff
    assert target in episode.gt_path_fh
    assert episode.gt_path_sh[0] == sh0 and episode.gt_path_sh[-1] == delivery
    assert handoff in episode.gt_path_sh

    assert episode.gt_length_fh == pytest.approx((len(episode.gt_path_fh) - 1) * res)
    assert episode.gt_length_sh == pytest.approx((len(episode.gt_path_sh) - 1) * res)
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
        assert re.match(re.escape(f"{path}:{at + 1}: "), str(exc))
    else:
        assert not malformed and len(loaded) == len(lines)


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
