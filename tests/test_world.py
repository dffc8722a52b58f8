"""Grid geometry, kinematics, occupancy search, and scene serialization."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaynav.world import (
    ACTION_FORWARD,
    ACTION_LEFT,
    ACTION_RIGHT,
    ACTION_STOP,
    FORWARD_M,
    HEADING_VECTORS,
    TURN_DEG,
    Pose,
    apply_blockage,
    bfs_distance_field,
    bfs_shortest_path,
    clear_blockage,
    geodesic_distance,
    line_of_sight,
    load_scene,
    path_length_m,
    save_scene,
    scene_from_dict,
    scene_to_dict,
    shortest_path,
    step_kinematics,
    supercover_line,
    validate_scene,
    wrap_angle,
)

from support import center_pose, lab_scene, random_bordered_grid

cells = st.tuples(st.integers(-12, 12), st.integers(-12, 12))


def bfs_oracle(blocked: np.ndarray, start: tuple[int, int]) -> np.ndarray:
    """Plain queue BFS, 4-connected, -1 for unreachable."""
    h, w = blocked.shape
    dist = np.full((h, w), -1, dtype=int)
    if blocked[start[1], start[0]]:
        return dist
    dist[start[1], start[0]] = 0
    queue = [start]
    while queue:
        x, y = queue.pop(0)
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nx, ny = x + dx, y + dy
            if 0 <= nx < w and 0 <= ny < h and not blocked[ny, nx] and dist[ny, nx] < 0:
                dist[ny, nx] = dist[y, x] + 1
                queue.append((nx, ny))
    return dist


class TestAngles:
    def test_wrap_angle_range(self):
        for deg in (-720, -180, -15, 0, 15, 180, 345, 900):
            assert -180.0 < wrap_angle(deg) <= 180.0

    def test_wrap_angle_identity_on_range(self):
        assert wrap_angle(45.0) == 45.0
        assert wrap_angle(-170.0) == -170.0
        assert wrap_angle(180.0) == 180.0
        assert wrap_angle(-180.0) == 180.0

    @given(st.floats(-2000, 2000, allow_nan=False))
    def test_wrap_angle_congruent(self, deg):
        diff = (wrap_angle(deg) - deg) % 360.0
        assert min(diff, 360.0 - diff) < 1e-6


class TestPose:
    def test_heading_must_be_quantized(self):
        with pytest.raises(ValueError):
            Pose(1.0, 1.0, 7)
        with pytest.raises(ValueError):
            Pose(1.0, 1.0, 360)
        Pose(1.0, 1.0, 345)

    def test_heading_vectors_cover_all_quantized_headings(self):
        assert set(HEADING_VECTORS) == set(range(0, 360, TURN_DEG))
        for heading, (vx, vy) in HEADING_VECTORS.items():
            assert vx == pytest.approx(math.cos(math.radians(heading)), abs=1e-12)
            assert vy == pytest.approx(math.sin(math.radians(heading)), abs=1e-12)


class TestSupercover:
    @given(cells, cells)
    @settings(max_examples=200)
    def test_endpoints_and_connectivity(self, a, b):
        line = supercover_line(a, b)
        assert line[0] == a and line[-1] == b
        for (x0, y0), (x1, y1) in zip(line, line[1:]):
            assert abs(x1 - x0) <= 1 and abs(y1 - y0) <= 1

    @given(cells, cells)
    @settings(max_examples=200)
    def test_symmetric(self, a, b):
        assert supercover_line(a, b) == list(reversed(supercover_line(b, a)))

    def test_crosses_every_touched_cell(self):
        # the 45-degree diagonal supercover includes both side cells
        line = supercover_line((0, 0), (2, 2))
        assert (1, 0) in line and (0, 1) in line


class TestBfs:
    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle_on_random_grids(self, seed):
        rng = np.random.default_rng(seed)
        blocked = rng.random((9, 9)) < 0.35
        free = np.argwhere(~blocked)
        if len(free) == 0:
            return
        y, x = free[rng.integers(len(free))]
        got = bfs_distance_field(blocked, (int(x), int(y)))
        want = bfs_oracle(blocked, (int(x), int(y)))
        assert np.array_equal(got, want)

    def test_start_blocked_is_all_unreachable(self):
        blocked = np.zeros((4, 4), dtype=bool)
        blocked[1, 1] = True
        dist = bfs_distance_field(blocked, (1, 1))
        assert (dist < 0).all()

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_shortest_path_length_matches_field(self, seed):
        rng = np.random.default_rng(seed)
        blocked = rng.random((9, 9)) < 0.3
        free = np.argwhere(~blocked)
        if len(free) < 2:
            return
        ya, xa = free[rng.integers(len(free))]
        yb, xb = free[rng.integers(len(free))]
        a, b = (int(xa), int(ya)), (int(xb), int(yb))
        path = bfs_shortest_path(~blocked, a, b)
        dist = bfs_distance_field(blocked, a)[b[1], b[0]]
        if dist < 0:
            assert path is None
        else:
            assert path is not None and path[0] == a and path[-1] == b
            assert len(path) - 1 == dist
            for (x0, y0), (x1, y1) in zip(path, path[1:]):
                assert abs(x1 - x0) + abs(y1 - y0) == 1
                assert not blocked[y1, x1]

    def test_path_length_m(self):
        assert path_length_m([(0, 0), (1, 0), (1, 1)], 0.25) == pytest.approx(0.5)
        assert path_length_m([(3, 3)], 0.25) == 0.0


class TestKinematics:
    def test_turns_quantized_and_reversible(self, scene):
        pose = Pose(8.0, 8.0, 90)
        left, blocked = step_kinematics(scene, pose, ACTION_LEFT)
        assert not blocked and left.heading == 75
        right, _ = step_kinematics(scene, left, ACTION_RIGHT)
        assert right == pose

    def test_forward_moves_quarter_meter(self, scene):
        pose = Pose(8.0, 8.0, 0)
        after, blocked = step_kinematics(scene, pose, ACTION_FORWARD)
        if not blocked:
            assert after.x == pytest.approx(pose.x + FORWARD_M)
            assert after.y == pytest.approx(pose.y)

    def test_stop_is_identity(self, scene):
        pose = Pose(8.0, 8.0, 180)
        assert step_kinematics(scene, pose, ACTION_STOP) == (pose, False)

    def test_forward_into_wall_blocks(self, scene):
        grid = scene.grid
        ys, xs = np.nonzero(grid.blocked)
        # find a free cell directly left of a blocked cell, then walk right
        for y, x in zip(ys, xs):
            if x > 0 and not grid.blocked[y, x - 1]:
                cx, cy = grid.center((x - 1, y))
                pose = Pose(cx, cy, 0)
                after, blocked = step_kinematics(scene, pose, ACTION_FORWARD)
                assert blocked and after == pose
                return
        pytest.fail("no wall-adjacent free cell found")

    def test_unknown_action_raises(self, scene):
        with pytest.raises(ValueError):
            step_kinematics(scene, Pose(8.0, 8.0, 0), "sprint")


class TestVisibility:
    def test_own_cell_always_visible(self, scene):
        grid = scene.grid
        free = np.argwhere(~grid.blocked)
        y, x = free[0]
        cx, cy = grid.center((int(x), int(y)))
        assert line_of_sight(scene, Pose(cx, cy, 0), (int(x), int(y)), 5.0, 120.0)

    def test_out_of_range_invisible(self, scene):
        grid = scene.grid
        free = np.argwhere(~grid.blocked)
        (y0, x0), (y1, x1) = free[0], free[-1]
        cx, cy = grid.center((int(x0), int(y0)))
        far = (int(x1), int(y1))
        dist = math.hypot(*(np.subtract(grid.center(far), (cx, cy))))
        if dist > 0.5:
            assert not line_of_sight(scene, Pose(cx, cy, 0), far, 0.3, 360.0)

    def test_field_agrees_with_ray_check(self, scene):
        vis = scene.visibility(3.0)
        grid = scene.grid
        free = np.argwhere(~grid.blocked)
        y, x = free[len(free) // 2]
        observer = (int(x), int(y))
        mask = vis.visible_offsets(observer)
        cx, cy = grid.center(observer)
        pose = Pose(cx, cy, 0)
        for i in range(0, len(vis.offsets), 7):
            dx, dy = vis.offsets[i]
            target = (observer[0] + int(dx), observer[1] + int(dy))
            if not grid.in_bounds(target):
                continue
            assert bool(mask[i]) == line_of_sight(scene, pose, target, 3.0, 360.0)

    @given(st.integers(0, 10_000), st.integers(3, 9), st.integers(3, 9), st.floats(0.25, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_field_agrees_with_ray_check_from_every_cell(self, seed, w, h, range_m):
        # observers next to the border have rays that leave the grid
        blocked = random_bordered_grid(seed, w, h)
        scene = lab_scene(blocked)
        vis = scene.visibility(range_m)
        for oy, ox in np.argwhere(~blocked):
            observer = (int(ox), int(oy))
            mask = vis.visible_offsets(observer)
            pose = center_pose(observer)
            for ty, tx in np.ndindex(h, w):
                dx, dy = tx - observer[0], ty - observer[1]
                if dx == 0 and dy == 0:
                    continue
                seen = line_of_sight(scene, pose, (tx, ty), range_m, 360.0)
                row = vis.offset_row(dx, dy)
                if row < 0:
                    assert not seen  # out of range
                else:
                    assert tuple(vis.offsets[row]) == (dx, dy)
                    assert bool(mask[row]) == seen


class TestBlockage:
    def test_apply_then_clear_roundtrips_occupancy(self, scene):
        cid = sorted(scene.corridors)[0]
        blocked = apply_blockage(scene, cid)
        assert blocked.corridors[cid].blocked
        for cell in scene.corridors[cid].gate_cells:
            assert blocked.grid.is_blocked(cell)
            assert not scene.grid.is_blocked(cell)  # original untouched
        restored = clear_blockage(blocked, cid)
        assert np.array_equal(restored.grid.blocked, scene.grid.blocked)

    def test_apply_is_idempotent(self, scene):
        cid = sorted(scene.corridors)[0]
        once = apply_blockage(scene, cid)
        assert apply_blockage(once, cid) is once

    def test_blockage_lengthens_or_cuts_paths(self, scene):
        free = np.argwhere(~scene.grid.blocked)
        a = (int(free[0][1]), int(free[0][0]))
        b = (int(free[-1][1]), int(free[-1][0]))
        base = geodesic_distance(scene, a, b)
        for cid in sorted(scene.corridors):
            after = geodesic_distance(apply_blockage(scene, cid), a, b)
            assert after >= base - 1e-9


class TestSceneSerialization:
    def test_dict_roundtrip_preserves_everything(self, scene):
        clone = scene_from_dict(scene_to_dict(scene))
        assert clone.scene_id == scene.scene_id
        assert np.array_equal(clone.grid.blocked, scene.grid.blocked)
        assert clone.regions == scene.regions
        assert clone.objects == scene.objects
        assert clone.corridors == scene.corridors

    def test_file_roundtrip_identical_bytes(self, scene, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_scene(scene, p1)
        save_scene(load_scene(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_validate_accepts_generated_scene(self, scene):
        validate_scene(scene)
