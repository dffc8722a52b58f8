"""Grid geometry, kinematics, occupancy search, and scene serialization."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaynav.config import SensorConfig
from relaynav.world import (
    ACTION_FORWARD,
    ACTION_LEFT,
    ACTION_RIGHT,
    ACTION_STOP,
    BLOCKED,
    FORWARD_M,
    HEADING_VECTORS,
    NEIGHBORS_4,
    TURN_DEG,
    Geodesics,
    Pose,
    SceneFormatError,
    _connected_4,
    _one_component,
    apply_blockage,
    bfs_distance_field,
    bfs_shortest_path,
    clear_blockage,
    flat_geometry,
    geodesic_distance,
    line_of_sight,
    load_scene,
    pack_mask,
    path_length_m,
    ray_geometry,
    save_scene,
    scene_from_dict,
    scene_to_dict,
    step_kinematics,
    supercover_line,
    unpack_cells,
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


def queue_bfs_path(passable: np.ndarray, a, b):
    """Queue BFS from ``a`` in ``NEIGHBORS_4`` order, path read back from the
    parent links: the reference the distance-field descent must reproduce."""
    h, w = passable.shape
    if not passable[a[1], a[0]] or not passable[b[1], b[0]]:
        return None
    parent = {a: a}
    queue = [a]
    qi = 0
    while qi < len(queue) and b not in parent:
        cx, cy = queue[qi]
        qi += 1
        for dx, dy in NEIGHBORS_4:
            nxt = (cx + dx, cy + dy)
            if 0 <= nxt[0] < w and 0 <= nxt[1] < h and passable[nxt[1], nxt[0]] and nxt not in parent:
                parent[nxt] = (cx, cy)
                queue.append(nxt)
    if b not in parent:
        return None
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    return path[::-1]


def flood_fill_oracle(cells) -> bool:
    """Set-based 4-connectivity of a non-empty set of cells."""
    start = next(iter(cells))
    seen = {start}
    stack = [start]
    while stack:
        cx, cy = stack.pop()
        for dx, dy in NEIGHBORS_4:
            nxt = (cx + dx, cy + dy)
            if nxt in cells and nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == len(cells)


def random_open_grid(seed, w, h, wall_p):
    """Occupancy without a border wall: free cells in the first and last
    rows and columns exercise the packed layout's guard bits."""
    return np.random.default_rng(seed).random((h, w)) < wall_p


# random bordered grids, and obstacle-free ones, which have the most ties
grids = st.builds(
    random_bordered_grid,
    st.integers(0, 10_000),
    st.integers(3, 13),
    st.integers(3, 13),
    st.sampled_from([0.0, 0.15, 0.3, 0.45]),
)
open_grids = st.builds(
    random_open_grid,
    st.integers(0, 10_000),
    st.integers(1, 13),
    st.integers(1, 13),
    st.sampled_from([0.0, 0.15, 0.3, 0.45]),
)
any_grids = st.one_of(grids, open_grids)


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

    @given(any_grids, st.data())
    @settings(max_examples=150, deadline=None)
    def test_path_equals_queue_bfs_path(self, blocked, data):
        """The descent returns the queue BFS's path itself, not only one of
        the same length, with or without a mask packed once for every query
        (non-square grids, free border cells, blocked, unreachable and
        equal endpoints included)."""
        passable = ~blocked
        h, w = blocked.shape
        cell = st.tuples(st.integers(0, w - 1), st.integers(0, h - 1))
        geo = Geodesics(passable)
        for _ in range(6):
            a, b = data.draw(cell), data.draw(cell)
            want = queue_bfs_path(passable, a, b)
            assert bfs_shortest_path(passable, a, b) == want
            assert bfs_shortest_path(passable, a, b, geo) == want

    @given(any_grids, st.data())
    @settings(max_examples=150, deadline=None)
    def test_steps_equal_field_from_the_start(self, blocked, data):
        """``steps(a, b)`` is the field from ``a`` read at ``b``, blocked,
        unreachable and equal endpoints included, and the queue BFS's
        count, on grids that are not square or whose border cells are free."""
        h, w = blocked.shape
        cell = st.tuples(st.integers(0, w - 1), st.integers(0, h - 1))
        geo = Geodesics(~blocked)
        for _ in range(6):
            a, b = data.draw(cell), data.draw(cell)
            want = bfs_oracle(blocked, a)[b[1], b[0]]
            assert geo.steps(a, b) == bfs_distance_field(blocked, a)[b[1], b[0]] == want
            assert geo.steps(b, a) == want
            assert geo.steps(a, a) == (-1 if blocked[a[1], a[0]] else 0)

    def test_packed_mask_and_queries_match_the_field(self):
        blocked = random_bordered_grid(7, 9, 9, 0.2)
        geo = Geodesics(~blocked)
        assert geo.stride == 10
        assert unpack_cells(geo.free, geo.stride) == [
            (int(x), int(y)) for y, x in np.argwhere(~blocked)
        ]
        assert geo.free == pack_mask(~blocked)
        field_ = bfs_distance_field(blocked, (4, 4))
        for y, x in np.ndindex(*blocked.shape):
            assert bool(geo.bit((x, y)) & geo.free) == (not blocked[y, x])
            assert geo.steps((x, y), (4, 4)) == field_[y, x]
            path = bfs_shortest_path(geo.passable, (x, y), (4, 4), geo)
            assert (path is None) == (field_[y, x] < 0)
            if path is not None:
                assert [field_[cy, cx] for cx, cy in path] == list(range(field_[y, x], -1, -1))
        assert geo.bit((-1, 0)) == geo.bit((9, 0)) == geo.bit((0, 9)) == 0

    def test_row_ends_do_not_wrap_into_the_next_row(self):
        # (2, 0) and (0, 1) are neighbours in a row-major index without the
        # guard bit between the rows
        blocked = np.array([[True, True, False], [False, True, True]])
        geo = Geodesics(~blocked)
        assert geo.steps((2, 0), (0, 1)) == geo.steps((0, 1), (2, 0)) == -1
        assert bfs_shortest_path(~blocked, (2, 0), (0, 1), geo) is None
        assert not _one_component(~blocked)
        assert not _connected_4(frozenset({(2, 0), (0, 1)}), blocked.shape)
        assert _connected_4(frozenset({(0, 0), (0, 1), (1, 1)}), blocked.shape)

    def test_nearest_stops_at_the_first_layer_and_breaks_ties_by_x_then_y(self):
        passable = np.ones((5, 5), dtype=bool)
        targets = np.zeros((5, 5), dtype=bool)
        for x, y in ((4, 2), (2, 4), (0, 2), (2, 0), (4, 4)):
            targets[y, x] = True
        geo = Geodesics(passable)
        # four targets two steps from the centre; (0, 2) has the smallest x
        assert geo.nearest((2, 2), targets) == (0, 2)
        targets[2, 0] = False
        assert geo.nearest((2, 2), targets) == (2, 0)
        assert geo.nearest((2, 2), np.zeros_like(targets)) is None
        passable[2, 2] = False  # a blocked source reaches nothing
        assert Geodesics(passable).nearest((2, 2), targets) is None

    @given(open_grids)
    @settings(max_examples=150, deadline=None)
    def test_flood_fills_equal_the_set_flood_fill(self, blocked):
        """The packed connectivity checks agree with a set-based flood fill
        on masks whose cells touch x = 0 and the last column."""
        free = ~blocked
        cells = frozenset((int(x), int(y)) for y, x in np.argwhere(free))
        if not cells:
            assert _one_component(free)
            return
        want = flood_fill_oracle(cells)
        assert _one_component(free) == want
        assert _connected_4(cells, free.shape) == want

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
        rows = {(int(dx), int(dy)): i for i, (dx, dy) in enumerate(vis.offsets)}
        for oy, ox in np.argwhere(~blocked):
            observer = (int(ox), int(oy))
            mask = vis.visible_offsets(observer)
            pose = center_pose(observer)
            for ty, tx in np.ndindex(h, w):
                dx, dy = tx - observer[0], ty - observer[1]
                if dx == 0 and dy == 0:
                    continue
                seen = line_of_sight(scene, pose, (tx, ty), range_m, 360.0)
                row = rows.get((dx, dy))
                if row is None:
                    assert not seen  # out of range
                else:
                    assert bool(mask[row]) == seen

    def test_every_offset_at_the_default_range_from_border_observers(self, scene):
        grid = scene.grid
        range_m = SensorConfig().range_m
        vis = scene.visibility(range_m)
        assert grid.width == 64 and max(np.abs(vis.offsets).max(axis=0)) == 20
        free = [(int(x), int(y)) for y, x in np.argwhere(~grid.blocked)]
        edge = grid.width - 2
        observers = [
            min(c for c in free if c[0] == 1),
            max(c for c in free if c[0] == edge),
            min(c for c in free if c[1] == 1),
            max(c for c in free if c[1] == edge),
            free[len(free) // 2],
        ]
        for observer in observers:
            mask = vis.visible_offsets(observer)
            pose = center_pose(observer)
            for (dx, dy), seen in zip(vis.offsets.tolist(), mask.tolist()):
                target = (observer[0] + dx, observer[1] + dy)
                if grid.in_bounds(target):
                    assert seen == line_of_sight(scene, pose, target, range_m, 360.0)
                else:
                    assert not seen  # its ray crosses the walled border

    def test_grid_widths_share_one_shadow_table(self):
        scenes = [lab_scene(random_bordered_grid(3, 23, 17)),
                  lab_scene(random_bordered_grid(4, 31, 12))]
        fields = [scene.visibility(3.0) for scene in scenes]
        assert fields[0]._masks is fields[1]._masks is ray_geometry(0.25, 3.0)[2]
        assert not np.array_equal(fields[0]._shadows, fields[1]._shadows)
        for scene, vis in zip(scenes, fields):
            for oy, ox in np.argwhere(~scene.grid.blocked):
                observer = (int(ox), int(oy))
                mask = vis.visible_offsets(observer)
                pose = center_pose(observer)
                for (dx, dy), seen in zip(vis.offsets.tolist(), mask.tolist()):
                    target = (observer[0] + dx, observer[1] + dy)
                    if scene.grid.in_bounds(target):
                        assert seen == line_of_sight(scene, pose, target, 3.0, 360.0)

    def test_shadow_table_is_built_once_and_read_only(self):
        geometry = ray_geometry(0.25, 5.0)
        assert ray_geometry(0.25, 5.0) is geometry
        assert flat_geometry(0.25, 5.0, 64) is flat_geometry(0.25, 5.0, 64)
        for arr in geometry + flat_geometry(0.25, 5.0, 64):
            with pytest.raises(ValueError):
                arr[0] = 0
        offsets, shadows, masks = geometry
        assert masks.dtype == np.uint64 and masks.shape == (len(shadows), -(-len(offsets) // 64))


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

    def test_copies_keep_the_region_index_and_rebuild_occupancy_caches(self, scene):
        cells = [(x, y) for y in range(scene.grid.height) for x in range(scene.grid.width)]
        regions = [scene.region_of(c) for c in cells]
        labels = [scene.room_label_of(c) for c in cells]
        table = scene.cell_table()
        for cid in sorted(scene.corridors):
            blocked = apply_blockage(scene, cid)
            for copy in (blocked, clear_blockage(blocked, cid)):
                assert copy._region_by_cell is scene._region_by_cell
                assert [copy.region_of(c) for c in cells] == regions
                assert [copy.room_label_of(c) for c in cells] == labels
                assert copy.cell_table() is not table
                assert copy.visibility(5.0) is not scene.visibility(5.0)
            for cx, cy in scene.corridors[cid].gate_cells:
                assert blocked.cell_table().occupancy[cy * scene.grid.width + cx] == BLOCKED

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

    def test_validate_names_blocked_split_and_disconnected_cells(self):
        blocked = np.ones((5, 7), dtype=bool)
        blocked[1:-1, 1:-1] = False
        blocked[1:-1, 3] = True  # a wall splits the free space in two
        scene = lab_scene(blocked)
        with pytest.raises(SceneFormatError, match="region r0 is not 4-connected"):
            validate_scene(scene)
        left = frozenset((x, y) for x in (1, 2) for y in (1, 2, 3))
        scene.regions["r0"] = replace(scene.regions["r0"], cells=left)
        with pytest.raises(SceneFormatError, match="single connected component"):
            validate_scene(scene)
        for cell in ((3, 2), (-1, 2), (7, 2)):
            scene.regions["r0"] = replace(scene.regions["r0"], cells=left | {cell})
            with pytest.raises(SceneFormatError, match=rf"contains a blocked cell \({cell[0]}, {cell[1]}\)"):
                validate_scene(scene)
