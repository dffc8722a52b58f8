"""Grid geometry, kinematics, occupancy search, and scene serialization."""

from __future__ import annotations

import copy
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaynav.config import MAX_SENSOR_RANGE_M, SensorConfig
from relaynav.scenegen import generate_scene
from relaynav.serialize import canonical_dumps, write_canonical
from relaynav.world import (
    ACTION_FORWARD,
    ACTION_LEFT,
    ACTION_RIGHT,
    ACTION_STOP,
    FORWARD_M,
    HEADING_VECTORS,
    NEIGHBORS_4,
    TURN_DEG,
    GridMap,
    Pose,
    SceneFormatError,
    _one_component,
    _range_cells,
    _rays,
    _shadow_tables,
    apply_blockage,
    bfs_distance_field,
    bfs_layers,
    bfs_shortest_path,
    center,
    fov_bits,
    line_of_sight,
    load_scene,
    pack_cells,
    packed_rays,
    path_length_m,
    save_scene,
    scene_from_dict,
    scene_to_dict,
    step_kinematics,
    supercover_line,
    unpack_cells,
    validate_scene,
    wrap_angle,
)

from support import (
    JSON_VALUES, blocked_array, center_pose, geodesic_distance, geodesics_of, grid_of, junk_lines,
    lab_scene, pack_mask, random_bordered_grid,
)

cells = st.tuples(st.integers(-12, 12), st.integers(-12, 12))


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
    def test_start_blocked_is_all_unreachable(self):
        blocked = np.zeros((4, 4), dtype=bool)
        blocked[1, 1] = True
        assert (np.asarray(bfs_distance_field(blocked, (1, 1))) < 0).all()
        for start in ((-1, 0), (4, 0), (0, 4)):
            assert bfs_distance_field(blocked, start) == [[-1] * 4] * 4

    def test_field_on_nested_lists(self):
        rows = [
            [False, False, False],
            [True, True, False],
            [False, False, False],
            [False, True, True],
        ]
        assert bfs_distance_field(rows, (0, 0)) == [
            [0, 1, 2],
            [-1, -1, 3],
            [6, 5, 4],
            [7, -1, -1],
        ]

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
        path = bfs_shortest_path(geodesics_of(~blocked), a, b)
        dist = bfs_distance_field(blocked, a)[b[1]][b[0]]
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
        the same length, with one packed mask for every query (non-square
        grids, free border cells, blocked, unreachable and equal endpoints
        included)."""
        passable = ~blocked
        h, w = blocked.shape
        cell = st.tuples(st.integers(0, w - 1), st.integers(0, h - 1))
        geo = geodesics_of(passable)
        for _ in range(6):
            a, b = data.draw(cell), data.draw(cell)
            want = queue_bfs_path(passable, a, b)
            assert bfs_shortest_path(geo, a, b) == want

    @given(any_grids, st.data())
    @settings(max_examples=150, deadline=None)
    def test_steps_equal_field_from_the_start(self, blocked, data):
        """``steps(a, b)`` is the field from ``a`` read at ``b``, blocked,
        unreachable and equal endpoints included, and the queue BFS's
        count, on grids that are not square or whose border cells are free."""
        h, w = blocked.shape
        cell = st.tuples(st.integers(0, w - 1), st.integers(0, h - 1))
        geo = geodesics_of(~blocked)
        for _ in range(6):
            a, b = data.draw(cell), data.draw(cell)
            want = bfs_distance_field(blocked, a)[b[1]][b[0]]
            assert geo.steps(a, b) == want
            assert geo.steps(b, a) == want
            assert geo.steps(a, a) == (-1 if blocked[a[1], a[0]] else 0)

    def test_packed_mask_and_queries_match_the_field(self):
        blocked = random_bordered_grid(7, 9, 9, 0.2)
        geo = geodesics_of(~blocked)
        assert geo.stride == 10
        assert unpack_cells(geo.free, geo.stride) == [
            (int(x), int(y)) for y, x in np.argwhere(~blocked)
        ]
        assert geo.free == pack_mask(~blocked)
        field_ = bfs_distance_field(blocked, (4, 4))
        for y, x in np.ndindex(*blocked.shape):
            assert bool(geo.bit((x, y)) & geo.free) == (not blocked[y, x])
            assert geo.steps((x, y), (4, 4)) == field_[y][x]
            path = bfs_shortest_path(geo, (x, y), (4, 4))
            assert (path is None) == (field_[y][x] < 0)
            if path is not None:
                assert [field_[cy][cx] for cx, cy in path] == list(range(field_[y][x], -1, -1))
        assert geo.bit((-1, 0)) == geo.bit((9, 0)) == geo.bit((0, 9)) == 0

    @pytest.mark.parametrize("seed", [3, 8])
    def test_field_matches_layers_and_steps_on_generated_scenes(self, seed):
        """On 64 x 64 generated scenes, before and after a corridor closes:
        layer ``d`` of :func:`bfs_layers` from a source is exactly the set
        of cells whose field value is ``d``, and ``steps`` reads the field
        at sampled targets, walls included."""
        scene = generate_scene(seed)
        rng = np.random.default_rng(seed)
        closed = apply_blockage(scene, sorted(scene.corridors)[int(rng.integers(len(scene.corridors)))])
        for grid in (scene.grid, closed.grid):
            assert (grid.width, grid.height) == (64, 64)
            blocked = blocked_array(grid)
            geo = grid.geodesics()
            free = np.argwhere(~blocked)
            for y, x in free[rng.choice(len(free), 3, replace=False)]:
                source = (int(x), int(y))
                field_ = bfs_distance_field(blocked, source)
                by_value: dict[int, list] = {}
                for cy, row in enumerate(field_):
                    for cx, d in enumerate(row):
                        if d >= 0:
                            by_value.setdefault(d, []).append((cx, cy))
                layers = bfs_layers(geo.free, geo.stride, geo.bit(source))
                assert [unpack_cells(layer, geo.stride) for layer in layers] == [
                    by_value[d] for d in range(len(by_value))
                ]
                for tx, ty in rng.integers(64, size=(20, 2)):
                    assert geo.steps(source, (int(tx), int(ty))) == field_[ty][tx]

    def test_row_ends_do_not_wrap_into_the_next_row(self):
        # (2, 0) and (0, 1) are neighbours in a row-major index without the
        # guard bit between the rows
        blocked = np.array([[True, True, False], [False, True, True]])
        geo = geodesics_of(~blocked)
        assert geo.steps((2, 0), (0, 1)) == geo.steps((0, 1), (2, 0)) == -1
        assert bfs_shortest_path(geo, (2, 0), (0, 1)) is None
        assert not _one_component(geo.free, geo.stride)
        assert not _one_component(pack_cells({(2, 0), (0, 1)}, 4), 4)
        assert _one_component(pack_cells({(0, 0), (0, 1), (1, 1)}, 4), 4)

    def test_nearest_stops_at_the_first_layer_and_breaks_ties_by_x_then_y(self):
        passable = np.ones((5, 5), dtype=bool)
        targets = np.zeros((5, 5), dtype=bool)
        for x, y in ((4, 2), (2, 4), (0, 2), (2, 0), (4, 4)):
            targets[y, x] = True
        geo = geodesics_of(passable)
        # four targets two steps from the centre; (0, 2) has the smallest x
        assert geo.nearest((2, 2), pack_mask(targets)) == (0, 2)
        targets[2, 0] = False
        assert geo.nearest((2, 2), pack_mask(targets)) == (2, 0)
        assert geo.nearest((2, 2), 0) is None
        passable[2, 2] = False  # a blocked source reaches nothing
        assert geodesics_of(passable).nearest((2, 2), pack_mask(targets)) is None

    @given(open_grids)
    @settings(max_examples=150, deadline=None)
    def test_flood_fills_equal_the_set_flood_fill(self, blocked):
        """The packed connectivity checks agree with a set-based flood fill
        on masks whose cells touch x = 0 and the last column."""
        stride = blocked.shape[1] + 1
        free = grid_of(blocked).free
        cells = frozenset((int(x), int(y)) for y, x in np.argwhere(~blocked))
        assert free == pack_cells(cells, stride)
        if not cells:
            assert _one_component(free, stride)
            return
        assert _one_component(free, stride) == flood_fill_oracle(cells)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_box_masks_and_their_neighbours_agree_with_the_set_flood_fill(self, data):
        # a full rectangle is one component without a fill; one cell less or
        # one more (anywhere, so also beside or away from it) takes the fill
        w, h = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9))
        x0, y0 = data.draw(st.integers(0, w - 1)), data.draw(st.integers(0, h - 1))
        x1, y1 = data.draw(st.integers(x0, w - 1)), data.draw(st.integers(y0, h - 1))
        cells = {(x, y) for x in range(x0, x1 + 1) for y in range(y0, y1 + 1)}
        any_cell = st.tuples(st.integers(0, w - 1), st.integers(0, h - 1))
        if data.draw(st.booleans()):
            cells.discard(data.draw(st.sampled_from(sorted(cells))))
        if data.draw(st.booleans()):
            cells.add(data.draw(any_cell))
        want = flood_fill_oracle(frozenset(cells)) if cells else True
        assert _one_component(pack_cells(cells, w + 1), w + 1) == want

    def test_path_length_m(self):
        assert path_length_m([(0, 0), (1, 0), (1, 1)]) == pytest.approx(0.5)
        assert path_length_m([(3, 3)]) == 0.0


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
        occ = blocked_array(grid)
        ys, xs = np.nonzero(occ)
        # find a free cell directly left of a blocked cell, then walk right
        for y, x in zip(ys, xs):
            if x > 0 and not occ[y, x - 1]:
                cx, cy = center((x - 1, y))
                pose = Pose(cx, cy, 0)
                after, blocked = step_kinematics(scene, pose, ACTION_FORWARD)
                assert blocked and after == pose
                return
        pytest.fail("no wall-adjacent free cell found")

    def test_unknown_action_raises(self, scene):
        with pytest.raises(ValueError):
            step_kinematics(scene, Pose(8.0, 8.0, 0), "sprint")

    def test_every_reached_pose_has_the_grid_cell(self, scene):
        # the memoized Pose.cell against the floor of the coordinates in
        # cells, over walks from a grid of start cells in every heading,
        # off-axis drift included
        grid = scene.grid
        ys, xs = np.nonzero(~blocked_array(grid))
        walk = (ACTION_FORWARD,) * 5 + (ACTION_LEFT, ACTION_FORWARD, ACTION_RIGHT) * 3
        reached = 0
        for x, y in list(zip(xs.tolist(), ys.tolist()))[::25]:
            for heading in range(0, 360, TURN_DEG):
                pose = center_pose((x, y), heading)
                for action in walk:
                    pose, _ = step_kinematics(scene, pose, action)
                    assert pose.cell == (
                        math.floor(pose.x / FORWARD_M), math.floor(pose.y / FORWARD_M)
                    )
                    assert pose.cell is pose.cell
                    reached += 1
        assert reached > 10_000


class TestVisibility:
    def test_own_cell_always_visible(self, scene):
        grid = scene.grid
        free = np.argwhere(~blocked_array(grid))
        y, x = free[0]
        cx, cy = center((int(x), int(y)))
        assert line_of_sight(scene, Pose(cx, cy, 0), (int(x), int(y)), 5.0, 120.0)

    def test_out_of_range_invisible(self, scene):
        grid = scene.grid
        free = np.argwhere(~blocked_array(grid))
        (y0, x0), (y1, x1) = free[0], free[-1]
        cx, cy = center((int(x0), int(y0)))
        far = (int(x1), int(y1))
        dist = math.hypot(*(np.subtract(center(far), (cx, cy))))
        if dist > 0.5:
            assert not line_of_sight(scene, Pose(cx, cy, 0), far, 0.3, 360.0)

    def test_field_agrees_with_ray_check(self, scene):
        vis = scene.visibility(3.0)
        grid = scene.grid
        free = np.argwhere(~blocked_array(grid))
        y, x = free[len(free) // 2]
        observer = (int(x), int(y))
        seen = field_offsets(vis, vis.visible_offsets(observer))
        pose = center_pose(observer)
        for i, ((dx, dy), _) in enumerate(_rays(3.0)):
            target = (observer[0] + dx, observer[1] + dy)
            if i % 7 or not grid.in_bounds(target):
                continue
            assert ((dx, dy) in seen) == line_of_sight(scene, pose, target, 3.0, 360.0)

    @given(st.integers(0, 10_000), st.integers(3, 9), st.integers(3, 9), st.floats(0.25, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_field_agrees_with_ray_check_from_every_cell(self, seed, w, h, range_m):
        # observers next to the border have rays that leave the grid
        blocked = random_bordered_grid(seed, w, h)
        scene = lab_scene(blocked)
        vis = scene.visibility(range_m)
        for oy, ox in np.argwhere(~blocked):
            observer = (int(ox), int(oy))
            check_field(scene, vis, observer, range_m)

    @given(
        st.integers(0, 10_000), st.integers(1, 40), st.integers(1, 30),
        st.sampled_from((1.3, 5.0, 10.0)), st.sampled_from((0.0, 0.1, 0.4)), st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_narrow_grids_and_observers_on_every_edge(self, seed, w, h, range_m, wall_p, border):
        # grids narrower than the 2r + 1 window columns re-pack at a wider
        # stride; without a blocked border, observers sit on the outermost
        # rows and columns, and targets off the grid must not alias onto it
        rng = np.random.default_rng(seed)
        blocked = rng.random((h, w)) < wall_p
        if border and min(w, h) >= 3:
            blocked = random_bordered_grid(seed, w, h, wall_p)
        scene = lab_scene(blocked)
        vis = scene.visibility(range_m)
        r = vis.range_cells
        assert vis.stride == max(w + 1, 2 * r + 2)
        edges = (
            [(0, y) for y in range(h)], [(w - 1, y) for y in range(h)],
            [(x, 0) for x in range(w)], [(x, h - 1) for x in range(w)],
        )
        observers = {(0, 0), (w - 1, 0), (0, h - 1), (w - 1, h - 1)}
        for edge in edges:
            observers |= {edge[int(i)] for i in rng.integers(len(edge), size=2)}
        observers.add((int(rng.integers(w)), int(rng.integers(h))))
        for observer in sorted(observers):
            check_field(scene, vis, observer, range_m)

    def test_generated_scenes_at_the_maximum_range(self):
        # 64-wide scenes at 10 m (r = 40): the grid's stride 65 is narrower
        # than the 81-column window, so the field packs its rows 82 apart
        scene = generate_scene(3)
        grid = scene.grid
        vis = scene.visibility(MAX_SENSOR_RANGE_M)
        assert grid.width == 64 and vis.range_cells == 40 and vis.stride == 82
        free = [(int(x), int(y)) for y, x in np.argwhere(~blocked_array(grid))]
        edge = grid.width - 2
        observers = [
            min(c for c in free if c[0] == 1),
            max(c for c in free if c[0] == edge),
            min(c for c in free if c[1] == 1),
            max(c for c in free if c[1] == edge),
            free[len(free) // 2],
        ]
        for observer in observers:
            check_field(scene, vis, observer, MAX_SENSOR_RANGE_M)

    def test_every_offset_at_the_default_range_from_border_observers(self, scene):
        grid = scene.grid
        range_m = SensorConfig().range_m
        vis = scene.visibility(range_m)
        # 64 wide at 5 m: the field keeps the grid's own layout, unchanged
        assert grid.width == 64 and vis.range_cells == 20 and vis.stride == grid.stride
        assert vis._blocked is grid.blocked
        free = [(int(x), int(y)) for y, x in np.argwhere(~blocked_array(grid))]
        edge = grid.width - 2
        observers = [
            min(c for c in free if c[0] == 1),
            max(c for c in free if c[0] == edge),
            min(c for c in free if c[1] == 1),
            max(c for c in free if c[1] == edge),
            free[len(free) // 2],
        ]
        for observer in observers:
            check_field(scene, vis, observer, range_m)

    @given(
        st.integers(0, 10_000), st.integers(3, 40), st.integers(3, 30),
        st.sampled_from((1.3, 5.0)), st.sampled_from((0.05, 0.3)),
        st.sampled_from(range(0, 360, 15)), st.sampled_from((60.0, 120.0, 360.0)),
    )
    @settings(max_examples=25, deadline=None)
    def test_sensed_cells_are_the_packed_rays_in_the_fov(
        self, seed, w, h, range_m, wall_p, heading, fov
    ):
        # the field's shadow tables and the per-target packed rays are two
        # forms of the one _rays enumeration: the cells the field senses are
        # the targets whose packed ray is clear and whose offset is in the FOV
        blocked = random_bordered_grid(seed, w, h, wall_p)
        scene = lab_scene(blocked)
        grid = scene.grid
        vis = scene.visibility(range_m)
        r, window = packed_rays(range_m, w)
        side = 2 * r + 1
        in_fov = fov_bits(range_m, heading, fov)
        rng = np.random.default_rng(seed)
        free = [(int(x), int(y)) for y, x in np.argwhere(~blocked)]
        for i in rng.permutation(len(free))[:8]:
            cx, cy = free[int(i)]
            here = cy * grid.stride + cx
            want = 1 << here
            for ty, tx in np.ndindex(h, w):
                dx, dy = tx - cx, ty - cy
                ray = window[(dy + r) * side + dx + r] if max(abs(dx), abs(dy)) <= r else None
                if ray is not None and in_fov >> ray[0] & 1 and not grid.blocked >> (here + ray[1]) & ray[2]:
                    want |= 1 << ty * grid.stride + tx
            assert vis.sensed((cx, cy), heading, fov) == want

    @pytest.mark.parametrize("range_m", (1.3, 5.0))
    def test_shadow_tables_hold_each_packed_ray(self, range_m):
        # at a stride as wide as the grid's, offset o is in caster e's
        # shadow iff e is strictly inside o's ray, as packed_rays packs it
        width = 2 * _range_cells(range_m) + 1
        stride = width + 1
        r, window = packed_rays(range_m, width)
        in_range, casters, shadows = _shadow_tables(range_m, stride)
        origin = r * stride + r
        holds: dict[int, set[int]] = {}
        for e in unpack_bits(casters):
            for o in unpack_bits(shadows[e]):
                holds.setdefault(o, set()).add(e - origin)
        assert set(unpack_bits(in_range)) == {
            (dy + r) * stride + dx + r for (dx, dy), _ in _rays(range_m)
        }
        for (dx, dy), _ in _rays(range_m):
            _, lo, interior = window[(dy + r) * (2 * r + 1) + dx + r]
            want = {lo + b for b in unpack_bits(interior)}
            assert holds.get((dy + r) * stride + dx + r, set()) == want, (dx, dy)

    @given(
        st.integers(0, 10_000), st.integers(3, 40), st.integers(3, 30),
        st.sampled_from((1.3, 5.0)), st.sampled_from((0.05, 0.3)),
    )
    @settings(max_examples=25, deadline=None)
    def test_packed_rays_agree_with_ray_check(self, seed, w, h, range_m, wall_p):
        # one shift and AND of the packed grid per target, against the scalar
        # ray; narrow grids put offsets wider than a row in the window
        blocked = random_bordered_grid(seed, w, h, wall_p)
        scene = lab_scene(blocked)
        grid = scene.grid
        r, window = packed_rays(range_m, w)
        assert packed_rays(range_m, w)[1] is window
        side = 2 * r + 1
        rng = np.random.default_rng(seed)
        free = [(int(x), int(y)) for y, x in np.argwhere(~blocked)]
        for i in rng.permutation(len(free))[:8]:
            observer = free[int(i)]
            here = observer[1] * grid.stride + observer[0]
            pose = center_pose(observer)
            for ty, tx in np.ndindex(h, w):
                dx, dy = tx - observer[0], ty - observer[1]
                if (dx, dy) == (0, 0):
                    continue
                ray = window[(dy + r) * side + dx + r] if max(abs(dx), abs(dy)) <= r else None
                seen = ray is not None and not grid.blocked >> (here + ray[1]) & ray[2]
                assert seen == line_of_sight(scene, pose, (tx, ty), range_m, 360.0)

    def test_tables_are_built_once_per_range_and_stride(self):
        tables = _shadow_tables(5.0, 65)
        assert _shadow_tables(5.0, 65) is tables
        assert isinstance(tables[2], tuple)  # shared by every field: immutable
        scenes = [lab_scene(random_bordered_grid(3, 23, 17)),
                  lab_scene(random_bordered_grid(4, 23, 12)),
                  lab_scene(random_bordered_grid(5, 31, 12))]
        fields = [scene.visibility(3.0) for scene in scenes]
        assert [vis.stride for vis in fields] == [26, 26, 32]  # r = 12
        assert fields[0]._shadows is fields[1]._shadows is not fields[2]._shadows
        for scene, vis in zip(scenes, fields):
            for oy, ox in np.argwhere(~blocked_array(scene.grid))[::3]:
                check_field(scene, vis, (int(ox), int(oy)), 3.0)


def unpack_bits(bits: int) -> list[int]:
    """The positions of the set bits of ``bits``, lowest first."""
    return [i for i, digit in enumerate(bin(bits)[:1:-1]) if digit == "1"]


def field_offsets(vis, bits: int) -> set[tuple[int, int]]:
    """The ``(dx, dy)`` offsets of a field's window bits."""
    r, stride = vis.range_cells, vis.stride
    return {(i % stride - r, i // stride - r) for i in unpack_bits(bits)}


def check_field(scene, vis, observer, range_m) -> None:
    """The field's visible offsets from ``observer``, and the cells it
    senses with a 360 deg field of view, against the scalar
    :func:`line_of_sight` for every target in the grid and in the window."""
    grid = scene.grid
    pose = center_pose(observer)
    seen = field_offsets(vis, vis.visible_offsets(observer))
    want = set()
    r = vis.range_cells
    for dy in range(-r, r + 1):
        for dx in range(-r, r + 1):
            target = (observer[0] + dx, observer[1] + dy)
            if (dx or dy) and grid.in_bounds(target):
                if line_of_sight(scene, pose, target, range_m, 360.0):
                    want.add((dx, dy))
    assert seen == want, observer
    cells = {(observer[0] + dx, observer[1] + dy) for dx, dy in want} | {observer}
    assert vis.sensed(observer, 0, 360.0) == grid.mask(cells), observer


def array_cells(mask) -> list[tuple[int, int]]:
    """The set cells of a ``(h, w)`` boolean array, in ``(x, y)`` order."""
    return sorted((int(x), int(y)) for y, x in np.argwhere(mask))


def check_grid_views(grid, blocked) -> None:
    """Cell by cell, the packed int, ``is_blocked`` and the array the tests
    unpack all say what the reference array ``blocked`` says; the guard
    bits and every bit past the last row are clear; the true map's
    geodesics pack the same free cells as the numpy packer."""
    h, w = blocked.shape
    stride = w + 1
    assert (grid.width, grid.height, grid.stride) == (w, h, stride)
    view = blocked_array(grid)
    assert view.shape == (h, w) and view.dtype == bool
    for y, x in np.ndindex(h, w):
        bit = bool(grid.blocked >> (y * stride + x) & 1)
        assert grid.is_blocked((x, y)) == bit == bool(view[y, x]) == bool(blocked[y, x])
    for y in range(h):
        assert not grid.blocked >> (y * stride + w) & 1
    assert grid.blocked >> (h * stride) == 0
    assert grid.geodesics().free == grid.free == pack_mask(~blocked)


def scene_truth(scene) -> np.ndarray:
    """A generated scene's occupancy from its structure alone: every cell is
    a wall except the region cells and the gate cells of open corridors."""
    blocked = np.ones((scene.grid.height, scene.grid.width), dtype=bool)
    open_gates = (c.gate_cells for c in scene.corridors.values() if not c.blocked)
    for x, y in frozenset().union(*(r.cells for r in scene.regions.values()), *open_gates):
        blocked[y, x] = False
    return blocked


class TestPackedGrid:
    @given(any_grids, st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_grids(self, blocked, data):
        grid = grid_of(blocked)
        check_grid_views(grid, blocked)
        free = array_cells(~blocked)
        gates = data.draw(st.sets(st.sampled_from(free), max_size=4)) if free else set()
        scene = lab_scene(blocked, gates=gates)
        # the scene file's grid section holds the blocked cells and reads back
        section = scene_to_dict(scene)["grid"]
        cells = [tuple(c) for c in section["blocked_cells"]]
        assert cells == array_cells(blocked)
        assert GridMap.of_cells(section["width"], section["height"], cells) == grid
        if gates:
            after = apply_blockage(scene, "c0")
            want = blocked.copy()
            for x, y in gates:
                want[y, x] = True
            check_grid_views(after.grid, want)
            check_grid_views(scene.grid, blocked)  # the source is untouched

    @given(st.integers(0, 2**32), st.data())
    @settings(max_examples=25, deadline=None)
    def test_generated_scenes(self, seed, data):
        scene = generate_scene(seed)
        cid = data.draw(st.sampled_from(sorted(scene.corridors)))
        closed = apply_blockage(scene, cid)
        truth = scene_truth(scene)
        check_grid_views(scene.grid, truth)
        check_grid_views(closed.grid, scene_truth(closed))
        changed = array_cells(scene_truth(closed) != truth)
        assert changed == sorted(scene.corridors[cid].gate_cells)
        for s in (scene, closed):
            text = canonical_dumps(scene_to_dict(s))
            back = scene_from_dict(json.loads(text))
            assert back.grid == s.grid
            assert canonical_dumps(scene_to_dict(back)) == text


class TestBlockage:
    def test_apply_changes_only_the_gate_cells(self, scene):
        cid = sorted(scene.corridors)[0]
        blocked = apply_blockage(scene, cid)
        assert blocked.corridors[cid].blocked
        assert not scene.corridors[cid].blocked  # original untouched
        assert {c: v for c, v in blocked.corridors.items() if c != cid} == {
            c: v for c, v in scene.corridors.items() if c != cid
        }
        changed = np.argwhere(blocked_array(blocked.grid) != blocked_array(scene.grid))
        assert {(int(x), int(y)) for y, x in changed} == set(scene.corridors[cid].gate_cells)
        for cell in scene.corridors[cid].gate_cells:
            assert blocked.grid.is_blocked(cell)
            assert not scene.grid.is_blocked(cell)  # original untouched

    def test_copies_keep_the_region_index_and_rebuild_occupancy_caches(self, scene):
        # a blockage leaves the regions and objects in place, so their indexes hold
        cells = [(x, y) for y in range(scene.grid.height) for x in range(scene.grid.width)]
        regions = [scene.region_of(c) for c in cells]
        labels = [scene.room_label_of(c) for c in cells]
        listed = scene.sorted_objects()
        for cid in sorted(scene.corridors):
            blocked = apply_blockage(scene, cid)
            assert blocked._region_by_cell is scene._region_by_cell
            assert [blocked.region_of(c) for c in cells] == regions
            assert [blocked.room_label_of(c) for c in cells] == labels
            assert blocked.sorted_objects() is listed
            assert blocked.visibility(5.0) is not scene.visibility(5.0)
            field_ = blocked.visibility(5.0)
            for cx, cy in scene.corridors[cid].gate_cells:
                assert field_._blocked >> (cy * field_.stride + cx) & 1

    def test_apply_is_idempotent(self, scene):
        cid = sorted(scene.corridors)[0]
        once = apply_blockage(scene, cid)
        assert apply_blockage(once, cid) is once

    def test_blockage_lengthens_or_cuts_paths(self, scene):
        free = np.argwhere(~blocked_array(scene.grid))
        a = (int(free[0][1]), int(free[0][0]))
        b = (int(free[-1][1]), int(free[-1][0]))
        base = geodesic_distance(scene, a, b)
        for cid in sorted(scene.corridors):
            after = geodesic_distance(apply_blockage(scene, cid), a, b)
            assert after >= base - 1e-9


def _value_paths(value, prefix=()):
    """The key paths to every value nested in ``value``, the first two items
    of each list only."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value[:2])
    else:
        return
    for key, item in items:
        yield prefix + (key,)
        yield from _value_paths(item, prefix + (key,))


class TestSceneSerialization:
    def test_dict_roundtrip_preserves_everything(self, scene):
        clone = scene_from_dict(scene_to_dict(scene))
        assert clone.scene_id == scene.scene_id
        assert clone.grid.blocked == scene.grid.blocked
        assert clone.regions == scene.regions
        assert clone.objects == scene.objects
        assert clone.corridors == scene.corridors

    def test_file_roundtrip_identical_bytes(self, scene, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_scene(scene, p1)
        save_scene(load_scene(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("seed", range(8))
    def test_scene_file_is_the_indented_json_of_its_dict(self, seed, tmp_path):
        # the bytes json.dumps writes, as scene files were written before the
        # template writer, for plain scenes and for each with a corridor closed
        scene = generate_scene(seed)
        for version in (scene, apply_blockage(scene, min(scene.corridors))):
            path = tmp_path / "scene.json"
            save_scene(version, path)
            want = json.dumps(scene_to_dict(version), sort_keys=True, indent=2) + "\n"
            assert path.read_text(encoding="utf-8") == want

    @pytest.mark.parametrize(
        "cls, field", [("SceneGrid", "blocked_cells"), ("Region", "cells"), ("Corridor", "gate_cells")]
    )
    @pytest.mark.parametrize(
        "bad, held",
        [([1, True], "[1, True]"), ([1.5, 2], "[1.5, 2]"), ([1], "[1]"), ("ab", "'ab'"), (None, "None")],
    )
    def test_bad_cell_is_named_by_its_index(self, scene, tmp_path, cls, field, bad, held):
        # a cell list is checked in bulk; one that fails names its first bad item
        data = scene_to_dict(scene)
        section = {"SceneGrid": data["grid"], "Region": data["regions"][0], "Corridor": data["corridors"][0]}
        section[cls][field].insert(1, bad)
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        want = f"{path}: {cls}: field '{field}' item 1 cannot hold {held}"
        with pytest.raises(SceneFormatError, match=rf"^{re.escape(want)}$"):
            load_scene(path)

    def test_mistyped_grid_side_is_named_with_the_file(self, scene, tmp_path):
        data = scene_to_dict(scene)
        data["grid"]["width"] = "x"
        path = tmp_path / "scene.json"
        write_canonical(path, data)
        want = f"{path}: SceneGrid: field 'width' cannot hold 'x'"
        with pytest.raises(SceneFormatError, match=rf"^{re.escape(want)}$"):
            load_scene(path)

    @pytest.mark.parametrize(
        "section, key, value, match",
        [
            ("meta", "seed", 7.9, "SceneMeta: field 'seed' cannot hold 7.9"),
            ("meta", "seed", 1e20 + 0.9, "SceneMeta: field 'seed' cannot hold 1e+20"),
            ("meta", "scene_id", 7, "SceneMeta: field 'scene_id' cannot hold 7"),
            ("grid", "width", "64", "SceneGrid: field 'width' cannot hold '64'"),
            (
                "grid", "blocked_cells", [0.9, 0],
                "SceneGrid: field 'blocked_cells' item {last} cannot hold [0.9, 0]",
            ),
        ],
    )
    def test_mistyped_meta_or_grid_value_is_refused(self, scene, section, key, value, match):
        # each would load with another meaning if coerced: seed 7, width 64, cell (0, 0)
        data = scene_to_dict(scene)
        if key == "blocked_cells":
            data[section][key].append(value)
        else:
            data[section][key] = value
        want = match.format(last=len(data["grid"]["blocked_cells"]) - 1)
        with pytest.raises(SceneFormatError, match=rf"^{re.escape(want)}$"):
            scene_from_dict(data)

    @pytest.mark.parametrize("at", ["left", "right", "top", "bottom"])
    def test_blocked_cell_outside_the_grid_is_named(self, scene, at):
        data = scene_to_dict(scene)
        w, h = data["grid"]["width"], data["grid"]["height"]
        cell = {"left": [-1, 3], "right": [w, 3], "top": [3, -1], "bottom": [3, h]}[at]
        data["grid"]["blocked_cells"].append(cell)
        with pytest.raises(
            SceneFormatError, match=rf"^blocked cell \[{cell[0]}, {cell[1]}\] lies outside"
        ):
            scene_from_dict(data)

    @pytest.mark.parametrize(
        "section, key", [("regions", "region_id"), ("objects", "object_id"), ("corridors", "corridor_id")]
    )
    def test_duplicate_id_is_named_with_its_section(self, scene, tmp_path, section, key):
        data = scene_to_dict(scene)
        data[section].append(copy.deepcopy(data[section][0]))
        path = tmp_path / "scene.json"
        write_canonical(path, data)
        want = f"{path}: {section}: duplicate id {data[section][0][key]!r}"
        with pytest.raises(SceneFormatError, match=rf"^{re.escape(want)}$"):
            load_scene(path)

    @pytest.mark.parametrize(
        "section, key, value, match",
        [
            ("regions", "extra", 1, "Region: unknown field 'extra'"),
            ("objects", "extra", 1, "SceneObject: unknown field 'extra'"),
            ("corridors", "extra", 1, "Corridor: unknown field 'extra'"),
            ("corridors", "joins", ["a", "b", "c"], "Corridor: field 'joins' cannot hold"),
            ("objects", "salience", "0.5", "SceneObject: field 'salience' cannot hold"),
        ],
    )
    def test_malformed_entry_is_named_with_the_file(
        self, scene, tmp_path, section, key, value, match
    ):
        data = scene_to_dict(scene)
        data[section][0][key] = value
        path = tmp_path / "scene.json"
        write_canonical(path, data)
        with pytest.raises(SceneFormatError, match=rf"^{re.escape(f'{path}: {match}')}"):
            load_scene(path)

    def test_corridor_without_blocked_flag_is_refused(self, scene):
        data = scene_to_dict(scene)
        del data["corridors"][0]["blocked"]
        with pytest.raises(SceneFormatError, match="Corridor: missing field 'blocked'"):
            scene_from_dict(data)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_fuzzed_scene_raises_only_scene_format_error(self, scene, tmp_path_factory, data):
        valid = scene_to_dict(scene)
        if data.draw(st.booleans()):
            text, malformed = data.draw(junk_lines(valid))
        else:
            # one value anywhere in the file replaced (lists: their first two items)
            at = data.draw(st.sampled_from(sorted(_value_paths(valid), key=repr)))
            doc = copy.deepcopy(valid)
            parent = doc
            for key in at[:-1]:
                parent = parent[key]
            parent[at[-1]] = data.draw(JSON_VALUES)
            text, malformed = json.dumps(doc), False
        path = tmp_path_factory.getbasetemp() / "fuzz-scene.json"
        path.write_text(text + "\n", encoding="utf-8")
        try:
            load_scene(path)
        except SceneFormatError as exc:
            assert str(exc).startswith(f"{path}: ")
        else:
            assert not malformed

    def test_validate_accepts_generated_scene(self, scene):
        validate_scene(scene)

    @pytest.mark.parametrize("case", ["empty", "overlap", "gate-in-region"])
    def test_validate_names_the_region_or_corridor_at_fault(self, scene, case):
        # regions are checked on packed masks; each failure keeps its message
        first, second = sorted(scene.regions)[:2]
        cid = min(scene.corridors)
        gate = min(scene.corridors[cid].gate_cells)
        home = scene.corridors[cid].joins[0]
        rid, cells, want = {
            "empty": (first, frozenset(), f"region {first} is empty"),
            "overlap": (
                second,
                scene.regions[second].cells | {min(scene.regions[first].cells)},
                f"region {second} overlaps another region",
            ),
            "gate-in-region": (
                home,
                scene.regions[home].cells | {gate},
                f"corridor {cid} gate cell inside a region",
            ),
        }[case]
        regions = {**scene.regions, rid: replace(scene.regions[rid], cells=cells)}
        with pytest.raises(SceneFormatError, match=rf"^{re.escape(want)}$"):
            validate_scene(replace(scene, regions=regions))

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
