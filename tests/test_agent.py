"""Per-robot policy: belief maps, sensing, optimistic planning, steering."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relaynav.agent import (
    AgentState,
    Plan,
    _frontiers,
    _nearest_frontier,
    advance_subtask,
    drain_signals,
    ensure_plan,
    evolve,
    initial_belief,
    make_agent,
    next_action,
    note_progress,
    observe,
    on_blocked,
    plan_to,
)
from relaynav.bus import Observation
from relaynav.config import SensorConfig
from relaynav.gates import DistanceFalloffScorer
from relaynav.replan import PolicyContext
from relaynav.tasks import GOTO_PICKUP, PICK_UP, STOP, Subtask
from relaynav.world import (
    ACTION_FORWARD,
    ACTION_LEFT,
    ACTION_RIGHT,
    ACTION_STOP,
    apply_blockage,
    bfs_distance_field,
    bfs_shortest_path,
    fov_bits,
    fov_mask,
    line_of_sight,
    pack_cells,
    packed_rays,
    packed_rect,
    ray_geometry,
    step_kinematics,
)

from support import (
    BLOCKED, FREE, UNKNOWN, belief_codes, center_pose, frontier_mask, geodesics_of, lab_scene,
    pack_belief, pack_mask, random_bordered_grid, walled_lab,
)


def ctx_with(chain):
    return PolicyContext(
        robot_id="FH",
        target_category="bottle",
        chain=tuple(chain),
    )


def agent_at(scene, cell, heading=0, chain=None, knowledge="known"):
    chain = chain if chain is not None else (Subtask(GOTO_PICKUP, (13, 4)), Subtask(STOP, None))
    return make_agent(scene, "FH", center_pose(cell, heading), ctx_with(chain), knowledge)


def field_nearest_frontier(belief, start):
    """Reference frontier choice: a distance field over known-free cells,
    then the reachable frontier cell of least (distance, x, y)."""
    if belief[start[1], start[0]] != FREE:
        return None
    dist = bfs_distance_field(belief != FREE, start)
    reach = frontier_mask(belief) & (dist >= 0)
    if not reach.any():
        return None
    ys, xs = np.nonzero(reach)
    order = np.lexsort((ys, xs, dist[ys, xs]))[0]
    return (int(xs[order]), int(ys[order]))


def set_rule_sightings(scene, state, sensor):
    """Reference sightings: gather every sensed cell into a set, then test
    each object's cell for membership."""
    vis = scene.visibility(sensor.range_m)
    cell = state.cell
    offsets = vis.offsets
    bearing = np.degrees(np.arctan2(offsets[:, 1], offsets[:, 0])) % 360.0
    err = (bearing - state.pose.heading + 180.0) % 360.0 - 180.0
    mask = vis.visible_offsets(cell) & (np.abs(err) <= sensor.fov_deg / 2.0 + 1e-9)
    visible_cells = {(int(x), int(y)) for x, y in offsets[mask] + np.array(cell)}
    visible_cells.add(cell)
    scorer = DistanceFalloffScorer(sensor.range_m)
    sightings = []
    for oid in sorted(scene.objects):
        obj = scene.objects[oid]
        if obj.cell in visible_cells:
            score = scorer.score(scene, state.pose, obj)
            if score > 0.0:
                sightings.append(Observation(obj.category, obj.cell, round(score, 6)))
    sightings.sort(key=lambda o: (o.category, o.cell))
    return tuple(sightings)


def ray_sightings(scene, state, sensor):
    """Reference sightings: every object the scalar :func:`line_of_sight`
    sees from the pose, scored in object-id order."""
    scorer = DistanceFalloffScorer(sensor.range_m)
    sightings = []
    for oid in sorted(scene.objects):
        obj = scene.objects[oid]
        if line_of_sight(scene, state.pose, obj.cell, sensor.range_m, sensor.fov_deg):
            score = scorer.score(scene, state.pose, obj)
            if score > 0.0:
                sightings.append(Observation(obj.category, obj.cell, round(score, 6)))
    sightings.sort(key=lambda o: (o.category, o.cell))
    return tuple(sightings)


def oracle_observe(scene, state, sensor):
    """Reference sensing: unpacks the belief into an array of codes, writes
    every sensed cell as an ``(N, 2)`` cell array and packs the array back,
    and tests every object of the scene."""
    vis = scene.visibility(sensor.range_m)
    cell = state.cell
    mask = vis.visible_offsets(cell) & fov_mask(
        sensor.range_m, state.pose.heading, sensor.fov_deg
    )
    cells = vis.offsets[mask] + np.array(cell, dtype=np.int32)

    codes = belief_codes(state)
    belief = codes.copy()
    occ = scene.grid.blocked_array()
    here = occ[cell[1], cell[0]]
    belief[cell[1], cell[0]] = BLOCKED if here else FREE
    truth = occ[cells[:, 1], cells[:, 0]]
    belief[cells[:, 1], cells[:, 0]] = np.where(truth, BLOCKED, FREE)

    was = codes[cells[:, 1], cells[:, 0]]
    geodesics = state.geodesics
    if here != (codes[cell[1], cell[0]] == BLOCKED) or (truth != (was == BLOCKED)).any():
        geodesics = geodesics_of(belief != BLOCKED)
    flipped = truth & (was != BLOCKED) & (was != UNKNOWN)
    newly_blocked = sorted((cell, (int(bx), int(by))) for bx, by in cells[flipped])

    rows = {(int(dx), int(dy)): i for i, (dx, dy) in enumerate(vis.offsets)}
    scorer = DistanceFalloffScorer(sensor.range_m)
    sightings = []
    for oid in sorted(scene.objects):
        obj = scene.objects[oid]
        row = rows.get((obj.cell[0] - cell[0], obj.cell[1] - cell[1]))
        if obj.cell == cell or (row is not None and mask[row]):
            score = scorer.score(scene, state.pose, obj)
            if score > 0.0:
                sightings.append(Observation(obj.category, obj.cell, round(score, 6)))
    sightings.sort(key=lambda o: (o.category, o.cell))

    known, blocked = pack_belief(belief)
    new_state = replace(
        state,
        known=known,
        blocked=blocked,
        geodesics=geodesics,
        pending_blocked_edges=state.pending_blocked_edges + tuple(newly_blocked),
    )
    if newly_blocked and state.plan is not None:
        blocked_cells = {e[1] for e in newly_blocked}
        if any(c in blocked_cells for c in state.plan.path):
            new_state = replace(new_state, plan=None)
    return new_state, tuple(sightings)


def observe_like_the_oracle(scene, state, sensor):
    """Check ``observe``'s result against :func:`oracle_observe`'s; returns
    the visibility fields the scene held before the oracle ran."""
    got, got_sightings = observe(scene, state, sensor)
    fields = dict(scene._vis_fields)
    want, want_sightings = oracle_observe(scene, state, sensor)
    assert got_sightings == want_sightings
    assert (got.known, got.blocked) == (want.known, want.blocked)
    assert got.geodesics.free == want.geodesics.free
    assert (got.geodesics is state.geodesics) == (want.geodesics is state.geodesics)
    assert got.pending_blocked_edges == want.pending_blocked_edges
    assert got.plan == want.plan
    # nothing sensed differs exactly when the oracle changed nothing
    assert (got is state) == ((want.known, want.blocked) == (state.known, state.blocked))
    return fields


class TestBelief:
    def test_known_belief_mirrors_occupancy(self):
        scene = walled_lab()
        known, blocked = initial_belief(scene, "known")
        occ = scene.grid.blocked_array()
        assert known == pack_mask(np.ones_like(occ))
        assert blocked == pack_mask(occ)
        codes = belief_codes(agent_at(scene, (3, 4)))
        assert ((codes == BLOCKED) == occ).all()
        assert (codes[~occ] == FREE).all()

    def test_discover_belief_starts_unknown_except_start(self):
        scene = walled_lab()
        codes = belief_codes(agent_at(scene, (3, 4), knowledge="discover"))
        assert codes[4, 3] == FREE
        assert (codes == UNKNOWN).sum() == codes.size - 1

    def test_invalid_knowledge_mode(self):
        with pytest.raises(ValueError):
            initial_belief(walled_lab(), "psychic")


class TestObserve:
    @given(
        st.integers(0, 10_000),
        st.integers(3, 16),
        st.integers(3, 16),
        st.floats(0.25, 3.0),
        st.sampled_from(range(0, 360, 15)),
        st.sampled_from((60.0, 90.0, 120.0, 180.0, 360.0)),
    )
    @settings(max_examples=40, deadline=None)
    def test_sightings_match_set_membership_rule(self, seed, w, h, range_m, heading, fov):
        blocked = random_bordered_grid(seed, w, h)
        # objects anywhere, walls and the observer's own cell included
        rng = np.random.default_rng(seed + 1)
        categories = ("cup", "bed", "sink")
        objects = [
            (f"o{i}", categories[i % 3], (int(rng.integers(w)), int(rng.integers(h))))
            for i in range(8)
        ]
        scene = lab_scene(blocked, objects)
        sensor = SensorConfig(range_m=range_m, fov_deg=fov)
        for oy, ox in np.argwhere(~blocked):
            state = agent_at(scene, (int(ox), int(oy)), heading)
            _, sightings = observe(scene, state, sensor)
            assert sightings == set_rule_sightings(scene, state, sensor)

    @given(
        st.integers(0, 10_000),
        st.integers(3, 40),
        st.integers(3, 48),
        st.sampled_from((0.05, 0.3)),
        st.sampled_from(range(0, 360, 15)),
        st.sampled_from((60.0, 90.0, 120.0, 180.0, 360.0)),
    )
    @settings(max_examples=40, deadline=None)
    def test_known_sightings_at_the_production_range(self, seed, w, h, wall_p, heading, fov):
        # grids narrower than the 41-cell window and observers within 20
        # cells of the top or left edge, where a ray's lowest interior bit
        # lies before the observer's; objects on walls, three on one cell,
        # and on observers' own cells
        blocked = random_bordered_grid(seed, w, h, wall_p)
        free = [(int(x), int(y)) for y, x in np.argwhere(~blocked)]
        near = [c for c in free if c[0] <= 20 or c[1] <= 20]
        if not near:
            return
        rng = np.random.default_rng(seed + 2)
        shared = near[int(rng.integers(len(near)))]
        cells = [shared] * 3 + [(int(rng.integers(w)), int(rng.integers(h))) for _ in range(12)]
        objects = [(f"o{i:02d}", ("cup", "bed", "sink")[i % 3], c) for i, c in enumerate(cells)]
        scene = lab_scene(blocked, objects)
        sensor = SensorConfig(fov_deg=fov)
        assert packed_rays(sensor.range_m, w)[0] == 20
        observers = sorted({c for c in cells if c in near} | {
            near[int(i)] for i in rng.integers(len(near), size=min(len(near), 25))
        })
        got = {}
        for observer in observers:
            state = agent_at(scene, observer, heading)
            after, got[observer] = observe(scene, state, sensor)
            assert after is state
            assert got[observer] == ray_sightings(scene, state, sensor), observer
        assert scene._vis_fields == {}  # the belief is the truth: no field read
        assert any(s.cell == shared for s in got[shared])  # the own cell is seen
        for observer in observers:
            state = agent_at(scene, observer, heading)
            assert got[observer] == set_rule_sightings(scene, state, sensor), observer

    @pytest.mark.parametrize("range_m", (0.25, 1.0, 2.6, 5.0, 7.5))
    def test_fov_bits_equal_the_numpy_bearing_rule(self, range_m):
        offsets = ray_geometry(range_m)[0]
        bearing = np.degrees(np.arctan2(offsets[:, 1], offsets[:, 0])) % 360.0
        for heading in range(0, 360, 15):
            err = (bearing - heading + 180.0) % 360.0 - 180.0
            for fov in (60.0, 90.0, 120.0, 180.0, 360.0):
                want = np.abs(err) <= fov / 2.0 + 1e-9
                bits = fov_bits(range_m, heading, fov)
                assert [bool(bits >> i & 1) for i in range(len(offsets))] == want.tolist()
                assert bits >> len(offsets) == 0
                assert np.array_equal(fov_mask(range_m, heading, fov), want)

    @given(
        st.integers(0, 10_000),
        st.integers(3, 16),
        st.integers(3, 16),
        st.floats(0.25, 3.0),
        st.sampled_from(range(0, 360, 15)),
        st.sampled_from((90.0, 120.0, 360.0)),
        st.sampled_from((0.0, 0.02, 0.3)),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_oracle(self, seed, w, h, range_m, heading, fov, wrong_p, blockage):
        rng = np.random.default_rng(seed)
        blocked = random_bordered_grid(seed, w, h)
        free = [(int(x), int(y)) for y, x in np.argwhere(~blocked)]
        if not free:
            return
        observer = free[int(rng.integers(len(free)))]

        def anywhere():
            return (int(rng.integers(w)), int(rng.integers(h)))

        shared = anywhere()
        objects = [
            ("o0", "cup", observer),
            ("o1", "bed", shared),
            ("o2", "bed", shared),  # ties with o1 on (category, cell)
            ("o3", "cup", shared),
        ] + [(f"o{i}", ("cup", "bed", "sink")[i % 3], anywhere()) for i in range(4, 10)]
        # the gate may hold the observer's own cell: a blockage then closes it
        gates = {free[int(i)] for i in rng.integers(len(free), size=3)}
        if rng.random() < 0.3:
            gates.add(observer)
        scene = lab_scene(blocked, objects, gates=gates)
        if blockage:
            scene = apply_blockage(scene, "c0")

        # a belief with unknown cells, walls believed free and free cells
        # believed walls; wrong_p 0 leaves it true everywhere
        truth = np.where(scene.grid.blocked_array(), BLOCKED, FREE).astype(np.int8)
        draw = rng.random(truth.shape)
        belief = np.where(draw < wrong_p, np.where(truth == FREE, BLOCKED, FREE), truth)
        belief = np.where(rng.random(truth.shape) < wrong_p, UNKNOWN, belief).astype(np.int8)
        # the plan crosses walls believed free, which sensing may reveal
        hidden = [(int(x), int(y)) for y, x in np.argwhere((belief == FREE) & (truth == BLOCKED))]
        path = tuple(anywhere() for _ in range(4)) + tuple(
            hidden[int(i)] for i in rng.permutation(len(hidden))[:4]
        )
        state = AgentState(
            "FH", center_pose(observer, heading), *pack_belief(belief),
            geodesics_of(belief != BLOCKED), ctx_with((Subtask(STOP, None),)),
            plan=Plan(path, path[-1], pack_cells(path, w + 1)) if rng.random() < 0.7 else None,
            pending_blocked_edges=(((1, 1), (1, 2)),) if rng.random() < 0.3 else (),
        )
        observe_like_the_oracle(scene, state, SensorConfig(range_m=range_m, fov_deg=fov))

    @given(
        st.integers(0, 10_000),
        st.integers(3, 64),
        st.integers(3, 64),
        st.sampled_from((0.05, 0.3)),
        st.sampled_from(range(0, 360, 15)),
        st.sampled_from((60.0, 120.0, 360.0)),
        st.sampled_from(("left", "right", "top", "bottom", "anywhere")),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_full_belief_senses_its_wrong_cells_like_the_oracle(
        self, seed, w, h, wall_p, heading, fov, edge, on_gate
    ):
        # a known-mode belief after a blockage: the whole map known, the
        # corridor's gates believed open and some free cells believed
        # walls; gates and wrong cells in range and out of it, in and out
        # of the FOV, in clear sight and occluded, at the 5 m range
        rng = np.random.default_rng(seed)
        blocked = random_bordered_grid(seed, w, h, wall_p)
        free = [(int(x), int(y)) for y, x in np.argwhere(~blocked)]
        if not free:
            return
        reach = {"left": min, "right": max, "top": min, "bottom": max, "anywhere": None}[edge]
        axis = 1 if edge in ("top", "bottom") else 0
        rim = free if reach is None else [
            c for c in free if c[axis] == reach(f[axis] for f in free)
        ]
        observer = rim[int(rng.integers(len(rim)))]
        near = [c for c in free if abs(c[0] - observer[0]) <= 20 and abs(c[1] - observer[1]) <= 20]

        def draw(cells, k):
            return {cells[int(i)] for i in rng.integers(len(cells), size=k)}

        gates = draw(near, 3) | draw(free, 2)
        if on_gate:
            gates.add(observer)
        wrong = (draw(near, 3) | draw(free, 2)) - gates
        objects = [("o0", "cup", observer)] + [
            (f"o{i}", ("cup", "bed")[i % 2], c) for i, c in enumerate(sorted(gates), 1)
        ]
        scene = apply_blockage(lab_scene(blocked, objects, gates=gates), "c0")
        believed = blocked.copy()
        for x, y in wrong:
            believed[y, x] = True
        path = tuple(sorted(gates | wrong))
        state = AgentState(
            "FH", center_pose(observer, heading), pack_mask(np.ones_like(blocked)),
            pack_mask(believed), geodesics_of(~believed), ctx_with((Subtask(STOP, None),)),
            plan=Plan(path, path[-1], pack_cells(path, w + 1)) if rng.random() < 0.7 else None,
        )
        sensor = SensorConfig(fov_deg=fov)
        assert packed_rays(sensor.range_m, w)[0] == 20
        # a full belief reads no visibility field
        assert observe_like_the_oracle(scene, state, sensor) == {}

    def make(self, **kw):
        objects = kw.pop("objects", (("o1", "bottle", (6, 4)), ("o2", "tv", (12, 6))))
        scene = walled_lab(objects=objects)
        state = agent_at(scene, (3, 4), knowledge=kw.pop("knowledge", "discover"), **kw)
        return scene, state

    def test_senses_ahead_and_walls_but_not_behind(self):
        scene, state = self.make()
        state, _ = observe(scene, state, SensorConfig())
        codes = belief_codes(state)
        assert codes[4, 5] == FREE  # open floor ahead
        assert codes[5, 8] == BLOCKED  # wall face is itself visible
        assert codes[4, 1] == UNKNOWN  # behind: outside the 120-degree cone

    def test_sees_through_the_doorway_but_not_the_wall(self):
        scene, state = self.make()
        codes = belief_codes(observe(scene, state, SensorConfig())[0])
        assert codes[4, 12] == FREE  # straight ray through the gap at (8, 4)
        assert codes[6, 12] == UNKNOWN  # off-axis ray hits the wall

    def test_belief_never_contradicts_truth(self):
        scene, state = self.make()
        codes = belief_codes(observe(scene, state, SensorConfig())[0])
        known = codes != UNKNOWN
        assert ((codes == BLOCKED) == scene.grid.blocked_array())[known].all()

    def test_idempotent_from_fixed_pose(self):
        scene, state = self.make()
        s1, sight1 = observe(scene, state, SensorConfig())
        s2, sight2 = observe(scene, s1, SensorConfig())
        assert (s1.known, s1.blocked) == (s2.known, s2.blocked)
        assert sight1 == sight2

    def test_sightings_visible_in_fov_only(self):
        scene, state = self.make()
        _, sightings = observe(scene, state, SensorConfig())
        cats = [o.category for o in sightings]
        assert cats == ["bottle"]  # tv is occluded by the wall
        assert 0.0 < sightings[0].score <= 1.0
        assert sightings[0].cell == (6, 4)

    def test_memo_follows_a_believed_wall_sensed_free(self):
        # a bump can mark a free cell blocked; sensing it free again must
        # give the robot geodesics that pass through it
        scene = walled_lab()
        state = on_blocked(agent_at(scene, (7, 4)), ((7, 4), (8, 4)))
        assert state.geodesics.steps((7, 4), (9, 4)) == -1
        state, _ = observe(scene, state, SensorConfig())
        assert belief_codes(state)[4, 8] == FREE
        assert state.geodesics.steps((7, 4), (9, 4)) == 2

    def test_newly_blocked_edge_on_flipped_cell_and_plan_drop(self):
        open_scene = walled_lab()
        closed_scene = walled_lab(gap=False)
        state = agent_at(open_scene, (3, 4), knowledge="known")
        path = bfs_shortest_path(open_scene.grid.geodesics(), (3, 4), (13, 4))
        state = replace(state, plan=Plan(tuple(path), (13, 4), open_scene.grid.mask(path)))
        state, _ = observe(closed_scene, state, SensorConfig())
        assert ((3, 4), (8, 4)) in state.pending_blocked_edges
        assert belief_codes(state)[4, 8] == BLOCKED
        assert state.plan is None  # the flipped cell was on the planned path


class TestPlanning:
    def test_known_plan_matches_true_shortest_path(self):
        scene = walled_lab()
        state = agent_at(scene, (2, 4))
        plan = plan_to(state, (13, 4))
        want = bfs_shortest_path(scene.grid.geodesics(), (2, 4), (13, 4))
        assert plan.path == tuple(want)
        assert plan.goal == (13, 4) and not plan.frontier
        assert (8, 4) in plan.path  # the only way across is the doorway

    def test_unknown_cells_planned_through_optimistically(self):
        scene = walled_lab()
        state = agent_at(scene, (2, 4), knowledge="discover")
        plan = plan_to(state, (13, 4))
        # belief is almost all unknown, so the believed route is the beeline
        assert len(plan.path) == 12
        assert not plan.frontier

    def test_frontier_fallback_without_goal(self):
        scene = walled_lab()
        state = agent_at(scene, (3, 4), knowledge="discover")
        state, _ = observe(scene, state, SensorConfig())
        plan = plan_to(state, None)
        assert plan.frontier and plan.goal is not None
        gx, gy = plan.goal
        codes = belief_codes(state)
        assert codes[gy, gx] == FREE
        neighbors = [(gx + 1, gy), (gx - 1, gy), (gx, gy + 1), (gx, gy - 1)]
        assert any(codes[ny, nx] == UNKNOWN for nx, ny in neighbors)

    def test_stuck_when_unreachable_and_fully_known(self):
        scene = walled_lab(gap=False)
        state = agent_at(scene, (2, 4))
        plan = plan_to(state, (13, 4))
        assert plan.path == () and plan.goal is None

    def test_ensure_plan_keeps_valid_plans(self):
        scene = walled_lab()
        state = ensure_plan(agent_at(scene, (2, 4)))
        assert state.plan is not None and state.plan.path
        again = ensure_plan(state)
        assert again is state

    def test_ensure_plan_replans_after_block(self):
        scene = walled_lab()
        state = ensure_plan(agent_at(scene, (2, 4)))
        bumped = on_blocked(state,ire := (state.cell, state.plan.path[1]))
        replanned = ensure_plan(bumped)
        assert replanned.plan is not None
        assert ire[1] not in replanned.plan.path

    def test_replans_around_a_bumped_cell_mid_plan(self):
        # the first plan leaves the field to the goal in the robot's memo;
        # a bump on a later cell of that plan must not be planned through
        scene = walled_lab()
        state = ensure_plan(agent_at(scene, (2, 4)))
        old_memo = state.geodesics
        cut = state.plan.path[4]
        bumped = on_blocked(state, (state.plan.path[3], cut))
        assert bumped.geodesics is not old_memo
        replanned = ensure_plan(bumped)
        assert cut not in replanned.plan.path
        want = bfs_shortest_path(geodesics_of(belief_codes(bumped) != BLOCKED), (2, 4), (13, 4))
        assert replanned.plan.path == tuple(want)

    def test_plan_clear_in_a_belief_crosses_its_bumped_copy(self):
        scene = walled_lab()
        state = ensure_plan(agent_at(scene, (2, 4)))
        plan, blocked = state.plan, state.blocked
        assert not plan.crosses_blocked(blocked)
        cut = plan.path[4]
        bumped = on_blocked(state, (plan.path[3], cut))
        assert bumped.blocked != blocked
        assert plan.crosses_blocked(bumped.blocked)
        assert not plan.crosses_blocked(state.blocked)  # the original is unwritten

    def test_plan_clear_in_a_belief_crosses_its_observed_copy(self):
        # the plan runs through the doorway; sensing the closed scene writes
        # the doorway blocked into the new state's belief
        state = ensure_plan(agent_at(walled_lab(), (3, 4)))
        plan, blocked = state.plan, state.blocked
        assert (8, 4) in plan.path
        assert not plan.crosses_blocked(blocked)
        sensed, _ = observe(walled_lab(gap=False), state, SensorConfig())
        assert sensed.blocked != blocked and belief_codes(sensed)[4, 8] == BLOCKED
        assert plan.crosses_blocked(sensed.blocked)
        assert not plan.crosses_blocked(state.blocked)

    def test_memo_follows_the_current_belief_only(self):
        # a discover-mode walk through the doorway: the belief gains walls on
        # most ticks; the geodesics must run over the cells the current
        # belief does not hold blocked, be kept while those stay the same,
        # and never answer for an older belief
        scene = walled_lab()
        state = agent_at(scene, (2, 4), knowledge="discover")
        kept = replaced = 0
        for now in range(60):
            before = state.geodesics
            state, _ = observe(scene, state, SensorConfig())
            state = ensure_plan(state)
            action = next_action(state, 0.05, 0.05)
            pose, bumped = step_kinematics(scene, state.pose, action)
            if bumped:
                state = on_blocked(state, (state.cell, state.plan.path[1]))
            else:
                state = replace(state, pose=pose)
            geo = state.geodesics
            grid = scene.grid
            assert geo.free == packed_rect(grid.width, grid.height, grid.stride) ^ state.blocked
            codes = belief_codes(state)
            assert geo.free == geodesics_of(codes != BLOCKED).free
            cx, cy = state.cell
            for target in ((13, 4), state.plan.goal if state.plan else None):
                if target is not None:
                    want = bfs_distance_field(codes == BLOCKED, target)[cy, cx]
                    assert geo.steps(state.cell, target) == want
                    path = bfs_shortest_path(geo, state.cell, target)
                    assert (path is None) == (want < 0)
                    assert path is None or len(path) - 1 == want
            if geo is before:
                kept += 1
            else:
                replaced += 1
        assert kept and replaced

    @given(
        st.integers(0, 10_000),
        st.integers(1, 12),
        st.integers(1, 12),
        st.floats(0.0, 0.8),
        st.floats(0.0, 0.5),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_nearest_frontier_equals_the_field_choice(self, seed, w, h, unknown_p, wall_p, data):
        """The layer search picks the frontier the distance field picks, on
        beliefs mixing UNKNOWN, FREE and BLOCKED cells, from any start."""
        rng = np.random.default_rng(seed)
        draw = rng.random((h, w))
        belief = np.where(
            draw < unknown_p, UNKNOWN, np.where(draw < unknown_p + wall_p, BLOCKED, FREE)
        ).astype(np.int8)
        start = data.draw(st.tuples(st.integers(0, w - 1), st.integers(0, h - 1)))
        got = _nearest_frontier(*pack_belief(belief), w, h, start)
        assert got == field_nearest_frontier(belief, start)

    @given(
        st.integers(0, 10_000),
        st.integers(1, 12),
        st.integers(1, 12),
        st.floats(0.0, 0.8),
        st.floats(0.0, 0.5),
        st.booleans(),
    )
    @example(seed=1, w=1, h=6, unknown_p=0.4, wall_p=0.2, edges_unknown=False)
    @example(seed=2, w=7, h=1, unknown_p=0.4, wall_p=0.2, edges_unknown=False)
    @example(seed=3, w=5, h=4, unknown_p=0.0, wall_p=0.0, edges_unknown=True)
    @settings(max_examples=200, deadline=None)
    def test_packed_frontiers_equal_the_array_frontiers(
        self, seed, w, h, unknown_p, wall_p, edges_unknown
    ):
        """The shifted unknown mask finds the frontiers the array
        neighbourhood finds, on grids one cell wide or high and with unknown
        cells in the first and last columns, where a shift lands on a guard
        bit."""
        draw = np.random.default_rng(seed).random((h, w))
        belief = np.where(
            draw < unknown_p, UNKNOWN, np.where(draw < unknown_p + wall_p, BLOCKED, FREE)
        ).astype(np.int8)
        if edges_unknown:
            belief[:, 0] = belief[:, -1] = UNKNOWN
        assert _frontiers(*pack_belief(belief), w, h) == pack_mask(frontier_mask(belief))

    def test_ensure_plan_for_terminal_stop(self):
        scene = walled_lab()
        state = agent_at(scene, (2, 4), chain=(Subtask(STOP, None),))
        state = ensure_plan(state)
        assert state.plan is not None and state.plan.path == ()


class TestNextAction:
    def test_stop_inside_arrival_radius(self):
        scene = walled_lab()
        state = agent_at(scene, (13, 4), chain=(Subtask(GOTO_PICKUP, (13, 4)), Subtask(STOP, None)))
        state = ensure_plan(state)
        assert next_action(state, 1.0, 0.5) == ACTION_STOP

    def test_forward_when_aligned(self):
        scene = walled_lab()
        state = ensure_plan(agent_at(scene, (2, 4), heading=0))
        assert state.plan.path[1] == (3, 4)
        assert next_action(state, 0.05, 0.05) == ACTION_FORWARD

    def test_turns_toward_bearing_error(self):
        scene = walled_lab()
        up = ensure_plan(agent_at(scene, (2, 4), heading=90))
        assert next_action(up, 0.05, 0.05) == ACTION_LEFT  # -90 error: 90 -> 0
        down = ensure_plan(agent_at(scene, (2, 4), heading=270))
        assert next_action(down, 0.05, 0.05) == ACTION_RIGHT  # +90 error: 270 -> 360

    def test_exact_180_tie_turns_right(self):
        scene = walled_lab()
        state = agent_at(scene, (2, 4), heading=0, chain=(Subtask(GOTO_PICKUP, (1, 4)), Subtask(STOP, None)))
        state = ensure_plan(state)
        assert state.plan.path[1] == (1, 4)
        assert next_action(state, 0.05, 0.05) == ACTION_RIGHT

    def test_scans_in_place_on_reached_frontier(self):
        scene = walled_lab()
        state = agent_at(scene, (2, 4), knowledge="discover")
        plan = Plan(((2, 4),), (2, 4), scene.grid.mask([(2, 4)]), frontier=True)
        state = replace(state, plan=plan)
        assert next_action(state, 0.05, 0.05) == ACTION_LEFT

    def test_stopped_robot_stays_stopped(self):
        scene = walled_lab()
        state = agent_at(scene, (2, 4))
        state = replace(state, stopped=True)
        assert next_action(state, 1.0, 0.5) == ACTION_STOP

    def test_interaction_inside_radius_stops_for_commit(self):
        scene = walled_lab()
        state = agent_at(scene, (6, 4), chain=(Subtask(PICK_UP, (6, 4)), Subtask(STOP, None)))
        state = ensure_plan(state)
        assert next_action(state, 1.0, 0.5) == ACTION_STOP


class TestBookkeeping:
    def test_on_blocked_marks_and_queues_once(self):
        scene = walled_lab()
        state = ensure_plan(agent_at(scene, (2, 4)))
        edge = ((2, 4), (3, 4))
        hit = on_blocked(state, edge)
        assert belief_codes(hit)[4, 3] == BLOCKED
        assert hit.plan is None
        assert hit.pending_blocked_edges == (edge,)
        again = on_blocked(hit, edge)
        assert again.pending_blocked_edges == (edge,)

    def test_advance_subtask_pops_priority_head(self):
        scene = walled_lab()
        chain = (
            Subtask(GOTO_PICKUP, (6, 4)),
            Subtask(PICK_UP, (6, 4)),
            Subtask(STOP, None),
        )
        state = agent_at(scene, (2, 4), chain=chain)
        advanced = advance_subtask(state, now=7)
        assert advanced.policy_ctx.chain == chain[1:]
        assert advanced.completed_last_tick == GOTO_PICKUP
        assert advanced.subtasks_done == 1
        assert advanced.policy_ctx.last_progress_tick == 7
        assert advanced.plan is None and math.isinf(advanced.best_steps)

    def test_note_progress_updates_only_on_improvement(self):
        scene = walled_lab()
        state = ensure_plan(agent_at(scene, (2, 4)))
        touched = note_progress(state, now=4)
        assert touched.policy_ctx.last_progress_tick == 4
        assert touched.best_steps == len(state.plan.path) - 1
        stale = note_progress(touched, now=9)
        assert stale.policy_ctx.last_progress_tick == 4

    def test_drain_signals_returns_and_clears(self):
        scene = walled_lab()
        state = agent_at(scene, (2, 4))
        edge = ((2, 4), (3, 4))
        state = replace(
            state, completed_last_tick=GOTO_PICKUP, pending_blocked_edges=(edge,)
        )
        drained, completed, edges = drain_signals(state)
        assert completed == GOTO_PICKUP and edges == (edge,)
        assert drained.completed_last_tick is None and drained.pending_blocked_edges == ()
        same, completed, edges = drain_signals(drained)
        assert same is drained and completed is None and edges == ()


class TestEvolve:
    def changes(self):
        scene = walled_lab()
        other = agent_at(scene, (5, 5), heading=90)
        ctx = ctx_with([Subtask(STOP, None)])
        return agent_at(scene, (3, 4)), {
            AgentState: {
                "robot_id": "SH",
                "pose": other.pose,
                "known": other.known,
                "blocked": other.blocked,
                "geodesics": other.geodesics,
                "policy_ctx": ctx,
                "carrying": True,
                "stopped": True,
                "plan": Plan(((3, 4),), (3, 4), scene.grid.mask([(3, 4)])),
                "best_steps": 4.0,
                "completed_last_tick": GOTO_PICKUP,
                "pending_blocked_edges": (((3, 4), (4, 4)),),
                "subtasks_done": 2,
            },
            PolicyContext: {
                "robot_id": "SH",
                "target_category": "cup",
                "chain": ctx.chain,
                "last_progress_tick": 7,
                "target_found": True,
            },
        }

    @pytest.mark.parametrize("cls", [AgentState, PolicyContext], ids=lambda c: c.__name__)
    def test_equals_dataclasses_replace_field_for_field(self, cls):
        state, changes = self.changes()
        record = state if cls is AgentState else state.policy_ctx
        names = [f.name for f in dataclasses.fields(cls)]
        assert sorted(changes[cls]) == sorted(names)
        for kw in [{k: v} for k, v in changes[cls].items()] + [changes[cls]]:
            got, want = evolve(record, **kw), replace(record, **kw)
            assert type(got) is cls and got is not record
            for name in names:
                assert getattr(got, name) is getattr(want, name)
        assert evolve(record).__dict__ == record.__dict__

    @pytest.mark.parametrize("cls", [AgentState, PolicyContext], ids=lambda c: c.__name__)
    def test_unknown_field_raises_type_error(self, cls):
        state, _ = self.changes()
        record = state if cls is AgentState else state.policy_ctx
        with pytest.raises(TypeError):
            replace(record, speed=1.0)
        with pytest.raises(TypeError, match="speed"):
            evolve(record, carrying=True, speed=1.0)

    @pytest.mark.parametrize("cls", [AgentState, PolicyContext], ids=lambda c: c.__name__)
    def test_targets_have_no_init_hooks_to_bypass(self, cls):
        # evolve skips __init__: a validation hook or a derived field added
        # later would be bypassed, so either one must move evolve off the class
        assert not hasattr(cls, "__post_init__")
        assert all(f.init for f in dataclasses.fields(cls))
