"""Per-robot policy: belief maps, sensing, optimistic planning, steering."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaynav.agent import (
    BLOCKED,
    FREE,
    UNKNOWN,
    Plan,
    advance_subtask,
    drain_signals,
    ensure_plan,
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
from relaynav.replan import PolicyContext, identity_priorities
from relaynav.tasks import GOTO_PICKUP, PICK_UP, STOP, Subtask
from relaynav.world import (
    ACTION_FORWARD,
    ACTION_LEFT,
    ACTION_RIGHT,
    ACTION_STOP,
    bfs_shortest_path,
)

from support import center_pose, lab_scene, random_bordered_grid, walled_lab


def ctx_with(chain):
    return PolicyContext(
        robot_id="FH",
        target_category="bottle",
        chain=tuple(chain),
        priorities=identity_priorities(tuple(chain)),
    )


def agent_at(scene, cell, heading=0, chain=None, knowledge="known"):
    chain = chain if chain is not None else (Subtask(GOTO_PICKUP, (13, 4)), Subtask(STOP, None))
    return make_agent(scene, "FH", center_pose(cell, heading), ctx_with(chain), knowledge)


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


class TestBelief:
    def test_known_belief_mirrors_occupancy(self):
        scene = walled_lab()
        belief = initial_belief(scene, "known")
        assert ((belief == BLOCKED) == scene.grid.blocked).all()
        assert (belief[~scene.grid.blocked] == FREE).all()

    def test_discover_belief_starts_unknown_except_start(self):
        scene = walled_lab()
        state = agent_at(scene, (3, 4), knowledge="discover")
        assert state.belief[4, 3] == FREE
        assert (state.belief == UNKNOWN).sum() == state.belief.size - 1

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

    def make(self, **kw):
        objects = kw.pop("objects", (("o1", "bottle", (6, 4)), ("o2", "tv", (12, 6))))
        scene = walled_lab(objects=objects)
        state = agent_at(scene, (3, 4), knowledge=kw.pop("knowledge", "discover"), **kw)
        return scene, state

    def test_senses_ahead_and_walls_but_not_behind(self):
        scene, state = self.make()
        state, _ = observe(scene, state, SensorConfig())
        assert state.belief[4, 5] == FREE  # open floor ahead
        assert state.belief[5, 8] == BLOCKED  # wall face is itself visible
        assert state.belief[4, 1] == UNKNOWN  # behind: outside the 120-degree cone

    def test_sees_through_the_doorway_but_not_the_wall(self):
        scene, state = self.make()
        state, _ = observe(scene, state, SensorConfig())
        assert state.belief[4, 12] == FREE  # straight ray through the gap at (8, 4)
        assert state.belief[6, 12] == UNKNOWN  # off-axis ray hits the wall

    def test_belief_never_contradicts_truth(self):
        scene, state = self.make()
        state, _ = observe(scene, state, SensorConfig())
        known = state.belief != UNKNOWN
        assert ((state.belief == BLOCKED) == scene.grid.blocked)[known].all()

    def test_idempotent_from_fixed_pose(self):
        scene, state = self.make()
        s1, sight1 = observe(scene, state, SensorConfig())
        s2, sight2 = observe(scene, s1, SensorConfig())
        assert (s1.belief == s2.belief).all()
        assert sight1 == sight2

    def test_sightings_visible_in_fov_only(self):
        scene, state = self.make()
        _, sightings = observe(scene, state, SensorConfig())
        cats = [o.category for o in sightings]
        assert cats == ["bottle"]  # tv is occluded by the wall
        assert 0.0 < sightings[0].score <= 1.0
        assert sightings[0].cell == (6, 4)

    def test_newly_blocked_edge_on_flipped_cell_and_plan_drop(self):
        open_scene = walled_lab()
        closed_scene = walled_lab(gap=False)
        state = agent_at(open_scene, (3, 4), knowledge="known")
        path = bfs_shortest_path(~open_scene.grid.blocked, (3, 4), (13, 4))
        state = replace(state, plan=Plan(tuple(path), 0, (13, 4)))
        state, _ = observe(closed_scene, state, SensorConfig())
        assert ((3, 4), (8, 4)) in state.pending_blocked_edges
        assert state.belief[4, 8] == BLOCKED
        assert state.plan is None  # the flipped cell was on the planned path


class TestPlanning:
    def test_known_plan_matches_true_shortest_path(self):
        scene = walled_lab()
        state = agent_at(scene, (2, 4))
        plan = plan_to(state, (13, 4), now=0)
        want = bfs_shortest_path(~scene.grid.blocked, (2, 4), (13, 4))
        assert plan.path == tuple(want)
        assert plan.goal == (13, 4) and not plan.frontier
        assert (8, 4) in plan.path  # the only way across is the doorway

    def test_unknown_cells_planned_through_optimistically(self):
        scene = walled_lab()
        state = agent_at(scene, (2, 4), knowledge="discover")
        plan = plan_to(state, (13, 4), now=0)
        # belief is almost all unknown, so the believed route is the beeline
        assert len(plan.path) == 12
        assert not plan.frontier

    def test_frontier_fallback_without_goal(self):
        scene = walled_lab()
        state = agent_at(scene, (3, 4), knowledge="discover")
        state, _ = observe(scene, state, SensorConfig())
        plan = plan_to(state, None, now=1)
        assert plan.frontier and plan.goal is not None
        gx, gy = plan.goal
        assert state.belief[gy, gx] == FREE
        neighbors = [(gx + 1, gy), (gx - 1, gy), (gx, gy + 1), (gx, gy - 1)]
        assert any(state.belief[ny, nx] == UNKNOWN for nx, ny in neighbors)

    def test_stuck_when_unreachable_and_fully_known(self):
        scene = walled_lab(gap=False)
        state = agent_at(scene, (2, 4))
        plan = plan_to(state, (13, 4), now=0)
        assert plan.path == () and plan.goal is None

    def test_ensure_plan_keeps_valid_plans(self):
        scene = walled_lab()
        state = ensure_plan(agent_at(scene, (2, 4)), now=0)
        assert state.plan is not None and state.plan.path
        again = ensure_plan(state, now=5)
        assert again is state

    def test_ensure_plan_replans_after_block(self):
        scene = walled_lab()
        state = ensure_plan(agent_at(scene, (2, 4)), now=0)
        bumped = on_blocked(state,ire := (state.cell, state.plan.path[1]), now=1)
        replanned = ensure_plan(bumped, now=1)
        assert replanned.plan is not None
        assert ire[1] not in replanned.plan.path

    def test_ensure_plan_for_terminal_stop(self):
        scene = walled_lab()
        state = agent_at(scene, (2, 4), chain=(Subtask(STOP, None),))
        state = ensure_plan(state, now=0)
        assert state.plan is not None and state.plan.path == ()


class TestNextAction:
    def test_stop_inside_arrival_radius(self):
        scene = walled_lab()
        state = agent_at(scene, (13, 4), chain=(Subtask(GOTO_PICKUP, (13, 4)), Subtask(STOP, None)))
        state = ensure_plan(state, now=0)
        assert next_action(state, 1.0, 0.5) == ACTION_STOP

    def test_forward_when_aligned(self):
        scene = walled_lab()
        state = ensure_plan(agent_at(scene, (2, 4), heading=0), now=0)
        assert state.plan.path[1] == (3, 4)
        assert next_action(state, 0.05, 0.05) == ACTION_FORWARD

    def test_turns_toward_bearing_error(self):
        scene = walled_lab()
        up = ensure_plan(agent_at(scene, (2, 4), heading=90), now=0)
        assert next_action(up, 0.05, 0.05) == ACTION_LEFT  # -90 error: 90 -> 0
        down = ensure_plan(agent_at(scene, (2, 4), heading=270), now=0)
        assert next_action(down, 0.05, 0.05) == ACTION_RIGHT  # +90 error: 270 -> 360

    def test_exact_180_tie_turns_right(self):
        scene = walled_lab()
        state = agent_at(scene, (2, 4), heading=0, chain=(Subtask(GOTO_PICKUP, (1, 4)), Subtask(STOP, None)))
        state = ensure_plan(state, now=0)
        assert state.plan.path[1] == (1, 4)
        assert next_action(state, 0.05, 0.05) == ACTION_RIGHT

    def test_scans_in_place_on_reached_frontier(self):
        scene = walled_lab()
        state = agent_at(scene, (2, 4), knowledge="discover")
        state = replace(state, plan=Plan(((2, 4),), 0, (2, 4), frontier=True))
        assert next_action(state, 0.05, 0.05) == ACTION_LEFT

    def test_stopped_robot_stays_stopped(self):
        scene = walled_lab()
        state = agent_at(scene, (2, 4))
        state = replace(state, stopped=True)
        assert next_action(state, 1.0, 0.5) == ACTION_STOP

    def test_interaction_inside_radius_stops_for_commit(self):
        scene = walled_lab()
        state = agent_at(scene, (6, 4), chain=(Subtask(PICK_UP, (6, 4)), Subtask(STOP, None)))
        state = ensure_plan(state, now=0)
        assert next_action(state, 1.0, 0.5) == ACTION_STOP


class TestBookkeeping:
    def test_on_blocked_marks_and_queues_once(self):
        scene = walled_lab()
        state = ensure_plan(agent_at(scene, (2, 4)), now=0)
        edge = ((2, 4), (3, 4))
        hit = on_blocked(state, edge, now=1)
        assert hit.belief[4, 3] == BLOCKED
        assert hit.plan is None
        assert hit.pending_blocked_edges == (edge,)
        again = on_blocked(hit, edge, now=2)
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
        assert advanced.policy_ctx.priorities == (0, 1)
        assert advanced.completed_last_tick == GOTO_PICKUP
        assert advanced.subtasks_done == 1
        assert advanced.policy_ctx.last_progress_tick == 7
        assert advanced.plan is None and math.isinf(advanced.best_steps)

    def test_advance_respects_reordered_priorities(self):
        scene = walled_lab()
        chain = (
            Subtask(GOTO_PICKUP, (6, 4)),
            Subtask(PICK_UP, (6, 4)),
            Subtask(STOP, None),
        )
        state = agent_at(scene, (2, 4), chain=chain)
        state = replace(
            state, policy_ctx=replace(state.policy_ctx, priorities=(1, 0, 2))
        )
        advanced = advance_subtask(state, now=3)
        assert advanced.policy_ctx.chain == (chain[0], chain[2])
        assert advanced.policy_ctx.priorities == (0, 1)

    def test_note_progress_updates_only_on_improvement(self):
        scene = walled_lab()
        state = ensure_plan(agent_at(scene, (2, 4)), now=0)
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
