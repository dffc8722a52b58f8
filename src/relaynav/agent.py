"""Deterministic per-robot navigation policy under partial observability.

Each robot keeps a believed occupancy map (unknown / free / blocked), senses
cells and objects through the shared visibility field, plans optimistically
(unknown counts as traversable, falling back to the nearest frontier when no
believed route exists), and steers with the discrete 15-degree action set.
All transitions are pure functions of the visible state — the policy holds
no hidden randomness, which is what makes rollouts replayable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bus import Observation
from .config import SensorConfig
from .gates import DistanceFalloffScorer
from .replan import PolicyContext
from .tasks import STOP as TASK_STOP, Subtask
from .world import (
    ACTION_FORWARD,
    ACTION_LEFT,
    ACTION_RIGHT,
    ACTION_STOP,
    FORWARD_M,
    Cell,
    NEIGHBORS_4,
    Pose,
    SceneGraph,
    bfs_distance_field,
    bfs_shortest_path,
    fov_mask,
    wrap_angle,
)

UNKNOWN = np.int8(0)
FREE = np.int8(1)
BLOCKED = np.int8(2)

_BEARING_TOL = 7.5
_EPS = 1e-9


@dataclass(frozen=True)
class Plan:
    """Cell path to the current navigation goal, inclusive of both ends.

    ``frontier`` marks exploratory plans whose goal is a frontier cell rather
    than the subtask waypoint itself.
    """

    path: tuple[Cell, ...]
    version: int
    goal: Cell | None
    frontier: bool = False

    def steps_remaining_from(self, cell: Cell) -> int | None:
        try:
            idx = self.path.index(cell)
        except ValueError:
            return None
        return len(self.path) - 1 - idx


@dataclass(frozen=True, eq=False)
class AgentState:
    robot_id: str
    pose: Pose
    belief: np.ndarray  # int8 grid [cy, cx]: UNKNOWN / FREE / BLOCKED
    policy_ctx: PolicyContext
    carrying: bool = False
    stopped: bool = False
    plan: Plan | None = None
    best_steps: float = math.inf
    completed_last_tick: str | None = None
    pending_blocked_edges: tuple[tuple[Cell, Cell], ...] = ()
    subtasks_done: int = 0

    @property
    def cell(self) -> Cell:
        return (
            int(math.floor(self.pose.x / FORWARD_M)),
            int(math.floor(self.pose.y / FORWARD_M)),
        )

    @property
    def last_progress_tick(self) -> int:
        return self.policy_ctx.last_progress_tick

    def active_subtask(self) -> Subtask | None:
        return self.policy_ctx.active_subtask()


def initial_belief(scene: SceneGraph, knowledge: str) -> np.ndarray:
    """Starting occupancy belief: the full map when known a priori, else all
    unknown. Scheduled blockages are never part of prior knowledge."""
    if knowledge == "known":
        return np.where(scene.grid.blocked, BLOCKED, FREE).astype(np.int8)
    if knowledge == "discover":
        h, w = scene.grid.blocked.shape
        return np.full((h, w), UNKNOWN, dtype=np.int8)
    raise ValueError(f"unknown knowledge mode {knowledge!r}")


def make_agent(
    scene: SceneGraph,
    robot_id: str,
    pose: Pose,
    policy_ctx: PolicyContext,
    knowledge: str = "known",
) -> AgentState:
    belief = initial_belief(scene, knowledge)
    cell = scene.grid.cell_of(pose.x, pose.y)
    belief[cell[1], cell[0]] = FREE
    return AgentState(robot_id=robot_id, pose=pose, belief=belief, policy_ctx=policy_ctx)


# --- sensing --------------------------------------------------------------


def observe(
    scene: SceneGraph, state: AgentState, sensor: SensorConfig
) -> tuple[AgentState, tuple[Observation, ...]]:
    """Sense all cells within range, field of view, and line of sight.

    Sensed cells become known in the belief (walls included — occlusion is
    interior to the ray, so a blocked cell at its end is itself seen), and
    visible objects (on the robot's cell, or at an offset whose row of the
    field's offset table is sensed) yield scored observations. Ray geometry
    and FOV masks are per process, visibility masks per scene (see
    :class:`~relaynav.world.VisibilityField`). Deterministic and, from a
    fixed pose on a fixed world, idempotent on the belief.
    """
    vis = scene.visibility(sensor.range_m)
    cell = state.cell
    mask = vis.visible_offsets(cell) & fov_mask(
        scene.grid.resolution, sensor.range_m, state.pose.heading, sensor.fov_deg
    )
    cells = vis.offsets[mask] + np.array(cell, dtype=np.int32)

    belief = state.belief.copy()
    belief[cell[1], cell[0]] = BLOCKED if scene.grid.blocked[cell[1], cell[0]] else FREE
    truth = scene.grid.blocked[cells[:, 1], cells[:, 0]]
    belief[cells[:, 1], cells[:, 0]] = np.where(truth, BLOCKED, FREE)

    was = state.belief[cells[:, 1], cells[:, 0]]
    flipped = truth & (was != BLOCKED) & (was != UNKNOWN)
    newly_blocked = sorted((cell, (int(bx), int(by))) for bx, by in cells[flipped])

    scorer = DistanceFalloffScorer(sensor.range_m)
    sightings = []
    for oid in sorted(scene.objects):
        obj = scene.objects[oid]
        row = vis.offset_row(obj.cell[0] - cell[0], obj.cell[1] - cell[1])
        if obj.cell == cell or (row >= 0 and mask[row]):
            score = scorer.score(scene, state.pose, obj)
            if score > 0.0:
                sightings.append(Observation(obj.category, obj.cell, round(score, 6)))
    sightings.sort(key=lambda o: (o.category, o.cell))

    new_state = replace(
        state,
        belief=belief,
        pending_blocked_edges=state.pending_blocked_edges + tuple(newly_blocked),
    )
    if newly_blocked and state.plan is not None:
        blocked_cells = {e[1] for e in newly_blocked}
        if any(c in blocked_cells for c in state.plan.path):
            new_state = replace(new_state, plan=None)
    return new_state, tuple(sightings)


# --- planning -------------------------------------------------------------


def _passable(belief: np.ndarray) -> np.ndarray:
    return belief != BLOCKED


def _frontier_mask(belief: np.ndarray) -> np.ndarray:
    """Known-free cells 4-adjacent to at least one unknown cell."""
    unknown = belief == UNKNOWN
    adj = np.zeros_like(unknown)
    adj[:, :-1] |= unknown[:, 1:]
    adj[:, 1:] |= unknown[:, :-1]
    adj[:-1, :] |= unknown[1:, :]
    adj[1:, :] |= unknown[:-1, :]
    return (belief == FREE) & adj


def _nearest_frontier(belief: np.ndarray, start: Cell) -> Cell | None:
    """Closest known-free cell adjacent to an unknown cell, by BFS over
    known-free cells; ties resolve to the smallest (x, y)."""
    if belief[start[1], start[0]] != FREE:
        return None
    mask = _frontier_mask(belief)
    if not mask.any():
        return None
    dist = bfs_distance_field(belief != FREE, start)
    reach = mask & (dist >= 0)
    if not reach.any():
        return None
    ys, xs = np.nonzero(reach)
    order = np.lexsort((ys, xs, dist[ys, xs]))[0]
    return (int(xs[order]), int(ys[order]))


def plan_to(state: AgentState, goal: Cell | None, now: int) -> Plan:
    """Shortest believed path to the goal, unknown cells traversable.

    With no goal (waypoint not yet anchored) or no believed route, target the
    nearest frontier instead; with neither a route nor a frontier the empty
    plan tells the caller the agent is stuck.
    """
    start = state.cell
    if goal is not None:
        path = bfs_shortest_path(_passable(state.belief), start, goal)
        if path is not None:
            return Plan(tuple(path), now, goal)
    frontier = _nearest_frontier(state.belief, start)
    if frontier is not None:
        path = bfs_shortest_path(_passable(state.belief), start, frontier)
        if path is not None:
            return Plan(tuple(path), now, frontier, frontier=True)
    return Plan((), now, None)


def _still_frontier(belief: np.ndarray, cell: Cell) -> bool:
    if belief[cell[1], cell[0]] != FREE:
        return False
    h, w = belief.shape
    for dx, dy in NEIGHBORS_4:
        nx, ny = cell[0] + dx, cell[1] + dy
        if 0 <= nx < w and 0 <= ny < h and belief[ny, nx] == UNKNOWN:
            return True
    return False


def ensure_plan(state: AgentState, now: int) -> AgentState:
    """Replan when there is no current plan, the active waypoint changed, the
    robot left the planned path, or the path crosses believed-blocked cells.

    Frontier plans are sticky: they persist until the chosen frontier is
    consumed by sensing (or the path breaks), not merely because a nearer
    frontier appeared. Re-deriving every tick makes the explorer oscillate
    between fronts and spend nearly all its ticks turning.
    """
    if state.stopped:
        return state
    active = state.active_subtask()
    if active is None or active.kind == TASK_STOP:
        # terminal phase needs no route; next_action stops unconditionally
        if state.plan is not None and not state.plan.path:
            return state
        return replace(state, plan=Plan((), now, None))
    goal = active.waypoint
    plan = state.plan
    if (
        plan is not None
        and plan.path
        and plan.steps_remaining_from(state.cell) is not None
        and all(state.belief[cy, cx] != BLOCKED for cx, cy in plan.path)
    ):
        if not plan.frontier and plan.goal == goal:
            return state
        if plan.frontier and _still_frontier(state.belief, plan.goal):
            return state
    return replace(state, plan=plan_to(state, goal, now))


# --- action selection -----------------------------------------------------


def _within(pose: Pose, cell: Cell, radius_m: float, resolution: float) -> bool:
    cx, cy = (cell[0] + 0.5) * resolution, (cell[1] + 0.5) * resolution
    return math.hypot(cx - pose.x, cy - pose.y) <= radius_m + _EPS


def next_action(state: AgentState, r_succ: float, r_int: float, resolution: float = 0.25) -> str:
    """Pure action choice for the current tick.

    Goto subtasks stop inside the arrival radius; interactions stop inside
    the interaction radius and let the commit guards resolve them; otherwise
    rotate toward the next path cell until the bearing error falls inside the
    7.5-degree dead-band, then step forward. The exact-180 tie turns right.
    """
    if state.stopped:
        return ACTION_STOP
    active = state.active_subtask()
    if active is None or active.kind == TASK_STOP:
        return ACTION_STOP
    if active.is_goto() and active.waypoint is not None and _within(
        state.pose, active.waypoint, r_succ, resolution
    ):
        return ACTION_STOP
    if active.is_interaction():
        anchor = active.waypoint if active.waypoint is not None else None
        if anchor is not None and _within(state.pose, anchor, r_int, resolution):
            return ACTION_STOP
    plan = state.plan
    if plan is None or not plan.path:
        return ACTION_STOP
    steps = plan.steps_remaining_from(state.cell)
    if steps is None:
        return ACTION_STOP
    if steps == 0:
        # standing on a frontier: scan in place to reveal the unknown side
        return ACTION_LEFT if plan.frontier else ACTION_STOP
    idx = len(plan.path) - 1 - steps
    nxt = plan.path[idx + 1]
    tx, ty = (nxt[0] + 0.5) * resolution, (nxt[1] + 0.5) * resolution
    desired = math.degrees(math.atan2(ty - state.pose.y, tx - state.pose.x))
    err = wrap_angle(desired - state.pose.heading)
    if abs(err) <= _BEARING_TOL + _EPS:
        return ACTION_FORWARD
    # positive error = target on the +y side = clockwise in grid coordinates
    # = turn_right, which also absorbs the exact-180 tie
    return ACTION_RIGHT if err > 0 else ACTION_LEFT


def on_blocked(state: AgentState, edge: tuple[Cell, Cell], now: int) -> AgentState:
    """Record a bump: mark the far cell believed-blocked, invalidate the
    plan, and queue the edge for event extraction. Re-hitting a
    believed-blocked edge queues nothing new."""
    (ax, ay), (bx, by) = edge
    if state.belief[by, bx] == BLOCKED:
        return replace(state, plan=None)
    belief = state.belief.copy()
    belief[by, bx] = BLOCKED
    return replace(
        state,
        belief=belief,
        plan=None,
        pending_blocked_edges=state.pending_blocked_edges + (edge,),
    )


# --- progress bookkeeping -------------------------------------------------


def advance_subtask(state: AgentState, now: int) -> AgentState:
    """Pop the completed head of the chain and reset progress tracking."""
    ctx = state.policy_ctx
    done = ctx.active_subtask()
    if done is None:
        return state
    head = ctx.priorities[0]
    chain = tuple(st for i, st in enumerate(ctx.chain) if i != head)
    prios = tuple(i if i < head else i - 1 for i in ctx.priorities[1:])
    new_ctx = replace(ctx, chain=chain, priorities=prios, last_progress_tick=now)
    return replace(
        state,
        policy_ctx=new_ctx,
        plan=None,
        best_steps=math.inf,
        completed_last_tick=done.kind,
        subtasks_done=state.subtasks_done + 1,
    )


def note_progress(state: AgentState, now: int) -> AgentState:
    """Refresh last_progress_tick whenever the believed remaining distance to
    the active goal strictly improves on the best seen for this subtask."""
    plan = state.plan
    if plan is None:
        return state
    steps = plan.steps_remaining_from(state.cell)
    if steps is None:
        return state
    if steps < state.best_steps:
        ctx = replace(state.policy_ctx, last_progress_tick=now)
        return replace(state, best_steps=float(steps), policy_ctx=ctx)
    return state


def drain_signals(state: AgentState) -> tuple[AgentState, str | None, tuple[tuple[Cell, Cell], ...]]:
    """Hand the per-tick completion/blockage signals to event extraction and
    clear them from the state."""
    completed = state.completed_last_tick
    edges = state.pending_blocked_edges
    if completed is None and not edges:
        return state, None, ()
    return replace(state, completed_last_tick=None, pending_blocked_edges=()), completed, edges
