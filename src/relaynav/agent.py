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
from dataclasses import dataclass, field

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
    BLOCKED,
    FREE,
    UNKNOWN,
    Cell,
    Geodesics,
    NEIGHBORS_4,
    Pose,
    SceneGraph,
    bfs_shortest_path,
    center,
    fov_mask,
    wrap_angle,
)

_BEARING_TOL = 7.5
_EPS = 1e-9


@dataclass(frozen=True)
class Plan:
    """Cell path to the current navigation goal, inclusive of both ends.

    ``frontier`` marks exploratory plans whose goal is a frontier cell rather
    than the subtask waypoint itself.

    ``_clear_for`` holds the last belief :meth:`crosses_blocked` found the
    path clear in, by reference, so that the check gathers the path's cells
    only for a belief it has not seen. Beliefs are copy-on-write (see
    :class:`AgentState`): the same object holds the same cells, and any
    write makes a new object, which the check gathers again.
    """

    path: tuple[Cell, ...]
    goal: Cell | None
    frontier: bool = False
    _rows_cols: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)
    _index: dict[Cell, int] = field(init=False, repr=False, compare=False)
    _clear_for: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        xy = np.array(self.path, dtype=np.intp).reshape(-1, 2)
        object.__setattr__(self, "_rows_cols", (xy[:, 1], xy[:, 0]))
        index: dict[Cell, int] = {}
        for i, cell in enumerate(self.path):
            index.setdefault(cell, i)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_clear_for", None)

    def crosses_blocked(self, belief: np.ndarray) -> bool:
        """True iff any cell of the path is believed blocked."""
        if belief is self._clear_for:
            return False
        if (belief[self._rows_cols] == BLOCKED).any():
            return True
        object.__setattr__(self, "_clear_for", belief)
        return False

    def steps_remaining_from(self, cell: Cell) -> int | None:
        """Steps from the first occurrence of ``cell`` to the path's end, or
        None off the path."""
        idx = self._index.get(cell)
        return None if idx is None else len(self.path) - 1 - idx


@dataclass(frozen=True, eq=False)
class AgentState:
    """One robot's frozen state, carried from tick to tick.

    The belief is copy-on-write: nothing writes an array once a state holds
    it, and :func:`observe` and :func:`on_blocked` copy it before they
    write. A belief object that is still the same one therefore still holds
    the same cells, which is what lets :meth:`Plan.crosses_blocked` skip a
    belief it already found clear.

    ``cell`` reads the memo on the pose (:attr:`~relaynav.world.Pose.cell`).
    No memo lives on the state itself: :func:`evolve` copies the instance
    dict, so one would follow a copy whose pose changed.
    """

    robot_id: str
    pose: Pose
    belief: np.ndarray  # int8 grid [cy, cx]: UNKNOWN / FREE / BLOCKED
    geodesics: Geodesics  # over the belief's passable cells (not BLOCKED)
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
        return self.pose.cell

    def active_subtask(self) -> Subtask | None:
        return self.policy_ctx.active_subtask()


def evolve(record, **changes):
    """A copy of a frozen :class:`AgentState` or
    :class:`~relaynav.replan.PolicyContext` with ``changes`` applied.

    Equal to ``dataclasses.replace`` for these two classes, which have no
    ``__post_init__`` and no ``init=False`` field, at a fraction of its cost
    on the per-tick path: the instance dict is copied and updated. An
    unknown field name raises ``TypeError``, as ``replace`` does.
    """
    attrs = record.__dict__
    if not changes.keys() <= attrs.keys():
        unknown = ", ".join(sorted(changes.keys() - attrs.keys()))
        raise TypeError(f"{type(record).__name__} has no field {unknown}")
    new = object.__new__(type(record))
    new.__dict__.update(attrs, **changes)
    return new


def initial_belief(scene: SceneGraph, knowledge: str) -> np.ndarray:
    """Starting occupancy belief: the full map when known a priori, else all
    unknown. Scheduled blockages are never part of prior knowledge."""
    if knowledge == "known":
        return scene.cell_table().occupancy.reshape(scene.grid.height, -1).copy()
    if knowledge == "discover":
        return np.full((scene.grid.height, scene.grid.width), UNKNOWN, dtype=np.int8)
    raise ValueError(f"unknown knowledge mode {knowledge!r}")


def make_agent(
    scene: SceneGraph,
    robot_id: str,
    pose: Pose,
    policy_ctx: PolicyContext,
    knowledge: str = "known",
) -> AgentState:
    belief = initial_belief(scene, knowledge)
    cell = pose.cell
    belief[cell[1], cell[0]] = FREE
    geodesics = _geodesics(belief)
    return AgentState(robot_id, pose, belief, geodesics, policy_ctx)


# --- sensing --------------------------------------------------------------


def observe(
    scene: SceneGraph, state: AgentState, sensor: SensorConfig
) -> tuple[AgentState, tuple[Observation, ...]]:
    """Sense all cells within range, field of view, and line of sight.

    The sensed cells, the robot's own first, are indices into the raveled
    grid: the field's per-process ``flat_offsets`` under its per-scene
    visibility mask and the per-process FOV mask (see
    :class:`~relaynav.world.VisibilityField`); a scene's blocked border keeps
    them inside the grid. Sensed cells become known in
    the belief (walls included — occlusion is interior to the ray, so a
    blocked cell at its end is itself seen); objects on them, looked up in
    the scene's :class:`~relaynav.world.CellTable`, yield scored
    observations. When every sensed cell already holds its true code, the
    same state object is returned: no copy, and the geodesic memo kept.
    Otherwise the belief is copied and written, the memo replaced only when
    a cell's passability flips, newly blocked cells queued as edges and a
    plan through them dropped. Deterministic and, from a fixed pose on a
    fixed world, idempotent on the belief.
    """
    vis = scene.visibility(sensor.range_m)
    table = scene.cell_table()
    cell = state.cell
    mask = vis.visible_offsets(cell) & fov_mask(
        sensor.range_m, state.pose.heading, sensor.fov_deg
    )
    width = scene.grid.width
    here = cell[1] * width + cell[0]
    sensed = np.concatenate(((here,), vis.flat_offsets[mask] + here))

    sightings = []
    seen = sensed[table.has_object[sensed]].tolist()
    if seen:
        scorer = DistanceFalloffScorer(sensor.range_m)
        for idx in seen:
            for obj in table.objects_at[idx]:
                score = scorer.score(scene, state.pose, obj)
                if score > 0.0:
                    sightings.append(Observation(obj.category, obj.cell, round(score, 6)))
        sightings.sort(key=lambda o: (o.category, o.cell))

    was = state.belief.ravel()[sensed]
    truth = table.occupancy[sensed]
    if was.tobytes() == truth.tobytes():  # cheaper than a reduction over ~300 cells
        return state, tuple(sightings)

    belief = state.belief.copy()
    belief.ravel()[sensed] = truth
    geodesics = state.geodesics
    if ((was == BLOCKED) != (truth == BLOCKED)).any():
        geodesics = _geodesics(belief)
    # the own cell is never queued as an edge
    flipped = sensed[1:][(truth[1:] == BLOCKED) & (was[1:] == FREE)].tolist()
    newly_blocked = sorted((cell, (idx % width, idx // width)) for idx in flipped)
    plan = state.plan
    if newly_blocked and plan is not None:
        blocked_cells = {e[1] for e in newly_blocked}
        if any(c in blocked_cells for c in plan.path):
            plan = None
    new_state = evolve(
        state,
        belief=belief,
        geodesics=geodesics,
        plan=plan,
        pending_blocked_edges=state.pending_blocked_edges + tuple(newly_blocked),
    )
    return new_state, tuple(sightings)


# --- planning -------------------------------------------------------------


def pack_mask(mask: np.ndarray) -> int:
    """A ``(h, w)`` boolean mask as one Python int in
    :class:`~relaynav.world.GridMap`'s layout: cell ``(x, y)`` is bit
    ``y * (w + 1) + x``, and bit ``y * (w + 1) + w`` after each row is a
    guard that is always clear."""
    h, w = mask.shape
    rows = np.zeros((h, w + 1), dtype=bool)
    rows[:, :w] = mask
    return int.from_bytes(np.packbits(rows, bitorder="little").tobytes(), "little")


def _geodesics(belief: np.ndarray) -> Geodesics:
    """Geodesics over the belief's passable cells (not BLOCKED)."""
    h, w = belief.shape
    return Geodesics(pack_mask(belief != BLOCKED), w, h)


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
    h, w = belief.shape
    return Geodesics(pack_mask(belief == FREE), w, h).nearest(
        start, pack_mask(_frontier_mask(belief))
    )


def plan_to(state: AgentState, goal: Cell | None) -> Plan:
    """Shortest believed path to the goal, unknown cells traversable.

    With no goal (waypoint not yet anchored) or no believed route, target the
    nearest frontier instead; with neither a route nor a frontier the empty
    plan tells the caller the agent is stuck.
    """
    start = state.cell
    geo = state.geodesics
    if goal is not None:
        path = bfs_shortest_path(geo, start, goal)
        if path is not None:
            return Plan(tuple(path), goal)
    frontier = _nearest_frontier(state.belief, start)
    if frontier is not None:
        path = bfs_shortest_path(geo, start, frontier)
        if path is not None:
            return Plan(tuple(path), frontier, frontier=True)
    return Plan((), None)


def _still_frontier(belief: np.ndarray, cell: Cell) -> bool:
    if belief[cell[1], cell[0]] != FREE:
        return False
    h, w = belief.shape
    for dx, dy in NEIGHBORS_4:
        nx, ny = cell[0] + dx, cell[1] + dy
        if 0 <= nx < w and 0 <= ny < h and belief[ny, nx] == UNKNOWN:
            return True
    return False


def ensure_plan(state: AgentState) -> AgentState:
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
        return evolve(state, plan=Plan((), None))
    goal = active.waypoint
    plan = state.plan
    if (
        plan is not None
        and plan.path
        and plan.steps_remaining_from(state.cell) is not None
        and not plan.crosses_blocked(state.belief)
    ):
        if not plan.frontier and plan.goal == goal:
            return state
        if plan.frontier and _still_frontier(state.belief, plan.goal):
            return state
    return evolve(state, plan=plan_to(state, goal))


# --- action selection -----------------------------------------------------


def within(pose: Pose, cell: Cell, radius_m: float) -> bool:
    """True iff the cell's center lies within ``radius_m`` of the pose."""
    cx, cy = center(cell)
    return math.hypot(cx - pose.x, cy - pose.y) <= radius_m + _EPS


def next_action(state: AgentState, r_succ: float, r_int: float) -> str:
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
    if active.is_goto() and active.waypoint is not None and within(state.pose, active.waypoint, r_succ):
        return ACTION_STOP
    if active.is_interaction():
        anchor = active.waypoint if active.waypoint is not None else None
        if anchor is not None and within(state.pose, anchor, r_int):
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
    tx, ty = center(nxt)
    desired = math.degrees(math.atan2(ty - state.pose.y, tx - state.pose.x))
    err = wrap_angle(desired - state.pose.heading)
    if abs(err) <= _BEARING_TOL + _EPS:
        return ACTION_FORWARD
    # positive error = target on the +y side = clockwise in grid coordinates
    # = turn_right, which also absorbs the exact-180 tie
    return ACTION_RIGHT if err > 0 else ACTION_LEFT


def on_blocked(state: AgentState, edge: tuple[Cell, Cell]) -> AgentState:
    """Record a bump: mark the far cell believed-blocked, invalidate the
    plan, and queue the edge for event extraction. Re-hitting a
    believed-blocked edge queues nothing new."""
    (ax, ay), (bx, by) = edge
    if state.belief[by, bx] == BLOCKED:
        return evolve(state, plan=None)
    belief = state.belief.copy()
    belief[by, bx] = BLOCKED
    return evolve(
        state,
        belief=belief,
        geodesics=_geodesics(belief),
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
    new_ctx = evolve(ctx, chain=ctx.chain[1:], last_progress_tick=now)
    return evolve(
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
        ctx = evolve(state.policy_ctx, last_progress_tick=now)
        return evolve(state, best_steps=float(steps), policy_ctx=ctx)
    return state


def drain_signals(state: AgentState) -> tuple[AgentState, str | None, tuple[tuple[Cell, Cell], ...]]:
    """Hand the per-tick completion/blockage signals to event extraction and
    clear them from the state."""
    completed = state.completed_last_tick
    edges = state.pending_blocked_edges
    if completed is None and not edges:
        return state, None, ()
    return evolve(state, completed_last_tick=None, pending_blocked_edges=()), completed, edges
