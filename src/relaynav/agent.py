"""Deterministic per-robot navigation policy under partial observability.

Each robot keeps a belief of the map, two packed ints in
:class:`~relaynav.world.GridMap`'s layout: the cells it knows and the known
cells it holds blocked; every other cell is unknown. It sees objects by
testing each one's ray against the packed true grid. A known-mode belief,
which holds the whole map, is sensed by the same ray test at the cells
where it differs from the truth (none before a blockage); a discover-mode
belief is sensed through the scene's visibility field, the only code here
that loads numpy. It plans optimistically (unknown counts as
traversable, falling back to the nearest frontier when no believed route
exists), and steers with the discrete 15-degree action set.
All transitions are pure functions of the visible state — the policy holds
no hidden randomness, which is what makes rollouts replayable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    Cell,
    Geodesics,
    Pose,
    SceneGraph,
    bfs_shortest_path,
    center,
    fov_bits,
    fov_mask,
    pack_cells,
    packed_rays,
    packed_rect,
    unpack_cells,
    wrap_angle,
)

_BEARING_TOL = 7.5
_EPS = 1e-9


@dataclass(frozen=True)
class Plan:
    """Cell path to the current navigation goal, inclusive of both ends.

    ``cells`` packs the path's cells in :class:`~relaynav.world.GridMap`'s
    layout, so a check against a belief's blocked cells is one AND.
    ``frontier`` marks exploratory plans whose goal is a frontier cell rather
    than the subtask waypoint itself.
    """

    path: tuple[Cell, ...]
    goal: Cell | None
    cells: int
    frontier: bool = False
    _index: dict[Cell, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        index: dict[Cell, int] = {}
        for i, cell in enumerate(self.path):
            index.setdefault(cell, i)
        object.__setattr__(self, "_index", index)

    def crosses_blocked(self, blocked: int) -> bool:
        """True iff any cell of the path is in the packed ``blocked`` mask."""
        return bool(self.cells & blocked)

    def steps_remaining_from(self, cell: Cell) -> int | None:
        """Steps from the first occurrence of ``cell`` to the path's end, or
        None off the path."""
        idx = self._index.get(cell)
        return None if idx is None else len(self.path) - 1 - idx


@dataclass(frozen=True, eq=False)
class AgentState:
    """One robot's frozen state, carried from tick to tick.

    The belief is ``known``, the cells the robot has sensed or bumped into,
    and ``blocked``, the known cells it holds blocked, both packed in
    :class:`~relaynav.world.GridMap`'s layout; the other cells are unknown.
    ``geodesics`` runs over the cells not believed blocked, so unknown
    cells count as traversable.

    ``cell`` reads the memo on the pose (:attr:`~relaynav.world.Pose.cell`).
    No memo lives on the state itself: :func:`evolve` copies the instance
    dict, so one would follow a copy whose pose changed.
    """

    robot_id: str
    pose: Pose
    known: int
    blocked: int
    geodesics: Geodesics
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


def initial_belief(scene: SceneGraph, knowledge: str) -> tuple[int, int]:
    """Starting belief ``(known, blocked)``: the full map when known a
    priori, else nothing. Scheduled blockages are never part of prior
    knowledge."""
    grid = scene.grid
    if knowledge == "known":
        return packed_rect(grid.width, grid.height, grid.stride), grid.blocked
    if knowledge == "discover":
        return 0, 0
    raise ValueError(f"unknown knowledge mode {knowledge!r}")


def make_agent(
    scene: SceneGraph,
    robot_id: str,
    pose: Pose,
    policy_ctx: PolicyContext,
    knowledge: str = "known",
) -> AgentState:
    """A robot at ``pose`` whose belief holds its own cell known and free."""
    known, blocked = initial_belief(scene, knowledge)
    grid = scene.grid
    here = grid.mask((pose.cell,))
    blocked &= ~here
    geodesics = _geodesics(blocked, grid.width, grid.height)
    return AgentState(robot_id, pose, known | here, blocked, geodesics, policy_ctx)


def _geodesics(blocked: int, width: int, height: int) -> Geodesics:
    """Geodesics over the cells of the grid that ``blocked`` leaves out."""
    return Geodesics(packed_rect(width, height, width + 1) ^ blocked, width, height)


# --- sensing --------------------------------------------------------------


def observe(
    scene: SceneGraph, state: AgentState, sensor: SensorConfig
) -> tuple[AgentState, tuple[Observation, ...]]:
    """Sense all cells within range, field of view, and line of sight.

    Sightings are per object, in object-id order: an object is seen on the
    robot's own cell, or when its offset is in range and in the field of
    view (:func:`~relaynav.world.fov_bits`) and no interior cell of its ray
    is blocked in the true grid, one shift and AND of the packed int
    (:func:`~relaynav.world.packed_rays`). Each yields a scored
    observation; they are sorted by ``(category, cell)``.

    Sensed cells become known with their true passability (walls included
    — occlusion is interior to the ray, so a blocked cell at its end is
    itself seen); the robot's own cell is always sensed. A belief that
    knows every cell (known mode) can change only where ``blocked``
    differs from the true grid: before a blockage nowhere, after one at a
    few gate cells. Only those cells are tested, by the sightings' ray
    rule, and no visibility field is read nor numpy loaded. A belief with
    unknown cells (discover mode) senses the field's ``flat_offsets``
    under its visibility and FOV masks (see
    :class:`~relaynav.world.VisibilityField`), bit positions in the grid's
    packed layout that a scene's blocked border keeps inside the grid,
    packed into one int with the robot's own cell. When sensing changes
    nothing, the same state is returned: no copy, and the geodesic memo
    kept. Otherwise the memo is replaced only when a cell's passability
    flips, newly blocked cells are queued as edges and a plan through them
    dropped. Deterministic and, from a fixed pose on a fixed world,
    idempotent on the belief.
    """
    grid = scene.grid
    truth = grid.blocked
    stride = grid.stride
    cell = state.cell
    cx, cy = cell
    here = cy * stride + cx
    r, window = packed_rays(sensor.range_m, grid.width)
    side = 2 * r + 1
    fov = fov_bits(sensor.range_m, state.pose.heading, sensor.fov_deg)
    sightings = []
    scorer = None
    for obj in scene.sorted_objects():
        ox, oy = obj.cell
        if ox != cx or oy != cy:
            dx, dy = ox - cx, oy - cy
            if not (-r <= dx <= r and -r <= dy <= r):
                continue
            ray = window[(dy + r) * side + dx + r]
            if ray is None or not fov >> ray[0] & 1 or truth >> (here + ray[1]) & ray[2]:
                continue
        if scorer is None:
            scorer = DistanceFalloffScorer(sensor.range_m)
        score = scorer.score(scene, state.pose, obj)
        if score > 0.0:
            sightings.append(Observation(obj.category, obj.cell, round(score, 6)))
    sightings.sort(key=lambda o: (o.category, o.cell))

    known, blocked = state.known, state.blocked
    if known == packed_rect(grid.width, grid.height, stride):
        # only a cell held wrong can change: each is tested by the sightings' rule
        diff = truth ^ blocked
        if not diff:
            return state, tuple(sightings)
        now_known, now_blocked = known, blocked
        while diff:
            bit_i = diff.bit_length() - 1
            bit = 1 << bit_i
            diff ^= bit
            if bit_i != here:
                dx, dy = bit_i % stride - cx, bit_i // stride - cy
                if not (-r <= dx <= r and -r <= dy <= r):
                    continue
                ray = window[(dy + r) * side + dx + r]
                if ray is None or not fov >> ray[0] & 1 or truth >> (here + ray[1]) & ray[2]:
                    continue
            now_blocked ^= bit
    else:
        import numpy as np  # only a discover belief reads the field

        vis = scene.visibility(sensor.range_m)
        mask = vis.visible_offsets(cell) & fov_mask(
            sensor.range_m, state.pose.heading, sensor.fov_deg
        )
        sensed = np.concatenate(((here,), vis.flat_offsets[mask] + here))
        marks = np.zeros(grid.height * stride, dtype=bool)
        marks[sensed] = True
        sensed_bits = int.from_bytes(np.packbits(marks, bitorder="little").tobytes(), "little")
        now_known = known | sensed_bits
        now_blocked = blocked & ~sensed_bits | truth & sensed_bits
    if now_known == known and now_blocked == blocked:
        return state, tuple(sightings)

    geodesics = state.geodesics
    if now_blocked != blocked:
        geodesics = _geodesics(now_blocked, grid.width, grid.height)
    # known free before, blocked now; the own cell is never queued as an edge
    flipped = now_blocked & known & ~blocked & ~(1 << here)
    newly_blocked = tuple((cell, c) for c in sorted(unpack_cells(flipped, grid.stride)))
    plan = state.plan
    if plan is not None and plan.crosses_blocked(flipped):
        plan = None
    new_state = evolve(
        state,
        known=now_known,
        blocked=now_blocked,
        geodesics=geodesics,
        plan=plan,
        pending_blocked_edges=state.pending_blocked_edges + newly_blocked,
    )
    return new_state, tuple(sightings)


# --- planning -------------------------------------------------------------


def _frontiers(known: int, blocked: int, width: int, height: int) -> int:
    """Known-free cells 4-adjacent to at least one unknown cell, packed.

    The unknown cells shifted a bit and a row each way, as
    :func:`~relaynav.world.bfs_layers` shifts a layer, cover every cell
    next to one. A shift off the end of a row lands on a guard bit and one
    off the grid past every cell; no known cell is there.
    """
    stride = width + 1
    unknown = packed_rect(width, height, stride) ^ known
    near = unknown << 1 | unknown >> 1 | unknown << stride | unknown >> stride
    return known & ~blocked & near


def _nearest_frontier(
    known: int, blocked: int, width: int, height: int, start: Cell
) -> Cell | None:
    """Closest known-free cell adjacent to an unknown cell, by BFS over
    known-free cells; ties resolve to the smallest (x, y)."""
    return Geodesics(known & ~blocked, width, height).nearest(
        start, _frontiers(known, blocked, width, height)
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
            return Plan(tuple(path), goal, pack_cells(path, geo.stride))
    frontier = _nearest_frontier(state.known, state.blocked, geo.width, geo.height, start)
    if frontier is not None:
        path = bfs_shortest_path(geo, start, frontier)
        if path is not None:
            return Plan(tuple(path), frontier, pack_cells(path, geo.stride), frontier=True)
    return Plan((), None, 0)


def _still_frontier(state: AgentState, cell: Cell) -> bool:
    geo = state.geodesics
    return bool(_frontiers(state.known, state.blocked, geo.width, geo.height) & geo.bit(cell))


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
        return evolve(state, plan=Plan((), None, 0))
    goal = active.waypoint
    plan = state.plan
    if (
        plan is not None
        and plan.path
        and plan.steps_remaining_from(state.cell) is not None
        and not plan.crosses_blocked(state.blocked)
    ):
        if not plan.frontier and plan.goal == goal:
            return state
        if plan.frontier and _still_frontier(state, plan.goal):
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
    """Record a bump: mark the far cell known and believed-blocked,
    invalidate the plan, and queue the edge for event extraction. Re-hitting
    a believed-blocked edge queues nothing new."""
    geo = state.geodesics
    bit = geo.bit(edge[1])
    if state.blocked & bit:
        return evolve(state, plan=None)
    blocked = state.blocked | bit
    return evolve(
        state,
        known=state.known | bit,
        blocked=blocked,
        geodesics=_geodesics(blocked, geo.width, geo.height),
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
