"""Event-driven replanning: event extraction, filtering, and subtask swapping.

Per tick each robot turns fresh observations and its composed bus context
into events, deduplicates them against recently admitted history, and
derives at most one replanning decision. Subtask reassignment uses a
symmetric makespan-first cost rule so both robots reach the same conclusion
from the same inputs; an exhaustive true-map oracle of the same rule exists
for verification and is implemented independently on purpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping

from .bus import AnchorEntry, ComposedContext, Observation, partner_of
from .config import TriggerConfig
from .serialize import Payload, Record
from .tasks import Subtask, rebind_target
from .world import Cell, FORWARD_M, Geodesics, bfs_distance_field

STAGE_COMPLETE = "StageComplete"
TARGET_DISCOVERED = "TargetDiscovered"
CONFLICT = "Conflict"
STAGNATION = "Stagnation"
PATH_BLOCKED = "PathBlocked"

EVENT_KINDS = frozenset(
    {STAGE_COMPLETE, TARGET_DISCOVERED, CONFLICT, STAGNATION, PATH_BLOCKED}
)

# admission ordering: higher urgency first, ties by tick
EVENT_PRIORITY = {
    PATH_BLOCKED: 0,
    CONFLICT: 1,
    TARGET_DISCOVERED: 2,
    STAGE_COMPLETE: 3,
    STAGNATION: 4,
}

KEEP_ASSIGNMENT = "KeepAssignment"
SWAP_SUBTASKS = "SwapSubtasks"
UPDATE_ANCHOR_TARGET = "UpdateAnchorTarget"

def make_payload(**kwargs) -> Payload:
    """Canonical (sorted, hashable) payload tuple from keyword fields."""
    return tuple(sorted(kwargs.items()))


@dataclass(frozen=True)
class Event(Record):
    kind: str
    tick: int
    robot_id: str
    payload: Payload = ()

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}")
        if self.tick < 0:
            raise ValueError("event tick must be non-negative")


@dataclass(frozen=True)
class ReplanDecision(Record):
    kind: str
    payload: Payload = ()


KEEP = ReplanDecision(KEEP_ASSIGNMENT)


@dataclass(frozen=True)
class DialogueRecord(Record):
    """One replanning exchange, written to the trace's per-tick dialogue."""

    tick: int
    trigger: str
    initiator: str
    summary: str
    decision: ReplanDecision


@dataclass(frozen=True)
class PolicyContext:
    """One robot's plan-shaping state carried between ticks."""

    robot_id: str
    target_category: str
    chain: tuple[Subtask, ...]
    last_progress_tick: int = 0
    target_found: bool = False

    def active_subtask(self) -> Subtask | None:
        return self.chain[0] if self.chain else None


@dataclass(frozen=True)
class AgentSignals:
    """What one robot's sensing and progress tracking produced this tick."""

    sightings: tuple[Observation, ...] = ()
    completed_subtask: str | None = None
    newly_blocked_edges: tuple[tuple[Cell, Cell], ...] = ()


def extract_events(
    prev: PolicyContext,
    ctx: ComposedContext,
    signals: AgentSignals,
    now: int,
    cfg: TriggerConfig,
    room_of: Callable[[Cell], str],
    held: Mapping[str, AnchorEntry],
) -> list[Event]:
    """Derive this tick's candidate events for one robot. Pure.

    Discovery fires on the first target evidence scoring at least theta_rec,
    whether sensed directly or read from anchor memory; conflict fires when
    the partner's packet places the target in a different room than this
    robot's held anchor view ``held``, the anchors of the context it
    composed on its previous tick (empty on the first).
    """
    events: list[Event] = []
    rid = prev.robot_id
    cat = prev.target_category

    if signals.completed_subtask is not None:
        events.append(
            Event(STAGE_COMPLETE, now, rid, make_payload(subtask=signals.completed_subtask))
        )

    if not prev.target_found:
        best: Observation | None = None
        for obs in signals.sightings:
            if obs.category == cat and obs.score >= cfg.theta_rec:
                if best is None or obs.score > best.score:
                    best = obs
        if best is not None:
            events.append(
                Event(
                    TARGET_DISCOVERED,
                    now,
                    rid,
                    make_payload(category=cat, cell=best.cell, score=best.score, source="self"),
                )
            )
        else:
            anchor = ctx.anchors.get(cat)
            if anchor is not None and anchor.score >= cfg.theta_rec:
                events.append(
                    Event(
                        TARGET_DISCOVERED,
                        now,
                        rid,
                        make_payload(
                            category=cat,
                            cell=anchor.cell,
                            score=anchor.score,
                            source=anchor.source,
                        ),
                    )
                )

    if ctx.partner_state is not None:
        local = held.get(cat)
        if local is not None:
            for obs in ctx.partner_state.observations:
                if obs.category != cat:
                    continue
                local_room = room_of(local.cell)
                partner_room = room_of(obs.cell)
                if partner_room != local_room:
                    events.append(
                        Event(
                            CONFLICT,
                            now,
                            rid,
                            make_payload(
                                category=cat,
                                local_room=local_room,
                                local_cell=local.cell,
                                local_score=local.score,
                                partner_room=partner_room,
                                partner_cell=obs.cell,
                                partner_score=obs.score,
                            ),
                        )
                    )
                    break

    if now - prev.last_progress_tick >= cfg.n_stag:
        events.append(Event(STAGNATION, now, rid, make_payload(since=prev.last_progress_tick)))

    for edge in signals.newly_blocked_edges:
        events.append(Event(PATH_BLOCKED, now, rid, make_payload(edge=edge)))

    return events


def filter_events(events: list[Event], history: list[Event], cfg: TriggerConfig) -> list[Event]:
    """Drop events whose (kind, payload) matches one admitted within the
    cooldown window, then order survivors by priority, ties by tick.

    ``history`` holds the events admitted so far in tick order, and no
    event's tick is below a tick in it (the tick loop never goes back). An
    entry older than the cooldown window before this call's earliest event
    can then never match again, so it is deleted from the front of
    ``history`` in place: the list stays as short as the window.
    """
    if not events:
        return []
    horizon = min(e.tick for e in events) - cfg.cooldown
    while history and history[0].tick < horizon:
        del history[0]
    admitted: list[Event] = []
    for event in events:
        dup = any(
            h.kind == event.kind
            and h.payload == event.payload
            and event.tick - h.tick <= cfg.cooldown
            for h in history
        ) or any(a.kind == event.kind and a.payload == event.payload for a in admitted)
        if not dup:
            admitted.append(event)
    admitted.sort(key=lambda e: (EVENT_PRIORITY[e.kind], e.tick))
    return admitted


# --- reassignment cost test -----------------------------------------------


@dataclass(frozen=True)
class SwapInputs:
    """The symmetric reassignment rule's inputs: per-robot geodesics over
    believed (or true) traversability, positions and the two remaining
    chains. The engine builds them only while the item rests, undelivered,
    at a static waypoint, so a carried item is never reassigned."""

    geodesics: Mapping[str, Geodesics]
    positions: Mapping[str, Cell]
    chains: Mapping[str, tuple[Subtask, ...]]


def _chain_cost(geodesics: Geodesics, start: Cell, chain: tuple[Subtask, ...]) -> float:
    """Geodesic sum along the chain's bound waypoints; infinite when any leg
    is unreachable. Unbound waypoints contribute nothing."""
    total_steps = 0
    cur = start
    for st in chain:
        if st.waypoint is None or st.waypoint == cur:
            continue
        steps = geodesics.steps(cur, st.waypoint)
        if steps < 0:
            return math.inf
        total_steps += steps
        cur = st.waypoint
    return total_steps * FORWARD_M


def evaluate_swap(inputs: SwapInputs, cfg: TriggerConfig) -> ReplanDecision:
    """Decide between keeping and exchanging the two remaining chains.

    Makespan-first: swap iff the worse of the two swapped costs undercuts the
    worse kept cost by more than the hysteresis margin; equal makespans fall
    back to the cost sum under the same margin.
    """
    robots = sorted(inputs.chains)
    if len(robots) != 2:
        raise ValueError("swap evaluation needs exactly two robots")
    a, b = robots
    geo, pos = inputs.geodesics, inputs.positions
    keep = {r: _chain_cost(geo[r], pos[r], inputs.chains[r]) for r in robots}
    swap = {
        a: _chain_cost(geo[a], pos[a], inputs.chains[b]),
        b: _chain_cost(geo[b], pos[b], inputs.chains[a]),
    }
    max_keep, max_swap = max(keep.values()), max(swap.values())
    take = False
    if max_swap + cfg.epsilon_hyst < max_keep:
        take = True
    elif max_swap == max_keep and not math.isinf(max_swap):
        take = sum(swap.values()) + cfg.epsilon_hyst < sum(keep.values())
    if take:
        return ReplanDecision(
            SWAP_SUBTASKS,
            make_payload(
                keep_cost=round(max_keep, 6) if not math.isinf(max_keep) else "inf",
                swap_cost=round(max_swap, 6),
            ),
        )
    return KEEP


def swap_oracle(
    scene,
    positions: Mapping[str, Cell],
    chains: Mapping[str, tuple[Subtask, ...]],
    cfg: TriggerConfig,
) -> ReplanDecision:
    """Ground-truth reassignment decision by exhaustive evaluation.

    Same decision rule as :func:`evaluate_swap` but re-derived from scratch:
    each leg is read from a queue-BFS distance field
    (:func:`~relaynav.world.bfs_distance_field`) over the true occupancy
    grid, one field per source cell, rather than from packed-layer
    geodesics, and the comparison inequalities are restated literally, so
    the two implementations genuinely check each other.
    """
    grid = scene.grid
    blocked = [[grid.is_blocked((x, y)) for x in range(grid.width)] for y in range(grid.height)]
    fields: dict[Cell, list[list[int]]] = {}

    def leg_steps(a: Cell, b: Cell) -> float:
        if a not in fields:
            fields[a] = bfs_distance_field(blocked, a)
        steps = fields[a][b[1]][b[0]]
        return math.inf if steps < 0 else steps

    def assignment_cost(robot: str, chain: tuple[Subtask, ...]) -> float:
        cur = positions[robot]
        steps = 0.0
        for st in chain:
            if st.waypoint is None or st.waypoint == cur:
                continue
            leg = leg_steps(cur, st.waypoint)
            if math.isinf(leg):
                return math.inf
            steps += leg
            cur = st.waypoint
        return steps * FORWARD_M

    robots = sorted(chains)
    if len(robots) != 2:
        raise ValueError("swap evaluation needs exactly two robots")
    a, b = robots
    keep_a = assignment_cost(a, chains[a])
    keep_b = assignment_cost(b, chains[b])
    swap_a = assignment_cost(a, chains[b])
    swap_b = assignment_cost(b, chains[a])
    max_keep = keep_a if keep_a >= keep_b else keep_b
    max_swap = swap_a if swap_a >= swap_b else swap_b
    if max_swap + cfg.epsilon_hyst < max_keep:
        swap_it = True
    elif max_swap == max_keep and not math.isinf(max_swap):
        swap_it = (swap_a + swap_b) + cfg.epsilon_hyst < (keep_a + keep_b)
    else:
        swap_it = False
    if swap_it:
        return ReplanDecision(
            SWAP_SUBTASKS,
            make_payload(
                keep_cost=round(max_keep, 6) if not math.isinf(max_keep) else "inf",
                swap_cost=round(max_swap, 6),
            ),
        )
    return ReplanDecision(KEEP_ASSIGNMENT)


# --- picking and applying a decision --------------------------------------


def decide(
    admitted: list[Event],
    ctx: PolicyContext,
    swap_inputs: SwapInputs | None,
    cfg: TriggerConfig,
) -> ReplanDecision:
    """Derive this tick's decision from the admitted events, honoring their
    priority order. Blockage and stagnation put the assignment itself in
    question (when ``swap_inputs`` is available: item at rest, partner
    context fresh); conflict and discovery re-point the target anchor."""
    for event in admitted:
        payload = dict(event.payload)
        if event.kind in (PATH_BLOCKED, STAGNATION):
            if swap_inputs is not None:
                decision = evaluate_swap(swap_inputs, cfg)
                if decision.kind == SWAP_SUBTASKS:
                    return ReplanDecision(
                        SWAP_SUBTASKS,
                        make_payload(**dict(decision.payload), initiator=ctx.robot_id),
                    )
        elif event.kind == CONFLICT:
            if payload["partner_score"] > payload["local_score"]:
                return ReplanDecision(
                    UPDATE_ANCHOR_TARGET,
                    make_payload(
                        category=payload["category"],
                        cell=payload["partner_cell"],
                        score=payload["partner_score"],
                    ),
                )
        elif event.kind == TARGET_DISCOVERED:
            return ReplanDecision(
                UPDATE_ANCHOR_TARGET,
                make_payload(
                    category=payload["category"],
                    cell=payload["cell"],
                    score=payload["score"],
                ),
            )
    return KEEP


def rewrite_policy_context(
    ctx: PolicyContext, admitted: list[Event], decision: ReplanDecision
) -> tuple[PolicyContext, list[DialogueRecord]]:
    """Apply a decision to one robot's context, given the events it admitted
    this tick (at least one).

    An anchor update rebinds the pickup legs. A swap leaves the chain to the
    caller, which exchanges both robots' chains. Returns the rewritten
    context and this robot's dialogue records: one for a swap it proposes,
    one for a rebind that changed its context.
    """
    rid = ctx.robot_id
    trigger = admitted[0].kind
    tick = admitted[0].tick
    records: list[DialogueRecord] = []
    new_ctx = ctx

    if decision.kind == SWAP_SUBTASKS:
        records.append(
            DialogueRecord(
                tick=tick,
                trigger=trigger,
                initiator=rid,
                summary=(
                    f"{rid} proposes swapping remaining subtasks with {partner_of(rid)}; "
                    "symmetric cost test agrees"
                ),
                decision=decision,
            )
        )
    elif decision.kind == UPDATE_ANCHOR_TARGET:
        cell = tuple(dict(decision.payload)["cell"])
        new_ctx = replace(ctx, chain=rebind_target(ctx.chain, cell))
        if new_ctx != ctx:
            records.append(
                DialogueRecord(
                    tick=tick,
                    trigger=trigger,
                    initiator=rid,
                    summary=f"{rid} anchors {ctx.target_category} at {list(cell)}",
                    decision=decision,
                )
            )

    # first reliable discovery is remembered even when nothing rebinds
    if any(e.kind == TARGET_DISCOVERED for e in admitted) and not new_ctx.target_found:
        new_ctx = replace(new_ctx, target_found=True)
    return new_ctx, records
