"""Synchronous rollout engine for the relay.

A rollout is a loop of ticks over one small run state (``_Run``, with a
mutable ``_Robot`` record per robot). Each tick runs the phases of
``TICK_PHASES`` in order: blockage (scheduled closures), sense, publish,
deliver (due transport packets), compose, replan (FH first; a swap
exchanges the robots' live chains), act, commit (both actions atomically,
:func:`commit_actions`), progress (subtask advances) and record (the
tick's trace row, which becomes a line only when the trace is written).
Packets only travel over a :class:`~relaynav.transport.Transport`,
which holds each robot's bus replica; there is no central bus. A lockstep
run is a run over the zero-latency, lossless transport, so a distributed
run with that transport writes the lockstep trace byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from typing import Mapping

from .agent import (
    AgentState,
    advance_subtask,
    ensure_plan,
    drain_signals,
    evolve,
    make_agent,
    next_action,
    note_progress,
    observe,
    on_blocked,
    within,
)
from .bus import (
    AnchorEntry,
    ComposedContext,
    Observation,
    ROBOTS,
    SemanticPacket,
    compose_context,
    compose_muted,
    partner_of,
)
from .config import RolloutConfig, TransportConfig
from .episodes import EpisodeSpec
from .replan import (
    AgentSignals,
    DialogueRecord,
    Event,
    KEEP,
    PolicyContext,
    ReplanDecision,
    SWAP_SUBTASKS,
    SwapInputs,
    decide,
    extract_events,
    filter_events,
    rewrite_policy_context,
)
from .serialize import ROUNDED, Record, canonical_dumps
from .tasks import STOP, Subtask, build_chains
from .trace import Trace
from .transport import Transport
from .world import (
    ACTION_FORWARD,
    ACTION_STOP,
    Cell,
    FORWARD_M,
    HEADING_VECTORS,
    Pose,
    SceneGraph,
    apply_blockage,
    step_kinematics,
)

AT_PICKUP = "AtPickup"
AT_HANDOFF = "AtHandoff"
DELIVERED = "Delivered"
STATIC_PHASES = frozenset({AT_PICKUP, AT_HANDOFF, DELIVERED})
PHASES = (AT_PICKUP, "CarriedByFH", AT_HANDOFF, "CarriedBySH", DELIVERED)
# interactions that take the item from where it rests / set it down at the waypoint
_TAKES = {"PickUp": AT_PICKUP, "Receive": AT_HANDOFF}
_PUTS = {"Deposit": AT_HANDOFF, "Deliver": DELIVERED}


def carried_by(robot_id: str) -> str:
    return f"CarriedBy{robot_id}"


class RolloutError(ValueError):
    pass


@dataclass(frozen=True)
class ItemState(Record):
    """Relay item: resting phases carry the cell, carried phases the robot."""

    phase: str
    cell: Cell | None
    carrier: str | None = None

    def __post_init__(self) -> None:
        if self.phase not in PHASES:
            raise ValueError(f"unknown item phase {self.phase!r}")
        if self.phase in STATIC_PHASES and (self.cell is None or self.carrier is not None):
            raise ValueError("resting item needs a cell and no carrier")
        if self.phase not in STATIC_PHASES and (self.cell is not None or self.carrier is None):
            raise ValueError("carried item needs a carrier and no cell")


@dataclass(frozen=True)
class RolloutResult(Record):
    episode_id: str
    success_fh: bool
    success_sh: bool
    both_success: bool
    path_len_fh_m: float = field(metadata=ROUNDED)
    path_len_sh_m: float = field(metadata=ROUNDED)
    ne_fh_m: float
    ne_sh_m: float
    subtasks_done_fh: int
    subtasks_done_sh: int
    subtasks_remaining_fh: int
    subtasks_remaining_sh: int
    ticks: int
    swap_count: int
    dialogue_count: int


def commit_actions(
    scene: SceneGraph,
    item: ItemState,
    states: dict[str, AgentState],
    actions: dict[str, str],
    cfg: RolloutConfig,
    now: int,
) -> tuple[ItemState, dict[str, AgentState], dict[str, bool], dict[str, dict | None]]:
    """Apply both tick-t actions against the tick-t world atomically.

    Moves go through the kinematics; interaction subtasks resolve on stop
    ticks under radius and item-state guards evaluated against the tick-start
    item, which is what makes a same-tick deposit+receive impossible and
    keeps the relay ordering strict. Illegal attempts are recorded no-ops.
    """
    item_start = item
    new_states = dict(states)
    blocked_flags: dict[str, bool] = {}
    attempts: dict[str, dict | None] = {}
    for rid in ROBOTS:
        st = new_states[rid]
        act = actions[rid]
        blocked_flags[rid] = False
        attempts[rid] = None
        if act == ACTION_FORWARD:
            new_pose, bumped = step_kinematics(scene, st.pose, act)
            if bumped:
                vx, vy = HEADING_VECTORS[st.pose.heading % 360]
                ahead = (st.cell[0] + round(vx), st.cell[1] + round(vy))
                st = on_blocked(st, (st.cell, ahead))
                blocked_flags[rid] = True
            else:
                st = evolve(st, pose=new_pose)
        elif act == ACTION_STOP:
            active = st.active_subtask()
            if active is not None and active.is_interaction():
                ok, item = _resolve_interaction(rid, active, st, item_start, item, cfg)
                attempts[rid] = {"kind": active.kind, "ok": ok}
                if ok:
                    st = advance_subtask(st, now)
                    st = evolve(st, carrying=item.carrier == rid)
        else:  # turns
            new_pose, _ = step_kinematics(scene, st.pose, act)
            st = evolve(st, pose=new_pose)
        new_states[rid] = st
    return item, new_states, blocked_flags, attempts


def _resolve_interaction(
    rid: str,
    active: Subtask,
    st: AgentState,
    item_start: ItemState,
    item_cur: ItemState,
    cfg: RolloutConfig,
) -> tuple[bool, ItemState]:
    kind = active.kind
    if kind in _TAKES:
        if (
            item_start.phase == _TAKES[kind]
            and item_cur.phase == _TAKES[kind]
            and within(st.pose, item_start.cell, cfg.r_int)
        ):
            return True, ItemState(carried_by(rid), None, rid)
    elif kind in _PUTS:
        if (
            item_start.carrier == rid
            and active.waypoint is not None
            and within(st.pose, active.waypoint, cfg.r_int)
        ):
            return True, ItemState(_PUTS[kind], active.waypoint, None)
    return False, item_cur


def run_lockstep(
    scene: SceneGraph, episode: EpisodeSpec, cfg: RolloutConfig
) -> tuple[RolloutResult, Trace]:
    return _run(scene, episode, cfg, Transport(TransportConfig()))


def run_distributed(
    scene: SceneGraph,
    episode: EpisodeSpec,
    cfg: RolloutConfig,
    transport_cfg: TransportConfig,
) -> tuple[RolloutResult, Trace]:
    return _run(scene, episode, cfg, Transport(transport_cfg))


@dataclass
class _Robot:
    """One robot's run state. ``state`` is the frozen agent state carried
    from tick to tick; ``held`` is the anchor view it composed on its
    previous tick. The fields below the marker are handed from phase to
    phase within a tick.

    ``viewed`` holds the scene, pose and belief ints that the robot's last
    :func:`observe` left, and ``sightings`` what it saw. While the scene is
    the same object and the pose and the belief ints are equal, that view
    is still current (see :func:`_sense`)."""

    state: AgentState
    final_goal: Cell | None
    history: list[Event] = field(default_factory=list)
    held: Mapping[str, AnchorEntry] = field(default_factory=dict)
    path_len: float = 0.0
    viewed: tuple[SceneGraph, Pose, int, int] | None = None
    # --- this tick
    sightings: tuple[Observation, ...] = ()
    packet: SemanticPacket | None = None
    composed: ComposedContext | None = None
    admitted: list[Event] = field(default_factory=list)
    decision: ReplanDecision = KEEP
    action: str = ACTION_STOP
    blocked: bool = False
    attempt: dict | None = None


@dataclass
class _Run:
    """One rollout's state, shared by the tick phases. ``scene`` carries the
    blockages applied so far; ``transport`` carries the packets and holds
    the robots' bus replicas; ``dialogue`` holds this tick's records;
    ``ticks`` counts the ticks run."""

    scene: SceneGraph
    cfg: RolloutConfig
    transport: Transport
    robots: dict[str, _Robot]
    item: ItemState
    trace: Trace
    active_blockages: list[str] = field(default_factory=list)
    dialogue: list[DialogueRecord] = field(default_factory=list)
    ticks: int = 0
    swap_count: int = 0
    dialogue_count: int = 0


def _start(
    scene: SceneGraph,
    episode: EpisodeSpec,
    cfg: RolloutConfig,
    transport: Transport,
) -> _Run:
    if episode.scene_id != scene.scene_id:
        raise RolloutError(
            f"episode {episode.episode_id} belongs to {episode.scene_id}, "
            f"not {scene.scene_id}"
        )
    target = scene.objects.get(episode.target_object_id)
    if target is None:
        raise RolloutError(f"episode target {episode.target_object_id} not in scene")
    handoff, delivery = episode.handoff_waypoint.cell, episode.delivery_waypoint.cell
    chains = build_chains(
        target.cell, handoff, delivery, known_waypoints=(cfg.knowledge == "known")
    )
    starts = {"FH": episode.start_pose_fh, "SH": episode.start_pose_sh}
    robots: dict[str, _Robot] = {}
    for rid in ROBOTS:
        pctx = PolicyContext(rid, target.category, chains[rid])
        state = make_agent(scene, rid, starts[rid], pctx, cfg.knowledge)
        robots[rid] = _Robot(state, _final_goal(chains[rid]))
    header = {"episode_id": episode.episode_id, "scene_id": episode.scene_id}
    for key in ("policy", "knowledge", "t_max", "tau", "r_succ", "r_int", "seed"):
        header[key] = getattr(cfg, key)
    header["blockage_schedule"] = [[int(t), str(cid)] for t, cid in cfg.blockage_schedule]
    return _Run(
        scene=scene,
        cfg=cfg,
        transport=transport,
        robots=robots,
        item=ItemState(AT_PICKUP, target.cell, None),
        trace=Trace(header, tick_line=_tick_line),
    )


def _final_goal(chain: tuple[Subtask, ...]) -> Cell | None:
    return next((st.waypoint for st in reversed(chain) if st.waypoint is not None), None)


# --- tick phases, in order ------------------------------------------------


def _apply_blockages(run: _Run, now: int) -> None:
    for tick, cid in run.cfg.blockage_schedule:
        if tick == now:
            run.scene = apply_blockage(run.scene, cid)
            if cid not in run.active_blockages:
                run.active_blockages.append(cid)


def _sense(run: _Run, now: int) -> None:
    """Each robot observes, unless its view is still current: the scene is
    the object its last :func:`observe` left, and the pose and the belief
    ints are equal to what it left. ``observe`` would then find every
    sensed cell at its truth and return the same state and sightings, so
    both are kept. The rule rests on one invariant: a blockage makes a new
    :class:`~relaynav.world.SceneGraph`."""
    for r in run.robots.values():
        st, seen = r.state, r.viewed
        if (
            seen is not None
            and seen[0] is run.scene
            and seen[1] == st.pose
            and seen[2] == st.known
            and seen[3] == st.blocked
        ):
            continue
        r.state, r.sightings = observe(run.scene, st, run.cfg.sensor)
        r.viewed = (run.scene, r.state.pose, r.state.known, r.state.blocked)


def _publish(run: _Run, now: int) -> None:
    """FH then SH: each robot's packet goes out over the transport."""
    for rid, r in run.robots.items():
        st = r.state
        active = st.active_subtask()
        r.packet = SemanticPacket(
            robot_id=rid,
            ts=now,
            current_room=run.scene.room_label_of(st.cell),
            observations=r.sightings,
            stage=active.kind if active is not None else "Done",
            carrying=st.carrying,
            stopped=st.stopped,
        )
        run.transport.publish(rid, r.packet, now)


def _deliver(run: _Run, now: int) -> None:
    """Packets due this tick reach the partner's replica."""
    run.transport.deliver(now)


def _compose(run: _Run, now: int) -> None:
    cfg = run.cfg
    for rid, r in run.robots.items():
        bus = run.transport.replicas[rid]
        if cfg.policy == "static":
            r.composed = compose_muted(bus, rid, now)
        else:
            r.composed = compose_context(bus, rid, now, cfg.tau)


def _replan(run: _Run, now: int) -> None:
    """Event-driven replanning, FH first, so that SH sees FH's rewritten
    chain. A swap exchanges the two robots' live chains and final goals.
    With no event admitted the decision is ``KEEP`` and the context and
    dialogue stay as they are, so only a tick with admitted events pays for
    ``decide``, the swap inputs and the rewrite."""
    cfg = run.cfg
    run.dialogue = []
    for rid, r in run.robots.items():
        partner = run.robots[partner_of(rid)]
        st, completed, edges = drain_signals(r.state)
        signals = AgentSignals(
            sightings=r.sightings,
            completed_subtask=completed,
            newly_blocked_edges=edges,
        )
        events = extract_events(
            st.policy_ctx, r.composed, signals, now, cfg.trigger,
            room_of=run.scene.room_label_of, held=r.held,
        )
        r.admitted = filter_events(events, r.history, cfg.trigger)
        r.held = r.composed.anchors
        if not r.admitted:
            r.decision = KEEP
            r.state = st
            continue
        r.history.extend(r.admitted)
        decision = KEEP
        if cfg.policy == "deconav":
            decision = decide(r.admitted, st.policy_ctx, _swap_inputs(run, r), cfg.trigger)
        r.decision = decision

        mine = st.policy_ctx
        new_pctx, records = rewrite_policy_context(
            mine, r.admitted, decision, partner.state.policy_ctx.chain
        )
        if new_pctx is not mine:
            st = evolve(st, policy_ctx=new_pctx)
        if decision.kind == SWAP_SUBTASKS and new_pctx.chain != mine.chain:
            st = evolve(st, plan=None, best_steps=math.inf)
            ost = partner.state
            partner.state = evolve(
                ost,
                policy_ctx=evolve(ost.policy_ctx, chain=mine.chain),
                plan=None,
                best_steps=math.inf,
            )
            r.final_goal, partner.final_goal = partner.final_goal, r.final_goal
            run.swap_count += 1
        run.dialogue.extend(records)
        r.state = st
    run.dialogue_count += len(run.dialogue)


def _swap_inputs(run: _Run, r: _Robot) -> SwapInputs | None:
    """The reassignment test's inputs, or None while no swap is possible:
    the item is carried or delivered, the partner's context is stale, or a
    chain is finished or holds an unbound waypoint."""
    states = [x.state for x in run.robots.values()]
    if (
        run.item.phase not in STATIC_PHASES
        or run.item.phase == DELIVERED
        or r.composed.partner_state is None
        or not all(s.policy_ctx.chain for s in states)
        or any(
            sub.waypoint is None and sub.kind != STOP
            for s in states
            for sub in s.policy_ctx.chain
        )
    ):
        return None
    return SwapInputs(
        geodesics={s.robot_id: s.geodesics for s in states},
        positions={s.robot_id: s.cell for s in states},
        chains={s.robot_id: s.policy_ctx.chain for s in states},
    )


def _act(run: _Run, now: int) -> None:
    cfg = run.cfg
    for r in run.robots.values():
        r.state = ensure_plan(r.state)
        r.action = next_action(r.state, cfg.r_succ, cfg.r_int)


def _commit(run: _Run, now: int) -> None:
    robots = run.robots
    run.item, states, blocked, attempts = commit_actions(
        run.scene,
        run.item,
        {rid: r.state for rid, r in robots.items()},
        {rid: r.action for rid, r in robots.items()},
        run.cfg,
        now,
    )
    for rid, r in robots.items():
        r.state, r.blocked, r.attempt = states[rid], blocked[rid], attempts[rid]
        if r.action == ACTION_FORWARD and not r.blocked:
            r.path_len += FORWARD_M


def _progress(run: _Run, now: int) -> None:
    """A robot that stops on a reached goto, or on its Stop subtask, advances
    its chain; at most one advance per robot per tick."""
    cfg = run.cfg
    for r in run.robots.values():
        st = r.state
        active = st.active_subtask()
        if (
            (r.attempt is None or not r.attempt["ok"])
            and active is not None
            and r.action == ACTION_STOP
            and not st.stopped
        ):
            if (
                active.is_goto()
                and active.waypoint is not None
                and within(st.pose, active.waypoint, cfg.r_succ)
            ):
                st = advance_subtask(st, now)
            elif active.kind == STOP:
                st = evolve(advance_subtask(st, now), stopped=True)
        r.state = note_progress(st, now)


def _record(run: _Run, now: int) -> None:
    """Append the tick's row to the trace: one flat tuple of references to
    values the tick made, for :func:`_tick_line` to write only when the
    trace is written (``run_suite`` never writes its traces). The row rests
    on one invariant: nothing it references is mutated after its tick.
    Poses, packets, decisions, dialogue records and the item are frozen,
    and the admitted, attempt and dialogue containers are made anew each
    tick and never touched after it."""
    fh, sh = run.robots["FH"], run.robots["SH"]
    run.trace.append((
        now,
        fh.state.pose, fh.action, fh.blocked, fh.packet, _partner_ts(fh),
        fh.admitted, fh.decision, fh.attempt,
        sh.state.pose, sh.action, sh.blocked, sh.packet, _partner_ts(sh),
        sh.admitted, sh.decision, sh.attempt,
        run.dialogue, run.item, sorted(run.active_blockages),
    ))


def _partner_ts(r: _Robot) -> int | None:
    partner = r.composed.partner_state
    return None if partner is None else partner.ts


# --- the trace line of a tick row ------------------------------------------
# One fixed template per part, so a line is the bytes canonical_dumps writes
# for the tick's record: keys in sorted order, strings through json's own C
# quoting, ints and floats by repr (as json's C encoder writes them), bools
# and None from a table. Parts whose shape varies go through canonical_dumps.

_JSON_CONST = {True: "true", False: "false", None: "null"}
_KEEP_TEXT = canonical_dumps(KEEP.to_dict())


def _packet_text(p: SemanticPacket) -> str:
    observations = ",".join(
        f'{{"category":{_quote(o.category)},"cell":[{o.cell[0]!r},{o.cell[1]!r}],'
        f'"score":{o.score!r}}}'
        for o in p.observations
    )
    return (
        f'{{"carrying":{_JSON_CONST[p.carrying]},"current_room":{_quote(p.current_room)},'
        f'"observations":[{observations}],"robot_id":{_quote(p.robot_id)},'
        f'"stage":{_quote(p.stage)},"stopped":{_JSON_CONST[p.stopped]},"ts":{p.ts!r}}}'
    )


def _robot_text(
    pose: Pose,
    action: str,
    blocked: bool,
    packet: SemanticPacket,
    partner_ts: int | None,
    admitted: list[Event],
    decision: ReplanDecision,
    attempt: dict | None,
) -> str:
    return (
        f'{{"action":{_quote(action)},'
        f'"admitted":{canonical_dumps([e.to_dict() for e in admitted]) if admitted else "[]"},'
        f'"blocked":{_JSON_CONST[blocked]},'
        f'"decision":{_KEEP_TEXT if decision is KEEP else canonical_dumps(decision.to_dict())},'
        f'"interaction":{"null" if attempt is None else canonical_dumps(attempt)},'
        f'"packet":{_packet_text(packet)},'
        f'"partner_ts":{"null" if partner_ts is None else repr(partner_ts)},'
        f'"pose":[{pose.x!r},{pose.y!r},{pose.heading!r}]}}'
    )


def _tick_line(row: tuple) -> str:
    """The trace line of a row :func:`_record` appended."""
    dialogue, item, corridors = row[17:]
    return (
        f'{{"blocked_corridors":{canonical_dumps(corridors) if corridors else "[]"},'
        f'"dialogue":{canonical_dumps([d.to_dict() for d in dialogue]) if dialogue else "[]"},'
        f'"item":{canonical_dumps(item.to_dict())},"kind":"tick",'
        f'"robots":{{"FH":{_robot_text(*row[1:9])},"SH":{_robot_text(*row[9:17])}}},'
        f'"tick":{row[0]!r}}}'
    )


TICK_PHASES = (
    _apply_blockages, _sense, _publish, _deliver, _compose,
    _replan, _act, _commit, _progress, _record,
)


def _run(
    scene: SceneGraph,
    episode: EpisodeSpec,
    cfg: RolloutConfig,
    transport: Transport,
) -> tuple[RolloutResult, Trace]:
    cfg.validate()
    run = _start(scene, episode, cfg, transport)
    for now in range(cfg.t_max):
        run.ticks = now + 1
        for phase in TICK_PHASES:
            phase(run, now)
        if all(r.state.stopped for r in run.robots.values()):
            break
    result = _score_rollout(scene, episode, run)
    run.trace.result = result.to_dict()
    return result, run.trace


def _score_rollout(base_scene: SceneGraph, episode: EpisodeSpec, run: _Run) -> RolloutResult:
    ne = {}
    success = {}
    geo = base_scene.grid.geodesics()
    for rid, r in run.robots.items():
        st, goal = r.state, r.final_goal
        if goal is None:
            ne[rid] = math.inf
        else:
            ne[rid] = geo.meters(st.cell, goal)
        chain_done = st.stopped and not st.policy_ctx.chain
        success[rid] = bool(chain_done and ne[rid] <= run.cfg.r_succ)
    fh, sh = run.robots["FH"], run.robots["SH"]
    return RolloutResult(
        episode_id=episode.episode_id,
        success_fh=success["FH"],
        success_sh=success["SH"],
        both_success=success["FH"] and success["SH"],
        path_len_fh_m=fh.path_len,
        path_len_sh_m=sh.path_len,
        ne_fh_m=ne["FH"],
        ne_sh_m=ne["SH"],
        subtasks_done_fh=fh.state.subtasks_done,
        subtasks_done_sh=sh.state.subtasks_done,
        subtasks_remaining_fh=len(fh.state.policy_ctx.chain),
        subtasks_remaining_sh=len(sh.state.policy_ctx.chain),
        ticks=run.ticks,
        swap_count=run.swap_count,
        dialogue_count=run.dialogue_count,
    )
