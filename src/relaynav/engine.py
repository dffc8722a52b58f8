"""Synchronous rollout engine: lockstep and distributed relay execution.

Both modes share one tick pipeline — apply scheduled blockages, sense,
publish, compose, replan, choose actions, commit atomically, advance
subtasks — and differ only in how semantic packets travel: lockstep writes
to one shared bus, distributed keeps a per-robot replica fed by a simulated
transport. Role assignment and dialogue are maintained engine-side and
identically in both modes, so a distributed run over a zero-latency,
zero-loss transport reproduces the lockstep trace byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .agent import (
    AgentState,
    advance_subtask,
    ensure_plan,
    drain_signals,
    make_agent,
    next_action,
    note_progress,
    observe,
    on_blocked,
    within,
)
from .bus import (
    AnchorEntry,
    BusState,
    ROBOTS,
    SemanticPacket,
    compose_context,
    compose_muted,
    empty_bus,
    partner_of,
    publish,
    record_dialogue,
)
from .config import RolloutConfig, TransportConfig
from .episodes import EpisodeSpec
from .replan import (
    AgentSignals,
    KEEP,
    PolicyContext,
    SWAP_SUBTASKS,
    SwapInputs,
    decide,
    exchange_roles,
    extract_events,
    filter_events,
    identity_priorities,
    rewrite_policy_context,
)
from .tasks import STOP, Subtask, build_chains
from .trace import Trace
from .transport import Transport
from .world import (
    ACTION_FORWARD,
    ACTION_STOP,
    Cell,
    FORWARD_M,
    Geodesics,
    HEADING_VECTORS,
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
class ItemState:
    """Relay item: resting phases carry the cell, carried phases the robot."""

    phase: str
    cell: Cell | None
    carrier: str | None = None

    def __post_init__(self) -> None:
        valid = set(PHASES)
        if self.phase not in valid:
            raise ValueError(f"unknown item phase {self.phase!r}")
        if self.phase in STATIC_PHASES and (self.cell is None or self.carrier is not None):
            raise ValueError("resting item needs a cell and no carrier")
        if self.phase not in STATIC_PHASES and (self.cell is not None or self.carrier is None):
            raise ValueError("carried item needs a carrier and no cell")

    def to_dict(self) -> dict:
        return {
            "phase": self.phase,
            "cell": list(self.cell) if self.cell is not None else None,
            "carrier": self.carrier,
        }


@dataclass(frozen=True)
class RolloutResult:
    episode_id: str
    success_fh: bool
    success_sh: bool
    both_success: bool
    path_len_fh_m: float
    path_len_sh_m: float
    ne_fh_m: float
    ne_sh_m: float
    subtasks_done_fh: int
    subtasks_done_sh: int
    subtasks_remaining_fh: int
    subtasks_remaining_sh: int
    ticks: int
    swap_count: int
    dialogue_count: int

    def to_dict(self) -> dict:
        return {
            "episode_id": self.episode_id,
            "success_fh": self.success_fh,
            "success_sh": self.success_sh,
            "both_success": self.both_success,
            "path_len_fh_m": round(self.path_len_fh_m, 6),
            "path_len_sh_m": round(self.path_len_sh_m, 6),
            "ne_fh_m": self.ne_fh_m if math.isfinite(self.ne_fh_m) else "inf",
            "ne_sh_m": self.ne_sh_m if math.isfinite(self.ne_sh_m) else "inf",
            "subtasks_done_fh": self.subtasks_done_fh,
            "subtasks_done_sh": self.subtasks_done_sh,
            "subtasks_remaining_fh": self.subtasks_remaining_fh,
            "subtasks_remaining_sh": self.subtasks_remaining_sh,
            "ticks": self.ticks,
            "swap_count": self.swap_count,
            "dialogue_count": self.dialogue_count,
        }

    @staticmethod
    def from_dict(d: dict) -> "RolloutResult":
        return RolloutResult(
            episode_id=d["episode_id"],
            success_fh=bool(d["success_fh"]),
            success_sh=bool(d["success_sh"]),
            both_success=bool(d["both_success"]),
            path_len_fh_m=float(d["path_len_fh_m"]),
            path_len_sh_m=float(d["path_len_sh_m"]),
            ne_fh_m=math.inf if d["ne_fh_m"] == "inf" else float(d["ne_fh_m"]),
            ne_sh_m=math.inf if d["ne_sh_m"] == "inf" else float(d["ne_sh_m"]),
            subtasks_done_fh=int(d["subtasks_done_fh"]),
            subtasks_done_sh=int(d["subtasks_done_sh"]),
            subtasks_remaining_fh=int(d["subtasks_remaining_fh"]),
            subtasks_remaining_sh=int(d["subtasks_remaining_sh"]),
            ticks=int(d["ticks"]),
            swap_count=int(d["swap_count"]),
            dialogue_count=int(d["dialogue_count"]),
        )


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
    res = scene.grid.resolution
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
                st = on_blocked(st, (st.cell, ahead), now)
                blocked_flags[rid] = True
            else:
                st = replace(st, pose=new_pose)
        elif act == ACTION_STOP:
            active = st.active_subtask()
            if active is not None and active.is_interaction():
                ok, item = _resolve_interaction(
                    rid, active, st, item_start, item, cfg, res
                )
                attempts[rid] = {"kind": active.kind, "ok": ok}
                if ok:
                    st = advance_subtask(st, now)
                    st = replace(st, carrying=item.carrier == rid)
        else:  # turns
            new_pose, _ = step_kinematics(scene, st.pose, act)
            st = replace(st, pose=new_pose)
        new_states[rid] = st
    return item, new_states, blocked_flags, attempts


def _resolve_interaction(
    rid: str,
    active: Subtask,
    st: AgentState,
    item_start: ItemState,
    item_cur: ItemState,
    cfg: RolloutConfig,
    res: float,
) -> tuple[bool, ItemState]:
    kind = active.kind
    if kind in _TAKES:
        if (
            item_start.phase == _TAKES[kind]
            and item_cur.phase == _TAKES[kind]
            and within(st.pose, item_start.cell, cfg.r_int, res)
        ):
            return True, ItemState(carried_by(rid), None, rid)
    elif kind in _PUTS:
        if (
            item_start.carrier == rid
            and active.waypoint is not None
            and within(st.pose, active.waypoint, cfg.r_int, res)
        ):
            return True, ItemState(_PUTS[kind], active.waypoint, None)
    return False, item_cur


def run_lockstep(
    scene: SceneGraph, episode: EpisodeSpec, cfg: RolloutConfig
) -> tuple[RolloutResult, Trace]:
    return _run(scene, episode, cfg, transport=None)


def run_distributed(
    scene: SceneGraph,
    episode: EpisodeSpec,
    cfg: RolloutConfig,
    transport_cfg: TransportConfig,
) -> tuple[RolloutResult, Trace]:
    return _run(scene, episode, cfg, transport=Transport(transport_cfg))


def _initial_setup(scene: SceneGraph, episode: EpisodeSpec, cfg: RolloutConfig):
    if episode.scene_id != scene.scene_id:
        raise RolloutError(
            f"episode {episode.episode_id} belongs to {episode.scene_id}, "
            f"not {scene.scene_id}"
        )
    target = scene.objects.get(episode.target_object_id)
    if target is None:
        raise RolloutError(f"episode target {episode.target_object_id} not in scene")
    grid = scene.grid
    if grid.resolution != FORWARD_M:
        raise RolloutError(f"scene resolution {grid.resolution} m, rollouts need {FORWARD_M} m")
    handoff_cell = grid.cell_of(episode.handoff_waypoint.x, episode.handoff_waypoint.y)
    delivery_cell = grid.cell_of(episode.delivery_waypoint.x, episode.delivery_waypoint.y)
    chains = build_chains(
        target.cell,
        handoff_cell,
        delivery_cell,
        known_waypoints=(cfg.knowledge == "known"),
    )
    starts = {"FH": episode.start_pose_fh, "SH": episode.start_pose_sh}
    states: dict[str, AgentState] = {}
    for rid in ROBOTS:
        pctx = PolicyContext(
            robot_id=rid,
            target_category=target.category,
            chain=chains[rid],
            priorities=identity_priorities(chains[rid]),
        )
        states[rid] = make_agent(scene, rid, starts[rid], pctx, cfg.knowledge)
    # the robots start out believing one passability: one memo serves both
    # until either one's belief changes it
    fh, sh = states["FH"], states["SH"]
    if np.array_equal(fh.geodesics.passable, sh.geodesics.passable):
        states["SH"] = replace(sh, geodesics=fh.geodesics)
    item = ItemState(AT_PICKUP, target.cell, None)
    return states, item, chains


def _final_goal(chain: tuple[Subtask, ...]) -> Cell | None:
    goal = None
    for st in chain:
        if st.waypoint is not None:
            goal = st.waypoint
    return goal


def _run(
    scene: SceneGraph,
    episode: EpisodeSpec,
    cfg: RolloutConfig,
    transport: Transport | None,
) -> tuple[RolloutResult, Trace]:
    cfg.validate()
    base_scene = scene
    states, item, chains = _initial_setup(scene, episode, cfg)
    res = scene.grid.resolution

    roles = {rid: states[rid].policy_ctx.chain for rid in ROBOTS}
    if transport is None:
        shared_bus = empty_bus(roles)
        replicas = None
    else:
        shared_bus = None
        replicas = {rid: empty_bus(roles) for rid in ROBOTS}

    schedule: dict[int, list[str]] = {}
    for tick, corridor_id in cfg.blockage_schedule:
        schedule.setdefault(int(tick), []).append(str(corridor_id))

    history: dict[str, list] = {rid: [] for rid in ROBOTS}
    # each robot's anchor view as composed on its previous tick
    held: dict[str, Mapping[str, AnchorEntry]] = {rid: {} for rid in ROBOTS}
    final_goals: dict[str, Cell | None] = {
        rid: _final_goal(chains[rid]) for rid in ROBOTS
    }
    path_len = {rid: 0.0 for rid in ROBOTS}
    swap_count = 0
    dialogue_total = 0
    active_blockages: list[str] = []

    trace = Trace(
        header={
            "episode_id": episode.episode_id,
            "scene_id": episode.scene_id,
            "policy": cfg.policy,
            "knowledge": cfg.knowledge,
            "t_max": cfg.t_max,
            "tau": cfg.tau,
            "r_succ": cfg.r_succ,
            "r_int": cfg.r_int,
            "seed": cfg.seed,
            "blockage_schedule": [
                [int(tick), str(cid)] for tick, cid in cfg.blockage_schedule
            ],
        }
    )

    def bus_for(rid: str) -> BusState:
        return shared_bus if replicas is None else replicas[rid]

    def everywhere(fn) -> None:
        """Apply a bus update engine-side: on the shared bus or all replicas."""
        nonlocal shared_bus
        if replicas is None:
            shared_bus = fn(shared_bus)
        else:
            for rid in ROBOTS:
                replicas[rid] = fn(replicas[rid])

    ticks_run = 0
    for now in range(cfg.t_max):
        ticks_run = now + 1
        # 1. scheduled world changes
        for cid in schedule.get(now, []):
            scene = apply_blockage(scene, cid)
            if cid not in active_blockages:
                active_blockages.append(cid)

        # 2. sense
        sightings: dict[str, tuple] = {}
        for rid in ROBOTS:
            states[rid], sightings[rid] = observe(scene, states[rid], cfg.sensor)

        # 3. publish (FH then SH)
        packets: dict[str, SemanticPacket] = {}
        for rid in ROBOTS:
            st = states[rid]
            active = st.active_subtask()
            pkt = SemanticPacket(
                robot_id=rid,
                ts=now,
                current_room=scene.room_label_of(st.cell),
                observations=sightings[rid],
                stage=active.kind if active is not None else "Done",
                carrying=st.carrying,
                stopped=st.stopped,
            )
            packets[rid] = pkt
            if replicas is None:
                shared_bus = publish(shared_bus, pkt)
            else:
                replicas[rid] = publish(replicas[rid], pkt)
                transport.send(rid, pkt, now)

        # 4. transport delivery into partner replicas
        if transport is not None:
            for dv in transport.due(now):
                dest = partner_of(dv.sender)
                replicas[dest] = publish(replicas[dest], dv.packet)

        # 5. compose per-robot contexts
        composed = {}
        for rid in ROBOTS:
            if cfg.policy == "static":
                composed[rid] = compose_muted(bus_for(rid), rid, now)
            else:
                composed[rid] = compose_context(bus_for(rid), rid, now, cfg.tau)

        # 6. event-driven replanning, FH first so a swap is visible to SH
        admitted_by: dict[str, list] = {}
        decision_by: dict[str, dict] = {}
        tick_dialogue: list[dict] = []
        for rid in ROBOTS:
            st, completed, edges = drain_signals(states[rid])
            signals = AgentSignals(
                sightings=sightings[rid],
                completed_subtask=completed,
                newly_blocked_edges=edges,
            )
            events = extract_events(
                st.policy_ctx, composed[rid], signals, now, cfg.trigger,
                room_of=scene.room_label_of, held=held[rid],
            )
            admitted = filter_events(events, history[rid], cfg.trigger)
            history[rid].extend(admitted)
            admitted_by[rid] = admitted

            swap_inputs = None
            if (
                cfg.policy == "deconav"
                and item.phase in STATIC_PHASES
                and item.phase != DELIVERED
                and composed[rid].partner_state is not None
                and all(states[r].policy_ctx.chain for r in ROBOTS)
                and all(
                    sub.waypoint is not None or sub.kind == STOP
                    for r in ROBOTS
                    for sub in states[r].policy_ctx.chain
                )
            ):
                swap_inputs = SwapInputs(
                    geodesics={r: states[r].geodesics for r in ROBOTS},
                    positions={r: states[r].cell for r in ROBOTS},
                    chains={r: states[r].policy_ctx.chain for r in ROBOTS},
                    item_static=True,
                    resolution=res,
                )
            if cfg.policy == "deconav":
                decision = decide(admitted, st.policy_ctx, swap_inputs, cfg.trigger)
            else:
                decision = KEEP
            decision_by[rid] = decision.to_dict()

            new_pctx, records = rewrite_policy_context(
                st.policy_ctx, admitted, decision, bus_for(rid)
            )
            swapped = (
                decision.kind == SWAP_SUBTASKS
                and new_pctx.chain != st.policy_ctx.chain
            )
            if new_pctx is not st.policy_ctx:
                st = replace(st, policy_ctx=new_pctx)
            if swapped:
                st = replace(st, plan=None, best_steps=math.inf)
                other = partner_of(rid)
                ost = states[other]
                mirror = replace(
                    ost.policy_ctx,
                    chain=roles[rid],
                    priorities=identity_priorities(roles[rid]),
                )
                states[other] = replace(
                    ost, policy_ctx=mirror, plan=None, best_steps=math.inf
                )
                roles = exchange_roles(roles)
                everywhere(lambda b: replace_roles(b, roles))
                final_goals[rid], final_goals[other] = (
                    final_goals[other],
                    final_goals[rid],
                )
                swap_count += 1
            for rec in records:
                everywhere(lambda b, rec=rec: record_dialogue(b, rec))
                tick_dialogue.append(rec.to_dict())
                dialogue_total += 1
            held[rid] = composed[rid].anchors
            states[rid] = st

        # 7. action selection
        actions: dict[str, str] = {}
        for rid in ROBOTS:
            states[rid] = ensure_plan(states[rid], now)
            actions[rid] = next_action(states[rid], cfg.r_succ, cfg.r_int, res)

        # 8. atomic commit
        item, states, blocked_flags, attempts = commit_actions(
            scene, item, states, actions, cfg, now
        )
        for rid in ROBOTS:
            if actions[rid] == ACTION_FORWARD and not blocked_flags[rid]:
                path_len[rid] += FORWARD_M

        # 9. subtask progress (one advance per robot per tick at most)
        for rid in ROBOTS:
            st = states[rid]
            if attempts[rid] is None or not attempts[rid]["ok"]:
                active = st.active_subtask()
                if (
                    active is not None
                    and actions[rid] == ACTION_STOP
                    and not st.stopped
                ):
                    if (
                        active.is_goto()
                        and active.waypoint is not None
                        and within(st.pose, active.waypoint, cfg.r_succ, res)
                    ):
                        st = advance_subtask(st, now)
                    elif active.kind == STOP:
                        st = advance_subtask(st, now)
                        st = replace(st, stopped=True)
            st = note_progress(st, now)
            states[rid] = st

        # role sync so next tick's swap evaluation sees remaining chains
        roles = {rid: states[rid].policy_ctx.chain for rid in ROBOTS}
        everywhere(lambda b: replace_roles(b, roles))

        # 10. trace record
        trace.append(
            {
                "tick": now,
                "robots": {
                    rid: {
                        "pose": [states[rid].pose.x, states[rid].pose.y, states[rid].pose.heading],
                        "action": actions[rid],
                        "blocked": blocked_flags[rid],
                        "packet": packets[rid].to_dict(),
                        "partner_ts": (
                            composed[rid].partner_state.ts
                            if composed[rid].partner_state is not None
                            else None
                        ),
                        "admitted": [e.to_dict() for e in admitted_by[rid]],
                        "decision": decision_by[rid],
                        "interaction": attempts[rid],
                    }
                    for rid in ROBOTS
                },
                "dialogue": tick_dialogue,
                "item": item.to_dict(),
                "blocked_corridors": sorted(active_blockages),
            }
        )

        if all(states[rid].stopped for rid in ROBOTS):
            break

    result = _score_rollout(
        base_scene, episode, cfg, states, final_goals, path_len,
        ticks_run, swap_count, dialogue_total,
    )
    trace.result = result.to_dict()
    return result, trace


def replace_roles(bus: BusState, roles: dict) -> BusState:
    if bus.roles == roles:
        return bus
    return replace(bus, roles=dict(roles))


def _score_rollout(
    base_scene: SceneGraph,
    episode: EpisodeSpec,
    cfg: RolloutConfig,
    states: dict[str, AgentState],
    final_goals: dict[str, Cell | None],
    path_len: dict[str, float],
    ticks: int,
    swap_count: int,
    dialogue_total: int,
) -> RolloutResult:
    ne = {}
    success = {}
    passable = ~base_scene.grid.blocked
    for rid in ROBOTS:
        st = states[rid]
        goal = final_goals[rid]
        if goal is None:
            ne[rid] = math.inf
        else:
            # a robot that believes the true map may already hold the field
            geo = st.geodesics
            if not np.array_equal(geo.passable, passable):
                geo = Geodesics(passable)
            ne[rid] = geo.meters(st.cell, goal, base_scene.grid.resolution)
        chain_done = st.stopped and not st.policy_ctx.chain
        success[rid] = bool(chain_done and ne[rid] <= cfg.r_succ)
    return RolloutResult(
        episode_id=episode.episode_id,
        success_fh=success["FH"],
        success_sh=success["SH"],
        both_success=success["FH"] and success["SH"],
        path_len_fh_m=path_len["FH"],
        path_len_sh_m=path_len["SH"],
        ne_fh_m=ne["FH"],
        ne_sh_m=ne["SH"],
        subtasks_done_fh=states["FH"].subtasks_done,
        subtasks_done_sh=states["SH"].subtasks_done,
        subtasks_remaining_fh=len(states["FH"].policy_ctx.chain),
        subtasks_remaining_sh=len(states["SH"].policy_ctx.chain),
        ticks=ticks,
        swap_count=swap_count,
        dialogue_count=dialogue_total,
    )
