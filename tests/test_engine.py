"""Rollout engine: determinism, mode equivalence, relay semantics."""

from __future__ import annotations

import json
import math
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaynav import engine
from relaynav.agent import make_agent, on_blocked
from relaynav.bus import Observation, SemanticPacket
from relaynav.config import MAX_SENSOR_RANGE_M, RolloutConfig, SensorConfig, TransportConfig
from relaynav.engine import (
    AT_HANDOFF,
    AT_PICKUP,
    DELIVERED,
    ItemState,
    RolloutError,
    RolloutResult,
    _score_rollout,
    commit_actions,
    run_distributed,
    run_lockstep,
)
from relaynav.replan import (
    KEEP,
    PATH_BLOCKED,
    STAGNATION,
    SWAP_SUBTASKS,
    UPDATE_ANCHOR_TARGET,
    DialogueRecord,
    Event,
    PolicyContext,
    ReplanDecision,
    extract_events,
    make_payload,
)
from relaynav.tasks import (
    DELIVER,
    DEPOSIT,
    PICK_UP,
    RECEIVE,
    STOP,
    Subtask,
    build_chains,
    rebind_target,
)
from relaynav.transport import Transport
from relaynav.serialize import canonical_dumps
from relaynav.world import (
    ACTION_FORWARD,
    ACTION_STOP,
    FORWARD_M,
    Pose,
    SceneFormatError,
    scene_from_dict,
    scene_to_dict,
)

from support import center_pose, plain_tick_record, tick_records, walled_lab

PHASE_ORDER = (AT_PICKUP, "CarriedByFH", AT_HANDOFF, "CarriedBySH", DELIVERED)


def phases_of(trace):
    seen = []
    for rec in tick_records(trace):
        phase = rec["item"]["phase"]
        if not seen or seen[-1] != phase:
            seen.append(phase)
    return tuple(seen)


class TestDeterminismAndEquivalence:
    def test_lockstep_reruns_byte_identical(self, batch10):
        for scene, episode in batch10[:3]:
            cfg = RolloutConfig()
            _, t1 = run_lockstep(scene, episode, cfg)
            _, t2 = run_lockstep(scene, episode, cfg)
            assert t1.to_bytes() == t2.to_bytes()

    def test_distributed_degenerate_transport_matches_lockstep(self, batch10):
        for scene, episode in batch10[:3]:
            cfg = RolloutConfig()
            _, lock = run_lockstep(scene, episode, cfg)
            _, dist = run_distributed(
                scene, episode, replace(cfg, mode="distributed"), TransportConfig()
            )
            assert lock.to_bytes() == dist.to_bytes()

    def test_unshared_zero_latency_replicas_match_lockstep(self, batch10, blockage_run):
        # a zero-latency link shares one replica between the robots, on both
        # sides of the test above; here one side keeps a replica per robot,
        # fed over send/due, and must still write the same bytes
        runs = [
            (scene, episode, RolloutConfig(policy=policy))
            for scene, episode in batch10
            for policy in ("deconav", "static")
        ]
        runs.append(blockage_run)
        for scene, episode, cfg in runs:
            lock_result, lock = run_lockstep(scene, episode, cfg)
            transport = Transport(TransportConfig())
            transport.shared = False
            _, unshared = engine._run(scene, episode, cfg, transport)
            assert transport.sent == 2 * lock_result.ticks
            assert unshared.to_bytes() == lock.to_bytes()
        assert lock_result.swap_count >= 1  # the blockage entry swaps

    def test_discover_mode_also_deterministic(self, batch10):
        scene, episode = batch10[0]
        cfg = RolloutConfig(knowledge="discover")
        _, t1 = run_lockstep(scene, episode, cfg)
        _, t2 = run_lockstep(scene, episode, cfg)
        assert t1.to_bytes() == t2.to_bytes()


class TestAnchorHandOff:
    def test_events_read_the_anchors_composed_a_tick_earlier(self, batch10, monkeypatch):
        calls = {"FH": [], "SH": []}

        def recording(prev, ctx, signals, now, cfg, room_of, held):
            calls[prev.robot_id].append((now, held, dict(ctx.anchors)))
            return extract_events(prev, ctx, signals, now, cfg, room_of, held)

        monkeypatch.setattr(engine, "extract_events", recording)
        scene, episode = batch10[0]
        run_lockstep(scene, episode, RolloutConfig())
        for seen in calls.values():
            assert [now for now, _, _ in seen] == list(range(len(seen)))
            assert seen[0][1] == {}
            for (_, _, before), (_, held, _) in zip(seen, seen[1:]):
                assert held == before
            assert any(held != anchors for _, held, anchors in seen)


class TestSameTickRebindAndSwap:
    def test_swap_takes_the_partner_chain_rebound_earlier_in_the_tick(
        self, batch10, monkeypatch
    ):
        # on tick 0 FH re-points its pickup legs, then SH swaps: SH must end
        # the tick with the chain FH holds after its rebind
        scene, episode = batch10[0]
        target = scene.objects[episode.target_object_id].cell
        new_cell = next(iter(episode.gt_path_sh))
        assert new_cell != target
        since = make_payload(since=0)
        monkeypatch.setattr(
            engine, "filter_events", lambda *_: [Event(STAGNATION, 0, "FH", since)]
        )

        def scripted(admitted, ctx, swap_inputs, cfg):
            if ctx.robot_id == "FH":
                return ReplanDecision(
                    UPDATE_ANCHOR_TARGET,
                    make_payload(category=ctx.target_category, cell=new_cell, score=0.9),
                )
            return ReplanDecision(
                SWAP_SUBTASKS, make_payload(keep_cost=2.0, swap_cost=1.0, initiator="SH")
            )

        monkeypatch.setattr(engine, "decide", scripted)
        at_commit = {}

        def recording(scene_, item, states, actions, cfg, now):
            at_commit.update({rid: st.policy_ctx.chain for rid, st in states.items()})
            return commit_actions(scene_, item, states, actions, cfg, now)

        monkeypatch.setattr(engine, "commit_actions", recording)
        result, _ = run_lockstep(scene, episode, RolloutConfig(t_max=1))
        chains = build_chains(
            target,
            episode.handoff_waypoint.cell,
            episode.delivery_waypoint.cell,
        )
        assert at_commit["SH"] == rebind_target(chains["FH"], new_cell)
        assert at_commit["FH"] == chains["SH"]
        assert result.swap_count == 1


class TestSwapInputs:
    def test_only_a_resting_undelivered_item_can_be_reassigned(self, scene_episode):
        scene, episode = scene_episode
        run = engine._start(scene, episode, RolloutConfig(), Transport(TransportConfig()))
        for phase in engine.TICK_PHASES[: engine.TICK_PHASES.index(engine._compose) + 1]:
            phase(run, 0)
        cell = run.item.cell
        for item, possible in (
            (ItemState(AT_PICKUP, cell), True),
            (ItemState(AT_HANDOFF, cell), True),
            (ItemState("CarriedByFH", None, "FH"), False),
            (ItemState("CarriedBySH", None, "SH"), False),
            (ItemState(DELIVERED, cell), False),
        ):
            run.item = item
            for r in run.robots.values():
                assert (engine._swap_inputs(run, r) is not None) == possible, item.phase


class TestRelayCompletion:
    def test_known_mode_relay_succeeds(self, batch10):
        wins = 0
        for scene, episode in batch10:
            result, trace = run_lockstep(scene, episode, RolloutConfig())
            if result.both_success:
                wins += 1
                assert result.ticks < RolloutConfig().t_max
                assert result.subtasks_done_fh == 5 and result.subtasks_done_sh == 5
                assert result.subtasks_remaining_fh == 0 == result.subtasks_remaining_sh
                assert tick_records(trace)[-1]["item"]["phase"] == DELIVERED
        assert wins == len(batch10)

    def test_item_phases_follow_relay_order(self, batch10):
        for scene, episode in batch10[:4]:
            result, trace = run_lockstep(scene, episode, RolloutConfig())
            phases = phases_of(trace)
            if result.swap_count == 0:
                assert phases == PHASE_ORDER
            else:  # a pre-pickup swap hands both legs to the other robot
                assert phases == (AT_PICKUP, "CarriedBySH", AT_HANDOFF, "CarriedByFH", DELIVERED)

    def test_path_length_counts_committed_forward_steps(self, batch10):
        scene, episode = batch10[0]
        result, trace = run_lockstep(scene, episode, RolloutConfig())
        for rid, length in (("FH", result.path_len_fh_m), ("SH", result.path_len_sh_m)):
            steps = sum(
                1
                for rec in tick_records(trace)
                if rec["robots"][rid]["action"] == "move_forward"
                and not rec["robots"][rid]["blocked"]
            )
            assert length == pytest.approx(steps * FORWARD_M)

    def test_lockstep_partner_context_is_same_tick(self, batch10):
        scene, episode = batch10[0]
        _, trace = run_lockstep(scene, episode, RolloutConfig())
        for rec in tick_records(trace):
            for rid in ("FH", "SH"):
                assert rec["robots"][rid]["partner_ts"] == rec["tick"]

    def test_discover_mode_can_complete_the_relay(self, batch10):
        # exploration dominates: budget is ~6x the known-map default
        wins = 0
        for scene, episode in batch10[:4]:
            result, _ = run_lockstep(
                scene, episode, RolloutConfig(knowledge="discover", t_max=3000)
            )
            wins += int(result.both_success)
        assert wins >= 3

    def test_tiny_budget_times_out_without_success(self, batch10):
        scene, episode = batch10[0]
        result, trace = run_lockstep(scene, episode, RolloutConfig(t_max=3))
        assert result.ticks == 3 and len(trace.records) == 3
        assert not result.both_success


class TestStaticPolicy:
    def test_muted_partner_and_no_swaps(self, batch10):
        for scene, episode in batch10[:2]:
            result, trace = run_lockstep(scene, episode, RolloutConfig(policy="static"))
            assert result.swap_count == 0 and result.dialogue_count == 0
            for rec in tick_records(trace):
                for rid in ("FH", "SH"):
                    assert rec["robots"][rid]["partner_ts"] is None
                    assert rec["robots"][rid]["decision"]["kind"] == "KeepAssignment"
            # the physical relay still completes without coordination
            assert result.both_success


class TestLatency:
    def test_high_latency_starves_partner_context(self, batch10):
        scene, episode = batch10[0]
        cfg = RolloutConfig(mode="distributed")
        transport = TransportConfig(latency=2 * cfg.tau)
        result, trace = run_distributed(scene, episode, cfg, transport)
        recs = tick_records(trace)
        assert recs
        for rec in recs:
            for rid in ("FH", "SH"):
                assert rec["robots"][rid]["partner_ts"] is None
        assert result.success_fh  # local chain still runs to completion


class TestBlockageSchedule:
    def test_blockage_applies_at_tick_without_mutating_base_scene(self, batch10):
        scene, episode = batch10[0]
        cid = sorted(scene.corridors)[0]
        cfg = RolloutConfig(t_max=12, blockage_schedule=((5, cid),))
        _, trace = run_lockstep(scene, episode, cfg)
        for rec in tick_records(trace):
            expect = [cid] if rec["tick"] >= 5 else []
            assert rec["blocked_corridors"] == expect
        assert not scene.corridors[cid].blocked
        assert trace.header["blockage_schedule"] == [[5, cid]]


class TestViewReuse:
    @pytest.mark.parametrize("knowledge", ["known", "discover"])
    def test_a_kept_view_is_what_observe_would_return(self, batch10, monkeypatch, knowledge):
        # a blockage at tick 190 and an injected bump at the next forward step
        # from tick 193, while one robot waits: at every tick where _sense
        # keeps a robot's view, a fresh observe on the same inputs returns
        # the same state and sightings
        scene, episode = batch10[0]
        cid = sorted(scene.corridors)[0]
        cfg = RolloutConfig(knowledge=knowledge, t_max=300, blockage_schedule=((190, cid),))
        real_observe, real_step = engine.observe, engine.step_kinematics
        observed: dict[int, set[str]] = {}
        kept: list[int] = []
        bumps: list[int] = []
        clock = {"now": -1}

        def counting(scene_, state, sensor):
            observed[clock["now"]].add(state.robot_id)
            return real_observe(scene_, state, sensor)

        def checked_sense(run, now):
            clock["now"] = now
            observed[now] = set()
            engine._sense(run, now)
            for rid, r in run.robots.items():
                if rid not in observed[now]:
                    state, sightings = real_observe(run.scene, r.state, run.cfg.sensor)
                    assert state is r.state and sightings == r.sightings
                    kept.append(now)

        def bump_once(scene_, pose, action):
            if action == ACTION_FORWARD and clock["now"] >= 193 and not bumps:
                bumps.append(clock["now"])
                return pose, True
            return real_step(scene_, pose, action)

        monkeypatch.setattr(engine, "observe", counting)
        monkeypatch.setattr(engine, "step_kinematics", bump_once)
        monkeypatch.setattr(
            engine, "TICK_PHASES",
            tuple(checked_sense if p is engine._sense else p for p in engine.TICK_PHASES),
        )
        _, trace = run_lockstep(scene, episode, cfg)
        bumped = [
            (rec["tick"], rid)
            for rec in tick_records(trace)
            for rid, row in rec["robots"].items()
            if row["blocked"]
        ]
        assert len(bumped) == 1 and bumped[0][0] == bumps[0]
        tick, rid = bumped[0]
        assert rid in observed[tick + 1]  # the bump wrote the belief
        assert observed[190] == {"FH", "SH"}  # the blockage made a new scene
        assert any(t < 190 for t in kept) and any(t > tick for t in kept)

    def test_known_lockstep_observes_less_than_once_per_robot_tick(self, batch10, monkeypatch):
        calls = []
        real_observe = engine.observe

        def counting(*args):
            calls.append(args[1].robot_id)
            return real_observe(*args)

        monkeypatch.setattr(engine, "observe", counting)
        scene, episode = batch10[0]
        result, _ = run_lockstep(scene, episode, RolloutConfig())
        assert len(calls) < 2 * result.ticks


class TestItemState:
    def test_resting_phases_need_cell_only(self):
        ItemState(AT_PICKUP, (3, 3), None)
        with pytest.raises(ValueError):
            ItemState(AT_PICKUP, None, None)
        with pytest.raises(ValueError):
            ItemState(AT_PICKUP, (3, 3), "FH")

    def test_carried_phases_need_carrier_only(self):
        ItemState("CarriedByFH", None, "FH")
        with pytest.raises(ValueError):
            ItemState("CarriedByFH", (3, 3), "FH")
        with pytest.raises(ValueError):
            ItemState("CarriedByFH", None, None)

    def test_unknown_phase_rejected(self):
        with pytest.raises(ValueError):
            ItemState("Orbiting", (3, 3), None)


def interaction_pair(scene, item_cell, fh_kind, sh_kind, fh_cell=None, sh_cell=None):
    states = {}
    for rid, kind, cell in (("FH", fh_kind, fh_cell), ("SH", sh_kind, sh_cell)):
        chain = (Subtask(kind, item_cell), Subtask(STOP, None))
        ctx = PolicyContext(rid, "bottle", chain)
        states[rid] = make_agent(scene, rid, center_pose(cell or item_cell), ctx)
    return states


class TestInteractionGuards:
    def setup_method(self):
        self.scene = walled_lab()
        self.cfg = RolloutConfig()
        self.actions = {"FH": ACTION_STOP, "SH": ACTION_STOP}

    def test_receive_requires_prior_deposit(self):
        item = ItemState(AT_PICKUP, (6, 4), None)
        states = interaction_pair(self.scene, (6, 4), PICK_UP, RECEIVE)
        new_item, _, _, attempts = commit_actions(
            self.scene, item, states, self.actions, self.cfg, now=0
        )
        assert attempts["FH"] == {"kind": PICK_UP, "ok": True}
        assert attempts["SH"] == {"kind": RECEIVE, "ok": False}
        assert new_item.phase == "CarriedByFH" and new_item.carrier == "FH"

    def test_same_tick_deposit_and_receive_is_impossible(self):
        item = ItemState("CarriedByFH", None, "FH")
        states = interaction_pair(self.scene, (6, 4), DEPOSIT, RECEIVE)
        item1, states, _, attempts = commit_actions(
            self.scene, item, states, self.actions, self.cfg, now=0
        )
        assert attempts["FH"]["ok"] is True
        assert attempts["SH"]["ok"] is False  # guard reads the tick-start item
        assert item1.phase == AT_HANDOFF
        item2, _, _, attempts = commit_actions(
            self.scene, item1, states, self.actions, self.cfg, now=1
        )
        assert attempts["SH"] == {"kind": RECEIVE, "ok": True}
        assert item2.phase == "CarriedBySH"

    def test_interactions_gated_by_radius(self):
        item = ItemState(AT_PICKUP, (6, 4), None)
        states = interaction_pair(
            self.scene, (6, 4), PICK_UP, RECEIVE, fh_cell=(2, 4), sh_cell=(2, 5)
        )
        new_item, _, _, attempts = commit_actions(
            self.scene, item, states, self.actions, self.cfg, now=0
        )
        assert attempts["FH"] == {"kind": PICK_UP, "ok": False}
        assert new_item == item

    def test_deliver_requires_the_carrier(self):
        item = ItemState("CarriedBySH", None, "SH")
        states = interaction_pair(self.scene, (6, 4), DELIVER, DELIVER)
        new_item, _, _, attempts = commit_actions(
            self.scene, item, states, self.actions, self.cfg, now=0
        )
        assert attempts["FH"]["ok"] is False
        assert attempts["SH"]["ok"] is True
        assert new_item.phase == DELIVERED and new_item.cell == (6, 4)


class TestResultAndErrors:
    def test_result_round_trips_including_inf(self):
        result = RolloutResult(
            episode_id="ep", success_fh=True, success_sh=False, both_success=False,
            path_len_fh_m=12.25, path_len_sh_m=0.0, ne_fh_m=0.0, ne_sh_m=math.inf,
            subtasks_done_fh=5, subtasks_done_sh=1, subtasks_remaining_fh=0,
            subtasks_remaining_sh=4, ticks=88, swap_count=1, dialogue_count=2,
        )
        assert RolloutResult.from_dict(result.to_dict()) == result

    def test_navigation_error_is_measured_on_the_true_map(self):
        # FH wrongly believes the doorway blocked; its own geodesics would
        # call the goal unreachable, the score must not
        scene = walled_lab()
        states = {}
        for rid in ("FH", "SH"):
            ctx = PolicyContext(rid, "bottle", ())
            states[rid] = make_agent(scene, rid, center_pose((7, 4)), ctx)
        states["FH"] = on_blocked(states["FH"], ((7, 4), (8, 4)))
        goals = {"FH": (13, 4), "SH": (2, 4)}
        run = SimpleNamespace(
            cfg=RolloutConfig(),
            robots={rid: engine._Robot(states[rid], goals[rid], None) for rid in states},
            ticks=1, swap_count=0, dialogue_count=0,
        )
        result = _score_rollout(scene, SimpleNamespace(episode_id="ep"), run)
        assert result.ne_fh_m == 6 * FORWARD_M and result.ne_sh_m == 5 * FORWARD_M

    def test_scene_episode_mismatch_raises(self, batch10):
        (scene_a, _), (_, episode_b) = batch10[0], batch10[1]
        with pytest.raises(RolloutError):
            run_lockstep(scene_a, episode_b, RolloutConfig())

    def test_scene_with_other_resolution_raises(self, batch10):
        # a scene of any other cell size is refused where it is read, so no
        # rollout ever meets one
        scene, _ = batch10[0]
        data = scene_to_dict(scene)
        data["meta"]["resolution"] = 0.5
        with pytest.raises(SceneFormatError, match="resolution 0.5"):
            scene_from_dict(data)

    def test_invalid_config_rejected(self, batch10):
        scene, episode = batch10[0]
        with pytest.raises(ValueError):
            run_lockstep(scene, episode, RolloutConfig(tau=-1))

    @pytest.mark.parametrize(
        "range_m, fov_deg", [(0.1, 120.0), (5.0, 1e-3), (MAX_SENSOR_RANGE_M, 360.0)]
    )
    def test_extreme_valid_sensors_run(self, batch10, range_m, fov_deg):
        # a range below one cell senses nothing; the cap builds the largest table
        scene, episode = batch10[0]
        sensor = SensorConfig(range_m=range_m, fov_deg=fov_deg)
        for knowledge in ("known", "discover"):
            cfg = RolloutConfig(knowledge=knowledge, t_max=20, sensor=sensor)
            assert run_lockstep(scene, episode, cfg)[0].ticks == 20

    def test_trace_header_is_mode_agnostic(self, batch10):
        scene, episode = batch10[0]
        _, trace = run_lockstep(scene, episode, RolloutConfig(t_max=2))
        assert set(trace.header) == {
            "episode_id", "scene_id", "policy", "knowledge", "t_max", "tau",
            "r_succ", "r_int", "seed", "blockage_schedule",
        }


def assert_written_plainly(row: tuple, line: str) -> None:
    """``line``, the engine's text for ``row``, is canonical JSON of the
    record the plain path builds."""
    assert line == canonical_dumps(json.loads(line))
    plain = {"kind": "tick", **plain_tick_record(row)}
    assert json.loads(line) == plain
    assert line == canonical_dumps(plain)


def written_row(**changed) -> tuple:
    """A tick row as ``engine._record`` lays it out, with FH's values (or
    the tick's, by their names) replaced by ``changed``."""
    packet = SemanticPacket(
        "FH", 7, "Kitchen", (Observation("mug", (3, 4), 0.75),), "PickUp", False, False
    )
    fh = {
        "pose": Pose(1.125, 2.875, 90), "action": ACTION_FORWARD, "blocked": False,
        "packet": packet, "partner_ts": 7, "admitted": [], "decision": KEEP, "attempt": None,
    }
    tick = {"dialogue": [], "item": ItemState(AT_PICKUP, (3, 4)), "corridors": []}
    for name, value in changed.items():
        (fh if name in fh else tick)[name] = value
    sh_packet = replace(packet, robot_id="SH")
    sh = (Pose(0.125, 0.125, 0), ACTION_STOP, True, sh_packet, None, [], KEEP, None)
    return (7, *fh.values(), *sh, *tick.values())


SWAP = ReplanDecision(SWAP_SUBTASKS, make_payload(keep_cost=2.5, swap_cost=1.0, initiator="SH"))


class TestTickLine:
    """Each tick line is written from the tick's row by fixed templates;
    it must be the bytes ``canonical_dumps`` writes for the plain record."""

    @settings(max_examples=10, deadline=None)
    @given(
        index=st.integers(0, 9),
        knowledge=st.sampled_from(["known", "discover"]),
        policy=st.sampled_from(["deconav", "static"]),
        lossy=st.booleans(),
        closures=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 99)), max_size=2),
    )
    def test_drawn_rollouts(self, batch10, index, knowledge, policy, lossy, closures):
        scene, episode = batch10[index]
        corridors = sorted(scene.corridors)
        schedule = tuple((tick, corridors[k % len(corridors)]) for tick, k in closures)
        cfg = RolloutConfig(
            knowledge=knowledge, policy=policy, t_max=150, blockage_schedule=schedule
        )
        if lossy:
            link = TransportConfig(latency=2, jitter=1, drop_prob=0.2, seed=index)
            _, trace = run_distributed(scene, episode, cfg, link)
        else:
            _, trace = run_lockstep(scene, episode, cfg)
        for row, line in zip(trace.records, trace.lines()[1:-1], strict=True):
            assert_written_plainly(row, line)

    def test_a_swap_with_dialogue_and_a_closed_corridor(self, blockage_run):
        result, trace = run_lockstep(*blockage_run)
        assert result.swap_count >= 1 and result.dialogue_count >= 1
        rows = trace.records
        assert any(row[-3] for row in rows)  # dialogue
        assert any(row[-1] for row in rows)  # closed corridors
        for row, line in zip(rows, trace.lines()[1:-1], strict=True):
            assert_written_plainly(row, line)

    @pytest.mark.parametrize(
        "changed",
        [
            pytest.param({}, id="plain"),
            pytest.param(
                {"packet": SemanticPacket(
                    "FH", 7, "Küche \"2\" \\ nord", (Observation("tasse ☕\n", (0, 1), 1.0),),
                    "Receive", True, True,
                )},
                id="non-ascii-quote-backslash",
            ),
            pytest.param({"partner_ts": None}, id="stale-partner"),
            pytest.param(
                {"admitted": [
                    Event(STAGNATION, 3, "FH", make_payload(since=0)),
                    Event(PATH_BLOCKED, 7, "FH", make_payload(edge=((1, 2), (1, 3)), note="a\"b")),
                ]},
                id="nested-tuple-payloads",
            ),
            pytest.param(
                {
                    "decision": SWAP,
                    "dialogue": [DialogueRecord(7, STAGNATION, "FH", "swap «FH»", SWAP)],
                },
                id="swap-with-dialogue",
            ),
            pytest.param({"corridors": ["c001", "c004"]}, id="two-closed-corridors"),
            pytest.param(
                {
                    "attempt": {"kind": PICK_UP, "ok": True},
                    "item": ItemState("CarriedByFH", None, "FH"),
                },
                id="interaction-and-carried-item",
            ),
            pytest.param({"pose": Pose(-0.0, 1e-07, 270), "blocked": True}, id="float-forms"),
        ],
    )
    def test_constructed_rows(self, changed):
        row = written_row(**changed)
        assert_written_plainly(row, engine._tick_line(row))
