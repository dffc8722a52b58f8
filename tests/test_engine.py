"""Rollout engine: determinism, mode equivalence, relay semantics."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from relaynav.agent import make_agent
from relaynav.config import RolloutConfig, TransportConfig
from relaynav.engine import (
    AT_HANDOFF,
    AT_PICKUP,
    DELIVERED,
    ItemState,
    RolloutError,
    RolloutResult,
    commit_actions,
    run_distributed,
    run_lockstep,
)
from relaynav.replan import PolicyContext, identity_priorities
from relaynav.tasks import DELIVER, DEPOSIT, PICK_UP, RECEIVE, STOP, Subtask
from relaynav.world import ACTION_STOP, FORWARD_M, scene_from_dict, scene_to_dict

from support import center_pose, walled_lab

PHASE_ORDER = (AT_PICKUP, "CarriedByFH", AT_HANDOFF, "CarriedBySH", DELIVERED)


def phases_of(trace):
    seen = []
    for rec in trace.records:
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

    def test_discover_mode_also_deterministic(self, batch10):
        scene, episode = batch10[0]
        cfg = RolloutConfig(knowledge="discover")
        _, t1 = run_lockstep(scene, episode, cfg)
        _, t2 = run_lockstep(scene, episode, cfg)
        assert t1.to_bytes() == t2.to_bytes()


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
                assert trace.records[-1]["item"]["phase"] == DELIVERED
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
                for rec in trace.records
                if rec["robots"][rid]["action"] == "move_forward"
                and not rec["robots"][rid]["blocked"]
            )
            assert length == pytest.approx(steps * FORWARD_M)

    def test_lockstep_partner_context_is_same_tick(self, batch10):
        scene, episode = batch10[0]
        _, trace = run_lockstep(scene, episode, RolloutConfig())
        for rec in trace.records:
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
            for rec in trace.records:
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
        assert trace.records
        for rec in trace.records:
            for rid in ("FH", "SH"):
                assert rec["robots"][rid]["partner_ts"] is None
        assert result.success_fh  # local chain still runs to completion


class TestBlockageSchedule:
    def test_blockage_applies_at_tick_without_mutating_base_scene(self, batch10):
        scene, episode = batch10[0]
        cid = sorted(scene.corridors)[0]
        cfg = RolloutConfig(t_max=12, blockage_schedule=((5, cid),))
        _, trace = run_lockstep(scene, episode, cfg)
        for rec in trace.records:
            expect = [cid] if rec["tick"] >= 5 else []
            assert rec["blocked_corridors"] == expect
        assert not scene.corridors[cid].blocked
        assert trace.header["blockage_schedule"] == [[5, cid]]


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
        ctx = PolicyContext(rid, "bottle", chain, identity_priorities(chain))
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

    def test_scene_episode_mismatch_raises(self, batch10):
        (scene_a, _), (_, episode_b) = batch10[0], batch10[1]
        with pytest.raises(RolloutError):
            run_lockstep(scene_a, episode_b, RolloutConfig())

    def test_scene_with_other_resolution_raises(self, batch10):
        scene, episode = batch10[0]
        data = scene_to_dict(scene)
        data["meta"]["resolution"] = 0.5
        with pytest.raises(RolloutError, match="resolution"):
            run_lockstep(scene_from_dict(data), episode, RolloutConfig())

    def test_invalid_config_rejected(self, batch10):
        scene, episode = batch10[0]
        with pytest.raises(ValueError):
            run_lockstep(scene, episode, RolloutConfig(tau=-1))

    def test_trace_header_is_mode_agnostic(self, batch10):
        scene, episode = batch10[0]
        _, trace = run_lockstep(scene, episode, RolloutConfig(t_max=2))
        assert set(trace.header) == {
            "episode_id", "scene_id", "policy", "knowledge", "t_max", "tau",
            "r_succ", "r_int", "seed", "blockage_schedule",
        }
