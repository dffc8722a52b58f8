"""Event extraction, admission filtering, and the reassignment cost test."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relaynav.bus import AnchorEntry, ComposedContext, Observation, SemanticPacket
from relaynav.config import TriggerConfig
from relaynav.replan import (
    CONFLICT,
    EVENT_PRIORITY,
    KEEP_ASSIGNMENT,
    PATH_BLOCKED,
    STAGE_COMPLETE,
    STAGNATION,
    SWAP_SUBTASKS,
    TARGET_DISCOVERED,
    UPDATE_ANCHOR_TARGET,
    AgentSignals,
    Event,
    PolicyContext,
    ReplanDecision,
    SwapInputs,
    decide,
    evaluate_swap,
    extract_events,
    filter_events,
    make_payload,
    rewrite_policy_context,
    swap_oracle,
)
from relaynav.seeds import derive_seed
from relaynav.tasks import GOTO_PICKUP, STOP, Subtask, build_chains

from support import geodesics_of, grid_of, random_swap_config


def ctx_for(robot_id="FH", chain=None, **kw):
    chain = chain if chain is not None else build_chains((5, 5), (10, 10), (15, 15))[robot_id]
    defaults = dict(
        robot_id=robot_id,
        target_category="bottle",
        chain=chain,
    )
    defaults.update(kw)
    return PolicyContext(**defaults)


def composed(partner=None, anchors=None):
    return ComposedContext(partner_state=partner, anchors=anchors or {})


def room_of(cell):
    return "RoomA" if cell[0] < 10 else "RoomB"


class TestExtractEvents:
    def test_stage_complete(self):
        events = extract_events(
            ctx_for(),
            composed(),
            AgentSignals(completed_subtask="GotoPickup"),
            3,
            TriggerConfig(),
            room_of,
            {},
        )
        assert [e.kind for e in events] == [STAGE_COMPLETE]
        assert dict(events[0].payload)["subtask"] == "GotoPickup"

    def test_discovery_from_own_sighting_picks_best_score(self):
        signals = AgentSignals(
            sightings=(
                Observation("bottle", (4, 4), 0.7),
                Observation("bottle", (6, 6), 0.9),
            )
        )
        events = extract_events(ctx_for(), composed(), signals, 1, TriggerConfig(), room_of, {})
        assert [e.kind for e in events] == [TARGET_DISCOVERED]
        payload = dict(events[0].payload)
        assert payload["source"] == "self"
        assert payload["cell"] == (6, 6) and payload["score"] == 0.9

    def test_discovery_ignores_weak_or_offtarget_sightings(self):
        signals = AgentSignals(
            sightings=(
                Observation("bottle", (4, 4), 0.3),
                Observation("cup", (4, 4), 0.99),
            )
        )
        events = extract_events(ctx_for(), composed(), signals, 1, TriggerConfig(), room_of, {})
        assert events == []

    def test_discovery_falls_back_to_anchor_memory(self):
        anchors = {"bottle": AnchorEntry((6, 6), 0.8, 0, "SH")}
        events = extract_events(
            ctx_for(), composed(anchors=anchors), AgentSignals(), 1, TriggerConfig(), room_of, {}
        )
        assert [e.kind for e in events] == [TARGET_DISCOVERED]
        assert dict(events[0].payload)["source"] == "SH"

    def test_no_rediscovery_after_target_found(self):
        signals = AgentSignals(sightings=(Observation("bottle", (4, 4), 0.9),))
        events = extract_events(
            ctx_for(target_found=True), composed(), signals, 1, TriggerConfig(), room_of, {}
        )
        assert events == []

    def test_conflict_when_partner_places_target_elsewhere(self):
        partner = SemanticPacket(
            "SH", 0, "RoomB", (Observation("bottle", (14, 4), 0.9),), "GotoHandoff", False, False
        )
        held = {"bottle": AnchorEntry((4, 4), 0.7, 0, "FH")}
        events = extract_events(
            ctx_for(target_found=True),
            composed(partner=partner),
            AgentSignals(),
            2,
            TriggerConfig(),
            room_of,
            held,
        )
        assert [e.kind for e in events] == [CONFLICT]
        payload = dict(events[0].payload)
        assert payload["local_room"] == "RoomA" and payload["partner_room"] == "RoomB"
        assert payload["partner_cell"] == (14, 4) and payload["partner_score"] == 0.9

    def test_conflict_reads_the_held_view_not_this_ticks_anchors(self):
        partner = SemanticPacket(
            "SH", 1, "RoomB", (Observation("bottle", (14, 4), 0.9),), "GotoHandoff", False, False
        )
        # this tick's merge already took the partner's sighting; the robot
        # still holds the view it composed a tick earlier
        merged = {"bottle": AnchorEntry((14, 4), 0.9, 1, "SH")}
        held = {"bottle": AnchorEntry((4, 4), 0.7, 0, "FH")}
        ctx = composed(partner=partner, anchors=merged)
        args = (ctx_for(target_found=True), ctx, AgentSignals(), 2, TriggerConfig(), room_of)
        events = extract_events(*args, held)
        assert [e.kind for e in events] == [CONFLICT]
        assert dict(events[0].payload)["local_cell"] == (4, 4)
        assert extract_events(*args, merged) == []
        assert extract_events(*args, {}) == []

    def test_no_conflict_when_rooms_agree(self):
        partner = SemanticPacket(
            "SH", 0, "RoomA", (Observation("bottle", (5, 9), 0.9),), "GotoHandoff", False, False
        )
        held = {"bottle": AnchorEntry((4, 4), 0.7, 0, "FH")}
        events = extract_events(
            ctx_for(target_found=True),
            composed(partner=partner),
            AgentSignals(),
            2,
            TriggerConfig(),
            room_of,
            held,
        )
        assert events == []

    def test_no_conflict_without_local_anchor(self):
        partner = SemanticPacket(
            "SH", 0, "RoomB", (Observation("bottle", (14, 4), 0.9),), "GotoHandoff", False, False
        )
        events = extract_events(
            ctx_for(target_found=True),
            composed(partner=partner),
            AgentSignals(),
            2,
            TriggerConfig(),
            room_of,
            {},
        )
        assert events == []

    def test_stagnation_fires_at_exactly_n_stag(self):
        cfg = TriggerConfig(n_stag=5)
        ctx = ctx_for(last_progress_tick=10, target_found=True)
        assert extract_events(ctx, composed(), AgentSignals(), 14, cfg, room_of, {}) == []
        events = extract_events(ctx, composed(), AgentSignals(), 15, cfg, room_of, {})
        assert [e.kind for e in events] == [STAGNATION]
        assert dict(events[0].payload)["since"] == 10

    def test_path_blocked_per_edge(self):
        signals = AgentSignals(newly_blocked_edges=(((1, 1), (2, 1)), ((3, 3), (4, 3))))
        events = extract_events(
            ctx_for(target_found=True), composed(), signals, 1, TriggerConfig(), room_of, {}
        )
        assert [e.kind for e in events] == [PATH_BLOCKED, PATH_BLOCKED]
        assert dict(events[0].payload)["edge"] == ((1, 1), (2, 1))


def full_scan_filter(events, history, cfg):
    """Reference admission rule: scan every event ever admitted."""
    admitted = []
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


# per call: the step from the last call's tick, then (kind, payload number)
# per event, all at the call's tick as in the tick loop; few payloads make
# repeats common
_CALLS = st.lists(
    st.tuples(
        st.integers(0, 7),
        st.lists(st.tuples(st.sampled_from(sorted(EVENT_PRIORITY)), st.integers(0, 2)), max_size=6),
    ),
    max_size=30,
)


class TestFilterEvents:
    @given(st.integers(0, 5), _CALLS)
    @settings(max_examples=200, deadline=None)
    def test_pruned_history_admits_as_the_full_scan(self, cooldown, calls):
        # steps of 0 give same-tick calls; steps around the cooldown hit the
        # window's boundary; equal kinds with other payloads tie on priority
        cfg = TriggerConfig(cooldown=cooldown)
        pruned, full = [], []
        tick = 0
        for step, drawn in calls:
            tick += step
            events = [Event(kind, tick, "FH", make_payload(n=n)) for kind, n in drawn]
            want = full_scan_filter(events, full, cfg)
            assert filter_events(events, pruned, cfg) == want
            if events:
                assert pruned == [h for h in full if h.tick >= tick - cooldown]
            full.extend(want)
            pruned.extend(want)

    def test_cooldown_suppresses_recent_duplicates(self):
        cfg = TriggerConfig(cooldown=10)
        e1 = Event(PATH_BLOCKED, 5, "FH", make_payload(edge=((1, 1), (2, 1))))
        e2 = Event(PATH_BLOCKED, 12, "FH", make_payload(edge=((1, 1), (2, 1))))
        e3 = Event(PATH_BLOCKED, 16, "FH", make_payload(edge=((1, 1), (2, 1))))
        assert filter_events([e2], [e1], cfg) == []
        assert filter_events([e3], [e1], cfg) == [e3]

    def test_distinct_payloads_both_admitted(self):
        cfg = TriggerConfig(cooldown=10)
        e1 = Event(PATH_BLOCKED, 5, "FH", make_payload(edge=((1, 1), (2, 1))))
        e2 = Event(PATH_BLOCKED, 5, "FH", make_payload(edge=((3, 3), (4, 3))))
        assert filter_events([e1, e2], [], cfg) == [e1, e2]

    def test_same_tick_duplicates_collapse(self):
        e = Event(STAGNATION, 5, "FH", make_payload(since=0))
        assert filter_events([e, e], [], TriggerConfig()) == [e]

    def test_priority_order_with_tick_tiebreak(self):
        cfg = TriggerConfig()
        stag = Event(STAGNATION, 1, "FH", make_payload(since=0))
        block = Event(PATH_BLOCKED, 2, "FH", make_payload(edge=((1, 1), (2, 1))))
        disc = Event(TARGET_DISCOVERED, 3, "FH", make_payload(cell=(1, 1)))
        admitted = filter_events([disc, stag, block], [], cfg)
        assert [e.kind for e in admitted] == [PATH_BLOCKED, TARGET_DISCOVERED, STAGNATION]

    def test_unknown_event_kind_rejected_at_construction(self):
        with pytest.raises(ValueError):
            Event("Eclipse", 1, "FH")


def open_lane_inputs(*, fh_goal, sh_goal, fh_at, sh_at):
    """Exact-cost scenario on an open 5x21 grid (0.25 m cells)."""
    passable = np.ones((5, 21), dtype=bool)
    chains = {
        "FH": (Subtask(GOTO_PICKUP, fh_goal), Subtask(STOP, None)),
        "SH": (Subtask(GOTO_PICKUP, sh_goal), Subtask(STOP, None)),
    }
    return SwapInputs(
        geodesics={r: geodesics_of(passable) for r in chains},
        positions={"FH": fh_at, "SH": sh_at},
        chains=chains,
    )


def grid_swap_case(rows, fh_at, sh_at, fh_goals, sh_goals):
    """(scene, SwapInputs) on a grid drawn as strings, ``#`` for a wall;
    each goal becomes one goto leg (None stays unbound), then Stop."""
    grid = grid_of([[c == "#" for c in row] for row in rows])
    scene = SimpleNamespace(grid=grid)
    chains = {
        rid: tuple(Subtask(GOTO_PICKUP, g) for g in goals) + (Subtask(STOP, None),)
        for rid, goals in (("FH", fh_goals), ("SH", sh_goals))
    }
    inputs = SwapInputs(
        geodesics={r: grid.geodesics() for r in chains},
        positions={"FH": fh_at, "SH": sh_at},
        chains=chains,
    )
    return scene, inputs


@st.composite
def grid_swap_cases(draw):
    """Small grids, a third of the cells walls, so split components (and
    with them unreachable legs) and equal makespans are both common."""
    w, h = draw(st.integers(2, 6)), draw(st.integers(1, 5))
    cells = draw(st.lists(st.sampled_from(".#."), min_size=w * h, max_size=w * h))
    cells[0] = "."
    rows = ["".join(cells[y * w:(y + 1) * w]) for y in range(h)]
    free = st.sampled_from([(x, y) for y in range(h) for x in range(w) if rows[y][x] == "."])
    goals = st.lists(st.one_of(st.none(), free), max_size=3)
    return grid_swap_case(rows, draw(free), draw(free), draw(goals), draw(goals))


class TestEvaluateSwap:
    # a wall splits the lane: both kept legs unreachable, the swap is free
    @example(grid_swap_case(["..#.."], (0, 0), (4, 0), [(4, 0)], [(0, 0)]), 0.5)
    # keep FH 3 / SH 3 steps, swap FH 3 / SH 1: equal makespans, lower sum
    @example(grid_swap_case(["....", "....", "...."], (0, 0), (2, 0), [(3, 0)], [(1, 2)]), 0.25)
    @example(grid_swap_case(["....", "....", "...."], (0, 0), (2, 0), [(3, 0)], [(1, 2)]), 0.5)
    @settings(max_examples=300, deadline=None)
    @given(grid_swap_cases(), st.sampled_from([0.0, 0.25, 0.5]))
    def test_matches_oracle_on_random_grids(self, case, epsilon_hyst):
        scene, inputs = case
        cfg = TriggerConfig(epsilon_hyst=epsilon_hyst)
        want = swap_oracle(scene, inputs.positions, inputs.chains, cfg)
        assert evaluate_swap(inputs, cfg) == want

    def test_crossed_goals_swap_with_zero_cost(self):
        inputs = open_lane_inputs(fh_goal=(20, 2), sh_goal=(0, 2), fh_at=(0, 2), sh_at=(20, 2))
        decision = evaluate_swap(inputs, TriggerConfig())
        assert decision.kind == SWAP_SUBTASKS
        payload = dict(decision.payload)
        assert payload["swap_cost"] == 0.0 and payload["keep_cost"] == 5.0

    def test_hysteresis_margin_blocks_marginal_gain(self):
        # keep makespan 5.0 m, swapped makespan 4.75 m: the 0.25 m gain is
        # inside the 0.5 m margin, so the assignment is held
        inputs = open_lane_inputs(fh_goal=(20, 2), sh_goal=(19, 2), fh_at=(0, 2), sh_at=(1, 2))
        assert evaluate_swap(inputs, TriggerConfig()).kind == KEEP_ASSIGNMENT

    def test_equal_makespan_falls_back_to_cost_sum(self):
        # keep: FH 16 steps, SH 16 steps; swap: FH 20, SH 0 -> makespan worse, keep
        # keep: FH 20, SH 16; swap: FH 16, SH 20 -> equal makespan, equal sum, keep
        # sum rule needs a strictly cheaper total at equal makespan:
        # keep: FH 0->16 (16), SH 4->20 (16); swap: FH 0->20 (20), SH 4->16 (12)
        # keep makespan 4.0 vs swap 5.0 -> keep wins outright; invert goals:
        inputs = open_lane_inputs(fh_goal=(20, 2), sh_goal=(16, 2), fh_at=(0, 2), sh_at=(4, 2))
        # keep: FH 20 steps (5.0), SH 12 steps (3.0) -> makespan 5.0, sum 8.0
        # swap: FH 16 steps (4.0), SH 16 steps (4.0) -> makespan 4.0 -> swap
        decision = evaluate_swap(inputs, TriggerConfig())
        assert decision.kind == SWAP_SUBTASKS
        assert dict(decision.payload)["swap_cost"] == 4.0

    def test_unreachable_keep_reported_as_inf(self):
        passable = np.ones((5, 21), dtype=bool)
        passable[:, 10] = False  # wall splits the lane
        chains = {
            "FH": (Subtask(GOTO_PICKUP, (20, 2)), Subtask(STOP, None)),
            "SH": (Subtask(GOTO_PICKUP, (0, 2)), Subtask(STOP, None)),
        }
        inputs = SwapInputs(
            geodesics={r: geodesics_of(passable) for r in chains},
            positions={"FH": (0, 2), "SH": (20, 2)},
            chains=chains,
            )
        decision = evaluate_swap(inputs, TriggerConfig())
        assert decision.kind == SWAP_SUBTASKS
        payload = dict(decision.payload)
        assert payload["keep_cost"] == "inf" and payload["swap_cost"] == 0.0

    def test_agrees_with_independent_oracle(self):
        cfg = TriggerConfig()
        for i in range(60):
            scene, inputs = random_swap_config(derive_seed(77, "swap", i))
            got = evaluate_swap(inputs, cfg)
            want = swap_oracle(scene, inputs.positions, inputs.chains, cfg)
            assert got == want, f"trial {i}: {got} != {want}"

    def test_requires_exactly_two_robots(self):
        passable = np.ones((5, 5), dtype=bool)
        inputs = SwapInputs(
            geodesics={"FH": geodesics_of(passable)},
            positions={"FH": (0, 0)},
            chains={"FH": (Subtask(STOP, None),)},
        )
        with pytest.raises(ValueError):
            evaluate_swap(inputs, TriggerConfig())


class TestHysteresis:
    def test_no_reswap_oscillation_after_exchange(self):
        cfg = TriggerConfig()
        first = open_lane_inputs(fh_goal=(20, 2), sh_goal=(0, 2), fh_at=(0, 2), sh_at=(20, 2))
        assert evaluate_swap(first, cfg).kind == SWAP_SUBTASKS
        second = SwapInputs(
            geodesics=first.geodesics,
            positions=first.positions,
            chains={"FH": first.chains["SH"], "SH": first.chains["FH"]},
        )
        assert evaluate_swap(second, cfg).kind == KEEP_ASSIGNMENT


class TestDecide:
    def swap_favoring_inputs(self):
        return open_lane_inputs(fh_goal=(20, 2), sh_goal=(0, 2), fh_at=(0, 2), sh_at=(20, 2))

    def test_blockage_triggers_swap_with_initiator(self):
        block = Event(PATH_BLOCKED, 2, "FH", make_payload(edge=((1, 1), (2, 1))))
        decision = decide([block], ctx_for(), self.swap_favoring_inputs(), TriggerConfig())
        assert decision.kind == SWAP_SUBTASKS
        assert dict(decision.payload)["initiator"] == "FH"
        # a payload is sorted by key, so the decision reads back as it was
        assert ReplanDecision.from_dict(decision.to_dict()) == decision

    def test_stagnation_triggers_swap_too(self):
        stag = Event(STAGNATION, 2, "SH", make_payload(since=0))
        decision = decide([stag], ctx_for("SH"), self.swap_favoring_inputs(), TriggerConfig())
        assert decision.kind == SWAP_SUBTASKS
        assert dict(decision.payload)["initiator"] == "SH"

    def test_blockage_without_inputs_keeps(self):
        block = Event(PATH_BLOCKED, 2, "FH", make_payload(edge=((1, 1), (2, 1))))
        assert decide([block], ctx_for(), None, TriggerConfig()).kind == KEEP_ASSIGNMENT

    def test_discovery_updates_anchor(self):
        disc = Event(
            TARGET_DISCOVERED,
            2,
            "FH",
            make_payload(category="bottle", cell=(7, 7), score=0.9, source="self"),
        )
        decision = decide([disc], ctx_for(), None, TriggerConfig())
        assert decision.kind == UPDATE_ANCHOR_TARGET
        assert dict(decision.payload)["cell"] == (7, 7)

    def test_conflict_defers_to_better_partner_score(self):
        conflict = Event(
            CONFLICT,
            2,
            "FH",
            make_payload(
                category="bottle",
                local_room="A",
                local_cell=(1, 1),
                local_score=0.6,
                partner_room="B",
                partner_cell=(12, 1),
                partner_score=0.9,
            ),
        )
        decision = decide([conflict], ctx_for(), None, TriggerConfig())
        assert decision.kind == UPDATE_ANCHOR_TARGET
        assert dict(decision.payload)["cell"] == (12, 1)

    def test_conflict_keeps_on_better_local_score(self):
        conflict = Event(
            CONFLICT,
            2,
            "FH",
            make_payload(
                category="bottle",
                local_room="A",
                local_cell=(1, 1),
                local_score=0.9,
                partner_room="B",
                partner_cell=(12, 1),
                partner_score=0.6,
            ),
        )
        assert decide([conflict], ctx_for(), None, TriggerConfig()).kind == KEEP_ASSIGNMENT

    def test_no_events_keeps(self):
        assert decide([], ctx_for(), None, TriggerConfig()).kind == KEEP_ASSIGNMENT


class TestRewrite:
    def test_swap_records_dialogue_and_leaves_the_chain_to_the_engine(self):
        chains = build_chains((5, 5), (10, 10), (15, 15))
        ctx = ctx_for("FH", chain=chains["FH"])
        admitted = [Event(PATH_BLOCKED, 4, "FH", make_payload(edge=((1, 1), (2, 1))))]
        swap = ReplanDecision(
            SWAP_SUBTASKS, make_payload(keep_cost=9.0, swap_cost=1.0, initiator="FH")
        )
        new_ctx, records = rewrite_policy_context(ctx, admitted, swap)
        assert new_ctx == ctx
        assert len(records) == 1
        assert records[0].summary == (
            "FH proposes swapping remaining subtasks with SH; symmetric cost test agrees"
        )
        assert records[0].trigger == PATH_BLOCKED and records[0].initiator == "FH"
        assert records[0].tick == 4 and records[0].decision == swap

    def test_anchor_update_rebinds_pickup_legs_only(self):
        chains = build_chains((5, 5), (10, 10), (15, 15))
        ctx = ctx_for("FH", chain=chains["FH"])
        update = ReplanDecision(
            UPDATE_ANCHOR_TARGET, make_payload(category="bottle", cell=(8, 8), score=0.9)
        )
        admitted = [
            Event(
                TARGET_DISCOVERED,
                4,
                "FH",
                make_payload(category="bottle", cell=(8, 8), score=0.9, source="self"),
            )
        ]
        new_ctx, records = rewrite_policy_context(ctx, admitted, update)
        assert new_ctx.chain[0].waypoint == (8, 8)
        assert new_ctx.chain[1].waypoint == (8, 8)
        assert new_ctx.chain[2].waypoint == (10, 10)
        assert new_ctx.target_found is True
        assert len(records) == 1 and "anchors bottle" in records[0].summary


def test_policy_context_validation():
    chain = build_chains((5, 5), (10, 10), (15, 15))["FH"]
    good = PolicyContext("FH", "bottle", chain)
    assert good.active_subtask() is chain[0]
