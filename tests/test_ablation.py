"""Blockage-suite construction and the directional policy comparison."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from relaynav import ablation
from relaynav.ablation import (
    KIND_CUT,
    KIND_DETOUR,
    BlockagePlan,
    SuiteParams,
    ablation_report,
    build_blockage_suite,
    pick_route_blockage,
    run_suite,
)
from relaynav.config import RolloutConfig
from relaynav.engine import RolloutResult
from relaynav.episodes import EpisodeSpec, generate_episode
from relaynav.scenegen import generate_scene
from relaynav.seeds import derive_seed
from relaynav.world import NEIGHBORS_4, GridMap, apply_blockage

from support import geodesic_distance, plain_pick_route_blockage


@pytest.fixture(scope="module")
def qualifying_pair():
    """First (scene, episode, plan) the picker accepts on the seed-0 stream."""
    for draw in range(60):
        scene = generate_scene(derive_seed(0, "suite-scene", draw))
        for k in range(ablation.PER_SCENE):
            drawn = generate_episode(scene, derive_seed(0, "suite-episode", draw, k))
            if not isinstance(drawn, EpisodeSpec):
                continue
            plan = pick_route_blockage(scene, drawn)
            if plan is not None:
                return scene, drawn, plan
    pytest.fail("no qualifying blockage found in 60 scene draws")


@pytest.fixture(scope="module")
def small_suite():
    return build_blockage_suite(SuiteParams(n_episodes=2, seed=42))


class TestPicker:
    def test_plan_is_well_formed(self, qualifying_pair):
        scene, episode, plan = qualifying_pair
        assert plan.corridor_id in scene.corridors
        assert plan.tick >= 1
        assert plan.kind in (KIND_DETOUR, KIND_CUT)
        assert plan.swap_critical_m > 0

    def test_blockage_actually_costs_the_detour(self, qualifying_pair):
        scene, episode, plan = qualifying_pair
        start = episode.start_pose_fh.cell
        target = scene.objects[episode.target_object_id].cell
        direct = geodesic_distance(scene, start, target)
        after = geodesic_distance(apply_blockage(scene, plan.corridor_id), start, target)
        if plan.kind == KIND_CUT:
            assert math.isinf(after)
        else:
            assert after >= direct + ablation.MIN_DETOUR_EXTRA_M
            assert after - direct == pytest.approx(plan.detour_extra_m)

    def test_tick_precedes_gate_arrival(self, qualifying_pair):
        scene, episode, plan = qualifying_pair
        gate = scene.corridors[plan.corridor_id].gate_cells
        steps_to_gate = next(
            i for i, cell in enumerate(episode.gt_path_fh) if cell in gate
        )
        assert plan.tick == max(1, steps_to_gate // 2)
        assert plan.tick < steps_to_gate

    def test_huge_detour_floor_rules_out_detour_plans(self, qualifying_pair, monkeypatch):
        scene, episode, _ = qualifying_pair
        monkeypatch.setattr(ablation, "MIN_DETOUR_EXTRA_M", 1e6)
        again = pick_route_blockage(scene, episode)
        assert again is None or again.kind == KIND_CUT


class _CountingGeodesics(ablation.Geodesics):
    """The picker's closed maps, counted as the picker builds them."""

    built = 0

    def __init__(self, *args):
        type(self).built += 1
        super().__init__(*args)


@pytest.fixture(scope="module")
def drawn_candidates():
    """Every (scene, episode) the suite build would hand the picker from its
    first 25 scene draws at seeds 0 and 1."""
    out = []
    for seed in (0, 1):
        for draw in range(25):
            scene = generate_scene(derive_seed(seed, "suite-scene", draw))
            for k in range(ablation.PER_SCENE):
                drawn = generate_episode(scene, derive_seed(seed, "suite-episode", draw, k))
                if isinstance(drawn, EpisodeSpec):
                    out.append((scene, drawn))
    return out


class TestPickerEqualsPlainPicker:
    """The picker takes its open-map distances from one search and returns
    early when the open-map partner fails the taker test; the plain picker
    searches six times before it looks at a corridor. Both must agree."""

    def test_equal_plans_on_drawn_candidates(self, drawn_candidates, monkeypatch):
        monkeypatch.setattr(ablation, "Geodesics", _CountingGeodesics)
        early = looped = accepted = 0
        for scene, episode in drawn_candidates:
            _CountingGeodesics.built = 0
            plan = pick_route_blockage(scene, episode)
            assert plan == plain_pick_route_blockage(scene, episode), episode.episode_id
            target = scene.objects[episode.target_object_id].cell
            d_direct = geodesic_distance(scene, episode.start_pose_fh.cell, target)
            sh_open = geodesic_distance(scene, episode.start_pose_sh.cell, target)
            if sh_open > d_direct + ablation.TAKER_SLACK_M:
                # the early exit: no closed map is searched
                early += 1
                assert plan is None and _CountingGeodesics.built == 0
            elif _CountingGeodesics.built:
                looped += 1
            accepted += plan is not None
        assert len(drawn_candidates) >= 300
        assert early and looped and accepted, (early, looped, accepted)

    def test_walled_off_partner_start_yields_no_plan(self, qualifying_pair):
        scene, episode, plan = qualifying_pair
        assert plan is not None
        x, y = episode.start_pose_sh.cell
        grid = scene.grid
        walls = grid.mask((x + dx, y + dy) for dx, dy in NEIGHBORS_4)
        walled = replace(
            scene, grid=GridMap(grid.width, grid.height, grid.blocked | walls), _vis_fields={}
        )
        target = scene.objects[episode.target_object_id].cell
        assert math.isinf(geodesic_distance(walled, (x, y), target))
        assert pick_route_blockage(walled, episode) is None
        assert plain_pick_route_blockage(walled, episode) is None


class TestPlanSerialization:
    def test_cut_marks_infinite_detour(self):
        d = BlockagePlan("c1", 3, KIND_CUT, math.inf, 5.0).to_dict()
        assert d["detour_extra_m"] == "inf"
        assert d["swap_critical_m"] == 5.0

    def test_finite_detour_rounded(self):
        d = BlockagePlan("c1", 3, KIND_DETOUR, 12.3456789, 5.0).to_dict()
        assert d["detour_extra_m"] == 12.345679


class TestSuiteBuild:
    def test_entries_respect_budgets(self, small_suite):
        assert len(small_suite.entries) == 2
        for entry in small_suite.entries:
            assert entry.episode.scene_id in small_suite.scenes
            assert entry.plan.tick < entry.unblocked_ticks
            assert entry.t_max == min(
                RolloutConfig().t_max, entry.unblocked_ticks + ablation.BUDGET_EXTRA_TICKS
            )

    def test_build_is_deterministic(self, small_suite):
        again = build_blockage_suite(SuiteParams(n_episodes=2, seed=42))
        assert [e.episode.episode_id for e in again.entries] == [
            e.episode.episode_id for e in small_suite.entries
        ]
        assert [e.plan for e in again.entries] == [e.plan for e in small_suite.entries]

    def test_overrides_match_run_format(self, small_suite):
        overrides = small_suite.overrides()
        assert set(overrides) == {e.episode.episode_id for e in small_suite.entries}
        for entry in small_suite.entries:
            rec = overrides[entry.episode.episode_id]
            assert rec == {
                "blockages": [[entry.plan.tick, entry.plan.corridor_id]],
                "t_max": entry.t_max,
            }

    def test_run_suite_and_report_wiring(self, small_suite):
        deconav = run_suite(small_suite, "deconav")
        static = run_suite(small_suite, "static")
        assert all(r.swap_count == 0 for r in static.values())
        report = ablation_report(deconav, static)
        assert report["n_episodes"] == 2
        assert set(report["criteria"]) == {
            "bsr_overall", "bsr_swap_fired_strict", "path_lower_90pct"
        }
        assert report["n_swap_fired"] == len(report["swap_fired_ids"])


def result(eid, *, both=True, path=10.0, swaps=0):
    half = path / 2
    return RolloutResult(
        episode_id=eid, success_fh=both, success_sh=both, both_success=both,
        path_len_fh_m=half, path_len_sh_m=half, ne_fh_m=0.0, ne_sh_m=0.0,
        subtasks_done_fh=5, subtasks_done_sh=5,
        subtasks_remaining_fh=0, subtasks_remaining_sh=0,
        ticks=40, swap_count=swaps, dialogue_count=swaps,
    )


class TestReportMath:
    def test_rates_and_path_fraction(self):
        deconav = {
            "e1": result("e1", both=True, path=10.0, swaps=1),
            "e2": result("e2", both=True, path=12.0, swaps=1),
            "e3": result("e3", both=False, path=30.0, swaps=0),
        }
        static = {
            "e1": result("e1", both=False, path=14.0),
            "e2": result("e2", both=True, path=11.0),
            "e3": result("e3", both=False, path=30.0),
        }
        report = ablation_report(deconav, static)
        assert report["n_swap_fired"] == 2
        assert report["bsr_deconav"] == pytest.approx(2 / 3)
        assert report["bsr_static"] == pytest.approx(1 / 3)
        assert report["bsr_deconav_swap_fired"] == 1.0
        assert report["bsr_static_swap_fired"] == 0.5
        # e1 path shrank (10 < 14) but e2 grew (12 > 11)
        assert report["path_lower_count"] == 1
        assert report["path_lower_fraction"] == 0.5
        assert report["criteria"]["bsr_overall"] is True
        assert report["criteria"]["bsr_swap_fired_strict"] is True
        assert report["criteria"]["path_lower_90pct"] is False

    def test_no_swaps_fails_strict_criteria(self):
        deconav = {"e1": result("e1", both=True)}
        static = {"e1": result("e1", both=True)}
        report = ablation_report(deconav, static)
        assert report["n_swap_fired"] == 0
        assert report["criteria"]["bsr_overall"] is True
        assert report["criteria"]["bsr_swap_fired_strict"] is False
        assert report["criteria"]["path_lower_90pct"] is False

    def test_mismatched_episode_sets_rejected(self):
        with pytest.raises(ValueError):
            ablation_report({"e1": result("e1")}, {"e2": result("e2")})

    def test_empty_suite_rejected(self):
        with pytest.raises(ValueError):
            ablation_report({}, {})
