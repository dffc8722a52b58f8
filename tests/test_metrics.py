"""Metric terms, pooling conventions, and A/B comparison."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from relaynav.engine import RolloutResult
from relaynav.metrics import (
    UNDEFINED,
    EpisodeResult,
    MetricsError,
    MetricsReport,
    aggregate,
    compare,
    format_compare,
    format_report,
    isr_term,
    score_episode,
    spl_term,
)


def episode_result(eid="e", fh=True, sh=True, ne=0.0, isr=1.0, spl=1.0, **kw):
    defaults = dict(
        episode_id=eid,
        success_fh=fh,
        success_sh=sh,
        both_success=fh and sh,
        spl_fh=spl if fh else 0.0,
        spl_sh=spl if sh else 0.0,
        isr_fh=isr,
        isr_sh=isr,
        ne_fh_m=ne,
        ne_sh_m=ne,
        path_len_fh_m=10.0,
        path_len_sh_m=10.0,
        gt_length_fh_m=10.0,
        gt_length_sh_m=10.0,
        ticks=100,
        swap_count=0,
        dialogue_count=0,
    )
    defaults.update(kw)
    return EpisodeResult(**defaults)


class TestTerms:
    def test_spl_longer_than_optimal(self):
        assert spl_term(True, 10.0, 12.5) == 0.8

    def test_spl_failure_scores_zero(self):
        assert spl_term(False, 10.0, 12.5) == 0.0

    def test_spl_capped_at_one_when_shorter_than_optimal(self):
        assert spl_term(True, 10.0, 7.0) == 1.0

    def test_spl_degenerate_zero_route(self):
        assert spl_term(True, 0.0, 0.0) == 1.0

    def test_isr_fraction_of_chain(self):
        assert isr_term(3, 2) == 0.6
        assert isr_term(0, 5) == 0.0
        assert isr_term(5, 0) == 1.0
        with pytest.raises(MetricsError):
            isr_term(0, 0)


class TestScoreEpisode:
    def test_joins_rollout_with_gt_lengths(self, scene_episode):
        _, episode = scene_episode
        result = RolloutResult(
            episode_id=episode.episode_id,
            success_fh=True, success_sh=True, both_success=True,
            path_len_fh_m=episode.gt_length_fh * 1.25,
            path_len_sh_m=episode.gt_length_sh,
            ne_fh_m=0.0, ne_sh_m=0.0,
            subtasks_done_fh=5, subtasks_done_sh=4,
            subtasks_remaining_fh=0, subtasks_remaining_sh=1,
            ticks=120, swap_count=0, dialogue_count=0,
        )
        scored = score_episode(result, episode)
        assert scored.spl_fh == pytest.approx(0.8)
        assert scored.spl_sh == 1.0
        assert scored.isr_fh == 1.0 and scored.isr_sh == 0.8
        assert scored.gt_length_fh_m == episode.gt_length_fh

    def test_mismatched_ids_rejected(self, scene_episode):
        _, episode = scene_episode
        result = RolloutResult(
            episode_id="someone-else", success_fh=False, success_sh=False,
            both_success=False, path_len_fh_m=0.0, path_len_sh_m=0.0,
            ne_fh_m=1.0, ne_sh_m=1.0, subtasks_done_fh=0, subtasks_done_sh=0,
            subtasks_remaining_fh=5, subtasks_remaining_sh=5, ticks=1,
            swap_count=0, dialogue_count=0,
        )
        with pytest.raises(MetricsError):
            score_episode(result, episode)


class TestAggregate:
    def test_bsr_over_episodes_sr_over_robot_episodes(self):
        results = [
            episode_result("e1", fh=True, sh=True),
            episode_result("e2", fh=True, sh=False),
            episode_result("e3", fh=False, sh=False),
        ]
        report = aggregate(results)
        assert report.bsr == pytest.approx(1 / 3)
        assert report.sr == pytest.approx(3 / 6)
        assert report.n_episodes == 3

    def test_means_pool_both_robots(self):
        results = [
            episode_result("e1", isr=1.0, spl=1.0, ne=0.0),
            episode_result("e2", isr=0.5, spl=0.25, ne=4.0),
        ]
        report = aggregate(results)
        assert report.isr == pytest.approx(0.75)
        assert report.spl == pytest.approx(0.625)
        assert report.ne == pytest.approx(2.0)

    def test_empty_rejected(self):
        with pytest.raises(MetricsError):
            aggregate([])

    @given(
        st.lists(
            st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=60
        )
    )
    def test_bsr_never_exceeds_sr(self, flags):
        results = [
            episode_result(f"e{i}", fh=fh, sh=sh) for i, (fh, sh) in enumerate(flags)
        ]
        report = aggregate(results)
        assert report.bsr <= report.sr + 1e-12


class TestReportValidation:
    def test_bsr_above_sr_rejected(self):
        with pytest.raises(MetricsError):
            MetricsReport(sr=0.4, bsr=0.6, isr=0.5, spl=0.5, ne=1.0, n_episodes=10)

    def test_rates_outside_unit_interval_rejected(self):
        with pytest.raises(MetricsError):
            MetricsReport(sr=1.2, bsr=0.5, isr=0.5, spl=0.5, ne=1.0, n_episodes=10)

    def test_round_trip_with_infinite_ne(self):
        report = MetricsReport(sr=0.5, bsr=0.25, isr=0.5, spl=0.5, ne=math.inf, n_episodes=4)
        assert report.to_dict()["ne"] == "inf"
        assert MetricsReport.from_dict(report.to_dict()) == report


class TestEpisodeResultValidation:
    def test_both_success_requires_components(self):
        with pytest.raises(MetricsError):
            episode_result(fh=True, sh=False, both_success=True)

    def test_negative_path_rejected(self):
        with pytest.raises(MetricsError):
            episode_result(path_len_fh_m=-1.0)

    def test_round_trip_including_inf_ne(self):
        original = episode_result(fh=False, sh=False, ne=math.inf, isr=0.2, spl=0.0)
        assert EpisodeResult.from_dict(original.to_dict()) == original


def report(**kw):
    defaults = dict(sr=0.5, bsr=0.25, isr=0.5, spl=0.4, ne=2.0, n_episodes=10)
    defaults.update(kw)
    return MetricsReport(**defaults)


class TestCompare:
    def test_relative_improvement(self):
        delta = compare(report(bsr=0.13), report(bsr=0.22))
        assert delta["bsr"]["abs_delta"] == pytest.approx(0.09)
        assert delta["bsr"]["rel_delta"] == pytest.approx(0.692308, abs=1e-6)

    def test_ne_sign_inverted_so_positive_is_better(self):
        delta = compare(report(ne=5.0), report(ne=4.0))
        assert delta["ne"]["rel_delta"] == pytest.approx(0.2)

    def test_a_tie_reads_positive_zero(self):
        # a negated zero ratio would write "rel_delta": -0.0 for an NE tie
        delta = compare(report(), report())
        for name in ("sr", "bsr", "isr", "spl", "ne"):
            rel = delta[name]["rel_delta"]
            assert rel == 0.0 and math.copysign(1, rel) == 1, name

    def test_zero_baseline_is_undefined(self):
        delta = compare(report(bsr=0.0), report(bsr=0.3))
        assert delta["bsr"]["rel_delta"] == UNDEFINED
        assert delta["bsr"]["abs_delta"] == pytest.approx(0.3)

    def test_infinite_ne_marked(self):
        delta = compare(report(ne=math.inf), report(ne=4.0))
        assert delta["ne"]["a"] == "inf"
        assert delta["ne"]["rel_delta"] == UNDEFINED


class TestFormatting:
    def test_report_table(self):
        text = format_report(report())
        assert "SR↑" in text and "NE↓(m)" in text
        assert "0.500" in text

    def test_compare_table_renders_undefined(self):
        text = format_compare(compare(report(bsr=0.0), report(bsr=0.3)))
        assert "undefined" in text
        assert "+69.2%" in format_compare(
            compare(report(bsr=0.13), report(bsr=0.22))
        )
