"""Shared semantic state: publish/compose, freshness window, anchor merge."""

from __future__ import annotations

import pytest

from relaynav.bus import (
    AnchorEntry,
    BusState,
    Observation,
    SemanticPacket,
    compose_context,
    compose_muted,
    empty_bus,
    merge_anchors,
    partner_of,
    publish,
)


def packet(robot_id="FH", ts=0, obs=(), **kw):
    defaults = dict(
        current_room="Kitchen", stage="GotoPickup", carrying=False, stopped=False
    )
    defaults.update(kw)
    return SemanticPacket(robot_id=robot_id, ts=ts, observations=tuple(obs), **defaults)


def test_partner_of():
    assert partner_of("FH") == "SH"
    assert partner_of("SH") == "FH"
    with pytest.raises(ValueError):
        partner_of("XX")


def test_publish_is_pure_and_keeps_latest_per_robot():
    bus = empty_bus()
    b1 = publish(bus, packet(ts=1))
    b2 = publish(b1, packet(ts=4))
    assert bus.packets == {}  # original untouched
    assert b1.packets["FH"].ts == 1
    assert b2.packets["FH"].ts == 4


def test_compose_fresh_partner_within_tau():
    bus = publish(publish(empty_bus(), packet("FH", ts=10)), packet("SH", ts=8))
    ctx = compose_context(bus, "FH", now=10, tau=2)
    assert ctx.self_state.robot_id == "FH"
    assert ctx.partner_state is not None and ctx.partner_state.robot_id == "SH"


def test_compose_stale_partner_beyond_tau():
    bus = publish(publish(empty_bus(), packet("FH", ts=10)), packet("SH", ts=7))
    ctx = compose_context(bus, "FH", now=10, tau=2)
    assert ctx.partner_state is None


def test_compose_boundary_is_inclusive():
    bus = publish(publish(empty_bus(), packet("FH", ts=10)), packet("SH", ts=8))
    assert compose_context(bus, "FH", now=10, tau=2).partner_state is not None
    assert compose_context(bus, "FH", now=11, tau=2).partner_state is None


def test_compose_requires_own_packet():
    bus = publish(empty_bus(), packet("SH", ts=5))
    with pytest.raises(ValueError):
        compose_context(bus, "FH", now=5, tau=2)


def test_compose_muted_never_exposes_partner():
    bus = publish(publish(empty_bus(), packet("FH", ts=10)), packet("SH", ts=10))
    ctx = compose_muted(bus, "FH", now=10)
    assert ctx.partner_state is None
    assert ctx.self_state.robot_id == "FH"


class TestAnchorMerge:
    def entry(self, score, ts, source="FH", cell=(1, 1)):
        return AnchorEntry(cell=cell, score=score, ts=ts, source=source)

    def merge(self, anchors, robot_id, ts, observations):
        return merge_anchors(anchors, packet(robot_id, ts=ts, obs=observations))

    def test_higher_score_wins_despite_older_ts(self):
        merged = self.merge(
            {"bottle": self.entry(0.4, 5)}, "SH", 1, [Observation("bottle", (6, 6), 0.9)]
        )
        assert merged["bottle"].score == 0.9
        assert merged["bottle"].source == "SH"

    def test_lower_score_never_replaces(self):
        merged = self.merge(
            {"bottle": self.entry(0.9, 1)}, "SH", 9, [Observation("bottle", (6, 6), 0.4)]
        )
        assert merged["bottle"].score == 0.9

    def test_equal_score_newer_wins(self):
        merged = self.merge(
            {"bottle": self.entry(0.5, 3)}, "SH", 7, [Observation("bottle", (6, 6), 0.5)]
        )
        assert merged["bottle"].ts == 7

    def test_full_tie_is_canonical_by_source(self):
        sh = self.entry(0.5, 3, "SH", cell=(9, 9))
        merged = self.merge({"bottle": sh}, "FH", 3, [Observation("bottle", (2, 2), 0.5)])
        assert merged["bottle"].source == "FH"  # FH precedes SH on a full tie
        fh = merged["bottle"]
        again = self.merge({"bottle": fh}, "SH", 3, [Observation("bottle", (9, 9), 0.5)])
        assert again["bottle"] == fh

    def test_disjoint_categories_union(self):
        merged = self.merge(
            {"bottle": self.entry(0.5, 1)}, "SH", 2, [Observation("cup", (4, 4), 0.6)]
        )
        assert set(merged) == {"bottle", "cup"}


def test_publish_merges_observations_into_anchors():
    obs = (Observation("bottle", (3, 4), 0.8),)
    bus = publish(empty_bus(), packet("FH", ts=2, obs=obs))
    assert bus.anchors["bottle"].cell == (3, 4)
    assert bus.anchors["bottle"].source == "FH"
    better = (Observation("bottle", (6, 6), 0.95),)
    bus = publish(bus, packet("SH", ts=3, obs=better))
    assert bus.anchors["bottle"].cell == (6, 6)


def test_publish_leaves_an_earlier_context_unchanged():
    seen = (Observation("bottle", (3, 4), 0.8),)
    bus = publish(empty_bus(), packet("FH", ts=2, obs=seen))
    ctx = compose_context(bus, "FH", now=2, tau=2)
    assert ctx.anchors is bus.anchors  # shared, not copied
    anchors = dict(ctx.anchors)
    better = (Observation("bottle", (6, 6), 0.95), Observation("cup", (1, 1), 0.5))
    later = publish(bus, packet("SH", ts=3, obs=better))
    assert later.anchors["bottle"].cell == (6, 6) and "cup" in later.anchors
    assert ctx.anchors == anchors


def test_packet_validation():
    with pytest.raises(ValueError):
        packet(ts=-1)
    with pytest.raises(ValueError):
        packet(obs=(Observation("x", (0, 0), 1.5),))
