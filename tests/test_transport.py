"""Simulated transport: latency, jitter FIFO clamping, drops, determinism,
and the bus replicas it keeps for the robots."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaynav.bus import ROBOTS, Observation, SemanticPacket, empty_bus, partner_of, publish
from relaynav.config import TransportConfig
from relaynav.transport import Transport


def pkt(sender: str, ts: int) -> SemanticPacket:
    return SemanticPacket(sender, ts, "Kitchen", (), "GotoPickup", False, False)


class TestLatency:
    def test_zero_latency_same_tick_delivery(self):
        tr = Transport(TransportConfig())
        tr.send("FH", pkt("FH", 3), now=3)
        out = tr.due(3)
        assert [d.packet.ts for d in out] == [3]

    def test_fixed_latency_delays_delivery(self):
        tr = Transport(TransportConfig(latency=4))
        tr.send("FH", pkt("FH", 10), now=10)
        assert tr.due(13) == []
        out = tr.due(14)
        assert len(out) == 1 and out[0].deliver_at == 14

    def test_due_is_cumulative_and_ordered(self):
        tr = Transport(TransportConfig(latency=2))
        for t in range(5):
            tr.send("FH", pkt("FH", t), now=t)
            tr.send("SH", pkt("SH", t), now=t)
        out = tr.due(10)
        # (deliver_at, sender, seq) ordering: tick-majority, FH before SH
        keys = [(d.deliver_at, d.sender, d.seq) for d in out]
        assert keys == sorted(keys)
        assert [d.sender for d in out[:2]] == ["FH", "SH"]


class TestJitterAndFifo:
    def test_jitter_never_reorders_a_sender(self):
        tr = Transport(TransportConfig(latency=1, jitter=5, seed=9))
        for t in range(50):
            tr.send("FH", pkt("FH", t), now=t)
        out = tr.due(200)
        assert len(out) == 50
        seqs = [d.seq for d in out if d.sender == "FH"]
        assert seqs == sorted(seqs)
        ts = [d.packet.ts for d in out]
        assert ts == sorted(ts)
        ats = [d.deliver_at for d in out]
        assert ats == sorted(ats)
        assert any(at > t + 1 for at, t in zip(ats, range(50)))  # jitter engaged

    def test_jitter_draws_are_seeded(self):
        def schedule(seed):
            tr = Transport(TransportConfig(latency=1, jitter=5, seed=seed))
            for t in range(20):
                tr.send("FH", pkt("FH", t), now=t)
            return [(d.deliver_at, d.seq) for d in tr.due(100)]

        assert schedule(9) == schedule(9)
        assert schedule(9) != schedule(10)


    @settings(max_examples=150, deadline=None)
    @given(
        latency=st.integers(0, 4),
        jitter=st.integers(0, 6),
        drop_prob=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
        seed=st.integers(0, 2**32 - 1),
        senders=st.lists(st.sampled_from([(), ("FH",), ("SH",), ("FH", "SH")]), max_size=40),
    )
    def test_polled_delivery_keeps_per_sender_fifo(self, latency, jitter, drop_prob, seed, senders):
        # polled every tick, as the engine does; then drained
        tr = Transport(TransportConfig(latency, jitter, drop_prob, seed))
        sent_at: dict[tuple[str, int], int] = {}
        got = []
        for now, who in enumerate(senders):
            for rid in who:
                tr.send(rid, pkt(rid, now), now)
                sent_at[rid, now] = now
            batch = tr.due(now)
            assert [(d.deliver_at, d.sender, d.seq) for d in batch] == sorted(
                (d.deliver_at, d.sender, d.seq) for d in batch
            )
            assert all(d.deliver_at == now for d in batch)
            got.extend(batch)
        got.extend(tr.due(len(senders) + latency + jitter))
        assert tr.due(10**9) == []
        assert len(got) + tr.dropped == tr.sent == len(sent_at)
        for rid in ("FH", "SH"):
            mine = [d for d in got if d.sender == rid]
            assert [d.seq for d in mine] == list(range(len(mine)))
            ts = [d.packet.ts for d in mine]
            assert ts == sorted(set(ts))
            for d in mine:
                sent = sent_at[rid, d.packet.ts]
                assert sent + latency <= d.deliver_at <= sent + latency + jitter


class TestDrops:
    def test_drop_all(self):
        tr = Transport(TransportConfig(drop_prob=1.0))
        for t in range(10):
            tr.send("FH", pkt("FH", t), now=t)
        assert tr.due(100) == []
        assert tr.sent == 10 and tr.dropped == 10

    def test_drop_none(self):
        tr = Transport(TransportConfig(drop_prob=0.0))
        for t in range(10):
            tr.send("FH", pkt("FH", t), now=t)
        assert len(tr.due(100)) == 10
        assert tr.dropped == 0

    def test_partial_drop_is_deterministic(self):
        def survivors(seed):
            tr = Transport(TransportConfig(drop_prob=0.5, seed=seed))
            for t in range(40):
                tr.send("FH", pkt("FH", t), now=t)
            return [d.packet.ts for d in tr.due(100)]

        a = survivors(3)
        assert a == survivors(3)
        assert 0 < len(a) < 40


OBSERVATIONS = st.lists(
    st.builds(
        Observation,
        st.sampled_from(["Cup", "Mug", "Vase"]),
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        st.sampled_from([0.25, 0.5, 1.0]),
    ),
    max_size=3,
).map(tuple)


class TestReplicas:
    """``publish``/``deliver`` leave each robot the replica that
    ``bus.publish`` over ``send``/``due`` builds per robot; an immediate
    link's one shared replica included."""

    @pytest.mark.parametrize("lossy", [False, True])
    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
        ticks=st.lists(st.tuples(st.none() | OBSERVATIONS, st.none() | OBSERVATIONS), max_size=30),
    )
    def test_replicas_match_per_robot_buses(self, lossy, data, seed, ticks):
        cfg = TransportConfig(seed=seed)
        if lossy:
            cfg = TransportConfig(
                data.draw(st.integers(0, 3)),
                data.draw(st.integers(1, 4)),
                data.draw(st.sampled_from([0.2, 0.5])),
                seed,
            )
        tr, ref_tr = Transport(cfg), Transport(cfg)
        assert tr.shared is not lossy
        ref = dict.fromkeys(ROBOTS, empty_bus())

        def deliver_and_check(now):
            tr.deliver(now)
            for dv in ref_tr.due(now):
                dest = partner_of(dv.sender)
                ref[dest] = publish(ref[dest], dv.packet)
            for rid in ROBOTS:
                got, want = tr.replicas[rid], ref[rid]
                assert got.packets == want.packets and got.anchors == want.anchors

        for now, observed in enumerate(ticks):
            for rid, obs in zip(ROBOTS, observed):
                if obs is not None:
                    packet = SemanticPacket(rid, now, "Kitchen", obs, "GotoPickup", False, False)
                    tr.publish(rid, packet, now)
                    ref[rid] = publish(ref[rid], packet)
                    ref_tr.send(rid, packet, now)
            deliver_and_check(now)
        deliver_and_check(10**9)  # drained
        assert tr.sent == (ref_tr.sent if lossy else 0)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TransportConfig(latency=-1).validate()
        with pytest.raises(ValueError):
            TransportConfig(jitter=-1).validate()
        with pytest.raises(ValueError):
            TransportConfig(drop_prob=1.5).validate()
        TransportConfig(latency=3, jitter=2, drop_prob=0.1).validate()
