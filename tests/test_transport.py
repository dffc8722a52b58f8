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


def arrivals(cfg: TransportConfig, senders, until: int):
    """Send ``senders[now]``'s packets at each tick ``now`` and poll ``due``
    every tick up to ``until``, as the engine does. Returns the transport
    and the (poll tick, packet) pairs, so a packet's poll tick is the tick
    it was due."""
    tr = Transport(cfg)
    got = []
    for now in range(until + 1):
        for rid in senders[now] if now < len(senders) else ():
            tr.send(rid, pkt(rid, now), now)
        got.extend((now, p) for p in tr.due(now))
    return tr, got


class TestLatency:
    def test_zero_latency_same_tick_delivery(self):
        tr = Transport(TransportConfig())
        tr.send("FH", pkt("FH", 3), now=3)
        assert [p.ts for p in tr.due(3)] == [3]

    def test_fixed_latency_delays_delivery(self):
        tr = Transport(TransportConfig(latency=4))
        tr.send("FH", pkt("FH", 10), now=10)
        assert tr.due(13) == []
        assert [p.ts for p in tr.due(14)] == [10]

    def test_due_is_cumulative_and_ordered(self):
        tr = Transport(TransportConfig(latency=2))
        for t in range(5):
            tr.send("FH", pkt("FH", t), now=t)
            tr.send("SH", pkt("SH", t), now=t)
        # (tick, sender, sequence) ordering: tick-majority, FH before SH
        out = [(p.robot_id, p.ts) for p in tr.due(10)]
        assert out == [(rid, t) for t in range(5) for rid in ("FH", "SH")]


class TestJitterAndFifo:
    def test_jitter_never_reorders_a_sender(self):
        _, got = arrivals(TransportConfig(latency=1, jitter=5, seed=9), [("FH",)] * 50, 200)
        assert [p.ts for _, p in got] == list(range(50))
        assert all(p.ts + 1 <= at <= p.ts + 6 for at, p in got)
        assert any(at > p.ts + 1 for at, p in got)  # jitter engaged

    def test_jitter_draws_are_seeded(self):
        def schedule(seed):
            cfg = TransportConfig(latency=1, jitter=5, seed=seed)
            _, got = arrivals(cfg, [("FH",)] * 20, 100)
            return [(at, p.ts) for at, p in got]

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
        cfg = TransportConfig(latency, jitter, drop_prob, seed)
        until = len(senders) + latency + jitter
        tr, got = arrivals(cfg, senders, until)
        assert tr.due(10**9) == []
        assert len(got) + tr.dropped == tr.sent == sum(map(len, senders))
        for at in {at for at, _ in got}:
            batch = [(p.robot_id, p.ts) for t, p in got if t == at]
            assert batch == sorted(batch)
        for rid in ROBOTS:
            mine = [(at, p.ts) for at, p in got if p.robot_id == rid]
            ts = [t for _, t in mine]
            assert ts == sorted(set(ts))
            assert all(t + latency <= at <= t + latency + jitter for at, t in mine)

        # the same link polled through ``deliver``: each replica gets its
        # partner's packets in send order, so the stored one never goes back
        link = Transport(cfg)
        stored = dict.fromkeys(ROBOTS, -1)
        for now in range(until + 1):
            for rid in senders[now] if now < len(senders) else ():
                link.publish(rid, pkt(rid, now), now)
            link.deliver(now)
            for rid in ROBOTS:
                packet = link.replicas[partner_of(rid)].packets.get(rid)
                ts = -1 if packet is None else packet.ts
                assert ts >= stored[rid]
                stored[rid] = ts
        for rid in ROBOTS:
            assert stored[rid] == max((p.ts for _, p in got if p.robot_id == rid), default=-1)


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
            return [p.ts for p in tr.due(100)]

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
            for packet in ref_tr.due(now):
                dest = partner_of(packet.robot_id)
                ref[dest] = publish(ref[dest], packet)
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
