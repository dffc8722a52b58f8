"""Simulated message transport between the two robots.

The transport holds each robot's bus replica: ``publish`` puts a packet on
the sender's replica and sends it, ``deliver`` puts the packets that are
due on the partner's. Packets arrive ``latency`` ticks after they leave,
plus a seeded jitter draw, unless a seeded drop draw discards them.
Delivery per sender is FIFO even under jitter: a draw that would overtake
an earlier packet is clamped to its scheduled tick. Both draws come from a
per-sender generator derived from the transport seed, so delivery patterns
are a pure function of configuration and never of scheduling.

A link without latency, jitter or drops delivers each packet in the tick it
was sent, so the robots share one replica and nothing is sent. That is
safe because ``bus.publish`` never mutates a bus and the anchor rule is
total and order-independent: FH-then-SH and SH-then-FH folds hold the same
packets and anchors, and anchors are only read by key.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .bus import ROBOTS, BusState, SemanticPacket, empty_bus, partner_of, publish
from .config import TransportConfig
from .seeds import make_rng


@dataclass(frozen=True)
class Delivery:
    deliver_at: int
    sender: str
    seq: int
    packet: SemanticPacket


class Transport:
    def __init__(self, cfg: TransportConfig) -> None:
        self.cfg = cfg
        self.sent = self.dropped = 0
        self.shared = cfg.latency == 0 and cfg.jitter == 0 and cfg.drop_prob == 0
        self.replicas: dict[str, BusState] = dict.fromkeys(ROBOTS, empty_bus())
        self._heap: list[tuple[int, str, int, SemanticPacket]] = []
        self._seq = dict.fromkeys(ROBOTS, 0)
        self._last_sched = dict.fromkeys(ROBOTS, 0)
        self._rng = {r: make_rng(cfg.seed, "transport", r) for r in ROBOTS}

    def publish(self, sender: str, packet: SemanticPacket, now: int) -> None:
        """Put the packet on the sender's replica; send it unless the
        replica is shared, in which case the partner holds it at once."""
        self.replicas[sender] = bus = publish(self.replicas[sender], packet)
        if self.shared:
            self.replicas[partner_of(sender)] = bus
        else:
            self.send(sender, packet, now)

    def deliver(self, now: int) -> None:
        """Put every packet due by ``now`` on its receiver's replica."""
        if not self._heap:
            return
        for dv in self.due(now):
            dest = partner_of(dv.sender)
            self.replicas[dest] = publish(self.replicas[dest], dv.packet)

    def send(self, sender: str, packet: SemanticPacket, now: int) -> None:
        """Schedule (or drop) one packet. Both random draws always happen so
        the per-sender stream is independent of outcomes."""
        rng = self._rng[sender]
        delay = self.cfg.latency + rng.randint(0, self.cfg.jitter)
        drop = rng.random() < self.cfg.drop_prob
        deliver_at = max(now + delay, self._last_sched[sender])
        self._last_sched[sender] = deliver_at
        self.sent += 1
        if drop:
            self.dropped += 1
            return
        seq = self._seq[sender]
        self._seq[sender] = seq + 1
        heapq.heappush(self._heap, (deliver_at, sender, seq, packet))

    def due(self, now: int) -> list[Delivery]:
        """Pop every packet whose delivery tick has arrived, ordered by
        (tick, sender, sequence)."""
        out: list[Delivery] = []
        while self._heap and self._heap[0][0] <= now:
            deliver_at, sender, seq, packet = heapq.heappop(self._heap)
            out.append(Delivery(deliver_at, sender, seq, packet))
        return out
