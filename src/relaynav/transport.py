"""Simulated message transport for distributed-mode rollouts.

Packets leave the sender at a known tick and arrive ``latency`` ticks later,
plus a seeded jitter draw, unless a seeded drop draw discards them. Delivery
per sender is FIFO even under jitter: a draw that would overtake an earlier
packet is clamped to its scheduled tick. Both draws come from a per-sender
generator derived from the transport seed, so delivery patterns are a pure
function of configuration and never of scheduling.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .bus import ROBOTS, SemanticPacket
from .config import TransportConfig
from .seeds import make_rng


@dataclass(frozen=True)
class Delivery:
    deliver_at: int
    sender: str
    seq: int
    packet: SemanticPacket


@dataclass
class Transport:
    cfg: TransportConfig
    _heap: list[tuple[int, str, int, SemanticPacket]] = field(default_factory=list)
    _seq: dict = field(default_factory=dict)
    _last_sched: dict = field(default_factory=dict)
    sent: int = 0
    dropped: int = 0

    def __post_init__(self) -> None:
        self._rng = {r: make_rng(self.cfg.seed, "transport", r) for r in ROBOTS}
        for r in ROBOTS:
            self._seq.setdefault(r, 0)
            self._last_sched.setdefault(r, 0)

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
