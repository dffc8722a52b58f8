"""Semantic state bus, of which each robot keeps a replica (see ``transport``).

The bus holds the latest semantic packet per robot and a per-category
anchor memory of the best object evidence. It knows nothing of subtask
chains or dialogue: the engine owns both. ``publish`` returns a new bus and
never mutates, so any previously taken reference doubles as an immutable
snapshot. A composed context shares the bus's ``anchors`` dict rather than
copying it: a publish builds a new dict, and no code mutates one once it is
on a bus or in a context, so the context is a snapshot too.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Mapping

from .serialize import Record
from .world import Cell

logger = logging.getLogger(__name__)

ROBOTS = ("FH", "SH")


def partner_of(robot_id: str) -> str:
    if robot_id not in ROBOTS:
        raise ValueError(f"unknown robot {robot_id!r}")
    return ROBOTS[1] if robot_id == ROBOTS[0] else ROBOTS[0]


@dataclass(frozen=True)
class Observation(Record):
    category: str
    cell: Cell
    score: float


@dataclass(frozen=True)
class SemanticPacket(Record):
    robot_id: str
    ts: int
    current_room: str
    observations: tuple[Observation, ...]
    stage: str
    carrying: bool
    stopped: bool

    def __post_init__(self) -> None:
        if self.ts < 0:
            raise ValueError("packet ts must be non-negative")
        for obs in self.observations:
            if not 0.0 <= obs.score <= 1.0:
                raise ValueError("observation scores must lie in [0, 1]")


@dataclass(frozen=True)
class AnchorEntry:
    cell: Cell
    score: float
    ts: int
    source: str


@dataclass(frozen=True)
class ComposedContext:
    self_state: SemanticPacket
    partner_state: SemanticPacket | None
    anchors: Mapping[str, AnchorEntry]


@dataclass(frozen=True)
class BusState:
    packets: Mapping[str, SemanticPacket]
    anchors: Mapping[str, AnchorEntry]


def empty_bus() -> BusState:
    return BusState(packets={}, anchors={})


def _anchor_wins(new: AnchorEntry, old: AnchorEntry) -> bool:
    """Total, order-independent replacement rule: higher score, then newer
    timestamp, then canonical robot order, then cell order."""
    if new.score != old.score:
        return new.score > old.score
    if new.ts != old.ts:
        return new.ts > old.ts
    if new.source != old.source:
        return new.source < old.source
    return new.cell < old.cell


def merge_anchors(
    anchors: Mapping[str, AnchorEntry], packet: SemanticPacket
) -> dict[str, AnchorEntry]:
    merged = dict(anchors)
    for obs in packet.observations:
        cand = AnchorEntry(cell=obs.cell, score=obs.score, ts=packet.ts, source=packet.robot_id)
        cur = merged.get(obs.category)
        if cur is None or _anchor_wins(cand, cur):
            merged[obs.category] = cand
    return merged


def publish(bus: BusState, packet: SemanticPacket) -> BusState:
    """Store the packet and fold its observations into anchor memory.

    A packet older than the stored one for the same robot is dropped with a
    warning and the bus is returned unchanged.
    """
    prev = bus.packets.get(packet.robot_id)
    if prev is not None and packet.ts < prev.ts:
        logger.warning(
            "dropping out-of-order packet from %s (ts=%d < stored %d)",
            packet.robot_id,
            packet.ts,
            prev.ts,
        )
        return bus
    packets = dict(bus.packets)
    packets[packet.robot_id] = packet
    return BusState(packets, merge_anchors(bus.anchors, packet))


def compose_context(bus: BusState, self_id: str, now: int, tau: int) -> ComposedContext:
    """Build a robot's decision context; the partner packet is included iff
    its age ``now - ts`` is at most ``tau`` (boundary inclusive)."""
    if tau < 0:
        raise ValueError("tau must be non-negative")
    self_packet = bus.packets.get(self_id)
    if self_packet is None:
        raise ValueError(f"no packet published for {self_id}")
    partner = bus.packets.get(partner_of(self_id))
    fresh = partner is not None and (now - partner.ts) <= tau
    return ComposedContext(
        self_state=self_packet,
        partner_state=partner if fresh else None,
        anchors=bus.anchors,
    )


def compose_muted(bus: BusState, self_id: str, now: int) -> ComposedContext:
    """Context with the partner withheld and partner-sourced anchors dropped;
    used by the no-coordination baseline policy."""
    self_packet = bus.packets.get(self_id)
    if self_packet is None:
        raise ValueError(f"no packet published for {self_id}")
    return ComposedContext(
        self_state=self_packet,
        partner_state=None,
        anchors={k: v for k, v in bus.anchors.items() if v.source == self_id},
    )

