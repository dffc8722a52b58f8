"""Relay subtask chains.

The first-half chain runs pickup through deposit; the second-half chain runs
receive through delivery. Subtasks bind the cell the robot must approach;
in "discover" knowledge mode the pickup-side cells start unbound and are
filled in from anchor evidence.
"""

from __future__ import annotations

from dataclasses import dataclass

from .world import Cell

GOTO_PICKUP = "GotoPickup"
PICK_UP = "PickUp"
GOTO_HANDOFF = "GotoHandoff"
DEPOSIT = "Deposit"
RECEIVE = "Receive"
GOTO_DELIVERY = "GotoDelivery"
DELIVER = "Deliver"
STOP = "Stop"

GOTO_KINDS = frozenset({GOTO_PICKUP, GOTO_HANDOFF, GOTO_DELIVERY})
INTERACTION_KINDS = frozenset({PICK_UP, DEPOSIT, RECEIVE, DELIVER})

FH_CHAIN = (GOTO_PICKUP, PICK_UP, GOTO_HANDOFF, DEPOSIT, STOP)
SH_CHAIN = (GOTO_HANDOFF, RECEIVE, GOTO_DELIVERY, DELIVER, STOP)


@dataclass(frozen=True)
class Subtask:
    kind: str
    waypoint: Cell | None

    def is_goto(self) -> bool:
        return self.kind in GOTO_KINDS

    def is_interaction(self) -> bool:
        return self.kind in INTERACTION_KINDS


def build_chains(
    item_cell: Cell,
    handoff_cell: Cell,
    delivery_cell: Cell,
    *,
    known_waypoints: bool = True,
) -> dict[str, tuple[Subtask, ...]]:
    pickup_wp = item_cell if known_waypoints else None
    waypoint = {
        GOTO_PICKUP: pickup_wp,
        PICK_UP: pickup_wp,
        GOTO_HANDOFF: handoff_cell,
        DEPOSIT: handoff_cell,
        RECEIVE: handoff_cell,
        GOTO_DELIVERY: delivery_cell,
        DELIVER: delivery_cell,
        STOP: None,
    }
    return {
        rid: tuple(Subtask(kind, waypoint[kind]) for kind in chain)
        for rid, chain in (("FH", FH_CHAIN), ("SH", SH_CHAIN))
    }


def rebind_target(chain: tuple[Subtask, ...], cell: Cell) -> tuple[Subtask, ...]:
    """Point the pickup-side subtasks of a chain at an anchored target cell."""
    return tuple(
        Subtask(st.kind, cell) if st.kind in (GOTO_PICKUP, PICK_UP) else st
        for st in chain
    )
