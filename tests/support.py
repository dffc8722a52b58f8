"""Scenario builders and reference implementations shared by the tests."""

from __future__ import annotations

import json
import math

import numpy as np
from hypothesis import strategies as st

from relaynav.ablation import (
    CARRY_SLACK_M,
    HANDOFF_SLACK_M,
    KIND_CUT,
    KIND_DETOUR,
    MIN_DETOUR_EXTRA_M,
    REPOSITION_SLACK_M,
    TAKER_SLACK_M,
    BlockagePlan,
)
from relaynav.episodes import EpisodeSpec
from relaynav.replan import SwapInputs
from relaynav.scenegen import generate_scene
from relaynav.tasks import build_chains
from relaynav.world import (
    FORWARD_M,
    PROVENANCE_GENERATOR,
    Corridor,
    Geodesics,
    GridMap,
    Pose,
    Region,
    SceneGraph,
    SceneObject,
    apply_blockage,
    center,
)


def tick_records(trace) -> list[dict]:
    """The tick lines of a trace as written, each parsed back into a dict:
    how tests read what a rollout recorded."""
    return [r for r in map(json.loads, trace.lines()) if r["kind"] == "tick"]


def plain_tick_record(row: tuple) -> dict:
    """The record a row of :func:`relaynav.engine._record` stands for, built
    the plain way, as a dict display of each value's ``to_dict``: the path
    the engine's text writer is checked against."""
    now, dialogue, item, corridors = row[0], *row[17:]

    def robot(pose, action, blocked, packet, partner_ts, admitted, decision, attempt):
        return {
            "pose": [pose.x, pose.y, pose.heading],
            "action": action,
            "blocked": blocked,
            "packet": packet.to_dict(),
            "partner_ts": partner_ts,
            "admitted": [e.to_dict() for e in admitted],
            "decision": decision.to_dict(),
            "interaction": attempt,
        }

    return {
        "tick": now,
        "robots": {"FH": robot(*row[1:9]), "SH": robot(*row[9:17])},
        "dialogue": [d.to_dict() for d in dialogue],
        "item": item.to_dict(),
        "blocked_corridors": corridors,
    }


def geodesic_distance(scene, a, b):
    """Shortest 4-connected path length in meters; ``inf`` when unreachable."""
    return scene.grid.geodesics().meters(a, b)


def grid_of(blocked) -> GridMap:
    """The packed grid of a ``(h, w)`` boolean occupancy array, built cell by
    cell: every test that starts from an array gets its grid here."""
    blocked = np.asarray(blocked, dtype=bool)
    h, w = blocked.shape
    return GridMap.of_cells(w, h, ((int(x), int(y)) for y, x in np.argwhere(blocked)))


def blocked_array(grid: GridMap) -> np.ndarray:
    """The grid's blocked cells as a ``(height, width)`` bool array indexed
    ``[cy, cx]``, unpacked from the packed int."""
    n = grid.height * grid.stride
    packed = np.frombuffer(grid.blocked.to_bytes(-(-n // 8), "little"), dtype=np.uint8)
    rows = np.unpackbits(packed, count=n, bitorder="little").reshape(grid.height, -1)
    return rows[:, : grid.width].astype(bool)


def geodesics_of(passable) -> Geodesics:
    """Geodesics over the set cells of a ``(h, w)`` boolean mask."""
    return grid_of(~np.asarray(passable, dtype=bool)).geodesics()


def pack_mask(mask: np.ndarray) -> int:
    """A ``(h, w)`` boolean mask as one Python int in
    :class:`~relaynav.world.GridMap`'s layout, packed the numpy way: cell
    ``(x, y)`` is bit ``y * (w + 1) + x``, and bit ``y * (w + 1) + w`` after
    each row is a guard that is always clear."""
    h, w = mask.shape
    rows = np.zeros((h, w + 1), dtype=bool)
    rows[:, :w] = mask
    return int.from_bytes(np.packbits(rows, bitorder="little").tobytes(), "little")


# a belief as one int8 array of cell codes, the tests' reference layout
UNKNOWN = 0
FREE = 1
BLOCKED = 2


def pack_belief(codes: np.ndarray) -> tuple[int, int]:
    """An array of belief codes as the packed ``(known, blocked)`` ints an
    :class:`~relaynav.agent.AgentState` holds."""
    return pack_mask(codes != UNKNOWN), pack_mask(codes == BLOCKED)


def belief_codes(state) -> np.ndarray:
    """A robot's packed ``(known, blocked)`` belief unpacked into a
    ``(h, w)`` int8 array of UNKNOWN, FREE and BLOCKED codes."""
    w, h = state.geodesics.width, state.geodesics.height
    known = blocked_array(GridMap(w, h, state.known))
    blocked = blocked_array(GridMap(w, h, state.blocked))
    return np.where(blocked, BLOCKED, np.where(known, FREE, UNKNOWN)).astype(np.int8)


def frontier_mask(codes: np.ndarray) -> np.ndarray:
    """Known-free cells 4-adjacent to at least one unknown cell, on an
    array of belief codes."""
    unknown = codes == UNKNOWN
    adj = np.zeros_like(unknown)
    adj[:, :-1] |= unknown[:, 1:]
    adj[:, 1:] |= unknown[:, :-1]
    adj[:-1, :] |= unknown[1:, :]
    adj[1:, :] |= unknown[:-1, :]
    return (codes == FREE) & adj

_SCENES: dict[int, object] = {}


def _base_scene(idx: int):
    if idx not in _SCENES:
        _SCENES[idx] = generate_scene(100 + idx)
    return _SCENES[idx]


def random_swap_config(seed: int, n_scenes: int = 4):
    """A random two-robot reassignment scenario with belief == truth.

    Draws a scene (sometimes with a corridor blocked, so unreachable legs
    occur), random free-cell positions and relay waypoints, and random
    chain truncations. Returns ``(scene, SwapInputs)`` whose per-robot
    geodesics run over the scene's true free space.
    """
    rng = np.random.default_rng(seed)
    scene = _base_scene(int(rng.integers(n_scenes)))
    if rng.random() < 0.5 and scene.corridors:
        cid = sorted(scene.corridors)[int(rng.integers(len(scene.corridors)))]
        scene = apply_blockage(scene, cid)
    free = np.argwhere(~blocked_array(scene.grid))

    def pick():
        y, x = free[int(rng.integers(len(free)))]
        return (int(x), int(y))

    full = build_chains(pick(), pick(), pick())
    chains = {
        "FH": full["FH"][int(rng.integers(len(full["FH"]))):],
        "SH": full["SH"][int(rng.integers(len(full["SH"]))):],
    }
    inputs = SwapInputs(
        geodesics={r: scene.grid.geodesics() for r in chains},
        positions={"FH": pick(), "SH": pick()},
        chains=chains,
    )
    return scene, inputs


def lab_scene(blocked, objects=(), scene_id="lab", gates=()):
    """Hand-built single-region scene from an explicit occupancy array.

    ``objects`` is an iterable of (object_id, category, cell). All free cells
    form one Kitchen region. With ``gates``, corridor ``c0`` holds those
    cells (open until ``apply_blockage``); otherwise corridors are absent.
    """
    blocked = np.asarray(blocked, dtype=bool)
    h, w = blocked.shape
    free = frozenset(
        (x, y) for y in range(h) for x in range(w) if not blocked[y, x]
    )
    region = Region("r0", free, "Kitchen", PROVENANCE_GENERATOR, "Kitchen")
    objs = {
        oid: SceneObject(oid, cat, cell, "r0", 1.0, 0.0) for oid, cat, cell in objects
    }
    corridors = {"c0": Corridor("c0", frozenset(gates), ("r0", "r0"), blocked=False)} if gates else {}
    return SceneGraph(scene_id, 0, grid_of(blocked), {"r0": region}, objs, corridors)


def random_bordered_grid(seed, w, h, wall_p=0.3):
    """Occupancy with a blocked border and interior walls drawn with ``wall_p``."""
    blocked = np.ones((h, w), dtype=bool)
    blocked[1:-1, 1:-1] = np.random.default_rng(seed).random((h - 2, w - 2)) < wall_p
    return blocked


def walled_lab(gap=True, objects=()):
    """9x16 room split by a wall at x=8, optionally pierced at (8, 4)."""
    blocked = np.ones((9, 16), dtype=bool)
    blocked[1:-1, 1:-1] = False
    blocked[1:-1, 8] = True
    if gap:
        blocked[4, 8] = False
    return lab_scene(blocked, objects)


def center_pose(cell, heading=0):
    return Pose(*center(cell), heading)


_JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8)
)
JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _not_json(text: str) -> bool:
    try:
        json.loads(text)
    except ValueError:
        return True
    return False


def junk_lines(valid: dict):
    """``(line, malformed)`` pairs for fuzzing a loader, one line each: text
    that is not JSON or a JSON value that is not an object (``malformed``:
    no loader may accept it), or an object, random or ``valid`` with some
    keys dropped (a loader may accept it)."""
    one_line = st.characters(exclude_categories=("Cs",), exclude_characters="\r\n")
    return st.one_of(
        st.text(one_line, min_size=1, max_size=30)
        .filter(lambda t: t.strip() and _not_json(t.strip()))
        .map(lambda t: (t, True)),
        JSON_VALUES.filter(lambda v: not isinstance(v, dict)).map(lambda v: (json.dumps(v), True)),
        st.dictionaries(st.text(max_size=6), JSON_VALUES, max_size=4).map(
            lambda d: (json.dumps(d), False)
        ),
        st.sets(st.sampled_from(sorted(valid)), min_size=1).map(
            lambda drop: (json.dumps({k: v for k, v in valid.items() if k not in drop}), False)
        ),
    )


def plain_pick_route_blockage(
    scene: SceneGraph,
    episode: EpisodeSpec,
) -> BlockagePlan | None:
    """The picker as it was before its open-map distances came from one
    search with an early exit: six open-map searches before any corridor
    is looked at. :func:`relaynav.ablation.pick_route_blockage` must
    return what this returns.

    Choose a corridor on the FH robot's pickup leg worth closing.

    Requirements, all on true maps: the gate sits strictly between the FH
    start and the target along the ground-truth path; after closing it the
    partner can still run the entire relay (pickup, handoff, and delivery
    all mutually reachable from its side); either the FH detour to the
    pickup lengthens by ``MIN_DETOUR_EXTRA_M`` or the pickup becomes
    outright unreachable for FH; the partner stays a competitive taker for
    the pickup even after drifting for ``tick`` steps (its start-based
    distance plus the worst-case drift must undercut the FH detour); and
    FH's own access to the handoff is essentially unharmed, so the swapped
    assignment stays cheap. Among qualifying corridors the one costing FH
    the most is returned, with the closure scheduled halfway to the gate.

    Distances come from one :class:`~relaynav.world.Geodesics` for the open
    map, whose four distances are taken once, and one per closed corridor,
    over the open map's free cells with the gate's bits cleared; each query
    is a layer search that stops at its other endpoint.
    """
    grid = scene.grid
    target_cell = scene.objects[episode.target_object_id].cell
    path = list(episode.gt_path_fh)
    if target_cell not in path:
        return None
    prefix = path[: path.index(target_cell) + 1]
    start_fh = prefix[0]
    start_sh = episode.start_pose_sh.cell
    handoff = episode.handoff_waypoint.cell
    delivery = episode.delivery_waypoint.cell
    keep_free = {start_fh, start_sh, target_cell, handoff, delivery}

    # the open-map distances do not depend on the corridor
    open_geo = grid.geodesics()
    d_direct = open_geo.meters(start_fh, target_cell)
    sh_target_open = open_geo.meters(start_sh, target_cell)
    carry_open = open_geo.meters(target_cell, handoff)
    fh_handoff_open = open_geo.meters(start_fh, handoff)
    best: tuple[float, BlockagePlan] | None = None
    for cid in sorted(scene.corridors):
        gate = scene.corridors[cid].gate_cells
        if gate & keep_free:
            continue
        steps_to = next(
            (i for i, cell in enumerate(prefix) if cell in gate), None
        )
        if steps_to is None or steps_to < 2:
            continue
        closed = Geodesics(open_geo.free & ~grid.mask(gate), grid.width, grid.height)
        d_post = closed.meters(start_fh, target_cell)
        if math.isinf(d_post):
            kind, extra = KIND_CUT, math.inf
        elif d_post >= d_direct + MIN_DETOUR_EXTRA_M:
            kind, extra = KIND_DETOUR, d_post - d_direct
        else:
            continue
        sh_target = closed.meters(start_sh, target_cell)
        carry = closed.meters(target_cell, handoff)
        onward = closed.meters(delivery, handoff)
        sh_handoff = closed.meters(start_sh, handoff)
        if not all(math.isfinite(d) for d in (sh_target, carry, onward, sh_handoff)):
            continue
        tick = max(1, steps_to // 2)
        # the partner must stay the cheaper taker for the pickup even after
        # walking away from its start for up to `tick` steps
        drift = tick * FORWARD_M
        if sh_target + drift + FORWARD_M > d_post:
            continue
        if sh_target > d_direct + TAKER_SLACK_M:
            continue
        # the partner's natural route to the pickup must not run through the
        # closed gate: a blocked-map taker trip much longer than the open-map
        # one means it would discover the closure mid-route and pay for it
        if sh_target > sh_target_open + CARRY_SLACK_M:
            continue
        # the carry leg itself must survive the closure: whoever holds the
        # item still has to walk pickup -> handoff, so the gate must not sit
        # on that route either
        if carry > carry_open + CARRY_SLACK_M:
            continue
        # FH's post-swap leg to the handoff must dodge the closed gate cheaply
        d_fh_handoff_post = closed.meters(start_fh, handoff)
        if d_fh_handoff_post > fh_handoff_open + HANDOFF_SLACK_M:
            continue
        # post-swap repositioning overhead: FH's trip to the handoff replaces
        # the partner's own (usually shorter) approach, and both robots burn
        # up to `tick` cells walking the wrong way before the closure fires;
        # that combined overhead must stay well under the detour savings or
        # the realized-path comparison degenerates into a coin flip
        reposition = d_fh_handoff_post - sh_handoff + 4.0 * drift
        if reposition > REPOSITION_SLACK_M:
            continue
        # worst-case post-swap critical path: FH repositions to the handoff
        # while the partner backtracks its drift, fetches the item, and
        # carries it in; then the item travels on to the delivery point
        critical = (
            max(
                d_fh_handoff_post,
                2.0 * drift + sh_target + carry,
            )
            + onward
        )
        score = extra if math.isfinite(extra) else 1e9
        plan = BlockagePlan(cid, tick, kind, extra, critical)
        if best is None or score > best[0]:
            best = (score, plan)
    return best[1] if best else None
