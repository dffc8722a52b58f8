"""Procedural indoor scene generation.

Scenes are a jittered grid of rectangular rooms separated by one-cell walls.
Every wall segment shared by two adjacent rooms is pierced by one doorway,
modeled as a Corridor whose gate cells belong to no region, so blocking a
corridor never violates the free-region invariant. Room types are assigned so
that every required type is realized, each typed room receives its full
signature object set, and a few portable objects are scattered as relay
targets.
"""

from __future__ import annotations

import random

import numpy as np

from .config import SceneParams
from .seeds import derive_seed
from .world import (
    Corridor,
    GridMap,
    Region,
    ROOM_SIGNATURES,
    PROVENANCE_GENERATOR,
    SceneGenerationError,
    SceneFormatError,
    SceneGraph,
    SceneObject,
    validate_scene,
)


def generate_scene(seed: int, params: SceneParams | None = None) -> SceneGraph:
    """Build a scene deterministically from ``seed``.

    Retries with derived sub-seeds if a draw fails validation; raises
    SceneGenerationError echoing the seed once the retry budget is exhausted.
    """
    params = params or SceneParams()
    params.validate()
    last_err: Exception | None = None
    for attempt in range(params.max_attempts):
        rng = random.Random(derive_seed(seed, "scene", attempt))
        try:
            scene = _build(seed, rng, params)
            validate_scene(scene)
            return scene
        except SceneFormatError as exc:  # reject and retry with a fresh draw
            last_err = exc
    raise SceneGenerationError(
        f"scene generation failed for seed={seed} after {params.max_attempts} attempts: {last_err}"
    )


def _split_positions(rng: random.Random, extent: int, parts: int) -> list[int]:
    """Interior wall coordinates partitioning [0, extent-1] into ``parts`` spans."""
    bounds = [0]
    for k in range(1, parts):
        base = round(k * (extent - 1) / parts)
        jitter = rng.randint(-1, 1)
        pos = min(max(base + jitter, bounds[-1] + 6), extent - 1 - 6 * (parts - k))
        bounds.append(pos)
    bounds.append(extent - 1)
    return bounds


def _build(seed: int, rng: random.Random, params: SceneParams) -> SceneGraph:
    w, h = params.grid_width, params.grid_height
    blocked = np.zeros((h, w), dtype=bool)

    xb = _split_positions(rng, w, params.room_cols)
    yb = _split_positions(rng, h, params.room_rows)
    for x in xb:
        blocked[:, x] = True
    for y in yb:
        blocked[y, :] = True

    # room interiors
    rooms: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for r in range(params.room_rows):
        for c in range(params.room_cols):
            cells = [
                (x, y)
                for x in range(xb[c] + 1, xb[c + 1])
                for y in range(yb[r] + 1, yb[r + 1])
            ]
            rooms[(r, c)] = cells

    # doorways between horizontally and vertically adjacent rooms
    corridors: dict[str, Corridor] = {}
    door_count = 0

    def carve(cells: list[tuple[int, int]], join: tuple[str, str]) -> None:
        nonlocal door_count
        width = min(params.doorway_width, len(cells))
        start = rng.randrange(0, len(cells) - width + 1)
        gate = cells[start : start + width]
        for gx, gy in gate:
            blocked[gy, gx] = False
        cid = f"c{door_count:03d}"
        door_count += 1
        corridors[cid] = Corridor(cid, frozenset(gate), join, blocked=False)

    def room_id(r: int, c: int) -> str:
        return f"r{r}{c}"

    for r in range(params.room_rows):
        for c in range(params.room_cols - 1):
            wall_x = xb[c + 1]
            span = [(wall_x, y) for y in range(yb[r] + 2, yb[r + 1] - 1)]
            carve(span, (room_id(r, c), room_id(r, c + 1)))
    for r in range(params.room_rows - 1):
        for c in range(params.room_cols):
            wall_y = yb[r + 1]
            span = [(x, wall_y) for x in range(xb[c] + 2, xb[c + 1] - 1)]
            carve(span, (room_id(r, c), room_id(r + 1, c)))

    # labels: required types first, filler for the rest
    keys = sorted(rooms.keys())
    order = list(keys)
    rng.shuffle(order)
    labels: dict[tuple[int, int], str] = {}
    for i, key in enumerate(order):
        if i < len(params.required_rooms):
            labels[key] = params.required_rooms[i]
        else:
            labels[key] = rng.choice(params.filler_rooms)

    regions: dict[str, Region] = {}
    for key in keys:
        rid = room_id(*key)
        label = labels[key]
        regions[rid] = Region(
            region_id=rid,
            cells=frozenset(rooms[key]),
            room_label=label,
            label_provenance=PROVENANCE_GENERATOR,
            gt_room_label=label,
        )

    # signature objects for typed rooms, then portable relay targets
    objects: dict[str, SceneObject] = {}
    used: dict[str, set[tuple[int, int]]] = {rid: set() for rid in regions}
    obj_count = 0

    def place(rid: str, category: str, salience_rng, occlusion_rng) -> None:
        nonlocal obj_count
        free = [c for c in regions[rid].sorted_cells if c not in used[rid]]
        cell = rng.choice(free)
        used[rid].add(cell)
        oid = f"o{obj_count:03d}"
        obj_count += 1
        objects[oid] = SceneObject(
            object_id=oid,
            category=category,
            cell=cell,
            region_id=rid,
            salience=round(rng.uniform(*salience_rng), 4),
            occlusion=round(rng.uniform(*occlusion_rng), 4),
        )

    for key in keys:
        rid = room_id(*key)
        for category in ROOM_SIGNATURES.get(labels[key], ()):
            place(rid, category, params.signature_salience, params.signature_occlusion)

    region_ids = sorted(regions)
    for i in range(params.n_portables):
        rid = rng.choice(region_ids)
        category = params.portable_categories[i % len(params.portable_categories)]
        place(rid, category, params.portable_salience, params.portable_occlusion)

    grid = GridMap(w, h, blocked)
    return SceneGraph(
        scene_id=f"s{seed:08d}",
        seed=seed,
        grid=grid,
        regions=regions,
        objects=objects,
        corridors=corridors,
    )
