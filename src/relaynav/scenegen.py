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

# the layout: a square grid of ROOM_ROWS x ROOM_COLS rooms, each wide enough
# for doors and objects, one doorway between each two adjacent rooms
GRID_SIDE = 64
ROOM_ROWS = ROOM_COLS = 3
DOORWAY_WIDTH = 2
# room types: every required one is realized, the other rooms are fillers
REQUIRED_ROOMS = ("Bathroom", "Bedroom", "Kitchen", "LivingRoom", "Office", "Foyer")
FILLER_ROOMS = ("Corridor", "Hallway", "DiningRoom")
# relay targets, scattered over the rooms; the categories cycle
N_PORTABLES = 3
PORTABLE_CATEGORIES = ("bottle", "cup", "book", "plant")
# (low, high) uniform draws for each object's salience and occlusion
PORTABLE_SALIENCE = (0.75, 1.0)
PORTABLE_OCCLUSION = (0.0, 0.15)
SIGNATURE_SALIENCE = (0.7, 0.95)
SIGNATURE_OCCLUSION = (0.0, 0.2)


def generate_scene(seed: int) -> SceneGraph:
    """Build a scene deterministically from ``seed``, in one draw.

    The layout always validates: room walls are at least 6 cells apart,
    door spans stay off the walls' ends and every object has free cells.
    A draw that fails validation raises SceneGenerationError naming the seed.
    """
    scene = _build(seed, random.Random(derive_seed(seed, "scene", 0)))
    try:
        validate_scene(scene)
    except SceneFormatError as exc:
        raise SceneGenerationError(f"scene generation failed for seed={seed}: {exc}") from exc
    return scene


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


def _build(seed: int, rng: random.Random) -> SceneGraph:
    xb = _split_positions(rng, GRID_SIDE, ROOM_COLS)
    yb = _split_positions(rng, GRID_SIDE, ROOM_ROWS)
    span = range(GRID_SIDE)
    blocked = {(x, y) for x in xb for y in span} | {(x, y) for y in yb for x in span}

    # room interiors
    rooms: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for r in range(ROOM_ROWS):
        for c in range(ROOM_COLS):
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
        width = min(DOORWAY_WIDTH, len(cells))
        start = rng.randrange(0, len(cells) - width + 1)
        gate = cells[start : start + width]
        blocked.difference_update(gate)
        cid = f"c{door_count:03d}"
        door_count += 1
        corridors[cid] = Corridor(cid, frozenset(gate), join, blocked=False)

    def room_id(r: int, c: int) -> str:
        return f"r{r}{c}"

    for r in range(ROOM_ROWS):
        for c in range(ROOM_COLS - 1):
            wall_x = xb[c + 1]
            span = [(wall_x, y) for y in range(yb[r] + 2, yb[r + 1] - 1)]
            carve(span, (room_id(r, c), room_id(r, c + 1)))
    for r in range(ROOM_ROWS - 1):
        for c in range(ROOM_COLS):
            wall_y = yb[r + 1]
            span = [(x, wall_y) for x in range(xb[c] + 2, xb[c + 1] - 1)]
            carve(span, (room_id(r, c), room_id(r + 1, c)))

    # labels: required types first, filler for the rest
    keys = sorted(rooms.keys())
    order = list(keys)
    rng.shuffle(order)
    labels: dict[tuple[int, int], str] = {}
    for i, key in enumerate(order):
        if i < len(REQUIRED_ROOMS):
            labels[key] = REQUIRED_ROOMS[i]
        else:
            labels[key] = rng.choice(FILLER_ROOMS)

    regions: dict[str, Region] = {}
    for key in keys:
        rid = room_id(*key)
        label = labels[key]
        regions[rid] = Region(
            region_id=rid,
            cells=rooms[key],
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
        free = [c for c in regions[rid].cells if c not in used[rid]]
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
            place(rid, category, SIGNATURE_SALIENCE, SIGNATURE_OCCLUSION)

    region_ids = sorted(regions)
    for i in range(N_PORTABLES):
        rid = rng.choice(region_ids)
        category = PORTABLE_CATEGORIES[i % len(PORTABLE_CATEGORIES)]
        place(rid, category, PORTABLE_SALIENCE, PORTABLE_OCCLUSION)

    return SceneGraph(
        scene_id=f"s{seed:08d}",
        seed=seed,
        grid=GridMap.of_cells(GRID_SIDE, GRID_SIDE, blocked),
        regions=regions,
        objects=objects,
        corridors=corridors,
    )
