"""Grid world: occupancy, semantic regions and objects, kinematics, geodesics.

Coordinate conventions used throughout the package:

* Cells are ``(cx, cy)`` integer pairs; occupancy arrays are indexed
  ``blocked[cy, cx]``.
* Poses are continuous ``(x, y)`` in meters plus a heading in degrees that is
  always a multiple of 15 in ``[0, 360)``; heading 0 points along +x.
* A forward step advances 0.25 m, which equals exactly one cell at the default
  resolution, so axis-aligned motion keeps poses on cell centers.
* Geodesic distances are 4-connected BFS step counts times the resolution.
* Line of sight is a supercover ray between cell centers: it fails iff any
  strictly interior cell of the ray is blocked, so diagonal wall corners do
  not leak visibility.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

Cell = tuple[int, int]

TURN_DEG = 15
FORWARD_M = 0.25

ACTION_FORWARD = "move_forward"
ACTION_LEFT = "turn_left"
ACTION_RIGHT = "turn_right"
ACTION_STOP = "stop"
ACTIONS = (ACTION_FORWARD, ACTION_LEFT, ACTION_RIGHT, ACTION_STOP)

ROOM_LABELS = (
    "Bathroom",
    "Bedroom",
    "Kitchen",
    "LivingRoom",
    "DiningRoom",
    "Corridor",
    "Office",
    "Hallway",
    "Foyer",
)
UNKNOWN_LABEL = "Unknown"

ROOM_SIGNATURES: dict[str, tuple[str, ...]] = {
    "Bathroom": ("toilet", "sink"),
    "Bedroom": ("bed",),
    "Kitchen": ("stove", "refrigerator"),
    "DiningRoom": ("dining_table",),
    "LivingRoom": ("sofa", "tv"),
    "Office": ("desk", "chair"),
    "Corridor": (),
    "Hallway": (),
    "Foyer": ("shelf",),
}

PROVENANCE_RULE = "rule"
PROVENANCE_VOTE = "vote"
PROVENANCE_ADJUDICATED = "adjudicated"
PROVENANCE_GENERATOR = "generator-ground-truth"
PROVENANCES = (
    PROVENANCE_RULE,
    PROVENANCE_VOTE,
    PROVENANCE_ADJUDICATED,
    PROVENANCE_GENERATOR,
)

# Fixed expansion order makes every BFS (and therefore every planned path)
# deterministic.
NEIGHBORS_4: tuple[Cell, ...] = ((1, 0), (-1, 0), (0, 1), (0, -1))

_EPS = 1e-9


class SceneFormatError(ValueError):
    """Raised when a scene file or scene structure violates its invariants."""


class SceneGenerationError(RuntimeError):
    """Raised when procedural generation cannot satisfy its postconditions."""


class UnknownCorridorError(KeyError):
    """Raised for corridor ids not present in the scene."""


# --- headings -------------------------------------------------------------

def _heading_vectors() -> dict[int, tuple[float, float]]:
    # Exact unit vectors on the cardinal headings keep axis-aligned motion on
    # cell centers instead of accumulating ~1e-17 trig residue per step.
    vecs = {}
    for h in range(0, 360, TURN_DEG):
        if h == 0:
            vecs[h] = (1.0, 0.0)
        elif h == 90:
            vecs[h] = (0.0, 1.0)
        elif h == 180:
            vecs[h] = (-1.0, 0.0)
        elif h == 270:
            vecs[h] = (0.0, -1.0)
        else:
            rad = math.radians(h)
            vecs[h] = (math.cos(rad), math.sin(rad))
    return vecs


HEADING_VECTORS = _heading_vectors()


def wrap_angle(deg: float) -> float:
    """Wrap to (-180, 180]."""
    a = deg % 360.0
    if a > 180.0:
        a -= 360.0
    return a


@dataclass(frozen=True)
class Pose:
    x: float
    y: float
    heading: int

    def __post_init__(self) -> None:
        if self.heading % TURN_DEG != 0 or not 0 <= self.heading < 360:
            raise ValueError(f"heading must be a multiple of {TURN_DEG} in [0, 360)")

    def to_dict(self) -> dict:
        return {"x": self.x, "y": self.y, "heading": self.heading}

    @staticmethod
    def from_dict(d: dict) -> "Pose":
        return Pose(float(d["x"]), float(d["y"]), int(d["heading"]))


# --- scene structure ------------------------------------------------------

@dataclass(frozen=True)
class Region:
    region_id: str
    cells: frozenset[Cell]
    room_label: str
    label_provenance: str
    gt_room_label: str

    def __post_init__(self) -> None:
        if self.room_label != UNKNOWN_LABEL and self.room_label not in ROOM_LABELS:
            raise SceneFormatError(f"unknown room label {self.room_label!r}")
        if self.label_provenance not in PROVENANCES:
            raise SceneFormatError(f"unknown provenance {self.label_provenance!r}")


@dataclass(frozen=True)
class SceneObject:
    object_id: str
    category: str
    cell: Cell
    region_id: str
    salience: float
    occlusion: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.salience <= 1.0 or not 0.0 <= self.occlusion <= 1.0:
            raise SceneFormatError("salience and occlusion must lie in [0, 1]")


@dataclass(frozen=True)
class Corridor:
    corridor_id: str
    gate_cells: frozenset[Cell]
    joins: tuple[str, str]
    blocked: bool = False


@dataclass
class GridMap:
    width: int
    height: int
    resolution: float
    blocked: np.ndarray  # bool, shape (height, width)

    def in_bounds(self, cell: Cell) -> bool:
        return 0 <= cell[0] < self.width and 0 <= cell[1] < self.height

    def is_blocked(self, cell: Cell) -> bool:
        return bool(self.blocked[cell[1], cell[0]])

    def cell_of(self, x: float, y: float) -> Cell:
        return (int(math.floor(x / self.resolution)), int(math.floor(y / self.resolution)))

    def center(self, cell: Cell) -> tuple[float, float]:
        return ((cell[0] + 0.5) * self.resolution, (cell[1] + 0.5) * self.resolution)


@dataclass
class SceneGraph:
    scene_id: str
    seed: int
    grid: GridMap
    regions: dict[str, Region]
    objects: dict[str, SceneObject]
    corridors: dict[str, Corridor]
    _region_by_cell: dict[Cell, str] = field(default_factory=dict, repr=False)
    _vis_fields: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not self._region_by_cell:
            for rid in sorted(self.regions):
                for cell in self.regions[rid].cells:
                    self._region_by_cell[cell] = rid

    def region_of(self, cell: Cell) -> Region | None:
        rid = self._region_by_cell.get(cell)
        return self.regions[rid] if rid is not None else None

    def room_label_of(self, cell: Cell) -> str:
        region = self.region_of(cell)
        return region.room_label if region is not None else UNKNOWN_LABEL

    def objects_in_region(self, region_id: str) -> list[SceneObject]:
        return [self.objects[oid] for oid in sorted(self.objects)
                if self.objects[oid].region_id == region_id]

    def visibility(self, max_range_m: float) -> "VisibilityField":
        key = round(max_range_m, 6)
        if key not in self._vis_fields:
            self._vis_fields[key] = VisibilityField(self.grid, max_range_m)
        return self._vis_fields[key]


def validate_scene(scene: SceneGraph) -> None:
    """Check structural invariants; raise SceneFormatError on violation."""
    grid = scene.grid
    border_x = np.concatenate([grid.blocked[0, :], grid.blocked[-1, :]])
    border_y = np.concatenate([grid.blocked[:, 0], grid.blocked[:, -1]])
    if not (border_x.all() and border_y.all()):
        raise SceneFormatError("border cells must be blocked")
    seen: set[Cell] = set()
    for rid in sorted(scene.regions):
        region = scene.regions[rid]
        if not region.cells:
            raise SceneFormatError(f"region {rid} is empty")
        if region.cells & seen:
            raise SceneFormatError(f"region {rid} overlaps another region")
        seen |= region.cells
        for cell in region.cells:
            if not grid.in_bounds(cell) or grid.is_blocked(cell):
                raise SceneFormatError(f"region {rid} contains a blocked cell {cell}")
        if not _connected_4(region.cells):
            raise SceneFormatError(f"region {rid} is not 4-connected")
    for oid in sorted(scene.objects):
        obj = scene.objects[oid]
        if obj.region_id not in scene.regions:
            raise SceneFormatError(f"object {oid} references unknown region")
        if obj.cell not in scene.regions[obj.region_id].cells:
            raise SceneFormatError(f"object {oid} lies outside its region")
    for cid in sorted(scene.corridors):
        cor = scene.corridors[cid]
        for cell in cor.gate_cells:
            if not grid.in_bounds(cell):
                raise SceneFormatError(f"corridor {cid} gate cell out of bounds")
            if grid.is_blocked(cell) != cor.blocked:
                raise SceneFormatError(
                    f"corridor {cid} blocked flag disagrees with occupancy"
                )
            if cell in seen:
                raise SceneFormatError(f"corridor {cid} gate cell inside a region")
    free = ~grid.blocked
    if free.any() and not _one_component(free):
        raise SceneFormatError("free space is not a single connected component")


def _connected_4(cells: frozenset[Cell]) -> bool:
    start = next(iter(cells))
    seen = {start}
    stack = [start]
    while stack:
        cx, cy = stack.pop()
        for dx, dy in NEIGHBORS_4:
            nxt = (cx + dx, cy + dy)
            if nxt in cells and nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == len(cells)


def _one_component(free: np.ndarray) -> bool:
    ys, xs = np.nonzero(free)
    if len(xs) == 0:
        return True
    field_ = bfs_distance_field(~free, (int(xs[0]), int(ys[0])))
    return bool((field_[free] >= 0).all())


# --- geodesics ------------------------------------------------------------

def _shift_or(mask: np.ndarray) -> np.ndarray:
    out = np.zeros_like(mask)
    out[1:, :] |= mask[:-1, :]
    out[:-1, :] |= mask[1:, :]
    out[:, 1:] |= mask[:, :-1]
    out[:, :-1] |= mask[:, 1:]
    return out


def bfs_distance_field(blocked: np.ndarray, start: Cell) -> np.ndarray:
    """4-connected BFS step counts from ``start``; -1 marks unreachable."""
    h, w = blocked.shape
    dist = np.full((h, w), -1, dtype=np.int32)
    sx, sy = start
    if not (0 <= sx < w and 0 <= sy < h) or blocked[sy, sx]:
        return dist
    free = ~blocked
    frontier = np.zeros((h, w), dtype=bool)
    frontier[sy, sx] = True
    reached = frontier.copy()
    d = 0
    while frontier.any():
        dist[frontier] = d
        nxt = _shift_or(frontier) & free & ~reached
        reached |= nxt
        frontier = nxt
        d += 1
    return dist


def geodesic_distance(scene: SceneGraph, a: Cell, b: Cell) -> float:
    """Shortest 4-connected path length in meters; ``inf`` when unreachable."""
    grid = scene.grid
    if not grid.in_bounds(a) or not grid.in_bounds(b):
        raise ValueError("geodesic endpoints must lie inside the grid")
    if a == b:
        return 0.0
    steps = bfs_distance_field(grid.blocked, a)[b[1], b[0]]
    return math.inf if steps < 0 else float(steps) * grid.resolution


def bfs_shortest_path(passable: np.ndarray, a: Cell, b: Cell) -> list[Cell] | None:
    """Deterministic BFS path over a boolean traversability mask."""
    h, w = passable.shape
    if not passable[a[1], a[0]] or not passable[b[1], b[0]]:
        return None
    if a == b:
        return [a]
    parent: dict[Cell, Cell] = {a: a}
    queue: list[Cell] = [a]
    qi = 0
    while qi < len(queue):
        cur = queue[qi]
        qi += 1
        if cur == b:
            break
        cx, cy = cur
        for dx, dy in NEIGHBORS_4:
            nxt = (cx + dx, cy + dy)
            nx, ny = nxt
            if 0 <= nx < w and 0 <= ny < h and passable[ny, nx] and nxt not in parent:
                parent[nxt] = cur
                queue.append(nxt)
    if b not in parent:
        return None
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def shortest_path(scene: SceneGraph, a: Cell, b: Cell) -> list[Cell] | None:
    return bfs_shortest_path(~scene.grid.blocked, a, b)


def path_length_m(path: list[Cell], resolution: float) -> float:
    return (len(path) - 1) * resolution if path else 0.0


# --- rays and visibility --------------------------------------------------

def supercover_line(a: Cell, b: Cell) -> list[Cell]:
    """Every cell a segment between the two cell centers passes through.

    Exact corner crossings include both side cells, so a diagonal gap between
    two blocked cells does not admit sight lines.
    """
    x, y = a
    x1, y1 = b
    dx, dy = x1 - x, y1 - y
    nx, ny = abs(dx), abs(dy)
    sx = 1 if dx > 0 else -1
    sy = 1 if dy > 0 else -1
    cells = [(x, y)]
    ix = iy = 0
    while ix < nx or iy < ny:
        decision = (1 + 2 * ix) * ny - (1 + 2 * iy) * nx
        if decision == 0:
            cells.append((x + sx, y))
            cells.append((x, y + sy))
            x += sx
            y += sy
            ix += 1
            iy += 1
        elif decision < 0:
            x += sx
            ix += 1
        else:
            y += sy
            iy += 1
        cells.append((x, y))
    return cells


@functools.cache
def ray_geometry(resolution: float, max_range_m: float) -> tuple[np.ndarray, ...]:
    """Supercover rays to every offset within range, built once per process.

    Returns read-only ``(offsets, index, ray_rows, ray_starts, ray_cells)``:
    the ``(dx, dy)`` offsets in range (origin excluded, row-major), a dense
    ``[dy + r, dx + r] -> row`` table (-1 out of range), and the ragged rays:
    the strictly interior cells of the rays of rows ``ray_rows``, back to
    back in ``ray_cells``, each run starting at ``ray_starts``.
    """
    r = int(math.floor(max_range_m / resolution + _EPS))
    index = np.full((2 * r + 1, 2 * r + 1), -1, dtype=np.int32)
    offsets: list[Cell] = []
    rows: list[int] = []
    starts: list[int] = []
    cells: list[Cell] = []
    for dy in range(-r, r + 1):
        for dx in range(-r, r + 1):
            if (dx or dy) and math.hypot(dx, dy) * resolution <= max_range_m + _EPS:
                interior = supercover_line((0, 0), (dx, dy))[1:-1]
                if interior:
                    rows.append(len(offsets))
                    starts.append(len(cells))
                    cells.extend(interior)
                index[dy + r, dx + r] = len(offsets)
                offsets.append((dx, dy))
    geometry = (
        np.array(offsets, dtype=np.int32).reshape(-1, 2),
        index,
        np.array(rows, dtype=np.intp),
        np.array(starts, dtype=np.intp),
        np.array(cells, dtype=np.int32).reshape(-1, 2),
    )
    for arr in geometry:
        arr.setflags(write=False)
    return geometry


@functools.cache
def fov_mask(
    resolution: float, max_range_m: float, heading: float, fov_deg: float
) -> np.ndarray:
    """Read-only mask over :func:`ray_geometry`'s offsets inside the field of
    view, memoized per process like the geometry."""
    offsets = ray_geometry(resolution, max_range_m)[0]
    bearing = np.degrees(np.arctan2(offsets[:, 1], offsets[:, 0])) % 360.0
    mask = np.abs((bearing - heading + 180.0) % 360.0 - 180.0) <= fov_deg / 2.0 + _EPS
    mask.setflags(write=False)
    return mask


class VisibilityField:
    """Vectorized per-cell line of sight within a fixed sensing range.

    The ray geometry (:func:`ray_geometry`) and FOV masks (:func:`fov_mask`)
    are per process. The padded occupancy and the mask cached per observer
    cell are per scene: a field belongs to one ``SceneGraph``, so a blockage,
    which makes a new scene, starts cold. The ragged ray interiors become one
    flat index array into the raveled padded occupancy, relative to the
    observer; a miss gathers them and ORs each ray's run. An offset is
    visible iff every strictly interior cell of its ray is free, as in
    :func:`line_of_sight`; cells outside the grid count as blocked.
    """

    def __init__(self, grid: GridMap, max_range_m: float):
        geometry = ray_geometry(grid.resolution, max_range_m)
        self.offsets, self._index, self._ray_rows, self._ray_starts, cells = geometry
        self.range_cells = r = (len(self._index) - 1) // 2
        occ = np.pad(grid.blocked, r, mode="constant", constant_values=True)
        self._stride = occ.shape[1]
        self._occ = occ.ravel()
        cells = cells.astype(np.intp) + r
        self._rays = cells[:, 1] * self._stride + cells[:, 0]
        self._cache: dict[Cell, np.ndarray] = {}

    def visible_offsets(self, cell: Cell) -> np.ndarray:
        """Read-only boolean mask over ``self.offsets`` visible from ``cell`` (360 deg)."""
        cached = self._cache.get(cell)
        if cached is not None:
            return cached
        base = cell[1] * self._stride + cell[0]
        blocked = np.logical_or.reduceat(self._occ[base + self._rays], self._ray_starts)
        visible = np.ones(len(self.offsets), dtype=bool)
        visible[self._ray_rows] = ~blocked
        visible.setflags(write=False)
        self._cache[cell] = visible
        return visible

    def offset_row(self, dx: int, dy: int) -> int:
        """Row of ``(dx, dy)`` in ``self.offsets``; -1 if out of range or (0, 0)."""
        r = self.range_cells
        if abs(dx) > r or abs(dy) > r:
            return -1
        return int(self._index[dy + r, dx + r])


def bearing_deg(from_xy: tuple[float, float], to_xy: tuple[float, float]) -> float:
    return math.degrees(math.atan2(to_xy[1] - from_xy[1], to_xy[0] - from_xy[0])) % 360.0


def line_of_sight(
    scene: SceneGraph,
    pose: Pose,
    target: Cell,
    max_range_m: float,
    fov_deg: float,
) -> bool:
    """True iff ``target`` is within range and field of view of ``pose`` and
    the supercover ray between the cell centers crosses no blocked cell.

    Distance and bearing are measured from the pose point to the target cell
    center; the observer's own cell is always visible.
    """
    grid = scene.grid
    if not grid.in_bounds(target):
        raise ValueError("line_of_sight target outside grid")
    observer = grid.cell_of(pose.x, pose.y)
    if observer == target:
        return True
    tx, ty = grid.center(target)
    dist = math.hypot(tx - pose.x, ty - pose.y)
    if dist > max_range_m + _EPS:
        return False
    if fov_deg < 360.0:
        err = wrap_angle(bearing_deg((pose.x, pose.y), (tx, ty)) - pose.heading)
        if abs(err) > fov_deg / 2.0 + _EPS:
            return False
    interior = supercover_line(observer, target)[1:-1]
    for cell in interior:
        if not grid.in_bounds(cell) or grid.is_blocked(cell):
            return False
    return True


# --- kinematics -----------------------------------------------------------

def step_kinematics(scene: SceneGraph, pose: Pose, action: str) -> tuple[Pose, bool]:
    """Apply one action; returns (new pose, blocked flag).

    Only ``move_forward`` can be blocked: the step commits iff the cell
    containing the destination point is free.
    """
    if action not in ACTIONS:
        raise ValueError(f"unknown action {action!r}")
    if action == ACTION_LEFT:
        return replace(pose, heading=(pose.heading - TURN_DEG) % 360), False
    if action == ACTION_RIGHT:
        return replace(pose, heading=(pose.heading + TURN_DEG) % 360), False
    if action == ACTION_STOP:
        return pose, False
    vx, vy = HEADING_VECTORS[pose.heading]
    nx = pose.x + FORWARD_M * vx
    ny = pose.y + FORWARD_M * vy
    dest = scene.grid.cell_of(nx, ny)
    if not scene.grid.in_bounds(dest) or scene.grid.is_blocked(dest):
        return pose, True
    return Pose(nx, ny, pose.heading), False


# --- blockage transitions -------------------------------------------------

def apply_blockage(scene: SceneGraph, corridor_id: str) -> SceneGraph:
    """Return a scene with the corridor's gate cells blocked. Idempotent."""
    cor = scene.corridors.get(corridor_id)
    if cor is None:
        raise UnknownCorridorError(corridor_id)
    if cor.blocked:
        return scene
    return _with_corridor_state(scene, cor, blocked=True)


def clear_blockage(scene: SceneGraph, corridor_id: str) -> SceneGraph:
    """Inverse of :func:`apply_blockage`; restores the gate cells to free."""
    cor = scene.corridors.get(corridor_id)
    if cor is None:
        raise UnknownCorridorError(corridor_id)
    if not cor.blocked:
        return scene
    return _with_corridor_state(scene, cor, blocked=False)


def _with_corridor_state(scene: SceneGraph, cor: Corridor, blocked: bool) -> SceneGraph:
    occ = scene.grid.blocked.copy()
    for cx, cy in cor.gate_cells:
        occ[cy, cx] = blocked
    corridors = dict(scene.corridors)
    corridors[cor.corridor_id] = replace(cor, blocked=blocked)
    grid = GridMap(scene.grid.width, scene.grid.height, scene.grid.resolution, occ)
    return SceneGraph(
        scene_id=scene.scene_id,
        seed=scene.seed,
        grid=grid,
        regions=scene.regions,
        objects=scene.objects,
        corridors=corridors,
    )


# --- serialization --------------------------------------------------------

def scene_to_dict(scene: SceneGraph) -> dict:
    ys, xs = np.nonzero(scene.grid.blocked)
    blocked_cells = sorted((int(x), int(y)) for x, y in zip(xs, ys))
    return {
        "meta": {
            "scene_id": scene.scene_id,
            "seed": scene.seed,
            "resolution": scene.grid.resolution,
        },
        "grid": {
            "width": scene.grid.width,
            "height": scene.grid.height,
            "blocked_cells": [list(c) for c in blocked_cells],
        },
        "regions": [
            {
                "region_id": r.region_id,
                "cells": [list(c) for c in sorted(r.cells)],
                "room_label": r.room_label,
                "label_provenance": r.label_provenance,
                "gt_room_label": r.gt_room_label,
            }
            for r in (scene.regions[k] for k in sorted(scene.regions))
        ],
        "objects": [
            {
                "object_id": o.object_id,
                "category": o.category,
                "cell": list(o.cell),
                "region_id": o.region_id,
                "salience": o.salience,
                "occlusion": o.occlusion,
            }
            for o in (scene.objects[k] for k in sorted(scene.objects))
        ],
        "corridors": [
            {
                "corridor_id": c.corridor_id,
                "gate_cells": [list(g) for g in sorted(c.gate_cells)],
                "joins": list(c.joins),
                "blocked": c.blocked,
            }
            for c in (scene.corridors[k] for k in sorted(scene.corridors))
        ],
    }


def scene_from_dict(data: dict) -> SceneGraph:
    try:
        meta = data["meta"]
        grid_d = data["grid"]
        width, height = int(grid_d["width"]), int(grid_d["height"])
        blocked = np.zeros((height, width), dtype=bool)
        for cx, cy in grid_d["blocked_cells"]:
            blocked[int(cy), int(cx)] = True
        grid = GridMap(width, height, float(meta["resolution"]), blocked)
        regions = {
            r["region_id"]: Region(
                region_id=r["region_id"],
                cells=frozenset((int(x), int(y)) for x, y in r["cells"]),
                room_label=r["room_label"],
                label_provenance=r["label_provenance"],
                gt_room_label=r["gt_room_label"],
            )
            for r in data["regions"]
        }
        objects = {
            o["object_id"]: SceneObject(
                object_id=o["object_id"],
                category=o["category"],
                cell=(int(o["cell"][0]), int(o["cell"][1])),
                region_id=o["region_id"],
                salience=float(o["salience"]),
                occlusion=float(o["occlusion"]),
            )
            for o in data["objects"]
        }
        corridors = {
            c["corridor_id"]: Corridor(
                corridor_id=c["corridor_id"],
                gate_cells=frozenset((int(x), int(y)) for x, y in c["gate_cells"]),
                joins=(c["joins"][0], c["joins"][1]),
                blocked=bool(c["blocked"]),
            )
            for c in data["corridors"]
        }
        scene = SceneGraph(
            scene_id=meta["scene_id"],
            seed=int(meta["seed"]),
            grid=grid,
            regions=regions,
            objects=objects,
            corridors=corridors,
        )
    except (KeyError, TypeError, IndexError) as exc:
        raise SceneFormatError(f"malformed scene file: {exc}") from exc
    validate_scene(scene)
    return scene


def save_scene(scene: SceneGraph, path) -> None:
    from .serialize import write_canonical

    write_canonical(path, scene_to_dict(scene), indent=2)


def load_scene(path) -> SceneGraph:
    from .serialize import read_json

    return scene_from_dict(read_json(path))
