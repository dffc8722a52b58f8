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
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from .serialize import Record, read_json, write_canonical

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

# Occupancy codes of a robot's belief; a scene's CellTable holds the true
# map in the same codes.
UNKNOWN = np.int8(0)
FREE = np.int8(1)
BLOCKED = np.int8(2)


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
class Pose(Record):
    x: float
    y: float
    heading: int

    def __post_init__(self) -> None:
        if self.heading % TURN_DEG != 0 or not 0 <= self.heading < 360:
            raise ValueError(f"heading must be a multiple of {TURN_DEG} in [0, 360)")



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

    @functools.cached_property
    def sorted_cells(self) -> tuple[Cell, ...]:
        """The cells in ``(x, y)`` order, sorted once per region."""
        return tuple(sorted(self.cells))


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


@dataclass(frozen=True)
class CellTable:
    """A scene's cells as indices ``cy * width + cx`` into the raveled grid:
    the true ``occupancy`` in belief codes (FREE or BLOCKED), a
    ``has_object`` mask, and the objects on each such cell in object-id
    order (any number may share one). Both arrays are read-only."""

    occupancy: np.ndarray
    has_object: np.ndarray
    objects_at: dict[int, tuple[SceneObject, ...]]


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
    _cell_table: CellTable | None = field(default=None, repr=False, compare=False)

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

    def cell_table(self) -> CellTable:
        """The scene's :class:`CellTable`, built on first use."""
        if self._cell_table is None:
            width = self.grid.width
            occupancy = np.where(self.grid.blocked.ravel(), BLOCKED, FREE)
            has_object = np.zeros(occupancy.size, dtype=bool)
            objects_at: dict[int, tuple[SceneObject, ...]] = {}
            for oid in sorted(self.objects):
                obj = self.objects[oid]
                idx = obj.cell[1] * width + obj.cell[0]
                objects_at[idx] = objects_at.get(idx, ()) + (obj,)
                has_object[idx] = True
            for arr in (occupancy, has_object):
                arr.setflags(write=False)
            self._cell_table = CellTable(occupancy, has_object, objects_at)
        return self._cell_table


def validate_scene(scene: SceneGraph) -> None:
    """Check structural invariants; raise SceneFormatError on violation.

    The two connectivity checks, each region 4-connected and the free space
    one component, are flood fills over packed masks (:func:`pack_mask`):
    :func:`bfs_layers` from the mask's lowest bit until no layer is left,
    then the union of the layers must equal the mask.
    """
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
        xy = np.array(list(region.cells), dtype=np.intp).reshape(-1, 2)
        inside = ((xy >= 0) & (xy < (grid.width, grid.height))).all(axis=1)
        bad = ~inside
        bad[inside] = grid.blocked[xy[inside, 1], xy[inside, 0]]
        if bad.any():
            cell = tuple(xy[bad.argmax()].tolist())
            raise SceneFormatError(f"region {rid} contains a blocked cell {cell}")
        if not _connected_4(region.cells, grid.blocked.shape):
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
    if not _one_component(~grid.blocked):
        raise SceneFormatError("free space is not a single connected component")


def _connected_4(cells: frozenset[Cell], shape: tuple[int, int]) -> bool:
    """True iff the in-bounds ``cells`` of a ``shape`` grid are 4-connected."""
    mask = np.zeros(shape, dtype=bool)
    xs, ys = np.array(list(cells), dtype=np.intp).reshape(-1, 2).T
    mask[ys, xs] = True
    return _one_component(mask)


def _one_component(mask: np.ndarray) -> bool:
    """True iff the set cells of ``mask`` are one 4-connected component
    (an empty mask counts as one)."""
    free = pack_mask(mask)
    reached = 0
    for layer in bfs_layers(free, mask.shape[1] + 1, free & -free):
        reached |= layer
    return reached == free


# --- geodesics ------------------------------------------------------------

def bfs_distance_field(blocked: np.ndarray, start: Cell) -> np.ndarray:
    """4-connected BFS step counts from ``start``; -1 marks unreachable.

    Each layer is a set of flat indices into the grid padded with a blocked
    ring; the next keeps the unreached (-1, blocked is -2) neighbours, each
    once: stamped with its position, only its last copy keeps the stamp.
    No query in the package reads a whole field (:class:`Geodesics` answers
    them from packed layers); it stays as the tests' field oracle.
    """
    h, w = blocked.shape
    sx, sy = start
    if not (0 <= sx < w and 0 <= sy < h) or blocked[sy, sx]:
        return np.full((h, w), -1, dtype=np.int32)
    stride = w + 2
    padded = np.full((h + 2, stride), -2, dtype=np.int32)
    padded[1:-1, 1:-1][~blocked] = -1
    dist = padded.ravel()
    stamp = np.zeros(dist.size, dtype=np.intp)
    order = np.arange(4 * dist.size, dtype=np.intp)
    steps = np.array([1, -1, stride, -stride], dtype=np.intp)
    frontier = np.array([(sy + 1) * stride + sx + 1], dtype=np.intp)
    dist[frontier] = 0
    d = 0
    while frontier.size:
        d += 1
        nxt = (frontier[:, None] + steps).ravel()
        nxt = nxt[dist[nxt] == -1]
        k = order[: nxt.size]
        stamp[nxt] = k
        frontier = nxt[stamp[nxt] == k]
        dist[frontier] = d
    inner = padded[1:-1, 1:-1]
    return np.where(inner == -2, -1, inner)


def pack_mask(mask: np.ndarray) -> int:
    """A ``(h, w)`` boolean mask as one Python int, rows ``w + 1`` bits apart:
    cell ``(x, y)`` is bit ``y * (w + 1) + x``, and bit ``y * (w + 1) + w``
    after each row is a guard that is always clear."""
    h, w = mask.shape
    rows = np.zeros((h, w + 1), dtype=bool)
    rows[:, :w] = mask
    return int.from_bytes(np.packbits(rows, bitorder="little").tobytes(), "little")


def unpack_cells(bits: int, stride: int) -> list[Cell]:
    """The cells of a mask packed with rows ``stride`` bits apart, in bit
    (row-major) order."""
    cells = []
    while bits:
        low = bits & -bits
        i = low.bit_length() - 1
        cells.append((i % stride, i // stride))
        bits ^= low
    return cells


def bfs_layers(free: int, stride: int, source: int) -> Iterator[int]:
    """4-connected BFS layers through a packed mask, all cells at once.

    Layer 0 is ``source & free``; layer ``d`` holds the free cells ``d``
    steps from it. One layer is the last one shifted a bit each way and a
    row each way, masked to the free cells not reached yet. A shift along a
    row never wraps into the next: it lands on the clear guard bit between
    them (see :func:`pack_mask`); shifts off the top and bottom rows fall
    off the int or past every free bit. The layers are bitmap frontiers
    (Beamer, Asanović & Patterson, "Direction-Optimizing Breadth-First
    Search", SC 2012) with the whole grid as one word.
    """
    layer = source & free
    rest = free ^ layer
    while layer:
        yield layer
        layer = (layer << 1 | layer >> 1 | layer << stride | layer >> stride) & rest
        rest ^= layer


class Geodesics:
    """Geodesic queries over one passable mask, packed once.

    The mask is packed into one Python int (:func:`pack_mask`: stride
    ``w + 1``, a clear guard bit after each row), and every query is a
    search over :func:`bfs_layers` that stops at the first layer holding
    what it looks for, so no query builds a distance field: ``steps`` counts
    layers from ``a`` until one holds ``b``, ``nearest`` stops at the first
    layer that meets a target mask, and :func:`bfs_shortest_path` keeps the
    layers from ``b`` and descends them from ``a``. The mask never sees a
    later change to the array it came from, so its holder keeps one per
    occupancy: a robot one per believed passability (shared with its
    partner from the start until ``observe`` or ``on_blocked`` replaces
    it), ``generate_episode`` one per call, ``pick_route_blockage`` one per
    map. Nothing is kept at module level.
    """

    def __init__(self, passable: np.ndarray):
        self.passable = passable
        self.stride = passable.shape[1] + 1
        self.free = pack_mask(passable)

    def bit(self, cell: Cell) -> int:
        """The packed bit of ``cell``; 0 outside the grid."""
        x, y = cell
        h, w = self.passable.shape
        if 0 <= x < w and 0 <= y < h:
            return 1 << (y * self.stride + x)
        return 0

    def layers(self, source: Cell, target: Cell) -> list[int] | None:
        """The BFS layers from ``source`` up to the first that holds
        ``target``; None when ``target`` is blocked or unreachable."""
        goal = self.bit(target) & self.free
        if not goal:
            return None
        layers = []
        for layer in bfs_layers(self.free, self.stride, self.bit(source)):
            layers.append(layer)
            if layer & goal:
                return layers
        return None

    def steps(self, a: Cell, b: Cell) -> int:
        """4-connected step count from ``a`` to ``b``; -1 when unreachable."""
        layers = self.layers(a, b)
        return -1 if layers is None else len(layers) - 1

    def meters(self, a: Cell, b: Cell, resolution: float) -> float:
        """Geodesic length in meters; 0 when ``a == b``, ``inf`` when unreachable."""
        if a == b:
            return 0.0
        steps = self.steps(a, b)
        return math.inf if steps < 0 else float(steps) * resolution

    def nearest(self, source: Cell, targets: np.ndarray) -> Cell | None:
        """The cell of the ``targets`` mask fewest steps from ``source``,
        ties to the smallest ``(x, y)``; None when none is reachable."""
        goal = pack_mask(targets) & self.free
        if not goal:
            return None
        for layer in bfs_layers(self.free, self.stride, self.bit(source)):
            hit = layer & goal
            if hit:
                return min(unpack_cells(hit, self.stride))
        return None


def geodesic_distance(scene: SceneGraph, a: Cell, b: Cell) -> float:
    """Shortest 4-connected path length in meters; ``inf`` when unreachable."""
    grid = scene.grid
    if not grid.in_bounds(a) or not grid.in_bounds(b):
        raise ValueError("geodesic endpoints must lie inside the grid")
    return Geodesics(~grid.blocked).meters(a, b, grid.resolution)


def bfs_shortest_path(
    passable: np.ndarray, a: Cell, b: Cell, geodesics: Geodesics | None = None
) -> list[Cell] | None:
    """Lexicographically smallest shortest path from ``a`` to ``b`` (step
    directions ranked in ``NEIGHBORS_4`` order); ``None`` if unreachable.

    A queue BFS from ``a`` expanding in ``NEIGHBORS_4`` order dequeues each
    layer in the order of its cells' tree-path direction strings, so each
    parent is the predecessor with the smallest tree path and the parent
    chain to ``b`` is this path. Greedy descent towards ``b`` finds it too:
    from ``a``, step to the first neighbour in ``NEIGHBORS_4`` order one
    step closer. Layer ``d`` of the packed BFS from ``b`` is exactly the set
    of cells ``d`` steps from ``b``, so the search keeps its layers up to
    the one holding ``a`` and the descent tests each neighbour's bit in the
    next lower layer. On the packed layout the ``NEIGHBORS_4`` steps are bit
    offsets ``+1, -1, +stride, -stride``; a row step lands on a guard bit,
    never in a layer, where it would leave the grid. ``geodesics`` is a
    :class:`Geodesics` over this same mask; without one the mask is packed
    here.
    """
    if geodesics is None:
        geodesics = Geodesics(passable)
    layers = geodesics.layers(b, a)
    if layers is None:
        return None
    stride = geodesics.stride
    offsets = [dx + dy * stride for dx, dy in NEIGHBORS_4]
    i = a[1] * stride + a[0]
    path = [a]
    for layer in reversed(layers[:-1]):
        for off in offsets:
            if i + off >= 0 and layer >> (i + off) & 1:
                i += off
                break
        path.append((i % stride, i // stride))
    return path


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


def _range_cells(resolution: float, max_range_m: float) -> int:
    """Largest whole number of cells along an axis within the range."""
    return int(math.floor(max_range_m / resolution + _EPS))


@functools.cache
def ray_geometry(resolution: float, max_range_m: float) -> tuple[np.ndarray, ...]:
    """The offsets in range and their shadow table, built once per process.

    Returns read-only ``(offsets, shadows, masks)``: the ``(dx, dy)``
    offsets in range (origin excluded, row-major); the ``(dx, dy)`` cells
    of the sensing window that lie strictly inside the supercover ray of
    at least one offset, in row-major order; and one row of ``masks`` per
    such cell, the offsets whose ray interior holds it as a bitmask packed
    into ``uint64`` words (offset ``i`` is bit ``i % 8`` of byte ``i // 8``
    of the row, so a row unpacks with ``bitorder="little"``).
    """
    r = _range_cells(resolution, max_range_m)
    side = 2 * r + 1
    offsets: list[Cell] = []
    shade: dict[int, int] = {}  # window cell, row-major -> bitmask of offsets
    for dy in range(-r, r + 1):
        for dx in range(-r, r + 1):
            if (dx or dy) and math.hypot(dx, dy) * resolution <= max_range_m + _EPS:
                bit = 1 << len(offsets)
                for x, y in supercover_line((0, 0), (dx, dy))[1:-1]:
                    key = (y + r) * side + x + r
                    shade[key] = shade.get(key, 0) | bit
                offsets.append((dx, dy))
    window = sorted(shade)
    n_words = -(-len(offsets) // 64)
    packed = b"".join(shade[key].to_bytes(8 * n_words, "little") for key in window)
    geometry = (
        np.array(offsets, dtype=np.int32).reshape(-1, 2),
        np.array([(key % side - r, key // side - r) for key in window], dtype=np.int32)
        .reshape(-1, 2),
        np.frombuffer(packed, dtype=np.uint64).reshape(len(window), n_words),
    )
    for arr in geometry:
        arr.setflags(write=False)
    return geometry


@functools.cache
def flat_geometry(
    resolution: float, max_range_m: float, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`ray_geometry`'s cells as flat indices for grids ``width``
    cells wide, built once per process.

    Returns read-only ``(cells, shadows)``: each offset's index into the
    raveled grid, relative to the observer's (``dy * width + dx``), and each
    shadowing cell's index into the raveled grid padded by the range ``r``
    on every side, relative to ``cy * (width + 2 * r) + cx`` for an observer
    at ``(cx, cy)``.
    """
    offsets, shadows, _ = ray_geometry(resolution, max_range_m)
    r = _range_cells(resolution, max_range_m)
    stride = width + 2 * r
    cells = offsets[:, 1].astype(np.intp) * width + offsets[:, 0]
    padded = (shadows[:, 1].astype(np.intp) + r) * stride + shadows[:, 0] + r
    for arr in (cells, padded):
        arr.setflags(write=False)
    return cells, padded


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

    Per process, shared by every field of a resolution, range and grid
    width: the offsets and their shadow table (:func:`ray_geometry`), their
    flat indices (:func:`flat_geometry`: ``flat_offsets``, the offsets as
    indices into the raveled grid, and the shadowing cells as indices into
    the raveled padded occupancy) and the FOV masks (:func:`fov_mask`). Per
    scene: the padded occupancy and the mask cached per observer cell. A
    field belongs to one ``SceneGraph``, so a blockage, which makes a new
    scene, starts cold. A miss gathers the occupancy at the shadowing cells
    around the observer and ORs the shadow rows of the blocked ones: an
    offset is visible iff no strictly interior cell of its ray is blocked,
    as in :func:`line_of_sight`; cells outside the grid count as blocked.
    """

    def __init__(self, grid: GridMap, max_range_m: float):
        res = grid.resolution
        self.offsets, _, self._masks = ray_geometry(res, max_range_m)
        self.flat_offsets, self._shadows = flat_geometry(res, max_range_m, grid.width)
        r = _range_cells(res, max_range_m)
        occ = np.pad(grid.blocked, r, mode="constant", constant_values=True)
        self._stride = occ.shape[1]
        self._occ = occ.ravel()
        self._cache: dict[Cell, np.ndarray] = {}

    def visible_offsets(self, cell: Cell) -> np.ndarray:
        """Read-only boolean mask over ``self.offsets`` visible from ``cell`` (360 deg)."""
        cached = self._cache.get(cell)
        if cached is not None:
            return cached
        blocked = self._occ[cell[1] * self._stride + cell[0] + self._shadows]
        shade = np.bitwise_or.reduce(self._masks.compress(blocked, axis=0), axis=0)
        visible = np.unpackbits(
            shade.view(np.uint8), count=len(self.offsets), bitorder="little"
        ) == 0
        visible.setflags(write=False)
        self._cache[cell] = visible
        return visible


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
    # the regions are the source's own, so its cell index holds for the copy;
    # the visibility fields and the cell table follow occupancy and start empty
    return SceneGraph(
        scene_id=scene.scene_id,
        seed=scene.seed,
        grid=grid,
        regions=scene.regions,
        objects=scene.objects,
        corridors=corridors,
        _region_by_cell=scene._region_by_cell,
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
    write_canonical(path, scene_to_dict(scene), indent=2)


def load_scene(path) -> SceneGraph:
    return scene_from_dict(read_json(path, SceneFormatError))
