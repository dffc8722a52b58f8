"""Grid world: occupancy, semantic regions and objects, kinematics, geodesics.

Coordinate conventions used throughout the package:

* Cells are ``(cx, cy)`` integer pairs. A grid's blocked cells are one
  packed Python int (:class:`GridMap`): cell ``(x, y)`` is bit
  ``y * (width + 1) + x``, and the bit after each row is a guard that is
  always clear. Generation, validation, serialization, a robot's belief,
  every geodesic query, object sightings (:func:`packed_rays`) and a
  discover-mode belief's sensed cells (:class:`VisibilityField`) work on
  packed ints, so no module of the package imports numpy. The one
  unpacked geodesic is :func:`bfs_distance_field`, a plain queue BFS kept
  as the independent reference.
* Poses are continuous ``(x, y)`` in meters plus a heading in degrees that is
  always a multiple of 15 in ``[0, 360)``; heading 0 points along +x.
* There is one cell size, ``FORWARD_M`` = 0.25 m: every scene and rollout
  uses it, and a forward step advances exactly one cell, so axis-aligned
  motion keeps poses on cell centers. :func:`cell_of` maps a point to its
  cell and :func:`center` a cell to its center.
* Geodesic distances are 4-connected BFS step counts times ``FORWARD_M``.
* Line of sight is a supercover ray between cell centers: it fails iff any
  strictly interior cell of the ray is blocked, so diagonal wall corners do
  not leak visibility.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, fields, replace
from operator import itemgetter

from .serialize import Record, read_json, write_canonical

Cell = tuple[int, int]

TURN_DEG = 15
FORWARD_M = 0.25
# a grid side, in cells, for generated and loaded scenes alike
MAX_GRID_SIDE = 256

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


def cell_of(x: float, y: float) -> Cell:
    """The cell holding the point ``(x, y)``."""
    return (int(math.floor(x / FORWARD_M)), int(math.floor(y / FORWARD_M)))


def center(cell: Cell) -> tuple[float, float]:
    """The center of ``cell`` in meters."""
    return ((cell[0] + 0.5) * FORWARD_M, (cell[1] + 0.5) * FORWARD_M)


class _CellOnce:
    """``Pose.cell``: the first read derives the cell and stores it in the
    pose's instance dict, where later reads find it before this non-data
    descriptor. ``functools.cached_property`` does the same, but on Python
    3.11 it takes a lock on every first read, which costs more than the
    cell."""

    def __get__(self, pose: Pose | None, owner: type | None = None):
        if pose is None:
            return self
        cell = pose.__dict__["cell"] = cell_of(pose.x, pose.y)
        return cell


@dataclass(frozen=True)
class Pose(Record):
    """A robot's position in meters and heading in degrees.

    ``cell`` is the cell holding the pose (:func:`cell_of`); there is one
    fixed cell size, ``FORWARD_M`` = 0.25 m. It is derived once per pose and
    kept in the instance dict: a pose is immutable, so its cell never goes
    stale, and a moved or turned robot holds a new ``Pose``.
    """

    x: float
    y: float
    heading: int

    cell = _CellOnce()

    def __post_init__(self) -> None:
        if self.heading % TURN_DEG != 0 or not 0 <= self.heading < 360:
            raise ValueError(f"heading must be a multiple of {TURN_DEG} in [0, 360)")



# --- scene structure ------------------------------------------------------

@dataclass(frozen=True)
class Region(Record):
    format_error = SceneFormatError

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
class SceneObject(Record):
    format_error = SceneFormatError

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
class Corridor(Record):
    format_error = SceneFormatError

    corridor_id: str
    gate_cells: frozenset[Cell]
    joins: tuple[str, str]
    blocked: bool


def pack_cells(cells: Iterable[Cell], stride: int) -> int:
    """The ``cells`` as one packed int, rows ``stride`` bits apart: cell
    ``(x, y)`` is bit ``y * stride + x``. Each cell must lie in a row,
    ``0 <= x < stride - 1``, so the guard bits stay clear."""
    bits = 0
    for x, y in cells:
        bits |= 1 << (y * stride + x)
    return bits


@functools.cache
def packed_rect(width: int, height: int, stride: int) -> int:
    """The packed cells ``(x, y)`` with ``0 <= x < width`` and ``0 <= y < height``."""
    if width <= 0 or height <= 0:
        return 0
    row = (1 << width) - 1
    return sum(row << y * stride for y in range(height))


@dataclass
class GridMap:
    """A ``width`` x ``height`` grid whose ``blocked`` cells are one packed
    int, the layout :class:`Geodesics` searches: cell ``(x, y)`` is bit
    ``y * stride + x`` with ``stride = width + 1``, and the guard bit after
    each row is always clear. A grid is never changed in place: a blockage
    makes a new one (:func:`apply_blockage`)."""

    width: int
    height: int
    blocked: int

    @classmethod
    def of_cells(cls, width: int, height: int, blocked_cells: Iterable[Cell]) -> GridMap:
        """The grid whose blocked cells are ``blocked_cells``, all inside it."""
        return cls(width, height, pack_cells(blocked_cells, width + 1))

    @property
    def stride(self) -> int:
        return self.width + 1

    @property
    def free(self) -> int:
        """The packed cells that are not blocked."""
        return packed_rect(self.width, self.height, self.stride) ^ self.blocked

    def mask(self, cells: Iterable[Cell]) -> int:
        """The in-grid ``cells`` packed in this grid's layout."""
        return pack_cells(cells, self.stride)

    def in_bounds(self, cell: Cell) -> bool:
        return 0 <= cell[0] < self.width and 0 <= cell[1] < self.height

    def is_blocked(self, cell: Cell) -> bool:
        """Whether the in-grid ``cell`` is blocked."""
        # the stride inlined: one call per forward step of every rollout tick
        return bool(self.blocked >> (cell[1] * (self.width + 1) + cell[0]) & 1)

    def geodesics(self) -> Geodesics:
        """Geodesic queries over the grid's free cells."""
        return Geodesics(self.free, self.width, self.height)


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
    _sorted_objects: tuple[SceneObject, ...] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self._region_by_cell:
            for rid in sorted(self.regions):
                self._region_by_cell.update(dict.fromkeys(self.regions[rid].cells, rid))

    def region_of(self, cell: Cell) -> Region | None:
        rid = self._region_by_cell.get(cell)
        return self.regions[rid] if rid is not None else None

    def room_label_of(self, cell: Cell) -> str:
        region = self.region_of(cell)
        return region.room_label if region is not None else UNKNOWN_LABEL

    def objects_in_region(self, region_id: str) -> list[SceneObject]:
        return [obj for obj in self.sorted_objects() if obj.region_id == region_id]

    def visibility(self, max_range_m: float) -> "VisibilityField":
        key = round(max_range_m, 6)
        if key not in self._vis_fields:
            self._vis_fields[key] = VisibilityField(self.grid, max_range_m)
        return self._vis_fields[key]

    def sorted_objects(self) -> tuple[SceneObject, ...]:
        """The scene's objects in object-id order, listed on first use."""
        if self._sorted_objects is None:
            self._sorted_objects = tuple(self.objects[oid] for oid in sorted(self.objects))
        return self._sorted_objects


def validate_scene(scene: SceneGraph) -> None:
    """Check structural invariants; raise SceneFormatError on violation.

    Every check reads packed ints (:class:`GridMap`): each region's cells
    are packed once (:func:`_region_mask`), and bounds, overlap with the
    regions before it, blocked cells and 4-connectivity are tested on that
    mask; the free space must be one component too. The connectivity
    checks are flood fills over packed masks (:func:`_one_component`). A
    region that fails is looked at again cell by cell (:func:`_region_error`)
    to name the failure.
    """
    grid = scene.grid
    w, h, stride = grid.width, grid.height, grid.stride
    interior = packed_rect(w - 2, h - 2, stride) << stride + 1
    border = packed_rect(w, h, stride) ^ interior
    if border & grid.blocked != border:
        raise SceneFormatError("border cells must be blocked")
    seen = 0
    for rid in sorted(scene.regions):
        cells = scene.regions[rid].cells
        if not cells:
            raise SceneFormatError(f"region {rid} is empty")
        mask = _region_mask(cells, grid)
        if mask is None or mask & (seen | grid.blocked):
            raise _region_error(scene, rid)
        if not _one_component(mask, stride):
            raise SceneFormatError(f"region {rid} is not 4-connected")
        seen |= mask
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
            if seen >> cell[1] * stride + cell[0] & 1:
                raise SceneFormatError(f"corridor {cid} gate cell inside a region")
    if not _one_component(grid.free, stride):
        raise SceneFormatError("free space is not a single connected component")


def _region_mask(cells: frozenset[Cell], grid: GridMap) -> int | None:
    """The region ``cells`` packed in ``grid``'s layout, or None if one lies
    outside it. Cells that are every pair of their columns and rows (a
    room's box) are packed a row at a time, other cells one at a time."""
    xs = set(map(itemgetter(0), cells))
    ys = set(map(itemgetter(1), cells))
    if min(xs) < 0 or min(ys) < 0 or max(xs) >= grid.width or max(ys) >= grid.height:
        return None
    if len(xs) * len(ys) != len(cells):
        return grid.mask(cells)
    row = sum(1 << x for x in xs)
    return sum(row << y * grid.stride for y in ys)


def _region_error(scene: SceneGraph, rid: str) -> SceneFormatError:
    """Why region ``rid`` fails where the regions before it passed: it
    overlaps one of them, or holds a blocked or out-of-grid cell."""
    cells, grid = scene.regions[rid].cells, scene.grid
    if any(cells & scene.regions[other].cells for other in scene.regions if other < rid):
        return SceneFormatError(f"region {rid} overlaps another region")
    cell = next(c for c in cells if not grid.in_bounds(c) or grid.is_blocked(c))
    return SceneFormatError(f"region {rid} contains a blocked cell {cell}")


def _one_component(bits: int, stride: int) -> bool:
    """True iff the cells of a packed mask, rows ``stride`` bits apart, are
    one 4-connected component (an empty mask counts as one). A mask that
    fills the rectangle from its first to its last cell, such as a room's
    box, is one; for any other the union of the :func:`bfs_layers` from
    its lowest bit must be the whole mask."""
    y0, x0 = divmod((bits & -bits).bit_length() - 1, stride)
    y1, x1 = divmod(bits.bit_length() - 1, stride)
    row = (1 << x1 + 1) - (1 << x0)  # columns x0 to x1; not positive if x1 < x0
    if bits and bits == sum(row << y * stride for y in range(y0, y1 + 1)):
        return True
    reached = 0
    for layer in bfs_layers(bits, stride, bits & -bits):
        reached |= layer
    return reached == bits


# --- geodesics ------------------------------------------------------------

def bfs_distance_field(blocked, start: Cell) -> list[list[int]]:
    """4-connected BFS step counts from ``start`` over ``(h, w)`` rows of
    blocked flags indexed ``[y][x]`` (nested lists or an array), as rows of
    ints; -1 marks blocked and unreachable cells, and every cell when the
    start is blocked or off the grid.

    A plain queue BFS. No query in the package reads a whole field
    (:class:`Geodesics` answers them from packed layers); it stays the
    independent reference that the tests and ``replan.swap_oracle`` read.
    """
    h = len(blocked)
    w = len(blocked[0]) if h else 0
    dist = [[-1] * w for _ in range(h)]
    sx, sy = start
    if not (0 <= sx < w and 0 <= sy < h) or blocked[sy][sx]:
        return dist
    dist[sy][sx] = 0
    queue = [start]
    for x, y in queue:  # the queue grows while it is read
        d = dist[y][x] + 1
        for dx, dy in NEIGHBORS_4:
            nx, ny = x + dx, y + dy
            if 0 <= nx < w and 0 <= ny < h and dist[ny][nx] < 0 and not blocked[ny][nx]:
                dist[ny][nx] = d
                queue.append((nx, ny))
    return dist


def unpack_cells(bits: int, stride: int) -> list[Cell]:
    """The cells of a mask packed with rows ``stride`` bits apart, in bit
    (row-major) order."""
    digits = bin(bits)[:1:-1]  # bit i is digit i
    cells = []
    i = digits.find("1")
    while i >= 0:
        cells.append((i % stride, i // stride))
        i = digits.find("1", i + 1)
    return cells


def bfs_layers(free: int, stride: int, source: int) -> Iterator[int]:
    """4-connected BFS layers through a packed mask, all cells at once.

    Layer 0 is ``source & free``; layer ``d`` holds the free cells ``d``
    steps from it. One layer is the last one shifted a bit each way and a
    row each way, masked to the free cells not reached yet. A shift along a
    row never wraps into the next: it lands on the clear guard bit between
    them (see :class:`GridMap`); shifts off the top and bottom rows fall
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
    """Geodesic queries over the passable cells ``free`` of a ``width`` x
    ``height`` grid, packed in :class:`GridMap`'s layout (stride
    ``width + 1``, a clear guard bit after each row).

    Every query is a search over :func:`bfs_layers` that stops at the first
    layer holding what it looks for, so no query builds a distance field:
    ``steps`` counts layers from ``a`` until one holds ``b``, ``nearest``
    stops at the first layer that meets a target mask, and
    :func:`bfs_shortest_path` keeps the layers from ``b`` and descends them
    from ``a``. A true map's comes from :meth:`GridMap.geodesics`; a
    robot's runs over the cells its belief does not hold blocked
    (``packed_rect ^ blocked``), and the robot keeps one per believed
    passability (``observe`` or ``on_blocked`` replaces it when that
    changes). It keeps no memo: only the packed ``free`` and the grid size.
    ``generate_episode`` makes one per call and ``pick_route_blockage`` one
    per map. Nothing is kept at module level.
    """

    def __init__(self, free: int, width: int, height: int):
        self.free = free
        self.width = width
        self.height = height
        self.stride = width + 1

    def bit(self, cell: Cell) -> int:
        """The packed bit of ``cell``; 0 outside the grid."""
        x, y = cell
        if 0 <= x < self.width and 0 <= y < self.height:
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

    def meters(self, a: Cell, b: Cell) -> float:
        """Geodesic length in meters; 0 when ``a == b``, ``inf`` when unreachable."""
        if a == b:
            return 0.0
        steps = self.steps(a, b)
        return math.inf if steps < 0 else float(steps) * FORWARD_M

    def nearest(self, source: Cell, targets: int) -> Cell | None:
        """The cell of the packed ``targets`` mask fewest steps from
        ``source``, ties to the smallest ``(x, y)``; None when none is
        reachable."""
        goal = targets & self.free
        if not goal:
            return None
        for layer in bfs_layers(self.free, self.stride, self.bit(source)):
            hit = layer & goal
            if hit:
                return min(unpack_cells(hit, self.stride))
        return None


def bfs_shortest_path(geodesics: Geodesics, a: Cell, b: Cell) -> list[Cell] | None:
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
    never in a layer, where it would leave the grid.
    """
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


def path_length_m(path: list[Cell]) -> float:
    return (len(path) - 1) * FORWARD_M if path else 0.0


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


def _range_cells(max_range_m: float) -> int:
    """Largest whole number of cells along an axis within the range."""
    return int(math.floor(max_range_m / FORWARD_M + _EPS))


@functools.cache
def _rays(max_range_m: float) -> tuple[tuple[Cell, tuple[Cell, ...]], ...]:
    """The one enumeration of rays, built once per process and range: each
    ``(dx, dy)`` offset in range (origin excluded, row-major) with the cells
    strictly inside its supercover ray from the origin, each cell one tuple
    shared by every ray through it. An offset's index here is its index in
    every table derived from it."""
    r = _range_cells(max_range_m)
    window: dict[Cell, Cell] = {}
    return tuple(
        ((dx, dy), tuple(window.setdefault(c, c) for c in supercover_line((0, 0), (dx, dy))[1:-1]))
        for dy in range(-r, r + 1)
        for dx in range(-r, r + 1)
        if (dx or dy) and math.hypot(dx, dy) * FORWARD_M <= max_range_m + _EPS
    )


@functools.cache
def packed_rays(
    max_range_m: float, width: int
) -> tuple[int, tuple[tuple[int, int, int] | None, ...]]:
    """:func:`_rays` in :class:`GridMap`'s layout for grids ``width`` cells
    wide, built once per process: the range ``r`` in cells and a window of
    ``(2r + 1) ** 2`` entries, row-major over ``(dx, dy)`` from ``(-r, -r)``,
    None out of range. An offset in range has ``(i, lo, interior)``: its
    index in :func:`_rays`, the bit of its ray's lowest interior cell
    relative to the observer's (often negative), and the interior cells
    packed relative to ``lo``. From an observer at bit ``here``, a target
    cell of the grid is in line of sight iff
    ``blocked >> (here + lo) & interior == 0``; the ray stays inside the
    two cells' bounding box, so ``here + lo`` is a bit of the grid.
    """
    r = _range_cells(max_range_m)
    side = 2 * r + 1
    stride = width + 1
    window: list[tuple[int, int, int] | None] = [None] * (side * side)
    for i, ((dx, dy), interior) in enumerate(_rays(max_range_m)):
        bits = [y * stride + x for x, y in interior]
        lo = min(bits, default=0)
        window[(dy + r) * side + dx + r] = (i, lo, sum(1 << (bit - lo) for bit in bits))
    return r, tuple(window)


@functools.cache
def fov_bits(max_range_m: float, heading: float, fov_deg: float) -> int:
    """The field of view: bit ``i`` is set iff :func:`_rays`' offset ``i``
    bears within ``fov_deg / 2`` of ``heading``, its bearing taken from the
    observer's cell center to the offset cell's. The one FOV rule, memoized
    per process."""
    half = fov_deg / 2.0 + _EPS
    bits = 0
    for i, ((dx, dy), _) in enumerate(_rays(max_range_m)):
        bearing = math.degrees(math.atan2(dy, dx)) % 360.0
        if abs((bearing - heading + 180.0) % 360.0 - 180.0) <= half:
            bits |= 1 << i
    return bits


def _shift(bits: int, by: int) -> int:
    """``bits`` moved ``by`` places up, or ``-by`` places down."""
    return bits << by if by >= 0 else bits >> -by


def _restride(bits: int, width: int, src: int, dst: int) -> int:
    """A mask of rows ``width`` cells wide packed ``src`` bits apart,
    re-packed ``dst`` bits apart; the identity when the strides agree."""
    if src == dst:
        return bits
    row = (1 << width) - 1
    out = y = 0
    while bits:
        out |= (bits & row) << y * dst
        bits >>= src
        y += 1
    return out


@functools.cache
def _shadow_tables(max_range_m: float, stride: int) -> tuple[int, int, tuple[int, ...]]:
    """:func:`_rays` as packed ints over the sensing window, built once per
    process, range and stride: offset ``(dx, dy)`` is window bit
    ``(dy + r) * stride + dx + r``, so the observer is bit ``r * stride + r``
    and the window is a grid packed ``stride`` bits a row, which must be
    wider than its ``2r + 1`` columns.

    Returns ``(in_range, casters, shadows)``: the offsets in range, the
    window cells strictly inside the ray of some offset, and for each window
    bit the offsets whose ray interior holds that cell (0 for a cell that
    casts no shadow)."""
    r = _range_cells(max_range_m)
    shade: dict[int, int] = {}
    in_range = 0
    for (dx, dy), interior in _rays(max_range_m):
        bit = 1 << (dy + r) * stride + dx + r
        in_range |= bit
        for ex, ey in interior:
            i = (ey + r) * stride + ex + r
            shade[i] = shade.get(i, 0) | bit
    shadows = tuple(shade.get(i, 0) for i in range((2 * r + 1) * stride))
    return in_range, sum(1 << i for i in shade), shadows


@functools.cache
def _fov_window(max_range_m: float, stride: int, heading: float, fov_deg: float) -> int:
    """:func:`fov_bits` over :func:`_shadow_tables`' window."""
    r = _range_cells(max_range_m)
    fov = fov_bits(max_range_m, heading, fov_deg)
    return sum(
        1 << (dy + r) * stride + dx + r
        for i, ((dx, dy), _) in enumerate(_rays(max_range_m))
        if fov >> i & 1
    )


class VisibilityField:
    """Per-cell line of sight within a fixed sensing range, on packed ints.
    :func:`~relaynav.agent.observe` reads :meth:`sensed` for the cells a
    discover-mode belief senses; sightings, and the cells a known-mode
    belief holds wrong, come from :func:`packed_rays` without it.

    The field packs the grid's rows ``stride`` bits apart: the grid's own
    stride when it is wider than the ``2r + 1`` window columns (64-wide
    scenes at the paper's 5 m), else ``2r + 2``, so that the window never
    wraps a row. The shadow tables and FOV masks are shared per process
    (:func:`_shadow_tables`, :func:`_fov_window`); the re-packed grid and
    the visible window per observer cell are the field's own. A field
    belongs to one ``SceneGraph``, so a blockage, which makes a new scene,
    starts cold.
    """

    def __init__(self, grid: GridMap, max_range_m: float):
        self.range_m = max_range_m
        self.range_cells = r = _range_cells(max_range_m)
        self.width, self.height = grid.width, grid.height
        self.stride = max(grid.stride, 2 * r + 2)
        self._in_range, self._casters, self._shadows = _shadow_tables(max_range_m, self.stride)
        self._blocked = _restride(grid.blocked, grid.width, grid.stride, self.stride)
        self._cache: dict[Cell, int] = {}

    def visible_offsets(self, cell: Cell) -> int:
        """The window bits (see :func:`_shadow_tables`) of the offsets
        visible from ``cell`` over 360 deg whose cell lies in the grid. A
        miss lines the observer's window up with the tables, ORs the
        shadows of the blocked casters and complements within range: an
        offset is visible iff no strictly interior cell of its ray is
        blocked, as in :func:`line_of_sight`."""
        cached = self._cache.get(cell)
        if cached is not None:
            return cached
        cx, cy = cell
        r, stride = self.range_cells, self.stride
        hit = _shift(self._blocked, (r - cy) * stride + r - cx) & self._casters
        shadows = self._shadows
        shade = 0
        digits = bin(hit)[:1:-1]  # bit i is digit i
        i = digits.find("1")
        while i >= 0:
            shade |= shadows[i]
            i = digits.find("1", i + 1)
        # the window columns and rows that hold grid cells
        lo, hi = max(0, r - cx), min(2 * r, r - cx + self.width - 1)
        cols = ((1 << (hi - lo + 1)) - 1 << lo) * packed_rect(1, 2 * r + 1, stride)
        rows = (1 << (r - cy + self.height) * stride) - (1 << max(0, r - cy) * stride)
        visible = self._in_range & ~shade & cols & rows
        self._cache[cell] = visible
        return visible

    def sensed(self, cell: Cell, heading: float, fov_deg: float) -> int:
        """The cells seen from ``cell`` facing ``heading`` within the field
        of view, ``cell`` itself included, packed in the grid's layout."""
        cx, cy = cell
        r, grid_stride = self.range_cells, self.width + 1
        seen = self.visible_offsets(cell) & _fov_window(self.range_m, self.stride, heading, fov_deg)
        # window column c is grid column c - r + cx; then row k is grid row k - r + cy
        seen = _restride(_shift(seen, cx - r), self.width, self.stride, grid_stride)
        return _shift(seen, (cy - r) * grid_stride) | 1 << cy * grid_stride + cx


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
    observer = pose.cell
    if observer == target:
        return True
    tx, ty = center(target)
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
        return Pose(pose.x, pose.y, (pose.heading - TURN_DEG) % 360), False
    if action == ACTION_RIGHT:
        return Pose(pose.x, pose.y, (pose.heading + TURN_DEG) % 360), False
    if action == ACTION_STOP:
        return pose, False
    vx, vy = HEADING_VECTORS[pose.heading]
    nx = pose.x + FORWARD_M * vx
    ny = pose.y + FORWARD_M * vy
    dest = cell_of(nx, ny)
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
    grid = scene.grid
    # the regions and objects are the source's own, so its cell index and
    # object list hold for the copy; the visibility fields follow occupancy
    # and start empty
    return replace(
        scene,
        grid=GridMap(grid.width, grid.height, grid.blocked | grid.mask(cor.gate_cells)),
        corridors={**scene.corridors, corridor_id: replace(cor, blocked=True)},
        _vis_fields={},
    )


# --- serialization --------------------------------------------------------

@dataclass(frozen=True)
class SceneMeta(Record):
    """The ``meta`` section of a scene file."""

    format_error = SceneFormatError

    scene_id: str
    seed: int
    resolution: float


@dataclass(frozen=True)
class SceneGrid(Record):
    """The ``grid`` section of a scene file: its blocked cells in order."""

    format_error = SceneFormatError

    width: int
    height: int
    blocked_cells: tuple[Cell, ...]


def scene_to_dict(scene: SceneGraph) -> dict:
    grid = scene.grid
    blocked_cells = tuple(sorted(unpack_cells(grid.blocked, grid.stride)))
    return {
        "meta": SceneMeta(scene.scene_id, scene.seed, FORWARD_M).to_dict(),
        "grid": SceneGrid(grid.width, grid.height, blocked_cells).to_dict(),
        "regions": _entries(scene.regions),
        "objects": _entries(scene.objects),
        "corridors": _entries(scene.corridors),
    }


def _entries(records: dict[str, Record]) -> list[dict]:
    return [records[k].to_dict() for k in sorted(records)]


def _section(data: dict, name: str, cls: type[Record]) -> dict:
    """The entries of section ``name`` read as ``cls`` records and keyed by
    their first field, the id; an id given twice raises SceneFormatError."""
    key = fields(cls)[0].name
    records = {}
    for entry in data[name]:
        record = cls.from_dict(entry)
        rid = getattr(record, key)
        if rid in records:
            raise SceneFormatError(f"{name}: duplicate id {rid!r}")
        records[rid] = record
    return records


def scene_from_dict(data: dict) -> SceneGraph:
    try:
        meta = SceneMeta.from_dict(data["meta"])
        if meta.resolution != FORWARD_M:
            raise SceneFormatError(
                f"resolution {meta.resolution!r} m; every scene has {FORWARD_M} m cells"
            )
        grid = SceneGrid.from_dict(data["grid"])
        width, height = grid.width, grid.height
        if not (0 < width <= MAX_GRID_SIDE and 0 < height <= MAX_GRID_SIDE):
            raise SceneFormatError(f"grid sides must lie in [1, {MAX_GRID_SIDE}] cells")
        for x, y in grid.blocked_cells:
            if not (0 <= x < width and 0 <= y < height):
                raise SceneFormatError(
                    f"blocked cell {[x, y]} lies outside the {width}x{height} grid"
                )
        scene = SceneGraph(
            scene_id=meta.scene_id,
            seed=meta.seed,
            grid=GridMap.of_cells(width, height, grid.blocked_cells),
            regions=_section(data, "regions", Region),
            objects=_section(data, "objects", SceneObject),
            corridors=_section(data, "corridors", Corridor),
        )
        validate_scene(scene)
    except SceneFormatError:
        raise
    except (KeyError, TypeError, IndexError, ValueError, OverflowError) as exc:
        # a value of the wrong type or shape, which validate_scene may meet too
        raise SceneFormatError(f"malformed scene file: {exc!r}") from None
    return scene


def save_scene(scene: SceneGraph, path) -> None:
    """Write ``scene`` as indented canonical JSON (``canonical_dumps``
    with ``indent=2``): the bytes of ``json.dumps(scene_to_dict(scene),
    sort_keys=True, indent=2)`` plus a newline, its cells written from one
    template per cell."""
    write_canonical(path, scene_to_dict(scene), indent=2)


def load_scene(path) -> SceneGraph:
    """The scene in ``path``; a malformed file raises SceneFormatError naming it.

    The cell lists are decoded in bulk (the record codec checks all items
    at once and names the first refused one only when the check fails),
    and :func:`validate_scene` packs each region once."""
    data = read_json(path, SceneFormatError)
    try:
        return scene_from_dict(data)
    except SceneFormatError as exc:
        raise SceneFormatError(f"{path}: {exc}") from None
