"""Scenario builders shared by the replanning, agent, and acceptance tests."""

from __future__ import annotations

import json

import numpy as np
from hypothesis import strategies as st

from relaynav.replan import SwapInputs
from relaynav.scenegen import generate_scene
from relaynav.tasks import build_chains
from relaynav.world import (
    PROVENANCE_GENERATOR,
    Corridor,
    Geodesics,
    GridMap,
    Pose,
    Region,
    SceneGraph,
    SceneObject,
    apply_blockage,
)

_SCENES: dict[int, object] = {}


def _base_scene(idx: int):
    if idx not in _SCENES:
        _SCENES[idx] = generate_scene(100 + idx)
    return _SCENES[idx]


def random_swap_config(seed: int, n_scenes: int = 4):
    """A random two-robot reassignment scenario with belief == truth.

    Draws a scene (sometimes with a corridor blocked, so unreachable legs
    occur), random free-cell positions and relay waypoints, random chain
    truncations, and a random carried/at-rest item flag. Returns
    ``(scene, SwapInputs)`` whose per-robot geodesics run over the scene's
    true free space.
    """
    rng = np.random.default_rng(seed)
    scene = _base_scene(int(rng.integers(n_scenes)))
    if rng.random() < 0.5 and scene.corridors:
        cid = sorted(scene.corridors)[int(rng.integers(len(scene.corridors)))]
        scene = apply_blockage(scene, cid)
    free = np.argwhere(~scene.grid.blocked)

    def pick():
        y, x = free[int(rng.integers(len(free)))]
        return (int(x), int(y))

    full = build_chains(pick(), pick(), pick())
    chains = {
        "FH": full["FH"][int(rng.integers(len(full["FH"]))):],
        "SH": full["SH"][int(rng.integers(len(full["SH"]))):],
    }
    inputs = SwapInputs(
        geodesics={r: Geodesics(~scene.grid.blocked) for r in chains},
        positions={"FH": pick(), "SH": pick()},
        chains=chains,
        item_static=bool(rng.integers(2)),
        resolution=scene.grid.resolution,
    )
    return scene, inputs


def lab_scene(blocked, objects=(), resolution=0.25, scene_id="lab", gates=()):
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
    corridors = {"c0": Corridor("c0", frozenset(gates), ("r0", "r0"))} if gates else {}
    grid = GridMap(w, h, resolution, blocked)
    return SceneGraph(scene_id, 0, grid, {"r0": region}, objs, corridors)


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


def center_pose(cell, heading=0, resolution=0.25):
    return Pose((cell[0] + 0.5) * resolution, (cell[1] + 0.5) * resolution, heading)


_JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8)
)
_JSON_VALUES = st.recursive(
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
        _JSON_VALUES.filter(lambda v: not isinstance(v, dict)).map(lambda v: (json.dumps(v), True)),
        st.dictionaries(st.text(max_size=6), _JSON_VALUES, max_size=4).map(
            lambda d: (json.dumps(d), False)
        ),
        st.sets(st.sampled_from(sorted(valid)), min_size=1).map(
            lambda drop: (json.dumps({k: v for k, v in valid.items() if k not in drop}), False)
        ),
    )
