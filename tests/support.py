"""Scenario builders shared by the replanning, agent, and acceptance tests."""

from __future__ import annotations

import numpy as np

from relaynav.replan import SwapInputs
from relaynav.scenegen import generate_scene
from relaynav.tasks import build_chains
from relaynav.world import (
    PROVENANCE_GENERATOR,
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
    ``(scene, SwapInputs)`` where the per-robot traversability is the scene's
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
        passable={r: ~scene.grid.blocked for r in chains},
        positions={"FH": pick(), "SH": pick()},
        chains=chains,
        item_static=bool(rng.integers(2)),
        resolution=scene.grid.resolution,
    )
    return scene, inputs


def lab_scene(blocked, objects=(), resolution=0.25, scene_id="lab"):
    """Hand-built single-region scene from an explicit occupancy array.

    ``objects`` is an iterable of (object_id, category, cell). All free cells
    form one Kitchen region; corridors are absent.
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
    grid = GridMap(w, h, resolution, blocked)
    return SceneGraph(scene_id, 0, grid, {"r0": region}, objs, {})


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
