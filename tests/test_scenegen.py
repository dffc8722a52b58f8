"""Procedural scene generation: determinism, structure, labels."""

from __future__ import annotations

import numpy as np
import pytest

from relaynav.config import SceneParams
from relaynav.scenegen import generate_scene
from relaynav.world import (
    PROVENANCE_GENERATOR,
    ROOM_LABELS,
    scene_to_dict,
    validate_scene,
)


def test_same_seed_same_scene_bytes():
    a = scene_to_dict(generate_scene(17))
    b = scene_to_dict(generate_scene(17))
    assert a == b


def test_different_seeds_differ():
    a = scene_to_dict(generate_scene(1))
    b = scene_to_dict(generate_scene(2))
    assert a != b


def test_structure_and_size():
    scene = generate_scene(9)
    validate_scene(scene)
    assert scene.grid.width == 64 and scene.grid.height == 64
    assert scene.grid.resolution == 0.25
    assert len(scene.regions) >= 4
    assert len(scene.corridors) >= 3
    assert len(scene.objects) >= len(scene.regions)  # at least one per room


def test_free_space_connected():
    scene = generate_scene(21)
    free = ~scene.grid.blocked
    # flood fill from any free cell must cover all free cells
    ys, xs = np.nonzero(free)
    seen = np.zeros_like(free)
    stack = [(int(xs[0]), int(ys[0]))]
    seen[ys[0], xs[0]] = True
    while stack:
        x, y = stack.pop()
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nx, ny = x + dx, y + dy
            if free[ny, nx] and not seen[ny, nx]:
                seen[ny, nx] = True
                stack.append((nx, ny))
    assert (seen == free).all()


def test_generator_labels_are_ground_truth():
    scene = generate_scene(33)
    for region in scene.regions.values():
        assert region.room_label == region.gt_room_label
        assert region.room_label in ROOM_LABELS
        assert region.label_provenance == PROVENANCE_GENERATOR


def test_corridor_gates_are_free_and_join_real_regions():
    scene = generate_scene(12)
    for cor in scene.corridors.values():
        assert not cor.blocked
        for cell in cor.gate_cells:
            assert not scene.grid.is_blocked(cell)
        for rid in cor.joins:
            assert rid in scene.regions


def test_objects_sit_on_free_cells_inside_their_region():
    scene = generate_scene(27)
    for obj in scene.objects.values():
        assert not scene.grid.is_blocked(obj.cell)
        assert obj.cell in scene.regions[obj.region_id].cells


def test_non_default_resolution_rejected_by_name():
    # robots step 0.25 m per forward move, one cell only at this resolution
    with pytest.raises(ValueError, match="resolution"):
        SceneParams(resolution=0.5).validate()
    with pytest.raises(ValueError, match="resolution"):
        generate_scene(1, SceneParams(resolution=0.5))
