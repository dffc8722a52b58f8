"""Procedural scene generation: determinism, structure, labels."""

from __future__ import annotations

import numpy as np
import pytest

from relaynav import scenegen
from relaynav.scenegen import generate_scene
from relaynav.world import (
    PROVENANCE_GENERATOR,
    ROOM_LABELS,
    SceneFormatError,
    SceneGenerationError,
    scene_to_dict,
    validate_scene,
)

from support import blocked_array


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
    assert len(scene.regions) >= 4
    assert len(scene.corridors) >= 3
    assert len(scene.objects) >= len(scene.regions)  # at least one per room


@pytest.mark.parametrize("seed", [3, 40])
def test_layout_constants_realize_the_recipe(seed):
    # what SceneParams.validate once checked, met by the constants themselves
    scene = generate_scene(seed)
    regions = scene.regions.values()
    assert len(regions) == scenegen.ROOM_ROWS * scenegen.ROOM_COLS
    assert set(scenegen.REQUIRED_ROOMS) <= {r.room_label for r in regions}
    for region in regions:
        xs, ys = zip(*region.cells)
        assert min(max(xs) - min(xs), max(ys) - min(ys)) + 1 >= 5
    portables = [o for o in scene.objects.values() if o.category in scenegen.PORTABLE_CATEGORIES]
    assert len(portables) == scenegen.N_PORTABLES


def test_free_space_connected():
    scene = generate_scene(21)
    free = ~blocked_array(scene.grid)
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



def test_a_draw_that_fails_validation_names_the_seed(monkeypatch):
    def reject(scene):
        raise SceneFormatError("free space is not a single connected component")

    monkeypatch.setattr(scenegen, "validate_scene", reject)
    with pytest.raises(SceneGenerationError, match=r"seed=41\b.*connected component"):
        generate_scene(41)
