"""Shared fixtures: procedurally generated scenes and accepted episodes."""

from __future__ import annotations

import pytest

from relaynav.ablation import SuiteParams, build_blockage_suite
from relaynav.config import RolloutConfig
from relaynav.episodes import EpisodeSpec, generate_episode
from relaynav.scenegen import generate_scene
from relaynav.seeds import derive_seed


def episode_batch(count: int, seed: int = 3) -> list[tuple]:
    """First ``count`` (scene, episode) pairs accepted by the verifier."""
    pairs = []
    draw = 0
    while len(pairs) < count and draw < count * 15 + 30:
        scene = generate_scene(derive_seed(seed, "scene", draw))
        episode = generate_episode(scene, derive_seed(seed, "episode", draw))
        draw += 1
        if isinstance(episode, EpisodeSpec):
            pairs.append((scene, episode))
    if len(pairs) < count:
        raise RuntimeError(f"only {len(pairs)} of {count} episodes accepted")
    return pairs


@pytest.fixture(scope="session")
def scene():
    return generate_scene(5)


@pytest.fixture(scope="session")
def scene_episode():
    return episode_batch(1, seed=5)[0]


@pytest.fixture(scope="session")
def batch10():
    return episode_batch(10, seed=3)


@pytest.fixture(scope="session")
def blockage_run():
    """(scene, episode, config) of a one-entry blockage suite: the corridor
    closes at the entry's tick, and deconav swaps."""
    suite = build_blockage_suite(SuiteParams(n_episodes=1, seed=42))
    entry = suite.entries[0]
    cfg = RolloutConfig(
        t_max=entry.t_max, blockage_schedule=((entry.plan.tick, entry.plan.corridor_id),)
    )
    return suite.scenes[entry.episode.scene_id], entry.episode, cfg
