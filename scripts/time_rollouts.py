#!/usr/bin/env python3
"""Wall-time sanity check: per-episode rollout latency on 64x64 scenes.

Rolls each of a batch of seeded episodes out once, each on its own scene
(with ``--knowledge discover``, so its visibility cache starts cold; a known
map builds none), and prints per-episode wall time and ticks/s, then the
mean, the maximum and the overall ticks/s. The engine's budget is one
second per episode; the exit status is 1 when an episode exceeds it.

Example:
    python scripts/time_rollouts.py --episodes 20 --seed 3 --knowledge discover
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

from relaynav.config import KNOWLEDGE, POLICIES, RolloutConfig
from relaynav.engine import run_lockstep
from relaynav.episodes import EpisodeSpec, generate_episode
from relaynav.scenegen import generate_scene
from relaynav.seeds import derive_seed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--episodes", type=int, default=20)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--knowledge", choices=KNOWLEDGE, default="known")
    parser.add_argument("--policy", choices=POLICIES, default="deconav")
    args = parser.parse_args(argv)

    cfg = RolloutConfig(knowledge=args.knowledge, policy=args.policy)
    pairs = []
    draw = 0
    while len(pairs) < args.episodes and draw < args.episodes * 10:
        scene = generate_scene(derive_seed(args.seed, "scene", draw))
        episode = generate_episode(scene, derive_seed(args.seed, "episode", draw))
        draw += 1
        if isinstance(episode, EpisodeSpec):
            pairs.append((scene, episode))
    if len(pairs) < args.episodes:
        print(f"only {len(pairs)} episodes found", file=sys.stderr)
        return 1

    timings = []
    ticks = 0
    for scene, episode in pairs:
        t0 = time.perf_counter()
        result, _ = run_lockstep(scene, episode, cfg)
        dt = time.perf_counter() - t0
        timings.append(dt)
        ticks += result.ticks
        print(
            f"{episode.episode_id}  {dt * 1000:7.1f} ms  ticks={result.ticks:4d}  "
            f"{result.ticks / dt:7.0f} ticks/s  both_success={result.both_success}"
        )

    print(
        f"\nn={len(timings)}  mean={statistics.mean(timings) * 1000:.1f} ms  "
        f"max={max(timings) * 1000:.1f} ms  {ticks / sum(timings):.0f} ticks/s  "
        f"budget=1000 ms"
    )
    return 0 if max(timings) < 1.0 else 1


if __name__ == "__main__":
    sys.exit(main())
