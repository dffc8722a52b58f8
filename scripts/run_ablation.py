#!/usr/bin/env python3
"""Blockage ablation: event-triggered subtask swapping vs. a static split.

Builds a suite of relay episodes that each get one corridor closed mid-run
on the first-hand robot's ground-truth route, rolls every episode out under
both coordination policies, and reports the directional comparison: both-
success rate overall and on the swap-fired sub-suite, plus how often the
swapping policy finishes with less combined travel.

Example:
    python scripts/run_ablation.py --episodes 200 --seed 0 --out runs/ablation
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from relaynav.ablation import (
    SuiteParams,
    ablation_report,
    build_blockage_suite,
    run_suite,
)
from relaynav.cli import save_scenes
from relaynav.episodes import save_episodes
from relaynav.serialize import write_canonical, write_jsonl


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--episodes", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--out", type=Path, default=None, help="directory for suite + result artifacts"
    )
    args = parser.parse_args(argv)

    t0 = time.time()
    suite = build_blockage_suite(SuiteParams(n_episodes=args.episodes, seed=args.seed))
    print(
        f"suite: {len(suite.entries)} episodes over {len(suite.scenes)} scenes "
        f"({time.time() - t0:.1f}s)"
    )

    results = {}
    for policy in ("deconav", "static"):
        t1 = time.time()
        results[policy] = run_suite(suite, policy)
        print(f"{policy}: {len(results[policy])} rollouts ({time.time() - t1:.1f}s)")

    report = ablation_report(results["deconav"], results["static"])
    print()
    print(f"episodes                 {report['n_episodes']}")
    print(f"swap fired               {report['n_swap_fired']}")
    print(f"BSR deconav / static     {report['bsr_deconav']:.3f} / {report['bsr_static']:.3f}")
    print(
        "BSR swap-fired d / s     "
        f"{report['bsr_deconav_swap_fired']:.3f} / {report['bsr_static_swap_fired']:.3f}"
    )
    print(
        f"path lower (swap-fired)  {report['path_lower_count']}/{report['n_swap_fired']} "
        f"= {report['path_lower_fraction']:.3f}"
    )
    for name, ok in report["criteria"].items():
        print(f"  {'PASS' if ok else 'FAIL'}  {name}")

    if args.out is not None:
        out = args.out
        (out / "scenes").mkdir(parents=True, exist_ok=True)
        save_scenes(suite.scenes.values(), out / "scenes")
        save_episodes([e.episode for e in suite.entries], out / "episodes.jsonl")
        write_canonical(out / "overrides.json", suite.overrides(), indent=2)
        write_canonical(
            out / "suite.json",
            {
                "params": {
                    "n_episodes": suite.params.n_episodes,
                    "seed": suite.params.seed,
                },
                "entries": [
                    {
                        "episode_id": e.episode.episode_id,
                        "scene_id": e.episode.scene_id,
                        "plan": e.plan.to_dict(),
                        "t_max": e.t_max,
                        "unblocked_ticks": e.unblocked_ticks,
                    }
                    for e in suite.entries
                ],
            },
            indent=2,
        )
        for policy in ("deconav", "static"):
            write_jsonl(
                out / f"results_{policy}.jsonl",
                [results[policy][eid].to_dict() for eid in sorted(results[policy])],
            )
        write_canonical(out / "report.json", report, indent=2)
        print(f"\nartifacts -> {out}")

    return 0 if all(report["criteria"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
