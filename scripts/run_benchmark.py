#!/usr/bin/env python3
r"""End-to-end benchmark pipeline driven through the command-line tool.

Generates scenes and episodes, rolls them out under both coordination
policies, evaluates each run, and prints the metric comparison.  Every
stage goes through the same `relaynav` subcommands a user would type, so
the script doubles as a living example of the CLI contract.

Example:
    python scripts/run_benchmark.py --workdir runs/bench --scenes 6 \
        --episodes-per-scene 3 --seed 11
    python scripts/run_benchmark.py --workdir runs/discover --knowledge discover \
        --t-max 3000
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from relaynav.cli import main as cli
from relaynav.config import KNOWLEDGE, MODES


def run(args: list[str]) -> None:
    code = cli([str(a) for a in args])
    if code != 0:
        raise SystemExit(f"step failed ({code}): {' '.join(str(a) for a in args)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", type=Path, default=Path("runs/bench"))
    parser.add_argument("--scenes", type=int, default=6)
    parser.add_argument("--episodes-per-scene", type=int, default=3)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--mode", choices=MODES, default="lockstep")
    parser.add_argument(
        "--knowledge", choices=KNOWLEDGE, default=None,
        help="map knowledge for both runs (default: the run config's)",
    )
    parser.add_argument(
        "--t-max", type=int, default=None, help="tick budget for both runs"
    )
    args = parser.parse_args(argv)

    wd = args.workdir
    scenes = wd / "scenes"
    episodes = wd / "episodes.jsonl"

    run(["gen-scenes", "--out", scenes, "--count", args.scenes, "--seed", args.seed])
    run(
        [
            "gen-episodes",
            "--scenes",
            scenes,
            "--out",
            episodes,
            "--per-scene",
            args.episodes_per_scene,
            "--seed",
            args.seed,
        ]
    )
    run(["stats", "--episodes", episodes])

    for policy in ("deconav", "static"):
        out = wd / f"run_{policy}"
        cmd = [
            "run",
            "--scenes",
            scenes,
            "--episodes",
            episodes,
            "--out",
            out,
            "--policy",
            policy,
            "--seed",
            args.seed,
            "--jobs",
            args.jobs,
            "--mode",
            args.mode,
        ]
        if args.knowledge is not None:
            cmd += ["--knowledge", args.knowledge]
        if args.t_max is not None:
            cmd += ["--t-max", args.t_max]
        run(cmd)
        run(["eval", "--results", out])

    run(["compare", "--a", wd / "run_static", "--b", wd / "run_deconav"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
