#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and report each metric's spread.

Each run is a fresh process of ``perfbench/run.py``. For every metric the
script prints the median, the quartiles and the quartile spread as a share
of the median; for end-to-end metrics it compares the spread with the
metric's bound in BENCHMARK.json.

    python3 perfbench/repeat.py --workload known-run --seeds 1-10 --seconds 20
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(q1, median, q3, (q3 - q1) / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}): {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: run_seconds from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    seeds = parse_seeds(args.seeds)
    ok = True
    summary: dict = {}
    for workload in args.workload:
        runs = []
        for seed in seeds:
            out = run_once(workload, seed, seconds, args.trace)
            runs.append(out)
            print(f"{workload} seed={seed} correct={out['correct']} "
                  f"failed={out['failed']}/{out['attempted']}", flush=True)
            ok &= out["correct"]
        summary[workload] = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            if len(values) < 2:
                continue
            q1, med, q3, share = spread(values)
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = "ok" if share <= bound / 3 else ("within bound" if share <= bound else "TOO WIDE")
                ok &= share <= bound
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3, "spread": share}
            print(f"  {name:<44} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {share:7.3f}  {verdict}")
    out_dir = ROOT / ".perfbench_results"
    out_dir.mkdir(exist_ok=True)
    stem = "-".join(args.workload) + f"-seeds{args.seeds}-trace{args.trace}"
    (out_dir / f"repeat-{stem}.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
