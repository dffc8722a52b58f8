#!/usr/bin/env python3
"""relaynav benchmark: three workloads through the package's public entry points.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload known-run --seed 0 --seconds 25 --trace 0

Set-up produces the workload's input sets, each one timed on its own (for
the ablation, it builds each set's blockage suite). The run then makes
whole cycles (one pass over every input set), as many as best fill
``--seconds`` and at least two (one when traced). After every cycle the
set-up of one input set, taken in turn, is repeated and timed again, so
the set-up samples spread over the whole run. After every untraced
rollout a fixed reference computation is timed; the bounded times are
scaled by it to the machine's full speed. Every pass's outputs are
digested and checked against the pinned goldens in ``goldens.json`` or, for
a seed without goldens, against the first pass over the same inputs.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``. The lines before it
print every metric the benchmark measures with its unit and quartiles, the
digests and the environment; the same record is written to
``.perfbench_results/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDENS = HERE / "goldens.json"
RESULTS_DIR = ROOT / ".perfbench_results"
WORK_DIR = ROOT / ".perfbench_work"

DEFAULT_SEED = 0
HELD_OUT_SEED = 1  # pinned too; confirms a claim on a seed not used to make it

# The end-to-end metrics BENCHMARK.json bounds: normalised by work, and the
# times scaled to the machine's full speed (see reference_seconds), so their
# spread across seeds stays inside the bound.
END_TO_END = {"setup_s": "s", "ticks_per_s": "ticks/s", "peak_rss_mb": "MB"}
# Printed and recorded on every run, not bounded: at the input sizes a run
# can afford they move with the seed's mix of episodes, or with the speed of
# a shared machine, more than the bound.
REPORTED = {
    "raw_setup_s": "s",
    "raw_ticks_per_s": "ticks/s",
    "reference_ms": "ms",
    "wall_s": "s",
    "episodes_per_s": "1/s",
    "episode_ms_p50": "ms",
    "episode_ms_tail": "ms",
    "bsr": "fraction",
    "failed_frac": "fraction",
}
TAIL_PERCENTILES = (99, 95, 90, 80, 75)
# reference_seconds() at the fastest a shared 2-core Intel Xeon machine ran
# it (Python 3.11, NumPy 2.4): the speed setup_s and ticks_per_s are scaled to
REFERENCE_S = 0.03


class BenchError(RuntimeError):
    pass


def _load_relaynav():
    """Import relaynav from this checkout's ``src`` and nowhere else."""
    if not (SRC / "relaynav" / "__init__.py").is_file():
        raise BenchError(f"no relaynav sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import relaynav
    import relaynav.cli  # noqa: F401  (loads every module the workloads reach)

    if Path(relaynav.__file__).resolve().parent != (SRC / "relaynav").resolve():
        raise BenchError(f"relaynav imported from {relaynav.__file__}, not {SRC}")
    return relaynav


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def tail(values: list[float]) -> tuple[int, float]:
    """The highest percentile with at least ten samples beyond it, and its value.

    Falls back to the median when there are fewer than 40 samples.
    """
    n = len(values)
    pct = next((p for p in TAIL_PERCENTILES if n * (100 - p) / 100 >= 10), 50)
    if n == 1:
        return pct, values[0]
    return pct, statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


# --- machine speed --------------------------------------------------------------


def reference_seconds() -> float:
    """Time one fixed computation: a sample of how fast the machine runs now.

    A shared machine slows a whole run down by up to a half, for tens of
    seconds at a time, so raw throughput spreads over runs by more than any
    useful bound. The computation mixes interpreted loops over ints and a
    dict with small NumPy operations, as a rollout does, so its time moves
    with a rollout's: over six minutes of ablation passes on a shared 2-core
    machine, a pass's ticks/s and the inverse of this time correlated at
    0.7, and 15 s windows' ticks/s spread 0.09 raw and 0.04 calibrated.
    """
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(120_000):
        acc += (i * 7) % 13
        table[i & 1023] = acc
    grid = np.arange(400.0).reshape(20, 20)
    for _ in range(3_000):
        grid = np.sqrt(grid * grid + 1.0)
        acc += int(grid[grid > 3.0].sum())
    return time.perf_counter() - t0


# --- per-episode timing ---------------------------------------------------------


@dataclass
class EpisodeSample:
    seconds: float
    ticks: int


@contextlib.contextmanager
def episode_timer(
    module, attr: str, samples: list[EpisodeSample], reference_times: list[float] | None
):
    """Time each call of ``module.attr`` (one episode rollout) from outside.

    The wrapped function returns ``(RolloutResult, Trace)``. This is the one
    timer an untraced run installs: one clock pair per episode. Given
    ``reference_times``, it also runs ``reference_seconds()`` after every
    rollout and appends its time there, so the machine's speed is sampled
    all through the passes. It yields a one-item list holding the wall time
    those samples took, which the caller leaves out of its own timings.
    """
    original = getattr(module, attr)
    paused = [0.0]

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        out = original(*args, **kwargs)
        t1 = time.perf_counter()
        samples.append(EpisodeSample(t1 - t0, out[0].ticks))
        if reference_times is not None:
            reference_times.append(reference_seconds())
            paused[0] += time.perf_counter() - t1
        return out

    setattr(module, attr, timed)
    try:
        yield paused
    finally:
        setattr(module, attr, original)


# --- workloads ------------------------------------------------------------------


@dataclass
class PassResult:
    seconds: float  # the whole pass
    rollout_s: float  # the command that rolls episodes out: do_run, or run_suite x2
    ticks: int  # simulated ticks of that command's rollouts
    samples: list[EpisodeSample]  # every rollout call in the pass
    digests: dict  # what the goldens pin for this input set
    units: int  # episodes (run workloads) or suite entries (ablation)
    both_success: list[bool]
    problems: list[str] = field(default_factory=list)
    failed_units: int = 0


def _cli_command(args: list[str]) -> list[str]:
    # the same entry point as the `relaynav` console script
    return [
        sys.executable,
        "-c",
        "import sys; from relaynav.cli import main; sys.exit(main(sys.argv[1:]))",
        *args,
    ]


def _fresh_process(cmd: list[str]) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise BenchError(f"set-up step failed ({proc.returncode}): {proc.stderr.strip()}")


def set_seed(seed: int, k: int) -> int:
    """relaynav seed of input set ``k`` of benchmark seed ``seed``."""
    return seed * 1000 + k


def tree_digest(root: Path) -> str:
    """sha256 over the relative paths and bytes of every file under ``root``."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


@dataclass(frozen=True)
class RunWorkload:
    """``relaynav gen-scenes`` + ``gen-episodes`` (set-up), then ``do_run``."""

    name: str
    why: str
    scenes: int  # per input set
    per_scene: int
    sets: int
    rollout: dict  # `relaynav run` flags, as resolve_run_config takes them
    transport: dict

    def set_up(self, rn, seed: int, k: int, dest: Path) -> None:
        s = str(set_seed(seed, k))
        _fresh_process(_cli_command(
            ["gen-scenes", "--count", str(self.scenes), "--seed", s, "--out", str(dest / "scenes")]
        ))
        _fresh_process(_cli_command(
            ["gen-episodes", "--scenes", str(dest / "scenes"), "--per-scene",
             str(self.per_scene), "--seed", s, "--out", str(dest / "episodes.jsonl")]
        ))

    def run_pass(
        self, rn, seed: int, k: int, inp: Path, in_process_setup: bool, prepared=None,
        reference_times: list[float] | None = None,
    ) -> PassResult:
        cli = rn.cli
        rollout, transport = cli.resolve_run_config({}, dict(self.rollout), dict(self.transport))
        samples: list[EpisodeSample] = []
        src, out = inp, inp / "out"
        t0 = time.perf_counter()
        with episode_timer(cli, "rollout_episode", samples, reference_times) as paused:
            if in_process_setup:
                # traced passes also generate the inputs in-process so the
                # set-up layers (scenegen, episodes, gates) are measured
                src = inp / "regen"
                shutil.rmtree(src, ignore_errors=True)
                cli.do_gen_scenes(self.scenes, set_seed(seed, k), src / "scenes")
                cli.do_gen_episodes(
                    src / "scenes", self.per_scene, set_seed(seed, k), src / "episodes.jsonl"
                )
            t1, p1 = time.perf_counter(), paused[0]
            manifest = cli.do_run(
                src / "episodes.jsonl", src / "scenes", out, rollout, transport, jobs=1
            )
        t2 = time.perf_counter()
        return self._check(
            rn, manifest, out, t2 - t0 - paused[0], t2 - t1 - (paused[0] - p1), samples
        )

    def _check(self, rn, manifest, out: Path, seconds, rollout_s, samples) -> PassResult:
        results_bytes = (out / rn.cli.RESULTS_NAME).read_bytes()
        rows = [json.loads(line) for line in results_bytes.decode().splitlines()]
        traces = {}
        problems = []
        for row in rows:
            name = f"trace_{row['episode_id']}.jsonl"
            data = (out / name).read_bytes()
            traces[name] = sha256(data)
            last = json.loads(data.decode().rstrip("\n").rsplit("\n", 1)[-1])
            if last.pop("kind", None) != "result" or last != row:
                problems.append(f"{name}: result line differs from results.jsonl")
        digests = {"results.jsonl": sha256(results_bytes), "traces": traces}
        for fname, rec in manifest.outputs.items():
            want = digests["results.jsonl"] if fname == rn.cli.RESULTS_NAME else traces.get(fname)
            if rec["sha256"] != want:
                problems.append(f"{fname}: manifest digest differs from the file")
        if len(samples) != len(rows):
            problems.append(f"{len(samples)} rollouts timed for {len(rows)} results")
        return PassResult(
            seconds, rollout_s, sum(int(r["ticks"]) for r in rows), samples, digests, len(rows),
            [bool(r["both_success"]) for r in rows], problems,
            failed_units=len(rows) if problems else 0,
        )

    def units(self, reference: dict | None) -> int:
        return len(reference["traces"]) if reference else 1

    def compare(self, got: dict, want: dict) -> int:
        """Episodes whose trace digest differs from ``want`` (all if results differ)."""
        bad = sum(1 for name, sha in want["traces"].items() if got["traces"].get(name) != sha)
        bad += len(set(got["traces"]) - set(want["traces"]))
        if bad == 0 and got["results.jsonl"] != want["results.jsonl"]:
            bad = len(want["traces"])
        return bad


@dataclass(frozen=True)
class AblationWorkload:
    """``build_blockage_suite`` (set-up), then ``run_suite`` for deconav and static.

    The build draws a seed-dependent, geometric number of candidate episodes
    (0.5 to 12 s per suite entry on a shared 2-core machine); inside every
    pass it would leave a quarter of a run for the rollouts that
    ``ticks_per_s`` measures. So the build is the set-up, as producing the
    inputs is for the run workloads, and every pass rolls out a fresh copy
    of the built suite, so every pass starts from the state right after the
    build. A traced pass still builds its suite itself.
    """

    name: str
    why: str
    n_episodes: int  # suite entries per input set
    sets: int

    def set_up(self, rn, seed: int, k: int, dest: Path):
        """What a user pays before the rollouts: a fresh interpreter importing
        the package, and the suite built and written as
        ``scripts/run_ablation.py --out`` writes its episodes and overrides."""
        _fresh_process([sys.executable, "-c", "import relaynav.ablation"])
        suite = self.build(rn, seed, k)
        dest.mkdir(parents=True)
        rn.episodes.save_episodes([e.episode for e in suite.entries], dest / "episodes.jsonl")
        rn.serialize.write_canonical(dest / "overrides.json", suite.overrides(), indent=2)
        return suite

    def build(self, rn, seed: int, k: int):
        ab = rn.ablation
        return ab.build_blockage_suite(
            ab.SuiteParams(n_episodes=self.n_episodes, seed=set_seed(seed, k))
        )

    def run_pass(
        self, rn, seed: int, k: int, inp: Path, in_process_setup: bool, prepared=None,
        reference_times: list[float] | None = None,
    ) -> PassResult:
        ab = rn.ablation
        samples: list[EpisodeSample] = []
        suite = None if in_process_setup else copy.deepcopy(prepared)
        t0 = time.perf_counter()
        with episode_timer(ab, "run_lockstep", samples, reference_times) as paused:
            if suite is None:
                suite = self.build(rn, seed, k)
            t1, p1 = time.perf_counter(), paused[0]
            deconav = ab.run_suite(suite, "deconav")
            static = ab.run_suite(suite, "static")
            t2, p2 = time.perf_counter(), paused[0]
            report = ab.ablation_report(deconav, static)
        seconds = time.perf_counter() - t0 - paused[0]
        dumps = rn.serialize.canonical_dumps

        def results_bytes(results) -> bytes:
            return "".join(dumps(results[e].to_dict()) + "\n" for e in sorted(results)).encode()

        digests = {
            "results_deconav.jsonl": sha256(results_bytes(deconav)),
            "results_static.jsonl": sha256(results_bytes(static)),
            "report.json": sha256(dumps(report).encode()),
        }
        ids = {e.episode.episode_id for e in suite.entries}
        problems = []
        if len(suite.entries) != self.n_episodes or set(deconav) != ids or set(static) != ids:
            problems.append("suite entries and rollout results disagree")
        if report["n_episodes"] != len(ids):
            problems.append("report counts a different number of episodes")
        ticks = sum(r.ticks for res in (deconav, static) for r in res.values())
        return PassResult(
            seconds, t2 - t1 - (p2 - p1), ticks, samples, digests, len(suite.entries),
            [deconav[e].both_success for e in sorted(deconav)], problems,
            failed_units=len(suite.entries) if problems else 0,
        )

    def units(self, reference: dict | None) -> int:
        return self.n_episodes

    def compare(self, got: dict, want: dict) -> int:
        return self.n_episodes if got != want else 0


WORKLOADS = {
    w.name: w
    for w in (
        RunWorkload(
            name="known-run",
            why=(
                "the paper's main evaluation path: known map, deconav, lockstep; "
                "sensing dominates and visibility caches start cold per scene"
            ),
            scenes=3,
            per_scene=3,
            sets=3,
            rollout={"knowledge": "known", "policy": "deconav", "mode": "lockstep"},
            transport={},
        ),
        RunWorkload(
            name="known-lossy",
            why=(
                "known map over a lossy, delayed transport: per-robot replica buses, "
                "Transport.send/due and stale partner packets on the main path"
            ),
            scenes=3,
            per_scene=3,
            sets=3,
            rollout={"knowledge": "known", "policy": "deconav", "mode": "distributed"},
            transport={"latency": 3, "jitter": 2, "drop_prob": 0.2},
        ),
        RunWorkload(
            name="discover-lossy",
            why=(
                "discover mode over a lossy, delayed transport: frontier planning, "
                "event filtering over growing histories, transport and replica buses"
            ),
            scenes=2,
            per_scene=2,
            sets=4,
            rollout={
                "knowledge": "discover",
                "policy": "deconav",
                "mode": "distributed",
                "t_max": 1000,
            },
            transport={"latency": 3, "jitter": 2, "drop_prob": 0.2},
        ),
        AblationWorkload(
            name="blockage-ablation",
            why=(
                "both policies over blockage suites built at set-up: every scheduled blockage "
                "rebuilds the scene and drops visibility caches; setup_s times the "
                "geodesic-heavy build"
            ),
            n_episodes=1,
            sets=7,
        ),
    )
}


# --- goldens --------------------------------------------------------------------


def load_goldens() -> dict:
    if not GOLDENS.is_file():
        return {}
    return json.loads(GOLDENS.read_text(encoding="utf-8"))


def pin_goldens(workload: str, seed: int, digests: list[dict]) -> None:
    data = load_goldens()
    data.setdefault(workload, {})[str(seed)] = {f"set{k}": d for k, d in enumerate(digests)}
    GOLDENS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


# --- environment ----------------------------------------------------------------


def environment() -> dict:
    sha = "unknown"  # a checkout without git metadata
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    import numpy

    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


# --- the run --------------------------------------------------------------------


@dataclass
class Measurement:
    setup_times: list[float] = field(default_factory=list)
    reference_times: list[float] = field(default_factory=list)  # after untraced rollouts
    passes: list[list[PassResult]] = field(default_factory=list)  # untraced, per cycle
    traced_passes: list[list[PassResult]] = field(default_factory=list)
    layer_cycles: list[dict] = field(default_factory=list)  # per-layer metrics per cycle
    spans: list = field(default_factory=list)  # of the last traced cycle
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    reference: list[dict | None] = field(default_factory=list)  # digests per input set
    pinned: bool = False


def measure(
    rn, workload, seed: int, seconds: float, trace: bool, work: Path, use_goldens: bool
) -> Measurement:
    m = Measurement()

    prepared: dict[int, object] = {}  # what a set-up hands the passes (the ablation's suites)

    def set_up(k: int, dest: Path) -> str:
        shutil.rmtree(dest, ignore_errors=True)
        t0 = time.perf_counter()
        prepared[k] = workload.set_up(rn, seed, k, dest)
        m.setup_times.append(time.perf_counter() - t0)
        return tree_digest(dest)

    inputs = [work / f"set{k}" for k in range(workload.sets)]
    input_digests = [set_up(k, d) for k, d in enumerate(inputs)]
    pinned = (load_goldens() if use_goldens else {}).get(workload.name, {}).get(str(seed), {})
    m.reference = [pinned.get(f"set{k}") for k in range(len(inputs))]
    m.pinned = all(r is not None for r in m.reference)
    tr = tracing.Tracer() if trace else None

    def again(k: int) -> None:
        """Set input set ``k`` up afresh; it must come out byte for byte the same."""
        if set_up(k, inputs[k]) != input_digests[k]:
            units = workload.units(m.reference[k])
            m.attempted += units
            m.failed += units
            m.problems.append(f"set{k}: a repeated set-up made different inputs")

    def one(k: int, traced: bool) -> PassResult | None:
        undo = tracing.install(tr) if traced else None
        try:
            res = workload.run_pass(
                rn, seed, k, inputs[k], in_process_setup=traced, prepared=prepared[k],
                reference_times=None if traced else m.reference_times,
            )
        except Exception as exc:  # an episode that raises is a counted failure
            units = workload.units(m.reference[k])
            m.attempted += units
            m.failed += units
            m.problems.append(f"set{k}: {type(exc).__name__}: {exc}")
            return None
        finally:
            if undo is not None:
                undo()
        m.attempted += res.units
        failed = res.failed_units
        if m.reference[k] is None:
            m.reference[k] = res.digests
        else:
            failed = max(failed, workload.compare(res.digests, m.reference[k]))
            if failed and not res.problems:
                res.problems.append(f"set{k}: output digests differ from the reference")
        m.failed += failed
        m.problems.extend(res.problems)
        return res

    start = time.perf_counter()
    cycles = 0
    while True:
        cycle, traced_cycle = [], []
        for k in range(len(inputs)):
            cycle.append(one(k, traced=False))
            if trace:
                traced_cycle.append(one(k, traced=True))
        again(cycles % len(inputs))
        cycles += 1
        if None not in cycle + traced_cycle:
            m.passes.append(cycle)
            if trace:
                m.traced_passes.append(traced_cycle)
                m.layer_cycles.append(tracing.layer_metrics(tr))
                m.spans = tr.spans()
        if trace:
            tr.reset()
        elapsed = time.perf_counter() - start
        # every pass is checked against another (a traced cycle runs each
        # input set twice), then the whole number of cycles that best fills
        # the requested time
        if cycles >= (1 if trace else 2) and elapsed + elapsed / cycles / 2 >= seconds:
            break
    if not m.passes:
        raise BenchError("no cycle completed without an error: " + "; ".join(m.problems[:3]))
    return m


def end_to_end(m: Measurement) -> tuple[dict[str, float], dict]:
    """Every end-to-end value, plus, per metric, its quartiles over the repeats."""
    passes = [p for cycle in m.passes for p in cycle]
    per_cycle = {
        "wall_s": [sum(p.seconds for p in c) / len(c) for c in m.passes],
        "raw_ticks_per_s": [
            sum(p.ticks for p in c) / sum(p.rollout_s for p in c) for c in m.passes
        ],
        "episodes_per_s": [sum(p.units for p in c) / sum(p.seconds for p in c) for c in m.passes],
    }
    episode_ms = [s.seconds * 1000 for p in passes for s in p.samples]
    tail_pct, tail_ms = tail(episode_ms)
    both = [b for p in m.passes[0] for b in p.both_success]
    raw_setup_s = statistics.median(m.setup_times)
    raw_ticks_per_s = sum(p.ticks for p in passes) / sum(p.rollout_s for p in passes)
    # samples taken after every rollout spread evenly over the passes' time,
    # so their mean weighs slow stretches as the passes' pooled time does
    slowdown = statistics.fmean(m.reference_times) / REFERENCE_S  # 1 at full speed
    values = {
        "setup_s": raw_setup_s / slowdown,
        "ticks_per_s": raw_ticks_per_s * slowdown,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "raw_setup_s": raw_setup_s,
        "raw_ticks_per_s": raw_ticks_per_s,
        "reference_ms": statistics.fmean(m.reference_times) * 1000,
        "wall_s": statistics.median(per_cycle["wall_s"]),
        "episodes_per_s": statistics.median(per_cycle["episodes_per_s"]),
        "episode_ms_p50": statistics.median(episode_ms),
        "episode_ms_tail": tail_ms,
        "bsr": sum(both) / len(both),
        "failed_frac": m.failed / m.attempted,
    }
    detail = {
        "quartiles": {
            "raw_setup_s": quartiles(m.setup_times),
            "reference_ms": quartiles([t * 1000 for t in m.reference_times]),
            **{k: quartiles(v) for k, v in per_cycle.items()},
            "episode_ms_p50": quartiles(episode_ms),
        },
        "repeats": {"setups": len(m.setup_times), "cycles": len(m.passes)},
        "episode_samples": len(episode_ms),
        "tail_percentile": tail_pct,
    }
    return values, detail


def layer_values(m: Measurement) -> dict[str, float]:
    names = list(m.layer_cycles[0])
    values = {n: statistics.median(c[n] for c in m.layer_cycles) for n in names}
    # the timed command only: a traced pass also makes its own inputs
    traced = sum(p.rollout_s for c in m.traced_passes for p in c)
    plain = sum(p.rollout_s for c in m.passes for p in c)
    values["trace_overhead_frac"] = traced / plain - 1.0
    return values


def layer_unit(name: str) -> str:
    return "fraction" if name == "trace_overhead_frac" else tracing.metric_unit(name)


def write_spans(path: Path, spans: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent in spans:
            fh.write(json.dumps([name, start, end, parent]) + "\n")


def report(workload, args, env: dict, m: Measurement, values: dict, detail: dict) -> None:
    print(
        f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
        f"git={env['git_sha'][:12]} python={env['python']} numpy={env['numpy']} "
        f"nproc={env['nproc']} loadavg={env['loadavg']}"
    )
    units = {**END_TO_END, **REPORTED}
    for name, value in values.items():
        q = detail["quartiles"].get(name)
        note = f"  [q1 {q[0]:.6g}, median {q[1]:.6g}, q3 {q[2]:.6g}]" if q else ""
        if name == "episode_ms_tail":
            note = f"  [p{detail['tail_percentile']}, n={detail['episode_samples']}]"
        if name == "failed_frac":
            goldens = "pinned goldens" if m.pinned else "unpinned seed: first pass"
            note = f"  [{m.failed}/{m.attempted} vs {goldens}]"
        bound = "" if name in END_TO_END else "  (not bounded)"
        print(f"  {name:<24} {value:12.6g} {units[name]}{bound}{note}")
    print(f"  set-ups {detail['repeats']['setups']}, cycles {detail['repeats']['cycles']}")
    for problem in m.problems[:5]:
        print(f"  problem: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"makes the inputs; {DEFAULT_SEED} and the held-out {HELD_OUT_SEED} are pinned",
    )
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--pin", action="store_true", help="write this seed's output digests into goldens.json"
    )
    args = parser.parse_args(argv)

    try:
        rn = _load_relaynav()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    env = environment()
    workload = WORKLOADS[args.workload]
    work = WORK_DIR / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        m = measure(
            rn, workload, args.seed, args.seconds, bool(args.trace), work,
            use_goldens=not args.pin,
        )
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()

    values, detail = end_to_end(m)
    report(workload, args, env, m, values, detail)
    if args.trace:
        metrics = layer_values(m)
        for name, value in metrics.items():
            print(f"  {name:<44} {value:14.6g} {layer_unit(name)}")
        unit = layer_unit
    else:
        metrics = {n: values[n] for n in END_TO_END}
        unit = END_TO_END.__getitem__
    print("digests " + json.dumps({f"set{k}": d for k, d in enumerate(m.reference)}))

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "values": values,
        "detail": detail,
        "per_layer": metrics if args.trace else None,
        "problems": m.problems[:20],
        "digests": {f"set{k}": d for k, d in enumerate(m.reference)},
        "passes": [
            {
                "cycle": c,
                "set": k,
                "wall_s": p.seconds,
                "rollout_s": p.rollout_s,
                "ticks": p.ticks,
                "episodes": [[e.seconds, e.ticks] for e in p.samples],
            }
            for c, cycle in enumerate(m.passes)
            for k, p in enumerate(cycle)
        ],
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        write_spans(RESULTS_DIR / f"{stem}-spans.jsonl", m.spans)
    if args.pin:
        if m.failed:
            print("perfbench: not pinning, passes disagree", file=sys.stderr)
            return 1
        pin_goldens(workload.name, args.seed, m.reference)

    print(json.dumps({
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {n: {"value": v, "unit": unit(n)} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
