"""Episode scoring and aggregation: SR, BSR, ISR, SPL, NE, plus A/B deltas.

Pure, stateless computations over rollout results. Pooling conventions are
explicit: SR, ISR, SPL, and NE are means over all robot-episodes (two robots
per episode); BSR is the fraction of episodes where both robots succeed, so
BSR ≤ SR always holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .engine import RolloutResult
from .episodes import EpisodeSpec
from .serialize import ROUNDED, Record

UNDEFINED = "undefined"


class MetricsError(ValueError):
    pass


@dataclass(frozen=True)
class EpisodeResult(Record):
    """One rollout joined with its episode's per-robot shortest-path lengths."""

    episode_id: str
    success_fh: bool
    success_sh: bool
    both_success: bool
    spl_fh: float = field(metadata=ROUNDED)
    spl_sh: float = field(metadata=ROUNDED)
    isr_fh: float = field(metadata=ROUNDED)
    isr_sh: float = field(metadata=ROUNDED)
    ne_fh_m: float
    ne_sh_m: float
    path_len_fh_m: float = field(metadata=ROUNDED)
    path_len_sh_m: float = field(metadata=ROUNDED)
    gt_length_fh_m: float = field(metadata=ROUNDED)
    gt_length_sh_m: float = field(metadata=ROUNDED)
    ticks: int
    swap_count: int
    dialogue_count: int

    def __post_init__(self) -> None:
        if self.both_success and not (self.success_fh and self.success_sh):
            raise MetricsError("both_success requires both per-robot successes")
        for name in ("path_len_fh_m", "path_len_sh_m", "ne_fh_m", "ne_sh_m"):
            if getattr(self, name) < 0:
                raise MetricsError(f"{name} must be non-negative")


@dataclass(frozen=True)
class MetricsReport(Record):
    sr: float = field(metadata=ROUNDED)
    bsr: float = field(metadata=ROUNDED)
    isr: float = field(metadata=ROUNDED)
    spl: float = field(metadata=ROUNDED)
    ne: float
    n_episodes: int

    def __post_init__(self) -> None:
        for name in ("sr", "bsr", "isr", "spl"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0 + 1e-9:
                raise MetricsError(f"{name}={val} outside [0, 1]")
        if self.bsr > self.sr + 1e-9:
            raise MetricsError("bsr cannot exceed sr")
        if self.n_episodes <= 0:
            raise MetricsError("report needs at least one episode")


def spl_term(success: bool, gt_length_m: float, path_len_m: float) -> float:
    """Success-weighted normalized inverse path length for one robot."""
    if not success:
        return 0.0
    denom = max(path_len_m, gt_length_m)
    if denom <= 0.0:
        # degenerate zero-length route: success alone earns full credit
        return 1.0
    return gt_length_m / denom


def isr_term(done: int, remaining: int) -> float:
    total = done + remaining
    if total <= 0:
        raise MetricsError("subtask chain cannot be empty")
    return done / total


def score_episode(result: RolloutResult, episode: EpisodeSpec) -> EpisodeResult:
    if result.episode_id != episode.episode_id:
        raise MetricsError(
            f"result {result.episode_id} does not match episode {episode.episode_id}"
        )
    gt_fh, gt_sh = episode.gt_length_fh, episode.gt_length_sh
    if gt_fh is None or gt_sh is None or gt_fh < 0 or gt_sh < 0:
        raise MetricsError(f"episode {episode.episode_id} is missing gt lengths")
    return EpisodeResult(
        episode_id=result.episode_id,
        success_fh=result.success_fh,
        success_sh=result.success_sh,
        both_success=result.both_success,
        spl_fh=spl_term(result.success_fh, gt_fh, result.path_len_fh_m),
        spl_sh=spl_term(result.success_sh, gt_sh, result.path_len_sh_m),
        isr_fh=isr_term(result.subtasks_done_fh, result.subtasks_remaining_fh),
        isr_sh=isr_term(result.subtasks_done_sh, result.subtasks_remaining_sh),
        ne_fh_m=result.ne_fh_m,
        ne_sh_m=result.ne_sh_m,
        path_len_fh_m=result.path_len_fh_m,
        path_len_sh_m=result.path_len_sh_m,
        gt_length_fh_m=gt_fh,
        gt_length_sh_m=gt_sh,
        ticks=result.ticks,
        swap_count=result.swap_count,
        dialogue_count=result.dialogue_count,
    )


def aggregate(results: list[EpisodeResult]) -> MetricsReport:
    if not results:
        raise MetricsError("cannot aggregate an empty result set")
    n = len(results)
    succ = [float(r.success_fh) + float(r.success_sh) for r in results]
    return MetricsReport(
        sr=sum(succ) / (2 * n),
        bsr=sum(1 for r in results if r.both_success) / n,
        isr=sum(r.isr_fh + r.isr_sh for r in results) / (2 * n),
        spl=sum(r.spl_fh + r.spl_sh for r in results) / (2 * n),
        ne=sum(r.ne_fh_m + r.ne_sh_m for r in results) / (2 * n),
        n_episodes=n,
    )


def compare(report_a: MetricsReport, report_b: MetricsReport) -> dict:
    """Per-metric deltas from a (baseline) to b: absolute and relative.

    Relative change is (b − a)/a, and (a − b)/a for NE, so that a positive
    number always reads as an improvement and a tie reads 0.0, never -0.0.
    A zero baseline makes the ratio meaningless; such fields carry an
    explicit undefined marker instead.
    """
    out: dict = {"n_episodes_a": report_a.n_episodes, "n_episodes_b": report_b.n_episodes}
    for name in ("sr", "bsr", "isr", "spl", "ne"):
        a, b = getattr(report_a, name), getattr(report_b, name)
        absolute = b - a
        if a == 0 or not math.isfinite(a) or not math.isfinite(b):
            relative = UNDEFINED
        else:
            relative = (a - b) / a if name == "ne" else (b - a) / a
        out[name] = {
            "a": a if math.isfinite(a) else "inf",
            "b": b if math.isfinite(b) else "inf",
            "abs_delta": absolute if math.isfinite(absolute) else "inf",
            "rel_delta": relative if relative == UNDEFINED else round(relative, 6),
        }
    return out


def format_report(report: MetricsReport) -> str:
    """Fixed-width single-row table in the benchmark column convention."""
    head = f"{'SR↑':>8} {'BSR↑':>8} {'ISR↑':>8} {'SPL↑':>8} {'NE↓(m)':>9} {'N':>6}"
    ne = f"{report.ne:9.3f}" if math.isfinite(report.ne) else f"{'inf':>9}"
    row = (
        f"{report.sr:8.3f} {report.bsr:8.3f} {report.isr:8.3f} "
        f"{report.spl:8.3f} {ne} {report.n_episodes:6d}"
    )
    return head + "\n" + row


def format_compare(delta: dict) -> str:
    lines = [f"{'metric':>8} {'a':>9} {'b':>9} {'abs Δ':>9} {'rel Δ':>9}"]
    for name in ("sr", "bsr", "isr", "spl", "ne"):
        rec = delta[name]
        rel = rec["rel_delta"]
        rel_s = f"{rel * 100 + 0.0:+8.1f}%" if rel != UNDEFINED else f"{UNDEFINED:>9}"

        def _fmt(v):
            return f"{v:9.3f}" if v != "inf" else f"{'inf':>9}"

        lines.append(
            f"{name:>8} {_fmt(rec['a'])} {_fmt(rec['b'])} {_fmt(rec['abs_delta'])} {rel_s}"
        )
    return "\n".join(lines)
