"""Blockage ablation: build a suite where mid-run corridor closures matter.

Each suite entry is a verified relay episode plus one corridor blockage
scheduled on the first-half robot's ground-truth route before the robot
reaches it. Blockages are chosen structurally, from true-map geometry only:
either the detour to the pickup grows by a margin (so rerouting without
coordination costs real distance and ticks) or the pickup becomes outright
unreachable for the first-half robot while staying reachable for its
partner. Every entry carries a tick budget proportional to its own
unblocked completion time, so an uncoordinated detour can push an episode
past its budget while a subtask swap keeps it inside.

Running the suite under both policies ("deconav" with the semantic bus and
event-driven replanning, "static" with coordination muted) yields the
paired comparison: both-success rates overall and on the swap-fired subset,
and per-episode combined path lengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .config import EpisodeOverride, RolloutConfig
from .engine import RolloutResult, run_lockstep
from .episodes import EpisodeSpec, generate_episode
from .scenegen import generate_scene
from .seeds import derive_seed
from .serialize import ROUNDED, Record
from .world import FORWARD_M, Geodesics, SceneGraph

KIND_DETOUR = "detour"
KIND_CUT = "cut"

# suite build: episodes tried per scene, the share of cut plans allowed,
# scenes drawn before giving up
PER_SCENE = 8
CUT_FRACTION = 0.05
MAX_SCENE_DRAWS = 4000
# picker thresholds, in metres (see pick_route_blockage)
MIN_DETOUR_EXTRA_M = 12.0
TAKER_SLACK_M = 4.0
HANDOFF_SLACK_M = 4.0
CARRY_SLACK_M = 2.0
REPOSITION_SLACK_M = 12.0
# an entry's budget over its unblocked run, and the margin the estimated
# swapped finish must keep under that budget, in ticks
BUDGET_EXTRA_TICKS = 110
EST_MARGIN_TICKS = 70


class SuiteBuildError(RuntimeError):
    pass


@dataclass(frozen=True)
class BlockagePlan(Record):
    corridor_id: str
    tick: int
    kind: str
    detour_extra_m: float = field(metadata=ROUNDED)
    swap_critical_m: float = field(metadata=ROUNDED)


@dataclass(frozen=True)
class SuiteParams:
    n_episodes: int = 200
    seed: int = 0


@dataclass(frozen=True)
class SuiteEntry:
    episode: EpisodeSpec
    plan: BlockagePlan
    t_max: int
    unblocked_ticks: int


@dataclass
class BlockageSuite:
    params: SuiteParams
    scenes: dict[str, SceneGraph]
    entries: list[SuiteEntry]

    def overrides(self) -> dict:
        """Per-episode settings in the run command's overrides-file format."""
        return {
            e.episode.episode_id: EpisodeOverride(
                ((e.plan.tick, e.plan.corridor_id),), e.t_max
            ).to_dict()
            for e in self.entries
        }


def pick_route_blockage(
    scene: SceneGraph,
    episode: EpisodeSpec,
) -> BlockagePlan | None:
    """Choose a corridor on the FH robot's pickup leg worth closing.

    Requirements, all on true maps: the gate sits strictly between the FH
    start and the target along the ground-truth path; after closing it the
    partner can still run the entire relay (pickup, handoff, and delivery
    all mutually reachable from its side); either the FH detour to the
    pickup lengthens by ``MIN_DETOUR_EXTRA_M`` or the pickup becomes
    outright unreachable for FH; the partner stays a competitive taker for
    the pickup even after drifting for ``tick`` steps (its start-based
    distance plus the worst-case drift must undercut the FH detour); and
    FH's own access to the handoff is essentially unharmed, so the swapped
    assignment stays cheap. Among qualifying corridors the one costing FH
    the most is returned, with the closure scheduled halfway to the gate.

    Distances come from one :class:`~relaynav.world.Geodesics` for the open
    map and one per closed corridor, over the open map's free cells with the
    gate's bits cleared; each query is a layer search that stops once it has
    reached its other endpoints. Three open-map distances (FH start, SH start
    and handoff to the target) come from one search rooted at the target,
    since 4-connected steps are symmetric. Closing a gate only removes free
    cells, so no closed map brings the partner closer to the pickup than the
    open map does: when the open-map partner already fails the taker test,
    every corridor would, and None is returned before any closed-map search.
    FH's open-map distance to the handoff is taken only when a corridor
    first reaches the test that reads it.
    """
    grid = scene.grid
    target_cell = scene.objects[episode.target_object_id].cell
    path = list(episode.gt_path_fh)
    if target_cell not in path:
        return None
    prefix = path[: path.index(target_cell) + 1]
    start_fh = prefix[0]
    start_sh = episode.start_pose_sh.cell
    handoff = episode.handoff_waypoint.cell
    delivery = episode.delivery_waypoint.cell
    keep_free = {start_fh, start_sh, target_cell, handoff, delivery}

    # the open-map distances do not depend on the corridor
    open_geo = grid.geodesics()
    d_direct, sh_target_open, carry_open = open_geo.meters_from(
        target_cell, start_fh, start_sh, handoff
    )
    if sh_target_open > d_direct + TAKER_SLACK_M:
        return None
    fh_handoff_open = None
    best: tuple[float, BlockagePlan] | None = None
    for cid in sorted(scene.corridors):
        gate = scene.corridors[cid].gate_cells
        if gate & keep_free:
            continue
        steps_to = next(
            (i for i, cell in enumerate(prefix) if cell in gate), None
        )
        if steps_to is None or steps_to < 2:
            continue
        closed = Geodesics(open_geo.free & ~grid.mask(gate), grid.width, grid.height)
        d_post = closed.meters(start_fh, target_cell)
        if math.isinf(d_post):
            kind, extra = KIND_CUT, math.inf
        elif d_post >= d_direct + MIN_DETOUR_EXTRA_M:
            kind, extra = KIND_DETOUR, d_post - d_direct
        else:
            continue
        sh_target = closed.meters(start_sh, target_cell)
        carry = closed.meters(target_cell, handoff)
        onward = closed.meters(delivery, handoff)
        sh_handoff = closed.meters(start_sh, handoff)
        if not all(math.isfinite(d) for d in (sh_target, carry, onward, sh_handoff)):
            continue
        tick = max(1, steps_to // 2)
        # the partner must stay the cheaper taker for the pickup even after
        # walking away from its start for up to `tick` steps
        drift = tick * FORWARD_M
        if sh_target + drift + FORWARD_M > d_post:
            continue
        if sh_target > d_direct + TAKER_SLACK_M:
            continue
        # the partner's natural route to the pickup must not run through the
        # closed gate: a blocked-map taker trip much longer than the open-map
        # one means it would discover the closure mid-route and pay for it
        if sh_target > sh_target_open + CARRY_SLACK_M:
            continue
        # the carry leg itself must survive the closure: whoever holds the
        # item still has to walk pickup -> handoff, so the gate must not sit
        # on that route either
        if carry > carry_open + CARRY_SLACK_M:
            continue
        # FH's post-swap leg to the handoff must dodge the closed gate cheaply
        d_fh_handoff_post = closed.meters(start_fh, handoff)
        if fh_handoff_open is None:
            fh_handoff_open = open_geo.meters(start_fh, handoff)
        if d_fh_handoff_post > fh_handoff_open + HANDOFF_SLACK_M:
            continue
        # post-swap repositioning overhead: FH's trip to the handoff replaces
        # the partner's own (usually shorter) approach, and both robots burn
        # up to `tick` cells walking the wrong way before the closure fires;
        # that combined overhead must stay well under the detour savings or
        # the realized-path comparison degenerates into a coin flip
        reposition = d_fh_handoff_post - sh_handoff + 4.0 * drift
        if reposition > REPOSITION_SLACK_M:
            continue
        # worst-case post-swap critical path: FH repositions to the handoff
        # while the partner backtracks its drift, fetches the item, and
        # carries it in; then the item travels on to the delivery point
        critical = (
            max(
                d_fh_handoff_post,
                2.0 * drift + sh_target + carry,
            )
            + onward
        )
        score = extra if math.isfinite(extra) else 1e9
        plan = BlockagePlan(cid, tick, kind, extra, critical)
        if best is None or score > best[0]:
            best = (score, plan)
    return best[1] if best else None


def build_blockage_suite(params: SuiteParams) -> BlockageSuite:
    """Deterministically assemble the suite from (seed, params) alone."""
    base = RolloutConfig()
    want_cuts = round(params.n_episodes * CUT_FRACTION)
    scenes: dict[str, SceneGraph] = {}
    entries: list[SuiteEntry] = []
    cuts = 0
    for draw in range(MAX_SCENE_DRAWS):
        if len(entries) >= params.n_episodes:
            break
        scene = generate_scene(derive_seed(params.seed, "suite-scene", draw))
        for k in range(PER_SCENE):
            if len(entries) >= params.n_episodes:
                break
            drawn = generate_episode(
                scene, derive_seed(params.seed, "suite-episode", draw, k)
            )
            if not isinstance(drawn, EpisodeSpec):
                continue
            plan = pick_route_blockage(scene, drawn)
            if plan is None:
                continue
            if plan.kind == KIND_CUT and cuts >= want_cuts:
                continue
            nominal, _ = run_lockstep(scene, drawn, base)
            if not nominal.both_success:
                continue
            if plan.tick >= nominal.ticks:
                continue
            t_max = min(base.t_max, nominal.ticks + BUDGET_EXTRA_TICKS)
            # oracle estimate of the swapped relay's finish tick: closure
            # tick, then the critical path at one cell per tick with a 30%
            # allowance for turning in place, plus handshake overhead; the
            # margin keeps the swapped run finishing well before the budget
            # so a timed-out baseline has kept walking in the meantime
            est = plan.tick + int(plan.swap_critical_m / FORWARD_M * 1.3) + 25
            if est > t_max - EST_MARGIN_TICKS:
                continue
            entries.append(SuiteEntry(drawn, plan, t_max, nominal.ticks))
            scenes[scene.scene_id] = scene
            if plan.kind == KIND_CUT:
                cuts += 1
    if len(entries) < params.n_episodes:
        raise SuiteBuildError(
            f"only {len(entries)} of {params.n_episodes} suite episodes found "
            f"within {MAX_SCENE_DRAWS} scene draws"
        )
    return BlockageSuite(params, scenes, entries)


def run_suite(suite: BlockageSuite, policy: str) -> dict[str, RolloutResult]:
    """Lockstep rollouts of every entry under one policy, keyed by episode."""
    out: dict[str, RolloutResult] = {}
    for entry in suite.entries:
        cfg = RolloutConfig(
            policy=policy,
            t_max=entry.t_max,
            blockage_schedule=((entry.plan.tick, entry.plan.corridor_id),),
        )
        scene = suite.scenes[entry.episode.scene_id]
        result, _ = run_lockstep(scene, entry.episode, cfg)
        out[entry.episode.episode_id] = result
    return out


def ablation_report(
    deconav: dict[str, RolloutResult], static: dict[str, RolloutResult]
) -> dict:
    """Directional comparison: BSR ordering plus paths on swap-fired episodes."""
    if set(deconav) != set(static):
        raise ValueError("policy runs cover different episode sets")
    ids = sorted(deconav)
    n = len(ids)
    if n == 0:
        raise ValueError("empty suite")

    def bsr(results: dict[str, RolloutResult], subset) -> float:
        picked = [results[i] for i in subset]
        return sum(1 for r in picked if r.both_success) / len(picked) if picked else 0.0

    swap_fired = [i for i in ids if deconav[i].swap_count > 0]
    path_lower = [
        i
        for i in swap_fired
        if (deconav[i].path_len_fh_m + deconav[i].path_len_sh_m)
        < (static[i].path_len_fh_m + static[i].path_len_sh_m)
    ]
    frac_lower = len(path_lower) / len(swap_fired) if swap_fired else 0.0
    report = {
        "n_episodes": n,
        "n_swap_fired": len(swap_fired),
        "bsr_deconav": bsr(deconav, ids),
        "bsr_static": bsr(static, ids),
        "bsr_deconav_swap_fired": bsr(deconav, swap_fired),
        "bsr_static_swap_fired": bsr(static, swap_fired),
        "path_lower_count": len(path_lower),
        "path_lower_fraction": round(frac_lower, 6),
        "swap_fired_ids": swap_fired,
    }
    report["criteria"] = {
        "bsr_overall": report["bsr_deconav"] >= report["bsr_static"],
        "bsr_swap_fired_strict": bool(swap_fired)
        and report["bsr_deconav_swap_fired"] > report["bsr_static_swap_fired"],
        "path_lower_90pct": bool(swap_fired) and frac_lower >= 0.9,
    }
    return report
