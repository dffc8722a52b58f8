"""Golden digests of the bytes ``do_run`` writes for a small fixed seed matrix.

A change meant to keep behaviour (a refactor, a speed-up) must leave every
digest here unchanged. A change meant to alter output bytes re-pins them and
gives the reason in CHANGES.md.

The matrix covers the sensing, planning and replanning paths that every
rollout takes, plus the transport (latency, jitter and drops), a scheduled
blockage, which rebuilds the scene and its visibility caches, discover mode
(the belief, and so the planner's occupancy, changes on most ticks) and the
static policy (coordination muted).
"""

from __future__ import annotations

import hashlib

import pytest

from conftest import episode_batch
from relaynav.cli import RESULTS_NAME, do_run
from relaynav.config import RolloutConfig, TransportConfig
from relaynav.episodes import save_episodes
from relaynav.serialize import write_canonical
from relaynav.world import save_scene

BLOCKAGE_TICK = 5
# long enough for both discover-mode episodes to finish
DISCOVER_T_MAX = 3000

# file name -> sha256, per run of the matrix
GOLDENS: dict[str, dict[str, str]] = {
    "lockstep": {
        "trace_s12294096317224395796-e4057778747611743522.jsonl": (
            "0a5c73d2dc846d69dc1c2a78ab88c0389d8233af6b91eeba5ae9f533219b216e"
        ),
        "trace_s9622083055483119285-e9462582283155814529.jsonl": (
            "c6cf7d128d991a71cf593691b722a64349778de1240ab1fe650b0e7036580cb2"
        ),
        "results.jsonl": (
            "9c4ee7c101719ce97efb0228b948bbeb8b14d422f150202f558e6aeb93682d23"
        ),
    },
    "distributed": {
        "trace_s12294096317224395796-e4057778747611743522.jsonl": (
            "1f95baa3db9445461d950d4fbf69b173098d1a348c096686a3e66f54a225639f"
        ),
        "trace_s9622083055483119285-e9462582283155814529.jsonl": (
            "1344e0da061f34a5abdb26346df6a993e109426ae070d05d03acefb263675fda"
        ),
        "results.jsonl": (
            "9c4ee7c101719ce97efb0228b948bbeb8b14d422f150202f558e6aeb93682d23"
        ),
    },
    "blockage": {
        "trace_s9622083055483119285-e9462582283155814529.jsonl": (
            "014cbf32f1e9b7feeee0f584e1988d40f496ccbbaa47114e5c95dee65316ccfb"
        ),
        "results.jsonl": (
            "c3cfbac17b49ce14da89a92f3dcd6c595f0e494142e468852adf96f60443abfe"
        ),
    },
    "discover": {
        "trace_s12294096317224395796-e4057778747611743522.jsonl": (
            "dca9d0984b2e4da6653a298d542ba6bd56f98afc15892737373355a66c269263"
        ),
        "trace_s9622083055483119285-e9462582283155814529.jsonl": (
            "01bb764aa16707ef739269a1c5930f8d946d03845f43f1dcd9bdfc0f9a6249ea"
        ),
        "results.jsonl": (
            "f544308a279506fb74d265c1b4da2edd0d122d81f019d18f91ae94cc5e5403eb"
        ),
    },
    "static": {
        "trace_s12294096317224395796-e4057778747611743522.jsonl": (
            "0a8f6d7bf584caf69e80bd1315c10f43a0169af9a424a2beb1e6502d2e1f6c57"
        ),
        "trace_s9622083055483119285-e9462582283155814529.jsonl": (
            "f5461285d764fd81e940d89364962a60815f74ad0f1cf7f9afb2808923ae2a43"
        ),
        "results.jsonl": (
            "9c4ee7c101719ce97efb0228b948bbeb8b14d422f150202f558e6aeb93682d23"
        ),
    },
}


def _digests(out_dir) -> dict[str, str]:
    files = sorted(out_dir.glob("trace_*.jsonl")) + [out_dir / RESULTS_NAME]
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("goldens")
    scenes = root / "scenes"
    scenes.mkdir()
    pairs = episode_batch(2, seed=3)
    for scene, _ in pairs:
        save_scene(scene, scenes / f"{scene.scene_id}.json")
    episodes = root / "episodes.jsonl"
    save_episodes([ep for _, ep in pairs], episodes)

    # close the first corridor the FH robot's ground-truth route crosses
    scene, episode = pairs[0]
    on_route = set(episode.gt_path_fh[1:])
    corridor = next(
        cid for cid in sorted(scene.corridors) if scene.corridors[cid].gate_cells & on_route
    )
    blocked_episodes = root / "blocked.jsonl"
    save_episodes([episode], blocked_episodes)
    overrides = root / "overrides.json"
    write_canonical(
        overrides,
        {episode.episode_id: {"blockages": [[BLOCKAGE_TICK, corridor]], "t_max": None}},
    )
    return root, scenes, episodes, blocked_episodes, overrides


def _run(inputs, name: str) -> dict[str, str]:
    root, scenes, episodes, blocked_episodes, overrides = inputs
    out = root / name
    if name == "lockstep":
        do_run(episodes, scenes, out, RolloutConfig(seed=5), None)
    elif name == "distributed":
        transport = TransportConfig(latency=3, jitter=2, drop_prob=0.2, seed=5)
        do_run(episodes, scenes, out, RolloutConfig(mode="distributed", seed=5), transport)
    elif name == "discover":
        transport = TransportConfig(latency=3, jitter=2, drop_prob=0.2, seed=5)
        cfg = RolloutConfig(
            mode="distributed", knowledge="discover", t_max=DISCOVER_T_MAX, seed=5
        )
        do_run(episodes, scenes, out, cfg, transport)
    elif name == "static":
        do_run(episodes, scenes, out, RolloutConfig(policy="static", seed=5), None)
    else:
        do_run(blocked_episodes, scenes, out, RolloutConfig(seed=5), None, overrides)
    return _digests(out)


@pytest.mark.parametrize("name", ["lockstep", "distributed", "blockage", "discover", "static"])
def test_run_outputs_match_pinned_digests(inputs, name):
    assert _run(inputs, name) == GOLDENS[name]
