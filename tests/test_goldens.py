"""Golden digests of the bytes the pipeline writes for a small fixed seed matrix.

A change meant to keep behaviour (a refactor, a speed-up) must leave every
digest here unchanged. A change meant to alter output bytes re-pins them and
gives the reason in CHANGES.md.

Besides the ``do_run`` traces and results, the cold outputs are pinned too:
the episodes file, the ``do_eval`` report and per-episode scores of three
runs, and the canonical JSON of every persisted record type built from fixed
values. A small blockage suite pins the subtask-swap path, which none of the
``do_run`` episodes takes; another pins the suite build itself (each entry's
episode, plan, budget and unblocked run length), which no trace writes.
Generated episodes always end at a reachable waypoint, so no run writes an
infinite NE; the record pins carry ``"inf"`` instead.

The matrix covers the sensing, planning and replanning paths that every
rollout takes, plus the transport (latency, jitter and drops), a scheduled
blockage, which rebuilds the scene and its visibility caches, discover mode
(the belief's packed ``known`` and ``blocked`` ints, and so the cells the
planner searches, change on most ticks) and the static policy
(coordination muted).

The resolved configurations are pinned as the canonical JSON a manifest
records for them: each run of the matrix plus a scheduled blockage and
non-default sensor, trigger and transport sections, and the ``config`` of a
``gen-scenes`` manifest. The ``pending.json`` of an adjudication export pins
the adjudication items.

Scene files are pinned as ``gen-scenes`` writes them, as an adjudication
export relabels them (rule and vote provenance), as ``adjudicate import``
writes them after ``adjudicate auto`` (adjudicated provenance), and with one
corridor blocked.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import replace

import pytest

from conftest import episode_batch
from relaynav.ablation import BlockagePlan, SuiteParams, build_blockage_suite
from relaynav.cli import (
    EPISODE_RESULTS_NAME,
    PENDING_NAME,
    REPORT_NAME,
    RESULTS_NAME,
    RunJob,
    do_adjudicate_auto,
    do_adjudicate_export,
    do_adjudicate_import,
    do_eval,
    do_gen_scenes,
    do_run,
)
from relaynav.config import RolloutConfig, SensorConfig, TransportConfig, TriggerConfig
from relaynav.engine import RolloutResult, run_distributed, run_lockstep
from relaynav.episodes import EpisodeSpec, save_episodes
from relaynav.manifest import RunManifest
from relaynav.metrics import EpisodeResult, MetricsReport
from relaynav.serialize import canonical_dumps, sha256_file, write_canonical
from relaynav.world import Pose, apply_blockage, load_scene, save_scene

BLOCKAGE_TICK = 5
# long enough for both discover-mode episodes to finish
DISCOVER_T_MAX = 3000
LOSSY = TransportConfig(latency=3, jitter=2, drop_prob=0.2, seed=5)

# rollout and transport config per run of the matrix; "blockage" adds a
# per-episode schedule from an overrides file
RUN_CONFIGS: dict[str, tuple[RolloutConfig, TransportConfig | None]] = {
    "lockstep": (RolloutConfig(seed=5), None),
    "distributed": (RolloutConfig(mode="distributed", seed=5), LOSSY),
    "blockage": (RolloutConfig(seed=5), None),
    "discover": (
        RolloutConfig(mode="distributed", knowledge="discover", seed=5, t_max=DISCOVER_T_MAX),
        LOSSY,
    ),
    "discover-short": (RolloutConfig(mode="distributed", knowledge="discover", seed=5), LOSSY),
    "static": (RolloutConfig(policy="static", seed=5), None),
}

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


EPISODES_SHA256 = "c7a746a754e2fe581a780ed72ab761224b1a08d24b56c7ea2d76cbc169ea313d"

# do_eval outputs per run: report.json and episode_results.jsonl. At the
# default t_max both discover-mode episodes of "discover-short" fail.
EVAL_GOLDENS: dict[str, dict[str, str]] = {
    "discover-short": {
        REPORT_NAME: "ea3cc0b570183313e375903a40e92a996bf933af32ab1e03077ee60eb6c4cec3",
        EPISODE_RESULTS_NAME: "3f74f2476bdeccb6c3ed6565a9eee1a433ac7461c01b2117a9b39f4aa273b02a",
    },
    "lockstep": {
        REPORT_NAME: "4607039fc9ba701dc035438b572d70a93583513eaccc4ad21bd7eb44020122ef",
        EPISODE_RESULTS_NAME: "93733f8ac3566dc09136d8aa77d2233d5b363e66d0408b857cbaabe8ca6b4c27",
    },
    "discover": {
        REPORT_NAME: "3a6d140fb2226dc3fb56502b358e31735d0d9498026627f8d3274ff3b0163f47",
        EPISODE_RESULTS_NAME: "4e93a02c46eea04e8606032c5742cf0185aff699d8a525102325a0bacf3b85fa",
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


@pytest.fixture(scope="module")
def run_dir(inputs):
    """Output directory of one run of the matrix, run once per module."""
    done = {}

    def get(name: str):
        if name not in done:
            done[name] = _run(inputs, name)
        return done[name]

    return get


def _run(inputs, name: str):
    root, scenes, episodes, blocked_episodes, overrides = inputs
    out = root / name
    rollout, transport = RUN_CONFIGS[name]
    if name == "blockage":
        do_run(blocked_episodes, scenes, out, rollout, transport, overrides)
    else:
        do_run(episodes, scenes, out, rollout, transport)
    return out


@pytest.mark.parametrize("name", ["lockstep", "distributed", "blockage", "discover", "static"])
def test_run_outputs_match_pinned_digests(run_dir, name):
    assert _digests(run_dir(name)) == GOLDENS[name]


def test_episodes_file_matches_pinned_digest(inputs):
    assert sha256_file(inputs[2]) == EPISODES_SHA256


@pytest.mark.parametrize("name", sorted(EVAL_GOLDENS))
def test_eval_outputs_match_pinned_digests(run_dir, name):
    out = run_dir(name)
    do_eval(out)
    assert {n: sha256_file(out / n) for n in EVAL_GOLDENS[name]} == EVAL_GOLDENS[name]


# Every float field holds more than six significant decimals, so the pins
# show which fields are rounded on write; ``inf`` stands wherever a record
# can hold it.
RECORDS = {
    "Pose": Pose(1.234567891, -0.987654321, 270),
    "RolloutResult": RolloutResult(
        episode_id="s1-e2",
        success_fh=True,
        success_sh=False,
        both_success=False,
        path_len_fh_m=12.345678912,
        path_len_sh_m=7.123456789,
        ne_fh_m=0.123456789123,
        ne_sh_m=math.inf,
        subtasks_done_fh=3,
        subtasks_done_sh=1,
        subtasks_remaining_fh=0,
        subtasks_remaining_sh=2,
        ticks=417,
        swap_count=1,
        dialogue_count=4,
    ),
    "EpisodeResult": EpisodeResult(
        episode_id="s1-e2",
        success_fh=True,
        success_sh=False,
        both_success=False,
        spl_fh=0.876543219,
        spl_sh=0.0,
        isr_fh=0.666666666667,
        isr_sh=0.333333333333,
        ne_fh_m=0.123456789123,
        ne_sh_m=math.inf,
        path_len_fh_m=12.345678912,
        path_len_sh_m=7.123456789,
        gt_length_fh_m=10.821320344,
        gt_length_sh_m=6.414213562,
        ticks=417,
        swap_count=1,
        dialogue_count=4,
    ),
    "MetricsReport": MetricsReport(
        sr=0.666666666667,
        bsr=0.333333333333,
        isr=0.583333333333,
        spl=0.512345678912,
        ne=1.234567891234,
        n_episodes=3,
    ),
    "MetricsReport-inf": MetricsReport(
        sr=0.5, bsr=0.0, isr=0.416666666667, spl=0.3, ne=math.inf, n_episodes=2
    ),
    "EpisodeSpec": EpisodeSpec(
        episode_id="s1-e2",
        scene_id="s1",
        seed=42,
        instruction="Take the bottle in the kitchen to the office; hand off at the hall.",
        target_object_id="obj_3",
        handoff_fixture_id="fix_1",
        delivery_anchor_id="anc_2",
        pickup_room="kitchen",
        handoff_room="hall",
        delivery_room="office",
        pickup_waypoint=Pose(1.234567891, 2.345678912, 0),
        handoff_waypoint=Pose(3.456789123, 4.567891234, 90),
        delivery_waypoint=Pose(5.678912345, 6.789123456, 180),
        start_pose_fh=Pose(0.123456789, 0.234567891, 270),
        start_pose_sh=Pose(7.891234567, 8.912345678, 0),
        gt_path_fh=((1, 2), (2, 2), (3, 2)),
        gt_path_sh=((7, 8), (7, 9)),
        gt_length_fh=10.821320344,
        gt_length_sh=6.414213562,
        subtasks_fh=("GotoPickup", "PickUp", "GotoHandoff", "Deposit", "Stop"),
        subtasks_sh=("GotoHandoff", "Receive", "GotoDelivery", "Deliver", "Stop"),
        gate_reports={"pickup": {"passed": True, "score": 0.912345678}},
    ),
    "BlockagePlan": BlockagePlan(
        corridor_id="c4",
        tick=17,
        kind="detour",
        detour_extra_m=14.142135623,
        swap_critical_m=3.141592653,
    ),
    "BlockagePlan-inf": BlockagePlan(
        corridor_id="c5", tick=9, kind="cut", detour_extra_m=math.inf, swap_critical_m=2.718281828
    ),
    "RunManifest": RunManifest(
        command="run",
        tool_version="0.1.0",
        seed=5,
        config={"rollout": {"tau": 0.123456789, "t_max": 500}, "transport": None},
        inputs={"episodes.jsonl": {"path": "in/episodes.jsonl", "sha256": "ab" * 32}},
        outputs={"results.jsonl": {"sha256": "cd" * 32}},
    ),
}

RECORD_GOLDENS: dict[str, str] = {
    "BlockagePlan": (
        '{"corridor_id":"c4","detour_extra_m":14.142136,"kind":"detour","swap_critical_m":3.141593,"tick":17}'
    ),
    "BlockagePlan-inf": (
        '{"corridor_id":"c5","detour_extra_m":"inf","kind":"cut","swap_critical_m":2.718282,"tick":9}'
    ),
    "EpisodeResult": (
        '{"both_success":false,"dialogue_count":4,"episode_id":"s1-e2","gt_length_fh_m":10.82132,"gt_length_sh_m":6.414214,"isr_fh":0.666667,"isr_sh":0.333333,"ne_fh_m":0.123456789123,"ne_sh_m":"inf","path_len_fh_m":12.345679,"path_len_sh_m":7.123457,"spl_fh":0.876543,"spl_sh":0.0,"success_fh":true,"success_sh":false,"swap_count":1,"ticks":417}'
    ),
    "EpisodeSpec": (
        '{"delivery_anchor_id":"anc_2","delivery_room":"office","delivery_waypoint":{"heading":180,"x":5.678912345,"y":6.789123456},"episode_id":"s1-e2","gate_reports":{"pickup":{"passed":true,"score":0.912345678}},"gt_length_fh":10.821320344,"gt_length_sh":6.414213562,"gt_path_fh":[[1,2],[2,2],[3,2]],"gt_path_sh":[[7,8],[7,9]],"handoff_fixture_id":"fix_1","handoff_room":"hall","handoff_waypoint":{"heading":90,"x":3.456789123,"y":4.567891234},"instruction":"Take the bottle in the kitchen to the office; hand off at the hall.","pickup_room":"kitchen","pickup_waypoint":{"heading":0,"x":1.234567891,"y":2.345678912},"scene_id":"s1","seed":42,"start_pose_fh":{"heading":270,"x":0.123456789,"y":0.234567891},"start_pose_sh":{"heading":0,"x":7.891234567,"y":8.912345678},"subtasks_fh":["GotoPickup","PickUp","GotoHandoff","Deposit","Stop"],"subtasks_sh":["GotoHandoff","Receive","GotoDelivery","Deliver","Stop"],"target_object_id":"obj_3"}'
    ),
    "MetricsReport": (
        '{"bsr":0.333333,"isr":0.583333,"n_episodes":3,"ne":1.234567891234,"spl":0.512346,"sr":0.666667}'
    ),
    "MetricsReport-inf": (
        '{"bsr":0.0,"isr":0.416667,"n_episodes":2,"ne":"inf","spl":0.3,"sr":0.5}'
    ),
    "Pose": (
        '{"heading":270,"x":1.234567891,"y":-0.987654321}'
    ),
    "RolloutResult": (
        '{"both_success":false,"dialogue_count":4,"episode_id":"s1-e2","ne_fh_m":0.123456789123,"ne_sh_m":"inf","path_len_fh_m":12.345679,"path_len_sh_m":7.123457,"subtasks_done_fh":3,"subtasks_done_sh":1,"subtasks_remaining_fh":0,"subtasks_remaining_sh":2,"success_fh":true,"success_sh":false,"swap_count":1,"ticks":417}'
    ),
    "RunManifest": (
        '{"command":"run","config":{"rollout":{"t_max":500,"tau":0.123456789},"transport":null},"inputs":{"episodes.jsonl":{"path":"in/episodes.jsonl","sha256":"abababababababababababababababababababababababababababababababab"}},"outputs":{"results.jsonl":{"sha256":"cdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcd"}},"seed":5,"tool_version":"0.1.0"}'
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_json_matches_pin(name):
    assert canonical_dumps(RECORDS[name].to_dict()) == RECORD_GOLDENS[name]


SNAPSHOT_CONFIGS = {
    **RUN_CONFIGS,
    "scheduled": (RolloutConfig(seed=5, blockage_schedule=((5, "c1"), (9, "c0"))), None),
    "nested": (
        RolloutConfig(
            mode="distributed",
            r_succ=0.75,
            sensor=SensorConfig(range_m=4.0, fov_deg=90.0),
            trigger=TriggerConfig(theta_rec=0.6, n_stag=15, cooldown=4, epsilon_hyst=0.25),
        ),
        TransportConfig(),
    ),
}


def run_config_snapshot(rollout, transport) -> dict:
    """The "rollout" and "transport" of the config a run manifest records."""
    config = RunJob(rollout, transport, episodes="", scenes_dir="", overrides=None).to_dict()
    return {key: config[key] for key in ("rollout", "transport")}


# canonical JSON of run_config_snapshot, the "rollout" and "transport" of a
# run manifest's config
SNAPSHOT_GOLDENS: dict[str, str] = {
    "blockage": (
        '{"rollout":{"blockage_schedule":[],"knowledge":"known","mode":"lockstep","policy":"deconav","r_int":0.5,"r_succ":1.0,"seed":5,"sensor":{"fov_deg":120.0,"range_m":5.0},"t_max":500,"tau":10,"trigger":{"cooldown":10,"epsilon_hyst":0.5,"n_stag":20,"theta_rec":0.5}},"transport":null}'
    ),
    "discover": (
        '{"rollout":{"blockage_schedule":[],"knowledge":"discover","mode":"distributed","policy":"deconav","r_int":0.5,"r_succ":1.0,"seed":5,"sensor":{"fov_deg":120.0,"range_m":5.0},"t_max":3000,"tau":10,"trigger":{"cooldown":10,"epsilon_hyst":0.5,"n_stag":20,"theta_rec":0.5}},"transport":{"drop_prob":0.2,"jitter":2,"latency":3,"seed":5}}'
    ),
    "discover-short": (
        '{"rollout":{"blockage_schedule":[],"knowledge":"discover","mode":"distributed","policy":"deconav","r_int":0.5,"r_succ":1.0,"seed":5,"sensor":{"fov_deg":120.0,"range_m":5.0},"t_max":500,"tau":10,"trigger":{"cooldown":10,"epsilon_hyst":0.5,"n_stag":20,"theta_rec":0.5}},"transport":{"drop_prob":0.2,"jitter":2,"latency":3,"seed":5}}'
    ),
    "distributed": (
        '{"rollout":{"blockage_schedule":[],"knowledge":"known","mode":"distributed","policy":"deconav","r_int":0.5,"r_succ":1.0,"seed":5,"sensor":{"fov_deg":120.0,"range_m":5.0},"t_max":500,"tau":10,"trigger":{"cooldown":10,"epsilon_hyst":0.5,"n_stag":20,"theta_rec":0.5}},"transport":{"drop_prob":0.2,"jitter":2,"latency":3,"seed":5}}'
    ),
    "lockstep": (
        '{"rollout":{"blockage_schedule":[],"knowledge":"known","mode":"lockstep","policy":"deconav","r_int":0.5,"r_succ":1.0,"seed":5,"sensor":{"fov_deg":120.0,"range_m":5.0},"t_max":500,"tau":10,"trigger":{"cooldown":10,"epsilon_hyst":0.5,"n_stag":20,"theta_rec":0.5}},"transport":null}'
    ),
    "nested": (
        '{"rollout":{"blockage_schedule":[],"knowledge":"known","mode":"distributed","policy":"deconav","r_int":0.5,"r_succ":0.75,"seed":0,"sensor":{"fov_deg":90.0,"range_m":4.0},"t_max":500,"tau":10,"trigger":{"cooldown":4,"epsilon_hyst":0.25,"n_stag":15,"theta_rec":0.6}},"transport":{"drop_prob":0.0,"jitter":0,"latency":0,"seed":0}}'
    ),
    "scheduled": (
        '{"rollout":{"blockage_schedule":[[5,"c1"],[9,"c0"]],"knowledge":"known","mode":"lockstep","policy":"deconav","r_int":0.5,"r_succ":1.0,"seed":5,"sensor":{"fov_deg":120.0,"range_m":5.0},"t_max":500,"tau":10,"trigger":{"cooldown":10,"epsilon_hyst":0.5,"n_stag":20,"theta_rec":0.5}},"transport":null}'
    ),
    "static": (
        '{"rollout":{"blockage_schedule":[],"knowledge":"known","mode":"lockstep","policy":"static","r_int":0.5,"r_succ":1.0,"seed":5,"sensor":{"fov_deg":120.0,"range_m":5.0},"t_max":500,"tau":10,"trigger":{"cooldown":10,"epsilon_hyst":0.5,"n_stag":20,"theta_rec":0.5}},"transport":null}'
    ),
}


@pytest.mark.parametrize("name", sorted(SNAPSHOT_CONFIGS))
def test_run_config_snapshot_matches_pin(name):
    assert canonical_dumps(run_config_snapshot(*SNAPSHOT_CONFIGS[name])) == SNAPSHOT_GOLDENS[name]


# the one config value gen-scenes takes; the scene layout is scenegen's constants
GEN_SCENES_CONFIG = '{"count":3}'
PENDING_SHA256 = "b9badce1493710956fc735fe8984a815e9e455e1d57ebd8907b68eaf18ece024"


@pytest.fixture(scope="module")
def adjudication_export(tmp_path_factory):
    """The gen-scenes manifest of three scenes and the directory of their
    adjudication export."""
    root = tmp_path_factory.mktemp("adjudication")
    manifest = do_gen_scenes(3, 7, root / "scenes")
    _, pending = do_adjudicate_export(root / "scenes", root / "export", 7, 0.9, 0.85)
    assert pending > 0
    return manifest, root / "export"


def test_gen_scenes_manifest_config_matches_pin(adjudication_export):
    assert canonical_dumps(adjudication_export[0].config) == GEN_SCENES_CONFIG


def test_pending_file_matches_pinned_digest(adjudication_export):
    assert sha256_file(adjudication_export[1] / PENDING_NAME) == PENDING_SHA256


# scene file name -> sha256, per stage of the adjudication pipeline
SCENE_GOLDENS: dict[str, dict[str, str]] = {
    "scenes": {
        "s16328981090934116831.json": "278a6babdd9d8ba3f785c290f5b6715d2a99db5b0c2361200b391f981a1fb279",
        "s4690620825511744493.json": "6a4fdacb0473a362c709b3f666e09add76dee0db6e31c29c97fb577e115ff149",
        "s7539350997974570694.json": "100f5a954bc938f662486460c44356c0a8696b16803d6ee9fe3e99ad9bf6d8f2",
    },
    "export": {
        "s16328981090934116831.json": "b390f6540e771cc7bbedfa5172dbb60e8e9016ad57371e9fe855f9b498aaf334",
        "s4690620825511744493.json": "ccc6baddff74e7f5cae6eed096c2def3eecfbbf8a97087b68d3d130c6ada163f",
        "s7539350997974570694.json": "eaea3cf3888e330887177523fc1c52919c99e650084b234218674cab41ca1ab5",
    },
    "final": {
        "s16328981090934116831.json": "ce7fb90fa52e8f29882da21d3ca2ad80ab73e0c5ce520e1141420481339e700b",
        "s4690620825511744493.json": "9576115ccf6ce0fa364659a2ef917890f8a927f41a3f79ce0bf1d8325aade5d6",
        "s7539350997974570694.json": "eaea3cf3888e330887177523fc1c52919c99e650084b234218674cab41ca1ab5",
    },
}
# the first gen-scenes file with its first corridor blocked
BLOCKED_SCENE_SHA256 = "9a8536127a7d696627931ab1e37681757e0be5ca56deccbf1db303a792d0698e"


@pytest.fixture(scope="module")
def scene_stages(adjudication_export):
    """The directories of the gen-scenes files, of their adjudication export
    and of the scenes ``adjudicate import`` writes after ``adjudicate auto``."""
    export = adjudication_export[1]
    root = export.parent
    csv_path = root / "resolved.csv"
    assert do_adjudicate_auto(export, root / "scenes", csv_path) > 0
    do_adjudicate_import(export, csv_path, root / "final")
    return {stage: root / stage for stage in SCENE_GOLDENS}


@pytest.mark.parametrize("stage", sorted(SCENE_GOLDENS))
def test_scene_files_match_pinned_digests(scene_stages, stage):
    got = {p.name: sha256_file(p) for p in sorted(scene_stages[stage].glob("s*.json"))}
    assert got == SCENE_GOLDENS[stage]


def test_blocked_scene_file_matches_pinned_digest(scene_stages, tmp_path):
    scene = load_scene(min(scene_stages["scenes"].glob("s*.json")))
    path = tmp_path / "blocked.json"
    save_scene(apply_blockage(scene, min(scene.corridors)), path)
    assert sha256_file(path) == BLOCKED_SCENE_SHA256


# The canonical JSON of a 4-entry suite's entries, one list of episode,
# plan (with the detour_extra_m and swap_critical_m no trace writes), t_max
# and unblocked_ticks per entry.
SUITE_PARAMS = SuiteParams(n_episodes=4, seed=0)
SUITE_SHA256 = "2e401a26b4df0f2dfd0aaec5ad4027b7f1a7ea3ae84444886197163117d63b2e"


def test_suite_entries_match_pinned_digest():
    entries = [
        {
            "episode": e.episode.to_dict(),
            "plan": e.plan.to_dict(),
            "t_max": e.t_max,
            "unblocked_ticks": e.unblocked_ticks,
        }
        for e in build_blockage_suite(SUITE_PARAMS).entries
    ]
    assert hashlib.sha256(canonical_dumps(entries).encode()).hexdigest() == SUITE_SHA256


# Both entries of this suite swap once under the blockage, with one dialogue
# record. Keyed by episode id: sha256 of the trace bytes and of the result's
# canonical JSON, per mode.
SWAP_SUITE = SuiteParams(n_episodes=2, seed=42)
SWAP_TRANSPORT = TransportConfig(latency=3, jitter=2, drop_prob=0.2, seed=5)
SWAP_GOLDENS: dict[str, dict[str, tuple[str, str]]] = {
    "lockstep": {
        "s3947970651584937966-e6399595252512148991": (
            "afce20706685a1a2706c67651de6c6cecb8f6b6e726dedf85e862dc00a9d84df",
            "27adc0f4e788e792ccc0f54c6925c8dcd014764e8fb291ba3cb2c445b2725333",
        ),
        "s15736047159481383581-e4017598461771834363": (
            "e21cdf4e4f32803c8d4cbc614b5463609cbab0114a900803ea373ba51b988edc",
            "c7a6305ecacf8ae89e3ec7c1a7935f0320cb1fee3b8cf995c6d35ca7c683793c",
        ),
    },
    "distributed": {
        "s3947970651584937966-e6399595252512148991": (
            "cbc198ca4ff7ed2b84498a5b7392897f98762823df6b7e01cf53e1c71aceadd7",
            "27adc0f4e788e792ccc0f54c6925c8dcd014764e8fb291ba3cb2c445b2725333",
        ),
        "s15736047159481383581-e4017598461771834363": (
            "b312466a6ed65be17998fa382a71c66aa6d90837af1cb20691234345359822b4",
            "c7a6305ecacf8ae89e3ec7c1a7935f0320cb1fee3b8cf995c6d35ca7c683793c",
        ),
    },
}


@pytest.fixture(scope="module")
def swap_runs():
    """Lockstep, lossy and zero-latency distributed rollouts of each suite
    entry under its scheduled blockage, keyed by (mode, episode id)."""
    suite = build_blockage_suite(SWAP_SUITE)
    runs = {}
    for entry in suite.entries:
        cfg = replace(
            RolloutConfig(),
            policy="deconav",
            t_max=entry.t_max,
            blockage_schedule=((entry.plan.tick, entry.plan.corridor_id),),
        )
        scene, episode = suite.scenes[entry.episode.scene_id], entry.episode
        dist = replace(cfg, mode="distributed")
        eid = episode.episode_id
        runs["lockstep", eid] = run_lockstep(scene, episode, cfg)
        runs["distributed", eid] = run_distributed(scene, episode, dist, SWAP_TRANSPORT)
        runs["zero-latency", eid] = run_distributed(scene, episode, dist, TransportConfig())
    return runs


@pytest.mark.parametrize("mode", sorted(SWAP_GOLDENS))
def test_swap_runs_match_pinned_digests(swap_runs, mode):
    got = {}
    for (m, eid), (result, trace) in swap_runs.items():
        if m == mode:
            assert result.swap_count >= 1, eid
            got[eid] = (
                hashlib.sha256(trace.to_bytes()).hexdigest(),
                hashlib.sha256(canonical_dumps(result.to_dict()).encode()).hexdigest(),
            )
    assert got == SWAP_GOLDENS[mode]


def test_zero_latency_swap_runs_equal_lockstep(swap_runs):
    for eid in SWAP_GOLDENS["lockstep"]:
        _, lock = swap_runs["lockstep", eid]
        _, dist = swap_runs["zero-latency", eid]
        assert dist.to_bytes() == lock.to_bytes()
