"""The record codec: round trips, defaults and named format errors."""

from __future__ import annotations

import dataclasses
import importlib
import json
import math
import pkgutil
import re
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relaynav
from relaynav.ablation import BlockagePlan
from relaynav.bus import Observation, SemanticPacket
from relaynav.cli import (
    AdjudicateExportJob, AdjudicateImportJob, GenEpisodesJob, GenScenesJob, RunJob
)
from relaynav.config import (
    EpisodeOverride,
    RolloutConfig,
    SensorConfig,
    TransportConfig,
    TriggerConfig,
)
from relaynav.engine import PHASES, STATIC_PHASES, ItemState, RolloutResult
from relaynav.episodes import DatasetStats, EpisodeRejection, EpisodeSpec
from relaynav.gates import (
    GateReport,
    RecognizabilityReport,
    RoomConsistencyReport,
    VisibilityReport,
)
from relaynav.labeling import AdjudicationItem, LabelVote
from relaynav.manifest import RunManifest
from relaynav.metrics import EpisodeResult, MetricsReport
from relaynav.replan import (
    EVENT_KINDS,
    KEEP,
    PATH_BLOCKED,
    SWAP_SUBTASKS,
    TARGET_DISCOVERED,
    DialogueRecord,
    Event,
    ReplanDecision,
    make_payload,
)
from relaynav.serialize import Record, RecordFormatError, canonical_dumps
from relaynav.world import (
    PROVENANCES,
    ROOM_LABELS,
    TURN_DEG,
    UNKNOWN_LABEL,
    Corridor,
    Pose,
    Region,
    SceneGrid,
    SceneMeta,
    SceneObject,
)

finite = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
signed = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
# fields marked ROUNDED are written rounded, so only pre-rounded values survive
rounded = finite.map(lambda v: round(v, 6))
fraction = st.floats(min_value=0.0, max_value=1.0).map(lambda v: round(v, 6))
ne = finite | st.just(math.inf)
counts = st.integers(min_value=0, max_value=10_000)
names = st.text(max_size=12)
cells = st.tuples(st.integers(-5, 200), st.integers(-5, 200))
json_dicts = st.dictionaries(names, st.integers() | names | st.booleans(), max_size=3)

poses = st.builds(Pose, signed, signed, st.sampled_from(range(0, 360, TURN_DEG)))

rollout_results = st.builds(
    RolloutResult,
    episode_id=names,
    success_fh=st.booleans(),
    success_sh=st.booleans(),
    both_success=st.booleans(),
    path_len_fh_m=rounded,
    path_len_sh_m=rounded,
    ne_fh_m=ne,
    ne_sh_m=ne,
    subtasks_done_fh=counts,
    subtasks_done_sh=counts,
    subtasks_remaining_fh=counts,
    subtasks_remaining_sh=counts,
    ticks=counts,
    swap_count=counts,
    dialogue_count=counts,
)


@st.composite
def episode_results(draw):
    fh, sh = draw(st.booleans()), draw(st.booleans())
    return EpisodeResult(
        episode_id=draw(names),
        success_fh=fh,
        success_sh=sh,
        both_success=fh and sh and draw(st.booleans()),
        spl_fh=draw(fraction),
        spl_sh=draw(fraction),
        isr_fh=draw(fraction),
        isr_sh=draw(fraction),
        ne_fh_m=draw(ne),
        ne_sh_m=draw(ne),
        path_len_fh_m=draw(rounded),
        path_len_sh_m=draw(rounded),
        gt_length_fh_m=draw(rounded),
        gt_length_sh_m=draw(rounded),
        ticks=draw(counts),
        swap_count=draw(counts),
        dialogue_count=draw(counts),
    )


@st.composite
def metrics_reports(draw):
    sr = draw(fraction)
    return MetricsReport(
        sr=sr,
        bsr=round(sr * draw(st.floats(0.0, 1.0)), 6),
        isr=draw(fraction),
        spl=draw(fraction),
        ne=draw(ne),
        n_episodes=draw(st.integers(1, 500)),
    )


episode_specs = st.builds(
    EpisodeSpec,
    episode_id=names,
    scene_id=names,
    seed=st.integers(0, 2**64 - 1),
    instruction=names,
    target_object_id=names,
    handoff_fixture_id=names,
    delivery_anchor_id=names,
    pickup_room=names,
    handoff_room=names,
    delivery_room=names,
    pickup_waypoint=poses,
    handoff_waypoint=poses,
    delivery_waypoint=poses,
    start_pose_fh=poses,
    start_pose_sh=poses,
    gt_path_fh=st.lists(cells, max_size=6).map(tuple),
    gt_path_sh=st.lists(cells, max_size=6).map(tuple),
    gt_length_fh=finite,
    gt_length_sh=finite,
    subtasks_fh=st.lists(names, max_size=5).map(tuple),
    subtasks_sh=st.lists(names, max_size=5).map(tuple),
    gate_reports=st.dictionaries(names, json_dicts, max_size=3),
)

blockage_plans = st.builds(
    BlockagePlan,
    corridor_id=names,
    tick=counts,
    kind=st.sampled_from(["detour", "cut"]),
    detour_extra_m=rounded | st.just(math.inf),
    swap_critical_m=rounded,
)

run_manifests = st.builds(
    RunManifest,
    command=names,
    tool_version=names,
    seed=st.integers(0, 2**64 - 1),
    config=json_dicts,
    inputs=st.dictionaries(names, json_dicts, max_size=3),
    outputs=st.dictionaries(names, json_dicts, max_size=3),
)

sensor_configs = st.builds(SensorConfig, range_m=finite, fov_deg=finite)
trigger_configs = st.builds(
    TriggerConfig, theta_rec=finite, n_stag=counts, cooldown=counts, epsilon_hyst=finite
)
transport_configs = st.builds(
    TransportConfig,
    latency=counts,
    jitter=counts,
    drop_prob=finite,
    seed=st.integers(0, 2**64 - 1),
)
rollout_configs = st.builds(
    RolloutConfig,
    mode=names,
    t_max=counts,
    r_succ=finite,
    blockage_schedule=st.lists(st.tuples(counts, names), max_size=3).map(tuple),
    sensor=sensor_configs,
    trigger=trigger_configs,
)
gen_scenes_jobs = st.builds(GenScenesJob, counts)
gen_episodes_jobs = st.builds(GenEpisodesJob, counts, names)
run_jobs = st.builds(
    RunJob, rollout_configs, st.none() | transport_configs, names, names, st.none() | names
)
adjudicate_export_jobs = st.builds(
    AdjudicateExportJob, names, st.floats(0.0, 1.0), st.floats(0.0, 1.0)
)
adjudicate_import_jobs = st.builds(AdjudicateImportJob, names, names)
label_votes = st.builds(LabelVote, names, names, finite)
adjudication_items = st.builds(
    AdjudicationItem, names, names, st.tuples(label_votes, label_votes, label_votes)
)

visibility_reports = st.builds(VisibilityReport, st.booleans(), finite, signed)
room_consistency_reports = st.builds(RoomConsistencyReport, st.booleans(), names, names)
recognizability_reports = st.builds(RecognizabilityReport, st.booleans(), finite, finite)
gate_reports = st.builds(
    GateReport,
    visibility=visibility_reports,
    room_consistency=room_consistency_reports,
    recognizability=recognizability_reports,
    passed=st.booleans(),
)
episode_rejections = st.builds(
    EpisodeRejection, scene_id=names, seed=st.integers(0, 2**64 - 1), stop=names, tallies=json_dicts
)
dataset_stats = st.builds(
    DatasetStats,
    task_count=counts,
    scene_count=counts,
    steps_per_robot_mean=finite,
    steps_per_robot_std=finite,
    path_per_robot_mean_m=finite,
    path_per_robot_std_m=finite,
    combined_path_mean_m=finite,
    combined_path_std_m=finite,
)
cell_sets = st.frozensets(cells, max_size=6)
labels = st.sampled_from((*ROOM_LABELS, UNKNOWN_LABEL))
regions = st.builds(
    Region,
    region_id=names,
    cells=cell_sets,
    room_label=labels,
    label_provenance=st.sampled_from(PROVENANCES),
    gt_room_label=labels,
)
scene_objects = st.builds(
    SceneObject,
    object_id=names,
    category=names,
    cell=cells,
    region_id=names,
    salience=st.floats(0.0, 1.0),
    occlusion=st.floats(0.0, 1.0),
)
corridors = st.builds(
    Corridor,
    corridor_id=names,
    gate_cells=cell_sets,
    joins=st.tuples(names, names),
    blocked=st.booleans(),
)

scene_metas = st.builds(SceneMeta, names, st.integers(0, 2**64 - 1), finite)
scene_grids = st.builds(SceneGrid, counts, counts, st.lists(cells, max_size=6).map(tuple))
episode_overrides = st.builds(
    EpisodeOverride,
    blockages=st.lists(st.tuples(counts, names), max_size=3).map(tuple),
    t_max=st.none() | counts,
)

observations = st.builds(Observation, names, cells, st.floats(0.0, 1.0))
semantic_packets = st.builds(
    SemanticPacket,
    robot_id=names,
    ts=counts,
    current_room=names,
    observations=st.lists(observations, max_size=3).map(tuple),
    stage=names,
    carrying=st.booleans(),
    stopped=st.booleans(),
)
# what a payload holds: scalars, cells, edges (pairs of cells); a tuple is
# written as a list and read back as a tuple
payload_values = st.recursive(
    st.none() | st.booleans() | st.integers() | finite | names,
    lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=6,
)
payloads = st.dictionaries(names, payload_values, max_size=4).map(lambda d: make_payload(**d))
events = st.builds(
    Event, kind=st.sampled_from(sorted(EVENT_KINDS)), tick=counts, robot_id=names, payload=payloads
)
replan_decisions = st.builds(ReplanDecision, kind=names, payload=payloads)
dialogue_records = st.builds(
    DialogueRecord,
    tick=counts,
    trigger=names,
    initiator=names,
    summary=names,
    decision=replan_decisions,
)
item_states = st.builds(
    ItemState, st.sampled_from(sorted(STATIC_PHASES)), cells, st.none()
) | st.builds(
    ItemState, st.sampled_from([p for p in PHASES if p not in STATIC_PHASES]), st.none(), names
)

RECORDS = {
    Pose: poses,
    RolloutResult: rollout_results,
    EpisodeResult: episode_results(),
    MetricsReport: metrics_reports(),
    EpisodeSpec: episode_specs,
    BlockagePlan: blockage_plans,
    RunManifest: run_manifests,
    SensorConfig: sensor_configs,
    TriggerConfig: trigger_configs,
    TransportConfig: transport_configs,
    RolloutConfig: rollout_configs,
    GenScenesJob: gen_scenes_jobs,
    GenEpisodesJob: gen_episodes_jobs,
    RunJob: run_jobs,
    AdjudicateExportJob: adjudicate_export_jobs,
    AdjudicateImportJob: adjudicate_import_jobs,
    LabelVote: label_votes,
    AdjudicationItem: adjudication_items,
    DialogueRecord: dialogue_records,
    VisibilityReport: visibility_reports,
    RoomConsistencyReport: room_consistency_reports,
    RecognizabilityReport: recognizability_reports,
    GateReport: gate_reports,
    EpisodeRejection: episode_rejections,
    DatasetStats: dataset_stats,
    Region: regions,
    SceneObject: scene_objects,
    Corridor: corridors,
    SceneMeta: scene_metas,
    SceneGrid: scene_grids,
    EpisodeOverride: episode_overrides,
    Observation: observations,
    SemanticPacket: semantic_packets,
    Event: events,
    ReplanDecision: replan_decisions,
    ItemState: item_states,
}


def _record_classes() -> set[type]:
    """Every subclass of ``Record`` defined in the package, at any depth."""
    for module in pkgutil.iter_modules(relaynav.__path__):
        importlib.import_module(f"relaynav.{module.name}")
    found, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.add(sub)
                todo.append(sub)
    return {cls for cls in found if cls.__module__.startswith("relaynav.")}


def test_every_record_class_has_a_strategy():
    assert set(RECORDS) == _record_classes()


def format_error(cls) -> type[ValueError]:
    return cls.format_error


def through_json(record) -> dict:
    return json.loads(canonical_dumps(record.to_dict()))


def required_fields(cls) -> list[str]:
    return [
        f.name
        for f in dataclasses.fields(cls)
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    ]


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda c: c.__name__)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_round_trip_through_canonical_json(cls, data):
    record = data.draw(RECORDS[cls])
    assert cls.from_dict(through_json(record)) == record


@pytest.mark.parametrize(
    "cls", [c for c in RECORDS if required_fields(c)], ids=lambda c: c.__name__
)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_missing_field_is_named(cls, data):
    d = through_json(data.draw(RECORDS[cls]))
    name = data.draw(st.sampled_from(required_fields(cls)))
    del d[name]
    with pytest.raises(format_error(cls), match=f"{cls.__name__}: missing field '{name}'"):
        cls.from_dict(d)


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda c: c.__name__)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_mistyped_field_is_named(cls, data):
    d = through_json(data.draw(RECORDS[cls]))
    name = data.draw(st.sampled_from(sorted(d)))
    d[name] = 5 if typing.get_type_hints(cls)[name] in (str, str | None) else "five"
    with pytest.raises(format_error(cls), match=f"{cls.__name__}: field '{name}' cannot hold"):
        cls.from_dict(d)


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda c: c.__name__)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_unknown_field_is_named(cls, data):
    d = through_json(data.draw(RECORDS[cls]))
    d["extra"] = data.draw(st.integers() | names)
    with pytest.raises(format_error(cls), match=f"{cls.__name__}: unknown field 'extra'"):
        cls.from_dict(d)


# every float (non-finite ones too) and any unicode text, nested
json_trees = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(json_trees)
def test_canonical_dumps_equals_json_dumps(value):
    want = json.dumps(value, sort_keys=True, separators=(",", ":"))
    assert canonical_dumps(value) == want


def test_canonical_dumps_raises_what_json_dumps_raises():
    cyclic: list = []
    cyclic.append(cyclic)
    for value in (cyclic, {"a": object()}, {1: 2, "a": 3}):
        with pytest.raises(Exception) as want:
            json.dumps(value, sort_keys=True, separators=(",", ":"))
        with pytest.raises(type(want.value), match=re.escape(str(want.value))):
            canonical_dumps(value)


def test_int_in_float_field_reads_as_float():
    pose = Pose.from_dict({"x": 1, "y": -2, "heading": 90})
    assert canonical_dumps(pose.to_dict()) == '{"heading":90,"x":1.0,"y":-2.0}'


@pytest.mark.parametrize("value", [math.nan, -math.inf])
def test_nan_and_negative_infinity_are_not_written(value):
    with pytest.raises(ValueError, match="no canonical JSON form"):
        Pose(value, 0.0, 0).to_dict()


def test_missing_defaulted_fields_take_defaults():
    manifest = RunManifest.from_dict(
        {"command": "run", "tool_version": "0.1.0", "seed": 1, "config": {}}
    )
    assert manifest.inputs == {} and manifest.outputs == {}


def test_nested_record_error_names_the_path(scene_episode):
    spec = through_json(scene_episode[1])
    del spec["pickup_waypoint"]["heading"]
    with pytest.raises(
        RecordFormatError, match="EpisodeSpec: field 'pickup_waypoint': Pose: missing field 'heading'"
    ):
        EpisodeSpec.from_dict(spec)
    spec["pickup_waypoint"] = [1.0, 2.0, 0]
    with pytest.raises(RecordFormatError, match="field 'pickup_waypoint' cannot hold"):
        EpisodeSpec.from_dict(spec)


@pytest.mark.parametrize("value", [True, 1.5, "7", None])
def test_int_fields_take_only_ints(value):
    d = through_json(Pose(0.0, 0.0, 90))
    d["heading"] = value
    with pytest.raises(RecordFormatError, match="field 'heading'"):
        Pose.from_dict(d)


@pytest.mark.parametrize(
    "change, match",
    [({"heading": 7}, "Pose: heading must be"), ({"x": 10**400}, "field 'x' cannot hold")],
)
def test_values_the_class_refuses_are_format_errors(change, match):
    d = {**through_json(Pose(0.0, 0.0, 90)), **change}
    with pytest.raises(RecordFormatError, match=match):
        Pose.from_dict(d)


def test_non_object_is_a_format_error():
    with pytest.raises(RecordFormatError, match="RolloutResult: expected an object"):
        RolloutResult.from_dict(["not", "a", "record"])


# the bytes each per-tick record writes into a trace line
PER_TICK_PINS = [
    (
        SemanticPacket(
            "FH", 7, "Kitchen",
            (Observation("cup", (3, 4), 0.75), Observation("book", (5, 6), 1.0)),
            "pickup", False, True,
        ),
        {
            "robot_id": "FH",
            "ts": 7,
            "current_room": "Kitchen",
            "observations": [
                {"category": "cup", "cell": [3, 4], "score": 0.75},
                {"category": "book", "cell": [5, 6], "score": 1.0},
            ],
            "stage": "pickup",
            "carrying": False,
            "stopped": True,
        },
    ),
    (
        Event(
            TARGET_DISCOVERED, 5, "SH",
            make_payload(category="cup", cell=(3, 4), score=0.75, source="self"),
        ),
        {
            "kind": "TargetDiscovered",
            "tick": 5,
            "robot_id": "SH",
            "payload": {"category": "cup", "cell": [3, 4], "score": 0.75, "source": "self"},
        },
    ),
    (
        Event(PATH_BLOCKED, 12, "FH", make_payload(edge=((1, 2), (1, 3)))),
        {"kind": "PathBlocked", "tick": 12, "robot_id": "FH", "payload": {"edge": [[1, 2], [1, 3]]}},
    ),
    (ItemState("AtPickup", (3, 4)), {"phase": "AtPickup", "cell": [3, 4], "carrier": None}),
    (ItemState("CarriedBySH", None, "SH"), {"phase": "CarriedBySH", "cell": None, "carrier": "SH"}),
    (KEEP, {"kind": "KeepAssignment", "payload": {}}),
    (
        ReplanDecision(SWAP_SUBTASKS, make_payload(keep_cost="inf", swap_cost=12.5, initiator="FH")),
        {
            "kind": "SwapSubtasks",
            "payload": {"initiator": "FH", "keep_cost": "inf", "swap_cost": 12.5},
        },
    ),
]


@pytest.mark.parametrize("record, want", PER_TICK_PINS, ids=lambda v: type(v).__name__)
def test_per_tick_record_writes_its_pinned_bytes(record, want):
    # compared as canonical JSON, where 1 and 1.0 or true and 1 differ
    assert canonical_dumps(record.to_dict()) == canonical_dumps(want)


def test_subclass_writes_its_own_fields_after_its_base_has_written():
    @dataclasses.dataclass(frozen=True)
    class Base(Record):
        a: int

    @dataclasses.dataclass(frozen=True)
    class Sub(Base):
        b: int

    assert Base(1).to_dict() == {"a": 1}
    assert Sub(1, 2).to_dict() == {"a": 1, "b": 2}


def test_tuple_of_items_written_differently_is_refused_when_the_writer_is_built():
    @dataclasses.dataclass(frozen=True)
    class Mixed(Record):
        pair: tuple[int, float]

    with pytest.raises(TypeError, match="items need different writers"):
        Mixed((1, 2.0)).to_dict()


@pytest.mark.parametrize(
    "cls, name, bad", [(EpisodeSpec, "gt_path_fh", [0.9, 0]), (Region, "cells", [1, "2"])]
)
def test_mistyped_item_is_named_by_its_index(scene_episode, cls, name, bad):
    scene, episode = scene_episode
    d = through_json(episode if cls is EpisodeSpec else scene.regions[min(scene.regions)])
    # a long list, so that writing all of it would make a message of kilobytes
    d[name] = [[x, 1] for x in range(400)] + [bad] + [[0, 0]] * 50
    with pytest.raises(cls.format_error) as caught:
        cls.from_dict(d)
    message = str(caught.value)
    assert message == f"{cls.__name__}: field {name!r} item 400 cannot hold {bad!r}"
    assert len(message) < 80
