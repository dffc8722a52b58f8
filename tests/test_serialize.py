"""The record codec: round trips, defaults and named format errors."""

from __future__ import annotations

import dataclasses
import json
import math
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaynav.ablation import BlockagePlan
from relaynav.engine import RolloutResult
from relaynav.episodes import EpisodeSpec
from relaynav.manifest import ManifestError, RunManifest
from relaynav.metrics import EpisodeResult, MetricsReport
from relaynav.serialize import RecordFormatError, canonical_dumps
from relaynav.world import TURN_DEG, Pose

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

RECORDS = {
    Pose: poses,
    RolloutResult: rollout_results,
    EpisodeResult: episode_results(),
    MetricsReport: metrics_reports(),
    EpisodeSpec: episode_specs,
    BlockagePlan: blockage_plans,
    RunManifest: run_manifests,
}


def format_error(cls) -> type[ValueError]:
    return ManifestError if cls is RunManifest else RecordFormatError


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


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda c: c.__name__)
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
    d[name] = 5 if typing.get_type_hints(cls)[name] is str else "five"
    with pytest.raises(format_error(cls), match=f"{cls.__name__}: field '{name}' cannot hold"):
        cls.from_dict(d)


def test_missing_defaulted_fields_take_defaults():
    manifest = RunManifest.from_dict(
        {"command": "run", "tool_version": "0.1.0", "seed": 1, "config": {}}
    )
    assert manifest.inputs == {} and manifest.outputs == {}


def test_nested_record_error_names_the_path(scene_episode):
    spec = through_json(scene_episode[1])
    del spec["pickup_waypoint"]["heading"]
    with pytest.raises(
        RecordFormatError, match="EpisodeSpec.pickup_waypoint: Pose: missing field 'heading'"
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

