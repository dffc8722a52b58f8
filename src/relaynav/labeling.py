"""Room label verification: rule classifier, three-way vote, adjudication.

Labels are assigned by a cascade. Stage 1 scores each region against the
signature-object table; a full-signature hit resolves the region immediately.
Everything else is put to a three-way majority vote between the rule result
and two pluggable panorama classifiers. Regions without a majority become
adjudication items that round-trip through a CSV file for human resolution.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Mapping, Protocol

from .seeds import derive_seed
from .serialize import Record
from .world import (
    PROVENANCE_ADJUDICATED,
    PROVENANCE_RULE,
    PROVENANCE_VOTE,
    ROOM_LABELS,
    ROOM_SIGNATURES,
    Region,
    SceneGraph,
    SceneObject,
    UNKNOWN_LABEL,
)

VOTE_SOURCES = ("rule", "classifier_a", "classifier_b")
# the rule confidence that resolves a region without a vote: a full signature
RULE_ACCEPT = 1.0


class AdjudicationError(ValueError):
    """Raised when an adjudication file is incomplete or inconsistent."""


class ClassifierUnavailable(RuntimeError):
    """Raised by classifier clients on timeout or outage."""


@dataclass(frozen=True)
class LabelVote(Record):
    source: str
    label: str
    confidence: float


@dataclass(frozen=True)
class AdjudicationItem(Record):
    """A region the vote left unresolved; ``pending.json`` holds these."""

    scene_id: str
    region_id: str
    votes: tuple[LabelVote, LabelVote, LabelVote]

    def vote_by_source(self, source: str) -> LabelVote:
        for v in self.votes:
            if v.source == source:
                return v
        raise KeyError(source)


def rtsa_rule_classify(region: Region, objects: list[SceneObject]) -> tuple[str, float]:
    """Label by signature-object hits.

    Returns the room type with the unique maximal hit count and confidence
    ``hits / len(signature)``; ties or zero hits yield ``(Unknown, 0.0)``.
    """
    for obj in objects:
        if obj.region_id != region.region_id:
            raise ValueError(f"object {obj.object_id} does not belong to {region.region_id}")
    present = {o.category for o in objects}
    hits = {
        room: len(present.intersection(sig))
        for room, sig in ROOM_SIGNATURES.items()
        if sig
    }
    best = max(hits.values())
    winners = sorted(room for room, n in hits.items() if n == best)
    if best == 0 or len(winners) != 1:
        return UNKNOWN_LABEL, 0.0
    room = winners[0]
    return room, best / len(ROOM_SIGNATURES[room])


def rtsa_vote(
    votes: list[LabelVote],
    *,
    scene_id: str = "",
    region_id: str = "",
) -> str | AdjudicationItem:
    """Majority label over exactly three votes; Unknown never counts.

    Without a two-vote majority the region is handed to adjudication.
    """
    if len(votes) != 3:
        raise ValueError("rtsa_vote requires exactly three votes")
    if sorted(v.source for v in votes) != sorted(VOTE_SOURCES):
        raise ValueError(f"votes must carry one each of sources {VOTE_SOURCES}")
    counts: dict[str, int] = {}
    for v in votes:
        if v.label != UNKNOWN_LABEL:
            counts[v.label] = counts.get(v.label, 0) + 1
    for label in sorted(counts):
        if counts[label] >= 2:
            return label
    ordered = tuple(sorted(votes, key=lambda v: VOTE_SOURCES.index(v.source)))
    return AdjudicationItem(scene_id=scene_id, region_id=region_id, votes=ordered)


# --- classifier clients ---------------------------------------------------

@dataclass(frozen=True)
class ClassifyRequest:
    scene_id: str
    region_id: str
    inventory: tuple[str, ...]  # sorted object categories seen in the region


@dataclass(frozen=True)
class ClassifyResponse:
    label: str
    confidence: float


class PanoramaClassifier(Protocol):
    source: str

    def classify(self, request: ClassifyRequest) -> ClassifyResponse: ...


@dataclass(frozen=True)
class SeededNoisyClassifier:
    """Test double: answers the ground-truth label with probability
    ``accuracy``, otherwise a uniformly random wrong room label. Responses are
    a pure function of (seed, source, scene_id, region_id)."""

    source: str
    accuracy: float
    seed: int
    truth: Callable[[str, str], str]

    def classify(self, request: ClassifyRequest) -> ClassifyResponse:
        rng = random.Random(
            derive_seed(self.seed, self.source, request.scene_id, request.region_id)
        )
        gt = self.truth(request.scene_id, request.region_id)
        if rng.random() < self.accuracy:
            return ClassifyResponse(gt, self.accuracy)
        wrong = sorted(set(ROOM_LABELS) - {gt})
        return ClassifyResponse(rng.choice(wrong), self.accuracy)


def scene_truth_lookup(scenes: list[SceneGraph]) -> Callable[[str, str], str]:
    table = {
        (s.scene_id, rid): s.regions[rid].gt_room_label
        for s in scenes
        for rid in s.regions
    }
    return lambda scene_id, region_id: table[(scene_id, region_id)]


def classify_region(
    client: PanoramaClassifier, scene: SceneGraph, region: Region
) -> LabelVote:
    """One classifier call for one region; may raise ClassifierUnavailable."""
    inventory = tuple(sorted(o.category for o in scene.objects_in_region(region.region_id)))
    resp = client.classify(ClassifyRequest(scene.scene_id, region.region_id, inventory))
    return LabelVote(source=client.source, label=resp.label, confidence=resp.confidence)


# --- pipeline -------------------------------------------------------------

@dataclass
class LabelingResult:
    scene: SceneGraph
    items: list[AdjudicationItem]


def run_labeling(
    scene: SceneGraph,
    client_a: PanoramaClassifier,
    client_b: PanoramaClassifier,
) -> LabelingResult:
    """Relabel every region through the cascade.

    Regions the cascade cannot resolve are set to Unknown and reported as
    adjudication items; a classifier outage likewise defers the region to
    adjudication rather than guessing.
    """
    regions: dict[str, Region] = {}
    items: list[AdjudicationItem] = []
    for rid in sorted(scene.regions):
        region = scene.regions[rid]
        objs = scene.objects_in_region(rid)
        label, conf = rtsa_rule_classify(region, objs)
        if label != UNKNOWN_LABEL and conf >= RULE_ACCEPT:
            regions[rid] = replace(region, room_label=label, label_provenance=PROVENANCE_RULE)
            continue
        rule_vote = LabelVote("rule", label, conf)
        try:
            votes = [
                rule_vote,
                classify_region(client_a, scene, region),
                classify_region(client_b, scene, region),
            ]
        except ClassifierUnavailable:
            # only the rule vote counts, and one vote makes no majority
            votes = [
                rule_vote,
                LabelVote("classifier_a", UNKNOWN_LABEL, 0.0),
                LabelVote("classifier_b", UNKNOWN_LABEL, 0.0),
            ]
        outcome = rtsa_vote(votes, scene_id=scene.scene_id, region_id=rid)
        if isinstance(outcome, AdjudicationItem):
            items.append(outcome)
            outcome = UNKNOWN_LABEL
        regions[rid] = replace(region, room_label=outcome, label_provenance=PROVENANCE_VOTE)
    # the same grid and cells: the copy keeps the source's cell index and caches
    return LabelingResult(scene=replace(scene, regions=regions), items=items)


# --- adjudication file workflow -------------------------------------------

ADJUDICATION_COLUMNS = (
    "scene_id",
    "region_id",
    "vote_rule",
    "vote_a",
    "vote_b",
    "resolved_label",
)


def export_adjudication(
    items: list[AdjudicationItem],
    path: str | Path,
    resolved: Mapping[tuple[str, str], str] | None = None,
) -> None:
    """Write unresolved items to CSV in (scene_id, region_id) order. The
    resolved_label column holds ``resolved[(scene_id, region_id)]``, and is
    empty for a region ``resolved`` lacks or when it is not given."""
    resolved = resolved or {}
    rows = sorted(items, key=lambda i: (i.scene_id, i.region_id))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(ADJUDICATION_COLUMNS)
        for item in rows:
            writer.writerow(
                [
                    item.scene_id,
                    item.region_id,
                    item.vote_by_source("rule").label,
                    item.vote_by_source("classifier_a").label,
                    item.vote_by_source("classifier_b").label,
                    resolved.get((item.scene_id, item.region_id), ""),
                ]
            )


def import_adjudication(
    path: str | Path, pending: list[AdjudicationItem]
) -> dict[tuple[str, str], str]:
    """Read resolutions back; every pending item must be resolved to a real
    room label. Returns {(scene_id, region_id): label}."""
    resolutions: dict[tuple[str, str], str] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or tuple(reader.fieldnames) != ADJUDICATION_COLUMNS:
            raise AdjudicationError(f"bad adjudication header in {path}")
        for row in reader:
            if None in row or None in row.values():  # more or fewer fields than the header
                raise AdjudicationError(
                    f"{path}:{reader.line_num}: a row needs "
                    f"{len(ADJUDICATION_COLUMNS)} fields, got {list(row.values())!r}"
                )
            key = (row["scene_id"], row["region_id"])
            label = row["resolved_label"].strip()
            if not label:
                continue
            if label not in ROOM_LABELS:
                raise AdjudicationError(
                    f"resolved_label {label!r} for region {key!r} is not a room label"
                )
            resolutions[key] = label
    missing = sorted(
        (item.scene_id, item.region_id)
        for item in pending
        if (item.scene_id, item.region_id) not in resolutions
    )
    if missing:
        raise AdjudicationError(
            f"unresolved regions in {path}: {', '.join(map(repr, missing))}"
        )
    return resolutions


def apply_adjudication(
    scene: SceneGraph, resolutions: Mapping[tuple[str, str], str]
) -> SceneGraph:
    regions = dict(scene.regions)
    for (scene_id, region_id), label in resolutions.items():
        if scene_id != scene.scene_id or region_id not in regions:
            continue
        regions[region_id] = replace(
            regions[region_id], room_label=label, label_provenance=PROVENANCE_ADJUDICATED
        )
    return replace(scene, regions=regions)


def label_quality(scenes: list[SceneGraph]) -> dict:
    """Coverage and correctness of current labels against generator truth."""
    total = labelled = correct = 0
    for scene in scenes:
        for rid in sorted(scene.regions):
            region = scene.regions[rid]
            total += 1
            if region.room_label != UNKNOWN_LABEL:
                labelled += 1
                if region.room_label == region.gt_room_label:
                    correct += 1
    return {
        "total_regions": total,
        "labelled": labelled,
        "coverage": labelled / total if total else 0.0,
        "correctness": correct / labelled if labelled else 0.0,
    }
