"""Room labeling cascade: rule, three-source vote, adjudication round-trip."""

from __future__ import annotations

import random

import pytest

from relaynav import labeling
from relaynav.labeling import (
    AdjudicationError,
    AdjudicationItem,
    ClassifierUnavailable,
    LabelVote,
    SeededNoisyClassifier,
    apply_adjudication,
    export_adjudication,
    import_adjudication,
    label_quality,
    rtsa_rule_classify,
    rtsa_vote,
    run_labeling,
    scene_truth_lookup,
)
from relaynav.scenegen import generate_scene
from relaynav.world import (
    PROVENANCE_ADJUDICATED,
    PROVENANCE_RULE,
    PROVENANCE_VOTE,
    ROOM_LABELS,
    UNKNOWN_LABEL,
    Region,
    SceneObject,
)


def region_with(categories, rid="r0", label="Kitchen"):
    cells = frozenset({(i, 0) for i in range(len(categories) + 1)})
    region = Region(rid, cells, label, "generator-ground-truth", label)
    objects = [
        SceneObject(f"o{i}", cat, (i, 0), rid, 0.9, 0.1)
        for i, cat in enumerate(categories)
    ]
    return region, objects


class TestRule:
    def test_unique_signature_hit_wins(self):
        region, objects = region_with(["stove", "refrigerator", "rock"])
        label, conf = rtsa_rule_classify(region, objects)
        assert label == "Kitchen"
        assert conf == 1.0

    def test_tied_hits_yield_unknown(self):
        region, objects = region_with(["stove", "bed"])
        assert rtsa_rule_classify(region, objects) == (UNKNOWN_LABEL, 0.0)

    def test_no_hits_is_unknown(self):
        region, objects = region_with(["rock"])
        assert rtsa_rule_classify(region, objects) == (UNKNOWN_LABEL, 0.0)

    def test_empty_region_is_unknown(self):
        region, _ = region_with([])
        assert rtsa_rule_classify(region, []) == (UNKNOWN_LABEL, 0.0)

    def test_foreign_object_rejected(self):
        region, _ = region_with(["stove"])
        stray = SceneObject("ox", "stove", (0, 0), "other", 0.5, 0.5)
        with pytest.raises(ValueError):
            rtsa_rule_classify(region, [stray])


class TestVote:
    def vote(self, rule, a, b):
        return rtsa_vote(
            [
                LabelVote("rule", rule, 0.5),
                LabelVote("classifier_a", a, 0.9),
                LabelVote("classifier_b", b, 0.85),
            ],
            scene_id="s",
            region_id="r",
        )

    def test_two_vote_majority(self):
        assert self.vote("Kitchen", "Kitchen", "Bedroom") == "Kitchen"
        assert self.vote("Bedroom", "Kitchen", "Kitchen") == "Kitchen"

    def test_unknown_never_counts(self):
        assert self.vote(UNKNOWN_LABEL, "Kitchen", "Kitchen") == "Kitchen"
        out = self.vote(UNKNOWN_LABEL, UNKNOWN_LABEL, "Kitchen")
        assert isinstance(out, AdjudicationItem)

    def test_three_way_split_goes_to_adjudication(self):
        out = self.vote("Kitchen", "Bedroom", "Bathroom")
        assert isinstance(out, AdjudicationItem)
        assert out.scene_id == "s" and out.region_id == "r"
        assert [v.source for v in out.votes] == ["rule", "classifier_a", "classifier_b"]

    def test_vote_count_and_sources_enforced(self):
        with pytest.raises(ValueError):
            rtsa_vote([LabelVote("rule", "Kitchen", 1.0)] * 2)
        with pytest.raises(ValueError):
            rtsa_vote([LabelVote("rule", "Kitchen", 1.0)] * 3)


class FailingClassifier:
    source = "classifier_a"

    def classify(self, request):
        raise ClassifierUnavailable("offline")


@pytest.fixture(scope="module")
def relabeled():
    scene = generate_scene(13)
    truth = scene_truth_lookup([scene])
    a = SeededNoisyClassifier("classifier_a", 0.9, 7, truth)
    b = SeededNoisyClassifier("classifier_b", 0.85, 7, truth)
    return scene, run_labeling(scene, a, b)


class TestCascade:
    def test_every_region_labeled_or_deferred(self, relabeled):
        scene, result = relabeled
        pending = {item.region_id for item in result.items}
        for rid, region in result.scene.regions.items():
            if rid in pending:
                assert region.room_label == UNKNOWN_LABEL
                assert region.label_provenance == PROVENANCE_VOTE
            else:
                assert region.room_label != UNKNOWN_LABEL
                assert region.label_provenance in (PROVENANCE_RULE, PROVENANCE_VOTE)

    def test_truth_untouched_by_relabeling(self, relabeled):
        scene, result = relabeled
        for rid in scene.regions:
            assert result.scene.regions[rid].gt_room_label == scene.regions[rid].gt_room_label

    def test_classifier_outage_defers_instead_of_guessing(self, monkeypatch):
        scene = generate_scene(13)
        truth = scene_truth_lookup([scene])
        b = SeededNoisyClassifier("classifier_b", 0.85, 7, truth)
        # a rule confidence no region reaches forces every region past the rule stage
        monkeypatch.setattr(labeling, "RULE_ACCEPT", 2.0)
        result = run_labeling(scene, FailingClassifier(), b)
        assert len(result.items) == len(scene.regions)
        for region in result.scene.regions.values():
            assert region.room_label == UNKNOWN_LABEL
            assert region.label_provenance == PROVENANCE_VOTE
        # the rule's own vote, then both classifiers as Unknown at 0.0
        for item, rid in zip(result.items, sorted(scene.regions)):
            rule = rtsa_rule_classify(scene.regions[rid], scene.objects_in_region(rid))
            assert (item.scene_id, item.region_id) == (scene.scene_id, rid)
            assert item.votes == (
                LabelVote("rule", *rule),
                LabelVote("classifier_a", UNKNOWN_LABEL, 0.0),
                LabelVote("classifier_b", UNKNOWN_LABEL, 0.0),
            )


class AlwaysWrongClassifier:
    """Returns a wrong label; two instances with different shifts never agree."""

    def __init__(self, source, truth, shift):
        self.source = source
        self.truth = truth
        self.shift = shift

    def classify(self, request):
        from relaynav.labeling import ClassifyResponse

        gt = self.truth(request.scene_id, request.region_id)
        idx = ROOM_LABELS.index(gt) if gt in ROOM_LABELS else 0
        return ClassifyResponse(ROOM_LABELS[(idx + self.shift) % len(ROOM_LABELS)], 0.5)


class TestAdjudicationFiles:
    @pytest.fixture(autouse=True)
    def no_rule_stage(self, monkeypatch):
        monkeypatch.setattr(labeling, "RULE_ACCEPT", 2.0)

    @staticmethod
    def pending_everywhere(scene, truth):
        """Force every region to adjudication: no region passes the rule stage
        (``no_rule_stage``), and the rule is outvoted by two wrong but mutually
        disagreeing classifiers, so no label reaches majority."""
        a = AlwaysWrongClassifier("classifier_a", truth, 1)
        b = AlwaysWrongClassifier("classifier_b", truth, 2)
        return run_labeling(scene, a, b)

    def test_export_import_apply_closure(self, tmp_path):
        scene = generate_scene(13)
        truth = scene_truth_lookup([scene])
        result = self.pending_everywhere(scene, truth)
        assert len(result.items) == len(scene.regions)

        csv_path = tmp_path / "adjudication.csv"
        export_adjudication(result.items, csv_path)
        # resolve every row with generator truth, as an annotator would
        text = csv_path.read_text(encoding="utf-8").splitlines()
        header, rows = text[0], text[1:]
        resolved = [header]
        for row in rows:
            scene_id, region_id = row.split(",", 2)[:2]
            resolved.append(row[: row.rfind(",")] + "," + truth(scene_id, region_id))
        csv_path.write_text("\n".join(resolved) + "\n", encoding="utf-8")

        resolutions = import_adjudication(csv_path, result.items)
        final = apply_adjudication(result.scene, resolutions)
        quality = label_quality([final])
        assert quality["coverage"] == 1.0
        assert quality["correctness"] == 1.0
        for item in result.items:
            assert final.regions[item.region_id].label_provenance == PROVENANCE_ADJUDICATED

    def test_import_rejects_incomplete_file(self, tmp_path):
        scene = generate_scene(13)
        truth = scene_truth_lookup([scene])
        result = self.pending_everywhere(scene, truth)
        csv_path = tmp_path / "adjudication.csv"
        export_adjudication(result.items, csv_path)  # no resolutions filled in
        with pytest.raises(AdjudicationError):
            import_adjudication(csv_path, result.items)

    def test_import_rejects_non_room_label(self, tmp_path):
        scene = generate_scene(13)
        truth = scene_truth_lookup([scene])
        result = self.pending_everywhere(scene, truth)
        csv_path = tmp_path / "adjudication.csv"
        export_adjudication(result.items, csv_path)
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        fixed = [lines[0]] + [l[: l.rfind(",")] + ",Spaceship" for l in lines[1:]]
        csv_path.write_text("\n".join(fixed) + "\n", encoding="utf-8")
        with pytest.raises(AdjudicationError):
            import_adjudication(csv_path, result.items)


class TestNoisyClassifier:
    def test_deterministic_and_accuracy_zero_never_truthful(self):
        scene = generate_scene(13)
        truth = scene_truth_lookup([scene])
        clf = SeededNoisyClassifier("classifier_a", 0.0, 5, truth)
        from relaynav.labeling import ClassifyRequest

        for rid in scene.regions:
            req = ClassifyRequest(scene.scene_id, rid, ())
            first = clf.classify(req)
            assert first == clf.classify(req)
            assert first.label != truth(scene.scene_id, rid)
            assert first.label in ROOM_LABELS

    def test_empirical_accuracy_tracks_parameter(self):
        labels = ROOM_LABELS
        truth = lambda s, r: labels[0]
        clf = SeededNoisyClassifier("classifier_a", 0.8, 11, truth)
        from relaynav.labeling import ClassifyRequest

        hits = sum(
            clf.classify(ClassifyRequest("s", f"r{i}", ())).label == labels[0]
            for i in range(2000)
        )
        assert hits / 2000 == pytest.approx(0.8, abs=0.03)
