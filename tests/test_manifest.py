"""Run manifests: hashing and persistence."""

from __future__ import annotations

import hashlib

import pytest

import relaynav
from relaynav.manifest import (
    ManifestError,
    RunManifest,
    load_manifest,
    make_manifest,
    save_manifest,
)


@pytest.fixture()
def artifacts(tmp_path):
    scenes = tmp_path / "scenes.jsonl"
    scenes.write_text('{"scene": 1}\n')
    results = tmp_path / "results.jsonl"
    results.write_text('{"episode": "e1"}\n')
    return tmp_path, scenes, results


class TestMake:
    def test_hashes_inputs_and_outputs(self, artifacts):
        _, scenes, results = artifacts
        manifest = make_manifest(
            "run", seed=7, config={"policy": "deconav"},
            inputs={"scenes.jsonl": scenes}, output_files={"results.jsonl": results},
        )
        want = hashlib.sha256(scenes.read_bytes()).hexdigest()
        assert manifest.inputs["scenes.jsonl"]["sha256"] == want
        assert manifest.inputs["scenes.jsonl"]["path"] == str(scenes)
        want = hashlib.sha256(results.read_bytes()).hexdigest()
        assert manifest.outputs["results.jsonl"]["sha256"] == want
        assert manifest.tool_version == relaynav.__version__
        assert manifest.seed == 7 and manifest.command == "run"


class TestPersistence:
    def test_save_into_directory_and_load(self, artifacts):
        out_dir, scenes, _ = artifacts
        manifest = make_manifest("gen-scenes", 3, {"count": 5}, output_files={"scenes.jsonl": scenes})
        target = save_manifest(manifest, out_dir)
        assert target == out_dir / "manifest.json"
        assert load_manifest(out_dir) == manifest
        assert load_manifest(target) == manifest

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(ManifestError):
            load_manifest(tmp_path)

    def test_from_dict_requires_core_fields(self):
        with pytest.raises(ManifestError):
            RunManifest.from_dict({"command": "run", "seed": 1, "config": {}})
