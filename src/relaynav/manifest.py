"""Run manifests: resolved config + hashed inputs and outputs per command.

Every artifact-producing command drops a manifest next to its outputs. The
manifest records enough — command name, tool version, root seed, the fully
resolved configuration, and content hashes of every input and output — to
re-execute the command elsewhere and verify the regenerated bytes match.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .serialize import Record, read_json, sha256_file, write_canonical

MANIFEST_NAME = "manifest.json"


class ManifestError(ValueError):
    pass


@dataclass(frozen=True)
class RunManifest(Record):
    command: str
    tool_version: str
    seed: int
    config: dict
    inputs: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)

    format_error = ManifestError


def make_manifest(
    command: str,
    seed: int,
    config: dict,
    inputs: dict[str, str | Path] | None = None,
    output_files: dict[str, str | Path] | None = None,
) -> RunManifest:
    """Hash the named input and output files into a manifest record."""
    return RunManifest(
        command=command,
        tool_version=__version__,
        seed=seed,
        config=config,
        inputs={
            name: {"path": str(path), "sha256": sha256_file(path)}
            for name, path in sorted((inputs or {}).items())
        },
        outputs={
            name: {"sha256": sha256_file(path)}
            for name, path in sorted((output_files or {}).items())
        },
    )


def save_manifest(manifest: RunManifest, path: str | Path) -> Path:
    """Write to ``path`` directly, or ``path/manifest.json`` for a directory."""
    target = Path(path)
    if target.is_dir():
        target = target / MANIFEST_NAME
    write_canonical(target, manifest.to_dict(), indent=2)
    return target


def load_manifest(path: str | Path) -> RunManifest:
    target = Path(path)
    if target.is_dir():
        target = target / MANIFEST_NAME
    if not target.exists():
        raise ManifestError(f"no manifest at {target}")
    data = read_json(target, ManifestError)
    try:
        return RunManifest.from_dict(data)
    except ManifestError as exc:
        raise ManifestError(f"{target}: {exc}") from None
