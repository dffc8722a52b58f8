"""Smoke tests for the command-line scripts under scripts/."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_benchmark_passes_knowledge_and_t_max_to_both_runs(tmp_path):
    script = load_script("run_benchmark")
    calls: list[list[str]] = []
    script.cli = lambda argv: calls.append(argv) or 0
    script.main(["--workdir", str(tmp_path), "--knowledge", "discover", "--t-max", "500"])
    runs = [argv for argv in calls if argv[0] == "run"]
    assert [argv[argv.index("--policy") + 1] for argv in runs] == ["deconav", "static"]
    for argv in runs:
        assert argv[argv.index("--knowledge") + 1] == "discover"
        assert argv[argv.index("--t-max") + 1] == "500"

    calls.clear()
    script.main(["--workdir", str(tmp_path)])
    assert not any("--knowledge" in argv or "--t-max" in argv for argv in calls)
