"""Smoke tests for the command-line scripts under scripts/."""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_time_rollouts_reports_ticks_per_s(capsys):
    status = load_script("time_rollouts").main(["--episodes", "2"])
    lines = capsys.readouterr().out.splitlines()
    rates = [line for line in lines if re.search(r"\d ticks/s", line)]
    assert len(rates) == 3  # two episodes, then the whole batch
    assert rates[-1].startswith("n=2 ")
    # the exit status is the one-second-per-episode budget check
    episode_ms = [float(re.search(r"([\d.]+) ms", line).group(1)) for line in rates[:2]]
    assert status == (0 if max(episode_ms) < 1000.0 else 1)


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
