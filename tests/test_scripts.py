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
