"""Every public top-level function and class in ``src/relaynav`` has a user.

A definition counts as used when its name appears as a whole word in
``src/``, ``scripts/`` or ``perfbench/`` outside its own definition. Tests
do not count: code only a test calls is not part of the program.
"""

from __future__ import annotations

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "relaynav"
SEARCHED = ("src", "scripts", "perfbench")

# name -> why it stays without a user in the searched trees
ALLOWED_UNUSED = {
    "load_trace": "reads traces back; the planned trace-summary command is its user",
    "swap_oracle": "the independent oracle that evaluate_swap is checked against in tests",
}


def _public_definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield path, node


def _occurrences() -> dict[str, list[tuple[Path, int]]]:
    """Each word (a maximal run of word characters, so a whole-word match)
    -> the (file, line number) pairs it appears on in the searched trees."""
    where = defaultdict(list)
    for tree in SEARCHED:
        for path in sorted((ROOT / tree).rglob("*.py")):
            for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
                for word in set(re.findall(r"\w+", line)):
                    where[word].append((path, lineno))
    return where


def test_every_public_definition_has_a_user():
    where = _occurrences()
    unused = [
        f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
        for path, node in _public_definitions()
        if node.name not in ALLOWED_UNUSED
        and all(
            home == path and node.lineno <= lineno <= node.end_lineno
            for home, lineno in where[node.name]
        )
    ]
    assert not unused, "no user outside its own definition: " + ", ".join(unused)


def test_allowed_names_are_still_defined():
    names = {node.name for _, node in _public_definitions()}
    assert set(ALLOWED_UNUSED) <= names
