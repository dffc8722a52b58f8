"""Every public top-level function and class in ``src/relaynav`` has a user,
and so does every field of a dataclass that is not a ``Record``.

A definition counts as used when its name appears as a whole word in
``src/``, ``scripts/`` or ``perfbench/`` outside its own definition; a
field when ``.<field>`` appears there outside its own declaration (its
class's methods count). A ``Record`` is read field by field through its
codec, so its fields are exempt. Tests do not count: code only a test
calls is not part of the program.
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

# Class.field -> why it stays without a reader in the searched trees
ALLOWED_UNREAD_FIELDS = {
    "ClassifyRequest.inventory": "the payload a classifier plug-in reads; the seeded one ignores it",
}


def _public_definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield path, node


def _plain_dataclasses():
    """(path, class node, field declarations) of each top-level dataclass
    that does not derive from ``Record``."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (
                isinstance(node, ast.ClassDef)
                and any(_is_dataclass(d) for d in node.decorator_list)
                and not any(isinstance(b, ast.Name) and b.id == "Record" for b in node.bases)
            ):
                fields = [stmt for stmt in node.body if isinstance(stmt, ast.AnnAssign)]
                yield path, node, fields


def _is_dataclass(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return isinstance(target, ast.Name) and target.id == "dataclass"


def _occurrences(pattern: str = r"\w+") -> dict[str, list[tuple[Path, int]]]:
    """Each match of ``pattern`` (by default a word, a maximal run of word
    characters, so a whole-word match) -> the (file, line number) pairs it
    appears on in the searched trees."""
    where = defaultdict(list)
    for tree in SEARCHED:
        for path in sorted((ROOT / tree).rglob("*.py")):
            for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
                for word in set(re.findall(pattern, line)):
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


def test_every_plain_dataclass_field_is_read():
    where = _occurrences(r"\.(\w+)")
    unread = [
        f"{path.relative_to(ROOT)}:{decl.lineno} {node.name}.{decl.target.id}"
        for path, node, fields in _plain_dataclasses()
        for decl in fields
        if f"{node.name}.{decl.target.id}" not in ALLOWED_UNREAD_FIELDS
        and all(
            home == path and decl.lineno <= lineno <= decl.end_lineno
            for home, lineno in where[decl.target.id]
        )
    ]
    assert not unread, "no .<field> read outside its declaration: " + ", ".join(unread)


def test_allowed_fields_are_still_defined():
    fields = {
        f"{node.name}.{decl.target.id}"
        for _, node, decls in _plain_dataclasses()
        for decl in decls
    }
    assert set(ALLOWED_UNREAD_FIELDS) <= fields
