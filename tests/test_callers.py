"""Every public library name has a caller outside the tests.

A public function, class, or method of a public class in ``src/demazure``
that only the tests use is library code kept for the tests alone: it should
gain a caller that serves the paper or the CLI (in the library, a demo or the
benchmark), move into the tests, or go.  The scan is by name: any ``ast``
Name, Attribute or import of the name in ``src/``, ``demos/`` or
``perfbench/*.py`` counts as a use, and so does every part of a dotted string
in ``perfbench/tracer.py``, whose ``ENTRY_POINTS`` name what the tracer wraps.
A use inside a definition of the same name does not count.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "demazure").glob("*.py"))

# Independent references that tests compare the library against.
REFERENCES = {
    "inversions": "the inversion set by matrix action, against inversion_roots_along",
    "root_action": "the Weyl action on root coordinates, against the product tables",
    "formal_sum": "the formal group law F(a, b), against the additivity of x_class",
    "kappa": "kappa_alpha in closed form, against the solved quadratic constants",
    "pairing_with_stab": "the hY pairing of the operator-route stable classes",
    "pairing_with_dual": "the hY pairing of the dual-route stable classes",
    "raw_constants": "the stable constants expanded in the operator-route classes",
}


def _public_definitions(path: Path) -> set[str]:
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names.update(
                item.name
                for item in node.body
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
            )
    return names


def _uses(path: Path) -> set[str]:
    """The names used in ``path``, except where a name is used inside a
    definition of that same name: a recursive call, or one same-named
    method calling another, is no caller."""
    names = set()

    def visit(node: ast.AST, enclosing: frozenset) -> None:
        found: list[str] = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        elif isinstance(node, ast.Name):
            found.append(node.id)
        elif isinstance(node, ast.Attribute):
            found.append(node.attr)
        elif isinstance(node, ast.alias):
            found.append(node.name.rsplit(".", 1)[-1])
        elif path.name == "tracer.py" and isinstance(node, ast.Constant):
            if isinstance(node.value, str):
                found.extend(node.value.split("."))
        names.update(name for name in found if name not in enclosing)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return names


def _scan() -> tuple[set[str], set[str]]:
    callers = LIBRARY + sorted((ROOT / "demos").glob("*.py"))
    callers += sorted((ROOT / "perfbench").glob("*.py"))
    defined = set().union(*map(_public_definitions, LIBRARY))
    return defined, set().union(*map(_uses, callers))


def test_every_public_library_name_has_a_non_test_caller():
    defined, used = _scan()
    assert sorted(defined - used - set(REFERENCES)) == []


def test_every_reference_is_defined_and_used_by_tests_only():
    """A reference that gains a caller, or goes, leaves the list."""
    defined, used = _scan()
    assert sorted(set(REFERENCES) - defined) == []
    assert sorted(set(REFERENCES) & used) == []
