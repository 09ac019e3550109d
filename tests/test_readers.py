"""Every definition of the package has a reader outside the tests, read with
`ast`: each top-level function and class of src/decogate (bar
`__init__.py`), and each non-dunder method and property of those classes, is
named as a whole word in the package, the scripts or the benchmark harness,
outside its own definition."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "decogate"
READERS = sorted([*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")])
# tests/test_acceptance.py imports it, and the acceptance suite stays as it is
READ_BY_TESTS_ONLY = {"f0000_one_bit"}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def definitions(tree: ast.Module):
    """Each top-level function and class, and each non-dunder method and
    property of those classes."""
    for node in tree.body:
        if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (m for m in node.body if isinstance(m, _FUNCTIONS)
                        and not (m.name.startswith("__") and m.name.endswith("__")))


def unread(modules: dict[str, str], readers: dict[str, str]) -> list[str]:
    """'module: name' for each definition in the module texts that no reader
    text names outside the definition's own lines (decorators included)."""
    found = []
    for module, text in modules.items():
        lines = text.splitlines()
        for node in definitions(ast.parse(text)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            named = re.compile(rf"\b{re.escape(node.name)}\b").search
            elsewhere = [t for name, t in readers.items() if name != module]
            elsewhere.append("\n".join(lines[:first - 1] + lines[node.end_lineno:]))
            if not any(named(t) for t in elsewhere):
                found.append(f"{module}: {node.name}")
    return found


def test_every_definition_has_a_reader_outside_the_tests():
    readers = {str(p.relative_to(ROOT)): p.read_text() for p in READERS}
    modules = {name: text for name, text in readers.items()
               if name.startswith("src/") and not name.endswith("__init__.py")}
    assert modules
    missing = [entry for entry in unread(modules, readers)
               if entry.split(": ")[1] not in READ_BY_TESTS_ONLY]
    assert missing == []


def test_an_unread_definition_is_found():
    module = ("class A:\n    def used(self): ...\n    def lonely(self):\n        return self.lonely\n"
              "    def __repr__(self): ...\n@register('g')\ndef g():\n    return g\n")
    # a name read only inside its own definition, decorators included, is unread
    assert unread({"m": module}, {"m": module, "r": "A().used()\n"}) == ["m: lonely", "m: g"]
    assert unread({"m": module}, {"m": module, "r": "A().used(lonely, g)\n"}) == []
