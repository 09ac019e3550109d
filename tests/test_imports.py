"""No module of the package, the tests or the scripts imports a name it never
uses, read with `ast`.  A name is used when it is read anywhere in its
module, in a string annotation, or as a string in `__all__`; `from
__future__` imports are exempt."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for folder in ("src/decogate", "tests", "scripts") for p in (ROOT / folder).glob("*.py"))


def _strings(node: ast.AST) -> list[str]:
    return [e.value for e in ast.walk(node) if isinstance(e, ast.Constant) and isinstance(e.value, str)]


def unused_imports(tree: ast.Module) -> list[str]:
    """'line n: name' for each imported name the module never uses."""
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(_strings(node.value))
        # a function's return annotation, an argument's or a variable's
        annotation = getattr(node, "returns", None) or getattr(node, "annotation", None)
        for text in _strings(annotation) if annotation is not None else ():
            used.update(n.id for n in ast.walk(ast.parse(text, mode="eval")) if isinstance(n, ast.Name))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(ast.parse(path.read_text(), filename=str(path))) == []


def test_an_unused_import_is_found():
    assert {p.parent.name for p in MODULES} == {"decogate", "tests", "scripts"}
    # a name read only inside a string is not used
    tree = ast.parse("import math\nfrom os import path, sep\nprint(sep, 'path')\n")
    assert unused_imports(tree) == ["line 1: math", "line 2: path"]
    tree = ast.parse("from __future__ import annotations\nfrom a import B, c\n"
                     "__all__ = ['c']\ndef f(x: 'B') -> None: ...\n")
    assert unused_imports(tree) == []
