"""README's in-process benchmark recipes run: each `python3 -c` block, with
one call per row and the layers at 4 points, so a renamed function fails a
test rather than the recipe."""

import json
import re
import timeit
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
RECIPES = re.findall(r"python3 -c '\n(.*?)'\n```", README.read_text(), flags=re.S)


def _once(stmt, number, repeat):
    stmt()
    return [0.0]


def test_readme_holds_the_analytic_and_layers_recipes():
    assert len(RECIPES) == 2
    assert sum("POINTS = 2000" in code for code in RECIPES) == 1


@pytest.mark.parametrize("code", RECIPES, ids=lambda code: "layers" if "POINTS" in code else "analytic")
def test_recipe_times_every_row(code, monkeypatch, capsys):
    monkeypatch.setattr(timeit.Timer, "autorange", lambda self: (1, 0.0))
    monkeypatch.setattr(timeit, "repeat", _once)
    exec(code.replace("POINTS = 2000", "POINTS = 4"), {})
    rows = json.loads(capsys.readouterr().out)
    names = re.findall(r'^\s*(?:cases = \{)?"(\w+)": lambda', code, flags=re.M)
    assert list(rows) == names and len(names) >= 4
    assert all(row == {"value": 0.0, "unit": "s"} for row in rows.values())
