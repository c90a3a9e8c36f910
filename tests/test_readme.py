"""The README's Library example runs and shows the values its comments
state, its check table names each check under the commands that run it, and
its Layout names every module."""

import ast
import re
from pathlib import Path

from zirkit.profiles import CHECKS
from zirkit.survey import ALL_CHECKS

README = Path(__file__).parent.parent / "README.md"


def test_readme_library_example():
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace: dict = {}
    stated = []
    for node in ast.parse(block).body:
        code = ast.get_source_segment(block, node)
        if not isinstance(node, ast.Expr):
            exec(code, namespace)
            continue
        value = eval(code, namespace)
        _, hash_, comment = lines[node.lineno - 1].partition("#")
        if hash_:
            # a comment opens with the value the call returns
            expected = ast.literal_eval(comment.split(":")[0].strip())
            assert value == expected, (code, value)
            stated.append(expected)
    assert stated == [(4, 15), 4, 4094, None]


def test_readme_check_table_names_each_check_where_it_runs():
    # each backticked name in a row's first cell is a check of exactly the
    # commands the row ticks, and every check of either command is named
    text = README.read_text(encoding="utf-8")
    table = text.split("| check | survey | compute |\n", 1)[1].split("\n\n", 1)[0]
    compute, surveyed = {c.name for c in CHECKS}, set(ALL_CHECKS)
    named = []
    for row in table.splitlines()[1:]:  # after the rule under the header
        first, in_survey, in_compute = row.split("|")[1:4]
        for name in re.findall(r"`([^`]+)`", first):
            assert (name in surveyed, name in compute) == \
                ("✓" in in_survey, "✓" in in_compute), name
            named.append(name)
    assert len(named) == len(set(named))
    assert compute | surveyed <= set(named)


def test_readme_layout_names_every_module():
    text = README.read_text(encoding="utf-8")
    layout = text.split("## Layout\n", 1)[1]
    package = README.parent / "src" / "zirkit"
    modules = {p.stem for p in package.glob("*.py")} - {"__init__", "__main__"}
    assert set(re.findall(r"^- `zirkit/(\w+)\.py`", layout, re.M)) == modules
