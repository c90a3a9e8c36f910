"""The README's Library example runs and shows the values its comments state."""

import ast
from pathlib import Path

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
