"""How the package's modules import each other, and that the names their
docs give as ``module.name`` exist."""

import ast
import importlib
import re
from functools import lru_cache
from pathlib import Path

PACKAGE = Path(__file__).parent.parent / "src" / "zirkit"
README = PACKAGE.parent.parent / "README.md"
MODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__", "__main__"}


@lru_cache(maxsize=None)
def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def _defined(module: str) -> set[str]:
    """The names ``module`` defines at its top level, imports left out."""
    names = set()
    for node in _tree(module).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def _package_imports(module: str) -> tuple[set[str], set[str]]:
    """The package modules ``module`` imports at its top level, and every
    module, the standard library's too, it imports inside a function or class."""
    tree = _tree(module)
    top, nested = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = {(node.module or "").removeprefix("zirkit.")}
        elif isinstance(node, ast.Import):
            names = {a.name.removeprefix("zirkit.") for a in node.names}
        else:
            continue
        if node in tree.body:
            top.update(names & MODULES)
        else:
            nested.update(names)
    return top, nested


def _reached(module: str) -> set[str]:
    """Every package module that importing ``module`` imports."""
    seen, todo = set(), [module]
    while todo:
        for name in _package_imports(todo.pop())[0] - seen:
            seen.add(name)
            todo.append(name)
    return seen


def test_the_two_routes_share_no_closure_code():
    # the solver route imports nothing of the table route, so the routes the
    # tests compare close sets with kernels of their own; the table route
    # imports only the errors and the graphs, so the checks can sit above it;
    # and its names are defined in no other module
    for module in ("forcing", "irredundance", "domination"):
        assert "subsets" not in _reached(module), module
    assert _package_imports("subsets")[0] == {"errors", "graphs"}
    table_route = _defined("subsets")
    assert {"close_all_subsets", "Facts", "TableFacts", "exact_params"} <= table_route
    for module in MODULES - {"subsets"}:
        assert not table_route & _defined(module), module


def test_module_imports_form_no_cycle_and_none_hides_in_a_function():
    for module in MODULES:
        assert not _package_imports(module)[1], module
        assert module not in _reached(module), module


def test_docs_name_only_names_that_exist():
    # a backticked module.name in a docstring, a comment or the README names
    # what the module defines, not what it imports from another module
    stale, checked = [], 0
    for path in [README, *sorted(PACKAGE.glob("*.py"))]:
        for found in re.findall(r"`+([A-Za-z_][\w.]*)`+", path.read_text(encoding="utf-8")):
            module, _, rest = found.removeprefix("zirkit.").partition(".")
            if module not in MODULES or not rest:
                continue
            checked += 1
            home = f"zirkit.{module}"
            first, *more = rest.split(".")
            target = getattr(importlib.import_module(home), first, None)
            if callable(target) and getattr(target, "__module__", home) != home:
                target = None  # a function or class the module only imports
            for part in more:
                target = getattr(target, part, None)
            if target is None:
                stale.append(f"{path.name}: {found}")
    assert checked and not stale
