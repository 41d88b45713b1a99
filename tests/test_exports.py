import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import stmoments

MODULES = ["stmoments"] + [f"stmoments.{m.name}" for m in pkgutil.iter_modules(stmoments.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_and_all_names_resolve(name):
    # a name deleted from a module but left in its __all__ (or in the
    # package's imports) fails here
    module = importlib.import_module(name)
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    for attr in getattr(module, "__all__", ()):
        assert attr in namespace and namespace[attr] is getattr(module, attr), attr


def test_readme_lists_every_cap():
    # a module-level MAX/BUDGET constant added without a row in README's caps table fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("Budget caps:", 1)[1].split("\n\n", 2)[1]
    assert table.startswith("| cap |")
    for info in pkgutil.iter_modules(stmoments.__path__):
        tree = ast.parse(Path(info.module_finder.path, f"{info.name}.py").read_text())
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            for target in targets:
                name = getattr(target, "id", "")
                if "MAX" in name or "BUDGET" in name:
                    assert f"| `{info.name}.{name}` |" in table, f"{info.name}.{name}"
    # and back: every row names an existing module constant, with its value
    rows = re.findall(r"^\| `(\w+)\.(\w+)` \| ([^|]*) \|", table, flags=re.MULTILINE)
    assert len(rows) == table.count("\n| `")
    for module, name, value in rows:
        constant = getattr(importlib.import_module(f"stmoments.{module}"), name, None)
        assert constant is not None, f"{module}.{name} is not a module constant"
        assert value.replace(" ", "") == str(constant), f"{module}.{name}: README says {value}, the code {constant}"


def test_only_classnumbers_builds_a_hurwitz_table():
    # every other module reads class numbers through `classnumbers.hurwitz_table`,
    # the one table of the process; a private table built elsewhere fails here
    for info in pkgutil.iter_modules(stmoments.__path__):
        if info.name == "classnumbers":
            continue
        tree = ast.parse(Path(info.module_finder.path, f"{info.name}.py").read_text())
        callees = {getattr(node.func, "id", getattr(node.func, "attr", None))
                   for node in ast.walk(tree) if isinstance(node, ast.Call)}
        assert "build_hurwitz_table" not in callees, info.name


def test_no_module_imports_a_name_it_never_reads():
    # an import left behind by a deleted code path fails here; the exceptions
    # are the package's re-exports in __init__.py and `_trace_rows`, which
    # moments_engine imports only for the benchmark's tracer to look up there
    kept = {("moments_engine", "_trace_rows")}
    for info in pkgutil.iter_modules(stmoments.__path__):
        tree = ast.parse(Path(info.module_finder.path, f"{info.name}.py").read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {alias.asname or alias.name for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = {name for name in imported - read if (info.name, name) not in kept}
        assert not unused, f"{info.name} imports {sorted(unused)} and never reads them"
