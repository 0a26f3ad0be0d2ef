"""No module in src/bplm or tests imports a name it never uses."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "bplm").glob("*.py")) \
    + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str):
    """Names a module imports and never reads, leaving out those listed in
    its __all__ and those on a line marked # noqa: F401."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_no_unused_imports():
    unused = {str(path.relative_to(ROOT)): unused_imports(path.read_text())
              for path in MODULES}
    assert {path: names for path, names in unused.items() if names} == {}


def test_checker_sees_unused_and_exempt_names():
    source = ("import os\nimport json  # noqa: F401\n"
              "from typing import List, Dict\n"
              "__all__ = ['Dict']\nx: List = []\n")
    assert unused_imports(source) == ["os (line 1)"]
