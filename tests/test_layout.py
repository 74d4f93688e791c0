"""Static checks on the layout of the pellrsa package."""

import ast
from pathlib import Path

import pytest

import pellrsa

MODULES = sorted(Path(pellrsa.__file__).parent.glob("*.py"))


def unused_imports(source):
    """Names a module imports and never reads; a re-export counts as unused."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    source = "import os\nimport sys\nfrom math import gcd, lcm\nprint(sys.argv, gcd)\n"
    assert unused_imports(source) == [(1, "os"), (3, "lcm")]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_imports_only_names_it_uses(path):
    assert unused_imports(path.read_text()) == []
