"""Every name a library module imports is used in that module.  No lint tool
ships with the project, so this check stands in for an unused-import rule;
the package `__init__`, whose imports are its re-exports, is exempt."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ksettrace"


def unused_imports(tree):
    """(name, line) for each name bound by an import and never read."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((name, line) for name, line in bound.items() if name not in read)


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_check_sees_a_leftover_import():
    tree = ast.parse("from itertools import accumulate, chain\nimport math\nchain(math.pi)\n")
    assert unused_imports(tree) == [("accumulate", 1)]
