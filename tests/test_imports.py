"""Every name a library module imports is used in that module, and every
module-level private name (`_x`) of the library is read somewhere in it.  No
lint tool ships with the project, so these checks stand in for unused-import
and unused-name rules; the package `__init__`, whose imports are its
re-exports, is exempt from the first."""

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


def unread_private_names(trees):
    """(name, line) for each module-level `_x` (not a dunder such as
    `__all__`) that the trees bind by def, class or assignment and never
    read, by name or as an attribute."""
    bound, read = {}, set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            bound.update((name, node.lineno) for name in names
                         if name.startswith("_") and not name.startswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted((name, line) for name, line in bound.items() if name not in read)


def test_every_private_name_is_read():
    assert unread_private_names(ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))) == []


def test_check_sees_a_leftover_private_name():
    tree = ast.parse("import functools\n@functools.cache\ndef _gone(x):\n    return x\n"
                     "def _used():\n    pass\n_LIMIT = 3\n_used()\n")
    assert unread_private_names([tree]) == [("_LIMIT", 7), ("_gone", 3)]
