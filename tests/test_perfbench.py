"""The library names the benchmark under perfbench/ reads still exist, so a
change that drops one fails here rather than in a benchmark run.  The
benchmark's files are read and imported, never changed."""

import ast
import functools
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr("sys.dont_write_bytecode", True)
    return importlib.import_module("layers"), importlib.import_module("workloads")


def test_traced_spans_resolve(bench):
    layers, _ = bench
    for name, owner, attr in layers.TRACED:
        assert callable(getattr(owner, attr, None)), name
    for name, owner, attr, _ in layers.COUNTERS:
        assert callable(getattr(owner, attr, None)), name


@pytest.mark.parametrize("name", ["conditional-uniform", "conditional-ngood", "detect", "exact"])
def test_workload_builds(bench, name):
    _, workloads = bench
    assert callable(workloads.WORKLOADS[name](7).run_rep)


@pytest.mark.parametrize("name, digest", [
    pytest.param("conditional-uniform", "e665ca5954ed2cac", id="conditional-uniform"),
    pytest.param("conditional-ngood", "d544b4ef3c7d55a4", id="conditional-ngood"),
    pytest.param("detect", "157a1b92d923e94c", id="detect"),
    pytest.param("exact", "696765039ff08009", id="exact"),
])
def test_seed7_digest_pinned(bench, name, digest):
    # one rep of each workload at seed 7 hashes to the digest its benchmark
    # records report, so any change to a seeded stream fails here
    _, workloads = bench
    wl = workloads.WORKLOADS[name](7)
    assert wl.digest(wl.run_rep(workloads.Meter())) == digest


def library_reads(path):
    """(dotted name, line) for each ksettrace name the file reads: the
    attribute chains on modules bound by `from ksettrace import ...`, and
    the names of `from ksettrace.<module> import ...`."""
    tree = ast.parse(path.read_text())
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "ksettrace":
            modules.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ksettrace."):
            yield from ((f"{node.module[10:]}.{a.name}", node.lineno) for a in node.names)
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in modules:
            yield ".".join([modules[node.id], *reversed(chain)]), node.lineno


@pytest.mark.parametrize("path", sorted(PERFBENCH.glob("*.py")), ids=lambda p: p.name)
def test_library_names_read_exist(path):
    for dotted, line in library_reads(path):
        module, *attrs = dotted.split(".")
        try:
            functools.reduce(getattr, attrs, importlib.import_module(f"ksettrace.{module}"))
        except AttributeError:
            pytest.fail(f"{path.name}:{line} reads ksettrace.{dotted}, which does not exist")
