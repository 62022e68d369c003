"""The benchmark's layer tracer binds every name it lists and reads them.

``bench/tracer.py`` wraps package functions by name from outside and
refuses a name without a binding, which ends a traced benchmark run.
Constructing a ``Tracer`` resolves every name without patching anything,
so a renamed or deleted layer fails here first.  One traced search checks
the argument contracts the wrappers read: a dense matrix first for the
matrix layers, and the search funnel hooks.  One traced pass of each
workload (``bench/workloads.py``, seed 1) runs every task under the
installed tracer, as ``bench/run.py --trace 1`` does: each task raises on
a failed reference check, and its result must be the one recorded in
``bench/expected.json``.
"""
from __future__ import annotations

import importlib.util
import json
import os

import pytest

import gentle  # noqa: F401  (imports every layer module)

BENCH = os.path.join(os.path.dirname(__file__), "..", "bench")


def _load(monkeypatch, name: str):
    # loaded from its file without writing bytecode next to it
    monkeypatch.setattr("sys.dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tracer(monkeypatch):
    return _load(monkeypatch, "tracer")


def test_tracer_binds_every_layer_and_funnel_hook(tracer):
    t = tracer.Tracer()         # raises TraceError on a name without a binding
    assert t.names == tracer.LAYERS + tracer.FUNNEL_HOOKS


def test_tracer_refuses_an_unbound_name(tracer):
    with pytest.raises(tracer.TraceError):
        tracer.Tracer(tracer.LAYERS + ("hom.no_such_function",))


def test_tracer_reads_the_layers_and_funnel_of_a_search(tracer):
    # a traced search on a fresh algebra: the dense-matrix layers are sized
    # from their first argument, a row-tuple matrix, and the funnel hooks
    # count inside the search; a refactor that breaks either contract ends
    # a traced benchmark run
    import gentle.exceptional
    from conftest import fixture_text
    from gentle import load_algebra
    a = load_algebra(fixture_text("pent"))
    t = tracer.Tracer()
    t.install()
    try:
        gentle.exceptional.brute_force_search(a)
    finally:
        t.uninstall()
    rank = t.summary()["linalg.rank"]
    assert rank["calls"] > 0 and rank["entries"] > 0
    assert t.counts["words"] > 0


@pytest.mark.parametrize("name", ["search-corpus", "search-large", "invariants"])
def test_one_traced_pass_of_each_workload(tracer, monkeypatch, name):
    workloads = _load(monkeypatch, "workloads")
    with open(os.path.join(BENCH, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)[name]
    tasks = workloads.build(name, 1)
    t = tracer.Tracer()
    results = {}
    t.install()
    try:
        for task in tasks:
            with t.task(task.label):
                results[task.label] = task.run()    # raises on a failed check
    finally:
        t.uninstall()
    assert {label: json.loads(json.dumps(r)) for label, r in results.items()} == \
        {task.label: expected[task.label] for task in tasks}
    if name.startswith("search"):
        assert t.counts["words"] > 0 and t.counts["certified"] > 0
