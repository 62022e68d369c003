"""The benchmark's layer tracer binds every name it lists.

``bench/tracer.py`` wraps package functions by name from outside and
refuses a name without a binding, which ends a traced benchmark run.
Constructing a ``Tracer`` resolves every name without patching anything,
so a renamed or deleted layer fails here first.
"""

from __future__ import annotations

import importlib.util
import os

import pytest

import gentle  # noqa: F401  (imports every layer module)

TRACER = os.path.join(os.path.dirname(__file__), "..", "bench", "tracer.py")


@pytest.fixture
def tracer(monkeypatch):
    # loaded from its file without writing bytecode next to it
    monkeypatch.setattr("sys.dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_every_layer_and_funnel_hook(tracer):
    t = tracer.Tracer()         # raises TraceError on a name without a binding
    assert t.names == tracer.LAYERS + tracer.FUNNEL_HOOKS


def test_tracer_refuses_an_unbound_name(tracer):
    with pytest.raises(tracer.TraceError):
        tracer.Tracer(tracer.LAYERS + ("hom.no_such_function",))
