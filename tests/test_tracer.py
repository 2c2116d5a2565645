"""The benchmark's tracer patches spinaf functions by module and attribute
name; a name that moves without a compatibility lookup would silently drop
its span from the traced census."""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "spinbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("spinbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracer = _load_tracer()
    targets = tracer.SPAN_TARGETS + tracer.COUNT_TARGETS
    assert targets
    for module, path, name in targets:
        if module == "jsonschema":
            pytest.importorskip("jsonschema")
        owner, attr = tracer._resolve(module, path)
        assert callable(getattr(owner, attr, None)), name
