"""Every library name the benchmark wraps resolves.

``perfbench/tracer.py`` wraps the functions in its ``TARGETS`` by defining
module and attribute path.  The tracer is loaded here by path, without
installing it, so deleting or renaming a wrapped name fails this test
before it crashes a benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
# The benchmark's own module, which is not part of the library.
BENCHMARK_MODULES = {"workloads"}


def _targets():
    if not TRACER.is_file():
        pytest.skip("not run from a source checkout")
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def test_every_target_resolves_on_the_library():
    unresolved = []
    for name, module_name, attr, _ in _targets():
        if module_name in BENCHMARK_MODULES:
            continue
        assert module_name.startswith("omstrata."), name
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            unresolved.append(f"{module_name}.{attr}")
    assert unresolved == []
