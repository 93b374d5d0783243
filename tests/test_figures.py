import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import omstrata
from omstrata import (
    LabeledArrangement,
    Vector3,
    build,
    default_seed,
    delta_arrangement,
    emit_figure,
    limit_arrangement,
)


def circles(svg: str) -> int:
    return svg.count("<circle")


class TestEmitFigure:
    def test_level_zero_has_seven_points(self):
        svg = emit_figure(build(default_seed(), 0))
        assert circles(svg) == 7

    def test_level_one_adds_three_points(self):
        svg = emit_figure(build(default_seed(), 1))
        assert circles(svg) == 10
        for name in ("b2", "c1", "d1"):
            assert f">{name}</text>" in svg

    def test_family_is_drawn_as_its_arrangement(self):
        family = build(default_seed(), 2)
        assert emit_figure(family) == emit_figure(family.arrangement())

    def test_byte_identical_output(self):
        family = build(default_seed(), 2)
        assert emit_figure(family) == emit_figure(family)

    def test_well_formed_xml(self):
        svg = emit_figure(build(default_seed(), 2))
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")

    def test_arrangement_input_skips_loops(self):
        family = build(default_seed(), 2)
        limit = limit_arrangement(delta_arrangement(family, 1))
        svg = emit_figure(limit)
        # only the eight persistent elements survive at positive height
        assert circles(svg) == 8

    def test_construction_style_draws_lines(self):
        svg = emit_figure(build(default_seed(), 1))
        assert svg.count("<line") >= 6

    def test_nothing_at_positive_height_raises(self):
        at_infinity = LabeledArrangement([(1, Vector3(1, 0, 0)), (2, Vector3(0, 0, 0))])
        for arrangement in (LabeledArrangement([]), at_infinity):
            with pytest.raises(ValueError, match="^nothing to draw$"):
                emit_figure(arrangement)


FRESH_IMPORTS = """
import gc, importlib, json, sys
counts = []
for _ in range(4):
    for name in [k for k in sys.modules if k == "omstrata" or k.startswith("omstrata.")]:
        del sys.modules[name]
    importlib.import_module("omstrata")
    gc.collect()
    counts.append(sum(1 for obj in gc.get_objects()
                      if isinstance(obj, type) and obj.__module__.startswith("omstrata")))
print(json.dumps(counts))
"""


def test_fresh_import_frees_the_previous_one():
    # typing caches a Union built at module level over the package's classes,
    # which keeps every earlier import's classes and module globals alive.
    src = Path(omstrata.__file__).parent.parent
    done = subprocess.run([sys.executable, "-c", FRESH_IMPORTS], capture_output=True, text=True,
                          timeout=120, check=True, env={**os.environ, "PYTHONPATH": str(src)})
    counts = json.loads(done.stdout)
    assert len(set(counts)) == 1, counts
