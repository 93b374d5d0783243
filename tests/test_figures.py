import xml.etree.ElementTree as ET

from omstrata import build, default_seed, delta_arrangement, emit_figure, limit_arrangement


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
