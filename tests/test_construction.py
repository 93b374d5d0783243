import os
import random
import subprocess
import sys
import threading
from dataclasses import replace
from fractions import Fraction as F
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from omstrata import (
    DegenerateStep,
    LabeledArrangement,
    PlanePoint,
    Seed,
    SeedRejected,
    Vector3,
    build,
    certificate,
    collinear,
    cross_ratio,
    cross_ratio_ledger,
    default_seed,
    delta_arrangement,
    limit_arrangement,
    om_equal,
    om_of,
    scale_degeneration,
    validate_seed,
    weak_map,
)
from omstrata import construction
from omstrata import om as om_module
from omstrata.construction import MAX_CERTIFICATE_DEPTH, _level, _level_columns, _level_labels, _SeedLifts
from omstrata.figures import emit_figure
from omstrata.geometry import _lift, _point, _primitive
from omstrata.om import LineTable
from omstrata.labels import PERSISTENT, indexed
from omstrata.serialization import document_to_json, parse_family, render_family, render_report

import fraction_reference as ref
from conftest import (
    all_pairs_cocircuit_tuples,
    as_rows,
    rand_positive_fraction,
    rand_spanning_arrangement,
    table_of,
    table_read,
)


def seed_with(**overrides) -> Seed:
    base = default_seed().points()
    base.update(overrides)
    return Seed(**base)


# nu and a moved by multiples of 1/8, as the benchmark draws its seeds.
SHIFTS = st.tuples(*[st.integers(-4, 4)] * 4)


def shifted_seed(shift) -> Seed:
    base = default_seed()
    dx, dy, ex, ey = (F(k, 8) for k in shift)
    return seed_with(
        nu=PlanePoint(base.nu.x + dx, base.nu.y + dy),
        a=PlanePoint(base.a.x + ex, base.a.y + ey),
    )


# nu placed so that line(nu, a) crosses the baseline at x = 2, inside the
# interval the c_i sweep through: the late levels end up on the other side
# and the limit strata disagree.
WALL_SEED = seed_with(nu=PlanePoint(3, 2))

# a on the line through d1 parallel to omega-beta: validate_seed accepts the
# seed, but at level 1 the line a-d1 never meets omega-beta.
PARALLEL_STEP_SEED = seed_with(a=PlanePoint(F(21, 5), 1))
PARALLEL_STEP_MESSAGE = (
    "step 1: lines omega-beta / a-d_n have no unique intersection "
    "(Line2(5x + 3y + -30 = 0) and Line2(5x + 3y + -24 = 0) are parallel)"
)


class TestSeedValidation:
    def test_default_seed_is_valid(self):
        verdict = validate_seed(default_seed())
        assert verdict
        assert verdict.violated is None

    def test_omega_on_baseline(self):
        verdict = validate_seed(seed_with(omega=PlanePoint(2, 0)))
        assert not verdict
        assert verdict.violated == "apex"

    def test_b1_at_beta(self):
        verdict = validate_seed(seed_with(b1=PlanePoint(6, 0)))
        assert not verdict
        assert verdict.violated == "b1_segment"

    def test_gamma_off_baseline(self):
        verdict = validate_seed(seed_with(gamma=PlanePoint(4, 1)))
        assert not verdict
        assert verdict.violated == "baseline"

    def test_gamma_outside_segment(self):
        verdict = validate_seed(seed_with(gamma=PlanePoint(7, 0)))
        assert not verdict
        assert verdict.violated == "baseline"

    def test_a_on_omega_gamma_line(self):
        verdict = validate_seed(seed_with(a=PlanePoint(F(7, 2), F(5, 2))))
        assert not verdict
        assert verdict.violated == "anchor"

    def test_nu_on_a_line(self):
        # (3/5, 1) rides the alpha-omega line
        verdict = validate_seed(seed_with(nu=PlanePoint(F(3, 5), 1)))
        assert not verdict
        assert verdict.violated == "nu_generic"

    @pytest.mark.parametrize(
        "overrides, code, message",
        [
            ({"gamma": PlanePoint(0, 0)}, "baseline", "alpha, gamma, beta must be three distinct points"),
            ({"a": PlanePoint(1, 0)}, "anchor", "a must not lie on line alpha-beta"),
            ({"a": PlanePoint(3, 5)}, "anchor", "a must differ from omega"),
            # (0, 10) = beta + 2 (omega - beta)
            ({"a": PlanePoint(0, 10)}, "anchor", "a must not lie on line omega-beta"),
        ],
        ids=["gamma-at-alpha", "a-on-baseline", "a-at-omega", "a-on-omega-beta"],
    )
    def test_violation_names_its_code_and_message(self, overrides, code, message):
        verdict = validate_seed(seed_with(**overrides))
        assert not verdict
        assert (verdict.violated, verdict.message) == (code, message)


class TestBuild:
    def test_depth_zero_is_the_seed(self):
        family = build(default_seed(), 0)
        assert family.depth == 0
        assert len(family.points) == 7

    def test_first_level_fixtures(self):
        # frozen from an independent by-hand solve of the three 2x2 systems
        points = dict(build(default_seed(), 1).points)
        assert points["d1"] == PlanePoint(F(18, 5), 2)
        assert points["b2"] == PlanePoint(F(528, 125), F(74, 25))
        assert points["c1"] == PlanePoint(F(23, 10), 0)

    def test_c1_inside_alpha_gamma(self):
        c1 = dict(build(default_seed(), 1).points)["c1"]
        assert 0 < c1.x < 4 and c1.y == 0

    def test_incidences_hold_at_every_level(self):
        family = build(default_seed(), 6)
        seed, points = family.seed, dict(family.points)
        for n in range(1, 7):
            d_n = points[indexed("d", n)]
            b_n = points[indexed("b", n)]
            b_next = points[indexed("b", n + 1)]
            c_n = points[indexed("c", n)]
            assert collinear(seed.omega, seed.gamma, d_n)
            assert collinear(seed.alpha, b_n, d_n)
            assert collinear(seed.omega, seed.beta, b_next)
            assert collinear(seed.a, d_n, b_next)
            assert collinear(seed.alpha, seed.beta, c_n)
            assert collinear(seed.a, b_next, c_n)

    @pytest.mark.parametrize("depth", [True, 2.0, -2])
    def test_a_depth_that_is_not_a_non_negative_int_raises(self, depth):
        with pytest.raises(ValueError, match="depth must be non-negative"):
            build(default_seed(), depth)

    @pytest.mark.parametrize("i", [-1, 3, True, 1.0])
    def test_a_level_that_is_not_an_int_in_range_raises(self, i):
        # a bool is not a level: level(True) would render "depth": true
        with pytest.raises(IndexError, match=rf"^level {i} not in 0\.\.2$"):
            build(default_seed(), 2).level(i)

    @pytest.mark.parametrize("letter, i", [("c", True), ("c", "1"), ("c", 0), ("e", 1)])
    def test_an_indexed_label_needs_a_letter_and_an_int_index(self, letter, i):
        # a bool is not an index: ("c", True) would make the label "cTrue"
        with pytest.raises(ValueError, match=f"^bad indexed label {letter}{i}$"):
            indexed(letter, i)

    def test_monotone_containment(self):
        deep = build(default_seed(), 5)
        shallow = build(default_seed(), 4)
        assert deep.level(4) == shallow

    def test_twenty_distinct_c_points(self):
        table = dict(build(default_seed(), 20).points)
        points = [table[indexed("c", i)] for i in range(1, 21)]
        assert len(set(points)) == 20

    def test_invalid_seed_rejected(self):
        with pytest.raises(SeedRejected) as exc:
            build(seed_with(omega=PlanePoint(2, 0)), 3)
        assert exc.value.check == "apex"

    def test_degenerate_step(self):
        # a placed exactly at the first intersection point d1: the second
        # line of level 1 has no two distinct defining points; validate_seed
        # rejects this seed, so only the private step reaches it
        seed = seed_with(a=PlanePoint(F(18, 5), 2))
        with pytest.raises(DegenerateStep) as exc:
            _level(_SeedLifts(seed), 1, _lift(seed.b1))
        assert exc.value.step == 1
        assert exc.value.which == "omega-beta / a-d_n"
        assert str(exc.value) == (
            "step 1: lines omega-beta / a-d_n have no unique intersection "
            "(cannot span a line with PlanePoint(x=Fraction(18, 5), y=Fraction(2, 1)) twice)"
        )

    def test_parallel_step(self):
        # alpha-b1 parallel to omega-gamma: level 1 cannot start; validate_seed
        # rejects this seed, so only the private step reaches it
        seed = seed_with(b1=PlanePoint(-1, 5))
        with pytest.raises(DegenerateStep) as exc:
            _level(_SeedLifts(seed), 1, _lift(seed.b1))
        assert exc.value.step == 1
        assert exc.value.which == "omega-gamma / alpha-b_n"
        assert str(exc.value) == (
            "step 1: lines omega-gamma / alpha-b_n have no unique intersection "
            "(Line2(5x + 1y + -20 = 0) and Line2(5x + 1y + 0 = 0) are parallel)"
        )

    def test_degenerate_step_of_a_valid_seed(self):
        assert validate_seed(PARALLEL_STEP_SEED)
        with pytest.raises(DegenerateStep) as exc:
            build(PARALLEL_STEP_SEED, 1)
        assert exc.value.step == 1
        assert exc.value.which == "omega-beta / a-d_n"
        assert str(exc.value) == PARALLEL_STEP_MESSAGE

    def test_points_in_construction_order(self):
        # build writes the seed points, then d_n, b_{n+1}, c_n per level; a
        # family document read in any order comes back in that order
        family = build(default_seed(), 3)
        assert [label for label, _ in family.points] == _level_labels(3)
        document = render_family(family)
        random.Random(3).shuffle(document["points"])
        parsed = parse_family(document)
        assert parsed == family
        for i in range(4):
            assert parsed.level(i) == family.level(i)
            assert emit_figure(parsed.level(i)) == emit_figure(family.level(i))

    def test_one_level_deeper_keeps_the_prefix(self):
        seed = default_seed()
        for depth in range(6):
            assert build(seed, depth + 1).level(depth) == build(seed, depth)

    def test_matches_fraction_reference(self):
        # the default seed and seeds with nu, a and b1 moved, as the
        # benchmark moves nu and a; the first two to depth 150, where the
        # coordinates reach about 900 bits
        rng = random.Random(5)
        base = default_seed()

        def moved(p):
            return PlanePoint(p.x + F(rng.randint(-8, 8), 8), p.y + F(rng.randint(-8, 8), 8))

        seeds = [base]
        while len(seeds) < 7:
            t = F(rng.randint(1, 15), 16)
            seed = seed_with(
                nu=moved(base.nu),
                a=moved(base.a),
                b1=PlanePoint(base.omega.x + t * (base.beta.x - base.omega.x),
                              base.omega.y + t * (base.beta.y - base.omega.y)),
            )
            if validate_seed(seed):
                seeds.append(seed)
        for k, seed in enumerate(seeds):
            depth = 150 if k < 2 else 30
            family = build(seed, depth)
            points = ref.build_points(seed, depth)
            assert list(family.points) == points
            table = dict(points)
            assert cross_ratio_ledger(family) == [
                (i, ref.cross_ratio(seed.alpha, table[indexed("c", i)], seed.gamma, seed.beta))
                for i in range(1, depth + 1)
            ]

    def test_level_lifts_are_primitive(self):
        # unreduced lifts would still give the same points, but their
        # coordinates would grow about half again as fast
        seed = default_seed()
        lifts, b_n = _SeedLifts(seed), _lift(seed.b1)
        points = dict(build(seed, 150).points)
        for n in range(1, 151):
            _, b_next = _level(lifts, n, b_n)
            assert gcd(*b_next) == 1
            assert _point(b_next) == points[indexed("b", n + 1)]
            b_n = b_next


class TestCrossRatioLedger:
    def test_first_values(self):
        # frozen from the independent recursion oracle
        family = build(default_seed(), 3)
        ledger = cross_ratio_ledger(family)
        assert ledger[0] == (1, F(74, 51))
        assert ledger[1] == (2, F(2600, 1887))
        assert ledger[2] == (3, F(88403, 66300))

    def test_depth_twenty_all_defined_and_distinct(self):
        family = build(default_seed(), 20)
        ledger = cross_ratio_ledger(family)
        assert len(ledger) == 20
        assert len({value for _, value in ledger}) == 20


class TestStepMap:
    """On the default seed the step b_n -> b_{n+1} is a projectivity of line
    omega-beta fixing omega and p = (-30, 60), where that line meets line
    alpha-a.  Its multiplier 62/51 is positive, so along each carrier the
    points move monotonically and label order is affine order."""

    DEPTH = 80

    def test_step_has_constant_cross_ratio(self):
        seed = default_seed()
        points = dict(build(seed, self.DEPTH).points)
        p = PlanePoint(-30, 60)
        assert collinear(seed.omega, seed.beta, p)
        assert collinear(seed.alpha, seed.a, p)
        b = [points[indexed("b", n)] for n in range(1, self.DEPTH + 2)]
        for n in range(self.DEPTH):
            assert cross_ratio(seed.omega, p, b[n], b[n + 1]) == F(62, 51)

    def test_carrier_points_move_monotonically(self):
        points = dict(build(default_seed(), self.DEPTH).points)
        for letter in "bcd":
            xs = [points[indexed(letter, n)].x for n in range(1, self.DEPTH + 1)]
            assert all(x > y for x, y in zip(xs, xs[1:])), letter


class TestDeltaArrangement:
    def test_delta_replaces_c_i(self):
        family = build(default_seed(), 2)
        marked = delta_arrangement(family, 1)
        assert "delta" in marked.labels
        assert "c1" not in marked.labels
        assert dict(marked.elements)["delta"] == Vector3(F(23, 10), 0, 1)

    def test_ground_set_in_global_order(self):
        family = build(default_seed(), 2)
        marked = delta_arrangement(family, 2)
        assert marked.labels == (
            "alpha", "beta", "gamma", "omega", "nu", "a", "delta",
            "b1", "c1", "d1", "b2", "d2", "b3",
        )

    def test_delta_collinear_with_baseline(self):
        family = build(default_seed(), 4)
        from omstrata import perspective_normalize
        for i in range(1, 5):
            marked = delta_arrangement(family, i)
            delta = perspective_normalize(dict(marked.elements)["delta"])
            assert collinear(family.seed.alpha, delta, family.seed.beta)

    def test_index_out_of_range(self):
        # a bool or a float is not a level: True would leave c1 unmarked
        family = build(default_seed(), 2)
        for i in (3, 0, True, 1.0):
            with pytest.raises(IndexError, match=rf"^i = {i} not in 1\.\.2$"):
                delta_arrangement(family, i)

    def test_levels_have_distinct_oriented_matroids(self):
        family = build(default_seed(), 4)
        marked = {i: delta_arrangement(family, i) for i in range(1, 5)}
        for i in range(1, 5):
            for j in range(i + 1, 5):
                common = set(marked[i].labels) & set(marked[j].labels)
                m_i = om_of(marked[i].restrict(common))
                m_j = om_of(marked[j].restrict(common))
                assert not om_equal(m_i, m_j)


class TestDegenerations:
    def test_scale_one_is_identity(self):
        family = build(default_seed(), 2)
        marked = delta_arrangement(family, 1)
        assert scale_degeneration(marked, 1) == marked

    def test_persistent_labels_keep_height_one(self):
        family = build(default_seed(), 2)
        marked = delta_arrangement(family, 2)
        scaled = scale_degeneration(marked, 8)
        for label, vector in scaled.elements:
            if label in PERSISTENT:
                assert vector == dict(marked.elements)[label]
            else:
                assert vector == dict(marked.elements)[label].scaled(F(1, 8))

    @pytest.mark.parametrize("n", [True, 2.0, F(2), 0, -1])
    def test_an_n_that_is_not_a_positive_int_raises(self, n):
        marked = delta_arrangement(build(default_seed(), 2), 2)
        with pytest.raises(ValueError, match="n must be a positive int"):
            scale_degeneration(marked, n)

    def test_oriented_matroid_constant_along_family(self):
        family = build(default_seed(), 3)
        for i in (1, 3):
            marked = delta_arrangement(family, i)
            reference = om_of(marked)
            for n in (2, 5, 1024):
                assert om_equal(om_of(scale_degeneration(marked, n)), reference)

    def test_limit_zeroes_exactly_the_transient_labels(self):
        family = build(default_seed(), 3)
        marked = delta_arrangement(family, 3)
        limit = limit_arrangement(marked)
        for label, vector in limit.elements:
            if label in PERSISTENT:
                assert vector == dict(marked.elements)[label]
            else:
                assert vector.is_zero()

    def test_limit_loops(self):
        family = build(default_seed(), 3)
        marked = delta_arrangement(family, 2)
        limit_om = om_of(limit_arrangement(marked))
        assert limit_om.loops == frozenset(set(marked.labels) - PERSISTENT)

    def test_limits_share_one_oriented_matroid(self):
        family = build(default_seed(), 4)
        shared = [
            om_of(limit_arrangement(delta_arrangement(family, i))).delete_loops()
            for i in range(1, 5)
        ]
        for other in shared[1:]:
            assert om_equal(shared[0], other)

    def test_weak_map_onto_limit(self):
        family = build(default_seed(), 3)
        for i in range(1, 4):
            marked = delta_arrangement(family, i)
            assert weak_map(om_of(marked), om_of(limit_arrangement(marked)))

    def test_connecting_automorphism_is_identity(self):
        # members of the scaled family share the persistent points, so the
        # affine map matching (omega, a, beta) across members is the
        # identity and fixes alpha and b1
        from omstrata import Projectivity, affine_from_correspondence
        seed = default_seed()
        triple = (seed.omega, seed.a, seed.beta)
        mapping = affine_from_correspondence(triple, triple)
        assert mapping == Projectivity.identity()
        assert mapping(seed.alpha) == seed.alpha
        assert mapping(seed.b1) == seed.b1


class TestCertificate:
    def test_small_depth_passes(self):
        report = certificate(default_seed(), 3, [1, 2, 7])
        assert report.passed
        assert report.depth == 3
        assert [rec.i for rec in report.records] == [1, 2, 3]
        assert all(ok for rec in report.records for _, ok in rec.degeneration_ok)
        assert len({rec.mi_fingerprint for rec in report.records}) == 3
        assert len({rec.limit_fingerprint for rec in report.records}) == 1
        assert all(rec.limit_cr == rec.cr for rec in report.records)

    def test_shared_limit_fingerprint_fixture(self):
        # frozen after cross-checking against the functional-sampling oracle
        report = certificate(default_seed(), 2, [1, 2])
        assert report.limit_fingerprint == (
            "11c7518ee9a90af6a9bc130831fc765ec09e543ae1a72978699c3761e3168c1c"
        )

    def test_baseline_violation_rejected(self):
        with pytest.raises(SeedRejected) as exc:
            certificate(seed_with(gamma=PlanePoint(4, 1)), 3)
        assert exc.value.check == "baseline"

    def test_collapsing_construction_rejected_in_ledger(self):
        # a on line(alpha, b1) makes c1 collide with alpha, so the
        # cross-ratio ledger cannot be computed
        seed = seed_with(a=PlanePoint(F(-9, 10), F(-1, 2)))
        assert validate_seed(seed)
        with pytest.raises(SeedRejected) as exc:
            certificate(seed, 2)
        assert exc.value.check == "cross_ratio_ledger"
        assert "DegeneratePoints" in str(exc.value)

    def test_degenerate_step_rejected_as_construction(self):
        with pytest.raises(SeedRejected) as exc:
            certificate(PARALLEL_STEP_SEED, 3)
        assert exc.value.check == "construction"
        assert str(exc.value) == f"seed rejected by check 'construction': {PARALLEL_STEP_MESSAGE}"

    def test_wall_seed_fails_limits_equal(self):
        assert validate_seed(WALL_SEED)
        report = certificate(WALL_SEED, 5, [1, 2])
        assert not report.passed
        assert report.checks.c_distinct and report.checks.cr_distinct
        assert report.checks.stratum_constancy
        assert not report.checks.limits_equal
        assert not report.checks.separation
        assert len({rec.limit_fingerprint for rec in report.records}) == 2

    def test_limits_on_their_nonzero_labels_equal_the_deleted_limits(self):
        # The certificate reads each limit on its eight non-zero labels; the
        # reference enumerates the whole limit afresh and deletes its loops.
        report = certificate(default_seed(), 20, [1])
        family = build(default_seed(), 20)
        for rec in reversed(report.records):
            limit = limit_arrangement(delta_arrangement(family, rec.i))
            eight = om_of(LabeledArrangement((l, v) for l, v in limit.elements if not v.is_zero()))
            deleted = om_of(limit).delete_loops()
            assert len(eight.ground) == 8 and not eight.loops
            assert eight == deleted
            assert rec.limit_fingerprint == deleted.fingerprint()

    @pytest.mark.parametrize("seed", [default_seed(), WALL_SEED], ids=["default", "wall"])
    def test_weak_map_on_the_deleted_pair(self, seed):
        # the certificate passes weak_map the level and limit deleted onto the
        # limit's non-loops; the verdict is that of the undeleted pair
        family = build(seed, 6)
        for i in range(1, 7):
            marked = delta_arrangement(family, i)
            level_om, limit_om = om_of(marked), om_of(limit_arrangement(marked))
            shared = limit_om.delete_loops()
            assert weak_map(level_om.restrict(shared.ground), shared) == weak_map(level_om, limit_om)

    def test_levels_and_limits_read_the_deepest_lines(self):
        family = build(default_seed(), 20)
        table = table_of(delta_arrangement(family, 20))
        for i in range(1, 21):
            marked = delta_arrangement(family, i)
            for arr in (marked, nonzero_part(limit_arrangement(marked))):
                ints = arr.integer_vectors
                assert set(table_read(table, arr).rows) == as_rows(all_pairs_cocircuit_tuples(ints))

    def test_level_columns_read_each_level_as_a_prefix(self):
        # On the whole family's arrangement, where c_20 keeps its label, the
        # columns of level i are a permutation of 0..3i + 6 whose labels
        # are the level's with c_i as delta, and its first eight the
        # persistent points: the level reads the table's first rows with no
        # pair lookup (the index is emptied), and the limit reads the pairs.
        family = build(default_seed(), 20)
        arrangement = family.arrangement()
        table, prefix_only = table_of(arrangement), table_of(arrangement)
        prefix_only._line_of = {}
        labels = arrangement.labels
        for i in range(1, 21):
            cols = _level_columns(i)
            assert sorted(cols) == list(range(3 * i + 7))
            marked = delta_arrangement(family, i)
            level_labels = (*labels[:6], "delta", *(labels[k] for k in cols[7:]))
            assert level_labels == marked.labels
            assert [arrangement.elements[k][1] for k in cols] == [v for _, v in marked.elements]
            assert prefix_only.read(level_labels, cols) == om_of(marked)
            assert set(level_labels[:8]) == PERSISTENT
            limit = nonzero_part(limit_arrangement(marked))
            assert table.read(level_labels[:8], cols[:8]) == om_of(limit)

    def test_depth_6_enumerates_once(self, monkeypatch):
        sizes = []
        enumerate_lines = om_module._enumerate_lines
        monkeypatch.setattr(om_module, "_enumerate_lines",
                            lambda ints: sizes.append(len(ints)) or enumerate_lines(ints))
        assert certificate(default_seed(), 6).passed
        assert sizes == [25]

    def test_depth_6_builds_only_the_deepest_level(self, monkeypatch):
        # Every level is read off the columns of the table of the whole
        # family's points, where c_6 keeps its own label: no level is marked,
        # and no arrangement of the family is built.
        levels, built = [], []
        delta = construction.delta_arrangement
        monkeypatch.setattr(construction, "delta_arrangement",
                            lambda family, i: levels.append(i) or delta(family, i))
        arrangement = construction.ConfigurationFamily.arrangement
        monkeypatch.setattr(construction.ConfigurationFamily, "arrangement",
                            lambda family: built.append(family.depth) or arrangement(family))
        assert certificate(default_seed(), 6).passed
        assert levels == [] and built == []

    def test_depth_6_rescales_once_per_sample(self, monkeypatch):
        # Check (c) decides each non-persistent column once per sample, on
        # the integer vectors of the whole family: 18 of its 25 columns.
        calls = []
        shrunk = construction._shrunk_primitive
        monkeypatch.setattr(construction, "_shrunk_primitive",
                            lambda v, n: calls.append((v, n)) or shrunk(v, n))
        samples = (1024, 3, 1)
        assert certificate(default_seed(), 6, samples).passed
        arrangement = build(default_seed(), 6).arrangement()
        rescaled = [v for l, v in zip(arrangement.labels, arrangement.integer_vectors) if l not in PERSISTENT]
        assert len(rescaled) == 18
        assert calls == [(v, n) for n in samples for v in rescaled]

    @pytest.mark.parametrize("label, first", [("c3", 4), ("b4", 3)])
    def test_a_broken_rescaling_fails_the_levels_that_rescale_the_point(self, monkeypatch, label, first):
        # Under n = 2, the point is scaled to a vector that is not parallel to
        # it.  b4 is new at level 3; c3 is delta, never rescaled, at level 3,
        # so only the levels after 3 rescale it.
        point = _lift(dict(build(default_seed(), 3).points)[label])
        shrunk = construction._shrunk_primitive

        def broken(v, n):
            if v == point and n == 2:
                return (v[0], v[1], 2 * v[2])
            return shrunk(v, n)

        monkeypatch.setattr(construction, "_shrunk_primitive", broken)
        report = certificate(default_seed(), 6)
        for rec in report.records:
            assert rec.degeneration_ok == ((1, True), (2, rec.i < first), (4, True), (1024, True)), rec.i
        assert not report.checks.stratum_constancy

    def test_a_non_positive_sample_fails_stratum_constancy(self, monkeypatch):
        # Negating d1 is no positive rescaling: those samples have primitive
        # vectors other than the level's, and read False instead of raising.
        d1 = _lift(dict(build(default_seed(), 1).points)[indexed("d", 1)])
        shrunk = construction._shrunk_primitive

        def negate_d1(v, n):
            w = shrunk(v, n)
            if n == 1 or v != d1:
                return w
            return (-w[0], -w[1], -w[2])

        monkeypatch.setattr(construction, "_shrunk_primitive", negate_d1)
        report = certificate(default_seed(), 3)
        assert [rec.i for rec in report.records] == [1, 2, 3]
        for rec in report.records:
            assert rec.degeneration_ok == tuple((n, n == 1) for n in report.samples)
        assert not report.checks.stratum_constancy
        assert not report.passed
        assert replace(report.checks, stratum_constancy=True).all_pass()

    def test_check_c_builds_no_fraction_arrangement(self, monkeypatch):
        # Check (c) reads the lifts of the table, which is built from the
        # family's plane points: with the Fraction rescalings, every
        # arrangement, every vector and the primitive-vector gcd made to
        # raise, the report is the same.
        expected = document_to_json(render_report(certificate(default_seed(), 6)))

        def refuse(*args):
            raise AssertionError("an arrangement, a Vector3 or a primitive vector")

        monkeypatch.setattr(construction, "scale_degeneration", refuse)
        monkeypatch.setattr(Vector3, "scaled", refuse)
        monkeypatch.setattr(Vector3, "__init__", refuse)
        monkeypatch.setattr(om_module.LabeledArrangement, "__init__", refuse)
        monkeypatch.setattr(om_module, "_primitive", refuse)
        report = certificate(default_seed(), 6)
        assert report.passed
        assert document_to_json(render_report(report)) == expected
        assert not hasattr(construction, "perspective_normalize")

    def test_the_table_lifts_are_the_arrangement_integer_vectors(self, monkeypatch):
        # The certificate's table holds the family's points in label order:
        # its lifts are the integer vectors of the family's arrangement.
        tables = []

        class Recorded(LineTable):
            def __init__(self, points):
                super().__init__(points)
                tables.append(self)

        monkeypatch.setattr(construction, "LineTable", Recorded)
        assert certificate(default_seed(), 20, [1]).passed
        arrangement = build(default_seed(), 20).arrangement()
        assert len(tables) == 1 and tables[0].vectors == arrangement.integer_vectors

    def test_samples_may_be_any_iterable(self):
        expected = certificate(default_seed(), 2, [1, 2])
        assert certificate(default_seed(), 2, iter([1, 2])) == expected
        assert certificate(default_seed(), 2, (n for n in (1, 2))) == expected
        for samples in (iter([]), iter([2, 2]), iter([0])):
            with pytest.raises(ValueError, match="^samples must be distinct positive integers"):
                certificate(default_seed(), 2, samples)

    def test_deterministic_reports(self):
        first = certificate(default_seed(), 3, [1, 4])
        second = certificate(default_seed(), 3, [1, 4])
        assert first == second

    def test_depth_bound(self):
        with pytest.raises(ValueError, match="depth"):
            certificate(default_seed(), MAX_CERTIFICATE_DEPTH + 1)

    @pytest.mark.parametrize("depth", [True, 2.0])
    def test_a_depth_that_is_not_an_int_raises(self, depth):
        with pytest.raises(ValueError, match="depth must be in"):
            certificate(default_seed(), depth)

    @pytest.mark.parametrize("samples", [[True], [2.0], [1, True], [1, 2.0]])
    def test_samples_that_are_not_ints_raise(self, samples):
        with pytest.raises(ValueError, match="samples must be"):
            certificate(default_seed(), 1, samples)

    @pytest.mark.parametrize("seed", [default_seed(), WALL_SEED], ids=["default", "wall"])
    def test_persistent_part_is_the_nonzero_part_of_the_limit(self, seed):
        # The certificate reads each limit's non-loops as the level's
        # persistent points.
        family = build(seed, 20)
        for i in range(1, 21):
            marked = delta_arrangement(family, i)
            persistent = marked.restrict(PERSISTENT)
            nonzero = nonzero_part(limit_arrangement(marked))
            assert persistent.labels == nonzero.labels
            assert persistent.elements == nonzero.elements

    @settings(max_examples=25, deadline=None)
    @given(SHIFTS)
    def test_shifted_seeds_pass_or_are_rejected(self, shift):
        seed = shifted_seed(shift)
        assume(validate_seed(seed))
        try:
            report = certificate(seed, 2)
        except SeedRejected:
            return
        assert report.depth == 2 and len(report.records) == 2


class TestShrunkPrimitive:
    """Check (c)'s integer rule against its reference, the primitive vectors
    of ``scale_degeneration``'s Fraction arrangement."""

    SAMPLES = (1, 2, 4, 1024, 3 ** 40)

    @staticmethod
    def assert_matches_the_fractions(arrangement):
        labels, ints = arrangement.labels, arrangement.integer_vectors
        shrunk = construction._shrunk_primitive
        for n in TestShrunkPrimitive.SAMPLES:
            reference = scale_degeneration(arrangement, n).integer_vectors
            assert [v if l in PERSISTENT else shrunk(v, n) for l, v in zip(labels, ints)] == list(reference), n
            changed = {k for k, l in enumerate(labels) if l not in PERSISTENT and shrunk(ints[k], n) != ints[k]}
            assert changed == {k for k, v in enumerate(reference) if v != ints[k]}, n

    def test_default_family_at_depth_80(self):
        self.assert_matches_the_fractions(build(default_seed(), 80).arrangement())

    @settings(max_examples=10, deadline=None)
    @given(SHIFTS)
    def test_shifted_seeds_at_depth_20(self, shift):
        seed = shifted_seed(shift)
        assume(validate_seed(seed))
        try:
            family = build(seed, 20)
        except DegenerateStep:
            return
        self.assert_matches_the_fractions(family.arrangement())

    @given(st.tuples(*[st.integers(-(1 << 70), 1 << 70)] * 3), st.integers(1, 1 << 70),
           st.integers(1, 1 << 20))
    def test_any_integer_vector(self, v, n, common):
        # Not only primitive vectors: with a common factor, or all zero.
        for u in (v, tuple(common * c for c in v), (0, 0, 0)):
            assert construction._shrunk_primitive(u, n) == _primitive(*(F(c, n) for c in u))


def nonzero_part(arrangement: LabeledArrangement) -> LabeledArrangement:
    return LabeledArrangement((l, v) for l, v in arrangement.elements if not v.is_zero())


# The depth-20 report of one seed, rendered by a fresh interpreter.
FRESH_REPORT = """
import sys
from omstrata import PlanePoint, certificate, default_seed
from omstrata.serialization import document_to_json, render_report
seed = default_seed()
if sys.argv[1] == "wall":
    seed = type(seed)(**{**seed.points(), "nu": PlanePoint(3, 2)})
print(document_to_json(render_report(certificate(seed, 20))))
"""


class TestArrangementsBuiltInOrder:
    """Restricting, rescaling and the limit keep the elements in label
    order: the sorting constructor on the same elements, reversed, is the
    reference, and for the samples so is the rescaling by
    ``Vector3.scaled``."""

    @pytest.mark.parametrize("seed", [default_seed(), WALL_SEED], ids=["default", "wall"])
    def test_every_level_to_depth_20(self, seed):
        rng = random.Random(137)
        family = build(seed, 20)
        for i in range(1, 21):
            marked = delta_arrangement(family, i)
            built = [
                limit_arrangement(marked),
                marked.restrict(PERSISTENT),
                marked.restrict(rng.sample(marked.labels, rng.randint(0, len(marked)))),
                marked.rescaled({l: rand_positive_fraction(rng) for l in rng.sample(marked.labels, 5)}),
            ]
            for n in (1, 2, 4, 1024, 3 ** 40):
                scaled = scale_degeneration(marked, n)
                assert scaled == LabeledArrangement(
                    (l, v if l in PERSISTENT else v.scaled(F(1, n))) for l, v in marked.elements
                )
                built.append(scaled)
            for arr in [marked] + built:
                assert arr == LabeledArrangement(reversed(arr.elements))
                assert all(type(c) is F for _, v in arr.elements for c in (v.x, v.y, v.z))


class TestHistoryIndependence:
    """A certificate's result does not depend on what ran before it in the
    process, nor on what runs beside it."""

    def test_certificates_in_turn_equal_fresh_runs(self):
        src = Path(__file__).parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        fresh = {
            name: subprocess.run([sys.executable, "-c", FRESH_REPORT, name], capture_output=True,
                                 text=True, encoding="utf-8", timeout=120, check=True, env=env).stdout
            for name in ("default", "wall")
        }
        seeds = {"default": default_seed(), "wall": WALL_SEED}
        reports = {}
        for name in ("default", "wall", "default"):
            reports[name] = certificate(seeds[name], 20)
            assert document_to_json(render_report(reports[name])) + "\n" == fresh[name]
        for name, report in reports.items():  # the last run of each seed
            family = build(seeds[name], 20)
            for rec in report.records:
                marked = delta_arrangement(family, rec.i)
                level = om_of(marked)
                assert rec.mi_fingerprint == level.fingerprint()
                assert rec.degeneration_ok == tuple(
                    (n, om_of(scale_degeneration(marked, n)) == level) for n in report.samples
                )
                limit = nonzero_part(limit_arrangement(marked))
                assert rec.limit_fingerprint == om_of(limit).fingerprint()

    @pytest.mark.parametrize("source", ["table", "om_of"])
    def test_threads_read_the_levels_alike(self, source):
        # Two threads read the depth-6 levels and limits while a third
        # enumerates an unrelated 30-point arrangement.
        family = build(default_seed(), 6)
        levels = [delta_arrangement(family, i) for i in range(1, 7)]
        arrangements = levels + [nonzero_part(limit_arrangement(m)) for m in levels]
        reference = [om_of(arr).fingerprint() for arr in arrangements]
        table = table_of(levels[-1])
        read = (lambda arr: table_read(table, arr)) if source == "table" else om_of
        other = rand_spanning_arrangement(random.Random(97), 30)
        other_reference = om_of(other).fingerprint()
        wrong, errors = [], []

        def run(read, pairs, rounds):
            try:
                for _ in range(rounds):
                    for arr, want in pairs:
                        if read(arr).fingerprint() != want:
                            wrong.append(arr.labels)
            except Exception as exc:  # reported by the assertions below
                errors.append(exc)

        level_pairs = list(zip(arrangements, reference))
        threads = [threading.Thread(target=run, args=(read, level_pairs, 25)) for _ in range(2)]
        threads.append(threading.Thread(target=run, args=(om_of, [(other, other_reference)], 20)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and wrong == []
