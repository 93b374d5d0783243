import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omstrata import (
    CoincidentPoints,
    DegeneratePoints,
    DegenerateSource,
    DegenerateTarget,
    Identical,
    NonPositiveHeight,
    NotCollinear,
    Parallel,
    PlanePoint,
    Projectivity,
    Vector3,
    affine_from_correspondence,
    collinear,
    cross_ratio,
    embed_affine,
    line_intersect,
    line_through,
    perspective_normalize,
    sign_det3,
)
from omstrata.geometry import _lift, _point, _point_lift, _primitive
from omstrata.linalg import matrix_rank

import fraction_reference as ref
from conftest import affine_projectivity, rand_point, rand_projectivity

E1 = Vector3(1, 0, 0)
E2 = Vector3(0, 1, 0)
E3 = Vector3(0, 0, 1)

fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)
nonzero_fractions = fractions.filter(lambda f: f != 0)
positive_fractions = st.fractions(min_value=F(1, 12), max_value=20, max_denominator=12)


def vec3s():
    return st.builds(Vector3, fractions, fractions, fractions)


def points():
    return st.builds(PlanePoint, fractions, fractions)


class TestPrimitive:
    def test_matches_fraction_reference(self):
        rng = random.Random(41)

        def entry():
            kind = rng.random()
            if kind < 0.2:
                return F(0)
            bits = 200 if kind < 0.5 else 8
            sign = rng.choice((-1, 1))
            return F(sign * rng.getrandbits(bits), rng.getrandbits(bits) + 1)

        for _ in range(2000):
            x, y, z = entry(), entry(), entry()
            if rng.random() < 0.1:  # shared denominators and common factors
                k = F(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))
                x, y, z = x * k, y * k, z * k
            assert _primitive(x, y, z) == ref.fraction_primitive(x, y, z)

    def test_lift_matches_fraction_reference(self):
        # _lift takes no gcd: its (x L, y L, L) must already be primitive
        rng = random.Random(43)

        def coordinate():
            kind = rng.random()
            if kind < 0.2:
                return F(0)
            bits = 200 if kind < 0.5 else 8
            return F(rng.choice((-1, 1)) * rng.getrandbits(bits), rng.getrandbits(bits) + 1)

        for _ in range(2000):
            p = PlanePoint(coordinate(), coordinate())
            if rng.random() < 0.1:  # one shared denominator
                p = PlanePoint(p.x, F(rng.getrandbits(64), p.x.denominator))
            assert _lift(p) == ref.fraction_primitive(p.x, p.y, F(1))

    def test_point_lift_matches_point_and_gcd(self):
        rng = random.Random(47)

        def entry(bits):
            return rng.choice((-1, 1)) * rng.getrandbits(bits)

        for trial in range(2000):
            bits = rng.choice((8, 200, 800))
            v = [entry(bits), entry(bits), entry(bits) or 1]
            if trial % 5 == 0:
                v[0] = 0
            elif trial % 5 == 1:
                v[1] = 0
            if rng.random() < 0.3:  # a large common factor
                k = rng.getrandbits(rng.choice((8, 200))) + 1
                v = [k * e for e in v]
            v = tuple(v)
            g = gcd(*v)
            assert _point_lift(v) == (_point(v), tuple(e // g for e in v))
        assert _point_lift((0, 0, -6)) == (PlanePoint(0, 0), (0, 0, -1))
        assert _point_lift((4, -6, -2)) == (PlanePoint(-2, 3), (2, -3, -1))

    def test_coprime_and_positively_proportional(self):
        assert _primitive(F(0), F(0), F(0)) == (0, 0, 0)
        assert _primitive(F(-2, 3), F(4, 9), F(0)) == (-3, 2, 0)
        assert _primitive(F(6), F(-10), F(14)) == (3, -5, 7)


class TestExactCoordinates:
    """Points and vectors hold ints and Fractions only: anything else, a
    float or a bool included, raises instead of entering the exact layer."""

    @pytest.mark.parametrize("value", [0.1, 1.0, True, False, "1/2", None])
    def test_values_that_are_not_ints_or_fractions_raise(self, value):
        makers = (lambda: PlanePoint(value, 1), lambda: PlanePoint(1, value),
                  lambda: Vector3(0, value, 1), lambda: E1.scaled(value))
        for make in makers:
            with pytest.raises(ValueError, match="int or a Fraction"):
                make()


class TestSignDet3:
    def test_identity_is_positive(self):
        assert sign_det3(E1, E2, E3) == 1

    def test_transposition_is_negative(self):
        assert sign_det3(E2, E1, E3) == -1

    def test_dependent_triple_is_zero(self):
        assert sign_det3(E1, E2, Vector3(1, 1, 0)) == 0

    @given(vec3s(), vec3s(), vec3s())
    def test_swapping_arguments_negates(self, u, v, w):
        s = sign_det3(u, v, w)
        assert sign_det3(v, u, w) == -s
        assert sign_det3(u, w, v) == -s
        assert sign_det3(w, v, u) == -s

    @given(vec3s(), vec3s(), vec3s(), positive_fractions)
    def test_positive_scaling_indifference(self, u, v, w, scale):
        assert sign_det3(u.scaled(scale), v, w) == sign_det3(u, v, w)


class TestLines:
    def test_diagonal(self):
        line = line_through(PlanePoint(0, 0), PlanePoint(1, 1))
        assert (line.a, line.b, line.c) == (1, -1, 0)

    def test_horizontal(self):
        line = line_through(PlanePoint(0, 1), PlanePoint(1, 1))
        assert (line.a, line.b, line.c) == (0, 1, -1)

    def test_coincident_points_rejected(self):
        with pytest.raises(CoincidentPoints) as exc:
            line_through(PlanePoint(0, 0), PlanePoint(0, 0))
        assert str(exc.value) == (
            "cannot span a line with PlanePoint(x=Fraction(0, 1), y=Fraction(0, 1)) twice"
        )

    @settings(max_examples=200)
    @given(points(), points())
    def test_matches_fraction_reference(self, p, q):
        if p == q:
            return
        line = line_through(p, q)
        assert (line.a, line.b, line.c) == ref.line_through(p, q)

    def test_canonical_form_ignores_defining_pair(self):
        l1 = line_through(PlanePoint(0, 0), PlanePoint(1, 1))
        l2 = line_through(PlanePoint(3, 3), PlanePoint(-2, -2))
        assert l1 == l2
        assert hash(l1) == hash(l2)

    def test_symmetric_cross(self):
        l1 = line_through(PlanePoint(0, 0), PlanePoint(1, 1))
        l2 = line_through(PlanePoint(0, 1), PlanePoint(1, 0))
        assert line_intersect(l1, l2) == PlanePoint(F(1, 2), F(1, 2))

    def test_parallel(self):
        l1 = line_through(PlanePoint(0, 0), PlanePoint(1, 0))
        l2 = line_through(PlanePoint(0, 1), PlanePoint(1, 1))
        with pytest.raises(Parallel) as exc:
            line_intersect(l1, l2)
        assert str(exc.value) == "Line2(0x + 1y + 0 = 0) and Line2(0x + 1y + -1 = 0) are parallel"

    def test_identical(self):
        l1 = line_through(PlanePoint(0, 0), PlanePoint(1, 1))
        l2 = line_through(PlanePoint(2, 2), PlanePoint(5, 5))
        with pytest.raises(Identical) as exc:
            line_intersect(l1, l2)
        assert str(exc.value) == "Line2(1x + -1y + 0 = 0) and Line2(1x + -1y + 0 = 0) coincide"

    def test_seed_first_intersection(self):
        # independently solved 2x2 system: the first appended point of the
        # shipped seed
        omega, gamma = PlanePoint(3, 5), PlanePoint(4, 0)
        alpha, b1 = PlanePoint(0, 0), PlanePoint(F(9, 2), F(5, 2))
        meet = line_intersect(line_through(omega, gamma), line_through(alpha, b1))
        assert meet == PlanePoint(F(18, 5), 2)

    @settings(max_examples=60)
    @given(points(), points(), points(), points())
    def test_intersection_lies_on_both_lines(self, p1, p2, q1, q2):
        if p1 == p2 or q1 == q2:
            return
        l1, l2 = line_through(p1, p2), line_through(q1, q2)
        try:
            meet = line_intersect(l1, l2)
        except (Parallel, Identical):
            return
        assert collinear(p1, p2, meet) and collinear(q1, q2, meet)


class TestCollinear:
    def test_on_diagonal(self):
        assert collinear(PlanePoint(0, 0), PlanePoint(1, 1), PlanePoint(2, 2))

    def test_triangle(self):
        assert not collinear(PlanePoint(0, 0), PlanePoint(1, 0), PlanePoint(0, 1))

    def test_repeated_point(self):
        assert collinear(PlanePoint(0, 0), PlanePoint(0, 0), PlanePoint(5, 7))

    def test_matches_fraction_reference(self):
        rng = random.Random(13)
        seen = {True: 0, False: 0}
        for _ in range(3000):
            p, q = rand_point(rng, 4), rand_point(rng, 4)
            kind = rng.random()
            if kind < 0.2:  # a repeated point, in any position
                r = rng.choice((p, q))
            elif kind < 0.5:  # on the line p-q
                t = F(rng.randint(-9, 9), rng.randint(1, 9))
                r = PlanePoint(p.x + t * (q.x - p.x), p.y + t * (q.y - p.y))
            else:
                r = rand_point(rng, 4)
            triple = rng.sample((p, q, r), 3)
            expected = ref.collinear(*triple)
            assert collinear(*triple) == expected
            seen[expected] += 1
        assert min(seen.values()) > 500


class TestCrossRatio:
    def test_evenly_spaced(self):
        pts = [PlanePoint(x, 0) for x in (0, 1, 2, 3)]
        assert cross_ratio(*pts) == F(4, 3)

    def test_stretched(self):
        pts = [PlanePoint(x, 0) for x in (0, 1, 2, 4)]
        assert cross_ratio(*pts) == F(3, 2)

    def test_affine_image(self):
        # x -> 2x + 1 keeps the value
        pts = [PlanePoint(2 * x + 1, 0) for x in (0, 1, 2, 3)]
        assert cross_ratio(*pts) == F(4, 3)

    def test_not_collinear(self):
        with pytest.raises(NotCollinear) as exc:
            cross_ratio(PlanePoint(0, 0), PlanePoint(1, 0),
                        PlanePoint(2, 0), PlanePoint(2, 1))
        assert str(exc.value) == "cross-ratio needs four collinear points"

    def test_coincidence_rejected(self):
        with pytest.raises(DegeneratePoints) as exc:
            cross_ratio(PlanePoint(0, 0), PlanePoint(1, 0),
                        PlanePoint(1, 0), PlanePoint(3, 0))
        assert str(exc.value) == "points 1 and 2 coincide"

    @settings(max_examples=200)
    @given(
        points(),
        st.one_of(points(), st.builds(PlanePoint, st.just(0), nonzero_fractions)),
        st.lists(fractions, min_size=4, max_size=4, unique=True),
    )
    def test_matches_parametric_formula(self, base, direction, params):
        # the second strategy gives vertical lines, where a.x == b.x
        if (direction.x, direction.y) == (0, 0):
            return
        pts = [PlanePoint(base.x + t * direction.x, base.y + t * direction.y) for t in params]
        assert cross_ratio(*pts) == ref.cross_ratio(*pts)

    def test_invariance_under_random_affine_maps(self):
        rng = random.Random(2024)
        for _ in range(60):
            base = rand_point(rng)
            direction = rand_point(rng)
            if (direction.x, direction.y) == (0, 0):
                continue
            params = set()
            while len(params) < 4:
                params.add(F(rng.randint(-30, 30), rng.randint(1, 9)))
            pts = [
                PlanePoint(base.x + t * direction.x, base.y + t * direction.y)
                for t in sorted(params)
            ]
            value = cross_ratio(*pts)
            mapping = _random_automorphism(rng)
            assert cross_ratio(*(mapping(p) for p in pts)) == value


def _random_automorphism(rng: random.Random) -> Projectivity:
    while True:
        entries = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)]
        if entries[0] * entries[3] - entries[1] * entries[2] != 0:
            break
    translation = (F(rng.randint(-9, 9)), F(rng.randint(-9, 9)))
    return affine_projectivity(((entries[0], entries[1]), (entries[2], entries[3])), translation)


class TestAffineMaps:
    TRIANGLE = (PlanePoint(0, 0), PlanePoint(1, 0), PlanePoint(0, 1))

    def test_identity_from_correspondence(self):
        mapping = affine_from_correspondence(self.TRIANGLE, self.TRIANGLE)
        assert mapping == Projectivity.identity()

    def test_translation_from_correspondence(self):
        shifted = tuple(PlanePoint(p.x + 1, p.y + 1) for p in self.TRIANGLE)
        mapping = affine_from_correspondence(self.TRIANGLE, shifted)
        assert mapping == Projectivity(((1, 0, 1), (0, 1, 1), (0, 0, 1)))

    def test_degenerate_source(self):
        collinear_triple = (PlanePoint(0, 0), PlanePoint(1, 1), PlanePoint(2, 2))
        with pytest.raises(DegenerateSource):
            affine_from_correspondence(collinear_triple, self.TRIANGLE)

    def test_degenerate_target(self):
        collinear_triple = (PlanePoint(0, 0), PlanePoint(1, 1), PlanePoint(2, 2))
        with pytest.raises(DegenerateTarget):
            affine_from_correspondence(self.TRIANGLE, collinear_triple)

    def test_identity_fixes_point(self):
        assert Projectivity.identity()(PlanePoint(3, 4)) == PlanePoint(3, 4)

    def test_translation_moves_origin(self):
        shifted = tuple(PlanePoint(p.x + 1, p.y + 1) for p in self.TRIANGLE)
        mapping = affine_from_correspondence(self.TRIANGLE, shifted)
        assert mapping(PlanePoint(0, 0)) == PlanePoint(1, 1)

    def test_correspondence_reproduces_target_and_is_unique(self):
        rng = random.Random(99)
        for _ in range(40):
            src = tuple(rand_point(rng) for _ in range(3))
            dst = tuple(rand_point(rng) for _ in range(3))
            if collinear(*src) or collinear(*dst):
                continue
            mapping = affine_from_correspondence(src, dst)
            assert tuple(mapping(p) for p in src) == dst
            # the defining 6x6 system is nonsingular, so no second solution
            system = []
            for p in src:
                system.append([p.x, p.y, F(1), F(0), F(0), F(0)])
                system.append([F(0), F(0), F(0), p.x, p.y, F(1)])
            assert matrix_rank(system) == 6


class TestProjectivity:
    MATRIX = ((2, -1, 3), (0, 4, 1), (1, 1, 5))

    @pytest.mark.parametrize("factor", [1, 2, 7, -1, -3])
    def test_multiples_are_one_map(self, factor):
        scaled = Projectivity(tuple(tuple(factor * e for e in row) for row in self.MATRIX))
        assert scaled == Projectivity(self.MATRIX)
        assert hash(scaled) == hash(Projectivity(self.MATRIX))
        assert scaled.matrix == self.MATRIX

    def test_canonical_form_is_primitive_with_first_entry_positive(self):
        assert Projectivity(((0, -6, 0), (4, 0, 0), (0, 0, -2))).matrix == (
            (0, 3, 0), (-2, 0, 0), (0, 0, 1)
        )

    @pytest.mark.parametrize("entry", [F(1), F(1, 2), 1.0, True, False])
    def test_entries_that_are_not_ints_raise(self, entry):
        with pytest.raises(ValueError):
            Projectivity(((entry, 0, 0), (0, 1, 0), (0, 0, 1)))

    @pytest.mark.parametrize("matrix", [
        ((1, 2, 3), (2, 4, 6), (0, 0, 1)),
        ((0, 0, 0), (0, 0, 0), (0, 0, 0)),
        ((1, 0, 0), (0, 1, 0), (1, 1, 0)),
    ])
    def test_singular_matrix_raises(self, matrix):
        with pytest.raises(ValueError):
            Projectivity(matrix)

    def test_matrix_that_is_not_3x3_raises(self):
        with pytest.raises(ValueError):
            Projectivity(((1, 0), (0, 1)))

    def test_point_sent_to_infinity_raises(self):
        mapping = Projectivity(((1, 0, 0), (0, 1, 0), (1, 0, 1)))
        with pytest.raises(NonPositiveHeight):
            mapping(PlanePoint(-1, 5))
        assert mapping(PlanePoint(-2, 5)) == PlanePoint(2, -5)

    def test_matches_fraction_formula(self):
        rng = random.Random(17)
        for _ in range(200):
            mapping = rand_projectivity(rng)
            p = rand_point(rng)
            (a, b, c), (d, e, f), (g, h, i) = mapping.matrix
            z = g * p.x + h * p.y + i
            if z == 0:
                continue
            assert mapping(p) == PlanePoint((a * p.x + b * p.y + c) / z, (d * p.x + e * p.y + f) / z)

    def test_correspondence_is_affine(self):
        rng = random.Random(23)
        for _ in range(40):
            src = tuple(rand_point(rng) for _ in range(3))
            dst = tuple(rand_point(rng) for _ in range(3))
            if collinear(*src) or collinear(*dst):
                continue
            last = affine_from_correspondence(src, dst).matrix[2]
            assert last[:2] == (0, 0) and last[2] != 0


class TestEmbedding:
    def test_embed(self):
        assert embed_affine(PlanePoint(0, 0)) == Vector3(0, 0, 1)
        assert embed_affine(PlanePoint(2, -3)) == Vector3(2, -3, 1)

    def test_normalize(self):
        assert perspective_normalize(Vector3(2, 4, 2)) == PlanePoint(1, 2)
        assert perspective_normalize(Vector3(0, 0, 1)) == PlanePoint(0, 0)

    def test_nonpositive_height(self):
        with pytest.raises(NonPositiveHeight):
            perspective_normalize(Vector3(1, 1, 0))
        with pytest.raises(NonPositiveHeight):
            perspective_normalize(Vector3(1, 1, -2))

    @given(points())
    def test_round_trip_from_plane(self, p):
        assert perspective_normalize(embed_affine(p)) == p

    @given(vec3s().filter(lambda v: v.z > 0))
    def test_round_trip_fixes_rays(self, v):
        assert embed_affine(perspective_normalize(v)) == v.scaled(1 / v.z)
