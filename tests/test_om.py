import copy
import hashlib
import json
import pickle
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction as F
from itertools import combinations, product
from math import gcd
from operator import itemgetter, mul

import pytest

from omstrata import (
    GroundSetMismatch,
    LabeledArrangement,
    NotSpanning,
    OrientedMatroid,
    PlanePoint,
    SignVector,
    Subspace,
    Vector3,
    VectorFamily,
    build,
    certificate,
    chirotope_of,
    covectors_of,
    default_seed,
    delta_arrangement,
    embed_affine,
    family_om,
    limit_arrangement,
    om_equal,
    om_of,
    projection_arrangement,
    scale_degeneration,
    strong_map,
    underlying_matroid,
    weak_map,
)
from omstrata import grassmann
from omstrata import om as om_module
from omstrata.geometry import _cross
from omstrata.om import LineTable
from omstrata.labels import PERSISTENT, label_key
from omstrata.linalg import matrix_rank
from omstrata.errors import SchemaError
from omstrata.serialization import parse_om, render_om

import fraction_reference as ref
from conftest import (
    all_pairs_cocircuit_tuples,
    as_row,
    as_rows,
    height_one,
    rand_point,
    rand_positive_fraction,
    rand_spanning_arrangement,
    sampled_sign_patterns,
    sign_of,
    table_of,
    table_read,
)

E1 = Vector3(1, 0, 0)
E2 = Vector3(0, 1, 0)
E3 = Vector3(0, 0, 1)
ONES = Vector3(1, 1, 1)

BASIS = LabeledArrangement([(1, E1), (2, E2), (3, E3)])
BASIS4 = LabeledArrangement([(1, E1), (2, E2), (3, E3), (4, ONES)])
DEGEN4 = LabeledArrangement([(1, E1), (2, E2), (3, E3), (4, Vector3(1, 1, 0))])
# A 3-plane of Q^7 with entries near 1e6/1e6 and a zero column: its
# projection has a loop at label 4.
_RNG = random.Random(211)
PLANE7 = Subspace(7, [[F(_RNG.randint(-10 ** 6, 10 ** 6), _RNG.randint(1, 10 ** 6)) if i != 3 else F(0)
                       for i in range(7)] for _ in range(3)])


def rand_degenerate_arrangement(rng: random.Random, size: int) -> LabeledArrangement:
    """A random spanning arrangement plus parallel and antiparallel copies of
    some of its elements and one loop, relabeled 1..n in shuffled order."""
    base = rand_spanning_arrangement(rng, size, span=rng.choice((2, 9)))
    elements = [v for _, v in base.elements]
    for v in list(elements):
        if rng.random() < 0.3:
            elements.append(v.scaled(rng.choice((-1, 1)) * rand_positive_fraction(rng)))
    elements.append(Vector3(0, 0, 0))
    rng.shuffle(elements)
    return LabeledArrangement((i + 1, v) for i, v in enumerate(elements))


def rand_grid_arrangement(rng: random.Random, size: int) -> LabeledArrangement:
    """Vectors on a small integer grid, so that many triples are coplanar,
    plus loops and parallel and antiparallel copies, labeled 1..n."""
    elements = [
        Vector3(rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(0, 2)) for _ in range(size)
    ]
    for v in list(elements):
        if rng.random() < 0.25:
            elements.append(v.scaled(rng.choice((-1, 1)) * rand_positive_fraction(rng)))
    if rng.random() < 0.5:
        elements.append(Vector3(0, 0, 0))
    rng.shuffle(elements)
    return LabeledArrangement((i + 1, v) for i, v in enumerate(elements))


def up_to_sign(chi, reference) -> bool:
    flipped = {t: -s for t, s in reference.nonzero.items()}
    return chi.ground == reference.ground and dict(chi.nonzero) in (dict(reference.nonzero), flipped)


def realized_covectors(arrangement: LabeledArrangement):
    """Independent oracle: build every covector with an explicit rational
    functional, starting from the pair normals and composing by dominant
    scaling.  Returns {pattern: functional}."""
    ordered = sorted(arrangement.elements, key=lambda e: label_key(e[0]))
    vectors = [v for _, v in ordered]

    def pattern_of(functional: Vector3):
        return tuple(sign_of(v.dot(functional)) for v in vectors)

    witnesses = {}
    for i, j in combinations(range(len(vectors)), 2):
        normal = vectors[i].cross(vectors[j])
        if normal.is_zero():
            continue
        for w in (normal, normal.scaled(-1)):
            witnesses.setdefault(pattern_of(w), w)

    frontier = dict(witnesses)
    while frontier:
        fresh = {}
        for x_pat, x_w in frontier.items():
            for y_pat, y_w in witnesses.items():
                composed = tuple(a if a != 0 else b for a, b in zip(x_pat, y_pat))
                if composed in witnesses or composed in fresh:
                    continue
                # scale x's functional until it dominates y's everywhere on
                # the support of x
                bound = F(0)
                for v, sign in zip(vectors, x_pat):
                    if sign != 0:
                        bound = max(bound, abs(v.dot(y_w)) / abs(v.dot(x_w)))
                k = bound + 1
                witness = Vector3(
                    k * x_w.x + y_w.x, k * x_w.y + y_w.y, k * x_w.z + y_w.z
                )
                assert pattern_of(witness) == composed
                fresh[composed] = witness
        witnesses.update(fresh)
        frontier = fresh
    witnesses[pattern_of(Vector3(0, 0, 0))] = Vector3(0, 0, 0)
    return witnesses


class TestChirotope:
    def test_basis(self):
        assert chirotope_of(BASIS)[(1, 2, 3)] == 1

    def test_dependent_triple(self):
        arr = LabeledArrangement([(1, E1), (2, E2), (3, Vector3(1, 1, 0))])
        assert chirotope_of(arr)[(1, 2, 3)] == 0

    def test_affine_triangle(self):
        arr = LabeledArrangement(
            [(1, Vector3(0, 0, 1)), (2, Vector3(1, 0, 1)), (3, Vector3(0, 1, 1))]
        )
        assert chirotope_of(arr)[(1, 2, 3)] == 1


class TestCocircuits:
    def test_basis_has_six(self):
        cocircuits = om_of(BASIS).cocircuits
        assert len(cocircuits) == 6
        patterns = {cc.signs for cc in cocircuits}
        assert patterns == {
            (0, 0, 1), (0, 0, -1), (0, 1, 0), (0, -1, 0), (1, 0, 0), (-1, 0, 0)
        }

    def test_pair_normal_example(self):
        patterns = {cc.signs for cc in om_of(BASIS4).cocircuits}
        assert (0, 0, 1, 1) in patterns and (0, 0, -1, -1) in patterns

    def test_not_spanning(self):
        rank2 = LabeledArrangement([(1, E1), (2, E2), (3, Vector3(1, 1, 0))])
        with pytest.raises(NotSpanning):
            om_of(rank2)

    def test_seed_baseline_cocircuit(self):
        # gamma rides the alpha-beta line, so the cocircuit supported by
        # that pair vanishes exactly on {alpha, beta, gamma}
        arrangement = build(default_seed(), 0).arrangement()
        matroid = om_of(arrangement)
        alpha, beta = matroid.ground.index("alpha"), matroid.ground.index("beta")
        for row in matroid.rows:
            if row[alpha] == row[beta] == "0":
                zeros = {l for l, c in zip(matroid.ground, row) if c == "0"}
                assert zeros == {"alpha", "beta", "gamma"}
                break
        else:
            pytest.fail("no cocircuit vanishing on alpha and beta")

    def test_cocircuit_zero_sets_have_rank_two(self):
        rng = random.Random(47)
        for _ in range(15):
            arr = rand_spanning_arrangement(rng, rng.randint(3, 6))
            vectors = {label: v for label, v in arr.elements}
            matroid = om_of(arr)
            for row in matroid.rows:
                rows = [
                    (vectors[l].x, vectors[l].y, vectors[l].z)
                    for l, c in zip(matroid.ground, row)
                    if c == "0" and not vectors[l].is_zero()
                ]
                assert matrix_rank(rows) == 2

    def test_every_cocircuit_comes_from_a_pair_normal(self):
        rng = random.Random(42)
        for _ in range(20):
            arr = rand_spanning_arrangement(rng, rng.randint(3, 6))
            ordered = sorted(arr.elements, key=lambda e: label_key(e[0]))
            vectors = [v for _, v in ordered]
            from_normals = set()
            for i, j in combinations(range(len(vectors)), 2):
                normal = vectors[i].cross(vectors[j])
                if normal.is_zero():
                    continue
                for w in (normal, normal.scaled(-1)):
                    from_normals.add(tuple(sign_of(v.dot(w)) for v in vectors))
            assert {cc.signs for cc in om_of(arr).cocircuits} == from_normals


def rand_large_map(rng: random.Random, ints):
    """``ints`` mapped by a random integer 3x3 matrix with entries of up to
    48 bits and a non-zero determinant, as primitive vectors: every line,
    parallel pair and loop stays, and so does the set of cocircuit rows."""
    while True:
        m = [[rng.randint(-(1 << 48), 1 << 48) for _ in range(3)] for _ in range(3)]
        if om_module._det3(*m):
            break
    return tuple(
        om_module._primitive(*(row[0] * x + row[1] * y + row[2] * z for row in m))
        for x, y, z in ints
    )


def assert_lines_in_pair_order(ints):
    """The kernel's rows, pair index and making columns are the slow exact
    kernel's, rows in order."""
    assert om_module._enumerate_lines(ints) == ref.slow_lines(ints)


class TestCocircuitKernel:
    """``_enumerate_lines`` computes one sign row per line, and ``om_of``
    keeps those rows; the all-pairs loop is the reference of the rows, and
    ``fraction_reference.slow_lines`` the reference of their order and of
    the index of the line through each pair."""

    def test_matches_all_pairs_on_grid_arrangements(self):
        rng = random.Random(71)
        maps = random.Random(72)
        kinds = {"mapped": 0, "rank 2": 0, "parallel": 0, "loop": 0}
        for _ in range(200):
            arr = rand_grid_arrangement(rng, rng.randint(3, 10))
            ints = arr.integer_vectors
            # its shadow on the plane z = 0, of rank 2 or less
            flat = tuple(om_module._primitive(x, y, 0) for x, y, _ in ints)
            for small in (ints, flat):
                reference = as_rows(all_pairs_cocircuit_tuples(small))
                large = rand_large_map(maps, small)
                nonzero = [v for v in small if any(v)]
                kinds["mapped"] += bool(nonzero)
                kinds["rank 2"] += matrix_rank(small) == 2
                kinds["parallel"] += len({max(v, negated(v)) for v in nonzero}) < len(nonzero)
                kinds["loop"] += len(nonzero) < len(small)
                for vectors in (small, large):
                    assert set(om_module._enumerate_lines(vectors)[0]) == reference
                    assert_lines_in_pair_order(vectors)
                if small is ints and arr.is_spanning():
                    assert set(om_of(arr).rows) == reference
                    assert set(om_of(arrangement_of(large)).rows) == reference
        assert min(kinds.values()) > 50, kinds

    def test_pair_order_on_the_deepest_tables(self):
        for depth in (40, 60):
            ints = delta_arrangement(build(default_seed(), depth), depth).integer_vectors
            assert_lines_in_pair_order(ints)

    def test_matches_all_pairs_on_certificate_levels(self):
        # Each level and its limit span; the level's points on the baseline,
        # alpha, gamma, beta, delta and the c_j, lie on one line.
        family = build(default_seed(), 20)
        for i in range(1, 21):
            marked = delta_arrangement(family, i)
            baseline = marked.restrict(["alpha", "beta", "gamma", "delta", *(f"c{j}" for j in range(1, i))])
            assert matrix_rank(baseline.integer_vectors) == 2 and not baseline.is_spanning()
            with pytest.raises(NotSpanning, match="^arrangement does not span rank 3$"):
                om_of(baseline)
            for arr in (marked, limit_arrangement(marked)):
                ints = arr.integer_vectors
                assert matrix_rank(ints) == 3 and arr.is_spanning()
                assert set(om_of(arr).rows) == as_rows(all_pairs_cocircuit_tuples(ints))
                assert_lines_in_pair_order(ints)


WINDOW = om_module._WINDOW


def rand_coordinate(rng: random.Random, bits: int) -> int:
    """A random int of exactly ``bits`` bits, of either sign."""
    return rng.choice((-1, 1)) * rng.randrange(1 << bits - 1, 1 << bits)


def rand_wide_arrangement(rng: random.Random, sizes) -> tuple:
    """Integer vectors with coordinates of one of ``sizes`` bits each (one
    size for all or one per vector), and planted degeneracies: zero
    vectors, parallel and antiparallel copies, sums of two earlier vectors
    (collinear triples) and such sums moved by +-1 in one coordinate
    (near-collinear triples)."""
    uniform = rng.random() < 0.5
    bits = rng.choice(sizes)
    vectors = []
    for _ in range(rng.randint(4, 11)):
        size = bits if uniform else rng.choice(sizes)
        kind = rng.random() if len(vectors) >= 2 else 1
        if kind < 0.1:
            v = (0, 0, 0)
        elif kind < 0.25:
            u, f = rng.choice(vectors), rng.choice((-3, -1, 1, 2))
            v = (f * u[0], f * u[1], f * u[2])
        elif kind < 0.55:
            u, w = rng.sample(vectors, 2)
            v = [a + b for a, b in zip(u, w)]
            if kind < 0.45:
                v[rng.randrange(3)] += rng.choice((-1, 1))
            v = tuple(v)
        else:
            v = tuple(rand_coordinate(rng, size) for _ in range(3))
        vectors.append(v)
    rng.shuffle(vectors)
    return tuple(vectors)


class TestTruncatedKernel:
    """``_enumerate_lines`` reads a triple's sign off coordinates truncated
    to ``_WINDOW`` bits when that product is at least ``_SLACK`` in size,
    and takes the full-width product otherwise; the slow exact kernel of
    ``fraction_reference`` is the reference of its rows and pair index, as
    it is on the certificate levels and deepest tables of
    ``TestCocircuitKernel``."""

    SIZES = (WINDOW - 1, WINDOW, WINDOW + 1, 2 * WINDOW, 2000)

    def test_matches_the_slow_kernel_on_wide_arrangements(self):
        rng = random.Random(211)
        for sizes in [(bits,) for bits in self.SIZES] + [self.SIZES]:
            for _ in range(40):
                assert_lines_in_pair_order(rand_wide_arrangement(rng, sizes))

    def test_truncation_error_is_under_the_slack(self):
        # N . v / 2^(a+b) lies within _SLACK of N' . v' for the shifts a, b
        # of the truncation, also when >> rounds a negative value down
        rng = random.Random(223)
        for _ in range(2000):
            n, v = (tuple(rand_coordinate(rng, rng.choice(self.SIZES)) for _ in range(3))
                    for _ in range(2))
            n2, v2 = om_module._truncated(n), om_module._truncated(v)
            shifts = []
            for full, cut in ((n, n2), (v, v2)):
                assert all(abs(c) <= 1 << WINDOW for c in cut)
                shift = max(0, max(map(int.bit_length, full)) - WINDOW)
                assert cut == tuple(c >> shift for c in full)
                shifts.append(shift)
            error = sum(map(mul, n, v)) - (sum(map(mul, n2, v2)) << sum(shifts))
            assert abs(error) < om_module._SLACK << sum(shifts)

    def test_a_near_collinear_triple_takes_the_full_product(self):
        # v3 = v1 + v2 + (0, 0, 1): N . v3 = x1 y2 - y1 x2 is not zero, but
        # far under the slack once both sides are truncated
        rng = random.Random(227)
        v1, v2 = (tuple(rand_coordinate(rng, 600) for _ in range(3)) for _ in range(2))
        v3 = (v1[0] + v2[0], v1[1] + v2[1], v1[2] + v2[2] + 1)
        normal = _cross(v1, v2)
        exact = sum(map(mul, normal, v3))
        cut = sum(map(mul, om_module._truncated(normal), om_module._truncated(v3)))
        assert exact and abs(cut) < om_module._SLACK
        for flip in (1, -1):
            ints = (v1, v2, tuple(flip * c for c in v3))
            assert om_module._enumerate_lines(ints)[0][0][2] == ("+" if flip * exact > 0 else "-")
            assert_lines_in_pair_order(ints)

    def test_short_vectors_keep_full_width_products(self, monkeypatch):
        # with no vector over _WINDOW bits the slack is 0: no sign is left
        # undecided, so no product is taken twice
        monkeypatch.setattr(om_module, "_SLACK", None)
        rng = random.Random(229)
        checked = 0
        while checked < 40:
            ints = rand_wide_arrangement(rng, (WINDOW - 2, WINDOW - 1, WINDOW))
            if max(c.bit_length() for v in ints for c in v) <= WINDOW:
                assert_lines_in_pair_order(ints)
                checked += 1


def cut_and_shift(v) -> tuple:
    """``_truncated(v)`` and its shift: ``v >> s`` coordinate by coordinate."""
    return om_module._truncated(v), max(0, max(map(int.bit_length, v)) - WINDOW)


def rand_vector(rng: random.Random, bits: int) -> tuple:
    """A vector of three random ints of exactly ``bits`` bits each."""
    return tuple(rand_coordinate(rng, bits) for _ in range(3))


def plus(u, v):
    return tuple(a + b for a, b in zip(u, v))


class TestTruncatedPairs:
    """A pair of two vectors over ``_WINDOW`` bits first takes the cross
    product N'' of their truncated copies.  When ``|N''_0| >= _PAIR`` it
    decides that the pair is not parallel, the pair's index entry and the
    triple signs that clear ``_PAIR_SLACK``; every other pair, and every
    sign left undecided, takes the full-width N.  Each case runs in both
    signs of N against the slow exact kernel."""

    SIZES = TestTruncatedKernel.SIZES
    PAIR = om_module._PAIR

    def test_one_formula_gives_both_slacks(self):
        assert om_module._SLACK == om_module._slack(WINDOW, 1) == 3 * ((1 << WINDOW + 1) + 1)
        assert self.PAIR == 2 * ((1 << WINDOW + 1) + 1)
        assert om_module._PAIR_SLACK == 3 * ((1 << 2 * WINDOW + 1) + self.PAIR * ((1 << WINDOW) + 1))

    def test_pair_error_is_under_the_pair_bound(self):
        # each coordinate of v'_i x v'_j lies within _PAIR of
        # v_i x v_j / 2^(s_i+s_j), exactly on it when neither vector is
        # shifted, also when >> rounds a negative value down; so n = N''
        # read as it is gives a triple error under _PAIR_SLACK
        rng = random.Random(233)
        kinds = {0: 0, 1: 0, 2: 0}  # how many of the pair are shifted
        for _ in range(3000):
            vi, vj, vk = (rand_vector(rng, rng.choice(self.SIZES)) for _ in range(3))
            (ci, si), (cj, sj), (ck, sk) = map(cut_and_shift, (vi, vj, vk))
            exact, near = _cross(vi, vj), _cross(ci, cj)
            assert all(abs(c) <= 1 << 2 * WINDOW + 1 for c in near)
            errors = [e - (c << si + sj) for e, c in zip(exact, near)]
            kinds[(si > 0) + (sj > 0)] += 1
            if si == sj == 0:
                assert errors == [0, 0, 0]
            else:
                assert all(abs(e) < self.PAIR << si + sj for e in errors)
            error = sum(map(mul, exact, vk)) - (sum(map(mul, near, ck)) << si + sj + sk)
            assert abs(error) < om_module._PAIR_SLACK << si + sj + sk
        assert min(kinds.values()) > 300, kinds

    def test_pair_bound_is_nearly_attained(self):
        # cut coordinates 2^W - 1 and -2^W with remainders 2^s - 1: the
        # error of N_0 comes within 5 of _PAIR, so no bound much smaller holds
        bits = 2000
        s = bits - WINDOW
        top, low = (1 << WINDOW + s) - 1, -((1 << WINDOW + s) - (1 << s) + 1)
        vi, vj = (0, top, low), (0, low, top)
        (ci, si), (cj, sj) = cut_and_shift(vi), cut_and_shift(vj)
        assert (si, sj) == (s, s) and ci == (0, (1 << WINDOW) - 1, -(1 << WINDOW))
        error = _cross(vi, vj)[0] - (_cross(ci, cj)[0] << 2 * s)
        assert (self.PAIR - 5) << 2 * s < error < self.PAIR << 2 * s

    @staticmethod
    def assert_in_both_signs(v1, v2, others):
        # N in both signs and the pair in both orders, with a collinear sum
        # (an exact zero after the pair) and vectors of other sizes around it
        for w in (v2, negated(v2)):
            for pair in ((v1, w), (w, v1)):
                assert_lines_in_pair_order((*pair, plus(v1, w), *others))
                assert_lines_in_pair_order((*others[:1], *pair, *others[1:], plus(v1, w)))

    def others(self, rng):
        return (rand_vector(rng, 2000), rand_vector(rng, 3), rand_vector(rng, 300))

    @pytest.mark.parametrize("bits", [128, 700, 2000])
    def test_near_parallel_pairs_take_the_full_product(self, bits):
        # v2 = v1 + a small vector: N is not zero, but no coordinate of N''
        # clears _PAIR
        rng = random.Random(239 + bits)
        checked = 0
        while checked < 8:
            v1 = rand_vector(rng, bits)
            v2 = plus(v1, (rng.randint(-3, 3) for _ in range(3)))
            near = _cross(cut_and_shift(v1)[0], cut_and_shift(v2)[0])
            if any(_cross(v1, v2)) and all(abs(c) < self.PAIR for c in near):
                self.assert_in_both_signs(v1, v2, self.others(rng))
                checked += 1

    @pytest.mark.parametrize("bits", [128, 700, 2000])
    def test_parallel_wide_pairs_make_no_line(self, bits):
        rng = random.Random(241 + bits)
        for factor in (1, 2, 3):
            v1 = rand_vector(rng, bits)
            v2 = tuple(factor * c for c in v1)
            assert not any(_cross(v1, v2))
            self.assert_in_both_signs(v1, v2, self.others(rng))

    @pytest.mark.parametrize("bits", [128, 700, 2000])
    def test_a_small_lead_coordinate_takes_the_full_product(self, bits):
        # (y2, z2) = (y1, z1) + a small vector: N_0 = y1 dz - z1 dy is not
        # zero, but |N''_0| < _PAIR, so N''_0 may have the other sign or be 0
        rng = random.Random(251 + bits)
        checked = disagree = 0
        while checked < 12:
            v1 = rand_vector(rng, bits)
            v2 = (rand_coordinate(rng, bits), v1[1] + rng.randint(-3, 3), v1[2] + rng.randint(-3, 3))
            lead, near = _cross(v1, v2)[0], _cross(cut_and_shift(v1)[0], cut_and_shift(v2)[0])[0]
            if lead and abs(near) < self.PAIR:
                disagree += (near > 0) != (lead > 0) or not near
                self.assert_in_both_signs(v1, v2, self.others(rng))
                checked += 1
        assert disagree

    @pytest.mark.parametrize("bits", [128, 700, 2000])
    def test_a_zero_lead_coordinate_leads_at_q_or_r(self, bits):
        # N_0 = 0 when (y2, z2) is a multiple of (y1, z1), and N_0 = N_1 = 0
        # when z1 = z2 = 0: c comes from q, then from r
        rng = random.Random(257 + bits)
        for factor in (1, -3):
            v1 = rand_vector(rng, bits)
            v2 = (rand_coordinate(rng, bits), factor * v1[1], factor * v1[2])
            u1, u2 = ((rand_coordinate(rng, bits), rand_coordinate(rng, bits), 0) for _ in range(2))
            for a, b, c in ((v1, v2, 1), (u1, u2, 2)):
                normal = _cross(a, b)
                assert next(k for k, x in enumerate(normal) if x) == c
                self.assert_in_both_signs(a, b, self.others(rng))

    def test_short_vectors_never_read_the_pair_bounds(self, monkeypatch):
        # with no vector over _WINDOW bits, no pair takes N''
        for name in ("_PAIR", "_PAIR_SLACK", "_slack"):
            monkeypatch.setattr(om_module, name, None)
        rng = random.Random(263)
        for _ in range(40):
            assert_lines_in_pair_order(tuple(rand_vector(rng, rng.choice((3, WINDOW))) for _ in range(8)))

    def test_matches_the_slow_kernel_on_grassmann_routes(self, monkeypatch):
        # subspace-routes' own inputs, kept small: entries p/q with
        # |p| <= 10^6 and 10^6/2 <= q <= 10^6, n = 8..12; the projections'
        # numerators have 836 to 1,236 bits, the family images 144 to 212
        images = []
        om_of_images = grassmann.om_of
        monkeypatch.setattr(grassmann, "om_of", lambda a: images.append(a) or om_of_images(a))
        rng = random.Random(269)
        bound, decided, pairs = 10 ** 6, 0, 0
        for n in (8, 10, 12):
            rows = [[F(rng.randint(-bound, bound), rng.randint(bound // 2, bound)) for _ in range(n)]
                    for _ in range(3)]
            family = VectorFamily((i + 1, [rng.choice((-2, -1, 1, 2)) if j == i else
                                           rng.randint(-5, 5) if j > i else 0 for j in range(n)])
                                  for i in range(n))
            subspace = Subspace(n, rows)
            family_om(family, subspace)
            projection = projection_arrangement(subspace).integer_vectors
            assert max(c.bit_length() for v in projection for c in v) > 700
            for ints in (projection, images[-1].integer_vectors):
                assert_lines_in_pair_order(ints)
                pairs += len(ints) * (len(ints) - 1) // 2
                decided += sum(s > 0 and t > 0 and abs(_cross(a, b)[0]) >= self.PAIR
                               for (a, s), (b, t) in combinations(map(cut_and_shift, ints), 2))
        assert decided == pairs  # general position: N'' decides every pair


def negated(v):
    return (-v[0], -v[1], -v[2])


def refuse(*args):
    """A stand-in for ``Fraction`` and ``_primitive`` where a read must call
    neither."""
    raise AssertionError("a Fraction or a gcd")


def rand_columns(rng: random.Random, ints) -> list[int]:
    """Columns of ``ints`` drawn with repetition and in any order: mostly
    from all non-zero ones, sometimes from one plane (rank 2) or one
    projective class (rank 1), sometimes none, plus up to two loops if
    ``ints`` has any."""
    live = [k for k, v in enumerate(ints) if any(v)]
    loops = [k for k, v in enumerate(ints) if not any(v)]
    kind = rng.random()
    if kind < 0.15:
        u, v = rng.sample(live, 2)
        pool = [k for k in live if matrix_rank([ints[u], ints[v], ints[k]]) < 3]
    elif kind < 0.25:
        u = rng.choice(live)
        pool = [k for k in live if matrix_rank([ints[u], ints[k]]) < 2]
    elif kind < 0.3:
        pool = []
    else:
        pool = live
    cols = [rng.choice(pool) for _ in range(rng.randint(0, 10) if pool else 0)]
    cols += [rng.choice(loops) for _ in range(rng.randint(0, 2) if loops else 0)]
    rng.shuffle(cols)
    return cols


def arrangement_of(ints) -> LabeledArrangement:
    return LabeledArrangement(enumerate(Vector3(*v) for v in ints))


def rand_grid_points(rng: random.Random, size: int) -> list[PlanePoint]:
    """Points on a grid of halves, so that many triples are collinear and
    some points coincide, plus coincident copies of some of them, shuffled."""
    points = [PlanePoint(F(rng.randint(-4, 4), 2), F(rng.randint(-4, 4), 2)) for _ in range(size)]
    points += [p for p in points if rng.random() < 0.3]
    rng.shuffle(points)
    return points


def rand_degenerate_points(rng: random.Random, size: int) -> list[PlanePoint]:
    """Random points, their lifts spanning, plus coincident copies of some
    of them, shuffled."""
    while True:
        points = [rand_point(rng, rng.choice((2, 9))) for _ in range(size)]
        if height_one(points).is_spanning():
            break
    points += [p for p in points if rng.random() < 0.3]
    rng.shuffle(points)
    return points


SQUARE_POINTS = (PlanePoint(0, 0), PlanePoint(1, 0), PlanePoint(0, 1), PlanePoint(1, 1))
SQUARE = LabeledArrangement((k + 1, embed_affine(p)) for k, p in enumerate(SQUARE_POINTS))


class TestLineProjection:
    """A line table of plane points reads the oriented matroid of any list
    of its columns off its lines, and raises NotSpanning when the columns
    lie on fewer than two of them, as module ``om_of`` does on their points
    lifted to height 1 and as ``is_spanning`` says; the all-pairs loop and
    Fraction elimination are the references.  ``om_of`` meets loops and
    parallel, antiparallel and non-primitive vectors as well."""

    @staticmethod
    def assert_reads_match(rng, ints, arrangement_of, table=None) -> dict[str, int]:
        """300 reads of random columns of ``ints`` against the all-pairs
        reference: ``om_of`` of the arrangement that ``arrangement_of`` makes
        of those columns, labeled 0..m-1, and the read of ``table``, when
        given, whose lifts are ``ints``.  Returns the counts of the kinds of
        column lists read."""
        ranks = set()
        counts = {"parallel": 0, "antiparallel": 0, "repeated": 0, "backward": 0, "empty": 0}
        for _ in range(300):
            cols = rand_columns(rng, ints)
            sub = [ints[k] for k in cols]
            arr, labels = arrangement_of(cols), tuple(range(len(cols)))
            rank = matrix_rank(sub)
            ranks.add(rank)
            assert arr.is_spanning() == (rank == 3)
            reads = [lambda: om_of(arr)] + ([lambda: table.read(labels, cols)] if table else [])
            if rank == 3:
                reference = as_rows(all_pairs_cocircuit_tuples(sub))
                assert [set(read().rows) for read in reads] == [reference] * len(reads)
            else:
                for read in reads:
                    with pytest.raises(NotSpanning, match="^arrangement does not span rank 3$"):
                        read()
            classes = [om_module._primitive(*v) for v in sub]
            live = {k for k in cols if any(ints[k])}
            counts["parallel"] += len({max(v, negated(v)) for v in classes if any(v)}) < len(live)
            counts["antiparallel"] += any(negated(v) in classes for v in classes if any(v))
            counts["repeated"] += len(set(cols)) < len(cols)
            counts["backward"] += any(b < a for a, b in zip(cols, cols[1:]))
            counts["empty"] += not cols
        assert ranks == {0, 1, 2, 3}
        assert counts["parallel"] > 50, counts
        return counts

    def test_sub_arrangements_match_all_pairs(self):
        # grid points with coincident copies: a class of coincident points
        # is read as its first column
        rng = random.Random(79)
        points = rand_grid_points(rng, 14)
        table = LineTable(points)
        assert len(set(points)) < len(points)
        counts = self.assert_reads_match(
            rng, table.vectors, lambda cols: height_one([points[k] for k in cols]), table
        )
        assert counts["antiparallel"] == 0
        assert min(counts[kind] for kind in ("repeated", "backward", "empty")) > 0, counts

    def test_integer_table_reads_match_all_pairs(self):
        # om_of on numerators with common factors, a parallel pair at two
        # scales, antiparallel pairs and a loop, read as given
        rng = random.Random(89)
        grid = rand_grid_arrangement(rng, 12).integer_vectors
        u = next(v for v in grid if any(v))
        ints = [tuple(rng.choice((1, 2, 6, 1 << 70)) * x for x in v) for v in grid]
        ints += [tuple(-4 * x for x in v) for v in grid[:5]]
        ints += [tuple(2 * x for x in u), tuple(3 * x for x in u), tuple(-5 * x for x in u), (0, 0, 0)]
        rng.shuffle(ints)
        assert sum(gcd(*v) > 1 for v in ints) > 3
        integers = LabeledArrangement._of_integers
        source = integers(tuple(range(len(ints))), ints, 7)
        assert source.integer_vectors == tuple(ints)
        counts = self.assert_reads_match(
            rng, ints, lambda cols: integers(tuple(range(len(cols))), [ints[k] for k in cols], 7)
        )
        assert min(counts.values()) > 0 and counts["antiparallel"] > 50, counts

    def test_prefix_reads_match_om_of(self):
        # Every prefix of small degenerate point lists, read in column order
        # and shuffled: columns that are a permutation of 0..m-1 read the
        # table's first rows, with no pair lookup (the index is emptied).
        # The fixed list starts with a collinear run with coincident copies,
        # so its prefixes up to 6 columns span nothing.
        line = (PlanePoint(1, 0), PlanePoint(0, 0), PlanePoint(2, 0), PlanePoint(1, 0),
                PlanePoint(0, 0), PlanePoint(F(1, 2), 0))
        rng = random.Random(131)
        sources = [list(line) + [PlanePoint(0, 1), PlanePoint(1, 1), PlanePoint(2, 2), PlanePoint(0, 1)]]
        sources += [rand_degenerate_points(rng, rng.randint(3, 6)) for _ in range(20)]
        sources += [rand_grid_points(rng, rng.randint(3, 8)) for _ in range(20)]
        counts = {"spans": 0, "rank 2": 0, "coincident": 0}
        for points in sources:
            table = LineTable(points)
            ints = table.vectors
            rows, _, made = om_module._enumerate_lines(ints)
            order = sorted(range(len(made)), key=made.__getitem__)
            assert table._made == sorted(made) == [made[line] for line in order]
            assert table._prefix == [row for line in order for row in rows[2 * line:2 * line + 2]]
            table._line_of = {}
            for m in range(len(points) + 1):
                for cols in (list(range(m)), rng.sample(range(m), m)):
                    sub = [points[k] for k in cols]
                    arr, labels = height_one(sub), tuple(range(m))
                    if arr.is_spanning():
                        assert table.read(labels, cols) == om_of(arr)
                        counts["spans"] += 1
                    else:
                        for read in (lambda: table.read(labels, cols), lambda: om_of(arr)):
                            with pytest.raises(NotSpanning, match="^arrangement does not span rank 3$"):
                                read()
                        counts["rank 2"] += m > 2 and matrix_rank([ints[k] for k in cols]) == 2
                    counts["coincident"] += len(set(sub)) < m
        assert min(counts.values()) > 20, counts

    def test_an_empty_read_spans_nothing(self):
        table = LineTable(SQUARE_POINTS)
        for cols in ((), [], range(0)):
            with pytest.raises(NotSpanning, match="^arrangement does not span rank 3$"):
                table.read((), cols)

    def test_antiparallel_pair_alone_on_a_line_spans_nothing(self):
        # e3 and -e3 lie on the line x = 0 with e2, and on y = 0 with e1; the
        # columns without e2 lie in y = 0, its one line.  A coincident pair
        # of points with one more point lies on one line as well.
        vectors = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, -1))
        sub = (2, 0, 3)
        assert as_rows(all_pairs_cocircuit_tuples([vectors[k] for k in sub])) == {"000"}
        table = LineTable((PlanePoint(1, 0), PlanePoint(0, 1), PlanePoint(0, 0), PlanePoint(0, 0)))
        for spans_nothing in (sub, (2, 3)):
            labels = tuple(range(len(spans_nothing)))
            for read in (lambda: om_of(arrangement_of([vectors[k] for k in spans_nothing])),
                         lambda: table.read(labels, spans_nothing)):
                with pytest.raises(NotSpanning):
                    read()

    def test_a_column_outside_the_table_raises(self):
        table = LineTable(SQUARE_POINTS)
        # the first three lie on fewer than two lines, and raise ValueError
        # before NotSpanning
        for labels, cols in (((1, 2), (0, 4)), ((1, 2), (0, -1)), ((1,), (0, 1)),
                             ((1, 2, 3, 4), (-1, 0, 1, 2)), ((1, 2, 3, 4), (0, 1, 2, 4)),
                             ((1, 2, 3), (0, 1, 2, 3)), ((1, 2, 3, 4, 5), (0, 1, 2, 3))):
            with pytest.raises(ValueError, match=r"^\d labels for \d columns, which must lie in 0\.\.3$"):
                table.read(labels, cols)
        assert table.read((1, 2, 3), (0, 1, 2)) == om_of(SQUARE.restrict((1, 2, 3)))
        with pytest.raises(NotSpanning):
            table.read((1, 2), (0, 3))

    def test_projected_om_of_equals_a_fresh_enumeration(self):
        rng = random.Random(83)
        points = rand_degenerate_points(rng, 9)
        full, table = height_one(points), LineTable(points)
        assert table_read(table, full) == om_of(full)
        for _ in range(30):
            labels = rng.sample(full.labels, rng.randint(4, len(full)))
            sub = full.restrict(labels)
            if not sub.is_spanning():
                continue
            projected = table_read(table, sub)
            assert projected == om_of(sub)
            assert projected.fingerprint() == om_of(sub).fingerprint()


class TestOmOfReadsPrimitiveVectors:
    """``om_of``, fresh or through a line table, depends on the labels and
    the signs of the integer vectors alone."""

    def test_rescaled_copy_reads_alike(self):
        rng = random.Random(73)
        arr = rand_degenerate_arrangement(rng, 6)
        assert om_of(arr.rescaled({label: rand_positive_fraction(rng) for label in arr.labels})) == om_of(arr)
        # a table of points reads what om_of reads on a rescaling of their lifts
        points = rand_degenerate_points(rng, 6)
        plane = height_one(points)
        rescaled = plane.rescaled({label: rand_positive_fraction(rng) for label in plane.labels})
        first = table_read(LineTable(points), plane)
        fresh = om_of(rescaled)
        assert fresh == first == om_of(plane)
        assert fresh.fingerprint() == first.fingerprint()

    def test_shuffled_copy_reads_alike(self):
        first = LineTable(SQUARE_POINTS).read(SQUARE.labels, (0, 1, 2, 3))
        shuffled = LabeledArrangement(reversed(SQUARE.elements))
        assert LineTable(SQUARE_POINTS[::-1]).read(shuffled.labels, (3, 2, 1, 0)) == first
        assert om_of(shuffled) == first

    def test_negated_element_reads_differently(self):
        flipped = LabeledArrangement(
            (label, v.scaled(-1) if label == 4 else v) for label, v in BASIS4.elements
        )
        negated_read = om_of(flipped)
        assert not om_equal(om_of(BASIS4), negated_read)
        assert set(negated_read.rows) == as_rows(all_pairs_cocircuit_tuples(flipped.integer_vectors))

    def test_labels_are_part_of_the_key(self):
        relabeled = LabeledArrangement((label + 4, v) for label, v in SQUARE.elements)
        first, second = om_of(SQUARE), om_of(relabeled)
        assert first.ground == (1, 2, 3, 4)
        assert second.ground == (5, 6, 7, 8)
        assert sorted(first.rows) == sorted(second.rows)
        table = LineTable(SQUARE_POINTS)
        assert table.read(SQUARE.labels, (0, 1, 2, 3)) == first
        assert table.read(relabeled.labels, (0, 1, 2, 3)) == second

    def test_vectors_are_kept_outside_equality_and_state(self, monkeypatch):
        marked = delta_arrangement(build(default_seed(), 3), 3)
        numerators = [(6, 0, 4), (0, 3, 0), (0, 0, 0), (-2, -2, 10)]
        # each constructor, called anew so that every arrangement starts unread
        makers = {
            "__init__": lambda: LabeledArrangement(reversed(DEGEN4.elements)),
            "restrict": lambda: DEGEN4.restrict([1, 2, 4]),
            "rescaled": lambda: DEGEN4.rescaled({1: F(3, 2), 4: 5}),
            "scale_degeneration": lambda: scale_degeneration(marked, 7),
            "limit_arrangement": lambda: limit_arrangement(marked),
            "_of_integers": lambda: LabeledArrangement._of_integers((1, 2, 3, 4), numerators, 5),
            "projection_arrangement": lambda: projection_arrangement(PLANE7),
        }
        for name, make in makers.items():
            arr, twin = make(), make()
            pickled = pickle.dumps(twin)
            lazy = "_denominator" in vars(arr)
            assert lazy == (name in ("_of_integers", "projection_arrangement")), name
            with monkeypatch.context() as patch:
                if lazy:  # the numerators are read as they were given
                    patch.setattr(om_module, "Fraction", refuse)
                    patch.setattr(om_module, "_primitive", refuse)
                kept = arr.integer_vectors
            assert arr.integer_vectors is kept, name
            if lazy:
                d = vars(arr)["_denominator"]
                assert "elements" not in vars(arr), name
                assert kept == tuple((v.x * d, v.y * d, v.z * d) for _, v in arr.elements), name
            else:
                assert kept == tuple(om_module._primitive(v.x, v.y, v.z) for _, v in arr.elements), name
            assert arr == twin and hash(arr) == hash(twin) and repr(arr) == repr(twin), name
            assert pickle.dumps(arr) == pickled, name
            for copied in (copy.copy(arr), copy.deepcopy(arr), pickle.loads(pickled)):
                assert copied == arr and vars(copied) == {"elements": arr.elements}, name
                assert copied.integer_vectors == tuple(om_module._primitive(*v) for v in kept), name

    def test_rank_two_raises_on_every_call(self):
        rank2 = LabeledArrangement([(1, E1), (2, E2), (3, Vector3(1, 1, 0))])
        table = LineTable((PlanePoint(0, 0), PlanePoint(1, 1), PlanePoint(2, 2)))
        for _ in range(3):
            with pytest.raises(NotSpanning):
                om_of(rank2)
            with pytest.raises(NotSpanning):
                table.read(rank2.labels, (0, 1, 2))


def rand_numerators(rng: random.Random, size: int) -> list[tuple[int, int, int]]:
    """Integer vectors of up to 1,800 bits, some with a common factor, some
    negated, and one zero."""
    vectors = []
    for _ in range(size):
        bits = rng.choice((3, 64, 1800))
        v = tuple(rng.randint(-(1 << bits), 1 << bits) for _ in range(3))
        factor = rng.choice((1, 1, 6, 1 << 70))
        vectors.append(tuple(factor * x for x in v))
    vectors[rng.randrange(size)] = (0, 0, 0)
    return vectors


class TestArrangementOfIntegers:
    """``LabeledArrangement._of_integers``, the projection's constructor: its
    Fractions are built on the first read of ``elements`` only."""

    def test_sign_readers_build_no_fractions(self):
        arr = projection_arrangement(PLANE7)
        assert arr.labels == tuple(range(1, 8)) and len(arr) == 7 and arr.is_spanning()
        om_of(arr)
        chirotope_of(arr)
        assert arr.integer_vectors[3] == (0, 0, 0)
        assert "elements" not in vars(arr) and "_denominator" in vars(arr)
        elements = arr.elements
        assert "_denominator" not in vars(arr) and arr.elements is elements

    def test_sign_readers_take_no_gcd(self, monkeypatch):
        arr = projection_arrangement(PLANE7)
        with monkeypatch.context() as patch:
            patch.setattr(om_module, "Fraction", refuse)
            patch.setattr(om_module, "_primitive", refuse)
            om_of(arr)
            chirotope_of(arr)
            assert arr.is_spanning() and len(arr) == 7
        assert "elements" not in vars(arr)
        numerators = arr.integer_vectors
        # the numerators share factors that the primitive vectors drop
        assert any(gcd(*v) > 1 for v in numerators)
        assert tuple(om_module._primitive(*v) for v in numerators) == tuple(
            om_module._primitive(v.x, v.y, v.z) for _, v in arr.elements
        )

    def test_agrees_with_the_eager_arrangement(self):
        rng = random.Random(223)
        for trial in range(20):
            size = rng.randint(3, 9)
            numerators = rand_numerators(rng, size)
            d = rng.choice((1, 6, rng.randint(1, 1 << 1800)))
            labels = tuple(range(1, size + 1))
            eager = LabeledArrangement(
                (label, Vector3(*(F(x, d) for x in v))) for label, v in zip(labels, numerators)
            )
            # each read on a fresh arrangement, so that it is the first
            reads = {
                "==": lambda a: a == eager,
                "hash": hash,
                "repr": repr,
                "pickle": pickle.dumps,
                "copy": lambda a: pickle.dumps(copy.copy(a)),
                "deepcopy": lambda a: pickle.dumps(copy.deepcopy(a)),
                "restrict": lambda a: a.restrict(labels[::2]),
                "rescaled": lambda a: a.rescaled({labels[-1]: F(5, 3)}),
                "vector": lambda a: a.vector(labels[1]),
                "integer_vectors": lambda a: tuple(om_module._primitive(*v) for v in a.integer_vectors),
                "om_of": lambda a: om_of(a) if a.is_spanning() else None,
                "chirotope_of": chirotope_of,
                "is_spanning": lambda a: a.is_spanning(),
            }
            expected = {"==": True, "copy": pickle.dumps(eager), "deepcopy": pickle.dumps(eager)}
            for name, read in reads.items():
                lazy = LabeledArrangement._of_integers(labels, numerators, d)
                assert read(lazy) == expected.get(name, read(eager)), (trial, name)

    def test_stays_frozen(self):
        arr = projection_arrangement(PLANE7)
        for name in ("elements", "labels", "integer_vectors"):
            with pytest.raises(FrozenInstanceError):
                setattr(arr, name, ())
        assert "elements" not in vars(arr)
        with pytest.raises(AttributeError, match="has no attribute 'missing'"):
            arr.missing


class TestCovectors:
    def test_basis_yields_all_27(self):
        covectors = covectors_of(om_of(BASIS))
        assert len(covectors) == 27

    def test_degenerate_fourth_element_closure_matches_oracle(self):
        matroid = om_of(DEGEN4)
        computed = {cv.signs for cv in covectors_of(matroid)}
        assert computed == set(realized_covectors(DEGEN4))
        # the dependency forbids signs (+, +, *, -)
        assert all(not (p[0] == 1 and p[1] == 1 and p[3] == -1) for p in computed)

    def test_loop_is_zero_in_every_covector(self):
        with_loop = LabeledArrangement(
            [(1, E1), (2, E2), (3, E3), (4, Vector3(0, 0, 0))]
        )
        matroid = om_of(with_loop)
        assert matroid.loops == {4}
        assert all(cv.to_string()[3] == "0" for cv in covectors_of(matroid))

    def test_closure_equals_realized_set_on_random_arrangements(self):
        rng = random.Random(7)
        for _ in range(10):
            arr = rand_spanning_arrangement(rng, rng.randint(3, 5), span=4)
            computed = {cv.signs for cv in covectors_of(om_of(arr))}
            assert computed == set(realized_covectors(arr))

    def test_sampled_patterns_are_covectors(self):
        rng = random.Random(11)
        for _ in range(10):
            arr = rand_spanning_arrangement(rng, rng.randint(3, 6))
            covectors = {cv.signs for cv in covectors_of(om_of(arr))}
            assert sampled_sign_patterns(arr, rng, 300) <= covectors


def fixpoint_closure(matroid: OrientedMatroid) -> frozenset[SignVector]:
    """The reference covector set: the all-pairs composition closure of the
    cocircuits (frontier against everything found, in both orders), plus
    zero."""
    ground = matroid.ground
    current = {cc.signs for cc in matroid.cocircuits}
    frontier = set(current)
    while frontier:
        fresh = set()
        for x in frontier:
            for y in current:
                for a, b in ((x, y), (y, x)):
                    z = tuple(s if s != 0 else t for s, t in zip(a, b))
                    if z not in current and z not in fresh:
                        fresh.add(z)
        current |= fresh
        frontier = fresh
    current.add(tuple(0 for _ in ground))
    return frozenset(SignVector(ground, t) for t in current)


def rand_sign_document(rng: random.Random, ground: tuple[int, ...]) -> OrientedMatroid:
    """A negation-closed sign-vector set on ``ground``, made by
    ``OrientedMatroid._of``; it need not be an oriented matroid, and may hold
    the all-zero row, which ``parse_om`` rejects.  One in ten has no
    cocircuits (rank 0), one in four is the cocircuit set of a rank-2
    arrangement of integer plane vectors (zero and parallel ones included),
    the rest are random rows."""
    kind = rng.random()
    if kind < 0.1:
        rows = []
    elif kind < 0.35:
        plane = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in ground]
        rows = [tuple(sign_of(x * v - y * u) for u, v in plane) for x, y in plane if (x, y) != (0, 0)]
    else:
        rows = [tuple(rng.choice((-1, 0, 1)) for _ in ground) for _ in range(rng.randint(1, 4))]
    strings = as_rows(rows) | as_rows(tuple(-s for s in r) for r in rows)
    return OrientedMatroid._of(ground, strings)


def sign_set_groups():
    """40 grounds of 1 to 5 labels, 25 sign sets from ``rand_sign_document``
    on each: one list of sign sets per ground."""
    rng = random.Random(83)
    for g in range(40):
        ground = tuple(range(10 * g + 1, 10 * g + 1 + rng.randint(1, 5)))
        yield [rand_sign_document(rng, ground) for _ in range(25)]


def uncached(matroid: OrientedMatroid) -> OrientedMatroid:
    """An equal oriented matroid that has computed nothing yet."""
    return OrientedMatroid(matroid.ground, matroid.cocircuits)


class TestCovectorsAgainstClosure:
    """``covectors_of`` grows compositions one cocircuit at a time; the
    fixpoint closure is the reference, on oriented matroids and on sign
    sets that are not."""

    def test_arrangements_with_loops_and_parallels(self):
        rng = random.Random(79)
        checked = 0
        while checked < 200:
            if checked % 2:
                arr = rand_degenerate_arrangement(rng, rng.randint(3, 5))
            else:
                arr = rand_grid_arrangement(rng, rng.randint(3, 6))
                if not arr.is_spanning():
                    continue
            matroid = om_of(arr)
            assert covectors_of(matroid) == fixpoint_closure(matroid)
            checked += 1

    def test_degenerate_arrangements_up_to_ten_elements(self):
        # Loops and parallel and antiparallel classes, up to n = 10: the
        # closure, the fixpoint closure and the realized covectors agree.
        rng = random.Random(103)
        sizes = []
        while len(sizes) < 16:
            arr = rand_degenerate_arrangement(rng, rng.randint(3, 7))
            if len(arr) > 10:
                continue
            matroid = om_of(arr)
            computed = covectors_of(matroid)
            assert computed == fixpoint_closure(matroid)
            assert {cv.signs for cv in computed} == set(realized_covectors(arr))
            sizes.append(len(arr))
        assert max(sizes) == 10

    def test_sign_sets_and_strong_maps(self):
        # Covector sets on all 1000 sign sets, strong maps on every pair that
        # shares a ground.
        for sets in sign_set_groups():
            reference = [fixpoint_closure(m) for m in sets]
            for m, expected in zip(sets, reference):
                assert covectors_of(m) == expected
            for source, covers in zip(sets, reference):
                for target, covered in zip(sets, reference):
                    assert strong_map(source, target) == (covered <= covers)


def key_signs(key: int, width: int) -> tuple[int, ...]:
    """The reference decoding of a covector key, one sign at a time: ground
    position k is hex digit ``width - 1 - k``, which is ``2 neg + pos``."""
    digit_sign = {0: 0, 1: 1, 2: -1}
    return tuple(digit_sign[key >> 4 * (width - 1 - k) & 15] for k in range(width))


def ones(width: int) -> int:
    """Bit 0 of each of ``width`` hex digits."""
    return int("1" * width or "0", 16)


class TestCovectorMasks:
    """Covectors are composed as keys, a row's hex digits ``2 neg + pos``,
    and kept on their oriented matroid."""

    def test_round_trip_every_short_sign_row(self):
        for n in range(6):
            for signs in product((-1, 0, 1), repeat=n):
                row = SignVector(tuple(range(n)), signs).to_string()
                key = om_module._key(row)
                assert all(key >> 4 * k & 15 <= 2 for k in range(n))
                assert key >> 4 * n == 0
                assert key_signs(key, n) == signs
                assert om_module._row(key, n) == row

    def test_round_trip_past_the_decimal_digit_cap(self):
        # CPython caps decimal int <-> str conversion at 4300 digits; the key
        # and row conversions are binary and hexadecimal, which it does not.
        rng = random.Random(101)
        for width in (0, 70, 4301, 9000):
            for weights in ((1, 1, 1), (1, 8, 1), (0, 1, 0), (1, 0, 0), (0, 0, 1)):
                row = "".join(rng.choices("-0+", weights, k=width))
                key = om_module._key(row)
                assert om_module._row(key, width) == row
                assert set(format(key, "x")) <= set("012")
                assert key.bit_length() <= 4 * width

    def test_covector_strings_match_the_mask_reference(self):
        rng = random.Random(97)
        for _ in range(60):
            matroid = om_of(rand_degenerate_arrangement(rng, rng.randint(3, 6)))
            width = len(matroid.ground)
            strings = {cv.to_string() for cv in covectors_of(matroid)}
            assert strings == as_rows(key_signs(key, width) for key in matroid._covector_keys)
        for matroid in (OrientedMatroid.rank_zero([]), OrientedMatroid.rank_zero([1, 2])):
            assert [cv.to_string() for cv in covectors_of(matroid)] == ["0" * len(matroid.ground)]

    def test_masks_wider_than_64_bits(self):
        # 5 points in general position, then loops and parallel and
        # antiparallel copies up to 70 elements, shuffled; the last assert
        # shows that signs past bit 64 are exercised.
        rng = random.Random(89)
        points = [E1, E2, E3, ONES, Vector3(1, 2, 3)]
        elements = list(points)
        while len(elements) < 70:
            if rng.random() < 0.1:
                elements.append(Vector3(0, 0, 0))
            else:
                v = rng.choice(points)
                elements.append(v.scaled(rng.choice((-1, 1)) * rand_positive_fraction(rng)))
        rng.shuffle(elements)
        matroid = om_of(LabeledArrangement((i + 1, v) for i, v in enumerate(elements)))
        covectors = covectors_of(matroid)
        assert covectors == fixpoint_closure(matroid)
        assert any(cv.signs[64:] != (0,) * 6 for cv in covectors)

    def test_only_covectors_with_a_zero_are_extended(self):
        # A covector with no zero composes to itself, so topes are never
        # extended; the others share their zero sets, and the closure scans
        # the cocircuits once for their support and then once per distinct
        # zero set, fewer times than there are covectors with a zero.
        class Passes(list):
            count = 0

            def __iter__(self):
                self.count += 1
                return super().__iter__()

        matroid = om_of(BASIS4)
        width = len(matroid.ground)
        cocircuits = Passes(om_module._key(row) for row in matroid.rows)
        keys = om_module._covector_masks(width, cocircuits)
        zero_sets = [ones(width) & ~(key | key >> 1) for key in keys]
        with_a_zero = [z for z in zero_sets if z]
        assert cocircuits.count == 1 + len(set(with_a_zero))
        assert len(set(with_a_zero)) < len(with_a_zero) < len(keys)

    def test_composition_is_an_or_on_the_zero_digits(self):
        # X o C = X | C & free * 3, free the zero digits of X: checked against
        # position-wise composition at hex-digit and 64-bit word boundaries.
        rng = random.Random(107)
        compose = {("0", c): c for c in "-0+"} | {(x, c): x for x in "-+" for c in "-0+"}
        for width in (0, 1, 15, 16, 17, 64, 65, 70):
            for _ in range(40):
                weights = rng.choice(((1, 1, 1), (1, 6, 1), (0, 1, 0)))
                x, c = ("".join(rng.choices("-0+", weights, k=width)) for _ in range(2))
                key = om_module._key(x)
                free = ones(width) & ~(key | key >> 1)
                composed = om_module._row(key | om_module._key(c) & free * 3, width)
                assert composed == "".join(compose[pair] for pair in zip(x, c))

    def test_strong_maps_match_on_uncached_copies(self):
        for sets in sign_set_groups():
            for m in sets:
                covectors_of(m)
            for source in sets:
                for target in sets:
                    answer = strong_map(source, target)
                    assert strong_map(uncached(source), uncached(target)) == answer

    def test_kept_covectors_take_no_part_in_equality(self):
        matroid = om_of(BASIS4)
        covectors_of(matroid)
        copy = uncached(matroid)
        assert "_covector_keys" in vars(matroid) and "_covector_keys" not in vars(copy)
        assert matroid == copy
        assert hash(matroid) == hash(copy)

    def test_repeated_calls_agree(self):
        matroid = uncached(om_of(DEGEN4))
        assert covectors_of(matroid) == covectors_of(matroid)


class TestOrientedMatroid:
    def test_supports_match_one_mask_per_row(self):
        family = build(default_seed(), 20)
        arr = delta_arrangement(family, 20)
        read = table_read(table_of(arr), arr)
        assert len(read.rows) > 2000
        cases = [
            OrientedMatroid._of((1, 2, 3), ()),
            OrientedMatroid._of((), ()),
            OrientedMatroid._of((), [""]),
            OrientedMatroid._of((1, 2, 3), ["+0-"]),
            OrientedMatroid._of((1,), ["+", "-"]),
            OrientedMatroid._of((1,), ["0"]),
            read,
        ]
        for matroid in cases:
            expected = {om_module._mask(row, om_module._SUPPORT) for row in matroid.rows}
            assert matroid.supports() == expected, matroid

    def test_basis_om(self):
        matroid = om_of(BASIS)
        assert len(matroid.cocircuits) == 6
        assert matroid.loops == frozenset()

    def test_negation_closure(self):
        rng = random.Random(3)
        for _ in range(20):
            matroid = om_of(rand_spanning_arrangement(rng, rng.randint(3, 7)))
            for row in matroid.rows:
                assert row.translate(str.maketrans("+-", "-+")) in matroid.rows

    def test_positive_rescaling_invariance(self):
        rng = random.Random(5)
        for _ in range(25):
            arr = rand_spanning_arrangement(rng, rng.randint(3, 7))
            factors = {label: rand_positive_fraction(rng) for label in arr.labels}
            assert arr.rescaled(factors).integer_vectors == arr.integer_vectors
            assert om_equal(om_of(arr), om_of(arr.rescaled(factors)))

    def test_rescaling_an_absent_label_raises(self):
        # as restrict does, rather than ignoring the factor
        with pytest.raises(KeyError, match=r"labels not present: \[4, 5\]"):
            BASIS.rescaled({5: F(1), 1: F(2), 4: F(3)})
        with pytest.raises(KeyError, match=r"labels not present: \[3\]"):
            LabeledArrangement([(1, E1), (2, E2)]).rescaled({3: F(2)})

    @pytest.mark.parametrize("factor", [True, 0.1, 2.0, "2", F(0), -1])
    def test_a_factor_that_is_not_a_positive_int_or_fraction_raises(self, factor):
        # a float would become a binary fraction: 0.1 is 3602879701896397/2**55
        with pytest.raises(ValueError, match="must be a positive int or Fraction"):
            BASIS.rescaled({1: factor})

    def test_rescaling_by_ints_and_fractions_is_exact(self):
        scaled = BASIS.rescaled({1: 3, 2: F(1, 10)})
        assert scaled.vector(1) == E1.scaled(3)
        assert scaled.vector(2).y == F(1, 10)
        assert scaled == LabeledArrangement(scaled.elements)

    def test_vector_of_a_missing_label_raises(self):
        with pytest.raises(KeyError) as exc:
            BASIS.vector(4)
        assert exc.value.args == (4,)

    def test_not_spanning(self):
        rank2 = LabeledArrangement([(1, E1), (2, E2), (3, Vector3(2, 3, 0))])
        with pytest.raises(NotSpanning):
            om_of(rank2)

    def test_equality_reflexive(self):
        matroid = om_of(BASIS4)
        assert om_equal(matroid, matroid)

    def test_different_zero_patterns_unequal(self):
        assert not om_equal(om_of(BASIS4), om_of(DEGEN4))

    def test_ground_set_mismatch(self):
        with pytest.raises(GroundSetMismatch):
            om_equal(om_of(BASIS), om_of(BASIS4))

    def test_canonical_ground_order(self):
        shuffled = LabeledArrangement([(3, E3), (1, E1), (2, E2)])
        assert om_equal(om_of(shuffled), om_of(BASIS))

    def test_fingerprint_fixture_seed_level_zero(self):
        # frozen after cross-checking the cocircuits against the
        # functional-sampling oracle and the explicit pair normals
        arrangement = build(default_seed(), 0).arrangement()
        assert om_of(arrangement).fingerprint() == (
            "bad328f11ad0b793d123bce5117da66c508893d715ead97d4e890258f473fc1d"
        )

    def test_delete_loops_matches_restricted_arrangement(self):
        rng = random.Random(13)
        for _ in range(10):
            arr = rand_spanning_arrangement(rng, rng.randint(3, 6))
            with_loop = LabeledArrangement(
                list(arr.elements) + [(99, Vector3(0, 0, 0))]
            )
            matroid = om_of(with_loop)
            assert matroid.loops == {99}
            assert om_equal(matroid.delete_loops(), om_of(arr))

    def test_derived_values_are_kept_outside_equality_and_state(self):
        marked = delta_arrangement(build(default_seed(), 3), 3)
        level = om_of(marked)
        # each producer, called anew so that every oriented matroid starts unread
        makers = {
            "__init__": lambda: OrientedMatroid(level.ground, level.cocircuits),
            "om_of": lambda: om_of(marked),
            "LineTable.read": lambda: table_read(table_of(marked), marked.restrict(PERSISTENT)),
            "restrict": lambda: level.restrict(PERSISTENT),
            "rank_zero": lambda: OrientedMatroid.rank_zero(level.ground),
            "parse_om": lambda: parse_om(render_om(level)),
        }
        for name, make in makers.items():
            matroid, twin = make(), make()
            pickled = pickle.dumps(matroid)
            matroid.loops, matroid.chirotope, covectors_of(matroid)
            assert set(vars(matroid)) == {"ground", "rows", "loops", "chirotope", "_covector_keys"}, name
            assert matroid == twin and hash(matroid) == hash(twin) and repr(matroid) == repr(twin), name
            assert pickle.dumps(matroid) == pickled, name
            state = {"ground": matroid.ground, "rows": matroid.rows}
            for copied in (copy.copy(matroid), copy.deepcopy(matroid), pickle.loads(pickled)):
                assert copied == matroid and vars(copied) == vars(twin) == state, name


def assert_rows_sorted(matroid: OrientedMatroid, name) -> None:
    """``rows`` is a strictly increasing tuple, and the canonical JSON is the
    plain JSON of the ground set and the sorted set of rows."""
    rows = matroid.rows
    assert type(rows) is tuple and all(a < b for a, b in zip(rows, rows[1:])), name
    plain = {"ground_set": list(matroid.ground), "cocircuits": sorted(set(rows))}
    assert matroid.canonical_json() == json.dumps(plain, separators=(",", ":")), name


def remade(matroid: OrientedMatroid):
    """``matroid`` made again by the producers that take rows or labels in
    any order: the constructor and ``parse_om`` on its rows reversed with
    some repeated, ``_of`` on its rows reversed, and ``rank_zero``."""
    ground, rows = matroid.ground, matroid.rows[::-1]
    repeated = rows + rows[:3]
    document = {"ground_set": list(ground[::-1]), "cocircuits": [row[::-1] for row in repeated]}
    yield "__init__", OrientedMatroid(ground, [om_module._sign_vector(ground, row) for row in repeated])
    yield "_of", OrientedMatroid._of(ground, rows)
    yield "parse_om", parse_om(document)
    yield "rank_zero", OrientedMatroid.rank_zero(ground[::-1])


class TestStreamedFingerprint:
    """``fingerprint`` feeds SHA-256 the pieces of ``canonical_json``: its
    head, the rows in chunks of ``om._ROW_CHUNK``, and its tail."""

    @pytest.mark.parametrize("chunk", [None, 1, 7])
    def test_fingerprint_is_sha256_of_canonical_json(self, monkeypatch, chunk):
        if chunk:
            monkeypatch.setattr(om_module, "_ROW_CHUNK", chunk)
        matroids = [
            OrientedMatroid.rank_zero([]),
            OrientedMatroid.rank_zero([3, "b1", "alpha"]),
            OrientedMatroid._of((1, 2), ["+-"]),
            om_of(build(default_seed(), 0).arrangement()),
            om_of(delta_arrangement(build(default_seed(), 20), 20)),
        ]
        assert [len(m.rows) for m in matroids][:3] == [0, 0, 1]
        assert len(matroids[-1].rows) > om_module._ROW_CHUNK
        for m in matroids:
            text = json.dumps({"ground_set": list(m.ground), "cocircuits": list(m.rows)},
                              separators=(",", ":"), ensure_ascii=True)
            assert m.canonical_json() == text
            assert m.fingerprint() == hashlib.sha256(text.encode("ascii")).hexdigest()


class TestRowsSortedOnce:
    """Every producer of an oriented matroid stores its rows as one sorted
    tuple, so ``canonical_json`` and ``render_om`` read them as they are."""

    def test_certificate_levels_to_depth_20(self):
        rng = random.Random(157)
        family = build(default_seed(), 20)
        deepest = delta_arrangement(family, 20)
        table = table_of(deepest)
        for i in range(1, 21):
            marked = delta_arrangement(family, i)
            persistent = marked.restrict(PERSISTENT)
            level = om_of(marked)
            made = {
                "om_of": level,
                "LineTable.read": table_read(table, marked),
                "persistent om_of": om_of(persistent),
                "persistent LineTable.read": table_read(table, persistent),
                "restrict": level.restrict(PERSISTENT),
                "restrict at random": level.restrict(rng.sample(level.ground, rng.randint(0, len(marked)))),
                "limit delete_loops": om_of(limit_arrangement(marked)).delete_loops(),
            }
            again = dict(remade(level))
            for name, matroid in [*made.items(), *again.items()]:
                assert_rows_sorted(matroid, (i, name))
            assert all(again[name] == level for name in ("__init__", "_of", "parse_om")), i
            assert made["LineTable.read"].rows == level.rows
            assert render_om(level)["cocircuits"] == list(level.rows)

    def test_random_degenerate_arrangements(self):
        rng = random.Random(163)
        for _ in range(200):
            arr = rand_degenerate_arrangement(rng, rng.randint(3, 7))
            points = rand_degenerate_points(rng, rng.randint(3, 7))
            plane, table = height_one(points), LineTable(points)
            matroid = om_of(arr)
            made = {"om_of": matroid, "LineTable.read": table_read(table, plane)}
            for k in range(3):
                labels = rng.sample(arr.labels, rng.randint(0, len(arr)))
                made[f"restrict {k}"] = matroid.restrict(labels)
                sub = plane.restrict(rng.sample(plane.labels, rng.randint(0, len(plane))))
                if sub.is_spanning():
                    made[f"LineTable.read {k}"] = table_read(table, sub)
            for name, made_om in [*made.items(), *remade(matroid)]:
                assert_rows_sorted(made_om, name)


class TestStrongMap:
    def test_reflexive(self):
        matroid = om_of(BASIS4)
        assert strong_map(matroid, matroid)

    def test_onto_rank_zero(self):
        matroid = om_of(BASIS)
        assert strong_map(matroid, OrientedMatroid.rank_zero(matroid.ground))

    def test_degenerate_source_does_not_cover_generic_target(self):
        # (+, +, -, -) is a covector of the generic arrangement but not of
        # the one with the dependency v4 = v1 + v2
        assert not strong_map(om_of(DEGEN4), om_of(BASIS4))

    def test_ground_set_mismatch(self):
        with pytest.raises(GroundSetMismatch):
            strong_map(om_of(BASIS), om_of(BASIS4))

    def test_transitive_on_sample_family(self):
        rng = random.Random(17)
        matroids = [om_of(rand_spanning_arrangement(rng, 4)) for _ in range(6)]
        matroids.append(OrientedMatroid.rank_zero(matroids[0].ground))
        matroids.append(om_of(BASIS4))
        matroids.append(om_of(DEGEN4))
        for m1 in matroids:
            for m2 in matroids:
                for m3 in matroids:
                    if strong_map(m1, m2) and strong_map(m2, m3):
                        assert strong_map(m1, m3)


class TestWeakMap:
    def test_reflexive(self):
        matroid = om_of(BASIS4)
        assert weak_map(matroid, matroid)

    def test_degenerating_one_determinant(self):
        # v4 slides from (1,1,1) to (1,1,0): exactly one basis sign dies
        assert weak_map(om_of(BASIS4), om_of(DEGEN4))
        assert not weak_map(om_of(DEGEN4), om_of(BASIS4))

    def test_onto_rank_zero(self):
        # Both sides delete onto the empty ground, where they are equal,
        # whatever the source's rank or consistency.
        doc = render_om(om_of(BASIS4))
        doc["cocircuits"] = [{"00++": "00+-", "00--": "00-+"}.get(cc, cc) for cc in doc["cocircuits"]]
        # The empty-ground row "" is no cocircuit; its deletion drops it.
        for source in (om_of(BASIS4), om_of(DEGEN4), parse_om(doc), OrientedMatroid.rank_zero([1, 2, 3, 4]),
                       OrientedMatroid.rank_zero([]), OrientedMatroid._of((), [""])):
            assert weak_map(source, OrientedMatroid.rank_zero(source.ground))

    def test_ground_set_mismatch(self):
        with pytest.raises(GroundSetMismatch):
            weak_map(om_of(BASIS), om_of(BASIS4))

    def test_mutual_weak_maps_with_global_sign_flip(self):
        # a mirrored copy has the negated chirotope but the same covectors
        rng = random.Random(23)
        for _ in range(10):
            arr = rand_spanning_arrangement(rng, rng.randint(3, 6))
            mirrored = LabeledArrangement(
                (label, Vector3(-v.x, v.y, v.z)) for label, v in arr.elements
            )
            m1, m2 = om_of(arr), om_of(mirrored)
            assert weak_map(m1, m2) and weak_map(m2, m1)
            assert om_equal(m1, m2)


class TestUnderlyingMatroid:
    def test_basis_is_free(self):
        matroid = underlying_matroid(om_of(BASIS))
        assert max(map(len, matroid.independents)) == 3
        for size in range(4):
            for subset in combinations((1, 2, 3), size):
                assert frozenset(subset) in matroid.independents

    def test_loop_in_no_independent_set(self):
        with_loop = LabeledArrangement(
            [(1, E1), (2, E2), (3, E3), (4, Vector3(0, 0, 0))]
        )
        matroid = underlying_matroid(om_of(with_loop))
        assert frozenset({4}) not in matroid.independents
        assert all(4 not in s for s in matroid.independents)

    def test_dependent_triple(self):
        matroid = underlying_matroid(om_of(DEGEN4))
        assert frozenset({1, 2, 4}) not in matroid.independents
        assert frozenset({1, 3, 4}) in matroid.independents

    def test_exchange_axiom(self):
        rng = random.Random(31)
        for _ in range(15):
            arr = rand_spanning_arrangement(rng, rng.randint(3, 6))
            matroid = underlying_matroid(om_of(arr))
            sets = sorted(matroid.independents, key=lambda s: (len(s), sorted(map(str, s))))
            for small in sets:
                for big in sets:
                    if len(small) < len(big):
                        assert any(
                            small | {x} in matroid.independents for x in big - small
                        )


class TestDerivedChirotope:
    """``OrientedMatroid.chirotope`` is derived from the cocircuits alone;
    ``chirotope_of`` (3x3 determinants) is the reference."""

    def test_matches_determinants_with_loops_and_parallels(self):
        rng = random.Random(59)
        for _ in range(150):
            arr = rand_degenerate_arrangement(rng, rng.randint(3, 7))
            assert up_to_sign(om_of(arr).chirotope, chirotope_of(arr))

    def test_matches_determinants_on_certificate_levels(self):
        family = build(default_seed(), 10)
        for i in range(1, 11):
            marked = delta_arrangement(family, i)
            for arr in (marked, limit_arrangement(marked)):
                assert up_to_sign(om_of(arr).chirotope, chirotope_of(arr))

    def test_document_round_trip_keeps_basis_signs(self):
        rng = random.Random(61)
        for _ in range(20):
            arr = rand_degenerate_arrangement(rng, rng.randint(3, 6))
            # move one element onto the line of two others
            labels = [l for l, v in arr.elements if not v.is_zero()]
            l, u, w = (arr.vector(x) for x in rng.sample(labels, 3))
            moved = LabeledArrangement(
                (x, Vector3(u.x + w.x, u.y + w.y, u.z + w.z) if v is l else v)
                for x, v in arr.elements
            )
            if not moved.is_spanning():
                continue
            direct = (om_of(arr), om_of(moved))
            parsed = tuple(parse_om(render_om(m)) for m in direct)
            for d, p in zip(direct, parsed):
                assert om_equal(d, p)
                assert d.chirotope == p.chirotope
                assert underlying_matroid(d) == underlying_matroid(p)
            assert weak_map(*parsed) == weak_map(*direct)
            assert weak_map(*parsed[::-1]) == weak_map(*direct[::-1])

    def test_mirrored_copy_has_equal_chirotope(self):
        rng = random.Random(67)
        for _ in range(20):
            arr = rand_degenerate_arrangement(rng, rng.randint(3, 7))
            mirrored = LabeledArrangement(
                (label, Vector3(-v.x, v.y, v.z)) for label, v in arr.elements
            )
            m1, m2 = om_of(arr), om_of(mirrored)
            assert om_equal(m1, m2)
            assert m1.chirotope == m2.chirotope
            assert chirotope_of(arr) != chirotope_of(mirrored)

    @pytest.mark.parametrize("cocircuits", [
        ["00+", "00-", "++0", "--0"],  # e1, 2 e1, e2: a parallel pair
        ["0++", "0--", "+0+", "-0-", "+-0", "-+0"],  # e1, e2, e1 + e2
    ])
    def test_rank_two_document_raises(self, cocircuits):
        matroid = parse_om({"ground_set": [1, 2, 3], "cocircuits": cocircuits})
        with pytest.raises(NotSpanning):
            matroid.chirotope

    def test_a_rank_two_deletion_with_a_parallel_pair_says_so(self):
        # A deletion of a realizable oriented matroid is consistent.  Each of
        # these has rank 2 and a pair of non-loops in one zero set (a
        # parallel pair), where the walk starts; on 1..3 of the second, no
        # element after that pair checks it.
        first = om_of(LabeledArrangement([(1, E1), (2, E1.scaled(2)), (3, E2), (4, Vector3(1, 1, 0)), (5, E3)]))
        second = om_of(LabeledArrangement([(1, Vector3(1, -2, 2)), (2, Vector3(-2, -1, 1)),
                                           (3, Vector3(-4, -2, 2)), (4, E3)]))
        for full, labels in ((first, [1, 2, 3, 4]), (first, [1, 3, 4]), (second, [1, 2, 3])):
            deleted = full.restrict(labels)
            for read in (lambda: deleted.chirotope, lambda: underlying_matroid(deleted),
                         lambda: weak_map(om_of(BASIS4).restrict(labels), deleted)):
                with pytest.raises(NotSpanning, match="rank 1 or 2 carry no basis signs"):
                    read()

    def test_deletions_of_rank_one_and_two_say_so(self):
        # In rank 3 a deletion's chirotope is its sub-arrangement's; below,
        # the walk names the rank, parallel pairs or not.
        rng = random.Random(151)
        low = 0
        for _ in range(300):
            arr = rand_degenerate_arrangement(rng, rng.randint(3, 6))
            labels = rng.sample(arr.labels, rng.randint(1, len(arr)))
            sub, deleted = arr.restrict(labels), om_of(arr).restrict(labels)
            rank = matrix_rank(sub.integer_vectors)
            if rank == 3:
                assert up_to_sign(deleted.chirotope, chirotope_of(sub))
            elif rank:
                low += 1
                with pytest.raises(NotSpanning, match="rank 1 or 2 carry no basis signs"):
                    deleted.chirotope
        assert low > 50, low

    def test_half_of_each_cocircuit_pair_is_rejected(self):
        doc = render_om(om_of(BASIS4))
        half = [cc for cc in doc["cocircuits"] if cc.lstrip("0")[0] == "+"]
        with pytest.raises(SchemaError) as exc:
            parse_om({"ground_set": doc["ground_set"], "cocircuits": half})
        assert exc.value.path == "$.cocircuits[0]"
        assert repr(half[0]) in str(exc.value)

    def test_inconsistent_document_raises(self):
        # flip the sign of element 4 in the cocircuit pair vanishing on {1, 2}
        doc = render_om(om_of(BASIS4))
        doc["cocircuits"] = [
            {"00++": "00+-", "00--": "00-+"}.get(cc, cc) for cc in doc["cocircuits"]
        ]
        with pytest.raises(NotSpanning, match="cocircuits disagree on"):
            parse_om(doc).chirotope


class TestSignVectorStrings:
    def test_round_trip_every_short_vector(self):
        for n in range(6):
            labels = tuple(range(1, n + 1))
            for signs in product((-1, 0, 1), repeat=n):
                v = SignVector(labels, signs)
                text = v.to_string()
                assert text == "".join("-0+"[s + 1] for s in signs)
                assert v.signs == signs


class TestLabels:
    def test_final_newline_is_no_label(self):
        assert label_key("b1") == (1, 1, 0)
        with pytest.raises(ValueError):
            label_key("c2\n")
        with pytest.raises(ValueError):
            LabeledArrangement([("b1", E1), ("b1\n", E2), ("alpha", E3)])

    @pytest.mark.parametrize("value, valid", [
        (True, False), ("b0", False), ("b01", False), ("b1\n", False), (1.0, False),
        (None, False), ("delta", True), (-3, True),
    ])
    def test_is_label_iff_label_key_accepts(self, value, valid):
        """``label_key`` accepts exactly the well-formed labels."""
        try:
            label_key(value)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == valid

    def test_shuffled_arrangement_is_in_label_order(self):
        elements = [("b2", E1), (3, E2), ("c1", E3), ("alpha", ONES), ("delta", E1),
                    ("d1", E2), ("b1", E3), (-1, ONES), ("nu", E2)]
        ordered = sorted(elements, key=lambda e: label_key(e[0]))
        rng = random.Random(5)
        for _ in range(20):
            rng.shuffle(elements)
            arrangement = LabeledArrangement(elements)
            assert arrangement == LabeledArrangement(ordered)
            assert arrangement.elements == tuple(ordered)

    @pytest.mark.parametrize("build_with", [LabeledArrangement, VectorFamily])
    def test_error_texts(self, build_with):
        vec = (1, 0, 0)
        with pytest.raises(ValueError, match=r"^invalid label 'b0'$"):
            build_with([("b1", vec), ("b0", vec)])
        with pytest.raises(ValueError, match=r"^duplicate label 'b1'$"):
            build_with([("b1", vec), (2, vec), ("b1", vec), ("b0", vec)])


def full_chirotope_weak_map(source: OrientedMatroid, target: OrientedMatroid) -> bool:
    """The earlier ``weak_map``, kept as the reference: it compares the full
    derived chirotopes, every target basis sign under one global sign."""
    if source.ground != target.ground:
        raise GroundSetMismatch(f"{source.ground} vs {target.ground}")
    chi_s = source.chirotope
    eps = 0
    for triple, t_sign in target.chirotope.nonzero.items():
        s_sign = chi_s[triple]
        if s_sign == 0:
            return False
        if eps == 0:
            eps = t_sign * s_sign
        elif t_sign != eps * s_sign:
            return False
    return True


def rand_weak_map_pair(rng: random.Random):
    """A spanning grid arrangement (with loops and parallel and antiparallel
    copies) and a spanning variant on the same labels, in random order.  In
    the variant some elements are zeroed, some moved onto the line of two
    others and some moved anywhere; or the non-zeroed elements are flattened
    into one plane while the zeroed ones keep it spanning, so that one side
    has rank below 3 on the non-loops of the other."""
    while True:
        arr = rand_grid_arrangement(rng, rng.randint(3, 7))
        if not arr.is_spanning():
            continue
        vectors = dict(arr.elements)
        variant = dict(vectors)
        flatten = rng.random() < 0.2
        for label, v in vectors.items():
            kind = rng.random()
            if kind < 0.25:
                variant[label] = Vector3(0, 0, 0)
            elif flatten:
                variant[label] = Vector3(v.x, v.y, 0)
            elif kind < 0.4:
                u, w = rng.sample(list(vectors.values()), 2)
                variant[label] = Vector3(u.x + w.x, u.y + w.y, u.z + w.z)
            elif kind < 0.5:
                variant[label] = Vector3(rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(0, 2))
        if flatten:
            zeroed = [label for label, v in variant.items() if v.is_zero()]
            if not zeroed:
                continue
            variant = {l: (Vector3(v.x, v.y, v.z + 1) if l in zeroed else v)
                       for l, v in variant.items()}
        other = LabeledArrangement(variant.items())
        if other.is_spanning():
            pair = [om_of(arr), om_of(other)]
            rng.shuffle(pair)
            return pair


class TestRestrict:
    """``OrientedMatroid.restrict`` is the deletion onto a label subset."""

    def test_matches_sub_arrangement(self):
        rng = random.Random(71)
        checked = 0
        while checked < 500:
            arr = rand_grid_arrangement(rng, rng.randint(3, 8))
            labels = rng.sample(arr.labels, rng.randint(3, len(arr)))
            sub = arr.restrict(labels)
            if not (arr.is_spanning() and sub.is_spanning()):
                continue
            matroid = om_of(arr)
            assert matroid.restrict(labels) == om_of(sub)
            assert matroid.loops == {
                l for k, l in enumerate(matroid.ground)
                if all(row[k] == "0" for row in matroid.rows)
            }
            checked += 1

    def test_a_deletion_of_loops_takes_over_a_read_chirotope(self):
        # On uncached copies: deleting loops only carries the source's
        # chirotope once it has been read, equal to a fresh walk; deleting a
        # non-loop too carries nothing.
        rng = random.Random(109)
        for _ in range(60):
            arr = rand_degenerate_arrangement(rng, rng.randint(3, 6))
            extra = rng.randint(0, 2)
            arr = LabeledArrangement(list(arr.elements) + [
                (len(arr) + k + 1, Vector3(0, 0, 0)) for k in range(extra)])
            matroid = om_of(arr)
            dropped = set(rng.sample(sorted(matroid.loops), rng.randint(1, len(matroid.loops))))
            labels = [l for l in matroid.ground if l not in dropped]
            source = uncached(matroid)
            assert "chirotope" not in vars(source.restrict(labels))
            source.chirotope
            deleted = source.restrict(labels)
            assert "chirotope" in vars(deleted)
            assert deleted.chirotope == uncached(deleted).chirotope
            non_loop = rng.choice([l for l in labels if l not in matroid.loops])
            assert "chirotope" not in vars(source.restrict(l for l in labels if l != non_loop))

    def test_a_deletion_that_drops_rows_carries_no_chirotope(self):
        # A sign set that is no oriented matroid: the cocircuits of an
        # arrangement with a loop, plus a pair of rows non-zero on every
        # non-loop.  The walk reads no line off that pair, so its chirotope
        # is the arrangement's; deleting the loops drops the pair (its support
        # holds every other), so the deletion carries nothing.
        rng = random.Random(113)
        for _ in range(30):
            matroid = om_of(rand_degenerate_arrangement(rng, rng.randint(3, 6)))
            tope = "".join("0" if l in matroid.loops else rng.choice("-+") for l in matroid.ground)
            rows = {*matroid.rows, tope, tope.translate(om_module._NEGATE)}
            source = OrientedMatroid._of(matroid.ground, rows)
            assert source.chirotope == matroid.chirotope
            deleted = source.delete_loops()
            assert deleted == matroid.delete_loops()
            assert "chirotope" not in vars(deleted)

    def test_matches_the_per_row_deletion(self):
        # Random oriented matroids with loops and parallel and antiparallel
        # elements, deleted onto random label sets, against the deletion of
        # ``fraction_reference`` that reads one row at a time.
        rng = random.Random(127)
        kinds = {"loop kept": 0, "parallel kept": 0, "rows dropped": 0}
        for _ in range(150):
            arr = rand_degenerate_arrangement(rng, rng.randint(3, 6))
            matroid = om_of(arr)
            labels = rng.sample(matroid.ground, rng.randint(1, len(matroid.ground) - 1))
            deleted = matroid.restrict(labels)
            ground, rows = ref.slow_deletion(matroid.ground, matroid.rows, labels)
            assert (deleted.ground, list(deleted.rows)) == (ground, rows)
            kept = [om_module._primitive(*v) for l, v in zip(arr.labels, arr.integer_vectors) if l in labels]
            kinds["loop kept"] += (0, 0, 0) in kept
            kinds["parallel kept"] += len({max(v, negated(v)) for v in kept}) < len(kept)
            kinds["rows dropped"] += len(set(om_module._project(matroid.rows, [
                k for k, l in enumerate(matroid.ground) if l in labels]))) > len(rows) + 1
        assert min(kinds.values()) > 10, kinds

    def test_every_level_onto_its_limit_matches_the_per_row_deletion(self):
        # Check (f)'s deletions: each level of the default seed at depth 20
        # onto its limit's non-loops, the eight persistent points.
        family = build(default_seed(), 20)
        for i in range(1, 21):
            level = om_of(delta_arrangement(family, i))
            limit = om_of(LabeledArrangement(
                (l, v) for l, v in limit_arrangement(delta_arrangement(family, i)).elements if l in PERSISTENT))
            deleted = level.restrict(limit.ground)
            assert (deleted.ground, list(deleted.rows)) == ref.slow_deletion(level.ground, level.rows, PERSISTENT)
            assert deleted == limit

    def test_whole_ground_is_self(self):
        matroid = om_of(BASIS4)
        assert matroid.restrict([4, 3, 2, 1]) is matroid
        assert matroid.delete_loops() is matroid

    def test_onto_loops_is_rank_zero(self):
        with_loops = LabeledArrangement(
            [(1, E1), (2, E2), (3, E3), (4, Vector3(0, 0, 0)), (5, Vector3(0, 0, 0))]
        )
        deleted = om_of(with_loops).restrict([4, 5])
        assert deleted == OrientedMatroid.rank_zero([4, 5])
        assert deleted.loops == {4, 5}

    def test_onto_one_label_and_none(self):
        assert sorted(om_of(BASIS).restrict([2]).rows) == ["+", "-"]
        assert om_of(BASIS).restrict([]) == OrientedMatroid.rank_zero([])

    def test_unknown_label(self):
        with pytest.raises(KeyError):
            om_of(BASIS).restrict([1, 4])


class TestWeakMapByDeletion:
    """``weak_map`` compares chirotopes deleted onto the target's non-loops;
    the full-chirotope comparison is the reference."""

    def test_matches_full_chirotopes_on_random_pairs(self):
        rng = random.Random(73)
        answers, low_rank = [], 0
        for _ in range(1500):
            source, target = rand_weak_map_pair(rng)
            if rng.random() < 0.05:
                target = OrientedMatroid.rank_zero(target.ground)
            answer = weak_map(source, target)
            assert answer == full_chirotope_weak_map(source, target)
            answers.append(answer)
            # the source has no basis among the target's non-loops
            nonloops = [l for l in target.ground if l not in target.loops]
            low_rank += bool(target.cocircuits) and not any(
                source.chirotope[t] for t in combinations(nonloops, 3)
            )
        assert 0.1 < sum(answers) / len(answers) < 0.9
        assert low_rank > 50

    def test_a_source_of_low_rank_is_ranked_once(self, monkeypatch):
        # the failed walk decides the rank to choose its error, and weak_map
        # reads that answer instead of deciding it again
        ranked = []
        spans = om_module._spans_rank_three
        monkeypatch.setattr(om_module, "_spans_rank_three", lambda m: ranked.append(m) or spans(m))
        rng = random.Random(73)
        low = 0
        for _ in range(1500):
            source, target = rand_weak_map_pair(rng)
            ranked.clear()
            answer = weak_map(source, target)
            assert len(ranked) <= 1
            if ranked:
                low += 1
                assert not answer and not spans(ranked[0])
        assert low > 20, low

    def test_certificate_levels_up_to_depth_20(self):
        family = build(default_seed(), 20)
        for i in range(1, 21):
            marked = delta_arrangement(family, i)
            level, limit = om_of(marked), om_of(limit_arrangement(marked))
            assert weak_map(level, limit) and full_chirotope_weak_map(level, limit)
            assert not weak_map(limit, level) and not full_chirotope_weak_map(limit, level)

    def test_certificate_builds_no_chirotope_beyond_the_limit(self, monkeypatch):
        sizes = []
        derive = om_module._chirotope_from_cocircuits

        def recorded(matroid):
            sizes.append(len(matroid.ground))
            return derive(matroid)

        monkeypatch.setattr(om_module, "_chirotope_from_cocircuits", recorded)
        certificate(default_seed(), 3)
        assert sizes and max(sizes) == 8

    def test_equal_pairs_match_full_chirotopes(self):
        # a source equal to the target on its non-loops answers True without
        # deriving the source's chirotope
        rng = random.Random(89)
        checked = 0
        while checked < 100:
            arr = rand_grid_arrangement(rng, rng.randint(3, 7))
            zeroed = LabeledArrangement(
                (l, Vector3(0, 0, 0) if rng.random() < 0.3 else v) for l, v in arr.elements
            )
            if not (arr.is_spanning() and zeroed.is_spanning()):
                continue
            checked += 1
            full, part = om_of(arr), om_of(zeroed)
            doc = render_om(full)
            for source, target in ((full, full), (parse_om(doc), parse_om(doc)),
                                   (full, parse_om(doc)), (full, part)):
                assert weak_map(source, target) and full_chirotope_weak_map(source, target)
            source = parse_om(doc)
            assert weak_map(source, parse_om(doc))
            assert "chirotope" not in vars(source)

    def test_inconsistent_target_equal_to_the_source_raises(self):
        doc = render_om(om_of(BASIS4))
        doc["cocircuits"] = [
            {"00++": "00+-", "00--": "00-+"}.get(cc, cc) for cc in doc["cocircuits"]
        ]
        with pytest.raises(NotSpanning):
            weak_map(parse_om(doc), parse_om(doc))

    def test_rank_two_source_document(self):
        # e1, e2 and e1 + e2 span a plane only: no basis signs at all
        source = parse_om({"ground_set": [1, 2, 3],
                           "cocircuits": ["0++", "0--", "+0+", "-0-", "+-0", "-+0"]})
        assert not weak_map(source, om_of(BASIS))
        assert weak_map(source, OrientedMatroid.rank_zero([1, 2, 3]))

    def test_inconsistent_source_document(self):
        # the sign of element 4 flipped in the cocircuit pair vanishing on {1, 2}
        doc = render_om(om_of(BASIS4))
        doc["cocircuits"] = [
            {"00++": "00+-", "00--": "00-+"}.get(cc, cc) for cc in doc["cocircuits"]
        ]
        source = parse_om(doc)
        with pytest.raises(NotSpanning):
            weak_map(source, om_of(BASIS4))
        # on the non-loops {1, 2, 3} of this target the document is consistent
        target = om_of(LabeledArrangement(list(BASIS.elements) + [(4, Vector3(0, 0, 0))]))
        assert weak_map(source, target)
        with pytest.raises(NotSpanning):
            source.chirotope


def independent_sets(arrangement: LabeledArrangement) -> int:
    """The reference count of independent sets of size at most 3: subsets
    whose integer vectors have full rank."""
    ints = arrangement.integer_vectors
    return sum(
        1
        for size in range(4)
        for subset in combinations(ints, size)
        if matrix_rank(subset) == size
    )


class TestSignVectorApi:
    """What the benchmark reads from ``omstrata.om``: sign vectors read off
    ``cocircuits`` and ``covectors_of``, an oriented matroid built from sign
    vectors and fingerprinted, and the underlying matroid's independent sets."""

    def test_views_constructor_and_matroid_on_random_arrangements(self):
        rng = random.Random(101)
        for k in range(120):
            if k % 2:
                arr = rand_degenerate_arrangement(rng, rng.randint(3, 6))
            else:
                arr = rand_grid_arrangement(rng, rng.randint(3, 8))
                if not arr.is_spanning():
                    continue
            m, ground = om_of(arr), arr.labels
            tuples = all_pairs_cocircuit_tuples(arr.integer_vectors)
            rebuilt = OrientedMatroid(ground, frozenset(SignVector(ground, t) for t in tuples))
            assert rebuilt == m and rebuilt.fingerprint() == m.fingerprint()
            assert len(m.cocircuits) == len(m.rows) == len(tuples)
            assert m.cocircuits == frozenset(rebuilt.cocircuits) == rebuilt.cocircuits
            assert all(cc in m.cocircuits for cc in rebuilt.cocircuits)
            relabeled = tuple(label + 100 for label in ground)
            assert not any(SignVector(relabeled, t) in m.cocircuits for t in tuples)
            assert {c.signs for c in m.cocircuits} == tuples
            assert {c.to_string() for c in m.cocircuits} == set(m.rows)
            assert {c.signs for c in m.cocircuits} <= {c.signs for c in covectors_of(m)}
            assert len(underlying_matroid(m).independents) == independent_sets(arr)

    def test_from_string_and_constructor_checks(self):
        """The constructor rejects a length mismatch and every sign that is
        not the int -1, 0 or 1, bools and floats included."""
        labels = (1, 2)
        bad_signs = ((True, False), (1.0, 0), (1, -1.0), ("+", "-"), (1, None))
        for bad in ((1,), (1, 0, 0), (1, 2)) + bad_signs:
            with pytest.raises(ValueError):
                SignVector(labels, bad)
        assert SignVector(labels, (1, -1)).to_string() == "+-"

    @pytest.mark.parametrize("labels", [(1, 2), (7, 8, 9), (1, 3, 2), (1, 2, 3, 4)])
    def test_matroid_constructor_rejects_foreign_labels(self, labels):
        ground = (1, 2, 3)
        fits = SignVector(ground, (1, 0, -1))
        foreign = SignVector(labels, (1,) + (0,) * (len(labels) - 1))
        with pytest.raises(ValueError, match="not the ground set"):
            OrientedMatroid(ground, [fits, foreign])
        assert set(OrientedMatroid(ground, [fits]).rows) == {"+0-"}

    def test_sign_vectors_are_immutable_values(self):
        v = SignVector((1, 2, 3), (1, 0, -1))
        with pytest.raises(AttributeError):
            v.signs = (-1, 0, 1)
        with pytest.raises(AttributeError):
            v.extra = 1
        assert hash(v) == hash(SignVector((1, 2, 3), [1, 0, -1]))
        assert v != SignVector((1, 2, 4), (1, 0, -1))
        assert v.to_string() == "+0-" and v.signs == (1, 0, -1)


def tuple_restrict(matroid: OrientedMatroid, labels) -> set[tuple[int, ...]]:
    """The reference deletion on sign tuples: the support-minimal non-zero
    restrictions of the cocircuits, or the cocircuits themselves when the
    labels cover the ground set."""
    keep = [i for i, l in enumerate(matroid.ground) if l in set(labels)]
    if len(keep) == len(matroid.ground):
        return {cc.signs for cc in matroid.cocircuits}
    restricted = {tuple(cc.signs[i] for i in keep) for cc in matroid.cocircuits}
    supports = {r: frozenset(k for k, s in enumerate(r) if s) for r in restricted}
    nonzero = {s for s in supports.values() if s}
    return {r for r, s in supports.items() if s in nonzero and not any(o < s for o in nonzero)}


def itemgetter_projection(rows, cols) -> list[str]:
    """The rows restricted to ``cols`` by one ``itemgetter`` over every
    column: the reference for ``_project``."""
    return list(map("".join, map(itemgetter(*cols), rows)))


class TestRunProjection:
    """``_project`` reads each row by runs of consecutive columns; the
    ``itemgetter`` projection over all of them is the reference."""

    @staticmethod
    def rows(rng, width, count):
        return ["".join(rng.choice("-0+") for _ in range(width)) for _ in range(count)]

    def check(self, rows, cols):
        projected = list(om_module._project(iter(rows), cols))
        assert projected == itemgetter_projection(rows, cols)
        assert all(len(row) == len(cols) for row in projected)

    def test_random_column_subsets(self):
        rng = random.Random(113)
        kinds = {"repeat": 0, "backwards": 0}
        for _ in range(400):
            width = rng.randint(1, 40)
            rows = self.rows(rng, width, rng.randint(0, 8))
            cols = [rng.randrange(width) for _ in range(rng.randint(1, width + 3))]
            kinds["repeat"] += len(set(cols)) < len(cols)
            kinds["backwards"] += any(b < a for a, b in zip(cols, cols[1:]))
            self.check(rows, cols)
            self.check(rows, sorted(set(cols)))
        assert min(kinds.values()) > 100

    def test_runs_of_every_shape(self):
        rng = random.Random(127)
        for width in (1, 2, 7, 25, 64):
            rows = self.rows(rng, width, 12)
            self.check(rows, list(range(width)))  # the full width: one run
            self.check(rows, tuple(range(width)))
            for col in range(width):
                self.check(rows, [col])
                self.check(rows, [col, col])
                self.check(rows, [col] + list(range(width)))
            for start in range(width):
                for stop in range(start + 1, width + 1, 3):
                    self.check(rows, list(range(start, stop)))  # one run
                    self.check(rows, list(range(stop - 1, start - 1, -1)))  # backwards
                    # a level's shape: a head, one column moved forward, the rest
                    self.check(rows, [0, stop - 1] + list(range(start, stop - 1)))

    def test_the_full_width_reads_each_row_whole(self):
        rows = self.rows(random.Random(131), 30, 10)
        assert list(om_module._project(rows, range(30))) == rows


class TestStringRowsAgainstTuples:
    """Rows are projected, restricted and written out as strings; the tuple
    computations they replaced are the references."""

    def test_projection(self):
        rng = random.Random(103)
        for _ in range(300):
            width = rng.randint(1, 12)
            tuples = [tuple(rng.choice((-1, 0, 1)) for _ in range(width))
                      for _ in range(rng.randint(0, 6))]
            cols = [rng.randrange(width) for _ in range(rng.randint(1, width + 2))]
            projected = list(om_module._project(map(as_row, tuples), cols))
            assert projected == [as_row(tuple(t[c] for c in cols)) for t in tuples]

    def test_restrict(self):
        rng = random.Random(107)
        matroids = [om_of(rand_degenerate_arrangement(rng, rng.randint(3, 6))) for _ in range(60)]
        matroids += [m for sets in sign_set_groups() for m in sets[:3]]
        for m in matroids:
            for _ in range(4):
                labels = rng.sample(m.ground, rng.randint(0, len(m.ground)))
                deleted = m.restrict(labels)
                assert {cc.signs for cc in deleted.cocircuits} == tuple_restrict(m, labels)
                assert deleted.ground == tuple(l for l in m.ground if l in labels)

    def test_canonical_json(self):
        rng = random.Random(109)
        matroids = [
            OrientedMatroid.rank_zero([]),
            OrientedMatroid.rank_zero([3, "b1", "alpha"]),
            OrientedMatroid._of((), [""]),
            om_of(build(default_seed(), 2).arrangement()),
        ]
        matroids += [om_of(rand_degenerate_arrangement(rng, rng.randint(3, 6))) for _ in range(40)]
        matroids += [m for sets in sign_set_groups() for m in sets[:3]]
        assert any(not m.rows for m in matroids)
        for m in matroids:
            doc = {"ground_set": list(m.ground), "cocircuits": sorted(cc.to_string() for cc in m.cocircuits)}
            assert m.canonical_json() == json.dumps(doc, separators=(",", ":"), ensure_ascii=True)
