import copy
import pickle
import random
from fractions import Fraction as F

import pytest

from omstrata import (
    GroundSetMismatch,
    LabeledArrangement,
    NotSpanning,
    RankDeficient,
    Subspace,
    Vector3,
    VectorFamily,
    covectors_of,
    family_om,
    om_equal,
    om_of,
    projection_arrangement,
    same_stratum,
    subspace_om,
    underlying_matroid,
)
from omstrata import grassmann
from omstrata.labels import label_key
from omstrata.linalg import matrix_rank, solve_linear

from conftest import rand_fraction, sign_of


def rand_subspace(rng: random.Random, ambient: int, span: int = 9) -> Subspace:
    while True:
        rows = [[rand_fraction(rng, span) for _ in range(ambient)] for _ in range(3)]
        try:
            return Subspace(ambient, rows)
        except RankDeficient:
            continue


def det3(a, b, c):
    return (a[0] * (b[1] * c[2] - b[2] * c[1]) - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))


def rand_basis_change(rng: random.Random):
    while True:
        m = [[rand_fraction(rng) for _ in range(3)] for _ in range(3)]
        if det3(*m) != 0:
            return m


def rebased(subspace: Subspace, change) -> Subspace:
    rows = [
        tuple(
            sum(change[p][q] * subspace.basis[q][i] for q in range(3))
            for i in range(subspace.ambient)
        )
        for p in range(3)
    ]
    return Subspace(subspace.ambient, rows)


IDENTITY3 = Subspace(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


class TestSubspace:
    def test_rank_deficient_rejected(self):
        with pytest.raises(RankDeficient):
            Subspace(4, [[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0]])

    def test_rank_check_matches_elimination(self):
        # the integer Gram determinant against Fraction elimination, on rows
        # with entries near 1e6/1e6, a third of them made dependent
        rng = random.Random(29)
        bound = 10 ** 6
        for trial in range(300):
            ambient = rng.randint(3, 12)
            rows = [[F(rng.randint(-bound, bound), rng.randint(1, bound)) if rng.random() < 0.8 else F(0)
                     for _ in range(ambient)] for _ in range(3)]
            if trial % 3 == 0:
                s, t = F(rng.randint(-bound, bound), rng.randint(1, bound)), F(rng.randint(-9, 9), 7)
                rows[2] = [s * x + t * y for x, y in zip(rows[0], rows[1])]
            try:
                Subspace(ambient, rows)
                independent = True
            except RankDeficient:
                independent = False
            assert independent == (matrix_rank(rows) == 3)

    def test_row_length_checked(self):
        with pytest.raises(RankDeficient):
            Subspace(4, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])

    def test_three_rows_are_needed(self):
        for rows in ([[1, 0, 0], [0, 1, 0]], [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]):
            with pytest.raises(RankDeficient, match=f"^need exactly 3 basis rows, got {len(rows)}$"):
                Subspace(len(rows[0]), rows)

    @pytest.mark.parametrize("ambient", [3.0, True, "3", F(3)], ids=["float", "bool", "str", "Fraction"])
    def test_ambient_that_is_not_an_int_raises(self, ambient):
        # a float ambient would reach serialized output, and range() later
        with pytest.raises(ValueError, match="ambient must be an int"):
            Subspace(ambient, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])

    def test_column_index_checked(self):
        plane = Subspace(4, [[1, 2, 3, 4], [0, 1, 0, 5], [0, 0, 1, 6]])
        assert plane.column(0) == Vector3(1, 0, 0) and plane.column(3) == Vector3(4, 5, 6)
        for i in (-1, 4, True, False, 1.0, F(1), "1"):
            with pytest.raises(IndexError, match=r"^column must be an int in 0\.\.3, got "):
                plane.column(i)

    @pytest.mark.parametrize("value", [0.5, 2.0, True, "1/2"])
    def test_entries_that_are_not_ints_or_fractions_raise(self, value):
        with pytest.raises(ValueError, match="int or a Fraction"):
            Subspace(3, [[1, 0, 0], [0, 1, 0], [0, 0, value]])
        with pytest.raises(ValueError, match="int or a Fraction"):
            VectorFamily([(1, (1, 0, 0)), (2, (0, 1, value))])


class TestProjectionArrangement:
    def test_identity_basis(self):
        arrangement = projection_arrangement(IDENTITY3)
        assert arrangement.labels == (1, 2, 3)
        assert [v for _, v in arrangement.elements] == [
            Vector3(1, 0, 0), Vector3(0, 1, 0), Vector3(0, 0, 1)
        ]

    def test_orthogonal_complement_projects_to_zero(self):
        plane = Subspace(
            5,
            [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0]],
        )
        arrangement = projection_arrangement(plane)
        vectors = [v for _, v in arrangement.elements]
        assert vectors[:3] == [Vector3(1, 0, 0), Vector3(0, 1, 0), Vector3(0, 0, 1)]
        assert vectors[3].is_zero() and vectors[4].is_zero()

    def test_matches_one_gram_solve_per_coordinate(self):
        # the reference: solve G c_i = B e_i afresh for every coordinate i,
        # on small entries and, up to ambient 18, on entries p/q with
        # |p|, q <= 1e6 as in the subspace-routes benchmark
        rng = random.Random(103)
        cases = [(ambient, 9) for ambient in (3, 4, 7, 12) for _ in range(5)]
        cases += [(ambient, 10 ** 6) for ambient in (8, 13, 18) for _ in range(2)]
        for ambient, span in cases:
            subspace = rand_subspace(rng, ambient, span)
            rows = subspace.basis
            gram = [[sum(a * b for a, b in zip(rows[p], rows[q])) for q in range(3)]
                    for p in range(3)]
            expected = [
                (i + 1, Vector3(*solve_linear(gram, [rows[p][i] for p in range(3)])))
                for i in range(ambient)
            ]
            assert projection_arrangement(subspace).elements == tuple(expected)

    def test_projection_route_agrees_with_direct_route(self):
        # module oracle: the Gram-solve route and the coordinate-pairing
        # route must induce the same oriented matroid
        rng = random.Random(101)
        for _ in range(15):
            subspace = rand_subspace(rng, 6)
            assert om_equal(om_of(projection_arrangement(subspace)), subspace_om(subspace))


class TestSubspaceOm:
    def test_coordinate_plane(self):
        expected = om_of(
            LabeledArrangement([(1, Vector3(1, 0, 0)), (2, Vector3(0, 1, 0)), (3, Vector3(0, 0, 1))])
        )
        assert om_equal(subspace_om(IDENTITY3), expected)

    def test_q4_example_has_no_loops(self):
        subspace = Subspace(
            4, [[1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]]
        )
        matroid = subspace_om(subspace)
        assert matroid.loops == frozenset()
        assert 4 not in matroid.loops

    def test_loops_are_orthogonal_coordinates(self):
        rng = random.Random(103)
        for _ in range(10):
            subspace = rand_subspace(rng, 5)
            matroid = subspace_om(subspace)
            for i in range(5):
                column_is_zero = all(subspace.basis[p][i] == 0 for p in range(3))
                assert ((i + 1) in matroid.loops) == column_is_zero

    def test_sampled_members_give_covectors(self):
        rng = random.Random(107)
        subspace = rand_subspace(rng, 5)
        matroid = subspace_om(subspace)
        covectors = {cv.signs for cv in covectors_of(matroid)}
        for _ in range(200):
            coeff = [rand_fraction(rng) for _ in range(3)]
            member = [
                sum(coeff[p] * subspace.basis[p][i] for p in range(3))
                for i in range(5)
            ]
            assert tuple(sign_of(x) for x in member) in covectors


def kernel_vector(subspace: Subspace):
    """A vector of Q^n orthogonal to the basis rows, non-zero when the first
    four columns span Q^3: the signed 3x3 minors of those columns, so that
    each row's dot product with it is a 4x4 determinant with a repeated row."""
    cols = [[row[j] for row in subspace.basis] for j in range(4)]
    minors = [det3(*(cols[k] for k in range(4) if k != j)) for j in range(4)]
    return [(-1) ** j * m for j, m in enumerate(minors)] + [0] * (subspace.ambient - 4)


class TestFamilyOm:
    def test_matches_om_of_the_exact_images(self):
        # the reference: om_of the images B v_i summed in Fractions, on
        # families with Fraction entries, loops (a zero vector and, past
        # n = 3, a vector orthogonal to the subspace), and repeated,
        # negated and positively rescaled vectors
        rng = random.Random(139)
        for ambient in range(3, 13):
            for _ in range(3):
                subspace = rand_subspace(rng, ambient)
                while True:
                    vectors = [[rand_fraction(rng) for _ in range(ambient)] for _ in range(ambient)]
                    if matrix_rank(vectors) == ambient:
                        break
                first = vectors[0]
                vectors += [first, [-x for x in first], [F(3, 7) * x for x in vectors[1]],
                            [0] * ambient]
                if ambient > 3:
                    orthogonal = kernel_vector(subspace)
                    assert any(orthogonal)
                    vectors.append(orthogonal)
                rng.shuffle(vectors)
                family = VectorFamily((i + 1, vec) for i, vec in enumerate(vectors))
                images = [
                    (label, Vector3(*(sum(b * x for b, x in zip(row, vec)) for row in subspace.basis)))
                    for label, vec in family.elements
                ]
                expected = om_of(LabeledArrangement(images))
                matroid = family_om(family, subspace)
                assert matroid == expected
                assert matroid.fingerprint() == expected.fingerprint()
                loops = {label for label, image in images if image.is_zero()}
                assert len(loops) == 1 + (ambient > 3)
                assert matroid.loops == loops

    @pytest.mark.parametrize("n", [0, -2, True, 3.0, F(3), "3"])
    def test_standard_basis_needs_a_positive_int(self, n):
        with pytest.raises(ValueError, match="^n must be a positive int, got "):
            VectorFamily.standard_basis(n)

    def test_standard_basis_specializes(self):
        rng = random.Random(109)
        subspace = rand_subspace(rng, 5)
        family = VectorFamily.standard_basis(5)
        assert family_om(family, subspace).cocircuits == subspace_om(subspace).cocircuits

    def test_repeated_vector_forces_equal_signs(self):
        rng = random.Random(113)
        subspace = rand_subspace(rng, 4)
        family = VectorFamily([
            (1, (1, 0, 0, 0)), (2, (0, 1, 0, 0)), (3, (0, 0, 1, 0)),
            (4, (0, 0, 0, 1)), (5, (0, 1, 0, 0)),
        ])
        matroid = family_om(family, subspace)
        for cv in covectors_of(matroid):
            row = cv.to_string()
            assert row[matroid.ground.index(2)] == row[matroid.ground.index(5)]

    def test_empty_and_mixed_families_raise(self):
        with pytest.raises(ValueError, match="^empty vector family$"):
            VectorFamily([])
        with pytest.raises(ValueError, match="^vectors of mixed dimension$"):
            VectorFamily([(1, (1, 0, 0)), (2, (0, 1, 0, 0))])

    def test_family_in_another_ambient_raises(self):
        with pytest.raises(NotSpanning, match=r"^family lives in Q\^3, subspace in Q\^4$"):
            family_om(VectorFamily.standard_basis(3), Subspace(4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]))

    def test_family_must_span(self):
        subspace = Subspace(4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
        family = VectorFamily([
            (1, (1, 0, 0, 0)), (2, (0, 1, 0, 0)), (3, (1, 1, 0, 0)),
        ])
        with pytest.raises(NotSpanning, match="^family does not span its ambient space$"):
            family_om(family, subspace)

    def test_integer_rank_matches_elimination(self):
        # random integer families, square or not, a third of them with a
        # vector that is a combination of two others, and zero columns
        rng = random.Random(149)
        dependent = deficient = 0
        for _ in range(400):
            width, count = rng.randint(1, 7), rng.randint(1, 9)
            bits = rng.choice((2, 8, 64, 300))
            vectors = [[rng.randint(-(1 << bits), 1 << bits) if rng.random() < 0.8 else 0
                        for _ in range(width)] for _ in range(count)]
            if count > 2 and rng.random() < 0.35:
                a, b = rng.randint(-3, 3), rng.randint(-3, 3)
                vectors[rng.randrange(count)] = [a * x + b * y for x, y in zip(vectors[0], vectors[1])]
                dependent += 1
            if rng.random() < 0.2:
                column = rng.randrange(width)
                for vec in vectors:
                    vec[column] = 0
            rank = matrix_rank(vectors)
            deficient += rank < min(width, count)
            assert grassmann._integer_rank(vectors) == rank
            # family_om reads the rank of the same vectors made Fractions
            family = VectorFamily((i + 1, [F(x, 3) for x in vec]) for i, vec in enumerate(vectors))
            if width >= 3:
                subspace = rand_subspace(rng, width)
                if rank == width:
                    assert family_om(family, subspace) == om_of(LabeledArrangement(
                        (i + 1, Vector3(*(sum(b * x for b, x in zip(row, vec)) for row in subspace.basis)))
                        for i, vec in enumerate(vectors)))
                else:
                    with pytest.raises(NotSpanning, match="^family does not span its ambient space$"):
                        family_om(family, subspace)
        assert dependent > 50 and deficient > 50, (dependent, deficient)

    def test_labels_out_of_order(self):
        # family_om sorts its images into label order itself: labels given
        # in reverse, string labels, a loop, and entries over 64 bits
        rng = random.Random(173)

        def expected(family, subspace):
            return om_of(LabeledArrangement(
                (label, Vector3(*(sum(b * x for b, x in zip(row, vec)) for row in subspace.basis)))
                for label, vec in family.elements))

        for trial in range(40):
            ambient = rng.randint(4, 7)
            span = rng.choice((9, 1 << 70))
            subspace = rand_subspace(rng, ambient, span)
            vectors = [[rand_fraction(rng, span) for _ in range(ambient)] for _ in range(ambient + 2)]
            loop = rng.randrange(len(vectors))
            vectors[loop] = kernel_vector(subspace)
            if matrix_rank(vectors) < ambient:
                continue
            names = ["alpha", "omega", "delta", "a"] + [f"{c}{i}" for i in range(1, 4) for c in "bcd"]
            rng.shuffle(names)
            for labels in (list(range(len(vectors), 0, -1)), names[:len(vectors)]):
                family = VectorFamily(zip(labels, vectors))
                matroid = family_om(family, subspace)
                assert matroid == expected(family, subspace), (trial, labels)
                assert matroid.ground == tuple(sorted(labels, key=label_key))
                assert labels[loop] in matroid.loops
            if span > 9:
                assert max(abs(x.numerator).bit_length() for vec in vectors for x in vec) > 64
        with pytest.raises(NotSpanning, match="^family does not span its ambient space$"):
            family_om(VectorFamily([("b2", (1, 0, 0, 0)), ("alpha", (0, 1, 0, 0)), ("c1", (1, 1, 0, 0))]),
                      Subspace(4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]))
        with pytest.raises(NotSpanning, match=r"^family lives in Q\^3, subspace in Q\^4$"):
            family_om(VectorFamily([("c1", (1, 0, 0)), ("b1", (0, 1, 0)), ("alpha", (0, 0, 1))]),
                      Subspace(4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]))

    def test_sampled_members_give_covectors(self):
        rng = random.Random(127)
        subspace = rand_subspace(rng, 4)
        family = VectorFamily(
            [(i + 1, tuple(rand_fraction(rng) for _ in range(4))) for i in range(6)]
        )
        try:
            matroid = family_om(family, subspace)
        except NotSpanning:
            pytest.skip("random family happened to be non-spanning")
        covectors = {cv.signs for cv in covectors_of(matroid)}
        vectors = [vec for _, vec in family.elements]
        for _ in range(200):
            coeff = [rand_fraction(rng) for _ in range(3)]
            member = [
                sum(coeff[p] * subspace.basis[p][i] for p in range(3))
                for i in range(4)
            ]
            pattern = tuple(
                sign_of(sum(m * x for m, x in zip(member, vec))) for vec in vectors
            )
            assert pattern in covectors


class TestSubspaceOrientedMatroid:
    def test_enumerated_once_per_subspace(self, monkeypatch):
        calls = []
        om_of_columns = grassmann.om_of
        monkeypatch.setattr(grassmann, "om_of", lambda a: calls.append(a) or om_of_columns(a))
        rng = random.Random(157)
        v = rand_subspace(rng, 6)
        w = rebased(v, rand_basis_change(rng))
        first = subspace_om(v)
        assert subspace_om(v) is first and v.oriented_matroid is first
        assert same_stratum(v, w) and same_stratum(v, w, level="matroid")
        assert len(calls) == 2

    def test_kept_outside_equality_copies_and_pickles(self):
        rng = random.Random(163)
        v = rand_subspace(rng, 5)
        fresh = Subspace(v.ambient, v.basis)
        matroid = v.oriented_matroid
        integers = v._integers
        assert "oriented_matroid" in vars(v) and "_integers" in vars(fresh)
        assert v == fresh and hash(v) == hash(fresh) and repr(v) == repr(fresh)
        for other in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
            assert other == v and "oriented_matroid" not in vars(other)
            assert "_integers" not in vars(other)
            assert other.oriented_matroid == matroid
            assert other._integers == integers
        assert len(pickle.dumps(v)) == len(pickle.dumps(fresh))

    def test_integer_rows_computed_once_per_subspace(self, monkeypatch):
        # the rank test's integer rows, adjugate and determinant serve the
        # projection and family_om; each holds det(G') > 0
        rng = random.Random(167)
        v = rand_subspace(rng, 6, 10 ** 6)
        scales, rows, adjugate, det = v._integers
        assert rows == tuple(tuple(x * s for x in row) for s, row in zip(scales, v.basis))
        assert all(type(x) is int for row in rows for x in row) and det > 0
        calls = []
        integer_gram = grassmann._integer_gram
        monkeypatch.setattr(grassmann, "_integer_gram", lambda r: calls.append(r) or integer_gram(r))
        projection_arrangement(v).elements
        family_om(VectorFamily.standard_basis(6), v)
        assert calls == []
        Subspace(v.ambient, v.basis)
        assert len(calls) == 1


class TestSameStratum:
    def test_reflexive(self):
        assert same_stratum(IDENTITY3, IDENTITY3)
        assert same_stratum(IDENTITY3, IDENTITY3, level="matroid")

    def test_coordinate_permutation_changes_stratum(self):
        v = Subspace(4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
        w = Subspace(4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
        assert not same_stratum(v, w)
        assert not same_stratum(v, w, level="matroid")

    def test_basis_invariance(self):
        rng = random.Random(131)
        for _ in range(10):
            subspace = rand_subspace(rng, 5)
            other = rebased(subspace, rand_basis_change(rng))
            assert same_stratum(subspace, other)

    def test_matroid_level_matches_underlying_matroids(self):
        # Entries in -1..1; in half of the pairs w is v with columns
        # negated and one column drawn again, so that equal matroids are
        # common at every n.
        rng = random.Random(137)
        pairs, equal, equal_past_3 = 0, 0, 0
        while pairs < 2000:
            n = rng.randint(3, 7)
            rows = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(3)]
            if rng.random() < 0.5:
                flips = [rng.choice((-1, 1)) for _ in range(n)]
                again = rng.randrange(n)
                other = [[rng.randint(-1, 1) if i == again else x * f
                          for i, (x, f) in enumerate(zip(row, flips))] for row in rows]
            else:
                other = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(3)]
            try:
                v, w = Subspace(n, rows), Subspace(n, other)
            except RankDeficient:
                continue
            same = underlying_matroid(subspace_om(v)) == underlying_matroid(subspace_om(w))
            assert same_stratum(v, w, level="matroid") == same
            pairs += 1
            equal += same
            equal_past_3 += same and n > 3
        assert equal >= 200 and equal_past_3 >= 200 and pairs - equal >= 200

    def test_ambient_mismatch_raises_at_both_levels(self):
        v = Subspace(4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
        w = Subspace(5, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0]])
        for level in ("oriented-matroid", "matroid"):
            with pytest.raises(GroundSetMismatch):
                same_stratum(v, w, level=level)

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            same_stratum(IDENTITY3, IDENTITY3, level="chirotope")
