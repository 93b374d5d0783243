import random
from fractions import Fraction as F

import pytest

from omstrata.linalg import SingularMatrix, matrix_rank, solve_linear

# det = -1, although floats round every entry to 10**17
NEAR_SINGULAR = [[10**17 + 1, 10**17], [10**17, 10**17 - 1]]


class TestIntegerEntries:
    """Integer input is eliminated in Fractions, so every division is exact."""

    def test_rank_of_a_near_singular_int_matrix(self):
        assert matrix_rank(NEAR_SINGULAR) == 2

    def test_solution_of_an_int_system_is_fractions(self):
        x = solve_linear([[1, 2], [3, 4]], [5, 6])
        assert x == [F(-4), F(9, 2)]
        assert all(type(v) is F for v in x)

    def test_near_singular_int_system_is_solved(self):
        assert solve_linear(NEAR_SINGULAR, [1, 0]) == [F(1 - 10**17), F(10**17)]

    def test_singular_int_system_raises(self):
        with pytest.raises(SingularMatrix):
            solve_linear([[1, 2], [2, 4]], [1, 0])

    def test_ints_and_their_fractions_agree(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(1, 4)
            matrix = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, 4))]
            as_fractions = [[F(v) for v in row] for row in matrix]
            assert matrix_rank(matrix) == matrix_rank(as_fractions)
            if len(matrix) == n and matrix_rank(matrix) == n:
                rhs = [rng.randint(-5, 5) for _ in range(n)]
                assert solve_linear(matrix, rhs) == solve_linear(as_fractions, [F(v) for v in rhs])


class TestShapes:
    """A matrix of the wrong shape raises ValueError, never a wrong answer."""

    def test_non_square_matrix_raises(self):
        # read as [1 | 2], the extra column would be taken for the right-hand side
        with pytest.raises(ValueError, match="not square") as info:
            solve_linear([[1, 2]], [1])
        assert type(info.value) is ValueError
        with pytest.raises(ValueError, match="not square"):
            solve_linear([[1], [2]], [1, 2])

    def test_right_hand_side_of_the_wrong_length_raises(self):
        for rhs in ([1], [1, 2, 3]):
            with pytest.raises(ValueError, match="right-hand side"):
                solve_linear([[1, 0], [0, 1]], rhs)

    def test_ragged_rows_raise(self):
        with pytest.raises(ValueError, match="ragged"):
            matrix_rank([[0], [0, 1]])
        with pytest.raises(ValueError, match="ragged"):
            matrix_rank([[1, 0], [0]])
        with pytest.raises(ValueError, match="not square"):
            solve_linear([[1, 0], [0]], [1, 1])

    def test_empty_inputs_keep_their_meaning(self):
        assert matrix_rank([]) == 0
        assert matrix_rank([[], []]) == 0
        assert solve_linear([], []) == []
