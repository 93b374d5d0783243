"""Small exact linear-algebra helpers over Fraction.

Both routines take ``int`` or ``Fraction`` entries and share one forward
Gaussian elimination with the first non-zero entry as pivot.  Every
division is by a pivot made a Fraction, so it is exact on ``int`` entries
too.  A matrix of the wrong shape raises ValueError before any elimination.
Inputs are tiny (3x3 and 6x6 systems, rank checks on short vector lists),
so clarity wins over pivot heuristics.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


class SingularMatrix(ValueError):
    pass


def _eliminate(rows: list[list[int | Fraction]], cols: int) -> list[int]:
    """Reduce ``rows`` in place to row-echelon form on the first ``cols``
    columns.  Returns the pivot columns (pivot r sits in row r)."""
    pivots: list[int] = []
    for col in range(cols):
        top = len(pivots)
        pivot = next((r for r in range(top, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        if pivot != top:
            rows[top], rows[pivot] = rows[pivot], rows[top]
        pv = Fraction(rows[top][col])
        for r in range(top + 1, len(rows)):
            factor = rows[r][col] / pv
            if factor:
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[top])]
        pivots.append(col)
    return pivots


def _check_width(rows: Sequence[Sequence[int | Fraction]], width: int, what: str) -> None:
    """Raise ValueError unless every row has ``width`` entries."""
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"{what}: row {i} has length {len(row)}, expected {width}")


def solve_linear(
    matrix: Sequence[Sequence[int | Fraction]], rhs: Sequence[int | Fraction]
) -> list[Fraction]:
    """Solve M x = b exactly.  Raises ValueError if M is not square or b
    does not have one entry per row, and SingularMatrix if M is not
    invertible."""
    n = len(matrix)
    _check_width(matrix, n, "the matrix is not square")
    if len(rhs) != n:
        raise ValueError(f"the right-hand side has length {len(rhs)}, expected {n}")
    rows = [list(matrix[i]) + [rhs[i]] for i in range(n)]
    pivots = _eliminate(rows, n)
    if len(pivots) < n:
        raise SingularMatrix(f"no pivot in column {min(set(range(n)) - set(pivots))}")
    x: list[Fraction] = [Fraction(0)] * n
    for i in reversed(range(n)):
        x[i] = (rows[i][n] - sum(rows[i][k] * x[k] for k in range(i + 1, n))) / Fraction(rows[i][i])
    return x


def matrix_rank(rows: Sequence[Sequence[int | Fraction]]) -> int:
    """Exact rank of a matrix given as a list of rows.  Raises ValueError
    for rows of unequal length."""
    if not rows:
        return 0
    _check_width(rows, len(rows[0]), "ragged rows")
    return len(_eliminate([list(r) for r in rows], len(rows[0])))

