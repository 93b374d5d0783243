"""Small exact linear-algebra helpers over Fraction.

Both routines take ``int`` or ``Fraction`` entries and share one forward
Gaussian elimination with the first non-zero entry as pivot.  Every
division is by a pivot made a Fraction, so it is exact on ``int`` entries
too.  Inputs are tiny (3x3 and 6x6 systems, rank checks on short vector
lists), so clarity wins over pivot heuristics.
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


def solve_linear(
    matrix: Sequence[Sequence[int | Fraction]], rhs: Sequence[int | Fraction]
) -> list[Fraction]:
    """Solve M x = b exactly.  Raises SingularMatrix if M is not invertible."""
    n = len(matrix)
    rows = [list(matrix[i]) + [rhs[i]] for i in range(n)]
    pivots = _eliminate(rows, n)
    if len(pivots) < n:
        raise SingularMatrix(f"no pivot in column {min(set(range(n)) - set(pivots))}")
    x: list[Fraction] = [Fraction(0)] * n
    for i in reversed(range(n)):
        x[i] = (rows[i][n] - sum(rows[i][k] * x[k] for k in range(i + 1, n))) / Fraction(rows[i][i])
    return x


def matrix_rank(rows: Sequence[Sequence[int | Fraction]]) -> int:
    """Exact rank of a matrix given as a list of rows."""
    if not rows:
        return 0
    return len(_eliminate([list(r) for r in rows], len(rows[0])))

