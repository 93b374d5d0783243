"""Rational 3-dimensional subspaces of Q^n and their oriented matroids.

Two routes lead from a subspace to an oriented matroid on {1..n}:

* ``projection_arrangement`` orthogonally projects each coordinate vector
  onto the subspace through the Gram normal equations (no square roots,
  everything stays rational) and reads coordinates in the stored basis;
* ``subspace_om`` evaluates the covector recipe directly: a vector of the
  subspace with coefficient row c has i-th coordinate <c, column_i(B)>, so
  the columns of the basis matrix realize the oriented matroid.

The two must agree; the test suite checks them against each other.

Everything past the input is computed on integers, and every route hands
``om_of`` integer vectors through ``LabeledArrangement._of_integers``: a
positive multiple of a vector has its signs, so none of them is reduced by
a gcd or made a ``Fraction`` on the way.  ``Subspace`` scales each basis row
once by the lcm of its denominators (``_integer_rows``), decides rank 3 by
the determinant of the integer rows' Gram matrix, and keeps the scales, the
integer rows and the Gram adjugate and determinant (``Subspace._integers``).
``projection_arrangement`` and ``family_om`` read those and never recompute
them.  The projection's coordinates are integer numerators over the one
positive Gram determinant: its arrangement keeps the numerators as its
integer vectors, and builds its ``Fraction`` coordinates only when they are
read, which ``om_of`` never does.  ``family_om`` decides that its family spans by
fraction-free elimination on the family's integer vectors
(``_integer_rank``), and hands over their integer images under the basis
rows.  A subspace enumerates the oriented matroid of its columns, each
scaled by the lcm of its own denominators, once and keeps it
(``Subspace.oriented_matroid``), for ``subspace_om`` and ``same_stratum``
to read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import GroundSetMismatch, NotSpanning, RankDeficient
from .geometry import Vector3, _cleared, _frac, _gram_adjugate
from .labels import Label, label_keys
from .om import LabeledArrangement, OrientedMatroid, om_equal, om_of

Row = tuple[Fraction, ...]


def _to_row(values: Iterable) -> Row:
    """The values as Fractions; ValueError for one that is not an int or a
    Fraction."""
    return tuple(map(_frac, values))


def _integer_rows(rows: Sequence[Row]) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Each row scaled by the lcm L_p of its denominators: the scales L and
    the integer rows diag(L)·rows."""
    scales, ints = [], []
    for row in rows:
        scale = lcm(*(x.denominator for x in row))
        scales.append(scale)
        ints.append(tuple(x.numerator * (scale // x.denominator) for x in row))
    return tuple(scales), tuple(ints)


def _integer_gram(rows: Sequence[Row]) -> tuple:
    """The scales L and integer rows B' = diag(L)·rows (``_integer_rows``),
    then adj(G') and det(G') of their Gram matrix G' = B' B'^T."""
    scales, ints = _integer_rows(rows)
    return (scales, ints, *_gram_adjugate(ints))


def _integer_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of integer rows by fraction-free (Bareiss) elimination.  After
    each pivot, every entry left is a minor of the input (Sylvester's
    identity), so the division by the previous pivot is exact and the
    entries stay integers.  The rows left keep only the columns after the
    pivot's, where they can still be non-zero."""
    rest = [list(row) for row in rows]
    rank, previous = 0, 1
    while rest and rest[0]:
        k = next((k for k, row in enumerate(rest) if row[0]), None)
        if k is None:
            rest = [row[1:] for row in rest]
            continue
        top = rest.pop(k)
        lead = top[0]
        rest = [[(lead * x - row[0] * y) // previous for x, y in zip(row[1:], top[1:])] for row in rest]
        previous = lead
        rank += 1
    return rank


@dataclass(frozen=True)
class Subspace:
    """A 3-plane in Q^n given by three independent basis rows.  Raises
    ValueError for an ambient that is not an int (a bool or a float is not)
    and RankDeficient for rows that do not span a 3-plane of it."""

    ambient: int
    basis: tuple[Row, Row, Row]

    def __init__(self, ambient: int, basis: Iterable[Iterable]):
        if type(ambient) is not int:
            raise ValueError(f"ambient must be an int, got {ambient!r}")
        rows = tuple(_to_row(r) for r in basis)
        if len(rows) != 3:
            raise RankDeficient(f"need exactly 3 basis rows, got {len(rows)}")
        if any(len(r) != ambient for r in rows):
            raise RankDeficient("basis rows must have the ambient dimension")
        integers = _integer_gram(rows)
        if integers[3] == 0:
            raise RankDeficient("basis rows are linearly dependent")
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", rows)
        object.__setattr__(self, "_integers", integers)

    @cached_property
    def _integers(self) -> tuple:
        """``_integer_gram`` of the basis: the scales, the integer rows, and
        the adjugate and determinant (> 0) of their Gram matrix.  Computed
        with the rank test and kept, outside ``==``, ``hash``, copies and
        pickles; recomputed on first read after a copy or unpickling."""
        return _integer_gram(self.basis)

    def column(self, i: int) -> Vector3:
        """Coordinates of e_{i+1} paired against the basis rows.  Raises
        IndexError for an ``i`` that is not an int in 0..ambient-1 (a bool
        is not)."""
        if type(i) is not int or not 0 <= i < self.ambient:
            raise IndexError(f"column must be an int in 0..{self.ambient - 1}, got {i!r}")
        return Vector3(self.basis[0][i], self.basis[1][i], self.basis[2][i])

    @cached_property
    def oriented_matroid(self) -> OrientedMatroid:
        """The oriented matroid of the columns on labels {1..n}: enumerated
        on first read and kept, outside ``==``, ``hash``, copies and
        pickles.  Each column is handed over scaled by the lcm of its three
        denominators (``_cleared``), with no gcd.  The columns of the
        integer rows diag(L)·B have the same oriented matroid, but their
        longer entries make the enumeration slower."""
        columns = tuple(map(_cleared, *self.basis))
        return om_of(LabeledArrangement._of_integers(tuple(range(1, self.ambient + 1)), columns, 1))

    def __getstate__(self) -> dict:
        return {"ambient": self.ambient, "basis": self.basis}


@dataclass(frozen=True)
class VectorFamily:
    """Ordered labeled vectors in Q^n."""

    ambient: int
    elements: tuple[tuple[Label, Row], ...]

    def __init__(self, elements: Iterable[tuple[Label, Iterable]]):
        elems = tuple((label, _to_row(vec)) for label, vec in elements)
        if not elems:
            raise ValueError("empty vector family")
        label_keys(label for label, _ in elems)  # checks the labels; the order stays
        ambient = len(elems[0][1])
        if any(len(vec) != ambient for _, vec in elems):
            raise ValueError("vectors of mixed dimension")
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "elements", elems)

    @staticmethod
    def standard_basis(n: int) -> "VectorFamily":
        """e_1..e_n of Q^n on labels 1..n.  Raises ValueError for an ``n``
        that is not a positive int (a bool is not)."""
        if type(n) is not int or n < 1:
            raise ValueError(f"n must be a positive int, got {n!r}")
        return VectorFamily(
            (i + 1, tuple(Fraction(1 if j == i else 0) for j in range(n))) for i in range(n)
        )


def projection_arrangement(subspace: Subspace) -> LabeledArrangement:
    """Orthogonal projections of the coordinate vectors, in basis coordinates.

    For each i the coefficient vector c_i solves G c_i = B e_i with G the
    Gram matrix of the basis rows B.  With B' = diag(L) B the integer rows
    and G' = B' B'^T their integer Gram matrix, G^-1 = diag(L) G'^-1 diag(L),
    so c_i = diag(L) adj(G') B' e_i / det(G'): every coordinate is one
    integer dot product over det(G'), which is > 0 since B has rank 3.  L,
    B', adj(G') and det(G') are the subspace's own (``Subspace._integers``).
    The arrangement keeps those numerators and det(G'), and makes its
    ``Fraction`` coordinates only when ``elements`` is read: ``om_of`` and
    the other sign readers use the numerators as they are, as its
    ``integer_vectors``.
    """
    scales, rows, adjugate, det = subspace._integers
    # Row p of adj(G') is scaled by L_p.
    weights = [[scale * a for a in row] for scale, row in zip(scales, adjugate)]
    numerators = [tuple(sum(map(mul, row, column)) for row in weights) for column in zip(*rows)]
    return LabeledArrangement._of_integers(tuple(range(1, subspace.ambient + 1)), numerators, det)


def subspace_om(subspace: Subspace) -> OrientedMatroid:
    """Oriented matroid of the subspace on labels {1..n}, computed directly
    from the coordinate pairings (the columns of the basis matrix) once per
    subspace (``Subspace.oriented_matroid``)."""
    return subspace.oriented_matroid


def family_om(family: VectorFamily, subspace: Subspace) -> OrientedMatroid:
    """Oriented matroid of the subspace measured against a spanning family.

    Replaces the coordinate vectors by the family vectors in the covector
    recipe: element i carries sign <v, v_i> for v in the subspace, realized
    by the arrangement of B v_i.  Its integer images B' M_i v_i (below) are
    sorted into label order and handed to ``om_of`` as they are, over
    denominator 1.
    """
    if family.ambient != subspace.ambient:
        raise NotSpanning(
            f"family lives in Q^{family.ambient}, subspace in Q^{subspace.ambient}"
        )
    # B' = diag(L) B and M_i v_i are integer; both scalings are positive,
    # so the rank of the family and every 3x3 determinant of the images
    # keep their values and signs.
    _, vectors = _integer_rows([vec for _, vec in family.elements])
    if _integer_rank(vectors) != family.ambient:
        raise NotSpanning("family does not span its ambient space")
    rows = subspace._integers[1]
    labels = [label for label, _ in family.elements]
    keys = label_keys(labels)
    order = sorted(range(len(labels)), key=keys.__getitem__)
    images = [tuple(sum(map(mul, row, vectors[k])) for row in rows) for k in order]
    return om_of(LabeledArrangement._of_integers(tuple(labels[k] for k in order), images, 1))


def same_stratum(v: Subspace, w: Subspace, level: str = "oriented-matroid") -> bool:
    """Whether two subspaces induce the same (oriented) matroid data.
    Raises GroundSetMismatch at both levels when their ambient dimensions
    differ."""
    if level not in ("oriented-matroid", "matroid"):
        raise ValueError(f"unknown level {level!r}")
    if v.ambient != w.ambient:
        raise GroundSetMismatch(f"subspaces of Q^{v.ambient} and Q^{w.ambient}")
    mv = subspace_om(v)
    mw = subspace_om(w)
    if level == "oriented-matroid":
        return om_equal(mv, mw)
    # Both are of rank 3 (om_of raises otherwise) on the ground 1..n, so
    # their cocircuit supports determine their matroids (BLSWZ ch. 3).
    return mv.supports() == mw.supports()
