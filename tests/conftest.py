"""Shared randomized-input helpers.

All randomness is seeded per test, so failures reproduce exactly.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import lcm

from omstrata import (
    LabeledArrangement,
    PlanePoint,
    Projectivity,
    Vector3,
    embed_affine,
    label_key,
    perspective_normalize,
)
from omstrata.linalg import matrix_rank
from omstrata.om import LineTable


def rand_fraction(rng: random.Random, span: int = 9) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def rand_positive_fraction(rng: random.Random, span: int = 9) -> Fraction:
    return Fraction(rng.randint(1, span), rng.randint(1, span))


def rand_vector3(rng: random.Random, span: int = 9) -> Vector3:
    return Vector3(
        rand_fraction(rng, span), rand_fraction(rng, span), rand_fraction(rng, span)
    )


def rand_point(rng: random.Random, span: int = 9) -> PlanePoint:
    return PlanePoint(rand_fraction(rng, span), rand_fraction(rng, span))


def affine_projectivity(linear, translation) -> Projectivity:
    """The affine map p -> L p + t, its Fraction entries cleared by their
    denominators' lcm d into an integer matrix with last row (0, 0, d)."""
    (a, b), (c, e) = linear
    tx, ty = translation
    d = lcm(*(Fraction(v).denominator for v in (a, b, c, e, tx, ty)))
    rows = ((a, b, tx), (c, e, ty))
    return Projectivity(tuple(tuple(int(v * d) for v in row) for row in rows) + ((0, 0, d),))


def rand_projectivity(rng: random.Random, span: int = 9) -> Projectivity:
    """A random invertible integer 3x3 matrix whose last row is not (0, 0, d):
    a projectivity that moves the line at infinity."""
    while True:
        rows = tuple(tuple(rng.randint(-span, span) for _ in range(3)) for _ in range(3))
        if rows[2][:2] != (0, 0) and matrix_rank(rows) == 3:
            return Projectivity(rows)


def rand_spanning_arrangement(
    rng: random.Random, size: int, span: int = 9
) -> LabeledArrangement:
    """Random integer-labeled spanning arrangement with `size` elements."""
    while True:
        arr = LabeledArrangement(
            (i + 1, rand_vector3(rng, span)) for i in range(size)
        )
        if arr.is_spanning():
            return arr


def sign_of(value: Fraction) -> int:
    return (value > 0) - (value < 0)


def sampled_sign_patterns(arrangement: LabeledArrangement, rng: random.Random, trials: int):
    """Brute-force oracle: sign patterns of random rational functionals
    against the arrangement in canonical label order."""
    ordered = sorted(arrangement.elements, key=lambda e: label_key(e[0]))
    vectors = [v for _, v in ordered]
    patterns = set()
    for _ in range(trials):
        functional = rand_vector3(rng)
        patterns.add(tuple(sign_of(v.dot(functional)) for v in vectors))
    return patterns


def all_pairs_cocircuit_tuples(ints):
    """The reference enumeration: one sign row for every independent pair."""
    out = set()
    for u, v in combinations(ints, 2):
        normal = (
            u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0],
        )
        if normal == (0, 0, 0):
            continue
        dots = (w[0] * normal[0] + w[1] * normal[1] + w[2] * normal[2] for w in ints)
        signs = tuple((d > 0) - (d < 0) for d in dots)
        out.update((signs, tuple(-s for s in signs)))
    return out


def as_row(signs) -> str:
    """A sign tuple as the ``-0+`` string the library keeps."""
    return "".join("-0+"[s + 1] for s in signs)


def as_rows(sign_tuples) -> set[str]:
    return {as_row(signs) for signs in sign_tuples}


def height_one(points) -> LabeledArrangement:
    """The plane points lifted to height 1, labeled 0..n-1 in their order."""
    return LabeledArrangement(enumerate(map(embed_affine, points)))


def table_of(arrangement: LabeledArrangement) -> LineTable:
    """The line table of the plane points of a height-1 arrangement, in its
    column order."""
    return LineTable([perspective_normalize(v) for _, v in arrangement.elements])


def table_read(table, arrangement):
    """``table.read`` of the columns whose lifts are the integer vectors of
    ``arrangement``, points of the table lifted to height 1:
    ``om_of(arrangement)``."""
    column = {v: k for k, v in enumerate(table.vectors)}
    return table.read(arrangement.labels, [column[v] for v in arrangement.integer_vectors])
