"""Rank-3 oriented matroids of labeled vector arrangements.

An arrangement is a tuple of (label, Vector3) pairs in global label order,
which is the ground order of everything computed from it.  Its oriented
matroid is stored as the sorted tuple of its cocircuit rows: every line of
the configuration (the plane spanned by two independent vectors v_i, v_j)
induces the sign vector ``k -> sign <v_k, v_i x v_j>`` together with its
negation, each kept as a ``-0+`` string with one character per ground
element.  Each line is enumerated once, from the first independent pair on
it, and its row is written as a string once.  Each triple's sign is
computed once, C(n, 3) determinants in general position: a row reads the
signs of the triples it shares with the lines before it off their rows, and
takes dot products only with the vectors after its pair.  Covectors are
recovered on demand as the compositions of cocircuits, one cocircuit at a
time, and basis signs (the chirotope) by a walk over the cocircuits.

Every row is non-zero, as the cocircuit axioms ask (BLSWZ ch. 3): the
public constructor raises ValueError for an all-zero sign vector, and every
producer in the library makes none (``OrientedMatroid._of``).  A row read
as a binary number gives its one bitmask, its support: ``row.translate`` to
``1``/``0`` and then ``int(..., 2)``, so ground position k is bit ``w-1-k``
of a width-w row.  A row's zero set is the complement of its support, and
the loops are the positions in every zero set.  A covector is one int, its
key: the row's characters as the hex digits ``2 neg + pos``, read in base
16, so a row becomes a key by one ``translate`` and one ``int``, and back
by one ``hex`` and one ``translate``.  With ``ones`` the bit 0 of every
digit, a key's zero set is ``ones & ~(key | key >> 1)`` and composition is
``key | c & free * 3``.  The closure composes each layer's new covectors
grouped by zero set, and reads each zero set's restrictions of the
cocircuits once (``_covector_masks``).  Each oriented matroid enumerates
its covector keys once and keeps them, as it keeps its chirotope;
``covectors_of`` and ``strong_map`` both read that one set.

``SignVector`` is the value type of the sign-vector API (``cocircuits`` and
``covectors_of``): a ``-0+`` string with its labels.  Those objects are
built from the rows on each access; nothing stored holds one.

Deletion onto a subset of the labels (``OrientedMatroid.restrict``) keeps the
support-minimal non-zero restrictions of the cocircuits (BLSWZ 3.3).  Every
non-zero basis sign of a weak-map target lies on its non-loops, so
``weak_map`` compares the chirotopes of both sides deleted onto those: for a
certificate level and its eight-point limit, 56 triples, not C(n, 3).  A
target whose only loops are the source's costs no second walk: a deletion
of loops only that keeps every row takes over its source's chirotope.

Signs never change under positive per-element rescaling, so all sign
computations run on integer copies of the vectors, which keeps the
arithmetic in plain ints and makes fingerprints bit-stable.  Every sign
reader of an arrangement (``om_of``, ``chirotope_of`` and ``is_spanning``)
reads one integer view, ``integer_vectors``: positive integer multiples of
the vectors.  An arrangement of ``Fraction``s computes them once as its
primitive vectors, which are canonical, and keeps them.  An arrangement
made from integers, integer vectors over one positive denominator
(``LabeledArrangement._of_integers``: the Grassmann projection's, and the
column and family arrangements of denominator 1), keeps its labels and
those integers as given: no reader takes a gcd of them.  It builds its
``Fraction`` elements only on their first read; ``==``, ``hash``,
``repr``, copies and pickles read them, so they match an arrangement built
from the same Fractions.  ``om_of`` is a function of the labels and the
signs alone, and each call enumerates its lines afresh.  The lines decide
the rank (rank 3 lies on three or more, rank 2 on one, lower rank on
none), so ``om_of`` and a line table's read raise NotSpanning on fewer
than two, with no rank scan.

The enumeration decides most signs on coordinates truncated to W =
``_WINDOW`` = 64 bits, as a filtered geometric predicate does, but in
integers (the bounds are proved in ``_enumerate_lines``).  When some vector
has more than W bits, each vector is shifted right (``>>``) once by its
excess over W.  A pair of two such vectors first takes the cross product
N'' of its shifted copies; when |N''_0| >= ``_PAIR``, N'' decides that the
pair is not parallel, its pair index entry and each triple sign N''.v'_k
that clears ``_PAIR_SLACK``.  Other pairs compute N = v_i x v_j in full
and read the signs off its shifted copy N', clear of ``_SLACK``.  Only the
triples under their bound, exact zeros and near-collinear ones, take the
full-width product, so only they make a pair decided by N'' compute N.  At
depth 80 of the certificate that is 11.3 % of all pairs' triples, 97 % of
them exact zeros, and N'' decides 14,283 of the 19,697 lines; on the
Grassmann projections (about 800 to 1,800 bits) it decides every line.
The rows are those of full-width products throughout.

A ``LineTable`` is built from a configuration's plane points, one column
each.  It lifts each point once (``_lift``: primitive, z > 0, no gcd),
keeps the lifts as ``vectors``, enumerates their lines once and reads the
oriented matroid of any list of its columns (``LineTable.read``): that is
``om_of`` of those columns' points lifted to height 1.  A lift is never
zero and two lifts are parallel only when their points coincide, so a
table has no loops, and no antiparallel or non-primitive vectors.  A line
is its row and that row's negation, and nothing else: the enumeration
files the two under the line's making column, the column j of the pair
(i, j) that makes it in the walk, and its pair index holds them in the
entry of every pair on the line.  That pair is the line's first column i
and its first column after i whose point is not i's, so a line holds two
distinct points among columns 0..m-1 exactly when its making column is
below m: a list of columns that is a permutation of 0..m-1 reads the rows
filed under columns 0..m-1.  Other lists read the rows of the lines
through pairs of their distinct points, each point read as its first
column: two distinct points lie on exactly one line, whose rows the index
holds under their columns.  Either way the rows are restricted to the
listed columns, and sorted.  The certificate builds one table from the
whole family's points in label order, so one enumeration serves every
level, each a permutation of a prefix of the columns, and every limit's
non-loops, read through the index.

Rows are restricted to columns by runs (``_project``): the columns are cut
once into maximal runs of consecutive ones, and each row is read as one
slice per run, joined in C.  A certificate level reads four runs (the
named columns, c_i's column as delta, the indexed columns before it, and
d_i and b_(i+1)), a limit three, and the table's own columns in order one
slice, the whole row.  The deletion ``OrientedMatroid.restrict`` projects
the same way.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass
from functools import cached_property, reduce
from fractions import Fraction
from itertools import chain, combinations, repeat
from operator import itemgetter, or_
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import GroundSetMismatch, NotSpanning
from .geometry import (IntVec, PlanePoint, Vector3, _cross, _det3, _gram_adjugate, _lift,
                       _primitive, _sign)
from .labels import Label, label_key, label_keys, sort_labels

Sign = int  # -1, 0, +1

_CHAR_SIGNS = {"+": 1, "-": -1, "0": 0}
_FLIP = {"+": "-", "-": "+"}
_SIGN_BYTES = bytes.maketrans(b"\x00\x01\x02", b"-0+")  # sign + 1 -> character
_NEGATE = str.maketrans("+-", "-+")
# A row's characters -> binary digits of its support bitmask.
_SUPPORT = str.maketrans("-0+", "101")
# A row's characters <-> the hex digits 2 neg + pos of its covector key.
_HEX_DIGITS = str.maketrans("-0+", "201")
_HEX_SIGNS = str.maketrans("012", "0+-")
# The line kernel reads signs off coordinates truncated to this many bits
# when they clear the bounds below (proofs in ``_enumerate_lines``).
_WINDOW = 64
# E: each coordinate of v'_i x v'_j lies within it of v_i x v_j / 2^(s_i+s_j).
_PAIR = 2 * ((1 << _WINDOW + 1) + 1)


def _slack(bits: int, h: int) -> int:
    """3 (2^bits + h (2^W + 1)): the bound on the truncation error of n.v'_k
    for a normal n of coordinates at most 2^bits in size, each within h of
    the exact normal's at n's scale."""
    return 3 * ((1 << bits) + h * ((1 << _WINDOW) + 1))


_SLACK = _slack(_WINDOW, 1)  # n = N truncated to W bits: 3 (2^(W+1) + 1)
_PAIR_SLACK = _slack(2 * _WINDOW + 1, _PAIR)  # n = v'_i x v'_j as it is
_ROW_CHUNK = 2048  # rows per piece of ``OrientedMatroid._json_pieces``


def _supports(rows: Sequence[str]) -> list[int]:
    """The support bitmasks of the rows, which are not empty, in order: the
    rows are joined by line breaks and translated to binary digits once, and
    each row's digits are read in base 2."""
    return list(map(int, "\n".join(rows).translate(_SUPPORT).split(), repeat(2)))


def _project(rows: Iterable[str], cols: Sequence[int]) -> Iterator[str]:
    """The rows restricted to ``cols`` (at least one), in that order.

    ``cols`` is cut once into maximal runs of consecutive columns; a column
    that repeats or goes back starts a new run.  Each row is then read in C:
    one slice when there is one run, else its runs' slices joined."""
    runs = []
    start = end = cols[0]
    for col in cols[1:]:
        if col != end + 1:
            runs.append(slice(start, end + 1))
            start = col
        end = col
    runs.append(slice(start, end + 1))
    if len(runs) == 1:
        return map(itemgetter(runs[0]), rows)
    return map("".join, map(itemgetter(*runs), rows))


def _present(labels: Iterable[Label], ground: tuple[Label, ...]) -> set[Label]:
    """The set of ``labels``; KeyError names those that are not in ``ground``."""
    chosen = set(labels)
    missing = chosen.difference(ground)
    if missing:
        raise KeyError(f"labels not present: {sorted(missing, key=label_key)}")
    return chosen


@dataclass(frozen=True)
class LabeledArrangement:
    """Labeled homogeneous vectors, kept in global label order."""

    elements: tuple[tuple[Label, Vector3], ...]

    def __init__(self, elements: Iterable[tuple[Label, Vector3]]):
        elems = [(label, vector) for label, vector in elements]
        keys = label_keys(label for label, _ in elems)
        # The keys are distinct, so the sort never compares two vectors.
        object.__setattr__(self, "elements", tuple(e for _, e in sorted(zip(keys, elems))))

    @classmethod
    def _of_integers(cls, labels: tuple[Label, ...], numerators: Sequence[IntVec],
                     denominator: int) -> "LabeledArrangement":
        """The arrangement of the vectors ``numerators[k] / denominator`` on
        ``labels``, which are valid, distinct and in label order, for a
        ``denominator`` > 0.  Its labels and its integer vectors, the
        numerators, are kept as given: a positive denominator makes each
        numerator vector a positive multiple of its vector, with the same
        signs.  ``elements`` is left unset and built on its first read
        (``__getattr__``)."""
        arrangement = object.__new__(cls)
        kept = vars(arrangement)
        kept["labels"] = labels
        kept["integer_vectors"] = tuple(numerators)
        kept["_denominator"] = denominator
        return arrangement

    def __getattr__(self, name: str):
        """``elements`` of an arrangement made by ``_of_integers``, built on
        first read: ``Vector3(Fraction(a, d), Fraction(b, d), Fraction(c, d))``
        per numerator, equal and pickled alike to the eager arrangement of
        the same Fractions.  It then replaces the denominator it was made
        with."""
        kept = vars(self)
        if name != "elements" or "_denominator" not in kept:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        d = kept.pop("_denominator")
        elements = tuple(
            (label, Vector3(Fraction(a, d), Fraction(b, d), Fraction(c, d)))
            for label, (a, b, c) in zip(self.labels, self.integer_vectors)
        )
        kept["elements"] = elements
        return elements

    @cached_property
    def labels(self) -> tuple[Label, ...]:
        """The labels in order: computed on first use and kept, outside
        ``==``, ``hash``, ``repr``, copies and pickles."""
        return tuple(label for label, _ in self.elements)

    @cached_property
    def integer_vectors(self) -> tuple[IntVec, ...]:
        """Positive integer multiples of the vectors, which carry every sign
        of the arrangement (``om_of``, ``chirotope_of`` and ``is_spanning``
        read them): the numerators of an arrangement made from integers, as
        given, else the primitive vectors of the elements.  Computed on
        first use and kept, outside ``==``, ``hash``, ``repr``, copies and
        pickles."""
        return tuple(_primitive(v.x, v.y, v.z) for _, v in self.elements)

    def __getstate__(self) -> dict:
        return {"elements": self.elements}

    def is_spanning(self) -> bool:
        """Whether the Gram determinant of the integer vectors' coordinate
        rows, the sum of their squared 3x3 minors, is non-zero (not if empty)."""
        return bool(self.labels) and _gram_adjugate(tuple(zip(*self.integer_vectors)))[1] != 0

    def restrict(self, labels: Iterable[Label]) -> "LabeledArrangement":
        """Sub-arrangement on the given labels."""
        keep = _present(labels, self.labels)
        return LabeledArrangement((l, v) for l, v in self.elements if l in keep)

    def rescaled(self, factors: Mapping[Label, Fraction]) -> "LabeledArrangement":
        """Per-element positive rescaling (signs of all covectors preserved).
        Raises ValueError for a factor that is not a positive int or Fraction
        (a bool or a float is not)."""
        _present(factors, self.labels)
        for label, f in factors.items():
            if type(f) not in (int, Fraction) or f <= 0:
                raise ValueError(f"scale for {label!r} must be a positive int or Fraction, got {f!r}")
        return LabeledArrangement(
            (l, v.scaled(factors[l]) if l in factors else v) for l, v in self.elements
        )

    def __len__(self) -> int:
        return len(self.labels)


class SignVector:
    """A function from an ordered ground set to {+, -, 0}: an immutable
    value holding its labels and its ``-0+`` string, hashed by the string."""

    __slots__ = ("_labels", "_row")

    def __init__(self, labels: tuple[Label, ...], signs: Iterable[Sign]):
        signs = tuple(signs)
        if len(labels) != len(signs):
            raise ValueError("labels and signs differ in length")
        if not all(type(s) is int and -1 <= s <= 1 for s in signs):
            raise ValueError(f"signs must be the ints -1, 0 or 1, got {signs}")
        self._labels = labels
        self._row = bytes([s + 1 for s in signs]).translate(_SIGN_BYTES).decode("ascii")

    @property
    def signs(self) -> tuple[Sign, ...]:
        """The signs as integers, decoded from the string on each access."""
        return tuple(map(_CHAR_SIGNS.__getitem__, self._row))

    def to_string(self) -> str:
        return self._row

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SignVector):
            return NotImplemented
        return self._row == other._row and self._labels == other._labels

    def __hash__(self) -> int:
        return hash(self._row)

    def __repr__(self) -> str:
        return f"SignVector({self._row})"


def _sign_vector(labels: tuple[Label, ...], row: str) -> SignVector:
    """A sign vector from a row already known to be a ``-0+`` string of the
    labels' length."""
    vector = object.__new__(SignVector)
    vector._labels = labels
    vector._row = row
    return vector


@dataclass(frozen=True)
class Chirotope:
    """Basis orientation map: sorted label triple -> sign.

    Only non-zero signs are stored; absent triples are 0.
    """

    ground: tuple[Label, ...]
    nonzero: Mapping[tuple[Label, Label, Label], Sign]

    def __getitem__(self, triple: tuple[Label, Label, Label]) -> Sign:
        return self.nonzero.get(triple, 0)

    def __hash__(self) -> int:
        return hash((self.ground, frozenset(self.nonzero.items())))


class OrientedMatroid:
    """A rank <= 3 oriented matroid stored by its cocircuit rows.

    ``rows`` is a tuple of distinct ``-0+`` strings in sorted order, one per
    cocircuit, a character per ground element.  The ground set is kept in
    global label order, so equality of two oriented matroids on the same
    label set is plain equality of their rows.  The loops, the basis signs
    and the covector keys are derived from the rows on first read and kept,
    outside ``==``, ``hash``, copies and pickles.
    """

    def __init__(self, ground: tuple[Label, ...], cocircuits: Iterable[SignVector]):
        """Raises ValueError when a cocircuit's labels are not ``ground``, or
        when a cocircuit is all zero: every row is non-zero."""
        rows = []
        for cc in cocircuits:
            if cc._labels != ground:
                raise ValueError(f"cocircuit labels {cc._labels} are not the ground set {ground}")
            if not cc._row.strip("0"):
                raise ValueError("a cocircuit needs a non-zero sign")
            rows.append(cc._row)
        self.ground = ground
        self.rows = tuple(sorted(set(rows)))

    @classmethod
    def _of(cls, ground: tuple[Label, ...], rows: Iterable[str]) -> "OrientedMatroid":
        """The oriented matroid with these cocircuit rows, which are distinct
        and non-zero: they are sorted here, once, and not checked.  Every
        producer in the library meets that rule: ``om_of`` and
        ``LineTable.read`` raise NotSpanning before a rank-2 arrangement's
        zero row could reach here, ``restrict`` drops zero restrictions,
        ``rank_zero`` has no rows, and ``parse_om`` rejects a zero row."""
        matroid = object.__new__(cls)
        matroid.ground = ground
        matroid.rows = tuple(sorted(rows))
        return matroid

    def __getstate__(self) -> dict:
        return {"ground": self.ground, "rows": self.rows}

    @cached_property
    def loops(self) -> frozenset[Label]:
        """The elements zero in every cocircuit: the positions in the zero
        set, the complement of the support, of every row."""
        width = len(self.ground)
        zeros = full = (1 << width) - 1
        for row in self.rows:
            zeros &= full ^ int(row.translate(_SUPPORT), 2)
            if not zeros:
                break
        return frozenset(l for k, l in enumerate(self.ground) if zeros >> (width - 1 - k) & 1)

    @property
    def cocircuits(self) -> frozenset[SignVector]:
        """The cocircuits as sign vectors, built from ``rows`` on each access."""
        ground = self.ground
        return frozenset(_sign_vector(ground, row) for row in self.rows)

    @cached_property
    def chirotope(self) -> Chirotope:
        """The basis signs, normalised so the first basis triple in label
        order is positive; empty in rank 0.  Raises NotSpanning when the
        cocircuits are not those of a rank-3 (or rank-0) oriented matroid."""
        return _chirotope_from_cocircuits(self)

    @cached_property
    def _covector_keys(self) -> frozenset[int]:
        """The covector keys, enumerated on first use."""
        return _covector_masks(len(self.ground), [_key(row) for row in self.rows])

    def _json_pieces(self) -> Iterator[str]:
        """``canonical_json`` in pieces: its head, the quoted rows joined in
        chunks of ``_ROW_CHUNK``, and its tail.  The rows are ``-0+`` strings
        and need no escaping, so only the ground set goes through ``json``."""
        ground = json.dumps(list(self.ground), separators=(",", ":"), ensure_ascii=True)
        yield '{"ground_set":' + ground + ',"cocircuits":['
        for start in range(0, len(self.rows), _ROW_CHUNK):
            yield (',"' if start else '"') + '","'.join(self.rows[start:start + _ROW_CHUNK]) + '"'
        yield "]}"

    def canonical_json(self) -> str:
        """The compact JSON of the ground set and the rows, stored sorted."""
        return "".join(self._json_pieces())

    def fingerprint(self) -> str:
        """The SHA-256 of ``canonical_json``, fed piece by piece: no copy."""
        digest = hashlib.sha256()
        for piece in self._json_pieces():
            digest.update(piece.encode("ascii"))
        return digest.hexdigest()

    def supports(self) -> frozenset[int]:
        """The support bitmasks of the cocircuits, read in one pass
        (``_supports``).  In rank 3 they determine the underlying matroid
        (BLSWZ ch. 3)."""
        return frozenset(_supports(self.rows))

    def restrict(self, labels: Iterable[Label]) -> "OrientedMatroid":
        """The deletion onto ``labels``, ground order kept: the empty oriented
        matroid for no labels, else ``self`` when they cover the ground set.

        Its cocircuits are the support-minimal non-zero restrictions of the
        cocircuits (BLSWZ 3.3), so the deletion of a realization's elements
        has the oriented matroid of the sub-arrangement.  The distinct
        restrictions take their support masks in one pass, as ``supports``
        does (``_supports``).  A deletion of loops only that keeps every row
        keeps every basis sign, so it takes over the chirotope if this
        oriented matroid has read it.
        """
        keep_set = _present(labels, self.ground)
        if not keep_set:
            return OrientedMatroid._of((), ())
        if len(keep_set) == len(self.ground):
            return self
        keep = [i for i, l in enumerate(self.ground) if l in keep_set]
        ground = tuple(self.ground[i] for i in keep)
        projected = list(set(_project(self.rows, keep)))
        masks = _supports(projected)
        # Smallest supports first: a support is minimal unless it contains
        # one found before, m with m | mask == mask.
        minimal: set[int] = set()
        for mask in sorted(set(masks) - {0}, key=int.bit_count):
            if mask not in map(mask.__or__, minimal):
                minimal.add(mask)
        deleted = OrientedMatroid._of(ground, [row for row, m in zip(projected, masks) if m in minimal])
        # Every dropped label is a loop when the kept ones and the loops
        # cover the ground set.
        if (len(deleted.rows) == len(self.rows) and "chirotope" in vars(self)
                and len(keep_set | self.loops) == len(self.ground)):
            deleted.chirotope = Chirotope(ground, self.chirotope.nonzero)
        return deleted

    def delete_loops(self) -> "OrientedMatroid":
        """The same oriented matroid on the non-loop elements."""
        return self.restrict(l for l in self.ground if l not in self.loops)

    @staticmethod
    def rank_zero(ground: Iterable[Label]) -> "OrientedMatroid":
        """The oriented matroid whose only covector is zero (all loops)."""
        return OrientedMatroid._of(sort_labels(ground), ())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OrientedMatroid):
            return NotImplemented
        return self.ground == other.ground and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.ground, self.rows))

    def __repr__(self) -> str:
        return f"OrientedMatroid(|E|={len(self.ground)}, cocircuits={len(self.rows)})"


def chirotope_of(arrangement: LabeledArrangement) -> Chirotope:
    """Orientation sign of every sorted label triple of the arrangement.

    This is the determinant reference: ``om_of(a).chirotope`` equals it up
    to one global sign."""
    ground, ints = arrangement.labels, arrangement.integer_vectors
    nonzero: dict[tuple[Label, Label, Label], Sign] = {}
    live = [i for i, v in enumerate(ints) if v != (0, 0, 0)]
    for i, j, k in combinations(live, 3):
        s = _sign(_det3(ints[i], ints[j], ints[k]))
        if s:
            nonzero[(ground[i], ground[j], ground[k])] = s
    return Chirotope(ground, nonzero)


def _truncated(v: IntVec) -> IntVec:
    """``v`` shifted right by the excess of its longest coordinate over
    ``_WINDOW`` bits, so every coordinate has ``|c| <= 2**_WINDOW``; a
    vector of at most ``_WINDOW`` bits is itself."""
    shift = max(map(int.bit_length, v)) - _WINDOW
    return (v[0] >> shift, v[1] >> shift, v[2] >> shift) if shift > 0 else v


def _enumerate_lines(ints: tuple[IntVec, ...]) -> tuple[list[list[str]], dict[tuple[int, int], tuple]]:
    """Both rows of every line (rank-2 flat) of the arrangement, filed under
    its making column, the column ``j`` of the pair ``(i, j)`` that makes it
    (``made[j]``: row, negation, row, negation, ... in walk order), and the
    index of the line through each pair of columns that are not parallel
    (see below).

    The pairs ``i < j`` are walked in order, and the first independent pair
    on a line makes its row, ``k -> sign det(v_i, v_j, v_k)``, so each line
    is enumerated once.  Every pair ``a < b`` has the sign string S(a, b) of
    ``(v_a x v_b) . v_m`` over every ``m``: the row of the line it makes,
    that row or its negation when it lies on a line made before, or all
    ``0`` when ``v_a`` and ``v_b`` are parallel or either is zero.  The pair
    ``(i, j)`` that makes a line reads its row off the strings of earlier
    pairs, by det(v_i, v_j, v_k) = det(v_k, v_i, v_j) = -det(v_i, v_k, v_j):
    S(k, i)[j] for ``k < i``, the negation of S(i, k)[j] for ``i < k < j``,
    and dot products only for ``k > j``.  So each triple's sign is computed
    once: C(n, 3) products in general position.

    When some vector has more than W = ``_WINDOW`` bits, those products are
    filtered on truncated coordinates.  Each vector is cut once to
    v' = v >> s, with s its excess over W bits or 0 (``_truncated``; ``>>``
    rounds down), so that v = v' 2^s + f with 0 <= f < 2^s and |v'| <= 2^W,
    coordinate by coordinate.

    Triples.  Let a normal n have coordinates at most 2^m in size, each
    within h of N / 2^t.  Write x = v_k / 2^s = x' + g with 0 <= g < 1;
    then (N / 2^t) x - n x' = n g + (N / 2^t - n) x' + (N / 2^t - n) g is
    less than 2^m + h 2^W + h in size, per coordinate.  So the sign of
    N.v_k is that of n.v'_k when |n.v'_k| >= ``_slack(m, h)`` =
    3 (2^m + h (2^W + 1)).  The triples under that bound, exact zeros and
    near-collinear ones, take the full-width product N.v_k.

    Pairs.  A pair of two vectors over W bits first takes N'' = v'_i x v'_j.
    With y_i = y'_i 2^s_i + f_y and z_j = z'_j 2^s_j + f_z, a product of two
    coordinates is y_i z_j / 2^(s_i+s_j) = y'_i z'_j + y'_i f_z / 2^s_j +
    z'_j f_y / 2^s_i + f_y f_z / 2^(s_i+s_j), the last three terms less than
    2^W + 2^W + 1 in size, and a coordinate of N is a difference of two such
    products.  So each coordinate of N'' lies within
    E = 2 (2^(W+1) + 1) = ``_PAIR`` of N / 2^(s_i+s_j), and is exact (E = 0)
    when neither vector is shifted.  When |N''_0| >= E, N_0 is not zero and
    has the sign of N''_0: the pair is not parallel, and its index entry
    (below) is coordinate 0 with that sign.  Its triples read n = N'' as it
    is, with m = 2W + 1 and h = E (``_PAIR_SLACK``): its products with the
    v'_k, about 130 by 64 bits, cost less than shifting it to W bits first,
    which would give m = W and h = 1 + ceil(E / 2^a) for a shift a.

    Every other pair takes N in full and reads its triples off N' =
    ``_truncated(N)``, with m = W and h = 1: N / 2^a = N' + e / 2^a with
    0 <= e < 2^a, so the bound is 3 (2^(W+1) + 1) = ``_SLACK``.  These are
    the pairs that N'' leaves undecided (|N''_0| < E: parallel, near
    parallel, or a small or zero N_0) and those with a vector of at most W
    bits, whose full products cost time linear in the longer vector's
    length.  A pair decided by N'' takes N only when a triple is undecided.
    With no vector over W bits, every product is full width, as the filter
    would save nothing on such short coordinates.

    A pair on a known line has ``v_a x v_b = t * N`` for the line's normal
    N, so the coordinate where N leads decides both whether ``t`` is zero
    (the pair is parallel) and its sign.  So the index maps each pair
    ``i < j`` of non-zero vectors on a line to ``(c, up, row, negation)``:
    that coordinate ``c``, whether N is positive there (not N itself), and
    the line's two rows, the first the one whose normal is N.  Each line
    indexes its pairs when it is made; a parallel pair's entry means
    nothing, and the walk reads only its ``t``, which is zero.
    """
    n = len(ints)
    zero = "0" * n
    cut = tuple(map(_truncated, ints))
    slack = 0 if cut == ints else _SLACK  # a 0 slack decides every sign
    made: list[list[str]] = [[] for _ in ints]
    live = [v != (0, 0, 0) for v in ints]
    pair_zeros = 2 + live.count(False)  # the zeros of a row whose line holds just its pair
    line_of: dict[tuple[int, int], tuple[int, bool, str, str]] = {}
    before: list[list[str]] = [[] for _ in range(n)]  # before[b][a] = S(a, b)
    for i, (x1, y1, z1) in enumerate(ints):
        head, before[i] = before[i], []
        after: list[str] = []  # S(i, k) for i < k < j
        for j, (x2, y2, z2) in enumerate(ints[i + 1:], i + 1):
            known = line_of.get((i, j))
            if known is not None:
                c, up, row, negation = known
                t = y1 * z2 - z1 * y2 if c == 0 else z1 * x2 - x1 * z2 if c == 1 else x1 * y2 - y1 * x2
                row = zero if not t else row if (t > 0) == up else negation
            else:
                p = None  # N = (p, q, r), computed only when N'' leaves a sign undecided
                # two shifted vectors take N'' = v'_i x v'_j first: when
                # |N''_0| >= E, N_0 is not zero and has the sign of N''_0
                if (slack and cut[i] is not ints[i] and cut[j] is not ints[j]
                        and abs((cross := _cross(cut[i], cut[j]))[0]) >= _PAIR):
                    nx, ny, nz = cross
                    bound = _PAIR_SLACK
                    c, up = 0, nx > 0
                else:
                    p, q, r = y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2
                    nx, ny, nz = _truncated((p, q, r)) if slack else (p, q, r)
                    bound = slack
                    c, up = (0, p > 0) if p else (1, q > 0) if q else (2, r > 0) if r else (None, None)
                if c is not None:  # N is not zero
                    at = itemgetter(j)
                    # 2, 1 or 0 where n.v'_k is >= bound, under it in size, <= -bound
                    signs = bytearray([((d := nx * x + ny * y + nz * z) > -bound) + (d >= bound)
                                       for x, y, z in cut[j + 1:]])
                    k = signs.find(1) if bound else -1
                    if k >= 0 and p is None:
                        p, q, r = _cross(ints[i], ints[j])
                    while k >= 0:  # undecided: the full-width product
                        x, y, z = ints[j + 1 + k]
                        d = p * x + q * y + r * z
                        signs[k] = (d >= 0) + (d > 0)
                        k = signs.find(1, k + 1)
                    row = ("".join(map(at, head)) + "0"
                           + "".join(map(at, after)).translate(_NEGATE) + "0"
                           + signs.translate(_SIGN_BYTES).decode("ascii"))
                    negation = row.translate(_NEGATE)
                    entry = (c, up, row, negation)
                    if row.count("0") == pair_zeros:
                        line_of[i, j] = entry
                    else:
                        zeros = []
                        k = row.find("0")
                        while k >= 0:
                            if live[k]:
                                zeros.append(k)
                            k = row.find("0", k + 1)
                        line_of.update(dict.fromkeys(combinations(zeros, 2), entry))
                    made[j] += row, negation
                else:
                    row = zero
            after.append(row)
            before[j].append(row)
    return made, line_of


def om_of(arrangement: LabeledArrangement) -> OrientedMatroid:
    """The oriented matroid of a spanning arrangement, in canonical form.

    Every line through two independent elements spans a plane whose normal
    induces one cocircuit and its negation.  Each call enumerates the lines
    afresh on the arrangement's integer vectors; the result depends only on
    the labels and their signs.  Raises NotSpanning when the enumeration
    finds fewer than two lines, which is when the arrangement does not span
    rank 3.
    """
    made = _enumerate_lines(arrangement.integer_vectors)[0]
    if sum(map(len, made)) < 4:
        raise NotSpanning("arrangement does not span rank 3")
    return OrientedMatroid._of(arrangement.labels, chain.from_iterable(made))


class LineTable:
    """The lines of one configuration of plane points, enumerated once; the
    oriented matroid of any list of its columns, and whether it spans, is
    read off them in one pass (``read``; see the module docstring).

    ``vectors`` holds each point's lift (``_lift``), in column order.  The
    table keeps the enumeration's rows, each line's two filed under its
    making column, its pair index, whose entries hold their line's rows,
    and each column's first column with the same point.  Equal points have
    equal lifts, so the lifts key the points.  The table does not change
    after it is built.
    """

    __slots__ = ("vectors", "_made", "_line_of", "_first")

    def __init__(self, points: Sequence[PlanePoint]):
        self.vectors = tuple(map(_lift, points))
        self._made, self._line_of = _enumerate_lines(self.vectors)
        first: dict[IntVec, int] = {}  # equal points have equal lifts
        self._first = [first.setdefault(v, k) for k, v in enumerate(self.vectors)]

    def read(self, labels: tuple[Label, ...], cols: Sequence[int]) -> OrientedMatroid:
        """The oriented matroid on ``labels``, in label order, of the columns
        ``cols``, one per label: ``om_of`` of the arrangement of those
        columns' points lifted to height 1.  Raises ValueError when a column
        is outside the table or the labels are not one per column, then
        NotSpanning when the columns lie on fewer than two lines.

        Columns that are a permutation of 0..m-1 lie on two or more
        distinct points of exactly the lines made by columns below m
        (module docstring): the rows filed under those columns.  Other
        columns take the rows of the index entries of each pair of their
        first columns, whose points are distinct, as a set, so that a line
        through several such pairs is read once; a column read twice, or
        two columns of one point, read alike."""
        n, m, top = len(self._first), len(cols), max(cols, default=-1)
        if len(labels) != m or m and (min(cols) < 0 or top >= n):
            raise ValueError(f"{len(labels)} labels for {m} columns, which must lie in 0..{n - 1}")
        if top == m - 1 and len(set(cols)) == m:
            on = list(chain.from_iterable(self._made[:m]))
        else:
            firsts = sorted(set(map(self._first.__getitem__, cols)))
            on = {row for entry in map(self._line_of.__getitem__, combinations(firsts, 2))
                  for row in entry[2:]}
        if len(on) < 4:
            raise NotSpanning("arrangement does not span rank 3")
        return OrientedMatroid._of(labels, _project(on, cols))


_LOW_RANK = "cocircuits of rank 1 or 2 carry no basis signs"


class _LowRank(NotSpanning):
    """The NotSpanning of cocircuits of rank 1 or 2, which ``weak_map``
    reads as a source with no basis signs."""


def _chirotope_from_cocircuits(matroid: OrientedMatroid) -> Chirotope:
    """Basis signs from the cocircuit signature (BLSWZ, ch. 3).

    An independent pair {i, j} lies in the zero set of exactly one cocircuit
    pair +-C_ij, and chi(i, j, k) = s_ij * C_ij(k) for one unknown sign s_ij.
    Fixing s on the least pair and walking the basis triples fixes every s
    through chi(i, k, j) = -chi(i, j, k) = -chi(j, k, i).  Signs stay
    characters of the rows until they are stored.  In rank 1 or 2 a walk
    can start only from a parallel pair (two non-loops in one zero set), and
    it then fails; only then is the rank decided, so that the error names
    it: a ``_LowRank`` in rank 1 or 2.

    A walk that raises nothing assigns every independent pair, as the rows
    are non-zero.  Let V be the assigned pairs: each was walked, so for
    (x, y) in V and each k with row_xy[k] != 0, (x, k) and (y, k) are in V.
    Take an independent pair (a, b) outside V, L its row and L[k] != 0.
    (i) If a is in some (a, y) of V, then row_ay[b] = 0, so row_ay = +-L,
    the one row through a and b; so row_ay[k] != 0 and (a, k) is in V.
    Were row_ak[b] = 0, row_ak would be +-L, but it is 0 at k and L is not;
    so row_ak[b] != 0 and (a, b) is in V.  The same holds for b.  (ii) Else
    the start pair (i, j)'s row is 0 at a and at b, so it is +-L, and (i, k)
    is in V.  Its row is not 0 at both a and b, as it is 0 at k, which
    puts a or b in a pair of V: case (i).  So the walk needs no check that
    it reached every pair.

    The walk checks each assigned row at the positions after its pair, each
    non-zero one against the two other pairs of its triple.  A triple found
    so accounts for three verified non-zero entries, distinct triples for
    distinct entries, so the entries must number three per triple.  Any
    other non-zero entry lies before its pair, and its triple is one the
    rows disagree on.  A walk that finds no triple fails so too, as its
    start row is non-zero.
    """
    ground = matroid.ground

    def fail(message: str) -> NotSpanning:
        return NotSpanning(message) if _spans_rank_three(matroid) else _LowRank(_LOW_RANK)

    live = [i for i, label in enumerate(ground) if label not in matroid.loops]
    lines: dict[tuple[int, int], list[str]] = {}
    for row in matroid.rows:
        if row.lstrip("0")[:1] == "-":  # keep the member of each +- pair that leads with +
            continue
        for pair in combinations([i for i in live if row[i] == "0"], 2):
            lines.setdefault(pair, []).append(row)
    # A pair in the zero sets of two cocircuit pairs is a parallel pair.
    line_of = {pair: rows[0] for pair, rows in lines.items() if len(rows) == 1}
    if not line_of:
        if matroid.rows:
            raise _LowRank(_LOW_RANK)
        return Chirotope(ground, {})

    # rows[i, j][k] = chi(i, j, k).  The first basis triple in label order
    # extends the least pair, and that pair's row leads with +.
    start = min(line_of)
    rows = {start: line_of[start]}
    queue = deque([start])
    while queue and len(rows) < len(line_of):
        i, j = queue.popleft()
        for k, v in enumerate(rows[i, j]):
            if v == "0":
                continue
            for a, b, r, want in ((i, k, j, _FLIP[v]), (j, k, i, v)):
                if a > b:
                    a, b, want = b, a, _FLIP[want]
                if (a, b) in rows:
                    continue
                other = line_of.get((a, b))
                if other is None or other[r] == "0":
                    raise fail(f"cocircuits disagree on {ground[i], ground[j], ground[k]}")
                rows[a, b] = other if other[r] == want else other.translate(_NEGATE)
                queue.append((a, b))

    zero = "0" * len(ground)
    nonzero: dict[tuple[Label, Label, Label], Sign] = {}
    for (i, j), row in rows.items():
        for k in range(j + 1, len(ground)):
            s = row[k]
            if s != "0":
                if rows.get((i, k), zero)[j] != _FLIP[s] or rows.get((j, k), zero)[i] != s:
                    raise fail(f"cocircuits disagree on {ground[i], ground[j], ground[k]}")
                nonzero[ground[i], ground[j], ground[k]] = _CHAR_SIGNS[s]
    if len(rows) * len(ground) - "".join(rows.values()).count("0") != 3 * len(nonzero):
        for (i, j), row in rows.items():
            for k, s in enumerate(row):
                triple = tuple(ground[x] for x in sorted((i, j, k)))
                if s != "0" and triple not in nonzero:
                    raise fail(f"cocircuits disagree on {triple}")
    return Chirotope(ground, nonzero)


def _key(row: str) -> int:
    """The covector key of a row: its characters as the hex digits
    ``2 neg + pos`` (``-`` 2, ``0`` 0, ``+`` 1), read in base 16, so ground
    position k is hex digit ``w-1-k`` of a width-w row."""
    return int(row.translate(_HEX_DIGITS) or "0", 16)


def _row(key: int, width: int) -> str:
    """The row of width ``width`` with covector key ``key``: its hex digits,
    with a leading 1 that keeps the leading zeros (and width 0), mapped by
    one ``translate``.  Conversions in base 16 take linear time at any width."""
    return hex(key | 1 << 4 * width)[3:].translate(_HEX_SIGNS)


def _covector_masks(width: int, cocircuits: list[int]) -> frozenset[int]:
    """Zero and every composition of the cocircuit keys, grown one cocircuit
    at a time (composition is associative) until a layer adds nothing.

    A digit is 0 when neither of its two low bits is set, so a key's zero
    set is ``ones & ~(key | key >> 1)`` (``ones``: bit 0 of every digit).
    ``X o C`` reads only C on the zero set ``free`` of X, where C is
    ``C & free * 3`` (no carries), so ``X o C = X | C & free * 3``.  Each
    layer's new covectors are grouped by zero set, and each group is
    composed in one pass with the distinct restrictions of the cocircuits
    to its zero set; those are kept by zero set across layers, so each zero
    set scans the cocircuits once.  Zero sets are taken inside the
    cocircuits' support: a covector with no zero there composes to itself."""
    support = reduce(or_, cocircuits, 0)
    support = (support | support >> 1) & int("1" * width or "0", 16)
    restrictions: dict[int, set[int]] = {}
    layer = {0}
    found = set(layer)
    while layer:
        groups: dict[int, list[int]] = {}
        for key in layer:
            groups.setdefault(support & ~(key | key >> 1), []).append(key)
        fresh = set()
        for free, keys in groups.items():
            if free:
                restricted = restrictions.get(free)
                if restricted is None:
                    free3 = free * 3
                    restricted = restrictions[free] = {c & free3 for c in cocircuits}
                fresh.update([key | r for key in keys for r in restricted])
        layer = fresh - found
        found |= layer
    return frozenset(found)


def covectors_of(matroid: OrientedMatroid) -> frozenset[SignVector]:
    """All covectors: zero and every composition of cocircuits.  They are
    composed as keys, once per oriented matroid, and each call builds the
    sign vectors from the kept keys."""
    ground, width = matroid.ground, len(matroid.ground)
    return frozenset([_sign_vector(ground, _row(key, width)) for key in matroid._covector_keys])


def om_equal(m1: OrientedMatroid, m2: OrientedMatroid) -> bool:
    """Structural equality of two oriented matroids on the same labels."""
    if m1.ground != m2.ground:
        raise GroundSetMismatch(f"{m1.ground} vs {m2.ground}")
    return m1.rows == m2.rows


def strong_map(source: OrientedMatroid, target: OrientedMatroid) -> bool:
    """True iff every covector of the target is a covector of the source;
    the source's are closed under composition, so the target's cocircuits
    decide.  Their keys are looked up in the source's kept covector keys,
    which are enumerated only if ``covectors_of`` has not done so."""
    if source.ground != target.ground:
        raise GroundSetMismatch(f"{source.ground} vs {target.ground}")
    covectors = source._covector_keys
    return all(_key(row) in covectors for row in target.rows)


def _spans_rank_three(matroid: OrientedMatroid) -> bool:
    """Whether some non-loop lies in the zero sets of two cocircuit pairs, that
    is on two lines: true in rank 3, false in ranks 0 to 2.  A zero set is
    the complement of a support and the non-loops are the union of all the
    supports, so two zero sets share a non-loop when the union of their two
    supports is less than that."""
    supports = set(_supports(matroid.rows))
    live = reduce(or_, supports, 0)
    return any(a | b != live for a, b in combinations(supports, 2))


def weak_map(source: OrientedMatroid, target: OrientedMatroid) -> bool:
    """Rank-preserving weak-map test on chirotopes.

    True iff some global sign eps makes every target basis sign either 0 or
    eps times the source sign; only sign deletions are allowed.  Every
    non-zero target sign lies on the target's non-loops S, so both sides are
    compared after deletion onto S; a source of rank below 3 on S has no
    non-zero basis sign there and maps onto no target with one.
    """
    if source.ground != target.ground:
        raise GroundSetMismatch(f"{source.ground} vs {target.ground}")
    target = target.delete_loops()
    chi_t = target.chirotope
    deleted = source.restrict(target.ground)
    if deleted == target:  # equal chirotopes: eps = 1 maps every sign
        return True
    try:
        chi_s = deleted.chirotope
    except _LowRank:  # an inconsistent source's NotSpanning propagates
        return False
    eps = 0
    for triple, t_sign in chi_t.nonzero.items():
        s_sign = chi_s[triple]
        if s_sign == 0:
            return False
        if eps == 0:
            eps = t_sign * s_sign
        elif t_sign != eps * s_sign:
            return False
    return True


@dataclass(frozen=True)
class Matroid:
    """Rank-3 truncated matroid: ground set plus independent sets of size <= 3."""

    ground: tuple[Label, ...]
    independents: frozenset[frozenset[Label]]


def underlying_matroid(matroid: OrientedMatroid) -> Matroid:
    """Forget signs: independence of size <= 3 subsets, read off the chirotope.

    For the spanning rank-3 case a singleton or pair is independent exactly
    when some basis triple extends it.  The distinct triples, pairs and
    singletons are collected first, so each frozenset is built once.
    """
    triples = matroid.chirotope.nonzero.keys()
    pairs = {pair for triple in triples for pair in combinations(triple, 2)}
    singles = {(label,) for triple in triples for label in triple}
    return Matroid(matroid.ground, frozenset([frozenset(), *map(frozenset, triples),
                                              *map(frozenset, pairs), *map(frozenset, singles)]))
