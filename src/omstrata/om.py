"""Rank-3 oriented matroids of labeled vector arrangements.

An arrangement is a tuple of (label, Vector3) pairs in global label order,
which is the ground order of everything computed from it.  Its oriented
matroid is stored as the cocircuit set: every line of the configuration
(the plane spanned by two independent vectors v_i, v_j) induces the sign
vector ``k -> sign <v_k, v_i x v_j>`` together with its negation.  Each line
is enumerated once, from the first independent pair on it.  Covectors are
recovered on demand as the compositions of cocircuits, one cocircuit at a
time, and basis signs (the chirotope) by a walk over the cocircuits.

Covectors are composed as ``(pos, neg)`` integer bitmask pairs, bit k for
ground position k, so composition is ``(p | cp & free, n | cn & free)`` with
``free = ~(p | n)``.  Each oriented matroid enumerates its covector masks
once and keeps them, as it keeps its chirotope; ``covectors_of`` and
``strong_map`` both read that one set.

Deletion onto a subset of the labels (``OrientedMatroid.restrict``) keeps the
support-minimal non-zero restrictions of the cocircuits (BLSWZ 3.3).  Every
non-zero basis sign of a weak-map target lies on its non-loops, so
``weak_map`` compares the chirotopes of both sides deleted onto those: for a
certificate level and its eight-point limit, 56 triples, not C(n, 3).

Signs never change under positive per-element rescaling, so all sign
computations run on primitive integer copies of the vectors; this keeps the
arithmetic in plain ints and makes fingerprints bit-stable.  ``om_of`` is a
function of the labels and those primitive vectors alone and remembers its
last result, so the rescaled copies of one arrangement cost one enumeration.

It also remembers the lines of its last full enumeration.  Every line of a
sub-arrangement (one whose non-zero vectors all occur among those lines'
vectors) is one of them: a remembered line whose zero set holds two
non-parallel vectors of the sub-arrangement.  Such an arrangement reads its
cocircuits off the remembered rows, restricted to its columns by one
``itemgetter``, with no new enumeration.  The certificate walks its levels
deepest first, so one enumeration serves every level and limit.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from itertools import combinations, compress, repeat
from operator import add, itemgetter
from typing import Iterable, Mapping

from .errors import DomainMismatch, GroundSetMismatch, NotSpanning
from .geometry import IntVec, Vector3, _cross, _det3, _primitive, _sign
from .labels import Label, label_key, label_keys, sort_labels

Sign = int  # -1, 0, +1

_CHAR_SIGNS = {"+": 1, "-": -1, "0": 0}
_SIGN_BYTES = bytes.maketrans(b"\x00\x01\x02", b"-0+")  # sign + 1 -> character


def _rank3(vectors: Iterable[IntVec]) -> int:
    """Rank of a list of integer 3-vectors (0..3)."""
    first = second = None
    for v in vectors:
        if v == (0, 0, 0):
            continue
        if first is None:
            first = v
        elif second is None:
            if _cross(first, v) != (0, 0, 0):
                second = v
        elif _det3(first, second, v) != 0:
            return 3
    if second is not None:
        return 2
    return 0 if first is None else 1


@dataclass(frozen=True)
class LabeledArrangement:
    """Labeled homogeneous vectors, kept in global label order."""

    elements: tuple[tuple[Label, Vector3], ...]

    def __init__(self, elements: Iterable[tuple[Label, Vector3]]):
        elems = [(label, vector) for label, vector in elements]
        keys = label_keys(label for label, _ in elems)
        # The keys are distinct, so the sort never compares two vectors.
        object.__setattr__(self, "elements", tuple(e for _, e in sorted(zip(keys, elems))))

    @property
    def labels(self) -> tuple[Label, ...]:
        return tuple(label for label, _ in self.elements)

    def vector(self, label: Label) -> Vector3:
        for lab, vec in self.elements:
            if lab == label:
                return vec
        raise KeyError(label)

    def primitive_vectors(self) -> tuple[IntVec, ...]:
        """The primitive integer multiples of the vectors, which carry every
        sign of the arrangement."""
        return tuple(_primitive(v.x, v.y, v.z) for _, v in self.elements)

    def is_spanning(self) -> bool:
        return _rank3(self.primitive_vectors()) == 3

    def restrict(self, labels: Iterable[Label]) -> "LabeledArrangement":
        """Sub-arrangement on the given labels."""
        keep = set(labels)
        missing = keep - set(self.labels)
        if missing:
            raise KeyError(f"labels not present: {sorted(missing, key=label_key)}")
        return LabeledArrangement((l, v) for l, v in self.elements if l in keep)

    def rescaled(self, factors: Mapping[Label, Fraction]) -> "LabeledArrangement":
        """Per-element positive rescaling (signs of all covectors preserved)."""
        for label, f in factors.items():
            if f <= 0:
                raise ValueError(f"scale for {label!r} must be positive, got {f}")
        return LabeledArrangement(
            (l, v.scaled(factors[l]) if l in factors else v) for l, v in self.elements
        )

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class SignVector:
    """A function from an ordered ground set to {+, -, 0}."""

    labels: tuple[Label, ...]
    signs: tuple[Sign, ...]

    def __post_init__(self):
        if len(self.labels) != len(self.signs):
            raise ValueError("labels and signs differ in length")

    def __getitem__(self, label: Label) -> Sign:
        return self.signs[self.labels.index(label)]

    def __neg__(self) -> "SignVector":
        return SignVector(self.labels, tuple(-s for s in self.signs))

    def zero_set(self) -> tuple[Label, ...]:
        return tuple(l for l, s in zip(self.labels, self.signs) if s == 0)

    def to_string(self) -> str:
        return bytes([s + 1 for s in self.signs]).translate(_SIGN_BYTES).decode("ascii")

    @staticmethod
    def from_string(labels: tuple[Label, ...], text: str) -> "SignVector":
        return SignVector(labels, tuple(_CHAR_SIGNS[ch] for ch in text))

    def __repr__(self) -> str:
        return f"SignVector({self.to_string()})"


def compose(x: SignVector, y: SignVector) -> SignVector:
    """Componentwise composition: x's sign where non-zero, else y's."""
    if x.labels != y.labels:
        raise DomainMismatch("sign vectors live on different ground tuples")
    return SignVector(x.labels, tuple(a if a != 0 else b for a, b in zip(x.signs, y.signs)))


@dataclass(frozen=True)
class Chirotope:
    """Basis orientation map: sorted label triple -> sign.

    Only non-zero signs are stored; absent triples are 0.
    """

    ground: tuple[Label, ...]
    nonzero: Mapping[tuple[Label, Label, Label], Sign]

    def __getitem__(self, triple: tuple[Label, Label, Label]) -> Sign:
        return self.nonzero.get(triple, 0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Chirotope):
            return NotImplemented
        return self.ground == other.ground and dict(self.nonzero) == dict(other.nonzero)

    def __hash__(self) -> int:
        return hash((self.ground, frozenset(self.nonzero.items())))


class OrientedMatroid:
    """A rank <= 3 oriented matroid stored by its cocircuit set.

    The ground set is kept in global label order, so equality of two
    oriented matroids on the same label set is plain structural equality of
    their cocircuit sets.  The basis signs are derived from the cocircuits.
    """

    __slots__ = ("ground", "cocircuits", "loops", "_chirotope", "_covectors")

    def __init__(self, ground: tuple[Label, ...], cocircuits: frozenset[SignVector]):
        self.ground = ground
        self.cocircuits = cocircuits
        self._chirotope = None
        self._covectors = None
        zero_everywhere = range(len(ground))
        for cc in cocircuits:
            signs = cc.signs
            zero_everywhere = [i for i in zero_everywhere if not signs[i]]
            if not zero_everywhere:
                break
        self.loops = frozenset(ground[i] for i in zero_everywhere)

    @property
    def chirotope(self) -> Chirotope:
        """The basis signs, normalised so the first basis triple in label
        order is positive; empty in rank 0.  Raises NotSpanning when the
        cocircuits are not those of a rank-3 (or rank-0) oriented matroid."""
        if self._chirotope is None:
            self._chirotope = _chirotope_from_cocircuits(self)
        return self._chirotope

    def cocircuit_strings(self) -> list[str]:
        return sorted(cc.to_string() for cc in self.cocircuits)

    def canonical_json(self) -> str:
        doc = {"ground_set": list(self.ground), "cocircuits": self.cocircuit_strings()}
        return json.dumps(doc, separators=(",", ":"), ensure_ascii=True)

    def fingerprint(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("ascii")).hexdigest()

    def restrict(self, labels: Iterable[Label]) -> "OrientedMatroid":
        """The deletion onto ``labels``, ground order kept; ``self`` when they
        cover the ground set.

        Its cocircuits are the support-minimal non-zero restrictions of the
        cocircuits (BLSWZ 3.3), so the deletion of a realization's elements
        has the oriented matroid of the sub-arrangement.
        """
        keep_set = set(labels)
        missing = keep_set - set(self.ground)
        if missing:
            raise KeyError(f"labels not present: {sorted(missing, key=label_key)}")
        if len(keep_set) == len(self.ground):
            return self
        keep = [i for i, l in enumerate(self.ground) if l in keep_set]
        if len(keep) > 1:
            pick = itemgetter(*keep)
        else:  # itemgetter returns a bare entry for one index and needs one
            pick = lambda signs: tuple(signs[i] for i in keep)  # noqa: E731
        rows = set(map(pick, [cc.signs for cc in self.cocircuits]))
        bits = [1 << k for k in range(len(keep))]
        support = {row: sum(compress(bits, row)) for row in rows}
        # Smallest supports first: a support is minimal unless it contains
        # one found before.
        minimal: set[int] = set()
        for mask in sorted(set(support.values()) - {0}, key=int.bit_count):
            if not any(m & mask == m for m in minimal):
                minimal.add(mask)
        ground = tuple(self.ground[i] for i in keep)
        return OrientedMatroid(
            ground,
            frozenset(SignVector(ground, row) for row, m in support.items() if m in minimal),
        )

    def delete_loops(self) -> "OrientedMatroid":
        """The same oriented matroid on the non-loop elements."""
        return self.restrict(l for l in self.ground if l not in self.loops)

    @staticmethod
    def rank_zero(ground: Iterable[Label]) -> "OrientedMatroid":
        """The oriented matroid whose only covector is zero (all loops)."""
        return OrientedMatroid(sort_labels(ground), frozenset())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OrientedMatroid):
            return NotImplemented
        return self.ground == other.ground and self.cocircuits == other.cocircuits

    def __hash__(self) -> int:
        return hash((self.ground, self.cocircuits))

    def __repr__(self) -> str:
        return f"OrientedMatroid(|E|={len(self.ground)}, cocircuits={len(self.cocircuits)})"


def chirotope_of(arrangement: LabeledArrangement) -> Chirotope:
    """Orientation sign of every sorted label triple of the arrangement.

    This is the determinant reference: ``om_of(a).chirotope`` equals it up
    to one global sign."""
    ground, ints = arrangement.labels, arrangement.primitive_vectors()
    nonzero: dict[tuple[Label, Label, Label], Sign] = {}
    live = [i for i, v in enumerate(ints) if v != (0, 0, 0)]
    for i, j, k in combinations(live, 3):
        s = _sign(_det3(ints[i], ints[j], ints[k]))
        if s:
            nonzero[(ground[i], ground[j], ground[k])] = s
    return Chirotope(ground, nonzero)


class _Lines:
    """The lines of one full enumeration, kept so that a sub-arrangement can
    read its cocircuits off them.

    ``found`` holds each line's sign row, its negation and the live positions
    of its zero set, as the kernel computes them.  The first projection turns
    them into the projection data and drops them: the rows in pairs, the same
    tuples the enumerated oriented matroid holds, and per row the bitmask of
    the projective classes in its line's zero set.  Zero vectors read column
    ``len(vectors)``, a 0 appended to the rows they are read from.
    """

    __slots__ = ("vectors", "found", "column", "rows", "masks", "class_bits")

    def __init__(self, vectors: tuple[IntVec, ...], found: list):
        self.vectors = vectors
        self.found = found
        self.column: dict[IntVec, int] | None = None

    def columns(self, ints: tuple[IntVec, ...]) -> list[int] | None:
        """The column of each vector of ``ints``, or None if a non-zero one
        is missing."""
        if self.column is None:
            # a repeated vector keeps one of its columns, which read alike
            self.column = dict(zip(self.vectors, range(len(self.vectors))))
            self.column[0, 0, 0] = len(self.vectors)
        cols = list(map(self.column.get, ints))
        return None if None in cols else cols

    def _index(self) -> None:
        """Turn ``found`` into the rows and their class masks."""
        classes: dict[IntVec, int] = {}
        bits = [0] * (len(self.vectors) + 1)
        for k, v in enumerate(self.vectors):
            if v != (0, 0, 0):
                # v and -v span one class: key it by its member above zero
                key = v if v > (0, 0, 0) else (-v[0], -v[1], -v[2])
                bits[k] = classes.setdefault(key, 1 << len(classes))
        self.class_bits = bits
        self.rows, self.masks = [], []
        for row, negated, zeros in self.found:
            mask = 0
            for k in zeros:
                mask |= bits[k]
            self.rows += (row, negated)
            self.masks += (mask, mask)
        self.found = None

    def project(self, cols: list[int]) -> set[tuple[Sign, ...]]:
        """Both sign rows, restricted to ``cols``, of every line whose zero
        set holds two non-parallel vectors of the columns."""
        if self.found is not None:
            self._index()
        sub = 0
        for k in cols:
            sub |= self.class_bits[k]
        if not sub & (sub - 1):  # fewer than two classes: no line
            return set()
        on = [(m := mask & sub) & (m - 1) for mask in self.masks]
        rows = compress(self.rows, on)
        if len(self.vectors) in cols:
            rows = map(add, rows, repeat((0,)))
        return set(map(itemgetter(*cols), rows))


# The lines of the last full enumeration (see ``_cocircuit_tuples``).
_lines: _Lines | None = None


def _enumerate_lines(ints: tuple[IntVec, ...]) -> tuple[set[tuple[Sign, ...]], _Lines]:
    """Both sign rows of every line (rank-2 flat) of the arrangement, and the
    lines themselves.

    The pairs ``i < j`` of non-zero vectors are walked in order; a pair
    already in the zero set of a computed row lies on a known line and is
    skipped, so each line costs one row of ``n`` dot products.
    """
    out: set[tuple[Sign, ...]] = set()
    found = []
    live = [i for i, v in enumerate(ints) if v != (0, 0, 0)]
    covered: set[tuple[int, int]] = set()
    for a, i in enumerate(live):
        x1, y1, z1 = ints[i]
        for j in live[a + 1:]:
            if (i, j) in covered:
                continue
            x2, y2, z2 = ints[j]
            p, q, r = y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2
            if not (p or q or r):  # parallel pair: no line of its own
                continue
            signs = tuple([(d > 0) - (d < 0) for d in [p * x + q * y + r * z for x, y, z in ints]])
            zeros = [k for k in live if not signs[k]]
            covered.update(combinations(zeros, 2))
            negated = tuple([-s for s in signs])
            out.add(signs)
            out.add(negated)
            found.append((signs, negated, zeros))
    return out, _Lines(ints, found)


def _cocircuit_tuples(ints: tuple[IntVec, ...]) -> set[tuple[Sign, ...]]:
    """Both sign rows of every line (rank-2 flat) of the arrangement.

    The lines of the last full enumeration are remembered.  When every
    non-zero vector of ``ints`` occurs among their vectors, each line of
    ``ints`` is one of them: a remembered line is a line of ``ints`` exactly
    when its zero set holds two non-parallel vectors of ``ints``, and its
    rows restricted to the columns of ``ints`` are that line's rows.  Any
    other arrangement is enumerated in full and its lines replace the
    remembered ones.
    """
    global _lines
    cols = None if _lines is None else _lines.columns(ints)
    if cols is None:
        out, _lines = _enumerate_lines(ints)
        return out
    return _lines.project(cols)


def om_of(arrangement: LabeledArrangement) -> OrientedMatroid:
    """The oriented matroid of a spanning arrangement, in canonical form.

    Every line through two independent elements spans a plane whose normal
    induces one cocircuit and its negation.  The result depends only on the
    labels and the primitive integer vectors, so a positively rescaled copy
    reuses the last result (see ``_om_of_primitive``).
    """
    return _om_of_primitive(arrangement.labels, arrangement.primitive_vectors())


@lru_cache(maxsize=1)
def _om_of_primitive(ground: tuple[Label, ...], ints: tuple[IntVec, ...]) -> OrientedMatroid:
    # One entry: a certificate level is followed by its rescaled samples,
    # which all hit it; a larger cache would only keep earlier levels alive.
    if _rank3(ints) != 3:
        raise NotSpanning("arrangement does not span rank 3")
    cocircuits = frozenset(SignVector(ground, t) for t in _cocircuit_tuples(ints))
    return OrientedMatroid(ground, cocircuits)


def _chirotope_from_cocircuits(matroid: OrientedMatroid) -> Chirotope:
    """Basis signs from the cocircuit signature (BLSWZ, ch. 3).

    An independent pair {i, j} lies in the zero set of exactly one cocircuit
    pair +-C_ij, and chi(i, j, k) = s_ij * C_ij(k) for one unknown sign s_ij.
    Fixing s on the least pair and walking the basis triples fixes every s
    through chi(i, k, j) = -chi(i, j, k) = -chi(j, k, i).
    """
    ground = matroid.ground
    live = [i for i, label in enumerate(ground) if label not in matroid.loops]
    zero = (0,) * len(ground)
    lines: dict[tuple[int, int], list[tuple[Sign, ...]]] = {}
    for cc in matroid.cocircuits:
        if cc.signs < zero:  # keep the member of each +- pair that leads with +
            continue
        for pair in combinations([i for i in live if cc.signs[i] == 0], 2):
            lines.setdefault(pair, []).append(cc.signs)
    # A pair in the zero sets of two cocircuit pairs is a parallel pair.
    line_of = {pair: signs[0] for pair, signs in lines.items() if len(signs) == 1}
    if not line_of:
        if matroid.cocircuits:
            raise NotSpanning("cocircuits of rank 1 or 2 carry no basis signs")
        return Chirotope(ground, {})

    # rows[i, j][k] = chi(i, j, k).  The first basis triple in label order
    # extends the least pair, and that pair's row leads with +.
    start = min(line_of)
    rows = {start: line_of[start]}
    queue = deque([start])
    while queue and len(rows) < len(line_of):
        i, j = queue.popleft()
        for k, v in enumerate(rows[i, j]):
            if not v:
                continue
            for a, b, r, want in ((i, k, j, -v), (j, k, i, v)):
                if a > b:
                    a, b, want = b, a, -want
                if (a, b) in rows:
                    continue
                other = line_of.get((a, b))
                if other is None or not other[r]:
                    raise NotSpanning(f"cocircuits disagree on {ground[i], ground[j], ground[k]}")
                rows[a, b] = other if other[r] == want else tuple(-s for s in other)
                queue.append((a, b))
    if len(rows) < len(line_of):
        raise NotSpanning("the basis triples do not connect every independent pair")

    nonzero: dict[tuple[Label, Label, Label], Sign] = {}
    for (i, j), row in rows.items():
        for k in range(j + 1, len(ground)):
            if row[k]:
                if rows.get((i, k), zero)[j] != -row[k] or rows.get((j, k), zero)[i] != row[k]:
                    raise NotSpanning(f"cocircuits disagree on {ground[i], ground[j], ground[k]}")
                nonzero[ground[i], ground[j], ground[k]] = row[k]
    return Chirotope(ground, nonzero)


def _masks(signs: Iterable[Sign]) -> tuple[int, int]:
    """The ``(pos, neg)`` bitmasks of a sign row: bit k is position k."""
    pos = neg = 0
    for k, s in enumerate(signs):
        if s > 0:
            pos |= 1 << k
        elif s < 0:
            neg |= 1 << k
    return pos, neg


def _signs(pos: int, neg: int, width: int) -> tuple[Sign, ...]:
    """The sign row of width ``width`` with bitmasks ``(pos, neg)``."""
    return tuple([(pos >> k & 1) - (neg >> k & 1) for k in range(width)])


def _covector_masks(width: int, cocircuits: list[tuple[int, int]]) -> frozenset[tuple[int, int]]:
    """Zero and every composition of the cocircuit masks, grown one cocircuit
    at a time (composition is associative) until a layer adds nothing.  A
    covector with no zero composes to itself, so only those with a zero are
    extended."""
    full = (1 << width) - 1
    layer = {(0, 0)}
    found = set(layer)
    while layer:
        fresh = set()
        for p, n in layer:
            free = ~(p | n)
            if free & full:
                fresh.update([(p | cp & free, n | cn & free) for cp, cn in cocircuits])
        layer = fresh - found
        found |= layer
    return frozenset(found)


def _kept_covectors(matroid: OrientedMatroid) -> frozenset[tuple[int, int]]:
    """The covector masks of ``matroid``, enumerated on first use and kept."""
    if matroid._covectors is None:
        cocircuits = [_masks(cc.signs) for cc in matroid.cocircuits]
        matroid._covectors = _covector_masks(len(matroid.ground), cocircuits)
    return matroid._covectors


def covectors_of(matroid: OrientedMatroid) -> frozenset[SignVector]:
    """All covectors: zero and every composition of cocircuits.  They are
    composed as ``(pos, neg)`` masks, once per oriented matroid, and each
    call builds the sign vectors from the kept masks."""
    ground, width = matroid.ground, len(matroid.ground)
    masks = _kept_covectors(matroid)
    return frozenset(SignVector(ground, _signs(p, n, width)) for p, n in masks)


def om_equal(m1: OrientedMatroid, m2: OrientedMatroid) -> bool:
    """Structural equality of two oriented matroids on the same labels."""
    if m1.ground != m2.ground:
        raise GroundSetMismatch(f"{m1.ground} vs {m2.ground}")
    return m1.cocircuits == m2.cocircuits


def strong_map(source: OrientedMatroid, target: OrientedMatroid) -> bool:
    """True iff every covector of the target is a covector of the source;
    the source's are closed under composition, so the target's cocircuits
    decide.  Their masks are looked up in the source's kept covector masks,
    which are enumerated only if ``covectors_of`` has not done so."""
    if source.ground != target.ground:
        raise GroundSetMismatch(f"{source.ground} vs {target.ground}")
    covectors = _kept_covectors(source)
    return all(_masks(cc.signs) in covectors for cc in target.cocircuits)


def _spans_rank_three(matroid: OrientedMatroid) -> bool:
    """Whether some non-loop lies in the zero sets of two cocircuit pairs, that
    is on two lines: true in rank 3, false in ranks 0 to 2."""
    zero_sets = {frozenset(cc.zero_set()) for cc in matroid.cocircuits}
    return any(
        sum(label in z for z in zero_sets) > 1
        for label in matroid.ground
        if label not in matroid.loops
    )


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
    if not target.cocircuits:
        return True
    target = target.delete_loops()
    chi_t = target.chirotope
    deleted = source.restrict(target.ground)
    if deleted == target:  # equal chirotopes: eps = 1 maps every sign
        return True
    try:
        chi_s = deleted.chirotope
    except NotSpanning:
        if _spans_rank_three(deleted):  # inconsistent, not of low rank
            raise
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

    def is_independent(self, subset: Iterable[Label]) -> bool:
        return frozenset(subset) in self.independents

    def rank(self, subset: Iterable[Label]) -> int:
        chosen = frozenset(subset)
        return max((len(i) for i in self.independents if i <= chosen), default=0)

    def full_rank(self) -> int:
        return self.rank(self.ground)


def underlying_matroid(matroid: OrientedMatroid) -> Matroid:
    """Forget signs: independence of size <= 3 subsets, read off the chirotope.

    For the spanning rank-3 case a singleton or pair is independent exactly
    when some basis triple extends it.
    """
    chi = matroid.chirotope
    independents: set[frozenset[Label]] = {frozenset()}
    for triple in chi.nonzero:
        independents.add(frozenset(triple))
        for pair in combinations(triple, 2):
            independents.add(frozenset(pair))
        for single in triple:
            independents.add(frozenset((single,)))
    return Matroid(matroid.ground, frozenset(independents))
