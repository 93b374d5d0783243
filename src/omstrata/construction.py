"""Iterated planar configurations and the degeneration certificate.

Starting from a seven-point seed, each level appends three points:

1. ``d_n`` where line(omega, gamma) meets line(alpha, b_n),
2. ``b_{n+1}`` where line(omega, beta) meets line(a, d_n),
3. ``c_n`` where line(alpha, beta) meets line(a, b_{n+1}).

Marking ``c_i`` with the label ``delta`` at level i yields a family of
arrangements whose oriented matroids stay constant under positive
rescaling but collapse, in the limit where all non-persistent points drop
to the zero vector, onto one common eight-element oriented matroid.  The
certificate checks this collapse together with the exact pairwise-distinct
cross-ratios that tell the levels apart inside the shared limit.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from math import gcd
from typing import Iterable, Optional, Sequence

from .errors import (
    CoincidentPoints,
    DegeneratePoints,
    DegenerateStep,
    Identical,
    NotCollinear,
    Parallel,
    SeedRejected,
)
from .geometry import (
    IntVec,
    PlanePoint,
    Vector3,
    _cross,
    _join,
    _lift,
    _meet,
    _point,
    _point_lift,
    _spanned,
    collinear,
    cross_ratio,
    embed_affine,
)
from .labels import PERSISTENT, Label, indexed, label_key
from .om import LabeledArrangement, LineTable, OrientedMatroid, weak_map

SEED_LABELS = ("alpha", "beta", "gamma", "omega", "nu", "a", "b1")

# The certificate enumerates the lines of the whole family once: at most the
# C(n, 3) triple signs of its n = 3 * depth + 7 points, each computed once, on
# coordinates that grow with depth (480 bits at depth 80), most of them read
# off the coordinates' leading 64 bits.  The table files each line's rows
# under the column that makes it, so a level, a permutation of columns
# 0..m-1, reads the rows filed under its columns and projects them onto its
# columns, one slice per run of consecutive columns, done in C; a limit looks
# up the lines through the pairs of its eight persistent points.  Depth 80 is
# the largest run it is meant for: 2.9-3.8 s and 50.3-50.4 MiB peak RSS in
# four single runs, each a fresh process, on a 2-vCPU shared host under
# CPython 3.11.7.  ``build`` has no such bound.
MAX_CERTIFICATE_DEPTH = 80

# The rescaling denominators a certificate samples when none are given.
DEFAULT_SAMPLES = (1, 2, 4, 1024)


@dataclass(frozen=True)
class Seed:
    """The seven starting points of the construction."""

    alpha: PlanePoint
    beta: PlanePoint
    gamma: PlanePoint
    omega: PlanePoint
    nu: PlanePoint
    a: PlanePoint
    b1: PlanePoint

    def points(self) -> dict[str, PlanePoint]:
        return {name: getattr(self, name) for name in SEED_LABELS}


@dataclass(frozen=True)
class SeedValidation:
    ok: bool
    violated: Optional[str]
    message: str

    def __bool__(self) -> bool:
        return self.ok


def default_seed() -> Seed:
    """The shipped candidate seed; ``validate_seed`` accepts it."""
    return Seed(
        alpha=PlanePoint(0, 0),
        beta=PlanePoint(6, 0),
        gamma=PlanePoint(4, 0),
        omega=PlanePoint(3, 5),
        nu=PlanePoint(-2, 1),
        a=PlanePoint(1, -2),
        b1=PlanePoint(Fraction(9, 2), Fraction(5, 2)),
    )


def _strictly_between(p: PlanePoint, q: PlanePoint, r: PlanePoint) -> bool:
    """True iff q lies strictly inside the segment p-r (assumes collinear, p != r)."""
    return (q.x - p.x) * (r.x - q.x) + (q.y - p.y) * (r.y - q.y) > 0


def validate_seed(seed: Seed) -> SeedValidation:
    """Check the genericity constraints the construction depends on.

    Diagnostics name the first violated constraint; a passing seed is still
    only a candidate until the certificate accepts it.
    """
    s = seed

    def fail(code: str, message: str) -> SeedValidation:
        return SeedValidation(False, code, message)

    if not collinear(s.alpha, s.gamma, s.beta):
        return fail("baseline", "alpha, gamma, beta must be collinear")
    if s.alpha == s.beta or s.alpha == s.gamma or s.beta == s.gamma:
        return fail("baseline", "alpha, gamma, beta must be three distinct points")
    if not _strictly_between(s.alpha, s.gamma, s.beta):
        return fail("baseline", "gamma must lie strictly between alpha and beta")
    if collinear(s.alpha, s.beta, s.omega):
        return fail("apex", "omega must not lie on line alpha-beta")
    if collinear(s.alpha, s.beta, s.a):
        return fail("anchor", "a must not lie on line alpha-beta")
    if s.a == s.omega:
        return fail("anchor", "a must differ from omega")
    if collinear(s.omega, s.beta, s.a):
        return fail("anchor", "a must not lie on line omega-beta")
    if collinear(s.omega, s.gamma, s.a):
        return fail("anchor", "a must not lie on line omega-gamma")
    if not collinear(s.omega, s.b1, s.beta) or not _strictly_between(s.omega, s.b1, s.beta):
        return fail("b1_segment", "b1 must lie strictly inside segment omega-beta")
    others = [("alpha", s.alpha), ("beta", s.beta), ("gamma", s.gamma),
              ("omega", s.omega), ("a", s.a), ("b1", s.b1)]
    for i in range(len(others)):
        for j in range(i + 1, len(others)):
            (n1, p1), (n2, p2) = others[i], others[j]
            if p1 != p2 and collinear(p1, p2, s.nu):
                return fail("nu_generic", f"nu lies on line {n1}-{n2}")
    return SeedValidation(True, None, "seed satisfies all constraints")


@dataclass(frozen=True)
class ConfigurationFamily:
    """Seed plus depth levels of appended points, all incidences exact.

    The points are in construction order: the seven seed points in
    ``SEED_LABELS`` order, then d_n, b_{n+1}, c_n for n = 1..depth."""

    seed: Seed
    depth: int
    points: tuple[tuple[Label, PlanePoint], ...]

    def level(self, i: int) -> "ConfigurationFamily":
        """The sub-family of depth i, a prefix of the points.  Raises
        IndexError for an i that is not an int in 0..depth (a bool is not)."""
        if type(i) is not int or not 0 <= i <= self.depth:
            raise IndexError(f"level {i} not in 0..{self.depth}")
        return ConfigurationFamily(self.seed, i, self.points[:len(SEED_LABELS) + 3 * i])

    def arrangement(self) -> LabeledArrangement:
        """All points lifted to height 1."""
        return LabeledArrangement((lab, embed_affine(pt)) for lab, pt in self.points)


def _level_labels(depth: int) -> list[Label]:
    labels: list[Label] = list(SEED_LABELS)
    for n in range(1, depth + 1):
        labels.extend((indexed("d", n), indexed("b", n + 1), indexed("c", n)))
    return labels


def _level_columns(i: int) -> tuple[int, ...]:
    """The columns of level i in the arrangement of a family of depth i or
    more, in the order of the level's labels with c_i as delta: 0-5 (alpha
    to a), 3i + 4 (c_i), 6..3i + 3 (b1, c1, d1, ..., b_i), 3i + 5 (d_i) and
    3i + 6 (b_{i+1}).  They are a permutation of 0..3i + 6, and the first
    eight are the persistent points."""
    return (*range(6), 3 * i + 4, *range(6, 3 * i + 4), 3 * i + 5, 3 * i + 6)


class _SeedLifts:
    """The lifts a level reads from the seed: alpha and a, and the three
    lines through seed points only, joined once."""

    def __init__(self, seed: Seed):
        alpha, beta, gamma, omega, a = (
            _lift(p) for p in (seed.alpha, seed.beta, seed.gamma, seed.omega, seed.a)
        )
        self.seed = seed
        self.alpha = alpha
        self.a = a
        self.omega_gamma = _join(omega, gamma)
        self.omega_beta = _join(omega, beta)
        self.alpha_beta = _join(alpha, beta)


def _level(
    lifts: _SeedLifts, n: int, b_n: IntVec
) -> tuple[tuple[tuple[Label, PlanePoint], ...], IntVec]:
    """The points d_n, b_{n+1}, c_n of level n from the primitive lift of b_n,
    and the primitive lift of b_{n+1} for the next level.

    Each point is the bare cross product of a seed line and the bare cross
    product of two lifts; a line's content drops out with the point's.  Each
    point's gcds are those of its two ``Fraction`` coordinates: ``_point_lift``
    reads the primitive lifts of d_n and b_{n+1} off them with one small gcd,
    which keeps the next level's coordinates short.  c_n is never a vector
    again.  A vector's sign is never normalised: a meet reads only zero tests
    and the ratios to z."""
    s = lifts.seed

    def meet(which: str, seed_line: IntVec, p: PlanePoint, line: IntVec, q: PlanePoint) -> IntVec:
        try:
            return _meet(_spanned(seed_line, p), _spanned(line, q))
        except (Parallel, Identical, CoincidentPoints) as exc:
            raise DegenerateStep(n, which, str(exc)) from exc

    d_n, d_lift = _point_lift(meet("omega-gamma / alpha-b_n", lifts.omega_gamma, s.omega,
                                   _cross(lifts.alpha, b_n), s.alpha))
    b_next, b_lift = _point_lift(meet("omega-beta / a-d_n", lifts.omega_beta, s.omega,
                                      _cross(lifts.a, d_lift), s.a))
    c_n = _point(meet("alpha-beta / a-b_{n+1}", lifts.alpha_beta, s.alpha,
                      _cross(lifts.a, b_lift), s.a))
    added = (
        (indexed("d", n), d_n),
        (indexed("b", n + 1), b_next),
        (indexed("c", n), c_n),
    )
    return added, b_lift


def build(seed: Seed, depth: int) -> ConfigurationFamily:
    """Validate the seed and run ``depth`` construction levels.  Raises
    ValueError for a depth that is not a non-negative int (a bool is not)."""
    if type(depth) is not int or depth < 0:
        raise ValueError(f"depth must be non-negative, got {depth}")
    check = validate_seed(seed)
    if not check:
        raise SeedRejected(check.violated or "seed", check.message)
    lifts = _SeedLifts(seed)
    points = list(seed.points().items())
    b_n = _lift(seed.b1)
    for n in range(1, depth + 1):
        added, b_n = _level(lifts, n, b_n)
        points.extend(added)
    return ConfigurationFamily(seed, depth, tuple(points))


def delta_arrangement(family: ConfigurationFamily, i: int) -> LabeledArrangement:
    """Level-i arrangement with the point c_i carrying the label ``delta``,
    all points lifted to height 1.  Raises IndexError for an i that is not
    an int in 1..depth (a bool is not)."""
    if type(i) is not int or not 1 <= i <= family.depth:
        raise IndexError(f"i = {i} not in 1..{family.depth}")
    level = family.level(i)
    c_label = indexed("c", i)
    return LabeledArrangement(
        ("delta" if lab == c_label else lab, embed_affine(pt)) for lab, pt in level.points
    )


def scale_degeneration(arrangement: LabeledArrangement, n: int) -> LabeledArrangement:
    """Shrink every non-persistent element by 1/n; persistent points stay at
    height 1.  Positive rescaling never changes the oriented matroid.
    Raises ValueError for an n that is not a positive int (a bool is not).

    This is the reference of check (c) in ``certificate``, which decides
    each sample in integers: ``_shrunk_primitive(v, n)`` is the primitive
    vector here of a non-persistent element with primitive vector v."""
    if type(n) is not int or n < 1:
        raise ValueError(f"n must be a positive int, got {n!r}")

    shrink = Fraction(1, n)
    return LabeledArrangement(
        (lab, vec if lab in PERSISTENT else vec.scaled(shrink)) for lab, vec in arrangement.elements
    )


def _shrunk_primitive(v: IntVec, n: int) -> IntVec:
    """The primitive vector of v / n, as ``_primitive`` computes it from the
    ``Fraction``s of ``scale_degeneration``: w = v // gcd(v0, v1, v2, n),
    divided by gcd(w).  For a positive n it is the primitive vector of v."""
    g = gcd(*v, n)
    w = (v[0] // g, v[1] // g, v[2] // g)
    h = gcd(*w) or 1
    return (w[0] // h, w[1] // h, w[2] // h)


def limit_arrangement(arrangement: LabeledArrangement) -> LabeledArrangement:
    """The n -> infinity limit: non-persistent elements become the zero
    vector (loops); persistent elements keep their height-1 vectors."""
    zero = Vector3(0, 0, 0)
    return LabeledArrangement((l, v if l in PERSISTENT else zero) for l, v in arrangement.elements)


def cross_ratio_ledger(family: ConfigurationFamily) -> list[tuple[int, Fraction]]:
    """The exact cross-ratio of (alpha, c_i, gamma, beta) for every level i."""
    s = family.seed
    points = dict(family.points)
    return [
        (i, cross_ratio(s.alpha, points[indexed("c", i)], s.gamma, s.beta))
        for i in range(1, family.depth + 1)
    ]


@dataclass(frozen=True)
class LevelRecord:
    """Per-level certificate evidence."""

    i: int
    cr: Fraction
    mi_fingerprint: str
    limit_fingerprint: str
    limit_cr: Fraction
    degeneration_ok: tuple[tuple[int, bool], ...]
    weak_map_ok: bool


@dataclass(frozen=True)
class CertificateChecks:
    c_distinct: bool
    cr_distinct: bool
    stratum_constancy: bool
    limits_equal: bool
    separation: bool
    weak_maps: bool

    def all_pass(self) -> bool:
        return all(getattr(self, f.name) for f in fields(self))


def _record_checks(records: Sequence[LevelRecord], limits_equal: bool) -> dict[str, bool]:
    """The checks the level records decide once (d) ``limits_equal`` is
    known: (b) ``cr_distinct``, (c) ``stratum_constancy``, (e)
    ``separation`` and (f) ``weak_maps``."""
    cr_distinct = len({rec.cr for rec in records}) == len(records)
    return {
        "cr_distinct": cr_distinct,
        "stratum_constancy": all(ok for rec in records for _, ok in rec.degeneration_ok),
        "separation": cr_distinct and limits_equal and all(rec.limit_cr == rec.cr for rec in records),
        "weak_maps": all(rec.weak_map_ok for rec in records),
    }


@dataclass(frozen=True)
class CertificateReport:
    """Exact witnesses and verdicts of one certificate run.

    Everything here is recomputable from the seed alone; two runs with the
    same inputs produce identical reports.
    """

    seed: Seed
    depth: int
    samples: tuple[int, ...]
    records: tuple[LevelRecord, ...]
    limit_fingerprint: str
    checks: CertificateChecks
    passed: bool


def certificate(
    seed: Seed, depth: int, samples: Iterable[int] = DEFAULT_SAMPLES
) -> CertificateReport:
    """Run every check of the degeneration certificate at exact precision.

    (a) the c_i are pairwise distinct; (b) their cross-ratios are pairwise
    distinct; (c) each delta-marked arrangement keeps its oriented matroid
    under the sampled rescalings: a point with primitive vector v passes a
    sample n when the primitive vector of v / n, in integers
    v // gcd(v0, v1, v2, n) divided by its own gcd, equals v.  This is exact,
    since ``om_of`` reads only the labels (which rescaling keeps) and those
    vectors; ``scale_degeneration`` is the reference, and no ``Fraction`` is
    built.  A point's vector is the same at every level, so each point is
    decided once per sample, in the whole family, and a level passes when
    all its points but the eight persistent ones do; (d) the loop-free parts
    of all limit oriented matroids coincide (the shared limit); (e) the limit
    arrangements still differ by the cross-ratio invariant while realizing
    that one limit; (f) each level admits a weak map onto its limit.

    Every oriented matroid is read off one ``LineTable`` of the family's
    plane points in label order, whose lifts are the primitive vectors v
    of (c); no arrangement is built.  ``samples`` may be any iterable, and
    is read once.

    Raises ValueError for a depth that is not an int in
    1..MAX_CERTIFICATE_DEPTH or samples that are not distinct positive ints,
    and SeedRejected when a quantity cannot even be computed (invalid seed,
    degenerate step, degenerate cross-ratio); otherwise returns a report
    whose ``passed`` flag aggregates (a)-(f).
    """
    if type(depth) is not int or not 1 <= depth <= MAX_CERTIFICATE_DEPTH:
        raise ValueError(f"depth must be in 1..{MAX_CERTIFICATE_DEPTH}, got {depth}")
    samples = tuple(samples)  # once, so that an iterator is read once
    if (not samples or any(type(n) is not int for n in samples)
            or len(set(samples)) != len(samples) or min(samples) < 1):
        raise ValueError(f"samples must be distinct positive integers, got {list(samples)}")
    try:
        family = build(seed, depth)
    except DegenerateStep as exc:
        raise SeedRejected("construction", str(exc)) from exc
    try:
        ledger = cross_ratio_ledger(family)
    except (NotCollinear, DegeneratePoints) as exc:
        raise SeedRejected("cross_ratio_ledger", f"{type(exc).__name__}: {exc}") from exc

    cr_values = [value for _, value in ledger]

    records: list[LevelRecord] = []
    limit: Optional[OrientedMatroid] = None  # the first level's
    limit_fingerprint = ""
    limits_equal = True
    # Every level is read off the lines of the whole family's points, in
    # label order, by its columns there, a permutation of 0..3i + 6 and so
    # the rows filed under those columns, and its limit's non-loops by its
    # first eight.
    labels, plane = zip(*sorted(family.points, key=lambda item: label_key(item[0])))
    # (a) on the c_i, column 3i + 4 each (``_level_columns``)
    c_distinct = len({plane[3 * i + 4] for i in range(1, depth + 1)}) == depth
    table = LineTable(plane)
    ints = table.vectors
    # Per sample, the non-persistent columns whose rescaled primitive vector
    # is not their own: the table's lifts are primitive.
    transient = [k for k, label in enumerate(labels) if label not in PERSISTENT]
    changed = [{k for k in transient if _shrunk_primitive(ints[k], n) != ints[k]} for n in samples]
    for i in range(1, depth + 1):
        cols = _level_columns(i)
        level_labels = (*labels[:6], "delta", *map(labels.__getitem__, cols[7:]))
        level_om = table.read(level_labels, cols)
        rescaled = cols[8:]  # the level's non-persistent points
        degeneration = tuple((n, moved.isdisjoint(rescaled)) for n, moved in zip(samples, changed))
        # The limit's non-loops are the persistent points at height 1, so its
        # oriented matroid with the loops deleted is that of this part.
        shared = table.read(level_labels[:8], cols[:8])
        if limit is None:
            limit, limit_fingerprint = shared, shared.fingerprint()
        elif shared == limit:
            shared = limit  # one object, so its chirotope is computed once
        else:
            limits_equal = False
        # The verdict of weak_map(level_om, om_of(limit)), which deletes both
        # onto the limit's non-loops itself.
        weak_ok = weak_map(level_om.restrict(shared.ground), shared)
        # delta is c_i at height 1: the ledger has computed this cross-ratio.
        limit_cr = cross_ratio(seed.alpha, plane[cols[6]], seed.gamma, seed.beta)
        records.append(
            LevelRecord(
                i=i,
                cr=cr_values[i - 1],
                mi_fingerprint=level_om.fingerprint(),
                limit_fingerprint=limit_fingerprint if shared is limit else shared.fingerprint(),
                limit_cr=limit_cr,
                degeneration_ok=degeneration,
                weak_map_ok=weak_ok,
            )
        )
        # Let this level's cocircuits go before the next level's are built.
        del level_om

    checks = CertificateChecks(
        c_distinct=c_distinct, limits_equal=limits_equal, **_record_checks(records, limits_equal)
    )
    return CertificateReport(
        seed=seed,
        depth=depth,
        samples=samples,
        records=tuple(records),
        limit_fingerprint=limit_fingerprint,
        checks=checks,
        passed=checks.all_pass(),
    )
