"""The four benchmark workloads: inputs, one op, and the op's output check.

Every workload draws its inputs from ``random.Random(f"{name}:{seed}")``, so
the same seed gives the same inputs, and every op in a run gets inputs of
its own: a cache that outlives one op cannot turn later ops into repeats.
``inputs`` returns plain data (numbers, lists, file paths) and
``materialise`` turns one datum into library objects, so the inputs can be
screened with one import of the library and run on a fresh one.  The
library is passed in as ``lib`` (a namespace of omstrata modules) and every
call goes through a module attribute, so the tracer's wrappers see it.

``check`` returns None when an op's output is right, or a witness string
naming what is wrong.  It only reads outputs and calls functions that are
not on the op's path, except where a documented invariant needs one more
library call.  Cocircuits are checked against ``cocircuit_fingerprint``,
which enumerates them here rather than through ``om_of``.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from pathlib import Path

SAMPLES = "1,2,4,1024"


def family_json(family, serialization) -> str:
    """The bytes ``omstrata build`` writes for a family."""
    return json.dumps(serialization.render_family(family), indent=2, ensure_ascii=True) + "\n"


def digest(answer) -> str:
    """SHA-256 of an op's answer (bytes, text, or a JSON-able value)."""
    if isinstance(answer, str):
        answer = answer.encode("utf-8")
    if not isinstance(answer, bytes):
        answer = json.dumps(answer, sort_keys=True, separators=(",", ":")).encode("ascii")
    return hashlib.sha256(answer).hexdigest()


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _integral(v) -> tuple[int, int, int]:
    """A positive integer multiple of a rational 3-vector."""
    scale = lcm(v.x.denominator, v.y.denominator, v.z.denominator)
    return (int(v.x * scale), int(v.y * scale), int(v.z * scale))


def _sorted_ints(lib, arrangement):
    ordered = sorted(arrangement.elements, key=lambda e: lib.labels.label_key(e[0]))
    return tuple(l for l, _ in ordered), [_integral(v) for _, v in ordered]


def cocircuit_fingerprint(lib, arrangement) -> str:
    """Fingerprint of a spanning arrangement's oriented matroid, enumerated
    without ``om_of``: one cocircuit pair per distinct plane spanned by two
    elements, the signs of every element against the plane's normal."""
    ground, ints = _sorted_ints(lib, arrangement)
    planes = set()
    for (a, b, c), (d, e, f) in combinations(ints, 2):
        normal = (b * f - c * e, c * d - a * f, a * e - b * d)
        g = gcd(*normal)
        if g:
            first = next(x for x in normal if x)
            planes.add(tuple(x // g if first > 0 else -x // g for x in normal))
    signs = set()
    for p, q, r in planes:
        t = tuple(_sign(p * x + q * y + r * z) for x, y, z in ints)
        signs.update((t, tuple(-s for s in t)))
    vectors = frozenset(lib.om.SignVector(ground, t) for t in signs)
    return lib.om.OrientedMatroid(ground, vectors).fingerprint()


def chirotope_signs(lib, arrangement) -> dict:
    """Non-zero orientation signs of the sorted label triples, from 3x3
    determinants computed here."""
    ground, ints = _sorted_ints(lib, arrangement)
    out = {}
    for (i, u), (j, v), (k, w) in combinations(enumerate(ints), 3):
        det = (u[0] * (v[1] * w[2] - v[2] * w[1]) - u[1] * (v[0] * w[2] - v[2] * w[0])
               + u[2] * (v[0] * w[1] - v[1] * w[0]))
        if det:
            out[(ground[i], ground[j], ground[k])] = _sign(det)
    return out


def _perturbed_seeds(lib, rng, depth: int, count: int, first_default: bool):
    """Distinct seeds near the shipped one: ``a`` and ``nu`` moved by
    multiples of 1/8.  Screened so that ``validate_seed``, ``build`` and the
    cross-ratio ledger accept them at the given depth."""
    construction = lib.construction
    base = construction.default_seed()
    seeds, seen = [], set()
    if first_default:
        seeds.append(base)
        seen.add((0, 0, 0, 0))
    while len(seeds) < count:
        shift = tuple(rng.randint(-4, 4) for _ in range(4))
        if shift in seen:
            continue
        seen.add(shift)
        eighth = [Fraction(k, 8) for k in shift]
        seed = construction.Seed(
            alpha=base.alpha, beta=base.beta, gamma=base.gamma, omega=base.omega,
            nu=lib.geometry.PlanePoint(base.nu.x + eighth[0], base.nu.y + eighth[1]),
            a=lib.geometry.PlanePoint(base.a.x + eighth[2], base.a.y + eighth[3]),
            b1=base.b1,
        )
        if not construction.validate_seed(seed):
            continue
        try:
            construction.cross_ratio_ledger(construction.build(seed, depth))
        except lib.errors.OmstrataError:
            continue
        seeds.append(seed)
    return seeds


class Workload:
    """A workload: ``nominal_op_s`` is the seed commit's mean op time on the
    reference host under its usual load; every ``round_len`` consecutive ops
    do the same mix of work."""

    name: str
    nominal_op_s: float
    round_len: int

    def rng(self, seed: int) -> random.Random:
        return random.Random(f"{self.name}:{seed}")

    def inputs(self, lib, seed: int, count: int) -> list:
        """Data for whole blocks of ``self.sizes`` in seeded order, at least
        count items, so every size occurs equally often in every run."""
        rng = self.rng(seed)
        items = []
        while len(items) < count:
            block = list(self.sizes)
            rng.shuffle(block)
            items.extend(self._item(lib, rng, n) for n in block)
        return items

    def warmup_rng(self) -> random.Random:
        """The warm-up input is the same for every seed, so set-up does the
        same work on every run; it is drawn apart from every op input."""
        return random.Random(f"{self.name}:warmup")


class CertificateDeep(Workload):
    """One op: the in-process CLI ``certificate`` at depth D, report to a file."""

    name = "certificate-deep"
    nominal_op_s = 0.09
    round_len = 4

    def __init__(self, smoke: bool, out_dir: Path):
        self.depth = 2 if smoke else 6
        self.out_dir = out_dir
        self.size = f"certificate depth {self.depth} (top level n={7 + 3 * self.depth}), samples {SAMPLES}"

    def _items(self, lib, rng, count, first_default, tag):
        """(seed file, level whose fingerprints the check recomputes)."""
        items = []
        for i, seed in enumerate(_perturbed_seeds(lib, rng, self.depth, count, first_default)):
            path = self.out_dir / f"seed-{tag}-{i}.json"
            path.write_text(json.dumps(lib.serialization.render_seed(seed)), encoding="utf-8")
            items.append(path)
        return [(path, rng.randint(1, self.depth)) for path in items]

    def inputs(self, lib, seed, count):
        return self._items(lib, self.rng(seed), count, seed == 0, "op")

    def warmup_input(self, lib):
        return self._items(lib, self.warmup_rng(), 1, False, "warmup")[0]

    def materialise(self, lib, datum):
        return datum

    def run(self, lib, item):
        seed_file, _ = item
        report = self.out_dir / "report.json"
        argv = ["certificate", "--depth", str(self.depth), "--samples", SAMPLES,
                "--seed", str(seed_file), "--out", str(report)]
        with redirect_stdout(io.StringIO()) as summary:
            code = lib.cli.main(argv)
        return code, summary.getvalue(), report.read_bytes()

    def answer(self, output):
        code, summary, report = output
        return f"{code}\n{summary}".encode("utf-8") + report

    def check(self, lib, item, output):
        seed_file, level = item
        code, _, report = output
        doc = lib.serialization.document_from_json(report.decode("utf-8")).report
        if code != (0 if doc.passed else 2):
            return f"exit code {code} but pass={doc.passed}"
        if len(doc.records) != self.depth:
            return f"{len(doc.records)} level records for depth {self.depth}"
        for rec in doc.records:
            if not rec.weak_map_ok:
                return f"weak_map(level, limit) false at level {rec.i}"
            bad = [n for n, ok in rec.degeneration_ok if not ok]
            if bad:
                return f"om_of changed under rescaling 1/{bad[0]} at level {rec.i}"
        # One level per op, drawn with the input: its arrangement and loop-free
        # limit, with cocircuits enumerated here.
        seed = lib.serialization.parse_seed(json.loads(seed_file.read_text(encoding="utf-8")))
        marked = lib.construction.delta_arrangement(lib.construction.build(seed, self.depth), level)
        limit = lib.construction.limit_arrangement(marked)
        loop_free = lib.om.LabeledArrangement((l, v) for l, v in limit.elements if not v.is_zero())
        rec = doc.records[level - 1]
        if rec.mi_fingerprint != cocircuit_fingerprint(lib, marked):
            return f"level {level} fingerprint differs from the enumerated cocircuits"
        if rec.limit_fingerprint != cocircuit_fingerprint(lib, loop_free):
            return f"level {level} limit fingerprint differs from the enumerated cocircuits"
        return None


class OmQueries(Workload):
    """One op: the query bundle on one small random arrangement."""

    GRID = 3  # coordinates in -GRID..GRID, so collinear triples are common
    # Cocircuits allowed per size, for the arrangement and its moved copy.
    # The bundle's cost follows these two counts closely, so a narrow band
    # keeps a run's total work nearly the same on every seed.
    COCIRCUITS = {6: (16, 20), 7: (20, 26), 8: (26, 30)}

    name = "om-queries"
    nominal_op_s = 0.12

    def __init__(self, smoke: bool, out_dir: Path):
        # One block of sizes; n = 8 three times, so the median op time falls
        # inside one size rather than between two.
        self.sizes = (6,) if smoke else (6, 7, 8, 8, 8)
        self.round_len = len(self.sizes)
        self.size = f"arrangements with n in {self.sizes[0]}..{self.sizes[-1]}, grid +-{self.GRID}"

    def _arrangement(self, lib, rng, n):
        """n elements: mostly grid points at height 1, some (anti)parallel
        copies of earlier elements and at most one loop; spans rank 3."""
        V = lib.geometry.Vector3
        while True:
            elements, has_loop = [], False
            for label in range(1, n + 1):
                r = rng.random()
                if label > 1 and r < 0.06 and not has_loop:
                    vec, has_loop = V(0, 0, 0), True
                elif label > 1 and r < 0.2:
                    base = rng.choice([v for _, v in elements if not v.is_zero()])
                    vec = base.scaled(rng.choice((2, -1, Fraction(1, 3), Fraction(-3, 2))))
                else:
                    vec = V(rng.randint(-self.GRID, self.GRID), rng.randint(-self.GRID, self.GRID), 1)
                elements.append((label, vec))
            arrangement = lib.om.LabeledArrangement(elements)
            if arrangement.is_spanning():
                return arrangement

    def _moved(self, lib, rng, arrangement):
        """Copy with one height-1 element moved onto the line through two
        other distinct height-1 elements, or None if no tried move spans."""
        affine = [(l, v) for l, v in arrangement.elements if v.z == 1]
        V = lib.geometry.Vector3
        for _ in range(100):
            (k, _), (_, p), (_, q) = rng.sample(affine, 3)
            if (p.x, p.y) == (q.x, q.y):
                continue
            t = Fraction(rng.choice((-1, 1, 2, 3)), rng.choice((1, 2, 3)))
            spot = V(p.x + t * (q.x - p.x), p.y + t * (q.y - p.y), 1)
            moved = lib.om.LabeledArrangement(
                (l, spot if l == k else v) for l, v in arrangement.elements)
            if moved.is_spanning():
                return moved
        return None

    def _item(self, lib, rng, n):
        low, high = self.COCIRCUITS[n]

        def in_band(arrangement):
            return low <= len(lib.om.om_of(arrangement).cocircuits) <= high

        while True:
            arrangement = self._arrangement(lib, rng, n)
            if sum(1 for _, v in arrangement.elements if v.z == 1) < 3 or not in_band(arrangement):
                continue
            for _ in range(8):
                moved = self._moved(lib, rng, arrangement)
                if moved is not None and in_band(moved):
                    factors = {l: Fraction(rng.randint(1, 9), rng.randint(1, 9))
                               for l in arrangement.labels}
                    return [[(l, (v.x, v.y, v.z)) for l, v in a.elements]
                            for a in (arrangement, moved, arrangement.rescaled(factors))]

    def warmup_input(self, lib):
        return self._item(lib, self.warmup_rng(), self.sizes[0])

    def materialise(self, lib, datum):
        return tuple(lib.om.LabeledArrangement((l, lib.geometry.Vector3(*xyz)) for l, xyz in elements)
                     for elements in datum)

    def run(self, lib, item):
        om = lib.om
        arrangement, moved, rescaled = item
        m = om.om_of(arrangement)
        chi = om.chirotope_of(arrangement)
        covectors = om.covectors_of(m)
        same = om.om_equal(m, om.om_of(rescaled))
        fingerprint = m.fingerprint()
        matroid = om.underlying_matroid(m)
        target = om.om_of(moved)
        strong = om.strong_map(m, target)
        weak = om.weak_map(m, target)
        return m, chi, covectors, same, fingerprint, matroid, strong, weak

    def answer(self, output):
        m, chi, covectors, same, fingerprint, matroid, strong, weak = output
        return [fingerprint, sorted(f"{t}{s}" for t, s in chi.nonzero.items()),
                sorted(c.to_string() for c in covectors), same,
                len(matroid.independents), strong, weak]

    def check(self, lib, item, output):
        m, chi, covectors, same, fingerprint, *_ = output
        arrangement = item[0]
        if not same:
            return "om_of changed under a positive rescaling"
        if fingerprint != cocircuit_fingerprint(lib, arrangement):
            return "om_of's cocircuits differ from the enumerated cocircuits"
        if chi.nonzero != chirotope_signs(lib, arrangement):
            return "chirotope_of differs from the determinant signs"
        if not {c.signs for c in m.cocircuits} <= {c.signs for c in covectors}:
            return "a cocircuit is missing from covectors_of"
        # strong_map(m, m) repeats two closures; the smallest size keeps the
        # check cheap and still runs on every seed.
        if len(m.ground) == self.sizes[0] and not lib.om.strong_map(m, m):
            return "strong_map(m, m) is false"
        return None


class SubspaceRoutes(Workload):
    """One op: both routes from a rational 3-subspace to its oriented matroid."""

    # Entries p/q with |p| <= BOUND and BOUND/2 <= q <= BOUND: every entry
    # has about the same bit length, so op cost depends on n, not on luck.
    BOUND = 10 ** 6

    name = "subspace-routes"
    nominal_op_s = 0.06

    def __init__(self, smoke: bool, out_dir: Path):
        self.sizes = (8,) if smoke else tuple(range(8, 19))
        self.round_len = len(self.sizes)
        self.size = f"3-subspaces of Q^n, n in {self.sizes[0]}..{self.sizes[-1]}, entries up to 1e6/1e6"

    def _item(self, lib, rng, n):
        def entry():
            return Fraction(rng.randint(-self.BOUND, self.BOUND), rng.randint(self.BOUND // 2, self.BOUND))

        while True:
            rows = [[entry() for _ in range(n)] for _ in range(3)]
            mix = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
            rebased = [[sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(n)]
                       for coeffs in mix]
            if lib.linalg.matrix_rank(rows) == 3 and lib.linalg.matrix_rank(rebased) == 3:
                break
        # Upper-triangular with a non-zero diagonal, so it spans Q^n.
        family = [(i + 1, [rng.choice((-2, -1, 1, 2)) if j == i else
                           (rng.randint(-5, 5) if j > i else 0) for j in range(n)])
                  for i in range(n)]
        return n, rows, rebased, family

    def warmup_input(self, lib):
        return self._item(lib, self.warmup_rng(), self.sizes[0])

    def materialise(self, lib, datum):
        n, rows, rebased, family = datum
        return n, rows, rebased, lib.grassmann.VectorFamily(family)

    def run(self, lib, item):
        gr = lib.grassmann
        n, rows, rebased, family = item
        subspace = gr.Subspace(n, rows)
        other = gr.Subspace(n, rebased)
        projected = lib.om.om_of(gr.projection_arrangement(subspace))
        direct = gr.subspace_om(subspace)
        measured = gr.family_om(family, subspace)
        same_om = gr.same_stratum(subspace, other)
        same_matroid = gr.same_stratum(subspace, other, "matroid")
        return projected, direct, measured, same_om, same_matroid

    def answer(self, output):
        projected, direct, measured, same_om, same_matroid = output
        return [m.canonical_json() for m in (projected, direct, measured)] + [same_om, same_matroid]

    def check(self, lib, item, output):
        projected, direct, _, same_om, same_matroid = output
        n, rows, *_ = item
        if projected != direct:
            return "projection route differs from the direct route"
        columns = lib.om.LabeledArrangement(
            (i + 1, lib.geometry.Vector3(rows[0][i], rows[1][i], rows[2][i])) for i in range(n))
        if direct.fingerprint() != cocircuit_fingerprint(lib, columns):
            return "om_of's cocircuits differ from the enumerated cocircuits"
        if not (same_om and same_matroid):
            return f"same_stratum false for a change of basis (om={same_om}, matroid={same_matroid})"
        return None


class BuildLedgerDeep(Workload):
    """One op: ``build``, the cross-ratio ledger, and the family as JSON."""

    name = "build-ledger-deep"
    nominal_op_s = 0.06
    round_len = 4

    def __init__(self, smoke: bool, out_dir: Path):
        self.depth = 20 if smoke else 150
        self.size = f"build depth {self.depth} ({7 + 3 * self.depth} points)"

    def inputs(self, lib, seed, count):
        # Screening at the full depth would cost one op per seed; a
        # degenerate seed shows within the first levels.
        seeds = _perturbed_seeds(lib, self.rng(seed), 12, count, seed == 0)
        return [lib.serialization.render_seed(s) for s in seeds]

    def warmup_input(self, lib):
        return lib.serialization.render_seed(_perturbed_seeds(lib, self.warmup_rng(), 12, 1, False)[0])

    def materialise(self, lib, datum):
        return lib.serialization.parse_seed(datum)

    def run(self, lib, seed):
        family = lib.construction.build(seed, self.depth)
        ledger = lib.construction.cross_ratio_ledger(family)
        return family_json(family, lib.serialization), ledger

    def answer(self, output):
        text, ledger = output
        return [digest(text), [[i, str(cr)] for i, cr in ledger]]

    def check(self, lib, seed, output):
        text, ledger = output
        if [i for i, _ in ledger] != list(range(1, self.depth + 1)):
            return "ledger levels are not 1..depth"
        doc = json.loads(text)
        if doc["depth"] != self.depth or len(doc["points"]) != 7 + 3 * self.depth:
            return f"family has depth {doc['depth']} and {len(doc['points'])} points"
        expected = lib.serialization.render_seed(seed)
        for label, point in doc["points"][:7]:
            if expected[label] != point:
                return f"seed point {label} rendered as {point}, expected {expected[label]}"
        return None


WORKLOADS = {cls.name: cls for cls in (CertificateDeep, OmQueries, SubspaceRoutes, BuildLedgerDeep)}
