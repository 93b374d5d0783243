"""A record-level reference for ``certificate``.

Each level's ``LevelRecord`` is rebuilt from the slow paths only:

* the points from the Fraction meets of ``fraction_reference.build_points``,
* the oriented matroids of the level, its rescaled samples and its limit
  from module ``om_of``, with no ``LineTable``,
* the weak map as ``weak_map`` on the full level and limit, with no deletion
  first,
* each fingerprint as the SHA-256 of the plain JSON of the ground set and
  the sorted set of rows, which depends neither on ``canonical_json`` nor
  on the order the rows are stored in,
* the cross-ratios from ``fraction_reference.cross_ratio``.

A byte digest of a report says only that something changed; comparing
records names the level and the field that differ.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields, replace
from fractions import Fraction as F

import pytest

from omstrata import LabeledArrangement, PlanePoint, Vector3, certificate, default_seed, om_of, weak_map
from omstrata.construction import DEFAULT_SAMPLES, SEED_LABELS, LevelRecord
from omstrata.labels import PERSISTENT, indexed

import fraction_reference as ref
from test_construction import WALL_SEED, seed_with

DEPTH = 10
# Unsorted and without 2: the order of each level's sample verdicts is the
# order given.
OTHER_SAMPLES = (1024, 3, 1)
ZERO = Vector3(0, 0, 0)


def shifted(dx: int, dy: int, ex: int, ey: int):
    """The default seed with nu and a moved by multiples of 1/8."""
    base = default_seed()
    return seed_with(nu=PlanePoint(base.nu.x + F(dx, 8), base.nu.y + F(dy, 8)),
                     a=PlanePoint(base.a.x + F(ex, 8), base.a.y + F(ey, 8)))


SEEDS = {
    "default": default_seed(),
    "wall": WALL_SEED,
    "shift(1,0,0,1)": shifted(1, 0, 0, 1),
    "shift(-3,2,1,-1)": shifted(-3, 2, 1, -1),
    "shift(4,-4,-2,3)": shifted(4, -4, -2, 3),
}


def plain_fingerprint(ground, rows) -> str:
    text = json.dumps({"ground_set": list(ground), "cocircuits": sorted(set(rows))}, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def reference_records(seed, depth: int, samples=DEFAULT_SAMPLES) -> list[LevelRecord]:
    points = ref.build_points(seed, depth)
    located = dict(points)
    records = []
    for i in range(1, depth + 1):
        c_label = indexed("c", i)
        marked = LabeledArrangement(("delta" if label == c_label else label, Vector3(p.x, p.y, 1))
                                    for label, p in points[:len(SEED_LABELS) + 3 * i])
        limit = LabeledArrangement((label, v if label in PERSISTENT else ZERO) for label, v in marked.elements)
        level_om, limit_om = om_of(marked), om_of(limit)
        degeneration = tuple(
            (n, om_of(LabeledArrangement(
                (label, v if label in PERSISTENT else Vector3(v.x / n, v.y / n, v.z / n))
                for label, v in marked.elements)) == level_om)
            for n in samples
        )
        # The limit's loops are its zero vectors, zero in every row: the
        # deletion of the loops drops their columns.
        live = [k for k, (_, v) in enumerate(limit.elements) if v != ZERO]
        delta = limit.vector("delta")
        records.append(LevelRecord(
            i=i,
            cr=ref.cross_ratio(seed.alpha, located[c_label], seed.gamma, seed.beta),
            mi_fingerprint=plain_fingerprint(level_om.ground, level_om.rows),
            limit_fingerprint=plain_fingerprint([limit.labels[k] for k in live],
                                                ("".join(row[k] for k in live) for row in limit_om.rows)),
            limit_cr=ref.cross_ratio(seed.alpha, PlanePoint(delta.x / delta.z, delta.y / delta.z),
                                     seed.gamma, seed.beta),
            degeneration_ok=degeneration,
            weak_map_ok=weak_map(level_om, limit_om),
        ))
    return records


def mismatches(records, reference) -> list[tuple[int, str]]:
    """The (level, field) pairs where ``records`` and ``reference`` differ."""
    return [(want.i, f.name) for got, want in zip(records, reference, strict=True)
            for f in fields(LevelRecord) if getattr(got, f.name) != getattr(want, f.name)]


@pytest.mark.parametrize("name", SEEDS)
def test_certificate_equals_the_reference_record_for_record(name):
    seed = SEEDS[name]
    reference = reference_records(seed, DEPTH)
    for depth in range(1, DEPTH + 1):
        records = certificate(seed, depth).records
        assert len(records) == depth
        assert mismatches(records, reference[:depth]) == [], f"{name} at depth {depth}"


@pytest.mark.parametrize("name", SEEDS)
def test_other_samples_equal_the_reference_record_for_record(name):
    seed = SEEDS[name]
    records = certificate(seed, DEPTH, OTHER_SAMPLES).records
    assert mismatches(records, reference_records(seed, DEPTH, OTHER_SAMPLES)) == [], name


def test_a_differing_record_is_named_by_level_and_field():
    reference = reference_records(default_seed(), 3)
    changed = list(reference)
    changed[1] = replace(changed[1], weak_map_ok=not changed[1].weak_map_ok, limit_cr=F(-1))
    assert mismatches(changed, reference) == [(2, "limit_cr"), (2, "weak_map_ok")]
