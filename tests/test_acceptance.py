"""Acceptance suite: one test per criterion, every check exact.

Each test prints one ``ACCEPTANCE <n>: PASS/FAIL`` line (visible with
``pytest -s`` or in failure output).  All randomness is seeded; all
comparisons are exact equalities of rationals, sign vectors, or bytes.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction as F
from pathlib import Path

import pytest

from omstrata import (
    DegenerateSource,
    DegenerateTarget,
    NonPositiveHeight,
    OrientedMatroid,
    PlanePoint,
    Projectivity,
    affine_from_correspondence,
    build,
    certificate,
    collinear,
    covectors_of,
    cross_ratio,
    default_seed,
    delta_arrangement,
    limit_arrangement,
    om_equal,
    om_of,
    projection_arrangement,
    strong_map,
    subspace_om,
    weak_map,
)
from omstrata.serialization import document_to_json, render_report

from conftest import (
    affine_projectivity,
    rand_fraction,
    rand_point,
    rand_positive_fraction,
    rand_projectivity,
    rand_spanning_arrangement,
    sampled_sign_patterns,
)
from test_grassmann import rand_basis_change, rand_subspace, rebased

FIXTURES = Path(__file__).parent / "fixtures"
SAMPLES = (1, 2, 4, 1024)


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


@pytest.fixture(scope="module")
def flagship_run():
    start = time.perf_counter()
    report = certificate(default_seed(), 10, SAMPLES)
    elapsed = time.perf_counter() - start
    return report, elapsed


def test_criterion_1_flagship_certificate(flagship_run):
    report, elapsed = flagship_run
    with criterion("1 (flagship certificate, depth 10)"):
        assert report.passed
        assert report.checks.c_distinct and report.checks.cr_distinct
        assert report.checks.stratum_constancy and report.checks.limits_equal
        assert report.checks.separation and report.checks.weak_maps
        assert len(report.records) == 10
        assert len({rec.cr for rec in report.records}) == 10
        assert len({rec.limit_fingerprint for rec in report.records}) == 1
        assert all(ok for rec in report.records for _, ok in rec.degeneration_ok)
        # bit-exact reproduction of the repository fixture
        fixture = (FIXTURES / "flagship_report.json").read_bytes()
        assert document_to_json(render_report(report)).encode() == fixture
        assert elapsed < 10.0, f"flagship run took {elapsed:.2f}s"
    print(f"  flagship runtime: {elapsed:.2f}s")


def test_criterion_2_extended_depth():
    with criterion("2 (extended certificate, depth 20)"):
        start = time.perf_counter()
        report = certificate(default_seed(), 20, SAMPLES)
        elapsed = time.perf_counter() - start
        assert report.passed
        assert len(report.records) == 20
        assert len({rec.cr for rec in report.records}) == 20
        assert len({rec.limit_fingerprint for rec in report.records}) == 1
        assert elapsed < 120.0, f"extended run took {elapsed:.2f}s"
    print(f"  extended runtime: {elapsed:.2f}s")


def test_criterion_3_scaling_invariance():
    with criterion("3 (positive rescaling invariance, 200 arrangements)"):
        rng = random.Random(301)
        for _ in range(200):
            arrangement = rand_spanning_arrangement(rng, rng.randint(3, 8))
            factors = {
                label: rand_positive_fraction(rng) for label in arrangement.labels
            }
            assert om_equal(om_of(arrangement), om_of(arrangement.rescaled(factors)))


def test_criterion_4_covector_oracle():
    with criterion("4 (functional-sampling covector oracle, 50 x 1000)"):
        rng = random.Random(401)
        for _ in range(50):
            arrangement = rand_spanning_arrangement(rng, rng.randint(3, 6))
            covectors = {cv.signs for cv in covectors_of(om_of(arrangement))}
            observed = sampled_sign_patterns(arrangement, rng, 1000)
            assert observed <= covectors, "sampled pattern missing from covectors"


def test_criterion_5_projection_coherence():
    with criterion("5 (projection/pairing coherence + basis invariance)"):
        rng = random.Random(501)
        for _ in range(50):
            subspace = rand_subspace(rng, 6)
            reference = subspace_om(subspace)
            assert om_equal(om_of(projection_arrangement(subspace)), reference)
            for _ in range(10):
                other = rebased(subspace, rand_basis_change(rng))
                assert om_equal(subspace_om(other), reference)


def test_criterion_6_cross_ratio_invariance():
    with criterion("6 (cross-ratio invariance + unique automorphism)"):
        rng = random.Random(601)
        # a second stream, so the affine maps and triples stay those of rng
        projective_rng = random.Random(602)
        quadruples = projected = at_infinity = 0
        while quadruples < 100:
            base = rand_point(rng)
            direction = rand_point(rng)
            if (direction.x, direction.y) == (0, 0):
                continue
            params = set()
            while len(params) < 4:
                params.add(rand_fraction(rng, 30))
            points = [
                PlanePoint(base.x + t * direction.x, base.y + t * direction.y)
                for t in sorted(params)
            ]
            value = cross_ratio(*points)
            for _ in range(20):
                mapping = _random_automorphism(rng)
                assert cross_ratio(*(mapping(p) for p in points)) == value
            for _ in range(20):
                mapping = rand_projectivity(projective_rng)
                try:
                    images = [mapping(p) for p in points]
                except NonPositiveHeight:  # a point sent to infinity
                    at_infinity += 1
                    continue
                assert cross_ratio(*images) == value
                projected += 1
            quadruples += 1
        assert projected > 1000 and at_infinity > 0
        reconstructed = 0
        while reconstructed < 100:
            src = tuple(rand_point(rng) for _ in range(3))
            dst = tuple(rand_point(rng) for _ in range(3))
            if collinear(*src) or collinear(*dst):
                continue
            mapping = affine_from_correspondence(src, dst)
            assert tuple(mapping(p) for p in src) == dst
            reconstructed += 1
        collinear_triple = (PlanePoint(0, 0), PlanePoint(1, 1), PlanePoint(2, 2))
        triangle = (PlanePoint(0, 0), PlanePoint(1, 0), PlanePoint(0, 1))
        with pytest.raises(DegenerateSource):
            affine_from_correspondence(collinear_triple, triangle)
        with pytest.raises(DegenerateTarget):
            affine_from_correspondence(triangle, collinear_triple)


def _random_automorphism(rng: random.Random) -> Projectivity:
    while True:
        entries = [rand_fraction(rng) for _ in range(4)]
        if entries[0] * entries[3] - entries[1] * entries[2] != 0:
            break
    return affine_projectivity(
        ((entries[0], entries[1]), (entries[2], entries[3])),
        (rand_fraction(rng), rand_fraction(rng)),
    )


def test_criterion_7_strong_weak_map_sanity(flagship_run):
    report, _ = flagship_run
    with criterion("7 (strong/weak map sanity)"):
        rng = random.Random(701)
        for _ in range(50):
            matroid = om_of(rand_spanning_arrangement(rng, rng.randint(3, 6)))
            assert strong_map(matroid, matroid)
            assert weak_map(matroid, matroid)
        basis = om_of(rand_spanning_arrangement(rng, 5))
        assert strong_map(basis, OrientedMatroid.rank_zero(basis.ground))
        family = build(default_seed(), 10)
        for i in range(1, 11):
            marked = delta_arrangement(family, i)
            assert weak_map(om_of(marked), om_of(limit_arrangement(marked)))
        assert all(rec.weak_map_ok for rec in report.records)


def test_criterion_8_determinism(flagship_run):
    report, _ = flagship_run
    with criterion("8 (byte-identical reports across runs)"):
        import hashlib
        second = certificate(default_seed(), 10, SAMPLES)
        first_bytes = document_to_json(render_report(report)).encode()
        second_bytes = document_to_json(render_report(second)).encode()
        assert first_bytes == second_bytes
        assert (
            hashlib.sha256(first_bytes).hexdigest()
            == hashlib.sha256(second_bytes).hexdigest()
        )
