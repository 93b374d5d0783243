"""Byte pins: SHA-256 digests of the documents a refactor must not change.

The fixture ``fixtures/pinned_digests.json`` holds the digests of

* the depth-20, depth-40 and depth-80 reports of the default seed (the
  test recomputes the first two; depth 80 takes seconds, and only the
  script below recomputes it),
* the failing report of the seed with ``nu`` = (3, 2) at depth 5 (checks
  ``limits_equal`` and ``separation`` fail), written by the CLI, together
  with the figures ``A0.svg``..``A5.svg`` it writes and the figures of that
  seed's level-5 delta-marked arrangement and of its limit,
* the report the CLI writes for ``certificate --depth 6 --samples 1024,3,1``
  on the seed of ``samples_seed``, which passes: samples neither sorted
  nor holding 2,
* the ``omstrata mu`` document of the subspace ``fixtures/subspace.json``,
* the sorted covector strings of the default seed's level-3 delta-marked
  arrangement (579 covectors), one per line,
* the family ``omstrata build --depth 150`` writes for the default seed, and
  that family's cross-ratio ledger as ``str``s,
* the fingerprints of the oriented matroids that the three routes from a
  subspace give (``projection_arrangement``, ``subspace_om`` and
  ``family_om``) on two seeded subspaces with entries p/q near 1e6.

Run as a script, this file prints every digest, depth 80 included, in the
fixture's format: CI compares that output with the fixture byte for byte
under two string-hash seeds.  Regenerate the fixture (only for an intended
change of output) with
``PYTHONPATH=src python tests/test_pinned_bytes.py > tests/fixtures/pinned_digests.json``.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

from omstrata import (
    PlanePoint,
    Seed,
    Subspace,
    VectorFamily,
    build,
    certificate,
    covectors_of,
    cross_ratio_ledger,
    default_seed,
    delta_arrangement,
    emit_figure,
    family_om,
    limit_arrangement,
    om_of,
    projection_arrangement,
    subspace_om,
)
from omstrata.cli import main
from omstrata.serialization import document_to_json, render_report, render_seed

FIXTURE = Path(__file__).parent / "fixtures" / "pinned_digests.json"
SUBSPACE = Path(__file__).parent / "fixtures" / "subspace.json"
FAILING_DEPTH = 5
REPORT_DEPTHS = (20, 40)
DEEP_REPORT_DEPTH = 80
FAMILY_DEPTH = 150
SAMPLES_DEPTH = 6
SAMPLES = "1024,3,1"
COVECTOR_LEVEL = 3


def _sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def failing_seed() -> Seed:
    return Seed(**{**default_seed().points(), "nu": PlanePoint(3, 2)})


def samples_seed() -> Seed:
    """The default seed with nu moved by (2/8, -1/8) and a by (-1/8, 2/8)."""
    base = default_seed()
    return Seed(**{**base.points(),
                   "nu": PlanePoint(base.nu.x + Fraction(2, 8), base.nu.y - Fraction(1, 8)),
                   "a": PlanePoint(base.a.x - Fraction(1, 8), base.a.y + Fraction(2, 8))})


def seeded_subspace(rng_seed: int, ambient: int) -> tuple[Subspace, VectorFamily]:
    """A subspace of Q^ambient with entries p/q, |p| <= 1e6 and
    5e5 <= q <= 1e6, and a spanning family of upper-triangular vectors
    with Fraction entries."""
    rng = random.Random(rng_seed)
    bound = 10 ** 6
    rows = [[Fraction(rng.randint(-bound, bound), rng.randint(bound // 2, bound))
             for _ in range(ambient)] for _ in range(3)]
    family = VectorFamily(
        (i + 1, [Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 9)) if j == i else
                 Fraction(rng.randint(-5, 5), rng.randint(1, 9)) if j > i else 0
                 for j in range(ambient)])
        for i in range(ambient)
    )
    return Subspace(ambient, rows), family


def pinned_digests(work_dir: Path, deep: bool = False) -> dict[str, str]:
    """Recompute every pinned digest, the depth-80 report's only when
    ``deep``; CLI output goes under ``work_dir``."""
    digests = {}
    for depth in REPORT_DEPTHS + ((DEEP_REPORT_DEPTH,) if deep else ()):
        report = certificate(default_seed(), depth)
        digests[f"depth{depth}_report"] = _sha256(document_to_json(render_report(report)))

    seed = failing_seed()
    seed_file, out, svg_dir = work_dir / "seed.json", work_dir / "report.json", work_dir / "svg"
    seed_file.write_text(json.dumps(render_seed(seed)), encoding="utf-8")
    code = main(["certificate", "--depth", str(FAILING_DEPTH), "--seed", str(seed_file),
                 "--out", str(out), "--svg-dir", str(svg_dir)])
    digests["failing_exit_code"] = str(code)
    digests["failing_report"] = _sha256(out.read_bytes())
    for level in range(FAILING_DEPTH + 1):
        digests[f"failing_A{level}.svg"] = _sha256((svg_dir / f"A{level}.svg").read_bytes())
    seed_file.write_text(json.dumps(render_seed(samples_seed())), encoding="utf-8")
    code = main(["certificate", "--depth", str(SAMPLES_DEPTH), "--samples", SAMPLES,
                 "--seed", str(seed_file), "--out", str(out)])
    assert code == 0, f"the samples seed fails at depth {SAMPLES_DEPTH}"
    digests[f"depth{SAMPLES_DEPTH}_samples_report"] = _sha256(out.read_bytes())
    marked = delta_arrangement(build(seed, FAILING_DEPTH), FAILING_DEPTH)
    digests["failing_delta.svg"] = _sha256(emit_figure(marked))
    digests["failing_limit.svg"] = _sha256(emit_figure(limit_arrangement(marked)))

    level = delta_arrangement(build(default_seed(), COVECTOR_LEVEL), COVECTOR_LEVEL)
    covectors = sorted(cv.to_string() for cv in covectors_of(om_of(level)))
    digests[f"covectors_level{COVECTOR_LEVEL}"] = _sha256("\n".join(covectors))

    mu = work_dir / "mu.json"
    main(["mu", "--subspace", str(SUBSPACE), "--out", str(mu)])
    digests["subspace_mu"] = _sha256(mu.read_bytes())
    family_file = work_dir / "family.json"
    main(["build", "--depth", str(FAMILY_DEPTH), "--out", str(family_file)])
    digests["family_depth150"] = _sha256(family_file.read_bytes())
    ledger = cross_ratio_ledger(build(default_seed(), FAMILY_DEPTH))
    digests["ledger_depth150"] = _sha256("\n".join(f"{i} {cr}" for i, cr in ledger))
    for rng_seed, ambient in ((1, 9), (2, 14)):
        subspace, family = seeded_subspace(rng_seed, ambient)
        key = f"subspace{rng_seed}"
        digests[f"{key}_projection"] = om_of(projection_arrangement(subspace)).fingerprint()
        digests[f"{key}_direct"] = subspace_om(subspace).fingerprint()
        digests[f"{key}_family"] = family_om(family, subspace).fingerprint()
    return digests


def test_pinned_digests(tmp_path):
    pinned = json.loads(FIXTURE.read_text(encoding="utf-8"))
    del pinned[f"depth{DEEP_REPORT_DEPTH}_report"]
    assert pinned_digests(tmp_path) == pinned


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()):
        digests = pinned_digests(Path(tmp), deep=True)
    print(json.dumps(digests, indent=2, sort_keys=True))
