"""Byte pins: SHA-256 digests of the documents a refactor must not change.

The fixture ``fixtures/pinned_digests.json`` holds the digests of

* the depth-20 report of the default seed,
* the failing report of the seed with ``nu`` = (3, 2) at depth 5 (checks
  ``limits_equal`` and ``separation`` fail), written by the CLI, together
  with the figures ``A0.svg``..``A5.svg`` it writes and the figures of that
  seed's level-5 delta-marked arrangement and of its limit.

Regenerate the fixture (only for an intended change of output) with
``PYTHONPATH=src python tests/test_pinned_bytes.py > tests/fixtures/pinned_digests.json``.
"""

from __future__ import annotations

import hashlib
import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from omstrata import (
    PlanePoint,
    Seed,
    build,
    certificate,
    default_seed,
    delta_arrangement,
    emit_figure,
    limit_arrangement,
)
from omstrata.cli import main
from omstrata.serialization import document_to_json, render_report, render_seed

FIXTURE = Path(__file__).parent / "fixtures" / "pinned_digests.json"
FAILING_DEPTH = 5


def _sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def failing_seed() -> Seed:
    return Seed(**{**default_seed().points(), "nu": PlanePoint(3, 2)})


def pinned_digests(work_dir: Path) -> dict[str, str]:
    """Recompute every pinned digest; CLI output goes under ``work_dir``."""
    report = certificate(default_seed(), 20)
    digests = {"depth20_report": _sha256(document_to_json(render_report(report)))}

    seed = failing_seed()
    seed_file, out, svg_dir = work_dir / "seed.json", work_dir / "report.json", work_dir / "svg"
    seed_file.write_text(json.dumps(render_seed(seed)), encoding="utf-8")
    code = main(["certificate", "--depth", str(FAILING_DEPTH), "--seed", str(seed_file),
                 "--out", str(out), "--svg-dir", str(svg_dir)])
    digests["failing_exit_code"] = str(code)
    digests["failing_report"] = _sha256(out.read_bytes())
    for level in range(FAILING_DEPTH + 1):
        digests[f"failing_A{level}.svg"] = _sha256((svg_dir / f"A{level}.svg").read_bytes())
    marked = delta_arrangement(build(seed, FAILING_DEPTH), FAILING_DEPTH)
    digests["failing_delta.svg"] = _sha256(emit_figure(marked))
    digests["failing_limit.svg"] = _sha256(emit_figure(limit_arrangement(marked)))
    return digests


def test_pinned_digests(tmp_path):
    assert pinned_digests(tmp_path) == json.loads(FIXTURE.read_text(encoding="utf-8"))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()):
        digests = pinned_digests(Path(tmp))
    print(json.dumps(digests, indent=2, sort_keys=True))
