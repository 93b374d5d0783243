"""The benchmark's own test: every workload in smoke mode, both kinds of run.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that each run's metric names are exactly the names BENCHMARK.json
lists for that kind of run, that no op fails, that a corrupted seed-0
reference digest makes ops fail, that an om_of with wrong cocircuits makes
ops fail on another seed, and that the benchmark refuses to run without
the library's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(root: Path, workload: str, trace: int, seed: int = 0) -> dict:
    done = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_metric_names_and_no_failures(workload, trace):
    result = run(ROOT, workload, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert result["failed"] == 0 and result["correct"]
    assert result["attempted"] >= 1


def test_corrupted_reference_fails_ops(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    reference = tmp_path / "perfbench" / "reference.json"
    stored = json.loads(reference.read_text(encoding="utf-8"))
    digests = stored["smoke"]["om-queries"]
    digests[0] = "0" * len(digests[0])
    reference.write_text(json.dumps(stored), encoding="utf-8")
    result = run(tmp_path, "om-queries", 0)
    assert result["failed"] == 1 and not result["correct"]


def test_wrong_cocircuits_fail_ops(tmp_path):
    """An om_of that drops one cocircuit pair on every input agrees with
    itself everywhere; only the enumeration in the checks can see it."""
    shutil.copytree(ROOT / "src", tmp_path / "src")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    om = tmp_path / "src" / "omstrata" / "om.py"
    text = om.read_text(encoding="utf-8")
    correct = "cocircuits = frozenset(SignVector(ground, t) for t in _cocircuit_tuples(ints))"
    assert text.count(correct) == 1
    om.write_text(text.replace(correct, (
        "tuples = sorted(_cocircuit_tuples(ints))\n"
        "    cocircuits = frozenset(SignVector(ground, t) for t in tuples[1:-1])")), encoding="utf-8")
    for workload in ("certificate-deep", "om-queries", "subspace-routes"):
        result = run(tmp_path, workload, 0, seed=1)
        assert result["failed"] == result["attempted"], workload


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
