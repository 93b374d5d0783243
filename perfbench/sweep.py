"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --workloads om-queries --seeds 1-5 --seconds 20 --trace 0
    python3 perfbench/sweep.py --seeds 1-10 --trace 0,1 --out perfbench/BENCH_seed.json
    python3 perfbench/sweep.py --seeds 1-10 --label untraced_repeat --out perfbench/BENCH_seed.json

For every workload and metric it reports the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, and flags each
end-to-end spread (but that of setup_s) over a third of its bound in
BENCHMARK.json.  A seed list may repeat a seed (``--seeds 3,3,3,3,3``) to
see how far runs of the same inputs spread.  Each set of runs is stored
under its label (by default ``untraced`` or ``trace``) and merged into an
existing ``--out`` file.  Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def host() -> dict:
    """Python version, nproc, CPU model and commit, from the last run's result file."""
    last = max((HERE / "out").glob("result-*.json"), key=lambda p: p.stat().st_mtime)
    metadata = json.loads(last.read_text(encoding="utf-8"))["metadata"]
    return {key: metadata[key] for key in ("python", "nproc", "cpu_model", "commit")}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(runs: list[dict]) -> dict:
    table = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        table[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values,
        }
    return table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="certificate-deep,om-queries,subspace-routes,build-ledger-deep")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", default="0", help="0, 1 or 0,1")
    parser.add_argument("--label", help="name of this set of runs (default: untraced or trace)")
    parser.add_argument("--out", help="merge the summary into this JSON file")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = Path(args.out) if args.out else None
    summary = json.loads(out.read_text(encoding="utf-8")) if out and out.exists() else {}
    summary.setdefault("sets", {})
    summary.setdefault("workloads", {})
    seeds = seed_list(args.seeds)
    for workload in args.workloads.split(","):
        for trace in (int(t) for t in args.trace.split(",")):
            label = args.label or ("trace" if trace else "untraced")
            summary["sets"][label] = {"seeds": seeds, "seconds": args.seconds, "trace": trace}
            runs = [run_once(workload, seed, args.seconds, trace) for seed in seeds]
            if not all(r["correct"] for r in runs):
                print(f"{workload}: a run reported failed ops", file=sys.stderr)
            table = summarise(runs)
            summary["workloads"].setdefault(workload, {})[label] = table
            for name, row in table.items():
                flag = ""
                if name in bounds and name != "setup_s" and row["spread"] > bounds[name] / 3:
                    flag = f"  <-- over a third of bound {bounds[name]}"
                print(f"{workload:18} {name:34} median {row['median']:.6g} {row['unit']:5} "
                      f"q1 {row['q1']:.6g} q3 {row['q3']:.6g} spread {row['spread']:.3f}{flag}")
    summary["host"] = host()
    if out:
        out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
