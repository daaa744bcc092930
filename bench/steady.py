"""Steadiness report: repeat the benchmark and compare spreads to bounds.

Usage:
    python3 bench/steady.py [--runs 10] [--compare EARLIER.json]

Runs ``bench/run.py --trace 0`` once per seed (seeds 100, 101, ...)
for each workload of BENCHMARK.json, one run at a time, and writes the
results to .bench_run/steady.json.  For each end-to-end metric it
prints the median, the quartiles, and the interquartile spread as a
share of the median next to the metric's bound.  A spread is steady
when it is below a third of the bound.  With --compare it also checks
that each median is not worse than the earlier set's by more than the
bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIRST_SEED = 100
OUT = ROOT / ".bench_run" / "steady.json"


def run_once(workload: str, seed: int, seconds: int) -> dict:
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr.decode()[-500:]}")
    result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - start
    result["seed"] = seed
    return result


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--compare", default=None, help="an earlier steady.json to compare medians with")
    args = parser.parse_args()

    earlier = json.loads(Path(args.compare).read_text()) if args.compare else {}
    report, all_ok = {}, True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, FIRST_SEED + i, spec["run_seconds"]) for i in range(args.runs)]
        walls = [r["wall_s"] for r in runs]
        print(f"{workload}: {len(runs)} runs, wall {min(walls):.1f}-{max(walls):.1f} s, "
              f"correct {sum(r['correct'] for r in runs)}/{len(runs)}")
        all_ok &= all(r["correct"] for r in runs)
        report[workload] = {"runs": runs, "metrics": {}}
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            s = summarize([r["metrics"][name]["value"] for r in runs])
            report[workload]["metrics"][name] = s
            steady = s["spread"] < bound / 3
            line = (f"  {name:<12} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g}"
                    f" spread {s['spread']:.4f} bound {bound} {'steady' if steady else 'NOT STEADY'}")
            ok = steady
            if workload in earlier:
                before = earlier[workload]["metrics"][name]["median"]
                change = (s["median"] - before) / before
                worse = change > bound if m["better"] == "lower" else -change > bound
                line += f" vs earlier {change:+.4f} {'WORSE' if worse else 'ok'}"
                ok &= not worse
            all_ok &= ok
            print(line)
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(json.dumps(report, indent=1))
    print("all steady" if all_ok else "NOT all steady")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
