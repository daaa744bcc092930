"""Smoke test of the benchmark itself, at tiny input sizes.

Usage: python3 bench/smoke.py

For every workload: one untraced run and two traced runs.  Checks that
each result line has exactly the keys correct, attempted, failed and
metrics, that the metric names and units are the ones BENCHMARK.json
declares, that every report was correct, and that the exact counts
(sampling.factor_draws, sampling.unique_draw_share,
calibration.releases_in, evaluation.folds) repeat across the two traced
runs.  Last, it checks that the benchmark
refuses to run, with a nonzero exit and no result, in a directory that
holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT = ("sampling.factor_draws", "sampling.unique_draw_share",
         "calibration.releases_in", "evaluation.folds")


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL {message}")


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, timeout=300,
    )


def result_of(proc, declared, label) -> dict:
    expect(proc.returncode == 0, f"{label}: exit {proc.returncode}: {proc.stderr.decode()[-500:]}")
    result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys {sorted(result)}")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"{label}: {result}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    expect(got == want, f"{label}: metrics {sorted(set(got) ^ set(want))} differ from BENCHMARK.json")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        name = w["name"]
        result_of(run(ROOT, name, 0), spec["end_to_end"], f"{name} trace 0")
        first, second = (result_of(run(ROOT, name, 1), spec["per_layer"], f"{name} trace 1") for _ in range(2))
        for key in EXACT:
            expect(first[key] == second[key], f"{name}: {key} {first[key]} then {second[key]}")
        print(f"ok  {name}: " + ", ".join(f"{k}={first[k]:g}" for k in EXACT))

    bare = ROOT / ".bench_run" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, spec["workloads"][0]["name"], 0)
    expect(proc.returncode != 0 and not proc.stdout.strip(), "ran without the program")
    shutil.rmtree(bare)
    print("ok  refuses to run without the program")
    return 0


if __name__ == "__main__":
    sys.exit(main())
