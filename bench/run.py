"""defectcast benchmark: run one workload and print its metrics.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics of BENCHMARK.json, measured over several fresh worker processes
(each one a set-up followed by its share of the timed units).
``--trace 1`` runs the workload's fixed amount of work once without and
once with span wrappers, and prints the per-layer metrics.  The last
line of stdout is the JSON result; a run manifest precedes it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SEGMENTS = 7  # fresh processes per untimed run, so setup_s is a median
DEADLINE_S = 170
REQUIRED = ("BENCHMARK.json", "src/defectcast/cli.py", "demos/data/example_bundle.json")


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def spawn_worker(argv: list[str], deadline: float) -> dict:
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), *argv, "--t0", repr(time.monotonic())],
        cwd=ROOT, env=workloads.program_env(ROOT), stdout=subprocess.PIPE,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def untraced(workload: str, seed: int, seconds: float, scale: str, deadline: float) -> dict:
    segments, offset = [], 0
    for k in range(SEGMENTS):
        done = sum(s["spent"] for s in segments)
        budget = seconds * (k + 1) / SEGMENTS - done
        seg = spawn_worker(
            ["--workload", workload, "--seed", str(seed), "--scale", scale,
             "--budget", repr(budget), "--offset", str(offset)],
            deadline,
        )
        offset = seg["next_offset"]
        segments.append(seg)
    latencies = [t for s in segments for t in s["seconds"]]
    ops = sum(s["ops"] for s in segments)
    attempted = sum(s["attempted"] for s in segments)
    failed = sum(s["failed"] for s in segments)
    problems = [p for s in segments for p in s["problems"]]
    digests: dict[str, str] = {}
    for s in segments:
        for key, digest in s["digests"].items():
            if digests.setdefault(key, digest) != digest:
                problems.append(f"{key}: report differs between worker processes")
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in segments),
        "ops_per_s": ops / sum(latencies) if latencies else 0.0,
        "op_p50_s": statistics.median(latencies) if latencies else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "ok_share": 1.0 - failed / attempted,
    }
    counts = {"ops": ops, "units": len(latencies), "segments": len(segments),
              "setups_s": [s["setup_s"] for s in segments]}
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems, "counts": counts, "inputs": segments[0]["inputs"]}


def traced(workload: str, seed: int, scale: str, deadline: float) -> dict:
    seg = spawn_worker(["--workload", workload, "--seed", str(seed), "--scale", scale, "--traced"], deadline)
    counts = {"units": seg["units"], "ops_traced": seg["ops"] // 2}
    return {"metrics": seg["metrics"], "attempted": seg["attempted"], "failed": seg["failed"],
            "problems": seg["problems"], "counts": counts, "inputs": seg["inputs"]}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "defectcast").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _git_commit() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.decode().split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def _versions() -> dict:
    out = {"python": platform.python_version()}
    for package in ("numpy", "scipy"):
        try:
            out[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            out[package] = "unknown"
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the benchmark's smoke test")
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        return fail(f"not a defectcast checkout, missing {', '.join(missing)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    if args.seed < 0 or args.seconds <= 0:
        return fail("--seed must be >= 0 and --seconds > 0")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    (ROOT / ".bench_run").mkdir(exist_ok=True)

    try:
        if args.trace:
            out = traced(args.workload, args.seed, args.scale, deadline)
        else:
            out = untraced(args.workload, args.seed, args.seconds, args.scale, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        return fail(f"{args.workload} did not complete: {exc}")

    metrics = {m["name"]: {"value": out["metrics"][m["name"]], "unit": m["unit"]} for m in declared}
    correct = out["failed"] == 0 and not out["problems"]
    manifest = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "git_commit": _git_commit(),
        "source_sha256": _source_sha256(), "nproc": os.cpu_count(), "cpu": _cpu_model(),
        **_versions(), "inputs": out["inputs"], "counts": out["counts"],
    }
    for name, m in metrics.items():
        note = f" (n={out['counts']['units']})" if name == "op_p50_s" else ""
        print(f"{args.workload:<18} {name:<36} {m['value']:>14.6g} {m['unit']}{note}")
    print(f"{args.workload:<18} {'fail_share':<36} {out['failed'] / out['attempted']:>14.6g} "
          f"({out['failed']} of {out['attempted']} units)")
    for problem in out["problems"]:
        print(f"problem: {problem}")
    print("manifest: " + json.dumps(manifest, sort_keys=True))
    with open(ROOT / ".bench_run" / f"result-{args.workload}-s{args.seed}-t{args.trace}.json", "w") as fh:
        json.dump({"manifest": manifest, "metrics": metrics, "problems": out["problems"]}, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
