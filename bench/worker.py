"""One segment of a benchmark run, in a fresh interpreter.

Sets up (imports, input generation, bundle write and load, one warm-up
unit), then runs timed units until its share of the run's time is used,
and prints one JSON line with what it measured.  The parent passes its
monotonic clock reading from just before it started this process, so
set-up time counts from interpreter start.

With ``--traced`` it instead runs the workload's fixed amount of work
twice, without and then with span wrappers, and reports the per-layer
metrics of the traced pass.  The traced pass runs the next units, not
the same ones again, so nothing it does can be served from what the
untraced pass left behind.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


class Segment:
    """Outcome of the units one worker ran."""

    def __init__(self):
        self.seconds: list[float] = []
        self.spent = 0.0  # time in timed units, failed ones too
        self.ops = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}

    def run(self, unit, timed=True) -> None:
        """Run and check one unit; a timed unit that passes adds a sample."""
        self.attempted += 1
        start = perf_counter()
        elapsed, digest = None, None
        try:
            result = unit.call()
            elapsed = perf_counter() - start
            digest, problems = unit.check(result)
        except Exception as exc:  # a failing op is counted, the run goes on
            problems = [f"{unit.key}: {type(exc).__name__}: {exc}"]
        if elapsed is None:
            elapsed = perf_counter() - start
        if digest is not None and self.digests.setdefault(unit.key, digest) != digest:
            problems.append(f"{unit.key}: report differs from its earlier run")
        if timed:
            self.spent += elapsed
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        elif timed:
            self.seconds.append(elapsed)
            self.ops += unit.ops

    def result(self) -> dict:
        return {
            "seconds": self.seconds, "spent": self.spent, "ops": self.ops, "attempted": self.attempted,
            "failed": self.failed, "problems": self.problems[:20], "digests": self.digests,
        }


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def timed_segment(plan, budget: float, offset: int, t0: float) -> dict:
    seg = Segment()
    seg.run(plan.warmup, timed=False)
    setup_s = time.monotonic() - t0
    i = offset
    while True:
        seg.run(plan.unit(i))
        i += 1
        if seg.spent >= budget:
            break
    return {"setup_s": setup_s, "next_offset": i, **seg.result()}


def traced_segment(plan, workload: str, seed: int, imports: dict) -> dict:
    import spans

    work = ROOT / ".bench_run"
    seg = Segment()
    seg.run(plan.warmup, timed=False)
    for i in range(plan.fixed):
        seg.run(plan.unit(i))
    untraced = list(seg.seconds)
    seg.seconds.clear()
    ops = seg.ops
    dumps, main_s = [], []
    if plan.launcher_unit is None:
        tracer = spans.Tracer()
        tracer.install()
        for i in range(plan.fixed, 2 * plan.fixed):
            tracer.op = i
            seg.run(plan.unit(i))
        tracer.uninstall()
        dumps.append(tracer.dump())
    else:
        import_s, numpy_s = [], []
        for i in range(plan.fixed, 2 * plan.fixed):
            path = work / f"spans-{workload}-s{seed}-{i}.json"
            path.unlink(missing_ok=True)
            seg.run(plan.launcher_unit(i, path))
            if not path.exists():
                continue  # the launcher died before writing; the unit counted as failed
            record = json.loads(path.read_text())
            dumps.append(record)
            import_s.append(record["import_s"])
            numpy_s.append(record["numpy_import_s"])
            main_s.append(record["main_s"])
        imports = {"import_s": median(import_s), "numpy_import_s": median(numpy_s)}
    traced = seg.seconds
    metrics = spans.layer_metrics(dumps)
    untraced_rate = ops / sum(untraced) if untraced else 0.0
    traced_rate = ops / sum(traced) if traced else 0.0
    metrics.update({
        "cli.import_s": imports["import_s"],
        "cli.numpy_import_s": imports["numpy_import_s"],
        "cli.main_s": median(main_s),
        "trace.overhead_share": 1.0 - traced_rate / untraced_rate if untraced_rate else 0.0,
    })
    (work / f"spans-{workload}-s{seed}.json").write_text(json.dumps(dumps))
    return {"metrics": metrics, "units": len(traced), **seg.result()}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--budget", type=float, default=0.0)
    parser.add_argument("--offset", type=int, default=0)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()

    import workloads

    imports = {}
    if args.workload != "cli_oneshot":
        start = perf_counter()
        import numpy  # noqa: F401
        imports["numpy_import_s"] = perf_counter() - start
        import defectcast  # noqa: F401
        imports["import_s"] = perf_counter() - start
        if not Path(defectcast.__file__).resolve().is_relative_to(ROOT / "src"):
            raise SystemExit(f"defectcast imported from {defectcast.__file__}, not from this checkout")
    plan = workloads.WORKLOADS[args.workload](ROOT, args.seed, args.scale)
    if args.traced:
        out = traced_segment(plan, args.workload, args.seed, imports)
    else:
        out = timed_segment(plan, args.budget, args.offset, args.t0)
    out["inputs"] = plan.inputs
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
