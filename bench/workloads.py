"""The benchmark's workloads: seeded inputs and the units each one times.

Every workload is a closed loop with one client.  It turns the
benchmark seed into inputs, then offers a warm-up unit and a sequence
of timed units.  A unit is what one latency sample measures: a CLI
invocation, or the prediction of both targets for one release.  Each
unit knows how many ops it completes and how to check its report.

Library functions are looked up on the ``defectcast`` module at call
time, so span wrappers installed later are the ones called.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

EXAMPLE = "demos/data/example_bundle.json"
# predict_bigmc's stream is a fixed cycle of this many positions, each
# with a golden digest.  A 25-s run uses about 30 of them.
GOLDEN_STREAM = 128
CLI_TIMEOUT_S = 120

# The cli_oneshot mix: every command with default flags on the example.
CLI_COMMANDS = {
    "check": ["check"],
    "calibrate": ["calibrate"],
    "predict": [
        "predict", "--size", "130",
        "--levels", "D1=1,D2=1,D3=3,D4=1,D5=0,E1=2,E2=2,E3=3,E4=2,E5=2",
    ],
    "crossval": ["crossval", "--baseline", "dd-median", "--test", "wilcoxon"],
    "ablate": ["ablate"],
    "historysim": ["historysim"],
}

# Samples per predict_bigmc prediction; tiny is for the smoke test.
BIGMC_SAMPLES = {"full": 10**6, "tiny": 10**4}


@dataclass
class Unit:
    key: str  # report identity: equal keys must give equal digests
    ops: int
    call: Callable[[], object]
    check: Callable[[object], tuple[str, list[str]]]  # -> (digest, problems)


@dataclass
class Plan:
    warmup: Unit
    unit: Callable[[int], Unit]  # the i-th timed unit
    fixed: int  # units in the traced run's fixed amount of work
    inputs: dict  # manifest entry: sizes and input digests
    launcher_unit: Callable[[int, Path], Unit] | None = None


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _golden(root: Path, workload: str, scale: str) -> dict:
    if scale != "full":
        return {}
    return json.loads((root / "bench" / "golden.json").read_text()).get(workload, {})


def _unit(golden, key, ops, call, report_of, invariants=lambda result: ()):
    """A unit whose check digests ``report_of(result)`` (str or bytes)."""

    def check(result):
        report = report_of(result)
        digest = hashlib.sha256(report.encode("utf-8") if isinstance(report, str) else report).hexdigest()
        problems = list(invariants(result))
        expected = golden.get(key)
        if expected is not None and expected != digest:
            problems.append(f"{key}: digest {digest[:12]} differs from golden {expected[:12]}")
        return digest, problems

    return Unit(key, ops, call, check)


# -- cli_oneshot ---------------------------------------------------------

def program_env(root: Path) -> dict:
    """This process's environment with the checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (":" + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_oneshot(root: Path, seed: int, scale: str) -> Plan:
    golden = _golden(root, "cli_oneshot", scale)
    env = program_env(root)
    names = sorted(CLI_COMMANDS)
    order: list[str] = []
    rng = random.Random(seed)

    def name_at(i: int) -> str:
        while len(order) <= i:
            order.extend(rng.sample(names, len(names)))
        return order[i]

    def run(argv):
        return subprocess.run(
            [sys.executable, *argv, "--bundle", EXAMPLE],
            cwd=root, env=env, capture_output=True, timeout=CLI_TIMEOUT_S,
        )

    def invariants(proc):
        if proc.returncode != 0:
            yield f"exit code {proc.returncode}: {proc.stderr.decode()[-200:]}"

    def make(name, prefix):
        return _unit(
            golden, name, 1, lambda: run([*prefix, *CLI_COMMANDS[name]]),
            lambda proc: proc.stdout, invariants,
        )

    def launcher_unit(i: int, spans_path: Path) -> Unit:
        launcher = str(root / "bench" / "launcher.py")
        return make(name_at(i), [launcher, "--spans", str(spans_path), "--"])

    return Plan(
        warmup=make("check", ["-m", "defectcast.cli"]),
        unit=lambda i: make(name_at(i), ["-m", "defectcast.cli"]),
        fixed=len(names),
        inputs={"bundle": EXAMPLE, "bundle_sha256": sha256((root / EXAMPLE).read_text()),
                "order_sha256": sha256(",".join(name_at(i) for i in range(60))),
                "n_samples": 10_000, **_example_sizes(root)},
        launcher_unit=launcher_unit,
    )


def _example_sizes(root: Path) -> dict:
    raw = json.loads((root / EXAMPLE).read_text())
    return {
        "releases": len(raw["releases"]),
        "factors": len(raw["factors"]),
        "experts": len({q["expert"] for q in raw["quantifications"]}),
    }


# -- predict_bigmc -------------------------------------------------------

def _prediction_ok(pred, n=None, cap=None):
    values = [pred.quantiles[p] for p in sorted(pred.quantiles)]
    if not all(math.isfinite(v) for v in values + [pred.point]):
        yield f"{pred.target.value}: non-finite quantile"
    if values != sorted(values):
        yield f"{pred.target.value}: quantiles not monotone"
    if n is not None and pred.n_samples != n:
        yield f"{pred.target.value}: n_samples {pred.n_samples}"
    if cap is not None and values[-1] > cap:
        yield f"{pred.target.value}: quantile above {cap}"


def spec_at(i: int, factor_ids: list[str]) -> tuple[float, dict, int]:
    """Size, levels and engine seed of stream position i.

    Levels start at 1, so every active factor is drawn and each
    prediction does the same amount of work.
    """
    rng = random.Random(i)
    size = float(rng.randint(50, 250))
    levels = {fid: rng.randint(1, 3) for fid in factor_ids}
    return size, levels, i


def predict_bigmc(root: Path, seed: int, scale: str) -> Plan:
    """Predictions along the fixed stream; the seed only picks where to start.

    Reports therefore do not depend on the seed, and every position is
    checked against its golden digest.
    """
    import defectcast as dc
    from defectcast.model import Target

    golden = _golden(root, "predict_bigmc", scale)
    n = BIGMC_SAMPLES[scale]
    start = random.Random(seed).randrange(GOLDEN_STREAM)
    bundle = dc.load_bundle(root / EXAMPLE)
    dc_active = bundle.resolve_active(Target.DEFECT_CONTENT)
    eff_active = bundle.resolve_active(Target.EFFECTIVENESS)
    tris = bundle.quantifications
    ctx = dc.calibrate(bundle.included_releases(), dc_active, eff_active, tris,
                       dc.EngineOptions(n_samples=10_000, seed=0, point="mc-median"))
    factor_ids = sorted(f.id for f in bundle.factors)

    def make(k: int) -> Unit:
        """The k-th prediction of this run; 0 is the warm-up."""
        i = (start + k) % GOLDEN_STREAM
        size, levels, engine_seed = spec_at(i, factor_ids)
        options = dc.EngineOptions(n_samples=n, seed=engine_seed, point="mc-median")
        spec = dc.NewReleaseSpec(size=size, levels=levels)

        def call():
            return (
                dc.predict_defect_content(ctx, spec, dc_active, tris, options),
                dc.predict_effectiveness(ctx, spec, eff_active, tris, options),
            )

        def invariants(pair):
            pdc, peff = pair
            yield from _prediction_ok(pdc, n)
            yield from _prediction_ok(peff, n, cap=1.0)
            # mc-median: the point is the median sample, mapped through a
            # monotone transform, so it equals the 0.5 quantile exactly.
            for p in pair:
                if p.point != p.quantiles[0.5]:
                    yield f"{p.target.value}: point {p.point} != median {p.quantiles[0.5]}"

        return _unit(golden, f"stream/{i}", 1, call,
                     lambda pair: dc.render_report(pair[0], "json") + dc.render_report(pair[1], "json"),
                     invariants)

    stream = "".join(repr(spec_at(i, factor_ids)) for i in range(GOLDEN_STREAM))
    return Plan(
        warmup=make(0),
        unit=lambda i: make(i + 1),
        fixed=3,
        inputs={"bundle": EXAMPLE, "bundle_sha256": sha256((root / EXAMPLE).read_text()),
                "stream_sha256": sha256(stream), "stream_start": start, "n_samples": n,
                "point": "mc-median", **_example_sizes(root)},
    )


WORKLOADS = {
    "cli_oneshot": cli_oneshot,
    "predict_bigmc": predict_bigmc,
}
