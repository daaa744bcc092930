"""Acceptance suite: one test per release criterion.

Each test prints a single pass/fail line (run with -s or look at the
captured output).  Tolerances are fixed here, not calibrated later.
"""

import functools
import itertools
import math
import time

import numpy as np
import pytest
from scipy.stats import rankdata

from defectcast import (
    EngineOptions,
    MODEL_DD_MEDIAN,
    MODEL_INFLUENCE_FACTOR,
    NewReleaseSpec,
    Target,
    aggregate_rankings,
    calibrate,
    defect_content,
    effectiveness,
    history_simulation,
    loocv,
    predict_defect_content,
    predict_effectiveness,
    triangle_inverse_cdf,
    triangle_variance,
    wilcoxon_one_sided,
)
from defectcast.cli import main as cli_main
from defectcast.model import _base

from conftest import (
    EXAMPLE_BUNDLE,
    make_dominant_factor_bundle,
    make_factor,
    make_release,
    make_triangle,
    summarize_mres,
)
from synth import make_synthetic_bundle
from test_evaluation import MRE_DC, MRE_DD, MRE_EFF, MRE_IF, MRE_IF_EFF


def criterion(label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL  {label}")
                raise
            print(f"PASS  {label}")

        return run

    return wrap


@criterion("1. published accuracy aggregates reproduced within 0.005")
def test_criterion_1_table_fixtures():
    start = time.perf_counter()
    expected = [
        (MRE_DC, 0.87, 0.25),
        (MRE_DD, 0.40, 0.63),
        (MRE_IF, 0.30, 0.75),
        (MRE_EFF, 0.12, 0.88),
        (MRE_IF_EFF, 0.10, 0.88),
    ]
    for mres, mmre, pred25 in expected:
        report = summarize_mres(mres)
        # boundary-inclusive with a float guard (0.875 - 0.87 is 0.005)
        assert abs(report.mmre - mmre) <= 0.005 + 1e-12
        assert abs(report.pred[0.25] - pred25) <= 0.005 + 1e-12
    assert time.perf_counter() - start < 1.0


@criterion("2. signed-rank significance calls and exact-test oracle")
def test_criterion_2_wilcoxon():
    dc = wilcoxon_one_sided(list(zip(MRE_IF, MRE_DD)))
    assert dc.method == "exact_enumeration"
    assert dc.p_one_sided <= 0.05
    eff = wilcoxon_one_sided(list(zip(MRE_IF_EFF, MRE_EFF)))
    assert eff.p_one_sided > 0.05

    rng = np.random.default_rng(12345)
    for _ in range(50):
        n = int(rng.integers(1, 11))
        pairs = [tuple(rng.random(2)) for _ in range(n)]
        d = np.array([b - a for a, b in pairs])
        d = d[d != 0]
        ranks = rankdata(np.round(np.abs(d), 12))
        observed = ranks[d < 0].sum()
        count = sum(
            1
            for signs in itertools.product([1, -1], repeat=d.size)
            if sum(r for r, s in zip(ranks, signs) if s < 0) <= observed
        )
        assert wilcoxon_one_sided(pairs).p_one_sided == count / 2**d.size


@criterion("3. triangular sampler statistics over 20 random triangles")
def test_criterion_3_sampler():
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    n = 100_000
    for _ in range(20):
        a, m, b = np.sort(rng.random(3))
        tri = make_triangle(a=a, m=m, b=b)
        draws = np.asarray(triangle_inverse_cdf(tri, rng.random(n)))
        assert draws.min() >= a - 1e-12 and draws.max() <= b + 1e-12
        sigma = math.sqrt(triangle_variance(tri))
        assert abs(draws.mean() - (a + m + b) / 3) <= 3 * sigma / math.sqrt(n)
    assert time.perf_counter() - start < 5.0


@criterion("4. equation inversion and self-prediction round trips")
def test_criterion_4_round_trips():
    rng = np.random.default_rng(7)
    for _ in range(100):
        r = make_release(
            size=float(rng.integers(1, 500)),
            found=float(rng.integers(0, 200)),
            slipped=float(rng.integers(0, 200)),
        )
        increase = float(rng.uniform(0, 3))
        dd_base = _base(Target.DEFECT_CONTENT, r, increase)
        assert dd_base * r.size * (1 + increase) == pytest.approx(
            defect_content(r), rel=1e-12, abs=1e-12
        )
        eff_base = _base(Target.EFFECTIVENESS, r, increase)
        if defect_content(r) > 0:
            assert eff_base * (1 + increase) == pytest.approx(
                effectiveness(r), rel=1e-12
            )
        else:
            assert eff_base is None

    dc_f, eff_f = make_factor("D1"), make_factor("E1", Target.EFFECTIVENESS)
    tris = [
        make_triangle("D1", 0.1, 0.2, 0.4),
        make_triangle("E1", 0.0, 0.1, 0.2, target=Target.EFFECTIVENESS),
    ]
    release = make_release(size=130, found=52, slipped=11,
                           levels={"D1": 2, "E1": 1})
    for point in ("analytic-mean", "mc-median"):
        opts = EngineOptions(point=point)
        ctx = calibrate([release], [dc_f], [eff_f], tris, opts)
        spec = NewReleaseSpec(size=release.size, levels=release.levels)
        dc = predict_defect_content(ctx, spec, [dc_f], tris, opts)
        eff = predict_effectiveness(ctx, spec, [eff_f], tris, opts)
        assert dc.point == pytest.approx(defect_content(release), rel=1e-9)
        assert eff.point == pytest.approx(effectiveness(release), rel=1e-9)


@criterion("5. effectiveness clipping with mass exactly at 1.0")
def test_criterion_5_clipping():
    eff_f = make_factor("E1", Target.EFFECTIVENESS)
    tris = [make_triangle("E1", 0.30, 0.40, 0.50, target=Target.EFFECTIVENESS)]
    release = make_release(found=90, slipped=10, levels={"E1": 0})
    ctx = calibrate([release], [], [eff_f], tris)
    assert ctx.eff_base_median == pytest.approx(0.9)
    pred = predict_effectiveness(
        ctx, NewReleaseSpec(size=100, levels={"E1": 3}), [eff_f], tris,
        EngineOptions(n_samples=20_000),
        probs=(0.05, 0.25, 0.5, 0.75, 0.95, 1.0),
    )
    assert pred.point <= 1.0
    assert all(0.0 <= q <= 1.0 for q in pred.quantiles.values())
    # raw samples reach 0.9 * 1.5 = 1.35, so clipped mass sits at 1.0
    assert pred.quantiles[1.0] == 1.0
    assert pred.quantiles[0.75] == 1.0


@criterion("6. hybrid model beats density baseline on exact synthetic data")
def test_criterion_6_synthetic_h12():
    start = time.perf_counter()
    successes = 0
    for seed in range(10):
        bundle = make_synthetic_bundle(seed=seed, n_releases=10)
        assert len(bundle.included_releases()) >= 8
        hybrid = loocv(bundle, MODEL_INFLUENCE_FACTOR)
        baseline = loocv(bundle, MODEL_DD_MEDIAN)
        p = wilcoxon_one_sided(hybrid.mre_pairs(baseline)).p_one_sided
        if hybrid.mmre < baseline.mmre and p <= 0.05:
            successes += 1
    assert successes >= 9
    assert time.perf_counter() - start < 30.0


@criterion("7. ablation and growing-history structural checks")
def test_criterion_7_rq2_rq3():
    bundle = make_synthetic_bundle(seed=2)
    ranked = [
        rf.factor_id
        for rf in aggregate_rankings(list(bundle.rankings),
                                     Target.DEFECT_CONTENT)
    ]
    from defectcast import ablation_curve

    k0 = ablation_curve(bundle, Target.DEFECT_CONTENT, ranked, [0]).reports[0]
    baseline = loocv(bundle, MODEL_DD_MEDIAN)
    assert [c.predicted for c in k0.cases] == [c.predicted for c in baseline.cases]
    assert k0.mmre == baseline.mmre

    dominant = make_dominant_factor_bundle(seed=1)
    order = [
        rf.factor_id
        for rf in aggregate_rankings(list(dominant.rankings),
                                     Target.DEFECT_CONTENT)
    ]
    curve = ablation_curve(dominant, Target.DEFECT_CONTENT, order, [0, 1])
    assert curve.reports[1].mmre < curve.reports[0].mmre

    constant = make_synthetic_bundle(seed=0, constant=True)
    import inspect

    assert inspect.signature(history_simulation).parameters["start_m"].default == 4
    history = history_simulation(constant)
    # The first case is predicted from the first 4 releases.
    assert history.accuracy.cases[0].release_id == constant.included_releases()[4].id
    assert all(c.mre == pytest.approx(0, abs=1e-12) for c in history.accuracy.cases)


@criterion("8. every CLI command is byte-deterministic at a fixed seed")
def test_criterion_8_cli_determinism(tmp_path, capsys):
    commands = [
        ["check"],
        ["rank", "--target", "defect-content"],
        ["calibrate"],
        ["predict", "--size", "130", "--point", "mc-median",
         "--levels", "D1=1,D2=1,D3=3,D4=1,D5=0,E1=2,E2=2,E3=3,E4=2,E5=2"],
        ["crossval", "--model", "influence-factor", "--baseline", "dd-median",
         "--test", "wilcoxon"],
        ["ablate", "--ks", "0,1,3,5"],
        ["historysim", "--start", "4"],
    ]
    for i, command in enumerate(commands):
        blobs = []
        for attempt in range(2):
            out = tmp_path / f"cmd{i}_{attempt}.json"
            code = cli_main(
                [command[0], "--bundle", str(EXAMPLE_BUNDLE), "--seed", "3",
                 *command[1:], "--out", str(out)]
            )
            capsys.readouterr()
            assert code == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
