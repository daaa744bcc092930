import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defectcast import (
    CalibratedContext,
    EngineOptions,
    NewReleaseSpec,
    NoEffectivenessHistoryError,
    Prediction,
    Target,
    calibrate,
    defect_content,
    effectiveness,
    empirical_quantile,
    increase_distribution,
    load_bundle,
    predict_defect_content,
    predict_defects_found,
    predict_effectiveness,
)

from defectcast import prediction
from defectcast.sampling import _BLOCK

from conftest import EXAMPLE_BUNDLE, cut_into, make_factor, make_release, make_triangle

DC_F = make_factor("D1")
EFF_F = make_factor("E1", Target.EFFECTIVENESS)
TRIS = [
    make_triangle("D1", 0.10, 0.15, 0.25),
    make_triangle("E1", 0.10, 0.20, 0.30, target=Target.EFFECTIVENESS),
]


def simple_context(found=40, slipped=10, size=100, d1=0, e1=0):
    r = make_release(size=size, found=found, slipped=slipped,
                     levels={"D1": d1, "E1": e1})
    return calibrate([r], [DC_F], [EFF_F], TRIS), r


class TestNewReleaseSpec:
    def test_levels_pairs_rejected(self):
        # dict() would take the pairs and silently keep the last level for D1.
        with pytest.raises(ValueError, match="^levels must be an object, got an array"):
            NewReleaseSpec(size=1, levels=[("D1", 0), ("D2", 1), ("D1", 3)])


class TestPredictDefectContent:
    def test_zero_levels_base_case(self):
        ctx, _ = simple_context()
        pred = predict_defect_content(
            ctx, NewReleaseSpec(size=200, levels={"D1": 0}), [DC_F], TRIS
        )
        assert pred.point == pytest.approx(200 * ctx.dd_base_median)

    @pytest.mark.parametrize("probs", [[1.5, -2.0, 0.5], [math.nan]])
    def test_quantile_outside_the_unit_interval_rejected(self, probs):
        # 1.5 used to be reported as the maximum sample and -2 as the minimum.
        ctx, _ = simple_context()
        spec = NewReleaseSpec(size=200, levels={"D1": 0})
        with pytest.raises(ValueError, match=r"^p must be in \[0, 1\], got "):
            predict_defect_content(ctx, spec, [DC_F], TRIS, probs=probs)

    def test_analytic_mean_composition(self):
        # dd_base_median 0.4 needs ddif 0.25 on the history: use a
        # degenerate triangle so the point is exact.
        tris = [make_triangle("D1", 0.25, 0.25, 0.25)]
        r = make_release(size=100, found=40, slipped=10, levels={"D1": 3})
        ctx = calibrate([r], [DC_F], [], tris)
        assert ctx.dd_base_median == pytest.approx(0.4)
        pred = predict_defect_content(
            ctx, NewReleaseSpec(size=100, levels={"D1": 0}), [DC_F], tris
        )
        assert pred.point == pytest.approx(40.0)
        # level 3 with the (0.10, 0.15, 0.25) triangle: 100*0.4*(1+1/6)
        pred3 = predict_defect_content(
            ctx,
            NewReleaseSpec(size=100, levels={"D1": 3}),
            [DC_F],
            [make_triangle("D1", 0.10, 0.15, 0.25)],
        )
        assert pred3.point == pytest.approx(100 * 0.4 * (1 + 0.5 / 3))
        assert pred3.point == pytest.approx(46.67, abs=0.005)

    def test_mc_median_strategy_cross_check(self):
        tris = [make_triangle("D1", 0.25, 0.25, 0.25)]
        r = make_release(size=100, found=40, slipped=10, levels={"D1": 3})
        ctx = calibrate([r], [DC_F], [], tris,
                        EngineOptions(point="mc-median"))
        pred = predict_defect_content(
            ctx,
            NewReleaseSpec(size=100, levels={"D1": 3}),
            [DC_F],
            [make_triangle("D1", 0.10, 0.15, 0.25)],
            EngineOptions(point="mc-median", n_samples=100_000),
        )
        # MC median of the triangle: m at 1/3 mass, median approx 0.1634
        assert pred.point == pytest.approx(100 * 0.4 * 1.1634, rel=2e-3)

    def test_scale_equivariance(self):
        ctx, _ = simple_context(d1=2)
        spec1 = NewReleaseSpec(size=100, levels={"D1": 2})
        spec2 = NewReleaseSpec(size=200, levels={"D1": 2})
        p1 = predict_defect_content(ctx, spec1, [DC_F], TRIS)
        p2 = predict_defect_content(ctx, spec2, [DC_F], TRIS)
        assert p2.point == 2 * p1.point
        for q in p1.quantiles:
            assert p2.quantiles[q] == 2 * p1.quantiles[q]

    def test_level_monotonicity(self):
        ctx, _ = simple_context()
        points = [
            predict_defect_content(
                ctx, NewReleaseSpec(size=100, levels={"D1": lvl}), [DC_F], TRIS
            ).point
            for lvl in range(4)
        ]
        assert points == sorted(points)


class TestPredictEffectiveness:
    def test_direct_substitution(self):
        # eff_base_median 0.5, eif 0.6 -> 0.8, via degenerate triangles
        tris = [make_triangle("E1", 0.6, 0.6, 0.6, target=Target.EFFECTIVENESS)]
        r = make_release(found=40, slipped=10, levels={"E1": 3})
        ctx = calibrate([r], [], [EFF_F], tris)
        assert ctx.eff_base_median == pytest.approx(0.5)
        pred = predict_effectiveness(
            ctx, NewReleaseSpec(size=100, levels={"E1": 3}), [EFF_F], tris
        )
        assert pred.point == pytest.approx(0.8)

    def test_zero_levels_base_case(self):
        ctx, _ = simple_context()
        pred = predict_effectiveness(
            ctx, NewReleaseSpec(size=100, levels={"E1": 0}), [EFF_F], TRIS
        )
        assert pred.point == pytest.approx(ctx.eff_base_median)

    def test_clipping_of_point_and_samples(self):
        # base 0.9 with increases up to 0.5 forces raw values up to 1.35
        tris = [make_triangle("E1", 0.30, 0.40, 0.50,
                              target=Target.EFFECTIVENESS)]
        r = make_release(found=90, slipped=10, levels={"E1": 0})
        ctx = calibrate([r], [], [EFF_F], tris)
        assert ctx.eff_base_median == pytest.approx(0.9)
        pred = predict_effectiveness(
            ctx, NewReleaseSpec(size=100, levels={"E1": 3}), [EFF_F], tris,
            EngineOptions(n_samples=20_000),
        )
        assert pred.point == 1.0
        assert all(0 <= v <= 1.0 for v in pred.quantiles.values())
        assert pred.quantiles[0.95] == 1.0  # clipped mass sits exactly at 1

    def test_no_effectiveness_history(self):
        r = make_release(found=0, slipped=0, levels={"D1": 0, "E1": 0})
        ctx = calibrate([r], [DC_F], [EFF_F], TRIS)
        with pytest.raises(NoEffectivenessHistoryError):
            predict_effectiveness(
                ctx, NewReleaseSpec(size=10, levels={"E1": 0}), [EFF_F], TRIS
            )


class TestSelfPredictionRoundTrip:
    @pytest.mark.parametrize("point", ["analytic-mean", "mc-median"])
    def test_single_history_identity(self, point):
        opts = EngineOptions(point=point)
        r = make_release(size=130, found=52, slipped=11,
                         levels={"D1": 2, "E1": 1})
        ctx = calibrate([r], [DC_F], [EFF_F], TRIS, opts)
        spec = NewReleaseSpec(size=r.size, levels=r.levels)
        dc = predict_defect_content(ctx, spec, [DC_F], TRIS, opts)
        eff = predict_effectiveness(ctx, spec, [EFF_F], TRIS, opts)
        assert dc.point == pytest.approx(defect_content(r), rel=1e-9)
        assert eff.point == pytest.approx(effectiveness(r), rel=1e-9)


class TestPredictDefectsFound:
    def test_product(self, ):
        ctx, _ = simple_context()
        spec = NewReleaseSpec(size=100, levels={"D1": 0, "E1": 0})
        dc = predict_defect_content(ctx, spec, [DC_F], TRIS)
        eff = predict_effectiveness(ctx, spec, [EFF_F], TRIS)
        assert predict_defects_found(dc, eff) == dc.point * eff.point


def reference_predict(target, base, spec, factors, triangles, options, probs):
    """The prediction body before it drew into one array: the increase
    distribution, the model equation on its point, and a transformed,
    sorted copy of its samples for the quantiles."""
    if factors:
        result = increase_distribution(
            factors, triangles, spec.levels, target, options
        )
        increase_point, increase_samples = result.point, result.samples
    else:
        increase_point, increase_samples = 0.0, np.zeros(options.n_samples)
    scale = spec.size * base if target == Target.DEFECT_CONTENT else base
    point = (1.0 + increase_point) * scale
    samples = (1.0 + increase_samples) * scale
    if target == Target.EFFECTIVENESS:
        point = min(point, 1.0)
        samples = np.minimum(samples, 1.0)
    samples.sort()
    return Prediction(
        target=target,
        point=point,
        quantiles={p: empirical_quantile(samples, p) for p in probs},
        n_samples=options.n_samples,
        seed=options.seed,
    )


@st.composite
def prediction_cases(draw):
    """A target with 0 to 3 active factors of 1 to 3 experts each, and a
    base and size.  Effectiveness bases near 1 with increases up to 1 put
    mass on the clip at 1."""
    target = draw(st.sampled_from(list(Target)))
    prefix = "D" if target == Target.DEFECT_CONTENT else "E"
    factors, triangles, levels = [], [], {}
    for i in range(draw(st.integers(0, 3))):
        fid = f"{prefix}{i + 1}"
        factors.append(make_factor(fid, target))
        levels[fid] = draw(st.integers(0, 3))
        for j in range(draw(st.integers(1, 3))):
            a, m, b = sorted(draw(st.floats(0, 1)) for _ in range(3))
            triangles.append(make_triangle(fid, a, m, b, target=target,
                                           expert=f"X{j}"))
    if target == Target.DEFECT_CONTENT:
        base = draw(st.floats(0.01, 2.0))
    else:
        base = draw(st.floats(0.3, 1.0))
    spec = NewReleaseSpec(size=draw(st.floats(1.0, 1e4)), levels=levels)
    options = EngineOptions(
        n_samples=draw(st.sampled_from([1, 2, _BLOCK + 1])),
        seed=draw(st.integers(0, 2**32 - 1)),
        point=draw(st.sampled_from(["analytic-mean", "mc-median"])),
    )
    return target, base, spec, factors, triangles, options


def hexed(pred):
    return (pred.point.hex(), {p: v.hex() for p, v in pred.quantiles.items()},
            pred.n_samples, pred.seed)


class TestAgainstReferencePrediction:
    PROBS = (0.0, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0)

    @settings(max_examples=150, deadline=None)
    @given(case=prediction_cases())
    def test_bit_identical_to_reference(self, case):
        target, base, spec, factors, triangles, options = case
        ctx = CalibratedContext({}, dd_base_median=base, eff_base_median=base,
                                included_ids=("R",))
        predict = (predict_defect_content if target == Target.DEFECT_CONTENT
                   else predict_effectiveness)
        got = predict(ctx, spec, factors, triangles, options, self.PROBS)
        expected = reference_predict(target, base, spec, factors, triangles,
                                     options, self.PROBS)
        assert hexed(got) == hexed(expected)


def in_place_reference(target, size, base, increase, mean, point, probs):
    """The model equation on the whole sample array, as predictions once
    applied it: the increase samples transformed in place (+= 1, *= scale,
    clipped at 1), then sorted, and the point read off that array."""
    scale = size * base if target == Target.DEFECT_CONTENT else base
    samples = increase.copy()
    samples += 1.0
    samples *= scale
    if target == Target.EFFECTIVENESS:
        np.minimum(samples, 1.0, out=samples)
    samples.sort()
    if point == "analytic-mean":
        value = mean
        value += 1.0
        value *= scale
        if target == Target.EFFECTIVENESS:
            value = min(value, 1.0)
    else:
        value = empirical_quantile(samples, 0.5)
    return value, {p: empirical_quantile(samples, p) for p in probs}


# Increases are >= 0, as every expert triangle is; a few fixed values
# give ties, zeros and, on effectiveness, values that clip at 1.
_INCREASE = st.one_of(st.sampled_from([0.0, 0.25, 1.0, 3.0]), st.floats(0, 4))
_PROB = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0, 1))


class TestFloatModelEquation:
    """Only the reported quantiles and the point go through the model
    equation; the samples are sorted as drawn."""

    @settings(max_examples=200, deadline=None)
    @given(
        target=st.sampled_from(list(Target)),
        increase=st.lists(_INCREASE, min_size=1, max_size=60).map(np.array),
        mean=_INCREASE,
        size=st.floats(1e-3, 1e4),
        base=st.one_of(st.just(0.0), st.floats(0, 1.5)),
        point=st.sampled_from(["analytic-mean", "mc-median"]),
        probs=st.lists(_PROB, min_size=1, max_size=7),
    )
    def test_equal_to_in_place_transform(
        self, target, increase, mean, size, base, point, probs
    ):
        ctx = CalibratedContext({}, dd_base_median=base, eff_base_median=base,
                                included_ids=("R",))
        spec = NewReleaseSpec(size=size, levels={})
        options = EngineOptions(n_samples=increase.size, point=point)
        predict = (predict_defect_content if target == Target.DEFECT_CONTENT
                   else predict_effectiveness)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(prediction, "_draw_increase", lambda *a: increase.copy())
            mp.setattr(prediction, "analytic_mean_increase", lambda *a: mean)
            got = predict(ctx, spec, [], [], options, probs)
        value, quantiles = in_place_reference(target, size, base, increase, mean,
                                              point, probs)
        assert hexed(got)[:2] == (
            value.hex(), {p: v.hex() for p, v in quantiles.items()}
        )


class TestMemory:
    def test_one_sample_array_per_prediction(self):
        # numpy reports its buffers to tracemalloc.  A prediction may hold
        # its float64 samples, one byte of expert index per sample and,
        # per range, the kernel's 25 bytes of buffers per block element.
        n, ranges = 10**6, 2
        bundle = load_bundle(EXAMPLE_BUNDLE)
        factors = bundle.factors_for(Target.DEFECT_CONTENT)
        ctx = CalibratedContext({}, dd_base_median=0.3, eff_base_median=None,
                                included_ids=("R",))
        spec = NewReleaseSpec(size=130, levels={f.id: 3 for f in factors})
        options = EngineOptions(n_samples=n, point="mc-median")
        with cut_into(ranges):
            predict_defect_content(ctx, spec, factors, bundle.quantifications,
                                   options)  # warm-up: imports
            tracemalloc.start()
            try:
                predict_defect_content(ctx, spec, factors,
                                       bundle.quantifications, options)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 8 * n + n + ranges * 32 * _BLOCK
