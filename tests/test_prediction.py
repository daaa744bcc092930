import numpy as np
import pytest

from defectcast import (
    EngineOptions,
    NewReleaseSpec,
    NoEffectivenessHistoryError,
    Target,
    calibrate,
    defect_content,
    effectiveness,
    predict_defect_content,
    predict_defects_found,
    predict_effectiveness,
)

from conftest import make_factor, make_release, make_triangle

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


class TestPredictDefectContent:
    def test_zero_levels_base_case(self):
        ctx, _ = simple_context()
        pred = predict_defect_content(
            ctx, NewReleaseSpec(size=200, levels={"D1": 0}), [DC_F], TRIS
        )
        assert pred.point == pytest.approx(200 * ctx.dd_base_median)

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
