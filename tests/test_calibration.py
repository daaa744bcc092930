import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from defectcast import (
    EngineOptions,
    MissingLevelError,
    NoUsableHistoryError,
    Target,
    calibrate,
    defect_content,
    defect_density,
    descriptive_stats,
    effectiveness,
)

from defectcast.calibration import _columns
from defectcast.model import _base

from conftest import make_factor, make_release, make_triangle
from synth import make_synthetic_bundle


DC, EFF = Target.DEFECT_CONTENT, Target.EFFECTIVENESS


class TestBaseValues:
    def test_base_defect_density_direct(self):
        r = make_release(size=100, found=40, slipped=10)
        assert _base(DC, r, 0.25) == pytest.approx(0.4)

    def test_zero_increase_is_raw_density(self):
        r = make_release(size=80, found=30, slipped=6)
        assert _base(DC, r, 0.0) == defect_density(r)

    def test_defect_free_release(self):
        r = make_release(found=0, slipped=0)
        assert _base(DC, r, 0.7) == 0

    def test_base_effectiveness_direct(self):
        r = make_release(found=40, slipped=10)
        assert _base(EFF, r, 0.6) == pytest.approx(0.5)

    def test_zero_increase_is_raw_effectiveness(self):
        r = make_release(found=40, slipped=10)
        assert _base(EFF, r, 0.0) == effectiveness(r)

    def test_no_defects_found(self):
        r = make_release(found=0, slipped=5)
        assert _base(EFF, r, 0.3) == 0

    def test_undefined_for_defect_free_release(self):
        # None is what calibrate stores as such a release's eff_base.
        assert _base(EFF, make_release(found=0, slipped=0), 0.2) is None

    @given(
        size=st.integers(1, 5_000),
        found=st.integers(0, 2_000),
        slipped=st.integers(0, 2_000),
        increase=st.floats(0, 5),
    )
    def test_round_trip_inverts_the_equations(self, size, found, slipped, increase):
        r = make_release(size=size, found=found, slipped=slipped)
        dd_base = _base(DC, r, increase)
        assert dd_base * size * (1 + increase) == pytest.approx(
            defect_content(r), rel=1e-12, abs=1e-12
        )
        if defect_content(r) > 0:
            eff_base = _base(EFF, r, increase)
            assert eff_base * (1 + increase) == pytest.approx(
                effectiveness(r), rel=1e-12
            )

    @given(increase=st.floats(0.01, 5))
    def test_dd_base_strictly_decreases_in_increase(self, increase):
        r = make_release(found=40, slipped=10)
        assert _base(DC, r, increase) < _base(DC, r, 0.0)


FACTOR = make_factor("D1")
TRI = make_triangle("D1", 0.10, 0.15, 0.25)


class TestCalibrate:
    def test_single_release_medians(self):
        # level 3 with a degenerate triangle pins ddif = 0.25, eif via E1
        dc_f = make_factor("D1")
        eff_f = make_factor("E1", Target.EFFECTIVENESS)
        tris = [
            make_triangle("D1", 0.25, 0.25, 0.25),
            make_triangle("E1", 0.6, 0.6, 0.6, target=Target.EFFECTIVENESS),
        ]
        r = make_release(size=100, found=40, slipped=10,
                         levels={"D1": 3, "E1": 3})
        ctx = calibrate([r], [dc_f], [eff_f], tris)
        assert ctx.dd_base_median == pytest.approx(0.4)
        assert ctx.eff_base_median == pytest.approx(0.5)
        assert ctx.included_ids == ("R",)

    def test_even_count_median_is_mean_of_middle_two(self):
        releases = [
            make_release("A", size=100, found=35, slipped=5, levels={"D1": 0}),
            make_release("B", size=100, found=50, slipped=10, levels={"D1": 0}),
        ]
        ctx = calibrate(releases, [FACTOR], [], [TRI])
        assert ctx.dd_base_median == pytest.approx(0.5)

    def test_all_levels_zero_reduces_to_raw_densities(self):
        releases = [
            make_release(rid, size=100, found=f, slipped=s, levels={"D1": 0})
            for rid, f, s in [("A", 30, 10), ("B", 50, 10), ("C", 70, 10)]
        ]
        ctx = calibrate(releases, [FACTOR], [], [TRI])
        assert ctx.dd_base_median == float(
            np.median([defect_density(r) for r in releases])
        )

    def test_excluded_releases_carry_no_entries(self):
        releases = [
            make_release("A", levels={"D1": 0}),
            make_release("B", levels={"D1": 0}, excluded=True),
        ]
        ctx = calibrate(releases, [FACTOR], [], [TRI])
        assert "B" not in ctx.per_release
        assert ctx.included_ids == ("A",)

    def test_repeated_release_id_rejected(self):
        # Base values are keyed by id: the second A used to replace the
        # first, giving included_ids ('A', 'B') and dd_base_median 0.175.
        releases = [
            make_release("A", found=40, slipped=10),
            make_release("A", found=4, slipped=1),
            make_release("B", found=20, slipped=10),
            make_release("B", excluded=True),
        ]
        with pytest.raises(ValueError, match=r"^repeated release ids \['A', 'B'\]$"):
            calibrate(releases, [], [], [])

    def test_huge_densities_keep_a_finite_median(self):
        # The middle two sum past the float range; their mean does not.
        releases = [
            make_release("A", size=1, found=1.5e308, slipped=0),
            make_release("B", size=1, found=1.6e308, slipped=0),
        ]
        assert calibrate(releases, [], [], []).dd_base_median == 1.55e308

    def test_all_excluded_rejected(self):
        with pytest.raises(NoUsableHistoryError):
            calibrate([make_release(excluded=True)], [], [], [])

    def test_defect_free_release_has_no_eff_base(self):
        releases = [
            make_release("A", found=40, slipped=10, levels={"D1": 0}),
            make_release("B", found=0, slipped=0, levels={"D1": 0}),
        ]
        ctx = calibrate(releases, [FACTOR], [], [TRI])
        assert ctx.per_release["B"].eff_base is None
        assert ctx.eff_base_median == pytest.approx(0.8)

    def test_release_order_is_irrelevant(self):
        releases = [
            make_release("A", size=90, found=31, slipped=4, levels={"D1": 1}),
            make_release("B", size=120, found=55, slipped=9, levels={"D1": 3}),
            make_release("C", size=150, found=40, slipped=12, levels={"D1": 2}),
        ]
        fwd = calibrate(releases, [FACTOR], [], [TRI])
        rev = calibrate(list(reversed(releases)), [FACTOR], [], [TRI])
        assert fwd == rev

    def test_mc_median_strategy_matches_engine_point(self):
        r = make_release(levels={"D1": 2})
        opts = EngineOptions(point="mc-median", seed=5)
        ctx = calibrate([r], [FACTOR], [], [TRI], opts)
        from defectcast import empirical_quantile, increase_distribution

        samples = increase_distribution(
            [FACTOR], [TRI], {"D1": 2}, Target.DEFECT_CONTENT, opts
        )
        expected = empirical_quantile(np.sort(samples), 0.5)
        assert ctx.per_release["R"].ddif_point == expected

    def test_mc_median_draws_once_per_level_vector(self, monkeypatch):
        import defectcast.sampling as sampling
        from defectcast import empirical_quantile, increase_distribution

        bundle = make_synthetic_bundle(seed=0, n_releases=60)
        dc = list(bundle.factors_for(Target.DEFECT_CONTENT))
        eff = list(bundle.factors_for(Target.EFFECTIVENESS))
        opts = EngineOptions(n_samples=500, point="mc-median")
        calls = []

        def counting(*args):
            calls.append(args[3])
            return increase_distribution(*args)

        monkeypatch.setattr(sampling, "increase_distribution", counting)
        ctx = calibrate(bundle.releases, dc, eff, bundle.quantifications, opts)
        for target, factors in ((Target.DEFECT_CONTENT, dc),
                                (Target.EFFECTIVENESS, eff)):
            vectors = {tuple(r.levels[f.id] for f in factors)
                       for r in bundle.releases}
            assert calls.count(target) == len(vectors) < len(bundle.releases)
        for r in bundle.releases:
            samples = increase_distribution(
                dc, bundle.quantifications, r.levels, Target.DEFECT_CONTENT, opts
            )
            expected = empirical_quantile(np.sort(samples), 0.5)
            assert ctx.per_release[r.id].ddif_point == expected

    def test_analytic_mean_computed_once_per_level_vector(self, monkeypatch):
        import defectcast.sampling as sampling
        from defectcast import analytic_mean_increase

        bundle = make_synthetic_bundle(seed=0, n_releases=60)
        dc = list(bundle.factors_for(Target.DEFECT_CONTENT))
        eff = list(bundle.factors_for(Target.EFFECTIVENESS))
        calls = []

        def counting(*args):
            calls.append(args[3])
            return analytic_mean_increase(*args)

        monkeypatch.setattr(sampling, "analytic_mean_increase", counting)
        calibrate(bundle.releases, dc, eff, bundle.quantifications)
        for target, factors in ((Target.DEFECT_CONTENT, dc),
                                (Target.EFFECTIVENESS, eff)):
            vectors = {tuple(r.levels[f.id] for f in factors)
                       for r in bundle.releases}
            assert calls.count(target) == len(vectors) < len(bundle.releases)

    def test_analytic_points_are_each_releases_analytic_mean(self):
        from defectcast import analytic_mean_increase

        bundle = make_synthetic_bundle(seed=3, n_releases=40)
        tris = bundle.quantifications
        factors = {t: list(bundle.factors_for(t)) for t in Target}
        ctx = calibrate(bundle.releases, factors[Target.DEFECT_CONTENT],
                        factors[Target.EFFECTIVENESS], tris)
        for r in bundle.releases:
            c = ctx.per_release[r.id]
            for point, t in ((c.ddif_point, Target.DEFECT_CONTENT),
                             (c.eif_point, Target.EFFECTIVENESS)):
                expected = analytic_mean_increase(factors[t], tris, r.levels, t)
                assert point.hex() == expected.hex()

    def test_mc_median_missing_level_still_raises(self):
        # A missing level must not be served the draw of some level.
        releases = [make_release("A", levels={"D1": 0}), make_release("B")]
        opts = EngineOptions(n_samples=100, point="mc-median")
        with pytest.raises(MissingLevelError):
            calibrate(releases, [FACTOR], [], [TRI], opts)


def _hexed(value):
    return None if value is None else value.hex()


@pytest.mark.parametrize("point", ["analytic-mean", "mc-median"])
def test_columns_are_calibrates_columns(point):
    # One target's column, as the validation loops read it, is the one
    # calibrate reports, bit for bit; a defect-free release has no eff_base.
    bundle = make_synthetic_bundle(seed=2, n_releases=20)
    releases = [*bundle.included_releases(),
                make_release("Z", found=0, slipped=0, levels=bundle.releases[0].levels)]
    opts = EngineOptions(n_samples=500, point=point)
    factors = {t: list(bundle.factors_for(t)) for t in Target}
    ctx = calibrate(releases, factors[DC], factors[EFF], bundle.quantifications, opts)
    reported = [ctx.per_release[r.id] for r in releases]
    for target, point_field, base_field in ((DC, "ddif_point", "dd_base"),
                                            (EFF, "eif_point", "eff_base")):
        points, bases = _columns(releases, factors[target], target,
                                 bundle.quantifications, opts)
        assert [p.hex() for p in points] == [getattr(c, point_field).hex() for c in reported]
        assert list(map(_hexed, bases)) == [_hexed(getattr(c, base_field)) for c in reported]
    assert ctx.per_release["Z"].eff_base is None

class TestDescriptiveStats:
    def test_iqr_fence_flags_outlier(self):
        sizes = [10, 10, 10, 10, 10]
        dds = [0.9, 1.0, 1.0, 1.1, 3.0]
        releases = [
            make_release(f"R{i}", size=s, found=round(s * d), slipped=0)
            for i, (s, d) in enumerate(zip(sizes, dds))
        ]
        stats = descriptive_stats(releases)
        flagged = [(rid, m) for rid, m, _ in stats.flagged]
        assert ("R4", "defect_density") in flagged
        assert all(rid == "R4" for rid, m in flagged if m == "defect_density")

    def test_constant_values_not_flagged(self):
        releases = [
            make_release(f"R{i}", size=100, found=40, slipped=10)
            for i in range(4)
        ]
        assert descriptive_stats(releases).flagged == ()

    def test_single_release_not_flagged(self):
        assert descriptive_stats([make_release()]).flagged == ()

    def test_repeated_release_id_rejected(self):
        # Per-release values are keyed by id: the second A used to replace
        # the first, and the fences came from the survivor.
        releases = [make_release("A", found=5, slipped=5),
                    make_release("A", found=1, slipped=1)]
        with pytest.raises(ValueError, match=r"^repeated release ids \['A'\]$"):
            descriptive_stats(releases)

    def test_defect_free_release_has_no_effectiveness(self):
        stats = descriptive_stats([make_release(found=0, slipped=0)])
        assert stats.per_release["R"]["effectiveness"] is None
