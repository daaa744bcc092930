import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from defectcast import (
    ContextBundle,
    EstimationError,
    InsufficientHistoryError,
    MODEL_DC_MEDIAN,
    MODEL_DD_MEDIAN,
    MODEL_EFF_MEDIAN,
    MODEL_INFLUENCE_FACTOR,
    Target,
    ZeroActualError,
    ablation_curve,
    accuracy_metrics,
    aggregate_rankings,
    history_simulation,
    loocv,
    wilcoxon_one_sided,
)

from conftest import (
    make_dominant_factor_bundle,
    make_factor,
    make_release,
    make_triangle,
    summarize_mres,
)
from synth import make_synthetic_bundle

# Published cross-validation MRE rows used as aggregate fixtures.
MRE_DC = [0.17, 0.52, 0.27, 0.56, 1.33, 0.20, 0.75, 3.20]
MRE_DD = [0.21, 0.10, 0.30, 0.18, 1.57, 0.50, 0.11, 0.25]
MRE_IF = [0.02, 0.00, 0.20, 0.23, 1.32, 0.45, 0.00, 0.21]
MRE_EFF = [0.05, 0.02, 0.38, 0.02, 0.10, 0.24, 0.10, 0.02]
MRE_IF_EFF = [0.02, 0.14, 0.35, 0.00, 0.10, 0.06, 0.10, 0.00]


def reference_accuracy_metrics(cases, thresholds):
    """The bit-for-bit reference: MMRE as the exact sum of the MREs,
    rounded once, over their count, and numpy's Pred(q)."""
    mres = np.array([abs((p - a) / a) for p, a in cases])
    pred = {
        q: float(np.count_nonzero(mres <= q * (1 + 1e-9) + 1e-12) / len(cases))
        for q in thresholds
    }
    return float(sum(map(Fraction, mres))) / len(mres), pred


# Up to 300 cases: long enough for a running or a pairwise (numpy) sum to
# round apart from the exact one.  In the second example numpy's mean is
# 0x1.614cccccccccep+2, one unit in the last place above the exact one.
CASES = st.integers(1, 300).flatmap(lambda n: st.lists(
    st.tuples(st.floats(0, 1e4), st.floats(1e-3, 1e3)), min_size=n, max_size=n,
))


class TestAccuracyMetrics:
    @given(cases=CASES)
    @example(cases=[(1.0, 3.0)] * 7)
    @example(cases=[(0.1 * i, 1.0) for i in range(1, 129)])
    @example(cases=[(0.1 * i, 0.7) for i in range(1, 130)])
    def test_bit_identical_to_numpy_reference(self, cases):
        thresholds = [0.1, 0.25, 1.0]
        report = accuracy_metrics(cases, thresholds)
        mmre, pred = reference_accuracy_metrics(cases, thresholds)
        assert report.mmre.hex() == mmre.hex()
        assert report.pred == pred

    def test_mmre_of_huge_errors_is_finite(self):
        # The MREs sum past the float range; their mean is about 1e308.
        report = accuracy_metrics([(1e308, 1.0)] * 3)
        assert report.mmre == pytest.approx(1e308)

    @pytest.mark.parametrize(
        "mres,mmre,pred25",
        [
            (MRE_DC, 0.875, 0.25),
            (MRE_DD, 0.4025, 0.625),
            (MRE_IF, 0.30375, 0.75),
            (MRE_EFF, 0.11625, 0.875),
            (MRE_IF_EFF, 0.09625, 0.875),
        ],
    )
    def test_published_rows(self, mres, mmre, pred25):
        report = summarize_mres(mres, thresholds=[0.25])
        assert report.mmre == pytest.approx(mmre, abs=1e-9)
        assert report.pred[0.25] == pytest.approx(pred25, abs=1e-9)

    def test_boundary_inclusive(self):
        # an MRE of exactly 0.25 counts toward Pred(.25)
        report = summarize_mres([0.25], thresholds=[0.25])
        assert report.pred[0.25] == 1.0

    def test_perfect_prediction(self):
        report = accuracy_metrics([(10.0, 10.0), (3.0, 3.0)],
                                  thresholds=[0.1, 0.25])
        assert report.mmre == 0
        assert all(v == 1.0 for v in report.pred.values())

    def test_re_sign_convention(self):
        report = accuracy_metrics([(12.0, 10.0), (8.0, 10.0)])
        assert report.cases[0].re == pytest.approx(0.2)
        assert report.cases[1].re == pytest.approx(-0.2)
        assert report.cases[1].mre == pytest.approx(0.2)

    def test_zero_actual_rejected(self):
        with pytest.raises(ZeroActualError):
            accuracy_metrics([(1.0, 0.0)])

    @pytest.mark.parametrize("case", [
        (math.inf, 1.0), (math.nan, 1.0), (1e308, 1e-10), (-1e308, 1e-300),
    ], ids=["inf-prediction", "nan-prediction", "re-overflows", "re-overflows-below"])
    def test_non_finite_relative_error_names_its_case(self, case):
        with pytest.raises(EstimationError, match="^case 'B': predicted "):
            accuracy_metrics([(1.0, 1.0), case], ids=["A", "B"])

    @pytest.mark.parametrize("ids,message", [
        (["a"], "zip"),
        (["a", "b", "c"], "zip"),
        (["a", "a"], r"^repeated case ids \['a'\]$"),
    ], ids=["fewer-ids", "more-ids", "repeated-id"])
    def test_ids_name_each_case_once(self, ids, message):
        # Fewer ids used to drop the second case: 1 case, MMRE 0.5.
        with pytest.raises(ValueError, match=message):
            accuracy_metrics([(1.0, 2.0), (3.0, 1.0)], ids=ids)

    def test_mmre_permutation_invariant_and_pred_monotone(self):
        mres = [0.1, 0.7, 0.3, 0.05]
        a = summarize_mres(mres, thresholds=[0.1, 0.25, 0.5, 10.0])
        b = summarize_mres(list(reversed(mres)),
                           thresholds=[0.1, 0.25, 0.5, 10.0])
        assert a.mmre == b.mmre
        values = [a.pred[q] for q in sorted(a.pred)]
        assert values == sorted(values)
        assert a.pred[10.0] == 1.0


def bundle_of(*releases):
    """One defect-content factor and the given releases, all at level 0."""
    return ContextBundle(
        factors=(make_factor("D1"),),
        quantifications=(make_triangle("D1"),),
        releases=tuple(r._replace(levels={"D1": 0}) for r in releases),
    )


@pytest.mark.parametrize("model", [MODEL_DC_MEDIAN, MODEL_DD_MEDIAN,
                                   MODEL_INFLUENCE_FACTOR])
def test_repeated_release_id_rejected_by_every_model(model):
    # dc_median used to report 3 cases, but mres() kept 2 of them.
    bundle = bundle_of(make_release("A"), make_release("B", found=30),
                       make_release("A", found=20))
    with pytest.raises(ValueError, match=r"^repeated (case|release) ids \['A'\]$"):
        loocv(bundle, model)


class TestLoocv:
    def test_identical_releases_give_zero_error(self):
        factor = make_factor("D1")
        tri = make_triangle("D1")
        releases = tuple(
            make_release(str(i), size=100, found=40, slipped=10,
                         levels={"D1": 2})
            for i in range(3)
        )
        bundle = ContextBundle(factors=(factor,), quantifications=(tri,),
                               releases=releases)
        for model in (MODEL_INFLUENCE_FACTOR, MODEL_DC_MEDIAN, MODEL_DD_MEDIAN):
            assert loocv(bundle, model).mmre == pytest.approx(0, abs=1e-12)
        assert loocv(bundle, MODEL_EFF_MEDIAN,
                     Target.EFFECTIVENESS).mmre == pytest.approx(0, abs=1e-12)

    def test_two_release_folds_hand_enumerated(self):
        # Each fold predicts from the median of the other releases.
        cases = [
            # defect contents 10 and 30: each fold predicts the other one
            (bundle_of(make_release("A", size=50, found=10, slipped=0),
                       make_release("B", size=50, found=30, slipped=0)),
             MODEL_DC_MEDIAN, Target.DEFECT_CONTENT, {"A": 30, "B": 10}),
            # defect contents 10, 20, 30
            (bundle_of(*(make_release(str(i), found=dc, slipped=0)
                         for i, dc in enumerate([10, 20, 30]))),
             MODEL_DC_MEDIAN, Target.DEFECT_CONTENT,
             {"0": 25, "1": 20, "2": 15}),
            # densities 0.4, 0.5, 0.6 at size 10
            (bundle_of(*(make_release(str(i), size=10, found=f, slipped=0)
                         for i, f in enumerate([4, 5, 6]))),
             MODEL_DD_MEDIAN, Target.DEFECT_CONTENT,
             {"0": 5.5, "1": 5.0, "2": 4.5}),
            # effectiveness 0.8 and 0.5: each fold predicts the other one
            (bundle_of(make_release("A", found=8, slipped=2),
                       make_release("B", found=5, slipped=5)),
             MODEL_EFF_MEDIAN, Target.EFFECTIVENESS, {"A": 0.5, "B": 0.8}),
        ]
        for bundle, model, target, predicted in cases:
            report = loocv(bundle, model, target)
            got = {c.release_id: c.predicted for c in report.cases}
            assert got == pytest.approx(predicted), model
        first = loocv(cases[0][0], MODEL_DC_MEDIAN)
        assert first.mres() == pytest.approx({"A": 2.0, "B": 2 / 3})
        assert first.mmre == pytest.approx(4 / 3)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            loocv(make_synthetic_bundle(seed=0), "bogus")

    def test_insufficient_history(self):
        bundle = ContextBundle(
            factors=(make_factor("D1"),),
            quantifications=(make_triangle("D1"),),
            releases=(make_release("A", levels={"D1": 0}),),
        )
        with pytest.raises(InsufficientHistoryError):
            loocv(bundle, MODEL_DC_MEDIAN)

    def test_synthetic_hybrid_beats_density_baseline(self):
        bundle = make_synthetic_bundle(seed=11)
        hybrid = loocv(bundle, MODEL_INFLUENCE_FACTOR)
        baseline = loocv(bundle, MODEL_DD_MEDIAN)
        assert hybrid.mmre < baseline.mmre

    def test_fold_isolation(self):
        # Perturbing a release's measurements must not move its own
        # fold's prediction: its measures never enter its calibration.
        bundle = make_synthetic_bundle(seed=3)
        target_id = bundle.releases[0].id
        perturbed_releases = tuple(
            make_release(r.id, size=r.size,
                         found=r.defects_found * (3.0 if r.id == target_id else 1.0),
                         slipped=r.defects_slipped, levels=r.levels)
            for r in bundle.releases
        )
        perturbed = ContextBundle(
            factors=bundle.factors,
            quantifications=bundle.quantifications,
            rankings=bundle.rankings,
            releases=perturbed_releases,
        )
        a = loocv(bundle, MODEL_INFLUENCE_FACTOR)
        b = loocv(perturbed, MODEL_INFLUENCE_FACTOR)
        case_a = next(c for c in a.cases if c.release_id == target_id)
        case_b = next(c for c in b.cases if c.release_id == target_id)
        assert case_a.predicted == case_b.predicted

    def test_effectiveness_defaults_to_top_two_factors(self):
        bundle = make_synthetic_bundle(seed=5)
        default = loocv(bundle, MODEL_INFLUENCE_FACTOR, Target.EFFECTIVENESS)
        explicit = loocv(bundle, MODEL_INFLUENCE_FACTOR, Target.EFFECTIVENESS,
                         active_ids=["E1", "E2"])
        assert default.mres() == explicit.mres()


class TestActiveOverride:
    """An override id must name one factor of the target, once: a
    repeated id would double that factor's weight."""

    RUNS = {
        "loocv": lambda b, ids: loocv(b, MODEL_INFLUENCE_FACTOR, active_ids=ids),
        "history": lambda b, ids: history_simulation(b, active_ids=ids),
        "ablation": lambda b, ids: ablation_curve(
            b, Target.DEFECT_CONTENT, ids, [len(ids)]
        ),
    }

    @pytest.mark.parametrize("run", list(RUNS))
    @pytest.mark.parametrize("ids,message", [
        (["D1", "D1"], "duplicate factor ids ['D1']"),
        (["D2", "ZZ"], "ids ['ZZ'] name no defect_content factor"),
        (["E1"], "ids ['E1'] name no defect_content factor"),
    ], ids=["repeated", "unknown", "other-target"])
    def test_rejected(self, example_bundle, run, ids, message):
        with pytest.raises(ValueError) as exc:
            self.RUNS[run](example_bundle, ids)
        assert str(exc.value) == message


class TestAblation:
    def test_k0_bit_equals_density_baseline(self):
        bundle = make_synthetic_bundle(seed=2)
        ranked = [rf.factor_id for rf in
                  aggregate_rankings(list(bundle.rankings),
                                     Target.DEFECT_CONTENT)]
        curve = ablation_curve(bundle, Target.DEFECT_CONTENT, ranked, [0])
        baseline = loocv(bundle, MODEL_DD_MEDIAN)
        assert [c.predicted for c in curve[0].cases] == [
            c.predicted for c in baseline.cases
        ]
        assert curve[0].mmre == baseline.mmre
        assert curve[0].pred == baseline.pred

    def test_dominant_factor_improves_over_no_factor(self):
        bundle = make_dominant_factor_bundle(seed=1)
        ranked = [rf.factor_id for rf in
                  aggregate_rankings(list(bundle.rankings),
                                     Target.DEFECT_CONTENT)]
        assert ranked[0] == "D1"
        curve = ablation_curve(bundle, Target.DEFECT_CONTENT, ranked, [0, 1, 2, 3])
        assert curve[1].mmre < curve[0].mmre
        # the remaining factors are inert: accuracy stays put
        assert curve[2].mmre == pytest.approx(curve[1].mmre, abs=1e-9)
        assert curve[3].mmre == pytest.approx(curve[1].mmre, abs=1e-9)

    def test_k_out_of_range_rejected(self):
        bundle = make_synthetic_bundle(seed=0)
        with pytest.raises(ValueError):
            ablation_curve(bundle, Target.DEFECT_CONTENT, ["D1"], [2])


class TestHistorySimulation:
    def test_constant_history_predicts_exactly(self):
        bundle = make_synthetic_bundle(seed=0, constant=True)
        report = history_simulation(bundle, start_m=4)
        # Case j is predicted from the first 4 + j releases.
        assert [c.release_id for c in report.cases] == [
            r.id for r in bundle.releases[4:]
        ]
        assert len(report) == 6
        assert all(c.mre == pytest.approx(0, abs=1e-12) for c in report.cases)
        assert report.mmre == pytest.approx(0, abs=1e-12)
        assert report.model_name == MODEL_INFLUENCE_FACTOR

    def test_excluded_releases_skipped(self):
        base = make_synthetic_bundle(seed=4)
        excluded_id = base.releases[5].id
        bundle = base.with_excluded([excluded_id])
        report = history_simulation(bundle, start_m=4)
        assert excluded_id not in [c.release_id for c in report.cases]
        assert len(report.cases) == 5

    def test_too_short_history_rejected(self):
        bundle = make_synthetic_bundle(seed=0, n_releases=4)
        with pytest.raises(InsufficientHistoryError):
            history_simulation(bundle, start_m=4)

    def test_synthetic_exact_data_recovers_every_step(self):
        bundle = make_synthetic_bundle(seed=9)
        report = history_simulation(bundle, start_m=4)
        assert all(c.mre < 1e-9 for c in report.cases)
