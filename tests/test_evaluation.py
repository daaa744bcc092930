import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from defectcast import (
    BundleValidationError,
    ContextBundle,
    EngineOptions,
    EstimationError,
    InsufficientHistoryError,
    MODEL_DC_MEDIAN,
    MODEL_DD_MEDIAN,
    MODEL_EFF_MEDIAN,
    MODEL_INFLUENCE_FACTOR,
    NewReleaseSpec,
    Target,
    ValidationIssue,
    ZeroActualError,
    ablation_curve,
    accuracy_metrics,
    aggregate_rankings,
    analytic_mean_increase,
    calibrate,
    descriptive_stats,
    history_simulation,
    increase_distribution,
    loocv,
    predict_defect_content,
    predict_effectiveness,
    render_report,
    wilcoxon_one_sided,
)
from defectcast import evaluation

from conftest import (
    make_dominant_factor_bundle,
    make_factor,
    make_release,
    make_triangle,
    summarize_mres,
    unchecked_bundle,
)
from synth import make_synthetic_bundle

# Published cross-validation MRE rows used as aggregate fixtures.
MRE_DC = [0.17, 0.52, 0.27, 0.56, 1.33, 0.20, 0.75, 3.20]
MRE_DD = [0.21, 0.10, 0.30, 0.18, 1.57, 0.50, 0.11, 0.25]
MRE_IF = [0.02, 0.00, 0.20, 0.23, 1.32, 0.45, 0.00, 0.21]
MRE_EFF = [0.05, 0.02, 0.38, 0.02, 0.10, 0.24, 0.10, 0.02]
MRE_IF_EFF = [0.02, 0.14, 0.35, 0.00, 0.10, 0.06, 0.10, 0.00]


def reference_accuracy_metrics(cases):
    """The bit-for-bit reference: MMRE as the exact sum of the MREs,
    rounded once, over their count, and numpy's Pred(0.25)."""
    mres = np.array([abs((p - a) / a) for p, a in cases])
    pred = {0.25: float(np.count_nonzero(mres <= 0.25 * (1 + 1e-9) + 1e-12) / len(cases))}
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
        report = accuracy_metrics(cases)
        mmre, pred = reference_accuracy_metrics(cases)
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
        report = summarize_mres(mres)
        assert report.mmre == pytest.approx(mmre, abs=1e-9)
        assert report.pred[0.25] == pytest.approx(pred25, abs=1e-9)

    def test_boundary_inclusive(self):
        # an MRE of exactly 0.25 counts toward Pred(.25)
        report = summarize_mres([0.25])
        assert report.pred[0.25] == 1.0

    def test_perfect_prediction(self):
        report = accuracy_metrics([(10.0, 10.0), (3.0, 3.0)])
        assert report.mmre == 0
        assert report.pred == {0.25: 1.0}

    def test_re_sign_convention(self):
        report = accuracy_metrics([(12.0, 10.0), (8.0, 10.0)])
        assert report.cases[0].re == pytest.approx(0.2)
        assert report.cases[1].re == pytest.approx(-0.2)
        assert report.cases[1].mre == pytest.approx(0.2)

    def test_no_cases_rejected(self):
        with pytest.raises(ValueError, match="^no cases$"):
            accuracy_metrics([])

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
        (["a"], r"^ids must hold one id for each of the 2 cases, got 1$"),
        (["a", "b", "c"], r"^ids must hold one id for each of the 2 cases, got 3$"),
        (["a", "a"], r"^repeated case ids \['a'\]$"),
        ("ab", r"^expected a list of case ids, got the string 'ab'$"),
    ], ids=["fewer-ids", "more-ids", "repeated-id", "string"])
    def test_ids_name_each_case_once(self, ids, message):
        # Fewer ids used to drop the second case: 1 case, MMRE 0.5, and a
        # string to name the cases 'a' and 'b'; then a count that differs
        # ended in zip()'s own message.
        with pytest.raises(ValueError, match=message):
            accuracy_metrics([(1.0, 2.0), (3.0, 1.0)], ids=ids)

    def test_mmre_permutation_invariant_and_pred_monotone(self):
        # Pred has one level, 0.25, so only the permutation is left to check.
        mres = [0.1, 0.7, 0.3, 0.05]
        a = summarize_mres(mres)
        b = summarize_mres(list(reversed(mres)))
        assert a.mmre == b.mmre
        assert a.pred == b.pred == {0.25: 0.5}

    @pytest.mark.parametrize("case,field,value", [
        (("a", 1.0), "predicted", "'a'"),
        ((1.0, None), "actual", "None"),
        ((True, 2.0), "predicted", "True"),
        ((1.0, np.bool_(True)), "actual", "np.True_"),
        ((1.5, [2.0]), "actual", "[2.0]"),
    ], ids=["string", "none", "bool", "numpy-bool", "list"])
    def test_case_value_must_be_a_real_number(self, case, field, value):
        # "a" and None used to end in a bare TypeError, True in a _FieldError
        # once the case was computed.  Case A, whose actual is 0, is never
        # computed: every value is read first.
        with pytest.raises(ValueError) as exc:
            accuracy_metrics([(1.0, 0.0), case], ids=["A", "B"])
        assert type(exc.value) is ValueError
        assert str(exc.value) == f"case 'B': {field} must be a real number, got {value}"

    @pytest.mark.parametrize("case", [
        (np.float32(1.5), 2.0), (Fraction(3, 2), 2.0), (1.5, np.int64(2)),
        (np.float64(1.5), Fraction(2)),
    ], ids=["float32", "fraction", "int64", "float64-and-fraction"])
    def test_real_case_value_reads_as_its_float(self, case):
        # float32 and Fraction used to fail with a _FieldError on predicted
        # once the case was computed.
        plain = (float(case[0]), float(case[1]))
        got = accuracy_metrics([case, (1.0, 4.0)])
        assert render_report(got) == render_report(accuracy_metrics([plain, (1.0, 4.0)]))

    @pytest.mark.parametrize("case,message", [
        ((1.0, 2.0, 3.0), "case 'B' must hold 2 values, predicted and actual, got 3"),
        (1.0, "expected a list of case 'B' values, got a number"),
    ], ids=["three", "number"])
    def test_a_case_holds_two_values(self, case, message):
        # Three values used to end in "too many values to unpack", a number
        # in "cannot unpack non-iterable float object".
        with pytest.raises(ValueError) as exc:
            accuracy_metrics([(1.0, 0.0), case], ids=["A", "B"])
        assert str(exc.value) == message

    def test_a_real_nan_is_still_no_finite_relative_error(self):
        with pytest.raises(EstimationError, match="^case '0': predicted nan "):
            accuracy_metrics([(np.float32("nan"), 2.0)])


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
    # dc_median used to report 3 cases, but mres() kept 2 of them.  Such a
    # bundle is no longer built, and each model still rejects one that was.
    releases = (make_release("A"), make_release("B", found=30),
                make_release("A", found=20))
    with pytest.raises(BundleValidationError) as exc:
        bundle_of(*releases)
    assert exc.value.errors == [ValidationIssue("release:A", "id", "duplicate release id")]
    bundle = unchecked_bundle(
        factors=(make_factor("D1"),), quantifications=(make_triangle("D1"),),
        releases=tuple(r._replace(levels={"D1": 0}) for r in releases))
    with pytest.raises(ValueError, match=r"^repeated (case|release) ids \['A'\]$"):
        loocv(bundle, model)


class TestMrePairs:
    def test_pairs_follow_release_id_order(self):
        a = accuracy_metrics([(2.0, 1.0), (1.0, 2.0)], ids=["B", "A"])
        b = accuracy_metrics([(1.0, 1.0), (3.0, 2.0)], ids=["A", "B"])
        assert a.mre_pairs(b) == [(0.5, 0.0), (1.0, 0.5)]

    def test_reports_of_other_releases_rejected(self):
        # Pairing by the first report's ids used to end in a bare KeyError.
        a = accuracy_metrics([(1.0, 1.0), (1.0, 2.0)], ids=["A", "B"])
        b = accuracy_metrics([(1.0, 1.0), (1.0, 2.0)], ids=["A", "C"])
        with pytest.raises(ValueError) as exc:
            a.mre_pairs(b)
        assert str(exc.value) == "the reports differ in the releases ['B', 'C']"


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

    def test_unhashable_model_rejected(self):
        # It used to end in TypeError: unhashable type: 'list'.
        with pytest.raises(ValueError) as exc:
            loocv(make_synthetic_bundle(seed=0), ["x"])
        assert str(exc.value) == "unknown model ['x']"

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

    @pytest.mark.parametrize("run", ["loocv", "history"])
    def test_string_rejected(self, example_bundle, run):
        # loocv with "" used to run with no active factor: dd_median's MMRE.
        with pytest.raises(ValueError) as exc:
            self.RUNS[run](example_bundle, "")
        assert str(exc.value) == "expected a list of factor ids, got the string ''"

    def test_one_shot_override_is_read_once(self, example_bundle):
        # resolve_active used to check an iterator's ids, using them up, and
        # so ran with no active factor: dd_median's MMRE, 0.280253.
        report = loocv(example_bundle, MODEL_INFLUENCE_FACTOR,
                       Target.DEFECT_CONTENT, EngineOptions(), iter(["D1"]))
        assert report == self.RUNS["loocv"](example_bundle, ["D1"])
        assert report.mmre == pytest.approx(0.174717, abs=5e-7)


class TestAblation:
    def test_k0_bit_equals_density_baseline(self):
        bundle = make_synthetic_bundle(seed=2)
        ranked = [rf.factor_id for rf in
                  aggregate_rankings(list(bundle.rankings),
                                     Target.DEFECT_CONTENT)]
        curve = ablation_curve(bundle, Target.DEFECT_CONTENT, ranked, [0])
        baseline = loocv(bundle, MODEL_DD_MEDIAN)
        assert [c.predicted for c in curve.reports[0].cases] == [
            c.predicted for c in baseline.cases
        ]
        assert curve.reports[0].mmre == baseline.mmre
        assert curve.reports[0].pred == baseline.pred

    def test_dominant_factor_improves_over_no_factor(self):
        bundle = make_dominant_factor_bundle(seed=1)
        ranked = [rf.factor_id for rf in
                  aggregate_rankings(list(bundle.rankings),
                                     Target.DEFECT_CONTENT)]
        assert ranked[0] == "D1"
        curve = ablation_curve(bundle, Target.DEFECT_CONTENT, ranked, [0, 1, 2, 3])
        assert curve.reports[1].mmre < curve.reports[0].mmre
        # the remaining factors are inert: accuracy stays put
        assert curve.reports[2].mmre == pytest.approx(curve.reports[1].mmre, abs=1e-9)
        assert curve.reports[3].mmre == pytest.approx(curve.reports[1].mmre, abs=1e-9)

    @pytest.mark.parametrize("ranked", ["D1", ""])
    def test_string_ranking_rejected(self, example_bundle, ranked):
        # "D1" used to be read as the ids 'D' and '1'.
        with pytest.raises(ValueError) as exc:
            ablation_curve(example_bundle, Target.DEFECT_CONTENT, ranked, [0, 1])
        assert str(exc.value) == (
            f"expected a list of factor ids, got the string {ranked!r}")

    @pytest.mark.parametrize("k", [True, False, 1.0, "1", None],
                             ids=["true", "false", "float", "string", "none"])
    def test_k_must_be_an_int(self, example_bundle, monkeypatch, k):
        # True used to key the report True; 1.0 and "1" ended in a bare
        # TypeError from the slice or the range check.  Every k is checked
        # before the first fold runs.
        monkeypatch.setattr(evaluation, "loocv", None)
        with pytest.raises(ValueError) as exc:
            ablation_curve(example_bundle, Target.DEFECT_CONTENT, ["D1", "D2"], [0, k])
        assert str(exc.value) == f"k must be an integer, got {k!r}"

    def test_each_distinct_k_runs_once(self, example_bundle, monkeypatch):
        # Each entry of ks used to run its own leave-one-out pass.
        runs, real = [], evaluation.loocv
        monkeypatch.setattr(evaluation, "loocv",
                            lambda *a, **kw: runs.append(a) or real(*a, **kw))
        curve = ablation_curve(example_bundle, Target.DEFECT_CONTENT, ["D1", "D2"],
                               [1, 1, 0, 1])
        assert len(runs) == 2
        assert list(curve.reports) == [1, 0]

    def test_k_out_of_range_rejected(self):
        bundle = make_synthetic_bundle(seed=0)
        with pytest.raises(ValueError):
            ablation_curve(bundle, Target.DEFECT_CONTENT, ["D1"], [2])


class TestHistorySimulation:
    def test_constant_history_predicts_exactly(self):
        bundle = make_synthetic_bundle(seed=0, constant=True)
        report = history_simulation(bundle, start_m=4)
        # Case j is predicted from the first 4 + j releases.
        assert [c.release_id for c in report.accuracy.cases] == [
            r.id for r in bundle.releases[4:]
        ]
        assert len(report) == 6
        assert all(c.mre == pytest.approx(0, abs=1e-12) for c in report.accuracy.cases)
        assert report.accuracy.mmre == pytest.approx(0, abs=1e-12)
        assert report.accuracy.model_name == MODEL_INFLUENCE_FACTOR

    def test_excluded_releases_skipped(self):
        base = make_synthetic_bundle(seed=4)
        excluded_id = base.releases[5].id
        bundle = base.with_excluded([excluded_id])
        report = history_simulation(bundle, start_m=4)
        assert excluded_id not in [c.release_id for c in report.accuracy.cases]
        assert len(report.accuracy.cases) == 5

    def test_too_short_history_rejected(self):
        bundle = make_synthetic_bundle(seed=0, n_releases=4)
        with pytest.raises(InsufficientHistoryError):
            history_simulation(bundle, start_m=4)

    def test_synthetic_exact_data_recovers_every_step(self):
        bundle = make_synthetic_bundle(seed=9)
        report = history_simulation(bundle, start_m=4)
        assert all(c.mre < 1e-9 for c in report.accuracy.cases)

    @pytest.mark.parametrize("start_m", [True, 4.0, "4", None],
                             ids=["true", "float", "string", "none"])
    def test_start_m_must_be_an_int(self, example_bundle, monkeypatch, start_m):
        # 4.0 and "4" used to end in a bare TypeError from the fold loop or
        # the range check.  start_m is checked before any fold work runs.
        monkeypatch.setattr(evaluation, "_columns", None)
        monkeypatch.setattr(evaluation, "_fold_loop", None)
        with pytest.raises(ValueError) as exc:
            history_simulation(example_bundle, start_m)
        assert str(exc.value) == f"start_m must be an integer, got {start_m!r}"


DC, EFF = Target.DEFECT_CONTENT, Target.EFFECTIVENESS


def _predict(bundle, wrap, predict, target):
    """``predict`` of ``target`` for release A's levels at size 130."""
    dc, eff = bundle.resolve_active(DC), bundle.resolve_active(EFF)
    ctx = calibrate(bundle.releases, dc, eff, bundle.quantifications)
    spec = NewReleaseSpec(130, bundle.releases[0].levels)
    return predict(ctx, spec, wrap(dc if target == DC else eff),
                   wrap(bundle.quantifications), probs=wrap([0.05, 0.5]))


def _increase(bundle, wrap):
    return increase_distribution(wrap(bundle.resolve_active(DC)),
                                 wrap(bundle.quantifications),
                                 bundle.releases[0].levels, DC).tobytes()


# Public calls on the example bundle, each given its list arguments through
# ``wrap``: ``list`` or ``iter``.  Each used to read some list twice, so a
# one-shot iterator gave another answer or an error.
ONE_SHOT_CALLS = {
    "resolve_active": lambda b, wrap: b.resolve_active(DC, wrap(["D1", "D2"])),
    "loocv": lambda b, wrap: loocv(
        b, MODEL_INFLUENCE_FACTOR, DC, EngineOptions(), wrap(["D1"])),
    "history_simulation": lambda b, wrap: history_simulation(
        b, 4, DC, EngineOptions(), wrap(["D1"])),
    "ablation_curve": lambda b, wrap: ablation_curve(
        b, DC, wrap(["D1", "D2", "D3"]), wrap([0, 2])),
    "aggregate_rankings": lambda b, wrap: aggregate_rankings(wrap(b.rankings), DC),
    "descriptive_stats": lambda b, wrap: descriptive_stats(wrap(b.releases)),
    "calibrate": lambda b, wrap: calibrate(
        wrap(b.releases), wrap(b.resolve_active(DC)), wrap(b.resolve_active(EFF)),
        wrap(b.quantifications)),
    "predict_defect_content": lambda b, wrap: _predict(
        b, wrap, predict_defect_content, DC),
    "predict_effectiveness": lambda b, wrap: _predict(
        b, wrap, predict_effectiveness, EFF),
    "increase_distribution": _increase,
    "analytic_mean_increase": lambda b, wrap: analytic_mean_increase(
        wrap(b.resolve_active(DC)), wrap(b.quantifications), b.releases[0].levels, DC),
    "accuracy_metrics": lambda b, wrap: accuracy_metrics(
        wrap([(1.0, 2.0), (3.0, 4.0)]), wrap(["A", "B"])),
}


@pytest.mark.parametrize("call", list(ONE_SHOT_CALLS))
def test_one_shot_iterator_reads_like_its_list(example_bundle, call):
    run = ONE_SHOT_CALLS[call]
    assert run(example_bundle, iter) == run(example_bundle, list)

