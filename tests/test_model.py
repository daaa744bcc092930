import copy
import json
import math
import pickle
import statistics

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from defectcast import (
    AccuracyCase,
    AccuracyReport,
    CalibratedContext,
    ContextBundle,
    DescriptiveStats,
    EngineOptions,
    ExpertTriangle,
    FactorRanking,
    IncreaseResult,
    InfluenceFactor,
    MODEL_INFLUENCE_FACTOR,
    MissingFactorError,
    NewReleaseSpec,
    Prediction,
    RankedFactor,
    ReleaseCalibration,
    ReleaseRecord,
    Target,
    UndefinedEffectivenessError,
    ValidationIssue,
    WilcoxonResult,
    aggregate_rankings,
    calibrate,
    defect_content,
    defect_density,
    descriptive_stats,
    effectiveness,
    increase_distribution,
    loocv,
    predict_defect_content,
    render_report,
    wilcoxon_one_sided,
)

from defectcast.model import _FrozenDict, _mean, _median, _Record

from conftest import GENERIC_LEVELS, make_factor, make_release, make_triangle


class TestDefectMeasures:
    def test_defect_content_sum(self):
        assert defect_content(make_release(found=40, slipped=10)) == 50
        assert defect_content(make_release(found=7, slipped=3)) == 10

    def test_defect_content_zero(self):
        assert defect_content(make_release(found=0, slipped=0)) == 0

    def test_defect_density(self):
        assert defect_density(make_release(size=100, found=40, slipped=10)) == 0.5
        assert defect_density(make_release(size=10, found=0, slipped=0)) == 0
        assert defect_density(make_release(size=25, found=40, slipped=10)) == 2.0

    def test_effectiveness(self):
        assert effectiveness(make_release(found=40, slipped=10)) == 0.8
        assert effectiveness(make_release(found=5, slipped=0)) == 1.0

    def test_effectiveness_undefined_for_defect_free_release(self):
        with pytest.raises(UndefinedEffectivenessError):
            effectiveness(make_release(found=0, slipped=0))

    @given(
        size=st.integers(1, 10_000),
        found=st.integers(0, 5_000),
        slipped=st.integers(0, 5_000),
    )
    def test_density_times_size_is_content(self, size, found, slipped):
        r = make_release(size=size, found=found, slipped=slipped)
        dc = defect_content(r)
        assert defect_density(r) * size == pytest.approx(dc, rel=1e-12)

    @given(found=st.integers(0, 5_000), slipped=st.integers(0, 5_000))
    def test_effectiveness_in_unit_interval(self, found, slipped):
        r = make_release(found=found, slipped=slipped)
        if defect_content(r) > 0:
            assert 0 <= effectiveness(r) <= 1


class TestTypeInvariants:
    def test_release_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            make_release(size=0)

    def test_release_rejects_bad_level(self):
        with pytest.raises(ValueError):
            make_release(levels={"D1": 4})
        with pytest.raises(ValueError):
            make_release(levels={"D1": -1})

    @pytest.mark.parametrize("kw,measure", [
        ({"size": 1e-310}, "density"),
        ({"size": 1e-300, "found": 1e10}, "density"),
        ({"found": 1.5e308, "slipped": 1.5e308}, "content"),
    ])
    def test_release_measures_must_be_finite(self, kw, measure):
        # Finite numbers whose sum, or whose quotient by a tiny size, is not.
        with pytest.raises(ValueError, match=f"^release 'R': defect {measure} must "):
            make_release(**kw)

    def test_tiny_size_with_finite_density_constructs(self):
        for found, density in [(0, 0.0), (1e-10, 1e-10 / 1e-310)]:
            release = make_release(size=1e-310, found=found, slipped=0)
            assert defect_density(release) == density

    @pytest.mark.parametrize("value", ["false", "no", 1, 0, None])
    def test_release_excluded_must_be_boolean(self, value):
        # bool("false") is True: a truthy non-boolean would exclude the release.
        with pytest.raises(ValueError, match="excluded must be a boolean"):
            make_release(excluded=value)
        with pytest.raises(ValueError, match="excluded must be a boolean"):
            make_release()._replace(excluded=value)

    def test_factor_needs_four_levels(self):
        with pytest.raises(ValueError):
            InfluenceFactor("D1", "f", Target.DEFECT_CONTENT, ("a", "b", "c"))

    @pytest.mark.parametrize("levels", [[1, 2, 3, 4], ["a", "b", "c", None]])
    def test_factor_levels_must_be_strings(self, levels):
        with pytest.raises(ValueError, match=r"^levels\[[03]\] must be a string, got "):
            InfluenceFactor("D1", "f", Target.DEFECT_CONTENT, levels)

    def test_triangle_ordering_enforced(self):
        with pytest.raises(ValueError):
            ExpertTriangle("X", "D1", Target.DEFECT_CONTENT, 0.2, 0.1, 0.3)
        with pytest.raises(ValueError):
            ExpertTriangle("X", "D1", Target.DEFECT_CONTENT, -0.1, 0.1, 0.3)

    @pytest.mark.parametrize("build,field", [
        (lambda: ReleaseRecord(5, True, 40, 10, {}), "id"),
        (lambda: ReleaseRecord("A", True, 40, 10, {}), "size"),
        (lambda: make_release(size=np.int64(100)), "size"),
        (lambda: make_release(levels=[("D1", 1)]), "levels"),
        (lambda: make_release(note=None), "note"),
        (lambda: make_release()._replace(note=None), "note"),
        (lambda: ExpertTriangle("X", "D1", "defect_content", False, True, True),
         "minimum"),
        (lambda: InfluenceFactor(7, "f", Target.DEFECT_CONTENT, GENERIC_LEVELS), "id"),
        (lambda: FactorRanking("X1", Target.DEFECT_CONTENT, [("D1", 1), ("D1", 2)]),
         "ranks"),
        (lambda: FactorRanking(5, Target.DEFECT_CONTENT, {"D1": 1}), "expert"),
        (lambda: NewReleaseSpec(size=True, levels={"D1": 1}), "size"),
        (lambda: NewReleaseSpec(size="130", levels={"D1": 1}), "size"),
        # "abcd" made a factor with four one-letter levels.
        (lambda: InfluenceFactor("D1", "n", Target.DEFECT_CONTENT, "abcd"), "levels"),
        (lambda: make_factor()._replace(levels="abcd"), "levels"),
        (lambda: ContextBundle(factors="D1", quantifications=()), "factors"),
        (lambda: DescriptiveStats(per_release={}, flagged=iter(())), "flagged"),
    ], ids=["release-id", "release-size-bool", "release-size-numpy-int",
            "release-level-pairs", "release-note-none", "replace-note-none",
            "triangle-bools", "factor-id-int", "ranking-pairs", "ranking-expert-int",
            "spec-size-bool", "spec-size-str", "factor-levels-str",
            "replace-levels-str", "bundle-factors-str", "stats-flagged-iterator"])
    def test_field_of_the_wrong_type_is_named(self, build, field):
        # Each of these constructed before, and a boolean size predicted a
        # release of size 1.
        with pytest.raises(ValueError, match=f"^{field} must be "):
            build()

    def test_int_for_a_float_field_is_stored_as_float(self):
        release = make_release(size=100, found=40, slipped=10)
        tri = ExpertTriangle("X", "D1", Target.DEFECT_CONTENT, 0, 1, 2)
        values = (release.size, release.defects_found, release.defects_slipped,
                  tri.minimum, tri.most_likely, tri.maximum,
                  NewReleaseSpec(size=130, levels={}).size)
        assert [type(v) for v in values] == [float] * 7
        assert values == (100.0, 40.0, 10.0, 0.0, 1.0, 2.0, 130.0)

    def test_mapping_fields_are_copies(self):
        levels, ranks, quantiles = {"D1": 1}, {"D1": 1}, {0.5: 1.0}
        release = make_release(levels=levels)
        spec = NewReleaseSpec(size=1, levels=levels)
        ranking = FactorRanking("X1", Target.DEFECT_CONTENT, ranks)
        prediction = Prediction(Target.DEFECT_CONTENT, 1.0, quantiles, 10, 0)
        levels["D1"] = 3
        ranks["D2"] = 2
        quantiles[0.9] = 2.0
        assert release.levels == spec.levels == ranking.ranks == {"D1": 1}
        assert prediction.quantiles == {0.5: 1.0}
        # _replace checks the frozen copy's entries again and stores an equal copy.
        again = release._replace().levels
        assert again == release.levels and type(again) is _FrozenDict

    def test_a_mapping_frozen_by_another_rule_is_checked_again(self):
        # Only the rule that froze a mapping may skip its entries.
        stats = descriptive_stats([make_release("A")])
        with pytest.raises(ValueError, match=r"^levels\['defect_density'\] must be an "
                                             r"integer, got a number$"):
            NewReleaseSpec(size=1, levels=stats.per_release["A"])

    def test_loaded_bundle_is_frozen_all_the_way_down(self, example_bundle):
        release = example_bundle.releases[0]
        with pytest.raises(TypeError, match="read-only"):
            release.levels["D1"] = 3
        stats = descriptive_stats(example_bundle.releases)
        with pytest.raises(TypeError, match="read-only"):
            stats.per_release[release.id]["defect_density"] = 0.0

    def test_prediction_stores_a_target_value_as_the_target(self):
        prediction = Prediction("defect_content", 1.0, {0.5: 1.0}, 10, 0)
        assert prediction.target is Target.DEFECT_CONTENT
        # A string target used to reach render_report and fail on .value.
        assert json.loads(render_report(prediction))["target"] == "defect_content"


# Each way to change a dict in place.
MUTATIONS = (
    lambda m: m.__setitem__("new", 1),
    lambda m: m.__delitem__(next(iter(m), "new")),
    lambda m: m.__ior__({"new": 1}),
    lambda m: m.clear(),
    lambda m: m.pop(next(iter(m), "new"), None),
    lambda m: m.popitem(),
    lambda m: m.setdefault("new", 1),
    lambda m: m.update(new=1),
)

IDS = st.sampled_from(["A", "B", "C", "D1", "E1"])
FLOATS = st.floats(-1e6, 1e6, allow_nan=False)


def _mapping_records():
    """One strategy per record with a mapping field."""
    levels = st.dictionaries(IDS, st.integers(0, 3), max_size=4)
    quantiles = st.dictionaries(st.floats(0, 1), FLOATS, max_size=4)
    calibration = st.builds(lambda rid, x: ReleaseCalibration(rid, x, x, 1.0, None),
                            IDS, FLOATS)
    active = st.none() | st.dictionaries(
        st.sampled_from(list(Target)), st.lists(IDS, max_size=3), max_size=2)
    return {
        ReleaseRecord: st.builds(lambda lv: make_release(levels=lv), levels),
        FactorRanking: st.builds(lambda r: ranking("X1", r),
                                 st.dictionaries(IDS, st.integers(1, 5), max_size=4)),
        NewReleaseSpec: st.builds(lambda lv: NewReleaseSpec(size=2, levels=lv), levels),
        Prediction: st.builds(lambda q: Prediction("effectiveness", 0.5, q, 10, 0),
                              quantiles),
        CalibratedContext: st.builds(
            lambda cs: CalibratedContext({c.release_id: c for c in cs}, 1.0, None,
                                         sorted({c.release_id for c in cs})),
            st.lists(calibration, max_size=4)),
        DescriptiveStats: st.builds(
            lambda rs: descriptive_stats([make_release(str(i), found=f)
                                          for i, f in enumerate(rs)]),
            st.lists(st.integers(0, 50), max_size=5)),
        ContextBundle: st.builds(
            lambda act: ContextBundle(factors=[make_factor()],
                                      quantifications=[make_triangle()],
                                      active_factors=act),
            active),
        AccuracyReport: st.builds(lambda q: AccuracyReport("m", [], 0.0, q), quantiles),
    }


MAPPING_RECORDS = _mapping_records()


def test_every_record_with_a_mapping_is_fuzzed():
    with_mapping = {r for r in FIELD_RULES if _fields_of(r, "Mapping[")}
    assert set(MAPPING_RECORDS) == with_mapping


@given(record=st.one_of(*MAPPING_RECORDS.values()))
def test_mapping_fields_are_read_only_and_hash_by_value(record):
    for name in _fields_of(type(record), "Mapping["):
        mapping = getattr(record, name)
        if mapping is None:
            continue
        before = dict(mapping)
        for mutate in MUTATIONS:
            with pytest.raises(TypeError, match="read-only"):
                mutate(mapping)
        assert mapping == before
    again = record._replace()
    assert record == again
    assert hash(record) == hash(again)


def test_every_record_but_increase_result_hashes(example_bundle):
    bundle = example_bundle
    dc = bundle.factors_for(Target.DEFECT_CONTENT)
    eff = bundle.factors_for(Target.EFFECTIVENESS)
    ctx = calibrate(bundle.releases, dc, eff, bundle.quantifications)
    spec = NewReleaseSpec(size=100, levels=bundle.releases[0].levels)
    report = loocv(bundle, MODEL_INFLUENCE_FACTOR)
    records = [
        bundle, bundle.releases[0], bundle.factors[0], bundle.quantifications[0],
        bundle.rankings[0], ctx, next(iter(ctx.per_release.values())), spec,
        predict_defect_content(ctx, spec, dc, bundle.quantifications),
        report, report.cases[0], EngineOptions(),
        descriptive_stats(bundle.releases),
        aggregate_rankings(bundle.rankings, Target.EFFECTIVENESS)[0],
        wilcoxon_one_sided([(1.0, 2.0), (3.0, 1.0)]),
        ValidationIssue("document", "json", "bad"),
        bundle._replace(active_factors={"defect_content": ["D1"]}),
    ]
    assert {type(r) for r in records} == set(FIELD_RULES) - {IncreaseResult}
    for record in records:
        assert hash(record) == hash(record._replace())
    # An ndarray field has no hash.
    result = increase_distribution(dc, bundle.quantifications, spec.levels,
                                   Target.DEFECT_CONTENT)
    with pytest.raises(TypeError, match="unhashable"):
        hash(result)


def test_records_round_trip_through_pickle_and_deepcopy(example_bundle):
    # Unpickling a dict subclass refills it through __setitem__, which a
    # _FrozenDict refuses; its __reduce__ rebuilds it from a plain dict.
    dc = example_bundle.factors_for(Target.DEFECT_CONTENT)
    ctx = calibrate(example_bundle.releases, dc, [], example_bundle.quantifications)
    spec = NewReleaseSpec(size=100, levels=example_bundle.releases[0].levels)
    prediction = predict_defect_content(ctx, spec, dc, example_bundle.quantifications)
    for record in (example_bundle, ctx, prediction):
        for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
            assert copied == record
            assert hash(copied) == hash(record)


# _Record reads these rules from the annotation strings, so an edited
# annotation (``Optional[float]``, or ``dict[str, int]`` for a mapping)
# would drop a check without a word; this table would not.  It lists each
# field that has a rule, by the annotation the rule was read from; every
# field but IncreaseResult's ndarray has one.
FIELD_RULES = {
    ReleaseRecord: {"id": "str", "size": "float", "defects_found": "float",
                    "defects_slipped": "float", "levels": "Mapping[str, int]",
                    "excluded": "bool", "note": "str"},
    ExpertTriangle: {"expert": "str", "factor_id": "str", "target": "Target",
                     "minimum": "float", "most_likely": "float", "maximum": "float"},
    InfluenceFactor: {"id": "str", "name": "str", "target": "Target",
                      "levels": "tuple[str, str, str, str]", "description": "str"},
    FactorRanking: {"expert": "str", "target": "Target", "ranks": "Mapping[str, int]"},
    RankedFactor: {"factor_id": "str", "mean_rank": "float", "median_rank": "float"},
    NewReleaseSpec: {"size": "float", "levels": "Mapping[str, int]"},
    Prediction: {"target": "Target", "point": "float",
                 "quantiles": "Mapping[float, float]", "n_samples": "int",
                 "seed": "int"},
    EngineOptions: {"n_samples": "int", "seed": "int", "point": "str"},
    IncreaseResult: {"target": "Target", "analytic_mean": "float", "point": "float"},
    ReleaseCalibration: {"release_id": "str", "ddif_point": "float",
                         "eif_point": "float", "dd_base": "float",
                         "eff_base": "float | None"},
    CalibratedContext: {"per_release": "Mapping[str, ReleaseCalibration]",
                        "dd_base_median": "float", "eff_base_median": "float | None",
                        "included_ids": "tuple[str, ...]"},
    DescriptiveStats: {"per_release": "Mapping[str, Mapping[str, float | None]]",
                       "flagged": "tuple[tuple[str, str, str], ...]"},
    ValidationIssue: {"entity": "str", "field": "str", "message": "str"},
    ContextBundle: {"factors": "tuple[InfluenceFactor, ...]",
                    "quantifications": "tuple[ExpertTriangle, ...]",
                    "rankings": "tuple[FactorRanking, ...]",
                    "releases": "tuple[ReleaseRecord, ...]",
                    "active_factors": "Mapping[str, tuple[str, ...]] | None",
                    "warnings": "tuple[str, ...]"},
    AccuracyCase: {"release_id": "str", "predicted": "float", "actual": "float",
                   "re": "float", "mre": "float"},
    AccuracyReport: {"model_name": "str", "cases": "tuple[AccuracyCase, ...]",
                     "mmre": "float", "pred": "Mapping[float, float]"},
    WilcoxonResult: {"w_plus": "float", "w_minus": "float", "n_effective": "int",
                     "p_one_sided": "float", "method": "str"},
}


def _fields_of(record, prefix):
    return [n for n, a in FIELD_RULES[record].items() if a.startswith(prefix)]


@pytest.mark.parametrize("record", FIELD_RULES, ids=lambda r: r.__name__)
def test_record_field_rules_are_pinned(record):
    rules = {name: record.__annotations__[name] for name, _ in record._rules}
    assert rules == FIELD_RULES[record]


def test_every_record_has_pinned_field_rules():
    records = {r for r in _Record.__subclasses__()
               if r.__module__.startswith("defectcast.")}
    assert records == set(FIELD_RULES)


# Each reproduction built a record that failed late or rendered a wrong type.
@pytest.mark.parametrize("build,field,message", [
    (lambda: Prediction("defect_content", 1.0, {0.5: 1.0}, "ten", True),
     "n_samples", "n_samples must be an integer, got a string"),
    (lambda: WilcoxonResult(1.0, 2.0, 2.5, 0.3, "x"),
     "n_effective", "n_effective must be an integer, got a number"),
    (lambda: Prediction("defect_content", 1.0, {"a": "b"}, 10, 0),
     "quantiles", "quantiles key 'a' must be a number, got a string"),
    (lambda: CalibratedContext({"A": "x"}, 1.0, None, ["A"]),
     "per_release", "per_release['A'] must be ReleaseCalibration, got a string"),
    (lambda: ReleaseRecord("A", 1, 1, 1, {1: 2}),
     "levels", "levels key 1 must be a string, got a number"),
    (lambda: ContextBundle(factors=("D1",), quantifications=()),
     "factors", "factors[0] must be InfluenceFactor, got a string"),
], ids=["prediction-n-samples-str", "wilcoxon-n-effective-float",
        "prediction-quantile-str", "context-calibration-str", "release-level-key-int",
        "bundle-factor-str"])
def test_wrong_entry_types_fail_when_built(build, field, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert (exc.value.field, str(exc.value)) == (field, message)


def _valid_records():
    """One valid record of each class, each mapping and tuple non-empty."""
    case = AccuracyCase("A", 1.0, 1.0, 0.0, 0.0)
    calibration = ReleaseCalibration("A", 0.0, 0.0, 1.0, None)
    return {
        ReleaseRecord: make_release(levels={"D1": 1}),
        ExpertTriangle: make_triangle(),
        InfluenceFactor: make_factor(),
        FactorRanking: FactorRanking("X1", Target.DEFECT_CONTENT, {"D1": 1}),
        RankedFactor: RankedFactor("D1", 1.0, 1.0),
        NewReleaseSpec: NewReleaseSpec(size=2, levels={"D1": 0}),
        Prediction: Prediction("effectiveness", 0.5, {0.5: 0.5}, 10, 0),
        EngineOptions: EngineOptions(),
        IncreaseResult: IncreaseResult(Target.DEFECT_CONTENT, np.zeros(1), 0.0, 0.0),
        ReleaseCalibration: calibration,
        CalibratedContext: CalibratedContext({"A": calibration}, 1.0, None, ["A"]),
        DescriptiveStats: DescriptiveStats(
            {"A": {"defect_density": 0.5, "effectiveness": None}},
            [("A", "defect_density", "above Q3 + 1.5*IQR")]),
        ValidationIssue: ValidationIssue("document", "json", "bad"),
        ContextBundle: ContextBundle(
            factors=[make_factor()], quantifications=[make_triangle()],
            rankings=[FactorRanking("X1", Target.DEFECT_CONTENT, {"D1": 1})],
            releases=[make_release()],
            active_factors={"defect_content": ["D1"]}, warnings=["w"]),
        AccuracyCase: case,
        AccuracyReport: AccuracyReport("m", [case], 0.0, {0.25: 1.0}),
        WilcoxonResult: WilcoxonResult(1.0, 2.0, 2, 0.3, "exact_enumeration"),
    }


VALID_RECORDS = _valid_records()
# Hashable values that no field rule takes, nor any entry rule.
NO_RULE_TAKES = st.one_of(st.binary(), st.complex_numbers(), st.just(np.int64(1)),
                          st.frozensets(st.integers(), max_size=2))
NOT_AN_INT = st.one_of(st.booleans(), st.floats(), st.text(max_size=3), st.none(),
                       NO_RULE_TAKES)
CHECKED_SLOTS = [(record, name) for record in FIELD_RULES
                 for name in _fields_of(record, "int") + _fields_of(record, "Mapping[")
                 + _fields_of(record, "tuple[")]


@given(data=st.data())
def test_wrong_typed_entry_is_named_by_its_field(data):
    record, name = data.draw(st.sampled_from(CHECKED_SLOTS))
    valid = VALID_RECORDS[record]
    value = getattr(valid, name)
    if FIELD_RULES[record][name] == "int":
        value = data.draw(NOT_AN_INT)
    elif isinstance(value, dict):
        value, wrong = dict(value), data.draw(NO_RULE_TAKES)
        if data.draw(st.booleans()):  # a wrong key, with a valid value
            assume(wrong not in value)
            value[wrong] = next(iter(value.values()))
        else:
            value[data.draw(st.sampled_from(list(value)))] = wrong
    else:  # a tuple with one wrong element
        value = list(value)
        value[data.draw(st.integers(0, len(value) - 1))] = data.draw(NO_RULE_TAKES)
    with pytest.raises(ValueError) as exc:
        valid._replace(**{name: value})
    assert exc.value.field == name
    assert str(exc.value).startswith(name)


def ranking(expert, ranks, target=Target.DEFECT_CONTENT):
    return FactorRanking(expert=expert, target=target, ranks=ranks)


class TestAggregateRankings:
    def test_single_voter(self):
        out = aggregate_rankings([ranking("X1", {"A": 1, "B": 2})],
                                 Target.DEFECT_CONTENT)
        assert [f.factor_id for f in out] == ["A", "B"]
        assert [f.mean_rank for f in out] == [1, 2]

    def test_symmetric_tie_broken_by_id(self):
        out = aggregate_rankings(
            [ranking("X1", {"A": 1, "B": 2}), ranking("X2", {"A": 2, "B": 1})],
            Target.DEFECT_CONTENT,
        )
        assert [f.factor_id for f in out] == ["A", "B"]
        assert out[0].mean_rank == out[1].mean_rank == 1.5

    def test_three_voter_means(self):
        out = aggregate_rankings(
            [
                ranking("X1", {"A": 1, "B": 2}),
                ranking("X2", {"A": 1, "B": 2}),
                ranking("X3", {"A": 2, "B": 1}),
            ],
            Target.DEFECT_CONTENT,
        )
        assert [f.factor_id for f in out] == ["A", "B"]
        assert out[0].mean_rank == pytest.approx(4 / 3)
        assert out[1].mean_rank == pytest.approx(5 / 3)

    def test_missing_factor_rejected(self):
        with pytest.raises(MissingFactorError):
            aggregate_rankings(
                [ranking("X1", {"A": 1, "B": 2}), ranking("X2", {"A": 1})],
                Target.DEFECT_CONTENT,
            )

    def test_rank_outside_range_rejected(self):
        with pytest.raises(ValueError):
            aggregate_rankings([ranking("X1", {"A": 1, "B": 3})],
                               Target.DEFECT_CONTENT)

    def test_output_is_permutation_and_order_invariant(self):
        votes = [
            ranking("X1", {"A": 3, "B": 1, "C": 2}),
            ranking("X2", {"A": 2, "B": 1, "C": 3}),
            ranking("X3", {"A": 1, "B": 3, "C": 2}),
        ]
        out = aggregate_rankings(votes, Target.DEFECT_CONTENT)
        assert sorted(f.factor_id for f in out) == ["A", "B", "C"]
        assert out == aggregate_rankings(list(reversed(votes)),
                                         Target.DEFECT_CONTENT)

    def test_other_target_ignored(self):
        votes = [
            ranking("X1", {"A": 1, "B": 2}),
            ranking("X1", {"E": 1}, target=Target.EFFECTIVENESS),
        ]
        out = aggregate_rankings(votes, Target.EFFECTIVENESS)
        assert [f.factor_id for f in out] == ["E"]


class TestRecord:
    def test_positional_keyword_and_default_fields(self):
        by_position = InfluenceFactor("D1", "f", "defect_content", ["a", "b", "c", "d"])
        assert by_position == InfluenceFactor(
            id="D1", name="f", target=Target.DEFECT_CONTENT,
            levels=("a", "b", "c", "d"), description="",
        )
        # The field rules stored the target and the levels tuple.
        assert by_position.target is Target.DEFECT_CONTENT
        assert by_position.levels == ("a", "b", "c", "d")
        assert InfluenceFactor._fields == ("id", "name", "target", "levels", "description")

    @pytest.mark.parametrize("args,kwargs", [
        (("D1", 1.0), {}),
        (("D1", 1.0, 1.0), {"extra": 1}),
        (("D1", 1.0, 1.0, 1.0), {}),
        (("D1", 1.0, 1.0), {"factor_id": "D2"}),
    ], ids=["missing", "unknown", "too-many", "twice"])
    def test_bad_fields_are_type_errors(self, args, kwargs):
        with pytest.raises(TypeError):
            RankedFactor(*args, **kwargs)

    def test_fields_cannot_be_assigned_or_deleted(self):
        record = RankedFactor("D1", 1.0, 1.0)
        with pytest.raises(AttributeError):
            record.mean_rank = 2.0
        with pytest.raises(AttributeError):
            del record.factor_id
        with pytest.raises(AttributeError):
            record.other = 1
        assert record.mean_rank == 1.0

    def test_equality_hash_and_repr(self):
        record = RankedFactor("D1", 1.0, 1.5)
        assert record == RankedFactor("D1", 1.0, 1.5)
        assert hash(record) == hash(RankedFactor("D1", 1.0, 1.5))
        assert record != RankedFactor("D1", 1.0, 2.0)
        assert record != ("D1", 1.0, 1.5)
        assert repr(record) == \
            "RankedFactor(factor_id='D1', mean_rank=1.0, median_rank=1.5)"

    def test_replace_copies_and_rechecks(self):
        tri = ExpertTriangle("X", "D1", Target.DEFECT_CONTENT, 0.1, 0.2, 0.3)
        wider = tri._replace(maximum=0.5)
        assert (wider.minimum, wider.maximum, tri.maximum) == (0.1, 0.5, 0.3)
        with pytest.raises(ValueError):
            tri._replace(minimum=0.4)
        with pytest.raises(TypeError):
            tri._replace(mode=0.2)


# Few distinct values, so most lists hold ties (and both zeros).
_TIE_HEAVY = st.one_of(
    st.lists(
        st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.3, 1e-300, 2.5, 1e300])
        | st.floats(-1e300, 1e300),
        min_size=1, max_size=300,
    ),
    st.lists(st.integers(-3, 3) | st.integers(-2**60, 2**60), min_size=1, max_size=300),
)


class TestMedianOracle:
    @given(values=_TIE_HEAVY)
    def test_median_matches_statistics_bit_for_bit(self, values):
        ours, oracle = _median(values), statistics.median(values)
        assert type(ours) is type(oracle)
        assert float(ours).hex() == float(oracle).hex()

    @given(values=_TIE_HEAVY)
    def test_fsum_mean_matches_fmean_bit_for_bit(self, values):
        assert _mean(values).hex() == statistics.fmean(values).hex()

    @given(values=st.lists(st.floats(1, 2, exclude_max=True), min_size=2, max_size=300))
    def test_mean_past_the_float_range_keeps_its_bits(self, values):
        # 2**1023 * values sums past the float range; its mean is the mean
        # of ``values`` scaled by 2**1023, as with an unbounded exponent.
        huge = [math.ldexp(v, 1023) for v in values]
        assert _mean(huge).hex() == math.ldexp(_mean(values), 1023).hex()

    @given(votes=st.lists(st.permutations([1, 2, 3, 4]), min_size=1, max_size=40))
    def test_aggregate_rankings_matches_statistics(self, votes):
        rankings = [ranking(f"X{i}", dict(zip("ABCD", v))) for i, v in enumerate(votes)]
        for rf in aggregate_rankings(rankings, Target.DEFECT_CONTENT):
            ranks = [dict(zip("ABCD", v))[rf.factor_id] for v in votes]
            assert rf.mean_rank.hex() == statistics.fmean(ranks).hex()
            assert rf.median_rank.hex() == float(statistics.median(ranks)).hex()
