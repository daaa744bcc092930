import contextlib
from collections import Counter
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defectcast import (
    BundleValidationError,
    EngineOptions,
    EstimationError,
    ExpertTriangle,
    FactorRanking,
    InfluenceFactor,
    Prediction,
    Predictions,
    ReleaseRecord,
    Target,
    ValidationIssue,
    aggregate_rankings,
    analytic_mean_increase,
    calibrate,
    descriptive_stats,
    load_bundle,
    render_report,
)
import defectcast.bundle
import defectcast.model
import defectcast.sampling
from defectcast.bundle import ContextBundle, _build_bundle, _read
from defectcast.model import _FieldError
from defectcast.cli import main

from conftest import EXAMPLE_BUNDLE, summarize_mres, unchecked_bundle


MINIMAL = {
    "factors": [
        {
            "id": "D1",
            "name": "Interface changes",
            "target": "defect_content",
            "levels": ["none", "one complex", ">15% complex", ">25% complex"],
        }
    ],
    "quantifications": [
        {
            "expert": "X1",
            "factor_id": "D1",
            "target": "defect_content",
            "min": 0.10,
            "most_likely": 0.15,
            "max": 0.25,
        }
    ],
    "releases": [
        {
            "id": "A",
            "size": 100,
            "defects_found": 40,
            "defects_slipped": 10,
            "levels": {"D1": 2},
        }
    ],
}


def write_json(tmp_path, payload, name="bundle.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestLoadBundle:
    def test_minimal_bundle_loads_clean(self, tmp_path):
        bundle = load_bundle(write_json(tmp_path, MINIMAL))
        assert len(bundle.factors) == 1
        assert bundle.releases[0].levels == {"D1": 2}
        assert bundle.warnings == ()

    def test_triangle_order_error_names_expert_and_factor(self, tmp_path):
        bad = json.loads(json.dumps(MINIMAL))
        bad["quantifications"][0]["most_likely"] = 0.05
        with pytest.raises(BundleValidationError) as exc:
            load_bundle(write_json(tmp_path, bad))
        issue = exc.value.errors[0]
        assert "X1" in issue.entity and "D1" in issue.entity

    def test_missing_level_is_reference_error(self, tmp_path):
        bad = json.loads(json.dumps(MINIMAL))
        bad["releases"][0]["levels"] = {}
        with pytest.raises(BundleValidationError) as exc:
            load_bundle(write_json(tmp_path, bad))
        assert any(
            "D1" in i.message and i.entity == "release:A" for i in exc.value.errors
        )

    def test_level_out_of_range(self, tmp_path):
        bad = json.loads(json.dumps(MINIMAL))
        bad["releases"][0]["levels"] = {"D1": 5}
        with pytest.raises(BundleValidationError):
            load_bundle(write_json(tmp_path, bad))

    @pytest.mark.parametrize("section,key,value", [
        ("releases", "size", float("nan")),
        ("releases", "size", float("inf")),
        ("releases", "defects_found", float("inf")),
        ("releases", "defects_slipped", float("nan")),
        ("quantifications", "min", float("nan")),
        ("quantifications", "max", float("inf")),
    ])
    def test_non_finite_number_rejected(self, tmp_path, section, key, value):
        bad = json.loads(json.dumps(MINIMAL))
        bad[section][0][key] = value  # json writes NaN / Infinity literals
        with pytest.raises(BundleValidationError) as exc:
            load_bundle(write_json(tmp_path, bad))
        assert any("finite" in i.message for i in exc.value.errors)

    @pytest.mark.parametrize("value", [1e160, 1.5e6])
    def test_triangle_value_above_the_cap_rejected(self, tmp_path, value):
        # Above a million-fold increase (max - min)**2 could overflow.  The cap
        # is the record's rule, so the triangle is not read and D1, its only
        # estimate gone, has no impact estimate either.
        bad = json.loads(json.dumps(MINIMAL))
        bad["quantifications"][0]["max"] = value
        with pytest.raises(BundleValidationError) as exc:
            load_bundle(write_json(tmp_path, bad))
        assert [(i.entity, i.field) for i in exc.value.errors] == [
            ("quantification:X1/D1", "max"), ("quantifications", "defect_content")
        ]

    @pytest.mark.parametrize("edit,measure", [
        ({"size": 1e-310}, "density"),
        ({"defects_found": 1.5e308, "defects_slipped": 1.5e308}, "content"),
    ], ids=["subnormal-size", "overflowing-sum"])
    def test_measure_past_the_float_range_names_the_release(
        self, tmp_path, edit, measure
    ):
        # Each number is finite, but A's defect density (43 / 1e-310) or
        # content (found + slipped) is not; both used to load.
        doc = json.loads(EXAMPLE_BUNDLE.read_text())
        next(r for r in doc["releases"] if r["id"] == "A").update(edit)
        with pytest.raises(BundleValidationError) as exc:
            load_bundle(write_json(tmp_path, doc))
        assert exc.value.errors == [ValidationIssue(
            "release:A", "measures/levels",
            f"release 'A': defect {measure} must be finite",
        )]

    @pytest.mark.parametrize("count", ["defects_found", "defects_slipped"])
    def test_negative_defect_count_names_the_release(self, tmp_path, count):
        doc = json.loads(EXAMPLE_BUNDLE.read_text())
        release = next(r for r in doc["releases"] if r["id"] == "A")
        release[count] = -1
        with pytest.raises(BundleValidationError) as exc:
            load_bundle(write_json(tmp_path, doc))
        message = "release 'A': defect counts must be >= 0"
        assert exc.value.errors == [
            ValidationIssue("release:A", "measures/levels", message)]
        with pytest.raises(ValueError) as exc:
            ReleaseRecord(**release)
        assert str(exc.value) == message

    def test_triangle_value_at_the_cap_loads(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["quantifications"][0]["max"] = 1e6
        assert load_bundle(write_json(tmp_path, doc)).quantifications[0].max == 1e6

    def test_level_issues_come_in_factor_id_order(self, tmp_path):
        # A set's order would change with the string hash seed between runs.
        doc = json.loads(EXAMPLE_BUNDLE.read_text())
        doc["releases"][0]["levels"] = {"ZZ": 1, "AA": 2}
        with pytest.raises(BundleValidationError) as exc:
            load_bundle(write_json(tmp_path, doc))
        missing = ["D1", "D2", "D3", "D4", "D5", "E1", "E2", "E3", "E4", "E5"]
        assert [i.message for i in exc.value.errors] == [
            "unknown factor 'AA'",
            *(f"missing level for factor {fid!r}" for fid in missing),
            "unknown factor 'ZZ'",
        ]

    def test_boolean_level_rejected(self, tmp_path):
        bad = json.loads(json.dumps(MINIMAL))
        bad["releases"][0]["levels"] = {"D1": True}
        with pytest.raises(BundleValidationError) as exc:
            load_bundle(write_json(tmp_path, bad))
        assert exc.value.errors == [ValidationIssue(
            "release:A", "levels", "levels['D1'] must be an integer, got a boolean")]

    @pytest.mark.parametrize("value", ["false", "no", 1, 0, None])
    def test_non_boolean_excluded_rejected(self, tmp_path, value):
        bad = json.loads(json.dumps(MINIMAL))
        bad["releases"][0]["excluded"] = value
        with pytest.raises(BundleValidationError) as exc:
            load_bundle(write_json(tmp_path, bad))
        assert [(i.entity, i.field) for i in exc.value.errors] == [
            ("release:A", "excluded")
        ]

    def test_boolean_rank_rejected(self, tmp_path):
        bad = json.loads(json.dumps(MINIMAL))
        bad["rankings"] = [
            {"expert": "X1", "target": "defect_content", "ranks": {"D1": True}}
        ]
        with pytest.raises(BundleValidationError) as exc:
            load_bundle(write_json(tmp_path, bad))
        assert exc.value.errors == [ValidationIssue(
            "ranking:X1", "ranks", "ranks['D1'] must be an integer, got a boolean")]

    def test_rank_below_one_rejected(self, tmp_path):
        bad = json.loads(json.dumps(MINIMAL))
        bad["rankings"] = [
            {"expert": "X1", "target": "defect_content", "ranks": {"D1": 0}}
        ]
        with pytest.raises(BundleValidationError) as exc:
            load_bundle(write_json(tmp_path, bad))
        assert exc.value.errors == [ValidationIssue(
            "ranking:X1", "ranks",
            "ranking by 'X1': rank for 'D1' must be a positive integer, got 0")]

    def test_every_item_key_is_a_field_of_its_record(self):
        # One name from JSON to record: the loader renames no key.
        doc = json.loads(EXAMPLE_BUNDLE.read_text())
        records = {"factors": InfluenceFactor, "quantifications": ExpertTriangle,
                   "rankings": FactorRanking, "releases": ReleaseRecord}
        for section, cls in records.items():
            keys = {key for item in doc[section] for key in item}
            assert keys <= set(cls._fields), (section, keys - set(cls._fields))

    def test_unknown_item_key_rejected(self, tmp_path):
        # A typo of "excluded" used to leave release A in the calibration.
        doc = json.loads(EXAMPLE_BUNDLE.read_text())
        doc["releases"][0]["exclude"] = True
        with pytest.raises(BundleValidationError) as exc:
            load_bundle(write_json(tmp_path, doc))
        assert exc.value.errors == [
            ValidationIssue("release:A", "exclude", "unknown key 'exclude'")]

    def test_unknown_top_level_key_rejected(self, tmp_path):
        # A typo of "active_factors" used to keep the default active set.
        doc = json.loads(json.dumps(MINIMAL))
        doc["warnings"] = []
        doc["active_factor"] = {"defect_content": ["D1"]}
        with pytest.raises(BundleValidationError) as exc:
            load_bundle(write_json(tmp_path, doc))
        assert exc.value.errors == [
            ValidationIssue("document", "active_factor", "unknown key 'active_factor'"),
            ValidationIssue("document", "warnings", "unknown key 'warnings'"),
        ]

    def test_read_names_the_least_unknown_key_before_any_rule(self):
        with pytest.raises(_FieldError) as exc:
            _read(ReleaseRecord, {"size": "x", "zz": 1, "b": 2})
        assert (exc.value.field, str(exc.value)) == ("b", "unknown key 'b'")

    def test_unquantified_factor_rejected(self, tmp_path):
        bad = json.loads(json.dumps(MINIMAL))
        bad["quantifications"] = []
        with pytest.raises(BundleValidationError) as exc:
            load_bundle(write_json(tmp_path, bad))
        assert any("no impact estimate" in i.message for i in exc.value.errors)

    def test_validation_is_exhaustive(self, tmp_path):
        bad = json.loads(json.dumps(MINIMAL))
        bad["quantifications"][0]["most_likely"] = 0.05
        bad["releases"][0]["levels"] = {"D1": 9}
        bad["releases"].append(dict(bad["releases"][0]))
        with pytest.raises(BundleValidationError) as exc:
            load_bundle(write_json(tmp_path, bad))
        assert len(exc.value.errors) >= 3

    def test_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(BundleValidationError):
            load_bundle(path)

    @pytest.mark.parametrize("text", [
        b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000,
    ], ids=["not-utf8", "too-deep"])
    def test_undecodable_document_rejected(self, tmp_path, text):
        path = tmp_path / "broken.json"
        path.write_bytes(text)
        with pytest.raises(BundleValidationError) as exc:
            load_bundle(path)
        assert exc.value.errors[0].entity == "document"

    @pytest.mark.parametrize("once,twice,repeated", [
        ('"size": 100', '"size": 100, "size": 1e9', "size"),
        ('{"D1": 2}', '{"D1": 2, "D1": 0}', "D1"),
    ], ids=["release-size", "levels-id"])
    def test_repeated_key_rejected(self, tmp_path, once, twice, repeated):
        # Otherwise the last copy would win without a word.
        doc = json.dumps(MINIMAL)
        assert doc.count(once) == 1
        path = tmp_path / "bundle.json"
        path.write_text(doc.replace(once, twice))
        with pytest.raises(BundleValidationError) as exc:
            load_bundle(path)
        assert exc.value.errors == [
            ValidationIssue("document", "json", f"duplicate keys [{repeated!r}]")
        ]

    @pytest.mark.parametrize("doc,entity,field", [
        ([1, 2], "document", "json"),
        ("x", "document", "json"),
        (None, "document", "json"),
        ({"factors": 5}, "document", "factors"),
        ({"factors": [1]}, "factor:#0", "type"),
        ({"releases": [1]}, "release:#0", "type"),
        ({"quantifications": [None]}, "quantification:#0", "type"),
        ({"rankings": ["a"]}, "ranking:#0", "type"),
        ({"active_factors": [1]}, "document", "active_factors"),
        ({"active_factors": {"defect_content": 3}},
         "active_factors", "defect_content"),
        ({"active_factors": {"defect_content": [[1]]}},
         "active_factors", "defect_content"),
        ({"releases": [{"id": "A", "size": 10**400, "defects_found": 1,
                        "defects_slipped": 1}]}, "release:A", "measures/levels"),
    ])
    def test_malformed_shape_rejected(self, tmp_path, doc, entity, field):
        with pytest.raises(BundleValidationError) as exc:
            load_bundle(write_json(tmp_path, doc))
        assert (entity, field) in [(i.entity, i.field) for i in exc.value.errors]

    def test_duplicate_active_factor_rejected(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["active_factors"] = {"defect_content": ["D1", "D1"]}
        with pytest.raises(BundleValidationError) as exc:
            load_bundle(write_json(tmp_path, doc))
        assert exc.value.errors == [
            ValidationIssue("active_factors", "defect_content", "duplicate factor ids ['D1']")
        ]

    def test_repeated_expert_estimate_rejected(self, tmp_path):
        # A second triangle would double the expert's weight in the mixture.
        doc = json.loads(json.dumps(MINIMAL))
        doc["quantifications"].append(dict(doc["quantifications"][0], max=0.3))
        with pytest.raises(BundleValidationError) as exc:
            load_bundle(write_json(tmp_path, doc))
        assert exc.value.errors == [
            ValidationIssue("quantifications", "defect_content",
                            "duplicate estimates of factor 'D1' by experts ['X1']")
        ]

    def test_repeated_expert_ranking_rejected(self, tmp_path):
        # A second ranking would double the expert's vote; aggregate_rankings
        # rejects it, as it does on the library path.
        doc = json.loads(json.dumps(MINIMAL))
        vote = {"expert": "X1", "target": "defect_content", "ranks": {"D1": 1}}
        doc["rankings"] = [vote, dict(vote)]
        with pytest.raises(BundleValidationError) as exc:
            load_bundle(write_json(tmp_path, doc))
        assert exc.value.errors == [
            ValidationIssue("rankings", "defect_content",
                            "duplicate rankings by experts ['X1']")
        ]

    # Each edit breaks a rule of aggregate_rankings, which every ranking
    # command applies: ranks in [1, k], one factor set per target.
    # A factor set other than the first ranking's is one issue, naming every
    # expert who ranks it: the last two cases used to name X2 alone.
    @pytest.mark.parametrize("indices,edit,target,message", [
        ((1,), lambda ranks: ranks.update(D1=9), "defect_content",
         "ranking by 'X2': rank for 'D1' must be an integer in [1, 5], got 9"),
        ((1,), lambda ranks: ranks.pop("D5"), "defect_content",
         "rankings by experts ['X2'] disagree on the factor set: ['D5']"),
        ((4,), lambda ranks: ranks.pop("E5"), "effectiveness",
         "rankings by experts ['X2', 'X3', 'X4'] disagree on the factor set: ['E5']"),
        ((2, 1), lambda ranks: ranks.pop("D5"), "defect_content",
         "rankings by experts ['X2', 'X3'] disagree on the factor set: ['D5']"),
    ], ids=["rank-above-k", "missing-factor", "effectiveness-missing-factor",
            "missing-factor-two-experts"])
    def test_rankings_follow_the_aggregation_rules(
        self, tmp_path, indices, edit, target, message
    ):
        doc = json.loads(EXAMPLE_BUNDLE.read_text())
        for index in indices:
            edit(doc["rankings"][index]["ranks"])
        with pytest.raises(BundleValidationError) as exc:
            load_bundle(write_json(tmp_path, doc))
        assert exc.value.errors == [ValidationIssue("rankings", target, message)]

    def test_repeated_factor_for_one_target_rejected(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["factors"].append(dict(doc["factors"][0]))
        with pytest.raises(BundleValidationError) as exc:
            load_bundle(write_json(tmp_path, doc))
        assert exc.value.errors == [
            ValidationIssue("factor:D1", "id", "duplicate id for target")
        ]

    def test_repeated_release_rejected(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["releases"].append(dict(doc["releases"][0]))
        with pytest.raises(BundleValidationError) as exc:
            load_bundle(write_json(tmp_path, doc))
        assert exc.value.errors == [
            ValidationIssue("release:A", "id", "duplicate release id")
        ]

    def test_active_factors_of_unknown_target_rejected(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["active_factors"] = {"defect-content": ["D1"], "bogus": []}
        with pytest.raises(BundleValidationError) as exc:
            load_bundle(write_json(tmp_path, doc))
        assert exc.value.errors == [
            ValidationIssue("active_factors", "defect-content", "unknown target"),
            ValidationIssue("active_factors", "bogus", "unknown target"),
        ]

    @pytest.mark.parametrize("cls,obj", [
        (ReleaseRecord, MINIMAL["releases"][0]),
        (ExpertTriangle, MINIMAL["quantifications"][0]),
    ], ids=["release", "triangle"])
    def test_read_applies_each_rule_once(self, monkeypatch, cls, obj):
        # Each field is checked, and a mapping frozen, by one call of its rule.
        calls = Counter()

        def counted(name, rule):
            def call(*args):
                calls[name] += 1
                return rule(*args)
            return call

        rules = tuple((name, counted(name, rule)) for name, rule in cls._rules)
        monkeypatch.setattr(cls, "_rules", rules)
        _read(cls, obj)
        assert calls == Counter(name for name, _ in rules)

    def test_loaded_records_are_immutable(self, example_bundle):
        with pytest.raises(AttributeError):
            example_bundle.releases[0].size = 1.0
        with pytest.raises(AttributeError):
            example_bundle.quantifications[0].max = 9.0
        with pytest.raises(AttributeError):
            example_bundle.releases = ()

    def test_both_target_name_warns(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["factors"].append(
            {
                "id": "E1",
                "name": "Interface changes",
                "target": "effectiveness",
                "levels": ["a", "b", "c", "d"],
            }
        )
        doc["quantifications"].append(
            {
                "expert": "X1", "factor_id": "E1", "target": "effectiveness",
                "min": 0.0, "most_likely": 0.1, "max": 0.2,
            }
        )
        doc["releases"][0]["levels"]["E1"] = 1
        bundle = load_bundle(write_json(tmp_path, doc))
        assert any("both defect content and effectiveness" in w
                   for w in bundle.warnings)

    def test_outlier_release_warns(self, example_bundle):
        assert any("outlier" in w for w in example_bundle.warnings)

    def test_warnings_follow_the_bundle(self, example_bundle):
        # Stored at load time, they kept naming 'H' once it had left the
        # bundle, and a bundle built in code had none.
        b = example_bundle
        assert b.warnings[2:] == ("release 'H': effectiveness outlier "
                                  "(below Q1 - 1.5*IQR (0.461538 < 0.67941))",)
        assert b._replace(releases=b.releases[:3]).warnings == b.warnings[:2]
        assert b.with_excluded(["H"]).warnings == b.warnings
        built = ContextBundle(b.factors, b.quantifications, releases=b.releases)
        assert built.warnings == b.warnings

    def test_loading_derives_no_warning(self, monkeypatch):
        assert "warnings" not in ContextBundle._fields

        def screen(releases):
            raise AssertionError("the outlier screen ran")

        monkeypatch.setattr(defectcast.bundle, "descriptive_stats", screen)
        bundle = load_bundle(EXAMPLE_BUNDLE)
        with pytest.raises(AssertionError, match="the outlier screen ran"):
            bundle.warnings

    def test_repeated_release_id_rejected_when_built(self, example_bundle):
        # Such a bundle used to build, and raised only where its warnings
        # were read (descriptive_stats) or where it was calibrated.
        with pytest.raises(BundleValidationError) as exc:
            example_bundle._replace(releases=example_bundle.releases[:2] * 2)
        assert exc.value.errors == [
            ValidationIssue("release:A", "id", "duplicate release id"),
            ValidationIssue("release:B", "id", "duplicate release id"),
        ]
        with pytest.raises(ValueError, match=r"repeated release ids \['A', 'B'\]"):
            descriptive_stats(example_bundle.releases[:2] * 2)


def _drop_estimates_of_d5(doc):
    doc["quantifications"] = [q for q in doc["quantifications"] if q["factor_id"] != "D5"]


# One edit of the example document per bundle rule.
RULE_BREAKING_EDITS = {
    "repeated-factor": lambda doc: doc["factors"].append(dict(doc["factors"][0])),
    "triangle-of-other-target": lambda doc: doc["quantifications"][0].update(
        factor_id="E1"),
    "ranking-of-unknown-factor": lambda doc: doc["rankings"][0]["ranks"].update(ZZ=6),
    "repeated-estimate": lambda doc: doc["quantifications"].append(
        dict(doc["quantifications"][0])),
    "repeated-ranking": lambda doc: doc["rankings"].append(dict(doc["rankings"][0])),
    "rank-above-k": lambda doc: doc["rankings"][1]["ranks"].update(D1=9),
    "repeated-release": lambda doc: doc["releases"].append(dict(doc["releases"][0])),
    "unlevelled-release": lambda doc: doc["releases"][0]["levels"].pop("D1"),
    "unknown-level": lambda doc: doc["releases"][0]["levels"].update(ZZ=1),
    "unestimated-factor": _drop_estimates_of_d5,
    "active-unknown-target": lambda doc: doc.update(active_factors={"bogus": []}),
    "active-unknown-id": lambda doc: doc.update(active_factors={"effectiveness": ["D1"]}),
    "active-repeated-id": lambda doc: doc.update(
        active_factors={"defect_content": ["D2", "D1", "D2"]}),
}


class TestEveryBundleObeysTheRules:
    @pytest.mark.parametrize("edit", list(RULE_BREAKING_EDITS))
    def test_built_bundle_has_the_loaders_issues(self, tmp_path, example_bundle, edit):
        # Only the loader applied these rules; a bundle built in code,
        # _replace'd or with_excluded used to hold any of these contents.
        doc = json.loads(EXAMPLE_BUNDLE.read_text())
        RULE_BREAKING_EDITS[edit](doc)
        with pytest.raises(BundleValidationError) as loaded:
            load_bundle(write_json(tmp_path, doc))
        issues = loaded.value.errors
        assert issues and all(i.entity != "document" for i in issues)
        fields = {section: [reader(item) for item in doc[section]]
                  for section, (reader, _, _) in defectcast.bundle._SECTIONS.items()}
        fields["active_factors"] = doc.get("active_factors")
        builds = {
            "built": lambda: ContextBundle(**fields),
            "replaced": lambda: example_bundle._replace(**fields),
            "excluded": lambda: unchecked_bundle(**fields).with_excluded(["A"]),
        }
        for name, build in builds.items():
            with pytest.raises(BundleValidationError) as exc:
                build()
            assert exc.value.errors == issues, name

    def test_one_function_checks_every_active_set(self, monkeypatch, tmp_path,
                                                   example_bundle):
        # The loader, a built bundle and an override all ask one helper.
        calls = []
        check = defectcast.bundle._active_set_problems

        def spy(ids, known, target):
            calls.append((tuple(ids), target))
            return check(ids, known, target)

        monkeypatch.setattr(defectcast.bundle, "_active_set_problems", spy)
        doc = json.loads(EXAMPLE_BUNDLE.read_text())
        doc["active_factors"] = {"defect_content": ["D1"]}
        load_bundle(write_json(tmp_path, doc))
        example_bundle._replace(active_factors={"effectiveness": ["E2"]})
        with pytest.raises(ValueError, match=r"^ids \['E1'\] name no defect_content "
                                             r"factor; duplicate factor ids \['D1'\]$"):
            example_bundle.resolve_active(Target.DEFECT_CONTENT, ["D1", "E1", "D1"])
        assert calls == [(("D1",), "defect_content"), (("E2",), "effectiveness"),
                         (("D1", "E1", "D1"), "defect_content")]

    def test_triangle_above_the_cap_is_a_record_error(self, tmp_path, example_bundle):
        # The cap was a bundle rule only, so a triangle built in code took
        # any max: at max=1e300 a level-3 draw gave -inf samples.
        doc = json.loads(EXAMPLE_BUNDLE.read_text())
        doc["quantifications"][0].update(max=2e6)
        with pytest.raises(BundleValidationError) as loaded:
            load_bundle(write_json(tmp_path, doc))
        assert loaded.value.errors == [ValidationIssue(
            "quantification:X1/D1", "max", "max must be at most 1e6")]
        first = example_bundle.quantifications[0]
        builds = [lambda: ExpertTriangle(**doc["quantifications"][0]),
                  lambda: first._replace(max=2e6),
                  lambda: ExpertTriangle("X1", "D1", "defect_content", 0.0, 0.0, 1e300)]
        for build in builds:
            with pytest.raises(ValueError) as exc:
                build()
            assert (exc.value.field, str(exc.value)) == ("max", "max must be at most 1e6")

    def test_every_ranking_problem_of_a_target_is_listed(self, tmp_path):
        # aggregate_rankings raises at its first problem, and the bundle used
        # to file only that one: check needed a run per problem.
        doc = json.loads(EXAMPLE_BUNDLE.read_text())
        doc["rankings"].append(dict(doc["rankings"][0]))
        doc["rankings"][1]["ranks"].pop("D5")
        doc["rankings"][2]["ranks"]["D1"] = 9
        with pytest.raises(BundleValidationError) as exc:
            load_bundle(write_json(tmp_path, doc))
        messages = ["duplicate rankings by experts ['X1']",
                    "rankings by experts ['X2'] disagree on the factor set: ['D5']",
                    "ranking by 'X3': rank for 'D1' must be an integer in [1, 5], got 9"]
        assert exc.value.errors == [ValidationIssue("rankings", "defect_content", m)
                                    for m in messages]
        rankings = [FactorRanking(**r) for r in doc["rankings"]]
        with pytest.raises(ValueError, match=r"^duplicate rankings by experts \['X1'\]$"):
            aggregate_rankings(rankings, Target.DEFECT_CONTENT)

    def test_every_estimate_problem_of_a_target_is_listed(self, tmp_path, example_bundle):
        doc = json.loads(EXAMPLE_BUNDLE.read_text())
        _drop_estimates_of_d5(doc)
        doc["quantifications"].append(dict(doc["quantifications"][0]))
        with pytest.raises(BundleValidationError) as exc:
            load_bundle(write_json(tmp_path, doc))
        messages = ["duplicate estimates of factor 'D1' by experts ['X1']",
                    "factor 'D5' has no impact estimate for target 'defect_content'"]
        assert exc.value.errors == [ValidationIssue("quantifications", "defect_content", m)
                                    for m in messages]
        dc = example_bundle.resolve_active(Target.DEFECT_CONTENT)
        triangles = [ExpertTriangle(**q) for q in doc["quantifications"]]
        with pytest.raises(ValueError, match=r"^duplicate estimates of factor 'D1'"):
            analytic_mean_increase(dc, triangles, {f.id: 1 for f in dc},
                                   Target.DEFECT_CONTENT)

    def test_one_generator_checks_every_ranking(self, monkeypatch, example_bundle):
        # The loader, a built bundle and aggregate_rankings ask one generator.
        calls = []
        check = defectcast.model._ranking_problems
        assert defectcast.bundle._ranking_problems is check

        def spy(rankings, target):
            calls.append(target)
            return check(rankings, target)

        for module in (defectcast.model, defectcast.bundle):
            monkeypatch.setattr(module, "_ranking_problems", spy)
        load_bundle(EXAMPLE_BUNDLE)
        example_bundle._replace(rankings=example_bundle.rankings[:4])
        aggregate_rankings(example_bundle.rankings, Target.EFFECTIVENESS)
        assert calls == [*Target, *Target, Target.EFFECTIVENESS]

    def test_one_helper_checks_every_estimate(self, monkeypatch, example_bundle):
        # The loader, a built bundle and every sampling path ask one helper.
        calls = []
        check = defectcast.sampling._estimates
        assert defectcast.bundle._estimates is check

        def spy(factor_ids, triangles, target):
            calls.append((tuple(factor_ids), target))
            return check(factor_ids, triangles, target)

        for module in (defectcast.sampling, defectcast.bundle):
            monkeypatch.setattr(module, "_estimates", spy)
        load_bundle(EXAMPLE_BUNDLE)
        example_bundle._replace(active_factors={"effectiveness": ["E2"]})
        dc = example_bundle.resolve_active(Target.DEFECT_CONTENT)
        analytic_mean_increase(dc[:2], example_bundle.quantifications,
                               {f.id: 1 for f in dc}, Target.DEFECT_CONTENT)
        dc_ids, eff_ids = (tuple(f"{p}{i}" for i in range(1, 6)) for p in "DE")
        built = [(dc_ids, Target.DEFECT_CONTENT), (eff_ids, Target.EFFECTIVENESS)]
        assert calls == built * 2 + [(("D1", "D2"), Target.DEFECT_CONTENT)]


def _triangle(doc, expert, fid):
    return next(q for q in doc["quantifications"]
                if (q["expert"], q["factor_id"]) == (expert, fid))


def _ranking(doc, expert, target):
    return next(r for r in doc["rankings"]
                if (r["expert"], r["target"]) == (expert, target))


# Edits of the example document that break a rule each, with the issue each
# causes; no edit touches what another reads, so any subset of them together
# must list every one of their issues.
INDEPENDENT_EDITS = {
    "repeated-ranking": (
        lambda doc: doc["rankings"].append(dict(_ranking(doc, "X1", "defect_content"))),
        ValidationIssue("rankings", "defect_content",
                        "duplicate rankings by experts ['X1']")),
    "missing-factor": (
        lambda doc: _ranking(doc, "X2", "defect_content")["ranks"].pop("D5"),
        ValidationIssue("rankings", "defect_content",
                        "rankings by experts ['X2'] disagree on the factor set: ['D5']")),
    "rank-above-k": (
        lambda doc: _ranking(doc, "X3", "defect_content")["ranks"].update(D1=9),
        ValidationIssue("rankings", "defect_content",
                        "ranking by 'X3': rank for 'D1' must be an integer in [1, 5], got 9")),
    "effectiveness-rank-above-k": (
        lambda doc: _ranking(doc, "X2", "effectiveness")["ranks"].update(E3=7),
        ValidationIssue("rankings", "effectiveness",
                        "ranking by 'X2': rank for 'E3' must be an integer in [1, 5], got 7")),
    "repeated-estimate": (
        lambda doc: doc["quantifications"].append(dict(_triangle(doc, "X1", "D1"))),
        ValidationIssue("quantifications", "defect_content",
                        "duplicate estimates of factor 'D1' by experts ['X1']")),
    "second-repeated-estimate": (
        lambda doc: doc["quantifications"].append(dict(_triangle(doc, "X2", "D2"))),
        ValidationIssue("quantifications", "defect_content",
                        "duplicate estimates of factor 'D2' by experts ['X2']")),
    "unestimated-factor": (
        _drop_estimates_of_d5,
        ValidationIssue("quantifications", "defect_content",
                        "factor 'D5' has no impact estimate for target 'defect_content'")),
    "huge-triangle": (
        lambda doc: _triangle(doc, "X3", "D3").update(max=2e6),
        ValidationIssue("quantification:X3/D3", "max", "max must be at most 1e6")),
    "unlevelled-release": (
        lambda doc: doc["releases"][0]["levels"].pop("D1"),
        ValidationIssue("release:A", "levels", "missing level for factor 'D1'")),
}


class TestExhaustiveReport:
    @settings(deadline=None, max_examples=60)
    @given(edits=st.sets(st.sampled_from(sorted(INDEPENDENT_EDITS)), min_size=1))
    def test_every_applied_edit_is_listed(self, tmp_path_factory, edits):
        doc = json.loads(EXAMPLE_BUNDLE.read_text())
        for name in sorted(edits):
            INDEPENDENT_EDITS[name][0](doc)
        path = tmp_path_factory.getbasetemp() / "edited_bundle.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(BundleValidationError) as exc:
            load_bundle(path)
        for name in edits:
            assert INDEPENDENT_EDITS[name][1] in exc.value.errors, name


class TestResolveActive:
    def test_effectiveness_defaults_to_top_two(self, example_bundle):
        active = example_bundle.resolve_active(Target.EFFECTIVENESS)
        assert [f.id for f in active] == ["E1", "E2"]

    def test_defect_content_defaults_to_all(self, example_bundle):
        active = example_bundle.resolve_active(Target.DEFECT_CONTENT)
        assert [f.id for f in active] == ["D1", "D2", "D3", "D4", "D5"]

    def test_override_wins(self, example_bundle):
        active = example_bundle.resolve_active(Target.DEFECT_CONTENT, ["D3"])
        assert [f.id for f in active] == ["D3"]

    @pytest.mark.parametrize("ids,message", [
        (["D1", "E1"], r"ids \['E1'\] name no defect_content factor"),
        (["D1", "D3", "D1"], r"duplicate factor ids \['D1'\]"),
    ])
    def test_bad_override_rejected(self, example_bundle, ids, message):
        with pytest.raises(ValueError, match=message):
            example_bundle.resolve_active(Target.DEFECT_CONTENT, ids)

    @pytest.mark.parametrize("ids", ["", "D1"])
    def test_string_override_rejected(self, example_bundle, ids):
        # "" used to resolve to no factor at all, and "D1" to 'D' and '1'.
        with pytest.raises(ValueError) as exc:
            example_bundle.resolve_active(Target.DEFECT_CONTENT, ids)
        message = f"expected a list of factor ids, got the string {ids!r}"
        assert str(exc.value) == message

    def test_one_shot_override_resolves_every_id(self, example_bundle):
        # The ids used to be used up by their check, so none was resolved.
        active = example_bundle.resolve_active(Target.DEFECT_CONTENT, iter(["D1", "D2"]))
        assert [f.id for f in active] == ["D1", "D2"]

    def test_active_factors_are_a_checked_copy(self, example_bundle):
        act = {"defect_content": ["D1"]}
        bundle = example_bundle._replace(active_factors=act)
        act["defect_content"] = ("D2",)
        assert [f.id for f in bundle.resolve_active(Target.DEFECT_CONTENT)] == ["D1"]
        assert bundle.active_factors == {"defect_content": ("D1",)}
        assert example_bundle._replace(active_factors=None).active_factors is None
        with pytest.raises(ValueError, match="^active_factors must be an object"):
            example_bundle._replace(active_factors=["x"])

    @pytest.mark.parametrize("active,error,message", [
        ({"defect-content": ["D1"]}, BundleValidationError,
         r"^invalid bundle \(1 errors\): active_factors\.defect-content: unknown target$"),
        ({"defect_content": "D1"}, ValueError,
         r"^active_factors\['defect_content'\] must be a list or a tuple, got a str"),
    ], ids=["unknown-target", "ids-str"])
    def test_active_factors_shape_checked_when_built(self, example_bundle, active,
                                                      error, message):
        # The first used to be ignored (all five factors stayed active), the
        # second to be stored as ('D', '1').
        with pytest.raises(error, match=message):
            example_bundle._replace(active_factors=active)

    def test_active_factors_keyed_by_target_store_its_value(self, example_bundle):
        bundle = example_bundle._replace(active_factors={Target.DEFECT_CONTENT: ["D2"]})
        assert bundle.active_factors == {"defect_content": ("D2",)}
        assert [type(k) for k in bundle.active_factors] == [str]
        assert [f.id for f in bundle.resolve_active(Target.DEFECT_CONTENT)] == ["D2"]

    @pytest.mark.parametrize("ids,message", [
        (["NOPE"], "ids ['NOPE'] name no defect_content factor"),
        (["D1", "D1"], "duplicate factor ids ['D1']"),
    ], ids=["unknown", "repeated"])
    def test_bad_active_factors_rejected(self, example_bundle, ids, message):
        # A library-built bundle used to raise KeyError in resolve_active,
        # or to count D1 twice in every draw; now it is not built at all.
        with pytest.raises(BundleValidationError) as exc:
            example_bundle._replace(active_factors={"defect_content": ids})
        assert exc.value.errors == [
            ValidationIssue("active_factors", "defect_content", message)]

    def test_ranking_of_unknown_factor_rejected(self, example_bundle):
        # A library-built bundle used to raise KeyError in resolve_active.
        ranking = FactorRanking("X9", Target.EFFECTIVENESS, {"E9": 1})
        with pytest.raises(BundleValidationError) as exc:
            example_bundle._replace(rankings=[ranking])
        assert exc.value.errors == [
            ValidationIssue("ranking:X9", "ranks", "unknown factor 'E9'")]

    def test_excluding_unknown_release_rejected(self, example_bundle):
        with pytest.raises(ValueError, match=r"unknown release ids \['NOPE', 'X'\]"):
            example_bundle.with_excluded(["X", "A", "NOPE"])
        excluded = example_bundle.with_excluded(iter(["A", "B"]))
        assert {r.id for r in excluded.releases if r.excluded} >= {"A", "B"}

    def test_excluding_a_string_rejected(self, example_bundle):
        # set("AB") would exclude releases A and B.
        with pytest.raises(ValueError, match="^expected a list of release ids, "):
            example_bundle.with_excluded("AB")
        excluded = example_bundle.with_excluded(("A",))
        assert [r.excluded for r in excluded.releases] == [
            r.excluded or r.id == "A" for r in example_bundle.releases]


class TestWriteReport:
    def test_byte_identical_serialization(self):
        report = summarize_mres([0.1, 0.2, 0.3], ids=["A", "B", "C"],
                                model_name="demo")
        assert render_report(report) == render_report(report)

    def test_unknown_format_rejected(self):
        report = summarize_mres([0.1], ids=["A"], model_name="demo")
        with pytest.raises(ValueError, match="^unknown format 'xml'$"):
            render_report(report, "xml")

    def test_json_prediction_keys(self):
        from defectcast import (
            EngineOptions,
            NewReleaseSpec,
            calibrate,
            predict_defect_content,
        )
        from conftest import make_factor, make_release, make_triangle

        factor = make_factor("D1")
        tri = make_triangle("D1")
        ctx = calibrate([make_release(levels={"D1": 1})], [factor], [], [tri])
        pred = predict_defect_content(
            ctx, NewReleaseSpec(size=100, levels={"D1": 1}), [factor], [tri],
            EngineOptions(n_samples=100),
        )
        payload = json.loads(render_report(pred, "json"))
        assert {"point", "quantiles", "seed", "n_samples"} <= payload.keys()

    def test_six_significant_digits(self):
        report = summarize_mres([1 / 3], ids=["A"])
        payload = json.loads(render_report(report, "json"))
        assert payload["mmre"] == 0.333333

    def test_nan_is_never_written(self):
        # tests/test_cli.py checks -inf end to end.  The NaN is nested in
        # the payload: a quantile of the defect-content prediction.
        nan = Prediction(Target.DEFECT_CONTENT, 1.0, {0.5: float("nan")}, 10, 0)
        with pytest.raises(ValueError, match="not finite"):
            render_report(Predictions(nan, None))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


def full_document():
    doc = json.loads(json.dumps(MINIMAL))
    doc["factors"].append({"id": "E1", "name": "Reviews", "target": "effectiveness",
                           "levels": ["a", "b", "c", "d"]})
    doc["quantifications"].append({"expert": "X1", "factor_id": "E1",
                                   "target": "effectiveness", "min": 0.0,
                                   "most_likely": 0.1, "max": 0.2})
    doc["rankings"] = [{"expert": "X1", "target": "defect_content",
                        "ranks": {"D1": 1}}]
    doc["releases"][0]["levels"]["E1"] = 1
    doc["releases"].append(dict(doc["releases"][0], id="B", excluded=True))
    doc["active_factors"] = {"defect_content": ["D1"], "effectiveness": ["E1"]}
    return doc


def _paths(node, prefix=()):
    yield prefix
    children = (
        node.items() if isinstance(node, dict)
        else enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in children:
        yield from _paths(child, prefix + (key,))


@st.composite
def near_valid_documents(draw):
    """A valid bundle with one to three subtrees replaced by any JSON."""
    doc = full_document()
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        value = draw(JSON_VALUES)
        if not path:
            doc = value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    return doc


# Subnormal and the smallest normal numbers, numbers near the largest
# float (two of them overflow when added), and ordinary ones.
EXTREME_NUMBERS = st.one_of(
    st.floats(5e-324, 2.3e-308),
    st.floats(1e307, 1.7976931348623157e308),
    st.floats(0, 1e3),
)


@st.composite
def extreme_documents(draw):
    """full_document() with extreme release measures and triangle values;
    release B, excluded there, may be included."""
    doc = full_document()
    for release in doc["releases"]:
        for key in ("size", "defects_found", "defects_slipped"):
            release[key] = draw(EXTREME_NUMBERS)
    doc["releases"][1]["excluded"] = draw(st.booleans())
    for q in doc["quantifications"]:
        q["min"], q["most_likely"], q["max"] = sorted(
            draw(st.floats(0, 1e6)) for _ in range(3)
        )
    return doc


def _numbers(node):
    """Every float in a report payload."""
    if isinstance(node, float):
        yield node
    elif isinstance(node, (dict, list)):
        for child in node.values() if isinstance(node, dict) else node:
            yield from _numbers(child)


class TestLoaderFuzz:
    @settings(deadline=None)
    @given(doc=JSON_VALUES | near_valid_documents())
    def test_any_document_loads_or_is_rejected(self, tmp_path_factory, doc):
        path = tmp_path_factory.getbasetemp() / "fuzzed_bundle.json"
        path.write_text(json.dumps(doc))
        try:
            bundle = load_bundle(path)
        except BundleValidationError as exc:
            assert exc.errors
        else:
            assert isinstance(bundle.releases, tuple)

    @settings(deadline=None)
    @given(doc=extreme_documents() | near_valid_documents())
    def test_loaded_bundle_checks_and_calibrates_finite(self, tmp_path_factory, doc):
        # What loads never reaches the report's last finiteness check.
        path = tmp_path_factory.getbasetemp() / "extreme_bundle.json"
        path.write_text(json.dumps(doc))
        try:
            bundle = load_bundle(path)
        except BundleValidationError:
            return
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(["check", "--bundle", str(path)]) == 0, err.getvalue()
        dc, eff = (bundle.resolve_active(t) for t in Target)
        for point in ("analytic-mean", "mc-median"):
            options = EngineOptions(n_samples=64, point=point)
            try:
                ctx = calibrate(bundle.included_releases(), dc, eff,
                                bundle.quantifications, options)
            except EstimationError:
                continue
            assert all(math.isfinite(v) for v in _numbers(ctx.to_payload()))

    @settings(deadline=None)
    @given(doc=near_valid_documents())
    def test_loaded_fields_have_their_json_types(self, tmp_path_factory, doc):
        # Whatever loads was read as its JSON type, not converted to it.
        path = tmp_path_factory.getbasetemp() / "typed_bundle.json"
        path.write_text(json.dumps(doc))
        try:
            bundle = load_bundle(path)
        except BundleValidationError:
            return

        def types(*values):
            return {type(v) for v in values}

        for f in bundle.factors:
            assert len(f.levels) == 4
            assert types(f.id, f.name, f.description, *f.levels) == {str}
        for q in bundle.quantifications:
            assert types(q.expert, q.factor_id) == {str}
            assert types(q.min, q.most_likely, q.max) == {float}
        for r in bundle.rankings:
            assert types(r.expert, *r.ranks) == {str}
            assert types(*r.ranks.values()) <= {int}
        for r in bundle.releases:
            assert types(r.id, r.note) == {str}
            assert types(r.size, r.defects_found, r.defects_slipped) == {float}
            assert type(r.excluded) is bool
            assert types(*r.levels.values()) <= {int}


def typed_document():
    """full_document() with a note and a description, so every field occurs."""
    doc = full_document()
    doc["factors"][0]["description"] = "Changed interfaces"
    doc["releases"][0]["note"] = "first release"
    return doc


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutations():
    """(path, value): each leaf of typed_document() swapped for a wrong type."""
    doc = typed_document()
    for path in _paths(doc):
        value = _at(doc, path)
        if isinstance(value, bool):
            wrong = ("true", 1)
        elif isinstance(value, (int, float)):
            wrong = (str(value), True)
        elif isinstance(value, str):
            wrong = (5, None)
        else:
            continue
        for w in wrong:
            yield pytest.param(path, w, id="/".join(map(str, path)) + f"={w!r}")


def _entity_of(doc, path):
    """The entity a loader issue names once the value at ``path`` is mutated.

    An object's label is its id (expert and factor_id) while that is a
    string; a mutated one falls back to the object's index.
    """
    section = path[0]
    if section == "active_factors":
        return "active_factors"
    i, key = path[1], path[2]
    item = doc[section][i]

    def label(field, fallback):
        return fallback if key == field else item[field]

    if section == "quantifications":
        expert, fid = label("expert", f"#{i}"), label("factor_id", f"#{i}")
        return f"quantification:{expert}/{fid}"
    noun, field = {
        "factors": ("factor", "id"),
        "rankings": ("ranking", "expert"),
        "releases": ("release", "id"),
    }[section]
    return f"{noun}:{label(field, f'#{i}')}"


class TestFieldTypes:
    """Each outside field has one JSON type, and no other type is coerced."""

    @pytest.mark.parametrize("path,value", list(_mutations()))
    def test_wrong_type_names_its_entity(self, tmp_path, path, value):
        doc = typed_document()
        entity = _entity_of(doc, path)
        _at(doc, path[:-1])[path[-1]] = value
        with pytest.raises(BundleValidationError) as exc:
            load_bundle(write_json(tmp_path, doc))
        issues = [(i.entity, i.field) for i in exc.value.errors]
        assert entity in [e for e, _ in issues]
        if len(path) == 3 and path[0] != "active_factors":
            # A record's own field: the issue names its JSON key.
            assert (entity, path[2]) in issues

    @pytest.mark.parametrize("section,key", [
        ("factors", "id"), ("factors", "target"), ("factors", "levels"),
        ("quantifications", "expert"), ("quantifications", "factor_id"),
        ("quantifications", "min"), ("quantifications", "max"),
        ("rankings", "target"), ("rankings", "ranks"),
        ("releases", "id"), ("releases", "size"), ("releases", "defects_slipped"),
    ])
    def test_missing_required_field_names_its_key(self, tmp_path, section, key):
        doc = typed_document()
        entity = _entity_of(doc, (section, 0, key))
        del doc[section][0][key]
        with pytest.raises(BundleValidationError) as exc:
            load_bundle(write_json(tmp_path, doc))
        assert ValidationIssue(entity, key, "missing") in exc.value.errors

    @pytest.mark.parametrize("edit,issue", [
        ({"id": 5, "size": None}, ("id", "id must be a string, got a number")),
        ({"id": None, "size": "1"}, ("id", "missing")),
        ({"size": None, "levels": 3}, ("size", "missing")),
    ], ids=["bad-then-missing", "missing-then-bad", "missing-then-bad-later"])
    def test_first_bad_field_in_field_order_is_the_issue(self, tmp_path, edit, issue):
        # A missing key is reported where its field comes, not ahead of the rest.
        doc = json.loads(json.dumps(MINIMAL))
        release = doc["releases"][0]
        for key, value in edit.items():
            if value is None:
                del release[key]
            else:
                release[key] = value
        entity = "release:A" if "id" not in edit else "release:#0"
        with pytest.raises(BundleValidationError) as exc:
            load_bundle(write_json(tmp_path, doc))
        assert exc.value.errors == [ValidationIssue(entity, *issue)]

    @pytest.mark.parametrize("section", ["factors", "quantifications", "rankings"])
    def test_unknown_target_value_names_target(self, tmp_path, section):
        # The loader used to convert the target itself and file the error
        # under the entity's catch-all field.
        doc = typed_document()
        entity = _entity_of(doc, (section, 0, "target"))
        doc[section][0]["target"] = "bogus"
        with pytest.raises(BundleValidationError) as exc:
            load_bundle(write_json(tmp_path, doc))
        message = "target must be 'defect_content' or 'effectiveness', got a string"
        assert [i for i in exc.value.errors if i.entity == entity] == [
            ValidationIssue(entity, "target", message)
        ]
