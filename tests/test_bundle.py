import contextlib
import csv
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
    FactorRanking,
    Target,
    ValidationIssue,
    calibrate,
    load_bundle,
    render_report,
)
from defectcast.bundle import _build_bundle
from defectcast.cli import main

from conftest import EXAMPLE_BUNDLE, summarize_mres


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
        # Above a million-fold increase (max - min)**2 could overflow.
        bad = json.loads(json.dumps(MINIMAL))
        bad["quantifications"][0]["max"] = value
        with pytest.raises(BundleValidationError) as exc:
            load_bundle(write_json(tmp_path, bad))
        assert [(i.entity, i.field) for i in exc.value.errors] == [
            ("quantification:X1/D1", "max")
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

    def test_triangle_value_at_the_cap_loads(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["quantifications"][0]["max"] = 1e6
        assert load_bundle(write_json(tmp_path, doc)).quantifications[0].maximum == 1e6

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
            ValidationIssue("active_factors", "defect_content", "duplicate factor 'D1'")
        ]

    def test_repeated_expert_estimate_rejected(self, tmp_path):
        # A second triangle would double the expert's weight in the mixture.
        doc = json.loads(json.dumps(MINIMAL))
        doc["quantifications"].append(dict(doc["quantifications"][0], max=0.3))
        with pytest.raises(BundleValidationError) as exc:
            load_bundle(write_json(tmp_path, doc))
        assert exc.value.errors == [
            ValidationIssue("quantification:X1/D1", "expert", "duplicate estimate")
        ]

    def test_repeated_expert_ranking_rejected(self, tmp_path):
        # A second ranking would double the expert's vote.
        doc = json.loads(json.dumps(MINIMAL))
        vote = {"expert": "X1", "target": "defect_content", "ranks": {"D1": 1}}
        doc["rankings"] = [vote, dict(vote)]
        with pytest.raises(BundleValidationError) as exc:
            load_bundle(write_json(tmp_path, doc))
        assert exc.value.errors == [
            ValidationIssue("ranking:X1", "expert", "duplicate ranking")
        ]

    # Each edit breaks a rule of aggregate_rankings, which every ranking
    # command applies: ranks in [1, k], one factor set per target.
    @pytest.mark.parametrize("index,edit,target,message", [
        (1, lambda ranks: ranks.update(D1=9), "defect_content",
         "ranking by 'X2': rank for 'D1' must be an integer in [1, 5], got 9"),
        (1, lambda ranks: ranks.pop("D5"), "defect_content",
         "ranking by 'X2' disagrees on the factor set: ['D5']"),
        (4, lambda ranks: ranks.pop("E5"), "effectiveness",
         "ranking by 'X2' disagrees on the factor set: ['E5']"),
    ], ids=["rank-above-k", "missing-factor", "effectiveness-missing-factor"])
    def test_rankings_follow_the_aggregation_rules(
        self, tmp_path, index, edit, target, message
    ):
        doc = json.loads(EXAMPLE_BUNDLE.read_text())
        edit(doc["rankings"][index]["ranks"])
        with pytest.raises(BundleValidationError) as exc:
            load_bundle(write_json(tmp_path, doc))
        assert exc.value.errors == [ValidationIssue("rankings", target, message)]

    def test_loaded_records_are_immutable(self, example_bundle):
        with pytest.raises(AttributeError):
            example_bundle.releases[0].size = 1.0
        with pytest.raises(AttributeError):
            example_bundle.quantifications[0].maximum = 9.0
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

    def test_active_factors_are_a_checked_copy(self, example_bundle):
        act = {"defect_content": ["D1"]}
        bundle = example_bundle._replace(active_factors=act)
        act["defect_content"] = ("D2",)
        assert [f.id for f in bundle.resolve_active(Target.DEFECT_CONTENT)] == ["D1"]
        assert bundle.active_factors == {"defect_content": ("D1",)}
        assert example_bundle._replace(active_factors=None).active_factors is None
        with pytest.raises(ValueError, match="^active_factors must be an object"):
            example_bundle._replace(active_factors=["x"])

    @pytest.mark.parametrize("active,message", [
        ({"defect-content": ["D1"]},
         r"^active_factors: unknown target 'defect-content'$"),
        ({"defect_content": "D1"},
         r"^active_factors\['defect_content'\] must be a list or a tuple, got a str"),
    ], ids=["unknown-target", "ids-str"])
    def test_active_factors_shape_checked_when_built(self, example_bundle, active,
                                                      message):
        # The first used to be ignored (all five factors stayed active), the
        # second to be stored as ('D', '1').
        with pytest.raises(ValueError, match=message):
            example_bundle._replace(active_factors=active)

    def test_active_factors_keyed_by_target_store_its_value(self, example_bundle):
        bundle = example_bundle._replace(active_factors={Target.DEFECT_CONTENT: ["D2"]})
        assert bundle.active_factors == {"defect_content": ("D2",)}
        assert [type(k) for k in bundle.active_factors] == [str]
        assert [f.id for f in bundle.resolve_active(Target.DEFECT_CONTENT)] == ["D2"]

    @pytest.mark.parametrize("ids,message", [
        (["NOPE"], r"ids \['NOPE'\] name no defect_content factor"),
        (["D1", "D1"], r"duplicate factor ids \['D1'\]"),
    ], ids=["unknown", "repeated"])
    def test_bad_active_factors_rejected(self, example_bundle, ids, message):
        # The loader rejects these; a library-built bundle used to raise
        # KeyError, or to count D1 twice in every draw.
        bundle = example_bundle._replace(active_factors={"defect_content": ids})
        with pytest.raises(ValueError, match=message):
            bundle.resolve_active(Target.DEFECT_CONTENT)

    def test_ranking_of_unknown_factor_rejected(self, example_bundle):
        # The loader rejects this; a library-built bundle used to raise KeyError.
        ranking = FactorRanking("X9", Target.EFFECTIVENESS, {"E9": 1})
        bundle = example_bundle._replace(rankings=[ranking])
        with pytest.raises(ValueError, match=r"ids \['E9'\] name no effectiveness"):
            bundle.resolve_active(Target.EFFECTIVENESS)

    def test_excluding_unknown_release_rejected(self, example_bundle):
        with pytest.raises(ValueError, match=r"unknown release ids \['NOPE', 'X'\]"):
            example_bundle.with_excluded(["X", "A", "NOPE"])
        excluded = example_bundle.with_excluded(iter(["A", "B"]))
        assert {r.id for r in excluded.releases if r.excluded} >= {"A", "B"}


class TestWriteReport:
    def test_byte_identical_serialization(self):
        report = summarize_mres([0.1, 0.2, 0.3], ids=["A", "B", "C"],
                                model_name="demo")
        for fmt in ("json", "csv", "text"):
            assert render_report(report, fmt) == render_report(report, fmt)

    def test_csv_accuracy_layout(self):
        # Every report is one key,value row per payload key, JSON values.
        report = summarize_mres([0.1], ids=["A"], model_name="demo")
        rows = list(csv.reader(io.StringIO(render_report(report, "csv"))))
        payload = json.loads(render_report(report, "json"))
        assert rows[0] == ["key", "value"]
        assert [key for key, _ in rows[1:]] == list(report.to_payload())
        assert {key: json.loads(value) for key, value in rows[1:]} == payload

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

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_nan_is_never_written(self, fmt):
        # tests/test_cli.py checks -inf end to end.
        report = {"report": "demo", "nested": {"values": [1.0, float("nan")]}}
        with pytest.raises(ValueError, match="not finite"):
            render_report(report, fmt)


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
            assert types(q.minimum, q.most_likely, q.maximum) == {float}
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
