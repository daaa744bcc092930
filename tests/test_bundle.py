import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defectcast import (
    BundleValidationError,
    Target,
    ValidationIssue,
    load_bundle,
    render_report,
)
from defectcast.bundle import _build_bundle

from conftest import summarize_mres


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

    def test_boolean_level_rejected(self, tmp_path):
        bad = json.loads(json.dumps(MINIMAL))
        bad["releases"][0]["levels"] = {"D1": True}
        with pytest.raises(BundleValidationError) as exc:
            load_bundle(write_json(tmp_path, bad))
        assert any("True" in i.message for i in exc.value.errors)

    def test_boolean_rank_rejected(self, tmp_path):
        bad = json.loads(json.dumps(MINIMAL))
        bad["rankings"] = [
            {"expert": "X1", "target": "defect_content", "ranks": {"D1": True}}
        ]
        with pytest.raises(BundleValidationError) as exc:
            load_bundle(write_json(tmp_path, bad))
        assert any("True" in i.message for i in exc.value.errors)

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
        report = summarize_mres([0.1], ids=["A"], model_name="demo")
        lines = render_report(report, "csv").splitlines()
        assert lines[0] == "release,predicted,actual,mre"
        assert lines[1].startswith("A,1.1,1")
        assert any(line.startswith("MMRE") for line in lines)
        assert any(line.startswith("Pred(0.25)") for line in lines)

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
