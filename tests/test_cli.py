import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import defectcast

from defectcast import (
    MODEL_DD_MEDIAN,
    MODEL_INFLUENCE_FACTOR,
    Crossval,
    EngineOptions,
    NewReleaseSpec,
    Predictions,
    Ranking,
    Target,
    ablation_curve,
    aggregate_rankings,
    calibrate,
    descriptive_stats,
    history_simulation,
    load_bundle,
    loocv,
    predict_defect_content,
    predict_effectiveness,
    render_report,
    wilcoxon_one_sided,
)
from defectcast.cli import main

from conftest import EXAMPLE_BUNDLE


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_check_succeeds_and_warns(self, capsys):
        code, out, err = run(capsys, "check", "--bundle", EXAMPLE_BUNDLE)
        assert code == 0
        assert "seed: 0" in out
        assert "outlier" in err

    def test_invalid_bundle_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"factors": [{"id": "D1"}]}))
        code, out, err = run(capsys, "check", "--bundle", bad)
        assert code == 1
        assert "validation failed" in err

    def test_repeated_key_in_bundle_exits_one(self, capsys, tmp_path):
        # Otherwise release A would load with the second size, 1.
        bad = tmp_path / "bad.json"
        text = EXAMPLE_BUNDLE.read_text()
        bad.write_text(text.replace('"size": 120,', '"size": 120, "size": 1,'))
        code, out, err = run(capsys, "check", "--bundle", bad)
        assert (code, out) == (1, "")
        assert "  document.json: duplicate keys ['size']" in err

    @pytest.mark.parametrize("edit", [
        {"size": 1e-310},
        {"defects_found": 1.5e308, "defects_slipped": 1.5e308},
    ], ids=["subnormal-size", "overflowing-sum"])
    @pytest.mark.parametrize("command", ["check", "calibrate", "crossval"])
    def test_measure_past_the_float_range_exits_one(
        self, capsys, tmp_path, command, edit
    ):
        # These used to fail on "report value inf is not finite", or,
        # for crossval with the tiny size, to exit 0.
        doc = json.loads(EXAMPLE_BUNDLE.read_text())
        next(r for r in doc["releases"] if r["id"] == "A").update(edit)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, "--bundle", bad)
        assert (code, out) == (1, "")
        assert err.startswith("bundle validation failed:\n  release:A.")

    @pytest.mark.parametrize("command", ["crossval", "ablate"])
    def test_overflowing_fold_prediction_names_its_release(
        self, capsys, tmp_path, command
    ):
        # The bundle loads, checks and calibrates, but A's held-out
        # prediction, 1.7e308 times a median density above 1, is inf.
        doc = json.loads(EXAMPLE_BUNDLE.read_text())
        for release in doc["releases"]:
            release["size"] = 1
        next(r for r in doc["releases"] if r["id"] == "A").update(
            {"size": 1.7e308, "defects_found": 1, "defects_slipped": 0})
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run(capsys, "check", "--bundle", bad)[0] == 0
        code, out, err = run(capsys, command, "--bundle", bad)
        assert (code, out) == (1, "")
        assert "error: case 'A': predicted inf " in err

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["check"])  # missing --bundle
        assert exc.value.code == 2


class TestRank:
    def test_rank_order(self, capsys):
        code, out, _ = run(capsys, "rank", "--bundle", EXAMPLE_BUNDLE,
                           "--target", "defect-content")
        assert code == 0
        payload = json.loads(out.split("seed: 0\n", 1)[1])
        assert [e["factor_id"] for e in payload["order"]] == \
            ["D1", "D2", "D3", "D4", "D5"]

    @pytest.mark.parametrize("index,edit,issue", [
        (1, lambda ranks: ranks.update(D1=9), "rankings.defect_content: ranking by 'X2'"),
        (1, lambda ranks: ranks.pop("D5"),
         "rankings.defect_content: rankings by experts ['X2'] disagree"),
        (4, lambda ranks: ranks.pop("E5"),
         "rankings.effectiveness: rankings by experts ['X2', 'X3', 'X4'] disagree"),
    ], ids=["rank-above-k", "missing-factor", "effectiveness-missing-factor"])
    @pytest.mark.parametrize("command", [
        ("check",), ("rank", "--target", "defect-content"), ("ablate",),
        ("calibrate",),
    ], ids=lambda c: c[0])
    def test_ranking_that_cannot_aggregate_exits_one(
        self, capsys, tmp_path, command, index, edit, issue
    ):
        # check used to pass these bundles that rank and ablate reject.
        doc = json.loads(EXAMPLE_BUNDLE.read_text())
        edit(doc["rankings"][index]["ranks"])
        bundle = tmp_path / "bundle.json"
        bundle.write_text(json.dumps(doc))
        code, out, err = run(capsys, command[0], "--bundle", bundle, *command[1:])
        assert (code, out) == (1, "")
        assert f"  {issue}" in err


class TestDrawFreeCommands:
    @pytest.mark.parametrize("flag", [
        ("--samples", "7"), ("--point", "mc-median"), ("--exclude", "A,H"),
    ], ids=lambda f: f[0])
    @pytest.mark.parametrize("command", [
        ("check",), ("rank", "--target", "defect-content"),
    ], ids=lambda c: c[0])
    def test_engine_flags_are_usage_errors(self, capsys, command, flag):
        # check and rank draw nothing and read every release, so these
        # flags would change nothing.
        with pytest.raises(SystemExit) as exc:
            main([command[0], "--bundle", str(EXAMPLE_BUNDLE), *command[1:], *flag])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag[0]}" in captured.err


class TestPredict:
    LEVELS = "D1=1,D2=1,D3=3,D4=1,D5=0,E1=2,E2=2,E3=3,E4=2,E5=2"

    def test_inline_levels(self, capsys):
        code, out, _ = run(
            capsys, "predict", "--bundle", EXAMPLE_BUNDLE,
            "--size", "130", "--levels", self.LEVELS,
        )
        assert code == 0
        payload = json.loads(out.split("seed: 0\n", 1)[1])
        assert payload["defect_content"]["point"] > 0
        assert 0 < payload["effectiveness"]["point"] <= 1
        assert payload["expected_defects_found"] > 0

    def test_spec_file(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        levels = dict(item.split("=") for item in self.LEVELS.split(","))
        spec.write_text(json.dumps(
            {"size": 130, "levels": {k: int(v) for k, v in levels.items()}}
        ))
        code, out, _ = run(capsys, "predict", "--bundle", EXAMPLE_BUNDLE,
                           "--spec", spec)
        assert code == 0

    @pytest.mark.parametrize("spec", [
        {"levels": {"D1": 1}},
        {"size": 130},
        {"size": None, "levels": {}},
        [130],
        {"size": 10**400, "levels": {"D1": 1}},
        {"size": 130, "levels": [["D1", 0], ["D1", 3]]},
    ], ids=["no-size", "no-levels", "null-size", "not-an-object", "float-overflow",
            "levels-pairs"])
    def test_malformed_spec_file_exits_one(self, capsys, tmp_path, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, out, err = run(capsys, "predict", "--bundle", EXAMPLE_BUNDLE,
                             "--spec", path)
        assert code == 1
        assert "'size'" in err and "'levels'" in err

    @pytest.mark.parametrize("size", [True, "130"], ids=["boolean", "string"])
    def test_spec_size_must_be_a_json_number(self, capsys, tmp_path, size):
        # float() would read true as a release of size 1.
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"size": size, "levels": {"D1": 1}}))
        code, out, err = run(capsys, "predict", "--bundle", EXAMPLE_BUNDLE,
                             "--spec", path)
        assert (code, out) == (1, "")
        assert "need an object with a numeric 'size'" in err

    @pytest.mark.parametrize("spec,cause", [
        ({"levels": {"D1": 1}}, "(size missing)"),
        ({"size": "130", "levels": {}}, "(size must be a number, got a string)"),
        ({"size": 130, "levels": []}, "(levels must be an object, got an array)"),
    ], ids=["no-size", "string-size", "levels-array"])
    def test_spec_error_names_its_cause(self, capsys, tmp_path, spec, cause):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, out, err = run(capsys, "predict", "--bundle", EXAMPLE_BUNDLE,
                             "--spec", path)
        assert (code, out) == (1, "")
        assert err.rstrip().endswith(f"'levels' object {cause}")

    def test_spec_with_an_unknown_key_exits_one(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"size": 130, "levels": {}, "level": {"D1": 1}}))
        code, out, err = run(capsys, "predict", "--bundle", EXAMPLE_BUNDLE,
                             "--spec", path)
        assert (code, out) == (1, "")
        assert err.rstrip().endswith("'levels' object (unknown key 'level')")

    @pytest.mark.parametrize("size", ["nan", "inf", "0"])
    def test_non_finite_or_zero_size_exits_one(self, capsys, size):
        code, _, err = run(capsys, "predict", "--bundle", EXAMPLE_BUNDLE,
                           "--size", size, "--levels", self.LEVELS)
        assert code == 1
        assert "size must be positive and finite" in err

    @pytest.mark.parametrize("quantiles", ["1.5,-2", "0.5,abc", "nan", "0.5,"])
    def test_bad_quantiles_are_usage_errors(self, capsys, quantiles):
        with pytest.raises(SystemExit) as exc:
            main(["predict", "--bundle", str(EXAMPLE_BUNDLE), "--size", "130",
                  "--levels", self.LEVELS, "--quantiles", quantiles])
        assert exc.value.code == 2
        assert "--quantiles" in capsys.readouterr().err

    @pytest.mark.parametrize("level,message", [
        (True, "levels['D1'] must be an integer, got a boolean"),
        (9, "level for factor 'D1'"),
        (-1, "level for factor 'D1'"),
        (1.5, "levels['D1'] must be an integer, got a number"),
    ], ids=["True", "9", "-1", "1.5"])
    def test_bad_spec_level_exits_one(self, capsys, tmp_path, level, message):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"size": 130, "levels": {"D1": level}}))
        code, _, err = run(capsys, "predict", "--bundle", EXAMPLE_BUNDLE,
                           "--spec", path)
        assert code == 1
        assert message in err

    @pytest.mark.parametrize("level", ["true", "9", "-1", "1.5"])
    def test_bad_inline_level_exits_one(self, capsys, level):
        code, _, err = run(capsys, "predict", "--bundle", EXAMPLE_BUNDLE,
                           "--size", "130", "--levels", f"D1={level}")
        assert code == 1
        assert "D1" in err.split("\nerror: ", 1)[1]

    @pytest.mark.parametrize("entry", ["D1", "=2"])
    def test_malformed_levels_entry_exits_one(self, capsys, entry):
        code, out, err = run(capsys, "predict", "--bundle", EXAMPLE_BUNDLE,
                             "--size", "130", "--levels", entry)
        assert (code, out) == (1, "")
        assert err.endswith(f"error: bad --levels entry {entry!r}\n")

    @pytest.mark.parametrize("route", ["levels", "spec"])
    def test_unknown_level_id_exits_one(self, capsys, tmp_path, route):
        if route == "levels":
            argv = ("--size", "130", "--levels", self.LEVELS + ",ZZ=3,Q7=2")
        else:
            levels = dict(item.split("=") for item in self.LEVELS.split(","))
            levels = {k: int(v) for k, v in levels.items()} | {"ZZ": 3, "Q7": 2}
            spec = tmp_path / "spec.json"
            spec.write_text(json.dumps({"size": 130, "levels": levels}))
            argv = ("--spec", spec)
        code, out, err = run(capsys, "predict", "--bundle", EXAMPLE_BUNDLE, *argv)
        assert (code, out) == (1, "")
        assert f"--{route}: unknown factor ids ['ZZ', 'Q7']" in err

    @pytest.mark.parametrize("route", ["levels", "spec"])
    def test_repeated_level_id_exits_one(self, capsys, tmp_path, route):
        # Otherwise the last D1 wins and the prediction runs with D1=3.
        if route == "levels":
            argv = ("--size", "130", "--levels", "D1=0,D1=3," + self.LEVELS[5:])
            expected = "--levels: duplicate factor ids ['D1']"
        else:
            spec = tmp_path / "spec.json"
            spec.write_text('{"size": 130, "levels": {"D1": 0, "D1": 3, "D2": 1}}')
            argv = ("--spec", spec)
            expected = "--spec: duplicate keys ['D1']"
        code, out, err = run(capsys, "predict", "--bundle", EXAMPLE_BUNDLE, *argv)
        assert (code, out) == (1, "")
        assert expected in err

    def test_missing_spec_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["predict", "--bundle", str(EXAMPLE_BUNDLE)])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        # The predict command's own usage, which lists the flags that fix it.
        assert err.startswith("usage: defectcast predict ")
        assert "needs --spec or both --size and --levels" in err

    @pytest.mark.parametrize("inline", [
        ("--size", "3"), ("--levels", "D1=1"), ("--size", "3", "--levels", "D1=1"),
    ], ids=["size", "levels", "both"])
    def test_spec_with_inline_values_is_usage_error(self, capsys, tmp_path, inline):
        # The spec file would silently win over the inline values.
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"size": 130, "levels": {"D1": 1}}))
        with pytest.raises(SystemExit) as exc:
            main(["predict", "--bundle", str(EXAMPLE_BUNDLE), "--spec", str(spec),
                  *inline])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: defectcast predict ")

    def test_too_deep_spec_exits_one(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text("[" * 100_000)
        code, out, err = run(capsys, "predict", "--bundle", EXAMPLE_BUNDLE,
                             "--spec", spec)
        assert (code, out) == (1, "")
        assert "error: --spec: JSON nests too deep" in err

    def test_too_many_samples_exits_one(self, capsys):
        # EngineOptions rejects any count above sampling.MAX_SAMPLES before
        # the bundle is read.
        code, out, err = run(capsys, "predict", "--bundle", EXAMPLE_BUNDLE,
                             "--size", "130", "--levels", self.LEVELS,
                             "--samples", 10**15)
        assert (code, out) == (1, "")
        assert err.splitlines()[-1] == (
            "error: n_samples must be an integer in [1, 100000000], got 1000000000000000")

    def test_samples_past_the_limit_exit_one_at_once(self):
        # 10**9 samples used to pass: np.zeros commits no page until it is
        # written, so the draw would then write 8 GB.  The child, run from a
        # fresh parent, is the only process its RUSAGE_CHILDREN covers.
        argv = [sys.executable, "-m", "defectcast.cli", "predict", "--bundle",
                str(EXAMPLE_BUNDLE), "--size", "130", "--levels", self.LEVELS,
                "--samples", str(10**8 + 1)]
        probe = ("import json, resource, subprocess\n"
                 f"r = subprocess.run({argv!r}, capture_output=True, text=True)\n"
                 "rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
                 "print(json.dumps([r.returncode, r.stdout, r.stderr, rss]))")
        code, out, err, rss_kb = json.loads(_fresh_process(probe))
        assert (code, out) == (1, "")
        assert err.splitlines()[-1] == (
            "error: n_samples must be an integer in [1, 100000000], got 100000001")
        assert rss_kb < 100 * 1024

    def test_non_finite_report_exits_one(self, capsys, tmp_path):
        # A 1e160 triangle used to overflow (b - a)**2 in the kernel, and the
        # quantiles would print as -Infinity.  No triangle holds one any more:
        first = defectcast.load_bundle(EXAMPLE_BUNDLE).quantifications[0]
        with pytest.raises(ValueError) as exc:
            first._replace(max=1e160)
        assert (exc.value.field, str(exc.value)) == ("max", "max must be at most 1e6")
        # A valid bundle of dense releases still overflows size * density.
        doc = json.loads(EXAMPLE_BUNDLE.read_text())
        for release in doc["releases"]:
            release["size"] *= 1e-10
        path = tmp_path / "dense_bundle.json"
        path.write_text(json.dumps(doc))
        report = tmp_path / "report.json"
        code, out, err = run(capsys, "predict", "--bundle", path,
                             "--size", "1e300", "--levels", self.LEVELS,
                             "--out", report)
        assert (code, out) == (1, "")
        assert err.splitlines()[-1] == "error: report value inf is not finite"
        assert not report.exists()

    @pytest.mark.parametrize("defect_free,levels,reason", [
        (False, "D1=1,D2=1,D3=3,D4=1,D5=0",
         "no level for active effectiveness factors ['E1', 'E2']"),
        (True, LEVELS, "no included release has a defined effectiveness"),
    ], ids=["unlevelled-factor", "defect-free-history"])
    def test_skipped_effectiveness_prediction_warns(
        self, capsys, tmp_path, defect_free, levels, reason
    ):
        doc = json.loads(EXAMPLE_BUNDLE.read_text())
        if defect_free:
            for release in doc["releases"]:
                release.update(defects_found=0, defects_slipped=0)
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "predict", "--bundle", path,
                             "--size", "130", "--levels", levels)
        assert code == 0
        assert "effectiveness" not in json.loads(out.split("seed: 0\n", 1)[1])
        assert f"warning: no effectiveness prediction: {reason}\n" in err

    def test_single_history_round_trip(self, capsys, tmp_path):
        bundle = {
            "factors": [
                {"id": "D1", "name": "f", "target": "defect_content",
                 "levels": ["a", "b", "c", "d"]},
                {"id": "E1", "name": "g", "target": "effectiveness",
                 "levels": ["a", "b", "c", "d"]},
            ],
            "quantifications": [
                {"expert": "X", "factor_id": "D1", "target": "defect_content",
                 "min": 0.1, "most_likely": 0.2, "max": 0.4},
                {"expert": "X", "factor_id": "E1", "target": "effectiveness",
                 "min": 0.0, "most_likely": 0.1, "max": 0.2},
            ],
            "releases": [
                {"id": "A", "size": 100, "defects_found": 40,
                 "defects_slipped": 10, "levels": {"D1": 2, "E1": 1}},
            ],
        }
        path = tmp_path / "one.json"
        path.write_text(json.dumps(bundle))
        code, out, _ = run(capsys, "predict", "--bundle", path,
                           "--size", "100", "--levels", "D1=2,E1=1")
        assert code == 0
        payload = json.loads(out.split("seed: 0\n", 1)[1])
        assert payload["defect_content"]["point"] == pytest.approx(50, rel=1e-9)
        assert payload["effectiveness"]["point"] == pytest.approx(0.8, rel=1e-9)


class TestFactorsOverride:
    def test_calibrate_splits_ids_by_target(self, capsys, example_bundle):
        code, out, _ = run(capsys, "calibrate", "--bundle", EXAMPLE_BUNDLE,
                           "--factors", "D1,E1")
        assert code == 0
        ctx = calibrate(
            example_bundle.included_releases(),
            example_bundle.resolve_active(Target.DEFECT_CONTENT, ["D1"]),
            example_bundle.resolve_active(Target.EFFECTIVENESS, ["E1"]),
            example_bundle.quantifications,
        )
        assert out.split("seed: 0\n", 1)[1] == render_report(ctx, "json")

    def test_predict_target_without_listed_ids_keeps_default(
        self, capsys, example_bundle
    ):
        default_eff = [f.id for f in
                       example_bundle.resolve_active(Target.EFFECTIVENESS)]
        argv = ("predict", "--bundle", EXAMPLE_BUNDLE, "--size", "130",
                "--levels", TestPredict.LEVELS, "--factors")
        code, only_dc, _ = run(capsys, *argv, "D1")
        assert code == 0
        assert "effectiveness" in json.loads(only_dc.split("seed: 0\n", 1)[1])
        code, both, _ = run(capsys, *argv, ",".join(["D1", *default_eff]))
        assert code == 0
        assert only_dc == both

    @pytest.mark.parametrize("command", [
        ("calibrate",),
        ("predict", "--size", "130", "--levels", TestPredict.LEVELS),
    ], ids=lambda c: c[0])
    def test_unknown_id_exits_one(self, capsys, command):
        code, _, err = run(capsys, command[0], "--bundle", EXAMPLE_BUNDLE,
                           *command[1:], "--factors", "D1,X9")
        assert code == 1
        assert "unknown factor ids ['X9']" in err

    def test_duplicate_id_exits_one(self, capsys):
        code, out, err = run(capsys, "calibrate", "--bundle", EXAMPLE_BUNDLE,
                             "--factors", "D1,E1,D1")
        assert (code, out) == (1, "")
        assert "error: duplicate factor ids ['D1']" in err

    @pytest.mark.parametrize("command", [
        ("check",), ("rank", "--target", "defect-content"), ("ablate",),
    ], ids=lambda c: c[0])
    def test_command_that_ignores_factors_rejects_it(self, capsys, command):
        # A factor list these commands would not use is a usage error, not
        # a report of every factor.
        with pytest.raises(SystemExit) as exc:
            main([command[0], "--bundle", str(EXAMPLE_BUNDLE), *command[1:],
                  "--factors", "D1"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


class TestCrossval:
    def test_table_pipeline(self, capsys):
        code, out, _ = run(
            capsys, "crossval", "--bundle", EXAMPLE_BUNDLE,
            "--target", "defect-content", "--model", "influence-factor",
            "--baseline", "dd-median", "--test", "wilcoxon",
        )
        assert code == 0
        payload = json.loads(out.split("seed: 0\n", 1)[1])
        assert "mmre" in payload["model"]
        assert "mmre" in payload["baseline"]
        assert 0 < payload["wilcoxon"]["p_one_sided"] <= 1

    def test_wilcoxon_without_baseline_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["crossval", "--bundle", str(EXAMPLE_BUNDLE), "--test", "wilcoxon"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: defectcast crossval ")
        assert "needs --baseline" in err

    def test_exclude_flag(self, capsys):
        code, out, _ = run(
            capsys, "crossval", "--bundle", EXAMPLE_BUNDLE,
            "--model", "dc-median", "--exclude", "A,B",
        )
        assert code == 0
        payload = json.loads(out.split("seed: 0\n", 1)[1])
        releases = [c["release"] for c in payload["model"]["cases"]]
        assert "A" not in releases and "B" not in releases

    def test_unknown_exclude_id_exits_one(self, capsys):
        code, out, err = run(capsys, "crossval", "--bundle", EXAMPLE_BUNDLE,
                             "--exclude", "A,NOPE")
        assert (code, out) == (1, "")
        assert "error: unknown release ids ['NOPE']" in err

    @pytest.mark.parametrize("argv", [
        ("--baseline", "eff-median"),
        ("--target", "effectiveness", "--model", "dd-median"),
        ("--target", "effectiveness", "--model", "dc-median"),
        ("--target", "effectiveness", "--baseline", "dd-median"),
    ], ids=["dc-baseline-eff", "eff-model-dd", "eff-model-dc", "eff-baseline-dd"])
    def test_baseline_of_other_target_exits_one(self, capsys, argv):
        code, _, err = run(capsys, "crossval", "--bundle", EXAMPLE_BUNDLE, *argv)
        assert code == 1
        assert "does not predict" in err


class TestAblateAndHistory:
    def test_ablate(self, capsys):
        code, out, _ = run(capsys, "ablate", "--bundle", EXAMPLE_BUNDLE,
                           "--target", "defect-content", "--ks", "0,1,5")
        assert code == 0
        payload = json.loads(out.split("seed: 0\n", 1)[1])
        assert set(payload["mmre_by_k"]) == {"0", "1", "5"}

    @pytest.mark.parametrize("ks", ["a", "", "0,x"])
    def test_bad_ks_are_usage_errors(self, capsys, ks):
        with pytest.raises(SystemExit) as exc:
            main(["ablate", "--bundle", str(EXAMPLE_BUNDLE), "--ks", ks])
        assert exc.value.code == 2
        assert "--ks" in capsys.readouterr().err

    def test_historysim(self, capsys):
        code, out, _ = run(capsys, "historysim", "--bundle", EXAMPLE_BUNDLE,
                           "--start", "4")
        assert code == 0
        payload = json.loads(out.split("seed: 0\n", 1)[1])
        assert [s["history_size"] for s in payload["steps"]] == [4, 5, 6, 7]


class TestDeterminism:
    COMMANDS = [
        ("check",),
        ("rank", "--target", "effectiveness"),
        ("calibrate",),
        ("predict", "--size", "130", "--levels", TestPredict.LEVELS,
         "--point", "mc-median"),
        ("crossval", "--model", "influence-factor", "--baseline", "dd-median",
         "--test", "wilcoxon"),
        ("ablate", "--ks", "0,1,3"),
        ("historysim", "--start", "4"),
    ]

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_same_seed_same_bytes(self, capsys, tmp_path, monkeypatch, command):
        renders = []

        def counted(*args):
            renders.append(args)
            return render_report(*args)

        for module in (defectcast.cli, defectcast.report):
            monkeypatch.setattr(module, "render_report", counted)
        outputs = []
        for name in ("first", "second"):
            out_path = tmp_path / f"{name}.json"
            renders.clear()
            code, out, _ = run(
                capsys, command[0], "--bundle", EXAMPLE_BUNDLE,
                *command[1:], "--seed", "7", "--out", out_path,
            )
            assert code == 0
            # --out gets stdout's one rendering, without the seed line.
            assert len(renders) == 1
            assert out_path.read_bytes() == out.removeprefix("seed: 7\n").encode()
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("argv", [
        ("calibrate", "--exclude", "A,B,C,D,E,F,G,H,I,J"),
        ("historysim", "--start", "20"),
    ], ids=["calibrate-all-excluded", "historysim-short-history"])
    def test_failing_command_writes_nothing_to_stdout(self, capsys, argv):
        code, out, err = run(capsys, argv[0], "--bundle", EXAMPLE_BUNDLE, *argv[1:])
        assert (code, out) == (1, "")
        assert err.splitlines()[-1].startswith("error: ")

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_negative_seed_exits_one(self, capsys, command):
        code, out, err = run(
            capsys, command[0], "--bundle", EXAMPLE_BUNDLE, *command[1:],
            "--seed", "-1",
        )
        assert (code, out) == (1, "")
        assert "seed must be >= 0" in err


def _predictions(bundle):
    options = EngineOptions(point="mc-median")
    dc, eff = (bundle.resolve_active(t) for t in Target)
    ctx = calibrate(bundle.included_releases(), dc, eff, bundle.quantifications, options)
    levels = dict(item.split("=") for item in TestPredict.LEVELS.split(","))
    spec = NewReleaseSpec(130, {fid: int(level) for fid, level in levels.items()})
    return Predictions(
        predict_defect_content(ctx, spec, dc, bundle.quantifications, options),
        predict_effectiveness(ctx, spec, eff, bundle.quantifications, options))


def _crossval(bundle):
    model = loocv(bundle, MODEL_INFLUENCE_FACTOR)
    baseline = loocv(bundle, MODEL_DD_MEDIAN)
    return Crossval(model, baseline, wilcoxon_one_sided(model.mre_pairs(baseline)))


def _ablation(bundle):
    ranked = aggregate_rankings(bundle.rankings, Target.DEFECT_CONTENT)
    order = [rf.factor_id for rf in ranked]
    return ablation_curve(bundle, Target.DEFECT_CONTENT, order, [0, 1, 3])


class TestReportRecords:
    # Each of TestDeterminism.COMMANDS' reports at seed 0, built by the library.
    LIBRARY = {
        "check": lambda b: descriptive_stats(b.releases),
        "rank": lambda b: Ranking(
            Target.EFFECTIVENESS, aggregate_rankings(b.rankings, Target.EFFECTIVENESS)),
        "calibrate": lambda b: calibrate(
            b.included_releases(), *(b.resolve_active(t) for t in Target),
            b.quantifications),
        "predict": _predictions,
        "crossval": _crossval,
        "ablate": _ablation,
        "historysim": lambda b: history_simulation(b, 4),
    }

    @pytest.mark.parametrize("command", TestDeterminism.COMMANDS, ids=lambda c: c[0])
    def test_library_record_renders_the_printed_report(self, capsys, command):
        record = self.LIBRARY[command[0]](load_bundle(EXAMPLE_BUNDLE))
        code, out, _ = run(capsys, command[0], "--bundle", EXAMPLE_BUNDLE, *command[1:])
        assert code == 0
        assert out.startswith("seed: 0\n")
        assert render_report(record) == out.removeprefix("seed: 0\n")

    @pytest.mark.parametrize("command", TestDeterminism.COMMANDS, ids=lambda c: c[0])
    def test_format_option_is_a_usage_error(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command[0], "--bundle", str(EXAMPLE_BUNDLE), *command[1:],
                  "--format", "json"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


class TestGoldenReports:
    """sha256 of stdout at seed 0 on the example bundle, recorded before
    the mixture draw was split across threads; the first six are the
    benchmark's cli_oneshot commands."""

    GOLDEN = {
        ("check",):
            "7f699aacf12355582cefe9fa7729e602a53a26abed740b2aaa12a150f9031c1e",
        ("calibrate",):
            "3059634f0f757159ad4ff661b7582e136c90ace71f3e6ae553f0a8fbadef73ae",
        ("predict", "--size", "130", "--levels", TestPredict.LEVELS):
            "550683fbcd381ccf7724155823d28e6df388a771e92ba9286398c0f10222a89e",
        ("crossval", "--baseline", "dd-median", "--test", "wilcoxon"):
            "544f1143d721fd8d1866239a9633e4fc6a9fb053d46dcddb021ad0cca9a90202",
        ("ablate",):
            "e867a8b43e1ca5a913fb161b23bb55efdb669cdf0f3d8da4f79f56e7a434d336",
        ("historysim",):
            "bb43a704d2c5a1c00d88f10a6ee5c4b98d295b53b81e1b7ad7a125c935198bf3",
        # 10**5 samples: several kernel blocks, so several ranges
        ("predict", "--size", "130", "--levels", TestPredict.LEVELS,
         "--point", "mc-median", "--samples", "100000"):
            "140c8f8050b8821899b8965e6c90dabf091f2018b204223b971ede4254282d69",
    }

    @pytest.mark.parametrize("command", sorted(GOLDEN), ids=lambda c: c[0])
    def test_stdout_digest(self, capsys, command):
        code, out, _ = run(capsys, *command, "--bundle", EXAMPLE_BUNDLE)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.GOLDEN[command]


FACTOR_IDS = [f"{t}{i}" for t in "DE" for i in range(1, 6)]
SPEC = "<spec file>"  # stands for the spec file's path in a drawn argv


def _joined(elements):
    return st.lists(elements, min_size=1, max_size=4).map(",".join)


def _valid_or(valid, *invalid):
    """``valid`` is listed three times, so that whole argvs often succeed."""
    return st.one_of(*[st.just(valid)] * 3, st.sampled_from(invalid))


_TARGET = st.sampled_from(["defect-content", "effectiveness"])
_MODEL = st.sampled_from(["influence-factor", "dc-median", "dd-median", "eff-median"])
_LEVEL = st.builds(
    "{}={}".format, st.sampled_from(FACTOR_IDS + ["ZZ"]),
    _valid_or("2", "0", "3", "4", "-1", "x"),
)
_COMMON = {
    "--seed": st.integers(-1, 2**64).map(str),
}
_ENGINE = {  # every command but check and rank
    "--samples": _valid_or("2000", "1", "0", "-1"),
    "--point": st.sampled_from(["analytic-mean", "mc-median"]),
    "--exclude": _joined(st.sampled_from(list("ABCDEFGHIJ") + ["NOPE", ""])),
}
_FACTORS = _joined(st.sampled_from(FACTOR_IDS + ["X9", ""]))
_OPTIONS = {  # each command's options beyond the common ones
    "check": {},
    "rank": {"--target": _TARGET},
    "calibrate": {**_ENGINE, "--factors": _FACTORS},
    "predict": {
        **_ENGINE, "--factors": _FACTORS,
        "--quantiles": _joined(_valid_or("0.5", "0", "1", "1.5", "x")),
    },
    "crossval": {
        **_ENGINE, "--factors": _FACTORS, "--target": _TARGET, "--model": _MODEL,
        "--baseline": _MODEL, "--test": st.sampled_from(["wilcoxon", "none"]),
    },
    "ablate": {
        **_ENGINE, "--target": _TARGET,
        "--ks": _joined(st.sampled_from(["0", "1", "3", "5", "6", "-1", "x"])),
    },
    "historysim": {
        **_ENGINE, "--factors": _FACTORS, "--target": _TARGET,
        "--start": st.integers(-1, 12).map(str),
    },
}
# How predict is given the release: a spec file, inline, both, or not at all.
_PREDICT_ROUTE = st.one_of(
    st.just(["--spec", SPEC]),
    st.just(["--spec", SPEC, "--size", "130", "--levels", TestPredict.LEVELS]),
    st.tuples(
        _valid_or("130", "0", "-5", "nan", "inf", "1e300", "abc"),
        st.one_of(
            st.just(TestPredict.LEVELS),
            _LEVEL.map(f"{TestPredict.LEVELS},{{}}".format),
            _joined(_LEVEL),
        ),
    ).map(lambda route: ["--size", route[0], "--levels", route[1]]),
    st.just([]),
)
_SPEC_DOCUMENT = st.one_of(
    st.fixed_dictionaries({
        "size": _valid_or(130, 0, -1, "x", None),
        "levels": st.dictionaries(
            st.sampled_from(FACTOR_IDS + ["Q7"]), _valid_or(2, 0, 3, 4, -1),
            min_size=8,
        ),
    }),
    st.sampled_from([[], {}, "x", None]),
)


@st.composite
def cli_runs(draw):
    """An argv drawn from the parser's grammar, and the spec file's document."""
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    options = {**_COMMON, **_OPTIONS[command]}
    argv = [command, "--bundle", str(EXAMPLE_BUNDLE)]
    if command == "predict":
        argv += draw(_PREDICT_ROUTE)
    for flag in draw(st.lists(st.sampled_from(sorted(options)), unique=True)):
        argv += [flag, draw(options[flag])]
    return argv, draw(_SPEC_DOCUMENT)


class TestArgvGrammar:
    @settings(deadline=None, max_examples=150)
    @given(run_input=cli_runs())
    def test_exit_code_and_stdout_contract(self, tmp_path_factory, run_input):
        argv, spec = run_input
        spec_path = tmp_path_factory.getbasetemp() / "grammar_spec.json"
        spec_path.write_text(json.dumps(spec))
        argv = [str(spec_path) if a == SPEC else a for a in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
        assert code in (0, 1, 2), (argv, stderr.getvalue())
        if code:
            assert stdout.getvalue() == "", argv


# Reports of the example bundle whose inputs are all order-sensitive in
# principle: expert mixtures, rankings and per-release levels.
_ORDER_RUNS = [
    ["calibrate"],
    ["predict", "--size", "130", "--levels", TestPredict.LEVELS],
    ["crossval"],
    ["crossval", "--target", "effectiveness"],
    ["historysim"],
]


def _reports(doc, path, runs) -> list[str]:
    """stdout of each argv in ``runs`` on ``doc``, written to ``path``."""
    path.write_text(json.dumps(doc))
    reports = []
    for argv in runs:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main([*argv, "--bundle", str(path)]) == 0
        reports.append(stdout.getvalue())
    return reports


def _order_reports(doc, path) -> list[str]:
    """stdout of every order run on ``doc``, under both point strategies."""
    return _reports(doc, path, [
        [*argv, "--point", point]
        for argv in _ORDER_RUNS for point in ("analytic-mean", "mc-median")
    ])


class TestOrderIndependence:
    # Shrinking permutations of 40 triangles takes minutes; a failure
    # reports the first shuffled bundle instead.
    @settings(deadline=None, max_examples=20, phases=[Phase.reuse, Phase.generate])
    @given(data=st.data(), with_active=st.booleans())
    def test_entry_and_key_order_leave_reports_unchanged(
        self, tmp_path_factory, data, with_active
    ):
        # Release order is chronological, so it alone stays as it is.
        doc = json.loads(EXAMPLE_BUNDLE.read_text())
        if with_active:
            doc["active_factors"] = {
                "defect_content": ["D1", "D3", "D4"], "effectiveness": ["E2", "E5"],
            }
        base = tmp_path_factory.getbasetemp()
        expected = _order_reports(doc, base / "ordered.json")

        def shuffled(items):
            return data.draw(st.permutations(list(items)))

        for section in ("factors", "quantifications", "rankings"):
            doc[section] = shuffled(doc[section])
        for release in doc["releases"]:
            release["levels"] = dict(shuffled(release["levels"].items()))
        if with_active:
            doc["active_factors"] = dict(shuffled(doc["active_factors"].items()))
        assert _order_reports(doc, base / "shuffled.json") == expected


# Every report computed from the history; calibrate under both points.
_HISTORY_RUNS = [
    ["calibrate"],
    ["calibrate", "--point", "mc-median"],
    ["crossval"],
    ["ablate"],
    ["historysim"],
    ["predict", "--size", "130", "--levels", TestPredict.LEVELS],
]
_EXCLUDED_RELEASE = st.fixed_dictionaries({
    "id": st.sampled_from(["K", "Z9", "late"]),
    "size": st.floats(1e-3, 1e6),
    "defects_found": st.one_of(st.integers(0, 10**4), st.floats(0, 1e6)),
    "defects_slipped": st.one_of(st.integers(0, 10**4), st.floats(0, 1e6)),
    "levels": st.fixed_dictionaries({fid: st.integers(0, 3) for fid in FACTOR_IDS}),
    "excluded": st.just(True),
})


class TestExcludedRelease:
    @pytest.fixture(scope="class")
    def expected(self, tmp_path_factory):
        doc = json.loads(EXAMPLE_BUNDLE.read_text())
        return _reports(doc, tmp_path_factory.mktemp("excluded") / "b.json",
                        _HISTORY_RUNS)

    @settings(deadline=None, max_examples=20)
    @given(release=_EXCLUDED_RELEASE)
    def test_appended_excluded_release_leaves_reports_unchanged(
        self, tmp_path_factory, expected, release
    ):
        doc = json.loads(EXAMPLE_BUNDLE.read_text())
        doc["releases"].append(release)
        path = tmp_path_factory.getbasetemp() / "with_excluded.json"
        assert _reports(doc, path, _HISTORY_RUNS) == expected


def _fresh_process(probe: str) -> str:
    """stdout of ``probe`` run in a new interpreter on this package."""
    src = Path(defectcast.__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True, timeout=60,
    )
    return out.stdout.strip()


def _main_probe(argv, report: str) -> str:
    """A probe that runs ``cli.main(argv)`` quietly, then prints ``report``."""
    return (
        "import io, sys, contextlib, threading, defectcast.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = defectcast.cli.main({[str(a) for a in argv]!r})\n"
        f"print({report})"
    )


class TestModuleEntryPoint:
    @pytest.mark.parametrize("extra,code", [((), 0), (("--no-such-flag",), 2)],
                             ids=["check", "unknown-flag"])
    def test_python_dash_m_runs_main(self, extra, code):
        src = Path(defectcast.__file__).resolve().parent.parent
        done = subprocess.run(
            [sys.executable, "-m", "defectcast.cli", "check",
             "--bundle", str(EXAMPLE_BUNDLE), *extra],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == code
        if code == 0:
            assert done.stdout.startswith("seed: 0\n")
        else:
            assert done.stdout == "" and "--no-such-flag" in done.stderr


class TestHashSeed:
    """Reports and messages must not depend on set or dict-of-str order."""

    COMMANDS = [*list(TestGoldenReports.GOLDEN)[:6],  # the cli_oneshot mix
                ("calibrate", "--point", "mc-median"), ("check", "--invalid")]

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: "-".join(c[:2]))
    def test_same_bytes_under_any_hash_seed(self, tmp_path, command):
        bundle = EXAMPLE_BUNDLE
        if command == ("check", "--invalid"):
            doc = json.loads(EXAMPLE_BUNDLE.read_text())
            doc["releases"][0]["levels"] = {"ZZ": 1, "YY": 2, "D2": 1}
            doc["quantifications"][0]["factor_id"] = "QQ"
            doc["zz"] = doc["aa"] = {}
            bundle = tmp_path / "invalid.json"
            bundle.write_text(json.dumps(doc))
            command = ("check",)
        src = Path(defectcast.__file__).resolve().parent.parent
        first, second = (
            subprocess.run(
                [sys.executable, "-m", "defectcast.cli", *command, "--bundle", str(bundle)],
                env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed},
                capture_output=True, timeout=120,
            )
            for seed in ("0", "12345")
        )
        assert first.returncode == (0 if bundle == EXAMPLE_BUNDLE else 1)
        assert (first.stdout, first.stderr) == (second.stdout, second.stderr)


class TestColdStart:
    def test_cli_import_does_not_load_scipy(self):
        # scipy.stats costs about a second of import; the CLI must not pay it.
        probe = "import sys, defectcast.cli; print('scipy' in sys.modules)"
        assert _fresh_process(probe) == "False"

    def test_calibrate_does_not_load_numpy_ma(self):
        # np.median imports numpy.ma lazily, about 18 ms per CLI process.
        probe = _main_probe(["calibrate", "--bundle", EXAMPLE_BUNDLE],
                            "code, 'numpy.ma' in sys.modules")
        assert _fresh_process(probe) == "0 False"

    def test_default_predict_starts_no_thread(self):
        # 10**4 samples fit one kernel block: one range, on the main thread.
        argv = ["predict", "--bundle", EXAMPLE_BUNDLE, "--size", "130",
                "--levels", TestPredict.LEVELS]
        probe = _main_probe(
            argv, "code, 'concurrent.futures' in sys.modules, threading.active_count()"
        )
        assert _fresh_process(probe) == "0 False 1"

    def test_threaded_predict_leaves_no_thread_or_pool(self):
        # 10**6 samples on 2 ranges: every draw starts and joins its own
        # thread, and no executor is imported for it.
        argv = ["predict", "--bundle", EXAMPLE_BUNDLE, "--size", "130",
                "--levels", TestPredict.LEVELS, "--samples", "1000000"]
        probe = "import defectcast.sampling as s\ns._cpus = lambda: 2\n" + _main_probe(
            argv, "code, 'concurrent.futures' in sys.modules, threading.active_count()"
        )
        assert _fresh_process(probe) == "0 False 1"

    # numpy costs about 0.15 s of a 0.35 s command, OpenSSL's _hashlib,
    # which seeds the draw streams, about 4 ms, and inspect, which numpy
    # imports, about 6 ms: only commands that draw samples may load them.
    # No command loads dataclasses, statistics or csv (about 5 ms together).
    @pytest.mark.parametrize("command,loads_numpy", [
        (("check",), False),
        (("rank", "--target", "effectiveness"), False),
        (("calibrate",), False),
        (("crossval", "--baseline", "dd-median", "--test", "wilcoxon"), False),
        (("ablate",), False),
        (("historysim",), False),
        (("predict", "--size", "130", "--levels", TestPredict.LEVELS), True),
        (("calibrate", "--point", "mc-median"), True),
    ], ids=["check", "rank", "calibrate", "crossval", "ablate", "historysim",
            "predict", "calibrate-mc-median"])
    def test_numpy_only_where_samples_are_drawn(self, command, loads_numpy):
        argv = [command[0], "--bundle", EXAMPLE_BUNDLE, *command[1:]]
        unused = ("dataclasses", "statistics", "csv")
        probe = _main_probe(
            argv, "code, 'numpy' in sys.modules, '_hashlib' in sys.modules, "
            f"'inspect' in sys.modules, [m for m in {unused!r} if m in sys.modules]"
        )
        expected = f"0 {loads_numpy} {loads_numpy} {loads_numpy} []"
        assert _fresh_process(probe) == expected

    def test_package_import_loads_every_layer_without_numpy(self):
        # The benchmark's tracer reads each layer from sys.modules after
        # a plain `import defectcast`.
        layers = ["bundle", "sampling", "calibration", "prediction", "evaluation"]
        probe = (
            "import sys, defectcast\n"
            f"print('numpy' in sys.modules, "
            f"all('defectcast.' + m in sys.modules for m in {layers!r}))"
        )
        assert _fresh_process(probe) == "False True"
