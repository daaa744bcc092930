"""The benchmark's tracer, bench/spans.py, must still find what it wraps.

It looks each layer function up by name on its ``defectcast.<layer>``
module, so a function that moves or is renamed would make every traced
run fail, or leave its per-layer rows blank.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import defectcast
from defectcast import Target, load_bundle
from defectcast.cli import main

from conftest import EXAMPLE_BUNDLE

SPANS = Path(__file__).parent.parent / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    for layer, names in _spans().LAYER_FUNCTIONS.items():
        module = getattr(defectcast, layer)
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"


def test_cli_load_and_render_are_traced(capsys):
    tracer = _spans().Tracer()
    tracer.install()
    try:
        assert main(["check", "--bundle", str(EXAMPLE_BUNDLE)]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert [span[0] for span in tracer.spans] == [
        "bundle.load_bundle", "bundle.render_report",
    ]
    assert tracer.render_bytes > 0


def _traced(argv, capsys):
    tracer = _spans().Tracer()
    tracer.install()
    try:
        assert main(argv) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    return tracer


def _children(spans, parent_name, child_name):
    """The number of ``child_name`` spans directly under each ``parent_name`` span."""
    return [sum(1 for child in spans if child[0] == child_name and child[3] == i)
            for i, span in enumerate(spans) if span[0] == parent_name]


def test_each_prediction_draws_inside_its_span(capsys):
    tracer = _traced(["predict", "--bundle", str(EXAMPLE_BUNDLE), "--size", "130",
                      "--levels", "D1=1,D2=1,D3=3,D4=1,D5=0,"
                                  "E1=2,E2=2,E3=3,E4=2,E5=2"], capsys)
    for name in ("predict_defect_content", "predict_effectiveness"):
        assert _children(tracer.spans, f"prediction.{name}",
                         "sampling.increase_distribution") == [1]
    assert tracer.factor_draws == 6  # D5 at level 0 is not drawn


def test_mc_median_calibration_draws_once_per_level_vector(capsys):
    tracer = _traced(["calibrate", "--bundle", str(EXAMPLE_BUNDLE),
                      "--point", "mc-median"], capsys)
    bundle = load_bundle(EXAMPLE_BUNDLE)
    vectors = {(target, tuple(r.levels[f.id] for f in bundle.resolve_active(target)))
               for target in Target for r in bundle.included_releases()}
    assert _children(tracer.spans, "calibration.calibrate",
                     "sampling.increase_distribution") == [len(vectors)]
    assert len(vectors) < 2 * len(bundle.included_releases())


def _ancestors(spans, i):
    """The names of the spans that span ``i`` ran under, innermost first."""
    names, parent = [], spans[i][3]
    while parent >= 0:
        names.append(spans[parent][0])
        parent = spans[parent][3]
    return names


@pytest.mark.parametrize("argv,cases", [
    (["crossval", "--baseline", "dd-median"],
     lambda report: len(report["model"]["cases"]) + len(report["baseline"]["cases"])),
    (["historysim"], lambda report: len(report["steps"])),
], ids=["crossval", "historysim"])
def test_validation_draws_inside_its_span(argv, cases, capsys):
    # A validation loop's draws used to run under calibration.calibrate; the
    # loop reads one target's columns itself now, and they must stay traced.
    tracer = _spans().Tracer()
    tracer.install()
    try:
        assert main([*argv, "--bundle", str(EXAMPLE_BUNDLE), "--point", "mc-median",
                     "--samples", "2000"]) == 0
    finally:
        tracer.uninstall()
    out = capsys.readouterr().out
    report = json.loads(out[out.index("{"):])  # after the "seed: N" line
    draws = [i for i, span in enumerate(tracer.spans)
             if span[0] == "sampling.increase_distribution"]
    assert draws and tracer.factor_draws > 0
    for i in draws:
        assert any(name.startswith("evaluation.") for name in _ancestors(tracer.spans, i))
    assert tracer.folds == cases(report) > 0
