"""The benchmark's tracer, bench/spans.py, must still find what it wraps.

It looks each layer function up by name on its ``defectcast.<layer>``
module, so a function that moves or is renamed would make every traced
run fail, or leave its per-layer rows blank.
"""

import importlib.util
from pathlib import Path

import defectcast
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
