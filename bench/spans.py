"""Span tracing of defectcast's layers, installed from outside the package.

The package's modules bind each other's functions at import time
(``evaluation.calibrate``, ``calibration.increase_distribution``,
``cli.load_bundle`` ...), so a wrapper must replace the function in
every module namespace that holds it, not only where it is defined.

Spans are kept in memory as ``[name, start, end, parent, op]`` and
written out once at the end.  Counts that need the call's arguments
(draw keys, releases calibrated, samples sorted) are taken at the same
boundary, before the span's clock starts, so the layer's own time does
not include them.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

# Public functions wrapped per layer (module under src/defectcast/).
LAYER_FUNCTIONS = {
    "bundle": ("load_bundle", "render_report"),
    "sampling": ("increase_distribution", "analytic_mean_increase"),
    "calibration": ("calibrate",),
    "prediction": ("predict_defect_content", "predict_effectiveness"),
    "evaluation": ("loocv", "ablation_curve", "history_simulation", "wilcoxon_one_sided"),
}


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None  # id of the timed unit now running
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.factor_draws = 0
        self.samples_drawn = 0
        self.draw_keys: set = set()
        self.releases_in = 0
        self.release_keys: set = set()
        self.samples_sorted = 0
        self.folds = 0
        self.render_bytes = 0

    # -- installation -------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function at every defectcast import site."""
        import defectcast  # noqa: F401  (loads every submodule)

        hooks = {
            "increase_distribution": (self._on_draw, None),
            "calibrate": (self._on_calibrate, None),
            "predict_defect_content": (self._on_predict, None),
            "predict_effectiveness": (self._on_predict, None),
            "loocv": (None, self._on_loocv),
            "history_simulation": (None, self._on_history),
            "render_report": (None, self._on_render),
        }
        wrappers = {}
        for layer, names in LAYER_FUNCTIONS.items():
            module = sys.modules[f"defectcast.{layer}"]
            for name in names:
                fn = getattr(module, name)
                before, after = hooks.get(name, (None, None))
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn, before, after))
        for modname, module in list(sys.modules.items()):
            if modname != "defectcast" and not modname.startswith("defectcast."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._restore.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def _wrap(self, name, fn, before, after):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if before else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                before(bound.arguments)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    # -- counters -----------------------------------------------------

    def _on_draw(self, a) -> None:
        levels, n, seed = a["levels"], a["options"].n_samples, a["options"].seed
        target = a["target"].value
        for factor in a["factors"]:
            if levels.get(factor.id, 0) > 0:
                self.factor_draws += 1
                self.samples_drawn += n
                self.draw_keys.add((seed, target, factor.id, n))

    def _on_calibrate(self, a) -> None:
        context = (
            tuple(f.id for f in a["dc_factors"]),
            tuple(f.id for f in a["eff_factors"]),
            a["options"],
        )
        for release in a["releases"]:
            if release.excluded:
                continue
            self.releases_in += 1
            key = (
                release.id, release.size, release.defects_found,
                release.defects_slipped, tuple(sorted(release.levels.items())),
            )
            self.release_keys.add((key, context))

    def _on_predict(self, a) -> None:
        self.samples_sorted += a["options"].n_samples

    def _on_loocv(self, report) -> None:
        self.folds += len(report.cases)

    def _on_history(self, steps) -> None:
        self.folds += len(steps)

    def _on_render(self, text) -> None:
        self.render_bytes += len(text.encode("utf-8"))

    # -- output -------------------------------------------------------

    def dump(self) -> dict:
        """JSON-ready record of this process's spans and counters."""
        return {
            "spans": self.spans,
            "factor_draws": self.factor_draws,
            "samples_drawn": self.samples_drawn,
            "draw_keys": sorted(repr(k) for k in self.draw_keys),
            "releases_in": self.releases_in,
            "release_keys": sorted(repr(k) for k in self.release_keys),
            "samples_sorted": self.samples_sorted,
            "folds": self.folds,
            "render_bytes": self.render_bytes,
        }


def _self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(dumps: list[dict]) -> dict[str, float]:
    """Per-layer metrics from the dumps of one or more traced processes."""
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    evaluation_calls = 0
    for d in dumps:
        spans = d["spans"]
        for span, own in zip(spans, _self_times(spans)):
            name, start, end, parent, _ = span
            layer = name.split(".")[0]
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start)
            self_s[layer] = self_s.get(layer, 0.0) + own
            if layer == "evaluation" and (parent < 0 or not spans[parent][0].startswith("evaluation.")):
                evaluation_calls += 1

    def summed(key):
        return sum(d[key] for d in dumps)

    def union(key):
        return len(set().union(*(d[key] for d in dumps)))

    factor_draws = summed("factor_draws")
    samples = summed("samples_drawn")
    releases_in = summed("releases_in")
    incdist_s = total.get("sampling.increase_distribution", 0.0)
    return {
        "bundle.load_calls": calls.get("bundle.load_bundle", 0),
        "bundle.load_s": total.get("bundle.load_bundle", 0.0),
        "bundle.render_calls": calls.get("bundle.render_report", 0),
        "bundle.render_s": total.get("bundle.render_report", 0.0),
        "bundle.render_bytes": summed("render_bytes"),
        "sampling.incdist_calls": calls.get("sampling.increase_distribution", 0),
        "sampling.incdist_s": incdist_s,
        "sampling.factor_draws": factor_draws,
        "sampling.samples_drawn": samples,
        "sampling.ns_per_sample": incdist_s * 1e9 / samples if samples else 0.0,
        "sampling.unique_draws": union("draw_keys"),
        "sampling.unique_draw_share": union("draw_keys") / factor_draws if factor_draws else 0.0,
        "sampling.analytic_calls": calls.get("sampling.analytic_mean_increase", 0),
        "sampling.analytic_s": total.get("sampling.analytic_mean_increase", 0.0),
        "calibration.calls": calls.get("calibration.calibrate", 0),
        "calibration.self_s": self_s.get("calibration", 0.0),
        "calibration.releases_in": releases_in,
        "calibration.unique_release_share": union("release_keys") / releases_in if releases_in else 0.0,
        "prediction.calls": calls.get("prediction.predict_defect_content", 0)
        + calls.get("prediction.predict_effectiveness", 0),
        "prediction.self_s": self_s.get("prediction", 0.0),
        "prediction.samples_sorted": summed("samples_sorted"),
        "evaluation.calls": evaluation_calls,
        "evaluation.folds": summed("folds"),
        "evaluation.self_s": self_s.get("evaluation", 0.0),
        "evaluation.wilcoxon_s": total.get("evaluation.wilcoxon_one_sided", 0.0),
        "trace.spans": sum(len(d["spans"]) for d in dumps),
    }
