"""Prediction of defect content and QA effectiveness for a new release.

Applies the calibrated context medians together with the new release's
factor characterization through the model equation
(``model._model_equation``).  Uncertainty quantiles reflect the expert
estimate sampling only; the base-value medians are held fixed.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from .calibration import CalibratedContext
from .errors import NoEffectivenessHistoryError, NoUsableHistoryError
from .model import (
    ExpertTriangle, InfluenceFactor, Target, _check_levels, _items, _model_equation,
    _Record, _typed,
)
from .sampling import EngineOptions, _check_p, _increase_summary

DEFAULT_QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)


class NewReleaseSpec(_Record):
    """Size and factor characterization of the release to predict."""

    size: float
    levels: Mapping[str, int]

    def __post_init__(self):
        if not (math.isfinite(self.size) and self.size > 0):
            raise ValueError(f"size must be positive and finite, got {self.size!r}")
        _check_levels(self.levels)


class Prediction(_Record):
    target: Target
    point: float
    quantiles: Mapping[float, float]
    n_samples: int
    seed: int

    def to_payload(self) -> dict:
        return {
            "report": "prediction",
            "target": self.target.value,
            "point": self.point,
            "quantiles": {f"{p:g}": v for p, v in sorted(self.quantiles.items())},
            "n_samples": self.n_samples,
            "seed": self.seed,
        }


def _arguments(ctx, spec, factors, factors_name: str, triangles, options, probs) -> tuple:
    """A prediction's arguments, each read by its rule before any draw:
    the records by ``_typed``, the lists by ``_items`` and each ``p`` of
    ``probs`` by ``_check_p``."""
    return (_typed(ctx, CalibratedContext, "ctx"), _typed(spec, NewReleaseSpec, "spec"),
            _items(factors, factors_name, InfluenceFactor),
            _items(triangles, "triangles", ExpertTriangle),
            _typed(options, EngineOptions, "options"),
            tuple(map(_check_p, _items(probs, "probs"))))


def _predict(
    target: Target,
    base: float,
    spec: NewReleaseSpec,
    factors: tuple[InfluenceFactor, ...],
    triangles: tuple[ExpertTriangle, ...],
    options: EngineOptions,
    probs: tuple[float, ...],
) -> Prediction:
    # The model equation is nondecreasing in the increase, rounding
    # included, so each quantile of the predictions is, bit for bit, the
    # prediction of that quantile of the increase.
    point, quantiles = _increase_summary(factors, triangles, spec.levels, target,
                                         options, probs)
    return Prediction(
        target=target,
        point=_model_equation(target, spec.size, base, point),
        quantiles={p: _model_equation(target, spec.size, base, q)
                   for p, q in quantiles.items()},
        n_samples=options.n_samples,
        seed=options.seed,
    )


def predict_defect_content(
    ctx: CalibratedContext,
    spec: NewReleaseSpec,
    dc_factors: Sequence[InfluenceFactor],
    triangles: Sequence[ExpertTriangle],
    options: EngineOptions = EngineOptions(),
    probs: Sequence[float] = DEFAULT_QUANTILES,
) -> Prediction:
    """DC = size * median(DD_base) * (1 + DDIF).

    Every argument is read by ``_arguments`` before any draw.
    """
    ctx, spec, *rest = _arguments(ctx, spec, dc_factors, "dc_factors", triangles, options,
                                  probs)
    if not ctx.included_ids:
        raise NoUsableHistoryError("calibrated context is empty")
    return _predict(Target.DEFECT_CONTENT, ctx.dd_base_median, spec, *rest)


def predict_effectiveness(
    ctx: CalibratedContext,
    spec: NewReleaseSpec,
    eff_factors: Sequence[InfluenceFactor],
    triangles: Sequence[ExpertTriangle],
    options: EngineOptions = EngineOptions(),
    probs: Sequence[float] = DEFAULT_QUANTILES,
) -> Prediction:
    """Eff = median(Eff_base) * (1 + EIF), clipped to at most 1.

    Clipping happens per sample, not just on the point estimate, so the
    clipped probability mass accumulates at exactly 1.0: a highly
    effective activity gets a positive probability of finding all
    defects, never of finding more than are there.  Every argument is
    read by ``_arguments`` before any draw.
    """
    ctx, spec, *rest = _arguments(ctx, spec, eff_factors, "eff_factors", triangles, options,
                                  probs)
    if ctx.eff_base_median is None:
        raise NoEffectivenessHistoryError(
            "no included release has a defined effectiveness"
        )
    return _predict(Target.EFFECTIVENESS, ctx.eff_base_median, spec, *rest)


def predict_defects_found(dc: Prediction, eff: Prediction) -> float:
    """Expected defects found by the activity: Eff * DC; each a Prediction."""
    return _typed(dc, Prediction, "dc").point * _typed(eff, Prediction, "eff").point


class Predictions(_Record):
    """A release's predictions; ``effectiveness`` is None where none was made."""

    defect_content: Prediction
    effectiveness: Prediction | None

    def to_payload(self) -> dict:
        dc, eff = self.defect_content, self.effectiveness
        payload = {"report": "predictions", "defect_content": dc.to_payload(),
                   "seed": dc.seed}
        if eff is not None:
            payload["effectiveness"] = eff.to_payload()
            payload["expected_defects_found"] = predict_defects_found(dc, eff)
        return payload
