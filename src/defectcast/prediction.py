"""Prediction of defect content and QA effectiveness for a new release.

Applies the calibrated context medians together with the new release's
factor characterization.  Uncertainty quantiles reflect the expert
estimate sampling only; the base-value medians are held fixed.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from .calibration import CalibratedContext
from .errors import NoEffectivenessHistoryError, NoUsableHistoryError
from .model import ExpertTriangle, InfluenceFactor, Target, _is_int, _Record
from .sampling import (
    POINT_ANALYTIC_MEAN,
    EngineOptions,
    _draw_increase,
    analytic_mean_increase,
    empirical_quantile,
)

DEFAULT_QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)


class NewReleaseSpec(_Record):
    """Size and factor characterization of the release to predict."""

    size: float
    levels: Mapping[str, int]

    def __post_init__(self):
        if not (math.isfinite(self.size) and self.size > 0):
            raise ValueError(f"size must be positive and finite, got {self.size!r}")
        object.__setattr__(self, "levels", dict(self.levels))
        for fid, lvl in self.levels.items():
            if not (_is_int(lvl) and 0 <= lvl <= 3):
                raise ValueError(
                    f"level for factor {fid!r} must be an integer in [0, 3], "
                    f"got {lvl!r}"
                )


class Prediction(_Record):
    target: Target
    point: float
    quantiles: Mapping[float, float]
    n_samples: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "quantiles", dict(self.quantiles))

    def to_payload(self) -> dict:
        return {
            "report": "prediction",
            "target": self.target.value,
            "point": self.point,
            "quantiles": {f"{p:g}": v for p, v in sorted(self.quantiles.items())},
            "n_samples": self.n_samples,
            "seed": self.seed,
        }


def _model_equation(target: Target, size: float, base: float, increase: float) -> float:
    """The model equation for one target.

    Defect content is (size * DD_base) * (1 + DDIF); effectiveness is
    Eff_base * (1 + EIF), clipped to at most 1.
    """
    scale = size * base if target == Target.DEFECT_CONTENT else base
    value = (increase + 1.0) * scale
    if target == Target.EFFECTIVENESS:
        value = min(value, 1.0)
    return value


def _predict(
    target: Target,
    base: float,
    spec: NewReleaseSpec,
    factors: Sequence[InfluenceFactor],
    triangles: Sequence[ExpertTriangle],
    options: EngineOptions,
    probs: Sequence[float],
) -> Prediction:
    # The model equation is nondecreasing in the increase, rounding
    # included, so each quantile of the predictions is, bit for bit, the
    # prediction of that quantile of the increase.
    samples = _draw_increase(factors, triangles, spec.levels, target, options)
    samples.sort()
    if options.point == POINT_ANALYTIC_MEAN:
        increase = analytic_mean_increase(factors, triangles, spec.levels, target)
    else:
        increase = empirical_quantile(samples, 0.5)
    return Prediction(
        target=target,
        point=_model_equation(target, spec.size, base, increase),
        quantiles={
            p: _model_equation(target, spec.size, base, empirical_quantile(samples, p))
            for p in probs
        },
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
    """DC = size * median(DD_base) * (1 + DDIF)."""
    if not ctx.included_ids:
        raise NoUsableHistoryError("calibrated context is empty")
    return _predict(
        Target.DEFECT_CONTENT, ctx.dd_base_median, spec, dc_factors,
        triangles, options, probs,
    )


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
    defects, never of finding more than are there.
    """
    if ctx.eff_base_median is None:
        raise NoEffectivenessHistoryError(
            "no included release has a defined effectiveness"
        )
    return _predict(
        Target.EFFECTIVENESS, ctx.eff_base_median, spec, eff_factors,
        triangles, options, probs,
    )


def predict_defects_found(dc: Prediction, eff: Prediction) -> float:
    """Expected defects found by the activity: Eff * DC."""
    return dc.point * eff.point
