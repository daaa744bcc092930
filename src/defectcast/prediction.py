"""Prediction of defect content and QA effectiveness for a new release.

Applies the calibrated context medians together with the new release's
factor characterization.  Uncertainty quantiles reflect the expert
estimate sampling only; the base-value medians are held fixed unless the
optional history bootstrap is switched on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .calibration import CalibratedContext
from .errors import NoEffectivenessHistoryError, NoUsableHistoryError
from .model import ExpertTriangle, InfluenceFactor, Target, _is_int
from .sampling import (
    EngineOptions,
    POINT_ANALYTIC_MEAN,
    empirical_quantile,
    increase_distribution,
)

DEFAULT_QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)


@dataclass(frozen=True)
class NewReleaseSpec:
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


@dataclass(frozen=True)
class Prediction:
    target: Target
    point: float
    quantiles: Mapping[float, float]
    n_samples: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "quantiles", dict(self.quantiles))


def _bootstrap_offsets(
    base_values: np.ndarray, n: int, seed: int
) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x626F6F74]))
    return base_values[rng.integers(0, base_values.size, size=n)]


def predict_defect_content(
    ctx: CalibratedContext,
    spec: NewReleaseSpec,
    dc_factors: Sequence[InfluenceFactor],
    triangles: Sequence[ExpertTriangle],
    options: EngineOptions = EngineOptions(),
    probs: Sequence[float] = DEFAULT_QUANTILES,
    bootstrap_history: bool = False,
) -> Prediction:
    """DC = size * median(DD_base) * (1 + DDIF)."""
    if not ctx.included_ids:
        raise NoUsableHistoryError("calibrated context is empty")
    if dc_factors:
        result = increase_distribution(
            dc_factors, triangles, spec.levels, Target.DEFECT_CONTENT, options
        )
        increase_point = result.point
        increase_samples = result.distribution.samples
    else:
        increase_point = 0.0
        increase_samples = np.zeros(options.n_samples)
    base = ctx.dd_base_median
    if bootstrap_history:
        bases = np.array(
            [ctx.per_release[rid].dd_base for rid in ctx.included_ids]
        )
        base_samples = _bootstrap_offsets(bases, len(increase_samples), options.seed)
    else:
        base_samples = base
    point = spec.size * base * (1.0 + increase_point)
    # In place, without temporaries: the same IEEE products as
    # spec.size * base_samples * (1.0 + increase_samples).
    samples = 1.0 + increase_samples
    samples *= spec.size * base_samples
    samples.sort()
    return Prediction(
        target=Target.DEFECT_CONTENT,
        point=point,
        quantiles={p: empirical_quantile(samples, p) for p in probs},
        n_samples=options.n_samples,
        seed=options.seed,
    )


def predict_effectiveness(
    ctx: CalibratedContext,
    spec: NewReleaseSpec,
    eff_factors: Sequence[InfluenceFactor],
    triangles: Sequence[ExpertTriangle],
    options: EngineOptions = EngineOptions(),
    probs: Sequence[float] = DEFAULT_QUANTILES,
    bootstrap_history: bool = False,
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
    if eff_factors:
        result = increase_distribution(
            eff_factors, triangles, spec.levels, Target.EFFECTIVENESS, options
        )
        increase_point = result.point
        increase_samples = result.distribution.samples
    else:
        increase_point = 0.0
        increase_samples = np.zeros(options.n_samples)
    base = ctx.eff_base_median
    if bootstrap_history:
        bases = np.array(
            [
                ctx.per_release[rid].eff_base
                for rid in ctx.included_ids
                if ctx.per_release[rid].eff_base is not None
            ]
        )
        base_samples = _bootstrap_offsets(bases, len(increase_samples), options.seed)
    else:
        base_samples = base
    point = min(base * (1.0 + increase_point), 1.0)
    samples = 1.0 + increase_samples
    samples *= base_samples
    np.minimum(samples, 1.0, out=samples)
    samples.sort()
    return Prediction(
        target=Target.EFFECTIVENESS,
        point=point,
        quantiles={p: empirical_quantile(samples, p) for p in probs},
        n_samples=options.n_samples,
        seed=options.seed,
    )


def predict_defects_found(dc: Prediction, eff: Prediction) -> float:
    """Expected defects found by the activity: Eff * DC."""
    return dc.point * eff.point
