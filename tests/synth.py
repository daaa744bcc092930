"""Synthetic context generator for structural validation.

Produces bundles whose releases obey the model equations exactly for
known base values, known triangles, and known factor levels.  With the
analytic-mean point strategy, the influence-factor model then recovers
the releases perfectly, which gives the evaluation machinery a known
ground truth to check against.
"""

from __future__ import annotations

from typing import Sequence

from defectcast.bundle import ContextBundle
from defectcast.model import (
    ExpertTriangle,
    FactorRanking,
    InfluenceFactor,
    ReleaseRecord,
    Target,
)

_GENERIC_LEVELS = (
    "best case in the context",
    "mild deviation from the best case",
    "clear deviation from the best case",
    "worst observable case in the context",
)


def make_synthetic_bundle(
    seed: int = 0,
    n_releases: int = 10,
    dc_impacts: Sequence[tuple[float, float, float]] = (
        (0.30, 0.50, 0.80),
        (0.10, 0.15, 0.25),
        (0.03, 0.06, 0.09),
    ),
    eff_impacts: Sequence[tuple[float, float, float]] = (
        (0.10, 0.20, 0.30),
        (0.05, 0.10, 0.15),
    ),
    dd_base: float = 0.5,
    eff_base: float = 0.6,
    constant: bool = False,
) -> ContextBundle:
    """Bundle whose releases follow the model equations exactly.

    The per-release increase factors are the analytic means of the
    single expert triangle per factor, so measurements are free of
    sampling noise.  ``constant=True`` freezes size and levels across
    releases, which makes every self-consistent prediction exact.
    Factors are ranked by their most-likely impact, largest first.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    dc_factors = [
        InfluenceFactor(
            id=f"D{i + 1}",
            name=f"Synthetic defect driver {i + 1}",
            target=Target.DEFECT_CONTENT,
            levels=_GENERIC_LEVELS,
        )
        for i in range(len(dc_impacts))
    ]
    eff_factors = [
        InfluenceFactor(
            id=f"E{i + 1}",
            name=f"Synthetic effectiveness driver {i + 1}",
            target=Target.EFFECTIVENESS,
            levels=_GENERIC_LEVELS,
        )
        for i in range(len(eff_impacts))
    ]
    triangles = [
        ExpertTriangle("X1", f.id, f.target, *impact)
        for f, impact in zip(dc_factors + eff_factors, list(dc_impacts) + list(eff_impacts))
    ]

    def ranking(factors, impacts, target):
        order = sorted(
            range(len(factors)), key=lambda i: (-impacts[i][1], factors[i].id)
        )
        ranks = {factors[i].id: pos + 1 for pos, i in enumerate(order)}
        return FactorRanking("X1", target, ranks)

    rankings = [
        ranking(dc_factors, list(dc_impacts), Target.DEFECT_CONTENT),
        ranking(eff_factors, list(eff_impacts), Target.EFFECTIVENESS),
    ]

    means = {t.factor_id: t.mean for t in triangles}
    releases = []
    for i in range(n_releases):
        if constant:
            size = 100.0
            levels = {f.id: 2 for f in dc_factors + eff_factors}
        else:
            size = float(rng.integers(60, 200))
            levels = {
                f.id: int(rng.integers(0, 4)) for f in dc_factors + eff_factors
            }
        ddif = sum(levels[f.id] / 3.0 * means[f.id] for f in dc_factors)
        eif = sum(levels[f.id] / 3.0 * means[f.id] for f in eff_factors)
        dc = size * dd_base * (1.0 + ddif)
        eff = min(eff_base * (1.0 + eif), 1.0)
        releases.append(
            ReleaseRecord(
                id=f"R{i:02d}",
                size=size,
                defects_found=eff * dc,
                defects_slipped=(1.0 - eff) * dc,
                levels=levels,
            )
        )
    return ContextBundle(
        factors=tuple(dc_factors + eff_factors),
        quantifications=tuple(triangles),
        rankings=tuple(rankings),
        releases=tuple(releases),
    )

