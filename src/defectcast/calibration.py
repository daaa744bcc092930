"""Calibration of context base values from historical releases.

Inverting the two model equations

    DC  = size * DD_base * (1 + DDIF)
    Eff = Eff_base * (1 + EIF)

on each historical release yields per-release base values; the context
values are the medians over the included releases.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping, Sequence

from .errors import NoUsableHistoryError, UndefinedEffectivenessError
from .model import (
    ExpertTriangle,
    InfluenceFactor,
    ReleaseRecord,
    Target,
    _median,
    _Record,
    defect_content,
    defect_density,
    effectiveness,
)
from .sampling import (
    EngineOptions,
    POINT_ANALYTIC_MEAN,
    _draw_increase,
    _median_sample,
    analytic_mean_increase,
    empirical_quantile,
)


class ReleaseCalibration(_Record):
    release_id: str
    ddif_point: float
    eif_point: float
    dd_base: float
    eff_base: float | None  # absent for defect-free releases (0/0)


class CalibratedContext(_Record):
    per_release: Mapping[str, ReleaseCalibration]
    dd_base_median: float
    eff_base_median: float | None
    included_ids: tuple[str, ...]

    def to_payload(self) -> dict:
        return {
            "report": "calibration",
            "per_release": {
                rid: {
                    "dd_base": c.dd_base,
                    "eff_base": c.eff_base,
                    "ddif_point": c.ddif_point,
                    "eif_point": c.eif_point,
                }
                for rid, c in sorted(self.per_release.items())
            },
            "dd_base_median": self.dd_base_median,
            "eff_base_median": self.eff_base_median,
            "included": list(self.included_ids),
        }


def base_defect_density(release: ReleaseRecord, ddif_point: float) -> float:
    """DD_base implied by the release once its DDIF is factored out."""
    return defect_content(release) / (release.size * (1.0 + ddif_point))


def base_effectiveness(release: ReleaseRecord, eif_point: float) -> float:
    """Eff_base implied by the release once its EIF is factored out."""
    return effectiveness(release) / (1.0 + eif_point)


def _check_unique_ids(releases: Sequence[ReleaseRecord]) -> None:
    """Results are keyed by release id, so a repeated id would drop a release."""
    counts = Counter(r.id for r in releases)
    repeated = sorted(rid for rid, n in counts.items() if n > 1)
    if repeated:
        raise ValueError(f"repeated release ids {repeated}")


def calibrate(
    releases: Sequence[ReleaseRecord],
    dc_factors: Sequence[InfluenceFactor],
    eff_factors: Sequence[InfluenceFactor],
    triangles: Sequence[ExpertTriangle],
    options: EngineOptions = EngineOptions(),
) -> CalibratedContext:
    """Derive per-release base values and their context medians.

    Excluded releases are skipped entirely.  Releases with defect
    content 0 contribute to the defect-density side but carry no base
    effectiveness.  The median of an even-count list is the mean of the
    two central order statistics.
    """
    _check_unique_ids(releases)
    included = [r for r in releases if not r.excluded]
    if not included:
        raise NoUsableHistoryError("all releases are excluded")

    # A draw depends only on the target and the active factors' levels,
    # so releases sharing a level vector share one draw.  A missing level
    # keys as None and still raises from the draw.
    drawn: dict[tuple, float] = {}

    def increase_point(factors, levels, target):
        if not factors:
            return 0.0
        # Either point is identical to increase_distribution(...).point;
        # the analytic mean needs no Monte Carlo draws.
        if options.point == POINT_ANALYTIC_MEAN:
            return analytic_mean_increase(factors, triangles, levels, target)
        key = (target, tuple(levels.get(f.id) for f in factors))
        if key not in drawn:
            drawn[key] = _median_sample(
                _draw_increase(factors, triangles, levels, target, options)
            )
        return drawn[key]

    per_release: dict[str, ReleaseCalibration] = {}
    for release in included:
        ddif = increase_point(dc_factors, release.levels, Target.DEFECT_CONTENT)
        eif = increase_point(eff_factors, release.levels, Target.EFFECTIVENESS)
        eff_base = None
        if defect_content(release) > 0:
            eff_base = base_effectiveness(release, eif)
        per_release[release.id] = ReleaseCalibration(
            release_id=release.id,
            ddif_point=ddif,
            eif_point=eif,
            dd_base=base_defect_density(release, ddif),
            eff_base=eff_base,
        )
    ordered = sorted(per_release.values(), key=lambda c: c.release_id)
    dd_median = float(_median([c.dd_base for c in ordered]))
    eff_values = [c.eff_base for c in ordered if c.eff_base is not None]
    eff_median = float(_median(eff_values)) if eff_values else None
    return CalibratedContext(
        per_release=per_release,
        dd_base_median=dd_median,
        eff_base_median=eff_median,
        included_ids=[c.release_id for c in ordered],
    )


class DescriptiveStats(_Record):
    per_release: Mapping[str, Mapping[str, float | None]]
    flagged: tuple[tuple[str, str, str], ...]  # (release_id, measure, reason)

    def to_payload(self) -> dict:
        return {
            "report": "descriptive",
            "per_release": {
                rid: dict(vals) for rid, vals in sorted(self.per_release.items())
            },
            "flagged": [list(f) for f in self.flagged],
        }


def _iqr_flags(values: dict[str, float], measure: str):
    if len(values) < 2:
        return
    ordered = sorted(values.values())
    q1 = empirical_quantile(ordered, 0.25)
    q3 = empirical_quantile(ordered, 0.75)
    iqr = q3 - q1
    lo, hi = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    for rid in sorted(values):
        v = values[rid]
        if v < lo:
            yield (rid, measure, f"below Q1 - 1.5*IQR ({v:.6g} < {lo:.6g})")
        elif v > hi:
            yield (rid, measure, f"above Q3 + 1.5*IQR ({v:.6g} > {hi:.6g})")


def descriptive_stats(releases: Sequence[ReleaseRecord]) -> DescriptiveStats:
    """Per-release defect density and effectiveness with outlier flags.

    Values outside the 1.5*IQR fences (nearest-rank quartiles) are
    flagged.  Flags are advisory only: whether to exclude a release
    stays a judgment call for whoever knows the history.  A repeated
    release id is a ValueError.
    """
    _check_unique_ids(releases)
    per_release: dict[str, dict] = {}
    dd_values: dict[str, float] = {}
    eff_values: dict[str, float] = {}
    for r in releases:
        dd = defect_density(r)
        try:
            eff = effectiveness(r)
        except UndefinedEffectivenessError:
            eff = None
        per_release[r.id] = dict(defect_density=dd, effectiveness=eff)
        dd_values[r.id] = dd
        if eff is not None:
            eff_values[r.id] = eff
    flagged = list(_iqr_flags(dd_values, "defect_density"))
    flagged += list(_iqr_flags(eff_values, "effectiveness"))
    return DescriptiveStats(per_release=per_release, flagged=flagged)
