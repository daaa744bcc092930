"""Calibration of context base values from historical releases.

Inverting the two model equations

    DC  = size * DD_base * (1 + DDIF)
    Eff = Eff_base * (1 + EIF)

(``model._base``) on each historical release yields per-release base
values, one target's column at a time (``_columns``, which validation
reads too); the context values are the medians over the included releases.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .errors import NoUsableHistoryError
from .model import (
    ExpertTriangle,
    InfluenceFactor,
    ReleaseRecord,
    Target,
    _base,
    _items,
    _measured,
    _median,
    _Record,
    _repeated,
    _typed,
    defect_density,
)
from .sampling import EngineOptions, _increase_summary, empirical_quantile


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


def _check_unique_ids(releases: Sequence[ReleaseRecord]) -> None:
    """Results are keyed by release id, so a repeated id would drop a release."""
    repeated = _repeated(r.id for r in releases)
    if repeated:
        raise ValueError(f"repeated release ids {repeated}")


def _columns(releases: Sequence[ReleaseRecord], factors: Sequence[InfluenceFactor],
             target: Target, triangles: Sequence[ExpertTriangle],
             options: EngineOptions) -> tuple[list[float], list[float | None]]:
    """Each release's ``target`` increase point and base value, in release
    order; the base value is None where the release has no measured value.

    A point depends only on the active factors' levels, so releases
    sharing a level vector share one point; with no active factor it is
    0.0, drawn from nothing.  A missing level keys as None and still
    raises from the point.
    """
    memo: dict[tuple, float] = {}
    points = []
    for release in releases:
        key = tuple(release.levels.get(f.id) for f in factors)
        if key not in memo:
            memo[key] = _increase_summary(factors, triangles, release.levels, target,
                                          options)[0] if factors else 0.0
        points.append(memo[key])
    return points, [_base(target, r, x) for r, x in zip(releases, points)]


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
    two central order statistics.  Each list is read by ``_items``, its
    entries as records, and ``options`` as EngineOptions, before any draw.
    """
    releases = _items(releases, "releases", ReleaseRecord)
    dc_factors = _items(dc_factors, "dc_factors", InfluenceFactor)
    eff_factors = _items(eff_factors, "eff_factors", InfluenceFactor)
    triangles = _items(triangles, "triangles", ExpertTriangle)
    options = _typed(options, EngineOptions, "options")
    _check_unique_ids(releases)
    included = [r for r in releases if not r.excluded]
    if not included:
        raise NoUsableHistoryError("all releases are excluded")
    ddif, dd_base = _columns(included, dc_factors, Target.DEFECT_CONTENT,
                             triangles, options)
    eif, eff_base = _columns(included, eff_factors, Target.EFFECTIVENESS,
                             triangles, options)
    per_release = {r.id: ReleaseCalibration(r.id, *row)
                   for r, *row in zip(included, ddif, eif, dd_base, eff_base)}
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
    release id is a ValueError, as is a list that ``_items`` does not
    read as releases.
    """
    releases = _items(releases, "releases", ReleaseRecord)
    _check_unique_ids(releases)
    per_release: dict[str, dict] = {}
    dd_values: dict[str, float] = {}
    eff_values: dict[str, float] = {}
    for r in releases:
        dd, eff = defect_density(r), _measured(Target.EFFECTIVENESS, r)
        per_release[r.id] = dict(defect_density=dd, effectiveness=eff)
        dd_values[r.id] = dd
        if eff is not None:
            eff_values[r.id] = eff
    flagged = list(_iqr_flags(dd_values, "defect_density"))
    flagged += list(_iqr_flags(eff_values, "effectiveness"))
    return DescriptiveStats(per_release=per_release, flagged=flagged)
