"""On-disk context-bundle format and its validation.

A context bundle is a single JSON document with the top-level keys
``factors``, ``quantifications``, ``rankings``, ``releases`` and
optionally ``active_factors``.  Release array order is chronological.
Triangle values are stored as fractions (0.15 means "15% more defects").
Loading also derives the advisory ``warnings``: factors of both targets
and outlier releases.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping, Sequence

from .calibration import descriptive_stats
from .errors import BundleValidationError
from .model import (
    ExpertTriangle,
    FactorRanking,
    InfluenceFactor,
    ReleaseRecord,
    Target,
    _Record,
    aggregate_rankings,
)
# Reports are written by .report; bench/spans.py still traces this name.
from .report import render_report  # noqa: F401


class ValidationIssue(_Record):
    entity: str
    field: str
    message: str


class ContextBundle(_Record):
    """All inputs of one estimation context."""

    factors: tuple[InfluenceFactor, ...]
    quantifications: tuple[ExpertTriangle, ...]
    rankings: tuple[FactorRanking, ...] = ()
    releases: tuple[ReleaseRecord, ...] = ()
    active_factors: Mapping[str, tuple[str, ...]] | None = None
    warnings: tuple[str, ...] = ()

    def factors_for(self, target: Target) -> list[InfluenceFactor]:
        return [f for f in self.factors if f.target == target]

    def included_releases(self) -> list[ReleaseRecord]:
        return [r for r in self.releases if not r.excluded]

    def resolve_active(
        self, target: Target, override_ids: Sequence[str] | None = None
    ) -> list[InfluenceFactor]:
        """Active factors for a target.

        Priority: explicit override, then the bundle's ``active_factors``
        entry, then (for effectiveness) the two top-ranked factors when
        rankings exist, then all factors of the target.  The top-2
        effectiveness default exists because extra effectiveness factors
        did not improve accuracy in practice.  An override id that names
        no factor of the target, or that repeats, is a ``ValueError``.
        """
        by_id = {f.id: f for f in self.factors_for(target)}
        if override_ids is not None:
            unknown = [fid for fid in override_ids if fid not in by_id]
            if unknown:
                raise ValueError(f"ids {unknown} name no {target.value} factor")
            repeated = {fid for fid in override_ids if override_ids.count(fid) > 1}
            if repeated:
                raise ValueError(f"duplicate factor ids {sorted(repeated)}")
            return [by_id[fid] for fid in override_ids]
        if self.active_factors and target.value in self.active_factors:
            return [by_id[fid] for fid in self.active_factors[target.value]]
        if target == Target.EFFECTIVENESS and self.rankings:
            ranked = aggregate_rankings(list(self.rankings), target)
            if ranked:
                return [by_id[rf.factor_id] for rf in ranked[:2]]
        return sorted(by_id.values(), key=lambda f: f.id)

    def with_excluded(self, ids: Sequence[str]) -> "ContextBundle":
        """Copy with the given releases excluded; an unknown id is a ValueError."""
        ids = set(ids)
        unknown = sorted(ids - {r.id for r in self.releases})
        if unknown:
            raise ValueError(f"unknown release ids {unknown}")
        releases = tuple(
            r._replace(excluded=r.excluded or r.id in ids) for r in self.releases
        )
        return self._replace(releases=releases)


_JSON_KINDS = {
    dict: "an object", list: "an array", str: "a string", bool: "a boolean",
    int: "a number", float: "a number", type(None): "null",
}


def _kind(value) -> str:
    return _JSON_KINDS.get(type(value), type(value).__name__)


def _objects(raw: dict, section: str, entity: str, errors: list[ValidationIssue]):
    """(index, item) of each object in a list section; the rest are issues."""
    items = raw.get(section, [])
    if not isinstance(items, list):
        errors.append(
            ValidationIssue(
                "document", section, f"expected an array, got {_kind(items)}"
            )
        )
        items = []
    for i, item in enumerate(items):
        if isinstance(item, dict):
            yield i, item
        else:
            errors.append(
                ValidationIssue(
                    f"{entity}:#{i}", "type", f"expected an object, got {_kind(item)}"
                )
            )


def _build_bundle(raw) -> tuple[ContextBundle | None, list[ValidationIssue]]:
    if not isinstance(raw, dict):
        return None, [
            ValidationIssue(
                "document", "json",
                f"expected an object at the top level, got {_kind(raw)}",
            )
        ]
    errors: list[ValidationIssue] = []
    factors: list[InfluenceFactor] = []
    for i, f in _objects(raw, "factors", "factor", errors):
        entity = f"factor:{f.get('id', f'#{i}')}"
        try:
            factors.append(
                InfluenceFactor(
                    id=str(f["id"]),
                    name=str(f.get("name", f["id"])),
                    target=Target(f["target"]),
                    levels=tuple(f["levels"]),
                    description=str(f.get("description", "")),
                )
            )
        except (KeyError, ValueError, TypeError) as exc:
            errors.append(ValidationIssue(entity, "levels/target", str(exc)))

    seen: set[tuple[str, str]] = set()
    for f in factors:
        key = (f.id, f.target.value)
        if key in seen:
            errors.append(
                ValidationIssue(f"factor:{f.id}", "id", "duplicate id for target")
            )
        seen.add(key)
    factor_ids = {f.id for f in factors}
    ids_by_target = {
        t: {f.id for f in factors if f.target == t} for t in Target
    }

    # A second estimate or ranking by one expert would double their weight.
    triangles: list[ExpertTriangle] = []
    by_expert: set[tuple] = set()
    for i, q in _objects(raw, "quantifications", "quantification", errors):
        entity = f"quantification:{q.get('expert', '?')}/{q.get('factor_id', f'#{i}')}"
        try:
            tri = ExpertTriangle(
                expert=str(q["expert"]),
                factor_id=str(q["factor_id"]),
                target=Target(q["target"]),
                minimum=float(q["min"]),
                most_likely=float(q["most_likely"]),
                maximum=float(q["max"]),
            )
        except (KeyError, ValueError, TypeError, OverflowError) as exc:
            errors.append(ValidationIssue(entity, "min/most_likely/max", str(exc)))
            continue
        if tri.factor_id not in ids_by_target[tri.target]:
            errors.append(
                ValidationIssue(
                    entity, "factor_id",
                    f"unknown factor {tri.factor_id!r} for target {tri.target.value}",
                )
            )
        key = (tri.expert, tri.factor_id, tri.target)
        if key in by_expert:
            errors.append(ValidationIssue(entity, "expert", "duplicate estimate"))
        by_expert.add(key)
        triangles.append(tri)

    rankings: list[FactorRanking] = []
    for i, r in _objects(raw, "rankings", "ranking", errors):
        entity = f"ranking:{r.get('expert', f'#{i}')}"
        try:
            ranking = FactorRanking(
                expert=str(r["expert"]),
                target=Target(r["target"]),
                ranks={str(k): v for k, v in r["ranks"].items()},
            )
        except (KeyError, ValueError, TypeError, AttributeError) as exc:
            errors.append(ValidationIssue(entity, "ranks", str(exc)))
            continue
        for fid in ranking.ranks:
            if fid not in ids_by_target[ranking.target]:
                errors.append(
                    ValidationIssue(entity, "ranks", f"unknown factor {fid!r}")
                )
        if (ranking.expert, ranking.target) in by_expert:
            errors.append(ValidationIssue(entity, "expert", "duplicate ranking"))
        by_expert.add((ranking.expert, ranking.target))
        rankings.append(ranking)

    releases: list[ReleaseRecord] = []
    release_ids: set[str] = set()
    for i, r in _objects(raw, "releases", "release", errors):
        entity = f"release:{r.get('id', f'#{i}')}"
        try:
            rec = ReleaseRecord(
                id=str(r["id"]),
                size=float(r["size"]),
                defects_found=float(r["defects_found"]),
                defects_slipped=float(r["defects_slipped"]),
                levels={str(k): v for k, v in r.get("levels", {}).items()},
                excluded=bool(r.get("excluded", False)),
                note=str(r.get("note", "")),
            )
        except (
            KeyError, ValueError, TypeError, AttributeError, OverflowError
        ) as exc:
            errors.append(ValidationIssue(entity, "measures/levels", str(exc)))
            continue
        if rec.id in release_ids:
            errors.append(ValidationIssue(entity, "id", "duplicate release id"))
        release_ids.add(rec.id)
        for fid in factor_ids:
            if fid not in rec.levels:
                errors.append(
                    ValidationIssue(entity, "levels", f"missing level for factor {fid!r}")
                )
        for fid in rec.levels:
            if fid not in factor_ids:
                errors.append(
                    ValidationIssue(entity, "levels", f"unknown factor {fid!r}")
                )
        releases.append(rec)

    for t in Target:
        quantified = {q.factor_id for q in triangles if q.target == t}
        for fid in sorted(ids_by_target[t] - quantified):
            errors.append(
                ValidationIssue(
                    f"factor:{fid}", "quantifications",
                    f"no impact estimate for target {t.value}",
                )
            )

    active_raw = raw.get("active_factors")
    active = None
    if active_raw is not None and not isinstance(active_raw, dict):
        errors.append(
            ValidationIssue(
                "document", "active_factors",
                f"expected an object, got {_kind(active_raw)}",
            )
        )
    elif active_raw is not None:
        active = {}
        for tname, fids in active_raw.items():
            try:
                t = Target(tname)
            except ValueError:
                errors.append(
                    ValidationIssue("active_factors", tname, "unknown target")
                )
                continue
            if not isinstance(fids, list):
                errors.append(
                    ValidationIssue(
                        "active_factors", tname,
                        f"expected an array of factor ids, got {_kind(fids)}",
                    )
                )
                continue
            listed: set[str] = set()
            for fid in fids:
                if not isinstance(fid, str) or fid not in ids_by_target[t]:
                    message = f"unknown factor {fid!r}"
                elif fid in listed:
                    # A repeated factor would count twice in every draw.
                    message = f"duplicate factor {fid!r}"
                else:
                    listed.add(fid)
                    continue
                errors.append(ValidationIssue("active_factors", tname, message))
            active[t.value] = tuple(fids)

    if errors:
        return None, errors

    warnings: list[str] = []
    names_by_target = {
        t: {f.name for f in factors if f.target == t} for t in Target
    }
    for name in sorted(
        names_by_target[Target.DEFECT_CONTENT] & names_by_target[Target.EFFECTIVENESS]
    ):
        warnings.append(
            f"factor {name!r} influences both defect content and effectiveness; "
            "experts find these two contradicting influences hard to separate"
        )
    if releases:
        for rid, measure, reason in descriptive_stats(releases).flagged:
            warnings.append(f"release {rid!r}: {measure} outlier ({reason})")

    bundle = ContextBundle(
        factors=tuple(factors),
        quantifications=tuple(triangles),
        rankings=tuple(rankings),
        releases=tuple(releases),
        active_factors=active,
        warnings=tuple(warnings),
    )
    return bundle, []


def load_bundle(path: str | Path) -> ContextBundle:
    """Load and fully validate a context bundle.

    Raises BundleValidationError with the exhaustive issue list on any
    invariant violation; non-fatal findings end up in bundle.warnings.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        # ValueError also covers bad UTF-8 and over-long integers.
        except (ValueError, RecursionError) as exc:
            raise BundleValidationError(
                [ValidationIssue("document", "json", str(exc))]
            ) from exc
    bundle, errors = _build_bundle(raw)
    if errors:
        raise BundleValidationError(errors)
    return bundle
