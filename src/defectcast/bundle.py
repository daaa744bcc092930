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
from collections import Counter
from pathlib import Path
from typing import Mapping, Sequence

from .calibration import descriptive_stats
from .errors import BundleValidationError, MissingFactorError
from .model import (
    ExpertTriangle,
    FactorRanking,
    InfluenceFactor,
    ReleaseRecord,
    Target,
    _FieldError,
    _FrozenDict,
    _kind,
    _Record,
    _stored,
    _typed,
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

    def __post_init__(self):
        # Each key must be a target's value and each entry a list or tuple of
        # ids; ``resolve_active`` checks the ids themselves.
        if self.active_factors is not None:
            active = {}
            for key, ids in self.active_factors.items():
                try:
                    key = Target(key).value
                except ValueError:
                    message = f"active_factors: unknown target {key!r}"
                    raise ValueError(message) from None
                active[key] = _stored(ids, tuple, f"active_factors[{key!r}]")
            object.__setattr__(self, "active_factors", _FrozenDict(active))

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
        did not improve accuracy in practice.  An override or
        ``active_factors`` id that names no factor of the target, or that
        repeats, is a ``ValueError``.
        """
        by_id = {f.id: f for f in self.factors_for(target)}
        if override_ids is None and self.active_factors:
            override_ids = self.active_factors.get(target.value)
        if override_ids is not None:
            unknown = [fid for fid in override_ids if fid not in by_id]
            if unknown:
                raise ValueError(f"ids {unknown} name no {target.value} factor")
            repeated = {fid for fid in override_ids if override_ids.count(fid) > 1}
            if repeated:
                raise ValueError(f"duplicate factor ids {sorted(repeated)}")
            return [by_id[fid] for fid in override_ids]
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
        return self._replace(releases=[
            r._replace(excluded=r.excluded or r.id in ids) for r in self.releases
        ])


_REQUIRED = object()


def _field(obj, key: str, kind: type, default=_REQUIRED):
    """``obj[key]`` checked by ``_typed``; if absent, ``default`` or a _FieldError."""
    value = obj.get(key, _REQUIRED) if isinstance(obj, dict) else _REQUIRED
    if value is not _REQUIRED:
        return _typed(value, kind, key)
    if default is _REQUIRED:
        raise _FieldError(key, "missing")
    return default


def _issue(entity: str, exc: ValueError, field: str) -> ValidationIssue:
    """The issue of ``exc``: a _FieldError names its key, the rest ``field``."""
    return ValidationIssue(entity, getattr(exc, "field", field), str(exc))


def _objects(raw: dict, section: str, entity: str, keys: tuple, errors: list):
    """(entity, item) of each object in a list section; the rest are issues.

    The entity label joins the item's ``keys``, each where it is a string
    and the item's index otherwise: ``release:A``, ``release:#0``.
    """
    try:
        items = _field(raw, section, list, [])
    except ValueError as exc:
        errors.append(_issue("document", exc, section))
        items = []
    for i, item in enumerate(items):
        if isinstance(item, dict):
            names = [item.get(key) for key in keys]
            label = "/".join(n if isinstance(n, str) else f"#{i}" for n in names)
            yield f"{entity}:{label}", item
        else:
            message = f"expected an object, got {_kind(item)}"
            errors.append(ValidationIssue(f"{entity}:#{i}", "type", message))


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
    seen: set[tuple[str, Target]] = set()
    for entity, f in _objects(raw, "factors", "factor", ("id",), errors):
        try:
            factor = InfluenceFactor(
                id=_field(f, "id", str),
                name=_field(f, "name", str, f["id"]),  # the id is a string here
                target=Target(_field(f, "target", str)),
                levels=_field(f, "levels", list),
                description=_field(f, "description", str, ""),
            )
        except ValueError as exc:
            errors.append(_issue(entity, exc, "levels/target"))
            continue
        if (factor.id, factor.target) in seen:
            errors.append(ValidationIssue(entity, "id", "duplicate id for target"))
        seen.add((factor.id, factor.target))
        factors.append(factor)
    factor_ids = {f.id for f in factors}
    ids_by_target = {
        t: {f.id for f in factors if f.target == t} for t in Target
    }

    # A second estimate or ranking by one expert would double their weight.
    triangles: list[ExpertTriangle] = []
    by_expert: set[tuple] = set()
    pair = ("expert", "factor_id")
    for entity, q in _objects(raw, "quantifications", "quantification", pair, errors):
        try:
            tri = ExpertTriangle(
                expert=_field(q, "expert", str),
                factor_id=_field(q, "factor_id", str),
                target=Target(_field(q, "target", str)),
                minimum=_field(q, "min", float),
                most_likely=_field(q, "most_likely", float),
                maximum=_field(q, "max", float),
            )
        except ValueError as exc:
            errors.append(_issue(entity, exc, "min/most_likely/max"))
            continue
        if tri.maximum > 1e6:  # a million-fold increase keeps (max - min)**2 finite
            errors.append(ValidationIssue(entity, "max", "max must be at most 1e6"))
        if tri.factor_id not in ids_by_target[tri.target]:
            message = f"unknown factor {tri.factor_id!r} for target {tri.target.value}"
            errors.append(ValidationIssue(entity, "factor_id", message))
        key = (tri.expert, tri.factor_id, tri.target)
        if key in by_expert:
            errors.append(ValidationIssue(entity, "expert", "duplicate estimate"))
        by_expert.add(key)
        triangles.append(tri)

    rankings: list[FactorRanking] = []
    for entity, r in _objects(raw, "rankings", "ranking", ("expert",), errors):
        try:
            ranking = FactorRanking(
                expert=_field(r, "expert", str),
                target=Target(_field(r, "target", str)),
                ranks=_field(r, "ranks", dict),
            )
        except ValueError as exc:
            errors.append(_issue(entity, exc, "ranks"))
            continue
        for fid in ranking.ranks:
            if fid not in ids_by_target[ranking.target]:
                message = f"unknown factor {fid!r}"
                errors.append(ValidationIssue(entity, "ranks", message))
        if (ranking.expert, ranking.target) in by_expert:
            errors.append(ValidationIssue(entity, "expert", "duplicate ranking"))
        by_expert.add((ranking.expert, ranking.target))
        rankings.append(ranking)
    for t in Target:  # the rules every ranking command applies
        try:
            aggregate_rankings(rankings, t)
        except (MissingFactorError, ValueError) as exc:
            errors.append(ValidationIssue("rankings", t.value, str(exc)))

    releases: list[ReleaseRecord] = []
    release_ids: set[str] = set()
    for entity, r in _objects(raw, "releases", "release", ("id",), errors):
        try:
            rec = ReleaseRecord(
                id=_field(r, "id", str),
                size=_field(r, "size", float),
                defects_found=_field(r, "defects_found", float),
                defects_slipped=_field(r, "defects_slipped", float),
                levels=_field(r, "levels", dict, {}),
                excluded=_field(r, "excluded", bool, False),
                note=_field(r, "note", str, ""),
            )
        except ValueError as exc:
            errors.append(_issue(entity, exc, "measures/levels"))
            continue
        if rec.id in release_ids:
            errors.append(ValidationIssue(entity, "id", "duplicate release id"))
        release_ids.add(rec.id)
        for fid in sorted(factor_ids ^ rec.levels.keys()):
            what = "unknown factor" if fid in rec.levels else "missing level for factor"
            errors.append(ValidationIssue(entity, "levels", f"{what} {fid!r}"))
        releases.append(rec)

    for t in Target:
        quantified = {q.factor_id for q in triangles if q.target == t}
        for fid in sorted(ids_by_target[t] - quantified):
            message = f"no impact estimate for target {t.value}"
            errors.append(ValidationIssue(f"factor:{fid}", "quantifications", message))

    try:
        active = _field(raw, "active_factors", dict, None)
    except ValueError as exc:
        errors.append(_issue("document", exc, "active_factors"))
        active = None
    for tname in active or ():
        try:
            t = Target(tname)
        except ValueError:
            errors.append(ValidationIssue("active_factors", tname, "unknown target"))
            continue
        try:
            fids = _field(active, tname, list)
        except ValueError as exc:
            errors.append(_issue("active_factors", exc, tname))
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
        factors=factors,
        quantifications=triangles,
        rankings=rankings,
        releases=releases,
        active_factors=active,
        warnings=warnings,
    )
    return bundle, []


def _unique_keys(pairs: list[tuple]) -> dict:
    """A JSON object, unless it repeats a key (the last one would win)."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        counts = Counter(key for key, _ in pairs)
        raise ValueError(f"duplicate keys {sorted(k for k in obj if counts[k] > 1)}")
    return obj


def read_json(path: str | Path):
    """JSON at ``path``; a repeated key or over-deep nesting is a ValueError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=_unique_keys)
        except RecursionError:
            raise ValueError("JSON nests too deep to parse") from None


def load_bundle(path: str | Path) -> ContextBundle:
    """Load and fully validate a context bundle.

    Raises BundleValidationError with the exhaustive issue list on any
    invariant violation; non-fatal findings end up in bundle.warnings.
    """
    try:
        raw = read_json(path)
    except ValueError as exc:
        raise BundleValidationError(
            [ValidationIssue("document", "json", str(exc))]
        ) from exc
    bundle, errors = _build_bundle(raw)
    if errors:
        raise BundleValidationError(errors)
    return bundle
