"""On-disk context-bundle format and its validation.

A context bundle is a single JSON document with the top-level keys
``factors``, ``quantifications``, ``rankings``, ``releases`` and
optionally ``active_factors``.  Release array order is chronological.
Triangle values are stored as fractions (0.15 means "15% more defects").
An unknown key, at the top level or in an item, is a violation.  A bundle
derives its advisory ``warnings`` from its own factors and releases.
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
    _kind,
    _Record,
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

    def __post_init__(self):
        for key in self.active_factors or ():  # resolve_active checks the ids
            if key not in list(Target):
                raise ValueError(f"active_factors: unknown target {key!r}")

    @property
    def warnings(self) -> tuple[str, ...]:
        """Advisory findings, derived on each read: factor names of both targets,
        sorted, then ``descriptive_stats`` outliers (a repeated id raises there)."""
        dc_names, eff_names = ({f.name for f in self.factors_for(t)} for t in Target)
        shared = [f"factor {name!r} influences both defect content and effectiveness; "
                  "experts find these two contradicting influences hard to separate"
                  for name in sorted(dc_names & eff_names)]
        flagged = descriptive_stats(self.releases).flagged
        return tuple(shared + [f"release {rid!r}: {measure} outlier ({reason})"
                               for rid, measure, reason in flagged])

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
        did not improve accuracy in practice.  A str override, or an override,
        ``active_factors`` or top-ranked id that names no factor of the
        target, or that repeats, is a ``ValueError``.
        """
        if isinstance(override_ids, str):
            raise ValueError(
                f"expected a list of factor ids, got the string {override_ids!r}")
        by_id = {f.id: f for f in self.factors_for(target)}
        if override_ids is None and self.active_factors:
            override_ids = self.active_factors.get(target.value)
        if override_ids is None and target == Target.EFFECTIVENESS and self.rankings:
            ranked = aggregate_rankings(list(self.rankings), target)
            override_ids = [rf.factor_id for rf in ranked[:2]] or None
        if override_ids is not None:
            unknown = [fid for fid in override_ids if fid not in by_id]
            if unknown:
                raise ValueError(f"ids {unknown} name no {target.value} factor")
            repeated = {fid for fid in override_ids if override_ids.count(fid) > 1}
            if repeated:
                raise ValueError(f"duplicate factor ids {sorted(repeated)}")
            return [by_id[fid] for fid in override_ids]
        return sorted(by_id.values(), key=lambda f: f.id)

    def with_excluded(self, ids: Sequence[str]) -> "ContextBundle":
        """Copy excluding the listed releases; a str or unknown id is a ValueError."""
        if isinstance(ids, str):
            raise ValueError(f"expected a list of release ids, got the string {ids!r}")
        ids = set(ids)
        unknown = sorted(ids - {r.id for r in self.releases})
        if unknown:
            raise ValueError(f"unknown release ids {unknown}")
        return self._replace(releases=[
            r._replace(excluded=r.excluded or r.id in ids) for r in self.releases
        ])


def _read(cls, obj):
    """A ``cls`` record from the JSON object ``obj`` (a non-object has no keys).

    A key that names no field is a _FieldError (the least such key).  Each field
    is read from the key of its name; an absent one takes the record's default,
    or else is the _FieldError that its rule raises, in field order.
    """
    obj = obj if isinstance(obj, dict) else {}
    if unknown := sorted(obj.keys() - cls._field_set):
        raise _FieldError(unknown[0], f"unknown key {unknown[0]!r}")
    values = {name: obj[name] for name in cls._fields if name in obj}
    missing = {name: _FieldError(name, "missing") for name in cls._fields
               if name not in values and name not in cls._defaults}
    return cls(**values, **missing)


# Each list section's item as a record; a factor's name defaults to its id.
_READERS = {
    "factors": lambda f: _read(InfluenceFactor, {"name": f.get("id"), **f}),
    "quantifications": lambda q: _read(ExpertTriangle, q),
    "rankings": lambda r: _read(FactorRanking, r),
    "releases": lambda r: _read(ReleaseRecord, r),
}


def _section(raw: dict, section: str, keys: tuple, errors: list, catch_all=None):
    """(entity, record) of each item of a list section that reads as a record;
    the rest are issues, under their error's JSON key or else ``catch_all``.

    The entity label joins the item's ``keys``, each where it is a string
    and the item's index otherwise: ``release:A``, ``release:#0``.
    """
    try:
        items = _typed(raw.get(section, []), list, section)
    except ValueError as exc:
        errors.append(ValidationIssue("document", section, str(exc)))
        items = []
    noun = section.removesuffix("s")
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            message = f"expected an object, got {_kind(item)}"
            errors.append(ValidationIssue(f"{noun}:#{i}", "type", message))
            continue
        names = [item.get(key) for key in keys]
        label = "/".join(n if isinstance(n, str) else f"#{i}" for n in names)
        entity = f"{noun}:{label}"
        try:
            record = _READERS[section](item)
        except ValueError as exc:  # a _FieldError names its JSON key
            field = getattr(exc, "field", catch_all or section)
            errors.append(ValidationIssue(entity, field, str(exc)))
            continue
        yield entity, record


def _build_bundle(raw) -> tuple[ContextBundle | None, list[ValidationIssue]]:
    if not isinstance(raw, dict):
        return None, [
            ValidationIssue(
                "document", "json",
                f"expected an object at the top level, got {_kind(raw)}",
            )
        ]
    errors = [ValidationIssue("document", key, f"unknown key {key!r}")
              for key in sorted(raw.keys() - ContextBundle._field_set)]
    factors: list[InfluenceFactor] = []
    seen: set[tuple[str, Target]] = set()
    for entity, factor in _section(raw, "factors", ("id",), errors):
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
    for entity, tri in _section(raw, "quantifications", pair, errors,
                                "min/most_likely/max"):
        if tri.max > 1e6:  # a million-fold increase keeps (max - min)**2 finite
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
    for entity, ranking in _section(raw, "rankings", ("expert",), errors, "ranks"):
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
    for entity, rec in _section(raw, "releases", ("id",), errors, "measures/levels"):
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
        active = _typed(raw.get("active_factors", {}), dict, "active_factors") or None
    except ValueError as exc:
        errors.append(ValidationIssue("document", "active_factors", str(exc)))
        active = None
    for tname in active or ():
        try:
            t = Target(tname)
        except ValueError:
            errors.append(ValidationIssue("active_factors", tname, "unknown target"))
            continue
        try:
            fids = _typed(active[tname], list, tname)
        except ValueError as exc:
            errors.append(ValidationIssue("active_factors", tname, str(exc)))
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

    return ContextBundle(
        factors=factors,
        quantifications=triangles,
        rankings=rankings,
        releases=releases,
        active_factors=active,
    ), []


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
    violation, an unknown key included; the bundle derives its ``warnings``.
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
