"""On-disk context-bundle format and its validation.

A context bundle is a single JSON document with the top-level keys
``factors``, ``quantifications``, ``rankings``, ``releases`` and
optionally ``active_factors``.  Release array order is chronological.
Triangle values are stored as fractions (0.15 means "15% more defects").
An unknown key, at the top level or in an item, is a violation.

The loader only reads JSON into records, whose own rules (a triangle's
cap among them) hold wherever a record is built.  The rules that tie the
records together are ``ContextBundle``'s own, so every bundle obeys them
however it is built (loaded, ``ContextBundle(...)``, ``_replace`` or
``with_excluded``), and building one that breaks them raises
``BundleValidationError`` with every issue.  The estimate and ranking
rules each have one owner that the library's paths share,
``sampling._estimates`` and ``model._ranking_problems``: those paths raise
the first problem, and the bundle files every one, so ``check`` lists
every ranking and estimate problem.  A bundle derives its advisory
``warnings`` from its own factors and releases.
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
    _FieldError,
    _items,
    _kind,
    _ranking_problems,
    _Record,
    _repeated,
    _rule,
    _typed,
    aggregate_rankings,
)
from .sampling import _estimates
# Reports are written by .report; bench/spans.py still traces this name.
from .report import render_report  # noqa: F401


class ValidationIssue(_Record):
    entity: str
    field: str
    message: str


def _active_set_problems(ids: Sequence[str], known, target: str) -> list[str]:
    """Why ``ids`` are not a set of the factors ``known`` for ``target``:
    ids that name none of them, then known ids that repeat (a repeated
    factor would count twice in every draw)."""
    problems = []
    if unknown := [fid for fid in ids if fid not in known]:
        problems.append(f"ids {unknown} name no {target} factor")
    if repeated := _repeated(fid for fid in ids if fid in known):
        problems.append(f"duplicate factor ids {repeated}")
    return problems


class ContextBundle(_Record):
    """All inputs of one estimation context; one that breaks the rules tying
    its records together is a ``BundleValidationError`` with every issue."""

    factors: tuple[InfluenceFactor, ...]
    quantifications: tuple[ExpertTriangle, ...]
    rankings: tuple[FactorRanking, ...] = ()
    releases: tuple[ReleaseRecord, ...] = ()
    active_factors: Mapping[str, tuple[str, ...]] | None = None

    def __post_init__(self):
        if issues := list(self._issues()):
            raise BundleValidationError(issues)

    def _issues(self):
        """Each ValidationIssue of the rules that tie the records together."""
        ids = {t: set() for t in Target}
        for f in self.factors:
            if f.id in ids[f.target]:
                yield ValidationIssue(f"factor:{f.id}", "id", "duplicate id for target")
            ids[f.target].add(f.id)

        for tri in self.quantifications:
            if tri.factor_id not in ids[tri.target]:
                message = f"unknown factor {tri.factor_id!r} for target {tri.target.value}"
                entity = f"quantification:{tri.expert}/{tri.factor_id}"
                yield ValidationIssue(entity, "factor_id", message)

        for ranking in self.rankings:
            for fid in ranking.ranks:
                if fid not in ids[ranking.target]:
                    message = f"unknown factor {fid!r}"
                    yield ValidationIssue(f"ranking:{ranking.expert}", "ranks", message)
        for t in Target:  # the rules of every estimate and every ranking command
            for problem in _estimates(sorted(ids[t]), self.quantifications, t)[1]:
                yield ValidationIssue("quantifications", t.value, str(problem))
            for problem in _ranking_problems(self.rankings, t):
                yield ValidationIssue("rankings", t.value, str(problem))

        factor_ids = set().union(*ids.values())
        release_ids = set()
        for rec in self.releases:
            entity = f"release:{rec.id}"
            if rec.id in release_ids:
                yield ValidationIssue(entity, "id", "duplicate release id")
            release_ids.add(rec.id)
            for fid in sorted(factor_ids ^ rec.levels.keys()):
                what = "unknown factor" if fid in rec.levels else "missing level for factor"
                yield ValidationIssue(entity, "levels", f"{what} {fid!r}")

        for tname, fids in (self.active_factors or {}).items():
            if tname not in list(Target):
                yield ValidationIssue("active_factors", tname, "unknown target")
                continue
            for message in _active_set_problems(fids, ids[Target(tname)], tname):
                yield ValidationIssue("active_factors", tname, message)

    @property
    def warnings(self) -> tuple[str, ...]:
        """Advisory findings, derived on each read: factor names of both targets,
        sorted, then ``descriptive_stats`` outliers."""
        dc_names, eff_names = ({f.name for f in self.factors_for(t)} for t in Target)
        shared = [f"factor {name!r} influences both defect content and effectiveness; "
                  "experts find these two contradicting influences hard to separate"
                  for name in sorted(dc_names & eff_names)]
        flagged = descriptive_stats(self.releases).flagged
        return tuple(shared + [f"release {rid!r}: {measure} outlier ({reason})"
                               for rid, measure, reason in flagged])

    def factors_for(self, target: Target) -> list[InfluenceFactor]:
        """The factors of ``target``, a Target or its value."""
        target = _typed(target, Target, "target")
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
        did not improve accuracy in practice.  ``target`` is a Target or
        its value.  An override is a list of factor ids read by ``_items``;
        one that names no factor of the target or repeats one is a
        ``ValueError``.
        """
        target = _typed(target, Target, "target")
        by_id = {f.id: f for f in self.factors_for(target)}
        if override_ids is not None:
            override_ids = _items(override_ids, "factor ids", str)
            if problems := _active_set_problems(override_ids, by_id, target.value):
                raise ValueError("; ".join(problems))
        elif self.active_factors and target.value in self.active_factors:
            override_ids = self.active_factors[target.value]
        elif target == Target.EFFECTIVENESS and self.rankings:
            ranked = aggregate_rankings(self.rankings, target)
            override_ids = [rf.factor_id for rf in ranked[:2]] or None
        if override_ids is None:
            return sorted(by_id.values(), key=lambda f: f.id)
        return [by_id[fid] for fid in override_ids]

    def with_excluded(self, ids: Sequence[str]) -> "ContextBundle":
        """Copy excluding the listed releases: a list of release ids read by
        ``_items``, each naming a release, else a ValueError."""
        ids = set(_items(ids, "release ids", str))
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


# Per list section: item reader (a factor's name defaults to its id), label keys, catch-all.
_SECTIONS = {
    "factors": (lambda f: _read(InfluenceFactor, {"name": f.get("id"), **f}),
                ("id",), "factors"),
    "quantifications": (lambda q: _read(ExpertTriangle, q),
                        ("expert", "factor_id"), "min/most_likely/max"),
    "rankings": (lambda r: _read(FactorRanking, r), ("expert",), "ranks"),
    "releases": (lambda r: _read(ReleaseRecord, r), ("id",), "measures/levels"),
}
_ACTIVE_IDS = _rule("tuple[str, ...]")


def _section(raw: dict, section: str, errors: list) -> list:
    """The records of a list section's items that read as one; the rest are
    issues, under their error's JSON key or else the section's catch-all.

    The entity label joins the item's keys, each where it is a string
    and the item's index otherwise: ``release:A``, ``release:#0``.
    """
    try:
        items = _typed(raw.get(section, []), list, section)
    except ValueError as exc:
        errors.append(ValidationIssue("document", section, str(exc)))
        return []
    reader, keys, catch_all = _SECTIONS[section]
    noun = section.removesuffix("s")
    records = []
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            message = f"expected an object, got {_kind(item)}"
            errors.append(ValidationIssue(f"{noun}:#{i}", "type", message))
            continue
        try:
            records.append(reader(item))
        except ValueError as exc:  # a _FieldError names its JSON key
            names = [item.get(key) for key in keys]
            label = "/".join(n if isinstance(n, str) else f"#{i}" for n in names)
            field = getattr(exc, "field", catch_all)
            errors.append(ValidationIssue(f"{noun}:{label}", field, str(exc)))
    return records


def _active_section(raw: dict, errors: list) -> dict | None:
    """``active_factors`` with each target's list read as ids; a list that
    does not read is an issue under its target."""
    try:
        active = _typed(raw.get("active_factors", {}), dict, "active_factors")
    except ValueError as exc:
        errors.append(ValidationIssue("document", "active_factors", str(exc)))
        return None
    read = {}
    for tname, fids in active.items():
        try:
            read[tname] = _ACTIVE_IDS(fids, tname, tname)
        except ValueError as exc:
            errors.append(ValidationIssue("active_factors", tname, str(exc)))
    return read or None


def _build_bundle(raw) -> tuple[ContextBundle | None, list[ValidationIssue]]:
    """The bundle a JSON document describes, or every issue with it: those
    of reading its records first, then those of the bundle's rules."""
    if not isinstance(raw, dict):
        message = f"expected an object at the top level, got {_kind(raw)}"
        return None, [ValidationIssue("document", "json", message)]
    errors = [ValidationIssue("document", key, f"unknown key {key!r}")
              for key in sorted(raw.keys() - ContextBundle._field_set)]
    fields = {section: _section(raw, section, errors) for section in _SECTIONS}
    fields["active_factors"] = _active_section(raw, errors)
    try:
        bundle = ContextBundle(**fields)
    except BundleValidationError as exc:
        errors += exc.errors
    return (None, errors) if errors else (bundle, [])


def _unique_keys(pairs: list[tuple]) -> dict:
    """A JSON object, unless it repeats a key (the last one would win)."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        raise ValueError(f"duplicate keys {_repeated(key for key, _ in pairs)}")
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
