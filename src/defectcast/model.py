"""Domain types for the causal model and the elementary defect measures.

A product entering a QA activity contains a number of defects (its defect
content).  The activity finds some of them and the rest slip through, so

    defect_content = defects_found + defects_slipped
    defect_density = defect_content / size
    effectiveness  = defects_found / defect_content

Influence factors drive how far a concrete release deviates from the
context best case; each factor is rated on a four-level ordinal scale.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Mapping, Sequence

from .errors import MissingFactorError, UndefinedEffectivenessError


def _is_int(value) -> bool:
    # JSON true/false load as bool, a subclass of int; they are not levels or ranks.
    return isinstance(value, int) and not isinstance(value, bool)


def _check_levels(levels: Mapping[str, int], context: str = "") -> None:
    """Each level must be an integer in [0, 3]; ``context`` leads the error."""
    for fid, lvl in levels.items():
        if not (_is_int(lvl) and 0 <= lvl <= 3):
            raise ValueError(
                f"{context}level for factor {fid!r} must be an integer in "
                f"[0, 3], got {lvl!r}"
            )


def _median(values):
    """``statistics.median``: the middle value, or the mean of the middle
    two, halved before they are added only where their sum overflows."""
    data = sorted(values)
    i = len(data) // 2
    if len(data) % 2:
        return data[i]
    middle = (data[i - 1] + data[i]) / 2
    return data[i - 1] / 2 + data[i] / 2 if math.isinf(middle) else middle


def _mean(values):
    """The exactly rounded sum of ``values`` over their count; an overflowing
    sum is taken at a power-of-two scale, so finite values keep a finite mean."""
    try:
        return math.fsum(values) / len(values)
    except OverflowError:
        k = len(values).bit_length()
        return math.ldexp(math.fsum(math.ldexp(v, -k) for v in values) / len(values), k)


_JSON_KINDS = {
    dict: "an object", list: "an array", str: "a string", bool: "a boolean",
    int: "a number", float: "a number", type(None): "null",
}


def _kind(value) -> str:
    return _JSON_KINDS.get(type(value), type(value).__name__)


class _FieldError(ValueError):
    """A missing field or one of the wrong type; ``field`` is its name."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


def _typed(value, kind: type, field: str):
    """``value`` if its type is ``kind``: str, bool, list, dict or float.

    float takes any int or float, never a bool or a numpy integer, and
    returns a float.  Another type is a _FieldError that names ``field``;
    an int too large for a float is a plain ValueError.
    """
    if kind is float and isinstance(value, (int, float)) and type(value) is not bool:
        try:
            return float(value)
        except OverflowError as exc:
            raise ValueError(f"{field}: {exc}") from None
    if type(value) is not kind:
        message = f"{field} must be {_JSON_KINDS[kind]}, got {_kind(value)}"
        raise _FieldError(field, message)
    return value


class _FrozenDict(dict):
    """A record's mapping: read-only, and hashed by its items."""

    def _read_only(self, *args, **kwargs):
        raise TypeError("a record's mapping is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __hash__(self):
        return hash(frozenset(self.items()))

    def __reduce__(self):
        # Unpickling a dict subclass would refill it through __setitem__.
        return type(self), (dict(self),)


def _stored(value, kind: type, field: str):
    """``value`` as a field of ``kind`` stores it: a dict as a _FrozenDict,
    a list or tuple as a tuple, a Target's value as the Target, and the
    rest checked by ``_typed``."""
    if kind is _FrozenDict:
        return _FrozenDict(_typed(value, dict, field))
    if kind is tuple:
        if type(value) not in (list, tuple):
            message = f"{field} must be a list or a tuple, got {_kind(value)}"
            raise _FieldError(field, message)
        return tuple(value)
    if kind is Target:
        return Target(value)
    return _typed(value, kind, field)


class _Record:
    """Immutable record of the annotated fields; a class attribute is a default.

    Each field annotated ``str``, ``float``, ``bool``, ``Target``,
    ``tuple[...]`` or ``Mapping[...]`` holds exactly one type, listed in
    ``_checked``; ``_stored`` turns any other value into it or refuses it.
    A mapping is kept as a read-only copy, so a record is immutable all
    the way down.  ``X | None`` takes None, or what the rule for ``X`` takes.
    """

    def __init_subclass__(cls):
        hints = cls.__dict__.get("__annotations__", {})
        cls._fields, cls._field_set = tuple(hints), frozenset(hints)
        cls._defaults = {n: cls.__dict__[n] for n in cls._fields if n in cls.__dict__}
        rules = {n: a.removesuffix(" | None") for n, a in hints.items()}
        cls._optional = frozenset(n for n, a in hints.items() if a != rules[n])
        kinds = {"str": str, "float": float, "bool": bool, "Target": Target}
        for a in rules.values():
            for prefix, kind in (("Mapping[", _FrozenDict), ("tuple[", tuple)):
                if a.startswith(prefix) and a.endswith("]"):
                    kinds[a] = kind
        cls._checked = tuple((n, kinds[a]) for n, a in rules.items() if a in kinds)
        cls._copied = tuple(n for n, kind in cls._checked if kind is _FrozenDict)

    def __init__(self, *args, **kwargs):
        given = dict(zip(self._fields, args), **kwargs)
        values = {**self._defaults, **given}
        if len(given) < len(args) + len(kwargs) or values.keys() != self._field_set:
            raise TypeError(f"{type(self).__name__} takes the fields {self._fields}")
        for name, kind in self._checked:
            value = values[name]
            if value is None and name in self._optional:
                continue
            if type(value) is not kind:
                values[name] = _stored(value, kind, name)
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable: use _replace")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        same = type(other) is type(self)
        return self._values() == other._values() if same else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({shown})"

    def _replace(self, **changes):
        """A new record with ``changes`` applied, checked like a new one."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))


class Target(str, Enum):
    """What an influence factor (or an estimate) acts on."""

    DEFECT_CONTENT = "defect_content"
    EFFECTIVENESS = "effectiveness"


class InfluenceFactor(_Record):
    """A named driver of defect content or QA effectiveness.

    ``levels`` holds exactly four ordered level descriptions: index 0 is
    the context best case (lowest defects-found impact), index 3 the
    worst.  A factor influencing both targets is represented by two
    entries sharing a name, one per target.
    """

    id: str
    name: str
    target: Target
    levels: tuple[str, str, str, str]
    description: str = ""

    def __post_init__(self):
        if len(self.levels) != 4:
            raise ValueError(
                f"factor {self.id!r} needs exactly 4 level descriptions, "
                f"got {len(self.levels)}"
            )
        if not all(isinstance(level, str) for level in self.levels):
            raise ValueError(f"factor {self.id!r}: level descriptions must be strings")


class ExpertTriangle(_Record):
    """One expert's (min, most-likely, max) relative-increase estimate.

    Values are unitless fractions relative to the context best case:
    0.15 means "15% more defects".  They are nonnegative because the
    estimate is an increase over the best case.
    """

    expert: str
    factor_id: str
    target: Target
    minimum: float
    most_likely: float
    maximum: float

    def __post_init__(self):
        values = (self.minimum, self.most_likely, self.maximum)
        if not all(math.isfinite(v) for v in values):
            raise ValueError(
                f"triangle for factor {self.factor_id!r} by {self.expert!r} "
                f"must have finite values, got {values}"
            )
        if not 0 <= self.minimum <= self.most_likely <= self.maximum:
            raise ValueError(
                f"triangle for factor {self.factor_id!r} by {self.expert!r} "
                f"must satisfy 0 <= min <= most_likely <= max, got "
                f"({self.minimum}, {self.most_likely}, {self.maximum})"
            )

    @property
    def mean(self) -> float:
        return (self.minimum + self.most_likely + self.maximum) / 3.0


class FactorRanking(_Record):
    """One expert's importance ranking of the factors for one target.

    Rank 1 marks the most important factor; ranks run from 1 to the
    number of factors for that target.
    """

    expert: str
    target: Target
    ranks: Mapping[str, int]

    def __post_init__(self):
        for fid, rank in self.ranks.items():
            if not (_is_int(rank) and rank >= 1):
                raise ValueError(
                    f"ranking by {self.expert!r}: rank for {fid!r} must be a "
                    f"positive integer, got {rank!r}"
                )


class ReleaseRecord(_Record):
    """A historical release with its measurements and characterization.

    ``size`` is whatever size proxy the context uses (e.g. the number of
    relevant test cases).  ``levels`` maps factor id to the release's
    level on that factor's four-level scale.
    """

    id: str
    size: float
    defects_found: float
    defects_slipped: float
    levels: Mapping[str, int]
    excluded: bool = False
    note: str = ""

    def __post_init__(self):
        measures = (self.size, self.defects_found, self.defects_slipped)
        if not all(math.isfinite(v) for v in measures):
            raise ValueError(
                f"release {self.id!r}: size and defect counts must be finite"
            )
        if self.size <= 0:
            raise ValueError(f"release {self.id!r}: size must be positive")
        if self.defects_found < 0 or self.defects_slipped < 0:
            raise ValueError(f"release {self.id!r}: defect counts must be >= 0")
        # Finite counts can add up, or divide by a tiny size, past the float range.
        if not math.isfinite(defect_content(self)):
            raise ValueError(f"release {self.id!r}: defect content must be finite")
        if not math.isfinite(defect_density(self)):
            raise ValueError(f"release {self.id!r}: defect density must be finite")
        _check_levels(self.levels, f"release {self.id!r}: ")


def defect_content(release: ReleaseRecord) -> float:
    """Defects in the product when the QA activity started (DF + DS)."""
    return release.defects_found + release.defects_slipped


def defect_density(release: ReleaseRecord) -> float:
    """Defect content per size unit."""
    return defect_content(release) / release.size


def effectiveness(release: ReleaseRecord) -> float:
    """Fraction of present defects the QA activity found.

    Raises UndefinedEffectivenessError for a defect-free release (0/0);
    such releases cannot contribute to effectiveness calibration.
    """
    dc = defect_content(release)
    if dc == 0:
        raise UndefinedEffectivenessError(
            f"release {release.id!r} has defect content 0"
        )
    return release.defects_found / dc


class RankedFactor(_Record):
    factor_id: str
    mean_rank: float
    median_rank: float


def aggregate_rankings(
    rankings: Sequence[FactorRanking], target: Target
) -> list[RankedFactor]:
    """Combine per-expert rankings into one importance order.

    Factors are sorted ascending by mean rank; ties are broken by median
    rank and then by factor id, so the order is deterministic and
    invariant under permutation of the input rankings.
    """
    relevant = [r for r in rankings if r.target == target]
    if not relevant:
        return []
    factor_ids = set(relevant[0].ranks)
    for r in relevant:
        missing = factor_ids.symmetric_difference(r.ranks)
        if missing:
            raise MissingFactorError(
                f"ranking by {r.expert!r} disagrees on the factor set: "
                f"{sorted(missing)}"
            )
    k = len(factor_ids)
    for r in relevant:
        for fid, rank in r.ranks.items():
            if not (_is_int(rank) and 1 <= rank <= k):
                raise ValueError(
                    f"ranking by {r.expert!r}: rank for {fid!r} must be an "
                    f"integer in [1, {k}], got {rank!r}"
                )
    out = []
    for fid in factor_ids:
        values = [r.ranks[fid] for r in relevant]
        out.append(
            RankedFactor(
                factor_id=fid,
                mean_rank=_mean(values),
                median_rank=float(_median(values)),
            )
        )
    out.sort(key=lambda f: (f.mean_rank, f.median_rank, f.factor_id))
    return out
