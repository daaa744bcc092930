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


def _check_levels(levels: Mapping[str, int], context: str = "") -> None:
    """Each level must be in [0, 3]; ``context`` leads the error."""
    for fid, lvl in levels.items():
        if not 0 <= lvl <= 3:
            raise ValueError(f"{context}level for factor {fid!r} must be an "
                             f"integer in [0, 3], got {lvl!r}")


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


class Target(str, Enum):
    """What an influence factor (or an estimate) acts on."""

    DEFECT_CONTENT = "defect_content"
    EFFECTIVENESS = "effectiveness"


_JSON_KINDS = {
    dict: "an object", list: "an array", str: "a string", bool: "a boolean",
    int: "a number", float: "a number", type(None): "null",
}
_WANTED = {**_JSON_KINDS, int: "an integer", tuple: "a list or a tuple",
           Target: " or ".join(repr(t.value) for t in Target)}


def _kind(value) -> str:
    return _JSON_KINDS.get(type(value), type(value).__name__)


class _FieldError(ValueError):
    """A missing field or one of the wrong type; ``field`` is its name."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


def _place(where) -> str:
    """``where`` as text: a field's name, or (container, format, key)."""
    return where if type(where) is str else where[1].format(_place(where[0]), where[2])


def _typed(value, kind: type, field: str, where=None):
    """``value`` as a field of ``kind`` holds it, else a _FieldError of ``field``
    naming ``where`` (see ``_rule``).  An int is no bool; a float takes an int
    (a ValueError past the float range), never a bool or a numpy integer; a
    str takes a Target as its value, a Target its value, and a tuple a list."""
    if type(value) is kind:
        return value
    if kind is float and isinstance(value, (int, float)) and type(value) is not bool:
        try:
            return float(value)
        except OverflowError as exc:
            raise ValueError(f"{_place(where or field)}: {exc}") from None
    if kind is str and isinstance(value, Target):
        return value.value
    if (kind, type(value)) in ((tuple, list), (dict, _FrozenDict)) or (
            kind is Target and value in list(Target)):
        return kind(value)
    wanted = _WANTED.get(kind, kind.__name__)
    message = f"{_place(where or field)} must be {wanted}, got {_kind(value)}"
    raise _FieldError(field, message)


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


# The leaf kinds by name; each record class adds itself.
_KINDS = {"str": str, "int": int, "float": float, "bool": bool, "Target": Target}


def _rule(annotation: str):
    """The rule of a field annotated ``annotation``: it takes (value, field,
    where), ``where`` being the field or (container, format, key), and returns
    what the field holds.  ``_typed`` checks a name in ``_KINDS``; another name
    leaves the field unchecked (None).  ``Mapping[K, V]`` holds a _FrozenDict
    of keys checked by K and values by V, ``tuple[T, ...]`` a tuple of T and
    ``tuple[A, B]`` one of A and B; K, A, B are names.  ``X | None`` takes None."""
    if annotation.endswith(" | None"):
        rule = _rule(annotation.removesuffix(" | None"))
        return rule and (lambda value, field, where:
                         None if value is None else rule(value, field, where))
    kind = _KINDS.get(annotation)
    if kind:
        return lambda value, field, where: (
            value if type(value) is kind else _typed(value, kind, field, where))
    name, _, args = annotation.removesuffix("]").partition("[")
    if name not in ("Mapping", "tuple"):
        return None
    fixed = not args.endswith(", ...")
    parts = args.split(", ", 1) if name == "Mapping" else (
        args.split(", ") if fixed else [args.removesuffix(", ...")])
    rules = [_rule(part) for part in parts]
    if not all(rules):
        return None
    if name == "tuple":
        return _sequence(rules, fixed)
    key_rule, value_rule = rules
    return lambda value, field, where: _FrozenDict(
        (key_rule(k, field, (where, "{} key {!r}", k)),
         value_rule(v, field, (where, "{}[{!r}]", k)))
        for k, v in _typed(value, dict, field, where).items())


def _sequence(rules: list, fixed: bool):
    def check(value, field, where):
        value = _typed(value, tuple, field, where)
        each = rules if fixed else rules * len(value)
        if len(value) != len(each):
            message = f"{_place(where)} must hold {len(each)} entries, got {len(value)}"
            raise _FieldError(field, message)
        return tuple(rule(v, field, (where, "{}[{!r}]", i))
                     for i, (rule, v) in enumerate(zip(each, value)))
    return check


class _Record:
    """Immutable record of the annotated fields; a class attribute is a default.

    Each annotation is its field's rule (see ``_rule``), so a record is of its
    fields' types and immutable down to each entry; ``__post_init__`` checks
    what a type cannot say."""

    def __init_subclass__(cls):
        hints = cls.__dict__.get("__annotations__", {})
        cls._fields, cls._field_set = tuple(hints), frozenset(hints)
        cls._defaults = {n: cls.__dict__[n] for n in cls._fields if n in cls.__dict__}
        rules = zip(hints, map(_rule, hints.values()))
        cls._rules = tuple((name, rule) for name, rule in rules if rule)
        _KINDS[cls.__name__] = cls

    def __init__(self, *args, **kwargs):
        given = dict(zip(self._fields, args), **kwargs)
        values = {**self._defaults, **given}
        if len(given) < len(args) + len(kwargs) or values.keys() != self._field_set:
            raise TypeError(f"{type(self).__name__} takes the fields {self._fields}")
        for name, rule in self._rules:
            values[name] = rule(values[name], name, name)
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
            if rank < 1:
                raise ValueError(f"ranking by {self.expert!r}: rank for {fid!r} "
                                 f"must be a positive integer, got {rank!r}")


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
            if not 1 <= rank <= k:
                raise ValueError(f"ranking by {r.expert!r}: rank for {fid!r} "
                                 f"must be an integer in [1, {k}], got {rank!r}")
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
