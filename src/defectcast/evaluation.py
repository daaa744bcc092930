"""Model validation: accuracy metrics, cross-validation, baselines,
the exact one-sided Wilcoxon signed-rank test, the factor-count
ablation, and the growing-history simulation.
"""

from __future__ import annotations

import math
from collections import Counter
from numbers import Real
from typing import Iterable, Mapping, Sequence

from .bundle import ContextBundle
from .calibration import _columns
from .errors import (
    AllZeroDifferencesError,
    EstimationError,
    InsufficientHistoryError,
    ZeroActualError,
)
from .model import (
    ReleaseRecord,
    Target,
    _items,
    _mean,
    _measured,
    _median,
    _model_equation,
    _real,
    _Record,
    _repeated,
    _typed,
    defect_content,
)
from .sampling import EngineOptions

MODEL_INFLUENCE_FACTOR = "influence_factor"
MODEL_DC_MEDIAN = "dc_median"
MODEL_DD_MEDIAN = "dd_median"
MODEL_EFF_MEDIAN = "eff_median"

# The MRE level of Pred, the share of cases predicted within it.
_PRED_LEVEL = 0.25

# The target each data-only baseline predicts.
_BASELINE_TARGETS = {
    MODEL_DC_MEDIAN: Target.DEFECT_CONTENT,
    MODEL_DD_MEDIAN: Target.DEFECT_CONTENT,
    MODEL_EFF_MEDIAN: Target.EFFECTIVENESS,
}
# A tuple, so an unhashable model is compared, never hashed.
_MODELS = (MODEL_INFLUENCE_FACTOR, *_BASELINE_TARGETS)

# Mid-rank grouping of |differences| rounds to 12 decimals so that values
# equal up to float noise (e.g. 0.30 - 0.20 vs 0.10) tie properly.
_RANK_SCALE = 1e12

# Up to this many nonzero differences the Wilcoxon p-value is exact.
_EXACT_LIMIT = 20


class AccuracyCase(_Record):
    release_id: str
    predicted: float
    actual: float
    re: float
    mre: float


class AccuracyReport(_Record):
    model_name: str
    cases: tuple[AccuracyCase, ...]
    mmre: float
    pred: Mapping[float, float]

    def mres(self) -> dict[str, float]:
        return {c.release_id: c.mre for c in self.cases}

    def mre_pairs(self, other: AccuracyReport) -> list[tuple[float, float]]:
        """(this MRE, ``other``'s) of each release in release-id order, as
        ``wilcoxon_one_sided`` takes them; other releases are a ValueError."""
        mine, theirs = self.mres(), other.mres()
        if diff := sorted(mine.keys() ^ theirs.keys()):
            raise ValueError(f"the reports differ in the releases {diff}")
        return [(mine[rid], theirs[rid]) for rid in sorted(mine)]

    def to_payload(self) -> dict:
        return {
            "report": "accuracy",
            "model": self.model_name,
            "cases": [
                {
                    "release": c.release_id,
                    "predicted": c.predicted,
                    "actual": c.actual,
                    "re": c.re,
                    "mre": c.mre,
                }
                for c in self.cases
            ],
            "mmre": self.mmre,
            "pred": {f"{q:g}": v for q, v in sorted(self.pred.items())},
        }


def _real_pair(pair, where: str, names: tuple[str, str]) -> tuple[float, float]:
    """``pair`` as two floats, each read by ``_real``; a pair that is no list
    of two, or a value that is no real number or is a bool, is a ValueError
    naming ``where``."""
    values = _items(pair, f"{where} values")
    if len(values) != 2:
        raise ValueError(f"{where} must hold 2 values, {' and '.join(names)}, "
                         f"got {len(values)}")
    for name, value in zip(names, values):
        if isinstance(value, bool) or not isinstance(value, Real):
            raise ValueError(f"{where}: {name} must be a real number, got {value!r}")
    return _real(values[0]), _real(values[1])


def accuracy_metrics(
    cases: Sequence[tuple[float, float]],
    ids: Sequence[str] | None = None,
    model_name: str = "",
) -> AccuracyReport:
    """Relative-error metrics for (predicted, actual) pairs.

    RE = (predicted - actual) / actual, MRE = |RE|, MMRE is the mean
    MRE, and Pred(0.25), the report's one ``pred`` entry, is the share of
    MREs at or below 0.25 (boundary inclusive, with a relative float guard
    so an MRE of exactly 0.25 counts).  ``cases`` and ``ids`` are lists
    read by ``_items``; ``ids`` name the cases, one distinct string each,
    and default to the case indices.  Each case is a pair whose predicted
    and actual values are real numbers, no bool, read as floats before
    any case is computed.
    """
    cases = _items(cases, "cases")
    if not cases:
        raise ValueError("no cases")
    ids = tuple(map(str, range(len(cases)))) if ids is None else _items(ids, "case ids", str)
    if len(ids) != len(cases):
        raise ValueError(f"ids must hold one id for each of the {len(cases)} cases, "
                         f"got {len(ids)}")
    repeated = _repeated(ids)
    if repeated:
        raise ValueError(f"repeated case ids {repeated}")
    cases = [_real_pair(case, f"case {rid!r}", ("predicted", "actual"))
             for rid, case in zip(ids, cases)]
    out = []
    for rid, (predicted, actual) in zip(ids, cases):
        if actual == 0:
            raise ZeroActualError(f"case {rid!r} has actual value 0")
        re = (predicted - actual) / actual
        if not math.isfinite(re):  # also when the prediction is not finite
            raise EstimationError(
                f"case {rid!r}: predicted {predicted!r} against actual "
                f"{actual!r} has no finite relative error"
            )
        out.append(
            AccuracyCase(
                release_id=rid, predicted=predicted, actual=actual,
                re=re, mre=abs(re),
            )
        )
    mres = [c.mre for c in out]
    bound = _PRED_LEVEL * (1 + 1e-9) + 1e-12
    return AccuracyReport(
        model_name=model_name,
        cases=out,
        mmre=_mean(mres),
        pred={_PRED_LEVEL: sum(m <= bound for m in mres) / len(out)},
    )


def _usable(bundle: ContextBundle, target: Target) -> list[ReleaseRecord]:
    """The releases a validation loop predicts and learns from: the included
    ones with a measured ``target`` (for effectiveness, those with defects)."""
    return [r for r in bundle.included_releases() if _measured(target, r) is not None]


def _fold_loop(
    releases: list[ReleaseRecord], target: Target, sizes: list[float],
    points: list[float], folds: Iterable[tuple[int, list[float]]], model_name: str,
) -> AccuracyReport:
    """Accuracy of predicting ``releases[i]`` for each ``(i, window)`` of
    ``folds``, from the median of the base values in ``window``."""
    cases, ids = [], []
    for i, window in folds:
        predicted = _model_equation(target, sizes[i], _median(window), points[i])
        cases.append((predicted, _measured(target, releases[i])))
        ids.append(releases[i].id)
    return accuracy_metrics(cases, ids=ids, model_name=model_name)


def loocv(
    bundle: ContextBundle,
    model: str,
    target: Target = Target.DEFECT_CONTENT,
    options: EngineOptions = EngineOptions(),
    active_ids: Sequence[str] | None = None,
) -> AccuracyReport:
    """Leave-one-out cross-validation of one model.

    Each included release is predicted from a model calibrated on all
    other included releases; its own measurements never enter its fold.
    The expert triangles are fold-independent (elicitation does not
    depend on the measurement history).  For the effectiveness target,
    defect-free releases are skipped (their actual value is undefined).

    A data-only baseline must predict ``target``.  It runs in the same
    fold loop: ``dd_median`` and ``eff_median`` are the influence-factor
    model with no active factor, and ``dc_median`` takes each release's
    defect content as its base value and predicts at unit size.

    Every fold reuses one ``_columns`` read: a release's point depends
    only on the active factors, its own levels and the options.

    ``bundle``, ``target`` and ``options`` are read as a record's fields
    are before the model is checked, and ``active_ids`` is resolved
    before any fold.
    """
    bundle = _typed(bundle, ContextBundle, "bundle")
    target = _typed(target, Target, "target")
    options = _typed(options, EngineOptions, "options")
    if model not in _MODELS:
        raise ValueError(f"unknown model {model!r}")
    if _BASELINE_TARGETS.get(model, target) != target:
        raise ValueError(f"baseline {model!r} does not predict {target.value}")
    # Resolved for every model, so a bad override fails the same way.
    active = bundle.resolve_active(target, active_ids)
    releases = _usable(bundle, target)
    if len(releases) < 2:
        raise InsufficientHistoryError("leave-one-out needs >= 2 usable releases")
    if model == MODEL_DC_MEDIAN:
        n = len(releases)
        sizes, points = [1.0] * n, [0.0] * n
        bases = [defect_content(r) for r in releases]
    else:
        sizes = [r.size for r in releases]
        if model != MODEL_INFLUENCE_FACTOR:
            active = []
        points, bases = _columns(releases, active, target, bundle.quantifications, options)
    folds = ((i, bases[:i] + bases[i + 1:]) for i in range(len(releases)))
    return _fold_loop(releases, target, sizes, points, folds, model)


class WilcoxonResult(_Record):
    w_plus: float
    w_minus: float
    n_effective: int
    p_one_sided: float
    method: str  # exact_enumeration | normal_approximation

    def to_payload(self) -> dict:
        return {
            "report": "wilcoxon",
            "w_plus": self.w_plus,
            "w_minus": self.w_minus,
            "n_effective": self.n_effective,
            "p_one_sided": self.p_one_sided,
            "method": self.method,
            "zero_differences": "dropped",
            "ties": "mid-ranks",
        }


class Crossval(_Record):
    """``loocv`` of a model and of a baseline, and their Wilcoxon test, or None."""

    model: AccuracyReport
    baseline: AccuracyReport | None
    wilcoxon: WilcoxonResult | None

    def to_payload(self) -> dict:
        payload = {"report": "crossval"}
        for name, part in zip(self._fields, self._values()):
            if part is not None:
                payload[name] = part.to_payload()
        return payload


def _exact_count_le(doubled_ranks: Sequence[int], doubled_w: int) -> int:
    # Subset-sum distribution of the negative-rank sum over all 2^n
    # equally likely sign assignments, on the doubled-rank integer grid.
    total = sum(doubled_ranks)
    counts = [1] + [0] * total
    for r in doubled_ranks:
        for s in range(total, r - 1, -1):
            counts[s] += counts[s - r]
    return sum(counts[: min(doubled_w, total) + 1])


def _mid_ranks(values: Sequence[float]) -> list[float]:
    """1-based ranks of ``values``; tied values share their mean rank."""
    n = len(values)
    order = sorted(range(n), key=values.__getitem__)
    ranks = [0.0] * n
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and values[order[stop]] == values[order[start]]:
            stop += 1
        rank = start + (stop - start + 1) / 2.0
        for i in order[start:stop]:
            ranks[i] = rank
        start = stop
    return ranks


def wilcoxon_one_sided(pairs: Sequence[tuple[float, float]]) -> WilcoxonResult:
    """One-sided Wilcoxon matched-pairs signed-rank test.

    Differences are d = mre_b - mre_a; the alternative is that model A
    is the more accurate one (d tends positive), so the p-value is the
    null probability of a negative-rank sum at or below the observed
    one.  Zero differences are dropped, tied magnitudes get mid-ranks.
    Exact enumeration of all 2^n sign assignments up to n = _EXACT_LIMIT,
    normal approximation with continuity and tie correction beyond.
    ``pairs`` is a list read by ``_items``; each pair holds two MREs, real
    numbers and no bool, read as floats at entry.
    """
    pairs = [_real_pair(pair, f"pair {i}", ("mre_a", "mre_b"))
             for i, pair in enumerate(_items(pairs, "pairs"))]
    d = [b - a for a, b in pairs]
    d = [x for x in d if x != 0.0]
    n = len(d)
    if n == 0:
        raise AllZeroDifferencesError("every paired difference is zero")
    if not all(math.isfinite(x) for x in d):
        raise ValueError("a paired difference is not finite")
    # Rounded as np.round(|d|, 12) is: multiply, round half to even, divide.
    magnitudes = [round(abs(x) * _RANK_SCALE, 0) / _RANK_SCALE for x in d]
    ranks = _mid_ranks(magnitudes)
    # Ranks are multiples of 1/2, so these sums are exact in any order.
    w_plus = float(sum(r for r, x in zip(ranks, d) if x > 0))
    w_minus = float(sum(r for r, x in zip(ranks, d) if x < 0))
    if n <= _EXACT_LIMIT:
        doubled = [round(2 * r) for r in ranks]
        count = _exact_count_le(doubled, round(2 * w_minus))
        p = count / 2.0**n
        method = "exact_enumeration"
    else:
        mu = n * (n + 1) / 4.0
        var = n * (n + 1) * (2 * n + 1) / 24.0
        # Each (t^3 - t)/48 is a multiple of 1/8: the sum is exact too.
        var -= float(sum((t**3 - t) / 48.0 for t in Counter(magnitudes).values()))
        z = (w_minus - mu + 0.5) / math.sqrt(var)
        p = 0.5 * math.erfc(-z / math.sqrt(2.0))
        method = "normal_approximation"
    p = min(max(p, math.ulp(0.0)), 1.0)
    return WilcoxonResult(
        w_plus=w_plus,
        w_minus=w_minus,
        n_effective=n,
        p_one_sided=p,
        method=method,
    )


class AblationCurve(_Record):
    target: Target
    ranking_order: tuple[str, ...]
    reports: Mapping[int, AccuracyReport]

    def to_payload(self) -> dict:
        return {"report": "ablation", "target": self.target.value,
                "ranking_order": list(self.ranking_order),
                "mmre_by_k": {str(k): r.mmre for k, r in sorted(self.reports.items())}}


def ablation_curve(
    bundle: ContextBundle,
    target: Target,
    ranked_ids: Sequence[str],
    ks: Sequence[int],
    options: EngineOptions = EngineOptions(),
) -> AblationCurve:
    """Cross-validation accuracy using only the top-k ranked factors.

    k = 0 means no factor is active, which reduces exactly to the data-only
    median-density (or median-effectiveness) model.  A repeated k runs once.
    ``ranked_ids`` and ``ks`` are lists read by ``_items``; a k that is no
    int (a bool too) is a ValueError.  ``bundle`` is a ContextBundle,
    ``target`` a Target or its value, and ``options`` EngineOptions.
    """
    bundle = _typed(bundle, ContextBundle, "bundle")
    target = _typed(target, Target, "target")
    ranked_ids, ks = _items(ranked_ids, "factor ids", str), _items(ks, "ks")
    options = _typed(options, EngineOptions, "options")
    for k in ks:  # every k is checked before the first fold runs
        if type(k) is not int:  # a bool would key the report True
            raise ValueError(f"k must be an integer, got {k!r}")
        if not 0 <= k <= len(ranked_ids):
            raise ValueError(f"k={k} outside [0, {len(ranked_ids)}]")
    return AblationCurve(target, ranked_ids, {
        k: loocv(bundle, MODEL_INFLUENCE_FACTOR, target, options, active_ids=ranked_ids[:k])
        for k in dict.fromkeys(ks)})


class HistorySimulation(_Record):
    target: Target
    start_m: int
    accuracy: AccuracyReport

    # bench/spans.py counts history_simulation's folds with len() (ROADMAP 1d).
    def __len__(self) -> int:
        return len(self.accuracy.cases)

    def to_payload(self) -> dict:
        steps = [{"history_size": self.start_m + j, "release": c.release_id,
                  "predicted": c.predicted, "actual": c.actual, "mre": c.mre}
                 for j, c in enumerate(self.accuracy.cases)]
        return {"report": "history_simulation", "target": self.target.value,
                "start": self.start_m, "steps": steps}


def history_simulation(
    bundle: ContextBundle,
    start_m: int = 4,
    target: Target = Target.DEFECT_CONTENT,
    options: EngineOptions = EngineOptions(),
    active_ids: Sequence[str] | None = None,
) -> HistorySimulation:
    """Simulate model building with a growing release history.

    Starting from the first ``start_m`` included releases (in
    chronological = input order), each next release is predicted and
    then folded into the history, so case j of the accuracy was predicted
    from ``start_m + j`` releases.  Excluded releases are skipped both as
    history and as prediction targets.  A ``start_m`` that is no int
    (a bool too) is a ValueError; ``bundle`` is a ContextBundle,
    ``target`` a Target or its value, and ``options`` EngineOptions, and
    ``active_ids`` is resolved before any fold.
    """
    bundle = _typed(bundle, ContextBundle, "bundle")
    target = _typed(target, Target, "target")
    options = _typed(options, EngineOptions, "options")
    if type(start_m) is not int:
        raise ValueError(f"start_m must be an integer, got {start_m!r}")
    if start_m < 2:
        raise ValueError("start_m must be >= 2")
    active = bundle.resolve_active(target, active_ids)
    releases = _usable(bundle, target)
    if len(releases) <= start_m:
        raise InsufficientHistoryError(
            f"history simulation needs more than {start_m} usable releases"
        )
    points, bases = _columns(releases, active, target, bundle.quantifications, options)
    sizes = [r.size for r in releases]
    folds = ((m, bases[:m]) for m in range(start_m, len(releases)))
    return HistorySimulation(target, start_m, _fold_loop(
        releases, target, sizes, points, folds, MODEL_INFLUENCE_FACTOR))
