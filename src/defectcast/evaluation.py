"""Model validation: accuracy metrics, cross-validation, baselines,
the exact one-sided Wilcoxon signed-rank test, the factor-count
ablation, and the growing-history simulation.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Mapping, Sequence

from .bundle import ContextBundle
from .calibration import calibrate
from .errors import (
    AllZeroDifferencesError,
    EstimationError,
    InsufficientHistoryError,
    ZeroActualError,
)
from .model import (
    InfluenceFactor,
    ReleaseRecord,
    Target,
    _mean,
    _median,
    _Record,
    defect_content,
    effectiveness,
)
from .prediction import _model_equation
from .sampling import EngineOptions

MODEL_INFLUENCE_FACTOR = "influence_factor"
MODEL_DC_MEDIAN = "dc_median"
MODEL_DD_MEDIAN = "dd_median"
MODEL_EFF_MEDIAN = "eff_median"

DEFAULT_PRED_THRESHOLDS = (0.25,)

# The target each data-only baseline predicts.
_BASELINE_TARGETS = {
    MODEL_DC_MEDIAN: Target.DEFECT_CONTENT,
    MODEL_DD_MEDIAN: Target.DEFECT_CONTENT,
    MODEL_EFF_MEDIAN: Target.EFFECTIVENESS,
}

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

    # bench/spans.py counts history_simulation's folds with len() (ROADMAP 1d).
    def __len__(self) -> int:
        return len(self.cases)

    def mres(self) -> dict[str, float]:
        return {c.release_id: c.mre for c in self.cases}

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


def accuracy_metrics(
    cases: Sequence[tuple[float, float]],
    thresholds: Sequence[float] = DEFAULT_PRED_THRESHOLDS,
    ids: Sequence[str] | None = None,
    model_name: str = "",
) -> AccuracyReport:
    """Relative-error metrics for (predicted, actual) pairs.

    RE = (predicted - actual) / actual, MRE = |RE|, MMRE is the mean
    MRE, and Pred(q) counts MREs at or below q (boundary inclusive,
    with a relative float guard so an MRE of exactly q counts).  ``ids``
    name the cases, one distinct id each.
    """
    if not cases:
        raise ValueError("no cases")
    if ids is None:
        ids = [str(i) for i in range(len(cases))]
    repeated = sorted(rid for rid, n in Counter(ids).items() if n > 1)
    if repeated:
        raise ValueError(f"repeated case ids {repeated}")
    out = []
    for rid, (predicted, actual) in zip(ids, cases, strict=True):
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
    pred = {
        q: sum(m <= q * (1 + 1e-9) + 1e-12 for m in mres) / len(out)
        for q in thresholds
    }
    return AccuracyReport(
        model_name=model_name,
        cases=out,
        mmre=_mean(mres),
        pred=pred,
    )


def _usable(bundle: ContextBundle, target: Target) -> list[ReleaseRecord]:
    """The releases a validation loop predicts and learns from: the included
    ones, and for effectiveness only those with defects (0/0 otherwise)."""
    releases = bundle.included_releases()
    if target == Target.EFFECTIVENESS:
        releases = [r for r in releases if defect_content(r) > 0]
    return releases


def _fold_loop(
    releases: list[ReleaseRecord], target: Target, sizes: list[float],
    points: list[float], folds: Iterable[tuple[int, list[float]]], model_name: str,
) -> AccuracyReport:
    """Accuracy of predicting ``releases[i]`` for each ``(i, window)`` of
    ``folds``, from the median of the base values in ``window``."""
    actual = defect_content if target == Target.DEFECT_CONTENT else effectiveness
    cases, ids = [], []
    for i, window in folds:
        predicted = _model_equation(target, sizes[i], _median(window), points[i])
        cases.append((predicted, actual(releases[i])))
        ids.append(releases[i].id)
    return accuracy_metrics(cases, ids=ids, model_name=model_name)


def _fitted(
    bundle: ContextBundle,
    releases: list[ReleaseRecord],
    target: Target,
    active: list[InfluenceFactor],
    options: EngineOptions,
) -> tuple[list[float], list[float]]:
    """Each release's increase point and base value, in release order.

    A release's point depends only on the active factors, its own levels
    and the options, never on the fold, so one calibration serves every
    fold: the held-out release's point, the other releases' base values.
    """
    dc = target == Target.DEFECT_CONTENT
    ctx = calibrate(
        releases, active if dc else [], [] if dc else active,
        bundle.quantifications, options,
    )
    fits = [ctx.per_release[r.id] for r in releases]
    if dc:
        return [c.ddif_point for c in fits], [c.dd_base for c in fits]
    return [c.eif_point for c in fits], [c.eff_base for c in fits]


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
    """
    if model != MODEL_INFLUENCE_FACTOR and model not in _BASELINE_TARGETS:
        raise ValueError(f"unknown model {model!r}")
    if _BASELINE_TARGETS.get(model, target) != target:
        raise ValueError(f"baseline {model!r} does not predict {target.value}")
    releases = _usable(bundle, target)
    if len(releases) < 2:
        raise InsufficientHistoryError("leave-one-out needs >= 2 usable releases")
    # Resolved for every model, so a bad override fails the same way.
    active = bundle.resolve_active(target, active_ids)
    if model == MODEL_DC_MEDIAN:
        n = len(releases)
        sizes, points = [1.0] * n, [0.0] * n
        bases = [defect_content(r) for r in releases]
    else:
        sizes = [r.size for r in releases]
        if model != MODEL_INFLUENCE_FACTOR:
            active = []
        points, bases = _fitted(bundle, releases, target, active, options)
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
    """
    d = [float(b - a) for a, b in pairs]
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


def ablation_curve(
    bundle: ContextBundle,
    target: Target,
    ranked_ids: Sequence[str],
    ks: Sequence[int],
    options: EngineOptions = EngineOptions(),
) -> dict[int, AccuracyReport]:
    """Cross-validation accuracy using only the top-k ranked factors.

    k = 0 means no factor is active, which reduces exactly to the
    data-only median-density (or median-effectiveness) model.
    """
    out = {}
    for k in ks:
        if not 0 <= k <= len(ranked_ids):
            raise ValueError(f"k={k} outside [0, {len(ranked_ids)}]")
        out[k] = loocv(
            bundle,
            MODEL_INFLUENCE_FACTOR,
            target,
            options,
            active_ids=list(ranked_ids[:k]),
        )
    return out


def history_simulation(
    bundle: ContextBundle,
    start_m: int = 4,
    target: Target = Target.DEFECT_CONTENT,
    options: EngineOptions = EngineOptions(),
    active_ids: Sequence[str] | None = None,
) -> AccuracyReport:
    """Simulate model building with a growing release history.

    Starting from the first ``start_m`` included releases (in
    chronological = input order), each next release is predicted and
    then folded into the history, so case j was predicted from
    ``start_m + j`` releases.  Excluded releases are skipped both as
    history and as prediction targets.
    """
    if start_m < 2:
        raise ValueError("start_m must be >= 2")
    releases = _usable(bundle, target)
    if len(releases) <= start_m:
        raise InsufficientHistoryError(
            f"history simulation needs more than {start_m} usable releases"
        )
    active = bundle.resolve_active(target, active_ids)
    points, bases = _fitted(bundle, releases, target, active, options)
    sizes = [r.size for r in releases]
    folds = ((m, bases[:m]) for m in range(start_m, len(releases)))
    return _fold_loop(releases, target, sizes, points, folds, MODEL_INFLUENCE_FACTOR)
