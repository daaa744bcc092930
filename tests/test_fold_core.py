"""The validation loops against their per-fold reference and pinned digests.

``loocv``, ``ablation_curve`` and ``history_simulation`` calibrate once
and reuse each release's increase point in every fold.  The reference
below is the per-fold path they replaced: recalibrate on the fold's
history, then predict the held-out release in full.  The data-only
baselines have their own per-fold reference: the medians of the fold's
history that ``loocv`` used to take for them.
"""

import hashlib
import json
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defectcast import (
    MODEL_DC_MEDIAN,
    MODEL_DD_MEDIAN,
    MODEL_EFF_MEDIAN,
    MODEL_INFLUENCE_FACTOR,
    EngineOptions,
    InsufficientHistoryError,
    NewReleaseSpec,
    NoUsableHistoryError,
    Target,
    ZeroActualError,
    ablation_curve,
    accuracy_metrics,
    aggregate_rankings,
    calibrate,
    defect_content,
    defect_density,
    effectiveness,
    history_simulation,
    loocv,
    predict_defect_content,
    predict_effectiveness,
    render_report,
)
from defectcast import sampling
from defectcast.report import _round6

from synth import make_synthetic_bundle


def _actual(release, target):
    if target == Target.DEFECT_CONTENT:
        return defect_content(release)
    return effectiveness(release)


def _usable(bundle, target):
    releases = bundle.included_releases()
    if target == Target.EFFECTIVENESS:
        releases = [r for r in releases if defect_content(r) > 0]
    return releases


def reference_point(bundle, history, release, target, active, options):
    spec = NewReleaseSpec(size=release.size, levels=release.levels)
    if target == Target.DEFECT_CONTENT:
        ctx = calibrate(history, active, [], bundle.quantifications, options)
        return predict_defect_content(
            ctx, spec, active, bundle.quantifications, options
        ).point
    ctx = calibrate(history, [], active, bundle.quantifications, options)
    return predict_effectiveness(
        ctx, spec, active, bundle.quantifications, options
    ).point


def reference_loocv(bundle, target, options, active_ids):
    releases = _usable(bundle, target)
    if len(releases) < 2:
        raise InsufficientHistoryError("leave-one-out needs >= 2 usable releases")
    active = bundle.resolve_active(target, active_ids)
    cases, ids = [], []
    for release in releases:
        rest = [r for r in releases if r.id != release.id]
        predicted = reference_point(bundle, rest, release, target, active, options)
        cases.append((predicted, _actual(release, target)))
        ids.append(release.id)
    return accuracy_metrics(cases, ids=ids, model_name=MODEL_INFLUENCE_FACTOR)


# The target each data-only baseline predicts.
BASELINES = {
    MODEL_DC_MEDIAN: Target.DEFECT_CONTENT,
    MODEL_DD_MEDIAN: Target.DEFECT_CONTENT,
    MODEL_EFF_MEDIAN: Target.EFFECTIVENESS,
}


def reference_baseline(history, kind, new_size):
    """Purely data-based prediction from the fold's historical medians."""
    if not history:
        raise NoUsableHistoryError("empty history")
    if kind == MODEL_DC_MEDIAN:
        return float(statistics.median([defect_content(r) for r in history]))
    if kind == MODEL_DD_MEDIAN:
        if new_size is None or new_size <= 0:
            raise ValueError("dd_median needs a positive new_size")
        median_dd = statistics.median([defect_density(r) for r in history])
        return float(median_dd) * new_size
    values = [effectiveness(r) for r in history if defect_content(r) > 0]
    if not values:
        raise NoUsableHistoryError("no release with defined effectiveness")
    return float(statistics.median(values))


def reference_baseline_loocv(bundle, model, target, active_ids):
    if BASELINES[model] != target:
        raise ValueError(f"baseline {model!r} does not predict {target.value}")
    releases = _usable(bundle, target)
    if len(releases) < 2:
        raise InsufficientHistoryError("leave-one-out needs >= 2 usable releases")
    bundle.resolve_active(target, active_ids)
    cases, ids = [], []
    for release in releases:
        rest = [r for r in releases if r.id != release.id]
        predicted = reference_baseline(rest, model, release.size)
        cases.append((predicted, _actual(release, target)))
        ids.append(release.id)
    return accuracy_metrics(cases, ids=ids, model_name=model)


def reference_history(bundle, start_m, target, options, active_ids):
    releases = _usable(bundle, target)
    if len(releases) <= start_m:
        raise InsufficientHistoryError("too short")
    active = bundle.resolve_active(target, active_ids)
    cases, ids = [], []
    for m in range(start_m, len(releases)):
        nxt = releases[m]
        predicted = reference_point(
            bundle, releases[:m], nxt, target, active, options
        )
        actual = _actual(nxt, target)
        if actual == 0:
            raise ZeroActualError(f"release {nxt.id!r} has actual value 0")
        cases.append((predicted, actual))
        ids.append(nxt.id)
    return accuracy_metrics(cases, ids=ids, model_name=MODEL_INFLUENCE_FACTOR)


def outcome(fn, *args):
    """The result of ``fn``, or the type of the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # compared by type only
        return type(exc)


@st.composite
def variants(draw):
    n = draw(st.integers(2, 8))
    bundle = make_synthetic_bundle(
        seed=draw(st.integers(0, 2**16)), n_releases=n,
        constant=draw(st.booleans()),
    )
    ids = [r.id for r in bundle.releases]
    defect_free = draw(st.sets(st.sampled_from(ids), max_size=2))
    bundle = bundle._replace(releases=tuple(
        r._replace(defects_found=0.0, defects_slipped=0.0)
        if r.id in defect_free else r
        for r in bundle.releases
    ))
    bundle = bundle.with_excluded(draw(st.sets(st.sampled_from(ids), max_size=2)))
    target = draw(st.sampled_from(list(Target)))
    factor_ids = [f.id for f in bundle.factors_for(target)]
    active_ids = draw(
        st.none() | st.lists(st.sampled_from(factor_ids), unique=True)
    )
    options = draw(
        st.builds(EngineOptions, point=st.just("analytic-mean"))
        | st.builds(
            EngineOptions, n_samples=st.integers(1, 64),
            seed=st.integers(0, 2**16), point=st.just("mc-median"),
        )
    )
    return bundle, target, options, active_ids


class TestAgainstPerFoldReference:
    @settings(max_examples=120, deadline=None)
    @given(case=variants())
    def test_loocv(self, case):
        bundle, target, options, active_ids = case
        fast = outcome(
            loocv, bundle, MODEL_INFLUENCE_FACTOR, target, options, active_ids
        )
        assert fast == outcome(reference_loocv, bundle, target, options, active_ids)

    @settings(max_examples=300, deadline=None)
    @given(case=variants())
    def test_baselines(self, case):
        bundle, target, options, active_ids = case
        for model in BASELINES:
            fast = outcome(loocv, bundle, model, target, options, active_ids)
            ref = outcome(reference_baseline_loocv, bundle, model, target, active_ids)
            assert fast == ref

    @settings(max_examples=120, deadline=None)
    @given(case=variants(), start_m=st.integers(2, 6))
    def test_history_simulation(self, case, start_m):
        bundle, target, options, active_ids = case
        fast = outcome(
            lambda *a: history_simulation(*a).accuracy,
            bundle, start_m, target, options, active_ids
        )
        ref = outcome(reference_history, bundle, start_m, target, options, active_ids)
        assert fast == ref


class TestAnalyticMeanDrawsNothing:
    def test_validation_loops(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("analytic-mean validation drew samples")

        monkeypatch.setattr(sampling, "_add_mixture", no_draw)
        bundle = make_synthetic_bundle(seed=1, n_releases=12)
        for target in Target:
            loocv(bundle, MODEL_INFLUENCE_FACTOR, target)
            history_simulation(bundle, 4, target)
        ablation_curve(bundle, Target.DEFECT_CONTENT, ["D1", "D2", "D3"], [0, 1, 3])


def synthetic_200():
    return make_synthetic_bundle(seed=0, n_releases=200).with_excluded(["R07", "R123"])


def rendered(kind, target, options):
    """``kind`` is "ablation", "history", "loocv" (the influence-factor
    model) or the name of a data-only baseline run through ``loocv``."""
    bundle = synthetic_200()
    if kind == "ablation":
        ranked = aggregate_rankings(list(bundle.rankings), target)
        order = [rf.factor_id for rf in ranked]
        curve = ablation_curve(bundle, target, order, [0, 1, 2, 3], options)
        return "".join(render_report(curve.reports[k]) for k in sorted(curve.reports))
    if kind == "history":
        # The dict the digests were recorded from: one step per case, the
        # j-th predicted from 4 + j releases.  render_report takes only a
        # report record, so the dict is rendered here as it rendered it.
        history = history_simulation(bundle, 4, target, options)
        return json.dumps(_round6({"steps": [
            {
                "history_size": 4 + j,
                "predicted_release_id": c.release_id,
                "predicted": c.predicted,
                "actual": c.actual,
                "mre": c.mre,
            }
            for j, c in enumerate(history.accuracy.cases)
        ]}), indent=2, sort_keys=True) + "\n"
    model = MODEL_INFLUENCE_FACTOR if kind == "loocv" else kind
    return render_report(loocv(bundle, model, target, options))


class TestSyntheticGoldens:
    """sha256 of the rendered reports on 200 synthetic releases (two of
    them excluded), recorded with the per-fold path that recalibrated
    and re-predicted every fold."""

    DC, EFF = Target.DEFECT_CONTENT, Target.EFFECTIVENESS
    GOLDEN = {
        ("loocv", DC, "analytic-mean"):
            "25d7fc592fdaeb680ee6735227628ef362dc960fa34f41bdc23c3d05ff573752",
        ("loocv", EFF, "analytic-mean"):
            "3950190c5fa5998c0ff113842d16327a402185fb5e1903692c348e1a8bac828b",
        ("ablation", DC, "analytic-mean"):
            "21c16e14bddd26365a1e5f79645783b9f38ee5ccaff070cfe77500a2c6c932c4",
        ("history", DC, "analytic-mean"):
            "0f59eb94ec4afbf18ce4232a6cb456540a7497046f48a2f35cea3ff2f0d3f463",
        ("history", EFF, "analytic-mean"):
            "44b03d92bf48f09799fea2e58cf8e1d178af76a20b549f722e0b2978bb91a595",
        ("loocv", DC, "mc-median"):
            "ca9c3cff56e7a889df1dce789007972d116bf6dc955e172ceac82e5d502ebcd3",
        ("loocv", EFF, "mc-median"):
            "ece0d98778fb2982f26096d4152f281cc7639e4962699a316b0ca515d170a820",
        ("ablation", DC, "mc-median"):
            "8f0be98633ee1a0fed7f35cae3b2e03e6dbd48c97174126b6f96ff9d8614c8d3",
        ("history", DC, "mc-median"):
            "b3f2213263d1c17e4f73e4477001ceced898885ba03ff1a895937ae5713d5c92",
        ("history", EFF, "mc-median"):
            "563c5e60dc6d334e351035aebe286e7684e5bbf321b8f89ad73dd88bb6d3f437",
        # The data-only baselines, recorded with their per-fold path; they
        # draw nothing, so both point strategies give the same report.
        (MODEL_DC_MEDIAN, DC, "analytic-mean"):
            "bb1aa9c7799a10ed86e3f03aadc97a3564e090a72bdf0c45eb1da0eadaa4fb99",
        (MODEL_DC_MEDIAN, DC, "mc-median"):
            "bb1aa9c7799a10ed86e3f03aadc97a3564e090a72bdf0c45eb1da0eadaa4fb99",
        (MODEL_DD_MEDIAN, DC, "analytic-mean"):
            "8f1e7ffb9e6f130569a8e30206b88a37cdbd8d01334fb1f581b64b95698a3ad6",
        (MODEL_DD_MEDIAN, DC, "mc-median"):
            "8f1e7ffb9e6f130569a8e30206b88a37cdbd8d01334fb1f581b64b95698a3ad6",
        (MODEL_EFF_MEDIAN, EFF, "analytic-mean"):
            "6e9c760422d48604df69dd6b3ed52a3b66816248905048b9b72d74431a55be76",
        (MODEL_EFF_MEDIAN, EFF, "mc-median"):
            "6e9c760422d48604df69dd6b3ed52a3b66816248905048b9b72d74431a55be76",
    }

    @pytest.mark.parametrize(
        "case", list(GOLDEN), ids=lambda c: f"{c[0]}-{c[1].value}-{c[2]}"
    )
    def test_digest(self, case):
        kind, target, point = case
        text = rendered(kind, target, EngineOptions(point=point))
        assert hashlib.sha256(text.encode()).hexdigest() == self.GOLDEN[case]
