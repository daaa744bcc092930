"""Every public function that takes a ``target``, a ``levels`` mapping or
``options`` reads it by the records' own field rules, once, at entry: a
target is a ``Target`` or its value string, levels are integers in 0..3
keyed by string, options are ``EngineOptions``.  A bad one is a
ValueError before any calibration, fold or draw.
"""

import inspect

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import defectcast
from defectcast import (
    MODEL_INFLUENCE_FACTOR,
    ContextBundle,
    EngineOptions,
    NewReleaseSpec,
    Target,
    ablation_curve,
    aggregate_rankings,
    analytic_mean_increase,
    calibrate,
    calibration,
    evaluation,
    history_simulation,
    increase_distribution,
    load_bundle,
    loocv,
    predict_defect_content,
    predict_effectiveness,
    prediction,
    render_report,
    sampling,
)

from conftest import EXAMPLE_BUNDLE

BUNDLE = load_bundle(EXAMPLE_BUNDLE)
OPTIONS = EngineOptions(n_samples=2000, seed=7, point="mc-median")
LEVELS = BUNDLE.releases[0].levels


def _ranked(member):
    return [rf.factor_id for rf in aggregate_rankings(BUNDLE.rankings, member)]


# Each entry point that reads a target, called with ``target`` as its target
# argument.  ``member`` is the Target that ``target`` stands for, or any
# member where ``target`` is bad; it picks the other arguments.  Each returns
# bytes: a report rendered, an array's buffer, a float by .hex(), else a repr.
TARGET_CALLS = {
    "ContextBundle.factors_for": lambda member, target: repr(
        BUNDLE.factors_for(target)),
    "ContextBundle.resolve_active": lambda member, target: repr(
        [BUNDLE.resolve_active(target), BUNDLE.resolve_active(target, _ranked(member)[:2])]),
    "aggregate_rankings": lambda member, target: repr(
        aggregate_rankings(BUNDLE.rankings, target)),
    "increase_distribution": lambda member, target: increase_distribution(
        BUNDLE.resolve_active(member), BUNDLE.quantifications, LEVELS, target,
        OPTIONS).tobytes(),
    "analytic_mean_increase": lambda member, target: analytic_mean_increase(
        BUNDLE.resolve_active(member), BUNDLE.quantifications, LEVELS,
        target).hex(),
    "loocv": lambda member, target: render_report(
        loocv(BUNDLE, MODEL_INFLUENCE_FACTOR, target, OPTIONS)),
    "ablation_curve": lambda member, target: render_report(
        ablation_curve(BUNDLE, target, _ranked(member), [0, 1, 2], OPTIONS)),
    "history_simulation": lambda member, target: render_report(
        history_simulation(BUNDLE, 4, target, OPTIONS)),
}

# Each entry point that reads levels, called with ``levels`` for ``member``.
LEVEL_CALLS = {
    "increase_distribution": lambda member, levels: increase_distribution(
        BUNDLE.resolve_active(member), BUNDLE.quantifications, levels, member,
        OPTIONS).tobytes(),
    "analytic_mean_increase": lambda member, levels: analytic_mean_increase(
        BUNDLE.resolve_active(member), BUNDLE.quantifications, levels,
        member).hex(),
}

DC, EFF = Target.DEFECT_CONTENT, Target.EFFECTIVENESS
CONTEXT = calibrate(BUNDLE.releases, BUNDLE.resolve_active(DC), BUNDLE.resolve_active(EFF),
                    BUNDLE.quantifications, OPTIONS)
SPEC = NewReleaseSpec(130, LEVELS)

# Each entry point that reads options, called with ``options``.
OPTIONS_CALLS = {
    "calibrate": lambda options: render_report(calibrate(
        BUNDLE.releases, BUNDLE.resolve_active(DC), BUNDLE.resolve_active(EFF),
        BUNDLE.quantifications, options)),
    "increase_distribution": lambda options: increase_distribution(
        BUNDLE.resolve_active(DC), BUNDLE.quantifications, LEVELS, DC, options).tobytes(),
    "predict_defect_content": lambda options: render_report(predict_defect_content(
        CONTEXT, SPEC, BUNDLE.resolve_active(DC), BUNDLE.quantifications, options)),
    "predict_effectiveness": lambda options: render_report(predict_effectiveness(
        CONTEXT, SPEC, BUNDLE.resolve_active(EFF), BUNDLE.quantifications, options)),
    "loocv": lambda options: render_report(
        loocv(BUNDLE, MODEL_INFLUENCE_FACTOR, DC, options)),
    "ablation_curve": lambda options: render_report(
        ablation_curve(BUNDLE, DC, _ranked(DC), [0, 1, 2], options)),
    "history_simulation": lambda options: render_report(
        history_simulation(BUNDLE, 4, DC, options)),
}

# The work a bad argument must never reach, by (module, name).
WORK = [(evaluation, "_usable"), (evaluation, "_columns"), (evaluation, "loocv"),
        (evaluation, "_fold_loop"), (calibration, "_columns"), (prediction, "_predict"),
        (sampling, "increase_distribution"), (sampling, "analytic_mean_increase"),
        (sampling, "_terms"), (sampling, "_add_mixture")]


def _counted(mp: pytest.MonkeyPatch) -> list:
    """Patch every function of WORK to log its name; returns the log."""
    calls = []
    for module, name in WORK:
        fn = getattr(module, name)
        mp.setattr(module, name,
                   lambda *a, _fn=fn, _name=name, **k: calls.append(_name) or _fn(*a, **k))
    return calls


BAD_TARGETS = st.one_of(
    st.text().filter(lambda s: s not in {t.value for t in Target}),
    st.sampled_from([t.name for t in Target]),
    st.none(), st.integers(), st.booleans(), st.floats(), st.binary(),
    st.lists(st.text(), max_size=2),
)

BAD_LEVELS = st.one_of(
    st.integers().filter(lambda v: not 0 <= v <= 3),
    st.floats(), st.booleans(), st.text(), st.none(),
)


@pytest.mark.parametrize("member", list(Target), ids=[t.value for t in Target])
@pytest.mark.parametrize("call", list(TARGET_CALLS))
def test_value_string_reads_as_its_member(call, member):
    # ablation_curve and increase_distribution used to end in an
    # AttributeError on a value string.
    run = TARGET_CALLS[call]
    assert run(member, member.value) == run(member, member)


@settings(max_examples=40, deadline=None)
@given(call=st.sampled_from(list(TARGET_CALLS)), member=st.sampled_from(list(Target)),
       target=BAD_TARGETS)
@example(call="loocv", member=Target.DEFECT_CONTENT, target="bogus")
@example(call="loocv", member=Target.DEFECT_CONTENT, target=None)
@example(call="loocv", member=Target.DEFECT_CONTENT, target=0)
@example(call="history_simulation", member=Target.DEFECT_CONTENT, target=True)
@example(call="ContextBundle.factors_for", member=Target.DEFECT_CONTENT, target="bogus")
def test_any_other_target_is_refused_before_any_work(call, member, target):
    # loocv used to give eff-median's MMRE 0.031097 for "bogus", None and 0,
    # and factors_for, resolve_active and aggregate_rankings returned [].
    with pytest.MonkeyPatch.context() as mp:
        calls = _counted(mp)
        with pytest.raises(ValueError, match="^target must be 'defect_content' or "
                                             "'effectiveness', got "):
            TARGET_CALLS[call](member, target)
    assert calls == []


@settings(max_examples=40, deadline=None)
@given(call=st.sampled_from(list(LEVEL_CALLS)), member=st.sampled_from(list(Target)),
       fid=st.sampled_from(sorted(LEVELS)), value=BAD_LEVELS)
@example(call="increase_distribution", member=Target.DEFECT_CONTENT, fid="D1", value=7)
@example(call="increase_distribution", member=Target.DEFECT_CONTENT, fid="D1", value=-1)
@example(call="increase_distribution", member=Target.DEFECT_CONTENT, fid="D1", value=2.5)
@example(call="increase_distribution", member=Target.DEFECT_CONTENT, fid="D1", value=2.0)
@example(call="analytic_mean_increase", member=Target.DEFECT_CONTENT, fid="D1", value=True)
@example(call="analytic_mean_increase", member=Target.DEFECT_CONTENT, fid="D1", value="2")
@example(call="analytic_mean_increase", member=Target.DEFECT_CONTENT, fid="D1", value=None)
def test_a_level_off_the_scale_is_refused_before_any_draw(call, member, fid, value):
    # 7, -1, 2.5 and True used to draw with weights 7/3, -1/3, 2.5/3 and
    # 1/3; "2" and None ended in a TypeError.
    with pytest.MonkeyPatch.context() as mp:
        calls = _counted(mp)
        with pytest.raises(ValueError) as exc:
            LEVEL_CALLS[call](member, {**LEVELS, fid: value})
    assert repr(fid) in str(exc.value)
    assert calls == []


BAD_OPTIONS = st.one_of(
    st.none(), st.integers(), st.text(), st.booleans(),
    st.fixed_dictionaries({"n_samples": st.integers(1, 100)}),
    st.just((2000, 7, "mc-median")), st.just(SPEC),
)


@settings(max_examples=40, deadline=None)
@given(call=st.sampled_from(list(OPTIONS_CALLS)), options=BAD_OPTIONS)
@example(call="calibrate", options=None)
@example(call="loocv", options=None)
@example(call="loocv", options={"n_samples": 100})
@example(call="increase_distribution", options=None)
@example(call="ablation_curve", options=None)
def test_options_that_are_no_engine_options_are_refused_before_any_work(call, options):
    # loocv used to end in an AttributeError on 'point', increase_distribution
    # on 'n_samples', and calibrate returned a context.
    with pytest.MonkeyPatch.context() as mp:
        calls = _counted(mp)
        with pytest.raises(ValueError, match="^options must be EngineOptions, got "):
            OPTIONS_CALLS[call](options)
    assert calls == []


def _reference_draw(factors, triangles, levels, target, options):
    """``increase_distribution``'s draw on ``levels`` as given, unread."""
    samples = np.zeros(options.n_samples)
    for fid, weight, tris in sampling._terms(factors, triangles, levels, target):
        if weight:
            rng = sampling._factor_rng(options.seed, target, fid)
            sampling._add_mixture(samples, tris, weight, rng)
    return samples


def _reference_mean(factors, triangles, levels, target):
    """``analytic_mean_increase``'s sum on ``levels`` as given, unread."""
    total = 0.0
    for _, weight, tris in sampling._terms(factors, triangles, levels, target):
        total += weight * (sum(t.mean for t in tris) / len(tris))
    return total


@settings(max_examples=25, deadline=None)
@given(member=st.sampled_from(list(Target)),
       levels=st.fixed_dictionaries({fid: st.integers(0, 3) for fid in LEVELS}),
       seed=st.integers(0, 2**32))
def test_integer_levels_keep_their_draw(member, levels, seed):
    factors, tris = BUNDLE.resolve_active(member), BUNDLE.quantifications
    options = EngineOptions(n_samples=3000, seed=seed)
    got = increase_distribution(factors, tris, levels, member, options)
    assert got.tobytes() == _reference_draw(factors, tris, levels, member, options).tobytes()
    mean = analytic_mean_increase(factors, tris, levels, member)
    assert mean.hex() == _reference_mean(factors, tris, levels, member).hex()


def _public_callables():
    """(qualified name, signature) of defectcast's public callables and of
    ContextBundle's public methods."""
    found = [getattr(owner, name) for owner in (defectcast, ContextBundle)
             for name in dir(owner) if not name.startswith("_")]
    for fn in found:
        if not callable(fn):
            continue
        try:
            yield fn.__qualname__, inspect.signature(fn)
        except (TypeError, ValueError):  # an exception class has none
            continue


def test_every_entry_point_with_a_target_or_levels_is_in_the_table():
    # A new entry point that takes either one must join a table above, so
    # the properties check that it reads it.
    takes = {name: set(sig.parameters) for name, sig in _public_callables()}
    assert {n for n, params in takes.items() if "target" in params} == set(TARGET_CALLS)
    assert {n for n, params in takes.items() if "levels" in params} == set(LEVEL_CALLS)


def test_every_entry_point_with_options_is_in_the_table():
    takes = {name: set(sig.parameters) for name, sig in _public_callables()}
    assert {n for n, params in takes.items() if "options" in params} == set(OPTIONS_CALLS)
