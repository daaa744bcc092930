"""Every public function that takes a ``target``, a ``levels`` mapping,
``options``, a list or a record reads it by the records' own rules, once,
at entry: a target is a ``Target`` or its value string, levels are
integers in 0..3 keyed by string, options are ``EngineOptions``, a list is
any iterable but a str, bytes or a mapping (its entries read as a record's
fields are), and a record is of its type.  A bad one is a ValueError
before any calibration, fold or draw.
"""

import hashlib
import inspect
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import defectcast
from defectcast import (
    MODEL_DD_MEDIAN,
    MODEL_INFLUENCE_FACTOR,
    ContextBundle,
    EngineOptions,
    NewReleaseSpec,
    Target,
    ablation_curve,
    accuracy_metrics,
    aggregate_rankings,
    analytic_mean_increase,
    calibrate,
    calibration,
    defect_content,
    defect_density,
    descriptive_stats,
    effectiveness,
    empirical_quantile,
    evaluation,
    history_simulation,
    increase_distribution,
    load_bundle,
    loocv,
    model,
    predict_defect_content,
    predict_defects_found,
    predict_effectiveness,
    prediction,
    render_report,
    sampling,
    triangle_inverse_cdf,
    triangle_variance,
    wilcoxon_one_sided,
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


DCF, EFFF, TRIS = BUNDLE.resolve_active(DC), BUNDLE.resolve_active(EFF), BUNDLE.quantifications
PROBS = [0.05, 0.5, 0.95]
PRED_DC = predict_defect_content(CONTEXT, SPEC, DCF, TRIS, OPTIONS, PROBS)
PRED_EFF = predict_effectiveness(CONTEXT, SPEC, EFFF, TRIS, OPTIONS, PROBS)
REPORT = loocv(BUNDLE, MODEL_INFLUENCE_FACTOR, DC, OPTIONS)
CASES = [(c.predicted, c.actual) for c in REPORT.cases]
IDS = [c.release_id for c in REPORT.cases]

# Each public entry point that takes a list or a record, with valid
# arguments: a row of RECORD_CALLS replaces one of them.
ENTRY_POINTS = {
    calibrate: dict(releases=BUNDLE.releases, dc_factors=DCF, eff_factors=EFFF,
                    triangles=TRIS, options=OPTIONS),
    descriptive_stats: dict(releases=BUNDLE.releases),
    increase_distribution: dict(factors=DCF, triangles=TRIS, levels=LEVELS, target=DC,
                                options=OPTIONS),
    analytic_mean_increase: dict(factors=DCF, triangles=TRIS, levels=LEVELS, target=DC),
    predict_defect_content: dict(ctx=CONTEXT, spec=SPEC, dc_factors=DCF, triangles=TRIS,
                                 options=OPTIONS, probs=PROBS),
    predict_effectiveness: dict(ctx=CONTEXT, spec=SPEC, eff_factors=EFFF, triangles=TRIS,
                                options=OPTIONS, probs=PROBS),
    predict_defects_found: dict(dc=PRED_DC, eff=PRED_EFF),
    aggregate_rankings: dict(rankings=BUNDLE.rankings, target=EFF),
    accuracy_metrics: dict(cases=CASES, ids=IDS),
    wilcoxon_one_sided: dict(pairs=REPORT.mre_pairs(
        loocv(BUNDLE, MODEL_DD_MEDIAN, DC, OPTIONS))),
    loocv: dict(bundle=BUNDLE, model=MODEL_INFLUENCE_FACTOR, target=DC, options=OPTIONS,
                active_ids=_ranked(DC)[:3]),
    ablation_curve: dict(bundle=BUNDLE, target=DC, ranked_ids=_ranked(DC), ks=[0, 1, 2],
                         options=OPTIONS),
    history_simulation: dict(bundle=BUNDLE, start_m=4, target=DC, options=OPTIONS,
                             active_ids=_ranked(DC)[:3]),
    render_report: dict(report=REPORT),
    BUNDLE.resolve_active: dict(target=DC, override_ids=_ranked(DC)[:2]),
    BUNDLE.with_excluded: dict(ids=["A", "C"]),
    defect_content: dict(release=BUNDLE.releases[0]),
    defect_density: dict(release=BUNDLE.releases[0]),
    effectiveness: dict(release=BUNDLE.releases[0]),
    triangle_inverse_cdf: dict(tri=TRIS[0], u=0.3),
    triangle_variance: dict(tri=TRIS[0]),
    empirical_quantile: dict(sorted_samples=sorted(PRED_DC.quantiles.values()), p=0.5),
}

# Parameters annotated as a record type (options have their own table above)
# or as a Sequence.
RECORD_TYPES = {name for name, kind in model._KINDS.items()
                if isinstance(kind, type) and issubclass(kind, model._Record)
                and kind is not EngineOptions} | {"_Record"}


def _reads_a_list_or_record(param: inspect.Parameter) -> bool:
    annotation = param.annotation
    return isinstance(annotation, str) and (
        annotation.startswith("Sequence[") or annotation in RECORD_TYPES)


# One row per list or record argument: (entry point, argument, parameter).
RECORD_CALLS = {
    f"{fn.__qualname__}:{name}": (fn, name, param)
    for fn in ENTRY_POINTS
    for name, param in inspect.signature(fn).parameters.items()
    if _reads_a_list_or_record(param)
}


def _digest(result) -> str:
    """sha256 of a result's bytes: a report rendered, an array's buffer, a
    float by .hex(), else a repr."""
    if isinstance(result, model._Record) and hasattr(result, "to_payload"):
        data = render_report(result)
    elif isinstance(result, np.ndarray):
        data = result.tobytes()
    elif isinstance(result, float):
        data = result.hex()
    else:
        data = repr(result)
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def _call(row: str, value):
    fn, name, _ = RECORD_CALLS[row]
    return fn(**{**ENTRY_POINTS[fn], name: value})


# The words an error about each argument names it by: the ids lists by
# what they hold, and a list read entry by entry by the entry's own rule
# (``p must be ...``, ``case 'A' ...``) where its entry is the bad part.
_NAMED_AS = {"active_ids": "factor ids", "override_ids": "factor ids",
             "ranked_ids": "factor ids", "ids": "(case|release) ids",
             "probs": "probs|p", "ks": "ks|k", "cases": "cases|case", "pairs": "pairs|pair"}


class Each:
    """A list of the valid argument's length holding ``entry`` in every place."""

    def __init__(self, entry):
        self.entry = entry

    def __repr__(self):
        return f"Each({self.entry!r})"


BAD_LISTS_AND_RECORDS = st.one_of(
    st.none(), st.integers(), st.text(max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    st.binary(max_size=3),
    st.builds(Each, st.text(max_size=3) | st.dictionaries(st.text(max_size=3),
                                                          st.integers(), max_size=2)),
)


@settings(max_examples=80, deadline=None)
@given(row=st.sampled_from(sorted(RECORD_CALLS)), value=BAD_LISTS_AND_RECORDS)
@example(row="calibrate:releases", value=None)
@example(row="increase_distribution:factors", value="D1")
@example(row="loocv:bundle", value=None)
@example(row="predict_defect_content:spec", value={"size": 1, "levels": {}})
@example(row="render_report:report", value=[1, 2])
@example(row="ContextBundle.with_excluded:ids", value=None)
@example(row="empirical_quantile:sorted_samples", value="abc")
@example(row="predict_effectiveness:probs", value=Each("0.5"))
@example(row="ablation_curve:ks", value=Each({}))
@example(row="accuracy_metrics:cases", value=Each("ab"))
def test_a_list_or_record_of_another_kind_is_refused_before_any_work(row, value):
    # The first six examples used to end in a bare TypeError or
    # AttributeError, and the string samples in "could not convert string
    # to float: 'b'"; the last three keep the entry rules of probs, ks and
    # cases.
    fn, name, param = RECORD_CALLS[row]
    valid = ENTRY_POINTS[fn][name]
    if isinstance(value, Each):
        many = isinstance(valid, (list, tuple))
        value = [value.entry] * (len(valid) if many else 1)
        # A list of strings is a list of ids.
        assume(not (param.annotation.startswith("Sequence[str]")
                    and isinstance(value[0], str)))
    assume(not (value is None and param.default is None))  # None: the default ids
    with pytest.MonkeyPatch.context() as mp:
        calls = _counted(mp)
        with pytest.raises(ValueError) as exc:
            _call(row, value)
    assert re.search(rf"(?<!\w)({_NAMED_AS.get(name, name)})(?!\w)", str(exc.value)), \
        str(exc.value)
    assert calls == []


# sha256 of each entry point's result on ENTRY_POINTS' arguments, recorded
# before the list reads: every list argument read at entry keeps them.
PARENT_DIGESTS = {
    "calibrate": "6f6769a850a824788f255ac84558473cfc9225ba7d91fd6e21ee1ca198d355e7",
    "descriptive_stats": "3371dc920c521e782584194321fdef47204dfa71ffbdcc8604fce73c5912104f",
    "increase_distribution": "89c44431b13dab93872dbabab8ddf6c67de93843a14a540bfbdbabe02d4c9d73",
    "analytic_mean_increase": "c73f566b3122c73616124a82f70cfc76761d772f269141a75997ff9adb8b32ad",
    "predict_defect_content": "6f920019c95e88c8059c121430b0aad867bb5d552c3c9a48fda803dc8cd484b1",
    "predict_effectiveness": "02be75aa40cbcf82d10a32264cfdb494e76886dfc69d92a920f210a213ad67a0",
    "predict_defects_found": "e1ec806b4678a96611747e6d37c03b4da590ff9d020314c9142c373c49e30353",
    "aggregate_rankings": "8500110420ead5b12f1830b30fb2a50b0f97671ec206f724ec71cd24f771e528",
    "accuracy_metrics": "f5d65f8f16b6eafa29aaa758b7448c336015ef0a9aec97402b8606d355092ca8",
    "wilcoxon_one_sided": "2e96ce70f6519870d491638ec4a041d7ccfdb7152c939234be5d6b33e0aaabec",
    "loocv": "e89c42098d57b63975605c3e8f78561bffda9ce2a27747d9ec92f4d6fd758159",
    "ablation_curve": "9d6c15487ce6cb1de1e2a2cd9b1587bb4f9e62b43bf81b0919814ddf276c0615",
    "history_simulation": "fa57735889e37a56c10e19c1e3ff38da4f1ad0279e5f0269aa7f81b8030725f9",
    "render_report": "ef19791d4d2def2532a33d59d890179aec02c552f47ad7d0b8f878d798fec2e0",
    "ContextBundle.resolve_active": "6e8738ecc6b09c90af8c813c5b99e678a6d96794c80887c3cf57b03de536f47b",
    "ContextBundle.with_excluded": "6a6f280fa37cc0575f1fd2333c1fdf00f8e709953e77e5e082953d018d736f67",
    "defect_content": "30ac97d09471a8276496396711e246e821379bafea1033d6354bcdfb533c8d88",
    "defect_density": "8a79b72f59da3ff519bdad54681ff94cb291badd6e81ac3a28365820355e825a",
    "effectiveness": "b98a652e24d4220caadeaf3609ff7e3c9fc69ff08ffc2841cdf6358dce8e496e",
    "triangle_inverse_cdf": "99a6241c8154d451f2dbcdb134d04eece708c4678d87a22ce31d29549e198dc9",
    "triangle_variance": "c95d0cda603864d273e4b476dbd15b821d1d18d1133a5edce00ad1a4328213c6",
    "empirical_quantile": "4b92e597818c3a4701a72c510ee421a6fb3944c6d85276a2aed8052a6c08a0b7",
}

# Every list argument but the samples, which are read in place: an
# iterator has no length to read them by.
LIST_ROWS = sorted(row for row, (fn, name, _) in RECORD_CALLS.items()
                   if isinstance(ENTRY_POINTS[fn][name], (list, tuple))
                   and name != "sorted_samples")


@pytest.mark.parametrize("wrap", [list, tuple, iter], ids=["list", "tuple", "iterator"])
@pytest.mark.parametrize("row", LIST_ROWS)
def test_lists_tuples_and_iterators_keep_the_results(row, wrap):
    fn, name, _ = RECORD_CALLS[row]
    assert _digest(_call(row, wrap(ENTRY_POINTS[fn][name]))) == \
        PARENT_DIGESTS[fn.__qualname__]


def test_every_entry_point_with_a_list_or_record_is_in_the_table():
    reads = {f"{name}:{p}" for name, sig in _public_callables()
             for p, param in sig.parameters.items() if _reads_a_list_or_record(param)}
    assert reads == set(RECORD_CALLS)
