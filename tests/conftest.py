import contextlib
from pathlib import Path

import pytest

from defectcast import (
    ContextBundle,
    ExpertTriangle,
    InfluenceFactor,
    ReleaseRecord,
    Target,
    accuracy_metrics,
    load_bundle,
    sampling,
)

from synth import make_synthetic_bundle

EXAMPLE_BUNDLE = Path(__file__).parent.parent / "demos" / "data" / "example_bundle.json"

GENERIC_LEVELS = ("best", "mild", "clear", "worst")


def make_release(rid="R", size=100, found=40, slipped=10, levels=None, **kw):
    return ReleaseRecord(
        id=rid,
        size=size,
        defects_found=found,
        defects_slipped=slipped,
        levels=levels or {},
        **kw,
    )


def make_factor(fid="D1", target=Target.DEFECT_CONTENT):
    return InfluenceFactor(
        id=fid, name=f"factor {fid}", target=target, levels=GENERIC_LEVELS
    )


def make_triangle(fid="D1", a=0.10, m=0.15, b=0.25,
                  target=Target.DEFECT_CONTENT, expert="X1"):
    return ExpertTriangle(
        expert=expert, factor_id=fid, target=target,
        min=a, most_likely=m, max=b,
    )


def summarize_mres(mres, ids=None, model_name=""):
    """Accuracy report from already-computed MRE values.

    Routes through accuracy_metrics with actual = 1, so an MRE of m is
    represented exactly by the pair (1 + m, 1)."""
    return accuracy_metrics([(1.0 + m, 1.0) for m in mres], ids, model_name)


def make_dominant_factor_bundle(seed=0, n_releases=10):
    """One strongly influential defect-content factor, the rest inert."""
    return make_synthetic_bundle(
        seed=seed,
        n_releases=n_releases,
        dc_impacts=((0.40, 0.60, 0.90), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
    )


def unchecked_bundle(**fields):
    """A ContextBundle that skipped the bundle rules, which no bundle built
    through the class can: to show what a later step makes of one."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ContextBundle, "__post_init__", lambda self: None)
        return ContextBundle(**fields)


@contextlib.contextmanager
def cut_into(workers):
    """Cut each draw into up to ``workers`` ranges."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampling, "_cpus", lambda: workers)
        yield


def triangle_cdf(a, m, b, x):
    """Direct CDF of the triangular distribution, independent oracle."""
    if x <= a:
        return 0.0
    if x >= b:
        return 1.0
    if x < m:
        return (x - a) ** 2 / ((b - a) * (m - a))
    return 1.0 - (b - x) ** 2 / ((b - a) * (b - m))


@pytest.fixture
def example_bundle():
    return load_bundle(EXAMPLE_BUNDLE)


@pytest.fixture
def example_bundle_path():
    return EXAMPLE_BUNDLE
