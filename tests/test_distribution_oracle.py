"""The Monte Carlo engine against a bracket of its exact distribution.

An increase factor is S = sum over factors of w_f * X_f, with w_f = level / 3
and X_f an equal-weight mixture of the experts' triangles.  Cut
[0, sum of w_f * max] into bins of width h.  The exact mass of
floor(w_f * X_f / h) in each bin is a difference of the mixture's triangular
CDFs at the bin edges, and the FFT convolves the factors' masses into the
distribution of their sum L.  Since L * h <= S < (L + F) * h over F factors,

    P(L <= floor(x / h) - F) <= P(S <= x) <= P(L <= floor(x / h)),

with no approximation but float rounding, which one more bin on each side
absorbs.  The empirical CDF of n engine samples must stay inside that
bracket, widened by the Dvoretzky-Kiefer-Wolfowitz bound
eps = sqrt(ln(2 / alpha) / (2 n)) (Massart's constant).  At alpha = 1e-9 and
fixed seeds the test is deterministic, and a false alarm is out of reach.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defectcast import (
    EngineOptions, ExpertTriangle, Target, increase_distribution, load_bundle,
)

from conftest import EXAMPLE_BUNDLE, cut_into, make_factor

BINS = 1 << 13
ALPHA = 1e-9
# The README's example prediction: D1-D5 and the top-two effectiveness factors.
EXAMPLE_LEVELS = {"D1": 1, "D2": 1, "D3": 3, "D4": 1, "D5": 0, "E1": 2, "E2": 3}


def _below(tris, x):
    """P(X < x) for X an equal-weight mixture of ``tris``, at each of ``x``."""
    total = np.zeros_like(x)
    for t in tris:
        a, m, b = t.min, t.most_likely, t.max
        if a == b:  # a point mass
            total += x > a
            continue
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            left = (x - a) ** 2 / ((b - a) * (m - a))
            right = 1.0 - (b - x) ** 2 / ((b - a) * (b - m))
        total += np.where(x <= a, 0.0, np.where(x >= b, 1.0,
                                                np.where(x < m, left, right)))
    return total / len(tris)


def bracket_excess(samples, terms) -> float:
    """How far the empirical CDF of ``samples`` leaves the bracket of the
    exact CDF of sum(w * X) over ``terms``' (w, triangles), past the DKW band;
    0 or less when it stays inside."""
    s = np.sort(samples)
    terms = [(w, tris) for w, tris in terms if w > 0]
    top = sum(w * max(t.max for t in tris) for w, tris in terms)
    if top == 0:  # S is 0
        return float(np.abs(s).max())
    h = top / BINS
    edges = np.arange(BINS + 2) * h
    size = 1 << (len(terms) * (BINS + 1)).bit_length()
    spectrum = np.ones(size // 2 + 1, complex)
    for w, tris in terms:
        mass = np.diff(_below(tris, edges / w))
        spectrum *= np.fft.rfft(mass, size)
    pmf = np.clip(np.fft.irfft(spectrum, size)[:len(terms) * BINS + 1], 0, None)
    cdf = np.minimum(np.cumsum(pmf), 1.0)

    n = s.size
    k = np.floor(s / h).astype(np.int64)
    upper = cdf[np.minimum(k + 1, cdf.size - 1)]
    low_k = k - len(terms) - 1
    lower = np.where(low_k >= 0, cdf[np.clip(low_k, 0, None)], 0.0)
    at_or_below = np.searchsorted(s, s, "right") / n
    strictly_below = np.searchsorted(s, s, "left") / n
    outside = max((at_or_below - upper).max(), (lower - strictly_below).max())
    eps = math.sqrt(math.log(2 / ALPHA) / (2 * n))
    return float(outside - eps - 1e-9)


def _terms(factors, triangles, levels, target):
    """(w, triangles) of each factor, as the paper defines the sum."""
    return [(levels[f.id] / 3, [t for t in triangles
                                 if t.target == target and t.factor_id == f.id])
            for f in factors]


def _example(target):
    bundle = load_bundle(EXAMPLE_BUNDLE)
    return bundle.resolve_active(target), bundle.quantifications


@pytest.mark.parametrize("target", list(Target), ids=lambda t: t.value)
def test_example_bundle_inside_the_bracket(target):
    factors, triangles = _example(target)
    with cut_into(2):
        samples = increase_distribution(factors, triangles, EXAMPLE_LEVELS, target,
                                        EngineOptions(n_samples=10**6, seed=1))
    assert bracket_excess(samples, _terms(factors, triangles, EXAMPLE_LEVELS,
                                          target)) <= 0


def _drop_last_expert(factors, triangles, target):
    last = {f.id: max(t.expert for t in triangles if t.factor_id == f.id)
            for f in factors}
    return [t for t in triangles if t.expert != last.get(t.factor_id)]


def _average_each_factor(factors, triangles, target):
    # The mean is linear in the corners, so this keeps every analytic mean.
    out = []
    for f in factors:
        tris = [t for t in triangles if t.factor_id == f.id and t.target == target]
        a, m, b = (sum(v) / len(tris) for v in zip(
            *((t.min, t.most_likely, t.max) for t in tris)))
        out.append(ExpertTriangle("avg", f.id, target, a, m, b))
    return out


@pytest.mark.parametrize("mutate", [_drop_last_expert, _average_each_factor])
@pytest.mark.parametrize("target", list(Target), ids=lambda t: t.value)
def test_bracket_catches_a_wrong_mixture(target, mutate):
    factors, triangles = _example(target)
    wrong = mutate(factors, triangles, target)
    samples = increase_distribution(factors, wrong, EXAMPLE_LEVELS, target,
                                    EngineOptions(n_samples=10**6, seed=1))
    assert bracket_excess(samples, _terms(factors, triangles, EXAMPLE_LEVELS,
                                          target)) > 0


# Corners from a small set, so that ties make point masses and one-sided
# triangles, and from a grid of step 1e-6 on [0, 2], so that no width is too
# small for the exact CDF to divide by.
CORNER = st.sampled_from([0.0, 0.05, 0.1, 0.25]) | st.integers(0, 2 * 10**6).map(
    lambda i: i / 10**6)
TRIANGLE = st.lists(CORNER, min_size=3, max_size=3).map(sorted)


@st.composite
def random_sums(draw):
    """(factors, triangles, levels) of 1-5 factors with 1-6 experts each."""
    factors, triangles, levels = [], [], {}
    for i in range(draw(st.integers(1, 5))):
        factor = make_factor(f"F{i}")
        factors.append(factor)
        levels[factor.id] = draw(st.integers(0, 3))
        for j in range(draw(st.integers(1, 6))):
            a, m, b = draw(TRIANGLE)
            triangles.append(ExpertTriangle(f"X{j}", factor.id,
                                            Target.DEFECT_CONTENT, a, m, b))
    return factors, triangles, levels


@settings(deadline=None, max_examples=40)
@given(case=random_sums(), n=st.integers(1, 10**5), seed=st.integers(0, 2**32))
def test_random_sums_inside_the_bracket(case, n, seed):
    factors, triangles, levels = case
    target = Target.DEFECT_CONTENT
    samples = increase_distribution(factors, triangles, levels, target,
                                    EngineOptions(n_samples=n, seed=seed))
    assert bracket_excess(samples, _terms(factors, triangles, levels, target)) <= 0
