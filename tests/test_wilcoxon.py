import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.stats import rankdata

from defectcast import AllZeroDifferencesError, wilcoxon_one_sided
from defectcast import evaluation
from defectcast.evaluation import _mid_ranks

from test_evaluation import MRE_DD, MRE_EFF, MRE_IF, MRE_IF_EFF


def brute_force_p(pairs):
    """Independent oracle: enumerate every sign assignment directly.

    Shares only the documented tie convention (mid-ranks on magnitudes
    rounded to 12 decimals); the p-value itself comes from direct
    enumeration instead of the convolution used by the implementation.
    """
    d = np.array([b - a for a, b in pairs], dtype=float)
    d = d[d != 0]
    ranks = rankdata(np.round(np.abs(d), 12))
    observed = ranks[d < 0].sum()
    count = 0
    for signs in itertools.product([1.0, -1.0], repeat=len(d)):
        w_minus = sum(r for r, s in zip(ranks, signs) if s < 0)
        if w_minus <= observed + 1e-9:
            count += 1
    return count / 2 ** len(d)


def numpy_wilcoxon(pairs, exact_limit=20):
    """The numpy test that wilcoxon_one_sided used to run, kept as the
    bit-for-bit reference: (w_plus, w_minus, n, p, method).  Its numpy
    mid-ranks equalled scipy's rankdata, which ranks here."""
    d = np.array([b - a for a, b in pairs], dtype=float)
    d = d[d != 0.0]
    n = d.size
    if n == 0:
        raise AllZeroDifferencesError("every paired difference is zero")
    magnitudes = np.round(np.abs(d), 12)
    ranks = rankdata(magnitudes)
    w_plus = float(ranks[d > 0].sum())
    w_minus = float(ranks[d < 0].sum())
    if n <= exact_limit:
        doubled = np.rint(2 * ranks).astype(np.int64)
        total = int(doubled.sum())
        counts = np.zeros(total + 1, dtype=np.int64)
        counts[0] = 1
        for r in doubled:
            shifted = np.zeros_like(counts)
            shifted[r:] = counts[: total + 1 - r]
            counts = counts + shifted
        count = int(counts[: min(int(round(2 * w_minus)), total) + 1].sum())
        p = count / 2.0**n
        method = "exact_enumeration"
    else:
        mu = n * (n + 1) / 4.0
        var = n * (n + 1) * (2 * n + 1) / 24.0
        _, tie_counts = np.unique(magnitudes, return_counts=True)
        var -= float(((tie_counts**3 - tie_counts) / 48.0).sum())
        z = (w_minus - mu + 0.5) / math.sqrt(var)
        p = 0.5 * math.erfc(-z / math.sqrt(2.0))
        method = "normal_approximation"
    p = min(max(p, math.ulp(0.0)), 1.0)
    return w_plus, w_minus, n, p, method


# Equal values give zero differences; 0.3 - 0.2 and 0.1 tie only after
# rounding; 1e-12 and 0.1 + 1e-15 sit at the rounding's edge.
MRE_VALUES = st.sampled_from(
    [0.0, 1e-12, 0.1, 0.1 + 1e-15, 0.2, 0.25, 0.3, 0.5, 7.0]
) | st.floats(0, 3)
# Up to 20 pairs take the exact path, more the normal approximation.
PAIRS = st.integers(1, 40).flatmap(lambda n: st.lists(
    st.tuples(MRE_VALUES, MRE_VALUES), min_size=n, max_size=n,
))


# Few distinct values, so most drawn arrays carry ties.
TIED_FLOATS = st.lists(
    st.sampled_from([0.0, 1e-12, 0.1, 0.1 + 1e-15, 0.25, 0.3, 7.0, -0.2]),
    min_size=1, max_size=40,
)


class TestMidRanks:
    @given(values=TIED_FLOATS | st.lists(st.floats(-1e9, 1e9), min_size=1,
                                          max_size=40))
    @example(values=[0.5])
    @example(values=[0.3] * 17)
    def test_equals_scipy_average_ranks(self, values):
        ours = _mid_ranks(values)
        assert all(type(r) is float for r in ours)
        assert ours == rankdata(values).tolist()


class TestNumpyReference:
    @given(pairs=PAIRS)
    @example(pairs=[(0.2, 0.3), (0.0, 0.1), (0.5, 0.5)])
    @example(pairs=[(0.1, 0.3)] * 21)
    def test_bit_identical_to_numpy_reference(self, pairs):
        try:
            expected = numpy_wilcoxon(pairs)
        except AllZeroDifferencesError:
            with pytest.raises(AllZeroDifferencesError):
                wilcoxon_one_sided(pairs)
            return
        r = wilcoxon_one_sided(pairs)
        assert (r.w_plus, r.w_minus, r.n_effective, r.method) == (
            expected[0], expected[1], expected[2], expected[4]
        )
        assert r.p_one_sided.hex() == expected[3].hex()


class TestExamples:
    def test_five_concordant_pairs(self):
        pairs = [(0.1, 0.2), (0.2, 0.5), (0.0, 0.15), (0.3, 0.7), (0.1, 0.9)]
        result = wilcoxon_one_sided(pairs)
        assert result.p_one_sided == 1 / 32
        assert result.w_minus == 0

    def test_single_pair(self):
        result = wilcoxon_one_sided([(0.1, 0.3)])
        assert result.p_one_sided == 0.5
        assert result.n_effective == 1

    def test_zero_differences_dropped(self):
        result = wilcoxon_one_sided([(0.2, 0.2), (0.1, 0.3)])
        assert result.n_effective == 1
        assert result.p_one_sided == 0.5

    def test_all_zero_differences_rejected(self):
        with pytest.raises(AllZeroDifferencesError):
            wilcoxon_one_sided([(0.3, 0.3), (0.1, 0.1)])

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_difference_rejected(self, bad):
        with pytest.raises(ValueError, match="not finite"):
            wilcoxon_one_sided([(0.1, 0.3), (0.2, bad)])

    @pytest.mark.parametrize("pair,field,value", [
        (("a", 1.0), "mre_a", "'a'"), ((0.2, None), "mre_b", "None"),
        ((True, 0.5), "mre_a", "True"),
    ], ids=["string", "none", "bool"])
    def test_mre_must_be_a_real_number(self, pair, field, value):
        # "a" and None used to end in a bare TypeError; True counted as 1.0.
        with pytest.raises(ValueError) as exc:
            wilcoxon_one_sided([(0.1, 0.3), pair])
        assert str(exc.value) == f"pair 1: {field} must be a real number, got {value}"

    @pytest.mark.parametrize("pair,message", [
        ((1.0, 2.0, 3.0), "pair 1 must hold 2 values, mre_a and mre_b, got 3"),
        ((0.5,), "pair 1 must hold 2 values, mre_a and mre_b, got 1"),
        (0.5, "expected a list of pair 1 values, got a number"),
        ("ab", "expected a list of pair 1 values, got the string 'ab'"),
    ], ids=["three", "one", "number", "string"])
    def test_a_pair_holds_two_mres(self, pair, message):
        # Three values used to end in "too many values to unpack", a number
        # in "cannot unpack non-iterable float object".
        with pytest.raises(ValueError) as exc:
            wilcoxon_one_sided([(0.1, 0.3), pair])
        assert str(exc.value) == message

    def test_real_mres_read_as_their_floats(self):
        # The float32 pair used to be differenced in float32, so its
        # magnitude no longer tied with the first pair's: w_plus 5.0, not 4.5.
        pairs = [(0.1, 0.3), (np.float32(0.5), 0.3), (Fraction(1, 5), np.float64(0.7))]
        plain = [(float(a), float(b)) for a, b in pairs]
        assert wilcoxon_one_sided(pairs) == wilcoxon_one_sided(plain)


class TestPublishedComparisons:
    def test_defect_content_improvement_significant(self):
        pairs = list(zip(MRE_IF, MRE_DD))
        result = wilcoxon_one_sided(pairs)
        assert result.method == "exact_enumeration"
        assert result.p_one_sided <= 0.05

    def test_effectiveness_improvement_not_significant(self):
        pairs = list(zip(MRE_IF_EFF, MRE_EFF))
        result = wilcoxon_one_sided(pairs)
        assert result.p_one_sided > 0.05


class TestAgainstBruteForce:
    def test_random_instances_match_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 11))
            pairs = [tuple(rng.random(2)) for _ in range(n)]
            assert wilcoxon_one_sided(pairs).p_one_sided == brute_force_p(pairs)

    def test_tied_magnitudes_match(self):
        pairs = [(0.1, 0.3), (0.5, 0.3), (0.0, 0.2), (0.4, 0.45)]
        assert wilcoxon_one_sided(pairs).p_one_sided == brute_force_p(pairs)


class TestStructure:
    def test_rank_sum_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(2, 15))
            pairs = [tuple(rng.random(2)) for _ in range(n)]
            r = wilcoxon_one_sided(pairs)
            assert r.w_plus + r.w_minus == r.n_effective * (r.n_effective + 1) / 2
            assert 0 < r.p_one_sided <= 1

    def test_antisymmetry(self):
        rng = np.random.default_rng(2)
        pairs = [tuple(rng.random(2)) for _ in range(8)]
        forward = wilcoxon_one_sided(pairs)
        swapped = wilcoxon_one_sided([(b, a) for a, b in pairs])
        # swapping the columns turns W- into W+ and vice versa
        assert swapped.w_minus == forward.w_plus
        assert swapped.w_plus == forward.w_minus
        assert swapped.p_one_sided == brute_force_p([(b, a) for a, b in pairs])

    def test_normal_approximation_for_large_n(self):
        rng = np.random.default_rng(3)
        pairs = [(x, x + d) for x, d in
                 zip(rng.random(30), rng.normal(0.3, 0.1, 30))]
        result = wilcoxon_one_sided(pairs)
        assert result.method == "normal_approximation"
        assert result.p_one_sided < 0.001

    def test_normal_close_to_exact_at_the_boundary(self, monkeypatch):
        rng = np.random.default_rng(4)
        pairs = [tuple(rng.random(2)) for _ in range(18)]
        exact = wilcoxon_one_sided(pairs)
        monkeypatch.setattr(evaluation, "_EXACT_LIMIT", 10)
        approx = wilcoxon_one_sided(pairs)
        assert approx.method == "normal_approximation"
        assert approx.p_one_sided == pytest.approx(exact.p_one_sided, abs=0.02)
