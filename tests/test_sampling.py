import hashlib
import math
import multiprocessing
import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from defectcast import (
    EmptyDistributionError,
    EngineOptions,
    MissingLevelError,
    MissingQuantificationError,
    NewReleaseSpec,
    Target,
    analytic_mean_increase,
    calibrate,
    empirical_quantile,
    increase_distribution,
    predict_defect_content,
    triangle_inverse_cdf,
    triangle_variance,
)

from defectcast import load_bundle, sampling
from defectcast.sampling import _BLOCK, MAX_SAMPLES, _add_mixture

from conftest import (
    EXAMPLE_BUNDLE, cut_into, make_factor, make_release, make_triangle, triangle_cdf,
)


def ordered_triple(draw_min=0.0, draw_max=1.0):
    return st.tuples(
        st.floats(draw_min, draw_max),
        st.floats(draw_min, draw_max),
        st.floats(draw_min, draw_max),
    ).map(sorted)


class TestTriangleSampling:
    def test_degenerate_point_mass(self):
        tri = make_triangle(a=0, m=0, b=0)
        for u in (0.0, 0.3, 0.999):
            assert triangle_inverse_cdf(tri, u) == 0
        assert np.all(triangle_inverse_cdf(tri, np.array([0.0, 0.3, 0.999])) == 0)

    def test_symmetric_triangle_median_is_mode(self):
        tri = make_triangle(a=0, m=0.5, b=1)
        assert triangle_inverse_cdf(tri, 0.5) == pytest.approx(0.5)

    def test_inverse_cdf_value_against_direct_cdf(self):
        # u = 0.25 on (0.10, 0.15, 0.25): x = 0.10 + sqrt(0.25*0.15*0.05)
        tri = make_triangle(a=0.10, m=0.15, b=0.25)
        x = triangle_inverse_cdf(tri, 0.25)
        assert x == pytest.approx(0.10 + math.sqrt(0.25 * 0.15 * 0.05))
        assert x == pytest.approx(0.14330, abs=5e-6)
        assert triangle_cdf(0.10, 0.15, 0.25, x) == pytest.approx(0.25, rel=1e-12)

    @given(tri=ordered_triple(), u=st.floats(0, 1, exclude_max=True))
    def test_sample_within_triangle_support(self, tri, u):
        a, m, b = tri
        x = triangle_inverse_cdf(make_triangle(a=a, m=m, b=b), u)
        assert a - 1e-12 <= x <= b + 1e-12

    @given(tri=ordered_triple(), u=st.floats(0, 1, exclude_max=True))
    def test_inverse_cdf_inverts_cdf(self, tri, u):
        a, m, b = tri
        if b - a < 1e-6:
            return
        x = triangle_inverse_cdf(make_triangle(a=a, m=m, b=b), u)
        assert triangle_cdf(a, m, b, x) == pytest.approx(u, abs=1e-9)

    def test_sampler_mean_matches_analytic(self):
        a, m, b = 0.05, 0.15, 0.40
        tri = make_triangle(a=a, m=m, b=b)
        rng = np.random.default_rng(7)
        n = 100_000
        draws = triangle_inverse_cdf(tri, rng.random(n))
        sigma = math.sqrt(triangle_variance(tri))
        assert abs(draws.mean() - (a + m + b) / 3) < 3 * sigma / math.sqrt(n)


def mixture_draws(triangles, n, seed=0):
    """Expert-mixture draws of one factor through the engine: at level 3
    the factor's weight is exactly 1, so the samples are the mixture."""
    return increase_distribution(
        [make_factor("D1")], triangles, {"D1": 3}, Target.DEFECT_CONTENT,
        EngineOptions(n_samples=n, seed=seed),
    )


class TestExpertMixture:
    def test_degenerate_single_triangle(self):
        tri = make_triangle(a=0, m=0, b=0)
        assert np.all(mixture_draws([tri], 100) == 0)

    def test_empty_list_rejected(self):
        # triangles exist, but none for this factor and target
        other_target = make_triangle(target=Target.EFFECTIVENESS)
        with pytest.raises(MissingQuantificationError):
            mixture_draws([other_target], 100)

    def test_mixture_mean_is_average_of_triangle_means(self):
        tris = [
            make_triangle(a=0.10, m=0.15, b=0.25),
            make_triangle(a=0.0, m=0.10, b=0.20, expert="X2"),
        ]
        expected = ((0.10 + 0.15 + 0.25) / 3 + (0.0 + 0.10 + 0.20) / 3) / 2
        n = 200_000
        draws = mixture_draws(tris, n, seed=3)
        # mixture variance upper bound: E[X^2] spread is tiny, use sample std
        assert abs(draws.mean() - expected) < 3 * draws.std() / math.sqrt(n)
        assert expected == pytest.approx(0.13333, abs=5e-6)


class TestEngineOptions:
    @pytest.mark.parametrize("seed", [-1, True, 1.5, "0"])
    def test_seed_must_be_a_non_negative_int(self, seed):
        with pytest.raises(ValueError, match="seed must be"):
            EngineOptions(seed=seed)

    @pytest.mark.parametrize("n", [0, -1, True, False, 1.5, 1e6, "10", None])
    def test_n_samples_must_be_a_positive_int(self, n):
        with pytest.raises(ValueError, match="^n_samples must be an integer"):
            EngineOptions(n_samples=n)

    def test_n_samples_capped(self):
        assert EngineOptions(n_samples=MAX_SAMPLES).n_samples == 10**8
        with pytest.raises(ValueError) as exc:
            EngineOptions(n_samples=MAX_SAMPLES + 1)
        assert str(exc.value) == (
            "n_samples must be an integer in [1, 100000000], got 100000001")

    def test_unknown_point_strategy_rejected(self):
        with pytest.raises(ValueError, match="^unknown point strategy 'median'$"):
            EngineOptions(point="median")


FACTOR = make_factor("D1")
TRI = make_triangle("D1", 0.10, 0.15, 0.25)


class TestIncreaseDistribution:
    def test_all_levels_zero_is_point_mass(self):
        samples = increase_distribution([FACTOR], [TRI], {"D1": 0},
                                        Target.DEFECT_CONTENT)
        assert np.all(samples == 0)
        assert analytic_mean_increase([FACTOR], [TRI], {"D1": 0},
                                      Target.DEFECT_CONTENT) == 0

    def test_level_three_reproduces_triangle(self):
        s = increase_distribution(
            [FACTOR], [TRI], {"D1": 3}, Target.DEFECT_CONTENT,
            EngineOptions(n_samples=100_000),
        )
        assert s.min() >= 0.10 and s.max() <= 0.25
        sigma = math.sqrt(triangle_variance(TRI))
        assert abs(s.mean() - 0.5 / 3) < 3 * sigma / math.sqrt(s.size)

    def test_two_factor_sum_of_scaled_means(self):
        f2 = make_factor("D2")
        tris = [
            make_triangle("D1", 0.10, 0.15, 0.25),
            make_triangle("D1", 0.0, 0.10, 0.20, expert="X2"),
            make_triangle("D2", 0.03, 0.06, 0.09),
        ]
        levels = {"D1": 3, "D2": 1}
        expected = 0.13333333333333333 + (1 / 3) * 0.06
        mean = analytic_mean_increase([FACTOR, f2], tris, levels,
                                      Target.DEFECT_CONTENT)
        assert mean == pytest.approx(expected, rel=1e-9)
        s = increase_distribution(
            [FACTOR, f2], tris, levels, Target.DEFECT_CONTENT,
            EngineOptions(n_samples=1_000_000),
        )
        assert abs(s.mean() - expected) < 3 * s.std() / math.sqrt(s.size)

    def test_missing_quantification_and_level_errors(self):
        with pytest.raises(MissingQuantificationError):
            increase_distribution([FACTOR], [], {"D1": 1}, Target.DEFECT_CONTENT)
        with pytest.raises(MissingLevelError):
            increase_distribution([FACTOR], [TRI], {}, Target.DEFECT_CONTENT)

    def test_deterministic_given_seed(self):
        kw = ([FACTOR], [TRI], {"D1": 2}, Target.DEFECT_CONTENT,
              EngineOptions(seed=42))
        a = increase_distribution(*kw)
        b = increase_distribution(*kw)
        # Each call returns a fresh, writable float64 array of n samples.
        assert a.flags.writeable and a.flags.owndata and a is not b
        assert (a.dtype, a.shape) == (np.float64, (10_000,))
        assert np.array_equal(a, b)
        c = increase_distribution([FACTOR], [TRI], {"D1": 2},
                                  Target.DEFECT_CONTENT, EngineOptions(seed=43))
        assert not np.array_equal(a, c)

    def test_factor_declaration_order_is_irrelevant(self):
        f2 = make_factor("D2")
        tris = [TRI, make_triangle("D2", 0.03, 0.06, 0.09)]
        levels = {"D1": 2, "D2": 3}
        a = increase_distribution([FACTOR, f2], tris, levels,
                                  Target.DEFECT_CONTENT)
        b = increase_distribution([f2, FACTOR], tris, levels,
                                  Target.DEFECT_CONTENT)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("low,high", [(0, 1), (1, 2), (2, 3)])
    def test_raising_a_level_stochastically_dominates(self, low, high):
        lo = increase_distribution([FACTOR], [TRI], {"D1": low},
                                   Target.DEFECT_CONTENT)
        hi = increase_distribution([FACTOR], [TRI], {"D1": high},
                                   Target.DEFECT_CONTENT)
        assert (analytic_mean_increase([FACTOR], [TRI], {"D1": high},
                                       Target.DEFECT_CONTENT)
                >= analytic_mean_increase([FACTOR], [TRI], {"D1": low},
                                          Target.DEFECT_CONTENT))
        hi_sorted, lo_sorted = np.sort(hi), np.sort(lo)
        assert all(
            empirical_quantile(hi_sorted, p) >= empirical_quantile(lo_sorted, p)
            for p in np.linspace(0, 1, 21)
        )

    def test_point_strategy_mc_median(self):
        # The point strategy is the caller's to apply: it leaves the draws as
        # they are.
        args = ([FACTOR], [TRI], {"D1": 3}, Target.DEFECT_CONTENT)
        mc = increase_distribution(*args, EngineOptions(point="mc-median"))
        assert np.array_equal(mc, increase_distribution(*args))


def reference_inverse_cdf(tri, u):
    """The per-triangle inverse CDF the gather kernel replaced."""
    a, m, b = tri.min, tri.most_likely, tri.max
    if b == a:
        return np.full_like(u, a)
    c = (m - a) / (b - a)
    left = a + np.sqrt(np.clip(u, 0, None) * (b - a) * (m - a))
    right = b - np.sqrt(np.clip(1 - u, 0, None) * (b - a) * (b - m))
    return np.where(u < c, left, right)


def reference_mixture(triangles, n, rng):
    """Mask-based mixture draw: compress u per expert, scatter back."""
    idx = rng.integers(0, len(triangles), size=n)
    u = rng.random(n)
    out = np.empty(n)
    for j, tri in enumerate(triangles):
        mask = idx == j
        if mask.any():
            out[mask] = reference_inverse_cdf(tri, u[mask])
    return out


def triangles_with_ties():
    # Draw from a small grid too, so a == b, a == m and m == b all occur.
    value = st.one_of(st.sampled_from([0.0, 0.1, 0.25, 1.0]), st.floats(0, 1))
    return st.lists(
        st.tuples(value, value, value).map(sorted), min_size=1, max_size=5
    ).map(lambda triples: [
        make_triangle(a=a, m=m, b=b, expert=f"X{i}")
        for i, (a, m, b) in enumerate(triples)
    ])


def draw_two_ranges():
    _add_mixture(np.zeros(2 * _BLOCK), [make_triangle()], 1.0,
                 np.random.default_rng(0))


def spy_index_draws(monkeypatch):
    """Record the (start, stop) of every index draw call."""
    real, calls = sampling._draw_indices, []

    def draw_indices(idx, k, gen, lo, hi):
        calls.append((lo, hi))
        real(idx, k, gen, lo, hi)

    monkeypatch.setattr(sampling, "_draw_indices", draw_indices)
    return calls


# Range counts each kernel test checks: one range, and splits of 2, 3
# and 5 that leave ranges of unequal block counts.  They run on any
# machine, one CPU included.
WORKERS = [1, 2, 3, 5]


class TestMixtureKernel:
    @settings(max_examples=60, deadline=None)
    @given(
        triangles=triangles_with_ties(),
        n=st.sampled_from([1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7,
                           5 * _BLOCK + 3]),
        weight=st.sampled_from([1 / 3, 2 / 3, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    # a == m == b == 0: the zero triangle must leave the accumulator's bits
    @example(triangles=[make_triangle(a=0, m=0, b=0)], n=_BLOCK + 1,
             weight=1.0, seed=0)
    def test_bit_identical_to_mask_reference(self, triangles, n, weight, seed):
        start = np.random.default_rng(seed).random(n)
        expected = start.copy()
        expected += weight * reference_mixture(
            triangles, n, np.random.default_rng(seed)
        )
        for workers in WORKERS:
            got = start.copy()
            with cut_into(workers):
                _add_mixture(got, triangles, weight, np.random.default_rng(seed))
            assert np.array_equal(
                got.view(np.int64), expected.view(np.int64)
            ), f"{workers} ranges"

    @settings(max_examples=12, deadline=None)
    @given(
        k=st.sampled_from([129, 256, 257, 300]),
        n=st.sampled_from([1, 2 * _BLOCK // 3 + 1, _BLOCK - 1, _BLOCK + 1,
                           3 * _BLOCK + 7]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_many_experts_match_full_length_int64_indices(self, k, n, seed):
        # The reference draws all n indices as int64 in one call.  Above
        # 128 experts a one-byte index doubled in one byte wraps; above
        # 256 the indices need two bytes.  Distinct triangles make a
        # wrong piece show in the samples.
        triangles = [make_triangle(a=j / 1000, m=j / 700, b=j / 500,
                                   expert=f"X{j}") for j in range(k)]
        reference = np.random.default_rng(seed)
        expected = reference_mixture(triangles, n, reference)
        for workers in (1, 2, 3):
            rng = np.random.default_rng(seed)
            got = np.zeros(n)
            with cut_into(workers):
                _add_mixture(got, triangles, 1.0, rng)
            assert np.array_equal(
                got.view(np.int64), expected.view(np.int64)
            ), f"{workers} ranges"
            if workers == 1:
                # One range draws every uniform from ``rng`` itself; with
                # more, the ranges advance copies by the offsets the index
                # draw left, which the samples above already check.
                assert rng.bit_generator.state == reference.bit_generator.state

    def test_more_ranges_than_cores_under_fast_switching(self):
        triangles = [make_triangle(a=0.1, m=0.2, b=0.4),
                     make_triangle(a=0.0, m=0.3, b=0.3, expert="X2")]
        n = 9 * _BLOCK + 5
        expected = np.zeros(n)
        with cut_into(1):
            _add_mixture(expected, triangles, 2 / 3, np.random.default_rng(5))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = np.zeros(n)
            with cut_into(8):
                _add_mixture(got, triangles, 2 / 3, np.random.default_rng(5))
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("failing", ["main", "worker"])
    def test_error_propagates_once_every_range_ends(self, monkeypatch, failing):
        # 4 blocks in 3 ranges: the main thread takes block 0, workers
        # take blocks 1 and 2-3.  The ranges that do not fail are slow.
        real = sampling._inverse_cdf
        lock = threading.Lock()
        finished = []

        def inverse_cdf(*args):
            on_main = threading.current_thread() is threading.main_thread()
            if on_main == (failing == "main"):
                raise RuntimeError("range failed")
            time.sleep(0.02)
            with lock:
                finished.append(on_main)
            return real(*args)

        monkeypatch.setattr(sampling, "_inverse_cdf", inverse_cdf)
        with cut_into(3):
            with pytest.raises(RuntimeError, match="range failed"):
                _add_mixture(np.zeros(4 * _BLOCK), [make_triangle()], 1.0,
                             np.random.default_rng(0))
            # Nothing may still run once the error is raised.
            assert len(finished) == (3 if failing == "main" else 1)

    def test_thread_that_cannot_start_fails_the_draw_after_the_others(
        self, monkeypatch
    ):
        real_start = threading.Thread.start
        started = []

        def start(thread):
            if started:
                raise RuntimeError("can't start new thread")
            started.append(thread)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", start)
        with cut_into(3):
            with pytest.raises(RuntimeError, match="can't start new thread"):
                _add_mixture(np.zeros(3 * _BLOCK), [make_triangle()], 1.0,
                             np.random.default_rng(0))
        assert not started[0].is_alive()

    @pytest.mark.parametrize("workers", [2, 3, 5])
    def test_wrong_index_start_guess_is_redrawn(self, monkeypatch, workers):
        # Every range but the first guesses where the index draw stands at
        # its start; a guess one output off must cost a redraw, not a bit.
        triangles = [make_triangle(a=0.1, m=0.2, b=0.4),
                     make_triangle(a=0.0, m=0.3, b=0.3, expert="X2"),
                     make_triangle(a=0.2, m=0.2, b=0.5, expert="X3")]
        n = 5 * _BLOCK + 3

        def draw():
            rng = np.random.default_rng(17)
            got = np.zeros(n)
            with cut_into(workers):
                _add_mixture(got, triangles, 1.0, rng)
            return got, rng.bit_generator.state

        expected, expected_state = draw()
        real = sampling._index_start
        monkeypatch.setattr(sampling, "_index_start",
                            lambda *args: sampling._advanced(real(*args), 1))
        calls = spy_index_draws(monkeypatch)
        got, state = draw()
        assert len(calls) == workers + 1  # every range, then the redraw
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))
        assert state == expected_state

    @pytest.mark.parametrize("workers", [2, 3, 5])
    def test_example_bundle_factors_take_no_redraw(self, monkeypatch, workers):
        # Four experts per factor: 2**32 is a multiple of 4, so no index
        # draw is ever rejected and every guess holds.
        bundle = load_bundle(EXAMPLE_BUNDLE)
        calls = spy_index_draws(monkeypatch)
        n, drawn = 10**6, 0
        for target in Target:
            factors = bundle.factors_for(target)
            assert {len([t for t in bundle.quantifications
                         if t.target == target and t.factor_id == f.id])
                    for f in factors} == {4}
            with cut_into(workers):
                increase_distribution(factors, bundle.quantifications,
                                      {f.id: 2 for f in factors}, target,
                                      EngineOptions(n_samples=n))
            drawn += len(factors)
        assert len(calls) == drawn * workers

    @pytest.mark.parametrize("failing", ["main", "worker"])
    def test_index_range_error_propagates_once_every_range_ends(
        self, monkeypatch, failing
    ):
        # 4 blocks in 3 ranges, each range one index draw call.
        real = sampling._draw_indices
        lock = threading.Lock()
        finished = []

        def draw_indices(*args):
            on_main = threading.current_thread() is threading.main_thread()
            if on_main == (failing == "main"):
                raise RuntimeError("range failed")
            time.sleep(0.02)
            with lock:
                finished.append(on_main)
            real(*args)

        monkeypatch.setattr(sampling, "_draw_indices", draw_indices)
        samples = np.zeros(4 * _BLOCK)
        with cut_into(3):
            with pytest.raises(RuntimeError, match="range failed"):
                _add_mixture(samples, [make_triangle()], 1.0,
                             np.random.default_rng(0))
        assert len(finished) == (2 if failing == "main" else 1)
        assert not samples.any()  # the kernel never ran

    @pytest.mark.parametrize("spare", [False, True], ids=["fresh", "held-spare"])
    @pytest.mark.parametrize("n", [1, _BLOCK + 1, 3 * _BLOCK + 7, 5 * _BLOCK + 4])
    def test_caller_rng_ends_after_indices_and_first_range(self, n, spare):
        # The caller's generator ends after the whole index draw and the
        # first range's uniforms.  A held spare 32-bit half shifts every
        # index range by one value, so every guess misses.
        triangles = [make_triangle(), make_triangle(a=0.0, m=0.1, b=0.3,
                                                    expert="X2")]

        def start():
            rng = np.random.default_rng(3)
            if spare:
                rng.integers(0, 2, size=1, dtype=np.int32)
            return rng

        expected = reference_mixture(triangles, n, start())
        blocks = -(-n // _BLOCK)
        for workers in WORKERS:
            rng, got = start(), np.zeros(n)
            with cut_into(workers):
                _add_mixture(got, triangles, 1.0, rng)
            ranges = min(workers, blocks)
            reference = start()
            reference.integers(0, 2, size=n)
            reference.random(blocks // ranges * _BLOCK if ranges > 1 else n)
            assert rng.bit_generator.state == reference.bit_generator.state, (
                f"{workers} ranges"
            )
            assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    def test_draw_leaves_no_thread_behind(self):
        before = threading.active_count()
        with cut_into(2):
            draw_two_ranges()
        assert threading.active_count() == before

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_draws_on_threads_of_its_own(self):
        # A child forked after a threaded draw inherits none of its threads.
        with cut_into(2):
            draw_two_ranges()
            child = multiprocessing.get_context("fork").Process(
                target=draw_two_ranges
            )
            child.start()
            child.join(timeout=30)
            hung = child.is_alive()
            if hung:
                child.kill()
        assert not hung and child.exitcode == 0

    # sha256 of the samples at n = 10**5, mc-median, recorded with the
    # mask-based sampler; the kernel must keep every bit.
    PINNED = {
        (Target.DEFECT_CONTENT, 0):
            "1a5fbe9ddba4dd46301af5a39d8a0ebe8604ed264f3c4963dfe2cd8072c9168a",
        (Target.DEFECT_CONTENT, 7):
            "2343a9014ebb23795c8cf9f4027ce6546df12df73fe6617dccf9cf55f1471fe2",
        (Target.EFFECTIVENESS, 0):
            "db8779ea82b76309e07c04abc603c52e143832941c5c1160635330b793a2d5db",
        (Target.EFFECTIVENESS, 7):
            "f1a64ecb8206a248f4c45e5446a252fd192e58dadfa6c252b9df0b8428d28a16",
    }

    @pytest.mark.parametrize("target,seed", sorted(PINNED))
    def test_example_bundle_samples_pinned(self, monkeypatch, target, seed):
        # The block size is free to tune: no draw depends on it.
        bundle = load_bundle(EXAMPLE_BUNDLE)
        levels = {"D1": 1, "D2": 1, "D3": 3, "D4": 1, "D5": 0,
                  "E1": 2, "E2": 2, "E3": 3, "E4": 2, "E5": 2}
        for block in (4096, 12345, _BLOCK):
            monkeypatch.setattr(sampling, "_BLOCK", block)
            for workers in WORKERS:
                with cut_into(workers):
                    samples = increase_distribution(
                        bundle.factors_for(target), bundle.quantifications,
                        levels, target,
                        EngineOptions(n_samples=100_000, seed=seed,
                                      point="mc-median"),
                    )
                digest = hashlib.sha256(samples.tobytes()).hexdigest()
                assert digest == self.PINNED[(target, seed)], (
                    f"block {block}, {workers} ranges"
                )


class TestIndexDraw:
    @pytest.mark.parametrize("spare", [False, True], ids=["fresh", "held-spare"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 8, 256, 257, 2**16, 2**31])
    def test_matches_one_integers_call(self, monkeypatch, k, spare):
        # Powers of two read raw 32-bit halves: an odd block must hand its
        # last high half to the next block, and the generator must end as
        # numpy's does, spare half included.
        dtype = np.min_scalar_type(k - 1)
        for block in (7, 8, _BLOCK):
            monkeypatch.setattr(sampling, "_BLOCK", block)
            for lo, hi in [(0, 1), (0, 2), (3, 4), (2, 17), (5, 40), (1, 45)]:
                gen, reference = np.random.default_rng(k), np.random.default_rng(k)
                if spare:
                    for g in (gen, reference):
                        g.integers(0, 2, size=1, dtype=np.int32)
                idx = np.full(hi + 3, np.iinfo(dtype).max, dtype)
                sampling._draw_indices(idx, k, gen, lo, hi)
                expected = reference.integers(0, k, hi - lo, dtype=np.int64)
                where = f"block {block}, [{lo}, {hi})"
                assert np.array_equal(idx[lo:hi], expected), where
                assert (idx[:lo] == np.iinfo(dtype).max).all(), where
                assert (idx[hi:] == np.iinfo(dtype).max).all(), where
                assert gen.bit_generator.state == reference.bit_generator.state, where


class TestQuantiles:
    def test_nearest_rank_median(self):
        assert empirical_quantile(np.arange(1, 101, dtype=float), 0.5) == 50

    def test_extremes(self):
        ordered = np.arange(1, 101, dtype=float)
        assert [empirical_quantile(ordered, p) for p in (0.0, 1.0)] == [1, 100]

    @pytest.mark.parametrize("p", [1.5, -2.0, math.nan, math.inf, 1 + 2**-52,
                                   True, "0.5", None])
    def test_p_outside_the_unit_interval_rejected(self, p):
        # 1.5 used to give the maximum sample and -2 the minimum; True gave
        # the maximum too, and "0.5" and None a bare TypeError.
        with pytest.raises(ValueError, match=r"^p must be in \[0, 1\], got "):
            empirical_quantile(np.arange(1, 101, dtype=float), p)

    def test_no_samples_rejected(self):
        with pytest.raises(EmptyDistributionError, match="^no samples$"):
            empirical_quantile([], 0.5)

    @pytest.mark.parametrize("samples,shown", [
        ("abc", "the string 'abc'"), ((x for x in [1.0]), "generator"),
        (None, "null"), (5, "a number"), ({0: 1.0}, "an object"), (b"ab", "bytes"),
    ], ids=["string", "generator", "none", "number", "dict", "bytes"])
    def test_samples_must_be_a_sized_list(self, samples, shown):
        # A string used to end in "could not convert string to float: 'b'",
        # a generator in "object of type 'generator' has no len()".
        with pytest.raises(ValueError) as exc:
            empirical_quantile(samples, 0.5)
        assert str(exc.value) == f"expected a list of sorted_samples, got {shown}"

    @pytest.mark.parametrize("sample", ["2", None, True, [2.0]], ids=repr)
    def test_the_sample_taken_must_be_a_real_number(self, sample):
        with pytest.raises(ValueError) as exc:
            empirical_quantile([1.0, sample, 3.0], 0.5)
        assert str(exc.value) == f"sorted_samples[1] must be a real number, got {sample!r}"

    def test_samples_are_read_in_place(self):
        # Only the one sample taken is read: nothing iterates, so nothing
        # is copied.
        class Samples:
            def __len__(self):
                return 100

            def __getitem__(self, i):
                return float(i + 1)

            def __iter__(self):
                raise AssertionError("the samples were iterated")

        assert empirical_quantile(Samples(), 0.5) == 50.0

    def test_sorting_independence(self):
        ordered = np.sort(np.array([3.0, 1.0, 2.0]))
        assert empirical_quantile(ordered, 0.5) == 2

    @given(
        values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
        probs=st.lists(st.floats(0, 1), min_size=1, max_size=10),
    )
    def test_monotone_in_probs(self, values, probs):
        ordered = np.sort(np.array(values))
        out = [empirical_quantile(ordered, p) for p in sorted(probs)]
        assert out == sorted(out)

    @pytest.mark.parametrize("p", [np.float64(0.25), np.float32(0.5), np.int64(1)],
                             ids=["float64", "float32", "int64"])
    def test_numpy_real_p_accepted(self, p):
        ordered = np.arange(1, 101, dtype=float)
        assert empirical_quantile(ordered, p) == empirical_quantile(ordered, float(p))


class TestIncreaseSummary:
    """``sampling._increase_summary``: the one point of a characterization."""

    ARGS = ([], [], {}, Target.DEFECT_CONTENT)

    # Few distinct values, so the median sits inside long runs of ties.
    # "+ 0.0" turns -0.0, which ties with 0.0 but has other bits, into
    # 0.0; the engine's samples are never -0.0.
    @settings(deadline=None)
    @given(
        values=st.lists(
            st.sampled_from([0.0, 0.25, 1.0, 3.5]) | st.floats(-1e6, 1e6).map(
                lambda x: x + 0.0),
            min_size=1, max_size=300,
        ),
        point=st.sampled_from(["analytic-mean", "mc-median"]),
        probs=st.lists(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0, 1),
                       max_size=7),
    )
    def test_values_are_the_sorted_nearest_rank_quantiles(self, values, point, probs):
        ordered = np.sort(np.array(values))
        options = EngineOptions(n_samples=len(values), point=point)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sampling, "increase_distribution", lambda *a: np.array(values))
            mp.setattr(sampling, "analytic_mean_increase", lambda *a: -0.5)
            got, quantiles = sampling._increase_summary(*self.ARGS, options, probs)
        expected = -0.5 if point == "analytic-mean" else empirical_quantile(ordered, 0.5)
        assert got.hex() == expected.hex()
        assert {p: q.hex() for p, q in quantiles.items()} == {
            p: empirical_quantile(ordered, p).hex() for p in probs}

    @pytest.mark.parametrize("point, probs, draws", [
        ("analytic-mean", (), 0), ("analytic-mean", (0.5,), 1),
        ("mc-median", (), 1), ("mc-median", (0.5,), 1),
    ])
    def test_draws_only_what_it_reads(self, monkeypatch, point, probs, draws):
        calls = []
        real = sampling.increase_distribution
        monkeypatch.setattr(sampling, "increase_distribution",
                            lambda *a: calls.append(a) or real(*a))
        sampling._increase_summary([FACTOR], [TRI], {"D1": 2}, Target.DEFECT_CONTENT,
                                   EngineOptions(n_samples=100, point=point), probs)
        assert len(calls) == draws

    @pytest.mark.parametrize("p", [1.5, math.nan, True, "0.5", None])
    def test_every_p_is_checked_before_the_draw(self, monkeypatch, p):
        # A bad p used to be found only after the whole draw.  A prediction
        # reads its probs at entry, so _increase_summary takes floats.
        ctx = calibrate([make_release(levels={"D1": 2})], [FACTOR], [], [TRI])
        monkeypatch.setattr(sampling, "increase_distribution", None)
        with pytest.raises(ValueError, match=r"^p must be in \[0, 1\], got "):
            predict_defect_content(ctx, NewReleaseSpec(100, {"D1": 2}), [FACTOR], [TRI],
                                   EngineOptions(), iter([0.5, p]))
