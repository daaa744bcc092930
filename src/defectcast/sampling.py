"""Monte Carlo engine for the increase-factor distributions.

The project-specific increase factor (for defect density or for
effectiveness) is built in three steps:

1. per factor, the experts' triangular estimates are combined into one
   distribution as an equal-weight mixture;
2. the mixture is scaled by ``level / 3`` for the release's concrete
   level on the factor's four-level scale (level descriptions are chosen
   so the impact grows linearly over the levels);
3. the scaled per-factor draws are summed across factors.

Each factor samples from its own RNG stream, derived deterministically
from (seed, target, factor id), so results do not depend on factor
declaration order and factors can be sampled in parallel.

A factor's mixture draw is one gather-and-block kernel, ``_add_mixture``.
It first draws every expert index, a block at a time, into a
full-length array of the smallest unsigned type that holds them: one
byte per sample up to 256 experts.  Each expert's triangle is split
into two pieces, left and right of its mode, with one entry per piece
in a few small parameter arrays.  The kernel walks the samples in
blocks of ``_BLOCK``.  In each block it draws the block's uniforms,
picks every sample's piece from its expert index and uniform, gathers
that piece's parameters, evaluates the piece's inverse CDF, scales it
by the level weight and adds it into the running sum in place.
Gathering, instead of masking the draws expert by expert, avoids the
mispredicted branches of boolean compress and scatter.  Each range
allocates its block buffers once: uniforms (float64, reused as scratch
once read), piece indices (intp), piece sides (bool) and results
(float64), 25 bytes per block element.  So a prediction holds one
full-length float64 array, its samples, plus the one-byte indices of
the factor being drawn.

The blocks of one factor are cut into one contiguous range per CPU
(never more ranges than blocks).  Both passes of a factor, its indices
and then its uniforms, run on these ranges: the calling thread draws
the first range; each other range runs on a thread of its own that the
pass starts and joins, since numpy releases the interpreter lock in the
random fills and the ufuncs.  The draws stay those of one full-length
``integers(0, k, n)`` call followed by one full-length ``random(n)``.

The indices are drawn block by block, with the values, and the end
state, of one full-length ``integers(0, k, n)`` call: bounded integers
below 2**32 take the same 32-bit Lemire draws whatever the dtype.  A
Lemire draw rejects a value only when its product's low word falls
below 2**32 mod k, which is 0 when k is a power of two and has
probability below k / 2**32 otherwise.  With a power-of-two k, each
index is the top bits of one raw 32-bit half, low half first, so the
blocks read 64-bit outputs in bulk with ``random_raw`` and carry the
spare half themselves: a held spare gives the first index, an odd block
hands its last high half to the next one, and the generator is left
holding the spare half as numpy leaves it.  Every other k draws each
block as int32 with ``integers``, and the generator keeps its spare
half between calls.  Without a rejection each index takes one
32-bit half of a 64-bit output, so every range but the first starts
from a guess: a copy of the generator advanced by ``start // 2``
outputs (by none for one expert, for which numpy draws nothing).  After
the join, each range's end state is compared with the next range's
guess.  At the first mismatch the indices from that range on are drawn
again, serially, from where the range before really ended.  A wrong
guess costs time, never a bit.  The factor's generator is then set to
where the whole index draw ended.

``Generator.random`` turns exactly one 64-bit PCG64 output into one
double and buffers nothing, so uniform ``i`` is output ``i`` after the
index draw, whichever call produces it.  The first range draws its
uniforms from the factor's own generator; every other range copies that
generator's state and calls ``PCG64.advance(start)``, where ``start`` is
the range's first sample.  Each element is still summed over the
factors in the same order, so every sample keeps its bits, whatever the
block size and the number of ranges.

numpy is imported inside the functions that draw or hold samples, so
the analytic-mean path, and every command built on it alone, starts
without loading numpy.
"""

from __future__ import annotations

import math
import os
import threading
from typing import TYPE_CHECKING, Mapping, Sequence

from .errors import (
    EmptyDistributionError,
    MissingLevelError,
    MissingQuantificationError,
)
from .model import ExpertTriangle, InfluenceFactor, Target, _Record

if TYPE_CHECKING:
    import numpy as np

POINT_ANALYTIC_MEAN = "analytic-mean"
POINT_MC_MEDIAN = "mc-median"


class EngineOptions(_Record):
    """Sampling configuration shared by calibration and prediction."""

    n_samples: int = 10_000
    seed: int = 0
    point: str = POINT_ANALYTIC_MEAN

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be an integer >= 1, got {self.n_samples}")
        if self.point not in (POINT_ANALYTIC_MEAN, POINT_MC_MEDIAN):
            raise ValueError(f"unknown point strategy {self.point!r}")


class IncreaseResult(_Record):
    """DDIF or EIF distribution for one release characterization.

    ``samples`` is a read-only float64 array in draw order.
    """

    target: Target
    samples: np.ndarray
    analytic_mean: float
    point: float


# Samples per kernel block.  Each of a block's ~19 numpy calls hands the
# interpreter lock between the ranges' threads, so fewer blocks pay.  A
# predict_bigmc unit (10**6 samples, 2-CPU Xeon) took 0.244 s at 2**13,
# 0.181 s at 2**14, 0.159 s at 2**15 and 0.163 s at 2**16 (+1.8 MB RSS).
_BLOCK = 1 << 15


def _piece_table(triangles: Sequence[ExpertTriangle]) -> np.ndarray:
    """Parameters of the two pieces of each triangle, for ``_inverse_cdf``.

    Returns six arrays: split, offset, width, span, sign and base.  Entry
    2j belongs to the left piece of triangle j, entry 2j + 1 to its
    right piece.  A piece is evaluated as

        x = base + sign * sqrt(|offset - u| * width * span)

    which is a + sqrt(u (b - a) (m - a)) on the left piece and
    b - sqrt((1 - u) (b - a) (b - m)) on the right one, bit for bit:
    |0 - u| == u for u >= 0, and b + (-s) == b - s in IEEE arithmetic.
    u takes the right piece when u >= split = (m - a) / (b - a).  A
    degenerate triangle (b == a) gets a split above 1, so every u in
    [0, 1] takes its left piece, which evaluates to a.
    """
    import numpy as np

    rows = []
    for tri in triangles:
        a, m, b = tri.minimum, tri.most_likely, tri.maximum
        c = (m - a) / (b - a) if b > a else 2.0
        rows.append((c, 0.0, b - a, m - a, 1.0, a))
        rows.append((c, 1.0, b - a, b - m, -1.0, b))
    return np.ascontiguousarray(np.array(rows).T)


def _buffers(shape) -> tuple:
    """Work arrays of ``_inverse_cdf``: piece, side and result."""
    import numpy as np

    return np.empty(shape, np.intp), np.empty(shape, bool), np.empty(shape)


def _inverse_cdf(table: np.ndarray, idx, u, buffers):
    """Inverse CDF of triangle ``idx`` at ``u`` in [0, 1], per element.

    Works in ``buffers`` (from ``_buffers``, of ``u``'s shape) and in
    ``u`` itself, which it overwrites, and returns its result array.
    """
    import numpy as np

    split, offset, width, span, sign, base = table
    piece, side, out = buffers
    # Widen before doubling: a uint8 index doubled in uint8 wraps at 128.
    # Pieces are in range by construction; mode="raise" would copy ``out``.
    np.multiply(idx, 2, out=piece, dtype=np.intp)
    np.greater_equal(u, np.take(split, piece, out=out, mode="clip"), out=side)
    piece += side
    # The last read of u: from here on it is the scratch array.
    scratch = np.subtract(np.take(offset, piece, out=out, mode="clip"), u, out=u)
    np.abs(scratch, out=scratch)
    scratch *= np.take(width, piece, out=out, mode="clip")
    scratch *= np.take(span, piece, out=out, mode="clip")
    np.sqrt(scratch, out=scratch)
    np.multiply(np.take(sign, piece, out=out, mode="clip"), scratch, out=scratch)
    return np.add(np.take(base, piece, out=out, mode="clip"), scratch, out=out)


def triangle_inverse_cdf(tri: ExpertTriangle, u):
    """Inverse CDF of the triangular distribution at u (scalar or array).

    ``u`` is clipped to [0, 1].
    """
    import numpy as np

    # np.array: clipping a 0-d array gives a scalar, which cannot be written.
    u = np.array(np.clip(np.asarray(u, dtype=float), 0.0, 1.0))
    out = _inverse_cdf(_piece_table([tri]), np.zeros(u.shape, dtype=np.intp), u,
                       _buffers(u.shape))
    return out if u.ndim else float(out)


def triangle_variance(tri: ExpertTriangle) -> float:
    a, m, b = tri.minimum, tri.most_likely, tri.maximum
    return (a * a + m * m + b * b - a * m - a * b - m * b) / 18.0


def _factor_rng(seed: int, target: Target, factor_id: str) -> np.random.Generator:
    # Stable across runs and processes: the stream depends only on
    # (seed, target, factor_id), never on iteration order.  PCG64 is
    # named, not left to default_rng, because _add_mixture advances it.
    import hashlib

    import numpy as np

    digest = hashlib.sha256(f"{target.value}:{factor_id}".encode()).digest()
    key = int.from_bytes(digest[:16], "big")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, key])))


def _cpus() -> int:
    """CPUs this process may run on: the most ranges one draw is cut into."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _advanced(rng: np.random.Generator, outputs: int) -> np.random.Generator:
    """A new generator ``outputs`` 64-bit outputs ahead of ``rng``.

    At 0 outputs it is a plain copy, spare 32-bit half included.
    """
    import numpy as np

    bits = np.random.PCG64()
    bits.state = rng.bit_generator.state
    return np.random.Generator(bits.advance(outputs) if outputs else bits)


def _index_start(rng: np.random.Generator, k: int, start: int) -> np.random.Generator:
    """Guess where ``rng`` stands after ``start`` indices below ``k``.

    The guess holds when ``rng`` holds no spare 32-bit half, ``start``
    is even and no draw was rejected: each index then takes one 32-bit
    half of a 64-bit output.  numpy draws nothing for a single expert.
    """
    return _advanced(rng, start // 2 if k > 1 else 0)


def _same_state(a: dict, b: dict) -> bool:
    """Whether two PCG64 states give the same draws from here on."""
    # advance() zeroes a spent spare half, so only a held spare counts.
    return (a["state"] == b["state"] and a["has_uint32"] == b["has_uint32"]
            and (not a["has_uint32"] or a["uinteger"] == b["uinteger"]))


def _draw_indices(idx: np.ndarray, k: int, gen: np.random.Generator,
                  lo: int, hi: int) -> None:
    """Fill ``idx[lo:hi]`` with expert indices below ``k``, block by block.

    The values, and ``gen``'s end state, are those of one
    ``gen.integers(0, k, hi - lo)`` call.
    """
    import numpy as np

    if k < 2 or k & (k - 1):
        for start in range(lo, hi, _BLOCK):
            stop = min(start + _BLOCK, hi)
            idx[start:stop] = gen.integers(0, k, size=stop - start, dtype=np.int32)
        return
    # Lemire's index below k = 2**b is the top b bits of a 32-bit half,
    # and it is never rejected.  numpy takes an output's low half first
    # and holds its high half as the spare for the next draw; the
    # little-endian view puts each low half first on any host.
    shift = 33 - k.bit_length()
    bits = gen.bit_generator
    state = bits.state
    spare = state["uinteger"] if state["has_uint32"] else None
    high = state["uinteger"]
    for start in range(lo, hi, _BLOCK):
        stop = min(start + _BLOCK, hi)
        if spare is not None:
            idx[start] = spare >> shift
            start, spare = start + 1, None
        if start == stop:
            continue
        raw = bits.random_raw(-(-(stop - start) // 2))
        halves = raw.astype("<u8", copy=False).view("<u4")
        np.right_shift(halves[:stop - start], shift, out=idx[start:stop])
        high = int(halves[-1])
        if (stop - start) % 2:
            spare = high
    state = bits.state
    state["has_uint32"], state["uinteger"] = int(spare is not None), high
    bits.state = state


def _run_ranges(run, jobs: list) -> None:
    """``run(*job)`` for every job: the first on the calling thread, each
    other one on a thread of its own.

    Returns, or raises the first error, only once every range has ended.
    """
    errors = []

    def guarded(*job):
        try:
            run(*job)
        except BaseException as exc:  # raised once every range has ended
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=job) for job in jobs[1:]]
    try:
        for thread in threads:
            thread.start()
        guarded(*jobs[0])
    finally:
        for thread in threads:
            if thread.is_alive():  # one that failed to start never is
                thread.join()  # no range may write after return
    if errors:
        raise errors[0]


def _add_mixture(
    samples: np.ndarray,
    triangles: Sequence[ExpertTriangle],
    weight: float,
    rng: np.random.Generator,
) -> None:
    """samples += weight * (one equal-weight expert-mixture draw each).

    ``rng`` must be PCG64-backed.  The draws are those of
    ``rng.integers(0, k, n)`` followed by ``rng.random(n)``.
    """
    import numpy as np

    n, k = samples.size, len(triangles)
    blocks = -(-n // _BLOCK)
    ranges = min(_cpus(), blocks)
    starts = [blocks * r // ranges * _BLOCK for r in range(ranges)]
    stops = starts[1:] + [n]

    idx = np.empty(n, np.min_scalar_type(k - 1))
    gens = [rng] + [_index_start(rng, k, start) for start in starts[1:]]
    guesses = [gen.bit_generator.state for gen in gens[1:]]
    _run_ranges(_draw_indices, [(idx, k, *job) for job in zip(gens, starts, stops)])
    end = gens[-1]
    for r, guess in enumerate(guesses, 1):
        if not _same_state(gens[r - 1].bit_generator.state, guess):
            # Range r started from a wrong guess: redraw from where r - 1 ended.
            end = gens[r - 1]
            _draw_indices(idx, k, end, starts[r], n)
            break
    rng.bit_generator.state = end.bit_generator.state

    table = _piece_table(triangles)
    # Every range's generator is set up before the first range draws.
    gens = [rng] + [_advanced(rng, start) for start in starts[1:]]

    def run(gen, lo, hi):
        length = min(_BLOCK, hi - lo)
        u, buffers = np.empty(length), _buffers(length)
        for start in range(lo, hi, _BLOCK):
            size = min(_BLOCK, hi - start)
            gen.random(out=u[:size])
            x = _inverse_cdf(table, idx[start:start + size], u[:size],
                             [b[:size] for b in buffers])
            x *= weight
            samples[start:start + size] += x

    _run_ranges(run, list(zip(gens, starts, stops)))


def _terms(
    factors: Sequence[InfluenceFactor],
    triangles: Sequence[ExpertTriangle],
    levels: Mapping[str, int],
    target: Target,
) -> list[tuple[str, float, list[ExpertTriangle]]]:
    """(factor id, level / 3, triangles in expert order), in factor-id order."""
    grouped: dict[str, list[ExpertTriangle]] = {f.id: [] for f in factors}
    for tri in triangles:
        if tri.target == target and tri.factor_id in grouped:
            grouped[tri.factor_id].append(tri)
    for fid, tris in grouped.items():
        # Expert order, not file order, decides each expert's mixture index.
        tris.sort(key=lambda t: t.expert)
        if not tris:
            raise MissingQuantificationError(
                f"factor {fid!r} has no impact estimate for target "
                f"{target.value!r}"
            )
    terms = []
    for factor in sorted(factors, key=lambda f: f.id):
        if factor.id not in levels:
            raise MissingLevelError(f"no level for factor {factor.id!r}")
        terms.append((factor.id, levels[factor.id] / 3.0, grouped[factor.id]))
    return terms


def analytic_mean_increase(
    factors: Sequence[InfluenceFactor],
    triangles: Sequence[ExpertTriangle],
    levels: Mapping[str, int],
    target: Target,
) -> float:
    """Deterministic companion of the Monte Carlo path.

    Sum over active factors of (level/3) times the mean triangle mean
    (a+m+b)/3, averaged uniformly over the factor's experts.
    """
    total = 0.0
    for _, weight, tris in _terms(factors, triangles, levels, target):
        total += weight * (sum(t.mean for t in tris) / len(tris))
    return total


def _draw_increase(
    factors: Sequence[InfluenceFactor],
    triangles: Sequence[ExpertTriangle],
    levels: Mapping[str, int],
    target: Target,
    options: EngineOptions,
) -> np.ndarray:
    """Fresh, writable increase samples in draw order.

    Each sample is the sum over active factors of (level/3) times an
    independent expert-mixture draw.
    """
    import numpy as np

    samples = np.zeros(options.n_samples)
    for fid, weight, tris in _terms(factors, triangles, levels, target):
        if weight == 0.0:
            continue  # own RNG stream, skipping cannot shift other factors
        _add_mixture(samples, tris, weight, _factor_rng(options.seed, target, fid))
    return samples


def _median_sample(samples: np.ndarray) -> float:
    """The nearest-rank median of ``empirical_quantile``, by selection.

    ``samples`` need not be sorted and is left as it is.
    """
    import numpy as np

    k = math.ceil(0.5 * samples.size) - 1
    return float(np.partition(samples, k)[k])


def increase_distribution(
    factors: Sequence[InfluenceFactor],
    triangles: Sequence[ExpertTriangle],
    levels: Mapping[str, int],
    target: Target,
    options: EngineOptions = EngineOptions(),
) -> IncreaseResult:
    """Build the DDIF or EIF distribution for one characterization.

    Each sample is the sum over active factors of (level/3) times an
    independent expert-mixture draw.  Identical (inputs, seed, n) yield
    bit-identical sample lists.
    """
    samples = _draw_increase(factors, triangles, levels, target, options)
    mean = analytic_mean_increase(factors, triangles, levels, target)
    if options.point == POINT_ANALYTIC_MEAN:
        point = mean
    else:
        point = _median_sample(samples)
    samples.setflags(write=False)
    return IncreaseResult(
        target=target, samples=samples, analytic_mean=mean, point=point
    )


def empirical_quantile(sorted_samples: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-quantile, ``p`` in [0, 1], of ascending-sorted samples."""
    if not 0 <= p <= 1:  # NaN too
        raise ValueError(f"p must be in [0, 1], got {p!r}")
    n = len(sorted_samples)
    if n == 0:
        raise EmptyDistributionError("no samples")
    return float(sorted_samples[max(math.ceil(p * n) - 1, 0)])
