"""Finite discrete entry laws and symmetric matrix sampling.

A random symmetric matrix M of size n is filled with i.i.d. draws from a
finite discrete law on the upper triangle (diagonal included) and mirrored
below.  The law must be centered.  Its moments are computed on demand by
``moment``; each exact path-sum call tabulates the orders 0..2s once.
The normalized companion matrix is A = M / sqrt(n).

Randomness: numpy's default PCG64 bit generator.  Every Monte Carlo trial t
derives its own seed as ``seed + t``, so results never depend on how the
trials are chunked.  Trial t's stream is that of
``np.random.default_rng(seed + t)``.  Every trial kernel, and the gluing
suite's random walks, take those streams from ``_trial_streams``, the one
place the ``seed + t`` rule lives, which
hashes the seeds of each run in vectorised passes and lets each trial's PCG64
seed itself from its hashed words.  The public ``sample_symmetric_matrix``
calls ``default_rng(seed)`` directly and stays the oracle.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple

RNG_ALGORITHM = "numpy-PCG64"
DENSE_EIG_CUTOFF = 64  # spectral solves go dense below this n, Lanczos from it up; the CLI reads it too

_SUM_TOL = 1e-12
_MEAN_TOL = 1e-12

# numpy's SeedSequence (pool size 4) hashing constants
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_ONE_WORD_SEEDS = 1 << 32  # a seed below this is one entropy word
_SEED_BLOCK = 1 << 10  # seeds hashed per vectorised pass
_MAP_BLOCK = 1 << 16  # uniforms mapped to support points per block


class DistributionError(ValueError):
    """Raised when a proposed entry law violates the model assumptions."""


class EigensolverError(RuntimeError):
    """An eigenvalue solve failed.

    Raised by ``tml.spectral``; defined here so the CLI can catch it without
    loading numpy."""


def _check_at_least(least, **values) -> None:
    """Refuse, by name, a value below ``least``: the one wording of every argument floor."""
    for name, value in values.items():
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")


def _check_positive(**scales: float) -> None:
    """Reject a scale argument whose log a bound would take, by name, unless
    it is positive and finite."""
    for name, x in scales.items():
        if not x > 0.0:
            raise ValueError(f"{name} must be positive, got {x!r}")
    _check_finite(**scales)


def _check_finite(**values: float) -> None:
    """Reject a NaN or infinite argument a bound would carry into its log, by name."""
    for name, x in values.items():
        if not math.isfinite(x):
            raise ValueError(f"{name} must be finite, got {x!r}")


class EntryDistribution(
    namedtuple("EntryDistribution", "support probabilities sigma bound_K name", defaults=("custom",))
):
    """A centered finite discrete law; ``moment`` computes its moments.

    ``bound_K`` is max |x| over the support, so |E[x^k]| <= bound_K**k.
    """

    __slots__ = ()


class MatrixSample(namedtuple("MatrixSample", "n entries seed")):
    """One sampled symmetric matrix with its generating seed."""

    __slots__ = ()

    @property
    def normalized_view(self) -> np.ndarray:
        """entries / sqrt(n), the scale on which the spectrum lives on O(1)."""
        return self.entries / math.sqrt(self.n)


def _physical_memory_bytes() -> int | None:
    """Physical memory in bytes (None if unknown), read by the spectral and Dyck size guards."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def make_distribution(
    support: list[float] | tuple[float, ...],
    probabilities: list[float] | tuple[float, ...],
    name: str = "custom",
) -> EntryDistribution:
    """Validate and freeze a centered finite discrete law.

    Rejects mismatched lengths, a non-finite support point, probabilities
    outside (0, 1], probability mass not summing to 1 (tolerance 1e-12), a
    nonzero mean (tolerance 1e-12 times the largest |support point|, so the
    check is scale-free), and a variance that is zero or past the float range.
    """
    xs = tuple(float(x) for x in support)
    ps = tuple(float(p) for p in probabilities)
    if len(xs) != len(ps):
        raise DistributionError("support and probabilities must have equal length")
    if len(xs) < 1:
        raise DistributionError("empty support")
    if len(set(xs)) != len(xs):
        raise DistributionError("support points must be distinct")
    for x in xs:
        if not math.isfinite(x):
            raise DistributionError(f"support point {x!r} is not finite")
    for p in ps:
        if not (0.0 < p <= 1.0):
            raise DistributionError(f"probability {p!r} outside (0, 1]")
    if abs(sum(ps) - 1.0) > _SUM_TOL:
        raise DistributionError(f"probabilities sum to {sum(ps)!r}, not 1")
    bound = max(abs(x) for x in xs)
    mean = sum(p * x for p, x in zip(ps, xs))
    if abs(mean) > _MEAN_TOL * bound:
        raise DistributionError(f"law has mean {mean!r}, must be centered")
    var = sum(p * x * x for p, x in zip(ps, xs))
    if var <= 0.0:
        raise DistributionError("law has zero variance")
    if math.isinf(var):
        raise DistributionError("law variance overflows a float")
    return EntryDistribution(
        support=xs,
        probabilities=ps,
        sigma=math.sqrt(var),
        bound_K=bound,
        name=name,
    )


def moment(dist: EntryDistribution, k: int) -> float:
    """E[x^k], summed over the support on each call: the one definition
    of a moment.

    Raises DistributionError when a power x^k leaves the float range.
    """
    _check_at_least(0, k=k)
    try:
        return sum(p * x**k for p, x in zip(dist.probabilities, dist.support))
    except OverflowError:
        raise DistributionError(f"moment of order {k} overflows a float") from None


def rademacher() -> EntryDistribution:
    """Fair signs: support [-1, 1], sigma = 1, all odd moments 0."""
    return make_distribution([-1.0, 1.0], [0.5, 0.5], name="rademacher")


def skew12() -> EntryDistribution:
    """Asymmetric two-point law on [-1, 2]: sigma^2 = 2, third moment 2."""
    return make_distribution([-1.0, 2.0], [2.0 / 3.0, 1.0 / 3.0], name="skew12")


_PRESETS = {"rademacher": rademacher, "skew12": skew12}


def parse_distribution(token: str) -> EntryDistribution:
    """Parse a CLI distribution token.

    Accepts a preset name ("rademacher", "skew12") or an inline form
    "support=-1,2;probs=0.5,0.5".  A ``;``-chunk that is not ``support=`` or
    ``probs=``, or repeats one of them, is refused by name.
    """
    token = token.strip()
    if token in _PRESETS:
        return _PRESETS[token]()
    expected = "expected a preset name or 'support=...;probs=...'"
    parts: dict[str, str] = {}
    for chunk in token.split(";"):
        key, sep, value = chunk.partition("=")
        if not sep or key not in ("support", "probs") or key in parts:
            raise DistributionError(f"bad chunk {chunk!r} in distribution {token!r}: {expected}")
        parts[key] = value
    if len(parts) < 2:
        raise DistributionError(f"unknown distribution {token!r}: {expected}")
    try:
        xs = [float(v) for v in parts["support"].split(",") if v != ""]
        ps = [float(v) for v in parts["probs"].split(",") if v != ""]
    except ValueError as exc:
        raise DistributionError(f"bad distribution token {token!r}: {exc}") from exc
    return make_distribution(xs, ps)


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for every s of a
    uint32 array, as one (len(seeds), 4) uint64 array: numpy's pool mix of a
    one-word entropy and its output hash, in wrapping uint32 arithmetic."""
    import numpy as np

    def hasher(const: int, mult: int):
        def hashmix(value):
            nonlocal const
            value = value ^ np.uint32(const)
            const = const * mult & _MASK32
            value = value * np.uint32(const)
            return value ^ value >> np.uint32(16)

        return hashmix

    mix = hasher(_INIT_A, _MULT_A)
    zeros = np.zeros_like(seeds)
    pool = [mix(seeds), mix(zeros), mix(zeros), mix(zeros)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                value = np.uint32(_MIX_MULT_L) * pool[dst] - np.uint32(_MIX_MULT_R) * mix(pool[src])
                pool[dst] = value ^ value >> np.uint32(16)
    out = hasher(_INIT_B, _MULT_B)
    words = np.stack([out(pool[i % 4]) for i in range(8)], axis=1)
    return words.astype("<u4").view("<u8").astype(np.uint64)


def _trial_streams(seed: int, count: int):
    """Yield, for j = 0..count-1, a generator at the start of the stream of
    ``np.random.default_rng(seed + j)``.

    Seeds in [0, 2^32) are hashed ``_SEED_BLOCK`` at a time by
    ``_seed_words``, and each trial's PCG64 takes its row of words through
    numpy's ``ISeedSequence`` hook in place of a fresh SeedSequence.  Any
    other seed hashes a longer entropy word list, so it gets
    ``Generator(PCG64(seed + j))``, which refuses a negative one; a run may
    cross 2^32.
    """
    import numpy as np
    from numpy.random.bit_generator import ISeedSequence

    class Hashed(ISeedSequence):
        """One trial's ``SeedSequence(seed).generate_state(4, np.uint64)``."""

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    s, stop = seed, seed + count
    while s < stop:
        if 0 <= s < _ONE_WORD_SEEDS:
            end = min(stop, _ONE_WORD_SEEDS, s + _SEED_BLOCK)
            seeds = map(Hashed, _seed_words(np.arange(s, end, dtype=np.uint32)))
        else:
            end, seeds = s + 1, [s]
        for seed_seq in seeds:
            yield np.random.Generator(np.random.PCG64(seed_seq))
        s = end


def map_to_support(dist: EntryDistribution, u: np.ndarray, support=None) -> None:
    """Overwrite each uniform draw in ``u`` (a float64 array of any shape, or a
    view of one) with the support point it selects: the k-th, where
    cum[k-1] <= u < cum[k] over the cumulative probabilities.  ``support``
    gives the value written for each point, ``dist.support`` by default; the
    trial kernel passes it scaled by 1/sqrt(n).

    The draws are mapped in blocks of at most ``_MAP_BLOCK``, so no index
    array as long as ``u`` is held.  A two-point law takes one comparison
    with cum[0] per draw and writes the bit pattern of the point it selects
    without a branch; any other law takes ``searchsorted``.  Applied to the
    first n(n+1)/2 uniforms of a trial's PCG64 stream, this is the one
    definition of the sampling stream; every symmetric-matrix sampler in
    the package goes through it.
    """
    import numpy as np

    cum = np.cumsum(np.asarray(dist.probabilities))
    cum[-1] = 1.0  # guard the top bin against rounding
    values = np.array(dist.support if support is None else support, dtype=float)
    low, high = values.view(np.uint64)[:2]
    flags = ["external_loop", "buffered", "zerosize_ok"]
    with np.nditer(u, flags=flags, op_flags=[["readwrite"]], buffersize=_MAP_BLOCK) as blocks:
        for block in blocks:
            if len(values) == 2:  # u < 1 = cum[1], so cum[0] alone splits the draws
                bits = block.view(np.uint64)
                np.copyto(bits, block >= cum[0])  # 1 where the draw selects values[1]
                bits *= low ^ high
                bits ^= low
            else:
                block[...] = values[np.searchsorted(cum, block, side="right")]


def sample_symmetric_matrix(dist: EntryDistribution, n: int, seed: int) -> MatrixSample:
    """Draw one symmetric n x n matrix with i.i.d. upper-triangle entries.

    The upper triangle (diagonal included) is filled in row-major order from
    the first n(n+1)/2 uniforms of ``np.random.default_rng(seed)``; the lower
    triangle mirrors it.  This is the oracle the trial kernels are tested
    against.
    """
    _check_at_least(1, n=n)
    import numpy as np

    vals = np.random.default_rng(seed).random(n * (n + 1) // 2)
    map_to_support(dist, vals)
    a = np.zeros((n, n))
    iu = np.triu_indices(n)
    a[iu] = vals
    a.T[iu] = vals
    return MatrixSample(n=n, entries=a, seed=seed)
