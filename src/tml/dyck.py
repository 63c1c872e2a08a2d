"""Dyck paths and the window functionals driving the moment growth rates.

A Dyck path of half-length s is a sequence of 2s steps +1/-1 whose running
level x(t) starts and ends at 0 and never dips below 0.  The number of such
paths is the s-th Catalan number, which is also the leading coefficient of
Wigner-type trace moments.

Two window statistics matter downstream:

* the descent window r1(t1): the largest r such that x stays at or above
  x(t1) on the closed range [t1, t1 + r] (capped at 2s - t1);
* the window count w(t1): the number of lengths l2 in [1, 2s - t1] such
  that x stays at or above x(t1) on the half-open range [t1, t1 + l2).
  Summing w over all t1 gives the K functional; its expectation under the
  uniform measure grows like (2s)^(3/2).

The half-open convention for w is what makes the s = 1 path +- score
K = 3 (2 window lengths fit at t1 = 0, one at t1 = 1, none at t1 = 2);
r1 keeps the closed-range reading, and w(t1) = min(r1(t1) + 1, 2s - t1)
links the two, which doubles as an independent route for testing.

Both statistics read one stack sweep, next_below[t] = the first instant
after t whose level drops below x(t) (2s + 1 if none): w(t) =
min(next_below[t] - t, 2s - t), and x stays at or above x(t1) on the closed
window [t1, t1 + s] iff next_below[t1] > t1 + s (the stay-above count).
Means sum the integer statistic exactly over ``enumerate_dyck`` or over
``_sampled_paths`` (trial t uses seed + t) and divide once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

ENUMERATION_LIMIT = 14
EXACT_EXPECTATION_LIMIT = 12


class DyckSizeError(ValueError):
    """Raised when an exhaustive Dyck computation would be too large."""


@dataclass(frozen=True)
class DyckPath:
    """A balanced nonnegative step sequence; steps are +1 or -1."""

    steps: tuple[int, ...]

    def __post_init__(self) -> None:
        level = 0
        for st in self.steps:
            if st not in (1, -1):
                raise ValueError("steps must be +1 or -1")
            level += st
            if level < 0:
                raise ValueError("level dips below zero")
        if level != 0:
            raise ValueError("path does not return to zero")

    @property
    def half_length(self) -> int:
        return len(self.steps) // 2

    def levels(self) -> list[int]:
        """x(0..2s) including both endpoints."""
        return [0, *itertools.accumulate(self.steps)]


def catalan(s: int) -> int:
    """(2s)! / (s! (s+1)!) as an exact integer."""
    if s < 0:
        raise ValueError("negative order")
    return math.comb(2 * s, s) // (s + 1)


def enumerate_dyck(s: int):
    """Generate every Dyck path of half-length s exactly once, lexicographic
    with +1 ordered before -1."""
    if s < 0:
        raise ValueError("negative order")
    if s > ENUMERATION_LIMIT:
        raise DyckSizeError(f"enumeration supports s <= {ENUMERATION_LIMIT}")
    steps: list[int] = []

    def rec(level: int, remaining: int):
        if remaining == 0:
            yield DyckPath(steps=tuple(steps))
            return
        if remaining > level:  # room to go up
            steps.append(1)
            yield from rec(level + 1, remaining - 1)
            steps.pop()
        if level > 0:
            steps.append(-1)
            yield from rec(level - 1, remaining - 1)
            steps.pop()

    yield from rec(0, 2 * s)


def sample_dyck(s: int, seed: int) -> DyckPath:
    """Uniform Dyck path by the rotation trick.

    Shuffle s up-steps and s+1 down-steps; exactly one cyclic rotation of
    the result is nonnegative until its final step.  That rotation starts
    right after the first position where the prefix sum attains its
    minimum; dropping the final down-step leaves a uniform Dyck path.
    """
    if s < 1:
        raise ValueError("s must be at least 1")
    rng = np.random.default_rng(seed)
    steps = np.concatenate([np.ones(s, dtype=np.int64), -np.ones(s + 1, dtype=np.int64)])
    rng.shuffle(steps)
    prefix = np.cumsum(steps)
    m = int(np.argmin(prefix))  # first index attaining the minimum
    rotated = np.concatenate([steps[m + 1 :], steps[: m + 1]])
    return DyckPath(steps=tuple(int(v) for v in rotated[:-1]))


# ---------- window statistics ----------


def descent_window(x: DyckPath, t1: int) -> int:
    """Largest r with x(t) >= x(t1) for every t in [t1, t1 + r].

    Capped at 2s - t1; 0 when the very next level already dips below x(t1).
    """
    levels = x.levels()
    top = len(levels) - 1
    if not (0 <= t1 <= top):
        raise ValueError(f"t1 must lie in [0, {top}]")
    base = levels[t1]
    r = 0
    while t1 + r + 1 <= top and levels[t1 + r + 1] >= base:
        r += 1
    return r


def _next_below(levels: list[int]) -> list[int]:
    """For every t, the first instant after t whose level drops below
    levels[t], or len(levels) when there is none; one stack sweep."""
    out = [len(levels)] * len(levels)
    stack: list[int] = []
    for t, level in enumerate(levels):
        while stack and level < levels[stack[-1]]:
            out[stack.pop()] = t
        stack.append(t)
    return out


def _window_counts(levels: list[int]) -> list[int]:
    """w(t) = min(next_below[t] - t, 2s - t) for every t."""
    top = len(levels) - 1
    return [min(nb - t, top - t) for t, nb in enumerate(_next_below(levels))]


def k_functional(x: DyckPath) -> int:
    """Sum over all t1 of the half-open window count w(t1).

    Equal to the double sum over (t1, l2) of the indicator that x stays at
    or above x(t1) on [t1, t1 + l2); always at least 2s because the t1 = 0
    term alone contributes 2s.
    """
    return int(sum(_window_counts(x.levels())))


def k_functional_tensor(x: DyckPath, I: int) -> int:
    """Sum over ordered instants 0 < t_1 < ... < t_I < 2s of the product
    of window counts w(t_j).

    This is the I-th elementary symmetric function of the interior window
    counts, computed by the usual one-pass recurrence with exact integers.
    Returns 0 when I exceeds the number of interior instants.
    """
    if I < 1:
        raise ValueError("I must be at least 1")
    values = _window_counts(x.levels())[1:-1]  # strict interior instants
    e = [1] + [0] * I
    for v in values:
        for j in range(min(I, len(values)), 0, -1):
            e[j] += v * e[j - 1]
    return e[I]


def _stay_above_count(x: DyckPath) -> int:
    """Number of t1 in [0, s] with x(t) >= x(t1) on the closed [t1, t1+s],
    i.e. with next_below[t1] > t1 + s."""
    s = x.half_length
    next_below = _next_below(x.levels())
    return sum(next_below[t1] > t1 + s for t1 in range(s + 1))


# ---------- expectations under the uniform measure ----------


def _k_statistic(I: int):
    """The per-path statistic whose mean is E[K] (I = 1) or E[K tensor I]."""
    return k_functional if I == 1 else lambda x: k_functional_tensor(x, I)


def _all_paths(s: int):
    """Every path of half-length s, for the exact totals (s <= 12)."""
    if s > EXACT_EXPECTATION_LIMIT:
        raise DyckSizeError(f"exact totals support s <= {EXACT_EXPECTATION_LIMIT}")
    return enumerate_dyck(s)


def _sampled_paths(s: int, trials: int, seed: int):
    """``trials`` uniform paths of half-length s; trial t uses seed + t."""
    if trials < 1:
        raise ValueError("trials must be positive")
    return (sample_dyck(s, seed + t) for t in range(trials))


def exact_k_functional_total(s: int, I: int = 1) -> int:
    """Exact integer sum of the K functional (I = 1) or its ordered-tuple
    tensor variant (I >= 2) over every Dyck path of half-length s."""
    return sum(map(_k_statistic(I), _all_paths(s)))


def exact_stay_above_total(s: int) -> int:
    """Exact integer sum of the full-window stay-above count over all paths."""
    return sum(map(_stay_above_count, _all_paths(s)))


def _mean(statistic, s: int, mode: str, trials: int, seed: int) -> float:
    """Mean of an integer path statistic: over every path (mode "exact") or
    over ``trials`` sampled paths (mode "mc"), summed exactly."""
    if mode == "exact":
        return sum(map(statistic, _all_paths(s))) / catalan(s)
    if mode != "mc":
        raise ValueError(f"unknown mode {mode!r}")
    return sum(map(statistic, _sampled_paths(s, trials, seed))) / trials


def expected_k_functional(
    s: int,
    I: int = 1,
    mode: str = "exact",
    trials: int = 10000,
    seed: int = 0,
) -> float:
    """E[K] (I = 1) or E[K tensor I] (I >= 2) under the uniform measure.

    mode "exact" enumerates every path (s <= 12); mode "mc" averages over
    ``trials`` sampled paths with derived seeds seed + t.
    """
    return _mean(_k_statistic(I), s, mode, trials, seed)


def stay_above_full_window_expectation(
    s: int,
    mode: str = "exact",
    trials: int = 10000,
    seed: int = 0,
) -> float:
    """E of the number of t1 <= s such that x stays at or above x(t1)
    throughout the closed window [t1, t1 + s].

    Grows like 2 sqrt(s / pi) for large s.
    """
    return _mean(_stay_above_count, s, mode, trials, seed)


# ---------- auxiliary asymptotic quantities ----------


def beta_sum(I: int) -> float:
    """Sum over k < I of B(3k/2 + 1/2, 3(I-1-k)/2 + 1/2) via log-gamma.

    The k-th term is the Beta function of the two half-integer arguments;
    beta_sum(1) = pi and beta_sum(2) = 8/3.
    """
    if I < 1:
        raise ValueError("I must be at least 1")
    total = 0.0
    for k in range(I):
        a = 1.5 * k + 0.5
        b = 1.5 * (I - 1 - k) + 0.5
        total += math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
    return total


@dataclass(frozen=True)
class MaxLevelTable:
    """Empirical distribution of the maximum level, with a diagnostic
    Gaussian-decay fit P(max = k) ~ c1 * exp(-c2 * k^2 / s)."""

    s: int
    trials: int
    rows: tuple[tuple[int, float], ...]
    fit_c1: float | None
    fit_c2: float | None


def max_level_tail(s: int, trials: int, seed: int) -> MaxLevelTable:
    """Sample ``trials`` uniform paths and tabulate P(max level = k).

    Rows cover every k in [1, s].  The fit runs over rows with at least 10
    observations; it is diagnostic only.
    """
    maxima = [max(x.levels()) for x in _sampled_paths(s, trials, seed)]
    counts = np.bincount(maxima, minlength=s + 1)
    rows = tuple((k, counts[k] / trials) for k in range(1, s + 1))
    ks = [k for k, _ in rows if counts[k] >= 10]
    c1 = c2 = None
    if len(ks) >= 3:
        xs = np.array([k * k / s for k in ks], dtype=float)
        ys = np.array([math.log(counts[k] / trials) for k in ks])
        slope, intercept = np.polyfit(xs, ys, 1)
        c1, c2 = float(math.exp(intercept)), float(-slope)
    return MaxLevelTable(s=s, trials=trials, rows=rows, fit_c1=c1, fit_c2=c2)
