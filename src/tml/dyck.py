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

Both statistics read next_below[t], the first instant after t whose level
drops below x(t) (2s + 1 if none): w(t) = min(next_below[t] - t, 2s - t),
and x stays at or above x(t1) on the closed window [t1, t1 + s] iff
next_below[t1] > t1 + s (the stay-above count).  Because steps are +-1, the
first instant below x(t) is the first later visit to level x(t) - 1, and it
comes one step after the first visit to x(t), at or after t, that is
followed by a down-step.  Per path, ``_next_below`` finds it with one stack
sweep; that is the test oracle, and the scalar functionals use it.

Every mean, exact or Monte Carlo, runs on one batched kernel instead.  Paths
go through in chunks of ``_chunk_rows(s)`` rows, sized so that a chunk's
arrays stay under ``_BATCH_BYTES``.  Exact mode slices ``_dyck_steps(s)``,
every path as one int8 row (s <= 12).  Monte Carlo mode samples: row j of
``_sample_steps`` is shuffled exactly as ``sample_dyck`` does with seed + j
and the whole chunk is rotated at once (cumsum, argmin, take_along_axis).
``_batch_next_below`` then does one stable sort of every row by level,
which lists each level's visits in time order; a reverse running minimum
over the visits followed by a down-step gives next_below for every path of
the chunk, with no per-instant loop.  An s whose one sampled path would not
fit in physical memory is refused before anything is allocated; the memory
figure is ``ensemble._physical_memory_bytes``, the one the spectral matrix
guard reads, so this module never loads ``spectral``.  Means sum the integer
statistic exactly over the chunks and divide once.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple

import numpy as np

from . import ensemble

ENUMERATION_LIMIT = 12  # a materialised s = 14 would take about 75 MB
_BATCH_BYTES = 1 << 18  # working set of one chunk of paths
_INSTANT_BYTES = 64  # working bytes per instant of one sampled path, temporaries included
_MAX_SAMPLED_S = 2**30 - 1  # keeps 2s + 1 and flat chunk positions in int32


class DyckSizeError(ValueError):
    """Raised when an exhaustive or sampled Dyck computation is too large."""


class DyckPath(namedtuple("DyckPath", "steps")):
    """A balanced nonnegative step sequence; steps are +1 or -1."""

    __slots__ = ()

    def __new__(cls, steps: tuple[int, ...]) -> DyckPath:
        level = 0
        for st in steps:
            if st not in (1, -1):
                raise ValueError("steps must be +1 or -1")
            level += st
            if level < 0:
                raise ValueError("level dips below zero")
        if level != 0:
            raise ValueError("path does not return to zero")
        return super().__new__(cls, steps)

    @property
    def half_length(self) -> int:
        return len(self.steps) // 2

    def levels(self) -> list[int]:
        """x(0..2s) including both endpoints."""
        return [0, *itertools.accumulate(self.steps)]


def _dyck_steps(s: int) -> np.ndarray:
    """(catalan(s), 2s) int8 array of every Dyck path of half-length s, one
    per row, lexicographic with +1 ordered before -1.

    Breadth first: each prefix, in order, is extended by +1 while it can
    still return to 0 and then by -1 while its level is above 0.
    """
    ensemble._check_at_least(0, s=s)
    if s > ENUMERATION_LIMIT:
        raise DyckSizeError(f"enumeration and exact totals support s <= {ENUMERATION_LIMIT}")
    steps = np.zeros((1, 0), dtype=np.int8)
    level = np.zeros(1, dtype=np.int8)
    for remaining in range(2 * s, 0, -1):
        up = level < remaining  # a step up can still come back to 0
        parent = np.repeat(np.arange(len(level)), up.astype(np.intp) + (level > 0))
        first_child = np.r_[True, parent[1:] != parent[:-1]]
        step = np.where(first_child & up[parent], 1, -1).astype(np.int8)
        steps = np.column_stack([steps[parent], step])
        level = level[parent] + step
    return steps


def enumerate_dyck(s: int):
    """Generate every Dyck path of half-length s exactly once, lexicographic
    with +1 ordered before -1 (the rows of ``_dyck_steps``)."""
    for row in _dyck_steps(s).tolist():
        yield DyckPath(steps=tuple(row))


def _check_sample_size(s: int) -> None:
    """Refuse, before anything is allocated, a negative s (s = 0 samples the
    empty path) and an s whose one sampled path would not fit in physical memory."""
    ensemble._check_at_least(0, s=s)
    if s > _MAX_SAMPLED_S:
        raise DyckSizeError(f"sampling supports s <= {_MAX_SAMPLED_S}")
    need = _INSTANT_BYTES * (2 * s + 1)
    have = ensemble._physical_memory_bytes()
    if have is not None and need > have:
        raise DyckSizeError(
            f"s={s} needs {need} bytes for one sampled path, "
            f"more than the {have} bytes of physical memory"
        )


def sample_dyck(s: int, seed: int) -> DyckPath:
    """Uniform Dyck path by the rotation trick.

    Shuffle s up-steps and s+1 down-steps; exactly one cyclic rotation of
    the result is nonnegative until its final step.  That rotation starts
    right after the first position where the prefix sum attains its
    minimum; dropping the final down-step leaves a uniform Dyck path.
    """
    _check_sample_size(s)
    rng = np.random.default_rng(seed)
    steps = np.concatenate([np.ones(s, dtype=np.int64), -np.ones(s + 1, dtype=np.int64)])
    rng.shuffle(steps)
    prefix = np.cumsum(steps)
    m = int(np.argmin(prefix))  # first index attaining the minimum
    rotated = np.concatenate([steps[m + 1 :], steps[: m + 1]])
    return DyckPath(steps=tuple(int(v) for v in rotated[:-1]))


def _level_dtype(s: int):
    """int16 levels (radix-sorted) while they fit, int32 past that."""
    return np.int16 if s < 2**15 else np.int32


def _chunk_rows(s: int) -> int:
    """Paths per chunk: as many as fit in ``_BATCH_BYTES``, at least one."""
    return max(1, _BATCH_BYTES // (_INSTANT_BYTES * (2 * s + 1)))


def _sample_steps(s: int, rows: int, streams) -> np.ndarray:
    """(rows, 2s) int8 steps, each row shuffled by the next item of ``streams``
    (an ``ensemble._trial_streams`` run) exactly as ``sample_dyck`` shuffles,
    so that one seeding pass serves every chunk of a call."""
    raw = np.empty((rows, 2 * s + 1), dtype=np.int8)
    raw[:, :s] = 1
    raw[:, s:] = -1
    for row, rng in zip(raw, streams):
        rng.shuffle(row)
    first_min = np.argmin(np.cumsum(raw, axis=1, dtype=_level_dtype(s)), axis=1)
    index = (first_min[:, None] + np.arange(1, 2 * s + 1)) % (2 * s + 1)
    return np.take_along_axis(raw, index, axis=1)


def _levels(steps: np.ndarray) -> np.ndarray:
    """(rows, 2s + 1) levels x(0..2s) of a (rows, 2s) array of steps."""
    rows, top = steps.shape
    levels = np.zeros((rows, top + 1), dtype=_level_dtype(top // 2))
    np.cumsum(steps, axis=1, dtype=levels.dtype, out=levels[:, 1:])
    return levels


def _level_chunks(s: int, mode: str = "exact", trials: int = 0, seed: int = 0):
    """(level chunks, path count), ``_chunk_rows(s)`` paths per chunk: every
    path of half-length s (mode "exact", s <= 12), or ``trials`` sampled
    paths, trial j from seed + j (mode "mc")."""
    if mode == "exact":
        steps = _dyck_steps(s)
        rows = _chunk_rows(s)
        return (_levels(steps[i : i + rows]) for i in range(0, len(steps), rows)), len(steps)
    if mode != "mc":
        raise ValueError(f"unknown mode {mode!r}")
    ensemble._check_at_least(1, trials=trials)
    _check_sample_size(s)
    rows = _chunk_rows(s)
    streams = ensemble._trial_streams(seed, trials)
    chunks = (_levels(_sample_steps(s, min(rows, trials - i), streams)) for i in range(0, trials, rows))
    return chunks, trials


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


def _batch_next_below(levels: np.ndarray) -> np.ndarray:
    """``_next_below`` of every row of a (rows, 2s + 1) array of Dyck levels,
    as int32.

    A stable sort by level lists each row's visits to every level in time
    order.  next_below[t] is one step after the first visit to x(t), at or
    after t, that is followed by a down-step.  The last visit to a level is
    always one (to level 0 it is t = 2s, which gives 2s + 1), so a reverse
    running minimum over those visits' sorted positions never leaves the
    level, nor the row.
    """
    rows, width = levels.shape
    order = np.argsort(levels, axis=1, kind="stable").astype(np.int32)
    down = np.empty(levels.shape, dtype=bool)
    np.less(levels[:, 1:], levels[:, :-1], out=down[:, :-1])
    down[:, -1] = True
    sorted_down = np.take_along_axis(down, order, axis=1).ravel()
    position = np.where(sorted_down, np.arange(rows * width, dtype=np.int32), rows * width)
    first_down = np.minimum.accumulate(position[::-1])[::-1]
    out = np.empty(levels.shape, dtype=np.int32)
    np.put_along_axis(out, order, order.ravel()[first_down].reshape(rows, width) + 1, axis=1)
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
    ensemble._check_at_least(1, I=I)
    return _elementary_symmetric(_window_counts(x.levels())[1:-1], I)


def _elementary_symmetric(values: list[int], I: int) -> int:
    """e_I(values) by the one-pass recurrence, in Python integers; 0, with
    no table built, when I exceeds the number of values."""
    if I > len(values):
        return 0
    e = [1] + [0] * I
    for v in values:
        for j in range(I, 0, -1):
            e[j] += v * e[j - 1]
    return e[I]


def _stay_above_count(x: DyckPath) -> int:
    """Number of t1 in [0, s] with x(t) >= x(t1) on the closed [t1, t1+s],
    i.e. with next_below[t1] > t1 + s."""
    s = x.half_length
    next_below = _next_below(x.levels())
    return sum(next_below[t1] > t1 + s for t1 in range(s + 1))


# ---------- expectations under the uniform measure ----------


def _batch_k_total(levels: np.ndarray, I: int) -> int:
    """Chunk total of K (I = 1) or K tensor I, from the batched window counts
    w(t) = min(next_below[t] - t, 2s - t)."""
    t = np.arange(levels.shape[1], dtype=np.int32)
    counts = np.minimum(_batch_next_below(levels) - t, t[::-1])
    if I == 1:
        return int(counts.sum(dtype=np.int64))
    return sum(_elementary_symmetric(row, I) for row in counts[:, 1:-1].tolist())


def _batch_stay_above_total(levels: np.ndarray) -> int:
    """Chunk total of the stay-above count: t1 <= s with next_below[t1] > t1 + s."""
    s = levels.shape[1] // 2
    head = _batch_next_below(levels)[:, : s + 1]
    return int(np.count_nonzero(head > np.arange(s, 2 * s + 1, dtype=np.int32)))


def _mean(batch_total, s: int, mode: str, trials: int, seed: int) -> float:
    """Mean of an integer path statistic, ``batch_total`` per chunk, over
    every path (mode "exact") or ``trials`` sampled paths (mode "mc"),
    summed exactly and divided once."""
    chunks, count = _level_chunks(s, mode, trials, seed)
    return sum(map(batch_total, chunks)) / count


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
    ensemble._check_at_least(1, I=I)
    return _mean(functools.partial(_batch_k_total, I=I), s, mode, trials, seed)


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
    return _mean(_batch_stay_above_total, s, mode, trials, seed)


class MaxLevelTable(namedtuple("MaxLevelTable", "s trials rows fit_c1 fit_c2")):
    """Empirical distribution of the maximum level, with a diagnostic
    Gaussian-decay fit P(max = k) ~ c1 * exp(-c2 * k^2 / s)."""

    __slots__ = ()


def max_level_tail(s: int, trials: int, seed: int, mode: str = "mc") -> MaxLevelTable:
    """Tabulate P(max level = k) over ``trials`` sampled paths (mode "mc")
    or over every path, weighted 1 / catalan(s) (mode "exact", s <= 12).

    Rows cover every k in [1, s]; ``trials`` in the table is the number of
    paths counted.  The fit runs over rows with at least 10 paths; it is
    diagnostic only.  s < 1, which would leave no row, is refused before
    any path is built, in both modes.
    """
    ensemble._check_at_least(1, s=s)
    chunks, trials = _level_chunks(s, mode, trials, seed)
    counts = sum(np.bincount(levels.max(axis=1), minlength=s + 1) for levels in chunks)
    rows = tuple((k, counts[k] / trials) for k in range(1, s + 1))
    ks = [k for k, _ in rows if counts[k] >= 10]
    c1 = c2 = None
    if len(ks) >= 3:
        xs = np.array([k * k / s for k in ks], dtype=float)
        ys = np.array([math.log(counts[k] / trials) for k in ks])
        slope, intercept = np.polyfit(xs, ys, 1)
        c1, c2 = float(math.exp(intercept)), float(-slope)
    return MaxLevelTable(s=s, trials=trials, rows=rows, fit_c1=c1, fit_c2=c2)
