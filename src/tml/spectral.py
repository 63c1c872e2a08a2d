"""Spectral side of the moment method: eigenvalue extraction, matrix-power
traces, Monte Carlo trace estimation, semicircle-budget predictions, Markov
tail bounds, and the two spectrum experiments (edge exceedance and
concentration of the top eigenvalue).

Every Monte Carlo routine here, and the CLI's spectrum table, runs through
one trial kernel, ``trial_values``: one loop over chunks of at most
BATCH_BYTES of matrix data, at every matrix size.  A chunk draws each trial
from its own stream (``ensemble._trial_streams``), scales by 1/sqrt(n)
(unless raw), fills a (T, n, n) stack and reduces it in ``_stack_values``.
``threads`` workers run whole chunks, one chunk per worker per round.

Matrices built by the kernel are symmetric and finite by construction, so
the symmetry and finiteness check runs only at the public boundary
(``largest_eigenvalue``, ``spectral_norm``, ``trace_power``).  Each matrix
gets one eigenvalue solve, and ``_stack_values`` alone chooses dense or
Lanczos for it; the public functions make their own choice.  The public
route ``sample_symmetric_matrix`` -> ``normalized_view`` ->
``largest_eigenvalue`` / ``spectral_norm`` / ``trace_power`` stays as the
kernel's test oracle; the two agree bit for bit, except that "spectrum"
reads its top eigenvalue from the end of its own two-ended Lanczos run
from DENSE_EIG_CUTOFF up, within DEFAULT_TOLERANCE of ``largest_eigenvalue``.

Determinism contract: every randomized routine takes one integer seed and
derives each trial's stream from it through ``ensemble._trial_streams``, so
runs are reproducible and independent of thread count and scheduling.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import ensemble
from .ensemble import EigensolverError, EntryDistribution
from .paths import catalan

DENSE_EIG_CUTOFF = 64
DEFAULT_TOLERANCE = 1e-10
BATCH_BYTES = 1 << 23  # matrix data per chunk of trials


def _check_symmetric(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    if not np.allclose(a, a.T, atol=1e-12, rtol=0.0):
        raise ValueError("matrix is not symmetric")
    return a


def _lanczos(a: np.ndarray, k: int, which: str) -> np.ndarray:
    """The top eigenvalue (k=1, "LA") or both ends of the spectrum (k=2,
    "BE") of symmetric a, ascending, by ARPACK Lanczos from a fixed all-ones
    starting vector so the result is bit-reproducible.  ARPACK cannot start
    where a @ v0 is exactly zero (the zero matrix, or rows that all sum to
    zero); there dense eigvalsh gives the same ends."""
    # scipy.sparse.linalg takes about 0.35 s to import; only this route needs it
    from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, eigsh

    n = a.shape[0]
    v0 = np.full(n, 1.0 / math.sqrt(n))
    try:
        return eigsh(a, k=k, which=which, v0=v0, tol=DEFAULT_TOLERANCE, return_eigenvectors=False)
    except ArpackError as exc:
        if not np.any(a @ v0):
            return np.linalg.eigvalsh(a)[[0, -1]][-k:]
        residual = math.nan
        message = f"Lanczos iteration failed: {exc}"
        if isinstance(exc, ArpackNoConvergence):  # it carries the best pair found
            message = f"Lanczos iteration did not converge at tol={DEFAULT_TOLERANCE}"
            if len(exc.eigenvalues) and exc.eigenvectors.size:
                lam = float(exc.eigenvalues[-1])
                vec = exc.eigenvectors[:, -1]
                residual = float(np.linalg.norm(a @ vec - lam * vec))
        raise EigensolverError(message, residual=residual) from exc


def largest_eigenvalue(a: np.ndarray) -> float:
    """Top eigenvalue of a symmetric matrix.

    Small matrices go through the full dense solver; larger ones use the
    iterative Lanczos solver with a fixed all-ones starting vector so the
    result is bit-reproducible.  Non-convergence raises EigensolverError
    with the residual of the best available pair.
    """
    a = _check_symmetric(a)
    if a.shape[0] < DENSE_EIG_CUTOFF:
        return float(np.linalg.eigvalsh(a)[-1])
    return float(_lanczos(a, 1, "LA")[-1])


def spectral_norm(a: np.ndarray) -> float:
    """Operator norm of a symmetric matrix: max |lambda| over both ends of
    the spectrum, from one solve (dense below DENSE_EIG_CUTOFF, one
    two-ended Lanczos run from it up).  The trial kernel's "spectrum"
    statistic reads its norm column from the same run, bit for bit."""
    a = _check_symmetric(a)
    if a.shape[0] < DENSE_EIG_CUTOFF:
        ends = np.linalg.eigvalsh(a)[[0, -1]]
    else:
        ends = _lanczos(a, 2, "BE")
    return float(np.max(np.abs(ends)))


def trace_power(a: np.ndarray, s: int, method: str = "power") -> float:
    """Tr a^(2s) for symmetric a, by repeated squaring ("power") or through
    the full spectrum ("eig").  The two routes agree to rounding and are
    kept separate on purpose as a cross-check."""
    if s < 1:
        raise ValueError("s must be at least 1")
    a = _check_symmetric(a)
    if method == "power":
        return float(np.trace(np.linalg.matrix_power(a, 2 * s)))
    if method == "eig":
        vals = np.linalg.eigvalsh(a)
        return float(np.sum(vals ** (2 * s)))
    raise ValueError(f"unknown trace method {method!r}")


def check_matrix_memory(n: int, trials: int = 1) -> None:
    """Refuse, before anything is allocated, a size at which ``trials``
    trials held at once would not fit in physical memory.  A trial counts
    24 bytes per upper-triangle entry: its uniforms, their support indices
    and the values are alive together while it is drawn.  That is the peak
    of an eigenvalue trial; a trace by "power" holds its matrix powers on
    top and peaks near twice that."""
    need = trials * 24 * (n * (n + 1) // 2)
    have = ensemble._physical_memory_bytes()
    if have is not None and need > have:
        raise ValueError(
            f"n={n} needs {need} bytes for {trials} trial(s) held at once, "
            f"more than the {have} bytes of physical memory"
        )


def _stack_values(stack: np.ndarray, statistic: str, s: int, method: str) -> np.ndarray:
    """The statistic of every matrix in a (T, n, n) stack, read from one
    eigenvalue solve per matrix (or one batched matrix power for "trace" by
    "power").  The ascending values come from one batched eigvalsh for
    "trace" and below DENSE_EIG_CUTOFF; from the cutoff up, from one Lanczos
    run per matrix: the top end for "lambda_max", both ends for "spectrum".
    This is the only place the kernel chooses between the two solvers."""
    if statistic == "trace" and method == "power":
        return np.trace(np.linalg.matrix_power(stack, 2 * s), axis1=1, axis2=2)
    if statistic == "trace" or stack.shape[1] < DENSE_EIG_CUTOFF:
        vals = np.linalg.eigvalsh(stack)
    else:
        k, which = (1, "LA") if statistic == "lambda_max" else (2, "BE")
        vals = np.array([_lanczos(a, k, which) for a in stack])
    if statistic == "trace":
        return np.sum(vals ** (2 * s), axis=1)
    if statistic == "lambda_max":
        return vals[:, -1]
    return np.stack([vals[:, -1], np.max(np.abs(vals[:, [0, -1]]), axis=1)], axis=1)


def trial_values(
    dist: EntryDistribution,
    n: int,
    trials: int,
    seed: int,
    statistic: str,
    *,
    s: int = 1,
    method: str = "eig",
    normalized: bool = True,
    threads: int = 1,
) -> np.ndarray:
    """The statistic of each of ``trials`` sampled matrices, as an array in
    trial order.

    ``statistic`` is "lambda_max" (top eigenvalue), "trace" (Tr A^(2s) by
    ``method``, "eig" or "power") or "spectrum" (one row of top eigenvalue
    and spectral norm per trial, both ends of one solve).  A is the
    1/sqrt(n)-normalized matrix, or the raw one when normalized=False.
    Values equal those of the public per-matrix functions on
    ``sample_symmetric_matrix``, called with ``seed`` for trial 0 and one
    more for each later trial; from DENSE_EIG_CUTOFF up, "spectrum"'s top
    eigenvalue is the top end of its two-ended Lanczos run, which agrees
    with ``largest_eigenvalue`` within DEFAULT_TOLERANCE, not bit for bit.
    ``threads`` workers, at most one per CPU, run the chunks in rounds of
    one chunk per worker.  Before sampling, ``check_matrix_memory`` refuses
    a run whose chunks in flight would not fit in physical memory.
    """
    if statistic not in ("lambda_max", "trace", "spectrum"):
        raise ValueError(f"unknown trial statistic {statistic!r}")
    if statistic == "trace":
        if s < 1:
            raise ValueError("s must be at least 1")
        if method not in ("eig", "power"):
            raise ValueError(f"unknown trace method {method!r}")
    if n < 1:
        raise ValueError("matrix size must be at least 1")
    if trials < 1:
        raise ValueError("need at least one trial")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    chunk = max(1, BATCH_BYTES // (8 * n * n))
    firsts = range(0, trials, chunk)
    affinity = getattr(os, "sched_getaffinity", None)  # absent on some platforms
    workers = min(threads, len(affinity(0)) if affinity else os.cpu_count() or 1)
    check_matrix_memory(n, min(chunk, trials) * min(workers, len(firsts)))
    support = np.asarray(dist.support)
    if normalized:
        support = support / np.sqrt(n)
    m = n * (n + 1) // 2

    def chunk_values(first: int) -> np.ndarray:
        rows = min(chunk, trials - first)
        u = np.empty((rows, m))
        # per-trial streams make the values independent of execution order
        for i, rng in enumerate(ensemble._trial_streams(seed + first, rows)):
            rng.random(out=u[i])
        vals = support[ensemble.support_index(dist, u)]
        del u  # freed before the stack is allocated
        stack = np.empty((rows, n, n))
        start = 0
        for r in range(n):  # the upper triangle row by row, mirrored
            stack[:, r, r:] = stack[:, r:, r] = vals[:, start:start + n - r]
            start += n - r
        del vals  # the stack holds every entry now
        return _stack_values(stack, statistic, s, method)

    if workers == 1:
        return np.concatenate([chunk_values(first) for first in firsts])
    parts = []
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for at in range(0, len(firsts), workers):  # bounded rounds: one chunk per worker
            parts.extend(pool.map(chunk_values, firsts[at:at + workers]))
    return np.concatenate(parts)


@dataclass(frozen=True)
class TraceEstimate:
    """Monte Carlo estimate of E[Tr A^(2s)] with its standard error."""

    mean: float
    stderr: float
    trials: int
    n: int
    s: int


def mc_expected_trace(
    dist: EntryDistribution,
    n: int,
    s: int,
    trials: int,
    seed: int,
    normalized: bool = True,
    method: str = "eig",
    threads: int = 1,
) -> TraceEstimate:
    """Estimate E[Tr A^(2s)] (A the 1/sqrt(n)-normalized matrix, or the raw
    matrix when normalized=False) over independent samples."""
    values = trial_values(
        dist, n, trials, seed, "trace",
        s=s, method=method, normalized=normalized, threads=threads,
    )
    return TraceEstimate(mean=float(values.mean()), stderr=_stderr(values), trials=trials, n=n, s=s)


def _stderr(values: np.ndarray) -> float:
    """Standard error of the mean; inf for a single value.  The spread is
    taken on the scale of max |value| only when its squares overflow, so
    every value that fits keeps its bits."""
    if len(values) < 2:
        return math.inf
    root = math.sqrt(len(values))
    with np.errstate(over="ignore"):
        spread = float(values.std(ddof=1))
    if math.isinf(spread):  # only finite values overflow; an inf one gives nan
        peak = float(np.max(np.abs(values)))
        return float((values / peak).std(ddof=1)) / root * peak
    return spread / root


def _from_log(log_value: float) -> float:
    """exp(log_value), or inf past the float range."""
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


def wigner_trace_prediction(n: int, s: int, sigma: float) -> float:
    """Leading even-walk budget n * catalan(s) * sigma^(2s); inf past the float range."""
    try:
        return n * catalan(s) * sigma ** (2 * s)
    except OverflowError:  # a factor left the float range: redo the product in logs
        return _from_log(math.log(n * catalan(s)) + 2 * s * math.log(sigma))


def wigner_trace_prediction_refined(n: int, s: int, sigma: float) -> float:
    """Stirling-refined budget n * (2 sigma)^(2s) / (sqrt(pi) * s^(3/2)),
    the large-s shape of the leading prediction; inf past the float range."""
    scale = math.sqrt(math.pi) * s**1.5
    try:
        value = n * (2.0 * sigma) ** (2 * s) / scale
    except OverflowError:
        value = math.inf
    if value < math.inf:
        return value
    # the numerator may leave the float range where the quotient does not: use logs
    return _from_log(math.log(n) + 2 * s * math.log(2.0 * sigma) - math.log(scale))


def markov_tail_bound(expected_trace: float, threshold: float, s: int) -> float:
    """P(lambda_max > threshold) <= expected_trace / threshold^(2s), clamped
    to 1.  expected_trace must bound E[Tr A^(2s)] from above."""
    if threshold <= 0.0:
        raise ValueError("threshold must be positive")
    if expected_trace < 0.0:
        raise ValueError("expected trace must be nonnegative")
    return min(1.0, expected_trace / threshold ** (2 * s))


EDGE_EXPONENT = -6.0 / 11.0


@dataclass(frozen=True)
class EdgeExceedanceResult:
    """Fraction of samples whose top normalized eigenvalue clears
    2*sigma + n^(-6/11 + epsilon)."""

    n: int
    trials: int
    epsilon: float
    threshold: float
    exceed_count: int
    exceed_fraction: float
    lambda_max_values: tuple[float, ...]


def edge_exceedance_experiment(
    dist: EntryDistribution,
    n: int,
    trials: int,
    epsilon: float,
    seed: int,
    threads: int = 1,
) -> EdgeExceedanceResult:
    """Sample matrices and count how often the top eigenvalue of the
    normalized matrix exceeds the threshold 2*sigma + n^(-6/11 + epsilon),
    inf past the float range.  A non-finite epsilon is refused before sampling."""
    if not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be finite, got {epsilon}")
    values = trial_values(dist, n, trials, seed, "lambda_max", threads=threads).tolist()
    try:
        threshold = 2.0 * dist.sigma + float(n) ** (EDGE_EXPONENT + epsilon)
    except OverflowError:
        threshold = math.inf
    count = sum(1 for v in values if v > threshold)
    return EdgeExceedanceResult(
        n=n,
        trials=trials,
        epsilon=epsilon,
        threshold=threshold,
        exceed_count=count,
        exceed_fraction=count / trials,
        lambda_max_values=tuple(values),
    )


@dataclass(frozen=True)
class ConcentrationRow:
    """Empirical tail of |lambda_max - center| at deviation K*t/sqrt(n),
    next to the proved ceiling min(1, 4*exp(-t^2/32))."""

    t: float
    deviation: float
    empirical_fraction: float
    bound: float


def concentration_bound(t: float) -> float:
    """The ceiling min(1, 4*exp(-t^2/32)) for deviations K*t/sqrt(n)."""
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    if t < 0:
        raise ValueError("t must be nonnegative")
    return min(1.0, 4.0 * math.exp(-t * t / 32.0))


def concentration_experiment(
    dist: EntryDistribution,
    n: int,
    trials: int,
    t_values: list[float] | tuple[float, ...],
    seed: int,
    threads: int = 1,
) -> list[ConcentrationRow]:
    """Tail of the top normalized eigenvalue around its mean.

    The deviation is measured from the sample mean over these trials; the
    proved ceiling concerns the deviation from the expectation, so the
    substitution adds O(stderr) slack, negligible against K*t/sqrt(n) at the
    trial counts used here.  An empty t list, or a negative or non-finite
    t, is refused before sampling.
    """
    if trials < 2:
        raise ValueError("need at least two trials")
    ts = [float(t) for t in t_values]
    if not ts:
        raise ValueError("need at least one t value")
    bounds = [concentration_bound(t) for t in ts]
    values = trial_values(dist, n, trials, seed, "lambda_max", threads=threads)
    center = float(values.mean())
    scale = dist.bound_K / math.sqrt(n)
    rows = []
    for t, bound in zip(ts, bounds):
        dev = scale * t
        frac = float(np.mean(np.abs(values - center) >= dev))
        rows.append(ConcentrationRow(t=t, deviation=dev, empirical_fraction=frac, bound=bound))
    return rows
