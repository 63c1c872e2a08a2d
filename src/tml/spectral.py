"""Spectral side of the moment method: eigenvalue extraction, matrix-power
traces, Monte Carlo trace estimation, semicircle-budget predictions, Markov
tail bounds, and the two spectrum experiments (edge exceedance and
concentration of the top eigenvalue).  The budget and its log are defined
in ``paths``; the predictions read them from there.

Every Monte Carlo routine here, and the CLI's spectrum table, runs through
one trial kernel, ``trial_values``: one loop over chunks of at most
BATCH_BYTES of matrix data, at every matrix size.  A chunk draws each trial
from its own stream (``ensemble._trial_streams``) into its own slot of a
(T, n, n) stack, maps the draws to support values scaled by 1/sqrt(n)
in place, unpacks them there and reduces the stack in ``_stack_values``.
The chunks run one after another on the calling thread; BLAS threads
parallelize each solve.

Matrices built by the kernel are symmetric and finite by construction, so
the symmetry and finiteness check runs only at the public boundary
(``largest_eigenvalue``, ``spectral_norm``, ``trace_power``).  Each matrix
gets one eigenvalue solve, and every trace is read from its eigenvalues.
``_stack_values`` alone turns a matrix into a statistic and chooses dense
or Lanczos for it; ``largest_eigenvalue`` and ``spectral_norm`` check their
input and read the same function on a stack of one.  The public route
``sample_symmetric_matrix`` -> ``normalized_view`` -> ``largest_eigenvalue``
/ ``spectral_norm`` stays as the kernel's test oracle; the two agree bit for
bit, except that "spectrum" reads its top eigenvalue from the end of its own
two-ended Lanczos run from DENSE_EIG_CUTOFF up, within DEFAULT_TOLERANCE of
``largest_eigenvalue``.  ``trace_power``, by repeated squaring, is the
independent per-matrix check on the traces.
The Lanczos solver, ``_lanczos``, is written in numpy; the package needs no scipy.

Determinism contract: every randomized routine takes one integer seed and
derives each trial's stream from it through one ``ensemble._trial_streams``
run per call, so runs are reproducible and independent of the chunk size.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

import numpy as np

from . import ensemble
from .ensemble import DENSE_EIG_CUTOFF, EigensolverError, EntryDistribution, _check_at_least, _check_finite
from .paths import _from_log, _log_catalan, _log_main_term, catalan

DEFAULT_TOLERANCE = 1e-10
BATCH_BYTES = 1 << 23  # matrix data per chunk of trials
_BASIS_ROWS = 128  # Lanczos basis vectors per allocated block
_CHECK_GAP = 32  # Lanczos steps to the first convergence check, and most between two
_DGKS_RATIO = 0.1  # a second Gram-Schmidt pass below this share of the norm


def _check_symmetric(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    if not np.allclose(a, a.T, atol=1e-12, rtol=0.0):
        raise ValueError("matrix is not symmetric")
    return a


def _tridiagonal_ends(alpha: list, beta: list, m: int) -> np.ndarray:
    """The ascending eigenvalues of the m x m Lanczos tridiagonal T_m, with
    alpha on its diagonal and beta below it (eigvalsh reads the lower
    triangle)."""
    t = np.zeros((m, m))
    t.flat[::m + 1] = alpha[:m]
    t.flat[m::m + 1] = beta[:m - 1]
    return np.linalg.eigvalsh(t)


def _last_component(alpha: list, beta: list, theta: float, m: int) -> float:
    """|s_m|, the last component of the unit eigenvector of T_m for its
    eigenvalue theta, by back substitution from x_m = 1.  For an end of the
    spectrum the components grow towards x_1, so the recurrence runs in its
    stable direction; the running sum is rescaled before it can overflow."""
    x_next, x, total, scale = 0.0, 1.0, 1.0, 1.0
    for i in range(m - 1, 0, -1):
        x_next, x = x, ((theta - alpha[i]) * x - beta[i] * x_next) / beta[i - 1]
        total += x * x
        if total > 1e200:
            x_next, x, total, scale = x_next * 1e-100, x * 1e-100, total * 1e-200, scale * 1e-100
    return scale / math.sqrt(total)


def _krylov_ends(a: np.ndarray, k: int) -> np.ndarray | None:
    """The wanted ends of ``_lanczos`` from the Lanczos iteration, or None
    where it hands over to dense eigvalsh: the Krylov space closed, or
    n // 2 steps did not converge.  Returning frees the basis before the
    dense solve copies a."""
    n = a.shape[0]
    steps, eps = n // 2, np.finfo(float).eps
    floor = DEFAULT_TOLERANCE * eps ** (2.0 / 3.0)
    alpha, beta, blocks = [], [], []
    w, b = np.ones(n), math.sqrt(n)  # w / b is the first vector, the unit all-ones one
    check, last = min(steps, _CHECK_GAP), (0, -math.log10(DEFAULT_TOLERANCE))
    norm = 0.0  # running max column sum of T, a bound on its 2-norm
    for j in range(steps):
        if j % _BASIS_ROWS == 0:
            blocks.append(np.empty((min(_BASIS_ROWS, steps - j), n)))
        v = blocks[-1][j % _BASIS_ROWS]
        np.divide(w, b, out=v)
        basis = blocks[:-1] + [blocks[-1][:j % _BASIS_ROWS + 1]]
        np.dot(a, v, out=w)
        before = math.sqrt(w @ w)
        coeffs = [q @ w for q in basis]  # classical Gram-Schmidt against all of it
        for q, c in zip(basis, coeffs):
            w -= c @ q
        b = math.sqrt(w @ w)
        if b < _DGKS_RATIO * before:  # cancellation: one more pass (DGKS)
            again = [q @ w for q in basis]
            for q, c in zip(basis, again):
                w -= c @ q
            coeffs[-1] += again[-1]
            b = math.sqrt(w @ w)
        alpha.append(float(coeffs[-1][-1]))
        beta.append(b)
        norm = max(norm, abs(alpha[j]) + b + (beta[j - 1] if j else 0.0))
        if b <= n * eps * norm:
            return None  # the Krylov space closed: it need not hold either end
        m = j + 1
        if m == check:
            ends = _tridiagonal_ends(alpha, beta, m)[[0, -1]][-k:]
            # ARPACK's rule: |beta_m s_m| <= tol * max(|theta|, eps^(2/3))
            excess = max(
                b * _last_component(alpha, beta, t, m) / max(DEFAULT_TOLERANCE * abs(t), floor)
                for t in ends.tolist()
            )
            if excess <= 1.0:
                return ends
            # the next check comes where the residual would meet the tolerance,
            # at the rate its logarithm fell since the last check
            log_excess = math.log10(excess)
            rate = (last[1] - log_excess) / (m - last[0])
            gap = log_excess / rate if rate > 0 else _CHECK_GAP
            check, last = min(steps, m + int(min(_CHECK_GAP, max(1.0, gap)))), (m, log_excess)
    return None


def _lanczos(a: np.ndarray, k: int) -> np.ndarray:
    """The top eigenvalue (k=1) or both ends of the spectrum (k=2) of
    symmetric a, ascending.

    Lanczos with full reorthogonalization (Parlett, *The Symmetric Eigenvalue
    Problem*): from the all-ones vector, every new vector is orthogonalized
    against the whole stored basis by classical Gram-Schmidt, with a second
    pass where the first cancels more than 1 - _DGKS_RATIO of the norm.  A
    wanted Ritz value theta of T_m has converged by ARPACK's stopping rule,
    |beta_m s_m| <= DEFAULT_TOLERANCE * max(|theta|, eps^(2/3)), with s_m the
    last component of its eigenvector (Lehoucq, Sorensen & Yang, *ARPACK
    Users' Guide*).  Convergence is checked on a schedule: first at step
    _CHECK_GAP, then where the residual's recent rate of fall says it will
    meet the tolerance, at most _CHECK_GAP steps later.

    The ends come from dense eigvalsh instead where the Krylov space closes
    (beta_m <= n * eps * ||T_m||_1: the zero matrix, rows that sum to zero, a
    low-rank matrix) or n // 2 steps have not converged, where dense is the
    cheaper solve.  Every step is a fixed function of a, so the result is
    bit-reproducible.  The basis is held in blocks of _BASIS_ROWS vectors,
    at most n // 2 of them; with T_m and the copy eigvalsh makes of it, or
    the copy of a that a dense solve makes, a solve holds at most one more
    n x n matrix and a few length-n vectors.  A LinAlgError raises
    EigensolverError.
    """
    try:
        ends = _krylov_ends(a, k)
        if ends is None:
            ends = np.linalg.eigvalsh(a)[[0, -1]][-k:]
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"Lanczos iteration failed: {exc}") from exc
    return ends


def largest_eigenvalue(a: np.ndarray) -> float:
    """Top eigenvalue of a symmetric matrix, from the solve ``_stack_values``
    chooses: dense below DENSE_EIG_CUTOFF, the Lanczos solver ``_lanczos``
    from it up, which starts from a fixed all-ones vector so the result is
    bit-reproducible.  A failed solve raises EigensolverError.
    """
    return float(_stack_values(_check_symmetric(a)[None], "lambda_max")[0])


def spectral_norm(a: np.ndarray) -> float:
    """Operator norm of a symmetric matrix: max |lambda| over both ends of
    the spectrum, from one solve (dense below DENSE_EIG_CUTOFF, one
    two-ended ``_lanczos`` run from it up).  The trial kernel's "spectrum"
    statistic reads its norm column from the same run, bit for bit."""
    return float(_stack_values(_check_symmetric(a)[None], "spectrum")[0, 1])


def trace_power(a: np.ndarray, s: int) -> float:
    """Tr a^(2s) for symmetric a, by repeated squaring.  It reads no
    eigenvalue, so it is the trial kernel's independent per-matrix oracle
    for the trace; the two agree to rounding."""
    _check_at_least(1, s=s)
    return float(np.trace(np.linalg.matrix_power(_check_symmetric(a), 2 * s)))


def check_matrix_memory(n: int, trials: int = 1, statistic: str = "lambda_max") -> None:
    """Refuse, before anything is allocated, a run that would not fit in
    physical memory with one chunk of ``trials`` trials held at once.

    Each trial is one n x n matrix: its uniforms are drawn into its own slot
    and unpacked there.  The chunk maps its uniforms to support values in
    blocks of at most 24 * ensemble._MAP_BLOCK bytes.  It solves one matrix
    at a time, and that solve holds at most one more n x n matrix: the copy
    dense eigvalsh works on, or the Lanczos basis at its largest (see
    ``_lanczos``).  A dense solve also keeps two length-n rows per trial,
    its eigenvalues and their powers."""
    need = 24 * ensemble._MAP_BLOCK + 8 * n * n * (trials + 1)
    if statistic == "trace" or n < DENSE_EIG_CUTOFF:
        need += 16 * n * trials
    have = ensemble._physical_memory_bytes()
    if have is not None and need > have:
        raise ValueError(
            f"n={n} needs {need} bytes for {trials} trial(s) held at once, "
            f"more than the {have} bytes of physical memory"
        )


def _stack_values(stack: np.ndarray, statistic: str, s: int = 1) -> np.ndarray:
    """The statistic of every matrix in a (T, n, n) stack, read from one
    eigenvalue solve per matrix.  The ascending values come from one batched
    eigvalsh for "trace" (Tr A^(2s) = sum of lambda^(2s)) and below
    DENSE_EIG_CUTOFF; from the cutoff up, from one Lanczos run per matrix:
    the top end for "lambda_max", both ends for "spectrum".  This is the
    only place a matrix becomes a statistic, for the kernel and the public
    functions alike, and so the only place the solver is chosen."""
    if statistic == "trace" or stack.shape[1] < DENSE_EIG_CUTOFF:
        vals = np.linalg.eigvalsh(stack)
    else:
        vals = np.array([_lanczos(a, 1 if statistic == "lambda_max" else 2) for a in stack])
    if statistic == "trace":
        with np.errstate(over="ignore"):  # past the float range the trace is inf
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
) -> np.ndarray:
    """The statistic of each of ``trials`` sampled matrices, as an array in
    trial order.

    ``statistic`` is "lambda_max" (top eigenvalue), "trace" (Tr A^(2s),
    from the eigenvalues) or "spectrum" (one row of top eigenvalue
    and spectral norm per trial, both ends of one solve) of A = M/sqrt(n).
    Values equal those of the public per-matrix functions on
    ``sample_symmetric_matrix``, called with ``seed`` for trial 0 and one
    more for each later trial; from DENSE_EIG_CUTOFF up, "spectrum"'s top
    eigenvalue is the top end of its two-ended Lanczos run, which agrees
    with ``largest_eigenvalue`` within DEFAULT_TOLERANCE, not bit for bit.
    One ``ensemble._trial_streams`` run feeds every chunk.  Each trial's
    n(n+1)/2 uniforms are drawn into the head of its own n x n slot,
    overwritten there by their support values, and unpacked row by row,
    last row first, each row mirrored as it lands; a trial holds one
    matrix, and its solve the Lanczos basis.  Before sampling,
    ``check_matrix_memory`` refuses a run whose chunk would not fit in
    physical memory.
    """
    if statistic not in ("lambda_max", "trace", "spectrum"):
        raise ValueError(f"unknown trial statistic {statistic!r}")
    if statistic == "trace":
        _check_at_least(1, s=s)
    _check_at_least(1, n=n, trials=trials)
    chunk = max(1, BATCH_BYTES // (8 * n * n))
    check_matrix_memory(n, min(chunk, trials), statistic)
    support = np.asarray(dist.support) / np.sqrt(n)
    m = n * (n + 1) // 2
    streams = ensemble._trial_streams(seed, trials)

    def chunk_values(rows: int) -> np.ndarray:
        # a function, so each chunk's stack is freed before the next is allocated
        stack = np.empty((rows, n, n))
        flat = stack.reshape(rows, n * n)
        # each trial's upper triangle, packed row by row at the head of its own slot
        for packed, rng in zip(flat[:, :m], streams):
            rng.random(out=packed)
        ensemble.map_to_support(dist, flat[:, :m], support)
        # unpack in place, last row first, mirroring each row as it lands: row r's
        # packed source starts at or before its destination, so every source is
        # read before any later row overwrites it
        start = m
        for r in range(n - 1, -1, -1):
            start -= n - r
            flat[:, r * n + r:(r + 1) * n] = flat[:, start:start + n - r]
            stack[:, r + 1:, r] = stack[:, r, r + 1:]
        return _stack_values(stack, statistic, s)

    firsts = range(0, trials, chunk)
    return np.concatenate([chunk_values(min(chunk, trials - first)) for first in firsts])


class TraceEstimate(namedtuple("TraceEstimate", "mean stderr trials n s")):
    """Monte Carlo estimate of E[Tr A^(2s)] with its standard error."""

    __slots__ = ()


def mc_expected_trace(
    dist: EntryDistribution,
    n: int,
    s: int,
    trials: int,
    seed: int,
) -> TraceEstimate:
    """Estimate E[Tr A^(2s)], A = M/sqrt(n), over independent samples."""
    values = trial_values(dist, n, trials, seed, "trace", s=s)
    return TraceEstimate(mean=float(values.mean()), stderr=_stderr(values), trials=trials, n=n, s=s)


def _stderr(values: np.ndarray) -> float:
    """Standard error of the mean; inf for a single value.  The spread is
    taken on the scale of max |value| only when its squares overflow, so
    every value that fits keeps its bits."""
    if len(values) < 2:
        return math.inf
    root = math.sqrt(len(values))
    with np.errstate(over="ignore", invalid="ignore"):
        spread = float(values.std(ddof=1))
    if math.isinf(spread):  # only finite values overflow; an inf one gives nan
        peak = float(np.max(np.abs(values)))
        return float((values / peak).std(ddof=1)) / root * peak
    return spread / root


# logs of the normal float range, 1e-9 inside it, well clear of the rounding
# (about 1e-13) of the logs that test a factor against it
_LOG_LOW = math.log(sys.float_info.min) + 1e-9
_LOG_HIGH = math.log(sys.float_info.max) - 1e-9


def wigner_trace_prediction(n: int, s: int, sigma: float) -> float:
    """Leading even-walk budget n * catalan(s) * sigma^(2s); inf past the float range.

    The direct product, while n * catalan(s) and sigma^(2s) are both normal
    floats; otherwise ``paths._log_main_term`` through ``paths._from_log``,
    whose relative error grows with s (2.7e-12 at s = 2000).
    """
    if math.log(n) + _log_catalan(s) < _LOG_HIGH and _LOG_LOW < 2 * s * math.log(sigma) < _LOG_HIGH:
        return n * catalan(s) * sigma ** (2 * s)
    return _from_log(_log_main_term(s, n, sigma))


def wigner_trace_prediction_refined(n: int, s: int, sigma: float) -> float:
    """Stirling-refined budget n * (2 sigma)^(2s) / (sqrt(pi) * s^(3/2)),
    the large-s shape of the leading prediction; inf past the float range.

    The direct quotient, while (2 sigma)^(2s) and n * (2 sigma)^(2s) are
    both normal floats; otherwise the same quotient in logs.
    """
    scale = math.sqrt(math.pi) * s**1.5
    log_n = math.log(n)
    log_power = 2 * s * math.log(2.0 * sigma)
    if log_n < _LOG_HIGH and _LOG_LOW < log_power < _LOG_HIGH - log_n:
        return n * (2.0 * sigma) ** (2 * s) / scale
    return _from_log(log_n + log_power - math.log(scale))


def markov_tail_bound(expected_trace: float, threshold: float, s: int) -> float:
    """P(lambda_max > threshold) <= expected_trace / threshold^(2s), clamped
    to 1.  expected_trace must bound E[Tr A^(2s)] from above."""
    if threshold <= 0.0:
        raise ValueError("threshold must be positive")
    if expected_trace < 0.0:
        raise ValueError("expected trace must be nonnegative")
    return min(1.0, expected_trace / threshold ** (2 * s))


EDGE_EXPONENT = -6.0 / 11.0


class EdgeExceedanceResult(
    namedtuple(
        "EdgeExceedanceResult", "n trials epsilon threshold exceed_count exceed_fraction lambda_max_values"
    )
):
    """Fraction of samples whose top normalized eigenvalue clears
    2*sigma + n^(-6/11 + epsilon)."""

    __slots__ = ()


def edge_exceedance_experiment(
    dist: EntryDistribution,
    n: int,
    trials: int,
    epsilon: float,
    seed: int,
) -> EdgeExceedanceResult:
    """Sample matrices and count how often the top eigenvalue of the
    normalized matrix exceeds the threshold 2*sigma + n^(-6/11 + epsilon),
    inf past the float range.  A non-finite epsilon is refused before sampling."""
    _check_finite(epsilon=epsilon)
    values = trial_values(dist, n, trials, seed, "lambda_max").tolist()
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


class ConcentrationRow(namedtuple("ConcentrationRow", "t deviation empirical_fraction bound")):
    """Empirical tail of |lambda_max - center| at deviation K*t/sqrt(n),
    next to the proved ceiling min(1, 4*exp(-t^2/32))."""

    __slots__ = ()


def concentration_bound(t: float) -> float:
    """The ceiling min(1, 4*exp(-t^2/32)) for deviations K*t/sqrt(n)."""
    _check_finite(t=t)
    _check_at_least(0, t=t)
    return min(1.0, 4.0 * math.exp(-t * t / 32.0))


def concentration_experiment(
    dist: EntryDistribution,
    n: int,
    trials: int,
    t_values: list[float] | tuple[float, ...],
    seed: int,
) -> list[ConcentrationRow]:
    """Tail of the top normalized eigenvalue around its mean.

    The deviation is measured from the sample mean over these trials; the
    proved ceiling concerns the deviation from the expectation, so the
    substitution adds O(stderr) slack, negligible against K*t/sqrt(n) at the
    trial counts used here.  An empty t list, or a negative or non-finite
    t, is refused before sampling.
    """
    _check_at_least(2, trials=trials)
    ts = [float(t) for t in t_values]
    if not ts:
        raise ValueError("need at least one t value")
    bounds = [concentration_bound(t) for t in ts]
    values = trial_values(dist, n, trials, seed, "lambda_max")
    center = float(values.mean())
    scale = dist.bound_K / math.sqrt(n)
    rows = []
    for t, bound in zip(ts, bounds):
        dev = scale * t
        frac = float(np.mean(np.abs(values - center) >= dev))
        rows.append(ConcentrationRow(t=t, deviation=dev, empirical_fraction=frac, bound=bound))
    return rows
