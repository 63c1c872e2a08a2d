import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

import tml
import tml.ensemble as ensemble
import tml.spectral as spectral
from tml.ensemble import rademacher, sample_symmetric_matrix, skew12
from tml.spectral import (
    EDGE_EXPONENT,
    check_matrix_memory,
    concentration_bound,
    concentration_experiment,
    edge_exceedance_experiment,
    largest_eigenvalue,
    markov_tail_bound,
    mc_expected_trace,
    spectral_norm,
    trace_power,
    trial_values,
    wigner_trace_prediction,
    wigner_trace_prediction_refined,
)
from tml.paths import catalan


def random_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    return (a + a.T) / 2.0


# ---------- eigenvalue routines ----------


def test_largest_eigenvalue_dense():
    a = np.diag([3.0, -7.0, 1.0])
    assert largest_eigenvalue(a) == pytest.approx(3.0)
    b = random_symmetric(20, seed=1)
    assert largest_eigenvalue(b) == pytest.approx(np.linalg.eigvalsh(b)[-1], rel=1e-12)


def test_largest_eigenvalue_iterative_matches_dense():
    # above the dense cutoff the Lanczos route takes over
    a = random_symmetric(120, seed=2)
    dense = float(np.linalg.eigvalsh(a)[-1])
    assert largest_eigenvalue(a) == pytest.approx(dense, abs=1e-7)
    # deterministic starting vector makes reruns identical
    assert largest_eigenvalue(a) == largest_eigenvalue(a)


def test_largest_eigenvalue_rejects_asymmetric():
    with pytest.raises(ValueError):
        largest_eigenvalue(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ValueError):
        largest_eigenvalue(np.zeros((2, 3)))


@pytest.mark.parametrize("n", [5, 64])  # the dense and the Lanczos route
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_public_routines_reject_non_finite_entries(n, value):
    bad = np.full((n, n), value)
    for fn in (largest_eigenvalue, spectral_norm, lambda a: trace_power(a, 1)):
        with pytest.raises(ValueError, match="non-finite"):
            fn(bad)


def test_lanczos_maps_every_arpack_error(monkeypatch):
    import scipy.sparse.linalg as linalg

    def broken(*args, **kwargs):
        raise linalg.ArpackError(-9)  # "starting vector is zero"

    monkeypatch.setattr(linalg, "eigsh", broken)
    with pytest.raises(spectral.EigensolverError) as info:
        largest_eigenvalue(random_symmetric(64, seed=7))
    assert math.isnan(info.value.residual)
    assert isinstance(info.value.__cause__, linalg.ArpackError)


def zero_row_sum_matrix(n):
    # rows summing to zero make a @ v0 = 0 for the all-ones start vector
    a = np.zeros((n, n))
    a[:2, :2] = [[1.0, -1.0], [-1.0, 1.0]]  # eigenvalues 0 and 2
    a[2:4, 2:4] = [[-1.0, 1.0], [1.0, -1.0]]  # eigenvalues -2 and 0
    return a


@pytest.mark.parametrize("a", [np.zeros((64, 64)), zero_row_sum_matrix(80)],
                         ids=["zero-64", "zero-row-sums-80"])
def test_lanczos_null_start_vector_falls_back_to_dense(a):
    ends = np.linalg.eigvalsh(a)[[0, -1]]
    assert largest_eigenvalue(a) == ends[1]
    assert spectral_norm(a) == np.max(np.abs(ends))
    stack = a[None]
    assert spectral._stack_values(stack, "lambda_max", 1, "eig").tolist() == [ends[1]]
    lam, norm = spectral._stack_values(stack, "spectrum", 1, "eig")[0]
    assert (lam, norm) == (ends[1], np.max(np.abs(ends)))
    if a.any():
        assert ends.tolist() == pytest.approx([-2.0, 2.0], abs=1e-12)


def test_lanczos_null_start_vector_in_the_kernel():
    # trial 0 of this law at n = 64 draws the zero matrix; trials 1 and 2 one +-1/8 pair
    d = ensemble.parse_distribution("support=-1,0,1;probs=0.0001,0.9998,0.0001")
    top = trial_values(d, 64, 3, 0, "lambda_max")
    got = trial_values(d, 64, 3, 0, "spectrum")
    assert top[0] == got[0, 0] == got[0, 1] == 0.0
    assert np.all(got[:, 0] <= got[:, 1])
    assert top[1:] == pytest.approx([0.125, 0.125], rel=spectral.DEFAULT_TOLERANCE)
    assert got[1:].ravel() == pytest.approx([0.125] * 4, rel=spectral.DEFAULT_TOLERANCE)


def test_spectral_norm():
    a = np.diag([2.0, -5.0])
    assert spectral_norm(a) == pytest.approx(5.0)
    b = random_symmetric(30, seed=3)
    assert spectral_norm(b) == pytest.approx(np.linalg.norm(b, 2), rel=1e-10)
    # above the cutoff both ends come from one two-ended Lanczos run
    c = random_symmetric(120, seed=6)
    assert spectral_norm(c) == pytest.approx(np.linalg.norm(c, 2), rel=1e-10)
    assert spectral_norm(-c) == pytest.approx(np.linalg.norm(c, 2), rel=1e-10)


def test_public_routines_reject_asymmetric():
    bad = np.array([[0.0, 1.0], [0.5, 0.0]])
    for fn in (largest_eigenvalue, spectral_norm, lambda a: trace_power(a, 1)):
        with pytest.raises(ValueError):
            fn(bad)


def test_trace_power_two_routes_agree():
    a = random_symmetric(10, seed=4)
    for s in (1, 2, 3, 5):
        via_power = trace_power(a, s, method="power")
        via_eig = trace_power(a, s, method="eig")
        assert via_power == pytest.approx(via_eig, rel=1e-10)
    with pytest.raises(ValueError):
        trace_power(a, 0)
    with pytest.raises(ValueError):
        trace_power(a, 1, method="det")


# ---------- Monte Carlo trace ----------


def test_mc_expected_trace_deterministic():
    d = skew12()
    a = mc_expected_trace(d, 4, 2, trials=200, seed=7)
    b = mc_expected_trace(d, 4, 2, trials=200, seed=7)
    assert (a.mean, a.stderr) == (b.mean, b.stderr)
    assert a.trials == 200 and a.n == 4 and a.s == 2


def test_mc_expected_trace_thread_invariance():
    d = skew12()
    serial = mc_expected_trace(d, 6, 2, trials=64, seed=11, threads=1)
    pooled = mc_expected_trace(d, 6, 2, trials=64, seed=11, threads=4)
    assert serial.mean == pooled.mean
    assert serial.stderr == pooled.stderr


def test_mc_expected_trace_degenerate_case():
    # n=1 rademacher: Tr A^(2s) = x^(2s) = 1 identically
    est = mc_expected_trace(rademacher(), 1, 3, trials=50, seed=0)
    assert est.mean == 1.0
    assert est.stderr == 0.0


def test_mc_matches_exact_small():
    # E[Tr A^2] = n sigma^2 = 4 at n=2 for skew12
    est = mc_expected_trace(skew12(), 2, 1, trials=4000, seed=21)
    assert abs(est.mean - 4.0) <= 4 * est.stderr


def test_stderr_is_finite_where_the_squares_overflow():
    # traces near 1e235: the squared deviations leave the float range
    d = skew12()
    values = trial_values(d, 3, 5, 0, "trace", s=400).tolist()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = mc_expected_trace(d, 3, 400, trials=5, seed=0)
    # Fraction oracle: mean and squared deviations exactly, rounded once
    exact = [Fraction(v) for v in values]
    mean = sum(exact) / 5
    variance = sum((v - mean) ** 2 for v in exact) / (4 * 5)
    assert est.stderr == pytest.approx(math.sqrt(variance / 10**470) * 10**235, rel=1e-12)


def test_stderr_keeps_its_bits_in_range():
    values = trial_values(skew12(), 4, 200, 7, "trace", s=2)
    est = mc_expected_trace(skew12(), 4, 2, trials=200, seed=7)
    assert est.stderr == float(values.std(ddof=1) / math.sqrt(200))
    assert mc_expected_trace(skew12(), 4, 2, trials=1, seed=7).stderr == math.inf


def test_mc_methods_agree():
    d = rademacher()
    via_eig = mc_expected_trace(d, 5, 3, trials=40, seed=5, method="eig")
    via_power = mc_expected_trace(d, 5, 3, trials=40, seed=5, method="power")
    assert via_eig.mean == pytest.approx(via_power.mean, rel=1e-9)
    with pytest.raises(ValueError):
        mc_expected_trace(d, 5, 3, trials=0, seed=0)


# ---------- predictions and tail bounds ----------


def test_wigner_trace_prediction():
    assert wigner_trace_prediction(10, 3, 1.0) == 10 * catalan(3)
    assert wigner_trace_prediction(7, 2, 2.0) == 7 * 2 * 2.0**4
    # the refined form is the large-s shape of the exact one
    for s in (100, 300):
        exact = wigner_trace_prediction(5, s, 1.3)
        refined = wigner_trace_prediction_refined(5, s, 1.3)
        assert refined / exact == pytest.approx(1.0, abs=0.02)


def test_predictions_survive_an_intermediate_overflow():
    # catalan(600) is past the float range and 0.5**1200 below it; the
    # product is about 2e-5
    exact = Fraction(7 * catalan(600), 2**1200)
    assert wigner_trace_prediction(7, 600, 0.5) == pytest.approx(float(exact), rel=1e-12)
    # (2 sigma)^(2s) = 2^1024 overflows alone, and n times 2^1020 does so silently
    for n, sigma in ((3, 1.0), (2**10, 2.0 ** (1020 / 1024) / 2)):
        scale = math.sqrt(math.pi) * 512**1.5
        exact = n * Fraction(2 * sigma) ** 1024 / Fraction(scale)
        assert wigner_trace_prediction_refined(n, 512, sigma) == pytest.approx(float(exact), rel=1e-12)


def test_predictions_past_the_float_range_are_inf():
    sigma = math.sqrt(2.0)  # skew12
    assert wigner_trace_prediction(3, 400, sigma) == math.inf
    assert wigner_trace_prediction_refined(3, 400, sigma) == math.inf
    assert wigner_trace_prediction(3, 10**4, 1.3) == math.inf
    # finite predictions are the direct products, bit for bit
    assert wigner_trace_prediction(3, 300, sigma) == 3 * catalan(300) * sigma**600
    assert wigner_trace_prediction_refined(3, 300, sigma) == (
        3 * (2.0 * sigma) ** 600 / (math.sqrt(math.pi) * 300**1.5)
    )


def test_markov_tail_bound():
    assert markov_tail_bound(16.0, 2.0, 1) == 1.0  # clamped
    assert markov_tail_bound(16.0, 4.0, 1) == pytest.approx(1.0)
    assert markov_tail_bound(16.0, 8.0, 1) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        markov_tail_bound(16.0, 0.0, 1)
    with pytest.raises(ValueError):
        markov_tail_bound(-1.0, 2.0, 1)


# ---------- edge exceedance ----------


def test_edge_exponent_value():
    assert EDGE_EXPONENT == pytest.approx(-6.0 / 11.0, rel=1e-15)


def test_edge_exceedance_experiment():
    d = rademacher()
    result = edge_exceedance_experiment(d, 40, trials=6, epsilon=0.05, seed=13)
    assert result.threshold == pytest.approx(
        2.0 + 40.0 ** (EDGE_EXPONENT + 0.05), rel=1e-12
    )
    assert len(result.lambda_max_values) == 6
    count = sum(1 for v in result.lambda_max_values if v > result.threshold)
    assert result.exceed_count == count
    assert result.exceed_fraction == pytest.approx(count / 6.0)
    rerun = edge_exceedance_experiment(d, 40, trials=6, epsilon=0.05, seed=13, threads=3)
    assert rerun.lambda_max_values == result.lambda_max_values
    with pytest.raises(ValueError):
        edge_exceedance_experiment(d, 40, trials=0, epsilon=0.05, seed=0)


def test_lambda_max_attains_support_scale():
    # rademacher at n=60: the top eigenvalue is near 2 sigma = 2
    sample = sample_symmetric_matrix(rademacher(), 60, seed=17)
    lam = largest_eigenvalue(sample.normalized_view)
    assert 1.5 < lam < 2.6


# ---------- concentration ----------


def test_concentration_bound_values():
    assert concentration_bound(0.0) == 1.0
    assert concentration_bound(8.0) == pytest.approx(4.0 * math.exp(-2.0))
    assert concentration_bound(100.0) < 1e-100
    with pytest.raises(ValueError):
        concentration_bound(-1.0)
    for t in (math.nan, math.inf):
        with pytest.raises(ValueError, match="t must be finite"):
            concentration_bound(t)


def test_concentration_experiment():
    d = rademacher()
    rows = concentration_experiment(d, 50, trials=40, t_values=[0.0, 1.0, 4.0], seed=19)
    assert [r.t for r in rows] == [0.0, 1.0, 4.0]
    # deviation zero catches every sample
    assert rows[0].empirical_fraction == 1.0
    for r in rows:
        assert r.deviation == pytest.approx(d.bound_K * r.t / math.sqrt(50))
        assert 0.0 <= r.empirical_fraction <= 1.0
        assert r.bound == pytest.approx(concentration_bound(r.t))
    with pytest.raises(ValueError):
        concentration_experiment(d, 50, trials=1, t_values=[1.0], seed=0)


# ---------- the trial kernel against the public per-matrix route ----------


def public_route(dist, n, trials, seed, statistic, s=2, method="eig", normalized=True):
    out = []
    for i in range(trials):
        sample = sample_symmetric_matrix(dist, n, seed + i)
        a = sample.normalized_view if normalized else sample.entries
        if statistic == "trace":
            out.append(trace_power(a, s, method=method))
        elif statistic == "lambda_max":
            out.append(largest_eigenvalue(a))
        else:
            out.append((two_ended_top(a), spectral_norm(a)))
    return np.array(out)


def two_ended_top(a):
    """The top end of one two-ended Lanczos run with the kernel's start
    vector and tolerance; the dense top eigenvalue below the cutoff."""
    n = a.shape[0]
    if n < spectral.DENSE_EIG_CUTOFF:
        return largest_eigenvalue(a)
    from scipy.sparse.linalg import eigsh

    v0 = np.full(n, 1.0 / math.sqrt(n))
    ends = eigsh(a, k=2, which="BE", v0=v0, tol=spectral.DEFAULT_TOLERANCE,
                 return_eigenvectors=False)
    return float(max(ends))


SIZES = [1, 3, 63, 64, 100]  # both sides of DENSE_EIG_CUTOFF = 64


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("method", ["eig", "power"])
@pytest.mark.parametrize("normalized", [True, False])
def test_trace_kernel_matches_public_route(n, method, normalized, monkeypatch):
    # three matrices per batch, so seven trials cross two chunk boundaries
    monkeypatch.setattr(spectral, "BATCH_BYTES", 3 * 8 * n * n)
    d = skew12()
    expected = public_route(d, n, 7, 5, "trace", method=method, normalized=normalized)
    for threads in (1, 3):
        got = trial_values(
            d, n, 7, 5, "trace", s=2, method=method, normalized=normalized, threads=threads
        )
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("statistic", ["lambda_max", "spectrum"])
def test_eigenvalue_kernel_matches_public_route(n, statistic, monkeypatch):
    monkeypatch.setattr(spectral, "BATCH_BYTES", 2 * 8 * n * n)
    d = rademacher()
    for seed in (31, 2**32 - 2):  # the second run's five seeds cross 2^32
        expected = public_route(d, n, 5, seed, statistic)
        for threads in (1, 3):
            got = trial_values(d, n, 5, seed, statistic, threads=threads)
            assert np.array_equal(got, expected)
        if statistic == "spectrum":  # one two-ended run: lambda_max <= norm exactly
            assert np.all(got[:, 0] <= got[:, 1])
            top = public_route(d, n, 5, seed, "lambda_max")
            assert np.all(np.abs(got[:, 0] - top) <= spectral.DEFAULT_TOLERANCE * np.abs(top))


@pytest.mark.parametrize("n", [63, 64, 100])
def test_one_lanczos_run_per_matrix(n, monkeypatch):
    calls = []
    solve = spectral._lanczos

    def counted(a, k, which):
        calls.append((k, which))
        return solve(a, k, which)

    monkeypatch.setattr(spectral, "_lanczos", counted)
    for statistic, run in (("lambda_max", (1, "LA")), ("spectrum", (2, "BE"))):
        calls.clear()
        trial_values(rademacher(), n, 3, 8, statistic)
        assert calls == ([] if n < spectral.DENSE_EIG_CUTOFF else [run] * 3)


def test_kernel_chunking_does_not_change_values(monkeypatch):
    d = skew12()
    whole = trial_values(d, 10, 50, 3, "trace", s=3)
    monkeypatch.setattr(spectral, "BATCH_BYTES", 1)  # one matrix per batch
    assert np.array_equal(trial_values(d, 10, 50, 3, "trace", s=3), whole)


def test_threads_run_bounded_rounds_on_at_most_the_cpus(monkeypatch):
    # a huge thread count neither asks for that many workers nor queues every chunk at once
    workers, batches = [], []

    class SerialPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            items = list(items)
            batches.append(len(items))
            return [fn(item) for item in items]

    d, n = skew12(), 70
    monkeypatch.setattr(spectral, "BATCH_BYTES", 8 * n * n)  # one matrix per chunk
    expected = trial_values(d, n, 9, 0, "lambda_max", threads=1)
    monkeypatch.setattr(spectral, "ThreadPoolExecutor", SerialPool)
    got = trial_values(d, n, 9, 0, "lambda_max", threads=10**6)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert all(w <= cpus for w in workers) and all(b <= cpus for b in batches)
    assert sum(batches) == (9 if cpus > 1 else 0)
    assert np.array_equal(got, expected)


def test_large_n_peak_memory_stays_below_two_matrices():
    d, n = skew12(), 1200
    trial_values(d, n, 2, 11, "lambda_max")  # warm: scipy and ARPACK load outside the trace
    tracemalloc.start()
    try:
        trial_values(d, n, 2, 11, "lambda_max")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * n * n, peak / (8 * n * n)


def test_kernel_rejects_bad_arguments():
    d = rademacher()
    with pytest.raises(ValueError):
        trial_values(d, 4, 2, 0, "determinant")
    with pytest.raises(ValueError):
        trial_values(d, 4, 2, 0, "trace", method="det")
    with pytest.raises(ValueError):
        trial_values(d, 4, 2, 0, "trace", s=0)
    with pytest.raises(ValueError):
        trial_values(d, 4, 0, 0, "lambda_max")
    with pytest.raises(ValueError):
        trial_values(d, 0, 2, 0, "lambda_max")
    with pytest.raises(ValueError, match="threads must be at least 1"):
        trial_values(d, 4, 2, 0, "lambda_max", threads=0)


def test_memory_guard_refuses_before_allocating(monkeypatch):
    check_matrix_memory(100)
    with pytest.raises(ValueError, match="needs 120000001200000000 bytes"):
        check_matrix_memory(10**8)  # 24 bytes per upper-triangle entry, beyond any machine
    monkeypatch.setattr(ensemble, "_physical_memory_bytes", lambda: 1000)
    with pytest.raises(ValueError, match="needs 1872 bytes"):
        trial_values(rademacher(), 12, 1, 0, "lambda_max")


def test_memory_guard_counts_every_trial_in_flight(monkeypatch):
    # 4 MB holds two n = 500 matrices, but not the draws of two trials (3006000 bytes each)
    n, one = 500, 24 * (500 * 501 // 2)
    monkeypatch.setattr(ensemble, "_physical_memory_bytes", lambda: 4_000_000)
    assert len(trial_values(rademacher(), n, 1, 0, "lambda_max")) == 1
    with pytest.raises(ValueError, match=f"needs {2 * one} bytes for 2 trial"):
        trial_values(rademacher(), n, 2, 0, "lambda_max")  # one chunk of two rows
    monkeypatch.setattr(spectral, "BATCH_BYTES", 8 * n * n)  # one matrix per chunk
    assert len(trial_values(rademacher(), n, 2, 0, "lambda_max")) == 2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    with pytest.raises(ValueError, match=f"needs {2 * one} bytes for 2 trial"):
        trial_values(rademacher(), n, 2, 0, "lambda_max", threads=2)  # two chunks at once


def test_import_leaves_scipy_unloaded():
    # scipy.sparse.linalg costs about 0.35 s; only the Lanczos route imports it
    src = os.path.dirname(os.path.dirname(os.path.abspath(tml.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, tml.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
