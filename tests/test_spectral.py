import math
import os
import re
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


def test_lanczos_failure_raises_eigensolver_error(monkeypatch):
    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", broken)
    for solve in (largest_eigenvalue, spectral_norm):
        with pytest.raises(spectral.EigensolverError, match="Lanczos iteration failed") as info:
            solve(random_symmetric(64, seed=7))
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


@pytest.mark.parametrize("n", [64, 100, 300])
@pytest.mark.parametrize("dist", [rademacher(), skew12()], ids=["rademacher", "skew12"])
@pytest.mark.parametrize("k", [1, 2])
def test_lanczos_matches_eigsh_and_dense(n, dist, k):
    from scipy.sparse.linalg import eigsh  # the replaced solver, kept as an oracle

    a = sample_symmetric_matrix(dist, n, 17).normalized_view
    got = spectral._lanczos(a, k)
    dense = np.linalg.eigvalsh(a)[[0, -1]][-k:]
    v0 = np.full(n, 1.0 / math.sqrt(n))
    arpack = np.sort(eigsh(a, k=k, which="LA" if k == 1 else "BE", v0=v0,
                           tol=spectral.DEFAULT_TOLERANCE, return_eigenvectors=False))
    bound = spectral.DEFAULT_TOLERANCE * np.abs(dense)
    for oracle in (dense, arpack):
        assert np.all(np.abs(got - oracle) <= bound), (got - oracle, bound)
    print(f"n={n} k={k}: largest |lanczos - dense| {np.max(np.abs(got - dense)):.1e}, "
          f"|lanczos - eigsh| {np.max(np.abs(got - arpack)):.1e}")


@pytest.mark.parametrize("m", [2, 5, 40, 120])
def test_last_component_matches_eigh(m):
    # the stopping rule's |s_m| for both ends of a Lanczos-like T_m (alpha near 0,
    # beta near 1, as for a semicircle law), against dense eigenvectors
    rng = np.random.default_rng(m)
    alpha, beta = (0.1 * rng.normal(size=m)).tolist(), rng.uniform(0.9, 1.1, size=m).tolist()
    t = np.diag(alpha) + np.diag(beta[:m - 1], 1) + np.diag(beta[:m - 1], -1)
    values, vectors = np.linalg.eigh(t)
    assert np.array_equal(spectral._tridiagonal_ends(alpha, beta, m), np.linalg.eigvalsh(t))
    for end in (0, -1):
        got = spectral._last_component(alpha, beta, values[end], m)
        assert got == pytest.approx(abs(vectors[-1, end]), rel=1e-8, abs=0.0)


def test_last_component_rescales_instead_of_overflowing():
    # a long T_m with random diagonal has localized eigenvectors: 1/|s_m| is past the float range
    m = 800
    rng = np.random.default_rng(m)
    alpha, beta = rng.normal(size=m).tolist(), rng.uniform(0.5, 1.5, size=m).tolist()
    theta = np.linalg.eigvalsh(np.diag(alpha) + np.diag(beta[:m - 1], -1))[-1]
    assert 0.0 <= spectral._last_component(alpha, beta, theta, m) < 1e-30


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
    assert spectral._stack_values(stack, "lambda_max").tolist() == [ends[1]]
    lam, norm = spectral._stack_values(stack, "spectrum")[0]
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


@pytest.mark.parametrize("statistic", ["lambda_max", "spectrum"])
def test_low_rank_trials_are_reproducible(statistic):
    # rank <= 2 matrices: the Krylov space closes, and the ends come from dense eigvalsh
    d = ensemble.parse_distribution("support=-1,0,1;probs=0.0001,0.9998,0.0001")
    first = trial_values(d, 64, 2, 1, statistic)
    for _ in range(5):
        assert np.array_equal(trial_values(d, 64, 2, 1, statistic), first)


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
    # repeated squaring against the sum of lambda^(2s) over the spectrum
    a = random_symmetric(10, seed=4)
    for s in (1, 2, 3, 5):
        via_eig = np.sum(np.linalg.eigvalsh(a) ** (2 * s))
        assert trace_power(a, s) == pytest.approx(via_eig, rel=1e-10)
    with pytest.raises(ValueError):
        trace_power(a, 0)
    with pytest.raises(TypeError):  # one route: repeated squaring
        trace_power(a, 1, method="eig")


# ---------- Monte Carlo trace ----------


def test_mc_expected_trace_deterministic():
    d = skew12()
    a = mc_expected_trace(d, 4, 2, trials=200, seed=7)
    b = mc_expected_trace(d, 4, 2, trials=200, seed=7)
    assert (a.mean, a.stderr) == (b.mean, b.stderr)
    assert a.trials == 200 and a.n == 4 and a.s == 2


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
    # catalan(300) fits, but 0.25**600 underflows to 0.0 without raising;
    # abs=0, so that 0.0 is not within approx's default 1e-12 of 7.8e-185
    exact = Fraction(3 * catalan(300), 4**600)
    assert wigner_trace_prediction(3, 300, 0.25) == pytest.approx(float(exact), rel=1e-12, abs=0)
    # (2 sigma)^(2s) = 2^1024 overflows alone, and n times 2^1020 does so silently
    for n, sigma in ((3, 1.0), (2**10, 2.0 ** (1020 / 1024) / 2)):
        scale = math.sqrt(math.pi) * 512**1.5
        exact = n * Fraction(2 * sigma) ** 1024 / Fraction(scale)
        assert wigner_trace_prediction_refined(n, 512, sigma) == pytest.approx(float(exact), rel=1e-12)
    # (2 sigma)^(2s) = 0.6^1420 is subnormal, but the quotient, about 2.8e-308,
    # is normal; abs=0, as above
    scale = math.sqrt(math.pi) * 710**1.5
    exact = 10**12 * Fraction(2 * 0.3) ** 1420 / Fraction(scale)
    assert wigner_trace_prediction_refined(10**12, 710, 0.3) == pytest.approx(
        float(exact), rel=1e-12, abs=0
    )


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


def public_route(dist, n, trials, seed, statistic, s=2):
    out = []
    for i in range(trials):
        a = sample_symmetric_matrix(dist, n, seed + i).normalized_view
        if statistic == "trace":
            out.append(trace_power(a, s))
        elif statistic == "lambda_max":
            out.append(largest_eigenvalue(a))
        else:
            out.append((two_ended_top(a), spectral_norm(a)))
    return np.array(out)


def two_ended_top(a):
    """The top end of the public route's own two-ended solve (the one
    ``spectral_norm`` makes); the dense top eigenvalue below the cutoff."""
    n = a.shape[0]
    if n < spectral.DENSE_EIG_CUTOFF:
        return largest_eigenvalue(a)
    from scipy.sparse.linalg import eigsh  # the replaced solver, kept as an oracle

    top = float(spectral._lanczos(a, 2)[-1])
    v0 = np.full(n, 1.0 / math.sqrt(n))
    ends = eigsh(a, k=2, which="BE", v0=v0, tol=spectral.DEFAULT_TOLERANCE,
                 return_eigenvectors=False)
    assert abs(top - max(ends)) <= spectral.DEFAULT_TOLERANCE * abs(top)
    return top


SIZES = [1, 3, 63, 64, 100, 200]  # both sides of DENSE_EIG_CUTOFF = 64; Lanczos converges at 200


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("oracle", ["eig", "power"])
def test_trace_kernel_matches_public_route(n, oracle, monkeypatch):
    # three matrices per batch, so seven trials cross two chunk boundaries
    monkeypatch.setattr(spectral, "BATCH_BYTES", 3 * 8 * n * n)
    d = skew12()
    got = trial_values(d, n, 7, 5, "trace", s=2)
    if oracle == "eig":  # the kernel's own formula on the same sampled matrices, bit for bit
        matrices = [sample_symmetric_matrix(d, n, 5 + i) for i in range(7)]
        spectra = [np.linalg.eigvalsh(m.normalized_view) for m in matrices]
        assert np.array_equal(got, [np.sum(vals ** 4) for vals in spectra])
    else:  # repeated squaring of the same sampled matrices: the independent per-matrix check
        expected = public_route(d, n, 7, 5, "trace")
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n", [1, 3, 63, 64, 100])
def test_public_routines_read_their_solver_bit_for_bit(n):
    # below the cutoff the dense eigvalsh, from it up the Lanczos solver
    a = sample_symmetric_matrix(skew12(), n, 9).normalized_view
    if n < spectral.DENSE_EIG_CUTOFF:
        ends = np.linalg.eigvalsh(a)[[0, -1]]
        top = ends[1]
    else:
        ends, top = spectral._lanczos(a, 2), spectral._lanczos(a, 1)[-1]
    assert largest_eigenvalue(a) == top
    assert spectral_norm(a) == np.max(np.abs(ends))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("statistic", ["lambda_max", "spectrum"])
def test_eigenvalue_kernel_matches_public_route(n, statistic, monkeypatch):
    monkeypatch.setattr(spectral, "BATCH_BYTES", 2 * 8 * n * n)
    d = rademacher()
    for seed in (31, 2**32 - 2):  # the second run's five seeds cross 2^32
        expected = public_route(d, n, 5, seed, statistic)
        got = trial_values(d, n, 5, seed, statistic)
        assert np.array_equal(got, expected)
        if statistic == "spectrum":  # one two-ended run: lambda_max <= norm exactly
            assert np.all(got[:, 0] <= got[:, 1])
            top = public_route(d, n, 5, seed, "lambda_max")
            assert np.all(np.abs(got[:, 0] - top) <= spectral.DEFAULT_TOLERANCE * np.abs(top))


@pytest.mark.parametrize("n", [63, 64, 100])
def test_one_lanczos_run_per_matrix(n, monkeypatch):
    calls = []
    solve = spectral._lanczos

    def counted(a, k):
        calls.append(k)
        return solve(a, k)

    monkeypatch.setattr(spectral, "_lanczos", counted)
    for statistic, run in (("lambda_max", 1), ("spectrum", 2)):
        calls.clear()
        trial_values(rademacher(), n, 3, 8, statistic)
        assert calls == ([] if n < spectral.DENSE_EIG_CUTOFF else [run] * 3)


def test_kernel_chunking_does_not_change_values(monkeypatch):
    d = skew12()
    whole = trial_values(d, 10, 50, 3, "trace", s=3)
    monkeypatch.setattr(spectral, "BATCH_BYTES", 1)  # one matrix per batch
    assert np.array_equal(trial_values(d, 10, 50, 3, "trace", s=3), whole)


@pytest.mark.parametrize("seed", [31, 2**32 - 2])  # the second run's five seeds cross 2^32
def test_one_seeding_run_feeds_every_chunk(seed, monkeypatch):
    calls = {"_trial_streams": 0, "_seed_words": 0}

    def counted(name):
        original = getattr(ensemble, name)

        def call(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(ensemble, name, call)

    counted("_trial_streams")
    counted("_seed_words")
    d, n = skew12(), 70
    monkeypatch.setattr(spectral, "BATCH_BYTES", 8 * n * n)  # one matrix per chunk: 5 chunks
    got = trial_values(d, n, 5, seed, "lambda_max")
    assert calls == {"_trial_streams": 1, "_seed_words": 1}
    assert np.array_equal(got, public_route(d, n, 5, seed, "lambda_max"))


def peak_matrices(n, *args, **kwargs):
    """tracemalloc's peak over one trial_values call, in n x n matrices."""
    trial_values(*args, **kwargs)  # warm: first-call allocations stay outside the trace
    tracemalloc.start()
    try:
        trial_values(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 * n * n)


def test_large_n_peak_memory_stays_below_two_matrices():
    d, n = skew12(), 1200
    peak = peak_matrices(n, d, n, 2, 11, "lambda_max")
    assert peak < 2, peak


def test_large_n_trial_holds_one_matrix_and_the_basis():
    # the uniforms are drawn and unpacked inside the trial's own matrix
    d, n = skew12(), 1200
    peak = peak_matrices(n, d, n, 2, 11, "lambda_max")
    assert peak < 1.4, peak


@pytest.mark.parametrize("statistic", ["lambda_max", "spectrum", "trace"])
def test_peak_memory_stays_within_the_guard(statistic, monkeypatch):
    # two trials in one chunk; the guard's figure bounds what tracemalloc sees
    d, n, trials = skew12(), 200, 2
    figures = []
    guard = spectral.check_matrix_memory

    def recorded(*args):
        figures.append(args)
        guard(*args)

    monkeypatch.setattr(spectral, "check_matrix_memory", recorded)
    peak = peak_matrices(n, d, n, trials, 3, statistic, s=2)
    assert figures[-1] == (n, trials, statistic)
    monkeypatch.setattr(ensemble, "_physical_memory_bytes", lambda: 0)
    with pytest.raises(ValueError) as info:
        guard(*figures[-1])
    need = int(re.search(r"needs (\d+) bytes", str(info.value))[1])
    assert peak <= need / (8 * n * n), (peak, need / (8 * n * n))


def test_kernel_rejects_bad_arguments():
    d = rademacher()
    with pytest.raises(ValueError):
        trial_values(d, 4, 2, 0, "determinant")
    with pytest.raises(TypeError):  # the trace has one route, from the eigenvalues
        trial_values(d, 4, 2, 0, "trace", method="power")
    with pytest.raises(ValueError):
        trial_values(d, 4, 2, 0, "trace", s=0)
    with pytest.raises(ValueError):
        trial_values(d, 4, 0, 0, "lambda_max")
    with pytest.raises(ValueError):
        mc_expected_trace(d, 5, 3, trials=0, seed=0)
    with pytest.raises(ValueError):
        trial_values(d, 0, 2, 0, "lambda_max")


def test_memory_guard_refuses_before_allocating(monkeypatch):
    check_matrix_memory(100)
    with pytest.raises(ValueError, match="needs 160000000001572864 bytes"):
        check_matrix_memory(10**8)  # the matrix and its Lanczos solve, beyond any machine
    monkeypatch.setattr(ensemble, "_physical_memory_bytes", lambda: 1000)
    with pytest.raises(ValueError, match="needs 1575360 bytes"):
        trial_values(rademacher(), 12, 1, 0, "lambda_max")  # 2 matrices, 2 rows, the mapper


def test_memory_guard_counts_every_trial_in_flight(monkeypatch):
    # 6 MB holds one n = 500 trial, its Lanczos solve (2 MB each) and its mapper
    # block, but not a second trial
    n, one, mapper = 500, 8 * 500 * 500, 24 * ensemble._MAP_BLOCK
    monkeypatch.setattr(ensemble, "_physical_memory_bytes", lambda: 6_000_000)
    assert len(trial_values(rademacher(), n, 1, 0, "lambda_max")) == 1
    with pytest.raises(ValueError, match=f"needs {3 * one + mapper} bytes for 2 trial"):
        trial_values(rademacher(), n, 2, 0, "lambda_max")  # one chunk of two rows
    monkeypatch.setattr(spectral, "BATCH_BYTES", 8 * n * n)  # one matrix per chunk
    assert len(trial_values(rademacher(), n, 2, 0, "lambda_max")) == 2


def test_import_leaves_scipy_unloaded():
    # no module under tml imports scipy, nor a thread pool
    src = os.path.dirname(os.path.dirname(os.path.abspath(tml.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, tml.cli, tml.spectral, tml.dyck, tml.gluing; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
        "or m == 'concurrent.futures'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
