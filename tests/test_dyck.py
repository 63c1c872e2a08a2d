import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tml import dyck
from tml.dyck import (
    DyckPath,
    DyckSizeError,
    beta_sum,
    catalan,
    descent_window,
    enumerate_dyck,
    exact_k_functional_total,
    exact_stay_above_total,
    expected_k_functional,
    k_functional,
    k_functional_tensor,
    max_level_tail,
    sample_dyck,
    stay_above_full_window_expectation,
)

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]

# frozen exact totals over all paths of half-length s (s = 1..)
K_TOTALS = [3, 17, 79, 344, 1454, 6047, 24903, 101900, 415114, 1685650]
STAY_TOTALS = [1, 4, 9, 36, 100, 400, 1225, 4900, 15876, 63504]
TENSOR2_TOTALS = [0, 12, 173, 1504, 10441, 63864]

E_K = [3.0, 8.5, 15.8, 24.571428571428573, 34.61904761904762,
       45.81060606060606, 58.04895104895105, 71.25874125874125,
       85.3792677910325, 100.3602048106692]
E_STAY = [1.0, 2.0, 1.8, 2.5714285714285716, 2.380952380952381,
          3.0303030303030303, 2.8554778554778553, 3.4265734265734267,
          3.2653229123817358, 3.780900214336747]


sampled_paths = st.tuples(
    st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=10**6)
).map(lambda t: sample_dyck(*t))


# ---------- basics ----------


def test_catalan_values():
    for s, c in enumerate(CATALAN):
        assert catalan(s) == c
    with pytest.raises(ValueError):
        catalan(-1)


def test_dyck_path_validation():
    with pytest.raises(ValueError):
        DyckPath(steps=(-1, 1))          # dips below zero
    with pytest.raises(ValueError):
        DyckPath(steps=(1, 1))           # does not return
    with pytest.raises(ValueError):
        DyckPath(steps=(1, 0, -1))       # bad step
    p = DyckPath(steps=(1, 1, -1, -1))
    assert p.half_length == 2
    assert p.levels() == [0, 1, 2, 1, 0]


def test_enumerate_dyck_counts():
    for s in range(0, 7):
        paths = list(enumerate_dyck(s))
        assert len(paths) == catalan(s)
        assert len({p.steps for p in paths}) == len(paths)
    with pytest.raises(DyckSizeError):
        list(enumerate_dyck(15))


def test_sample_dyck_deterministic_and_uniform():
    assert sample_dyck(5, seed=3).steps == sample_dyck(5, seed=3).steps
    # chi-square against uniformity over the 14 paths of half-length 4
    trials = 14000
    counts = {}
    for t in range(trials):
        steps = sample_dyck(4, seed=t).steps
        counts[steps] = counts.get(steps, 0) + 1
    assert len(counts) == 14
    expected = trials / 14
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    # 13 degrees of freedom: 99.9th percentile is 34.5
    assert chi2 < 34.5


# ---------- window statistics ----------


def test_descent_window_fixture():
    p = DyckPath(steps=(1, -1, 1, -1))  # levels 0 1 0 1 0
    assert descent_window(p, 0) == 4
    assert descent_window(p, 1) == 0
    assert descent_window(p, 2) == 2
    assert descent_window(p, 4) == 0
    with pytest.raises(ValueError):
        descent_window(p, 5)


def literal_k_functional(x: DyckPath) -> int:
    """The defining double sum: over instants t1 and window lengths l2 >= 1,
    count the pairs where the path stays at or above its t1 level on the
    half-open window [t1, t1 + l2), both capped to the path domain."""
    levels = x.levels()
    top = len(levels) - 1
    total = 0
    for t1 in range(top + 1):
        for l2 in range(1, top - t1 + 1):
            if min(levels[t1 : t1 + l2]) >= levels[t1]:
                total += 1
    return total


def test_k_functional_minimal_path():
    assert k_functional(DyckPath(steps=(1, -1))) == 3


@pytest.mark.parametrize("s", [1, 2, 3, 4, 5, 6])
def test_k_functional_two_routes_agree(s):
    # stack-sweep route vs the literal double-sum definition
    for p in enumerate_dyck(s):
        assert k_functional(p) == literal_k_functional(p)


def test_k_functional_totals_frozen():
    for s, total in enumerate(K_TOTALS, start=1):
        assert exact_k_functional_total(s) == total
    for s, total in enumerate(TENSOR2_TOTALS, start=1):
        assert exact_k_functional_total(s, I=2) == total


def literal_tensor(x: DyckPath, I: int) -> int:
    from itertools import combinations

    levels = x.levels()
    top = len(levels) - 1
    w = []
    for t1 in range(1, top):
        count = 0
        for l2 in range(1, top - t1 + 1):
            if min(levels[t1 : t1 + l2]) >= levels[t1]:
                count += 1
        w.append(count)
    return sum(math.prod(c) for c in combinations(w, I))


@pytest.mark.parametrize("s,I", [(2, 2), (3, 2), (4, 2), (3, 3), (4, 3)])
def test_tensor_two_routes_agree(s, I):
    for p in enumerate_dyck(s):
        assert k_functional_tensor(p, I) == literal_tensor(p, I)


def test_k_functional_equals_interior_tensor_plus_boundary():
    # t1 = 0 always contributes 2s, t1 = 2s contributes 0
    for s in range(1, 7):
        lhs = exact_k_functional_total(s)
        rhs = sum(k_functional_tensor(p, 1) for p in enumerate_dyck(s))
        assert lhs == rhs + 2 * s * catalan(s)


@given(sampled_paths)
def test_k_functional_floor(p):
    assert k_functional(p) >= 2 * p.half_length


# ---------- stay-above statistics ----------


def literal_stay_above(x: DyckPath) -> int:
    """The definition: count t1 in [0, s] with x staying at or above x(t1)
    on the closed window [t1, t1 + s]."""
    levels = x.levels()
    s = x.half_length
    return sum(min(levels[t1 : t1 + s + 1]) >= levels[t1] for t1 in range(s + 1))


@pytest.mark.parametrize("s", [0, 1, 2, 3, 4, 5, 6, 7])
def test_stay_above_sweep_matches_literal(s):
    # next-below sweep route vs the literal slice-and-min definition
    for p in enumerate_dyck(s):
        assert dyck._stay_above_count(p) == literal_stay_above(p)


@given(sampled_paths)
def test_stay_above_sweep_matches_literal_sampled(p):
    assert dyck._stay_above_count(p) == literal_stay_above(p)


def test_stay_above_totals_frozen_and_closed_form():
    for s, total in enumerate(STAY_TOTALS, start=1):
        assert exact_stay_above_total(s) == total
        assert total == math.comb(s, s // 2) ** 2


def test_expected_values_frozen():
    for s, v in enumerate(E_K, start=1):
        assert expected_k_functional(s) == v
    for s, v in enumerate(E_STAY, start=1):
        assert stay_above_full_window_expectation(s) == v


def test_mc_modes_deterministic_and_consistent():
    a = expected_k_functional(8, mode="mc", trials=2000, seed=11)
    b = expected_k_functional(8, mode="mc", trials=2000, seed=11)
    assert a == b
    assert abs(a - E_K[7]) / E_K[7] < 0.05
    c = stay_above_full_window_expectation(8, mode="mc", trials=2000, seed=11)
    assert abs(c - E_STAY[7]) / E_STAY[7] < 0.10
    with pytest.raises(ValueError):
        expected_k_functional(4, mode="bogus")
    with pytest.raises(ValueError):
        expected_k_functional(4, mode="mc", trials=0)


# Monte Carlo values pinned bit for bit: a change to the seed stream (trial t
# uses seed + t) or to the exact integer summation shows here.
MAX_LEVEL_COUNTS_20 = (0, 0, 16, 188, 369, 476, 434, 258, 157, 61, 29, 9, 2, 1, 0, 0, 0, 0, 0, 0)


def test_mc_values_pinned():
    assert expected_k_functional(64, mode="mc", trials=600, seed=1064) == 1714.4633333333334
    assert expected_k_functional(16, I=2, mode="mc", trials=600, seed=1064) == 14238.345
    assert stay_above_full_window_expectation(256, mode="mc", trials=200, seed=77) == 17.91
    table = max_level_tail(20, 2000, 7)
    assert table.rows == tuple((k, c / 2000) for k, c in enumerate(MAX_LEVEL_COUNTS_20, start=1))
    assert (table.fit_c1, table.fit_c2) == (0.10999375050374353, 0.17151583945520543)


def test_exact_guards():
    with pytest.raises(DyckSizeError):
        exact_k_functional_total(13)
    with pytest.raises(DyckSizeError):
        exact_stay_above_total(13)


# ---------- beta sums ----------


def test_beta_sum_known_values():
    assert beta_sum(1) == pytest.approx(math.pi, abs=1e-12)
    assert beta_sum(2) == pytest.approx(8.0 / 3.0, abs=1e-12)
    # I=3: two symmetric B(1/2, 7/2) terms plus B(2, 2)
    assert beta_sum(3) == pytest.approx(5.0 * math.pi / 8.0 + 1.0 / 6.0, rel=1e-12)
    with pytest.raises(ValueError):
        beta_sum(0)


def test_beta_sum_decreases():
    values = [beta_sum(i) for i in range(1, 30)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(math.isfinite(v) for v in values)


# ---------- maximum level ----------


def test_max_level_tail():
    table = max_level_tail(20, trials=2000, seed=7)
    assert table.s == 20 and table.trials == 2000
    probs = [p for _, p in table.rows]
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)
    assert all(p >= 0.0 for p in probs)
    assert table.rows[0][0] == 1 and table.rows[-1][0] == 20
    assert table.fit_c1 is not None and table.fit_c2 is not None
    assert table.fit_c2 > 0.0
    again = max_level_tail(20, trials=2000, seed=7)
    assert again.rows == table.rows
    with pytest.raises(ValueError):
        max_level_tail(5, trials=0, seed=0)
