"""Release gate: one test per shipped guarantee.

Each test prints a single verdict line (``acceptance NN slug: PASS|FAIL``)
straight to the terminal before asserting, so a plain ``pytest -v`` run shows
the scorecard even with output capture on.  Budgets and tolerances are part of
the contract; seeds are pinned so reruns are exact.
"""

import csv
import itertools
import math
import time

import numpy as np
import pytest

import tml.cli as cli
from tml.dyck import (
    enumerate_dyck,
    expected_k_functional,
    stay_above_full_window_expectation,
)
from tml.ensemble import rademacher, skew12
from tml.gluing import (
    BoundBreakdown,
    enumerate_insertions,
    glue,
    log_trace_excess_ratio,
    merge_odd_walks,
    odd_interval_decomposition,
    run_invariant_suite,
    single_walk_contribution_bound,
    single_walk_insertion_bound,
    verify_catalan_convolution,
)
from tml.paths import (
    ClosedPath,
    beta_sum,
    catalan,
    exact_trace_sums,
    is_even_path,
    random_closed_path,
)
from tml.spectral import (
    concentration_experiment,
    edge_exceedance_experiment,
    mc_expected_trace,
)

# frozen by exhaustive enumeration at s = 1..10
EXPECTED_WINDOW_MEANS = [
    3.0, 8.5, 15.8, 24.571428571428573, 34.61904761904762,
    45.81060606060606, 58.04895104895105, 71.25874125874125,
    85.3792677910325, 100.3602048106692,
]
EXPECTED_STAY_MEANS = [
    1.0, 2.0, 1.8, 2.5714285714285716, 2.380952380952381,
    3.0303030303030303, 2.8554778554778553, 3.4265734265734267,
    3.2653229123817358, 3.780900214336747,
]

MIXED_FIXTURES = [
    (1, 1, 2, 2, 1, 2, 2, 3, 1),
    (1, 1, 2, 2, 1, 3, 2, 2, 1),
    (1, 1, 2, 2, 3, 1, 1, 3, 1),
]


def _verdict(capsys, number: int, slug: str, ok: bool, detail: str = ""):
    with capsys.disabled():
        print(f"acceptance {number:02d} {slug}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance {number:02d} {slug}: {detail}"


def test_01_mc_matches_exact_trace(capsys):
    t0 = time.monotonic()
    dist = skew12()
    exact = exact_trace_sums(dist, 3, 2)[0]
    est = mc_expected_trace(dist, 3, 2, trials=10**5, seed=42)
    runtime = time.monotonic() - t0
    gap = abs(est.mean - exact)
    ok = gap <= 4 * est.stderr and runtime < 30.0
    _verdict(capsys, 1, "mc-vs-exact", ok,
             f"mean={est.mean} exact={exact} stderr={est.stderr} runtime={runtime:.1f}s")


def test_02_catalan_wigner_consistency(capsys):
    dist = rademacher()
    ok = True
    detail = ""
    for n in (1, 2, 3):
        for s in (1, 2, 3):
            full, even = exact_trace_sums(dist, n, s)
            if even != pytest.approx(full, rel=1e-12):
                ok, detail = False, f"n={n} s={s} full={full} even={even}"
    for s in range(1, 11):
        if sum(1 for _ in enumerate_dyck(s)) != catalan(s):
            ok, detail = False, f"dyck count off at s={s}"
    _verdict(capsys, 2, "catalan-wigner", ok, detail)


def test_03_gluing_invariant_suite(capsys):
    t0 = time.monotonic()
    exhaustive = run_invariant_suite(3, 3, exhaustive=True)
    randomized = run_invariant_suite(20, 10, exhaustive=False, random_walks=10**4, seed=0)
    runtime = time.monotonic() - t0
    ok = (
        exhaustive.ok
        and randomized.ok
        and exhaustive.walks_checked == 3**6
        and randomized.walks_checked == 10**4
        and runtime < 60.0
    )
    _verdict(capsys, 3, "gluing-invariants", ok,
             f"violations={exhaustive.violations + randomized.violations} runtime={runtime:.1f}s")


def test_04_insertion_bound_dominates_fiber(capsys):
    # every even base of length <= 6 on three vertices; fibers grouped by
    # the inserted walk's (half-length, odd-pair count, run count)
    max_pairs = {2: 3, 4: 2, 6: 1}
    bases = 0
    groups = 0
    worst = 0.0
    violations = 0
    for length in (2, 4, 6):
        for verts in itertools.product(range(1, 4), repeat=length):
            seq = (*verts, verts[0])
            base = ClosedPath(vertices=seq, n=3)
            if not is_even_path(base):
                continue
            bases += 1
            fiber: dict[tuple[int, int, int], int] = {}
            for p in enumerate_insertions(base, max_odd_pairs=max_pairs[length]):
                struct = odd_interval_decomposition(p)
                key = (p.length // 2, struct.odd_pairs, struct.run_count)
                fiber[key] = fiber.get(key, 0) + 1
            for (m, l, j), count in fiber.items():
                groups += 1
                bound = single_walk_insertion_bound(m, l, j)
                worst = max(worst, count / bound)
                if count > bound:
                    violations += 1
    ok = violations == 0 and bases == 321 and groups > 0
    _verdict(capsys, 4, "insertion-dominance", ok,
             f"bases={bases} groups={groups} worst_ratio={worst:.4f} violations={violations}")


def test_05_second_gluing_cleans_mixed_outcomes(capsys):
    ok = True
    detail = ""

    def check(p: ClosedPath) -> bool:
        d = glue(p)
        if d.outcome != "mixed-parity":
            return True
        merged, merges = merge_odd_walks(list(d.walks))
        return (
            merges >= 1
            and all(is_even_path(w) for w in merged)
            and sum(w.length for w in merged) == p.length - 2 * d.odd_pairs - 2 * merges
        )

    for verts in MIXED_FIXTURES:
        p = ClosedPath(vertices=verts, n=3)
        if glue(p).outcome != "mixed-parity" or not check(p):
            ok, detail = False, f"fixture {verts}"
    rng = np.random.default_rng(99)
    mined = 0
    for _ in range(200000):
        if mined >= 20:
            break
        p = random_closed_path(4, 5, rng)
        if glue(p).outcome != "mixed-parity":
            continue
        mined += 1
        if not check(p):
            ok, detail = False, f"mined {p.vertices}"
    if mined < 20:
        ok, detail = False, f"only mined {mined} mixed walks"
    _verdict(capsys, 5, "second-gluing", ok, detail)


def test_06_window_functional_scaling(capsys):
    t0 = time.monotonic()
    exact = [expected_k_functional(s, 1, mode="exact") for s in range(1, 11)]
    frozen_ok = exact == EXPECTED_WINDOW_MEANS
    xs, ys = [], []
    for s in (16, 32, 64, 128, 256):
        est = expected_k_functional(s, 1, mode="mc", trials=10**4, seed=1000 + s)
        xs.append(math.log(s))
        ys.append(math.log(est))
    slope = float(np.polyfit(xs, ys, 1)[0])
    runtime = time.monotonic() - t0
    ok = frozen_ok and 1.35 <= slope <= 1.65 and runtime < 300.0
    _verdict(capsys, 6, "window-scaling", ok,
             f"slope={slope:.4f} frozen_ok={frozen_ok} runtime={runtime:.1f}s")


def test_07_stay_above_probe(capsys):
    exact = [stay_above_full_window_expectation(s) for s in range(1, 11)]
    frozen_ok = exact == EXPECTED_STAY_MEANS
    est = stay_above_full_window_expectation(256, mode="mc", trials=2000, seed=77)
    ratio = est / (2.0 * math.sqrt(256 / math.pi))
    ok = frozen_ok and 0.7 <= ratio <= 1.3
    _verdict(capsys, 7, "stay-above-probe", ok,
             f"ratio={ratio:.4f} frozen_ok={frozen_ok}")


def test_08_beta_sum(capsys):
    finite = all(math.isfinite(beta_sum(i)) for i in range(1, 101))
    ok = (
        abs(beta_sum(1) - math.pi) < 1e-12
        and abs(beta_sum(2) - 8.0 / 3.0) < 1e-12
        and finite
    )
    _verdict(capsys, 8, "beta-sum", ok,
             f"beta1={beta_sum(1)} beta2={beta_sum(2)} finite={finite}")


def test_09_edge_exceedance(capsys):
    t0 = time.monotonic()
    dist = skew12()
    big = edge_exceedance_experiment(dist, 2000, 200, 0.05, seed=11)
    small = edge_exceedance_experiment(dist, 500, 200, 0.05, seed=11)
    runtime = time.monotonic() - t0
    ok = (
        big.exceed_fraction <= 0.05
        and small.exceed_fraction >= big.exceed_fraction
        and runtime < 600.0
    )
    _verdict(capsys, 9, "edge-exceedance", ok,
             f"n2000={big.exceed_fraction} n500={small.exceed_fraction} runtime={runtime:.1f}s")


def test_10_concentration(capsys):
    rows = concentration_experiment(
        rademacher(), 500, 1000, tuple(float(t) for t in range(1, 9)), seed=3
    )
    bad = [r.t for r in rows if r.empirical_fraction > r.bound]
    ok = len(rows) == 8 and not bad
    _verdict(capsys, 10, "concentration", ok, f"violations at t={bad}")


def test_11_bound_trend(capsys):
    # the leading-term ratio shrinks along s = floor(n^0.45); the full sum is
    # only summable on the shallower schedule s = floor(n^0.25)
    ok = True
    detail = ""
    for sigma, bound_k in ((1.0, 1.0), (math.sqrt(2.0), 2.0)):
        for exponent, leading_only in ((0.45, True), (0.25, False)):
            ratios = []
            for n in (10**3, 10**4, 10**5):
                s = int(n**exponent)
                bd = single_walk_contribution_bound(s, n, sigma, bound_k)
                if leading_only:
                    bd = BoundBreakdown(log_total=bd.log_terms[0], log_terms=(bd.log_terms[0],))
                ratios.append(log_trace_excess_ratio(bd, s, n, sigma))
            if not (ratios[0] > ratios[1] > ratios[2]):
                ok, detail = False, f"sigma={sigma} exponent={exponent} ratios={ratios}"
    if not verify_catalan_convolution(10**4):
        ok, detail = False, "catalan convolution inequality failed"
    _verdict(capsys, 11, "bound-trend", ok, detail)


CLI_CASES = [
    ["trace-mc", "--dist", "rademacher", "--n", "2", "--s", "1", "--trials", "20", "--seed", "7"],
    ["trace-exact", "--dist", "skew12", "--n", "2", "--s", "2"],
    ["spectrum", "--dist", "rademacher", "--n", "10", "--trials", "2", "--seed", "1"],
    ["edge-exceed", "--dist", "rademacher", "--n", "40", "--trials", "3",
     "--epsilon", "0.05", "--seed", "2"],
    ["concentration", "--dist", "rademacher", "--n", "30", "--trials", "5",
     "--t-values", "1,2", "--seed", "4"],
    ["verify-gluing", "--n", "2", "--s", "2"],
    ["bounds-table", "--s", "8", "--n", "1000"],
    ["dyck-stats", "--s", "3"],
]


def test_12_cli_determinism(capsys, tmp_path):
    ok = True
    detail = ""
    for case in CLI_CASES:
        name = case[0]
        first = tmp_path / name / "a"
        second = tmp_path / name / "b"
        for out in (first, second):
            code = cli.main([*case, "--output-dir", str(out)])
            if code != 0:
                ok, detail = False, f"{name} exited {code}"
        if ok:
            body_a = (first / f"{name}.csv").read_bytes()
            body_b = (second / f"{name}.csv").read_bytes()
            if body_a != body_b:
                ok, detail = False, f"{name} bodies differ"
            with open(first / f"{name}.csv", newline="") as fh:
                if not list(csv.DictReader(fh)):
                    ok, detail = False, f"{name} wrote an empty table"
    _verdict(capsys, 12, "cli-determinism", ok, detail)
