import itertools
import math
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tml.ensemble import make_distribution, parse_distribution, rademacher, skew12
from tml.paths import (
    ClosedPath,
    PathSizeError,
    _canonical_sequences,
    _closed_sequences,
    _edge_counts,
    _moment_product,
    edge_key,
    edge_multiplicities,
    even_path_contribution,
    exact_expected_trace,
    exact_expected_trace_patterns,
    exact_trace_sums,
    exact_trace_sums_patterns,
    fk_lift,
    is_even_path,
    marked_instants,
    nonreturned_edges,
    odd_path_contribution,
    path_weight,
    random_closed_path,
    walk_count_exceeds,
)


def cp(*verts, n=None):
    return ClosedPath(vertices=tuple(verts), n=n or max(verts))


closed_walks = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(
        st.integers(min_value=1, max_value=n), min_size=2, max_size=8
    ).map(lambda head: ClosedPath(vertices=tuple(head) + (head[0],), n=n))
)


# ---------- container and edge bookkeeping ----------


def test_closed_path_validation():
    with pytest.raises(ValueError):
        ClosedPath(vertices=(1, 2), n=2)          # not closed
    with pytest.raises(ValueError):
        ClosedPath(vertices=(1, 3, 1), n=2)       # vertex out of range
    with pytest.raises(ValueError):
        ClosedPath(vertices=(), n=1)              # empty
    p = cp(1, 2, 1)
    assert p.length == 2
    assert p.origin == 1
    assert p.step(1) == (1, 2)
    assert p.step(2) == (2, 1)
    # odd-length closed walks are allowed
    assert cp(1, 2, 2, 1).length == 3


def test_edge_key_and_multiplicities():
    assert edge_key(3, 1) == (1, 3)
    assert edge_key(2, 2) == (2, 2)
    p = cp(1, 1, 2, 2, 1)
    assert edge_multiplicities(p) == {(1, 1): 1, (1, 2): 2, (2, 2): 1}
    assert not is_even_path(p)
    assert is_even_path(cp(1, 2, 1))
    # each call hands out its own Counter: mutating one leaves the walk's count
    edge_multiplicities(p)[(1, 1)] += 1
    assert edge_multiplicities(p) == {(1, 1): 1, (1, 2): 2, (2, 2): 1}
    assert not is_even_path(p)


def test_marked_and_nonreturned_fixture():
    # loop, two crossings of {1,2}, loop: odd edges are the two loops
    p = cp(1, 1, 2, 2, 1)
    assert marked_instants(p) == {1, 2, 3}
    assert nonreturned_edges(p) == [1, 3]
    q = cp(1, 2, 1, 2, 1)
    assert marked_instants(q) == {1, 3}
    assert nonreturned_edges(q) == []


@given(closed_walks)
def test_nonreturned_edges_are_the_last_odd_occurrences(p):
    vs = p.vertices
    steps = [edge_key(vs[j - 1], vs[j]) for j in range(1, len(vs))]
    last = {e: j for j, e in enumerate(steps, start=1)}
    odd = [e for e, m in Counter(steps).items() if m % 2]
    assert nonreturned_edges(p) == sorted(last[e] for e in odd)


@given(closed_walks)
def test_marked_count_identity(p):
    # sum of ceil(mult/2) = half the length plus the number of odd edges / 2
    if p.length % 2:
        return
    odd = sum(1 for m in edge_multiplicities(p).values() if m % 2)
    assert len(nonreturned_edges(p)) == odd
    assert odd % 2 == 0
    assert len(marked_instants(p)) == p.length // 2 + odd // 2


def test_fk_lift():
    p = cp(1, 1, 2, 2, 1)
    lifted = fk_lift(p)
    assert lifted.n == p.n + 1
    assert is_even_path(lifted)
    assert lifted.length == p.length + len(nonreturned_edges(p))
    assert lifted.vertices.count(p.n + 1) == len(nonreturned_edges(p))
    even = cp(1, 2, 1)
    assert fk_lift(even).vertices == even.vertices


def _first_occurrence(verts):
    labels = {}
    return tuple(labels.setdefault(v, len(labels) + 1) for v in verts)


@pytest.mark.parametrize("n,length", [(1, 1), (1, 4), (2, 5), (3, 4), (4, 6), (6, 3)])
def test_canonical_sequences_cover_each_class_once(n, length):
    classes = [(verts, v) for verts, v, _ in _canonical_sequences(n, length)]
    assert len({verts for verts, _ in classes}) == len(classes)
    labeled = Counter(_first_occurrence(vs) for vs in _closed_sequences(n, length))
    assert {verts: math.perm(n, v) for verts, v in classes} == labeled
    for verts, v in classes:
        assert len(verts) == length + 1 and verts[0] == verts[-1] == 1
        assert v == max(verts) and _first_occurrence(verts) == verts
    assert [verts for verts, _ in classes] == sorted(verts for verts, _ in classes)


@pytest.mark.parametrize(
    "n,length", [(1, 1), (1, 4), (2, 1), (2, 5), (3, 4), (4, 6), (6, 3), (7, 8), (100, 6)]
)
def test_canonical_sequences_count_edges_and_prune_unpaired_classes(n, length):
    def drawn(prune):
        # counts is live: read it before the next item is drawn
        return [
            (verts, v, list(counts.items()))
            for verts, v, counts in _canonical_sequences(n, length, prune)
        ]

    every = drawn(False)
    for verts, _, items in every:
        assert items == list(_edge_counts(verts).items())
    assert drawn(True) == [c for c in every if all(k >= 2 for _, k in c[2])]


# ---------- weights ----------


def test_path_weight_rademacher():
    d = rademacher()
    even = cp(1, 2, 1, n=3)
    assert path_weight(even, d, normalized=False) == 1.0
    assert path_weight(even, d) == pytest.approx(1.0 / 3.0)
    odd = cp(1, 1, 2, 2, 1, n=2)
    assert path_weight(odd, d) == 0.0
    with pytest.raises(ValueError):
        path_weight(cp(1, 2, 2, 1), d)  # odd length has no normalized weight


def test_path_weight_skew12():
    d = skew12()
    p = cp(1, 1, 2, 2, 1, n=2)
    # two odd loops (mu3 each via mult 1? no: mult-1 edges carry the mean)
    assert path_weight(p, d, normalized=False) == 0.0
    q = cp(1, 1, 1, 1, 2, 2, 2, 2, 1, n=2)
    # loop mult 3 (mu3=2), edge mult 2 (sigma^2=2), loop mult 3 (mu3=2)
    assert path_weight(q, d, normalized=False) == pytest.approx(8.0)


# ---------- exact trace sums ----------


def test_exact_trace_single_vertex():
    # n=1: the matrix is one entry, Tr M^(2s) = x^(2s)
    assert exact_expected_trace(rademacher(), 1, 3) == pytest.approx(1.0)
    assert exact_expected_trace(skew12(), 1, 2, normalized=False) == pytest.approx(6.0)


def test_exact_trace_s1_formula():
    # E[Tr A^2] = n * sigma^2 for any law; every step pairs with its reverse
    for d in (rademacher(), skew12()):
        for n in (1, 2, 3, 5):
            assert exact_expected_trace(d, n, 1) == pytest.approx(
                n * d.sigma**2, rel=1e-12
            )


FROZEN_SKEW12 = {
    (2, 2): 14.0,
    (3, 2): 22.0,
    (2, 3): 62.0,
    (3, 3): 102.44444444444444,
}


@pytest.mark.parametrize("n,s", sorted(FROZEN_SKEW12))
def test_exact_trace_skew12_frozen(n, s):
    assert exact_expected_trace(skew12(), n, s) == pytest.approx(
        FROZEN_SKEW12[(n, s)], rel=1e-12
    )


def test_exact_trace_rademacher_frozen():
    assert exact_expected_trace(rademacher(), 3, 3) == pytest.approx(
        9.88888888888889, rel=1e-12
    )
    assert exact_expected_trace(skew12(), 3, 2, normalized=False) == pytest.approx(
        198.0, rel=1e-12
    )


def test_even_odd_split():
    d = skew12()
    for n, s in [(2, 2), (3, 2), (2, 3), (3, 3)]:
        total = exact_expected_trace(d, n, s)
        even = even_path_contribution(d, n, s)
        odd = odd_path_contribution(d, n, s)
        assert even + odd == pytest.approx(total, rel=1e-12)
    # rademacher kills every odd path outright
    for n, s in [(2, 2), (3, 3)]:
        assert odd_path_contribution(rademacher(), n, s) == 0.0


def test_skew12_odd_share_first_appears_at_s4():
    # any odd profile of total length <= 6 forces a mean-weighted edge or an
    # odd-degree vertex, so the odd share vanishes through s = 3
    d = skew12()
    for s in (1, 2, 3):
        assert odd_path_contribution(d, 3, s) == 0.0
    assert odd_path_contribution(d, 3, 4) == pytest.approx(
        2.3703703703704377, rel=1e-9
    )
    assert exact_expected_trace(d, 3, 4) == pytest.approx(
        563.6296296296297, rel=1e-12
    )


def test_patterns_route_matches_full():
    for d in (rademacher(), skew12()):
        for n, s in [(1, 2), (2, 1), (2, 2), (3, 2), (2, 3), (3, 3), (5, 2)]:
            full = exact_expected_trace(d, n, s)
            pat = exact_expected_trace_patterns(d, n, s)
            assert pat == pytest.approx(full, rel=1e-12)
            even_full = even_path_contribution(d, n, s)
            even_pat = exact_trace_sums_patterns(d, n, s)[1]
            assert even_pat == pytest.approx(even_full, rel=1e-12)


def test_patterns_route_large_n():
    assert exact_expected_trace_patterns(skew12(), 200, 2) == pytest.approx(
        1598.0, rel=1e-12
    )
    # closed form at s=2: E[Tr A^4]*n = sums over pair profiles
    # n=200, sigma^2=2: leading 2*n^2*sigma^4 charge dominates
    assert exact_expected_trace_patterns(rademacher(), 10**6, 1) == pytest.approx(
        10**6, rel=1e-12
    )


def test_enumeration_guards():
    with pytest.raises(PathSizeError):
        exact_expected_trace(rademacher(), 30, 10)
    with pytest.raises(PathSizeError):
        exact_expected_trace_patterns(rademacher(), 3, 7)  # 2s = 14 > 12
    with pytest.raises(ValueError):
        exact_expected_trace(rademacher(), 2, 0)
    for n in (0, -3):
        with pytest.raises(ValueError):
            exact_expected_trace_patterns(rademacher(), n, 2)


def test_enumeration_guard_builds_no_huge_power():
    # n**(2s) at s = 10**8 would take minutes to build
    start = time.perf_counter()
    with pytest.raises(PathSizeError):
        exact_expected_trace(rademacher(), 3, 10**8)
    assert time.perf_counter() - start < 1.0


def test_enumeration_guard_counts_one_vertex_as_two():
    # n = 1 has one walk, 2s steps long: it runs up to 2**(2s) <= 1e8 (s = 13)
    assert exact_trace_sums(rademacher(), 1, 6) == exact_trace_sums_patterns(rademacher(), 1, 6)
    assert exact_trace_sums(rademacher(), 1, 13) == (1.0, 1.0)
    for s in (14, 10**6, 10**8):
        start = time.perf_counter()
        with pytest.raises(PathSizeError, match="exceeds the enumeration guard"):
            exact_trace_sums(rademacher(), 1, s)
        assert time.perf_counter() - start < 1.0


def test_walk_count_exceeds_matches_the_power():
    for limit in (1, 2**26 - 1, 2**26, 10**7, 10**8):
        for n in range(1, 40):
            for s in range(1, 30):
                assert walk_count_exceeds(n, s, limit) == (n ** (2 * s) > limit)
        for n, s in [(0, 3), (-5, 3), (3, 0), (3, -2)]:
            assert not walk_count_exceeds(n, s, limit)


def _three_point():
    # mean 0, third moment 2.4
    return make_distribution([-1.0, 0.0, 3.0], [0.3, 0.6, 0.1])


LAWS = (skew12, rademacher, _three_point)


@pytest.mark.parametrize("law", LAWS)
@pytest.mark.parametrize("normalized", [True, False])
def test_pair_functions_match_their_views(law, normalized):
    d = law()
    for n, s in [(1, 3), (2, 4), (3, 5), (7, 4)]:
        total = exact_trace_sums_patterns(d, n, s, normalized)[0]
        assert exact_expected_trace_patterns(d, n, s, normalized) == total
    for n, s in [(1, 3), (2, 4), (3, 4)]:
        total, even = exact_trace_sums(d, n, s, normalized)
        assert exact_expected_trace(d, n, s, normalized) == total
        assert even_path_contribution(d, n, s, normalized) == even
        assert odd_path_contribution(d, n, s, normalized) == total - even


@pytest.mark.parametrize("law", LAWS)
def test_full_pair_is_the_literal_weight_sum(law):
    # raw sums in odometer order: the same additions as the enumeration
    d = law()
    for n, s in [(2, 4), (3, 3)]:
        total = even = 0.0
        for head in itertools.product(range(1, n + 1), repeat=2 * s):
            p = ClosedPath(vertices=head + (head[0],), n=n)
            w = path_weight(p, d, normalized=False)
            if w != 0.0:
                total += w
                if is_even_path(p):
                    even += w
        assert exact_trace_sums(d, n, s, normalized=False) == (total, even)


def test_patterns_pair_frozen_at_n100_s5():
    assert exact_trace_sums_patterns(skew12(), 100, 5) == (
        134271.44788608,
        134271.37668528,
    )


def test_patterns_pair_frozen_at_n100_s6():
    # frozen from the unpruned enumeration (Bell(12) = 4213597 patterns)
    assert exact_trace_sums_patterns(skew12(), 100, 6) == (
        848225.0992448353,
        848223.9677541942,
    )


def _unpruned_pattern_sums(dist, n, s, normalized):
    """The pattern recursion as it was before the prune: every
    first-occurrence class weighed, in the same order."""
    length = 2 * s
    total = 0.0
    even = 0.0

    def rec(seq, vmax, counts):
        nonlocal total, even
        if len(seq) == length:
            c = counts.copy()
            c[edge_key(seq[-1], 1)] += 1
            w, all_even = _moment_product(dist, c.values())
            if w == 0.0:
                return
            ways = 1.0
            for i in range(vmax):
                ways *= n - i
            total += w * ways
            if all_even:
                even += w * ways
            return
        for nxt in range(1, min(vmax + 1, n) + 1):
            e = edge_key(seq[-1], nxt)
            counts[e] += 1
            seq.append(nxt)
            rec(seq, max(vmax, nxt), counts)
            seq.pop()
            counts[e] -= 1
            if counts[e] == 0:
                del counts[e]

    rec([1], 1, Counter())
    if normalized:
        scale = float(n) ** s
        return total / scale, even / scale
    return total, even


# mean exactly 0.0 (pruned) for the first three; a 1.39e-17 residue for the last
ORACLE_LAWS = (
    "skew12",
    "rademacher",
    "support=-2,1,3;probs=0.5,0.25,0.25",
    "support=-0.3,0.1;probs=0.25,0.75",
)


@pytest.mark.parametrize("token", ORACLE_LAWS)
@pytest.mark.parametrize("normalized", [True, False])
def test_pruned_patterns_equal_the_unpruned_recursion(token, normalized):
    d = parse_distribution(token)
    for n in (1, 2, 3, 7, 100):
        for s in range(1, 5):
            assert exact_trace_sums_patterns(d, n, s, normalized) == _unpruned_pattern_sums(
                d, n, s, normalized
            )


def test_patterns_reject_n_beyond_float_range():
    d = skew12()
    assert all(math.isfinite(x) for x in exact_trace_sums_patterns(d, 10**153, 1))
    assert all(math.isfinite(x) for x in exact_trace_sums_patterns(d, 10**50, 5))
    # n(n-1) overflows at 10**155; the falling factorial stays finite at
    # 10**51, s = 5, but the sum does not
    for n, s in [(10**155, 1), (10**200, 2), (10**400, 1), (10**51, 5)]:
        for normalized in (True, False):
            with pytest.raises(ValueError, match="too large|overflows"):
                exact_trace_sums_patterns(d, n, s, normalized)


def test_trace_as_weight_sum():
    # the exact trace is literally the sum of path weights
    d = skew12()
    n, s = 2, 2
    total = 0.0
    for head in itertools.product(range(1, n + 1), repeat=2 * s):
        p = ClosedPath(vertices=head + (head[0],), n=n)
        total += path_weight(p, d)
    assert total == pytest.approx(exact_expected_trace(d, n, s), rel=1e-12)


def test_random_closed_path():
    rng = np.random.default_rng(5)
    p = random_closed_path(6, 4, rng)
    assert p.length == 8
    assert p.vertices[0] == p.vertices[-1]
    assert all(1 <= v <= 6 for v in p.vertices)
    rng2 = np.random.default_rng(5)
    assert random_closed_path(6, 4, rng2).vertices == p.vertices
