import itertools
import math
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tml.ensemble import make_distribution, moment, parse_distribution, rademacher, skew12
from tml.paths import (
    ClosedPath,
    PathSizeError,
    _canonical_sequences,
    _check_enumeration_size,
    _closed_sequences,
    _edge_counts,
    _moment_product,
    edge_key,
    edge_multiplicities,
    exact_expected_trace_patterns,
    exact_trace_sums,
    exact_trace_sums_patterns,
    is_even_path,
    marked_instants,
    nonreturned_edges,
    path_weight,
    random_closed_path,
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


def _first_occurrence(verts):
    labels = {}
    return tuple(labels.setdefault(v, len(labels) + 1) for v in verts)


@pytest.mark.parametrize("n,length", [(1, 4), (2, 5), (3, 4), (4, 6), (6, 3)])
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
    "n,length", [(1, 4), (2, 5), (3, 4), (4, 6), (6, 3), (7, 8), (100, 6)]
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


def _recursive_canonical_sequences(n, length, prune=False):
    """The recursive generator the stack sweep replaced, kept as its oracle."""
    counts = Counter()
    vertices = [1]

    def grow(v, singles):
        last = vertices[-1]
        steps_left = length - len(vertices)  # after the next; 0: it closes the walk
        for nxt in range(1, (min(v + 1, n) if steps_left else 1) + 1):
            e = edge_key(last, nxt)
            k = counts[e]
            child = singles + (k == 0) - (k == 1)
            if prune and child > steps_left:
                continue
            counts[e] = k + 1
            vertices.append(nxt)
            if steps_left:
                yield from grow(max(v, nxt), child)
            else:
                yield tuple(vertices), v, counts
            vertices.pop()
            if k:
                counts[e] = k
            else:
                del counts[e]

    return grow(1, 0)


def _drawn(sweep, n, length, prune):
    # counts is live: read it before the next item is drawn
    return [(vs, v, list(counts.items())) for vs, v, counts in sweep(n, length, prune)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 100])
def test_stack_sweep_matches_the_recursive_generator(n):
    for length, prune in itertools.product(range(2, 11), (False, True)):
        expected = _drawn(_recursive_canonical_sequences, n, length, prune)
        assert _drawn(_canonical_sequences, n, length, prune) == expected, (length, prune)


def test_stack_sweep_matches_the_recursive_generator_pruned_at_6_12():
    assert _drawn(_canonical_sequences, 6, 12, True) == _drawn(_recursive_canonical_sequences, 6, 12, True)


# ---------- weights ----------


def test_path_weight_rademacher():
    d = rademacher()
    even = cp(1, 2, 1, n=3)
    assert path_weight(even, d) == 1.0 / 3.0
    odd = cp(1, 1, 2, 2, 1, n=2)
    assert path_weight(odd, d) == 0.0
    with pytest.raises(ValueError):
        path_weight(cp(1, 2, 2, 1), d)  # odd length has no weight on the A scale


def test_path_weight_skew12():
    d = skew12()
    p = cp(1, 1, 2, 2, 1, n=2)
    # two odd loops (mu3 each via mult 1? no: mult-1 edges carry the mean)
    assert path_weight(p, d) == 0.0
    q = cp(1, 1, 1, 1, 2, 2, 2, 2, 1, n=2)
    # loop mult 3 (mu3=2), edge mult 2 (sigma^2=2), loop mult 3 (mu3=2), over n^s = 2^4
    assert path_weight(q, d) == pytest.approx(8.0 / 2**4)


# ---------- exact trace sums ----------


def test_exact_trace_single_vertex():
    # n=1: the matrix is one entry, Tr A^(2s) = x^(2s)
    assert exact_trace_sums(rademacher(), 1, 3)[0] == pytest.approx(1.0)
    assert exact_trace_sums(skew12(), 1, 2)[0] == pytest.approx(6.0)


def test_exact_trace_s1_formula():
    # E[Tr A^2] = n * sigma^2 for any law; every step pairs with its reverse
    for d in (rademacher(), skew12()):
        for n in (1, 2, 3, 5):
            assert exact_trace_sums(d, n, 1)[0] == pytest.approx(
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
    assert exact_trace_sums(skew12(), n, s)[0] == pytest.approx(
        FROZEN_SKEW12[(n, s)], rel=1e-12
    )


def test_exact_trace_rademacher_frozen():
    assert exact_trace_sums(rademacher(), 3, 3)[0] == pytest.approx(
        9.88888888888889, rel=1e-12
    )
    # E[Tr M^4] = 198 at n = 3, and Tr A^4 = Tr M^4 / n^2
    assert exact_trace_sums(skew12(), 3, 2)[0] == pytest.approx(198.0 / 9, rel=1e-12)


def test_even_odd_split():
    d = skew12()
    for n, s in [(2, 2), (3, 2), (2, 3), (3, 3)]:
        total, even = exact_trace_sums(d, n, s)
        walks = [ClosedPath(vertices=vs, n=n) for vs in _closed_sequences(n, 2 * s)]
        assert total == pytest.approx(sum(path_weight(p, d) for p in walks), rel=1e-12)
        even_walks = [p for p in walks if is_even_path(p)]
        assert even == pytest.approx(sum(path_weight(p, d) for p in even_walks), rel=1e-12)
    # rademacher kills every odd path outright
    for n, s in [(2, 2), (3, 3)]:
        total, even = exact_trace_sums(rademacher(), n, s)
        assert total - even == 0.0


def test_skew12_odd_share_first_appears_at_s4():
    # any odd profile of total length <= 6 forces a mean-weighted edge or an
    # odd-degree vertex, so the odd share vanishes through s = 3
    d = skew12()
    for s in (1, 2, 3):
        total, even = exact_trace_sums(d, 3, s)
        assert total - even == 0.0
    total, even = exact_trace_sums(d, 3, 4)
    assert total - even == pytest.approx(
        2.3703703703704377, rel=1e-9
    )
    assert exact_trace_sums(d, 3, 4)[0] == pytest.approx(
        563.6296296296297, rel=1e-12
    )


def test_patterns_route_matches_full():
    for d in (rademacher(), skew12()):
        for n, s in [(1, 2), (2, 1), (2, 2), (3, 2), (2, 3), (3, 3), (5, 2)]:
            full = exact_trace_sums(d, n, s)[0]
            pat = exact_expected_trace_patterns(d, n, s)
            assert pat == pytest.approx(full, rel=1e-12)
            even_full = exact_trace_sums(d, n, s)[1]
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
        exact_trace_sums(rademacher(), 30, 10)
    with pytest.raises(PathSizeError):
        exact_expected_trace_patterns(rademacher(), 4, 8)  # 1.8e8 relabeling classes
    with pytest.raises(ValueError):
        exact_trace_sums(rademacher(), 2, 0)
    for n in (0, -3):
        with pytest.raises(ValueError):
            exact_expected_trace_patterns(rademacher(), n, 2)


def test_enumeration_guard_builds_no_huge_power():
    # n**(2s) at s = 10**8 would take minutes to build
    start = time.perf_counter()
    with pytest.raises(PathSizeError):
        exact_trace_sums(rademacher(), 3, 10**8)
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


def test_walk_guard_refuses_exactly_past_the_power():
    for n in range(1, 41):
        for s in range(1, 30):
            if max(n, 2) ** (2 * s) <= 10**8:
                _check_enumeration_size(n, s)
                continue
            times = []
            for _ in range(3):  # the fastest of three: a preempted call is not the guard's cost
                start = time.perf_counter()
                with pytest.raises(PathSizeError, match=f"^{max(n, 2)}\\*\\*{2 * s} exceeds"):
                    _check_enumeration_size(n, s)
                times.append(time.perf_counter() - start)
            assert min(times) < 1e-3
    for n, s, message in [(0, 3, "n must"), (-5, 3, "n must"), (3, 0, "s must"), (3, -2, "s must")]:
        with pytest.raises(ValueError, match=message):
            _check_enumeration_size(n, s)


def _three_point():
    # mean 0, third moment 2.4
    return make_distribution([-1.0, 0.0, 3.0], [0.3, 0.6, 0.1])


LAWS = (skew12, rademacher, _three_point)


@pytest.mark.parametrize("law", LAWS)
def test_pair_functions_match_their_views(law):
    d = law()
    for n, s in [(1, 3), (2, 4), (3, 5), (7, 4)]:
        total = exact_trace_sums_patterns(d, n, s)[0]
        assert exact_expected_trace_patterns(d, n, s) == total


@pytest.mark.parametrize("law", LAWS)
def test_full_pair_is_the_literal_weight_sum(law):
    # raw moment products summed in odometer order, the same additions as
    # the enumeration, then divided once by n^s
    d = law()
    for n, s in [(2, 4), (3, 3)]:
        total = even = 0.0
        for head in itertools.product(range(1, n + 1), repeat=2 * s):
            p = ClosedPath(vertices=head + (head[0],), n=n)
            w = math.prod(moment(d, k) for k in edge_multiplicities(p).values())
            if w != 0.0:
                total += w
                if is_even_path(p):
                    even += w
        scale = float(n) ** s
        assert exact_trace_sums(d, n, s) == (total / scale, even / scale)


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


def _unpruned_pattern_sums(dist, n, s):
    """The pattern recursion as it was before the prune: every
    first-occurrence class weighed, in the same order."""
    length = 2 * s
    moments = [moment(dist, k) for k in range(length + 1)]
    total = 0.0
    even = 0.0

    def rec(seq, vmax, counts):
        nonlocal total, even
        if len(seq) == length:
            c = counts.copy()
            c[edge_key(seq[-1], 1)] += 1
            w, all_even = _moment_product(moments, c.values())
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
    scale = float(n) ** s
    return total / scale, even / scale


# mean exactly 0.0 (pruned) for the first three; a 1.39e-17 residue for the last
ORACLE_LAWS = (
    "skew12",
    "rademacher",
    "support=-2,1,3;probs=0.5,0.25,0.25",
    "support=-0.3,0.1;probs=0.25,0.75",
)


@pytest.mark.parametrize("token", ORACLE_LAWS)
def test_pruned_patterns_equal_the_unpruned_recursion(token):
    d = parse_distribution(token)
    for n in (1, 2, 3, 7, 100):
        for s in range(1, 5):
            assert exact_trace_sums_patterns(d, n, s) == _unpruned_pattern_sums(d, n, s)


def test_patterns_reject_n_beyond_float_range():
    d = skew12()
    assert all(math.isfinite(x) for x in exact_trace_sums_patterns(d, 10**153, 1))
    assert all(math.isfinite(x) for x in exact_trace_sums_patterns(d, 10**50, 5))
    # n(n-1) overflows at 10**155; the falling factorial stays finite at
    # 10**51, s = 5, but the sum does not
    for n, s in [(10**155, 1), (10**200, 2), (10**400, 1), (10**51, 5)]:
        with pytest.raises(ValueError, match="too large|overflows"):
            exact_trace_sums_patterns(d, n, s)


def test_trace_as_weight_sum():
    # the exact trace is literally the sum of path weights
    d = skew12()
    n, s = 2, 2
    total = 0.0
    for head in itertools.product(range(1, n + 1), repeat=2 * s):
        p = ClosedPath(vertices=head + (head[0],), n=n)
        total += path_weight(p, d)
    assert total == pytest.approx(exact_trace_sums(d, n, s)[0], rel=1e-12)


def test_random_closed_path():
    rng = np.random.default_rng(5)
    p = random_closed_path(6, 4, rng)
    assert p.length == 8
    assert p.vertices[0] == p.vertices[-1]
    assert all(1 <= v <= 6 for v in p.vertices)
    rng2 = np.random.default_rng(5)
    assert random_closed_path(6, 4, rng2).vertices == p.vertices
