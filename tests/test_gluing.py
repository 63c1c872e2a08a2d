import hashlib
import itertools
import math
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import tml.cli as cli
import tml.gluing as gluing
from tml.gluing import (
    BoundBreakdown,
    CONVOLUTION_CONST,
    EvenWalkError,
    GluingError,
    _pairing_count_by_search,
    catalan_convolution_ratio,
    count_gluings,
    cycle_decomposition,
    cycle_refined_insertion_log,
    cycle_refined_insertion_log_sum,
    distance_two_tail_log,
    enumerate_insertions,
    glue,
    log_trace_excess_ratio,
    merge_odd_walks,
    mixed_parity_reduction_bound,
    multi_walk_contribution_bound,
    odd_interval_decomposition,
    power_sum_ratio,
    run_invariant_suite,
    single_walk_contribution_bound,
    single_walk_insertion_bound,
    typed_vertex_contribution_log,
    verify_catalan_convolution,
)
from tml.paths import (
    ClosedPath,
    PathSizeError,
    _canonical_sequences,
    _closed_sequences,
    catalan,
    edge_multiplicities,
    is_even_path,
    marked_instants,
    random_closed_path,
)


def cp(*verts, n=None):
    return ClosedPath(vertices=tuple(verts), n=n or max(verts))


even_length_walks = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.integers(min_value=1, max_value=5).flatmap(
        lambda s: st.lists(
            st.integers(min_value=1, max_value=n), min_size=2 * s, max_size=2 * s
        ).map(lambda head: ClosedPath(vertices=tuple(head) + (head[0],), n=n))
    )
)


# ---------- odd-run structure ----------


def test_odd_interval_decomposition_fixture():
    p = cp(1, 1, 2, 2, 1)
    st_ = odd_interval_decomposition(p)
    assert st_.odd_pairs == 1
    assert st_.run_count == 2
    r0, r1 = st_.runs
    assert (r0.first_instant, r0.last_instant) == (1, 1)
    assert (r0.depart_vertex, r0.arrive_vertex) == (1, 1)
    assert (r1.first_instant, r1.last_instant) == (3, 3)
    assert (r1.depart_vertex, r1.arrive_vertex) == (2, 2)
    assert len(r0.instants()) == 1 and list(r1.instants()) == [3]


def test_odd_interval_decomposition_consecutive_run():
    p = cp(1, 2, 3, 1, 1)  # four odd edges in one consecutive block
    st_ = odd_interval_decomposition(p)
    assert st_.odd_pairs == 2
    assert st_.run_count == 1
    assert st_.runs[0].instants() == range(1, 5)
    assert st_.runs[0].depart_vertex == 1
    assert st_.runs[0].arrive_vertex == 1


def test_odd_interval_decomposition_errors():
    with pytest.raises(EvenWalkError):
        odd_interval_decomposition(cp(1, 2, 1))
    with pytest.raises(GluingError):
        odd_interval_decomposition(cp(1, 2, 2, 1))  # odd length


# ---------- glue ----------


def test_glue_even_walk_is_identity():
    p = cp(1, 2, 1)
    d = glue(p)
    assert d.outcome == "single-even"
    assert d.walks == (p,)
    assert d.origins == (1,)
    assert d.odd_pairs == 0


def test_glue_two_loops():
    d = glue(cp(1, 1, 2, 2, 1))
    assert d.outcome == "single-even"
    assert d.odd_pairs == 1
    assert d.walks == (cp(1, 2, 1),)
    assert d.total_length == 2


def test_glue_multi_even():
    d = glue(cp(1, 2, 3, 2, 3, 3, 1))
    assert d.outcome == "multi-even"
    assert d.odd_pairs == 2
    assert d.walk_count == 2
    assert d.walks == (ClosedPath(vertices=(1,), n=3), cp(2, 3, 2, n=3))
    assert d.origins == (1, 2)
    assert d.total_length == 2


def test_glue_single_run_collapse():
    d = glue(cp(1, 2, 3, 1, 1))
    assert d.outcome == "single-even"
    assert d.odd_pairs == 2
    assert d.walks == (ClosedPath(vertices=(1,), n=3),)


def test_glue_run_of_four():
    d = glue(cp(1, 2, 2, 3, 4, 2, 1))
    assert d.outcome == "single-even"
    assert d.odd_pairs == 2
    assert d.walks == (cp(1, 2, 1, n=4),)


def test_glue_longer_single_even():
    d = glue(cp(1, 1, 1, 1, 2, 2, 2, 2, 1))
    assert d.outcome == "single-even"
    assert d.odd_pairs == 1
    assert d.walks == (cp(1, 1, 1, 2, 2, 2, 1),)


def test_glue_mixed_parity():
    d = glue(cp(1, 1, 2, 2, 1, 2, 2, 3, 1, n=3))
    assert d.outcome == "mixed-parity"
    assert d.walks == (cp(1, 2, 2, 1, n=3), cp(2, 2, n=3))


def test_glue_groups_chains_by_first_closing():
    # chains close at origins 3, 4, 6 and 4 again; the second loop at 4 joins
    # the walk of the first, which keeps its place before 6
    d = glue(cp(3, 4, 4, 6, 5, 6, 1, 4, 4, 5, 3, n=6))
    assert d.outcome == "multi-even"
    assert d.origins == (3, 4, 6)
    assert d.walks == (ClosedPath(vertices=(3,), n=6), cp(4, 4, 4, n=6), cp(6, 5, 6))


def test_glue_rejects_odd_length():
    with pytest.raises(GluingError):
        glue(cp(1, 2, 2, 1))


@given(even_length_walks)
def test_glue_conservation_properties(p):
    d = glue(p)
    # length bookkeeping
    assert d.total_length == p.length - 2 * d.odd_pairs
    # edge conservation: one copy of each odd edge removed
    expected = edge_multiplicities(p)
    for e, m in list(expected.items()):
        if m % 2:
            expected[e] -= 1
    expected = +expected
    merged = Counter()
    for w in d.walks:
        merged.update(edge_multiplicities(w))
    assert merged == expected
    assert all(m % 2 == 0 for m in merged.values())
    # origin bookkeeping
    assert d.origins[0] == p.origin
    assert len(set(d.origins)) == len(d.origins)
    arrival_vertices = {p.vertices[t] for t in marked_instants(p)}
    assert all(v in arrival_vertices for v in d.origins[1:])
    if d.outcome == "single-even":
        assert d.walk_count == 1 and is_even_path(d.walks[0])
    if d.outcome == "multi-even":
        assert d.walk_count >= 2 and all(is_even_path(w) for w in d.walks)


# ---------- counting the admissible reassemblies ----------


def test_count_gluings_fixture():
    assert count_gluings(cp(1, 1, 2, 2, 1)) == (1, {1: 2})


def test_count_gluings_double_incidence():
    # two runs of three odd edges each, all four run ends at vertex 1
    p = cp(1, 2, 3, 1, 1, 1, 4, 5, 1)
    count, hist = count_gluings(p)
    assert (count, hist) == (3, {2: 1})
    assert _pairing_count_by_search(p) == 3
    # double factorial dominates the factorial floor
    floor = math.prod(math.factorial(i) ** k for i, k in hist.items())
    assert count >= floor


def test_count_gluings_matches_search_exhaustively():
    found_nontrivial = False
    for n, s in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        for head in itertools.product(range(1, n + 1), repeat=2 * s):
            p = ClosedPath(vertices=head + (head[0],), n=n)
            if is_even_path(p):
                continue
            count, _ = count_gluings(p)
            assert count == _pairing_count_by_search(p)
            if count > 1:
                found_nontrivial = True
    assert found_nontrivial


# ---------- cycles of removed edges ----------


def test_cycle_decomposition_two_loops():
    c = cycle_decomposition(cp(1, 1, 2, 2, 1))
    assert c.cycle_count == 2
    assert Counter(len(cy) for cy in c.cycles) == {1: 2}
    assert sorted(c.cycles) == [(((1, 1)),), (((2, 2)),)]


def test_cycle_decomposition_single_run():
    c = cycle_decomposition(cp(1, 2, 2, 3, 4, 2, 1))
    assert c.cycle_count == 1
    assert Counter(len(cy) for cy in c.cycles) == {4: 1}
    assert Counter(c.cycles[0]) == Counter(
        [(2, 2), (2, 3), (3, 4), (2, 4)]
    )


def test_cycle_decomposition_multi_even():
    c = cycle_decomposition(cp(1, 2, 3, 2, 3, 3, 1))
    assert c.cycle_count == 1
    assert Counter(len(cy) for cy in c.cycles) == {4: 1}


def test_cycle_decomposition_even_walk():
    c = cycle_decomposition(cp(1, 2, 1))
    assert c.cycle_count == 0 and Counter(len(cy) for cy in c.cycles) == {}


@given(even_length_walks)
def test_cycle_partition_properties(p):
    d = glue(p)
    c = cycle_decomposition(p)
    odd_edges = {e for e, m in edge_multiplicities(p).items() if m % 2}
    assert sum(len(cy) for cy in c.cycles) == 2 * d.odd_pairs
    assert Counter(e for cy in c.cycles for e in cy) == Counter(odd_edges)
    if d.odd_pairs:
        st_ = odd_interval_decomposition(p)
        assert 1 <= c.cycle_count <= st_.run_count <= 2 * d.odd_pairs


# ---------- merging mixed-parity walks ----------


def test_merge_two_triangles():
    walks = [cp(1, 2, 3, 1), cp(1, 2, 3, 1)]
    merged, merges = merge_odd_walks(walks)
    assert merges == 1
    assert len(merged) == 1
    assert merged[0] == cp(1, 3, 2, 3, 1)
    assert is_even_path(merged[0])


def test_merge_loop_pair():
    merged, merges = merge_odd_walks([cp(1, 2, 2, 1), cp(2, 2, n=2)])
    assert merges == 1
    assert merged == [cp(1, 2, 1, n=2)]


def test_merge_no_odd_edges_is_identity():
    walks = [cp(1, 2, 1, n=4), cp(3, 4, 3, n=4)]
    merged, merges = merge_odd_walks(walks)
    assert merges == 0
    assert merged == walks


def test_merge_contract_violations():
    with pytest.raises(GluingError):
        merge_odd_walks([])
    with pytest.raises(GluingError):
        merge_odd_walks([cp(1, 2, 3, 1)])  # union has odd edges


MIXED_FIXTURES = [
    (1, 1, 2, 2, 1, 2, 2, 3, 1),
    (1, 1, 2, 2, 1, 3, 2, 2, 1),
    (1, 1, 2, 2, 3, 1, 1, 3, 1),
]


@pytest.mark.parametrize("verts", MIXED_FIXTURES)
def test_mixed_parity_fixtures_merge_clean(verts):
    p = cp(*verts, n=3)
    d = glue(p)
    assert d.outcome == "mixed-parity"
    merged, merges = merge_odd_walks(list(d.walks))
    assert merges >= 1
    assert all(is_even_path(w) for w in merged)
    assert sum(w.length for w in merged) == p.length - 2 * d.odd_pairs - 2 * merges



def test_surgery_record_frozen_at_n3():
    # sha256 over one repr line each of glue(p), cycle_decomposition(p) and,
    # for mixed-parity outcomes, merge_odd_walks(glue(p).walks), for every
    # closed walk with n = 3 and s = 1..4 in odometer order.  The digest was
    # computed by this loop on the reassembly that still kept its endpoint
    # pairing as (fragment, side) tuples, so it pins walk order, origins and
    # cycle edge order across the move to integer slots.  The cycle line
    # keeps the form the digest was taken in: the cycles, then the histogram
    # of their sizes.
    digest = hashlib.sha256()
    walks = 0
    for s in range(1, 5):
        for head in itertools.product(range(1, 4), repeat=2 * s):
            p = ClosedPath(vertices=head + (head[0],), n=3)
            d = glue(p)
            cycles = cycle_decomposition(p).cycles
            sizes = dict(sorted(Counter(len(c) for c in cycles).items()))
            digest.update(f"{d!r}\nCycleDecomposition(cycles={cycles!r}, sizes={sizes!r})\n".encode())
            if d.outcome == "mixed-parity":
                digest.update(f"{merge_odd_walks(d.walks)!r}\n".encode())
            walks += 1
    assert walks == 7380
    assert digest.hexdigest() == "1ef0473492411010ffb3910eface28268ad6de54db78598de85a9febc1d3ce10"


# ---------- the self-intersection floor ----------


def _events(w):
    """events(v): the marked arrivals at v, plus one at the walk's origin."""
    return Counter([w.origin] + [w.vertices[t] for t in marked_instants(w)])


def test_self_intersection_floor_closed_form():
    # the suite's floor reads the excess events of the glued walk W as
    # len(W)/2 + 1 - vertices: every single-even class at n = 3, s <= 5 agrees
    floor_classes = Counter()
    for s in range(1, 6):
        for verts, _, counts in _canonical_sequences(3, 2 * s):
            d = glue(ClosedPath(vertices=verts, n=3))
            if d.outcome != "single-even":
                continue
            w = d.walks[0]
            excess = sum(k - 1 for k in _events(w).values())
            assert w.length // 2 + 1 - len(set(w.vertices)) == excess, verts
            odd = [m for m in counts.values() if m % 2]
            if odd and min(odd) >= 3:
                floor_classes[s] += 1
    # the classes the floor reads: every odd edge traversed 3 times or more
    assert floor_classes == {4: 4, 5: 95}


# the s = 6 classes on which a glued walk carries two cycles at one vertex:
# an odd loop at a corner of an odd triangle
TWO_CYCLES_AT_ONE_VERTEX = [
    "1213222231231", "1213222231321", "1213222232131", "1221322231231",
    "1221322231321", "1221322232131", "1222132231231", "1222132231321",
    "1222132232131", "1222213213231", "1222213231231", "1222213231321",
    "1222213232131", "1232133331231", "1232133331321", "1233213331231",
    "1233213331321", "1233321331231", "1233321331321", "1233332131231",
    "1233332131321", "1233332132131", "1233332312131",
]


def test_self_intersection_floor_counts_events_with_multiplicity():
    p = cp(1, 2, 1, 3, 2, 2, 2, 2, 3, 1, 2, 3, 1)
    d = glue(p)
    assert d.walks == (cp(1, 2, 1, 3, 2, 2, 2, 3, 1, n=3),)
    assert cycle_decomposition(p).cycles == (((1, 2), (2, 3), (1, 3)), ((2, 2),))
    # one vertex with 2 events or more, but two excess events at it
    assert _events(d.walks[0]) == {1: 1, 2: 3, 3: 1}
    for verts in TWO_CYCLES_AT_ONE_VERTEX:
        found = []
        key = gluing._check_one(ClosedPath(vertices=tuple(map(int, verts)), n=3), found)
        assert key[-1] == "single-even" and key[3] == 2
        assert not found, verts


# ---------- insertion-counting bounds ----------


def test_single_walk_insertion_bound_values():
    assert single_walk_insertion_bound(2, 1, 1) == 64
    assert single_walk_insertion_bound(2, 1, 2) == 48
    with pytest.raises(ValueError):
        single_walk_insertion_bound(2, 3, 1)  # 2l > 2m
    with pytest.raises(ValueError):
        single_walk_insertion_bound(2, 1, 0)


def test_single_walk_insertion_bound_formula():
    for m, l, j in [(3, 1, 1), (3, 2, 2), (4, 2, 3), (5, 3, 4)]:
        expected = (
            math.comb(2 * m, j)
            * math.factorial(j)
            * 2**j
            * math.comb(2 * l, j)
            * math.perm(2 * m, 2 * l - j)
        )
        assert single_walk_insertion_bound(m, l, j) == expected


def test_enumerate_insertions_identity_and_empty():
    base = cp(1, 2, 1)
    assert enumerate_insertions(base, 0) == [base]
    # one base edge cannot host two distinct odd edges
    assert enumerate_insertions(base, 1) == []


def test_enumerate_insertions_round_trip():
    base = cp(1, 1, 1, 2, 2, 2, 1)
    fiber = enumerate_insertions(base, 1)
    assert fiber, "expected at least one one-pair insertion"
    base_mult = edge_multiplicities(base)
    for p in fiber:
        assert p.origin == base.origin
        assert p.length == base.length + 2
        mult = edge_multiplicities(p)
        odd = {e for e, m in mult.items() if m % 2}
        assert len(odd) == 2
        assert odd <= set(base_mult)
        for e in set(mult) | set(base_mult):
            assert mult[e] - base_mult.get(e, 0) == (1 if e in odd else 0)
        assert glue(p).odd_pairs == 1


def test_enumerate_insertions_fiber_within_bound():
    base = cp(1, 1, 1, 2, 2, 2, 1)
    m = base.length // 2
    for l_cap in (1, 2):
        fiber = enumerate_insertions(base, l_cap)
        groups = Counter()
        for p in fiber:
            if p.length == base.length:
                continue
            st_ = odd_interval_decomposition(p)
            groups[(st_.odd_pairs, st_.run_count)] += 1
        for (l, j), count in groups.items():
            assert count <= single_walk_insertion_bound(m, l, j)


def test_enumerate_insertions_guards():
    with pytest.raises(GluingError):
        enumerate_insertions(cp(1, 1, 2, 2, 1), 1)  # base not even
    big = ClosedPath(vertices=(1,) * 11, n=1)
    with pytest.raises(GluingError):
        enumerate_insertions(big, 1)  # length over the guard


# ---------- contribution ceilings ----------


def test_single_walk_contribution_bound_formula():
    s, n, sigma, k = 6, 500, 1.0, 1.0
    bd = single_walk_contribution_bound(s, n, sigma, k)
    assert len(bd.log_terms) == s - 1
    for l, lv in enumerate(bd.log_terms, start=1):
        direct = math.log(
            n * catalan(s - l) * sigma ** (2 * s - 2 * l)
            * (16 * k * (s - l) / math.sqrt(n)) ** (2 * l)
        )
        assert lv == pytest.approx(direct, rel=1e-12)
    assert bd.log_total == pytest.approx(
        math.log(sum(math.exp(v) for v in bd.log_terms)), rel=1e-12
    )


def test_single_walk_contribution_prefactor_scales_terms():
    s, n = 5, 100
    base = single_walk_contribution_bound(s, n, 1.0, 1.0)
    scaled = single_walk_contribution_bound(s, n, 1.0, 1.0, prefactor=7.0)
    for a, b in zip(base.log_terms, scaled.log_terms):
        assert b - a == pytest.approx(math.log(7.0), rel=1e-12)
    with pytest.raises(ValueError):
        single_walk_contribution_bound(0, 10, 1.0, 1.0)


def test_trace_excess_ratio_consistency():
    s, n, sigma = 8, 10**4, math.sqrt(2.0)
    bd = single_walk_contribution_bound(s, n, sigma, 2.0)
    budget = n * catalan(s) * sigma ** (2 * s)
    assert log_trace_excess_ratio(bd, s, n, sigma) == pytest.approx(
        bd.log_total - math.log(budget), rel=1e-10
    )


def test_multi_walk_contribution_bound():
    s, n = 6, 1000
    bd = multi_walk_contribution_bound(s, n, 1.0, 1.0)
    assert len(bd.log_terms) == s - 1
    assert all(math.isfinite(v) or v == -math.inf for v in bd.log_terms)
    assert bd.log_total >= max(bd.log_terms)
    # l = 1, only J in {1, 2} contribute; replicate the J = 1 term
    j, l = 1, 1
    term_j1 = (
        j * math.log(2)
        + math.lgamma(j + 1)
        + math.log(math.comb(2 * l, j))
        + math.lgamma(2 * s - 2 * l + 1)
        - math.lgamma(2 * s - 4 * l + j + 1)
        - l * math.log(n)
        + j * math.log(2)
        + math.log(math.comb(2 * s - 2 * l, j))
        + 2 * l * math.log(CONVOLUTION_CONST)
        + math.log(n)
        + math.lgamma(2 * (s - l) + 1)
        - math.lgamma(s - l + 1)
        - math.lgamma(s - l + 2)
    )
    assert bd.log_terms[0] >= term_j1 - 1e-9
    with pytest.raises(ValueError):
        multi_walk_contribution_bound(s, n, 1.0, 1.0, prefactor=0.5)


@pytest.mark.parametrize("prefactor", [1, 2])
def test_multi_walk_terms_match_integer_oracle(prefactor):
    # every l term rebuilt from Python ints; math.perm and math.comb vanish
    # outside the admissible run counts, so the oracle sums every 1 <= J <= 2l
    n, sigma, k = 1000, 2, 3
    for s in range(1, 11):
        bd = multi_walk_contribution_bound(s, n, sigma, k, prefactor=prefactor)
        assert len(bd.log_terms) == s - 1
        for l, lv in enumerate(bd.log_terms, start=1):
            m = 2 * s - 2 * l
            j_sum = 0
            for j in range(1, 2 * l + 1):
                term = (
                    2**j * math.factorial(j) * math.comb(2 * l, j) * math.perm(m, 2 * l - j)
                    * 2**j * math.comb(m, j) * prefactor**j
                )
                if 2 * l <= s:
                    assert term == single_walk_insertion_bound(s - l, l, j) * (2 * prefactor) ** j
                j_sum += term
            # the l-factors without n^(1-l), which stays out of the integer
            weight = j_sum * k ** (2 * l) * CONVOLUTION_CONST ** (2 * l) * catalan(s - l) * sigma**m
            if weight == 0:
                assert lv == -math.inf
            else:
                assert lv == pytest.approx(math.log(weight) + (1 - l) * math.log(n), rel=1e-12)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
def test_bounds_reject_non_positive_scales_by_name(bad):
    # at s = 1 there are no terms: the check runs before any would be computed
    for name in ("sigma", "entry_bound", "prefactor"):
        scales = {"sigma": 1.0, "entry_bound": 1.0, "prefactor": 1.0, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be positive"):
            single_walk_contribution_bound(1, 10, **scales)
    for name in ("sigma", "entry_bound"):
        scales = {"sigma": 1.0, "entry_bound": 1.0, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be positive"):
            multi_walk_contribution_bound(1, 10, **scales)
    with pytest.raises(ValueError, match="^const must be positive"):
        cycle_refined_insertion_log(5, 1, 1, 1, bad)
    with pytest.raises(ValueError, match="^const must be positive"):
        cycle_refined_insertion_log_sum(5, 1, bad)


def test_bounds_reject_infinite_scales_by_name():
    # log(inf) = inf, and inf - inf made a nan table row
    for name in ("sigma", "entry_bound", "prefactor"):
        scales = {"sigma": 1.0, "entry_bound": 1.0, "prefactor": 1.0, name: math.inf}
        for bound in (single_walk_contribution_bound, multi_walk_contribution_bound):
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                bound(1, 10, **scales)
    with pytest.raises(ValueError, match="^const must be finite"):
        cycle_refined_insertion_log(5, 1, 1, 1, math.inf)
    with pytest.raises(ValueError, match="^const must be finite"):
        cycle_refined_insertion_log_sum(5, 1, math.inf)
    with pytest.raises(ValueError, match="^sigma must be finite"):
        typed_vertex_contribution_log(8, 100, 1, 0.01, 2, 1, 0.0, sigma=math.inf)


def test_contribution_bounds_refuse_s_past_the_limit():
    for bound in (single_walk_contribution_bound, multi_walk_contribution_bound):
        with pytest.raises(ValueError, match=f"^s={gluing.BOUND_S_LIMIT + 1} exceeds"):
            bound(gluing.BOUND_S_LIMIT + 1, 10, 1.0, 1.0)


def test_mixed_parity_reduction_bound():
    s, n = 10, 10**4
    mb = mixed_parity_reduction_bound(s, n, odd_pairs=2, walk_count=3, merge_count=2)
    q = 2
    choices = math.comb(2 * s, q)
    trivial = choices * (4 * s) ** q * (2 * s) ** q / n**q
    assert mb.log_trivial == pytest.approx(math.log(trivial), rel=1e-10)
    s_prime = s - 2 - q
    refined = math.comb(2 * s_prime, q) * (s**1.5 / n) ** q
    assert mb.log_refined == pytest.approx(math.log(refined), rel=1e-10)
    assert mb.log_trivial_ratio == pytest.approx(mb.log_trivial - math.log(choices), rel=1e-10)
    assert mb.log_refined_ratio == pytest.approx(mb.log_refined - math.log(choices), rel=1e-10)
    # no merges: everything collapses to 1
    none = mixed_parity_reduction_bound(s, n, odd_pairs=1, walk_count=2, merge_count=0)
    assert none.log_trivial == none.log_refined == 0.0
    with pytest.raises(ValueError):
        mixed_parity_reduction_bound(s, n, odd_pairs=1, walk_count=2, merge_count=2)
    # refined preimage empties out when the shortened walk has no room
    tight = mixed_parity_reduction_bound(5, n, odd_pairs=3, walk_count=4, merge_count=2)
    assert tight.log_refined == tight.log_refined_ratio == -math.inf
    # ceilings far past the float range stay finite logs
    deep = mixed_parity_reduction_bound(200, 10, odd_pairs=100, walk_count=100, merge_count=99)
    assert math.isfinite(deep.log_trivial_ratio) and deep.log_trivial_ratio > 710


def test_cycle_refined_insertion_bound():
    s, const = 50, 3.0
    v = cycle_refined_insertion_log(s, odd_pairs=2, run_count=3, cycle_count=2, const=const)
    direct = (
        s**2 / math.factorial(2) * s**2 * s**1 / math.factorial(1) * const**4
    )
    assert v == pytest.approx(math.log(direct), rel=1e-10)
    with pytest.raises(ValueError):
        cycle_refined_insertion_log(s, 2, 3, 4, const)  # c > J
    with pytest.raises(ValueError):
        cycle_refined_insertion_log(s, 1, 3, 1, const)  # J > 2l
    total = cycle_refined_insertion_log_sum(s, 2, const)
    by_hand = sum(
        math.exp(cycle_refined_insertion_log(s, 2, j, c, const))
        for j in range(1, 5)
        for c in range(1, j + 1)
    )
    assert total == pytest.approx(math.log(by_hand), rel=1e-10)
    # the closed-form c-sum stays a finite log where every term overflows
    assert math.isfinite(cycle_refined_insertion_log_sum(64, 8, 1e40))


def test_typed_vertex_contribution_log():
    s, n, l = 100, 10**6, 2
    eta, r, k1, k2 = 0.01, 2, 1, 0.5
    sigma = math.sqrt(2.0)
    v = typed_vertex_contribution_log(s, n, l, eta, r, k1, k2, sigma=sigma)
    direct = (
        (2 * s - 2 * l) * math.log(sigma)
        + math.lgamma(2 * (s - l) + 1)
        - math.lgamma(s - l + 1)
        - math.lgamma(s - l + 2)
        + n ** (2 * eta)
        + r * (-1 / 8 + 9 * eta / 4) * math.log(n)
        - math.lgamma(r + 1)
        + k1 * (3 * eta - 0.5) * math.log(n)
        - math.lgamma(k1 + 1)
        + k2 * (math.log(s) - (199 / 200) * math.log(n))
    )
    assert v == pytest.approx(direct, rel=1e-12)
    with pytest.raises(ValueError):
        typed_vertex_contribution_log(s, n, l, eta, -1, k1, k2)
    # n^(2*eta) past the float range: the ceiling is vacuous, not an error
    assert typed_vertex_contribution_log(8, 10**5, 1, 100.0, r, k1, k2) == math.inf
    # an int n past the float range with a small n^(2*eta) stays finite
    assert math.isfinite(typed_vertex_contribution_log(8, 10**400, 1, eta, r, k1, k2))


def test_distance_two_tail_log():
    s, kappa, m = 64, 4, 30.0
    assert distance_two_tail_log(s, kappa, m) == pytest.approx(
        4 * kappa * math.log(s / kappa) - m, rel=1e-12
    )
    with pytest.raises(ValueError):
        distance_two_tail_log(s, 0, m)


# ---------- convolution facts ----------


def test_catalan_convolution_ratio_small():
    assert catalan_convolution_ratio(2) == pytest.approx(0.5)
    assert catalan_convolution_ratio(3) == pytest.approx(0.8)
    assert catalan_convolution_ratio(4) == pytest.approx(1.0)
    assert catalan_convolution_ratio(1) == 0.0
    # interior convolution identity: catalan(s+1) - 2 catalan(s)
    for s in range(2, 12):
        assert catalan_convolution_ratio(s) == pytest.approx(
            (catalan(s + 1) - 2 * catalan(s)) / catalan(s), rel=1e-12
        )


def test_catalan_convolution_stays_below_const():
    assert verify_catalan_convolution(2000)
    for s in (2, 10, 100, 1500):
        assert catalan_convolution_ratio(s) < CONVOLUTION_CONST


def test_power_sum_ratio():
    assert power_sum_ratio(1) == 0.0
    assert power_sum_ratio(2) == pytest.approx(2**1.5, rel=1e-12)
    assert power_sum_ratio(100) == pytest.approx(5.180861993696143, rel=1e-12)
    values = [power_sum_ratio(s) for s in (10, 50, 100, 500, 2000)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert values[-1] < 5.23


# ---------- the invariant suite ----------


def test_invariant_suite_small_exhaustive():
    report = run_invariant_suite(2, 2, exhaustive=True)
    assert report.ok
    assert report.walks_checked == 16
    assert sum(report.histogram.values()) == 16


def test_invariant_suite_guards_the_exhaustive_sweep():
    # 3**24 walks would run for years; refused before the first walk
    start = time.perf_counter()
    with pytest.raises(PathSizeError, match="exceeds the enumeration guard"):
        run_invariant_suite(3, 12)
    assert time.perf_counter() - start < 1.0
    for n, s in [(0, 2), (2, 0), (-1, 3)]:
        with pytest.raises(ValueError):
            run_invariant_suite(n, s)
    report = run_invariant_suite(3, 12, exhaustive=False, random_walks=5, seed=1)
    assert report.walks_checked == 5


def test_invariant_suite_guard_counts_classes(monkeypatch):
    # no sweep runs: only the guard decides
    monkeypatch.setattr(gluing, "_canonical_sequences", lambda n, length: iter(()))
    for n, s in [(7, 5), (100, 5), (100, 6), (4, 7), (3, 9)]:
        assert run_invariant_suite(n, s).walks_checked == n ** (2 * s)
    for n, s, m in [(5, 8, 5), (100, 7, 14), (3, 12, 3)]:
        start = time.perf_counter()
        with pytest.raises(
            PathSizeError,
            match=f"^the relabeling-class count of {2 * s}-step walks on {m} labels"
            " exceeds the enumeration guard 100000000$",
        ):
            run_invariant_suite(n, s)
        assert time.perf_counter() - start < 1.0
    # every size the min(n, 2s)**(2s) walk count let through is still accepted
    for n in [*range(1, 41), 100, 10**6]:
        for s in range(1, 15):
            if max(min(n, 2 * s), 2) ** (2 * s) <= 10**8:
                run_invariant_suite(n, s)


@pytest.mark.parametrize(
    "n,s,random_walks,message",
    [
        (3, 0, 5, "s must be at least 1"),
        (0, 2, 5, "n must be at least 1"),
        (3, 2, -4, "random_walks must be at least 0"),
    ],
)
@pytest.mark.parametrize("exhaustive", [False, True])
def test_invariant_suite_rejects_bad_shapes_before_any_walk(
    monkeypatch, n, s, random_walks, message, exhaustive
):
    def drawn(*args):
        raise AssertionError("a walk was drawn")

    monkeypatch.setattr(gluing, "random_closed_path", drawn)
    monkeypatch.setattr(gluing, "_canonical_sequences", drawn)
    with pytest.raises(ValueError, match=message):
        run_invariant_suite(n, s, exhaustive=exhaustive, random_walks=random_walks)


def test_invariant_suite_refuses_a_run_that_checks_nothing():
    with pytest.raises(ValueError, match="nothing to check"):
        run_invariant_suite(3, 2, exhaustive=False, random_walks=0)


def test_invariant_suite_random_only():
    report = run_invariant_suite(5, 4, exhaustive=False, random_walks=300, seed=2)
    assert report.ok
    assert report.walks_checked == 300
    outcomes = {key[4] for key in report.histogram}
    assert "single-even" in outcomes or "multi-even" in outcomes


def test_random_walk_j_comes_from_seed_plus_j(monkeypatch):
    drawn = []

    def spy(n, s, rng):
        drawn.append(random_closed_path(n, s, rng))
        return drawn[-1]

    monkeypatch.setattr(gluing, "random_closed_path", spy)
    report = run_invariant_suite(4, 3, exhaustive=False, random_walks=40, seed=7)
    assert report.walks_checked == 40
    expected = [random_closed_path(4, 3, np.random.default_rng(7 + j)) for j in range(40)]
    assert drawn == expected


def test_invariant_suite_reassembles_each_walk_once(monkeypatch):
    calls = Counter()

    def counted(name):
        original = getattr(gluing, name)

        def wrapper(p):
            calls[name] += 1
            return original(p)

        monkeypatch.setattr(gluing, name, wrapper)

    counted("_glue_traced")
    counted("odd_interval_decomposition")
    report = run_invariant_suite(2, 3)
    assert report.walks_checked == 64
    # one call per relabeling class: S(6, 1) + S(6, 2) = 1 + 31
    assert calls == {"_glue_traced": 32, "odd_interval_decomposition": 32}


def test_invariant_suite_histogram_frozen():
    report = run_invariant_suite(3, 3, exhaustive=True)
    assert report.ok
    assert report.walks_checked == 729
    assert report.histogram == {
        (0, 0, 1, 0, "single-even"): 267,
        (1, 2, 1, 2, "single-even"): 162,
        (2, 1, 1, 1, "single-even"): 96,
        (2, 2, 1, 1, "single-even"): 54,
        (2, 2, 1, 2, "single-even"): 12,
        (2, 2, 2, 1, "multi-even"): 108,
        (2, 3, 1, 1, "single-even"): 6,
        (2, 3, 1, 2, "single-even"): 6,
        (2, 3, 2, 2, "multi-even"): 6,
        (3, 1, 1, 1, "single-even"): 12,
    }


def _first_occurrence(verts):
    labels = {}
    return tuple(labels.setdefault(v, len(labels) + 1) for v in verts)


def _labeled_suite(n, s):
    """The per-walk odometer sweep that the class sweep replaced:
    (histogram, walks checked, every violation found)."""
    found = []
    histogram = Counter()
    for verts in _closed_sequences(n, 2 * s):
        histogram[gluing._check_one(ClosedPath(vertices=verts, n=n), found)] += 1
    return dict(sorted(histogram.items())), sum(histogram.values()), found


@pytest.mark.parametrize("n,s", [(3, 4), (4, 3)])
def test_invariant_checks_ignore_vertex_labels(n, s):
    def checked(verts):
        found = []
        key = gluing._check_one(ClosedPath(vertices=verts, n=n), found)
        return key, [tag for tag, _ in found]

    by_class = {verts: checked(verts) for verts, _, _ in _canonical_sequences(n, 2 * s)}
    for verts in _closed_sequences(n, 2 * s):
        assert checked(verts) == by_class[_first_occurrence(verts)], verts


@pytest.mark.parametrize("n,s", [(1, 3), (2, 5), (3, 3), (3, 4), (4, 3), (5, 2)])
def test_class_sweep_equals_the_labeled_sweep(n, s):
    # (5, 2): a walk of length 4 visits at most 4 of the 5 vertices
    histogram, checked, found = _labeled_suite(n, s)
    report = run_invariant_suite(n, s)
    assert report.ok and not found
    assert report.histogram == histogram
    assert list(report.histogram) == list(histogram)
    assert report.walks_checked == checked == n ** (2 * s)


@pytest.mark.parametrize(
    "extra_walks,cycles,tags",
    [
        # the input walk itself: odd edges kept, odd counts, an odd "even" outcome
        ("input", None, {"edge-conservation", "union-parity", "even-outcome-parity"}),
        # an even walk on an edge the input never used
        ("fresh-edge", None, {"edge-conservation"}),
        # one odd edge twice and the other not at all
        (None, (((1, 1), (1, 1)),), {"cycle-partition"}),
    ],
)
def test_surgery_checks_flag_a_broken_reassembly(monkeypatch, extra_walks, cycles, tags):
    p = ClosedPath(vertices=(1, 1, 2, 2, 1), n=3)  # odd edges {1,1} and {2,2}
    glue_traced, find_cycles = gluing._glue_traced, gluing._cycles

    def broken_glue(q):
        decomp, structure, partner = glue_traced(q)
        walks = {
            "input": (q,),
            "fresh-edge": (*decomp.walks, ClosedPath(vertices=(3, 3, 3), n=3)),
            None: decomp.walks,
        }[extra_walks]
        return decomp._replace(walks=walks), structure, partner

    def broken_cycles(q, structure, partner):
        cyc = find_cycles(q, structure, partner)
        return cyc if cycles is None else cyc._replace(cycles=cycles)

    found = []
    assert gluing._check_one(p, found)[-1] == "single-even" and not found
    monkeypatch.setattr(gluing, "_glue_traced", broken_glue)
    monkeypatch.setattr(gluing, "_cycles", broken_cycles)
    gluing._check_one(p, found)
    flagged = {tag for tag, _ in found}
    surgery_tags = {"edge-conservation", "union-parity", "even-outcome-parity", "cycle-partition"}
    assert flagged & surgery_tags == tags


def test_class_sweep_flags_the_classes_the_labeled_sweep_flags(monkeypatch, tmp_path):
    original = gluing._pairing_count

    def broken(structure):
        count, hist = original(structure)
        return (0 if structure.odd_pairs >= 2 else count), hist

    monkeypatch.setattr(gluing, "_pairing_count", broken)
    _, _, found = _labeled_suite(3, 3)
    expected = {(tag, _first_occurrence(verts)) for tag, verts in found}
    assert {tag for tag, _ in expected} == {"pairing-count-floor"}
    report = run_invariant_suite(3, 3)
    assert len(report.violations) < 100  # under the report's cap, so none cut
    assert len(set(report.violations)) == len(report.violations)
    assert set(report.violations) == expected
    code = cli.main(["verify-gluing", "--n", "3", "--s", "3", "--output-dir", str(tmp_path)])
    assert code == 2
