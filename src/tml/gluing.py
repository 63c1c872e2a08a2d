"""Surgery on closed walks with odd-multiplicity edges.

Removing the last occurrence of every odd edge from a closed walk of length
2s leaves 2l loose steps organized into maximal runs of consecutive instants.
Cutting the walk at those runs yields fragments which can be reassembled,
matching fragment endpoints at shared vertices (reversing a fragment when it
is attached by its far end), into a collection of closed walks whose edge
multiset is the original one minus one occurrence per odd edge.  Every edge
of the union is then even.  Three outcomes are distinguished:

* ``single-even``: one closed even walk;
* ``multi-even``:  several closed walks, all even;
* ``mixed-parity``: several closed walks, some carrying odd edges (the union
  is still even).  A follow-up merge (``merge_odd_walks``) splices walks
  pairwise along shared odd edges, erasing two occurrences per merge, until
  every walk is even.

The reassembly also pairs up the runs of removed odd edges into closed
cycles; the cycle count feeds the refined counting bounds.
The reverse direction, re-inserting odd edges into an even walk, is only
ever counted, never sampled: ``enumerate_insertions`` provides a brute-force
fiber oracle at toy sizes and the ``*_bound`` and ``*_log`` functions
implement the counting estimates that dominate those fibers.  Every
real-valued ceiling comes back as its natural log, so none overflows.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import NamedTuple

from .ensemble import _check_at_least, _check_finite, _check_positive, _trial_streams
from .paths import (
    ClosedPath,
    _canonical_sequences,
    _check_class_count,
    _edge_counts,
    _from_log,
    _log_catalan,
    _log_main_term,
    catalan,
    edge_key,
    edge_multiplicities,
    is_even_path,
    marked_instants,
    nonreturned_edges,
    random_closed_path,
)


class GluingError(ValueError):
    """Structural error in walk surgery."""


class EvenWalkError(GluingError):
    """Raised when an operation requiring odd edges receives an even walk."""


# ---------- odd-run structure ----------


class OddRun(NamedTuple):
    """One maximal run of consecutive non-returned instants.

    Instants are 1-based; instant j is the step vertices[j-1] -> vertices[j].
    depart_vertex is where the run leaves the walk, arrive_vertex where it
    rejoins it.
    """

    first_instant: int
    last_instant: int
    depart_vertex: int
    arrive_vertex: int

    def instants(self) -> range:
        return range(self.first_instant, self.last_instant + 1)


class OddStructure(NamedTuple):
    runs: tuple[OddRun, ...]
    odd_pairs: int  # half the number of non-returned instants

    @property
    def run_count(self) -> int:
        return len(self.runs)


def odd_interval_decomposition(p: ClosedPath) -> OddStructure:
    """Split the non-returned instants of an even-length closed walk into
    maximal runs of consecutive instants.

    Raises EvenWalkError when the walk has no odd edges.
    """
    if p.length % 2 != 0:
        raise GluingError("walk length must be even")
    instants = nonreturned_edges(p)
    if not instants:
        raise EvenWalkError("walk has no odd edges")
    runs = []
    start = prev = instants[0]
    for j in instants[1:] + [None]:
        if j is not None and j == prev + 1:
            prev = j
            continue
        runs.append(
            OddRun(
                first_instant=start,
                last_instant=prev,
                depart_vertex=p.vertices[start - 1],
                arrive_vertex=p.vertices[prev],
            )
        )
        if j is not None:
            start = prev = j
    return OddStructure(runs=tuple(runs), odd_pairs=len(instants) // 2)


def _fragments(p: ClosedPath, runs: tuple[OddRun, ...]) -> list[tuple[int, ...]]:
    """The J+1 vertex fragments left when the runs are cut out.

    Fragment 0 starts at the walk origin and ends where run 1 departs;
    fragment i starts where run i arrives and ends where run i+1 departs;
    the last fragment ends back at the origin.  Interior fragments always
    carry at least one step because runs are maximal.
    """
    verts = p.vertices
    out = [tuple(verts[: runs[0].first_instant])]
    for i in range(len(runs) - 1):
        out.append(tuple(verts[runs[i].last_instant : runs[i + 1].first_instant]))
    out.append(tuple(verts[runs[-1].last_instant :]))
    return out


# ---------- the reassembly ----------


class GluedDecomposition(NamedTuple):
    """Closed walks produced by the reassembly, grouped by chain origin.

    origins[0] is the input walk's origin; later origins are arrival
    vertices of marked instants of the input walk, pairwise distinct.
    """

    walks: tuple[ClosedPath, ...]
    origins: tuple[int, ...]
    odd_pairs: int
    outcome: str  # "single-even" | "multi-even" | "mixed-parity"

    @property
    def walk_count(self) -> int:
        return len(self.walks)

    @property
    def total_length(self) -> int:
        return sum(w.length for w in self.walks)


def _glue_traced(p: ClosedPath) -> tuple[GluedDecomposition, OddStructure | None, list[int]]:
    """The reassembly behind ``glue``, with its odd-run structure and its
    endpoint pairing (None and [] for an even walk).

    Fragment k owns two slots: slot 2k is its first vertex in the original
    walk and slot 2k + 1 its last.  Chain building pairs the slots two at a
    time, and partner[x] is the slot that x was paired with.  A fragment read
    forward is entered at its even slot and left at its odd one; read
    backwards, the other way round.
    """
    try:
        structure = odd_interval_decomposition(p)
    except EvenWalkError:
        decomp = GluedDecomposition(
            walks=(p,), origins=(p.origin,), odd_pairs=0, outcome="single-even"
        )
        return decomp, None, []

    frags = _fragments(p, structure.runs)
    origin = p.origin
    unglued = set(range(1, len(frags)))
    partner = [0] * (2 * len(frags))
    grouped: dict[int, list[int]] = {}  # chain origin -> glued walk, first closing first

    def pair(x: int, y: int) -> None:
        partner[x] = y
        partner[y] = x

    def pick(candidates: list[int], at: int) -> int:
        # lowest original index; forward reading preferred when both ends match
        j = min(candidates)
        return 2 * j + (frags[j][0] != at)

    def oriented(entry: int) -> tuple[int, ...]:
        frag = frags[entry // 2]
        return frag if entry % 2 == 0 else frag[::-1]

    cur = list(frags[0])
    entry, exit_ = 0, 1
    while True:
        if cur[-1] == cur[0]:
            pair(exit_, entry)
            grouped.setdefault(cur[0], [cur[0]]).extend(cur[1:])
            if not unglued:
                break
            at_origin = [j for j in unglued if origin in (frags[j][0], frags[j][-1])]
            entry = pick(at_origin, origin) if at_origin else 2 * min(unglued)
            unglued.remove(entry // 2)
            cur = list(oriented(entry))
            exit_ = entry ^ 1
            continue
        end = cur[-1]
        candidates = [j for j in unglued if end in (frags[j][0], frags[j][-1])]
        if not candidates:
            raise GluingError(f"no fragment endpoint at vertex {end}; walk malformed")
        slot = pick(candidates, end)
        unglued.remove(slot // 2)
        pair(exit_, slot)
        cur.extend(oriented(slot)[1:])
        exit_ = slot ^ 1

    walks = tuple(ClosedPath(vertices=tuple(verts), n=p.n) for verts in grouped.values())
    if len(walks) == 1:
        outcome = "single-even"
    elif all(is_even_path(w) for w in walks):
        outcome = "multi-even"
    else:
        outcome = "mixed-parity"
    decomp = GluedDecomposition(
        walks=walks,
        origins=tuple(grouped),
        odd_pairs=structure.odd_pairs,
        outcome=outcome,
    )
    return decomp, structure, partner


def glue(p: ClosedPath) -> GluedDecomposition:
    """Remove one occurrence of every odd edge of ``p`` and reassemble the
    fragments into closed walks of total length len(p) - 2*(odd pairs).

    Even walks come back unchanged as a single-even decomposition.
    Deterministic: lowest fragment index wins every tie, a chain closes as
    soon as it returns to its own origin, and new chains restart at the walk
    origin when a fragment endpoint is available there, else at the first
    unglued fragment.
    """
    return _glue_traced(p)[0]


def count_gluings(p: ClosedPath) -> tuple[int, dict[int, int]]:
    """Number of admissible endpoint pairings of the odd-run ends, with the
    histogram of endpoint multiplicities.

    Every vertex occurs an even number 2A of times among the run endpoints;
    pairing the ends at one vertex can be done (2A-1)!! ways and vertices are
    independent.  Returns (count, {i: number of vertices with A = i}).
    """
    return _pairing_count(odd_interval_decomposition(p))


def _pairing_count(structure: OddStructure) -> tuple[int, dict[int, int]]:
    ends: dict[int, int] = {}
    for run in structure.runs:
        ends[run.depart_vertex] = ends.get(run.depart_vertex, 0) + 1
        ends[run.arrive_vertex] = ends.get(run.arrive_vertex, 0) + 1
    hist: dict[int, int] = {}
    count = 1
    for v, c in ends.items():
        if c % 2 != 0:
            raise GluingError(f"odd endpoint incidence at vertex {v}")
        hist[c // 2] = hist.get(c // 2, 0) + 1
        count *= math.prod(range(1, c, 2))  # (c-1)!! over even c
    return count, dict(sorted(hist.items()))


def _pairing_count_by_search(p: ClosedPath) -> int:
    """Exhaustively count admissible endpoint pairings.  Test oracle for
    count_gluings; exponential, keep the run count small."""
    structure = odd_interval_decomposition(p)
    slots: list[int] = []
    for run in structure.runs:
        slots.append(run.depart_vertex)
        slots.append(run.arrive_vertex)

    def rec(free: tuple[int, ...]) -> int:
        if not free:
            return 1
        first, rest = free[0], free[1:]
        total = 0
        for k, v in enumerate(rest):
            if slots[v] == slots[first]:
                total += rec(rest[:k] + rest[k + 1 :])
        return total

    return rec(tuple(range(len(slots))))


# ---------- cycle structure of the removed odd edges ----------


class CycleDecomposition(NamedTuple):
    """The removed odd edges organized into closed cycles: cycles holds, per
    cycle, the odd-edge keys in traversal order."""

    cycles: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def cycle_count(self) -> int:
        return len(self.cycles)


def cycle_decomposition(p: ClosedPath) -> CycleDecomposition:
    """Follow the deterministic reassembly's endpoint pairings to organize
    the runs of removed odd edges into closed cycles.

    Each run together with the fragment slots on both of its sides forms an
    arc; pairings and arcs alternate around disjoint loops, and the loops
    containing at least one run are the cycles.  Even walks give no cycles.
    """
    return _cycles(p, *_glue_traced(p)[1:])


def _cycles(p: ClosedPath, structure: OddStructure | None, partner: list[int]) -> CycleDecomposition:
    """Cycles of the slot pairing of ``_glue_traced``.

    With J runs there are 2(J + 1) slots.  The arc from slot x goes to x + 1
    if x is odd and to x - 1 if x is even, mod 2(J + 1), and carries run
    (its odd end) // 2; index J is the virtual arc that closes the walk at
    its origin.  Loops start at the lowest unseen slot.
    """
    if structure is None:
        return CycleDecomposition(cycles=())
    runs = structure.runs
    slots = len(partner)
    seen = [False] * slots
    cycles = []
    for start in range(slots):
        slot = start
        edges: list[tuple[int, int]] = []
        while not seen[slot]:
            nxt = (slot + 1 if slot % 2 else slot - 1) % slots
            seen[slot] = seen[nxt] = True
            r = (slot if slot % 2 else nxt) // 2
            if r < len(runs):
                edges.extend(edge_key(*p.step(j)) for j in runs[r].instants())
            slot = partner[nxt]
        if edges:  # else an already seen start, or the virtual arc's own loop
            cycles.append(tuple(edges))
    return CycleDecomposition(cycles=tuple(cycles))


# ---------- merge procedure for mixed-parity outcomes ----------


def merge_odd_walks(walks: list[ClosedPath] | tuple[ClosedPath, ...]) -> tuple[list[ClosedPath], int]:
    """Splice walks pairwise along shared odd edges until every walk is even.

    Requires the union of the walks' edge multisets to be even.  Repeatedly
    takes the lowest-index walk with an odd edge, locates the first instant
    carrying one, finds the next walk where that edge is also odd, and merges
    the two by rerouting through the second walk at its first occurrence of
    the edge (reading the second walk backwards when the two occurrences run
    in the same direction).  Each merge erases the shared edge twice, so the
    total length drops by 2 per merge.  Returns (even walks, merge count).
    """
    if not walks:
        raise GluingError("no walks to merge")
    n = walks[0].n
    union = Counter()
    for w in walks:
        union.update(edge_multiplicities(w))
    if any(m % 2 for m in union.values()):
        raise GluingError("union of walks has odd edges; merge contract breached")

    seqs = [list(w.vertices) for w in walks]
    merges = 0
    while True:
        target = None
        for i, a in enumerate(seqs):
            mults = _edge_counts(a)
            odd_instants = [t for t in range(1, len(a)) if mults[edge_key(a[t - 1], a[t])] % 2]
            if odd_instants:
                target = (i, odd_instants[0], edge_key(a[odd_instants[0] - 1], a[odd_instants[0]]))
                break
        if target is None:
            break
        i, t, e = target
        a = seqs[i]
        partner = None
        for j in range(i + 1, len(seqs)):
            b = seqs[j]
            occ = [t2 for t2 in range(1, len(b)) if edge_key(b[t2 - 1], b[t2]) == e]
            if len(occ) % 2 == 1:
                partner = (j, occ[0])
                break
        if partner is None:
            raise GluingError(f"edge {e} odd in walk {i} but matched nowhere")
        j, t2 = partner
        b = seqs[j]
        if not (b[t2 - 1] == a[t] and b[t2] == a[t - 1]):
            # same direction: read the partner walk backwards
            b = b[::-1]
            t2 = len(b) - t2
        seqs[i] = a[:t] + b[t2 + 1 :] + b[1:t2] + a[t + 1 :]
        del seqs[j]
        merges += 1
    return [ClosedPath(vertices=tuple(s), n=n) for s in seqs], merges


# ---------- counting bounds ----------


def single_walk_insertion_bound(half_length: int, odd_pairs: int, run_count: int) -> int:
    """Ceiling on the number of ways to re-insert 2*odd_pairs odd edges, in
    run_count runs, into an even walk of length 2*half_length.

    Counts positions, run order, directions, run-size compositions, and
    ordered edge choices:
    C(2m, J) * J! * 2^J * C(2l, J) * (2m)!/(2m - 2l + J)!.
    """
    m, l, j = half_length, odd_pairs, run_count
    if not (1 <= j <= 2 * l <= 2 * m):
        raise ValueError("need 1 <= run_count <= 2*odd_pairs <= 2*half_length")
    return (
        math.comb(2 * m, j)
        * math.factorial(j)
        * 2**j
        * math.comb(2 * l, j)
        * math.perm(2 * m, 2 * l - j)
    )


def _logsumexp(values: list[float]) -> float:
    """Natural log of sum(exp(v)); -inf for an empty sum."""
    top = max(values, default=-math.inf)
    if top == -math.inf:
        return -math.inf
    return top + math.log(sum(math.exp(v - top) for v in values))


# Deepest s the contribution ceilings accept (the edge scale N^(6/11) is 1874
# at N = 10^6).  The multi-walk sum has O(s^2) terms; README gives timings.
BOUND_S_LIMIT = 2000


def _check_depth(s: int, n: int) -> None:
    _check_at_least(1, s=s, n=n)
    if s > BOUND_S_LIMIT:
        raise ValueError(f"s={s} exceeds the counting-bound limit {BOUND_S_LIMIT}")


class BoundBreakdown(NamedTuple):
    """A positive bound kept in log space, with per-term diagnostics.

    log_terms[i] is the natural log of the term for odd-pair count i+1.
    """

    log_total: float
    log_terms: tuple[float, ...]


def single_walk_contribution_bound(
    s: int, n: int, sigma: float, entry_bound: float, prefactor: float = 1.0
) -> BoundBreakdown:
    """Contribution ceiling for walks of length 2s whose surgery yields one
    even walk: sum over odd-pair counts l of

        prefactor * n * catalan(s-l) * sigma^(2s-2l) * (16*entry_bound*(s-l)/sqrt(n))^(2l).

    entry_bound is the largest attainable |entry| of the matrix law.
    """
    _check_depth(s, n)
    _check_positive(sigma=sigma, entry_bound=entry_bound, prefactor=prefactor)
    terms = [
        math.log(prefactor)
        + _log_main_term(s - l, n, sigma)
        + 2 * l * (math.log(16 * (s - l)) + math.log(entry_bound) - 0.5 * math.log(n))
        for l in range(1, s)
    ]
    return BoundBreakdown(log_total=_logsumexp(terms), log_terms=tuple(terms))


CONVOLUTION_CONST = 2  # exact splitting constant for Catalan convolutions, see verify_catalan_convolution


def multi_walk_contribution_bound(
    s: int, n: int, sigma: float, entry_bound: float, prefactor: float = 1.0
) -> BoundBreakdown:
    """Contribution ceiling for walks whose surgery yields several even
    walks.  Per odd-pair count l and run count J the term is

        2^J J! C(2l,J) (2s-2l)!/(2s-4l+J)! entry_bound^(2l) n^(-l)
        * 2^J C(2s-2l, J) * prefactor^J
        * CONVOLUTION_CONST^(2l) * n * catalan(s-l) * sigma^(2s-2l):

    choices of runs and edges, endpoint placement collapsed through
    C(2s-2l,I-1)*C(2s-2l-I+1,J-I+1) <= 2^J C(2s-2l,J), and the split of one
    Catalan budget across several walks absorbed into CONVOLUTION_CONST^(2l).
    For l <= s/2 the J-dependent factors are
    single_walk_insertion_bound(s-l, l, J) * (2*prefactor)^J.  J runs over
    max(1, 4l-2s) <= J <= min(2l, 2s-2l), where the extra steps and the
    endpoints fit; an l with no such J contributes -inf.
    Requires prefactor >= 1 so per-walk prefactors can be collapsed.
    """
    _check_depth(s, n)
    _check_positive(sigma=sigma, entry_bound=entry_bound, prefactor=prefactor)
    _check_at_least(1, prefactor=prefactor)
    log_4p = math.log(4) + math.log(prefactor)
    log_kc = math.log(entry_bound) + math.log(CONVOLUTION_CONST)
    log_fact = [math.lgamma(i + 1) for i in range(2 * s + 1)]  # log i!
    terms = []
    for l in range(1, s):
        m = 2 * s - 2 * l  # steps left once the odd pairs are removed
        # 2^J J! C(2l,J) * 2^J C(m,J) * m!/(m-2l+J)!, with the l-only factorials outside
        log_l = log_fact[2 * l] + 2 * log_fact[m] + 2 * l * log_kc
        log_l += _log_main_term(s - l, n, sigma) - l * math.log(n)
        per_j = [
            j * log_4p - log_fact[2 * l - j] - log_fact[j] - log_fact[m - j] - log_fact[m - 2 * l + j]
            for j in range(max(1, 4 * l - 2 * s), min(2 * l, m) + 1)
        ]
        terms.append(log_l + _logsumexp(per_j))
    return BoundBreakdown(log_total=_logsumexp(terms), log_terms=tuple(terms))


def log_trace_excess_ratio(bound: BoundBreakdown, s: int, n: int, sigma: float) -> float:
    """Natural log of the bound's total over n * catalan(s) * sigma^(2s)."""
    return bound.log_total - _log_main_term(s, n, sigma)


class MixedParityBound(NamedTuple):
    """Natural logs of the preimage ceilings for reconstructing walk
    collections that needed merge_count extra merges, and of their ratios to
    the choice budget C(2s, merge_count)."""

    log_trivial: float
    log_refined: float
    log_trivial_ratio: float
    log_refined_ratio: float


def mixed_parity_reduction_bound(
    s: int,
    n: int,
    odd_pairs: int,
    walk_count: int,
    merge_count: int,
) -> MixedParityBound:
    """Two ceilings on the cost of undoing merge_count merges, as logs.

    trivial: C(2s, q) * (4s)^q * (2s)^q * n^(-q) with q = merge_count
    (choices of switch instants, lengths, origins, and the weight of the
    q restored edge pairs).  refined: C(2s', q) * (s^(3/2)/n)^q with
    s' = s - odd_pairs - merge_count, using the window-functional
    expectation in place of the raw length counting.  Ratios divide by
    C(2s, q).
    """
    q = merge_count
    if walk_count < 1 or q < 0 or (q > 0 and q >= walk_count):
        raise ValueError("merge_count must satisfy 0 <= merge_count < walk_count")
    if q == 0:
        return MixedParityBound(0.0, 0.0, 0.0, 0.0)  # nothing to undo: every ceiling is 1
    s_prime = s - odd_pairs - q
    if s_prime < 0:
        raise ValueError("merge_count and odd_pairs exceed the walk length budget")
    log_choices = math.log(math.comb(2 * s, q))
    log_trivial = log_choices + q * (math.log(4 * s) + math.log(2 * s) - math.log(n))
    refined_choices = math.comb(2 * s_prime, q)
    if refined_choices == 0:
        # the shortened walks cannot host q switch instants: empty preimage
        log_refined = -math.inf
    else:
        log_refined = math.log(refined_choices) + q * (1.5 * math.log(s) - math.log(n))
    return MixedParityBound(
        log_trivial=log_trivial,
        log_refined=log_refined,
        log_trivial_ratio=log_trivial - log_choices,
        log_refined_ratio=log_refined - log_choices,
    )


def cycle_refined_insertion_log(
    s: int, odd_pairs: int, run_count: int, cycle_count: int, const: float
) -> float:
    """Natural log of the insertion ceiling keyed to the cycle structure,
    per gluing:

        s^c / c! * s^l * s^(J-c) / (J-c)! * const^(2l)

    with l odd pairs, J runs, c cycles.  Cycle starts cost s^c/c!, edge
    choices s^l, remaining run boundaries s^(J-c)/(J-c)!, and const^(2l)
    swallows direction and composition factors.
    """
    l, j, c = odd_pairs, run_count, cycle_count
    if not (1 <= c <= j <= 2 * l):
        raise ValueError("need 1 <= cycle_count <= run_count <= 2*odd_pairs")
    _check_positive(const=const)
    return (
        c * math.log(s)
        - math.lgamma(c + 1)
        + l * math.log(s)
        + (j - c) * math.log(s)
        - math.lgamma(j - c + 1)
        + 2 * l * math.log(const)
    )


def cycle_refined_insertion_log_sum(s: int, odd_pairs: int, const: float) -> float:
    """Natural log of the cycle-refined ceiling summed over all admissible
    run and cycle counts at fixed odd_pairs.  The c-sum has the closed form
    sum over 1 <= c <= J of 1/(c!(J-c)!) = (2^J - 1)/J!, which leaves
    s^l * const^(2l) * sum over 1 <= J <= 2l of s^J (2^J - 1)/J!."""
    l = odd_pairs
    _check_positive(const=const)
    log_2s = math.log(2 * s)
    per_j = [j * log_2s + math.log1p(-(0.5**j)) - math.lgamma(j + 1) for j in range(1, 2 * l + 1)]
    return l * math.log(s) + 2 * l * math.log(const) + _logsumexp(per_j)


def typed_vertex_contribution_log(
    s: int,
    n: int,
    odd_pairs: int,
    growth_exponent: float,
    nonclosed_count: int,
    small_type_count: int,
    large_type_weight: float,
    sigma: float = 1.0,
) -> float:
    """Natural log of the even-walk contribution ceiling at fixed
    self-intersection budget, when the walk length grows like
    n^(1/2 + growth_exponent):

        sigma^(2s-2l) * catalan(s-l) * exp(n^(2*eta))
        * (n^(-1/8 + 9*eta/4))^r / r!
        * (n^(3*eta - 1/2))^k1 / k1!
        * (s / n^(199/200))^k2

    with eta the growth exponent, r the non-closed-vertex count, k1 the
    number of moderate-type vertices and k2 the weighted count of
    large-type vertices.
    """
    _check_finite(growth_exponent=growth_exponent, large_type_weight=large_type_weight)
    _check_positive(sigma=sigma)
    _check_at_least(
        0, nonclosed_count=nonclosed_count, small_type_count=small_type_count,
        large_type_weight=large_type_weight,
    )
    eta = growth_exponent
    r, k1, k2 = nonclosed_count, small_type_count, large_type_weight
    l = odd_pairs
    # n^(2*eta), also for an int n past the float range; inf, the vacuous
    # ceiling, once it leaves the float range
    log_growth = _from_log(2 * eta * math.log(n))
    return (
        (2 * s - 2 * l) * math.log(sigma)
        + _log_catalan(s - l)
        + log_growth
        + r * (-1 / 8 + 9 * eta / 4) * math.log(n)
        - math.lgamma(r + 1)
        + k1 * (3 * eta - 0.5) * math.log(n)
        - math.lgamma(k1 + 1)
        + k2 * (math.log(s) - (199 / 200) * math.log(n))
    )


def distance_two_tail_log(s: int, complexity: int, total_nearby: float) -> float:
    """Natural log of the product bound (s/kappa)^(4*kappa) * exp(-M)
    controlling walks whose some vertex sees M vertices within distance two,
    with kappa the complexity budget."""
    _check_at_least(1, complexity=complexity)
    _check_finite(total_nearby=total_nearby)
    return 4 * complexity * (math.log(s) - math.log(complexity)) - total_nearby


# ---------- exact convolution facts behind the multi-walk constant ----------


def _interior_convolution(s: int) -> int:
    """sum over 1 <= k <= s-1 of catalan(k)*catalan(s-k), term by term."""
    return sum(catalan(k) * catalan(s - k) for k in range(1, s))


def catalan_convolution_ratio(s: int) -> float:
    """Exact value of the interior Catalan convolution divided by
    catalan(s), computed with integer arithmetic; 0.0 at s = 0 and 1."""
    return _interior_convolution(s) / catalan(s)


def verify_catalan_convolution(s_max: int) -> bool:
    """Exact check that the interior Catalan convolution never exceeds
    CONVOLUTION_CONST * catalan(s) for any 2 <= s <= s_max.

    The interior convolution equals catalan(s+1) - 2*catalan(s) (the full
    convolution identity minus the two boundary terms), so the inequality is
    catalan(s+1) <= 4*catalan(s), checked here with exact integers via the
    ratio recurrence; the identity itself is re-verified term by term at the
    orders 2, 3, 5, 8, 13, 100 and 1000 up to s_max.
    """
    for s in (2, 3, 5, 8, 13, 100, 1000):
        if s > s_max:
            continue
        literal = _interior_convolution(s)
        if literal != catalan(s + 1) - 2 * catalan(s):
            return False
        if literal > CONVOLUTION_CONST * catalan(s):
            return False
    c = catalan(2)
    for s in range(2, s_max + 1):
        nxt = c * 2 * (2 * s + 1) // (s + 2)  # exact: catalan(s+1) from catalan(s)
        if nxt - 2 * c > CONVOLUTION_CONST * c:
            return False
        c = nxt
    return True


def power_sum_ratio(s: int) -> float:
    """s^(3/2) * sum over 1 <= k <= s-1 of k^(-3/2)*(s-k)^(-3/2).

    Bounded in s (it climbs toward about 5.23), which is the corrected form
    of the splitting inequality the multi-walk constant rests on.
    """
    if s < 2:
        return 0.0
    total = sum(k ** -1.5 * (s - k) ** -1.5 for k in range(1, s))
    return s**1.5 * total


# ---------- brute-force insertion fibers ----------


INSERTION_BASE_LIMIT = 8
INSERTION_VERTEX_LIMIT = 4


def enumerate_insertions(base: ClosedPath, max_odd_pairs: int) -> list[ClosedPath]:
    """All closed walks P, with at most max_odd_pairs odd-edge pairs, whose
    edge multiset is base's plus one extra occurrence of each of P's odd
    edges, every odd edge being an edge of base.  Walks share base's origin.

    max_odd_pairs = 0 returns [base] alone: inserting nothing is the
    identity.  Exhaustive over vertex sequences; sizes are guarded.
    """
    if not is_even_path(base):
        raise GluingError("insertion base must be an even walk")
    if base.length > INSERTION_BASE_LIMIT or base.n > INSERTION_VERTEX_LIMIT:
        raise GluingError(
            f"insertion fibers supported for length <= {INSERTION_BASE_LIMIT},"
            f" n <= {INSERTION_VERTEX_LIMIT}"
        )
    if max_odd_pairs == 0:
        return [base]
    base_mult = edge_multiplicities(base)
    base_edges = set(base_mult)
    out = []
    for l in range(1, max_odd_pairs + 1):
        length = base.length + 2 * l
        for tail in itertools.product(range(1, base.n + 1), repeat=length - 1):
            verts = (base.origin,) + tail + (base.origin,)
            mult = _edge_counts(verts)
            odd = {e for e, m in mult.items() if m % 2}
            if len(odd) != 2 * l:
                continue
            if not odd <= base_edges:
                continue
            ok = all(mult[e] - base_mult.get(e, 0) == (1 if e in odd else 0) for e in mult)
            if ok and set(base_mult) <= set(mult):
                out.append(ClosedPath(vertices=verts, n=base.n))
    out.sort(key=lambda p: p.vertices)
    return out


# ---------- the invariant suite ----------


class InvariantReport(NamedTuple):
    """Outcome of running every structural check over a family of walks."""

    walks_checked: int
    violations: tuple[tuple[str, tuple[int, ...]], ...]
    histogram: dict[tuple[int, int, int, int, str], int]

    @property
    def ok(self) -> bool:
        return not self.violations


def _check_one(p: ClosedPath, found: list[tuple[str, tuple[int, ...]]]) -> tuple[int, int, int, int, str]:
    """Run every invariant on one walk; returns its histogram key
    (odd_pairs, run_count, walk_count, cycle_count, outcome)."""

    def bad(tag: str) -> None:
        found.append((tag, p.vertices))

    mult = p._multiplicities  # the walk's cached counts: read, never mutated
    odd_edges = {e for e, m in mult.items() if m % 2}
    degrees: dict[int, int] = {}
    for u, v in odd_edges:  # a loop adds 2 to its vertex
        degrees[u] = degrees.get(u, 0) + 1
        degrees[v] = degrees.get(v, 0) + 1
    if any(d % 2 for d in degrees.values()):
        bad("odd-graph-degree")

    decomp, structure, partner = _glue_traced(p)
    l = decomp.odd_pairs
    run_count = 0
    cyc = _cycles(p, structure, partner)
    if l > 0:
        run_count = structure.run_count
        if not (1 <= run_count <= 2 * l):
            bad("run-count-range")
        if not (1 <= cyc.cycle_count <= run_count):
            bad("cycle-count-range")
        if sum(len(c) for c in cyc.cycles) != 2 * l:
            bad("cycle-partition")
        if sorted(e for c in cyc.cycles for e in c) != sorted(odd_edges):
            bad("cycle-partition")
        count, hist = _pairing_count(structure)
        floor = math.prod(math.factorial(i) ** k for i, k in hist.items())
        if count < floor:
            bad("pairing-count-floor")

    if decomp.total_length != p.length - 2 * l:
        bad("length-bookkeeping")
    merged: dict[tuple[int, int], int] = {}
    for w in decomp.walks:
        for e, k in w._multiplicities.items():
            merged[e] = merged.get(e, 0) + k
    # the walks keep every traversal but one per odd edge
    if not (
        merged.keys() <= mult.keys()
        and all(merged.get(e, 0) == m - (e in odd_edges) for e, m in mult.items())
    ):
        bad("edge-conservation")
    union_even = not any(m % 2 for m in merged.values())
    if not union_even:
        bad("union-parity")
    if decomp.outcome in ("single-even", "multi-even"):
        if not all(is_even_path(w) for w in decomp.walks):
            bad("even-outcome-parity")
    if decomp.outcome == "single-even" and decomp.walk_count != 1:
        bad("single-walk-count")

    marked_vertices = {p.vertices[t] for t in marked_instants(p)}
    extra = decomp.origins[1:]
    if len(set(extra)) != len(extra) or decomp.origins[0] != p.origin:
        bad("origin-distinctness")
    if not all(v in marked_vertices for v in extra):
        bad("origin-marking")

    if decomp.outcome == "mixed-parity" and union_even:  # merge_odd_walks' precondition
        evened, merge_count = merge_odd_walks(list(decomp.walks))
        if not all(is_even_path(w) for w in evened):
            bad("merge-parity")
        if sum(w.length for w in evened) != p.length - 2 * l - 2 * merge_count:
            bad("merge-length")

    if decomp.outcome == "single-even" and l > 0 and all(mult[e] >= 3 for e in odd_edges):
        # every odd edge stays in the glued walk W.  An even W marks len(W)/2
        # steps, and each vertex but its origin is first reached by one, so
        # sum_v (events(v) - 1) = len(W)/2 + 1 - vertices, at least edges -
        # vertices + 1, the cycle rank of W's graph.  The cycles are
        # edge-disjoint closed trails in that graph, so at most its rank.  One
        # vertex can carry two of them (an odd loop at a triangle's corner):
        # the count of vertices with 2 events is no floor.  The closed form
        # also reads an odd W, which even-outcome-parity has already reported
        w = decomp.walks[0]
        if w.length // 2 + 1 - len(set(w.vertices)) < cyc.cycle_count:
            bad("self-intersection-floor")

    return (l, run_count, decomp.walk_count, cyc.cycle_count, decomp.outcome)


def run_invariant_suite(
    n: int,
    s: int,
    exhaustive: bool = True,
    random_walks: int = 0,
    seed: int = 0,
) -> InvariantReport:
    """Check every structural invariant of the surgery over all n^(2s)
    closed vertex sequences (exhaustive=True) and/or random_walks uniformly
    random closed walks of length 2s on n vertices.  n < 1, s < 1, a
    negative ``random_walks`` and a run that would check no walk at all
    (exhaustive=False, random_walks=0) are refused before any walk is drawn,
    and so is an exhaustive sweep past the enumeration guard.

    No check reads the vertex labels, so the exhaustive sweep checks one
    representative per first-occurrence relabeling class (labels 1..v in
    order of first visit, closing at vertex 1) and adds its histogram key
    with weight n(n-1)...(n-v+1), the number of labeled walks in the class.
    ``walks_checked`` still counts all n^(2s) of them.  A violating class is
    reported once, by its representative.  A walk visits at most 2s labels,
    so every n >= 2s has the classes of n = 2s.  The guard counts classes,
    as the trace sweep's does (``_check_class_count``).  Random walks are
    checked one by one, with their own labels: walk j is drawn from the
    stream of seed + j, which ``ensemble._trial_streams`` gives it as it
    gives every Monte Carlo trial."""
    if exhaustive:
        _check_class_count(n, s)
    else:
        _check_at_least(1, s=s, n=n)
    _check_at_least(0, random_walks=random_walks)
    if not exhaustive and not random_walks:
        raise ValueError("nothing to check: the exhaustive sweep is skipped and random_walks is 0")
    found: list[tuple[str, tuple[int, ...]]] = []
    histogram: Counter = Counter()
    checked = 0
    walks = ()
    if random_walks:  # the first stream loads numpy before the sweep: a missing numpy fails at once
        streams = _trial_streams(seed, random_walks)
        walks = itertools.chain([next(streams)], streams)
    if exhaustive:
        for verts, v, counts in _canonical_sequences(n, 2 * s):
            p = ClosedPath(vertices=verts, n=n)
            p.__dict__["_multiplicities"] = Counter(counts)  # a copy: the sweep's counts are live
            histogram[_check_one(p, found)] += math.perm(n, v)
        checked = n ** (2 * s)
    for rng in walks:
        histogram[_check_one(random_closed_path(n, s, rng), found)] += 1
    checked += random_walks
    return InvariantReport(
        walks_checked=checked,
        violations=tuple(found[:100]),
        histogram=dict(sorted(histogram.items())),
    )
