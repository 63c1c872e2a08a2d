"""Closed vertex paths and exact trace moments by path summation.

The trace of the 2s-th power of a symmetric random matrix expands over all
closed vertex sequences i_0 -> i_1 -> ... -> i_{2s-1} -> i_0 with vertices
in [1..n].  The expected weight of one path factorizes over its non-oriented
edges: each edge {u, v} seen k times contributes the k-th moment of the
entry law.  Summing the weights of all n^(2s) sequences gives the exact
expected trace; this module is the brute-force oracle for that sum, plus
the structural path notions the combinatorial analysis is built on:

* an instant j (1-based, the step i_{j-1} -> i_j) is *marked* when its edge
  has been seen an odd number of times up to and including j;
* an edge with odd total multiplicity is an *odd edge*; the instant of its
  last occurrence is *non-returned*;
* a path is *even* when it has no odd edges;
* the detour lift reroutes each non-returned step through a fresh vertex
  n+1, producing an even closed path of length 2s + 2l.

Closed paths arising from traces always have even length, but closed odd-
length walks are legitimate objects here (weight bookkeeping and the gluing
machinery both handle them), so the container only enforces closedness.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .ensemble import EntryDistribution, moment

ENUMERATION_GUARD = 10**8
PATTERN_LENGTH_GUARD = 12


class PathSizeError(ValueError):
    """Raised when an exact enumeration would exceed its size guard."""


@dataclass(frozen=True)
class ClosedPath:
    """A closed walk on vertices 1..n, stored as the full vertex sequence.

    ``vertices`` has length+1 entries, with the first equal to the last.
    Trace expansions only produce even lengths; odd-length closed walks are
    allowed so decompositions can pass through them.
    """

    vertices: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        if len(self.vertices) < 1:
            raise ValueError("a closed path needs at least its origin")
        if self.vertices[0] != self.vertices[-1]:
            raise ValueError("path is not closed")
        if self.n < 1:
            raise ValueError("vertex count must be positive")
        for v in self.vertices:
            if not (1 <= v <= self.n):
                raise ValueError(f"vertex {v} outside [1..{self.n}]")

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    @property
    def origin(self) -> int:
        return self.vertices[0]

    def step(self, j: int) -> tuple[int, int]:
        """The directed step at instant j, 1-based."""
        return self.vertices[j - 1], self.vertices[j]

    @functools.cached_property
    def _multiplicities(self) -> Counter:
        # counted once per walk and shared by the readers in this module, so
        # none may mutate it; edge_multiplicities hands out copies
        return _edge_counts(self.vertices)


def edge_key(u: int, v: int) -> tuple[int, int]:
    """Canonical non-oriented edge; loops are ordinary edges {v, v}."""
    return (u, v) if u <= v else (v, u)


def edge_multiplicities(p: ClosedPath) -> Counter:
    """Non-oriented edge -> number of traversals, as a fresh Counter."""
    return Counter(p._multiplicities)


def _edge_counts(vs: tuple[int, ...]) -> Counter:
    c: Counter = Counter()
    for j in range(1, len(vs)):
        c[edge_key(vs[j - 1], vs[j])] += 1
    return c


def _moment_product(dist: EntryDistribution, multiplicities) -> tuple[float, bool]:
    """(product of the entry moments at the given edge multiplicities,
    whether every multiplicity is even).

    Stops at the first zero product; the flag is then meaningless because
    the walk contributes nothing.
    """
    w = 1.0
    all_even = True
    for k in multiplicities:
        w *= moment(dist, k)
        if w == 0.0:
            return w, False
        if k % 2 == 1:
            all_even = False
    return w, all_even


def is_even_path(p: ClosedPath) -> bool:
    """True when every edge multiplicity is even."""
    return all(k % 2 == 0 for k in p._multiplicities.values())


def path_weight(p: ClosedPath, dist: EntryDistribution, normalized: bool = True) -> float:
    """Expected product of the entry variables along the path.

    The weight is the product over non-oriented edges of the entry moment at
    that edge's multiplicity.  With ``normalized`` each of the 2s factors
    carries 1/sqrt(n), i.e. the product is divided by n**s.
    """
    w = _moment_product(dist, p._multiplicities.values())[0]
    if normalized:
        if p.length % 2 != 0:
            raise ValueError("normalized weights are defined for even lengths only")
        w /= float(p.n) ** (p.length // 2)
    return w


def marked_instants(p: ClosedPath) -> set[int]:
    """Instants whose edge has odd running multiplicity (1-based)."""
    seen: Counter = Counter()
    out: set[int] = set()
    vs = p.vertices
    for j in range(1, len(vs)):
        e = edge_key(vs[j - 1], vs[j])
        seen[e] += 1
        if seen[e] % 2 == 1:
            out.add(j)
    return out


def nonreturned_edges(p: ClosedPath) -> list[int]:
    """Sorted instants of the last occurrences of odd edges.

    The length of the result is 2l, twice the number of odd edge pairs.
    """
    odd = {e for e, k in p._multiplicities.items() if k % 2 == 1}
    vs = p.vertices
    out = []
    j = len(vs) - 1
    while odd:  # backwards from the end: the first sighting is the last occurrence
        e = edge_key(vs[j - 1], vs[j])
        if e in odd:
            odd.remove(e)
            out.append(j)
        j -= 1
    return out[::-1]


def fk_lift(p: ClosedPath) -> ClosedPath:
    """Reroute every non-returned step through the fresh vertex n+1.

    Each non-returned step u -> v becomes u -> n+1 -> v.  The result is an
    even closed path of length 2s + 2l on n+1 vertices in which the new
    vertex occurs exactly 2l times.
    """
    bad = set(nonreturned_edges(p))
    fresh = p.n + 1
    out = [p.vertices[0]]
    for j in range(1, len(p.vertices)):
        if j in bad:
            out.append(fresh)
        out.append(p.vertices[j])
    return ClosedPath(vertices=tuple(out), n=fresh)


def _closed_sequences(n: int, length: int):
    """All closed vertex sequences of the given length, odometer order."""
    for head in itertools.product(range(1, n + 1), repeat=length):
        yield head + (head[0],)


def _canonical_sequences(n: int, length: int, prune: bool = False):
    """One closed sequence of the given length (at least 1) per relabeling
    class, as (vertices, v, counts): the labels 1..v appear in first-occurrence
    order, v <= n, and the walk closes at vertex 1.  Odometer order; each
    class has n(n-1)...(n-v+1) labeled members.  ``counts`` is the walk's
    edge Counter, keyed in first-traversal order; it is one live object,
    valid until the next item is drawn.

    With ``prune``, only classes with every edge traversed twice or more
    are yielded, in the same order.  A prefix whose singles (edges traversed
    exactly once so far) exceed the steps left, the closing step included,
    is skipped, since each step pairs off at most one single.  The closing
    step is the last step, with vertex 1 its only candidate and no steps
    left, so a walk it leaves with a single is skipped too.
    """
    counts: Counter = Counter()  # edge -> traversals so far
    vertices = [1]

    def grow(v: int, singles: int):
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


def exact_trace_sums(
    dist: EntryDistribution, n: int, s: int, normalized: bool = True
) -> tuple[float, float]:
    """(E[Tr A^(2s)], its even-path share Z_e) by brute enumeration, in one
    pass; raw E[Tr M^(2s)] sums with ``normalized=False``.

    Walks all n^(2s) closed sequences in odometer order.  Guarded so the
    enumeration stays below 1e8 sequences; use the relabeling-class variant
    for large n at small s.
    """
    _check_enumeration_size(n, s)
    total = 0.0
    even = 0.0
    for vs in _closed_sequences(n, 2 * s):
        w, all_even = _moment_product(dist, _edge_counts(vs).values())
        if w != 0.0:
            total += w
            if all_even:
                even += w
    if normalized:
        scale = float(n) ** s
        return total / scale, even / scale
    return total, even


def exact_expected_trace(
    dist: EntryDistribution, n: int, s: int, normalized: bool = True
) -> float:
    """E[Tr A^(2s)] (or the raw E[Tr M^(2s)]) by brute enumeration."""
    return exact_trace_sums(dist, n, s, normalized)[0]


def even_path_contribution(
    dist: EntryDistribution, n: int, s: int, normalized: bool = True
) -> float:
    """Share of the exact expected trace carried by even paths (Z_e)."""
    return exact_trace_sums(dist, n, s, normalized)[1]


def odd_path_contribution(
    dist: EntryDistribution, n: int, s: int, normalized: bool = True
) -> float:
    """Share of the exact expected trace carried by odd paths (Z_o)."""
    total, even = exact_trace_sums(dist, n, s, normalized)
    return total - even


def walk_count_exceeds(n: int, s: int, limit: int) -> bool:
    """True when n**(2s), the number of closed sequences, exceeds the
    positive ``limit``; False for n < 2 or s < 1.

    Decided without building a huge power: for n >= 2 the count exceeds
    ``limit`` as soon as 2s reaches its bit length.
    """
    if n < 2 or s < 1:
        return False
    return 2 * s >= limit.bit_length() or n ** (2 * s) > limit


def _check_walk_shape(n: int, s: int) -> None:
    if s < 1:
        raise ValueError("s must be at least 1")
    if n < 1:
        raise ValueError("n must be at least 1")


def _check_enumeration_size(n: int, s: int) -> None:
    _check_walk_shape(n, s)
    # n = 1 has one walk, but it is 2s steps long: count it as 2**(2s)
    if walk_count_exceeds(max(n, 2), s, ENUMERATION_GUARD):
        raise PathSizeError(
            f"max(n, 2)**(2s) = {max(n, 2)}**{2 * s} exceeds the enumeration guard"
            f" {ENUMERATION_GUARD}"
        )


def exact_trace_sums_patterns(
    dist: EntryDistribution, n: int, s: int, normalized: bool = True
) -> tuple[float, float]:
    """(E[Tr A^(2s)], its even-path share Z_e) via first-occurrence
    relabeling classes, in one pass.

    Two closed sequences that differ only by a vertex relabeling have the
    same weight, and a class with v distinct vertices has
    n * (n-1) * ... * (n-v+1) labeled members.  Enumerating one canonical
    representative per class makes the sum affordable for any n at small s.
    Guarded to path length 2s <= 12.

    When ``moment(dist, 1) == 0.0`` exactly, a class with an edge traversed
    once weighs exactly 0.0, so only classes with every edge traversed twice
    or more are weighed (the prune of ``_canonical_sequences``: 4900 of the
    Bell(10) = 115975 classes at s = 5, n >= 10), and they span at most
    s + 1 vertices.  A law whose float mean is a rounding residue, not
    exactly 0.0, weighs every class.  The skipped classes are exactly those
    that added nothing, and the rest are summed in the same order, so the
    pair is the same bits with or without the prune.

    Raises ValueError, before enumerating, when n(n-1)...(n-v+1) leaves the
    float range for the largest vertex count v the sum can weigh, and when
    the finished sum is not finite.
    """
    _check_walk_shape(n, s)
    if 2 * s > PATTERN_LENGTH_GUARD:
        raise PathSizeError(
            f"pattern enumeration supports 2s <= {PATTERN_LENGTH_GUARD}"
        )
    length = 2 * s
    prune = moment(dist, 1) == 0.0
    # labelings[v] = n(n-1)...(n-v+1), multiplied left to right in floats
    top = min(n, s + 1 if prune else length)
    labelings = [1.0]
    try:
        for i in range(top):
            labelings.append(labelings[-1] * (n - i))
    except OverflowError:  # n - i itself is beyond the float range
        labelings.append(math.inf)
    if math.isinf(labelings[-1]):
        raise ValueError(
            f"n is too large for the float pattern sum at s={s}: the falling"
            f" factorial n(n-1)... to {top} factors overflows a float"
        )
    total = 0.0
    even = 0.0
    for _, v, counts in _canonical_sequences(n, length, prune):
        w, all_even = _moment_product(dist, counts.values())
        if w != 0.0:
            ways = labelings[v]
            total += w * ways
            if all_even:
                even += w * ways
    if normalized:
        scale = float(n) ** s
        total, even = total / scale, even / scale
    if not (math.isfinite(total) and math.isfinite(even)):
        raise ValueError(f"the float pattern sum at s={s} overflows for this n and law")
    return total, even


def exact_expected_trace_patterns(
    dist: EntryDistribution, n: int, s: int, normalized: bool = True
) -> float:
    """E[Tr A^(2s)] (or the raw E[Tr M^(2s)]) by relabeling classes."""
    return exact_trace_sums_patterns(dist, n, s, normalized)[0]


def random_closed_path(n: int, s: int, rng: np.random.Generator) -> ClosedPath:
    """A uniform random closed sequence of length 2s on [1..n]."""
    head = rng.integers(1, n + 1, size=2 * s)
    verts = tuple(int(v) for v in head) + (int(head[0]),)
    return ClosedPath(vertices=verts, n=n)
