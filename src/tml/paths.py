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
* a path is *even* when it has no odd edges.

The semicircle budget n * catalan(s) * sigma^(2s) is defined here in log
form (``_log_main_term``), with ``_from_log``, its one way back to a float.

Closed paths arising from traces always have even length, but closed odd-
length walks are legitimate objects here (weight bookkeeping and the gluing
machinery both handle them), so the container only enforces closedness.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from typing import NamedTuple

from .ensemble import EntryDistribution, moment

ENUMERATION_GUARD = 10**8


class PathSizeError(ValueError):
    """Raised when an exact enumeration would exceed its size guard."""


class _ClosedPathFields(NamedTuple):
    vertices: tuple[int, ...]
    n: int


class ClosedPath(_ClosedPathFields):
    """A closed walk on vertices 1..n, stored as the full vertex sequence.

    ``vertices`` has length+1 entries, with the first equal to the last.
    Trace expansions only produce even lengths; odd-length closed walks are
    allowed so decompositions can pass through them.  Instances keep a
    ``__dict__`` for the cached ``_multiplicities``.
    """

    def __new__(cls, vertices: tuple[int, ...], n: int) -> ClosedPath:
        if len(vertices) < 1:
            raise ValueError("a closed path needs at least its origin")
        if vertices[0] != vertices[-1]:
            raise ValueError("path is not closed")
        if n < 1:
            raise ValueError("vertex count must be positive")
        for v in vertices:
            if not (1 <= v <= n):
                raise ValueError(f"vertex {v} outside [1..{n}]")
        return super().__new__(cls, vertices, n)

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
        # counted once per walk and shared by the readers in this module and
        # in gluing, so none may mutate it; edge_multiplicities hands out copies
        return _edge_counts(self.vertices)


def catalan(s: int) -> int:
    """(2s)! / (s! (s+1)!) as an exact integer."""
    if s < 0:
        raise ValueError("negative order")
    return math.comb(2 * s, s) // (s + 1)


def _log_catalan(s: int) -> float:
    """Natural log of catalan(s) via lgamma, for any s >= 0."""
    return math.lgamma(2 * s + 1) - math.lgamma(s + 1) - math.lgamma(s + 2)


def _log_main_term(s: int, n: int, sigma: float) -> float:
    """Natural log of the even-walk budget n * catalan(s) * sigma^(2s)."""
    return math.log(n) + _log_catalan(s) + 2 * s * math.log(sigma)


def _from_log(log_value: float) -> float:
    """exp(log_value), or inf past the float range."""
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


def beta_sum(I: int) -> float:
    """Sum over k < I of B(3k/2 + 1/2, 3(I-1-k)/2 + 1/2) via log-gamma.

    The k-th term is the Beta function of the two half-integer arguments;
    beta_sum(1) = pi and beta_sum(2) = 8/3.
    """
    if I < 1:
        raise ValueError("I must be at least 1")
    total = 0.0
    for k in range(I):
        a = 1.5 * k + 0.5
        b = 1.5 * (I - 1 - k) + 0.5
        total += math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
    return total


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


def _moment_product(moments: list[float], multiplicities) -> tuple[float, bool]:
    """(product of the entry moments ``moments[k]`` at the given edge
    multiplicities k, whether every multiplicity is even).

    Stops at the first zero product; the flag is then meaningless because
    the walk contributes nothing.
    """
    w = 1.0
    all_even = True
    for k in multiplicities:
        w *= moments[k]
        if w == 0.0:
            return w, False
        if k % 2 == 1:
            all_even = False
    return w, all_even


def is_even_path(p: ClosedPath) -> bool:
    """True when every edge multiplicity is even."""
    return all(k % 2 == 0 for k in p._multiplicities.values())


def path_weight(p: ClosedPath, dist: EntryDistribution) -> float:
    """Expected product of the entries of A = M/sqrt(n) along the path.

    The weight is the product over non-oriented edges of the entry moment at
    that edge's multiplicity, divided by n**s: each of the 2s factors
    carries 1/sqrt(n).  An odd-length walk has no such weight.
    """
    if p.length % 2 != 0:
        raise ValueError("path weights are defined for even lengths only")
    moments = [moment(dist, k) for k in range(p.length + 1)]
    w = _moment_product(moments, p._multiplicities.values())[0]
    return w / float(p.n) ** (p.length // 2)


def marked_instants(p: ClosedPath) -> set[int]:
    """Instants whose edge has odd running multiplicity (1-based)."""
    odd: set[tuple[int, int]] = set()  # edges traversed an odd number of times so far
    out: set[int] = set()
    vs = p.vertices
    for j in range(1, len(vs)):
        e = edge_key(vs[j - 1], vs[j])
        if e in odd:
            odd.remove(e)
        else:
            odd.add(e)
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


def _closed_sequences(n: int, length: int):
    """All closed vertex sequences of the given length, odometer order."""
    for head in itertools.product(range(1, n + 1), repeat=length):
        yield head + (head[0],)


def _canonical_sequences(n: int, length: int, prune: bool = False):
    """One closed sequence of the given length (at least 2) per relabeling
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

    A depth-first sweep on an explicit stack: depth d holds the open prefix
    vertices[:d + 1] for d < length - 1, and the step that closes a walk is
    taken inline from the last open prefix.
    """
    counts: Counter = Counter()  # edge -> traversals so far
    get = counts.get
    vertices = [1] * (length + 1)
    last = length - 2  # depth of the prefix whose next step is followed by the closing one
    # per depth d: next candidate vertex, labels used, singles, and the
    # (edge, count before) of the step that opened it
    nexts = [1] * (last + 1)
    labels = [1] * (last + 1)
    singles = [0] * (last + 1)
    opened: list = [None] * (last + 1)
    d = 0
    while True:
        nxt = nexts[d]
        v = labels[d]
        if nxt > v + 1 or nxt > n:  # every candidate is tried: back up one step
            if not d:
                return
            e, k = opened[d]
            if k:
                counts[e] = k
            else:
                del counts[e]
            d -= 1
            continue
        nexts[d] = nxt + 1
        u = vertices[d]
        e = (u, nxt) if u <= nxt else (nxt, u)  # edge_key, inline
        k = get(e, 0)
        child = singles[d] + (k == 0) - (k == 1)
        if prune and child > length - d - 1:
            continue
        counts[e] = k + 1
        vertices[d + 1] = nxt
        if nxt > v:
            v = nxt
        if d < last:
            d += 1
            nexts[d] = 1
            labels[d] = v
            singles[d] = child
            opened[d] = (e, k)
            continue
        close = (1, nxt)
        j = get(close, 0)
        if not prune or child + (j == 0) - (j == 1) == 0:
            counts[close] = j + 1
            yield tuple(vertices), v, counts
            if j:
                counts[close] = j
            else:
                del counts[close]
        if k:
            counts[e] = k
        else:
            del counts[e]


def exact_trace_sums(dist: EntryDistribution, n: int, s: int) -> tuple[float, float]:
    """(E[Tr A^(2s)], its even-path share Z_e) by brute enumeration, in one
    pass; the odd-path share Z_o is their difference.

    Walks all n^(2s) closed sequences in odometer order: the walk-by-walk
    oracle for ``exact_trace_sums_patterns``.  Guarded so the enumeration
    stays below 1e8 sequences.  Raises ValueError when the finished sum is
    not finite.
    """
    _check_enumeration_size(n, s)
    walks = ((1, _edge_counts(vs).values()) for vs in _closed_sequences(n, 2 * s))
    return _weigh(dist, n, s, walks)


def _weigh(dist: EntryDistribution, n: int, s: int, walks) -> tuple[float, float]:
    """(sum, even-walk share) of moment product * labelings over the
    (labelings, edge multiplicities) pairs of ``walks`` of length 2s, over
    n**s.  E[x^k] is tabulated once, for k = 0..2s.

    Raises ValueError when the pair is not finite.
    """
    moments = [moment(dist, k) for k in range(2 * s + 1)]
    total = 0.0
    even = 0.0
    for ways, multiplicities in walks:
        w, all_even = _moment_product(moments, multiplicities)
        if w != 0.0:
            total += w * ways
            if all_even:
                even += w * ways
    scale = float(n) ** s
    total, even = total / scale, even / scale
    if not (math.isfinite(total) and math.isfinite(even)):
        raise ValueError(f"the float trace sum at s={s} overflows for this n and law")
    return total, even


def _check_walk_shape(n: int, s: int) -> None:
    if s < 1:
        raise ValueError("s must be at least 1")
    if n < 1:
        raise ValueError("n must be at least 1")


def _check_enumeration_size(n: int, s: int) -> None:
    _check_walk_shape(n, s)
    # n = 1 has one walk, 2s steps long: count it as 2**(2s).  For m >= 2, m**(2s)
    # exceeds the guard once 2s reaches its bit length, so no huge power is built
    m = max(n, 2)
    if 2 * s >= ENUMERATION_GUARD.bit_length() or m ** (2 * s) > ENUMERATION_GUARD:
        raise PathSizeError(f"{m}**{2 * s} exceeds the enumeration guard {ENUMERATION_GUARD}")


def _check_class_count(n: int, s: int) -> int:
    """The number of relabeling classes a sweep of length 2s on n labels
    visits, unpruned; PathSizeError when it exceeds ENUMERATION_GUARD.

    The classes on at most m labels number R = sum of S(2s, v) over v <= m,
    with m = min(max(n, 2), 2s): n = 1 counts as 2, as the walk guard counts
    it.  For m >= 2, R >= S(2s, 1) + S(2s, 2) = 2**(2s-1), so a length past
    the guard's bit length is refused at once, and the Stirling recurrence
    runs over at most 27 rows.
    """
    _check_walk_shape(n, s)
    length = 2 * s
    m = min(max(n, 2), length)
    if length - 1 < ENUMERATION_GUARD.bit_length():
        row = [1] + [0] * m  # S(i, v) for v = 0..m, from i = 0
        for _ in range(length):
            row = [0] + [v * row[v] + row[v - 1] for v in range(1, m + 1)]
        count = sum(row)
        if count <= ENUMERATION_GUARD:
            return count
    raise PathSizeError(
        f"the relabeling-class count of {length}-step walks on {m} labels"
        f" exceeds the enumeration guard {ENUMERATION_GUARD}"
    )


def exact_trace_sums_patterns(dist: EntryDistribution, n: int, s: int) -> tuple[float, float]:
    """(E[Tr A^(2s)], its even-path share Z_e) via first-occurrence
    relabeling classes, in one pass.

    Two closed sequences that differ only by a vertex relabeling have the
    same weight, and a class with v distinct vertices has
    n * (n-1) * ... * (n-v+1) labeled members.  Enumerating one canonical
    representative per class makes the sum affordable for any n at small s.
    Refused, before enumerating, when the classes number more than
    ENUMERATION_GUARD (``_check_class_count``).

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
    _check_class_count(n, s)
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
    classes = _canonical_sequences(n, length, prune)
    return _weigh(dist, n, s, ((labelings[v], counts.values()) for _, v, counts in classes))


def exact_expected_trace_patterns(dist: EntryDistribution, n: int, s: int) -> float:
    """E[Tr A^(2s)] by relabeling classes."""
    return exact_trace_sums_patterns(dist, n, s)[0]


def random_closed_path(n: int, s: int, rng: np.random.Generator) -> ClosedPath:
    """A uniform random closed sequence of length 2s on [1..n]."""
    head = rng.integers(1, n + 1, size=2 * s)
    verts = tuple(int(v) for v in head) + (int(head[0]),)
    return ClosedPath(vertices=verts, n=n)
