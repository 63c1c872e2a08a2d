"""Trace-moment machinery for symmetric random matrices with skewed entries.

The package estimates and bounds E[Tr A^(2s)] for A = M/sqrt(n), M symmetric
with i.i.d. centered finite-support entries above the diagonal, and probes how
the top eigenvalue clusters at twice the entry standard deviation.  The
combinatorial core decomposes closed vertex walks by their odd-multiplicity
edges, reassembles the even remainder, bounds the number of ways the odd part
can be reinserted, and evaluates window functionals of nonnegative lattice
bridges that those bounds reduce to.

Import from the submodules: ``tml.ensemble``, ``tml.paths``, ``tml.gluing``,
``tml.dyck``, ``tml.spectral`` and ``tml.cli``.
"""

__version__ = "0.1.0"
