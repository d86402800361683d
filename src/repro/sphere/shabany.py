"""Shabany et al. enumeration (paper section 6.1 comparison point).

The enumeration proposed for K-best decoders by Shabany, Su and Gulak is
"superficially similar to Geosphere's two-dimensional zigzag" but lacks
the PAM-sub-constellation rule: every dequeued point proposes *both* its
vertical and its horizontal zigzag successors, deduplicated with a
seen-set.  The frontier can therefore hold several candidates per column
and computes more exact distances.

The paper's concrete claim — enumerating up to the third-smallest child
costs Geosphere 4 partial distance calculations and Shabany's method 5
(25% more) — is reproduced verbatim by the enumerator tests and the
ablation benchmark.

Proposals are deferred to the next request, exactly as in
:class:`~repro.sphere.zigzag.GeosphereEnumerator`, so the comparison
isolates the one rule the two schemes differ in.
"""

from __future__ import annotations

import heapq

from ..constellation.qam import QamConstellation
from .counters import ComplexityCounters
from .enumerator import AxisOrder, Candidate, build_axes
from .pruning import GeometricPruner

__all__ = ["ShabanyEnumerator"]


class ShabanyEnumerator:
    """Full 2-D frontier enumeration with seen-set deduplication."""

    __slots__ = ("_axis_i", "_axis_q", "_heap", "_seen", "_counters",
                 "_table", "_last")

    def __init__(self, constellation: QamConstellation, received: complex,
                 counters: ComplexityCounters,
                 pruner: GeometricPruner | None = None) -> None:
        self._open(*build_axes(constellation, received), counters,
                   pruner.bounds if pruner is not None else None)

    @classmethod
    def from_axes(cls, axis_i: AxisOrder, axis_q: AxisOrder,
                  counters: ComplexityCounters, bounds=None):
        """An enumerator over already-built axes — how the frontier
        engines' straggler drain opens a node (``bounds`` as in
        :attr:`GeometricPruner.bounds`)."""
        enumerator = cls.__new__(cls)
        enumerator._open(axis_i, axis_q, counters, bounds)
        return enumerator

    def _open(self, axis_i, axis_q, counters, bounds) -> None:
        self._axis_i = axis_i
        self._axis_q = axis_q
        self._heap: list[tuple[float, int, int]] = []
        self._seen: set[tuple[int, int]] = {(0, 0)}
        self._counters = counters
        self._table = bounds
        self._last: tuple[int, int] | None = None
        self._enqueue(0, 0)

    def _enqueue(self, i: int, j: int) -> None:
        distance = self._axis_i.residual_sq[i] + self._axis_q.residual_sq[j]
        self._counters.ped_calcs += 1
        heapq.heappush(self._heap, (distance, i, j))

    def _propose(self, i: int, j: int, budget_sq: float) -> None:
        if i >= self._axis_i.size or j >= self._axis_q.size:
            return
        if (i, j) in self._seen:
            return
        self._seen.add((i, j))
        if self._table is not None:
            bound = (self._table[self._axis_i.offsets[i]]
                     [self._axis_q.offsets[j]])
            if bound >= budget_sq:
                self._counters.geometric_prunes += 1
                return
        self._enqueue(i, j)

    def next_candidate(self, budget_sq: float) -> Candidate | None:
        if self._last is not None:
            i, j = self._last
            self._last = None
            # No sub-constellation test: both successors are proposed.
            self._propose(i, j + 1, budget_sq)
            self._propose(i + 1, j, budget_sq)
        heap = self._heap
        if not heap or heap[0][0] >= budget_sq:
            return None
        distance, i, j = heapq.heappop(heap)
        self._last = (i, j)
        return Candidate(self._axis_i.indices[i], self._axis_q.indices[j],
                         distance)

    @property
    def queue_length(self) -> int:
        """Current priority-queue occupancy (can exceed ``sqrt(|O|)``)."""
        return len(self._heap)
