"""Geosphere's two-dimensional zigzag enumeration (paper section 3.1.1).

Implementation in position space (see :mod:`repro.sphere.enumerator`):
position ``(i, j)`` is the i-th closest column (vertical PAM
sub-constellation) and j-th closest row level.  The paper's rules map to a
*staircase frontier*:

* dequeuing ``(i, j)`` proposes the vertical successor ``(i, j+1)`` (the
  next-closest point in the same PAM sub-constellation);
* the horizontal zigzag step survives only from ``(i, 0)`` — for every
  other ``(i, j)`` the target column already holds (or held) a queued
  candidate, which is exactly the paper's "no other constellation point in
  zh's PAM subconstellation is in Q" test, so the step is skipped.

Consequently each column is entered at its sliced row and holds at most
one queued candidate, bounding the priority queue by ``sqrt(|O|)`` — the
invariant the paper highlights.

Laziness matters and is load-bearing: successors of a dequeued candidate
are proposed only when the *next* candidate is requested ("the algorithm
defers the Euclidean distance computation until as late as possible, often
by which time the sphere decoder has pruned the relevant subtree").  The
first child of a node therefore costs exactly one exact distance
computation, and a node whose subtree is pruned right after its first
child never pays for the siblings.

With a :class:`~repro.sphere.pruning.GeometricPruner` attached, a proposal
whose table lower bound already exceeds the sphere budget is dropped
*before* its exact distance is computed.  Both proposal chains are
offset-monotone and the budget only shrinks, so a dropped proposal also
drops its descendants safely.
"""

from __future__ import annotations

import heapq

from ..constellation.qam import QamConstellation
from .counters import ComplexityCounters
from .enumerator import AxisOrder, Candidate, build_axes
from .pruning import GeometricPruner

__all__ = ["GeosphereEnumerator"]


class GeosphereEnumerator:
    """Child enumerator implementing the paper's Fig. 5 algorithm."""

    __slots__ = ("_axis_i", "_axis_q", "_heap", "_counters", "_table", "_last")

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
        self._counters = counters
        self._table = bounds
        self._last: tuple[int, int] | None = None
        # Step 2 of the paper's algorithm: slice and enqueue the closest
        # point.  Its lower bound is zero, so it is never pruned.
        self._enqueue(0, 0)

    def _enqueue(self, i: int, j: int) -> None:
        distance = self._axis_i.residual_sq[i] + self._axis_q.residual_sq[j]
        self._counters.ped_calcs += 1
        heapq.heappush(self._heap, (distance, i, j))

    def _propose(self, i: int, j: int, budget_sq: float) -> None:
        if i >= self._axis_i.size or j >= self._axis_q.size:
            return
        if self._table is not None:
            bound = (self._table[self._axis_i.offsets[i]]
                     [self._axis_q.offsets[j]])
            if bound >= budget_sq:
                # Everything farther along this chain is dominated: larger
                # offsets, shrinking budget.  Drop without computing.
                self._counters.geometric_prunes += 1
                return
        self._enqueue(i, j)

    def next_candidate(self, budget_sq: float) -> Candidate | None:
        # Deferred step 3 of the paper's algorithm for the previously
        # explored point: zigzag vertically always, horizontally only when
        # it was the column's entry point.
        if self._last is not None:
            i, j = self._last
            self._last = None
            self._propose(i, j + 1, budget_sq)
            if j == 0:
                self._propose(i + 1, 0, budget_sq)
        heap = self._heap
        if not heap or heap[0][0] >= budget_sq:
            return None
        distance, i, j = heapq.heappop(heap)
        self._last = (i, j)
        return Candidate(self._axis_i.indices[i], self._axis_q.indices[j],
                         distance)

    @property
    def queue_length(self) -> int:
        """Current priority-queue occupancy (paper bound: <= sqrt(|O|))."""
        return len(self._heap)
