"""ETH-SD enumeration: Hess et al. row-wise zigzag (paper section 5.3).

The paper's complexity baseline is the depth-first VLSI sphere decoder of
Burg et al. upgraded with the enumeration of Hess et al.: "splits the QAM
constellation into horizontal subconstellations, performs a
one-dimensional zigzag, and then compares Euclidean distances across all
subconstellations".

Concretely, on node entry the enumerator slices the in-phase coordinate
once per *row* and computes the exact distance of every row's best point —
``sqrt(|O|)`` partial-distance calculations up front.  Each subsequent
sibling request refills the consumed row with its next 1-D zigzag
candidate (one more calculation) and takes the minimum across rows.
Geosphere's advantage in Figs. 14-15 is precisely the up-front block of
``sqrt(|O|)`` calculations that this enumerator cannot avoid.
"""

from __future__ import annotations

import numpy as np

from ..constellation.qam import QamConstellation
from .counters import ComplexityCounters
from .enumerator import AxisOrder, Candidate, build_axes

__all__ = ["HessEnumerator"]


class HessEnumerator:
    """Row-parallel 1-D zigzag enumeration (no geometric pruning)."""

    __slots__ = ("_axis_i", "_axis_q", "_row_position", "_row_distance",
                 "_pending_refill", "_counters")

    def __init__(self, constellation: QamConstellation, received: complex,
                 counters: ComplexityCounters) -> None:
        # Both axes share the node's received point; every row uses the
        # same zigzag order over columns (they share the I coordinate).
        self._open(*build_axes(constellation, received), counters)

    @classmethod
    def from_axes(cls, axis_i: AxisOrder, axis_q: AxisOrder,
                  counters: ComplexityCounters, bounds=None):
        """An enumerator over already-built axes — how the frontier
        engines' straggler drain opens a node.  ``bounds`` keeps the
        signature uniform across enumerators; this one never prunes."""
        enumerator = cls.__new__(cls)
        enumerator._open(axis_i, axis_q, counters)
        return enumerator

    def _open(self, axis_i, axis_q, counters) -> None:
        self._axis_i = axis_i
        self._axis_q = axis_q
        self._counters = counters
        side = self._axis_q.size
        # Per-row pointer into the column zigzag order; -1 marks exhausted.
        self._row_position = np.zeros(side, dtype=np.int64)
        self._row_distance = np.empty(side, dtype=np.float64)
        for j in range(side):
            self._row_distance[j] = (self._axis_i.residual_sq[0]
                                     + self._axis_q.residual_sq[j])
        self._counters.ped_calcs += side
        self._pending_refill: int | None = None

    def _refill(self, j: int) -> None:
        position = self._row_position[j] + 1
        if position >= self._axis_i.size:
            self._row_position[j] = -1
            self._row_distance[j] = np.inf
            return
        self._row_position[j] = position
        self._row_distance[j] = (self._axis_i.residual_sq[position]
                                 + self._axis_q.residual_sq[j])
        self._counters.ped_calcs += 1

    def next_candidate(self, budget_sq: float) -> Candidate | None:
        if self._pending_refill is not None:
            self._refill(self._pending_refill)
            self._pending_refill = None
        j = int(np.argmin(self._row_distance))
        distance = float(self._row_distance[j])
        if not np.isfinite(distance) or distance >= budget_sq:
            return None
        self._pending_refill = j
        return Candidate(col=int(self._axis_i.indices[self._row_position[j]]),
                         row=int(self._axis_q.indices[j]),
                         dist_sq=distance)
