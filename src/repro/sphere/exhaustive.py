"""Textbook Schnorr–Euchner enumeration by full sort.

Computes the distance of *every* constellation point on node entry and
sorts — the "highly inefficient process" the paper's primer (section 2.3)
warns about, kept as a reference implementation: it trivially yields the
correct Schnorr–Euchner order, so the clever enumerators are tested
against it.
"""

from __future__ import annotations

import numpy as np

from ..constellation.qam import QamConstellation
from .counters import ComplexityCounters
from .enumerator import AxisOrder, Candidate, build_axes

__all__ = ["ExhaustiveEnumerator"]


class ExhaustiveEnumerator:
    """Compute-all-then-sort enumeration; ``|O|`` PED calcs per node."""

    __slots__ = ("_candidates", "_cursor")

    def __init__(self, constellation: QamConstellation, received: complex,
                 counters: ComplexityCounters) -> None:
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
        distances = (np.array(axis_i.residual_sq)[:, None]
                     + np.array(axis_q.residual_sq)[None, :])
        counters.ped_calcs += distances.size
        flat = distances.reshape(-1)
        # Stable ordering: distance first, then position indices, matching
        # the tie-breaking of the frontier enumerators.
        positions = np.argsort(flat, kind="stable")
        side = axis_q.size
        self._candidates = [
            Candidate(col=int(axis_i.indices[p // side]),
                      row=int(axis_q.indices[p % side]),
                      dist_sq=float(flat[p]))
            for p in positions
        ]
        self._cursor = 0

    def next_candidate(self, budget_sq: float) -> Candidate | None:
        if self._cursor >= len(self._candidates):
            return None
        candidate = self._candidates[self._cursor]
        if candidate.dist_sq >= budget_sq:
            return None
        self._cursor += 1
        return candidate
