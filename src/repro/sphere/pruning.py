"""Geometrical pruning (paper section 3.2, Fig. 7).

The received point ``o`` lies somewhere inside the decision cell of its
sliced (nearest) constellation point.  A candidate point offset from the
sliced point by ``dI`` columns and ``dQ`` rows therefore sits at least

    lb = sqrt( max(0, 2*dI - 1)^2 + max(0, 2*dQ - 1)^2 ) * half_spacing

away from ``o`` (paper Eq. 9, in the paper's two-unit lattice where
``half_spacing = 1``).  Because ``lb <= |o - s|`` always, pruning on ``lb``
never excludes the maximum-likelihood solution; it merely skips the exact
distance computation — "a fast table lookup indexed on |dI| and |dQ|".
"""

from __future__ import annotations

import numpy as np

from ..constellation.qam import QamConstellation

__all__ = ["GeometricPruner", "lower_bound_sq_table"]


def lower_bound_sq_table(side: int, scale: float) -> np.ndarray:
    """Precompute ``lb^2`` for every offset pair ``(dI, dQ)`` in ``[0, side)``.

    ``scale`` is half the lattice spacing, so in lattice units the bound is
    exactly the paper's Eq. 9.
    """
    offsets = np.arange(side, dtype=float)
    per_axis = np.maximum(0.0, 2.0 * offsets - 1.0) * scale
    return per_axis[:, None] ** 2 + per_axis[None, :] ** 2


class GeometricPruner:
    """Table-driven lower bound on branch costs for one constellation.

    One instance is shared by every node of every search over the same
    constellation; it is immutable and thread-safe.
    """

    def __init__(self, constellation: QamConstellation) -> None:
        self.constellation = constellation
        self._table = lower_bound_sq_table(constellation.side, constellation.scale)
        self._table.setflags(write=False)
        self._bounds = tuple(tuple(row) for row in self._table.tolist())

    @property
    def table(self) -> np.ndarray:
        """The ``(side, side)`` table of squared lower bounds."""
        return self._table

    @property
    def bounds(self) -> tuple:
        """The same table as nested tuples of Python floats — what the
        scalar enumerators index one entry at a time."""
        return self._bounds

    def lower_bound_sq(self, col_offset: int, row_offset: int) -> float:
        """Squared lower bound for a candidate at the given index offsets
        from the sliced point."""
        return float(self._table[col_offset, row_offset])

    def should_prune(self, col_offset: int, row_offset: int,
                     budget_sq: float) -> bool:
        """True when the candidate (and all candidates dominating it in
        offset) cannot lie within the remaining squared budget."""
        return bool(self._table[col_offset, row_offset] >= budget_sq)
