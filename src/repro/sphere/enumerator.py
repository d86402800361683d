"""Shared machinery for Schnorr–Euchner child enumeration.

All enumerators answer one question for a tree node: *which constellation
point should the search try next, in non-decreasing distance from the
received point* ``y~_l``?  They differ — and this difference is the core
of the paper — in how much computation answering costs.

Every enumerator works in *position space*: the two PAM axes of the
constellation are re-ordered by their 1-D zigzag sequences around the
sliced coordinate, so position ``(i, j)`` denotes the i-th closest column
and j-th closest row.  Distances are then separable
(``dist^2(i, j) = dI^2[i] + dQ^2[j]``) and both axes are non-decreasing in
their position index, which is what makes frontier-based enumeration
correct.
"""

from __future__ import annotations

from typing import NamedTuple, Protocol

import numpy as np

from ..constellation.pam import slice_to_index, zigzag_indices
from ..constellation.qam import QamConstellation
from .batch import zigzag_order_table
from .counters import ComplexityCounters

__all__ = ["Candidate", "NodeEnumerator", "AxisOrder", "PamAxis", "build_axes",
           "pam_axis", "reference_axis"]


class Candidate(NamedTuple):
    """One enumerated constellation point.

    ``dist_sq`` is the squared Euclidean distance from the node's received
    point in constellation units (i.e. before the ``|r_ll|^2`` scaling that
    turns it into a branch cost).  A named tuple, so the search loop can
    unpack it as cheaply as it builds it.
    """

    col: int
    row: int
    dist_sq: float


class NodeEnumerator(Protocol):
    """Protocol every child enumerator implements."""

    def next_candidate(self, budget_sq: float) -> Candidate | None:
        """Return the next-closest unexplored point with
        ``dist_sq < budget_sq``, or ``None`` when no such point exists.

        ``budget_sq`` is the sphere constraint mapped into constellation
        units at this node: ``(r^2 - d(parent)) / |r_ll|^2``.  It can only
        shrink between calls (the radius tightens as leaves are found), so
        ``None`` is a final answer.
        """


class AxisOrder:
    """One PAM axis of a node, ordered by the 1-D zigzag around the slice.

    Held as plain Python sequences: the scalar search reads one element
    at a time, and Python scalars cost a fraction of numpy scalar
    indexing there.  Two constructions produce it — the textbook
    :func:`reference_axis` behind the scalar decoders, and the tabled
    :class:`PamAxis` behind the frontier engines' straggler drain — so
    the differential sweeps, which compare the two paths, also check
    the one against the other.

    Attributes
    ----------
    indices:
        Level indices in zigzag (non-decreasing distance) order.
    residual_sq:
        ``(levels[indices[p]] - coordinate)^2`` for each position ``p``.
    offsets:
        ``|indices[p] - start|`` — the lattice offsets feeding the
        geometric-pruning table.  Non-decreasing in ``p``.
    """

    __slots__ = ("indices", "residual_sq", "offsets", "size")

    def __init__(self, indices: tuple, residual_sq: list,
                 offsets: tuple) -> None:
        self.indices = indices
        self.residual_sq = residual_sq
        self.offsets = offsets
        self.size = len(indices)


class PamAxis:
    """Slicing constants and zigzag walks of one PAM level set.

    Everything about a node's axis that does not depend on its received
    coordinate is tabled here once: the slicing scale, and per ``(start,
    prefer_positive)`` the zigzag level indices, their pruning offsets
    and the levels in walk order (taken from
    :func:`~repro.sphere.batch.zigzag_order_table`, so the walk is the
    generator's by construction).  :meth:`order` is then pure Python
    scalar arithmetic, bit-identical to
    :func:`~repro.sphere.batch.batched_axis_orders`: the same slice
    (``round`` is round-half-even like ``np.rint``, and clipping before
    rounding an already integral bound equals clipping after), the same
    preferred direction, and residuals ``(level - c) * (level - c)``
    with the same IEEE operations.
    """

    __slots__ = ("levels", "scale", "top", "walks")

    def __init__(self, levels: np.ndarray) -> None:
        side = int(levels.shape[0])
        self.levels = levels.tolist()
        self.scale = float(levels[1] - levels[0]) / 2.0 if side > 1 else 1.0
        self.top = side - 1
        table = zigzag_order_table(side)
        self.walks = tuple(
            tuple(self._walk(table[start, prefer].tolist(), start)
                  for prefer in (0, 1))
            for start in range(side))

    def _walk(self, indices: list, start: int) -> tuple:
        return (tuple(indices), tuple(abs(index - start) for index in indices),
                tuple(self.levels[index] for index in indices))

    def order(self, coordinate: float) -> AxisOrder:
        """The zigzag-ordered axis around ``coordinate``."""
        top = self.top
        sliced = (coordinate / self.scale + top) / 2.0
        start = 0 if sliced <= 0.0 else top if sliced >= top else round(sliced)
        indices, offsets, walk = self.walks[start][
            coordinate >= self.levels[start]]
        return AxisOrder(indices, [(level - coordinate) * (level - coordinate)
                                   for level in walk], offsets)

    def restore(self, start: int, second: int,
                residual_sq: list) -> AxisOrder:
        """Rebuild an axis from kernel state: its first two walk indices
        (which fix the walk; at an edge both directions walk alike) and
        its residuals, already computed by the lockstep tick."""
        indices, offsets, _ = self.walks[start][second > start]
        return AxisOrder(indices, residual_sq, offsets)


_PAM_AXES: dict[bytes, PamAxis] = {}


def pam_axis(levels: np.ndarray) -> PamAxis:
    """The (cached) :class:`PamAxis` of a level set."""
    key = levels.tobytes()
    axis = _PAM_AXES.get(key)
    if axis is None:
        axis = _PAM_AXES[key] = PamAxis(levels)
    return axis


def reference_axis(coordinate: float, levels: np.ndarray) -> AxisOrder:
    """The textbook construction of a node's axis: slice the coordinate
    (:func:`~repro.constellation.pam.slice_to_index`), then walk
    :func:`~repro.constellation.pam.zigzag_indices` from the slice."""
    size = levels.shape[0]
    scale = float(levels[1] - levels[0]) / 2.0 if size > 1 else 1.0
    start = slice_to_index(coordinate, size, scale)
    prefer_positive = bool(coordinate >= levels[start])
    order = np.fromiter(zigzag_indices(start, size, prefer_positive),
                        dtype=np.int64, count=size)
    residuals = levels[order] - coordinate
    return AxisOrder(tuple(order.tolist()), (residuals * residuals).tolist(),
                     tuple(np.abs(order - start).tolist()))


def build_axes(constellation: QamConstellation,
               received: complex) -> tuple[AxisOrder, AxisOrder]:
    """Zigzag-ordered I and Q axes for a node's received point, by the
    reference construction (the scalar decoders' differential
    baseline)."""
    levels = constellation.levels
    return (reference_axis(received.real, levels),
            reference_axis(received.imag, levels))


def make_counters(counters: ComplexityCounters | None) -> ComplexityCounters:
    """Return ``counters`` or a fresh private tally."""
    return counters if counters is not None else ComplexityCounters()
