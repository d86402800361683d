"""Viterbi decoding (hard and soft decision), vectorised over states.

The decoder works on *reliabilities*: one float per coded bit, positive
when bit 0 is more likely.  Hard-decision decoding maps bit ``b`` to
reliability ``1 - 2b`` (so the branch cost counts Hamming mismatches);
soft decoding passes log-likelihood ratios straight through.  The
transition cost of expecting coded bit ``c`` against reliability ``r`` is
``max(0, r)`` when ``c = 1`` and ``max(0, -r)`` when ``c = 0`` — zero when
the observation agrees, ``|r|`` when it does not.

The scalar trellis sweep is a Python loop over time steps with numpy
inner operations over all ``2**(K-1)`` states.  The *batched* decoders
(:func:`viterbi_decode_batch` / :func:`viterbi_decode_soft_batch`) apply
the same batching move the detection engines use: one trellis loop
sweeps a stacked ``(num_blocks, coded_len)`` reliability matrix, metrics
and backpointers gain a leading block axis, and the traceback vectorises
across blocks.  A streaming receiver holds many equal-length coded
blocks at once (one per stream per in-flight frame), so the Python-level
per-step cost amortises over the whole batch.  Decisions are
**bit-identical** to the scalar sweep row by row — the elementwise
compare/select and the tiny ``(steps, outputs) @ (outputs, patterns)``
pattern-cost product are the same operations in the same order — and the
scalar path stays available behind ``strategy="scalar"`` as the
differential baseline (``tests/test_coding.py`` enforces the agreement).
"""

from __future__ import annotations

import numpy as np

from ..utils.validation import as_bit_array, require
from .convolutional import ConvolutionalCode

__all__ = ["VITERBI_STRATEGIES", "viterbi_decode", "viterbi_decode_batch",
           "viterbi_decode_soft", "viterbi_decode_soft_batch"]

#: Dispatch of the batched decoders: ``"batch"`` runs one trellis loop
#: over the whole block stack; ``"scalar"`` loops the scalar decoder over
#: rows — the differential baseline (bit-identical decisions).
VITERBI_STRATEGIES = ("batch", "scalar")


def _traceback(backpointers: np.ndarray, final_state: int) -> np.ndarray:
    num_steps, num_states = backpointers.shape
    half = num_states // 2
    survivor = backpointers.item
    states = [0] * num_steps
    state = final_state
    for step in range(num_steps - 1, -1, -1):
        # The surviving predecessor was recorded during the forward sweep.
        states[step] = state
        state = (state % half) * 2 + survivor(step, state)
    # The input bit that produced each visited state is its high bit.
    return (np.array(states) // half).astype(np.uint8)


#: Trellis tables per (constraint length, polynomials): they depend on the
#: code alone, and every decoded block of a frame uses the same code.
_TRELLIS_TABLES: dict[tuple, tuple] = {}


def _trellis_tables(code: ConvolutionalCode):
    """Predecessor indices and packed expected-output patterns (cached,
    read-only).

    Predecessors of state t: states ``2*(t % half)`` and ``2*(t % half) +
    1``, reached with input bit ``t // half`` (the packed-register
    convention).  The expected outputs of each transition pack into a
    pattern index so the branch costs of a whole block become a single
    gather.
    """
    key = (code.constraint_length, code.polynomials)
    tables = _TRELLIS_TABLES.get(key)
    if tables is None:
        tables = _TRELLIS_TABLES[key] = _build_trellis_tables(code)
    return tables


def _build_trellis_tables(code: ConvolutionalCode) -> tuple:
    num_states = code.num_states
    expected = code.trellis_outputs()           # (states, 2, outputs)
    half = num_states // 2
    targets = np.arange(num_states)
    pred0 = (targets % half) * 2
    pred1 = pred0 + 1
    input_bits = (targets // half).astype(np.int64)
    weights = 1 << np.arange(code.num_outputs)
    pattern_from0 = (expected[pred0, input_bits, :] * weights).sum(axis=1)
    pattern_from1 = (expected[pred1, input_bits, :] * weights).sum(axis=1)
    tables = (pred0, pred1, pattern_from0, pattern_from1)
    for table in tables:
        table.setflags(write=False)
    return tables


def _pattern_costs(steps: np.ndarray, outputs_per_step: int) -> np.ndarray:
    """Cost of every expected-output pattern at every step.

    ``cost(c, r) = max(0, r)`` if ``c == 1`` else ``max(0, -r)``;
    vectorised over the leading axes of ``steps`` (``(..., steps,
    outputs)`` in, ``(..., steps, patterns)`` out).
    """
    num_patterns = 1 << outputs_per_step
    pattern_bits = ((np.arange(num_patterns)[:, None]
                     >> np.arange(outputs_per_step)) & 1).astype(np.float64)
    positive = np.maximum(steps, 0.0)
    negative = np.maximum(-steps, 0.0)
    return positive @ pattern_bits.T + negative @ (1.0 - pattern_bits).T


def _decode_reliabilities(reliabilities: np.ndarray,
                          code: ConvolutionalCode) -> np.ndarray:
    outputs_per_step = code.num_outputs
    require(reliabilities.ndim == 1, "reliabilities must be 1-D")
    require(reliabilities.size % outputs_per_step == 0,
            f"coded length {reliabilities.size} is not a multiple of "
            f"{outputs_per_step}")
    num_steps = reliabilities.size // outputs_per_step
    require(num_steps > code.num_tail_bits,
            "coded block too short to contain any information bits")

    num_states = code.num_states
    pred0, pred1, pattern_from0, pattern_from1 = _trellis_tables(code)
    steps = reliabilities.reshape(num_steps, outputs_per_step)
    pattern_costs = _pattern_costs(steps, outputs_per_step)
    # Every step's branch costs in two gathers, ahead of the sweep.
    branch0 = pattern_costs[:, pattern_from0]
    branch1 = pattern_costs[:, pattern_from1]

    metrics = np.full(num_states, np.inf)
    metrics[0] = 0.0                            # encoder starts in state 0
    backpointers = np.empty((num_steps, num_states), dtype=np.uint8)

    for step in range(num_steps):
        candidate0 = metrics[pred0] + branch0[step]
        candidate1 = metrics[pred1] + branch1[step]
        take1 = candidate1 < candidate0
        metrics = np.where(take1, candidate1, candidate0)
        backpointers[step] = take1

    # Termination drives the encoder back to state 0.
    decisions = _traceback(backpointers, final_state=0)
    return decisions[: num_steps - code.num_tail_bits]


def _decode_reliabilities_batch(reliabilities: np.ndarray,
                                code: ConvolutionalCode) -> np.ndarray:
    """One trellis loop over a ``(num_blocks, coded_len)`` stack.

    Row for row the same adds, compares and selects as
    :func:`_decode_reliabilities` — the block axis only widens the
    elementwise operations — so decisions are bit-identical to the scalar
    sweep.
    """
    outputs_per_step = code.num_outputs
    require(reliabilities.ndim == 2,
            "batched reliabilities must be (num_blocks, coded_len)")
    num_blocks, coded_len = reliabilities.shape
    require(coded_len % outputs_per_step == 0,
            f"coded length {coded_len} is not a multiple of "
            f"{outputs_per_step}")
    num_steps = coded_len // outputs_per_step
    require(num_steps > code.num_tail_bits,
            "coded block too short to contain any information bits")

    half = code.num_states // 2
    _, _, pattern_from0, pattern_from1 = _trellis_tables(code)
    steps = reliabilities.reshape(num_blocks, num_steps, outputs_per_step)
    pattern_costs = _pattern_costs(steps, outputs_per_step)
    # Target state t = h * half + u has predecessors 2u and 2u + 1, so in
    # a (B, 2, half) layout of the targets both predecessor gathers are
    # broadcast views of the metrics as (B, half, 2) pairs — the same
    # adds as the scalar sweep's gathers, without the copies.  Branch
    # costs for every step are gathered once, ahead of the sweep.
    branch0 = pattern_costs[:, :, pattern_from0].reshape(
        num_blocks, num_steps, 2, half).transpose(1, 0, 2, 3)
    branch1 = pattern_costs[:, :, pattern_from1].reshape(
        num_blocks, num_steps, 2, half).transpose(1, 0, 2, 3)

    metrics = np.full((num_blocks, 2, half), np.inf)
    metrics[:, 0, 0] = 0.0                      # every encoder starts at 0
    backpointers = np.empty((num_steps, num_blocks, 2, half), dtype=bool)

    for step in range(num_steps):
        pairs = metrics.reshape(num_blocks, 1, half, 2)
        candidate0 = pairs[:, :, :, 0] + branch0[step]
        candidate1 = pairs[:, :, :, 1] + branch1[step]
        take1 = backpointers[step]
        np.less(candidate1, candidate0, out=take1)
        metrics = np.where(take1, candidate1, candidate0)

    # Each block walks its own survivor chain back from the terminated
    # state 0 — per block in Python, which beats a lockstep numpy walk
    # at the handful of blocks a frame or a tick holds.
    survivors = backpointers.reshape(num_steps, num_blocks, 2 * half)
    decisions = np.stack([_traceback(survivors[:, block], final_state=0)
                          for block in range(num_blocks)])
    return decisions[:, : num_steps - code.num_tail_bits]


def _require_finite(array: np.ndarray) -> None:
    """Reject non-finite reliabilities, naming the offending position.

    The soft demappers (:mod:`repro.detect.llr`,
    :mod:`repro.sphere.soft`) clamp LLRs to a finite range, so a
    non-finite value reaching the trellis means a broken producer — the
    error names where so the offender is findable.
    """
    finite = np.isfinite(array)
    if not finite.all():
        offender = np.unravel_index(int(np.flatnonzero(~finite)[0]),
                                    array.shape)
        where = int(offender[0]) if array.ndim == 1 else tuple(
            int(i) for i in offender)
        require(False, f"reliabilities must be finite; index {where} is "
                f"{array[offender]}")


def viterbi_decode(coded_bits, code: ConvolutionalCode) -> np.ndarray:
    """Hard-decision maximum-likelihood sequence decoding.

    ``coded_bits`` is the (possibly corrupted) interleaved coded stream
    including termination; returns the information bits.
    """
    bits = as_bit_array(coded_bits, "coded bits")
    reliabilities = 1.0 - 2.0 * bits.astype(np.float64)
    return _decode_reliabilities(reliabilities, code)


def viterbi_decode_soft(reliabilities, code: ConvolutionalCode) -> np.ndarray:
    """Soft-decision decoding from per-bit reliabilities (positive => 0)."""
    array = np.asarray(reliabilities, dtype=np.float64)
    _require_finite(array)
    return _decode_reliabilities(array, code)


def viterbi_decode_soft_batch(reliabilities, code: ConvolutionalCode,
                              strategy: str = "batch") -> np.ndarray:
    """Soft-decision decoding of a stacked ``(num_blocks, coded_len)``
    reliability matrix in one trellis sweep.

    Returns the ``(num_blocks, num_info_bits)`` information bits.
    ``strategy="batch"`` (default) runs the single batched trellis loop;
    ``strategy="scalar"`` loops :func:`viterbi_decode_soft` over rows —
    the differential baseline.  Decisions are bit-identical either way.
    """
    require(strategy in VITERBI_STRATEGIES,
            f"unknown Viterbi strategy {strategy!r}; choose from "
            f"{VITERBI_STRATEGIES}")
    array = np.asarray(reliabilities, dtype=np.float64)
    require(array.ndim == 2,
            "batched reliabilities must be (num_blocks, coded_len)")
    _require_finite(array)
    if array.shape[0] == 0:
        num_steps = array.shape[1] // code.num_outputs
        return np.empty((0, max(num_steps - code.num_tail_bits, 0)),
                        dtype=np.uint8)
    # A one-block stack gains nothing from the block axis: the scalar
    # sweep is the same float program with less indexing per step.
    if strategy == "scalar" or array.shape[0] == 1:
        return np.stack([_decode_reliabilities(row, code) for row in array])
    return _decode_reliabilities_batch(array, code)


def viterbi_decode_batch(coded_bits, code: ConvolutionalCode,
                         strategy: str = "batch") -> np.ndarray:
    """Hard-decision decoding of stacked ``(num_blocks, coded_len)``
    coded blocks in one trellis sweep (the batched twin of
    :func:`viterbi_decode`)."""
    array = np.asarray(coded_bits)
    require(array.ndim == 2,
            "batched coded bits must be (num_blocks, coded_len)")
    flat = as_bit_array(array.reshape(-1), "coded bits")
    reliabilities = 1.0 - 2.0 * flat.astype(np.float64)
    return viterbi_decode_soft_batch(
        reliabilities.reshape(array.shape), code, strategy)
