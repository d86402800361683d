"""Uplink receive chain: frame-level MIMO detection, then undo the
transmit chain.

The front half (:func:`detect_uplink`) is frame-first: when the detector
exposes a ``detect_frame`` entry point, the *whole* ``(S, na, nc)``
channel tensor and ``(T, S, na)`` observation tensor go to the detector
in one call — for sphere decoders that is the frame engine
(:mod:`repro.frame.engine`), which preprocesses every subcarrier in one
stacked QR sweep and advances all S×T searches through a single
breadth-synchronised frontier, returning frame-level counter totals (no
per-subcarrier Python merge).  ``frame_strategy="per_subcarrier"`` keeps
the previous behaviour — one ``detect_batch`` call per subcarrier — as
the differential baseline; both strategies are bit-identical in results
and aggregated counters, and detectors without a frame entry point fall
back to the per-subcarrier loop automatically.  The back half turns the
resulting hard symbol indices per (OFDM symbol, subcarrier, stream) into
per-stream payloads and CRC verdicts.  Frame success is judged exactly
the way real link layers judge it — by the frame check sequence — never
by comparing against the transmitted bits.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

import numpy as np

from ..coding.crc import CRC_BITS, check_crc
from ..coding.interleaver import deinterleave
from ..coding.scrambler import descramble
from ..coding.viterbi import (
    viterbi_decode,
    viterbi_decode_soft,
    viterbi_decode_soft_batch,
)
from ..sphere.counters import ComplexityCounters
from ..utils.validation import require
from .config import PhyConfig

__all__ = ["FRAME_STRATEGIES", "StreamDecision", "UplinkDetection",
           "detect_uplink", "recover_stream", "recover_stream_soft",
           "recover_uplink", "recover_uplink_soft", "finish_stream",
           "stream_coded_bits", "stream_coded_reliabilities"]


@dataclass
class UplinkDetection:
    """Hard decisions and complexity tallies for one uplink frame.

    Attributes
    ----------
    symbol_indices:
        ``(T, S, nc)`` detected constellation indices — the tensor
        :func:`recover_uplink` consumes.
    counters:
        Complexity counters summed over every (subcarrier, OFDM symbol)
        detection when the detector tracks them, else ``None``.
    detections:
        Number of MIMO detections performed (``T * S``), the denominator
        of the paper's per-detection complexity metrics.
    """

    symbol_indices: np.ndarray
    counters: ComplexityCounters | None
    detections: int


FRAME_STRATEGIES = ("frame", "per_subcarrier")


def detect_uplink(channels, received, detector, noise_variance: float,
                  frame_strategy: str = "frame", *,
                  capacity: int | None = None,
                  drain_threshold: int | None = None,
                  tick_strategy: str | None = None) -> UplinkDetection:
    """Detect a whole uplink frame.

    ``channels`` is ``(S, na, nc)`` — one matrix per data subcarrier;
    ``received`` is ``(T, S, na)`` — the frequency-domain observations for
    ``T`` OFDM symbols.

    ``frame_strategy`` selects the dispatch:

    ``"frame"`` (default)
        Hand the whole frame to ``detector.detect_frame`` in one call.
        The sphere/K-best path then runs the frame engine — one stacked
        QR sweep, one frontier over all S×T searches, frame-level
        counter totals (so this path never pays S Python-level
        ``ComplexityCounters.merge`` calls) — and the linear/SIC paths
        apply stacked per-subcarrier filter banks.  Detectors without a
        ``detect_frame`` entry point silently take the loop below.
    ``"per_subcarrier"``
        The differential baseline: each subcarrier's block of ``T``
        vectors goes to ``detector.detect_batch`` separately, counters
        merged across subcarriers.

    ``capacity`` and ``drain_threshold`` are the frame-frontier knobs
    (lane-pool size and the straggler handoff point — by default
    ``min(capacity, S*T) // 6`` capped at ``DRAIN_THRESHOLD_CAP = 32``
    survivors, the cap measured best at frame scale); they only apply to
    the ``"frame"`` dispatch of detectors that run the depth-first frame
    frontier, so passing either with a detector that cannot honour it is
    an error rather than a silent no-op.  ``tick_strategy`` rides the
    same dispatch: ``"compiled"`` runs each frame-frontier search to
    completion through the Numba per-tick kernel
    (:mod:`repro.sphere.tick_kernel`), ``"numpy"`` keeps the lockstep
    array ticks.  Results are bit-identical for every knob setting —
    the knobs trade wall-clock only.

    Both strategies return bit-identical symbol decisions and aggregated
    counters (``tests/test_frame_engine.py`` and the
    ``tests/test_link_golden.py`` goldens enforce this).
    """
    require(frame_strategy in FRAME_STRATEGIES,
            f"unknown frame strategy {frame_strategy!r}; choose from "
            f"{FRAME_STRATEGIES}")
    matrices = np.asarray(channels, dtype=np.complex128)
    observations = np.asarray(received, dtype=np.complex128)
    require(matrices.ndim == 3, "channels must be (S, na, nc)")
    require(observations.ndim == 3, "received must be (T, S, na)")
    require(observations.shape[1] == matrices.shape[0],
            f"received has {observations.shape[1]} subcarriers, channels "
            f"have {matrices.shape[0]}")
    require(observations.shape[2] == matrices.shape[1],
            f"received has {observations.shape[2]} antennas, channels have "
            f"{matrices.shape[1]}")
    num_symbols, num_subcarriers = observations.shape[:2]
    num_streams = matrices.shape[2]

    engine_kwargs = {}
    if capacity is not None:
        engine_kwargs["capacity"] = capacity
    if drain_threshold is not None:
        engine_kwargs["drain_threshold"] = drain_threshold
    if tick_strategy is not None:
        engine_kwargs["tick_strategy"] = tick_strategy
    detect_frame = getattr(detector, "detect_frame", None)
    if frame_strategy == "frame" and detect_frame is not None:
        if engine_kwargs:
            parameters = inspect.signature(detect_frame).parameters
            require(all(name in parameters for name in engine_kwargs),
                    "capacity/drain_threshold/tick_strategy tune the "
                    "depth-first frame frontier; "
                    f"{type(detector).__name__}.detect_frame "
                    "does not run one")
        result = detect_frame(matrices, observations, noise_variance,
                              **engine_kwargs)
        return UplinkDetection(symbol_indices=result.symbol_indices,
                               counters=result.counters,
                               detections=num_symbols * num_subcarriers)
    require(not engine_kwargs,
            "capacity/drain_threshold/tick_strategy are frame-frontier "
            "knobs; they need frame_strategy='frame' and a detector with "
            "a frame entry point")

    indices = np.empty((num_symbols, num_subcarriers, num_streams),
                       dtype=np.int64)
    totals = ComplexityCounters()
    saw_counters = False
    for s in range(num_subcarriers):
        result = detector.detect_batch(matrices[s], observations[:, s, :],
                                       noise_variance)
        indices[:, s, :] = result.symbol_indices
        if result.counters is not None:
            totals.merge(result.counters)
            saw_counters = True
    return UplinkDetection(symbol_indices=indices,
                           counters=totals if saw_counters else None,
                           detections=num_symbols * num_subcarriers)


@dataclass
class StreamDecision:
    """Decoded payload and CRC verdict for one stream."""

    payload_bits: np.ndarray
    crc_ok: bool


def _strip_padding(deinterleaved: np.ndarray,
                   num_pad_bits: int) -> np.ndarray:
    """Drop the tail padding the transmitter added, with bounds checked.

    ``deinterleaved[:-num_pad_bits]`` with ``num_pad_bits >=
    deinterleaved.size`` silently returns an empty (or, negative,
    re-sliced) array that only fails later with a confusing Viterbi
    length error — so the bound is enforced here, where the mistake is
    made.
    """
    require(0 <= num_pad_bits < deinterleaved.size,
            f"num_pad_bits must be in [0, {deinterleaved.size}) — the "
            f"deinterleaved block holds {deinterleaved.size} bits, got "
            f"{num_pad_bits} pad bits")
    if num_pad_bits:
        return deinterleaved[:-num_pad_bits]
    return deinterleaved


def stream_coded_bits(symbol_indices, num_pad_bits: int,
                      config: PhyConfig) -> np.ndarray:
    """Undo the bit-level transmit chain front half for one stream:
    detected indices -> Gray bits -> deinterleave -> strip padding.

    The result is the (possibly corrupted) coded block the trellis
    consumes — shared by :func:`recover_stream` and the runtime's
    frame-batched decode stage so both feed the Viterbi sweep identical
    inputs.
    """
    indices = np.asarray(symbol_indices).reshape(-1)
    bits = config.constellation.indices_to_bits(indices)
    n_cbps = config.coded_bits_per_ofdm_symbol
    require(bits.size % n_cbps == 0,
            f"detected bit count {bits.size} is not a whole number of OFDM "
            "symbols")
    deinterleaved = deinterleave(bits, n_cbps, config.bits_per_symbol)
    return _strip_padding(deinterleaved, num_pad_bits)


def stream_coded_reliabilities(reliabilities, num_pad_bits: int,
                               config: PhyConfig) -> np.ndarray:
    """Soft twin of :func:`stream_coded_bits`: per-coded-bit LLRs ->
    deinterleave -> strip padding, ready for the soft trellis."""
    values = np.asarray(reliabilities, dtype=np.float64).reshape(-1)
    n_cbps = config.coded_bits_per_ofdm_symbol
    require(values.size % n_cbps == 0,
            f"reliability count {values.size} is not a whole number of OFDM "
            "symbols")
    deinterleaved = deinterleave(values, n_cbps, config.bits_per_symbol)
    return _strip_padding(deinterleaved, num_pad_bits)


def finish_stream(framed_bits: np.ndarray) -> StreamDecision:
    """Back half of stream recovery: descramble the decoded frame and
    judge it by its CRC — shared by the scalar recover paths and the
    runtime decode stage."""
    descrambled = descramble(framed_bits)
    require(descrambled.size >= CRC_BITS + 1, "frame too short for a CRC")
    payload = descrambled[:-CRC_BITS]
    return StreamDecision(payload_bits=payload, crc_ok=check_crc(descrambled))


def recover_stream(symbol_indices, num_pad_bits: int,
                   config: PhyConfig) -> StreamDecision:
    """Decode one stream's detected symbol indices back to a payload."""
    deinterleaved = stream_coded_bits(symbol_indices, num_pad_bits, config)
    if config.code is not None:
        framed = viterbi_decode(deinterleaved, config.code)
    else:
        framed = deinterleaved
    return finish_stream(framed)


def recover_stream_soft(reliabilities, num_pad_bits: int,
                        config: PhyConfig) -> StreamDecision:
    """Decode one stream from per-coded-bit reliabilities (soft decisions).

    ``reliabilities`` follow the convention of
    :mod:`repro.coding.viterbi`: positive values favour bit 0.  This is
    the receive path for soft demapping (see :mod:`repro.detect.llr`),
    the infrastructure behind the paper's future-work direction of
    soft-output detection.  Requires a coded configuration.
    """
    require(config.code is not None,
            "soft decoding requires a convolutional code in the config")
    deinterleaved = stream_coded_reliabilities(reliabilities, num_pad_bits,
                                               config)
    framed = viterbi_decode_soft(deinterleaved, config.code)
    return finish_stream(framed)


def recover_uplink(detected_indices, num_pad_bits: int,
                   config: PhyConfig) -> list[StreamDecision]:
    """Decode every stream of an uplink frame.

    ``detected_indices`` has shape ``(num_ofdm_symbols, num_subcarriers,
    num_clients)`` matching
    :attr:`repro.phy.transmitter.UplinkFrame.symbol_tensor`.
    """
    tensor = np.asarray(detected_indices)
    require(tensor.ndim == 3,
            "detected indices must be (symbols, subcarriers, clients)")
    coded = [stream_coded_bits(tensor[:, :, client], num_pad_bits, config)
             for client in range(tensor.shape[2])]
    if config.code is None:
        return [finish_stream(bits) for bits in coded]
    # Hard decisions enter the trellis as +-1 reliabilities, exactly as
    # viterbi_decode maps them.
    return _decode_streams([1.0 - 2.0 * bits.astype(np.float64)
                            for bits in coded], config)


def recover_uplink_soft(llrs, num_pad_bits: int,
                        config: PhyConfig) -> list[StreamDecision]:
    """Decode every stream of an uplink frame from per-bit LLRs.

    The soft twin of :func:`recover_uplink`: ``llrs`` has shape
    ``(num_ofdm_symbols, num_subcarriers, num_clients * bits_per_symbol)``
    matching :attr:`repro.frame.results.SoftFrameResult.llrs` — stream
    ``c``'s reliabilities occupy the ``[c*Q, (c+1)*Q)`` slice of the last
    axis at every (symbol, subcarrier) slot.
    """
    tensor = np.asarray(llrs, dtype=np.float64)
    require(tensor.ndim == 3,
            "LLRs must be (symbols, subcarriers, clients * bits_per_symbol)")
    bits_per_symbol = config.bits_per_symbol
    require(tensor.shape[2] % bits_per_symbol == 0,
            f"LLR depth {tensor.shape[2]} is not a multiple of "
            f"bits_per_symbol {bits_per_symbol}")
    require(config.code is not None,
            "soft decoding requires a convolutional code in the config")
    num_clients = tensor.shape[2] // bits_per_symbol
    return _decode_streams([stream_coded_reliabilities(
        tensor[:, :, client * bits_per_symbol:(client + 1) * bits_per_symbol],
        num_pad_bits, config) for client in range(num_clients)], config)


def _decode_streams(rows: list, config: PhyConfig) -> list[StreamDecision]:
    """Decode a frame's coded streams in ONE batched trellis sweep, then
    judge each by its CRC.

    Back half of :func:`recover_uplink` and :func:`recover_uplink_soft`:
    the same grouping :class:`~repro.runtime.decode.DecodeStage` applies
    across a tick's frames (every stream of one frame shares the code and
    the coded length), and bit-identical to decoding stream by stream.
    """
    if not rows:
        return []
    framed = viterbi_decode_soft_batch(np.stack(rows), config.code)
    return [finish_stream(block) for block in framed]
