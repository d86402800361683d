"""Output checks made apart from the program.

* Hard searches are compared with a brute-force maximum-likelihood search
  that enumerates every candidate vector with numpy: the indices must
  match and the reported (triangular-domain) distance must equal
  ``||y - H s||^2`` minus the part of ``y`` outside the column space of
  ``H``, to float tolerance.
* Soft searches must pick the same ML vector, and every nonzero LLR must
  have the sign of the ML vector's bit (positive favours bit 0).
* Every stream whose CRC passes must carry exactly the transmitted
  payload.
* Two results of the same frame must be identical: indices, distances
  or LLRs, counters and decisions.  A service result is compared with an
  in-process ``decode_frame`` field by field; a pooled frame offered
  again in a later round is compared with its first offer by digest.

Each check returns a list of human-readable faults; empty means pass.
"""

from __future__ import annotations

import hashlib

import numpy as np

#: Slots per frame the brute-force ML search re-solves.
ML_SAMPLE_SLOTS = 2

_CANDIDATES: dict[tuple, np.ndarray] = {}


def _candidate_indices(order: int, num_streams: int) -> np.ndarray:
    """Every index vector of ``num_streams`` symbols, ``(order**n, n)``."""
    key = (order, num_streams)
    grid = _CANDIDATES.get(key)
    if grid is None:
        grid = np.indices((order,) * num_streams).reshape(num_streams, -1).T
        _CANDIDATES[key] = grid
    return grid


def brute_force_ml(channel, observations, points):
    """Exhaustive ML detection of ``observations`` ``(K, na)`` through
    ``channel`` ``(na, nc)``.  Returns the best index vectors ``(K, nc)``
    and the triangular-domain distances ``(K,)`` the sphere decoder
    reports (full distance minus the out-of-column-space energy)."""
    channel = np.asarray(channel, dtype=np.complex128)
    observations = np.asarray(observations, dtype=np.complex128)
    grid = _candidate_indices(len(points), channel.shape[1])
    images = np.asarray(points)[grid] @ channel.T          # (N, na)
    residual = observations[:, None, :] - images[None, :, :]
    distances = np.einsum("knr,knr->kn", residual.real, residual.real)
    distances += np.einsum("knr,knr->kn", residual.imag, residual.imag)
    best = distances.argmin(axis=1)
    q, _ = np.linalg.qr(channel)
    outside = observations - (observations @ q.conj()) @ q.T
    offset = np.sum(np.abs(outside) ** 2, axis=1)
    return grid[best], distances[np.arange(len(best)), best] - offset


def sample_slots(rng, frame, count: int = ML_SAMPLE_SLOTS):
    """A seeded sample of a frame's (symbol, subcarrier) search slots."""
    num_symbols, num_subcarriers = frame.request.received.shape[:2]
    flat = rng.choice(num_symbols * num_subcarriers,
                      size=min(count, num_symbols * num_subcarriers),
                      replace=False)
    return [divmod(int(slot), num_subcarriers) for slot in flat]


def check_ml(frame, result, slots) -> list[str]:
    """Brute-force ML agreement on the sampled slots (hard: indices and
    distances; soft: indices and the sign of every nonzero LLR)."""
    request = frame.request
    constellation = request.decoder.constellation
    faults = []
    for t, s in slots:
        ml_indices, ml_distance = brute_force_ml(
            request.channels[s], request.received[t, s][None, :],
            constellation.points)
        got = np.asarray(result.symbol_indices[t, s])
        if not np.array_equal(got, ml_indices[0]):
            faults.append(f"slot ({t},{s}): indices {got.tolist()} != ML "
                          f"{ml_indices[0].tolist()}")
            continue
        if frame.kind == "hard":
            distance = float(result.distances_sq[t, s])
            scale = 1.0 + float(np.sum(np.abs(request.received[t, s]) ** 2))
            if not abs(distance - ml_distance[0]) <= 1e-9 * scale:
                faults.append(f"slot ({t},{s}): distance {distance!r} != "
                              f"ML {float(ml_distance[0])!r}")
        else:
            bits = constellation.indices_to_bits(ml_indices[0])
            llrs = np.asarray(result.llrs[t, s])
            wrong = (llrs != 0.0) & ((llrs < 0.0) != (bits == 1))
            if wrong.any():
                faults.append(f"slot ({t},{s}): LLR signs disagree with ML "
                              f"bits at {np.flatnonzero(wrong).tolist()}")
    return faults


def check_payloads(frame, decisions) -> tuple[list[str], int]:
    """Every CRC-passing stream must carry the transmitted payload.
    Returns the faults and the payload bits delivered correctly."""
    if decisions is None or len(decisions) != len(frame.payloads):
        return [f"expected {len(frame.payloads)} stream decisions, got "
                f"{None if decisions is None else len(decisions)}"], 0
    faults = []
    good_bits = 0
    for stream, (decision, sent) in enumerate(zip(decisions, frame.payloads)):
        if not decision.crc_ok:
            continue
        if np.array_equal(np.asarray(decision.payload_bits), sent):
            good_bits += sent.size
        else:
            faults.append(f"stream {stream}: CRC passed on a payload that "
                          "differs from the transmitted one")
    return faults, good_bits


#: The result arrays two decodes of one frame must agree on.
RESULT_FIELDS = ("symbol_indices", "distances_sq", "llrs", "found")


def result_digest(result) -> bytes:
    """A digest of everything :func:`check_identical` compares, so a
    repeated offer can be checked against its first one after the timed
    part without keeping its result."""
    digest = hashlib.blake2b(digest_size=16)
    for field in RESULT_FIELDS:
        value = getattr(result, field, None)
        if value is None:
            digest.update(b"-")
        else:
            value = np.ascontiguousarray(value)
            digest.update(repr((field, value.dtype.str, value.shape)).encode())
            digest.update(value.tobytes())
    digest.update(repr(result.counters).encode())
    for decision in result.decisions or []:
        digest.update(b"+" if decision.crc_ok else b"-")
        digest.update(np.ascontiguousarray(decision.payload_bits).tobytes())
    return digest.digest()


def check_identical(result, reference) -> list[str]:
    """Two results of the same frame must agree bit for bit."""
    faults = []
    for field in RESULT_FIELDS:
        a = getattr(result, field, None)
        b = getattr(reference, field, None)
        if (a is None) != (b is None) or (
                a is not None and not np.array_equal(a, b)):
            faults.append(f"{field} differs from the reference decode")
    if result.counters != reference.counters:
        faults.append("complexity counters differ from the reference decode")
    mine = result.decisions or []
    theirs = reference.decisions or []
    if len(mine) != len(theirs) or any(
            a.crc_ok != b.crc_ok
            or not np.array_equal(a.payload_bits, b.payload_bits)
            for a, b in zip(mine, theirs)):
        faults.append("stream decisions differ from the reference decode")
    return faults
