"""Seeded inputs for the uplink benchmark, with the answer key held apart.

Every workload draws coded cell traffic from :class:`repro.runtime.CellWorkload`
over a synthetic Rayleigh trace: 4 users per frame on a 4-antenna access
point (4x4 MIMO), 64 data subcarriers, 184 payload bits per stream, and
4- or 16-QAM picked per frame by SNR-threshold rate adaptation.  The
generator stores the transmitted payloads and symbol indices in each
request's metadata; this module takes them out before the request is
handed to the program, so the answer key never travels through the
runtime, the worker pipe or the service socket.  The checks read it from
:class:`BenchFrame` instead.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass

import numpy as np

from repro.phy.rate_adaptation import ThresholdRateAdapter
from repro.runtime import CellWorkload, QosClass, synthetic_cell_trace

ANTENNAS = 4
USERS_PER_FRAME = 4
CELL_USERS = 8
SUBCARRIERS = 64
PAYLOAD_BITS = 184
LIST_SIZE = 16
TRACE_LINKS = 32
SNR_SPAN_DB = (14.0, 27.0)
#: 16-QAM from 17 dB worst-user SNR, 4-QAM below; no 64-QAM, so the
#: brute-force ML check enumerates at most 16**4 candidate vectors.
RATE_THRESHOLDS_DB = {4: float("-inf"), 16: 17.0}
#: Priority classes of the open-loop cell, all without deadlines: no
#: frame may expire or degrade, so every result stays bit-exact.
PRIORITY_MIX = (
    QosClass("urgent", priority=0, deadline_s=None, weight=0.2),
    QosClass("interactive", priority=1, deadline_s=None, weight=0.3),
    QosClass("background", priority=2, deadline_s=None, weight=0.5),
)
ANSWER_KEYS = ("payloads", "sent_indices")
#: Seeds of the cell's channel trace and of the slot order of every pool
#: (see :func:`cell_workload` and :func:`class_sequence`).
TRACE_SEED = 17
CLASS_ORDER_SEED = 20140817


@dataclass
class BenchFrame:
    """One generated frame: the request the program sees, plus the
    answer key (transmitted payload bits and symbol indices per stream)
    that only the checks read."""

    request: object
    payloads: list
    sent_indices: np.ndarray
    kind: str
    order: int

    @property
    def payload_bits(self) -> int:
        return sum(int(np.asarray(p).size) for p in self.payloads)


def cell_workload(seed: int, *, soft_fraction: float,
                  priorities: bool = False) -> CellWorkload:
    """The traffic generator every workload draws from.  The cell's
    channel trace is part of the workload and the same for every seed;
    the seed draws the traffic over it: which link and users each frame
    uses, their SNRs, the payload bits and the noise."""
    trace = synthetic_cell_trace(
        num_links=TRACE_LINKS, num_subcarriers=SUBCARRIERS,
        num_ap_antennas=ANTENNAS, num_clients=USERS_PER_FRAME,
        rng=np.random.default_rng(TRACE_SEED))
    return CellWorkload(
        trace, num_users=CELL_USERS, group_size=USERS_PER_FRAME,
        adapter=ThresholdRateAdapter(RATE_THRESHOLDS_DB),
        snr_span_db=SNR_SPAN_DB, soft_fraction=soft_fraction,
        list_size=LIST_SIZE, coded=True, payload_bits=PAYLOAD_BITS,
        qos_mix=PRIORITY_MIX if priorities else None,
        rng=np.random.default_rng(np.random.SeedSequence([seed, 1])))


def next_frame(workload: CellWorkload) -> BenchFrame:
    """Draw one frame and split the answer key off its request."""
    request = workload.next_frame()
    metadata = dict(request.metadata)
    payloads = metadata.pop("payloads")
    sent = metadata.pop("sent_indices")
    return BenchFrame(
        request=dataclasses.replace(request, metadata=metadata),
        payloads=[np.asarray(p) for p in payloads],
        sent_indices=np.asarray(sent), kind=metadata["kind"],
        order=int(metadata["order"]))


def class_sequence(count: int, *, soft_share: float,
                   qam16_share: float) -> list[tuple[str, int]]:
    """The (kind, modulation) of every slot of a pool: exactly
    ``round(count * soft_share)`` soft slots and, within each kind,
    ``round(n * qam16_share)`` 16-QAM slots, in an order shuffled by a
    constant seed.  The sequence belongs to the workload, not to the
    run's seed: every seed decodes the same amount of each kind of work
    in the same order, and the seed changes what is transmitted."""
    soft = round(count * soft_share)
    slots = []
    for kind, total in (("soft", soft), ("hard", count - soft)):
        dense = round(total * qam16_share)
        slots += [(kind, 16)] * dense + [(kind, 4)] * (total - dense)
    order = np.random.default_rng(CLASS_ORDER_SEED).permutation(len(slots))
    return [slots[index] for index in order]


def draw_frames(workload: CellWorkload, classes) -> list[BenchFrame]:
    """One frame per entry of ``classes``: each slot takes the next
    generated frame of its (kind, modulation) class, so every frame keeps
    the modulation rate adaptation chose for it."""
    waiting: dict[tuple, list] = {}
    frames = []
    for wanted in classes:
        queue = waiting.setdefault(wanted, [])
        while not queue:
            frame = next_frame(workload)
            waiting.setdefault((frame.kind, frame.order), []).append(frame)
        frames.append(queue.pop(0))
    return frames


def inputs_digest(frames) -> str:
    """SHA-256 over every input the program receives and every answer
    the checks hold, so a transmit-side change that alters the inputs
    shows as a different digest for the same seed."""
    digest = hashlib.sha256()
    for frame in frames:
        request = frame.request
        digest.update(np.ascontiguousarray(request.channels).tobytes())
        digest.update(np.ascontiguousarray(request.received).tobytes())
        digest.update(repr((frame.kind, frame.order, request.noise_variance,
                            request.num_pad_bits, request.priority,
                            request.deadline_s)).encode())
        for payload in frame.payloads:
            digest.update(np.asarray(payload, dtype=np.uint8).tobytes())
        digest.update(np.asarray(frame.sent_indices,
                                 dtype=np.int64).tobytes())
    return digest.hexdigest()
