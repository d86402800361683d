"""The benchmark's three workloads, driven through the public API.

``stream_hard``
    Closed loop, hard frames only, offered to one in-process
    :class:`~repro.runtime.UplinkRuntime` as fast as its default
    in-flight budget admits them: the saturated regime.
``frame_oneshot``
    Closed loop, one frame at a time through ``decode_frame`` and then
    ``recover_uplink`` / ``recover_uplink_soft``; one fifth of the
    frames soft.
    No session, queue, pipelining or service.
``cell_open``
    Open loop: a fixed Poisson schedule at a fixed rate, a quarter of the
    frames soft, priority classes without deadlines, sent by one
    :class:`~repro.service.CellSiteClient` to a
    :class:`~repro.service.CellSiteServer` in front of a one-shard
    process :class:`~repro.service.DetectorFarm`.

Each workload object builds its system (:meth:`setup`), warms it up,
runs the timed part (:meth:`run`) and shuts it down (:meth:`teardown`).
The timed part returns one :class:`Outcome` per frame, stamped by the
benchmark's own clock, and samples the host's speed as it goes
(:mod:`uplinkbench.hostspeed`).
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.frame import engine as frame_engine
from repro.frame import preprocess
from repro.frame import soft_engine
from repro.phy import receiver
from repro.runtime import StreamingFrontier, UplinkRuntime
from repro.runtime import decode as runtime_decode
from repro.runtime import engine as runtime_engine
from repro.runtime import queue as runtime_queue
from repro.service import CellSiteClient, CellSiteServer, DetectorFarm
from repro.service import protocol
from repro.sphere import ListSphereDecoder, SphereDecoder
from uplinkbench import checks

#: Offered rate of the open-loop cell, frames per second.  About a
#: quarter of the rate a one-shard farm sustains on the same mix on the
#: reference box, so queueing is light and the latencies do not magnify
#: the host's speed swings (see README); fixed, never recalibrated per run.
OPEN_LOOP_RATE_HZ = 6.0
#: Seed of the open-loop arrival schedule (see :meth:`CellOpen.schedule`).
SCHEDULE_SEED = 1804057
#: How often the open-loop client polls while it has frames outstanding.
POLL_INTERVAL_S = 0.002
#: Least time to the next due frame for the open loop to time a probe
#: unit (about five units), so a unit never delays a submit.
PROBE_ROOM_S = 0.01
#: Distinct frames per round: every run offers its pool in whole rounds,
#: so every run decodes the same make-up of work.  A closed-loop round
#: takes about 10 s on the reference box; the open loop's takes 30 s.
POOL_FRAMES = {"stream_hard": 720, "frame_oneshot": 240, "cell_open": 180}
#: Frames that warm each system up before timing starts.
WARM_FRAMES = 8


@dataclass
class Outcome:
    """One frame offered in the timed part."""

    position: int            # offer order within the run
    frame: object            # the BenchFrame offered
    offered_at: float        # closed loop: offer time; open loop: due time
    returned_at: float
    resolution: str
    result: object           # kept for a frame's first offer only
    digest: bytes | None = None   # checks.result_digest of a completed result
    worker_latency_s: float | None = None


@dataclass
class Timed:
    """What the timed part of one run produced: the outcomes of whole
    rounds of the pool, and the wall and CPU clocks read when the run
    started and after its last frame came back."""

    pool: list
    outcomes: list
    started_at: float
    ended_at: float
    cpu_s: float
    first: dict              # pool slot -> result of the slot's first offer
    details: dict = field(default_factory=dict)
    speed: float = 1.0       # host speed over the run (HostProbe.speed)

    @property
    def rounds(self) -> int:
        return len(self.outcomes) // len(self.pool)

    def slot(self, outcome) -> int:
        return outcome.position % len(self.pool)


class _Ledger:
    """Collects outcomes during the timed part.  Every completed result
    is digested the same way; a frame's first result is kept for the
    full checks, and a later offer keeps only its digest, which
    ``verify`` compares with the first one after the timed part, so
    memory does not grow with the run."""

    def __init__(self, pool, clock=time.perf_counter,
                 cpu_clock=time.process_time) -> None:
        self.pool = pool
        self.outcomes: list[Outcome] = []
        self.first: dict[int, object] = {}
        self._clock = clock
        self._cpu_clock = cpu_clock
        self._started = (0.0, 0.0)

    def start(self) -> float:
        self._started = (self._clock(), self._cpu_clock())
        return self._started[0]

    def add(self, position, offered_at, returned_at, resolution, result,
            **extra) -> None:
        slot = position % len(self.pool)
        digest = None
        if resolution == "completed":
            digest = checks.result_digest(result)
            if slot in self.first:
                result = None
            else:
                self.first[slot] = result
        self.outcomes.append(Outcome(position, self.pool[slot], offered_at,
                                     returned_at, resolution, result,
                                     digest, **extra))

    def timed(self, details=None, probe=None) -> Timed:
        cpu_s = self._cpu_clock() - self._started[1]
        ended = max(outcome.returned_at for outcome in self.outcomes)
        return Timed(self.pool, self.outcomes, self._started[0], ended,
                     cpu_s, self.first, details or {},
                     probe.speed() if probe is not None else 1.0)


def decode_oneshot(frame):
    """The frame-at-a-time receive path: detect, then decode the bits."""
    request = frame.request
    decoder = request.decoder
    if frame.kind == "soft":
        result = decoder.decode_frame(request.channels, request.received,
                                      request.noise_variance)
        result.decisions = receiver.recover_uplink_soft(
            result.llrs, request.num_pad_bits, request.config)
    else:
        result = decoder.decode_frame(request.channels, request.received)
        result.decisions = receiver.recover_uplink(
            result.symbol_indices, request.num_pad_bits, request.config)
    return result


class _ByteCounter:
    """Stands in for ``pickle`` inside :mod:`repro.service.protocol` so
    the traced run counts the bytes the client puts on the socket for
    submits and reads back for polls (client thread only)."""

    HIGHEST_PROTOCOL = pickle.HIGHEST_PROTOCOL

    def __init__(self) -> None:
        self._thread = threading.get_ident()
        self._last_verb = None
        self.submit_bytes = 0
        self.result_bytes = 0

    def _counting(self) -> bool:
        return threading.get_ident() == self._thread

    def dumps(self, obj, protocol=None):
        data = pickle.dumps(obj, protocol=protocol)
        if self._counting():
            self._last_verb = obj[0]
            if obj[0] == "submit":
                self.submit_bytes += len(data)
        return data

    def loads(self, data):
        if self._counting() and self._last_verb == "poll":
            self.result_bytes += len(data)
        return pickle.loads(data)


def install_layer_spans(recorder) -> dict:
    """Wrap the calls into every layer at the names their callers look
    up.  Returns a dict of counters the wrappers fill in."""
    tallies = {"viterbi_rows": 0}

    def count_rows(args, _result):
        tallies["viterbi_rows"] += int(args[0].shape[0])

    wraps = [
        (runtime_queue, "triangularize_frame", "frame.preprocess.qr"),
        (runtime_queue, "rotate_frame", "frame.preprocess.qr"),
        (preprocess, "triangularize_frame", "frame.preprocess.qr"),
        (preprocess, "rotate_frame", "frame.preprocess.qr"),
        (UplinkRuntime, "submit", "runtime.session.submit"),
        (StreamingFrontier, "tick", "runtime.engine.tick"),
        (runtime_engine, "_drain_element", "sphere.drain"),
        (runtime_engine, "_drain_soft_element", "sphere.drain"),
        (frame_engine, "_drain_element", "sphere.drain"),
        (soft_engine, "_drain_soft_element", "sphere.drain"),
        (SphereDecoder, "decode_frame", "sphere.detect"),
        (ListSphereDecoder, "decode_frame", "sphere.soft.detect"),
        (receiver, "recover_uplink", "phy.receiver.recover"),
        (receiver, "recover_uplink_soft", "phy.receiver.recover"),
        (receiver, "check_crc", "coding.crc"),
        (CellSiteClient, "submit", "service.client.submit"),
        (CellSiteClient, "poll", "service.client.poll"),
    ]
    for owner, attr, name in wraps:
        recorder.wrap(owner, attr, name)
    recorder.wrap(runtime_decode, "viterbi_decode_soft_batch",
                  "runtime.decode.viterbi", observe=count_rows)
    tallies["bytes"] = _ByteCounter()
    recorder.replace(protocol, "pickle", tallies["bytes"])
    return tallies


def _proc_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_fields_kb(path: str, names) -> dict:
    values = {}
    with open(path, encoding="ascii") as handle:
        for line in handle:
            name, _, rest = line.partition(":")
            if name in names:
                values[name] = int(rest.split()[0])
    return values


def _proc_own_peak_rss_kb(pid: int) -> int:
    """The worker's peak resident set less the pages it still shares at
    the end of the run.  Those are mostly the copy-on-write pages it
    inherited from the benchmark process (numpy, repro, the inputs) and
    shared libraries, which the benchmark process's own peak counts
    already."""
    peak = _proc_fields_kb(f"/proc/{pid}/status", {"VmHWM"})["VmHWM"]
    shared = _proc_fields_kb(f"/proc/{pid}/smaps_rollup",
                             {"Shared_Clean", "Shared_Dirty"})
    return peak - sum(shared.values())


def _children() -> list[int]:
    return [child.pid for child in multiprocessing.active_children()]


def _closed_rounds(pool, seconds, probe):
    """Offer positions for a closed loop: whole rounds of the pool until
    ``seconds`` of the probe's clock have passed, sampling the host's
    speed between offers."""
    stop_at = probe.clock() + seconds
    position = 0
    while position % len(pool) or not position or probe.clock() < stop_at:
        probe.maybe_sample()
        yield position
        position += 1


class StreamHard:
    name = "stream_hard"
    soft_share = 0.0

    def setup(self, warm):
        runtime = UplinkRuntime()
        for frame in warm:
            runtime.submit(frame.request)
        runtime.drain()
        return runtime

    def run(self, runtime, pool, seconds, probe, recorder=None):
        stats = runtime.stats
        before = _runtime_snapshot(stats)
        clock = probe.clock
        ledger = _Ledger(pool, clock, probe.cpu_clock)
        pending = {}

        def collect(handles):
            now = clock()
            for handle in handles:
                position, offered_at = pending.pop(handle.frame_id)
                ledger.add(position, offered_at, now, handle.resolution,
                           handle.result() if handle.resolution
                           == "completed" else None)

        probe.sample()
        ledger.start()
        for position in _closed_rounds(pool, seconds, probe):
            if recorder is not None:
                recorder.frame = position
            offered_at = clock()
            handle = runtime.submit(pool[position % len(pool)].request)
            pending[handle.frame_id] = (position, offered_at)
            collect(runtime.poll(max_ticks=0))
        while pending:
            collect(runtime.poll())
        probe.sample()
        return ledger.timed({"runtime_before": before,
                             "runtime_after": _runtime_snapshot(stats),
                             "stats": stats}, probe)

    def teardown(self, _runtime) -> None:
        pass


class FrameOneshot:
    name = "frame_oneshot"
    soft_share = 0.2

    def setup(self, warm):
        for frame in warm:
            decode_oneshot(frame)
        return None

    def run(self, _context, pool, seconds, probe, recorder=None):
        clock = probe.clock
        ledger = _Ledger(pool, clock, probe.cpu_clock)
        probe.sample()
        ledger.start()
        for position in _closed_rounds(pool, seconds, probe):
            if recorder is not None:
                recorder.frame = position
            offered_at = clock()
            result = decode_oneshot(pool[position % len(pool)])
            ledger.add(position, offered_at, clock(), "completed", result)
        probe.sample()
        return ledger.timed(probe=probe)

    def teardown(self, _context) -> None:
        pass


@dataclass
class _Cell:
    farm: DetectorFarm
    server: CellSiteServer
    client: CellSiteClient


class CellOpen:
    name = "cell_open"
    soft_share = 0.25

    def setup(self, warm):
        farm = DetectorFarm(num_shards=1, backend="process")
        try:
            server = CellSiteServer(farm)
        except BaseException:
            farm.close()
            raise
        try:
            client = CellSiteClient(server.address)
        except BaseException:
            server.close()
            raise
        for frame in warm:
            client.submit(frame.request)
        client.drain()
        return _Cell(farm, server, client)

    @staticmethod
    def schedule(count: int) -> np.ndarray:
        """Due offsets (s) of one round of ``count`` Poisson arrivals at
        the fixed rate: a Poisson process conditioned on ``count``
        arrivals in ``count / rate`` seconds is ``count`` sorted uniform
        draws.  Like the pool's slot order, the schedule belongs to the
        workload and is the same for every run seed; rounds repeat it
        back to back."""
        rng = np.random.default_rng(SCHEDULE_SEED)
        return np.sort(rng.uniform(0.0, count / OPEN_LOOP_RATE_HZ, count))

    def run(self, cell, pool, offsets, seconds, probe, recorder=None):
        client = cell.client
        workers = _children()
        clock = time.perf_counter

        def cpu_s():
            return probe.cpu_clock() + sum(_proc_cpu_s(pid)
                                           for pid in workers)

        round_s = len(pool) / OPEN_LOOP_RATE_HZ
        rounds = max(1, math.ceil(seconds / round_s - 1e-9))
        total = rounds * len(pool)
        stats_before = client.stats() if recorder is not None else None
        ledger = _Ledger(pool, clock, cpu_s)
        pending = {}
        lags = []
        probe.sample()
        started = ledger.start()

        def due(position):
            index, slot = divmod(position, len(pool))
            return started + index * round_s + offsets[slot]

        position = 0
        while position < total or pending:
            now = clock()
            while position < total and now >= due(position):
                if recorder is not None:
                    recorder.frame = position
                submitted_at = clock()
                frame_id = client.submit(pool[position % len(pool)].request)
                lags.append(submitted_at - due(position))
                pending[frame_id] = position
                position += 1
                now = clock()
            if pending:
                payloads = client.poll()
                now = clock()
                for payload in payloads:
                    index = pending.pop(payload["frame_id"])
                    ledger.add(index, due(index), now, payload["resolution"],
                               payload["result"],
                               worker_latency_s=payload["latency_s"])
            wake = due(position) if position < total else float("inf")
            if pending:
                wake = min(wake, clock() + POLL_INTERVAL_S)
            elif wake - clock() >= PROBE_ROOM_S:
                # Idle: nothing outstanding, the next frame not yet due.
                probe.maybe_sample()
            delay = wake - clock()
            if 0.0 < delay < float("inf"):
                time.sleep(delay)
        probe.sample()
        timed = ledger.timed({"generator_lag_s": lags,
                              "farm_before": stats_before}, probe)
        timed.details["worker_peak_rss_kb"] = sum(
            _proc_own_peak_rss_kb(pid) for pid in workers)
        if recorder is not None:
            timed.details["farm_after"] = client.stats()
        return timed

    def teardown(self, cell) -> None:
        cell.client.close()
        cell.server.close()


def _runtime_snapshot(stats) -> dict:
    """The counters the per-layer figures difference, under the keys of
    ``RuntimeStats.summary()`` (which the open loop reads from the farm)."""
    return {"ticks": stats.ticks,
            "mean_lane_occupancy": stats.mean_lane_occupancy(),
            "tick_kernel_s": stats.tick_kernel_s}


WORKLOADS = {workload.name: workload
             for workload in (StreamHard(), FrameOneshot(), CellOpen())}
