"""Uplink receiver benchmark: one run of one workload.

Run from the root of a checkout::

    python3 uplinkbench/run.py --workload stream_hard --seed 1 --seconds 30 --trace 0

The run generates the workload's inputs from ``--seed``, times the set-up
in fresh interpreters, sets the system up and warms it, measures for
``--seconds`` seconds, checks every output against computations made
apart from the program, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, timed ones at the reference host speed
(see ``uplinkbench/hostspeed.py``); ``--trace 1`` wraps the calls into each
layer, reports the per-layer metrics and writes the recorded spans to
``uplinkbench/results/``.  See ``uplinkbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS = os.path.join(ROOT, "uplinkbench", "results")
WORKLOAD_NAMES = ("stream_hard", "frame_oneshot", "cell_open")
#: Fresh-interpreter set-ups timed per run; setup_s is their median.
SETUP_PROBES = 3
#: Share of 16-QAM frames within each kind (the rest are 4-QAM).
QAM16_SHARE = 1.0 / 3.0

END_TO_END = (
    ("setup_s", "s"), ("frames_per_s", "1/s"), ("goodput_kbps", "kbit/s"),
    ("latency_p50_ms", "ms"), ("latency_p90_ms", "ms"),
    ("cpu_ms_per_frame", "ms"), ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("frame.preprocess.qr_ms_per_frame", "ms"),
    ("runtime.session.submit_ms_per_frame", "ms"),
    ("runtime.queue.wait_ms_p50", "ms"),
    ("runtime.engine.tick_ms_per_frame", "ms"),
    ("runtime.engine.kernel_ms_per_frame", "ms"),
    ("runtime.engine.ticks_per_frame", "count"),
    ("runtime.engine.lane_occupancy", "fraction"),
    ("sphere.drain_ms_per_frame", "ms"),
    ("sphere.drained_searches_per_frame", "count"),
    ("sphere.detect_ms_per_frame", "ms"),
    ("sphere.visited_nodes_per_frame", "count"),
    ("sphere.soft.detect_ms_per_frame", "ms"),
    ("sphere.soft.visited_nodes_per_frame", "count"),
    ("runtime.decode.viterbi_ms_per_frame", "ms"),
    ("runtime.decode.streams_per_sweep", "count"),
    ("phy.receiver.recover_ms_per_frame", "ms"),
    ("coding.crc_ms_per_frame", "ms"),
    ("runtime.stats.fps_error_frac", "fraction"),
    ("service.protocol.submit_bytes_per_frame", "B"),
    ("service.protocol.result_bytes_per_frame", "B"),
    ("service.client.submit_ms_p50", "ms"),
    ("service.client.poll_ms_p50", "ms"),
    ("service.client.polls_per_frame", "count"),
    ("service.overhead_ms_p50", "ms"),
    ("bench.generator_lag_ms_p90", "ms"),
    ("bench.trace_overhead_frac", "fraction"),
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def make_inputs(name: str, seed: int, pool_size: int | None = None,
                warm_only: bool = False):
    """Warm-up frames, the pool offered each round and (open loop) the
    round's due offsets."""
    import numpy as np

    from uplinkbench import inputs, workloads

    workload = workloads.WORKLOADS[name]
    generator = inputs.cell_workload(seed, soft_fraction=workload.soft_share,
                                     priorities=name == "cell_open")

    def draw(count):
        return inputs.draw_frames(generator, inputs.class_sequence(
            count, soft_share=workload.soft_share, qam16_share=QAM16_SHARE))

    warm = draw(workloads.WARM_FRAMES)
    if warm_only:
        return warm, [], None
    pool = draw(pool_size or workloads.POOL_FRAMES[name])
    offsets = None
    if name == "cell_open":
        offsets = workloads.CellOpen.schedule(len(pool))
    return warm, pool, offsets


def probe_setup(name: str, seed: int) -> int:
    """Child side of a set-up timing: import, build, warm up, say READY.
    Input generation is timed and reported so the parent can exclude it."""
    from uplinkbench import workloads

    started = time.perf_counter()
    warm, _, _ = make_inputs(name, seed, warm_only=True)
    generation_s = time.perf_counter() - started
    workload = workloads.WORKLOADS[name]
    context = workload.setup(warm)
    print(f"READY {generation_s!r}", flush=True)
    workload.teardown(context)
    return 0


def time_setup(name: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter until its system is
    built and warm, input generation excluded."""
    command = [sys.executable, os.path.abspath(__file__), "--probe-setup",
               "--workload", name, "--seed", str(seed)]
    started = time.perf_counter()
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as child:
        line = child.stdout.readline()
        ready = time.perf_counter()
        child.stdout.read()
        code = child.wait(timeout=120)
    if code != 0 or not line.startswith("READY "):
        raise RuntimeError(f"set-up probe failed (exit {code}): {line!r}")
    return ready - started - float(line.split()[1])


def verify(name: str, timed, seed: int):
    """Check every frame.  A frame's first offer gets the full checks;
    a later offer must have the first offer's result digest.  Returns
    the failed count, fault lines and the payload bits each frame
    delivered correctly (0 for a failed frame), by offer position."""
    import numpy as np

    from uplinkbench import checks, workloads

    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    first_faults: dict[int, list] = {}
    first_bits: dict[int, int] = {}
    first_digest: dict[int, bytes] = {}
    for slot in sorted(timed.first):
        frame, result = timed.pool[slot], timed.first[slot]
        problems = checks.check_ml(frame, result,
                                   checks.sample_slots(rng, frame))
        if name == "cell_open":
            problems += checks.check_identical(
                result, workloads.decode_oneshot(frame))
        payload_problems, first_bits[slot] = checks.check_payloads(
            frame, result.decisions)
        first_faults[slot] = problems + payload_problems
        first_digest[slot] = checks.result_digest(result)

    failed = 0
    faults = []
    good_bits = {}
    for outcome in sorted(timed.outcomes, key=lambda o: o.position):
        slot = outcome.position % len(timed.pool)
        if outcome.resolution != "completed":
            problems = [f"resolved {outcome.resolution!r}"]
        elif slot not in first_faults:
            problems = ["its first offer did not complete"]
        elif outcome.digest != first_digest[slot]:
            problems = ["result differs from its first offer's"]
        else:
            problems = first_faults[slot]
        if problems:
            failed += 1
            faults.append(f"frame {outcome.position}: {'; '.join(problems)}")
        good_bits[outcome.position] = 0 if problems else first_bits[slot]
    return failed, faults, good_bits


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def measured(timed, setup_s: float, good_bits) -> dict:
    """The end-to-end metrics over the whole timed span of the run, at
    the host's speed during the run."""
    span_s = timed.ended_at - timed.started_at
    outcomes = timed.outcomes
    latencies_ms = [(o.returned_at - o.offered_at) * 1e3 for o in outcomes]
    peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + timed.details.get("worker_peak_rss_kb", 0))
    return {
        "setup_s": setup_s,
        "frames_per_s": len(outcomes) / span_s,
        "goodput_kbps": sum(good_bits.values()) / span_s / 1e3,
        "latency_p50_ms": percentile(latencies_ms, 50),
        "latency_p90_ms": percentile(latencies_ms, 90),
        "cpu_ms_per_frame": timed.cpu_s * 1e3 / len(outcomes),
        "peak_rss_mb": peak_kb / 1024.0,
    }


def at_reference_speed(values: dict, speed: float, closed_loop: bool
                       ) -> dict:
    """``values`` as the reference box would read them: times multiplied
    by the run's host speed, memory unchanged, and rates divided by it in
    a closed loop.  The open loop's rates are set by its schedule, which
    runs on the wall clock, so they stay as measured."""
    rate = 1.0 / speed if closed_loop else 1.0
    scale = {"s": speed, "ms": speed, "1/s": rate, "kbit/s": rate,
             "MB": 1.0}
    units = dict(END_TO_END)
    return {name: value * scale[units[name]]
            for name, value in values.items()}


def per_layer(name: str, timed, recorder, tallies, measured_fps: float
              ) -> dict:
    """Per-layer numbers from the spans, the wrapper tallies, the
    runtime's own stats and the open-loop bookkeeping.  A layer that
    does not run on this workload reads 0."""
    values = {metric: 0.0 for metric, _ in PER_LAYER}
    outcomes = timed.outcomes
    frames = len(outcomes)
    totals = recorder.totals()

    def total_ms(span, field="total_s"):
        return totals.get(span, {}).get(field, 0.0) * 1e3

    def calls(span):
        return totals.get(span, {}).get("calls", 0)

    def visited(outcome):
        return timed.first[timed.slot(outcome)].counters.visited_nodes

    hard = [o for o in outcomes if o.frame.kind == "hard"]
    soft = [o for o in outcomes if o.frame.kind == "soft"]
    values["frame.preprocess.qr_ms_per_frame"] = (
        total_ms("frame.preprocess.qr") / frames)
    values["sphere.drain_ms_per_frame"] = total_ms("sphere.drain") / frames
    values["sphere.drained_searches_per_frame"] = (
        calls("sphere.drain") / frames)
    if hard:
        values["sphere.visited_nodes_per_frame"] = sum(
            visited(o) for o in hard) / len(hard)
        values["sphere.detect_ms_per_frame"] = (
            total_ms("sphere.detect") / len(hard))
    if soft:
        values["sphere.soft.visited_nodes_per_frame"] = sum(
            visited(o) for o in soft) / len(soft)
        values["sphere.soft.detect_ms_per_frame"] = (
            total_ms("sphere.soft.detect") / len(soft))
    values["phy.receiver.recover_ms_per_frame"] = (
        total_ms("phy.receiver.recover") / frames)
    values["coding.crc_ms_per_frame"] = total_ms("coding.crc") / frames
    values["runtime.decode.viterbi_ms_per_frame"] = (
        total_ms("runtime.decode.viterbi") / frames)
    if calls("runtime.decode.viterbi"):
        values["runtime.decode.streams_per_sweep"] = (
            tallies["viterbi_rows"] / calls("runtime.decode.viterbi"))

    details = timed.details
    if name == "stream_hard":
        before, after = details["runtime_before"], details["runtime_after"]
        stats = details["stats"]
        values["runtime.session.submit_ms_per_frame"] = (
            total_ms("runtime.session.submit", "self_s") / frames)
        values["runtime.engine.tick_ms_per_frame"] = (
            total_ms("runtime.engine.tick") / frames)
        _runtime_values(values, stats.stage_latency_percentiles(),
                        before, after, frames)
        values["runtime.stats.fps_error_frac"] = abs(
            stats.frames_per_second() / measured_fps - 1.0)
    if name == "cell_open":
        before, after = details["farm_before"], details["farm_after"]
        shard = after["per_shard"][0]
        _runtime_values(values, shard.get("stage_latency_percentiles_s", {}),
                        before, after, frames)
        values["runtime.engine.tick_ms_per_frame"] = (
            after["tick_duration_s"] - before["tick_duration_s"]) * 1e3 / frames
        counter = tallies["bytes"]
        values["service.protocol.submit_bytes_per_frame"] = (
            counter.submit_bytes / frames)
        values["service.protocol.result_bytes_per_frame"] = (
            counter.result_bytes / frames)
        values["service.client.submit_ms_p50"] = percentile(
            recorder.durations("service.client.submit"), 50) * 1e3
        values["service.client.poll_ms_p50"] = percentile(
            recorder.durations("service.client.poll"), 50) * 1e3
        values["service.client.polls_per_frame"] = (
            calls("service.client.poll") / frames)
        values["service.overhead_ms_p50"] = percentile(
            [(o.returned_at - o.offered_at - o.worker_latency_s) * 1e3
             for o in outcomes], 50)
        values["bench.generator_lag_ms_p90"] = percentile(
            details["generator_lag_s"], 90) * 1e3
    return values


def _runtime_values(values, stage_percentiles, before, after, frames):
    ticks = after["ticks"] - before["ticks"]
    values["runtime.queue.wait_ms_p50"] = (
        stage_percentiles.get("queue_wait", {}).get(50, 0.0) * 1e3)
    values["runtime.engine.ticks_per_frame"] = ticks / frames
    values["runtime.engine.kernel_ms_per_frame"] = (
        after["tick_kernel_s"] - before["tick_kernel_s"]) * 1e3 / frames
    if ticks:
        values["runtime.engine.lane_occupancy"] = (
            after["mean_lane_occupancy"] * after["ticks"]
            - before["mean_lane_occupancy"] * before["ticks"]) / ticks


def measure(name: str, seed: int, seconds: float, trace: int,
            pool_size: int | None = None) -> dict:
    """One run of workload ``name``: the result object the command
    prints last.  ``pool_size`` (frames per round) defaults to the
    workload's pool; only the benchmark's own tests lower it."""
    from uplinkbench import hostspeed, inputs, tracing, workloads

    workload = workloads.WORKLOADS[name]
    started = time.perf_counter()
    warm, pool, offsets = make_inputs(name, seed, pool_size)
    print(f"inputs: workload={name} seed={seed} "
          f"pool={len(pool)} warm={len(warm)} "
          f"sha256={inputs.inputs_digest(warm + pool)} "
          f"generated_in={time.perf_counter() - started:.2f}s")
    setup_s = None
    if not trace:
        samples = [time_setup(name, seed) for _ in range(SETUP_PROBES)]
        setup_s = statistics.median(samples)
        print("setup_s samples: " + " ".join(f"{s:.4f}" for s in samples))

    context = workload.setup(warm)
    probe = hostspeed.HostProbe()
    recorder = tallies = None
    try:
        if trace:
            recorder = tracing.SpanRecorder()
            tallies = workloads.install_layer_spans(recorder)
        try:
            if name == "cell_open":
                timed = workload.run(context, pool, offsets, seconds,
                                     probe, recorder)
            else:
                timed = workload.run(context, pool, seconds, probe,
                                     recorder)
        finally:
            if recorder is not None:
                recorder.uninstall()
    finally:
        workload.teardown(context)

    failed, faults, good_bits = verify(name, timed, seed)
    attempted = len(timed.outcomes)
    span_s = timed.ended_at - timed.started_at
    print(f"frames: attempted={attempted} failed={failed} "
          f"rounds={timed.rounds} span={span_s:.2f}s")
    print(f"host speed: {timed.speed:.4f} x reference "
          f"({probe.units} probe units, {probe.unit_s:.2f}s)")
    for fault in faults[:10]:
        print(f"FAILED {fault}", file=sys.stderr)

    if trace:
        values = per_layer(name, timed, recorder, tallies,
                           attempted / span_s)
        values["bench.trace_overhead_frac"] = (
            len(recorder.spans) * recorder.cost_per_span_s() / span_s)
        os.makedirs(RESULTS, exist_ok=True)
        path = os.path.join(RESULTS, f"spans-{name}-seed{seed}.jsonl")
        recorder.write(path)
        print(f"spans: {len(recorder.spans)} written to "
              f"{os.path.relpath(path, ROOT)}")
        units = dict(PER_LAYER)
    else:
        raw = measured(timed, setup_s, good_bits)
        print("at the host's speed: " + " ".join(
            f"{metric}={value:.4f}" for metric, value in raw.items()))
        values = at_reference_speed(raw, timed.speed,
                                    closed_loop=name != "cell_open")
        units = dict(END_TO_END)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": float(value), "unit": units[metric]}
                    for metric, value in values.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"uplinkbench: no src/repro under {ROOT}; run the benchmark "
              "from the root of a checkout of the repository",
              file=sys.stderr)
        return 2
    # A terminated run still shuts its farm down and reaps the worker.
    signal.signal(signal.SIGTERM,
                  lambda signum, _frame: sys.exit(128 + signum))
    # One BLAS thread per process: the open loop keeps at most the
    # generator/server process and one worker busy.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    if args.probe_setup:
        return probe_setup(args.workload, args.seed)
    print(json.dumps(measure(args.workload, args.seed, args.seconds,
                             args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
