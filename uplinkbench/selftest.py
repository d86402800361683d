"""Fast tests of the benchmark itself (not collected by the repo suite).

Run from the root of a checkout::

    PYTHONPATH=src python -m pytest uplinkbench/selftest.py -q

A few-frame smoke run of every workload, traced and untraced (in
process, with a small pool), one whole-round run through the command
line, the host-speed probe and scaling, plus one perturbed result per
check to show that each check can fail.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from uplinkbench import checks, hostspeed, inputs, workloads
from uplinkbench import run as bench_run

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _bench(*arguments, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "uplinkbench", "run.py"),
         *arguments], cwd=cwd, capture_output=True, text=True, timeout=300,
        check=False)


def _declared(kind: str) -> set[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {metric["name"] for metric in json.load(fh)[kind]}


def _check_result(result, trace, pool_size):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0 and result["attempted"] % pool_size == 0
    expected = _declared("per_layer" if trace else "end_to_end")
    assert set(result["metrics"]) == expected
    if not trace:
        assert all(entry["value"] > 0.0
                   for entry in result["metrics"].values())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run(workload, trace):
    result = bench_run.measure(workload, 3, 0.3, trace, pool_size=16)
    _check_result(result, trace, 16)


def test_command_line_run_prints_the_result_last():
    completed = _bench("--workload", "frame_oneshot", "--seed", "4",
                       "--seconds", "0.1", "--trace", "0")
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    _check_result(result, 0, workloads.POOL_FRAMES["frame_oneshot"])


def test_probe_clock_leaves_out_the_units():
    probe = hostspeed.HostProbe()
    before = probe.clock()
    probe.sample()
    probe.sample()
    assert probe.units == 2 and probe.speed() > 0.0
    assert probe.clock() - before < probe.unit_s


def test_reference_speed_scales_times_and_closed_loop_rates():
    values = {"setup_s": 1.0, "frames_per_s": 10.0, "goodput_kbps": 8.0,
              "latency_p50_ms": 20.0, "latency_p90_ms": 40.0,
              "cpu_ms_per_frame": 5.0, "peak_rss_mb": 70.0}
    closed = bench_run.at_reference_speed(values, 2.0, closed_loop=True)
    assert closed == {"setup_s": 2.0, "frames_per_s": 5.0,
                      "goodput_kbps": 4.0, "latency_p50_ms": 40.0,
                      "latency_p90_ms": 80.0, "cpu_ms_per_frame": 10.0,
                      "peak_rss_mb": 70.0}
    opened = bench_run.at_reference_speed(values, 2.0, closed_loop=False)
    assert opened["frames_per_s"] == 10.0 and opened["goodput_kbps"] == 8.0
    assert opened["latency_p50_ms"] == 40.0


def test_run_outside_a_checkout_fails(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "uplinkbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    completed = _bench("--workload", "stream_hard", "--seed", "1",
                       cwd=str(tmp_path))
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


@pytest.fixture(scope="module")
def decoded():
    """One decoded frame of each (kind, modulation) class."""
    generator = inputs.cell_workload(5, soft_fraction=0.5)
    frames = inputs.draw_frames(generator, [
        ("hard", 4), ("hard", 16), ("soft", 4), ("soft", 16)])
    return [(frame, workloads.decode_oneshot(frame)) for frame in frames]


def _first(decoded, kind):
    return next((frame, result) for frame, result in decoded
                if frame.kind == kind)


def test_answer_key_is_kept_out_of_the_request(decoded):
    for frame, _ in decoded:
        assert not set(inputs.ANSWER_KEYS) & set(frame.request.metadata)
        assert len(frame.payloads) == frame.request.channels.shape[2]


def test_inputs_digest_follows_the_seed():
    def digest(seed):
        generator = inputs.cell_workload(seed, soft_fraction=0.0)
        return inputs.inputs_digest(inputs.draw_frames(
            generator, [("hard", 4)] * 3))

    assert digest(1) == digest(1)
    assert digest(1) != digest(2)


def test_checks_pass_on_program_output(decoded):
    rng = np.random.default_rng(0)
    for frame, result in decoded:
        assert checks.check_ml(frame, result,
                               checks.sample_slots(rng, frame, 3)) == []
        faults, bits = checks.check_payloads(frame, result.decisions)
        assert faults == []
        assert bits == frame.payload_bits
        assert checks.check_identical(result,
                                      workloads.decode_oneshot(frame)) == []


def test_brute_force_ml_recovers_noiseless_vectors():
    points = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]) / np.sqrt(2)
    channel = np.array([[1.0, 0.3], [0.2j, 0.9], [0.1, 0.4 - 0.2j]])
    sent = np.array([[0, 3], [2, 1]])
    found, distances = checks.brute_force_ml(channel, points[sent] @ channel.T,
                                             points)
    assert np.array_equal(found, sent)
    assert np.allclose(distances, 0.0, atol=1e-12)


def test_flipped_index_fails_the_ml_check(decoded):
    frame, result = _first(decoded, "hard")
    (t, s), = slots = [(0, 5)]
    bad = dataclasses.replace(result,
                              symbol_indices=result.symbol_indices.copy())
    bad.symbol_indices[t, s, 0] = (bad.symbol_indices[t, s, 0] + 1) % frame.order
    assert checks.check_ml(frame, bad, slots)


def test_wrong_distance_fails_the_ml_check(decoded):
    frame, result = _first(decoded, "hard")
    bad = dataclasses.replace(result, distances_sq=result.distances_sq * 1.01)
    assert checks.check_ml(frame, bad, [(0, 7)])


def test_flipped_llr_sign_fails_the_ml_check(decoded):
    frame, result = _first(decoded, "soft")
    t, s = 1, 9
    bad = dataclasses.replace(result, llrs=result.llrs.copy())
    bit = int(np.flatnonzero(bad.llrs[t, s])[0])
    bad.llrs[t, s, bit] = -bad.llrs[t, s, bit]
    assert checks.check_ml(frame, bad, [(t, s)])


def test_wrong_payload_bit_fails_the_payload_check(decoded):
    frame, result = _first(decoded, "hard")
    decisions = list(result.decisions)
    assert decisions[0].crc_ok
    flipped = decisions[0].payload_bits.copy()
    flipped[3] ^= 1
    decisions[0] = dataclasses.replace(decisions[0], payload_bits=flipped)
    faults, bits = checks.check_payloads(frame, decisions)
    assert faults
    assert bits == frame.payload_bits - flipped.size


def test_changed_llr_fails_the_identity_check(decoded):
    frame, result = _first(decoded, "soft")
    bad = dataclasses.replace(result, llrs=result.llrs + 1e-12)
    assert checks.check_identical(bad, result)


def test_changed_repeat_fails_verification(decoded):
    frame, result = _first(decoded, "soft")
    bad = dataclasses.replace(result, llrs=result.llrs.copy())
    bad.llrs[0, 0, 0] = -bad.llrs[0, 0, 0]
    ledger = workloads._Ledger([frame])
    ledger.start()
    for position, offered in enumerate([result, result, bad]):
        ledger.add(position, 0.0, 1.0, "completed", offered)
    failed, faults, _ = bench_run.verify("frame_oneshot", ledger.timed(), 0)
    assert failed == 1
    assert faults[0].startswith("frame 2:")
