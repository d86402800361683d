"""Steadiness mode: run one workload N times and report the spread.

Run from the root of a checkout::

    python3 uplinkbench/steady.py --workload cell_open --runs 10 --seconds 30

Each run is a separate ``uplinkbench/run.py`` process with its own seed
(``--first-seed``, ``--first-seed + 1``, ...).  For every metric the
report gives the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the relative spread
``(q3 - q1) / median``, plus the failed share of attempted frames per
run, and the same spread of the figures as measured at the host's speed
(before ``run.py`` brings them to the reference speed), to show what the
normalisation takes out.  The bounds in ``BENCHMARK.json`` are set from
this report.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload: str, seed: int, seconds: float, trace: int
             ) -> tuple[dict, dict]:
    """One run's result line and the figures it printed at the host's
    speed (empty for a traced run)."""
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    completed = subprocess.run(command, cwd=os.path.dirname(HERE),
                               capture_output=True, text=True, timeout=600,
                               check=False)
    if completed.returncode != 0:
        raise RuntimeError(f"seed {seed} exited {completed.returncode}:\n"
                           f"{completed.stderr}")
    lines = completed.stdout.strip().splitlines()
    raw = {}
    for line in lines:
        if line.startswith("at the host's speed: "):
            raw = {name: {"value": float(value)} for name, value in (
                item.split("=") for item in line.split(": ", 1)[1].split())}
    return json.loads(lines[-1]), raw


def spread_report(metrics: list[dict]) -> dict:
    """Per metric of ``{name: {"value": ...}}`` dicts: median, quartiles
    and (q3 - q1) / median."""
    report = {}
    for name in metrics[0]:
        values = [entry[name]["value"] for entry in metrics]
        q1, median, q3 = statistics.quantiles(values, n=4)
        report[name] = {
            "unit": metrics[0][name].get("unit", ""),
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan"),
            "values": values,
        }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("need at least two runs for quartiles")

    results = []
    raws = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result, raw = run_once(args.workload, seed, args.seconds, args.trace)
        results.append(result)
        raws.append(raw)
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)
    shares = sorted({result["failed"] / result["attempted"]
                     for result in results})
    print(f"{args.workload}: {args.runs} runs of {args.seconds:g} s; "
          f"failed shares {shares}")
    print(f"{'metric':45s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s}")
    report = spread_report([result["metrics"] for result in results])
    raw_report = spread_report(raws) if all(raws) else {}
    for name, row in report.items():
        raw_spread = raw_report.get(name, {}).get("spread")
        print(f"{name:45s} {row['median']:12.4f} {row['q1']:12.4f} "
              f"{row['q3']:12.4f} {row['spread']:8.4f}  {row['unit']}"
              + ("" if raw_spread is None
                 else f"  (at the host's speed {raw_spread:.4f})"))
    print(json.dumps({"workload": args.workload, "runs": args.runs,
                      "seconds": args.seconds, "failed_shares": shares,
                      "metrics": report, "at_host_speed": raw_report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
