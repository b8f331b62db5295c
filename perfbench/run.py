"""Benchmark of reslat: the ``paper``, ``census`` and ``identities`` workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 30 --trace 0

Each round runs in a fresh single-threaded interpreter (``worker.py``), one
at a time, until ``--seconds`` is used up.  With ``--trace 0`` the last line
reports the end-to-end metrics (medians over the rounds); with ``--trace 1``
rounds alternate untraced and traced, and it reports the per-layer metrics
of the traced rounds and the tracing overhead.  Every result is checked
against pinned values; a mismatch, or results that differ between rounds,
counts as a failed operation.  ``--workload all`` runs every workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

from layers import PER_LAYER
from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
ROUND_TIMEOUT_S = 120  # a stuck last round still ends a 60 s run within 180 s


class BenchmarkError(Exception):
    pass


def run_round(workload: str, seed: int, trace: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--trace", str(int(trace))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload} round did not finish in {ROUND_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"{workload} round exited with {proc.returncode}:\n{proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["traced"] = trace
    return result


def run_rounds(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Rounds until the next one would overrun ``seconds``; with tracing,
    untraced and traced rounds alternate and both kinds run."""
    start = perf_counter()
    rounds: list[dict] = []
    longest = 0.0
    while True:
        t = perf_counter()
        rounds.append(run_round(workload, seed, trace and len(rounds) % 2 == 1))
        longest = max(longest, perf_counter() - t)
        if len(rounds) >= (2 if trace else 1) and perf_counter() - start + longest > seconds:
            return rounds


def summarize(rounds: list[dict], trace: bool) -> dict:
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    failed_ops = [op for r in rounds for op in r["failed_ops"]]
    attempted = sum(r["attempted"] for r in rounds)
    # every later round must reproduce the first round's results
    for r in rounds[1:]:
        attempted += 1
        if r["digest"] != rounds[0]["digest"]:
            failed_ops.append("traced round results differ" if r["traced"] else "round results differ")
    if trace:
        layer = {name: statistics.median(r["layers"][name] for r in traced) for name in PER_LAYER if name != "trace.overhead_s"}
        layer["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - statistics.median(r["wall_s"] for r in plain)
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": statistics.median(r[name] for r in plain), "unit": unit} for name, unit in END_TO_END.items()}
    measured = {k: statistics.median(r[k] for r in plain) for k in ("measured_wall_s", "measured_setup_s", "reference_s")}
    return {"correct": not failed_ops, "attempted": attempted, "failed": len(failed_ops), "metrics": metrics,
            "measured": measured, "rounds": len(plain), "traced_rounds": len(traced), "failed_ops": failed_ops}


def report_lines(workload: str, seed: int, summary: dict) -> list[str]:
    seed_note = "" if WORKLOADS[workload].uses_seed else " (ignored: inputs fixed by the paper)"
    lines = [f"{workload}: seed {seed}{seed_note}, {summary['rounds']} untraced and "
             f"{summary['traced_rounds']} traced rounds, medians"]
    for name, m in summary["metrics"].items():
        lines.append(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    for name, value in summary["measured"].items():
        lines.append(f"  {name:34s} {value:.6g} s (not rescaled)")
    lines.append(f"  {'fail_frac':34s} {summary['failed'] / summary['attempted']:.6g} "
                 f"({summary['failed']} of {summary['attempted']} operations)")
    lines.extend(f"  failed: {op}" for op in summary["failed_ops"])
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "reslat", "__init__.py")):
        print(f"error: no reslat sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = {}
    try:
        for name in names:
            summaries[name] = summarize(run_rounds(name, args.seed, args.seconds, bool(args.trace)), bool(args.trace))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, summary in summaries.items():
        print("\n".join(report_lines(name, args.seed, summary)))
    if len(names) == 1:
        metrics = summaries[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, s in summaries.items() for k, v in s["metrics"].items()}
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries.values()),
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
