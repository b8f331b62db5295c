"""One round of one workload, in a fresh interpreter.

Prints one JSON line: set-up and wall time, both as measured and rescaled
to the reference speed (see ``reference.py``), peak RSS, the checked
operations and, with ``--trace 1``, the per-layer metrics.  ``run.py``
starts this with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from time import perf_counter

import layers
import reference
import spans
from workloads import WORKLOADS, import_reslat


def run_round(workload: str, seed: int, trace: bool) -> dict:
    w = WORKLOADS[workload]
    ref_before = reference.reference_s()
    t0 = perf_counter()
    modules = import_reslat()
    lattice = (modules["algebra"].meet_table, modules["algebra"].join_table)
    tracer = None
    if trace:
        tracer = spans.Tracer()
        spans.install(tracer, modules, layers.hooks(modules))
    inputs = w.build(modules, seed)
    t1 = perf_counter()
    outputs = w.run(modules, inputs)
    t2 = perf_counter()
    ref_s = (ref_before + reference.reference_s()) / 2
    scale = reference.NOMINAL_S / ref_s
    checks = w.check(inputs, outputs)
    result = {
        "setup_s": (t1 - t0) * scale,
        "wall_s": (t2 - t1) * scale,
        "measured_setup_s": t1 - t0,
        "measured_wall_s": t2 - t1,
        "reference_s": ref_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(checks),
        "failed_ops": [name for name, ok in checks if not ok],
        "digest": w.digest(outputs),
    }
    if tracer is not None:
        entries = sum(f.cache_info().currsize for f in lattice if hasattr(f, "cache_info"))
        result["layers"] = layers.layer_metrics(tracer, entries)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    print(json.dumps(run_round(args.workload, args.seed, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
