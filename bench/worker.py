"""One benchmark pass in a fresh process.

Started by ``run.py``; not meant to be run by hand.  The process imports
``cknsym`` from the checkout's ``src/`` directory, builds the workload's
inputs, records the monotonic clock (set-up ends there), runs one timed pass,
checks the outputs and prints one JSON line with the results.  With
``--trace 1`` the pass runs under the layer tracer and the spans are written
to ``spans.json`` in the pass directory.  With ``--setup-only`` it stops
after set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _versions() -> dict[str, str]:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "openblas": f"{blas.get('name')} {blas.get('version')}"}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    import cknsym
    if os.path.dirname(os.path.abspath(cknsym.__file__)) != os.path.join(SRC, "cknsym"):
        raise SystemExit(f"cknsym imported from {cknsym.__file__}, not from {SRC}")
    import workloads  # imports cknsym.cli, which imports every cknsym module

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.setup(args.scale, args.seed, args.dir)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    start = time.perf_counter()
    outputs = workload.run(inputs)
    wall = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
        tracer.write(os.path.join(args.dir, "spans.json"))

    ops, stats = workload.check(inputs, outputs)
    print(json.dumps({
        "env": _versions(),
        "ready": ready, "wall_s": wall, "peak_rss_mb": peak_kb / 1024.0,
        "ops": [[op.name, op.problems, op.digest] for op in ops],
        "iterations": stats.iterations, "rel_residual": stats.rel_residual,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
