"""cknsym benchmark runner.

Usage (from the repository root)::

    python3 bench/run.py --workload refine4d --seed 1 --seconds 20 --trace 0

Workloads: refine4d, solve6d, ckpt4d_p3, algebra (see bench/README.md for
what each one stresses and which layer should move which metric).

Every pass runs in a fresh Python process (``bench/worker.py``) with BLAS
threads pinned, so each pass pays interpreter start, imports and the
package's own caches the way a ``cknsym solve`` user does.  Passes repeat
until ``--seconds`` would be exceeded, with at least two, so that every
output can be compared byte for byte with a rerun.  Metrics are medians over
passes.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, including the
tracing overhead.  Human-readable lines come first; the last line of stdout
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

from tracer import COUNTER_STATS, SPAN_NAMES, summarize  # noqa: E402  (stdlib only)

WORKLOADS = ("refine4d", "solve6d", "ckpt4d_p3", "algebra")
BLAS_THREADS = 1          # fixed, never above nproc; 1 vs 2 threads moves low digits
MIN_PASSES = 2            # a rerun to compare every output against
SETUP_SAMPLES = 6         # set-up is timed in at least this many fresh processes
RUN_DEADLINE_S = 170.0    # a whole run, set-up samples included, ends before this

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("pass_frac", "fraction", "higher"),
)


def per_layer_specs() -> list[tuple[str, str, str]]:
    specs = []
    for name in SPAN_NAMES:
        specs.append((f"{name}.calls", "count", "lower"))
        specs.append((f"{name}.self_s", "s", "lower"))
    for name, stat in COUNTER_STATS.items():
        specs.append((f"{name}.{stat}", "B" if stat == "bytes" else "count", "lower"))
    specs += [
        ("grid.diff_bytes", "B_computed", "lower"),
        ("variational.diffs_per_step", "1/step", "lower"),
        ("variational.iterations", "count", "lower"),
        ("variational.accept_ratio", "fraction", "higher"),
        ("variational.rel_residual", "1", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return specs


class BenchError(RuntimeError):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _spawn(args, pass_dir: str, traced: bool, setup_only: bool,
           deadline: float) -> tuple[dict, float]:
    """Run one worker; returns its result and its whole duration."""
    os.makedirs(pass_dir)
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--scale", args.scale, "--dir", pass_dir, "--trace", str(int(traced))]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=max(deadline - spawned, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"run exceeded {RUN_DEADLINE_S:.0f} s") from exc
    duration = time.monotonic() - spawned
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # CLOCK_MONOTONIC is system-wide, so the child's reading compares with ours
    result["setup_s"] = result["ready"] - spawned
    return result, duration


def measure(args, work: str) -> dict:
    passes, setups = [], []
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    longest = 0.0
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        result, duration = _spawn(args, os.path.join(work, f"pass{len(passes)}"),
                                  traced, setup_only=False, deadline=deadline)
        result["traced"] = traced
        passes.append(result)
        setups.append(result["setup_s"])
        longest = max(longest, duration)
        elapsed = time.monotonic() - started
        if len(passes) >= MIN_PASSES and elapsed + longest > args.seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        result, _ = _spawn(args, os.path.join(work, f"setup{len(setups)}"),
                           False, setup_only=True, deadline=deadline)
        setups.append(result["setup_s"])

    attempted, failed, failures = tally(passes)
    return {"passes": passes, "setups": setups, "attempted": attempted,
            "failed": failed, "failures": failures}


def tally(passes: list[dict]) -> tuple[int, int, list[str]]:
    """Count operations and failures; a rerun must match its first run byte for byte."""
    first: dict[str, str] = {}
    attempted = failed = 0
    failures: list[str] = []
    for i, res in enumerate(passes):
        for name, problems, digest in res["ops"]:
            first.setdefault(name, digest)
            if digest != first[name]:
                problems = problems + [f"output differs from the first pass ({digest} "
                                       f"vs {first[name]})"]
            attempted += 1
            if problems:
                failed += 1
                failures.append(f"pass {i}: {name}: {'; '.join(problems)}")
    return attempted, failed, failures


def end_to_end_metrics(m: dict) -> dict[str, float]:
    plain = [p for p in m["passes"] if not p["traced"]]
    return {
        "setup_s": statistics.median(m["setups"]),
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "pass_frac": 1.0 - m["failed"] / m["attempted"],
    }


def per_layer_metrics(m: dict, work: str) -> dict[str, float]:
    plain = [p for p in m["passes"] if not p["traced"]]
    traced = [p for p in m["passes"] if p["traced"]]
    rows = []
    for i, p in enumerate(m["passes"]):
        if not p["traced"]:
            continue
        row = summarize(os.path.join(work, f"pass{i}", "spans.json"))
        iters = p["iterations"]
        row["variational.iterations"] = iters
        row["variational.rel_residual"] = p["rel_residual"]
        row["variational.diffs_per_step"] = (
            row["grid.forward_diffs.calls"] / iters if iters else 0.0)
        quotients = row["variational.quotient.calls"]
        row["variational.accept_ratio"] = iters / quotients if quotients else 0.0
        rows.append(row)
    out = {name: statistics.median(r[name] for r in rows)
           for name, _, _ in per_layer_specs() if name != "trace.overhead_s"}
    out["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                               - statistics.median(p["wall_s"] for p in plain))
    return out


def environment(sample: dict) -> dict:
    return {"python": platform.python_version(), "numpy": sample["env"]["numpy"],
            "scipy": sample["env"]["scipy"], "openblas": sample["env"]["openblas"],
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="cknsym benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "mini"), default="full",
                    help="mini shrinks every workload, for the benchmark's self-tests")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cknsym", "__init__.py")):
        print(f"error: no cknsym sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    work = tempfile.mkdtemp(prefix=".bench_work_", dir=ROOT)
    try:
        m = measure(args, work)
        if args.trace:
            metrics = per_layer_metrics(m, work)
            specs = per_layer_specs()
        else:
            metrics = end_to_end_metrics(m)
            specs = END_TO_END
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload: {args.workload} seed: {args.seed} scale: {args.scale} "
          f"trace: {args.trace} passes: {len(m['passes'])} setups: {len(m['setups'])}")
    print("env: " + json.dumps(environment(m["passes"][0]), sort_keys=True))
    print("pass wall_s: " + " ".join(f"{p['wall_s']:.4f}{'t' if p['traced'] else ''}"
                                     for p in m["passes"]))
    print("setup_s samples: " + " ".join(f"{s:.4f}" for s in m["setups"]))
    for line in m["failures"]:
        print("failed: " + line)
    print(f"fail_frac: {m['failed'] / m['attempted']:.6g} "
          f"({m['failed']} of {m['attempted']} operations)")
    for name, unit, _ in specs:
        print(f"{name}: {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": m["failed"] == 0,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
