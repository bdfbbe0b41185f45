"""rabizeta benchmark: end-to-end and per-layer metrics of three workloads.

    python3 perfbench/run.py                                  # every workload
    python3 perfbench/run.py --workload fk-crosscheck --seed 7 --seconds 30
    python3 perfbench/run.py --workload report --trace 1      # per-layer metrics

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  Each workload repeats whole passes
for about ``--seconds`` (at least two, so every pass can be checked to repeat
the first one's bits) and reports medians.  ``--trace 0`` prints the
end-to-end metrics of BENCHMARK.json, measured untraced; ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See NOTES.md for why each
workload exists and what the trace cannot see yet.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
DEFAULT_SEED = 20240915
WORKLOADS = ("zeta-limits", "fk-crosscheck", "report")
MIN_PASSES = 2
SETUP_LAUNCHES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS/OpenMP thread, which is at most nproc: the eigensolves that dominate
# zeta-limits ran no faster with two, and one thread keeps BLAS reductions in a
# fixed order.
BLAS_THREADS = 1


class Context:
    """Per-run state the workload passes need."""

    def __init__(self, seed: int, child_env: dict):
        self.seed = seed
        self.child_env = child_env
        self.workdir = WORKDIR
        self.pass_index = 0


def child_environment() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "RABIZETA_CACHE"}
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(env: dict) -> list[float]:
    """Seconds from launching a fresh interpreter until `import rabizeta` returns.

    Both clocks are CLOCK_MONOTONIC, which is shared by every process.
    """
    code = "import time, rabizeta; print(repr(time.monotonic()))"
    samples = []
    for _ in range(SETUP_LAUNCHES):
        start = time.monotonic()
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                             capture_output=True, text=True, check=True).stdout
        samples.append(float(out.strip().splitlines()[-1]) - start)
    return samples


def environment_line() -> str:
    import numpy as np
    import scipy

    def blas(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError, AttributeError):
            return "unknown"

    threads = " ".join(f"{v}={os.environ.get(v)}" for v in THREAD_VARS)
    return (f"env python {platform.python_version()} numpy {np.__version__} "
            f"scipy {scipy.__version__} openblas {blas(np)} (numpy) / {blas(scipy)} (scipy) "
            f"nproc {len(os.sched_getaffinity(0))} threads {threads}")


def run_passes(workload: str, ctx: Context, seconds: float, trace: bool):
    """Whole passes for about ``seconds``, at least ``MIN_PASSES``.

    Untraced runs start another pass while time is left.  Traced runs
    alternate untraced and traced passes, beginning and ending with an
    untraced one, and start another traced/untraced pair only if it is
    expected to end within ``seconds``.
    """
    from tracer import Tracer, layer_metrics
    from workloads import PASSES, Ledger

    run_pass = PASSES[workload]
    extra = {"in_process": True} if workload == "report" and trace else {}
    passes = []  # (traced, ledger, timing, layer metrics or None)
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        ledger = Ledger()
        if traced:
            tracer = Tracer()
            tracer.install()
            try:
                timing = run_pass(ledger, ctx, **extra)
            finally:
                tracer.restore()
            layers = layer_metrics(tracer, timing["wall"], timing.get("cache_files", 0),
                                   timing.get("cache_bytes", 0))
        else:
            timing, layers = run_pass(ledger, ctx, **extra), None
        passes.append((traced, ledger, timing, layers))
        elapsed = time.perf_counter() - start
        if not trace and len(passes) >= MIN_PASSES and elapsed >= seconds:
            return passes
        if (trace and len(passes) >= 3 and len(passes) % 2 == 1
                and elapsed * (1 + 2 / len(passes)) > seconds):
            return passes


def summarize(workload: str, passes, trace: bool, setup: list[float]):
    """(metrics, attempted, failed, failure lines, report lines) of one workload run."""
    from tracer import median_metrics

    attempted = sum(p[1].attempted for p in passes)
    failures = [f for p in passes for f in p[1].failures]
    digests = [p[1].digest() for p in passes]
    for i, digest in enumerate(digests[1:], start=2):
        attempted += 1
        if digest != digests[0]:
            failures.append(f"pass {i} digest {digest} differs from pass 1 digest {digests[0]}")

    untraced = [p for p in passes if not p[0]]
    wall = statistics.median(p[2]["wall"] for p in untraced)
    mc_time = statistics.median(p[1].mc_time_to_target() for p in untraced)
    hits = [p[2]["cache_hit"] for p in passes if "cache_hit" in p[2]]
    cache_hit = statistics.median(hits) if hits else 0.0
    lines = [
        f"passes {len(passes)} ({len(untraced)} untraced): "
        + " ".join(f"{p[2]['wall']:.3f}{'T' if p[0] else ''}" for p in passes) + " s",
        f"digest {digests[0]} ({'identical' if len(set(digests)) == 1 else 'DIFFERS'} "
        f"across {len(digests)} passes)",
        f"fail_frac {len(failures)}/{attempted} = {len(failures) / attempted:.4g}",
    ]
    if workload == "fk-crosscheck":
        lines.append(f"mc_time_to_target_s {mc_time:.6g} s")
    if workload == "report":
        lines.append(f"cache_hit_s {cache_hit:.6g} s")

    if not trace:
        rss = [p[2]["peak_rss_mb"] for p in untraced if "peak_rss_mb" in p[2]]
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "peak_rss_mb": statistics.median(rss) if rss else
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        lines.append("setup launches " + " ".join(f"{s:.3f}" for s in setup) + " s")
    else:
        traced = [p for p in passes if p[0]]
        metrics = median_metrics([p[3] for p in traced])
        traced_wall = statistics.median(p[2]["wall"] for p in traced)
        # The first pass of a process also pays one-time costs (first-touch
        # page faults, lazy imports), so it is left out of the comparison.
        warm_wall = statistics.median(p[2]["wall"] for p in untraced[1:])
        metrics["trace.overhead_frac"] = traced_wall / warm_wall - 1.0
        metrics["mc_time_to_target_s"] = mc_time
        metrics["cache_hit_s"] = cache_hit
    return metrics, attempted, len(failures), failures, lines


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rabizeta" / "__init__.py").is_file():
        print(f"error: no rabizeta package under {SRC}; run from a rabizeta checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    # Cap BLAS and OpenMP threads before numpy loads, here and in every child.
    for var in THREAD_VARS:
        os.environ[var] = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    os.environ.pop("RABIZETA_CACHE", None)
    sys.path.insert(0, str(SRC))
    import rabizeta

    if Path(rabizeta.__file__).resolve().parent != SRC / "rabizeta":
        print(f"error: imported rabizeta from {rabizeta.__file__}, not {SRC}", file=sys.stderr)
        return 2

    env = child_environment()
    ctx = Context(args.seed, env)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(f"rabizeta benchmark: seed {args.seed}, {seconds:g} s per workload, trace {args.trace}")
    print(environment_line())

    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir(parents=True)
    results = {}
    try:
        setup = [] if args.trace else measure_setup(env)
        for workload in names:
            passes = run_passes(workload, ctx, seconds, bool(args.trace))
            results[workload] = summarize(workload, passes, bool(args.trace), setup)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    out_metrics, attempted, failed = {}, 0, 0
    for workload, (metrics, n_att, n_fail, failures, lines) in results.items():
        print(f"== {workload}")
        for line in lines:
            print("  " + line)
        for m in declared:
            value = metrics[m["name"]]
            print(f"  {m['name']:<48} {value:>14.6g} {m['unit']}")
            key = m["name"] if len(names) == 1 else f"{workload}.{m['name']}"
            out_metrics[key] = {"value": value, "unit": m["unit"]}
        for failure in failures:
            print(f"  FAIL {failure}")
        attempted += n_att
        failed += n_fail
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
