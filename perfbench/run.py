"""Run one riemgrid benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the library is imported from ./src.
With --trace 0 the last line carries the end-to-end metrics; with --trace 1
it carries the per-layer metrics of a traced round, measured beside an
untraced round of the same inputs.  See perfbench/README.md.
"""

import argparse
import contextlib
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

# One OpenBLAS thread: the benchmark is a single closed-loop caller, and on a
# shared 2-core machine the dense solves time steadier when they do not
# compete for the second core.  main() sets it before numpy loads.
BLAS_THREADS = "1"
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench_trace"  # spans of --trace 1 runs, kept after the run
SETUP_REPEATS = 3
UNITS = {"wall_s": "s", "setup_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB"}


def _import_seconds() -> float:
    """Median wall time of importing riemgrid.cli in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import riemgrid.cli"], env=env, cwd=ROOT, check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _environment() -> dict:
    import numpy
    import scipy

    commit = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or commit
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "riemgrid").glob("*.py")))
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
    }


def _timed_round(workload, inputs):
    start = time.perf_counter()
    raw = workload.run(inputs)
    end = time.perf_counter()
    return raw, start, end


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    os.environ["OMP_NUM_THREADS"] = BLAS_THREADS

    if not (SRC / "riemgrid" / "__init__.py").is_file():
        print(f"error: no riemgrid sources under {SRC}", file=sys.stderr)
        return 2
    if sys.path and Path(sys.path[0]).resolve() == Path(__file__).resolve().parent:
        sys.path.pop(0)
    sys.path[:0] = [str(SRC), str(ROOT)]

    from perfbench import stats
    from perfbench.tracing import Tracer, layer_unit
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            inputs = workload.setup(args.seed, workdir)
            setup_times.append(time.perf_counter() - start)
        setup_s = _import_seconds() + stats.median(setup_times)

        walls, traced_walls, op_ms, layers = [], [], [], []
        attempted = failed = wrong = 0
        margins = []

        def checked(raw):
            nonlocal attempted, failed, wrong
            outcome = workload.check(inputs, raw)
            attempted += outcome.attempted
            failed += outcome.failed
            wrong += outcome.wrong
            margins.extend(outcome.margins)
            return raw

        begin = time.perf_counter()
        while True:
            raw, t0, t1 = _timed_round(workload, inputs)
            walls.append(t1 - t0)
            op_ms.extend(raw["op_ms"])
            plain = checked(raw)
            if len(walls) == workload.min_rounds:
                # peak over set-up and a fixed amount of work: later rounds only
                # refill the library's bounded caches
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            round_s = t1 - t0
            if args.trace:
                with Tracer() as tracer:
                    raw, t0, t1 = _timed_round(workload, inputs)
                traced_walls.append(t1 - t0)
                layers.append(tracer.layer_metrics(t0, t1))
                TRACE_DIR.mkdir(exist_ok=True)
                tracer.write(TRACE_DIR / f"{workload.name}-seed{args.seed}-round{len(layers)}.jsonl", t0)
                traced = checked(raw)
                # determinism contract: tracing changes no report byte
                if plain.get("reports") != traced.get("reports"):
                    wrong += 1
                round_s += t1 - t0
            if len(walls) >= workload.min_rounds and time.perf_counter() - begin + round_s > args.seconds:
                break

        env = _environment()
        fail_frac = failed / max(attempted, 1)
        margin = min(margins) if margins else 0.0
        tail = stats.supported_percentile(len(op_ms), 90)
        print(f"# env {json.dumps(env, sort_keys=True)}")
        print(
            f"# {workload.name} seed={args.seed} rounds={len(walls)} ops={len(op_ms)} "
            f"tail_percentile=p{tail} fail_frac={fail_frac:.4g} tol_margin_digits={margin:.4g}"
        )
        if args.trace:
            metrics = {k: sum(layer[k] for layer in layers) / len(layers) for k in layers[0]}
            metrics["trace.wall_s"] = stats.median(traced_walls)
            metrics["trace.overhead_s"] = stats.median(traced_walls) - stats.median(walls)
            metrics["check.fail_frac"] = fail_frac
            metrics["check.tol_margin_digits"] = margin
            units = {k: layer_unit(k) for k in metrics}
        else:
            metrics = {
                "wall_s": stats.median(walls),
                "setup_s": setup_s,
                "op_p50_ms": stats.percentile(op_ms, 50),
                "op_p90_ms": stats.percentile(op_ms, tail),
                "peak_rss_mb": peak_rss_mb,
            }
            units = UNITS
        result = {
            "correct": wrong == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it


if __name__ == "__main__":
    sys.exit(main())
