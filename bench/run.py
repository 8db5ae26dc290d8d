#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload tasks-small --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout: the library is imported from
``src/`` of that checkout, never from an installed copy.  One client in one
process drives the library in a closed loop (each call starts when the
previous one has returned), with one BLAS thread.  ``--trace 0`` times the
loop and reports the end-to-end metrics; ``--trace 1`` runs one round
untraced and one traced, and reports the per-layer metrics.
Either way the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``, and a fuller record
(seed, BLAS build, per-kind latencies) goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

# Before numpy is first imported: one BLAS thread, so a run measures one
# client and not the scheduling of BLAS threads over two cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORKLOAD_NAMES = ("tasks-small", "sdp-scaling", "monotones")
SETUP_REPEATS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_library():
    """Import ``instability`` from this checkout's ``src``; exit 2 if it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import instability
    except ImportError as exc:
        sys.exit(f"cannot import instability from {src}: {exc}")
    if Path(instability.__file__).resolve().parent.parent != src:
        sys.exit(f"instability was imported from {instability.__file__}, not from {src}")
    return instability


def openblas_runtime():
    """{package: (config, threads)} as reported by each OpenBLAS that numpy
    and scipy bundle, asked through ctypes after the library is imported."""
    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libs.glob("*openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            for suffix in ("64_", ""):
                threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
                if threads is not None and config is not None:
                    config.restype = ctypes.c_char_p
                    found[pkg.__name__] = (config().decode().strip(), threads())
                    break
    return found


def machine_facts(np):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    runtime = openblas_runtime()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_runtime": {k: config for k, (config, _) in runtime.items()},
        # What each library reports; the requested count where none could be asked.
        "blas_threads": ({k: n for k, (_, n) in runtime.items()} if runtime
                         else f"requested {os.environ['OPENBLAS_NUM_THREADS']}"),
    }


def run_ops(ops, failures):
    """Run operations in order; return [(op, output or None, seconds)]."""
    from instability.errors import InstabilityError
    from workloads import CliFailed

    clock = time.perf_counter
    done = []
    for op in ops:
        start = clock()
        try:
            out = op.run()
        except (InstabilityError, CliFailed) as exc:
            out = None
            failures.append(f"{op.kind}: {type(exc).__name__}: {exc}")
        done.append((op, out, clock() - start))
    return done


def check_block(done):
    """Problems found by each operation's check; failed operations are skipped."""
    problems, by_label = [], {}
    for op, out, _ in done:
        if out is None:
            continue
        problems += op.check(out, by_label)
        if op.label:
            by_label[op.label] = out
    return problems


def run_round(blocks, failures):
    return [run_ops(ops, failures) for ops in blocks]


def timed_loop(blocks, seconds, failures):
    """Whole rounds, at least one, until the next would end after `seconds`."""
    clock = time.perf_counter
    rounds = []
    start = clock()
    while True:
        rounds.append(run_round(blocks, failures))
        elapsed = clock() - start
        if elapsed + elapsed / len(rounds) > seconds:
            return rounds, elapsed


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.perf_counter()
    ins = import_library()
    import numpy as np
    import workloads
    from tracer import UNITS, Tracer

    import_s = time.perf_counter() - t0
    workload = workloads.WORKLOADS[args.workload]
    RESULTS.mkdir(exist_ok=True)
    failures = []
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
        setups = []
        for k in range(SETUP_REPEATS):
            t = time.perf_counter()
            blocks = workload.make_round(args.seed, Path(tmp))
            run_ops(blocks[0][:1], failures)  # warm-up call
            setups.append(time.perf_counter() - t)
        failures.clear()

        if args.trace:
            t = time.perf_counter()
            rounds = [run_round(blocks, failures)]
            plain_s = time.perf_counter() - t
            tracer = Tracer()
            tracer.install()
            t = time.perf_counter()
            try:
                rounds.append(run_round(blocks, failures))
            finally:
                traced_s = time.perf_counter() - t
                tracer.uninstall()
            values = tracer.layer_metrics()
            values["trace.overhead_s"] = traced_s - plain_s
            metrics = {k: {"value": values[k], "unit": u} for k, u in UNITS.items()}
        else:
            rounds, elapsed = timed_loop(blocks, args.seconds, failures)
            latencies = [dt for rnd in rounds for blk in rnd for _, out, dt in blk if out is not None]
            completed = len(latencies)
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            values = {
                "ops_per_s": completed / elapsed,
                "latency_p50_ms": statistics.median(latencies) * 1e3 if latencies else float("nan"),
                "setup_s": import_s + statistics.median(setups),
                "peak_rss_mb": peak_kib / 1024.0,
            }
            units = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
            metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        done = [blk for rnd in rounds for blk in rnd]
        problems = [p for blk in done for p in check_block(blk)]

    attempted = sum(len(blk) for blk in done)
    by_kind = {}
    for blk in done:
        for op, out, dt in blk:
            if out is not None:
                by_kind.setdefault(op.kind, []).append(dt * 1e3)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": len(rounds),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "problems": problems,
        "import_s": import_s,
        "setup_repeats_s": setups,
        "machine": machine_facts(np),
        "library": str(Path(ins.__file__).parent),
        "latency_ms_by_kind": {k: {"n": len(v), "median": statistics.median(v)} for k, v in by_kind.items()},
        "metrics": metrics,
    }
    suffix = "-trace" if args.trace else ""
    (RESULTS / f"{args.workload}-seed{args.seed}{suffix}.json").write_text(json.dumps(record, indent=2))

    facts = record["machine"]
    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}  "
          f"nproc {facts['nproc']}  {facts['blas']}  blas_threads {facts['blas_threads']}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for failure in failures:
        print(f"OPERATION FAILED: {failure}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
