#!/usr/bin/env python3
"""Benchmark of the `loopsurf` package: one workload per run.

    python3 perfbench/run.py --workload rect-first --seed 0 --seconds 30 --trace 0

Workloads (see workloads.py): ``rect-first`` and ``spaces``. The run imports the package from ``src/`` next to this
directory, sets up its inputs from the seed SETUP_REPS times, then repeats
passes over those inputs for about ``--seconds`` (at least one pass).
Every output is checked against the exact oracle in oracle.py; an
operation fails if it raises, finds no rectangle or fails a check.

With ``--trace 0`` the run reports the end-to-end metrics: ``setup_s``
(median set-up), ``wall_s`` (median untraced pass), ``verified_frac``
(witnesses `verify_rectangle` passes at 10 x tol) and ``peak_rss_mb``
(through set-up and RSS_PASSES passes). With ``--trace 1`` it alternates
untraced and traced passes, reports the per-layer metrics of metrics.py
from the traced ones (0 for layers the workload does not call), checks
that both kinds return bit-identical results and writes the spans to
``.bench_out/``. BLAS and OpenMP threads are pinned to 1. The last line of
standard output is the result as JSON; the lines before it are for people.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPS = 5
RSS_PASSES = 2          # peak_rss_mb covers set-up and this many passes
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
WORKLOADS = ("rect-first", "spaces")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true", help="smallest inputs, for self-tests")
    return p.parse_args(argv)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def import_loopsurf():
    """Fresh import of the package and its CLI from SRC."""
    for name in [m for m in sys.modules if m == "loopsurf" or m.startswith("loopsurf.")]:
        del sys.modules[name]
    ls = importlib.import_module("loopsurf")
    importlib.import_module("loopsurf.cli")
    if not Path(ls.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"loopsurf imported from {ls.__file__}, not from {SRC}")
    return ls


def run_setup(args, sizes, tracer, obj_path):
    """Import the package and build the inputs SETUP_REPS times; returns
    the last inputs, each repetition's time and its curve-building time."""
    from workloads import setup
    times, builds = [], []
    for rep in range(SETUP_REPS):
        group = f"setup.{rep}"
        start = time.perf_counter()
        with tracer.span("setup", group):
            with tracer.span("setup.import", group):
                ls = import_loopsurf()
            inp = setup(ls, args.workload, args.seed, sizes, tracer, group, str(obj_path))
        times.append(time.perf_counter() - start)
        builds.append(sum(s.duration for s in tracer.spans
                          if s.group == group and s.name == "curves.build"))
    return inp, times, builds


@dataclass
class Pass:
    traced: bool
    seconds: float
    result: object      # workloads.PassResult
    spans: object       # the pass's spans; empty when untraced
    peak_rss_mb: float  # process peak resident memory when the pass ended


def measure(inp, seconds, traced):
    """Passes until `seconds` have gone by; with `traced`, each untraced
    pass is followed by a traced one on counting curves. The last round
    starts only if at least half of it fits, so a run ends within half a
    round of `seconds`."""
    from spans import NullTracer, Tracer, counting_curve
    from workloads import evaluate, run_pass

    def one(tracer, curves):
        start = time.perf_counter()
        outputs = run_pass(inp, tracer, curves)
        elapsed = time.perf_counter() - start
        result = evaluate(inp, outputs)
        # keep a digest (repr of floats is exact): holding every pass's
        # outputs would make peak memory grow with the pass count
        result.fingerprint = hashlib.sha256(repr(result.fingerprint).encode()).hexdigest()
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return Pass(tracer.enabled, elapsed, result, tracer.spans, peak)

    passes = []
    rounds = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        passes.append(one(NullTracer(), inp.curves))
        if traced:
            tracer = Tracer()
            passes.append(one(tracer, [counting_curve(c, tracer) for c in inp.curves]))
        rounds.append(time.perf_counter() - round_start)
        if time.perf_counter() - start + 0.5 * statistics.median(rounds) >= seconds:
            return passes


def summarize(args, sizes, passes, setup_times, build_times):
    """Notes for people, metric units and values, and the result object."""
    import numpy as np
    import metrics

    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    attempted = sum(p.result.ops for p in passes)
    failed = sum(p.result.failed for p in passes)
    identical = all(p.result.fingerprint == passes[0].result.fingerprint for p in passes)
    wall = [p.seconds for p in untraced]
    notes = [f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
             f"trace {args.trace}{' smoke' if args.smoke else ''}",
             "env " + json.dumps(metrics.environment(ROOT, args.seed, np, THREAD_VARS)),
             "setup_s reps " + " ".join(f"{t:.4f}" for t in setup_times)]
    for label, group in (("untraced", untraced), ("traced", traced)):
        if group:
            times = [p.seconds for p in group]
            q1, q3 = quartiles(times)
            notes.append(f"{label} passes {len(times)}: median {statistics.median(times):.4f} s, "
                         f"quartiles {q1:.4f} .. {q3:.4f} s, each " +
                         " ".join(f"{t:.4f}" for t in times))
    for name, dist, mid, length in passes[0].result.unverified:
        notes.append(f"verify_rectangle rejects {name}: vertex distance {dist:.3g}, midpoint "
                     f"{mid:.3g}, length {length:.3g}; the exact oracle accepts it")
    if not identical:
        notes.append("FAIL outputs differ between passes" +
                     (" (traced and untraced)" if traced else ""))
    for msg in dict.fromkeys(m for p in passes for m in p.result.failures):
        notes.append(f"FAIL {msg}")

    if args.trace:
        units = dict(metrics.PER_LAYER)
        per_pass = [metrics.layer_metrics(p.spans, p.result, max(sizes.mesh_sizes))
                    for p in traced]
        values = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        values["curves.build_s"] = statistics.median(build_times)
        values["trace.overhead_s"] = (statistics.median(p.seconds for p in traced)
                                      - statistics.median(wall))
    else:
        units = dict(metrics.END_TO_END)
        witnesses = sum(p.result.witnesses for p in passes)
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(wall),
            "verified_frac": (sum(p.result.verified for p in passes) / witnesses
                              if witnesses else 0.0),
            # a fixed pass count: later passes raise the peak a little
            # through heap fragmentation, and the count varies with speed
            "peak_rss_mb": untraced[:RSS_PASSES][-1].peak_rss_mb,
        }
    result = {"correct": failed == 0 and identical, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}
    return notes, units, values, result


def write_out(args, notes, passes, result, setup_tracer):
    """Result, notes and (traced runs) spans, into OUT_DIR."""
    traced = [p for p in passes if p.traced]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"result-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"notes": notes, "pass_seconds": [[p.traced, p.seconds] for p in passes],
                   **result}, fh, indent=1)
    if args.trace:
        spans = [s.to_json() for s in setup_tracer.spans]
        for k, p in enumerate(traced):
            spans += [dict(s.to_json(), pass_index=k) for s in p.spans]
        with open(OUT_DIR / f"spans-{stem}.json", "w", encoding="utf-8") as fh:
            json.dump(spans, fh)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "loopsurf" / "__init__.py").is_file():
        print(f"error: no loopsurf sources at {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"       # before numpy loads BLAS
    sys.path.insert(0, str(SRC))
    from spans import NullTracer, Tracer
    from workloads import FULL, SMOKE

    sizes = SMOKE if args.smoke else FULL
    OUT_DIR.mkdir(exist_ok=True)
    obj_path = OUT_DIR / f"cli-mesh-{os.getpid()}.obj"
    setup_tracer = Tracer() if args.trace else NullTracer()
    try:
        inp, setup_times, build_times = run_setup(args, sizes, setup_tracer, obj_path)
        passes = measure(inp, args.seconds, bool(args.trace))
    finally:
        obj_path.unlink(missing_ok=True)

    notes, units, values, result = summarize(args, sizes, passes, setup_times, build_times)
    write_out(args, notes, passes, result, setup_tracer)
    for line in notes:
        print("# " + line)
    for k, u in units.items():
        print(f"{k} = {values[k]:.6g} {u}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
