"""Metric names and units, per-layer metrics from spans, environment record.

The names here are the ones `BENCHMARK.json` lists; a self-test keeps the
two in step.
"""
from __future__ import annotations

import os
import platform
import sys
from collections import defaultdict
from importlib import metadata

from workloads import QUERY_NAMES, SCHEMES

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("verified_frac", "ratio"),
              ("peak_rss_mb", "MB"))

EMBED_STAGES = ("build_mesh", "mesh_invariants", "export_obj", "parse_obj")

PER_LAYER = (
    ("curves.build_s", "s"), ("curves.eval_calls", "count"),
    ("curves.eval_points", "count"), ("curves.eval_s", "s"),
    ("inscribed.find_s", "s"), ("inscribed.self_s", "s"), ("inscribed.verify_s", "s"),
    ("inscribed.found_frac", "ratio"), ("inscribed.verify_pass_frac", "ratio"),
    ("inscribed.evals_per_query", "count"),
    *((f"inscribed.q.{q}.{k}", u) for q in QUERY_NAMES for k, u in (("s", "s"), ("eval_calls", "count"))),
    *((f"embed.{s}.{stage}_s", "s") for s in SCHEMES for stage in EMBED_STAGES),
    *((f"embed.{s}.obj_bytes", "B") for s in SCHEMES),
    ("pairspace.roundtrip_calls", "count"), ("pairspace.roundtrip_s", "s"),
    ("pairspace.us_per_call", "us"),
    ("edgeword.words", "count"), ("edgeword.classify_s", "s"),
    ("cli.commands", "count"), ("cli.run_s", "s"), ("cli.bytes_out", "B"),
    ("trace.overhead_s", "s"),
)


def layer_metrics(spans, result, mesh_n):
    """Per-layer metrics of one traced pass, from its spans and its checked
    result. Layers the workload does not call report 0. `curves.build_s`
    and `trace.overhead_s` come from the whole run and are left out."""
    m = {name: 0 for name, _ in PER_LAYER}
    del m["curves.build_s"], m["trace.overhead_s"]
    by_name = defaultdict(list)
    group_evals = defaultdict(int)
    for s in spans:
        by_name[s.name].append(s)
        group_evals[s.group] += s.eval_calls
    m["curves.eval_calls"] = sum(s.eval_calls for s in spans)
    m["curves.eval_points"] = sum(s.eval_points for s in spans)
    m["curves.eval_s"] = sum(s.eval_s for s in spans)

    find = by_name["inscribed.find_rectangle"]
    m["inscribed.find_s"] = sum(s.duration for s in find)
    m["inscribed.self_s"] = sum(s.self_s for s in find)
    m["inscribed.verify_s"] = sum(s.duration for s in by_name["inscribed.verify_rectangle"])
    if find:
        m["inscribed.evals_per_query"] = sum(s.eval_calls for s in find) / len(find)
    if result.queries:
        m["inscribed.found_frac"] = result.found / result.queries
    if result.witnesses:
        m["inscribed.verify_pass_frac"] = result.verified / result.witnesses
    for s in by_name["inscribed.query"]:
        m[f"inscribed.q.{s.group}.s"] = s.duration
        m[f"inscribed.q.{s.group}.eval_calls"] = group_evals[s.group]

    for stage in EMBED_STAGES:
        for s in by_name[f"embed.{stage}"]:
            scheme, n = s.group.split(".")[1:]
            if int(n) == mesh_n:
                m[f"embed.{scheme}.{stage}_s"] += s.duration
    for (scheme, n), nbytes in result.obj_bytes.items():
        if n == mesh_n:
            m[f"embed.{scheme}.obj_bytes"] = nbytes

    trips = by_name["pairspace.roundtrip"]
    m["pairspace.roundtrip_calls"] = sum(s.attrs["calls"] for s in trips)
    m["pairspace.roundtrip_s"] = sum(s.duration for s in trips)
    if m["pairspace.roundtrip_calls"]:
        m["pairspace.us_per_call"] = 1e6 * m["pairspace.roundtrip_s"] / m["pairspace.roundtrip_calls"]
    words = by_name["edgeword.classify"]
    m["edgeword.words"] = sum(s.attrs["calls"] for s in words)
    m["edgeword.classify_s"] = sum(s.duration for s in words)
    cli = by_name["cli.run"]
    m["cli.commands"] = len(cli)
    m["cli.run_s"] = sum(s.duration for s in cli)
    m["cli.bytes_out"] = result.cli_bytes
    return m


# ------------------------------------------------------------- environment

def git_sha(root):
    """Commit of the checkout, read from .git without running git; None
    when the checkout is not a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _blas(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or None


def environment(root, seed, np, thread_vars):
    return {
        "git_sha": git_sha(root),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "blas": _blas(np),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "seed": seed,
        "threads": {v: os.environ.get(v) for v in thread_vars},
    }
