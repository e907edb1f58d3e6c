"""Self-tests of the benchmark: smoke runs on the smallest inputs, metric
and workload names against BENCHMARK.json, and the oracle rejecting bad
outputs. Run with ``python -m pytest perfbench``."""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import metrics
import run
import workloads

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

import loopsurf as ls  # noqa: E402
from oracle import check_mesh, check_witness, surface_tuple  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=run.ROOT, script=run.ROOT / "perfbench" / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(metrics.PER_LAYER)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "spaces", "--seed", "0", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("query", [workloads.RECT_FIRST[1], workloads.RECT_FIRST[3]],
                         ids=lambda q: q.name)
def test_oracle_rejects_moved_vertex(query):
    curve = workloads.build_curve(ls, query)
    witness = ls.find_rectangle(curve, grid_n=32, tol=1e-8, min_separation=1e-3)
    assert check_witness(query, witness) == []
    vertices = witness.vertices.copy()
    vertices[0] += (1e-4, 0.0)
    moved = dataclasses.replace(witness, vertices=vertices)
    assert check_witness(query, moved)


def test_oracle_rejects_wrong_euler_characteristic():
    inv = ls.mesh_invariants(ls.build_mesh(ls.Scheme.TORUS, 8))
    assert check_mesh("torus", inv, inv) == []
    wrong = dataclasses.replace(inv, euler_char=inv.euler_char + 1)
    assert check_mesh("torus", wrong, wrong)
    assert check_mesh("torus", inv, wrong)


def test_random_words_match_their_surface():
    rng = np.random.default_rng(0)
    for _ in range(200):
        text, expected = workloads.random_word(rng)
        assert surface_tuple(ls.classify(ls.parse(text))) == expected, text
