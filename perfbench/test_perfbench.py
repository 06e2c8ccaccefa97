"""Tests of the benchmark itself, on tiny inputs (``--smoke``).

    python3 -m pytest perfbench -q

Not part of the repository's test suite, which collects ``tests/`` only.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracer as tr  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_tracer_wraps_cross_module_aliases_and_restores_them():
    import scipy.sparse.linalg as spla

    from spdelab import _linalg, grids, potentials

    before = (potentials.solve_tridiagonal, spla.spsolve, grids._dirichlet_solver,
              potentials._dirichlet_solver, potentials.Potential.prox)
    tracer = tr.Tracer().install()
    try:
        assert potentials.solve_tridiagonal is _linalg.solve_tridiagonal
        assert getattr(potentials.solve_tridiagonal, tr._MARK)
        assert getattr(spla.spsolve, tr._MARK)
        assert getattr(potentials.Potential.prox, tr._MARK)
        grid = grids.box_grid((4, 4))
        assert grids.dirichlet_solve(grid, [1.0] * 16).shape == (16,)
        spans = tracer.spans
        names = [s[tr.NAME] for s in spans]
        assert names[0] == "grids.box_grid" and "linalg.splu" in names
        assert names[-1] == "linalg.dirichlet"
        assert spans[spans[-1][tr.PARENT]][tr.NAME] == "grids.dirichlet_solve"
    finally:
        tracer.uninstall()
    tracer.assert_clean()
    after = (potentials.solve_tridiagonal, spla.spsolve, grids._dirichlet_solver,
             potentials._dirichlet_solver, potentials.Potential.prox)
    assert all(a is b for a, b in zip(before, after))


def test_self_times_add_up_to_the_root():
    tracer = tr.Tracer()
    leaf = tracer.wrap("linalg.tridiag", lambda x: [x, x])
    mid = tracer.wrap("potentials.prox_batch", lambda: (leaf(1), 0, 7))
    with tracer.span("bench.unit"):
        mid()
        leaf(2)
    (root,) = tr.roots(tracer.spans, "bench.unit")
    agg = tr.Aggregate(tracer.spans, [root])
    assert sum(agg.layer_self.values()) + agg.glue_s == pytest.approx(agg.wall_s, abs=1e-12)
    assert agg.calls == {"bench.unit": 1, "potentials.prox_batch": 1, "linalg.tridiag": 2}
    assert agg.exact_counts()["potentials.prox_batch.iters"] == 7


def test_tail_latency_uses_ten_samples_beyond():
    assert tr.tail_latency([float(i) for i in range(1, 101)]) == (50.5, 90.0)
    assert tr.tail_latency([3.0, 1.0, 2.0]) == (2.0, 3.0)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "trotter_1d", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
