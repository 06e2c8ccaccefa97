#!/usr/bin/env python3
"""spdelab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload trotter_1d --seed 1 --seconds 30 --trace 0

Run from the repository root.  Every process the benchmark starts is a
fresh single-threaded Python (BLAS/OpenMP thread variables pinned to 1)
that imports ``spdelab`` from ``src``.  ``--trace 0`` times the workload
and prints the end-to-end metrics; ``--trace 1`` prints the per-layer
metrics of a traced run.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it name every metric with its unit, and the full result goes to
``perfbench/out/``.  ``--smoke`` runs tiny inputs without reference checks
(for the benchmark's own tests); ``--make-references`` rewrites
``references.json`` from the current ``src``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from workloads import VARIANTS, WORKLOADS  # noqa: E402

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS",
)
SETUP_SAMPLES = 5  # fresh processes per run whose set-up time is sampled
DEADLINE_S = 170.0  # a run ends within 180 s
TOLERANCE = {"rtol": 1e-9, "atol": 1e-12}  # rounding level; never loosened for speed


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def call_worker(mode: str, args: argparse.Namespace, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"{mode} worker exceeded the time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float]:
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(args, deadline) -> tuple[dict, dict, list[str]]:
    # the extra set-up processes go first, so a cold file cache is paid there
    setups = [call_worker("setup", args, deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    res = call_worker("measure", args, deadline)
    setups.append(res["setup_s"])
    walls = res["walls"]
    wall = statistics.median(walls)
    q1, q3 = quartiles(walls)
    s1, s3 = quartiles(setups)
    ops = res["ops"]
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["maxrss_kb"] / 1024.0, "MB"),
    }
    rates = {
        "cell_steps_per_s": (res["cell_steps"] / wall, "1/s"),
        "resolvents_per_s": (ops["prox"] / wall, "1/s"),
        "error_rate": (res["failed"] / res["attempted"], "ratio"),
    }
    notes = {
        "wall_s": f"median of {len(walls)} units, quartiles {q1:.4g}..{q3:.4g}",
        "setup_s": f"median of {len(setups)} fresh processes, quartiles {s1:.4g}..{s3:.4g}",
        "peak_rss_mb": "ru_maxrss of the measuring process",
        "cell_steps_per_s": f"{res['cell_steps']} cell-steps per unit / wall_s",
        "resolvents_per_s": f"{ops['prox']} certified prox calls per unit / wall_s",
        "error_rate": f"{res['failed']} failed of {res['attempted']} attempted",
    }
    lines = [f"  {k:<18} {v:<14.6g} {u:<6} {notes[k]}" for k, (v, u) in {**metrics, **rates}.items()]
    res["setup_samples"] = setups
    return res, metrics, lines


def make_references(args) -> int:
    """Outputs of one unit per (workload, input variant) from the current src,
    for ``--workload`` or else every workload."""
    path = HERE / "references.json"
    old = json.loads(path.read_text(encoding="utf-8"))["workloads"] if path.is_file() else {}
    refs = {"tolerance": TOLERANCE, "variants": VARIANTS, "workloads": old}
    for name in [args.workload] if args.workload else WORKLOADS:
        refs["workloads"][name] = {}
        for variant in range(VARIANTS):
            a = argparse.Namespace(workload=name, seed=variant, seconds=0, smoke=False)
            res = call_worker("reference", a, time.monotonic() + 600)
            if res["failed"]:
                raise BenchError(f"{name} variant {variant} failed while making references")
            refs["workloads"][name][str(variant)] = res["outputs"]
            print(f"{name} variant {variant}: {len(res['outputs'])} outputs", file=sys.stderr)
    path.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, no reference check")
    ap.add_argument("--make-references", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "spdelab" / "__init__.py").is_file():
        print(f"perfbench: no spdelab sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    try:
        if args.make_references:
            return make_references(args)
        if args.workload is None:
            ap.error("--workload is required")
        deadline = time.monotonic() + DEADLINE_S
        print(f"perfbench {args.workload} seed={args.seed} (input variant {args.seed % VARIANTS}) "
              f"seconds={args.seconds:g} trace={args.trace}{' smoke' if args.smoke else ''}")
        if args.trace:
            res = call_worker("trace", args, deadline)
            metrics = {k: (m["value"], m["unit"]) for k, m in res["layers"].items()}
            lines = [f"  {k:<40} {v:<14.6g} {u}" for k, (v, u) in metrics.items()]
        else:
            res, metrics, lines = end_to_end(args, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print("record " + json.dumps(res["record"]))
    summary = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({**res, **summary}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
