"""One benchmark process: set up a workload, then time, trace or replay it.

Started by ``run.py`` with the BLAS/OpenMP thread variables pinned to 1 and
``src`` on ``PYTHONPATH``; prints one JSON object as its last stdout line.

Modes:
  setup      set up only; reports the fresh-process set-up time
  measure    set up, then run units for ``--seconds`` (at least 2)
  trace      set up and run 2 units under the tracer, remove the tracer,
             then run untraced units for ``--seconds``
  reference  set up and run one unit; reports its outputs
"""

import time

T0 = time.perf_counter()  # set-up time counts from here: imports included

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_UNITS = 2


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
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
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(seed: int, variant: int) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "thread_vars": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith(("_NUM_THREADS", "_MAXIMUM_THREADS"))},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "seed": seed,
        "input_variant": variant,
    }


def load_reference(name: str, variant: int):
    refs = json.loads((HERE / "references.json").read_text(encoding="utf-8"))
    return refs["tolerance"], refs["workloads"][name][str(variant)]


def check_outputs(wl, state, expected, tol) -> tuple[int, dict | None]:
    """Failure events of one unit's outputs: unreadable, non-finite, or not
    within ``tol`` of the expected values (one failure each)."""
    try:
        out = wl.outputs(state)
    except Exception as exc:  # unreadable output is a failed check, not a crash
        print(f"perfbench: reading outputs failed: {exc!r}", file=sys.stderr)
        return 1, None
    if not all(math.isfinite(v) for v in out.values()):
        print("perfbench: non-finite output", file=sys.stderr)
        return 1, out
    if expected is None:
        return 0, out
    bad = [k for k in expected.keys() | out.keys()
           if k not in out or k not in expected
           or abs(out[k] - expected[k]) > tol["rtol"] * abs(expected[k]) + tol["atol"]]
    if bad:
        k = sorted(bad)[0]
        print(f"perfbench: {len(bad)} outputs differ from the reference, e.g. {k}: "
              f"{out.get(k)} vs {expected.get(k)}", file=sys.stderr)
        return 1, out
    return 0, out


def timed_units(wl, state, seconds, expected, tol) -> tuple[list, int]:
    """Run units until ``seconds`` are used (at least MIN_UNITS); returns the
    unit wall times and the failure count."""
    walls, failed = [], 0
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        failed += wl.run(state, contextlib.nullcontext)
        walls.append(time.perf_counter() - t)
        bad, out = check_outputs(wl, state, expected, tol)
        failed += bad
        if expected is None:
            expected = out  # smoke runs have no reference: later units must repeat the first
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_UNITS and elapsed + statistics.median(walls) > seconds:
            return walls, failed


def traced_units(wl, expected, tol):
    """Set-up and two units under the tracer, which is then removed;
    returns the tracer, the state, the failure count and the outputs that
    later units must match."""
    import tracer as tr

    tracer = tr.Tracer().install()
    with tracer.span("bench.setup"):
        state = wl.setup()
    failed = 0
    for _ in range(2):
        with tracer.span("bench.unit"):
            failed += wl.run(state, tracer.span)
        with tracer.span("bench.check"):
            bad, out = check_outputs(wl, state, expected, tol)
        failed += bad
        if expected is None:
            expected = out
    tracer.uninstall()
    tracer.assert_clean()
    return tracer, state, failed, expected


def trace_report(wl, tracer) -> tuple[dict, int, float]:
    """Aggregates of the first traced set-up + unit and the checks on the
    trace; writes the spans out and frees them.  Returns (aggregate,
    failures, traced unit time)."""
    import tracer as tr

    spans = tracer.spans
    setup_root = tr.roots(spans, "bench.setup")[0]
    u1, u2 = tr.roots(spans, "bench.unit")
    agg = tr.Aggregate(spans, [setup_root, u1])
    layers = sum(agg.layer_self.values()) + agg.glue_s
    if abs(layers - agg.wall_s) > 1e-9 * (1.0 + agg.wall_s):
        raise RuntimeError(f"layer self times + glue = {layers} s, traced wall = {agg.wall_s} s")
    first, second = tr.Aggregate(spans, [u1]), tr.Aggregate(spans, [u2])
    ops = wl.ops()
    seen = {"cli": first.calls.get("cli.main", 0), "simulate": first.calls.get("engine.simulate", 0),
            "prox": first.calls.get("potentials.prox", 0)}
    if seen != ops:
        raise RuntimeError(f"traced operations {seen} differ from the counted {ops}")
    failed = 0
    c1, c2 = first.exact_counts(), second.exact_counts()
    if c1 != c2:
        print(f"perfbench: counts differ between two traced runs: "
              f"{ {k: (c1[k], c2[k]) for k in c1 if c1[k] != c2[k]} }", file=sys.stderr)
        failed += 1
    unit_traced = spans[u1][tr.END] - spans[u1][tr.START]
    tracer.write(OUT / f"trace-{wl.name}.csv")
    # a large span list slows the cyclic garbage collector in the untraced units
    tracer.spans.clear()
    gc.collect()
    return agg, failed, unit_traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "measure", "trace", "reference"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, args.smoke, workdir)
        if args.smoke or args.mode == "reference":
            tol, expected = {"rtol": 0.0, "atol": 0.0}, None  # repeat units exactly
        else:
            tol, expected = load_reference(wl.name, wl.variant)
        result = {"mode": args.mode, "record": run_record(args.seed, wl.variant),
                  "ops": wl.ops(), "cell_steps": wl.cell_steps()}
        if args.mode == "trace":
            import tracer as tr

            tracer, state, failed, expected = traced_units(wl, expected, tol)
            agg, bad, unit_traced = trace_report(wl, tracer)
            walls, more = timed_units(wl, state, args.seconds, expected, tol)
            failed += more + bad
            result["layers"] = {k: {"value": v, "unit": u} for k, (v, u)
                                in tr.per_layer_metrics(agg, statistics.median(walls), unit_traced).items()}
            units = 2 + len(walls)
        else:
            state = wl.setup()
            result["setup_s"] = time.perf_counter() - T0
            if args.mode == "setup":
                units, walls, failed = 0, [], 0
            elif args.mode == "reference":
                failed = wl.run(state, contextlib.nullcontext)
                bad, result["outputs"] = check_outputs(wl, state, None, tol)
                failed += bad
                units, walls = 1, []
            else:
                walls, failed = timed_units(wl, state, args.seconds, expected, tol)
                units = len(walls)
        result.update(walls=walls, units=units, failed=failed,
                      attempted=units * sum(wl.ops().values()),
                      maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
