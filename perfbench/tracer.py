"""In-memory span tracer for the spdelab benchmark.

``Tracer.install`` wraps, in place, the public functions and public methods
of every ``spdelab`` module, a few named private solver entry points, the
module attributes through which the modules call each other (for example
``potentials.solve_tridiagonal``, which is ``_linalg.solve_tridiagonal``),
``scipy.sparse.linalg.spsolve`` / ``splu`` and the ``solve`` of the cached
Dirichlet factor.  Each call records one span ``[name, start, end, parent,
error, count]`` in a list; nothing is written until ``write``.
``Tracer.uninstall`` puts every original object back, and
``assert_clean`` scans the same namespaces to prove that no wrapper is left,
so untimed runs after a traced one carry no hooks.

The tracer lives entirely in the benchmark; ``spdelab`` itself is not
edited.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager

import numpy as np

MODULES = (
    "_linalg", "grids", "yosida", "profiles", "kernels", "potentials",
    "engine", "mosco", "svi", "experiments", "cli",
)

# raw span name -> reported name; the private entries here are also wrapped
RENAME = {
    "_linalg.solve_tridiagonal": "linalg.tridiag",
    "potentials._newton_difference": "potentials.newton",
    "potentials._dual_newton_smooth": "potentials.dual_smooth",
    "potentials._dual_projected_newton": "potentials.dual_box",
    "potentials.FastDiffusionPotential._prox_newton": "potentials.fd_newton",
    "potentials.FastDiffusionPotential._prox_fista": "potentials.fista",
    "potentials.Potential._probe_violation": "potentials.probe",
    "potentials.Potential.prox": "potentials.prox",
    "potentials._DifferencePenaltyPotential.prox_batch": "potentials.prox_batch",
    "potentials.FastDiffusionPotential.prox_batch": "potentials.prox_batch",
    "potentials._DifferencePenaltyPotential.eval_batch": "potentials.eval_batch",
    "potentials.FastDiffusionPotential.eval_batch": "potentials.eval_batch",
    "profiles.EdgeConjugate._radius": "profiles.EdgeConjugate._radius",
    "profiles._generic_prox_radius": "profiles._generic_prox_radius",
    "engine.gaussian_increments": "engine.increments",
    "mosco.condition_n_check": "mosco.condition_n",
    "svi.weak_convergence_metric": "svi.weak_metric",
}

BRANCHES = ("newton", "dual_smooth", "dual_box", "fd_newton", "fista")


def _iters(result):
    return int(result[2])


# reported name -> count taken from the call's result
COUNTERS = {
    "yosida.prox_radius": lambda r: int(np.size(r)),
    "linalg.tridiag": lambda r: int(np.prod(np.shape(r)[:-1])),
    "potentials.prox_batch": lambda r: (int(np.shape(r[0])[0]), int(r[2])),
    "engine.simulate": lambda r: int(r.states.shape[0] * (r.states.shape[1] - 1) * r.states.shape[2]),
    **{f"potentials.{b}": _iters for b in BRANCHES},
}

_MARK = "_perfbench_traced"

NAME, START, END, PARENT, ERROR, COUNT = range(6)


class Tracer:
    """Records nested spans of wrapped calls; single-threaded."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (owner, attribute, original)
        self._factors: dict[int, tuple] = {}
        self._namespaces: list = []

    # -- recording -----------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (set-up, unit, family)."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        try:
            yield
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[END] = clock()
                stack.pop()
                rec[ERROR] = type(exc).__name__
                raise
            rec[END] = clock()
            stack.pop()
            if count is not None:
                rec[COUNT] = count(result)
            return result

        functools.update_wrapper(traced, fn)
        setattr(traced, _MARK, True)
        return traced

    # -- installing ----------------------------------------------------------
    def _patch(self, owner, attr, replacement):
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _traced_factor_getter(self, get_factor):
        """Replacement for ``grids._dirichlet_solver``: same cached factor,
        seen through a proxy whose ``solve`` is traced."""
        factors = self._factors

        def dirichlet_solver(grid):
            lu = get_factor(grid)
            hit = factors.get(id(lu))
            if hit is None or hit[0] is not lu:
                hit = (lu, _FactorProxy(lu, self.wrap("linalg.dirichlet", lu.solve)))
                factors[id(lu)] = hit
            return hit[1]

        setattr(dirichlet_solver, _MARK, True)
        return dirichlet_solver

    def install(self):
        import scipy.sparse.linalg as spla

        import spdelab

        modules = [importlib.import_module(f"spdelab.{m}") for m in MODULES]
        replacements: dict[int, tuple] = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    for mname, fn in list(vars(obj).items()):
                        raw = f"{short}.{obj.__name__}.{mname}"
                        if inspect.isfunction(fn) and (not mname.startswith("_") or raw in RENAME):
                            self._patch(obj, mname, self.wrap(RENAME.get(raw, raw), fn))
                elif callable(obj):
                    raw = f"{short}.{attr}"
                    if attr == "_dirichlet_solver":
                        replacements[id(obj)] = (obj, self._traced_factor_getter(obj))
                    elif not attr.startswith("_") or raw in RENAME:
                        replacements[id(obj)] = (obj, self.wrap(RENAME.get(raw, raw), obj))
        for attr, name in (("spsolve", "linalg.sparse"), ("splu", "linalg.splu")):
            obj = getattr(spla, attr)
            replacements[id(obj)] = (obj, self.wrap(name, obj))
        self._namespaces = modules + [spdelab, spla]
        # every alias of a wrapped object, in every namespace, gets the wrapper
        for ns in self._namespaces:
            for attr, obj in list(vars(ns).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(ns, attr, hit[1])
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._factors.clear()

    def assert_clean(self):
        """Raise if any namespace or class still holds a tracer wrapper."""
        left = []
        for ns in self._namespaces:
            for attr, obj in vars(ns).items():
                if getattr(obj, _MARK, False):
                    left.append(f"{ns.__name__}.{attr}")
                if isinstance(obj, type) and obj.__module__ == ns.__name__:
                    left += [f"{ns.__name__}.{obj.__name__}.{m}"
                             for m, fn in vars(obj).items() if getattr(fn, _MARK, False)]
        if left or self._patches:
            raise RuntimeError(f"tracer wrappers still installed: {left[:10]}")

    # -- output --------------------------------------------------------------
    def write(self, path):
        """Write spans as CSV: id, parent, name, start_ns, end_ns, error, count."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_ns,end_ns,error,count\n")
            t0 = self.spans[0][START] if self.spans else 0.0
            for i, s in enumerate(self.spans):
                count = "" if s[COUNT] is None else str(s[COUNT]).replace(", ", ";")
                fh.write(f"{i},{s[PARENT]},{s[NAME]},{round((s[START] - t0) * 1e9)},"
                         f"{round((s[END] - t0) * 1e9)},{s[ERROR] or ''},{count}\n")


class _FactorProxy:
    """Stands in for a SuperLU factor; only ``solve`` is used by spdelab."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


def roots(spans, prefix: str) -> list[int]:
    return [i for i, s in enumerate(spans) if s[PARENT] == -1 and s[NAME].startswith(prefix)]


def subtree(spans, root: int) -> range:
    """Descendants of a top-level span are the indices up to the next top-level span."""
    end = root + 1
    while end < len(spans) and spans[end][PARENT] != -1:
        end += 1
    return range(root, end)


def self_times(spans, idx: range) -> np.ndarray:
    """Span duration minus the time its direct children cover, for spans ``idx``."""
    lo = idx.start
    dur = np.array([spans[i][END] - spans[i][START] for i in idx])
    child = np.zeros_like(dur)
    for k, i in enumerate(idx):
        parent = spans[i][PARENT]
        if parent >= lo:
            child[parent - lo] += dur[k]
    return dur - child


def check_nesting(spans, idx: range, selfs: np.ndarray) -> None:
    """Children lie inside their parent and self times add up to the root's time."""
    for i in idx[1:]:
        s, p = spans[i], spans[spans[i][PARENT]]
        if not (p[START] <= s[START] <= s[END] <= p[END]):
            raise RuntimeError(f"span {s[NAME]} is not nested in {p[NAME]}")
    total = spans[idx.start][END] - spans[idx.start][START]
    if abs(float(np.sum(selfs)) - total) > 1e-9 + 1e-9 * total:
        raise RuntimeError(f"self times sum to {np.sum(selfs)} s, root took {total} s")


class Aggregate:
    """Per-name call counts, self times, counters and errors over a set of
    top-level spans."""

    def __init__(self, spans, root_ids):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, list] = {}
        self.prox_durations: list[float] = []
        self.layer_self: dict[str, float] = {}
        self.errors: dict[str, int] = {}
        self.fallbacks = 0
        self.wall_s = 0.0
        self.glue_s = 0.0
        self.n_spans = 0
        self.family_total: dict[str, float] = {}
        for r in root_ids:
            idx = subtree(spans, r)
            selfs = self_times(spans, idx)
            check_nesting(spans, idx, selfs)
            self.wall_s += spans[r][END] - spans[r][START]
            self.n_spans += len(idx)
            for k, i in enumerate(idx):
                s = spans[i]
                name, dur = s[NAME], s[END] - s[START]
                layer = name.split(".", 1)[0]
                if layer == "bench":
                    self.glue_s += selfs[k]
                else:
                    self.layer_self[layer] = self.layer_self.get(layer, 0.0) + selfs[k]
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_s[name] = self.self_s.get(name, 0.0) + selfs[k]
                if s[COUNT] is not None:
                    self.counts.setdefault(name, []).append(s[COUNT])
                if name == "potentials.prox":
                    self.prox_durations.append(dur)
                parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else ""
                if s[ERROR] is not None:
                    self.errors[name] = self.errors.get(name, 0) + 1
                    if (name == "potentials.newton" and parent == "potentials.prox_batch"
                            and spans[s[PARENT]][ERROR] is None):
                        self.fallbacks += 1  # caught; the smooth dual took over
                if name == "potentials.fista" and parent == "potentials.fd_newton":
                    self.fallbacks += 1
                if name == "engine.simulate" and parent.startswith("bench.family."):
                    fam = parent.rpartition(".")[2]
                    self.family_total[fam] = self.family_total.get(fam, 0.0) + dur

    def count_sum(self, name: str, pos: int | None = None) -> int:
        vals = self.counts.get(name, [])
        return int(sum(v if pos is None else v[pos] for v in vals))

    def exact_counts(self) -> dict[str, int]:
        """Counts that must repeat exactly across two traced runs of one seed."""
        out = {
            "yosida.prox_radius.calls": self.calls.get("yosida.prox_radius", 0),
            "yosida.prox_radius.elements": self.count_sum("yosida.prox_radius"),
            "linalg.tridiag.calls": self.calls.get("linalg.tridiag", 0),
            "linalg.tridiag.rows": self.count_sum("linalg.tridiag"),
            "linalg.sparse.calls": self.calls.get("linalg.sparse", 0),
            "linalg.dirichlet.calls": self.calls.get("linalg.dirichlet", 0),
            "potentials.prox_batch.calls": self.calls.get("potentials.prox_batch", 0),
            "potentials.prox_batch.rows": self.count_sum("potentials.prox_batch", 0),
            "potentials.prox_batch.iters": self.count_sum("potentials.prox_batch", 1),
            "potentials.prox.calls": self.calls.get("potentials.prox", 0),
            "engine.simulate.calls": self.calls.get("engine.simulate", 0),
            "engine.cell_steps": self.count_sum("engine.simulate"),
        }
        for b in BRANCHES:
            out[f"potentials.{b}.iters"] = self.count_sum(f"potentials.{b}")
        return out


def tail_latency(durations: list[float]) -> tuple[float, float]:
    """(median, value of the highest percentile with >= 10 samples beyond
    it); with 10 or fewer samples the maximum stands in."""
    if not durations:
        return 0.0, 0.0
    d = sorted(durations)
    return float(np.median(d)), d[-1] if len(d) <= 10 else d[-11]


FAMILIES = ("plaplace_2d", "fastdiff_2d", "nonlocal_1d")


def per_layer_metrics(agg: Aggregate, untraced_unit_s: float, traced_unit_s: float) -> dict:
    """Every per-layer metric of BENCHMARK.json, as name -> (value, unit)."""
    c, s, ls = agg.calls, agg.self_s, agg.layer_self
    ex = agg.exact_counts()
    elements = ex["yosida.prox_radius.elements"]
    p50, phi = tail_latency(agg.prox_durations)
    m = {
        "yosida.prox_radius.calls": (ex["yosida.prox_radius.calls"], "count"),
        "yosida.prox_radius.self_s": (s.get("yosida.prox_radius", 0.0), "s"),
        "yosida.prox_radius.elements": (elements, "count"),
        "yosida.prox_radius.ns_per_element": (
            1e9 * s.get("yosida.prox_radius", 0.0) / elements if elements else 0.0, "ns"),
        "yosida.self_s": (ls.get("yosida", 0.0), "s"),
        "profiles.self_s": (ls.get("profiles", 0.0), "s"),
        "profiles.edge_conjugate.self_s": (
            sum(v for k, v in s.items() if k.startswith("profiles.EdgeConjugate.")), "s"),
        "linalg.tridiag.calls": (ex["linalg.tridiag.calls"], "count"),
        "linalg.tridiag.self_s": (s.get("linalg.tridiag", 0.0), "s"),
        "linalg.tridiag.rows": (ex["linalg.tridiag.rows"], "count"),
        "linalg.sparse.calls": (ex["linalg.sparse.calls"], "count"),
        "linalg.sparse.self_s": (s.get("linalg.sparse", 0.0), "s"),
        "linalg.dirichlet.calls": (ex["linalg.dirichlet.calls"], "count"),
        "linalg.dirichlet.self_s": (s.get("linalg.dirichlet", 0.0), "s"),
        "linalg.self_s": (ls.get("linalg", 0.0), "s"),
        "potentials.prox_batch.calls": (ex["potentials.prox_batch.calls"], "count"),
        "potentials.prox_batch.rows": (ex["potentials.prox_batch.rows"], "count"),
        "potentials.prox_batch.self_s": (s.get("potentials.prox_batch", 0.0), "s"),
        "potentials.prox_batch.iters": (ex["potentials.prox_batch.iters"], "count"),
    }
    for b in BRANCHES:
        m[f"potentials.{b}.self_s"] = (s.get(f"potentials.{b}", 0.0), "s")
        m[f"potentials.{b}.iters"] = (ex[f"potentials.{b}.iters"], "count")
    m.update({
        "potentials.fallbacks": (agg.fallbacks, "count"),
        "potentials.prox_failures": (agg.errors.get("potentials.prox_batch", 0), "count"),
        "potentials.prox.calls": (ex["potentials.prox.calls"], "count"),
        "potentials.prox.p50_ms": (1e3 * p50, "ms"),
        "potentials.prox.phi_ms": (1e3 * phi, "ms"),
        "potentials.probe.self_s": (s.get("potentials.probe", 0.0), "s"),
        "potentials.eval_batch.calls": (c.get("potentials.eval_batch", 0), "count"),
        "potentials.eval_batch.self_s": (s.get("potentials.eval_batch", 0.0), "s"),
        "potentials.self_s": (ls.get("potentials", 0.0), "s"),
        "engine.simulate.calls": (ex["engine.simulate.calls"], "count"),
        "engine.simulate.self_s": (s.get("engine.simulate", 0.0), "s"),
    })
    for fam in FAMILIES:
        m[f"engine.simulate.{fam}.total_s"] = (agg.family_total.get(fam, 0.0), "s")
    m.update({
        "engine.increments.self_s": (s.get("engine.increments", 0.0), "s"),
        "engine.cell_steps": (ex["engine.cell_steps"], "count"),
        "engine.self_s": (ls.get("engine", 0.0), "s"),
        "kernels.pair_stencil.self_s": (s.get("kernels.pair_stencil", 0.0), "s"),
        "kernels.c_jp.self_s": (s.get("kernels.c_jp", 0.0), "s"),
        "kernels.self_s": (ls.get("kernels", 0.0), "s"),
        "grids.inner.calls": (c.get("grids.inner", 0), "count"),
        "grids.space_norm_sq.self_s": (s.get("grids.space_norm_sq", 0.0), "s"),
        "grids.self_s": (ls.get("grids", 0.0), "s"),
        "mosco.mosco_trend.self_s": (s.get("mosco.mosco_trend", 0.0), "s"),
        "mosco.condition_n.self_s": (s.get("mosco.condition_n", 0.0), "s"),
        "svi.weak_metric.calls": (c.get("svi.weak_metric", 0), "count"),
        "svi.weak_metric.self_s": (s.get("svi.weak_metric", 0.0), "s"),
        "experiments.parse_config.self_s": (s.get("experiments.parse_config", 0.0), "s"),
        "experiments.run_experiment.self_s": (s.get("experiments.run_experiment", 0.0), "s"),
        "experiments.self_s": (ls.get("experiments", 0.0), "s"),
        "cli.self_s": (ls.get("cli", 0.0), "s"),
        "trace.wall_s": (agg.wall_s, "s"),
        "trace.glue_s": (agg.glue_s, "s"),
        "trace.overhead_s": (traced_unit_s - untraced_unit_s, "s"),
        "trace.spans": (agg.n_spans, "count"),
    })
    return m
