"""Config-driven experiment runners with deterministic CSV outputs.

Each experiment simulates a schedule of approximating potentials against a
target on common noise (identical Brownian increments by construction,
since increments are keyed by (seed, path) only) and emits one table row
per schedule element:

    index, parameter, weak_metric, resolvent_distance, energy_gap, wall_time

plus per-module reports (resolvent tables, audit reports) and a manifest
capturing the config hash, seed and tolerances.  Identical config + seed
give byte-identical outputs.  A schedule kind supplies only ``make(value,
delta)``, which builds its potentials; one runner simulates them and takes
both resolvent columns from ``mosco.resolvent_table``.

Config files are INI-style text.  ``CONFIG_KEYS`` declares the keys each kind
reads, with their parsers and defaults; any other key, a missing required key
or a rejected value is a ``ConfigError``, so no key is silently ignored.
"""

from __future__ import annotations

import configparser
import functools
import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import engine, mosco, potentials, svi
from .grids import Grid, GridFunction, HMINUS1, L2, box_grid
from .kernels import PROFILE_NAMES, Kernel


class ConfigError(ValueError):
    """Invalid or unknown experiment configuration."""


def _checked(parse, ok, what: str):
    """Parser: ``parse`` the text, then reject a value failing ``ok``."""

    def checked(text):
        value = parse(text)
        if not ok(value):
            raise ValueError(f"must be {what}")
        return value

    return checked


_REAL = _checked(float, math.isfinite, "finite")
_COUNT = _checked(int, lambda v: v > 0, "a positive integer")
_NATURAL = _checked(int, lambda v: v >= 0, "a nonnegative integer")
_POSITIVE = _checked(_REAL, lambda v: v > 0, "positive")
_P = _checked(_REAL, lambda v: 1.0 <= v <= 2.0, "in [1, 2]")
_M = _checked(_REAL, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
_LIST = _checked(lambda text: [_REAL(tok) for tok in text.replace(";", ",").split(",") if tok.strip()],
                 bool, "a nonempty list of numbers")


def _choice(*names):
    return _checked(str, lambda v: v in names, "one of " + " | ".join(names))


def _axes(parse):
    """Parser for ``N`` or ``NxM``: one positive entry per grid axis."""
    return _checked(lambda text: tuple(parse(tok) for tok in text.lower().split("x")),
                    lambda v: len(v) <= 2 and min(v) > 0, "N or NxM with positive entries")


def weight_function(name: str):
    """Named 1-periodic weights a(y) >= rho > 0."""
    if name == "cosine":
        return lambda y: 2.0 + np.cos(2.0 * np.pi * y)
    if name == "checkerboard":
        return lambda y: np.where(np.mod(y, 1.0) < 0.5, 1.0, 3.0)
    if name.startswith("constant:"):
        c = _POSITIVE(name.split(":", 1)[1])
        return lambda y: np.full_like(np.asarray(y, dtype=float), c)
    raise ConfigError(f"unknown weight {name!r}")


REQUIRED = object()  # the default of a key the config must set

# (section, key) -> (parser, default or REQUIRED), read by every kind; dt and
# steps feed the budget guard even on mosco_table, which simulates nothing
_COMMON = {
    ("experiment", "kind"): (str, REQUIRED),
    ("experiment", "seed"): (_NATURAL, REQUIRED),
    ("experiment", "n_paths"): (_COUNT, 100),
    ("experiment", "output_dir"): (str, REQUIRED),
    ("experiment", "budget"): (int, 200_000_000),  # cells * paths * steps * runs guardrail
    ("grid", "cells"): (_axes(int), (64,)),
    ("grid", "extent"): (_axes(_REAL), (1.0,)),
    ("scheme", "dt"): (_POSITIVE, REQUIRED),
    ("scheme", "steps"): (_COUNT, REQUIRED),
}

# read by the six kinds that simulate
_SIMULATED = {
    ("noise", "kind"): (_choice("additive", "linear_multiplicative"), "additive"),
    ("noise", "modes"): (_COUNT, 2),
    ("noise", "amplitude"): (_REAL, 0.1),
    ("initial", "shape"): (_choice("sine", "ramp", "bump", "zero"), "sine"),
    ("initial", "amplitude"): (_REAL, 1.0),
    ("scheme", "delta"): (_POSITIVE, 1e-2),
    ("scheme", "prox_tol"): (_POSITIVE, 1e-9),
}

# _validate checks the schedule values against the schedule kind
_SCHEDULE = {("potential", "schedule"): (_LIST, REQUIRED)}
_GRADIENT_P = {("potential", "p"): (_P, 1.5)}
_GRADIENT_SCHEDULE = {
    **_SCHEDULE,
    **_GRADIENT_P,
    ("potential", "visc"): (_checked(_REAL, lambda v: v >= 0, "nonnegative"), 0.0),
}
_GRADIENT_SCHEDULE_KIND = _choice("power", "viscosity", "delta")
_EPS_SCHEDULE = {("kernel", "eps_schedule"): (_checked(_LIST, lambda v: min(v) > 0, "positive"), REQUIRED)}
_WEIGHT = {("potential", "weight"): (weight_function, REQUIRED)}

CONFIG_KEYS = {
    "trotter_plaplace": {**_COMMON, **_SIMULATED, **_GRADIENT_SCHEDULE,
                         ("potential", "schedule_kind"): (_GRADIENT_SCHEDULE_KIND, "power")},
    "trotter_fastdiffusion": {**_COMMON, **_SIMULATED, **_SCHEDULE,
                              ("potential", "m"): (_M, 0.5),
                              ("potential", "schedule_kind"): (_choice("power", "delta"), "power")},
    "nonlocal_to_local": {**_COMMON, **_SIMULATED, **_EPS_SCHEDULE,
                          ("potential", "p"): (_P, REQUIRED),
                          ("kernel", "profile"): (_choice(*PROFILE_NAMES), "bump"),
                          ("kernel", "support_radius"): (_POSITIVE, 1.0)},
    "homogenize_plaplace": {**_COMMON, **_SIMULATED, **_EPS_SCHEDULE, **_WEIGHT,
                            ("potential", "p"): (_P, 2.0)},
    # the Jensen diagnostic raises the weight to the power -1/m, so m > 0
    "homogenize_fastdiffusion": {**_COMMON, **_SIMULATED, **_EPS_SCHEDULE, **_WEIGHT,
                                 ("potential", "m"): (_checked(_M, lambda v: v > 0, "positive"), 0.5)},
    # the audit's standard errors need at least two paths; it alone reads
    # drift, as the schedule runs build their scheme without delta (_scheme)
    "svi_audit_run": {**_COMMON, **_SIMULATED, **_GRADIENT_P,
                      ("experiment", "n_paths"): (_checked(_COUNT, lambda v: v >= 2, "at least 2"), 100),
                      ("scheme", "drift"): (_choice("implicit_prox", "explicit_yosida"), "implicit_prox")},
    "mosco_table": {**_COMMON, **_GRADIENT_SCHEDULE,
                    ("potential", "schedule_kind"): (_GRADIENT_SCHEDULE_KIND, "delta")},
}

EXPERIMENT_KINDS = tuple(CONFIG_KEYS)


@dataclass
class ExperimentConfig:
    kind: str
    seed: int
    n_paths: int
    raw_text: str
    values: dict = field(default_factory=dict)

    def get(self, section: str, key: str):
        """The parsed value, or the kind's default when the config omits it."""
        return self.values[section][key]

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.raw_text.encode("utf-8")).hexdigest()[:16]


def parse_config(path) -> ExperimentConfig:
    text = Path(path).read_text(encoding="utf-8")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    kind = parser.get("experiment", "kind", fallback=None)
    if kind not in CONFIG_KEYS:
        raise ConfigError(f"[experiment] kind must be one of {EXPERIMENT_KINDS}, got {kind!r}")
    table = CONFIG_KEYS[kind]
    for section in parser.sections():
        for key in parser[section]:
            if (section, key) not in table:
                raise ConfigError(f"{kind} does not read [{section}] {key}")
    values: dict = {}
    for (section, key), (parse, default) in table.items():
        raw = parser.get(section, key, fallback=None)
        if raw is None and default is REQUIRED:
            raise ConfigError(f"{kind} requires [{section}] {key}")
        try:
            values.setdefault(section, {})[key] = default if raw is None else parse(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{kind}: bad value for [{section}] {key}: {raw!r} ({exc})") from exc
    cfg = ExperimentConfig(kind, values["experiment"]["seed"], values["experiment"]["n_paths"], text, values)
    _validate(cfg)
    return cfg


def _parse_grid(cfg: ExperimentConfig) -> Grid:
    cells, extents = cfg.get("grid", "cells"), cfg.get("grid", "extent")
    if len(extents) == 1 and len(cells) > 1:
        extents = extents * len(cells)
    if len(extents) != len(cells):
        raise ConfigError(f"{cfg.kind}: [grid] extent needs one entry or one per axis of [grid] cells")
    return box_grid(cells, extents)


def _validate(cfg: ExperimentConfig):
    """Checks across keys; ``parse_config`` has checked each value alone."""
    kind = cfg.kind
    grid = _parse_grid(cfg)
    potential = cfg.values["potential"]
    schedule = cfg.values.get("kernel", {}).get("eps_schedule") or potential.get("schedule", [0.0])
    work = grid.num_cells * cfg.n_paths * cfg.get("scheme", "steps") * (1 + len(schedule))
    budget = cfg.get("experiment", "budget")
    if work > budget:
        raise ConfigError(f"{kind}: work estimate cells*paths*steps*runs = {work} exceeds [experiment] budget = {budget}")
    schedule_kind = potential.get("schedule_kind")
    if schedule_kind == "power":
        # a power schedule walks the target's exponent: m for fast diffusion, else p
        lo, hi = (0.0, 1.0) if "m" in potential else (1.0, 2.0)
        ok = all(lo <= v <= hi for v in schedule)
    else:  # delta and viscosity schedules take positive values
        ok = schedule_kind is None or min(schedule) > 0
    if not ok:
        raise ConfigError(f"{kind}: bad value for [potential] schedule = {schedule} with schedule_kind = {schedule_kind}")
    if cfg.values["scheme"].get("drift") == "explicit_yosida":  # svi_audit_run alone accepts it
        try:  # SchemeParams wants dt <= delta/4, simulate's check dt * Lip <= 2
            engine.check_scheme(*_audit_problem(cfg, grid))
        except ValueError as exc:
            raise ConfigError(f"{kind}: [scheme] dt with drift = explicit_yosida: {exc}") from exc


# ---------------------------------------------------------------------------
# shared builders
# ---------------------------------------------------------------------------


def cell_average_over_period(a) -> float:
    """Average of a(y) over one period by 4096-point midpoint quadrature."""
    y = (np.arange(4096) + 0.5) / 4096
    return float(np.mean(a(y)))


def _initial_state(cfg: ExperimentConfig, grid: Grid, space: str) -> GridFunction:
    shape = cfg.get("initial", "shape")
    amp = cfg.get("initial", "amplitude")
    xs = grid.centers()
    if shape == "zero":
        vals = np.zeros(grid.shape)
    elif shape == "ramp":
        vals = xs[0] / grid.extents[0]
    elif shape == "bump":
        vals = np.ones(grid.shape)
        for a, x in enumerate(xs):
            t = x / grid.extents[a]
            vals = vals * np.clip(np.sin(np.pi * t) ** 2, 0.0, None)
    else:
        vals = np.ones(grid.shape)
        for a, x in enumerate(xs):
            vals = vals * np.sin(np.pi * x / grid.extents[a])
    return GridFunction(grid, amp * vals, space)


def _noise_model(cfg: ExperimentConfig, grid: Grid, space: str) -> engine.NemytskiiNoise:
    kind = cfg.get("noise", "kind")
    K = cfg.get("noise", "modes")
    amp = cfg.get("noise", "amplitude")
    xs = grid.centers()
    fields = []
    for k in range(K):
        mode = np.ones(grid.shape)
        for a, x in enumerate(xs):
            mode = mode * np.sin(np.pi * (k + 1) * x / grid.extents[a] + 0.25 * a)
        fields.append(GridFunction(grid, amp * mode / (k + 1.0), space))
    if kind == "additive":
        return engine.AdditiveNoise(fields)
    bounded = [GridFunction(grid, amp * (1.0 + 0.5 * f.values / max(np.abs(f.values).max(), 1e-12)), space) for f in fields]
    return engine.LinearMultiplicativeNoise(bounded)


def _scheme(cfg: ExperimentConfig, delta=None) -> engine.SchemeParams:
    """Scheme from config, whose ``[scheme]`` keys are the SchemeParams fields;
    ``delta`` stays None for schedule runs whose potentials carry their own
    regularization."""
    return engine.SchemeParams(**{**cfg.values["scheme"], "delta": delta})


@dataclass
class TableRow:
    index: int
    parameter: float
    weak_metric: float
    resolvent_distance: float
    energy_gap: float
    wall_time: float
    extras: dict = field(default_factory=dict)


@dataclass
class ConvergenceTable:
    rows: list
    extra_columns: tuple = ()

    def to_csv(self, path) -> None:
        cols = ["index", "parameter", "weak_metric", "resolvent_distance", "energy_gap", "wall_time"]
        cols += list(self.extra_columns)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(cols) + "\n")
            for r in self.rows:
                floats = (r.parameter, r.weak_metric, r.resolvent_distance, r.energy_gap)
                base = [str(r.index), *(f"{v:.17g}" for v in floats), f"{r.wall_time:.3f}"]
                base += [f"{r.extras.get(c, float('nan')):.17g}" for c in self.extra_columns]
                fh.write(",".join(base) + "\n")


def _write_manifest(cfg: ExperimentConfig, outdir: Path):
    lines = [
        f"config_hash = {cfg.config_hash}",
        f"kind = {cfg.kind}",
        f"seed = {cfg.seed}",
        f"n_paths = {cfg.n_paths}",
        f"budget = {cfg.get('experiment', 'budget')}",
        "weak_metric_dictionary = 8 cosine spatial modes x 4 polynomial time weights",
    ]
    scheme = cfg.values["scheme"]
    if "prox_tol" in scheme:  # the six kinds that simulate
        lines.append(f"prox_tol = {scheme['prox_tol']!r}")
    if cfg.kind != "svi_audit_run":  # every other kind tabulates resolvent distances
        lines.append(f"resolvent_tol = {mosco.RESOLVENT_TOL!r}")
    (outdir / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------


def _schedule_make(cfg, family, exponent):
    """``make`` of the schedules over ``family(exponent, delta=...)``: a
    ``power`` value replaces the target's exponent, a ``delta`` value its
    regularization, and a ``viscosity`` value v adds 1/v to ``[potential] visc``."""
    kind = cfg.get("potential", "schedule_kind")

    def make(value, delta):
        if value is None:
            return family(exponent, delta=delta)
        if kind == "power":
            return family(value, delta=delta)
        if kind == "viscosity":  # psi + (1/value) |grad u|^2 / 2 on unit face weights
            return family(exponent, delta=delta, visc=cfg.get("potential", "visc") + 1.0 / value)
        return family(exponent, delta=value)  # delta

    return make


def _gradient_make(cfg, grid):
    """The p-Dirichlet schedule; ``[potential] visc`` enters every potential."""
    family = functools.partial(potentials.p_dirichlet, grid, visc=cfg.get("potential", "visc"))
    return _schedule_make(cfg, family, cfg.get("potential", "p"))


def _run_schedule(cfg, grid, space, make, values, probes=None, gap=None, extras=None) -> ConvergenceTable:
    """One table row per schedule value; ``make(value, delta)`` builds the
    potentials, the target for ``value=None`` and raw for ``delta=None``.
    A row holds the weak metric of the ensemble under ``[scheme] delta``
    against the target's on common noise, then the mean resolvent distance
    of the raw potential to the raw target over ``probes`` (8 default
    probes) and its gap: the largest positive energy excess over them, or
    ``gap(raw, raw_target)``.  ``extras`` are constant columns."""
    delta = cfg.get("scheme", "delta")
    sp = _scheme(cfg)
    x0 = _initial_state(cfg, grid, space)
    model = _noise_model(cfg, grid, space)
    if probes is None:
        probes = mosco.default_probes(grid, space, count=8)
    extras = extras or {}
    fns = svi.default_test_functionals(grid)
    ens_target = engine.simulate(x0, make(None, delta), model, sp, cfg.n_paths, cfg.seed)
    target_raw = make(None, None)
    rows = []
    for i, value in enumerate(values):
        t0 = time.perf_counter()
        ens = engine.simulate(x0, make(value, delta), model, sp, cfg.n_paths, cfg.seed)
        wm = svi.weak_convergence_metric(ens, ens_target, fns)
        raw = make(value, None)
        distances, gaps = mosco.resolvent_table([raw], target_raw, probes, (1.0,))
        eg = gaps[0] if gap is None else gap(raw, target_raw)
        rows.append(TableRow(i, float(value), wm, float(distances.mean()), float(eg),
                             time.perf_counter() - t0, extras=extras))
    return ConvergenceTable(rows, extra_columns=tuple(extras))


def run_trotter_plaplace(cfg: ExperimentConfig, outdir: Path | None = None) -> ConvergenceTable:
    grid = _parse_grid(cfg)
    return _run_schedule(cfg, grid, L2, _gradient_make(cfg, grid), cfg.get("potential", "schedule"))


def run_trotter_fastdiffusion(cfg: ExperimentConfig, outdir: Path | None = None) -> ConvergenceTable:
    grid = _parse_grid(cfg)
    make = _schedule_make(cfg, functools.partial(potentials.fast_diffusion, grid), cfg.get("potential", "m"))
    return _run_schedule(cfg, grid, HMINUS1, make, cfg.get("potential", "schedule"))


def run_nonlocal_to_local(cfg: ExperimentConfig, outdir: Path | None = None) -> ConvergenceTable:
    """Rescaled nonlocal energies ``E_eps`` against the local p-Dirichlet
    energy, on one sine probe; the gap is ``|E_eps(probe) - E(probe)|``."""
    grid = _parse_grid(cfg)
    p = cfg.get("potential", "p")
    kern = Kernel(cfg.get("kernel", "profile"), grid.dim, cfg.get("kernel", "support_radius"))
    xs = grid.centers()[0]
    probe = GridFunction(grid, np.sin(np.pi * xs / grid.extents[0]), L2)

    def make(eps, delta):
        if eps is None:
            return potentials.p_dirichlet(grid, p, delta=delta)
        return potentials.nonlocal_p(grid, kern, eps, p, delta=delta)

    def gap(nl_raw, local_raw):
        return abs(nl_raw.eval(probe) - local_raw.eval(probe))

    return _run_schedule(cfg, grid, L2, make, cfg.get("kernel", "eps_schedule"),
                         probes=[("sine", probe)], gap=gap)


def _homogenize(cfg, space, family, extras) -> ConvergenceTable:
    """Oscillating weights ``a(x/eps)`` against their cell average, each
    potential ``family(grid, weight=..., delta=...)``."""
    grid = _parse_grid(cfg)
    a = cfg.get("potential", "weight")
    mean_weight = cell_average_over_period(a)
    xs = grid.centers()[0]

    def make(eps, delta):
        weight = np.full(grid.shape, mean_weight) if eps is None else a(xs / eps)
        return family(grid, weight=weight, delta=delta)

    return _run_schedule(cfg, grid, space, make, cfg.get("kernel", "eps_schedule"),
                         extras={"mean_weight": mean_weight, **extras})


def run_homogenize_plaplace(cfg: ExperimentConfig, outdir: Path | None = None) -> ConvergenceTable:
    return _homogenize(cfg, L2, functools.partial(potentials.p_dirichlet, p=cfg.get("potential", "p")), {})


def run_homogenize_fastdiffusion(cfg: ExperimentConfig, outdir: Path | None = None) -> ConvergenceTable:
    m = cfg.get("potential", "m")
    a_fn = cfg.get("potential", "weight")
    mean_weight = cell_average_over_period(a_fn)
    # signed Jensen diagnostic: published direction says avg(a^{-1/m}) <= avg(a)^{-1/m},
    # convexity of t^{-1/m} gives the reverse; report the signed gap as data
    jensen_gap = mean_weight ** (-1.0 / m) - cell_average_over_period(lambda y: a_fn(y) ** (-1.0 / m))
    family = functools.partial(potentials.fast_diffusion, m=m)
    return _homogenize(cfg, HMINUS1, family, {"jensen_gap": jensen_gap})


def _audit_problem(cfg, grid):
    """The audit run's potential and scheme, which ``_validate`` also checks."""
    delta = cfg.get("scheme", "delta")
    return potentials.p_dirichlet(grid, cfg.get("potential", "p"), delta=delta), _scheme(cfg, delta=delta)


def run_svi_audit(cfg: ExperimentConfig, outdir: Path | None = None) -> ConvergenceTable:
    grid = _parse_grid(cfg)
    pot, sp = _audit_problem(cfg, grid)
    x0 = _initial_state(cfg, grid, L2)
    model = _noise_model(cfg, grid, L2)
    ens = engine.simulate(x0, pot, model, sp, cfg.n_paths, cfg.seed)
    reports = svi.audit(ens, pot, model, svi.default_constant(model), structured_test_family(ens, model, x0))
    rows = []
    for i, (name, rep) in enumerate(reports.items()):
        rows.append(
            TableRow(i, float(i), float(np.min(rep.margin)), float(np.max(rep.se)),
                     0.0, 0.0, extras={"passed": 1.0 if rep.passed else 0.0})
        )
        if outdir is not None:
            rep.to_csv(outdir / f"svi_{name}.csv")
    return ConvergenceTable(rows, extra_columns=("passed",))


def structured_test_family(ens, model, x0):
    """The audit's standard test processes: constants, a smooth drifted
    process, and the solution's own decomposition."""
    grid, space = ens.grid, ens.space
    smooth = GridFunction(grid, 0.25 * np.ones(grid.shape), space)
    G = np.tile(0.1 * x0.flat, (ens.n_steps, 1))
    return {
        "zero": svi.TestProcess.constant(grid, space, 0.0),
        "constant": svi.TestProcess.from_function(smooth),
        "drifted": svi.TestProcess.from_function(smooth, G=G),
        "solution": svi.SolutionTestProcess(ens, model),
    }


def run_mosco_table(cfg: ExperimentConfig, outdir: Path | None = None) -> ConvergenceTable:
    grid = _parse_grid(cfg)
    make = _gradient_make(cfg, grid)
    values = cfg.get("potential", "schedule")
    report = mosco.mosco_trend([make(value, None) for value in values], make(None, None), lambdas=(1.0,))
    if outdir is not None:
        report.to_csv(outdir / "mosco_report.csv")
        (outdir / "mosco_summary.txt").write_text(report.summary() + "\n", encoding="utf-8")
    rows = []
    for i, value in enumerate(values):
        rows.append(
            TableRow(i, float(value), 0.0, float(report.distances[i].mean()),
                     float(report.limsup_gaps[i]), 0.0)
        )
    return ConvergenceTable(rows)


# every runner takes (cfg, outdir); per-kind reports go to outdir unless it is None
_RUNNERS = {
    "trotter_plaplace": run_trotter_plaplace,
    "trotter_fastdiffusion": run_trotter_fastdiffusion,
    "nonlocal_to_local": run_nonlocal_to_local,
    "homogenize_plaplace": run_homogenize_plaplace,
    "homogenize_fastdiffusion": run_homogenize_fastdiffusion,
    "svi_audit_run": run_svi_audit,
    "mosco_table": run_mosco_table,
}


def run_experiment(cfg: ExperimentConfig) -> Path:
    """Execute the configured experiment; returns the output directory."""
    outdir = Path(cfg.get("experiment", "output_dir"))
    outdir.mkdir(parents=True, exist_ok=True)
    table = _RUNNERS[cfg.kind](cfg, outdir)
    table.to_csv(outdir / "table.csv")
    _write_manifest(cfg, outdir)
    return outdir
