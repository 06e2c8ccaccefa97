"""Config-driven experiment runners with deterministic CSV outputs.

Each experiment simulates a schedule of approximating potentials against a
target on common noise (identical Brownian increments by construction,
since increments are keyed by (seed, path) only) and emits one table row
per schedule element:

    index, parameter, weak_metric, resolvent_distance, energy_gap, wall_time

plus per-module reports (resolvent tables, audit reports) and a manifest
capturing the config hash, seed and tolerances.  Identical config + seed
give byte-identical outputs.

Config files are INI-style text with a fixed section/key schema; unknown
sections or keys are rejected so typos cannot silently change a run.
"""

from __future__ import annotations

import configparser
import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import engine, mosco, potentials, svi
from .grids import Grid, GridFunction, HMINUS1, L2, box_grid
from .kernels import Kernel, RescaledKernel, nonlocal_energy
from .profiles import PowerProfile, ViscousProfile, YosidaPowerProfile

EXPERIMENT_KINDS = (
    "trotter_plaplace",
    "trotter_fastdiffusion",
    "nonlocal_to_local",
    "homogenize_plaplace",
    "homogenize_fastdiffusion",
    "svi_audit_run",
    "mosco_table",
)

DEFAULT_BUDGET = 200_000_000  # cells * paths * steps guardrail


class ConfigError(ValueError):
    """Invalid or unknown experiment configuration."""


def _float_list(text: str) -> list[float]:
    vals = [float(tok) for tok in text.replace(";", ",").split(",") if tok.strip()]
    if not vals:
        raise ConfigError(f"empty numeric list: {text!r}")
    return vals


_SCHEMA = {
    "experiment": {
        "kind": str,
        "seed": int,
        "n_paths": int,
        "output_dir": str,
        "budget": int,
    },
    "grid": {"cells": str, "extent": str},
    "potential": {
        "p": float,
        "m": float,
        "schedule": _float_list,
        "schedule_kind": str,
        "weight": str,
        "visc": float,
    },
    "kernel": {"profile": str, "support_radius": float, "eps_schedule": _float_list},
    "noise": {"kind": str, "modes": int, "amplitude": float},
    "scheme": {
        "dt": float,
        "steps": int,
        "delta": float,
        "ic_smoothing": int,
        "drift": str,
        "prox_tol": float,
    },
    "initial": {"shape": str, "amplitude": float},
}

_REQUIRED = {
    "experiment": ("kind", "seed", "output_dir"),
    "scheme": ("dt", "steps"),
}


@dataclass
class ExperimentConfig:
    kind: str
    seed: int
    n_paths: int
    output_dir: str
    budget: int
    raw_text: str
    values: dict = field(default_factory=dict)

    def get(self, section: str, key: str, default=None):
        return self.values.get(section, {}).get(key, default)

    def require(self, section: str, key: str):
        val = self.get(section, key)
        if val is None:
            raise ConfigError(f"experiment {self.kind!r} requires [{section}] {key}")
        return val

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
    values: dict = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        values[section] = {}
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            typ = _SCHEMA[section][key]
            try:
                values[section][key] = typ(raw)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc
    for section, keys in _REQUIRED.items():
        for key in keys:
            if values.get(section, {}).get(key) is None:
                raise ConfigError(f"missing required key [{section}] {key}")
    kind = values["experiment"]["kind"]
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}; pick one of {EXPERIMENT_KINDS}")
    cfg = ExperimentConfig(
        kind=kind,
        seed=values["experiment"]["seed"],
        n_paths=values["experiment"].get("n_paths", 100),
        output_dir=values["experiment"]["output_dir"],
        budget=values["experiment"].get("budget", DEFAULT_BUDGET),
        raw_text=text,
        values=values,
    )
    _validate(cfg)
    return cfg


def _parse_grid(cfg: ExperimentConfig) -> Grid:
    cells_text = cfg.get("grid", "cells", "64")
    extent_text = cfg.get("grid", "extent", "1.0")
    cells = tuple(int(tok) for tok in str(cells_text).lower().split("x"))
    extents = tuple(float(tok) for tok in str(extent_text).lower().split("x"))
    if len(extents) == 1 and len(cells) > 1:
        extents = extents * len(cells)
    return box_grid(cells, extents)


def _validate(cfg: ExperimentConfig):
    grid = _parse_grid(cfg)
    steps = cfg.require("scheme", "steps")
    dt = cfg.require("scheme", "dt")
    if dt <= 0 or steps <= 0:
        raise ConfigError("dt and steps must be positive")
    kind = cfg.kind
    eps_kinds = ("nonlocal_to_local", "homogenize_plaplace", "homogenize_fastdiffusion")
    schedule = cfg.get("kernel", "eps_schedule") if kind in eps_kinds else cfg.get("potential", "schedule")
    n_runs = 1 + len(schedule or [0.0])
    work = grid.num_cells * max(cfg.n_paths, 1) * steps * n_runs
    if work > cfg.budget:
        raise ConfigError(
            f"work estimate cells*paths*steps*runs = {work} exceeds budget {cfg.budget}"
        )
    if kind in ("trotter_plaplace", "trotter_fastdiffusion", "mosco_table"):
        cfg.require("potential", "schedule")
    if kind in eps_kinds:
        cfg.require("kernel", "eps_schedule")
    if kind in ("nonlocal_to_local",):
        cfg.require("potential", "p")
    if kind in ("homogenize_plaplace", "homogenize_fastdiffusion"):
        if cfg.get("potential", "weight") in (None, "none"):
            raise ConfigError("homogenization needs a periodic weight (cosine or checkerboard)")
    noise_kind = cfg.get("noise", "kind", "additive")
    if noise_kind not in ("additive", "linear_multiplicative"):
        raise ConfigError(f"unknown noise kind {noise_kind!r}")
    drift = cfg.get("scheme", "drift", "implicit_prox")
    if drift not in ("implicit_prox", "explicit_yosida"):
        raise ConfigError(f"unknown drift {drift!r}")
    if drift == "explicit_yosida" and kind != "svi_audit_run":
        # the schedule runs build their scheme without delta (_scheme)
        raise ConfigError(f"drift = explicit_yosida is honoured by svi_audit_run only, not {kind}")
    weight = cfg.get("potential", "weight", "none")
    if weight not in ("none", "cosine", "checkerboard") and not str(weight).startswith("constant:"):
        raise ConfigError(f"unknown weight {weight!r}")
    shape = cfg.get("initial", "shape", "sine")
    if shape not in ("sine", "ramp", "bump", "zero"):
        raise ConfigError(f"unknown initial shape {shape!r}")


# ---------------------------------------------------------------------------
# shared builders
# ---------------------------------------------------------------------------


def weight_function(name: str):
    """Named 1-periodic weights a(y) >= rho > 0."""
    if name == "cosine":
        return lambda y: 2.0 + np.cos(2.0 * np.pi * y)
    if name == "checkerboard":
        return lambda y: np.where(np.mod(y, 1.0) < 0.5, 1.0, 3.0)
    if name.startswith("constant:"):
        c = float(name.split(":", 1)[1])
        return lambda y: np.full_like(np.asarray(y, dtype=float), c)
    raise ConfigError(f"unknown weight {name!r}")


def cell_average_over_period(a, samples: int = 4096) -> float:
    """Average of a(y) over one period by midpoint quadrature."""
    y = (np.arange(samples) + 0.5) / samples
    return float(np.mean(a(y)))


def _initial_state(cfg: ExperimentConfig, grid: Grid, space: str) -> GridFunction:
    shape = cfg.get("initial", "shape", "sine")
    amp = cfg.get("initial", "amplitude", 1.0)
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


def _noise_model(cfg: ExperimentConfig, grid: Grid, space: str) -> engine.DiffusionModel:
    kind = cfg.get("noise", "kind", "additive")
    K = cfg.get("noise", "modes", 2)
    amp = cfg.get("noise", "amplitude", 0.1)
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
    """Scheme from config; ``delta`` stays None for schedule runs whose
    potentials carry their own regularization."""
    return engine.SchemeParams(
        dt=cfg.require("scheme", "dt"),
        steps=cfg.require("scheme", "steps"),
        delta=delta,
        ic_smoothing=cfg.get("scheme", "ic_smoothing", 0),
        drift=cfg.get("scheme", "drift", "implicit_prox"),
        prox_tol=cfg.get("scheme", "prox_tol", 1e-9),
    )


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
                base = [
                    str(r.index),
                    f"{r.parameter:.17g}",
                    f"{r.weak_metric:.17g}",
                    f"{r.resolvent_distance:.17g}",
                    f"{r.energy_gap:.17g}",
                    f"{r.wall_time:.3f}",
                ]
                base += [f"{r.extras.get(c, float('nan')):.17g}" for c in self.extra_columns]
                fh.write(",".join(base) + "\n")


def _mean_resolvent_distance(pot_seq_el, target, probes, lam=1.0, tol=1e-9) -> float:
    ds = [mosco.resolvent_distance(pot_seq_el, target, f, lam, tol=tol) for _, f in probes]
    return float(np.mean(ds))


def _energy_gap(pot_el, target, probes) -> float:
    gap = 0.0
    for _, f in probes:
        gap = max(gap, pot_el.eval(f) - target.eval(f))
    return max(gap, 0.0)


def _write_manifest(cfg: ExperimentConfig, outdir: Path, extra_lines=()):
    lines = [
        f"config_hash = {cfg.config_hash}",
        f"kind = {cfg.kind}",
        f"seed = {cfg.seed}",
        f"n_paths = {cfg.n_paths}",
        f"budget = {cfg.budget}",
        "weak_metric_dictionary = 8 cosine spatial modes x 4 polynomial time weights",
        "prox_tol_default = 1e-9",
    ]
    lines += list(extra_lines)
    (outdir / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------


def _gradient_schedule(cfg, grid, default_kind):
    """``(value, simulated potential, raw potential)`` per schedule element,
    with the simulated and raw targets; ``[potential] visc`` enters every one."""
    kind = cfg.get("potential", "schedule_kind", default_kind)
    p_target = cfg.get("potential", "p", 1.5)
    visc = cfg.get("potential", "visc", 0.0)
    delta = cfg.get("scheme", "delta", 1e-2)
    seq = []
    for value in cfg.require("potential", "schedule"):
        if kind == "power":
            sim_pot = potentials.p_dirichlet(grid, value, delta=delta, visc=visc)
            raw_pot = potentials.p_dirichlet(grid, value, visc=visc)
        elif kind == "viscosity":
            prof_sim = ViscousProfile(YosidaPowerProfile(p_target, delta), 1.0 / value)
            prof_raw = ViscousProfile(PowerProfile(p_target), 1.0 / value)
            sim_pot = potentials.general_gradient(grid, prof_sim, visc=visc)
            raw_pot = potentials.general_gradient(grid, prof_raw, visc=visc)
        elif kind == "delta":
            sim_pot = raw_pot = potentials.p_dirichlet(grid, p_target, delta=value, visc=visc)
        else:
            raise ConfigError(f"unknown schedule_kind {kind!r}")
        seq.append((value, sim_pot, raw_pot))
    target_sim = potentials.p_dirichlet(grid, p_target, delta=delta, visc=visc)
    target_raw = potentials.p_dirichlet(grid, p_target, visc=visc)
    return seq, target_sim, target_raw


def _run_schedule(cfg, grid, space, seq, target_sim, target_raw, probes=None, gap=None,
                  extras=None) -> ConvergenceTable:
    """One table row per ``(value, sim_pot, raw_pot)`` of ``seq``: the weak
    metric of the simulated ensemble against the target's on common noise,
    the mean resolvent distance of the raw potentials over ``probes`` (8
    default probes) and ``gap(raw_pot, target_raw, probes)`` (the largest
    positive energy excess by default).  ``extras`` are constant columns."""
    sp = _scheme(cfg)
    x0 = _initial_state(cfg, grid, space)
    model = _noise_model(cfg, grid, space)
    if probes is None:
        probes = mosco.default_probes(grid, space, count=8)
    gap = gap or _energy_gap
    extras = extras or {}
    fns = svi.default_test_functionals(grid)
    ens_target = engine.simulate(x0, target_sim, model, sp, cfg.n_paths, cfg.seed)
    rows = []
    for i, (value, sim_pot, raw_pot) in enumerate(seq):
        t0 = time.perf_counter()
        ens = engine.simulate(x0, sim_pot, model, sp, cfg.n_paths, cfg.seed)
        wm = svi.weak_convergence_metric(ens, ens_target, fns)
        rd = _mean_resolvent_distance(raw_pot, target_raw, probes)
        eg = gap(raw_pot, target_raw, probes)
        rows.append(TableRow(i, float(value), wm, rd, eg, time.perf_counter() - t0, extras=extras))
    return ConvergenceTable(rows, extra_columns=tuple(extras))


def run_trotter_plaplace(cfg: ExperimentConfig, outdir: Path | None = None) -> ConvergenceTable:
    grid = _parse_grid(cfg)
    return _run_schedule(cfg, grid, L2, *_gradient_schedule(cfg, grid, "power"))


def run_trotter_fastdiffusion(cfg: ExperimentConfig, outdir: Path | None = None) -> ConvergenceTable:
    grid = _parse_grid(cfg)
    delta = cfg.get("scheme", "delta", 1e-2)
    kind = cfg.get("potential", "schedule_kind", "power")
    m_target = cfg.get("potential", "m", 0.5)
    seq = []
    for value in cfg.require("potential", "schedule"):
        if kind == "power":
            seq.append((value, potentials.fast_diffusion(grid, value, delta=delta),
                        potentials.fast_diffusion(grid, value)))
        elif kind == "delta":
            pot = potentials.fast_diffusion(grid, m_target, delta=value)
            seq.append((value, pot, pot))
        else:
            raise ConfigError(f"unknown schedule_kind {kind!r} for fast diffusion")
    target_sim = potentials.fast_diffusion(grid, m_target, delta=delta)
    raw_delta = None if m_target > 0.0 else delta  # m = 0 raw resolvents are slow; keep regularized target
    target_raw = potentials.fast_diffusion(grid, m_target, delta=raw_delta)
    return _run_schedule(cfg, grid, HMINUS1, seq, target_sim, target_raw)


def run_nonlocal_to_local(cfg: ExperimentConfig, outdir: Path | None = None) -> ConvergenceTable:
    grid = _parse_grid(cfg)
    p = cfg.require("potential", "p")
    delta = cfg.get("scheme", "delta", 1e-2)
    kern = Kernel(cfg.get("kernel", "profile", "bump"), grid.dim, cfg.get("kernel", "support_radius", 1.0))
    xs = grid.centers()[0]
    probe = GridFunction(grid, np.sin(np.pi * xs / grid.extents[0]), L2)

    def element(eps):
        nl_sim = potentials.nonlocal_p(grid, kern, eps, p, delta=delta)
        return eps, nl_sim, potentials.nonlocal_p(grid, kern, eps, p)

    def gap(nl_raw, local_raw, probes):
        return abs(nonlocal_energy(nl_raw.rescaled, probe) - local_raw.eval(probe))

    seq = map(element, cfg.require("kernel", "eps_schedule"))
    local_sim = potentials.p_dirichlet(grid, p, delta=delta)
    local_raw = potentials.p_dirichlet(grid, p)
    return _run_schedule(cfg, grid, L2, seq, local_sim, local_raw, probes=[("sine", probe)], gap=gap)


def _homogenize(cfg, space, make, extras) -> ConvergenceTable:
    """Oscillating weights ``a(x/eps)`` against their cell average; ``make(grid,
    weight, delta)`` builds the potential, raw when delta is None."""
    grid = _parse_grid(cfg)
    delta = cfg.get("scheme", "delta", 1e-2)
    a = weight_function(cfg.require("potential", "weight"))
    mean_weight = cell_average_over_period(a)
    xs = grid.centers()[0]

    def element(eps):
        w = a(xs / eps)
        return eps, make(grid, w, delta), make(grid, w, None)

    seq = map(element, cfg.require("kernel", "eps_schedule"))
    avg_weight = np.full(grid.shape, mean_weight)
    target_sim = make(grid, avg_weight, delta)
    target_raw = make(grid, avg_weight, None)
    return _run_schedule(cfg, grid, space, seq, target_sim, target_raw,
                         extras={"mean_weight": mean_weight, **extras})


def run_homogenize_plaplace(cfg: ExperimentConfig, outdir: Path | None = None) -> ConvergenceTable:
    p = cfg.get("potential", "p", 2.0)

    def make(grid, weight, delta):
        return potentials.p_dirichlet(grid, p, weight=weight, delta=delta)

    return _homogenize(cfg, L2, make, {})


def run_homogenize_fastdiffusion(cfg: ExperimentConfig, outdir: Path | None = None) -> ConvergenceTable:
    m = cfg.get("potential", "m", 0.5)
    a_fn = weight_function(cfg.require("potential", "weight"))
    mean_weight = cell_average_over_period(a_fn)
    # signed Jensen diagnostic: published direction says avg(a^{-1/m}) <= avg(a)^{-1/m},
    # convexity of t^{-1/m} gives the reverse; report the signed gap as data
    jensen_gap = mean_weight ** (-1.0 / m) - cell_average_over_period(lambda y: a_fn(y) ** (-1.0 / m))

    def make(grid, weight, delta):
        return potentials.fast_diffusion(grid, m, weight=weight, delta=delta)

    return _homogenize(cfg, HMINUS1, make, {"jensen_gap": jensen_gap})


def run_svi_audit(cfg: ExperimentConfig, outdir: Path | None = None) -> ConvergenceTable:
    grid = _parse_grid(cfg)
    delta = cfg.get("scheme", "delta", 1e-2)
    p = cfg.get("potential", "p", 1.5)
    pot = potentials.p_dirichlet(grid, p, delta=delta)
    sp = _scheme(cfg, delta=delta)
    x0 = _initial_state(cfg, grid, L2)
    model = _noise_model(cfg, grid, L2)
    ens = engine.simulate(x0, pot, model, sp, cfg.n_paths, cfg.seed)
    C = svi.default_constant(model)
    reports = [("energy", svi.check_energy(ens, pot, C))]
    family = structured_test_family(ens, model, x0)
    for name, Z in family:
        reports.append((name, svi.check_variational(ens, Z, pot, model, C)))
    rows = []
    for i, (name, rep) in enumerate(reports):
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
    out = [
        ("zero", svi.TestProcess.constant(grid, space, 0.0)),
        ("constant", svi.TestProcess.from_function(smooth)),
        ("drifted", svi.TestProcess.from_function(smooth, G=G)),
        ("solution", svi.SolutionTestProcess(ens, model)),
    ]
    return out


def run_mosco_table(cfg: ExperimentConfig, outdir: Path | None = None) -> ConvergenceTable:
    grid = _parse_grid(cfg)
    seq, _, target = _gradient_schedule(cfg, grid, "delta")
    report = mosco.mosco_trend([raw_pot for _, _, raw_pot in seq], target, lambdas=(1.0,))
    if outdir is not None:
        report.to_csv(outdir / "mosco_report.csv")
        (outdir / "mosco_summary.txt").write_text(report.summary() + "\n", encoding="utf-8")
    rows = []
    for i, (value, _, _) in enumerate(seq):
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
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    table = _RUNNERS[cfg.kind](cfg, outdir)
    table.to_csv(outdir / "table.csv")
    _write_manifest(cfg, outdir)
    return outdir
