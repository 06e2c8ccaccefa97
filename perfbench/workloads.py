"""The benchmark's workloads: inputs generated from the seed, set-up, one
unit of fixed work, and the outputs that are checked against references.

A unit is the fixed work whose duration is ``wall_s``.  ``run`` does the
timed part and returns failure events (a raised error or a nonzero exit
code, one each); ``outputs`` reads the results back afterwards, untimed.
``ops`` counts the operations a unit attempts (``simulate`` calls,
certified ``prox`` calls and CLI runs); the traced run checks these counts
against the spans it records.
"""

from __future__ import annotations

import contextlib
import csv
import io
import re
import sys
import traceback
from pathlib import Path

VARIANTS = 16  # input variant = seed % VARIANTS; references exist for each


def _quiet(fn, *args):
    """Call ``fn`` with its standard output captured (the CLI prints a line)."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def _report(exc: BaseException, what: str) -> None:
    print(f"perfbench: {what} raised {type(exc).__name__}: {exc}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


class _CliWorkload:
    """A generated INI config run as ``spdelab run <config>``."""

    name = ""

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.variant = seed % VARIANTS
        self.smoke = smoke
        self.config = workdir / f"{self.name}.ini"
        self.outdir = workdir / self.name

    def config_text(self) -> str:
        raise NotImplementedError

    def setup(self):
        """Write the config and validate it, as ``spdelab validate`` does."""
        from spdelab import cli

        self.config.write_text(self.config_text(), encoding="utf-8")
        if _quiet(cli.main, ["validate", str(self.config)]) != 0:
            raise RuntimeError(f"generated config {self.config} does not validate")
        return cli

    def run(self, cli, span) -> int:
        try:
            return int(_quiet(cli.main, ["run", str(self.config)]) != 0)
        except Exception as exc:  # a crash is one failed operation, the run goes on
            _report(exc, "spdelab run")
            return 1


class Trotter1D(_CliWorkload):
    """``trotter_plaplace`` in the shape of configs/trotter_plaplace.ini."""

    name = "trotter_1d"
    schedule = (1.9, 1.7, 1.6, 1.55)
    cells = 64
    probes = 8  # experiments._run_schedule builds 8 resolvent probes

    @property
    def paths_steps(self):
        return (2, 3) if self.smoke else (64, 12)

    def config_text(self) -> str:
        paths, steps = self.paths_steps
        sched = self.schedule[:2] if self.smoke else self.schedule
        return (
            "[experiment]\nkind = trotter_plaplace\n"
            f"seed = {self.variant}\nn_paths = {paths}\noutput_dir = {self.outdir}\n"
            f"[grid]\ncells = {self.cells}\nextent = 1.0\n"
            f"[potential]\np = 1.5\nschedule = {', '.join(map(str, sched))}\nschedule_kind = power\n"
            "[noise]\nkind = additive\nmodes = 2\namplitude = 0.1\n"
            f"[scheme]\ndt = 1e-3\nsteps = {steps}\ndelta = 1e-2\nprox_tol = 1e-9\n"
        )

    def ops(self) -> dict:
        n = 2 if self.smoke else len(self.schedule)
        return {"cli": 1, "simulate": 1 + n, "prox": 2 * self.probes * n}

    def cell_steps(self) -> int:
        paths, steps = self.paths_steps
        return self.cells * paths * steps * self.ops()["simulate"]

    def outputs(self, state) -> dict:
        """Numeric columns of table.csv except the wall time."""
        out = {}
        with open(self.outdir / "table.csv", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                for col in ("parameter", "weak_metric", "resolvent_distance", "energy_gap"):
                    out[f"row{row['index']}.{col}"] = float(row[col])
        return out


class MoscoTable(_CliWorkload):
    """``mosco_table`` on the delta schedule 0.1, 0.05, 0.025; 16 default
    probes, lambda = 1.

    The runner draws no random numbers (the probe panel has its own fixed
    seed), so the seed reaches only the config's ``seed`` key and every seed
    sees the same work.  Varying the schedule instead would change the
    Newton iteration counts, and with them the cost, from seed to seed.
    """

    name = "mosco_table"
    probes = 16

    @property
    def schedule(self):
        return (0.1, 0.05) if self.smoke else (0.1, 0.05, 0.025)

    def config_text(self) -> str:
        cells = 16 if self.smoke else 64
        return (
            "[experiment]\nkind = mosco_table\n"
            f"seed = {self.variant}\nn_paths = 1\noutput_dir = {self.outdir}\n"
            f"[grid]\ncells = {cells}\n"
            f"[potential]\np = {2.0 if self.smoke else 1.5}\n"
            f"schedule = {', '.join(repr(d) for d in self.schedule)}\nschedule_kind = delta\n"
            "[scheme]\ndt = 1e-3\nsteps = 1\n"
        )

    def ops(self) -> dict:
        n = len(self.schedule)
        # target + each schedule element per probe; condition (N) at 3 lambdas
        return {"cli": 1, "simulate": 0, "prox": self.probes * (n + 1) + 3 * (n + 1)}

    def cell_steps(self) -> int:
        return 0

    def outputs(self, state) -> dict:
        """Resolvent distances, condition (N) and the converging-verdict count."""
        out = {}
        with open(self.outdir / "mosco_report.csv", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                out[f"d{row['sequence_index']}.{row['probe_id']}.{row['lambda']}"] = float(row["distance"])
        summary = (self.outdir / "mosco_summary.txt").read_text(encoding="utf-8")
        hit = re.search(r"(\d+)/(\d+) probes converging; condition_N=(ok|FAILED)", summary)
        if hit is None:
            raise ValueError(f"unreadable mosco summary: {summary!r}")
        out["converging"] = float(hit.group(1))
        out["probes"] = float(hit.group(2))
        out["condition_n"] = 1.0 if hit.group(3) == "ok" else 0.0
        return out


class EnsemblesSparse:
    """Direct ``engine.simulate`` calls for the families whose Newton systems
    are not tridiagonal: 2D p-Laplace (L2), 2D fast diffusion (H^-1) and 1D
    nonlocal.  Each family gets its own span."""

    name = "ensembles_sparse"

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.variant = seed % VARIANTS
        self.smoke = smoke
        # family -> (cells per axis, dimension, paths, steps)
        if smoke:
            self.sizes = {"plaplace_2d": (8, 2, 2, 2), "fastdiff_2d": (8, 2, 2, 2), "nonlocal_1d": (32, 1, 2, 2)}
        else:
            self.sizes = {"plaplace_2d": (32, 2, 4, 4), "fastdiff_2d": (32, 2, 6, 6), "nonlocal_1d": (64, 1, 8, 16)}

    def setup(self):
        """Grids, potentials, noise models and their cached operators: face
        matrices, the pair stencil (with its c_jp quadrature) and the
        Dirichlet LU."""
        import numpy as np

        from spdelab import engine, grids, kernels, potentials

        fams = {}
        for fam, (n, dim, paths, steps) in self.sizes.items():
            grid = grids.box_grid((n,) * dim)
            if fam == "plaplace_2d":
                pot = potentials.p_dirichlet(grid, 1.5, delta=1e-2)
            elif fam == "fastdiff_2d":
                pot = potentials.fast_diffusion(grid, 0.5, delta=1e-2)
                grids.dirichlet_solve(grid, np.zeros(grid.num_cells))
            else:
                pot = potentials.nonlocal_p(grid, kernels.Kernel("bump", 1), 0.1, 1.5, delta=1e-2)
            space = pot.space
            xs = grid.centers()
            x0 = np.ones(grid.shape)
            for a, x in enumerate(xs):
                x0 = x0 * np.sin(np.pi * x / grid.extents[a])
            modes = []
            for k in range(2):
                mode = np.ones(grid.shape)
                for a, x in enumerate(xs):
                    mode = mode * np.sin(np.pi * (k + 1) * x / grid.extents[a] + 0.25 * a)
                modes.append(grids.GridFunction(grid, 0.1 * mode / (k + 1.0), space))
            fams[fam] = (
                grids.GridFunction(grid, x0, space),
                pot,
                engine.AdditiveNoise(modes),
                engine.SchemeParams(dt=1e-3, steps=steps, delta=1e-2, prox_tol=1e-9),
                paths,
            )
        return {"families": fams, "results": {}}

    def run(self, state, span) -> int:
        from spdelab import engine

        failed = 0
        state["results"].clear()
        for fam, (x0, pot, model, sp, paths) in state["families"].items():
            with span(f"bench.family.{fam}"):
                try:
                    state["results"][fam] = engine.simulate(x0, pot, model, sp, paths, self.variant)
                except Exception as exc:  # one failed simulate call; the others still run
                    _report(exc, f"simulate ({fam})")
                    failed += 1
        return failed

    def ops(self) -> dict:
        return {"cli": 0, "simulate": len(self.sizes), "prox": 0}

    def cell_steps(self) -> int:
        return sum(n**dim * paths * steps for n, dim, paths, steps in self.sizes.values())

    def outputs(self, state) -> dict:
        """Per family: final-state mean, mean H-norm and mean energy."""
        import numpy as np

        from spdelab import grids

        out = {}
        for fam, ens in state["results"].items():
            pot = state["families"][fam][1]
            final = ens.states[:, -1, :]
            out[f"{fam}.mean"] = float(np.mean(final))
            out[f"{fam}.hnorm"] = float(np.mean(np.sqrt(grids.space_norm_sq(ens.grid, final, ens.space))))
            out[f"{fam}.energy"] = float(np.mean(pot.eval_batch(final)))
        return out


WORKLOADS = {w.name: w for w in (Trotter1D, EnsemblesSparse, MoscoTable)}
