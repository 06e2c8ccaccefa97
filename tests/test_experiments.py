import configparser
import io
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from spdelab import cli, engine, experiments, mosco, potentials
from spdelab.experiments import ConfigError, cell_average_over_period, parse_config, weight_function
from spdelab.grids import GridFunction, box_grid

ROOT = Path(__file__).resolve().parents[1]


BASE = """
[experiment]
kind = {kind}
seed = 11
n_paths = 6
output_dir = {outdir}

[grid]
cells = 32

[potential]
p = 1.5
schedule = {schedule}
schedule_kind = power

[noise]
kind = additive
modes = 2
amplitude = 0.1

[scheme]
dt = 2e-3
steps = 15
delta = 1e-2
"""


def write_cfg(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def edit(text, drop=(), set_=()):
    """``text`` without the ``drop`` entries (``"section key"`` or a whole
    ``"section"``) and with the ``(section, key, value)`` entries of ``set_``."""
    ini = configparser.ConfigParser(interpolation=None)
    ini.read_string(text)
    for name in drop:
        section, _, key = name.partition(" ")
        removed = ini.remove_option(section, key) if key else ini.remove_section(section)
        assert removed, name
    for section, key, value in set_:
        if not ini.has_section(section):
            ini.add_section(section)
        ini.set(section, key, value)
    out = io.StringIO()
    ini.write(out)
    return out.getvalue()


UNSCHEDULED = ("potential schedule", "potential schedule_kind")  # keys the kinds without a schedule do not read


def test_parse_rejects_unknown_key(tmp_path):
    text = BASE.format(kind="trotter_plaplace", outdir=tmp_path, schedule="1.9,1.7") + "\n[scheme]\nbogus = 1\n"
    with pytest.raises((ConfigError,)):
        parse_config(write_cfg(tmp_path, text.replace("[scheme]\nbogus", "[weird]\nbogus")))
    bad_key = BASE.format(kind="trotter_plaplace", outdir=tmp_path, schedule="1.9") .replace(
        "dt = 2e-3", "dt = 2e-3\ntypo_key = 3"
    )
    with pytest.raises(ConfigError):
        parse_config(write_cfg(tmp_path, bad_key))


def test_removed_eps_visc_key_is_rejected(tmp_path):
    text = BASE.format(kind="trotter_plaplace", outdir=tmp_path / "o", schedule="1.9").replace(
        "dt = 2e-3", "dt = 2e-3\neps_visc = 0.1"
    )
    path = write_cfg(tmp_path, text)
    with pytest.raises(ConfigError, match="eps_visc"):
        parse_config(path)
    assert cli.main(["validate", str(path)]) == 1
    assert cli.main(["run", str(path)]) == 1


def test_parse_rejects_unknown_kind_and_missing_required(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(write_cfg(tmp_path, BASE.format(kind="nope", outdir=tmp_path, schedule="1.9")))
    missing = BASE.format(kind="trotter_plaplace", outdir=tmp_path, schedule="1.9").replace("dt = 2e-3\n", "")
    with pytest.raises(ConfigError):
        parse_config(write_cfg(tmp_path, missing))


def test_parse_rejects_empty_schedule(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(write_cfg(tmp_path, BASE.format(kind="trotter_plaplace", outdir=tmp_path, schedule=" ")))


def test_budget_guardrail(tmp_path):
    text = BASE.format(kind="trotter_plaplace", outdir=tmp_path, schedule="1.9,1.7").replace(
        "n_paths = 6", "n_paths = 6\nbudget = 10"
    )
    with pytest.raises(ConfigError):
        parse_config(write_cfg(tmp_path, text))


def test_weight_functions_and_cell_average():
    cos = weight_function("cosine")
    assert cell_average_over_period(cos) == pytest.approx(2.0, abs=1e-12)
    chk = weight_function("checkerboard")
    assert cell_average_over_period(chk) == pytest.approx(2.0, abs=1e-12)
    const = weight_function("constant:1.5")
    assert cell_average_over_period(const) == pytest.approx(1.5)


def test_trivial_single_element_schedule_matches_target(tmp_path):
    text = BASE.format(kind="trotter_plaplace", outdir=tmp_path / "out", schedule="1.5")
    cfg = parse_config(write_cfg(tmp_path, text))
    table = experiments.run_trotter_plaplace(cfg)
    assert len(table.rows) == 1
    assert table.rows[0].weak_metric < 1e-12
    assert table.rows[0].resolvent_distance < 1e-9


def test_run_experiment_writes_deterministic_outputs(tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    t1 = BASE.format(kind="trotter_plaplace", outdir=out1, schedule="1.9,1.6")
    t2 = BASE.format(kind="trotter_plaplace", outdir=out2, schedule="1.9,1.6")
    d1 = experiments.run_experiment(parse_config(write_cfg(tmp_path, t1, "a.ini")))
    d2 = experiments.run_experiment(parse_config(write_cfg(tmp_path, t2, "b.ini")))
    csv1 = (d1 / "table.csv").read_text().splitlines()
    csv2 = (d2 / "table.csv").read_text().splitlines()

    def strip_wall(lines):
        return [",".join(l.split(",")[:-1]) for l in lines]

    assert strip_wall(csv1) == strip_wall(csv2)
    assert (d1 / "manifest.txt").exists()


def test_manifest_records_the_run_tolerances(tmp_path):
    text = BASE.format(kind="trotter_plaplace", outdir=tmp_path / "out", schedule="1.9")
    text = edit(text, set_=(("grid", "cells", "16"), ("experiment", "n_paths", "2"), ("scheme", "steps", "3"),
                            ("scheme", "prox_tol", "1e-6")))
    outdir = experiments.run_experiment(parse_config(write_cfg(tmp_path, text)))
    lines = (outdir / "manifest.txt").read_text().splitlines()
    manifest = dict(line.split(" = ", 1) for line in lines)
    assert float(manifest["prox_tol"]) == 1e-6
    assert float(manifest["resolvent_tol"]) == mosco.RESOLVENT_TOL


def test_every_kind_has_a_runner_taking_cfg_and_outdir():
    import inspect

    assert set(experiments._RUNNERS) == set(experiments.EXPERIMENT_KINDS)
    for runner in experiments._RUNNERS.values():
        assert list(inspect.signature(runner).parameters) == ["cfg", "outdir"]


def test_mosco_table_experiment(tmp_path):
    text = BASE.format(kind="mosco_table", outdir=tmp_path / "out", schedule="1.0,0.5,0.25")
    text = edit(text.replace("schedule_kind = power", "schedule_kind = delta"), drop=("noise", "scheme delta"))
    cfg = parse_config(write_cfg(tmp_path, text))
    outdir = experiments.run_experiment(cfg)
    assert (outdir / "mosco_report.csv").exists()
    assert (outdir / "mosco_summary.txt").exists()
    rows = (outdir / "table.csv").read_text().strip().splitlines()
    assert len(rows) == 4  # header + 3 schedule elements
    dists = [float(r.split(",")[3]) for r in rows[1:]]
    assert dists[2] < dists[0]


def test_svi_audit_experiment(tmp_path):
    text = edit(BASE.format(kind="svi_audit_run", outdir=tmp_path / "out", schedule="1.5"), drop=UNSCHEDULED)
    cfg = parse_config(write_cfg(tmp_path, text))
    outdir = experiments.run_experiment(cfg)
    table = (outdir / "table.csv").read_text().strip().splitlines()
    assert (outdir / "svi_energy.csv").exists()
    assert (outdir / "svi_solution.csv").exists()
    passed_col = [float(r.split(",")[-1]) for r in table[1:]]
    assert all(p == 1.0 for p in passed_col)


def test_nonlocal_experiment_smoke(tmp_path):
    text = edit(BASE.format(kind="nonlocal_to_local", outdir=tmp_path / "out", schedule="1.5"), drop=UNSCHEDULED)
    text += "\n[kernel]\nprofile = bump\neps_schedule = 0.3, 0.2\n"
    text = text.replace("cells = 32", "cells = 48").replace("p = 1.5", "p = 2.0")
    cfg = parse_config(write_cfg(tmp_path, text))
    outdir = experiments.run_experiment(cfg)
    rows = (outdir / "table.csv").read_text().strip().splitlines()[1:]
    gaps = [float(r.split(",")[4]) for r in rows]
    assert gaps[1] < gaps[0]


def test_homogenize_requires_weight(tmp_path):
    text = BASE.format(kind="homogenize_plaplace", outdir=tmp_path / "out", schedule="0.25,0.125")
    text = edit(text, drop=UNSCHEDULED)
    text += "\n[kernel]\neps_schedule = 0.25, 0.125\n"
    with pytest.raises(ConfigError, match="weight"):
        parse_config(write_cfg(tmp_path, text))


def test_cli_validate_run_and_listing(tmp_path, capsys):
    cfg_path = write_cfg(
        tmp_path, BASE.format(kind="trotter_plaplace", outdir=tmp_path / "cli_out", schedule="1.6")
    )
    assert cli.main(["validate", str(cfg_path)]) == 0
    assert cli.main(["list-experiments"]) == 0
    out = capsys.readouterr().out
    for kind in experiments.EXPERIMENT_KINDS:
        assert kind in out
    assert cli.main(["version"]) == 0
    assert cli.main(["run", str(cfg_path)]) == 0
    assert (tmp_path / "cli_out" / "table.csv").exists()


def explicit_audit_config(tmp_path, cells, dt):
    """The svi_audit_run config of BASE with the explicit Yosida drift."""
    text = BASE.format(kind="svi_audit_run", outdir=tmp_path / f"audit{cells}", schedule="1.5")
    text = edit(text, drop=UNSCHEDULED, set_=[("grid", "cells", str(cells)), ("scheme", "dt", repr(dt)),
                                              ("scheme", "drift", "explicit_yosida")])
    return write_cfg(tmp_path, text, f"audit{cells}.ini")


def explicit_step_limit(cells):
    """``dt`` at which ``dt * Lip`` of the audit run's drift reaches 1.9."""
    return 1.9 / potentials.p_dirichlet(box_grid((cells,)), 1.5, delta=1e-2).drift_lipschitz_bound()


def test_cli_explicit_drift_only_validates_for_svi_audit(tmp_path):
    # the schedule runs build their scheme without delta, so only the audit
    # run can honour the explicit Yosida drift
    text = BASE.format(kind="trotter_plaplace", outdir=tmp_path / "trotter", schedule="1.6")
    path = write_cfg(tmp_path, text.replace("dt = 2e-3", "dt = 2e-3\ndrift = explicit_yosida"))
    with pytest.raises(ConfigError, match=r"trotter_plaplace does not read \[scheme\] drift"):
        parse_config(path)
    assert cli.main(["validate", str(path)]) == 1
    assert cli.main(["validate", str(explicit_audit_config(tmp_path, 8, explicit_step_limit(8)))]) == 0


def test_explicit_drift_past_the_step_bound_is_a_config_error(tmp_path, capsys):
    # 32 cells at dt = 2e-3 give dt * Lip = 819.2, far past the explicit Euler limit 2
    path = explicit_audit_config(tmp_path, 32, 2e-3)
    assert cli.main(["validate", str(path)]) == 1
    assert cli.main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert "config error: svi_audit_run: [scheme] dt" in err and "819.2" in err
    path = explicit_audit_config(tmp_path, 8, explicit_step_limit(8))
    assert cli.main(["validate", str(path)]) == 0
    assert cli.main(["run", str(path)]) == 0


@pytest.mark.parametrize("ratio", [0.99, 1.0, 1.01])
def test_validate_and_simulate_share_the_explicit_step_bound(tmp_path, ratio):
    # dt * Lip = 2 * ratio on 8 cells; at ratio 1 both sides round alike
    grid = box_grid((8,))
    pot = potentials.p_dirichlet(grid, 1.5, delta=1e-2)
    dt = 2.0 * ratio / pot.drift_lipschitz_bound()
    validated = cli.main(["validate", str(explicit_audit_config(tmp_path, 8, dt))]) == 0
    sp = engine.SchemeParams(dt=dt, steps=1, delta=1e-2, drift="explicit_yosida")
    noise = engine.AdditiveNoise([GridFunction(grid, np.ones(8))])
    try:
        engine.simulate(GridFunction(grid, np.zeros(8)), pot, noise, sp, 1, seed=3)
        simulated = True
    except ValueError as exc:
        assert "dt * Lip <= 2" in str(exc)
        simulated = False
    assert validated == simulated
    if ratio != 1.0:
        assert validated == (ratio < 1.0)


def test_import_loads_no_quadrature_or_optimizer():
    # every process pays for what `import spdelab.cli` loads; scipy.integrate
    # alone would bring scipy.optimize and scipy.special along
    code = ("import sys, spdelab, spdelab.cli; print(sorted(m for m in "
            "('scipy.integrate', 'scipy.optimize', 'scipy.special') if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.strip() == "[]"


def test_import_leaves_the_sparse_factorization_to_hminus1_runs():
    # only the H^-1 geometry factors the Dirichlet Laplacian; L2 runs never
    # load scipy.sparse.linalg, and the first Dirichlet solve loads it
    code = ("import sys, numpy as np, spdelab.cli\n"
            "from spdelab import grids\n"
            "print('scipy.sparse.linalg' in sys.modules)\n"
            "g = grids.box_grid((4, 4)); b = np.arange(16.0)\n"
            "w = grids.dirichlet_solve(g, b)\n"
            "print(np.abs(grids.neg_laplacian_matrix(g, grids.DIRICHLET) @ w - b).max() < 1e-12)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.split() == ["False", "True"]


def test_cli_bad_config_exit_code(tmp_path):
    bad = write_cfg(tmp_path, "[experiment]\nkind = nope\nseed = 1\noutput_dir = x\n")
    assert cli.main(["validate", str(bad)]) == 1
    assert cli.main(["run", str(bad)]) == 1
    assert cli.main(["run", str(tmp_path / "missing.ini")]) == 1


def test_cli_numerical_failure_exit_code(tmp_path, monkeypatch):
    from spdelab.potentials import ProxDidNotConverge

    cfg_path = write_cfg(
        tmp_path, BASE.format(kind="trotter_plaplace", outdir=tmp_path / "o", schedule="1.6")
    )

    def boom(cfg):
        raise ProxDidNotConverge("synthetic stall", 1.0)

    monkeypatch.setattr(cli, "run_experiment", boom)
    assert cli.main(["run", str(cfg_path)]) == 2


def test_cli_non_finite_state_exit_code(tmp_path, monkeypatch, capsys):
    from spdelab import potentials

    cfg_path = write_cfg(
        tmp_path, BASE.format(kind="trotter_plaplace", outdir=tmp_path / "o", schedule="1.6")
    )

    def nan_prox(self, lam, F, tol=1e-9, warm=None):
        return np.full_like(F, np.nan), 0.0, 1

    monkeypatch.setattr(potentials._DifferencePenaltyPotential, "prox_batch", nan_prox)
    assert cli.main(["run", str(cfg_path)]) == 2
    assert "non-finite state on path 0 at step 1" in capsys.readouterr().err


def test_cli_stalled_prox_names_its_step_and_paths(tmp_path, monkeypatch, capsys):
    from spdelab import potentials

    cfg_path = write_cfg(
        tmp_path, BASE.format(kind="trotter_plaplace", outdir=tmp_path / "o", schedule="1.6")
    )

    def stall(self, lam, F, tol=1e-9, warm=None):
        raise potentials.ProxDidNotConverge(f"FISTA prox of {self.label} stalled", 1.0, rows=[4])

    monkeypatch.setattr(potentials._DifferencePenaltyPotential, "prox_batch", stall)
    assert cli.main(["run", str(cfg_path)]) == 2
    assert re.search(r"FISTA prox of p_dirichlet\[.*\] stalled at step 1 on paths \[4\]", capsys.readouterr().err)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself
def test_cli_overflowed_noise_exit_code(tmp_path, capsys):
    # the overflowed rows used to settle as converged: exit 0, weak_metric 0
    text = edit(BASE.format(kind="trotter_plaplace", outdir=tmp_path / "o", schedule="1.6"),
                set_=[("grid", "cells", "8x8"), ("experiment", "n_paths", "2"),
                      ("noise", "amplitude", "1e200"), ("scheme", "steps", "3")])
    assert cli.main(["run", str(write_cfg(tmp_path, text))]) == 2
    assert "stalled at step 1 on paths [0, 1]" in capsys.readouterr().err


def test_svi_audit_needs_two_paths(tmp_path, capsys):
    # one path validated, then every standard error came out NaN and every
    # verdict "fail"; mosco_table simulates nothing and keeps n_paths = 1
    audit = edit(BASE.format(kind="svi_audit_run", outdir=tmp_path / "a", schedule="1.5"),
                 drop=UNSCHEDULED, set_=[("experiment", "n_paths", "1")])
    assert cli.main(["validate", str(write_cfg(tmp_path, audit, "audit.ini"))]) == 1
    assert "[experiment] n_paths" in capsys.readouterr().err
    mosco = edit(tiny_text(tmp_path, "mosco_table"), set_=[("experiment", "n_paths", "1")])
    assert cli.main(["validate", str(write_cfg(tmp_path, mosco, "mosco.ini"))]) == 0


# One tiny case per schedule kind: 24 cells, 3 paths, 4 steps.
TINY = """
[experiment]
kind = {kind}
seed = 5
n_paths = 3
output_dir = {outdir}

[grid]
cells = 24

[potential]
{potential}

[noise]
kind = additive
modes = 2
amplitude = 0.1

[scheme]
dt = 2e-3
steps = 4
delta = 1e-2
{kernel}
"""

TINY_CASES = {
    "trotter_plaplace": ("trotter_plaplace", "p = 1.5\nschedule = 1.9, 1.7\nschedule_kind = power", ""),
    "trotter_fastdiffusion": ("trotter_fastdiffusion", "m = 0.5\nschedule = 0.9, 0.8\nschedule_kind = power", ""),
    "nonlocal_to_local": ("nonlocal_to_local", "p = 2.0",
                          "[kernel]\nprofile = bump\neps_schedule = 0.3, 0.2"),
    "homogenize_plaplace": ("homogenize_plaplace", "p = 1.5\nweight = cosine",
                            "[kernel]\neps_schedule = 0.25, 0.125"),
    "homogenize_fastdiffusion": ("homogenize_fastdiffusion", "m = 0.5\nweight = cosine",
                                 "[kernel]\neps_schedule = 0.25, 0.125"),
    "mosco_table": ("mosco_table", "p = 1.5\nschedule = 1.0, 0.5", ""),
    "mosco_table_visc": ("mosco_table", "p = 1.5\nschedule = 1.0, 0.5\nvisc = 0.1", ""),
}


def tiny_text(tmp_path, case):
    kind, potential, kernel = TINY_CASES[case]
    text = TINY.format(kind=kind, outdir=tmp_path / "out", potential=potential, kernel=kernel)
    # mosco_table simulates nothing, so it reads no noise and no Yosida delta
    return edit(text, drop=("noise", "scheme delta")) if kind == "mosco_table" else text


def numbers(path, drop=("index", "wall_time")):
    """The columns of a CSV as floats, without those named in ``drop``."""
    header, *rows = path.read_text().strip().splitlines()
    keep = [j for j, name in enumerate(header.split(",")) if name not in drop]
    return [[float(r.split(",")[j]) for j in keep] for r in rows]


def tiny_table_text(tmp_path, text):
    return numbers(experiments.run_experiment(parse_config(write_cfg(tmp_path, text))) / "table.csv")


def tiny_table(tmp_path, case):
    return tiny_table_text(tmp_path, tiny_text(tmp_path, case))


# parameter, weak_metric, resolvent_distance, energy_gap and the extra columns
@pytest.mark.parametrize("case", sorted(TINY_CASES))
def test_schedule_kind_numeric_columns_are_pinned(tmp_path, case, pinned):
    pinned(tiny_table(tmp_path, case))


# the numeric columns of table.csv (wall time dropped) and of every svi_*.csv
# (the verdict dropped) of a 16-cell, 4-path, 12-step svi_audit_run
def test_svi_audit_numeric_columns_are_pinned(tmp_path, pinned):
    text = edit(BASE.format(kind="svi_audit_run", outdir=tmp_path / "out", schedule="1.5"), drop=UNSCHEDULED,
                set_=[("grid", "cells", "16"), ("experiment", "n_paths", "4"), ("scheme", "steps", "12")])
    outdir = experiments.run_experiment(parse_config(write_cfg(tmp_path, text)))
    tables = {path.name: numbers(path, drop=("verdict",)) for path in sorted(outdir.glob("svi_*.csv"))}
    pinned({"table.csv": numbers(outdir / "table.csv"), **tables})


def test_one_path_schedule_run_warns_nothing(tmp_path, pinned):
    # the weak metric takes no per-path standard error, so one path has no
    # degrees-of-freedom warning
    text = edit(tiny_text(tmp_path, "trotter_plaplace"), set_=[("experiment", "n_paths", "1")])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", str(write_cfg(tmp_path, text))]) == 0
    pinned(numbers(tmp_path / "out" / "table.csv"))


# parameter, weak_metric, resolvent_distance and energy_gap of tiny viscosity
# schedules, recorded while the schedule composed psi + (1/value) s^2 / 2 as a
# profile of its own.  The face term visc + 1/value is the same energy, so
# the columns agree to rounding (<= 5.3e-15 relative on these runs).
VISCOSITY_SCHEDULE_TABLES = {
    # Yosida p = 1 with the face term: primal Newton; raw p = 1: smooth dual
    "trotter_plaplace": ("p = 1.0\nschedule = 10, 40\nschedule_kind = viscosity\nvisc = 0.05", [
        [10.0, 2.4512432310307502e-05, 0.0, 76.356811610033716],
        [40.0, 6.2206364499706182e-06, 0.0, 19.089202902508433],
    ]),
    "mosco_table": ("p = 1.5\nschedule = 10, 40\nschedule_kind = viscosity", [
        [10.0, 0.0, 0.00013643091705112421, 64.83284563292105],
        [40.0, 0.0, 3.578255038319997e-05, 16.208211408230255],
    ]),
}


@pytest.mark.parametrize("kind", sorted(VISCOSITY_SCHEDULE_TABLES))
def test_viscosity_schedule_keeps_its_table(tmp_path, kind):
    potential, expected = VISCOSITY_SCHEDULE_TABLES[kind]
    text = TINY.format(kind=kind, outdir=tmp_path / "out", potential=potential, kernel="")
    if kind == "mosco_table":
        text = edit(text, drop=("noise", "scheme delta"))
    assert tiny_table_text(tmp_path, text) == [pytest.approx(row, rel=1e-13, abs=0.0) for row in expected]


def test_fast_diffusion_power_schedule_approaches_the_raw_m0_resolvent(tmp_path):
    # the m = 0 target's resolvents are the raw ones; against a target
    # regularized at [scheme] delta the distance plateaued at about 1e-4
    potential = "m = 0\nschedule = 0.5, 0.25, 0.1, 0.05\nschedule_kind = power"
    text = TINY.format(kind="trotter_fastdiffusion", outdir=tmp_path / "out", potential=potential, kernel="")
    outdir = experiments.run_experiment(parse_config(write_cfg(tmp_path, text)))
    header, *rows = (outdir / "table.csv").read_text().strip().splitlines()
    column = header.split(",").index("resolvent_distance")
    assert float(rows[-1].split(",")[column]) <= 1e-10


# Per kind: keys it does not read, a key it requires and a value it rejects.
# Only svi_audit_run reads [scheme] drift, and no kind reads ic_smoothing.
SCHEMA_CASES = {
    "trotter_plaplace": ([("potential", "m", "0.5"), ("scheme", "drift", "implicit_prox")], "potential schedule",
                         ("potential", "schedule_kind", "bogus")),
    "trotter_fastdiffusion": ([("potential", "visc", "0.1"), ("scheme", "drift", "implicit_prox")],
                              "potential schedule", ("potential", "schedule_kind", "viscosity")),
    "nonlocal_to_local": ([("potential", "m", "0.5")], "potential p", ("kernel", "profile", "cone")),
    "homogenize_plaplace": ([("potential", "schedule", "0.25, 0.125")], "kernel eps_schedule",
                            ("potential", "weight", "none")),
    "homogenize_fastdiffusion": ([("kernel", "profile", "bump")], "potential weight", ("potential", "m", "0")),
    "svi_audit_run": ([("potential", "schedule", "1.5"), ("scheme", "ic_smoothing", "0")], "scheme dt",
                      ("grid", "cells", "0")),
    "mosco_table": ([("noise", "kind", "additive")], "experiment seed", ("grid", "cells", "16x")),
}


@pytest.mark.parametrize("kind", sorted(SCHEMA_CASES))
def test_validate_honours_or_rejects_every_key(tmp_path, capsys, kind):
    if kind == "svi_audit_run":
        text = edit(BASE.format(kind=kind, outdir=tmp_path / "out", schedule="1.5"), drop=UNSCHEDULED)
    else:
        text = tiny_text(tmp_path, kind)
    assert cli.main(["validate", str(write_cfg(tmp_path, text))]) == 0
    unread, required, bad = SCHEMA_CASES[kind]
    broken = [(edit(text, set_=[key]), "[{}] {}".format(*key)) for key in unread] + [
        (edit(text, drop=[required]), "[{}] {}".format(*required.split())),
        (edit(text, set_=[bad]), "[{}] {}".format(*bad)),
    ]
    for case, name in broken:
        capsys.readouterr()
        assert cli.main(["validate", str(write_cfg(tmp_path, case))]) == 1, name
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {kind}") and name in err


def test_benchmark_and_shipped_configs_validate(tmp_path, monkeypatch):
    # the benchmark validates its generated configs before it runs them, so a
    # schema that rejected one of their keys would fail every benchmark unit
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    paths = sorted((ROOT / "configs").glob("*.ini"))
    assert len(paths) == 3
    for workload in (workloads.Trotter1D, workloads.MoscoTable):
        for seed in (1, 7):
            for smoke in (True, False):
                bench = workload(seed, smoke, tmp_path)
                paths.append(write_cfg(tmp_path, bench.config_text(), f"{bench.name}-{seed}-{smoke}.ini"))
    assert [cli.main(["validate", str(path)]) for path in paths] == [0] * len(paths)
