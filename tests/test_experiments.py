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

from spdelab import cli, experiments, mosco, potentials
from spdelab.experiments import ConfigError, cell_average_over_period, parse_config, weight_function
from spdelab.grids import box_grid

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


def hex_table(outdir):
    """Numeric columns of ``outdir/table.csv`` (wall time dropped) as ``float.hex``."""
    header, *rows = (outdir / "table.csv").read_text().strip().splitlines()
    wall = header.split(",").index("wall_time")
    return [[float.hex(float(v)) for j, v in enumerate(r.split(",")[1:], 1) if j != wall] for r in rows]


def tiny_table_text(tmp_path, text):
    return hex_table(experiments.run_experiment(parse_config(write_cfg(tmp_path, text))))


def tiny_table(tmp_path, case):
    return tiny_table_text(tmp_path, tiny_text(tmp_path, case))


# float.hex of parameter, weak_metric, resolvent_distance, energy_gap and the
# extra columns.  The visc-free cases were recorded before the runners shared
# one schedule loop.  mosco_table used to ignore [potential] visc; its visc
# case equals mosco.mosco_trend over p_dirichlet(..., visc=0.1) potentials.
# nonlocal_to_local was re-recorded when its Newton direction moved from a
# sparse LU per row to one banded Cholesky per step (rounding only, <= 7e-14
# relative), and again when C_{J,p} moved from radial quadrature to its closed
# form (14 -> 14 - 1 ulp for this bump at p = 2; <= 1.6e-13 relative), and
# again when the pair edges were ordered by lower cell for a narrow Gram band
# (summation order only; <= 2.0e-13 relative).
# trotter_plaplace and trotter_fastdiffusion were re-recorded when the
# general-p Yosida radius moved to Newton from above the root, whose radii are
# within 2e-16 of the exact root where the old bracketed Newton was up to
# 1e-12 relative off (weak_metric <= 6.8e-15 relative, other columns <= 1 ulp).
# The trotter, homogenize and mosco_table_visc cases were re-recorded when the
# profile maps moved to one power per point (value r t / p for r^p / p, and the
# curvature from t = r^(p-1)): rounding only, <= 7.8e-14 relative.
# trotter_fastdiffusion's row-1 weak_metric was re-recorded (+2 ulp) when
# tests/conftest.py fixed numpy's dispatch below AVX-512, and six entries of
# five cases when it put OpenBLAS on its Haswell kernels (<= 2.9e-16
# relative, but nonlocal_to_local's row-1 resolvent_distance 1.9e-13).
# nonlocal_to_local's energy_gap was re-recorded when the gap took the nonlocal
# energy from NonlocalPotential.eval instead of a second copy of the pair sum
# (rounding only: +4 ulp on row 0, 7.2e-16 relative; +8 ulp on row 1, 1.3e-15).
TINY_GOLDEN = {
    'homogenize_fastdiffusion': [
        ['0x1.0000000000000p-2', '0x1.8a356fa60098dp-18', '0x1.5e2327a007c8fp-14', '0x1.80bd26fc16200p-5', '0x1.0000000000000p+1', '-0x1.14468b980884cp-3'],
        ['0x1.0000000000000p-3', '0x1.2ec3c9522fab7p-17', '0x1.ef67b6344bc4cp-14', '0x1.4508e7837f670p-4', '0x1.0000000000000p+1', '-0x1.14468b980884cp-3'],
    ],
    'homogenize_plaplace': [
        ['0x1.0000000000000p-2', '0x1.cf0a9814aea50p-14', '0x1.2c94e36fe92a0p-11', '0x1.8ce5e6ea4b180p+2', '0x1.0000000000000p+1'],
        ['0x1.0000000000000p-3', '0x1.39850cec476f7p-17', '0x1.e940ed520ecd0p-14', '0x1.fefb7bd007800p+0', '0x1.0000000000000p+1'],
    ],
    'mosco_table': [
        ['0x1.0000000000000p+0', '0x0.0p+0', '0x1.56289eaab7802p-6', '0x0.0p+0'],
        ['0x1.0000000000000p-1', '0x0.0p+0', '0x1.6433232fba01cp-7', '0x0.0p+0'],
    ],
    'mosco_table_visc': [
        ['0x1.0000000000000p+0', '0x0.0p+0', '0x1.2e731f604e956p-6', '0x0.0p+0'],
        ['0x1.0000000000000p-1', '0x0.0p+0', '0x1.46d1dba812a98p-7', '0x0.0p+0'],
    ],
    'nonlocal_to_local': [
        ['0x1.3333333333333p-2', '0x1.e81998cc42de8p-15', '0x1.97e72977fded5p-10', '0x1.3c7688020bdf4p-1'],
        ['0x1.999999999999ap-3', '0x1.d3f7a533fa290p-16', '0x1.0f06292532e02p-11', '0x1.568d87f3bc308p-2'],
    ],
    'trotter_fastdiffusion': [
        ['0x1.ccccccccccccdp-1', '0x1.9a58d46dbc38bp-19', '0x1.b0578ba53331ap-8', '0x0.0p+0'],
        ['0x1.999999999999ap-1', '0x1.3e643fdbeb173p-19', '0x1.16b68f8e8f353p-8', '0x0.0p+0'],
    ],
    'trotter_plaplace': [
        ['0x1.e666666666666p+0', '0x1.936935d94ae47p-15', '0x1.2f4b97c00941ap-6', '0x1.8d744fba9f44fp+8'],
        ['0x1.b333333333333p+0', '0x1.9a7fd9f2d2831p-16', '0x1.14d211ecafa4ep-7', '0x1.088ed0a3e1fd2p+7'],
    ],
}


@pytest.mark.parametrize("case", sorted(TINY_CASES))
def test_schedule_kind_numeric_columns_are_pinned(tmp_path, case):
    assert tiny_table(tmp_path, case) == TINY_GOLDEN[case]


def hex_report_csv(path):
    """Numeric columns of an ``svi_*.csv`` (the verdict dropped) as ``float.hex``."""
    header, *rows = path.read_text().strip().splitlines()
    return [[float.hex(float(v)) for v in r.split(",")[:-1]] for r in rows]


# float.hex of the numeric columns of table.csv (wall time dropped) and of
# every svi_*.csv of a 16-cell, 4-path, 12-step svi_audit_run, recorded with
# check_energy and check_variational before the one-pass audit; two
# svi_drifted.csv entries were re-recorded (<= 3.8e-16 relative) when
# tests/conftest.py put OpenBLAS on its Haswell kernels
TINY_AUDIT_GOLDEN = {
    'table.csv': [
        ['0x0.0p+0', '0x1.f854c4c3606ccp-1', '0x1.fe697b1308ff1p-8', '0x0.0p+0', '0x1.0000000000000p+0'],
        ['0x1.0000000000000p+0', '0x1.f36d16312e4a0p-9', '0x1.f378cbb8cfe64p-8', '0x0.0p+0', '0x1.0000000000000p+0'],
        ['0x1.0000000000000p+1', '0x1.c1408ad897990p-9', '0x1.423dccce1a3a3p-8', '0x0.0p+0', '0x1.0000000000000p+0'],
        ['0x1.8000000000000p+1', '0x1.c11a8526bfc40p-9', '0x1.413a0f97449b0p-8', '0x0.0p+0', '0x1.0000000000000p+0'],
        ['0x1.0000000000000p+2', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p+0'],
    ],
    'svi_constant.csv': [
        ['0x1.0624dd2f1a9fcp-9', '0x1.ec15a5cf49824p-3', '0x1.f31aa7faabe0ap-3', '0x1.c1408ad897990p-9', '0x1.8bc901730dcfdp-10'],
        ['0x1.0624dd2f1a9fcp-8', '0x1.e639ff6f31262p-3', '0x1.f327b95f70a64p-3', '0x1.9db73e07f0050p-8', '0x1.89330bb015db5p-9'],
        ['0x1.0624dd2f1a9fcp-7', '0x1.dc6dc810bb982p-3', '0x1.f341c81f01b3ap-3', '0x1.6d4000e461b80p-7', '0x1.d0a77a391a4fbp-9'],
        ['0x1.47ae147ae147bp-7', '0x1.d7804c04ce3c3p-3', '0x1.f34ec580a2addp-3', '0x1.bce797bd4719cp-7', '0x1.e6bd00689a251p-9'],
        ['0x1.cac083126e979p-7', '0x1.cd7381ff7b7c2p-3', '0x1.f368ac589c2f5p-3', '0x1.2fa952c90599ap-6', '0x1.50fff58df84ccp-9'],
        ['0x1.0624dd2f1a9fcp-6', '0x1.c767d1890ce9ap-3', '0x1.f37595d5bef33p-3', '0x1.606e2265904c6p-6', '0x1.895da06a05079p-9'],
        ['0x1.47ae147ae147bp-6', '0x1.bc8c72757c4c8p-3', '0x1.f38f55033d147p-3', '0x1.b817146e063f8p-6', '0x1.423dccce1a3a3p-8'],
        ['0x1.89374bc6a7efap-6', '0x1.b20a13b314ea0p-3', '0x1.f3a8f9e0d897ep-3', '0x1.067b98b70eb75p-5', '0x1.4002b925e196bp-8'],
    ],
    'svi_drifted.csv': [
        ['0x1.0624dd2f1a9fcp-9', '0x1.ebcf6d6ee7d6ap-3', '0x1.f2d3d78382d5cp-3', '0x1.c11a8526bfc40p-9', '0x1.8bba000f7f317p-10'],
        ['0x1.0624dd2f1a9fcp-8', '0x1.e5afcf8658c5fp-3', '0x1.f29b48da58bf5p-3', '0x1.9d6f2a7fff2d8p-8', '0x1.89138de5dd95cp-9'],
        ['0x1.0624dd2f1a9fcp-7', '0x1.db61c4faaa635p-3', '0x1.f22d5a586428dp-3', '0x1.6cb955db9c590p-7', '0x1.d07324c569abdp-9'],
        ['0x1.47ae147ae147bp-7', '0x1.d63679c947032p-3', '0x1.f1f7fe6b87040p-3', '0x1.bc184a24000e8p-7', '0x1.e67f2060adb07p-9'],
        ['0x1.cac083126e979p-7', '0x1.cbb43e859dd8ep-3', '0x1.f1907c6373710p-3', '0x1.2ee1eeeeacc0cp-6', '0x1.50cb1c2eab31bp-9'],
        ['0x1.0624dd2f1a9fcp-6', '0x1.c5719329a4b21p-3', '0x1.f15e5500c3357p-3', '0x1.5f660eb8f41b2p-6', '0x1.88949856f5ebap-9'],
        ['0x1.47ae147ae147bp-6', '0x1.ba2dd01e10d7ep-3', '0x1.f0fd73b9137c6p-3', '0x1.b67d1cd815244p-6', '0x1.413a0f97449b0p-8'],
        ['0x1.89374bc6a7efap-6', '0x1.af4ac8aedf3a4p-3', '0x1.f0a02c9a5ec45p-3', '0x1.05558fadfe284p-5', '0x1.3ecd3966584c0p-8'],
    ],
    'svi_energy.csv': [
        ['0x1.0624dd2f1a9fcp-9', '0x1.07ab3b3c9f934p-1', '0x1.8000000000000p+0', '0x1.f854c4c3606ccp-1', '0x1.318dcb2fa88d0p-9'],
        ['0x1.0624dd2f1a9fcp-8', '0x1.036ac582b85eep-1', '0x1.8000000000000p+0', '0x1.fc953a7d47a12p-1', '0x1.27618345549f4p-8'],
        ['0x1.0624dd2f1a9fcp-7', '0x1.f8986b6e1eea5p-2', '0x1.8000000000000p+0', '0x1.01d9e52478457p+0', '0x1.583c257700c58p-8'],
        ['0x1.47ae147ae147bp-7', '0x1.f1fed25221cd9p-2', '0x1.8000000000000p+0', '0x1.03804b6b778cap+0', '0x1.675ad583ac693p-8'],
        ['0x1.cac083126e979p-7', '0x1.e58a3080149dfp-2', '0x1.8000000000000p+0', '0x1.069d73dffad88p+0', '0x1.f8f71cdc2a4cfp-9'],
        ['0x1.0624dd2f1a9fcp-6', '0x1.dee460cacd626p-2', '0x1.8000000000000p+0', '0x1.0846e7cd4ca76p+0', '0x1.31dfd81b13ee4p-8'],
        ['0x1.47ae147ae147bp-6', '0x1.d32c5ad7e4d08p-2', '0x1.8000000000000p+0', '0x1.0b34e94a06cbep+0', '0x1.fcf5f7b5338dep-8'],
        ['0x1.89374bc6a7efap-6', '0x1.c878b7f601965p-2', '0x1.8000000000000p+0', '0x1.0de1d2027f9a7p+0', '0x1.fe697b1308ff1p-8'],
    ],
    'svi_solution.csv': [
        ['0x1.0624dd2f1a9fcp-9', '0x1.c150908e2d276p-8', '0x1.c150908e2d276p-8', '0x0.0p+0', '0x0.0p+0'],
        ['0x1.0624dd2f1a9fcp-8', '0x1.a8548e46418f4p-7', '0x1.a8548e46418f4p-7', '0x0.0p+0', '0x0.0p+0'],
        ['0x1.0624dd2f1a9fcp-7', '0x1.7e84b85ec03aep-6', '0x1.7e84b85ec03aep-6', '0x0.0p+0', '0x0.0p+0'],
        ['0x1.47ae147ae147bp-7', '0x1.c7811b1ba3233p-6', '0x1.c7811b1ba3233p-6', '0x0.0p+0', '0x0.0p+0'],
        ['0x1.cac083126e979p-7', '0x1.2291f1026b63dp-5', '0x1.2291f1026b63dp-5', '0x0.0p+0', '0x0.0p+0'],
        ['0x1.0624dd2f1a9fcp-6', '0x1.3d77d32c5b51fp-5', '0x1.3d77d32c5b51fp-5', '0x0.0p+0', '0x0.0p+0'],
        ['0x1.47ae147ae147bp-6', '0x1.6b40221907928p-5', '0x1.6b40221907928p-5', '0x0.0p+0', '0x0.0p+0'],
        ['0x1.89374bc6a7efap-6', '0x1.8fdfe15fb41f6p-5', '0x1.8fdfe15fb41f6p-5', '0x0.0p+0', '0x0.0p+0'],
    ],
    'svi_zero.csv': [
        ['0x1.0624dd2f1a9fcp-9', '0x1.fc1fb1df47218p-2', '0x1.00034605d4bf1p-1', '0x1.f36d16312e4a0p-9', '0x1.23d863f4ff290p-9'],
        ['0x1.0624dd2f1a9fcp-8', '0x1.f8e48a59a95eep-2', '0x1.00068a5f05f08p-1', '0x1.ca229918a0860p-8', '0x1.2323e6817e6bcp-8'],
        ['0x1.0624dd2f1a9fcp-7', '0x1.f373b0318e5b9p-2', '0x1.000d0e0eea33dp-1', '0x1.94cd7d88c1828p-7', '0x1.594c614775ddbp-8'],
        ['0x1.47ae147ae147bp-7', '0x1.f08770ca8c6f2p-2', '0x1.00104d6752726p-1', '0x1.f32540830eb60p-7', '0x1.6ad272d99d93cp-8'],
        ['0x1.cac083126e979p-7', '0x1.ea3af9c654b86p-2', '0x1.0016c71d50d2cp-1', '0x1.5f294744ced2cp-6', '0x1.f86b5c735bfb1p-9'],
        ['0x1.0624dd2f1a9fcp-6', '0x1.e624be2ae304ep-2', '0x1.001a017c9983bp-1', '0x1.a0f44ce50027cp-6', '0x1.2a4c81a3a6cc8p-8'],
        ['0x1.47ae147ae147bp-6', '0x1.de98e69153c2fp-2', '0x1.00207147f90c0p-1', '0x1.0d3fdff4f2a84p-5', '0x1.f0745353fba45p-8'],
        ['0x1.89374bc6a7efap-6', '0x1.d6ff7ff184542p-2', '0x1.0026da7f5fecep-1', '0x1.4a71a869dc2ccp-5', '0x1.f378cbb8cfe64p-8'],
    ],
}


def test_svi_audit_numeric_columns_are_pinned(tmp_path):
    text = edit(BASE.format(kind="svi_audit_run", outdir=tmp_path / "out", schedule="1.5"), drop=UNSCHEDULED,
                set_=[("grid", "cells", "16"), ("experiment", "n_paths", "4"), ("scheme", "steps", "12")])
    outdir = experiments.run_experiment(parse_config(write_cfg(tmp_path, text)))
    tables = {path.name: hex_report_csv(path) for path in sorted(outdir.glob("svi_*.csv"))}
    assert {"table.csv": hex_table(outdir), **tables} == TINY_AUDIT_GOLDEN


def test_one_path_schedule_run_warns_nothing(tmp_path):
    # the weak metric takes no per-path standard error, so one path has no
    # degrees-of-freedom warning; the table is the one recorded before that,
    # re-recorded with the one-power profile maps (<= 3.4e-15 relative) and
    # under OpenBLAS's Haswell kernels (row-0 energy_gap, +2 ulp)
    text = edit(tiny_text(tmp_path, "trotter_plaplace"), set_=[("experiment", "n_paths", "1")])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", str(write_cfg(tmp_path, text))]) == 0
    assert hex_table(tmp_path / "out") == [
        ['0x1.e666666666666p+0', '0x1.921076b28a59cp-15', '0x1.2f4b97c00941ap-6', '0x1.8d744fba9f44fp+8'],
        ['0x1.b333333333333p+0', '0x1.993c3e6856388p-16', '0x1.14d211ecafa4ep-7', '0x1.088ed0a3e1fd2p+7'],
    ]


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
    table = [[float.fromhex(v) for v in row] for row in tiny_table_text(tmp_path, text)]
    assert table == [pytest.approx(row, rel=1e-13, abs=0.0) for row in expected]


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
