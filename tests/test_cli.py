import contextlib
import io
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
# before any transform, so this process takes scipy's kernel through the
# package and the fresh interpreters below, which load it by file, are
# compared against that
import scipy.fft  # noqa: F401

from posikit import cli, diagnostics, models
from posikit.cli import main, parse_config, reference_options
from posikit.diagnostics import DEFAULT_REFERENCE
from posikit.stepper import StepOptions

from test_grid import read_snapshot


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


PME_CFG = """
model = pme
m = 2
nx = 64
k = 2
dt = 1e-3
T = 0.02
variant = multiplier
"""


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_solve_pme_writes_monotone_nonnegative_log(tmp_path):
    cfg = write_config(tmp_path, PME_CFG)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "run.csv")
    assert header[0] == "t" and header[2] == "min_u"
    ts = [float(r[0]) for r in rows]
    assert ts == sorted(ts) and len(ts) == 21  # t = 0 row plus 20 steps
    assert all(float(r[2]) >= 0.0 for r in rows)
    assert (out / "u_final.txt").exists()


def test_solve_single_step_has_one_row_after_zero(tmp_path):
    cfg = write_config(tmp_path, """
model = pme
m = 2
nx = 32
dt = 1e-3
T = 1e-3
""")
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_csv(out / "run.csv")
    after_zero = [r for r in rows if float(r[0]) > 0.0]
    assert len(after_zero) == 1


def test_solve_pme2d_fractional_exponent_keeps_positivity_and_mass(
        tmp_path):
    # m = 2.5: the lagged coefficient takes pow, not the whole-exponent
    # squaring
    cfg = write_config(tmp_path, """
model = pme
m = 2.5
nx = 16
ny = 16
k = 2
dt = 1e-3
T = 0.02
variant = mass
""")
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "run.csv")
    mass, min_u = header.index("mass"), header.index("min_u")
    m0 = float(rows[0][mass])
    assert len(rows) == 21 and all(float(r[min_u]) >= 0.0 for r in rows)
    assert max(abs(float(r[mass]) - m0) for r in rows) <= 1e-10 * m0
    assert sum(int(r[header.index("solver_iters")]) for r in rows) > 0


def test_invalid_variant_exits_2_naming_key(tmp_path, capsys):
    cfg = write_config(tmp_path, PME_CFG.replace("multiplier", "magic"))
    code = main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "variant" in capsys.readouterr().err


def test_variant_invalid_for_model_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, """
model = allen_cahn
nx = 8
dt = 1e-4
T = 1e-3
variant = mass
""")
    code = main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "variant" in err and "allen_cahn" in err


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, PME_CFG + "\nturbo = yes\n")
    code = main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "turbo" in capsys.readouterr().err


# a config each command accepts; with solver_tol = 1e-30 added, the 2D study
# is one that `convergence` used to run, dropping the tolerance (exit 0)
COMMAND_CFGS = {
    "solve": "model = pme\nm = 2\nnx = 16\ndt = 1e-3\nT = 2e-3",
    "compare": "model = pme\nm = 2\nnx = 16\ndt = 1e-3\nT = 2e-3\n"
               "variants = multiplier,mass",
    "convergence": "model = pme\nm = 2\nnx = 16\nny = 16\nT = 4e-3\n"
                   "dts = 2e-3,1e-3\nref_dt = 5e-4",
}


@pytest.mark.parametrize("command,line", [
    ("solve", "variants = bogus"), ("solve", "dts = 2e-3,1e-3"),
    ("solve", "ref_dt = 5e-4"), ("solve", "ref_k = 1"),
    ("solve", "ref_variant = mass"),
    ("compare", "variant = mass"), ("compare", "snapshot_every = 1"),
    ("compare", "dts = 2e-3,1e-3"),
    ("convergence", "dt = 1e-3"), ("convergence", "snapshot_every = 1"),
    ("convergence", "variants = mass"), ("convergence", "solver_tol = 1e-30"),
    ("convergence", "secant_tol = 1e-12"),
])
def test_key_the_command_would_ignore_exits_2_before_any_run(
        tmp_path, capsys, monkeypatch, command, line):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started before the config was checked")

    for runner in ("run_simulation", "run_pnp", "convergence_study"):
        monkeypatch.setattr(cli, runner, no_run)
    cfg = write_config(tmp_path, COMMAND_CFGS[command] + f"\n{line}\n")
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    key = line.split(" = ")[0]
    assert f"key '{key}': not used by '{command}'" in capsys.readouterr().err
    assert not out.exists()
    ok = write_config(tmp_path, COMMAND_CFGS[command] + "\n", "ok.cfg")
    cli._check_command_keys(parse_config(ok), command)


def test_missing_required_key(tmp_path, capsys):
    cfg = write_config(tmp_path, "model = pme\nnx = 32\nT = 1e-3\n")
    code = main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "dt" in capsys.readouterr().err


def test_env_out_override(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, PME_CFG.replace("T = 0.02", "T = 1e-3")
                       + f"out = {tmp_path / 'from_config'}\n")
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("POSIKIT_OUT", str(env_dir))
    assert main(["solve", "--config", cfg]) == 0
    assert (env_dir / "run.csv").exists()
    assert not (tmp_path / "from_config").exists()


def test_flag_beats_env(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, PME_CFG.replace("T = 0.02", "T = 1e-3"))
    monkeypatch.setenv("POSIKIT_OUT", str(tmp_path / "env"))
    flag_dir = tmp_path / "flag"
    assert main(["solve", "--config", cfg, "--out", str(flag_dir)]) == 0
    assert (flag_dir / "run.csv").exists()


@pytest.mark.parametrize("via", ["flag", "env"])
def test_out_that_is_a_file_exits_2_naming_it(tmp_path, capsys, monkeypatch,
                                              via):
    cfg = write_config(tmp_path, PME_CFG)
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    argv = ["solve", "--config", cfg]
    if via == "flag":
        argv += ["--out", str(taken)]
    else:
        monkeypatch.setenv("POSIKIT_OUT", str(taken))
    ran = []
    monkeypatch.setattr(cli, "run_simulation", lambda *a, **k: ran.append(a))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"config error: cannot create output directory {taken}" in err
    assert not ran
    assert taken.read_text() == "not a directory\n"


@pytest.mark.parametrize("key,value,word", [
    ("eps2", "-1", "interface parameter"), ("T", "1.05e-3", "'T'")],
    ids=["model", "horizon"])
@pytest.mark.parametrize("command", ["solve", "convergence", "compare"])
def test_a_config_error_leaves_no_out_path_behind(tmp_path, capsys, command,
                                                  key, value, word):
    # the output directory is made just before the first run, after the
    # model and every option are checked
    keys = dict(model="allen_cahn", nx="8", eps2="0.01", T="1e-3")
    if command == "convergence":
        keys.update(dts="2e-4,1e-4", ref_dt="2e-5")
    else:
        keys.update(dt="1e-4")
    if command == "compare":
        keys.update(variants="multiplier,none")
    keys[key] = value
    cfg = write_config(tmp_path, "".join(f"{k} = {v}\n"
                                         for k, v in keys.items()))
    out = tmp_path / "badout"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and word in err
    assert not out.exists()


def test_rerun_bit_reproduces_output(tmp_path):
    cfg = write_config(tmp_path, PME_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["solve", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "run.csv").read_bytes() == (out2 / "run.csv").read_bytes()
    assert (out1 / "u_final.txt").read_bytes() == \
        (out2 / "u_final.txt").read_bytes()


def test_snapshot_cadence(tmp_path):
    cfg = write_config(tmp_path, PME_CFG + "snapshot_every = 10\n")
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "u_000010.txt").exists()
    assert (out / "u_000020.txt").exists()
    u, t = read_snapshot(out / "u_000010.txt")
    assert u.shape == (65,)
    assert t == pytest.approx(0.01)


def test_compare_emits_aligned_metrics_and_summary(tmp_path):
    cfg = write_config(tmp_path, """
model = pme
m = 2
nx = 64
k = 2
dt = 1e-3
T = 5e-3
variants = multiplier,cutoff,mass,none
""")
    out = tmp_path / "cmp"
    assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "compare.csv")
    assert header == ["t", "multiplier_mass", "multiplier_min_u",
                      "cutoff_mass", "cutoff_min_u", "mass_mass",
                      "mass_min_u", "none_mass", "none_min_u"]
    assert len(rows) == 5
    sheader, srows = read_csv(out / "summary.csv")
    assert sheader[0] == "variant"
    assert [r[0] for r in srows] == ["multiplier", "cutoff", "mass", "none"]
    for v in ("multiplier", "cutoff", "mass", "none"):
        assert (out / f"run_{v}.csv").exists()


@pytest.mark.parametrize("text,expect", [
    ("model = allen_cahn\nnx = 8\ndt = 1e-4\nT = 2e-4",
     ["multiplier", "cutoff", "none"]),
    ("model = pme\nm = 2\nnx = 16\ndt = 1e-3\nT = 2e-3",
     ["multiplier", "cutoff", "mass", "none"]),
    ("model = lubrication\nnx = 32\ndt = 1e-7\nT = 2e-7",
     ["multiplier", "cutoff", "mass", "none"]),
], ids=["allen_cahn", "pme", "lubrication"])
def test_compare_without_variants_runs_every_variant_of_the_model(
        tmp_path, text, expect):
    # the default was one fixed list, whose 'mass' made an Allen-Cahn
    # config exit 2 on a key it never set
    cfg = write_config(tmp_path, text + "\n")
    out = tmp_path / "cmp"
    assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
    _, srows = read_csv(out / "summary.csv")
    assert [r[0] for r in srows] == expect
    assert sorted(p.name for p in out.glob("run_*.csv")) == sorted(
        f"run_{v}.csv" for v in expect)


def test_convergence_emits_table(tmp_path):
    cfg = write_config(tmp_path, """
model = allen_cahn
nx = 8
eps2 = 0.01
k = 1
T = 1e-3
dts = 2e-4,1e-4
ref_dt = 2e-5
ref_k = 2
ref_variant = multiplier
""")
    out = tmp_path / "conv"
    assert main(["convergence", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "convergence.csv")
    assert header == ["dt", "error", "order"]
    assert len(rows) == 2
    assert float(rows[0][0]) == 2e-4
    assert rows[0][2] == ""  # no order on the first row


def test_pnp_solve_writes_per_species_logs(tmp_path):
    cfg = write_config(tmp_path, """
model = pnp
nx = 16
eps_debye = 0.1
k = 2
dt = 1e-3
T = 5e-3
variant = mass
""")
    out = tmp_path / "pnp"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    for name in ("run_p.csv", "run_n.csv", "p_final.txt", "n_final.txt",
                 "phi_final.txt"):
        assert (out / name).exists()
    phi, _ = read_snapshot(out / "phi_final.txt")
    assert np.abs(phi).max() == 0.0  # symmetric data


def test_config_parse_errors(tmp_path, capsys):
    bad = write_config(tmp_path, "model pme\n")
    assert main(["solve", "--config", bad, "--out", str(tmp_path / "o")]) == 2
    missing = str(tmp_path / "nope.cfg")
    assert main(["solve", "--config", missing,
                 "--out", str(tmp_path / "o")]) == 2
    dup = write_config(tmp_path, "model = pme\nmodel = pme\ndt = 1e-3\nT = 1e-3\n")
    assert main(["solve", "--config", dup, "--out", str(tmp_path / "o")]) == 2


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    # UnicodeDecodeError is a ValueError, which alone would read as a
    # numerical failure (exit 3)
    path = tmp_path / "latin.cfg"
    path.write_bytes(PME_CFG.encode() + b"\xff\xfe = 1\n")
    out = tmp_path / "o"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: cannot read config" in err and str(path) in err
    assert not out.exists()


LUB_CFG = "model = lubrication\nnx = 32\ndt = 1e-7\nT = 1e-6"
PNP_CFG = "model = pnp\nnx = 8\ndt = 1e-3\nT = 2e-3"
PME16_CFG = "model = pme\nm = 2\nnx = 16\ndt = 1e-3\nT = 2e-3"


@pytest.mark.parametrize("text,word", [
    ("model = pme\nnx = 32\nny = abc\ndt = 1e-3\nT = 3e-3", "ny"),
    ("model = pme\nnx = 32\nk = 7\ndt = 1e-3\nT = 3e-3", "BDF order"),
    ("model = pme\nnx = 32\nk = 3\ndt = 1e-3\nT = 3e-3", "BDF order"),
    ("model = pme\nnx = 32\ndt = -1e-3\nT = 3e-3", "dt"),
    ("model = allen_cahn\nnx = 8\neps2 = -1\ndt = 1e-4\nT = 1e-3",
     "allen_cahn"),
    # values that ran, failed late or were dropped without a word
    (LUB_CFG + "\nsolver_tol = -1", "solver_tol"),
    (LUB_CFG + "\nsolver_tol = 0", "solver_tol"),
    (LUB_CFG + "\nsecant_tol = 0", "secant_tol"),
    (LUB_CFG.replace("nx = 32", "nx = 0"), "points"),
    (LUB_CFG + "\nsnapshot_every = -5", "snapshot_every"),
    (LUB_CFG + "\nreg = floor\neta = 1e-6", "'eta'"),
    (LUB_CFG + "\nreg = reg_eta\neps_lb = 1e-3", "'eps_lb'"),
    # a thin film needs one regularization: a positive floor, or eta > 0
    (LUB_CFG + "\nreg = floor\neps_lb = 0", "'eps_lb'"),
    (LUB_CFG + "\nreg = reg_eta\neta = 0", "'eta'"),
    (PNP_CFG + "\neps_lb = 1e-3", "'eps_lb'"),
    (PNP_CFG + "\nsnapshot_every = 1", "'snapshot_every'"),
    (PNP_CFG + "\nny = 16", "'ny'"),
    # non-finite numbers: T = inf ended in an OverflowError traceback,
    # solver_tol = inf left every prediction unsolved with exit 0, the nan
    # and inf model values ran 500 NaN iterations to exit 3, and
    # secant_tol = inf was accepted
    (PME16_CFG.replace("T = 2e-3", "T = inf"), "'T': 'inf' is not a finite"),
    (PME16_CFG + "\nsolver_tol = inf", "'solver_tol': 'inf' is not a finite"),
    (PME16_CFG.replace("m = 2", "m = nan"), "'m': 'nan' is not a finite"),
    (PME16_CFG.replace("m = 2", "m = inf"), "'m': 'inf' is not a finite"),
    (PME16_CFG + "\nC = nan", "'C': 'nan' is not a finite"),
    (PME16_CFG + "\neps_lb = nan", "'eps_lb': 'nan' is not a finite"),
    (PME16_CFG + "\neps_lb = -1", "eps_lb must be finite and nonnegative"),
    (PME16_CFG + "\nsecant_tol = inf", "'secant_tol': 'inf' is not a finite"),
    # porous-medium values without a start: m = 1 has no Barenblatt
    # profile (was exit 3), C <= 0 starts from zero (was exit 0)
    (PME16_CFG.replace("m = 2", "m = 1"), "m must be greater than 1"),
    (PME16_CFG + "\nC = 0", "C must be positive"),
    (PME16_CFG + "\nC = -1", "C must be positive"),
    # squares that overflowed in a traceback (exit 1): the ledger's dt**2
    # in its update (k = 1) or residual (k = 2), and the Poisson scale
    # eps_debye**2, which also flushed to 0 and failed late with exit 3
    ("model = allen_cahn\nnx = 8\nk = 2\ndt = 1e300\nT = 1e300", "'dt'"),
    (LUB_CFG.replace("dt = 1e-7\nT = 1e-6", "k = 1\ndt = 1e200\nT = 1e200"),
     "'dt'"),
    (PME16_CFG.replace("dt = 1e-3\nT = 2e-3", "k = 1\ndt = 1e200\nT = 1e200"),
     "'dt'"),
    ("model = pme\nnx = 8\nny = 8\ndt = 1e300\nT = 1e300", "'dt'"),
    (PNP_CFG + "\neps_debye = 1e200", "eps_debye"),
    (PNP_CFG + "\neps_debye = 1e300", "eps_debye"),
    (PNP_CFG + "\neps_debye = 1e-200", "eps_debye"),
    # a horizon that overflows in steps of dt
    (PME16_CFG.replace("dt = 1e-3", "dt = 1e-300").replace("T = 2e-3",
                                                          "T = 1e10"), "'T'"),
])
def test_bad_model_or_option_value_exits_2(tmp_path, capsys, text, word):
    cfg = write_config(tmp_path, text + "\n")
    out = tmp_path / "o"
    code = main(["solve", "--config", cfg, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and word in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "compare", "convergence"])
def test_mass_variant_below_its_floor_exits_2(tmp_path, capsys, monkeypatch,
                                              command):
    # eps_lb = 5 holds a mass of 10 on [-1, 1), above the initial mass 1.6
    # that the mass variant conserves: the first step's correction could not
    # meet both, and ended the run with exit 3 (convergence stepped every
    # run at floor 0 and exited 0)
    base = LUB_CFG
    if command == "convergence":  # a study takes step sizes, not one dt
        base = base.replace("dt = 1e-7", "dts = 2e-7,1e-7\nref_dt = 5e-8")
    cfg = write_config(tmp_path, base.replace("nx = 32", "nx = 64")
                       + "\neps_lb = 5\n")
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "'eps_lb'" in err
    assert "10" in err and "1.6" in err
    assert not out.exists()
    # a floor below the initial mass runs, and a study steps at that floor
    floors = []
    real = diagnostics.run_simulation

    def spy(model, opts, *args, **kwargs):
        floors.append(opts.eps_lb)
        return real(model, opts, *args, **kwargs)

    monkeypatch.setattr(diagnostics, "run_simulation", spy)
    ok = write_config(tmp_path, base + "\neps_lb = 0.5\n", "ok.cfg")
    assert main([command, "--config", ok, "--out", str(tmp_path / "p")]) == 0
    if command == "convergence":
        assert floors == [0.5] * 3


def test_horizon_not_multiple_of_dt_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, PME_CFG.replace("T = 0.02", "T = 0.01")
                       .replace("dt = 1e-3", "dt = 3e-3"))
    out = tmp_path / "o"
    code = main(["solve", "--config", cfg, "--out", str(out)])
    assert code == 2
    assert "'T'" in capsys.readouterr().err
    assert not (out / "run.csv").exists()


def test_run_csv_time_column_is_exact_step_multiple(tmp_path):
    cfg = write_config(tmp_path, PME_CFG.replace("T = 0.02", "T = 0.01"))
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_csv(out / "run.csv")
    assert len(rows) == 11
    assert [r[0] for r in rows[1:]] == [repr(n * 1e-3) for n in range(1, 11)]
    assert rows[-1][0] == "0.01"
    _, t = read_snapshot(out / "u_final.txt")
    assert t == 10 * 1e-3


def test_convergence_reference_defaults_follow_reference_spec(tmp_path):
    cfg = parse_config(write_config(tmp_path, "model = allen_cahn\n"
                                    "dts = 2e-4,1e-4\n"))
    assert reference_options(cfg, 0.0) == DEFAULT_REFERENCE
    assert reference_options(cfg, 0.0).variant == "multiplier"


CONVERGENCE_CFG = """
model = allen_cahn
nx = 8
eps2 = 0.01
k = 1
T = 1e-3
dts = 2e-4,1e-4
ref_dt = 2e-5
"""


@pytest.mark.parametrize("old,new,word", [
    ("k = 1", "k = 7", "BDF order"),
    ("T = 1e-3\ndts = 2e-4,1e-4", "T = 0.0105\ndts = 2e-3,1e-3", "'T'"),
    # `convergence` requires T like `solve` and `compare`; it used to run
    # to a horizon of 0.01
    ("T = 1e-3\n", "", "missing required key 'T'"),
    ("dts = 2e-4,1e-4", "dts = 1e-4,2e-4", "decreasing"),
    ("ref_dt = 2e-5", "ref_dt = 2e-5\nref_variant = bogus", "ref_variant"),
    ("dts = 2e-4,1e-4", "dts = inf,1e-4", "'dts': 'inf' is not a finite"),
    ("dts = 2e-4,1e-4", "dts = 2e-4,nan", "'dts': 'nan' is not a finite"),
    ("dts = 2e-4,1e-4", "dts = 1e-4,1e-4", "'dts': step sizes must be"),
    ("ref_dt = 2e-5", "ref_dt = 1e-4", "'ref_dt': reference dt 0.0001"),
    ("ref_dt = 2e-5", "ref_dt = 2e-5\nref_k = 3", "BDF order"),
], ids=["k", "T", "T-missing", "dts", "ref_variant", "dts-inf", "dts-nan",
        "dts-equal", "ref_dt", "ref_k"])
def test_convergence_config_mistakes_exit_2_before_any_run(
        tmp_path, capsys, monkeypatch, old, new, word):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started before the config was checked")

    monkeypatch.setattr(cli, "convergence_study", no_run)
    assert old in CONVERGENCE_CFG
    cfg = write_config(tmp_path, CONVERGENCE_CFG.replace(old, new))
    out = tmp_path / "conv"
    code = main(["convergence", "--config", cfg, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and word in err
    assert not (out / "convergence.csv").exists()


def test_convergence_steps_every_run_at_the_configured_floor(tmp_path,
                                                              monkeypatch):
    # the floor comes from the config on every model, as in `solve`
    runs = []
    real = diagnostics.run_simulation

    def spy(model, opts, *args, **kwargs):
        runs.append((opts.dt, opts.eps_lb))
        return real(model, opts, *args, **kwargs)

    monkeypatch.setattr(diagnostics, "run_simulation", spy)
    cfg = write_config(tmp_path, CONVERGENCE_CFG + "eps_lb = 1e-3\n")
    out = tmp_path / "conv"
    assert main(["convergence", "--config", cfg, "--out", str(out)]) == 0
    assert runs == [(2e-5, 1e-3), (2e-4, 1e-3), (1e-4, 1e-3)]
    assert (out / "convergence.csv").exists()


def test_compare_records_failure_kind(tmp_path):
    # an unreachable solver tolerance fails every prediction solve; that is
    # a solver failure, not a blow-up
    cfg = write_config(tmp_path, """
model = pme
m = 2
nx = 16
dt = 1e-3
T = 2e-3
solver_tol = 1e-30
variants = multiplier,none
""")
    out = tmp_path / "cmp"
    assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "summary.csv")
    assert header == ["variant", "steps", "min_min_u", "first_negative_t",
                      "blowup_t", "failure", "final_mass"]
    col = {name: i for i, name in enumerate(header)}
    for row in rows:
        assert row[col["failure"]] == "SolverError"
        assert row[col["blowup_t"]] == ""
        assert row[col["steps"]] == "0"


def test_compare_pads_the_variants_that_ended_early(tmp_path):
    # the uncorrected run blows up after 6 steps and the multiplier run
    # after 8: compare.csv has a row per step any variant reached, blank
    # where a variant had ended
    cfg = write_config(tmp_path, "model = allen_cahn\neps2 = 1e-3\nnx = 16\n"
                       "dt = 0.1\nT = 5.0\nvariants = none,multiplier\n")
    out = tmp_path / "cmp"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "compare.csv")
    assert header == ["t", "none_mass", "none_min_u", "multiplier_mass",
                      "multiplier_min_u"]
    assert [r[0] for r in rows] == [repr(n * 0.1) for n in range(1, 9)]
    assert all(c != "" for r in rows[:6] for c in r)
    assert all(r[1:3] == ["", ""] and "" not in r[3:] for r in rows[6:])
    header, rows = read_csv(out / "summary.csv")
    summary = {r[0]: dict(zip(header, r)) for r in rows}
    assert summary["none"]["steps"] == "6"
    assert summary["multiplier"]["steps"] == "8"
    assert summary["none"]["blowup_t"] == repr(0.7000000000000001)
    assert summary["multiplier"]["blowup_t"] == "0.9"
    for v in ("none", "multiplier"):
        assert summary[v]["failure"] == "BlowUpError"
        _, log = read_csv(out / f"run_{v}.csv")
        assert len(log) == int(summary[v]["steps"]) + 1  # the t = 0 row


@pytest.mark.parametrize("command,text,key", [
    # eps_lb = 0.5 left the uncorrected run unfloored (min_u 0.0), exit 0
    ("solve", PME16_CFG + "\nvariant = none\neps_lb = 0.5", "eps_lb"),
    ("compare", PME16_CFG + "\nvariants = none\neps_lb = 0.5", "eps_lb"),
    ("convergence", CONVERGENCE_CFG + "variant = none\nref_variant = none\n"
     "eps_lb = 0.5", "eps_lb"),
    # only the mass variant runs the secant
    ("solve", PME16_CFG + "\nsecant_tol = 1e-10", "secant_tol"),
    ("compare", PME16_CFG + "\nvariants = multiplier,cutoff,none\n"
     "secant_tol = 1e-10", "secant_tol"),
], ids=["solve-eps_lb", "compare-eps_lb", "convergence-eps_lb",
        "solve-secant_tol", "compare-secant_tol"])
def test_a_key_no_run_would_read_exits_2_before_any_run(
        tmp_path, capsys, monkeypatch, command, text, key):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started before the config was checked")

    for runner in ("run_simulation", "convergence_study"):
        monkeypatch.setattr(cli, runner, no_run)
    cfg = write_config(tmp_path, text + "\n")
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"key '{key}': not used" in err
    assert not out.exists()


@pytest.mark.parametrize("command,text", [
    # one correcting run reads the floor, one mass run the tolerance
    ("compare", PME16_CFG + "\nvariants = none,cutoff\neps_lb = 0.5"),
    ("compare", PME16_CFG + "\nvariants = none,mass\nsecant_tol = 1e-10"),
    ("convergence", CONVERGENCE_CFG + "variant = none\neps_lb = 1e-3"),
    ("solve", PME16_CFG + "\nvariant = mass\nsecant_tol = 1e-10"),
], ids=["compare-eps_lb", "compare-secant_tol", "convergence-eps_lb",
        "solve-secant_tol"])
def test_a_key_one_run_reads_is_accepted(tmp_path, command, text):
    cfg = write_config(tmp_path, text + "\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0


def test_compare_rejects_an_infeasible_mass_target(tmp_path, capsys):
    # the floor mass eps_lb * 10 exceeds the initial mass, so the mass
    # residual has no root: rejected before any variant runs (the mass run
    # used to fail at its first step, recorded as a SecantError)
    cfg = write_config(tmp_path, """
model = pme
m = 2
nx = 32
dt = 1e-3
T = 2e-3
eps_lb = 0.5
variants = multiplier,mass
""")
    out = tmp_path / "cmp"
    assert main(["compare", "--config", cfg, "--out", str(out)]) == 2
    assert "'eps_lb'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("variants", ["", ",", "mass,mass"])
def test_compare_rejects_an_empty_variant_list(tmp_path, capsys, variants):
    # an empty list ran nothing and ended in a TypeError traceback (exit 1);
    # a variant named twice ran twice and wrote its columns twice (exit 0)
    cfg = write_config(tmp_path, LUB_CFG + f"\nvariants = {variants}\n")
    out = tmp_path / "cmp"
    assert main(["compare", "--config", cfg, "--out", str(out)]) == 2
    assert "'variants'" in capsys.readouterr().err
    assert not out.exists()


def test_reg_eta_solve_steps_the_regularized_mobility(tmp_path, monkeypatch):
    calls = []
    real = models.lubrication_f_eta

    def spy(u, rho, eta):
        calls.append(eta)
        return real(u, rho, eta)

    monkeypatch.setattr(models, "lubrication_f_eta", spy)
    cfg = write_config(tmp_path, LUB_CFG + "\nreg = reg_eta\neta = 1e-6\n")
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    assert calls == [1e-6] * 10  # one operator per step
    assert (out / "run.csv").exists()


# -- solver columns of the per-step logs -----------------------------------------

RUN_HEADER = ["t", "mass", "min_u", "max_u", "norm_u", "xi", "secant_iters",
              "active_count", "ledger_residual", "solver_iters",
              "solver_residual"]


# porous medium in 2D: a variable coefficient, so every step runs PCG
PME2D_CFG = PME_CFG.replace("nx = 64", "nx = 24\nny = 24")


def test_run_csv_reports_solver_iterations_and_residual(tmp_path):
    cfg = write_config(tmp_path, PME2D_CFG.replace("T = 0.02", "T = 5e-3"))
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "run.csv")
    assert header == RUN_HEADER
    assert rows[0][9:] == ["0", "0.0"]  # the t = 0 row
    for r in rows[1:]:
        assert int(r[9]) > 0
        assert 0.0 <= float(r[10]) <= 1e-10


def test_run_csv_reports_direct_1d_solves(tmp_path):
    # the 1D edge form solves by one exact elimination: no iterations and
    # the true residual at rounding level
    cfg = write_config(tmp_path, PME_CFG.replace("T = 0.02", "T = 5e-3"))
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "run.csv")
    assert header == RUN_HEADER
    for r in rows[1:]:
        assert r[9] == "0"
        assert 0.0 <= float(r[10]) <= 1e-13


def test_pnp_solve_logs_reproduce_with_solver_columns(tmp_path):
    cfg = write_config(tmp_path, """
model = pnp
nx = 16
dt = 1e-3
T = 3e-3
""")
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    for name in ("run_p.csv", "run_n.csv"):
        header, rows = read_csv(outs[0] / name)
        assert header == RUN_HEADER
        # transform solves: no Krylov iterations, residual reported as 0
        assert all(r[9:] == ["0", "0.0"] for r in rows)
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_compare_run_logs_carry_solver_columns(tmp_path):
    cfg = write_config(tmp_path, PME2D_CFG.replace("T = 0.02", "T = 2e-3")
                       .replace("variant = multiplier",
                                "variants = multiplier,none"))
    out = tmp_path / "cmp"
    assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
    for v in ("multiplier", "none"):
        header, rows = read_csv(out / f"run_{v}.csv")
        assert header == RUN_HEADER
        assert len(rows) == 3 and int(rows[-1][9]) > 0


# a thin film past touchdown (clamped nodes from step 37 of 50), whose
# solves factor the finite-difference preconditioner
THINFILM_TOUCHDOWN_CFG = """
model = lubrication
rho = 0.5
reg = floor
eps_lb = 1e-4
nx = 256
k = 2
dt = 2e-5
T = 1e-3
variant = mass
"""


def fresh_python(script):
    """The stdout of ``script`` run in a fresh interpreter on this posikit."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("text,factors", [
    (PME_CFG.replace("T = 0.02", "T = 3e-3"), False),
    (PME2D_CFG.replace("T = 0.02", "T = 3e-3"), False),
    (THINFILM_TOUCHDOWN_CFG, True)], ids=["pme", "pme2d", "thinfilm"])
def test_1d_pme_solve_loads_no_scipy_linalg_or_sparse(tmp_path, text,
                                                      factors):
    # each adds resident memory to a run (scipy.fft about 21 MiB, scipy.linalg
    # about 5 MiB) that neither the edge form's elimination or CG nor the
    # thin film's 1D real FFTs and band elimination have any use for; of
    # these runs only the thin film transforms, with numpy.fft's gufuncs
    cfg = write_config(tmp_path, text)
    out = tmp_path / "o"
    modules, built, numpy_fft = fresh_python(
        "import sys\n"
        "from posikit import operators\n"
        "from posikit.cli import main\n"
        "built, real = [], operators._band_factor\n"
        "operators._band_factor = lambda *a: built.append(1) or real(*a)\n"
        f"code = main(['solve', '--config', {cfg!r}, '--out', {str(out)!r}])\n"
        "print(sorted(m for m in sys.modules if m.startswith(\n"
        "    ('scipy.fft', 'scipy.linalg', 'scipy.sparse'))))\n"
        "print(len(built))\n"
        "print('numpy.fft' in sys.modules)\n"
        "assert code == 0\n").splitlines()
    assert modules == "[]"
    assert (int(built) > 0) == factors
    assert numpy_fft == str(factors)
    assert (out / "run.csv").exists()


def test_importing_posikit_loads_no_scipy():
    out = fresh_python("import sys, posikit\n"
                       "print([m for m in sys.modules\n"
                       "       if m[:6] == 'scipy' or m[:9] == 'numpy.fft'])\n")
    assert out.split() == ["[]"]


KERNEL = "scipy.fft._pocketfft.pypocketfft"
SCIPY_LOADED = ("print(sorted(m for m in __import__('sys').modules\n"
                "             if m.startswith('scipy')))\n")


@pytest.mark.parametrize("model,text", [
    ("AllenCahnModel", "model = allen_cahn\nnx = 8\neps2 = 0.01\n"
     "dt = 1e-4\nT = 2e-4\nvariant = multiplier\n"),
    ("PnpModel", PNP_CFG)], ids=["AllenCahnModel", "PnpModel"])
def test_a_transform_model_loads_only_the_kernel_on_first_use(tmp_path, model,
                                                              text):
    # their solves transform with scipy's pocketfft: building the model loads
    # no scipy, and the first transform loads the kernel from its file and no
    # scipy package
    cfg = write_config(tmp_path, text)
    out = tmp_path / "o"
    built, first, solved = fresh_python(
        "import numpy as np, posikit\n"
        "from posikit import operators\n"
        "from posikit.cli import main\n"
        f"m = posikit.{model}()\n" + SCIPY_LOADED +
        "operators._forward(m.grid, np.ones(m.grid.shape))\n" + SCIPY_LOADED +
        f"code = main(['solve', '--config', {cfg!r}, '--out', {str(out)!r}])\n"
        + SCIPY_LOADED + "assert code == 0\n").splitlines()
    assert built == "[]"
    assert first == solved == str([KERNEL])


def test_constant_coefficient_bounded_solve_loads_the_kernel_on_use():
    # the rare transform paths load the kernel alone on first use, with the
    # bits of a process that imported scipy.fft (this one)
    build = (
        "import numpy as np\n"
        "from posikit import Operator, build_grid, solve_operator\n"
        "g = build_grid(((0.0, 1.0), (0.0, 2.0)), (12, 10),\n"
        "               ('dirichlet', 'neumann'))\n"
        "op = Operator.div_coeff_grad(g, np.ones(g.shape))\n"
        "rhs = np.random.default_rng(5).standard_normal(g.shape) * g.active\n")
    solve = "u, _ = solve_operator(2.0, op, rhs)\n"
    out = fresh_python(build + SCIPY_LOADED + solve + SCIPY_LOADED
                       + "print(u.tobytes().hex())\n")
    before, after, bits = out.splitlines()
    assert (before, after) == ("[]", str([KERNEL]))
    assert "scipy.fft" in sys.modules
    scope = {}
    exec(build + solve, scope)
    assert scope["u"].tobytes().hex() == bits


@pytest.mark.parametrize("first", ["scipy.fft", "posikit"])
def test_the_kernel_is_one_module_in_either_import_order(first):
    # tests and tracers patch the module scipy imported, so the one posikit
    # loads must be that module, and give scipy.fft's bits
    load = ("k = ops._pocketfft()\n"
            "assert 'scipy' not in sys.modules, sorted(sys.modules)\n")
    out = fresh_python(
        "import sys\n"
        "import numpy as np\n"
        + ("import scipy.fft\n" if first == "scipy.fft" else "") +
        "from posikit import build_grid, operators as ops\n"
        + (load if first == "posikit" else "k = ops._pocketfft()\n") +
        "import scipy.fft\n"
        "from scipy.fft._pocketfft import pypocketfft\n"
        f"assert k is sys.modules[{KERNEL!r}] is pypocketfft\n"
        "same = lambda a, b: (a.dtype, a.shape, a.tobytes()) == (\n"
        "    b.dtype, b.shape, b.tobytes())\n"
        "rng = np.random.default_rng(9)\n"
        "g = build_grid(((0.0, 6.0), (0.0, 6.0)), (12, 13), 'periodic')\n"
        "v = rng.standard_normal(g.shape)\n"
        "V = scipy.fft.rfft2(v)\n"
        "assert same(ops._rfft(g, v), V)\n"
        "assert same(ops._irfft(g, V), scipy.fft.irfft2(V, g.counts))\n"
        "b = build_grid(((0.0, 1.0), (0.0, 2.0)), (12, 15),\n"
        "               ('dirichlet', 'neumann'))\n"
        "w = rng.standard_normal(b.shape)\n"
        "assert same(ops._r2r(b, w, (0,), 0), scipy.fft.dst(w, 1, axis=0))\n"
        "assert same(ops._r2r(b, w, (1,), 0), scipy.fft.dct(w, 1, axis=1))\n"
        "print('ok')\n")
    assert out.split() == ["ok"]


def test_a_missing_kernel_file_is_an_import_error_naming_its_directory():
    out = fresh_python(
        "import importlib.machinery, importlib.util, os\n"
        "from posikit import operators\n"
        "importlib.machinery.EXTENSION_SUFFIXES[:] = ['.missing']\n"
        "try:\n"
        "    operators._pocketfft()\n"
        "except ImportError as exc:\n"
        "    print(exc)\n"
        "where = importlib.util.find_spec('scipy').submodule_search_locations\n"
        "print(os.path.join(where[0], 'fft', '_pocketfft'))\n"
        + SCIPY_LOADED)
    message, directory, loaded = out.splitlines()
    assert message == f"no pypocketfft extension in {directory}"
    assert loaded == "[]"


# -- the two-species model runs through `solve` only --------------------------------

# the step keys each study command reads
PNP_STUDY_KEYS = {"convergence": "dts = 1e-3,5e-4\nref_dt = 1e-4",
                  "compare": "dt = 1e-3"}


@pytest.mark.parametrize("command,runner", [
    ("convergence", "convergence_study"), ("compare", "run_simulation")])
def test_pnp_rejected_by_study_commands(tmp_path, capsys, monkeypatch,
                                        command, runner):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started before the model was checked")

    monkeypatch.setattr(cli, runner, no_run)
    cfg = write_config(tmp_path, "model = pnp\nnx = 8\nT = 2e-3\n"
                       + PNP_STUDY_KEYS[command] + "\n")
    out = tmp_path / command
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "pnp" in err and "'solve'" in err
    assert not out.exists()


EXACT_PATH_CFGS = {
    "pme1d": """
model = pme
m = 5
nx = 32
k = 2
dt = 1e-3
T = 0.02
variant = mass
""",
    "allen_cahn": """
model = allen_cahn
eps2 = 1e-3
nx = 16
k = 2
dt = 1e-6
T = 2e-5
variant = multiplier
""",
    "pnp": """
model = pnp
eps_debye = 0.1
nx = 16
k = 2
dt = 1e-3
T = 0.01
variant = mass
""",
}


@pytest.mark.parametrize("name", sorted(EXACT_PATH_CFGS))
def test_exact_solve_paths_ignore_the_start(tmp_path, monkeypatch, name):
    # the 1D elimination and the transform pass read x0 only at inactive
    # Dirichlet ends, which are 0 under any start the stepper passes: the
    # outputs match a run whose solves get no start at all, bit for bit
    from posikit import stepper
    cfg = write_config(tmp_path, EXACT_PATH_CFGS[name])
    shipped, startless = tmp_path / "shipped", tmp_path / "startless"
    assert main(["solve", "--config", cfg, "--out", str(shipped)]) == 0
    real = stepper.solve_operator
    monkeypatch.setattr(stepper, "solve_operator",
                        lambda *a, **kw: real(*a, **{**kw, "x0": None}))
    assert main(["solve", "--config", cfg, "--out", str(startless)]) == 0
    names = sorted(os.listdir(shipped))
    assert names == sorted(os.listdir(startless))
    assert any(n.startswith("run") and n.endswith(".csv") for n in names)
    assert any(n.endswith("_final.txt") for n in names)
    for n in names:
        assert (shipped / n).read_bytes() == (startless / n).read_bytes(), n


# -- benchmark tracer hooks -------------------------------------------------------


BENCH_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def load_tracing():
    """``perfbench/tracing.py``, imported by path; no hook is installed."""
    import importlib.util
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(BENCH_DIR, "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_benchmark_span_resolves_to_a_live_hook():
    # perfbench/tracing.py wraps entry points by name and reports a missing
    # one as absent, so a renamed function would silently drop its layer
    import importlib
    live = {}
    for span, target, attr, _ in load_tracing().HOOKS:
        module, _, cls = target.partition(":")
        owner = importlib.import_module(module)
        owner = getattr(owner, cls, None) if cls else owner
        live[span] = live.get(span, False) or callable(
            getattr(owner, attr, None))
    assert sorted(span for span, ok in live.items() if not ok) == []


TRACED_CFGS = {
    "allen_cahn": """
model = allen_cahn
eps2 = 1e-3
nx = 16
k = 2
dt = 1e-6
T = 2e-5
variant = multiplier
""",
    "lubrication_mass": """
model = lubrication
rho = 0.5
reg = floor
eps_lb = 1e-4
nx = 64
k = 2
dt = 2e-7
T = 4e-6
variant = mass
""",
    "pme2d_mass": """
model = pme
m = 5
C = 1.0
nx = 16
ny = 16
k = 2
dt = 1e-3
T = 2e-2
variant = mass
""",
}


@pytest.mark.parametrize("name", sorted(TRACED_CFGS))
def test_traced_benchmark_sample_reports_every_metric_finite(tmp_path, name):
    # a layer whose hook no longer resolves reads None, and a traced sample
    # with a None or non-finite metric is not a usable sample
    import json
    import math
    cfg = write_config(tmp_path, TRACED_CFGS[name])
    result, spans = tmp_path / "result.json", tmp_path / "spans.npz"
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "child.py"), "--config", cfg,
         "--out", str(tmp_path / "out"), "--result", str(result),
         "--spans", str(spans)], env=env, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(result.read_text())["exit_code"] == 0
    metrics, _ = load_tracing().analyze(spans)
    bad = {k: v for k, v in metrics.items()
           if not isinstance(v, (int, float)) or not math.isfinite(v)}
    assert bad == {}
    assert metrics["stepper.steps"] == 20


@pytest.mark.parametrize("name", ["lubrication_floor", "pme_1d", "pme_mass",
                                  "pnp_2d"])
def test_shipped_solve_configs_run_end_to_end(tmp_path, name):
    # each run keeps its floor, a ledger, where one is attached, holds its
    # energy statement, and the mass variant holds each run's mass
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                        f"{name}.cfg")
    cfg = parse_config(path)
    out = tmp_path / "out"
    assert main(["solve", "--config", path, "--out", str(out)]) == 0
    logs = sorted(out.glob("run*.csv"))
    assert len(logs) == (2 if cfg.model == "pnp" else 1)
    floor = cli._floor(cfg)
    for log in logs:
        header, rows = read_csv(log)
        cols = {c: [float(r[i]) for r in rows] for i, c in enumerate(header)}
        assert min(cols["min_u"]) >= floor, log.name
        ledgered = cols["ledger_residual"][1:]  # the t = 0 row has none
        assert all(math.isnan(r) for r in ledgered) == (cfg.model == "pnp")
        assert all(math.isnan(r) or r <= 1e-8 for r in ledgered), log.name
        if cfg.get("variant") == "mass":
            mass = np.array(cols["mass"])
            drift = np.abs(mass - mass[0]).max() / abs(mass[0])
            assert drift <= 1e-10, log.name


def test_shipped_configs_build_without_a_solve():
    # a tightened rule (grid, model or option) must not break a shipped
    # config unseen; a study config has no dt of its own, only a reference
    root = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
    paths = sorted(os.path.join(root, name) for name in os.listdir(root)
                   if name.endswith(".cfg"))
    assert paths
    for path in paths:
        cfg = parse_config(path)
        command = ("convergence" if "dts" in cfg.raw
                   else "compare" if "variants" in cfg.raw else "solve")
        cli._check_command_keys(cfg, command)
        model = cli.build_model(cfg)
        if "dts" in cfg.raw:
            ref = reference_options(cfg, cli._floor(cfg))
            assert isinstance(ref, StepOptions)
            continue
        variants = cfg.get("variants")
        for v in variants.split(",") if variants else [None]:
            assert cli.build_options(cfg, model, variant=v).dt > 0, path


# -- fuzz: every tiny config ends in a documented exit code ---------------

# magnitudes from either end of the float range, and bad signs and zeros
FUZZ_VALUES = ("-1", "0", "1e-300", "1e-200", "1e-12", "0.5", "1", "2",
               "3.5", "1e12", "1e200", "1e300")


@st.composite
def tiny_configs(draw):
    model = draw(st.sampled_from(sorted(cli._MODELS)))
    entry = cli._MODELS[model]
    nx = draw(st.sampled_from((4, 5, 8)))
    mantissa = draw(st.sampled_from((1, 2.5)))
    dt = float(f"{mantissa}e{draw(st.integers(-300, 300))}")
    # horizons of one to three whole steps, and two that are not whole
    steps = draw(st.sampled_from((1, 2, 3, 0.5, 2.5)))
    lines = [f"model = {model}", f"nx = {nx}", f"dt = {dt!r}",
             f"T = {steps * dt!r}", f"k = {draw(st.sampled_from((1, 2)))}",
             f"variant = {draw(st.sampled_from(entry.variants))}"]
    if model in ("pme", "lubrication") and draw(st.booleans()):
        lines.append(f"ny = {nx}")
    optional = ("eps_lb", "solver_tol", "secant_tol") + entry.keys
    for key in draw(st.lists(st.sampled_from(optional), max_size=2,
                             unique=True)):
        values = ("floor", "reg_eta") if key == "reg" else FUZZ_VALUES
        lines.append(f"{key} = {draw(st.sampled_from(values))}")
    return "\n".join(lines) + "\n"


# 2D porous-medium CG whose [p, Ap] or [r, z] underflowed to 0 and ended
# in a ZeroDivisionError (exit 1)
@example("model = pme\nnx = 4\nny = 4\nk = 1\ndt = 10.0\nT = 10.0\n"
         "solver_tol = 1e-300\n")
@example("model = pme\nnx = 5\nny = 5\nk = 1\ndt = 1e152\nT = 1e152\n")
@example("model = pme\nnx = 4\nny = 4\nk = 1\ndt = 100.0\nT = 100.0\n"
         "solver_tol = 1e-300\nm = 1e12\n")
@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(tiny_configs())
def test_fuzzed_tiny_solve_exits_0_2_or_3(text):
    # the documented exit codes; a traceback would exit 1
    with tempfile.TemporaryDirectory() as tmp, np.errstate(all="ignore"), \
            contextlib.redirect_stderr(io.StringIO()):
        cfg = os.path.join(tmp, "run.cfg")
        with open(cfg, "w") as fh:
            fh.write(text)
        code = main(["solve", "--config", cfg, "--out",
                     os.path.join(tmp, "o")])
    assert code in (0, 2, 3), text
