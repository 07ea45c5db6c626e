import os

import numpy as np
import pytest

from posikit import cli
from posikit.cli import main, parse_config, reference_spec
from posikit.diagnostics import ReferenceSpec
from posikit.grid import read_snapshot


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


LUB_CFG = "model = lubrication\nnx = 32\ndt = 1e-7\nT = 1e-6"
PNP_CFG = "model = pnp\nnx = 8\ndt = 1e-3\nT = 2e-3"


@pytest.mark.parametrize("text,word", [
    ("model = pme\nnx = 32\nny = abc\ndt = 1e-3\nT = 3e-3", "ny"),
    ("model = pme\nnx = 32\nk = 7\ndt = 1e-3\nT = 3e-3", "BDF order"),
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
    (PNP_CFG + "\neps_lb = 1e-3", "'eps_lb'"),
    (PNP_CFG + "\nsnapshot_every = 1", "'snapshot_every'"),
    (PNP_CFG + "\nny = 16", "'ny'"),
])
def test_bad_model_or_option_value_exits_2(tmp_path, capsys, text, word):
    cfg = write_config(tmp_path, text + "\n")
    out = tmp_path / "o"
    code = main(["solve", "--config", cfg, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and word in err
    assert not any(out.iterdir())


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
    assert reference_spec(cfg) == ReferenceSpec()
    assert reference_spec(cfg).variant == "multiplier"


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
    ("dts = 2e-4,1e-4", "dts = 1e-4,2e-4", "decreasing"),
    ("ref_dt = 2e-5", "ref_dt = 2e-5\nref_variant = bogus", "ref_variant"),
], ids=["k", "T", "dts", "ref_variant"])
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


# -- solver columns of the per-step logs -----------------------------------------

RUN_HEADER = ["t", "mass", "min_u", "max_u", "norm_u", "xi", "secant_iters",
              "active_count", "ledger_residual", "solver_iters",
              "solver_residual"]


def test_run_csv_reports_solver_iterations_and_residual(tmp_path):
    # porous medium: a variable coefficient, so every step runs PCG
    cfg = write_config(tmp_path, PME_CFG.replace("T = 0.02", "T = 5e-3"))
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "run.csv")
    assert header == RUN_HEADER
    assert rows[0][9:] == ["0", "0.0"]  # the t = 0 row
    for r in rows[1:]:
        assert int(r[9]) > 0
        assert 0.0 <= float(r[10]) <= 1e-10


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
    cfg = write_config(tmp_path, PME_CFG.replace("T = 0.02", "T = 2e-3")
                       + "variants = multiplier,none\n")
    out = tmp_path / "cmp"
    assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
    for v in ("multiplier", "none"):
        header, rows = read_csv(out / f"run_{v}.csv")
        assert header == RUN_HEADER
        assert len(rows) == 3 and int(rows[-1][9]) > 0


# -- the two-species model runs through `solve` only --------------------------------

PNP_STUDY_CFG = """
model = pnp
nx = 8
dt = 1e-3
T = 2e-3
dts = 1e-3,5e-4
ref_dt = 1e-4
"""


@pytest.mark.parametrize("command,runner", [
    ("convergence", "convergence_study"), ("compare", "run_simulation")])
def test_pnp_rejected_by_study_commands(tmp_path, capsys, monkeypatch,
                                        command, runner):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started before the model was checked")

    monkeypatch.setattr(cli, runner, no_run)
    cfg = write_config(tmp_path, PNP_STUDY_CFG)
    out = tmp_path / command
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "pnp" in err and "'solve'" in err
    assert not any(out.iterdir())
