import math

import numpy as np
import pytest

from posikit.diagnostics import (ConvergenceRow, EnergyLedger, ReferenceSpec,
                                 convergence_study, fit_orders, kkt_audit,
                                 ledger_variant_for, write_convergence_csv,
                                 write_run_csv)
from posikit.grid import build_grid
from posikit.operators import Operator
from posikit.stepper import (History, StepOptions, bdf_tableau,
                             correct_positivity, predict, run_simulation)
from posikit.models import AllenCahnModel, PorousMediumModel

from test_stepper import HeatModel


def test_ledger_variant_mapping():
    assert ledger_variant_for("multiplier", 1) == "first-order"
    assert ledger_variant_for("cutoff", 1) == "first-order"
    assert ledger_variant_for("mass", 1) == "first-order-mass"
    assert ledger_variant_for("multiplier", 2) == "second-order"
    assert ledger_variant_for("mass", 2) == "second-order-mass"
    assert ledger_variant_for("none", 1) is None
    assert ledger_variant_for("multiplier", 3) is None


def test_ledger_zero_trajectory():
    g = build_grid((0.0, 1.0), 8, "periodic")
    ledger = EnergyLedger(g, "first-order")
    z = np.zeros(8)
    for _ in range(5):
        ledger.update(0.1, z, z, z, z, 0.0, 0.0)
    assert ledger.residual() == 0.0


def test_ledger_one_step_dense_crosscheck():
    # assemble every term of the one-step balance with dense arithmetic
    g = build_grid((0.0, 2.0), 8, "dirichlet")
    rng = np.random.default_rng(0)
    u0 = rng.random(9) * g.active
    dt = 0.02
    op = Operator.laplacian(g)
    hist = History.start(g, u0)
    tab = bdf_tableau(1)
    u_tilde, _ = predict(hist, tab, op, dt, solver_tol=1e-14)
    out = correct_positivity(u_tilde, hist, tab, StepOptions(k=1, dt=dt))

    ledger = EnergyLedger(g, "first-order")
    ledger.update(dt, u0, u_tilde, out.u_next, out.lambda_next, 0.0,
                  op.quad(u_tilde))
    # independent evaluation of the same balance
    lhs = (g.norm(out.u_next) ** 2 + g.norm(u_tilde - u0) ** 2
           + dt**2 * g.norm(out.lambda_next) ** 2
           + 2 * dt * g.inner(op.apply(u_tilde), u_tilde))
    assert ledger.residual() == pytest.approx(abs(lhs - g.norm(u0) ** 2),
                                              rel=1e-12, abs=1e-15)
    assert ledger.residual() <= 1e-12 * g.norm(u0) ** 2


def test_ledger_requires_fixed_dt():
    g = build_grid((0.0, 1.0), 8, "periodic")
    ledger = EnergyLedger(g, "first-order")
    z = np.zeros(8)
    ledger.update(0.1, z, z, z, z, 0.0, 0.0)
    with pytest.raises(ValueError, match="fixed step"):
        ledger.update(0.2, z, z, z, z, 0.0, 0.0)


@pytest.mark.parametrize("variant,k", [("multiplier", 1), ("mass", 1),
                                       ("multiplier", 2), ("mass", 2)])
def test_ledger_short_pme_run(variant, k):
    model = PorousMediumModel(m=2.0, n=64, dim=1)
    lv = ledger_variant_for(variant, k)
    ledger = EnergyLedger(model.grid, lv)
    opts = StepOptions(k=k, dt=1e-3, variant=variant, solver_tol=1e-13)
    run_simulation(model, opts, 20, ledger=ledger)
    assert ledger.residual_rel() <= 1e-8


class FluxModel(HeatModel):
    """-div((1 + x) grad u) on [0, 1], 40 intervals, from 1 + cos(pi x) / 2
    on the active nodes; on a Dirichlet grid flux leaves through the ends."""

    def __init__(self, bcs):
        g = build_grid((0.0, 1.0), 40, bcs)
        (x,) = g.coords()
        super().__init__(g, (1.0 + 0.5 * np.cos(np.pi * x)) * g.active)
        self._op = Operator.div_coeff_grad(g, 1.0 + x)


@pytest.mark.parametrize("k", [1, 2])
def test_mass_ledger_holds_only_where_the_pde_conserves_mass(k):
    # the mass statements assume a mass-conserving PDE: through a Dirichlet
    # end the flux drains mass, the mass variant pulls it back with xi > 0,
    # and the ledger is right to flag the run
    def worst(bcs):
        model = FluxModel(bcs)
        ledger = EnergyLedger(model.grid, ledger_variant_for("mass", k))
        opts = StepOptions(k=k, dt=0.05, variant="mass")
        diags = run_simulation(model, opts, 6, ledger=ledger).diagnostics
        return max(d.ledger_residual for d in diags)

    assert worst("dirichlet") > 1.0
    assert worst("neumann") <= 1e-13


@pytest.mark.parametrize("model,variant", [
    (AllenCahnModel(eps2=1e-3, n=16), "multiplier"),
    (PorousMediumModel(m=3.0, n=16, dim=2), "mass")],
    ids=["periodic", "dirichlet"])
def test_ledger_leaves_the_step_diagnostics_unchanged(model, variant):
    # the step reads norm_u from an attached ledger; it must be the same
    # bits as the step's own norm, and nothing else may move either
    opts = StepOptions(k=2, dt=1e-2, variant=variant)
    fields = ("mass", "min_u", "max_u", "norm_u", "xi", "active_count")

    def rows(ledger):
        diags = run_simulation(model, opts, 8, ledger=ledger).diagnostics
        return [tuple(getattr(d, f) for f in fields) for d in diags]

    plain = rows(None)
    ledgered = rows(EnergyLedger(model.grid, ledger_variant_for(variant, 2)))
    assert repr(ledgered) == repr(plain)  # repr: -0.0 and nan compare too
    assert any(row[-1] > 0 for row in plain)  # some step clamps


def test_kkt_audit_clean_by_construction():
    g = build_grid((0.0, 1.0), 16, "periodic")
    hist = History.start(g, np.zeros(16))
    ut = np.random.default_rng(1).standard_normal(16)
    out = correct_positivity(ut, hist, bdf_tableau(1), StepOptions(k=1, dt=0.1))
    rep = kkt_audit(out.u_next, out.lambda_next, 0.0, g)
    assert rep.ok
    assert rep.worst_complementarity == 0.0


def test_kkt_audit_flags_violation():
    g = build_grid((0.0, 1.0), 4, "periodic")
    u = np.array([0.1, 0.0, 0.2, 0.3])
    lam = np.array([0.1, 0.0, 0.0, 0.0])   # positive multiplier off the bound
    rep = kkt_audit(u, lam, 0.0, g)
    assert not rep.ok
    assert rep.worst_complementarity == pytest.approx(0.01)


def test_kkt_audit_shifted_bound():
    g = build_grid((0.0, 1.0), 4, "periodic")
    u = np.full(4, 1e-2)
    lam = np.array([2.0, 0.0, 1.0, 0.0])
    rep = kkt_audit(u, lam, 1e-2, g)
    assert rep.ok


def test_kkt_audit_clean_along_floor_run():
    # thin-film run against a positive floor: audit every step
    from posikit.models import LubricationModel
    model = LubricationModel(rho=0.5, n=64)
    opts = StepOptions(k=2, dt=1e-4, variant="mass", eps_lb=1e-2)

    reports = []
    run_simulation(model, opts, 40, on_step=lambda h, d: reports.append(
        kkt_audit(h.us[0], h.lam, 1e-2, model.grid)))
    assert all(r.ok for r in reports)


def test_fit_orders_pairwise():
    orders = fit_orders([0.1, 0.05, 0.025], [1e-2, 5e-3, 2.5e-3])
    assert math.isnan(orders[0])
    assert orders[1] == pytest.approx(1.0)
    assert orders[2] == pytest.approx(1.0)


@pytest.mark.parametrize("k,expected", [(1, 1.0), (2, 2.0)])
def test_convergence_orders_against_exact_solution(k, expected):
    # u_t - Delta u = 0 with u = 2 + exp(-t) sin(x): closed-form oracle;
    # the solution stays positive so the correction never engages
    g = build_grid((0.0, 2 * np.pi), 16, "periodic")
    x = g.axes[0]
    model = HeatModel(g, 2.0 + np.sin(x))
    horizon = 0.5
    exact = 2.0 + math.exp(-horizon) * np.sin(x)
    dts = [horizon / 8, horizon / 16, horizon / 32, horizon / 64]
    rows = convergence_study(model, k, dts, exact, horizon=horizon)
    for row in rows[1:]:
        assert abs(row.order - expected) <= 0.05


@pytest.mark.parametrize("variant", ["none", "multiplier"])
@pytest.mark.parametrize("k", [1, 2])
def test_allen_cahn_temporal_order_k1_k2(k, variant):
    # the explicit reaction is extrapolated at order k, and the clamps of
    # the multiplier variant engage (the uncorrected minimum reaches -6.6e-4)
    # without costing order
    model = AllenCahnModel(eps2=0.05, n=16)
    horizon = 0.02
    dts = [horizon / 10, horizon / 20, horizon / 40, horizon / 80]
    ref = ReferenceSpec(k=2, dt=horizon / 1280, variant=variant)
    rows = convergence_study(model, k, dts, ref, variant=variant,
                             horizon=horizon)
    for row in rows[1:]:
        assert abs(row.order - k) <= 0.1, [r.order for r in rows[1:]]


def test_convergence_study_validates_dts():
    g = build_grid((0.0, 2 * np.pi), 8, "periodic")
    model = HeatModel(g, np.ones(8))
    with pytest.raises(ValueError, match="decreasing"):
        convergence_study(model, 1, [0.1, 0.1], np.ones(8), horizon=0.2)
    with pytest.raises(ValueError, match="reference dt"):
        convergence_study(model, 1, [0.1, 0.05], ReferenceSpec(dt=0.05),
                          horizon=0.2)


def test_run_csv_format(tmp_path):
    from posikit.stepper import StepDiagnostics
    d = StepDiagnostics(step=1, t=0.1, mass=2.0, min_u=0.0, max_u=1.0,
                        norm_u=1.5, xi=-0.25, secant_iterations=2,
                        active_count=3, solver_iterations=4,
                        solver_residual=1e-12, op_quad=0.5,
                        ledger_residual=1e-14)
    path = tmp_path / "run.csv"
    write_run_csv(path, [d], initial_row=(0.0, 2.0, 0.0, 1.0, 1.5, 0.0, 0, 0,
                                          0.0, 0, 0.0))
    lines = path.read_text().splitlines()
    assert lines[0] == ("t,mass,min_u,max_u,norm_u,xi,secant_iters,"
                        "active_count,ledger_residual,solver_iters,"
                        "solver_residual")
    assert len(lines) == 3
    row = lines[2].split(",")
    assert float(row[0]) == 0.1
    assert float(row[5]) == -0.25
    assert row[6] == "2" and row[7] == "3"
    assert row[9] == "4" and row[10] == "1e-12"
    # by value: a numpy scalar writes as the Python float or int it equals,
    # never with its type name
    d = StepDiagnostics(step=1, t=np.float64(0.1), mass=float("nan"),
                        min_u=-0.0, max_u=np.float64("inf"), norm_u=5e-324,
                        xi=np.float64(-0.0), secant_iterations=np.int64(2),
                        active_count=3, solver_iterations=np.int32(4),
                        solver_residual=np.float64(5e-324), op_quad=0.5,
                        ledger_residual=np.float32(0.5))
    write_run_csv(path, [d], initial_row=(
        np.float64(0.0), 2.5, np.float64(-1e-300), float("-inf"),
        np.float64(1.5), 0.0, np.int64(0), 0, np.float64("nan"),
        np.uint8(7), 1e-12))
    lines = path.read_text().splitlines()
    assert lines[1] == "0.0,2.5,-1e-300,-inf,1.5,0.0,0,0,nan,7,1e-12"
    assert lines[2] == "0.1,nan,-0.0,inf,5e-324,-0.0,2,3,0.5,4,5e-324"


def test_convergence_csv_format(tmp_path):
    rows = [ConvergenceRow(1e-3, 2.5e-4, float("nan")),
            ConvergenceRow(5e-4, 1.25e-4, 1.0)]
    path = tmp_path / "conv.csv"
    write_convergence_csv(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "dt,error,order"
    assert lines[1].endswith(",")  # first row has no order
    assert float(lines[2].split(",")[2]) == 1.0


def test_csv_floats_roundtrip(tmp_path):
    # shortest round-trip decimals: parsing the text recovers the exact float
    value = 0.1 + 0.2
    rows = [ConvergenceRow(value, value * 1e-7, float("nan"))]
    path = tmp_path / "conv.csv"
    write_convergence_csv(path, rows)
    text = path.read_text().splitlines()[1].split(",")
    assert float(text[0]) == value
    assert float(text[1]) == value * 1e-7
