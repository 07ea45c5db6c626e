import math
import os
from dataclasses import replace

import numpy as np
import pytest

from posikit.diagnostics import (DEFAULT_REFERENCE, RUN_COLUMNS,
                                 ConvergenceRow, EnergyLedger,
                                 convergence_study, fit_orders,
                                 has_energy_statement, horizon_steps,
                                 kkt_audit, write_convergence_csv,
                                 write_csv, write_run_csv)
from posikit.grid import build_grid
from posikit.operators import Operator
from posikit.stepper import (History, StepDiagnostics, StepOptions,
                             bdf_tableau, correct_positivity, predict,
                             run_simulation, step)
from posikit.models import AllenCahnModel, PorousMediumModel

from test_stepper import HeatModel


def test_ledger_variant_mapping():
    # the scheme decides the statement: an identity for the first-order
    # multiplier and cut-off steps, inequalities for the mass step and at
    # k = 2, none for the k = 2 cut-off step or the uncorrected one
    g = build_grid((0.0, 1.0), 8, "periodic")
    u0, z = np.ones(8), np.zeros(8)
    statements = {("multiplier", 1): "identity", ("cutoff", 1): "identity",
                  ("mass", 1): "inequality", ("multiplier", 2): "inequality",
                  ("mass", 2): "inequality", ("cutoff", 2): None,
                  ("none", 1): None, ("none", 2): None}
    for (variant, k), statement in statements.items():
        opts = StepOptions(k=k, dt=0.1, variant=variant)
        assert has_energy_statement(opts) == (statement is not None)
        if statement is None:
            with pytest.raises(ValueError, match="no energy statement"):
                EnergyLedger(g, opts)
            continue
        ledger = EnergyLedger(g, opts)
        assert ledger.with_xi == (variant == "mass")
        # a step that loses all energy and dissipates none: an identity
        # flags it, an inequality holds
        ledger.update(u0, u0, z, z, 0.0, 0.0, 0.0, None)
        assert (ledger.residual() > 0) == (statement == "identity")
    with pytest.raises(ValueError, match="BDF order"):
        StepOptions(k=3, dt=0.1)  # no scheme, so no ledger either


def test_ledger_zero_trajectory():
    g = build_grid((0.0, 1.0), 8, "periodic")
    ledger = EnergyLedger(g, StepOptions(k=1, dt=0.1))
    z = np.zeros(8)
    for _ in range(5):
        ledger.update(z, z, z, z, 0.0, 0.0, 0.0, None)
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
    opts = StepOptions(k=1, dt=dt, solver_tol=1e-14)
    u_tilde, _ = predict(hist, tab, op, opts)
    out = correct_positivity(u_tilde, hist, tab, opts)

    ledger = EnergyLedger(g, opts)
    ledger.update(u0, u_tilde, out.u_next, out.lambda_next, 0.0,
                  op.quad(u_tilde), g.norm(out.u_next), None)
    # independent evaluation of the same balance
    lhs = (g.norm(out.u_next) ** 2 + g.norm(u_tilde - u0) ** 2
           + dt**2 * g.norm(out.lambda_next) ** 2
           + 2 * dt * g.inner(op.apply(u_tilde), u_tilde))
    assert ledger.residual() == pytest.approx(abs(lhs - g.norm(u0) ** 2),
                                              rel=1e-12, abs=1e-15)
    assert ledger.residual() <= 1e-12 * g.norm(u0) ** 2


def test_ledger_requires_fixed_dt():
    # the ledger steps at its own options' dt: a step at another dt is a
    # step of another scheme
    g = build_grid((0.0, 1.0), 8, "periodic")
    model = HeatModel(g, np.zeros(8))
    opts = StepOptions(k=1, dt=0.1)
    ledger = EnergyLedger(g, opts)
    hist, _ = step(History.start(g, model.initial_state()), model, opts,
                   ledger)
    with pytest.raises(ValueError, match="ledger built for"):
        step(hist, model, replace(opts, dt=0.2), ledger)
    assert ledger.nsteps == 1


# the scheme a PME ledger is built for, and one change to each of its k,
# variant and dt
PME_LEDGER_OPTS = StepOptions(k=2, dt=1e-3, variant="mass")


@pytest.mark.parametrize("change", [{"k": 1}, {"variant": "multiplier"},
                                    {"dt": 2e-3}],
                         ids=["k", "variant", "dt"])
def test_ledger_rejects_a_run_of_another_scheme(change):
    # a k = 2 multiplier ledger on a mass run read 0.0 for 50 steps
    model = PorousMediumModel(m=2.0, n=64, dim=1)
    ledger = EnergyLedger(model.grid, PME_LEDGER_OPTS)
    with pytest.raises(ValueError, match="ledger built for"):
        run_simulation(model, replace(PME_LEDGER_OPTS, **change), 5,
                       ledger=ledger)
    assert ledger.nsteps == 0
    # equal options in another object describe the same scheme
    run_simulation(model, replace(PME_LEDGER_OPTS), 5, ledger=ledger)
    assert ledger.nsteps == 5 and ledger.residual_rel() <= 1e-8


def test_one_ledger_watches_one_run():
    # a second run would continue the first run's sums from its own u^0
    model = PorousMediumModel(m=2.0, n=64, dim=1)
    ledger = EnergyLedger(model.grid, PME_LEDGER_OPTS)
    run_simulation(model, PME_LEDGER_OPTS, 20, ledger=ledger)
    with pytest.raises(ValueError, match="seen 20 steps, the run 0"):
        run_simulation(model, PME_LEDGER_OPTS, 20, ledger=ledger)
    assert ledger.nsteps == 20


def test_ledger_attached_after_the_first_step_is_rejected():
    # the sums would start from u^1, not from the run's initial field
    model = PorousMediumModel(m=2.0, n=64, dim=1)
    hist = History.start(model.grid, model.initial_state())
    hist, _ = step(hist, model, PME_LEDGER_OPTS)
    ledger = EnergyLedger(model.grid, PME_LEDGER_OPTS)
    with pytest.raises(ValueError, match="seen 0 steps, the run 1"):
        step(hist, model, PME_LEDGER_OPTS, ledger)
    assert ledger.nsteps == 0 and hist.nstep == 1


@pytest.mark.parametrize("variant,k", [("multiplier", 1), ("mass", 1),
                                       ("multiplier", 2), ("mass", 2)])
def test_ledger_short_pme_run(variant, k):
    model = PorousMediumModel(m=2.0, n=64, dim=1)
    opts = StepOptions(k=k, dt=1e-3, variant=variant, solver_tol=1e-13)
    ledger = EnergyLedger(model.grid, opts)
    run_simulation(model, opts, 20, ledger=ledger)
    assert ledger.residual_rel() <= 1e-8


@pytest.mark.parametrize("variant", ["multiplier", "cutoff"])
def test_first_order_identity_takes_in_the_source(variant):
    # an explicit source f supplies 2 dt <f, u~> a step: left out, the
    # identity of this clamping Allen-Cahn run is off by 2.5e-2
    model = AllenCahnModel(eps2=1e-3, n=32)
    opts = StepOptions(k=1, dt=1e-6, variant=variant)
    ledger = EnergyLedger(model.grid, opts)
    diags = run_simulation(model, opts, 2000, ledger=ledger).diagnostics
    assert sum(d.active_count for d in diags) > 0
    assert max(d.ledger_residual for d in diags) <= 1e-8


def test_first_order_identity_takes_in_the_floor():
    # above a floor eps_lb > 0 complementarity leaves
    # <lam, u^{n+1}> = eps_lb <lam, 1>, which the step supplies: left out,
    # the identity of this sourceless thin film is off by 8.7e-5
    from posikit.models import LubricationModel
    model = LubricationModel(rho=0.5, n=256)
    opts = StepOptions(k=1, dt=1e-4, eps_lb=1e-2)
    ledger = EnergyLedger(model.grid, opts)
    diags = run_simulation(model, opts, 300, ledger=ledger).diagnostics
    assert sum(d.active_count for d in diags) > 0
    assert max(d.ledger_residual for d in diags) <= 1e-8


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
        opts = StepOptions(k=k, dt=0.05, variant="mass")
        ledger = EnergyLedger(model.grid, opts)
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
    ledgered = rows(EnergyLedger(model.grid, opts))
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
    rows = convergence_study(model, StepOptions(k=k, dt=dts[0]), dts, exact,
                             horizon)
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
    ref = StepOptions(k=2, dt=horizon / 1280, variant=variant)
    rows = convergence_study(model, StepOptions(k=k, dt=dts[0],
                                                variant=variant),
                             dts, ref, horizon)
    for row in rows[1:]:
        assert abs(row.order - k) <= 0.1, [r.order for r in rows[1:]]


# the order matrix: Allen-Cahn (eps2 0.05, 16 modes) to T = 0.02 at dt =
# T/10 ... T/320, each variant against one k = 2 reference of its own at
# T/5120, shared by both orders
MATRIX_VARIANTS = ("cutoff", "multiplier", "mass")


@pytest.fixture(scope="module")
def order_matrix():
    """Observed orders of every (variant, k) pair, finest pair last."""
    model = AllenCahnModel(eps2=0.05, n=16)
    horizon = 0.02
    dts = [horizon / n for n in (10, 20, 40, 80, 160, 320)]
    orders = {}
    for variant in MATRIX_VARIANTS:
        ref = StepOptions(k=2, dt=horizon / 5120, variant=variant)
        u_ref = run_simulation(model, ref, horizon_steps(
            horizon, ref.dt)).history.us[0]
        for k in (1, 2):
            rows = convergence_study(model, replace(ref, k=k), dts, u_ref,
                                     horizon)
            orders[variant, k] = [r.order for r in rows[1:]]
    return orders


@pytest.mark.parametrize("variant,k", [(v, k) for v in MATRIX_VARIANTS
                                       for k in (1, 2)
                                       if (v, k) != ("cutoff", 2)])
def test_order_matrix_keeps_order_k(order_matrix, variant, k):
    # the clamps engage, and the multiplier's memory term keeps k = 2 at
    # second order (measured: 2.05 down to 2.00); k = 1 reads 0.97-1.00
    orders = order_matrix[variant, k]
    assert all(abs(o - k) <= 0.1 for o in orders), orders


def test_order_matrix_cutoff_k2_falls_to_first_order(order_matrix):
    # without the memory term the clamps' first-order error takes over as
    # dt shrinks: measured 2.04, 2.00, 1.35, 1.03, 1.05
    cutoff = order_matrix["cutoff", 2]
    multiplier = order_matrix["multiplier", 2]
    assert all(abs(o - 2.0) <= 0.1 for o in cutoff[:2]), cutoff
    for o, o_mult in zip(cutoff[-2:], multiplier[-2:]):
        assert abs(o - 1.0) <= 0.1 and o < o_mult - 0.5, (cutoff, multiplier)


def test_convergence_study_validates_dts():
    g = build_grid((0.0, 2 * np.pi), 8, "periodic")
    model = HeatModel(g, np.ones(8))
    opts = StepOptions(k=1, dt=0.1)
    with pytest.raises(ValueError, match="decreasing"):
        convergence_study(model, opts, [0.1, 0.1], np.ones(8), 0.2)
    with pytest.raises(ValueError, match="reference dt"):
        convergence_study(model, opts, [0.1, 0.05],
                          replace(DEFAULT_REFERENCE, dt=0.05), 0.2)


def load_gates(monkeypatch):
    """``perfbench/gates.py``, imported by path with its own directory on
    the path, as the benchmark runs it."""
    import importlib.util
    bench = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
    monkeypatch.syspath_prepend(bench)
    spec = importlib.util.spec_from_file_location(
        "perfbench_gates", os.path.join(bench, "gates.py"))
    gates = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gates)
    return gates


def test_run_csv_row_is_the_step_record(tmp_path, monkeypatch):
    # every column is a StepDiagnostics field, and the gates of the
    # benchmark read the first nine by name
    assert set(RUN_COLUMNS) <= set(StepDiagnostics.__dataclass_fields__)
    assert list(RUN_COLUMNS[:9]) == list(load_gates(monkeypatch)._COL)
    d = StepDiagnostics(step=1, t=0.1, mass=2.0, min_u=0.0, max_u=1.0,
                        norm_u=1.5, xi=-0.25, secant_iters=2,
                        active_count=3, solver_iters=4,
                        solver_residual=1e-12, op_quad=0.5,
                        ledger_residual=1e-14)
    u0 = np.array([0.0, 2.0, 1.0, 0.5, 1.0, -3.0])  # the ends are inactive
    g = build_grid((0.0, 1.0), 5, "dirichlet")
    path = tmp_path / "run.csv"
    base = StepDiagnostics.initial(g, u0)
    write_run_csv(path, [base, d])
    lines = path.read_text().splitlines()
    assert lines[0] == ("t,mass,min_u,max_u,norm_u,xi,secant_iters,"
                        "active_count,ledger_residual,solver_iters,"
                        "solver_residual")
    assert len(lines) == 3
    # the t = 0 row: min and max over the active nodes only, no counts
    row = lines[1].split(",")
    assert row[0] == "0.0" and row[1] == repr(g.mass(u0))
    assert row[2:4] == ["0.5", "2.0"] and row[4] == repr(g.norm(u0))
    assert row[5:] == ["0.0", "0", "0", "0.0", "0", "0.0"]
    row = lines[2].split(",")
    assert float(row[0]) == 0.1
    assert float(row[5]) == -0.25
    assert row[6] == "2" and row[7] == "3"
    assert row[9] == "4" and row[10] == "1e-12"
    # by value: a numpy integer or float scalar in any field writes as the
    # Python number it equals, never with its type name
    for name in RUN_COLUMNS:
        v = getattr(base, name)
        scalar = np.int64(v) if type(v) is int else np.float64(v)
        write_run_csv(path, [replace(base, **{name: scalar})])
        assert path.read_text().splitlines()[1] == lines[1], name
    first = StepDiagnostics(
        step=np.int64(0), t=np.float64(0.0), mass=2.5,
        min_u=np.float64(-1e-300), max_u=float("-inf"),
        norm_u=np.float64(1.5), xi=0.0, secant_iters=np.int64(0),
        active_count=0, solver_iters=np.uint8(7), solver_residual=1e-12,
        op_quad=np.float64(0.5), ledger_residual=np.float64("nan"))
    d = StepDiagnostics(step=1, t=np.float64(0.1), mass=float("nan"),
                        min_u=-0.0, max_u=np.float64("inf"), norm_u=5e-324,
                        xi=np.float64(-0.0), secant_iters=np.int64(2),
                        active_count=np.int16(3), solver_iters=np.int32(4),
                        solver_residual=np.float64(5e-324), op_quad=0.5,
                        ledger_residual=np.float32(0.5))
    write_run_csv(path, [first, d])
    lines = path.read_text().splitlines()
    assert lines[1] == "0.0,2.5,-1e-300,-inf,1.5,0.0,0,0,nan,7,1e-12"
    assert lines[2] == "0.1,nan,-0.0,inf,5e-324,-0.0,2,3,0.5,4,5e-324"


def test_csv_cells_blank_none_and_keep_text(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("name", "n", "x", "y"),
              [("a", np.int64(3), np.float32(0.25), None),
               ("b", 4, 1e-300, -0.0)], ("n",))
    assert path.read_text() == "name,n,x,y\na,3,0.25,\nb,4,1e-300,-0.0\n"


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
