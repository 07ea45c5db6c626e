"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The whole suite does a
few tens of thousands of time steps and finishes in well under a minute on a
laptop-class machine.
"""

import numpy as np
import pytest

from posikit.diagnostics import (EnergyLedger, convergence_study,
                                 run_to_horizon)
from posikit.grid import PERIODIC, build_grid
from posikit.models import (AllenCahnModel, LubricationModel, PnpModel,
                            PorousMediumModel, run_pnp)
from posikit.stepper import (StepOptions, bdf_tableau, residual_F,
                             run_simulation, solve_xi_exact, solve_xi_secant)

from test_stepper import SourcedModel

TABLE_DTS = [4e-5, 2e-5, 1e-5, 5e-6, 2.5e-6]
TABLE_ERRORS_K1 = [2.71e-4, 1.37e-4, 6.85e-5, 3.42e-5, 1.71e-5]
TABLE_ERRORS_K2 = [1.20e-5, 2.97e-6, 7.31e-7, 1.74e-7, 3.54e-8]


def report(name, checks):
    """checks: list of (ok, detail); prints one line and asserts all."""
    ok = all(c for c, _ in checks)
    detail = "; ".join(d for _, d in checks)
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def allen_cahn_model():
    return AllenCahnModel(eps2=0.001, n=32)


@pytest.fixture(scope="module")
def allen_cahn_reference(allen_cahn_model):
    # second-order reference at dt = 1e-6 over [0, 0.01]
    return run_to_horizon(allen_cahn_model, StepOptions(k=2, dt=1e-6), 0.01)


@pytest.fixture(scope="module")
def pme_m2_run():
    # m = 2, N = 256, dt = 1e-3 to T = 1, second-order multiplier variant
    model = PorousMediumModel(m=2.0, n=256, dim=1)
    opts = StepOptions(k=2, dt=1e-3, variant="multiplier")
    return model, run_simulation(model, opts, 1000)


def test_criterion_01_accuracy_table(allen_cahn_model, allen_cahn_reference):
    checks = []
    rows1 = convergence_study(allen_cahn_model,
                              StepOptions(k=1, dt=TABLE_DTS[0]), TABLE_DTS,
                              allen_cahn_reference, 0.01)
    orders1 = [r.order for r in rows1[1:]]
    checks.append((all(abs(o - 1.0) <= 0.15 for o in orders1),
                   "k=1 orders " + ",".join(f"{o:.2f}" for o in orders1)))
    ratios1 = [r.error / e for r, e in zip(rows1, TABLE_ERRORS_K1)]
    checks.append((all(0.2 <= q <= 5.0 for q in ratios1),
                   "k=1 error ratios " + ",".join(f"{q:.2f}" for q in ratios1)))

    rows2 = convergence_study(allen_cahn_model,
                              StepOptions(k=2, dt=TABLE_DTS[0]), TABLE_DTS,
                              allen_cahn_reference, 0.01)
    orders2 = [r.order for r in rows2[1:]]
    checks.append((all(o >= 1.8 for o in orders2),
                   "k=2 orders " + ",".join(f"{o:.2f}" for o in orders2)))
    ratios2 = [r.error / e for r, e in zip(rows2, TABLE_ERRORS_K2)]
    checks.append((all(0.2 <= q <= 5.0 for q in ratios2),
                   "k=2 error ratios " + ",".join(f"{q:.2f}" for q in ratios2)))
    report("criterion 1 (accuracy-table orders and magnitudes)", checks)


def _ledger_run(variant, k):
    model = PorousMediumModel(m=2.0, n=128, dim=1)
    opts = StepOptions(k=k, dt=1e-3, variant=variant, solver_tol=1e-13)
    ledger = EnergyLedger(model.grid, opts)
    run_simulation(model, opts, 200, ledger=ledger)
    return ledger.residual_rel()


def test_criterion_02_first_order_energy_identity():
    r = _ledger_run("multiplier", 1)
    report("criterion 2 (first-order energy identity)",
           [(r <= 1e-8, f"relative residual {r:.3e} <= 1e-8")])


def test_criterion_03_energy_inequalities():
    checks = []
    for variant, k in (("mass", 1), ("multiplier", 2), ("mass", 2)):
        r = _ledger_run(variant, k)
        checks.append((r <= 1e-8, f"{variant} k={k}: {r:.3e}"))
    report("criterion 3 (energy inequalities, first-order start-up)", checks)


class PeriodicPorousMediumModel(PorousMediumModel):
    """The porous-medium problem on the periodic Fourier grid of (-5, 5).

    The pseudo-spectral divergence form is not monotone, so the uncorrected
    prediction really loses positivity here; the Dirichlet edge form is an
    M-matrix and keeps it without any correction.
    """

    def __post_init__(self):
        self.grid = build_grid(((-5.0, 5.0),), (self.n,), PERIODIC)


def test_criterion_04_positivity_and_baseline(pme_m2_run):
    checks = []
    _, res2 = pme_m2_run
    min2 = min(d.min_u for d in res2.diagnostics)
    checks.append((min2 >= 0.0, f"m=2 corrected min u = {min2:.2e}"))

    model5 = PorousMediumModel(m=5.0, n=256, dim=1)
    res5 = run_simulation(model5, StepOptions(k=2, dt=1e-3,
                                              variant="multiplier"), 100)
    min5 = min(d.min_u for d in res5.diagnostics)
    checks.append((min5 >= 0.0, f"m=5 corrected min u = {min5:.2e}"))

    for m, n_steps in ((2.0, 1000), (5.0, 100)):
        model = PeriodicPorousMediumModel(m=m, n=256)
        worst = {}
        for variant in ("none", "multiplier"):
            # only the baseline may end early: blow-up is a possible outcome
            res = run_simulation(model, StepOptions(k=2, dt=1e-3,
                                                    variant=variant),
                                 n_steps, stop_on_failure=variant != "none")
            worst[variant] = min(d.min_u for d in res.diagnostics)
        checks.append((worst["none"] < -1e-6,
                       f"m={m:g} periodic baseline min u = "
                       f"{worst['none']:.2e} < -1e-6"))
        checks.append((worst["multiplier"] >= 0.0,
                       f"m={m:g} periodic corrected min u = "
                       f"{worst['multiplier']:.2e}"))
    report("criterion 4 (positivity everywhere; baseline goes negative on "
           "the spectral grid)", checks)


def test_criterion_05_self_similar_accuracy(pme_m2_run):
    model, res = pme_m2_run
    err = model.grid.norm(res.history.us[0] - model.exact(1.0))
    report("criterion 5 (self-similar accuracy)",
           [(err <= 5e-2, f"nodal L2 error at T=1: {err:.3e} <= 5e-2")])


def test_criterion_06_mass_conservation():
    # m = 5 keeps the self-similar support away from the Dirichlet wall over
    # the whole horizon [0, 2] (contact at |x| = 4.65 < 5), so the discrete
    # conservation hypothesis behind xi <= 0 holds; at m = 2 the exact
    # support reaches the wall at t = 2.007 and the smeared interface starts
    # leaking boundary mass from t ~ 1.9 at uniform-grid resolutions.
    model = PorousMediumModel(m=5.0, n=256, dim=1)
    checks = []
    dt = 1e-3

    opts = StepOptions(k=2, dt=dt, variant="mass", solver_tol=1e-12)
    res = run_simulation(model, opts, 2000)  # horizon T = 2
    m0 = model.grid.mass(model.initial_state())
    drift = max(abs(d.mass - m0) for d in res.diagnostics) / m0
    checks.append((drift <= 1e-10, f"relative mass drift {drift:.2e}"))
    # xi <= 0 up to the secant stopping noise |F| <= tol mapped through the
    # residual slope (dt/alpha) * |domain|
    alpha = bdf_tableau(opts.k).alpha
    xi_floor = 4.0 * opts.secant_tol * max(1.0, m0) * alpha / (
        dt * model.grid.measure)
    xi_max = max(d.xi for d in res.diagnostics)
    checks.append((xi_max <= xi_floor,
                   f"max xi {xi_max:.2e} <= noise floor {xi_floor:.2e}"))
    med = float(np.median([d.secant_iters for d in res.diagnostics]))
    checks.append((med <= 3, f"median secant iterations {med:g}"))

    res_nm = run_simulation(model, StepOptions(k=2, dt=dt,
                                               variant="multiplier",
                                               solver_tol=1e-12), 2000)
    masses = [m0] + [d.mass for d in res_nm.diagnostics]
    nondec = all(b - a >= -1e-12 * m0 for a, b in zip(masses, masses[1:]))
    gain = masses[-1] - m0
    checks.append((nondec, f"uncorrected-mass variant nondecreasing "
                           f"(total gain {gain:+.2e})"))
    report("criterion 6 (mass conservation and scalar multiplier)", checks)


def test_criterion_07_cutoff_equivalence():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(8, 24))
        g = build_grid((0.0, 1.0), n, "periodic")
        u0 = rng.random(n)
        src = rng.uniform(5.0, 40.0) * rng.standard_normal(n)
        dt = float(rng.uniform(0.002, 0.02))
        finals = {}
        for variant in ("multiplier", "cutoff"):
            model = SourcedModel(g, u0, src)
            opts = StepOptions(k=1, dt=dt, variant=variant)
            trajectory = []
            res = run_simulation(model, opts, 6,
                                 on_step=lambda h, d: trajectory.append(
                                     h.us[0].copy()))
            finals[variant] = trajectory
        for a, b in zip(finals["multiplier"], finals["cutoff"]):
            if not np.array_equal(a, b):
                worst = max(worst, float(np.abs(a - b).max()))
    report("criterion 7 (first-order cut-off equivalence)",
           [(worst == 0.0, f"100 randomized trajectories bit-identical "
                           f"(worst deviation {worst:.1e})")])


def test_criterion_08_secant_matches_exact_oracle():
    rng = np.random.default_rng(7)
    g = build_grid((0.0, 2.0), 16, "neumann")
    tabs = [bdf_tableau(k) for k in (1, 2)]
    worst = 0.0
    for _ in range(1000):
        ut = rng.standard_normal(17) * rng.uniform(0.2, 3.0)
        sb = rng.standard_normal(17) * rng.uniform(0.0, 2.0)
        tab = tabs[rng.integers(0, 2)]
        dt = float(rng.uniform(0.05, 1.0))
        eps = float(rng.choice([0.0, 1e-2]))
        target = eps * g.measure + float(rng.uniform(0.05, 3.0))
        F = lambda xi: residual_F(xi, ut, sb, dt, tab, target, g, eps)
        xi_s, _ = solve_xi_secant(F, 0.0, -dt, tol=1e-13 * max(1.0, target))
        xi_e = solve_xi_exact(ut, sb, dt, tab, target, g, eps)
        worst = max(worst, abs(xi_s - xi_e) / max(1.0, abs(xi_e)))
    report("criterion 8 (secant agrees with breakpoint oracle)",
           [(worst <= 1e-12, f"worst deviation {worst:.2e} over 1000 "
                             f"instances")])


def test_criterion_09_electrodiffusion_sanity():
    model = PnpModel(eps_debye=0.1, n=64)
    opts = StepOptions(k=2, dt=1e-3, variant="mass")
    run_p, run_n, phis = run_pnp(model, opts, 100)  # to t = 0.1
    checks = []
    min_p = min(d.min_u for d in run_p.diagnostics)
    min_n = min(d.min_u for d in run_n.diagnostics)
    checks.append((min_p >= 0.0 and min_n >= 0.0,
                   f"min p {min_p:.1e}, min n {min_n:.1e}"))
    mp0 = run_p.diagnostics[0].mass
    drift = max(abs(d.mass - mp0) for d in run_p.diagnostics) / mp0
    checks.append((drift <= 1e-10, f"species mass drift {drift:.1e}"))
    same = np.array_equal(run_p.history.us[0], run_n.history.us[0])
    phi0 = float(np.abs(phis[0]).max())
    checks.append((same and phi0 == 0.0,
                   f"p == n exactly, max |phi| = {phi0:.1e}"))
    report("criterion 9 (electrodiffusion sanity)", checks)


def test_criterion_10_thin_film_floor():
    checks = []
    eps = 1e-2
    model = LubricationModel(rho=0.5, n=256, dim=1)
    opts = StepOptions(k=2, dt=1e-4, variant="mass", eps_lb=eps)
    complement_ok = True
    touched = 0

    def audit(hist, diag):
        nonlocal complement_ok, touched
        u, lam = hist.us[0], hist.lam
        pos = lam > 0.0
        if not np.array_equal(np.flatnonzero(pos),
                              np.flatnonzero(u == eps)):
            complement_ok = False
        touched = max(touched, diag.active_count)

    res = run_simulation(model, opts, 500, on_step=audit)
    min_u = min(d.min_u for d in res.diagnostics)
    checks.append((min_u >= eps, f"min u = {min_u:.6f} >= {eps}"))
    checks.append((complement_ok and touched > 0,
                   f"multiplier positive exactly on clamped nodes "
                   f"(up to {touched} at once)"))

    opts_b = StepOptions(k=2, dt=2e-7, variant="mass", eps_lb=1e-4)
    res_b = run_simulation(model, opts_b, 4000)  # passes t = 7.4e-4
    t_end = res_b.history.t
    min_b = min(d.min_u for d in res_b.diagnostics)
    checks.append((res_b.failure is None and t_end > 7.4e-4 and min_b >= 1e-4,
                   f"small-floor run reached t = {t_end:.2e} with "
                   f"min u = {min_b:.1e}"))
    report("criterion 10 (thin-film floor mode)", checks)
