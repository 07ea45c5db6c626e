import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from posikit import models
from posikit.grid import build_grid
from posikit.models import (AllenCahnModel, LubricationModel, PnpModel,
                            PorousMediumModel, _star, barenblatt,
                            lubrication_f_eta, pme_operator, pnp_step,
                            run_pnp)
from posikit.operators import Operator
from posikit.stepper import History, StepOptions, run_simulation


# -- double-well source -----------------------------------------------------------


@pytest.mark.parametrize("value", [0.0, 1.0, 0.5])
def test_allen_cahn_source_vanishes_at_equilibria(value):
    model = AllenCahnModel(n=8)
    hist = History.start(model.grid, np.full(model.grid.shape, value))
    assert np.abs(model.explicit_source(hist, 1)).max() == 0.0


def test_allen_cahn_source_k2_extrapolates():
    model = AllenCahnModel(n=8)
    g = model.grid
    hist = History.start(g, np.full(g.shape, 0.3))
    hist.push(np.full(g.shape, 0.4), np.zeros(g.shape), 0.0, 0.01)
    # star = 2*0.4 - 0.3 = 0.5, an equilibrium of the well
    assert np.abs(model.explicit_source(hist, 2)).max() < 1e-15


def test_allen_cahn_initial_state_in_unit_interval():
    model = AllenCahnModel()
    u0 = model.initial_state()
    assert u0.min() >= 0.0 and u0.max() <= 1.0
    assert u0.max() > 0.9 and u0.min() < 0.1  # both phases present


# -- positive extrapolation --------------------------------------------------------


def test_star_linear_branch():
    out = _star(np.array([0.5]), np.array([0.3]))
    assert out[0] == pytest.approx(0.7, abs=0.0)


def test_star_harmonic_branch():
    out = _star(np.array([0.2]), np.array([0.4]))
    assert out[0] == pytest.approx(1.0 / (10.0 - 2.5), rel=1e-15)


def test_star_zero_guard():
    out = _star(np.array([0.0]), np.array([0.4]))
    assert out[0] == 0.0


def test_star_stays_nonnegative():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b = rng.random(32), rng.random(32)
        assert _star(a, b).min() >= 0.0


# -- lagged diffusion handle --------------------------------------------------------


def test_pme_operator_m1_is_heat():
    g = build_grid((-5.0, 5.0), 16, "dirichlet")
    rng = np.random.default_rng(1)
    hist = History.start(g, rng.random(17) * g.active)
    op = pme_operator(hist, 1.0, k=1)
    u = rng.standard_normal(17) * g.active
    heat = Operator.laplacian(g).apply(u)
    assert np.abs((op.apply(u) - heat)[g.active]).max() < 1e-12


@pytest.mark.parametrize("kwargs,match", [
    (dict(m=1.0), "greater than 1"), (dict(m=float("nan")), "greater than 1"),
    (dict(C=0.0), "C must be positive"), (dict(C=-1.0), "C must be positive"),
])
def test_porous_medium_model_rejects_parameters_without_a_start(kwargs,
                                                               match):
    # m = 1 has no Barenblatt profile, C <= 0 starts from the zero state;
    # pme_operator itself still takes m = 1 (the heat operator above)
    with pytest.raises(ValueError, match=match):
        PorousMediumModel(n=16, **kwargs)


def test_pme_operator_degenerate_region():
    g = build_grid((-5.0, 5.0), 16, "dirichlet")
    u = np.zeros(17)
    u[8] = 1.0
    hist = History.start(g, u)
    op = pme_operator(hist, 2.0, k=1)
    assert op.coeff[2] == 0.0  # zero solution -> zero coefficient
    assert op.coeff[8] == pytest.approx(2.0)


def test_pme_operator_m2_coefficient_formula():
    g = build_grid((-5.0, 5.0), 16, "dirichlet")
    rng = np.random.default_rng(2)
    un, unm1 = rng.random(17), rng.random(17)
    hist = History.start(g, unm1)
    hist.push(un, np.zeros(17), 0.0, 0.1)
    op = pme_operator(hist, 2.0, k=2)
    star = _star(un, unm1)
    assert np.allclose(op.coeff, 2.0 * star, atol=1e-15)


def pme_history(k):
    """A 2D history with zeros outside a support and values from 0 to about
    3; at k = 2 its levels rise on some nodes and fall on others."""
    model = PorousMediumModel(m=3.0, n=32, dim=2)
    rng = np.random.default_rng(8)
    u0 = model.initial_state()
    hist = History.start(model.grid, u0 * 3.0 * rng.random(u0.shape))
    if k == 2:
        hist.push(u0 * 3.0 * rng.random(u0.shape), np.zeros(u0.shape), 0.0,
                  1e-3)
    return hist


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("m", [2.0, 3.0, 4.0, 5.0, 6.0, 9.0, 2.5, 4.5])
def test_pme_coefficient_against_pow(m, k):
    # a whole exponent by squaring: the bits of ** at m = 2 and 3 (numpy
    # forms x ** 1.0 and x ** 2.0 without pow), within 4 ulp up to m = 6
    # (3 measured); three squarings (m = 9) compound their roundings to
    # about m - 1 ulp against the exact power (5 from pow measured here).
    # A fractional exponent is ** itself; zeros stay +0.0, and no history
    # level is written
    hist = pme_history(k)
    levels = [(v, v.tobytes()) for v in hist.us]
    star = models._clamped_star(hist, k)
    expect = m * star ** (m - 1.0)
    coeff = pme_operator(hist, m, k).coeff
    assert all(v.tobytes() == b for v, b in levels)
    if m in (2.0, 3.0) or not m.is_integer():
        assert coeff.tobytes() == expect.tobytes()
    else:
        ulps = 4.0 if m <= 6.0 else m - 1.0
        assert (np.abs(coeff - expect) <= ulps * np.spacing(expect)).all()
    zeros = star == 0.0
    assert zeros.sum() > star.size // 4 and (star > 1.0).any()
    assert (coeff[zeros] == 0.0).all() and not np.signbit(coeff).any()


# -- self-similar reference ----------------------------------------------------------


def test_barenblatt_origin_value():
    assert barenblatt(np.array([0.0]), 0.0, 2.0)[0] == pytest.approx(1.0)


def test_barenblatt_support_edge():
    # solve C - alpha (m-1) x^2 / (2m) = 0 for m=2, C=1: x = sqrt(12)
    m = 2.0
    alpha = 1.0 / (m + 1.0)
    edge = np.sqrt(2.0 * m / (alpha * (m - 1.0)))
    assert edge == pytest.approx(np.sqrt(12.0))
    vals = barenblatt(np.array([edge - 1e-9, edge + 1e-9]), 0.0, m)
    assert vals[0] > 0.0 and vals[1] == 0.0


def test_barenblatt_clipped_outside():
    assert barenblatt(np.array([4.0]), 0.0, 2.0)[0] == 0.0


def test_barenblatt_rejects_m1():
    with pytest.raises(ValueError):
        barenblatt(np.array([0.0]), 0.0, 1.0)


def test_barenblatt_2d_radial():
    x = np.array([0.3])
    y = np.array([0.4])
    assert barenblatt((x, y), 0.5, 3.0)[0] == pytest.approx(
        barenblatt(np.array([0.5]), 0.5, 3.0)[0], rel=1e-14)


def test_pme_initial_state_zero_on_boundary():
    model = PorousMediumModel(m=2.0, n=32, dim=1)
    u0 = model.initial_state()
    assert u0[0] == 0.0 and u0[-1] == 0.0
    assert u0.max() == pytest.approx(1.0)


# -- electrodiffusion -----------------------------------------------------------------


def test_pnp_symmetric_data_degenerates():
    model = PnpModel(eps_debye=0.1, n=16)
    opts = StepOptions(k=2, dt=1e-3, variant="mass")
    run_p, run_n, phis = run_pnp(model, opts, 10)
    assert np.array_equal(run_p.history.us[0], run_n.history.us[0])
    assert np.abs(phis[0]).max() == 0.0
    m0 = run_p.diagnostics[0].mass
    for d in run_p.diagnostics:
        assert d.mass == pytest.approx(m0, rel=1e-12)
        assert d.min_u >= 0.0


def test_pnp_asymmetric_drift_runs_conservatively():
    model = PnpModel(eps_debye=0.1, n=16)
    g = model.grid
    X, Y = g.coords()
    p0 = np.where((X - 0.3) ** 2 + Y**2 <= 0.16, 1.0, 0.0)
    n0 = np.where((X + 0.3) ** 2 + Y**2 <= 0.16, 1.0, 0.0)
    assert g.mass(p0) == pytest.approx(g.mass(n0))

    hists = (History.start(g, p0), History.start(g, n0))
    phis = [model.potential(p0, n0)]
    assert np.abs(phis[0]).max() > 0.0

    opts = StepOptions(k=2, dt=1e-3, variant="mass")
    for _ in range(10):
        pnp_step(hists, phis, model, opts)
    assert len(phis) == 2
    p, n, phi = hists[0].us[0], hists[1].us[0], phis[0]
    assert p.min() >= 0.0 and n.min() >= 0.0
    assert not np.array_equal(p, n)
    assert g.mass(p) == pytest.approx(g.mass(p0), rel=1e-10)
    assert g.mass(n) == pytest.approx(g.mass(n0), rel=1e-10)
    assert abs(g.mass(phi)) < 1e-12  # gauge


def test_pnp_incompatible_masses_rejected():
    model = PnpModel(n=16)
    g = model.grid
    with pytest.raises(ValueError, match="incompatible"):
        model.potential(np.ones(g.shape), np.zeros(g.shape))


def test_pnp_potential_mean_zero_gauge():
    model = PnpModel(n=16)
    g = model.grid
    rng = np.random.default_rng(3)
    rho = rng.standard_normal(g.shape)
    rho -= g.mass(rho) / g.measure
    phi = model.potential(rho + 1.0, np.ones(g.shape))
    assert abs(g.mass(phi)) < 1e-12


# -- thin-film mobility ----------------------------------------------------------------


def test_f_eta_reduces_to_f_at_zero_eta():
    u = np.linspace(0.0, 2.0, 9)
    out = lubrication_f_eta(u, 1.0, 0.0)
    assert np.allclose(out, u, atol=1e-15)


def test_f_eta_midpoint_value():
    assert lubrication_f_eta(np.array([1.0]), 1.0, 1.0)[0] == pytest.approx(0.5)


def test_f_eta_zero_limit():
    assert lubrication_f_eta(np.array([0.0]), 0.5, 1e-12)[0] == 0.0


def test_lubrication_eta_validation():
    # eta >= 0 picks the mobility: plain u^rho at 0, regularized above it
    with pytest.raises(ValueError, match="eta must be finite and nonnegative"):
        LubricationModel(eta=-1e-8, n=16)
    star = np.linspace(0.0, 1.0, 16)
    assert np.array_equal(LubricationModel(n=16).mobility(star), star**0.5)
    assert np.array_equal(LubricationModel(eta=1e-2, n=16).mobility(star),
                          lubrication_f_eta(star, 0.5, 1e-2))


def test_lubrication_operator_coefficients():
    model = LubricationModel(rho=0.5, n=16)
    g = model.grid
    u = np.full(16, 0.25)
    hist = History.start(g, u)
    op = model.operator(hist, 1)
    assert op.kind == "div-coeff-grad-laplacian"
    assert np.allclose(op.coeff, 0.5)  # sqrt(0.25)

    reg = LubricationModel(rho=1.0, eta=1.0, n=16)
    hist = History.start(reg.grid, np.ones(16))
    assert np.allclose(reg.operator(hist, 1).coeff, 0.5)


def test_lubrication_initial_states():
    m1 = LubricationModel(n=64, dim=1)
    u0 = m1.initial_state()
    assert u0.min() == pytest.approx(0.05, abs=1e-12)  # at x = 0
    m2 = LubricationModel(n=16, dim=2, eta=1e-10, rho=1.0)
    v0 = m2.initial_state()
    assert v0.min() == 0.0 and v0.max() > 0.0


def test_lubrication_floor_run_keeps_bound_and_mass():
    model = LubricationModel(rho=0.5, n=64)
    opts = StepOptions(k=2, dt=1e-4, variant="mass", eps_lb=1e-2)
    res = run_simulation(model, opts, 50)
    m0 = model.grid.mass(model.initial_state())
    for d in res.diagnostics:
        assert d.min_u >= 1e-2
        assert d.mass == pytest.approx(m0, rel=1e-12)


@pytest.mark.parametrize("opts", [
    StepOptions(k=2, dt=1e-3), StepOptions(k=2, dt=1e-3, variant="cutoff"),
    StepOptions(k=2, dt=1e-3, variant="none"),
    StepOptions(k=2, dt=1e-3, variant="mass", eps_lb=1e-3)])
def test_run_pnp_rejects_options_it_cannot_honour(opts):
    # the species run the mass variant at floor 0; other options are an
    # error, not something to replace without a word
    with pytest.raises(ValueError, match="mass variant at eps_lb = 0"):
        run_pnp(PnpModel(n=8), opts, 1)


# -- non-finite parameters ---------------------------------------------------------

NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("make,kwargs,match", [
    # the CLI rejects these in a config; built in code, each was accepted
    (AllenCahnModel, dict(eps2=NAN), "interface parameter"),
    (AllenCahnModel, dict(eps2=INF), "interface parameter"),
    (PnpModel, dict(eps_debye=NAN), "Debye ratio"),
    (PnpModel, dict(eps_debye=INF), "Debye ratio"),
    (LubricationModel, dict(rho=NAN), "rho"),
    (LubricationModel, dict(eta=NAN), "eta"),
    (LubricationModel, dict(eta=INF), "eta"),
    (PorousMediumModel, dict(m=INF), "exponent m"),
    (PorousMediumModel, dict(C=INF), "amplitude C"),
])
def test_non_finite_model_parameters_fail_at_construction(make, kwargs,
                                                          match):
    with pytest.raises(ValueError, match=match):
        make(n=16, **kwargs)


@pytest.mark.parametrize("make", [LubricationModel, PorousMediumModel])
@pytest.mark.parametrize("dim", [0, 3])
def test_models_with_a_dimension_reject_any_but_1_or_2(make, dim):
    # a thin film of dim 3 built a 2D grid, and a porous medium of dim 0
    # failed with an IndexError
    with pytest.raises(ValueError, match=f"dim must be 1 or 2, got {dim}"):
        make(n=8, dim=dim)


# -- no state outlives a run ----------------------------------------------------

LEAK_CASES = {
    "allen_cahn": (lambda: AllenCahnModel(n=16), StepOptions(k=2, dt=1e-6)),
    "pme1d": (lambda: PorousMediumModel(n=16),
              StepOptions(k=2, dt=1e-3, variant="mass")),
    "pme2d": (lambda: PorousMediumModel(n=8, dim=2),
              StepOptions(k=2, dt=1e-3, variant="mass")),
    "thin_film": (lambda: LubricationModel(n=32),
                  StepOptions(k=2, dt=1e-5, variant="mass", eps_lb=1e-2)),
    "pnp": (lambda: PnpModel(n=8), StepOptions(k=2, dt=1e-3, variant="mass")),
}
LEAK_RUNS = 10
EDGE_FORM_CASES = ("pme1d", "pme2d")


@pytest.mark.parametrize("case", LEAK_CASES)
def test_fresh_runs_leave_no_state_behind(case):
    # a grid's operator arrays live in its memo, so a dropped run frees its
    # grid and everything built for it; the first run pays the one-time
    # allocations (lazy imports, numpy's own caches) before the count starts
    make, opts = LEAK_CASES[case]

    def fresh_run():
        model = make()
        if isinstance(model, PnpModel):
            run_pnp(model, opts, 3)
        else:
            run_simulation(model, opts, 3)
        g = model.grid
        assert not any(a.flags.writeable for a in g.memo.values())
        # the edge form keeps nothing per grid: its coefficients live on
        # the operator
        assert not g.memo if case in EDGE_FORM_CASES else g.memo
        return weakref.ref(g)

    fresh_run()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        grids = [fresh_run() for _ in range(LEAK_RUNS)]
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert [ref() for ref in grids] == [None] * LEAK_RUNS
    assert grown <= 1024 * LEAK_RUNS, f"{grown / LEAK_RUNS:.0f} B per run"
