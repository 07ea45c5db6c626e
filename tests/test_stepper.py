import numpy as np
import pytest

from posikit.grid import build_grid
from posikit.operators import Operator
from posikit.stepper import (VARIANTS, BlowUpError, History, SecantError,
                             StepOptions, bdf_tableau, correct_positivity,
                             extrapolation_coeffs, predict, residual_F, run_simulation,
                             solve_xi_exact, solve_xi_secant, step)

from test_operators import dense_matrix


def three_node_grid():
    """Three active nodes of weight 1 (Dirichlet ends carry weight 0)."""
    return build_grid((0.0, 4.0), 4, "dirichlet")


def embed3(a, b, c):
    return np.array([0.0, a, b, c, 0.0])


def copts(variant, dt, eps_lb=0.0, target_mass=None):
    """Options that select one correction of :func:`correct_positivity`."""
    return StepOptions(k=1, dt=dt, variant=variant, eps_lb=eps_lb,
                       target_mass=target_mass)


class HeatModel:
    """u_t - Delta u = 0; operator fixed, no source."""

    def __init__(self, g, u0):
        self.grid = g
        self._u0 = np.asarray(u0, dtype=float)
        self._op = Operator.laplacian(g)

    def initial_state(self):
        return self._u0.copy()

    def operator(self, hist, k):
        return self._op

    def explicit_source(self, hist, k):
        return None


class SourcedModel(HeatModel):
    """Heat plus a static source field; drives the correction machinery."""

    def __init__(self, g, u0, source):
        super().__init__(g, u0)
        self._src = np.asarray(source, dtype=float)

    def explicit_source(self, hist, k):
        return self._src


# -- tableaux -------------------------------------------------------------------


def test_tableau_k1():
    t = bdf_tableau(1)
    assert (t.alpha, t.a_coeffs, t.b_coeffs) == (1.0, (1.0,), ())


def test_tableau_k2():
    t = bdf_tableau(2)
    assert t.alpha == 1.5
    assert t.a_coeffs == (2.0, -0.5)
    assert t.b_coeffs == (1.0,)


def test_tableau_k3():
    t = bdf_tableau(3)
    assert t.alpha == pytest.approx(11.0 / 6.0, abs=0.0)
    assert t.b_coeffs == (2.0, -1.0)


def test_tableau_k4():
    t = bdf_tableau(4)
    assert t.alpha == pytest.approx(25.0 / 12.0, abs=0.0)
    assert t.a_coeffs == (4.0, -3.0, 4.0 / 3.0, -0.25)
    assert t.b_coeffs == (3.0, -3.0, 1.0)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_tableau_consistency_sums(k):
    t = bdf_tableau(k)
    assert sum(t.a_coeffs) == pytest.approx(t.alpha, rel=1e-15)
    assert sum(t.b_coeffs) == (1.0 if k >= 2 else 0.0)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_extrapolation_coeffs_are_exact_on_polynomials(k):
    # order k: the k newest levels of a degree k - 1 polynomial, newest
    # first, extrapolate to its next value exactly (whole-number weights)
    w = extrapolation_coeffs(k)
    assert len(w) == k and all(float(c).is_integer() for c in w)
    for deg in range(k):
        levels = [float((-j) ** deg) for j in range(k)]  # t = 0, -1, ...
        assert sum(c * v for c, v in zip(w, levels)) == 1.0  # t = 1
    assert extrapolation_coeffs(4) == (4.0, -6.0, 4.0, -1.0)
    if k >= 2:
        assert bdf_tableau(k).b_coeffs == extrapolation_coeffs(k - 1)


@pytest.mark.parametrize("k", [0, 5, -1])
def test_tableau_rejects_out_of_range(k):
    with pytest.raises(ValueError):
        bdf_tableau(k)


# -- prediction -----------------------------------------------------------------


def test_predict_scalar_surrogate():
    # on the k = 1 Fourier mode the Laplacian acts as multiplication by 1,
    # so with dt = 1 the prediction solves (1 + 1) u~ = u0
    g = build_grid((0.0, 2 * np.pi), 8, "periodic")
    u0 = np.sin(g.axes[0])
    hist = History.start(g, u0)
    u_tilde, _ = predict(hist, bdf_tableau(1), Operator.laplacian(g), 1.0)
    assert np.abs(u_tilde - 0.5 * u0).max() < 1e-13


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_predict_constant_steady_state(k):
    g = build_grid((0.0, 1.0), 8, "periodic")
    u0 = np.full(8, 2.0)
    hist = History.start(g, u0)
    for _ in range(3):
        hist.push(u0.copy(), np.zeros(8), 0.0, 0.1)
    u_tilde, _ = predict(hist, bdf_tableau(k), Operator.laplacian(g), 0.1)
    assert np.abs(u_tilde - 2.0).max() < 1e-12


def test_predict_heat_step_matches_dense_solve():
    g = build_grid((0.0, 2.0), 8, "dirichlet")
    rng = np.random.default_rng(0)
    u0 = rng.random(9) * g.active
    hist = History.start(g, u0)
    dt = 0.01
    op = Operator.laplacian(g)
    u_tilde, _ = predict(hist, bdf_tableau(1), op, dt)

    M = dense_matrix(op.apply, g)
    A = np.eye(9) / dt + M
    act = np.flatnonzero(np.ravel(g.active))
    expect = np.zeros(9)
    expect[act] = np.linalg.solve(A[np.ix_(act, act)], (u0 / dt)[act])
    assert np.abs(u_tilde - expect).max() < 1e-12


def test_predict_rejects_bad_dt():
    g = build_grid((0.0, 1.0), 8, "periodic")
    hist = History.start(g, np.zeros(8))
    with pytest.raises(ValueError):
        predict(hist, bdf_tableau(1), Operator.laplacian(g), 0.0)


# -- positivity correction --------------------------------------------------------


def test_correct_positivity_forced_multiplier():
    # k=1, dt=0.1, u~ = -0.3 -> (0, 3.0)
    g = build_grid((0.0, 1.0), 4, "periodic")
    hist = History.start(g, np.zeros(4))
    out = correct_positivity(np.full(4, -0.3), hist, bdf_tableau(1),
                             copts("multiplier", 0.1))
    assert np.all(out.u_next == 0.0)
    assert np.all(out.lambda_next == pytest.approx(3.0))
    assert out.active_count == 4


def test_correct_positivity_inactive_node():
    g = build_grid((0.0, 1.0), 4, "periodic")
    hist = History.start(g, np.zeros(4))
    out = correct_positivity(np.full(4, 0.5), hist, bdf_tableau(1),
                             copts("multiplier", 0.1))
    assert np.all(out.u_next == 0.5)
    assert np.all(out.lambda_next == 0.0)
    assert out.active_count == 0


def test_correct_positivity_k2_shifted_branch():
    # lam^n = 0.6, u~ = 0.03, dt = 0.1: shift = 0.04, clamps to (0, 0.15)
    g = build_grid((0.0, 1.0), 4, "periodic")
    hist = History.start(g, np.zeros(4))
    hist.push(np.zeros(4), np.full(4, 0.6), 0.0, 0.1)
    out = correct_positivity(np.full(4, 0.03), hist, bdf_tableau(2),
                             copts("multiplier", 0.1))
    assert np.all(out.u_next == 0.0)
    assert np.all(out.lambda_next == pytest.approx(0.15))


def test_correct_positivity_kkt_exact_random():
    g = build_grid((0.0, 1.0), 64, "periodic")
    rng = np.random.default_rng(1)
    hist = History.start(g, np.zeros(64))
    hist.push(np.zeros(64), rng.random(64), 0.0, 0.05)
    for eps in (0.0, 1e-2):
        ut = rng.standard_normal(64)
        out = correct_positivity(ut, hist, bdf_tableau(2),
                                 copts("multiplier", 0.05, eps))
        assert np.all(out.lambda_next >= 0.0)
        assert np.all(out.u_next >= eps)
        prod = out.lambda_next * (out.u_next - eps)
        assert np.all(prod == 0.0)  # one factor is exactly zero by branch


# -- cut-off correction ------------------------------------------------------------


def test_correct_cutoff_forced():
    g = build_grid((0.0, 1.0), 4, "periodic")
    hist = History.start(g, np.zeros(4))
    out = correct_positivity(np.full(4, -0.2), hist, bdf_tableau(1),
                             copts("cutoff", 0.1))
    assert np.all(out.u_next == 0.0)
    assert np.all(out.lambda_next == pytest.approx(2.0))


def test_correct_cutoff_all_positive():
    g = build_grid((0.0, 1.0), 4, "periodic")
    ut = np.array([0.1, 0.2, 0.3, 0.4])
    hist = History.start(g, np.zeros(4))
    out = correct_positivity(ut, hist, bdf_tableau(2), copts("cutoff", 0.1))
    assert np.array_equal(out.u_next, ut)
    assert np.all(out.lambda_next == 0.0)
    assert out.active_count == 0


def test_cutoff_equals_multiplier_for_k1_bitwise():
    g = build_grid((0.0, 1.0), 32, "periodic")
    rng = np.random.default_rng(2)
    hist = History.start(g, np.zeros(32))
    for _ in range(50):
        ut = rng.standard_normal(32) * rng.random()
        a = correct_positivity(ut, hist, bdf_tableau(1),
                               copts("multiplier", 0.01))
        b = correct_positivity(ut, hist, bdf_tableau(1), copts("cutoff", 0.01))
        assert np.array_equal(a.u_next, b.u_next)
        assert np.array_equal(a.lambda_next, b.lambda_next)


# -- scalar-multiplier machinery -----------------------------------------------------


def test_residual_F_balanced():
    g = three_node_grid()
    ut = embed3(-0.5, 0.2, 0.6)
    sb = np.zeros(5)
    assert residual_F(0.0, ut, sb, 1.0, bdf_tableau(1), 0.8, g) == \
        pytest.approx(0.0, abs=1e-15)


def test_residual_F_surplus():
    g = three_node_grid()
    ut = embed3(-0.5, 0.2, 0.6)
    sb = np.zeros(5)
    assert residual_F(0.0, ut, sb, 1.0, bdf_tableau(1), 0.5, g) == \
        pytest.approx(0.3, rel=1e-14)


def test_residual_F_floor_limit():
    g = three_node_grid()
    ut = embed3(-0.5, 0.2, 0.6)
    sb = np.zeros(5)
    eps = 0.05
    val = residual_F(-1e9, ut, sb, 1.0, bdf_tableau(1), 0.5, g, eps)
    assert val == pytest.approx(eps * 3.0 - 0.5, rel=1e-9)
    assert val < 0.0


def test_residual_F_monotone_random():
    g = build_grid((0.0, 1.0), 16, "periodic")
    rng = np.random.default_rng(3)
    for _ in range(20):
        ut = rng.standard_normal(16)
        sb = rng.standard_normal(16)
        tab = bdf_tableau(rng.integers(1, 5))
        xs = np.sort(rng.standard_normal(8))
        vals = [residual_F(x, ut, sb, 0.1, tab, 1.0, g) for x in xs]
        assert all(b - a >= -1e-14 for a, b in zip(vals, vals[1:]))


def test_secant_exact_on_affine():
    xi, its = solve_xi_secant(lambda x: x + 0.15, 0.0, -1.0)
    assert xi == pytest.approx(-0.15, abs=1e-15)
    assert its == 1


def test_secant_zero_at_start():
    xi, its = solve_xi_secant(lambda x: 0.0 * x, 0.0, -1.0)
    assert xi == 0.0 and its == 0


def test_secant_three_node_case_matches_breakpoint_oracle():
    g = three_node_grid()
    ut = embed3(-0.5, 0.2, 0.6)
    sb = np.zeros(5)
    tab = bdf_tableau(1)
    F = lambda xi: residual_F(xi, ut, sb, 1.0, tab, 0.5, g)
    xi, _ = solve_xi_secant(F, 0.0, -1.0)
    xe = solve_xi_exact(ut, sb, 1.0, tab, 0.5, g)
    assert xe == pytest.approx(-0.15, abs=1e-14)
    assert xi == pytest.approx(xe, abs=1e-13)


def test_secant_budget_exhaustion():
    with pytest.raises(SecantError):
        solve_xi_secant(lambda x: np.tanh(x) + 2.0, 0.0, -1.0, maxit=3)


def test_xi_exact_single_unclamped_node():
    # crafted so only the first node is unclamped near the root:
    # (a + (dt/alpha) xi) * w = target
    g = build_grid((0.0, 4.0), 4, "periodic")  # four nodes of weight 1
    ut = np.array([0.8, -50.0, -50.0, -50.0])
    tab = bdf_tableau(2)
    dt = 0.5
    target = 0.3
    xi = solve_xi_exact(ut, np.zeros(4), dt, tab, target, g)
    r = dt / tab.alpha
    assert (0.8 + r * xi) * 1.0 == pytest.approx(target, rel=1e-13)


def test_xi_exact_floor_boundary_and_error():
    g = three_node_grid()
    ut = embed3(0.1, 0.2, 0.3)
    tab = bdf_tableau(1)
    eps = 0.05
    # target exactly the floor mass: all nodes clamped at the optimum
    xi = solve_xi_exact(ut, np.zeros(5), 1.0, tab, eps * 3.0, g, eps)
    F = residual_F(xi, ut, np.zeros(5), 1.0, tab, eps * 3.0, g, eps)
    assert abs(F) < 1e-12
    with pytest.raises(ValueError, match="floor"):
        solve_xi_exact(ut, np.zeros(5), 1.0, tab, eps * 3.0 - 1e-3, g, eps)


def test_secant_vs_exact_random_instances():
    rng = np.random.default_rng(4)
    g = build_grid((0.0, 2.0), 16, "neumann")
    tabs = [bdf_tableau(k) for k in (1, 2, 3, 4)]
    for _ in range(200):
        ut = rng.standard_normal(17) * rng.uniform(0.2, 3.0)
        sb = rng.standard_normal(17) * rng.uniform(0.0, 2.0)
        tab = tabs[rng.integers(0, 4)]
        dt = rng.uniform(0.05, 1.0)
        eps = float(rng.choice([0.0, 1e-2]))
        floor = eps * g.measure
        target = floor + rng.uniform(0.05, 3.0)
        F = lambda xi: residual_F(xi, ut, sb, dt, tab, target, g, eps)
        xi_s, _ = solve_xi_secant(F, 0.0, -dt, tol=1e-13 * max(1.0, target))
        xi_e = solve_xi_exact(ut, sb, dt, tab, target, g, eps)
        assert abs(xi_s - xi_e) <= 1e-12 * max(1.0, abs(xi_e))


# -- mass-conserving correction ------------------------------------------------------


def test_correct_mass_balanced_is_identity():
    g = three_node_grid()
    hist = History.start(g, np.zeros(5))
    ut = embed3(0.1, 0.3, 0.4)
    out = correct_positivity(ut, hist, bdf_tableau(1),
                             copts("mass", 1.0, target_mass=0.8))
    assert out.xi_next == 0.0
    assert np.array_equal(out.u_next, ut)
    assert np.all(out.lambda_next == 0.0)


def test_correct_mass_three_node_oracle():
    g = three_node_grid()
    hist = History.start(g, np.zeros(5))
    ut = embed3(-0.5, 0.2, 0.6)
    out = correct_positivity(ut, hist, bdf_tableau(1),
                             copts("mass", 1.0, target_mass=0.5))
    assert np.allclose(out.u_next, embed3(0.0, 0.05, 0.45), atol=1e-13)
    assert g.mass(out.u_next) == pytest.approx(0.5, abs=1e-12)
    # clamped node: lam = (alpha/dt)(0 - u~ - eta) = 0.5 + 0.15
    assert out.lambda_next[1] == pytest.approx(0.65, abs=1e-13)
    assert out.lambda_next[2] == 0.0 and out.lambda_next[3] == 0.0
    assert out.xi_next == pytest.approx(-0.15, abs=1e-13)
    assert out.active_count == 1


def test_correct_mass_kkt_and_mass_random():
    g = build_grid((0.0, 1.0), 32, "periodic")
    rng = np.random.default_rng(5)
    for _ in range(20):
        hist = History.start(g, np.zeros(32))
        hist.push(np.zeros(32), rng.random(32), -0.1 * rng.random(), 0.05)
        ut = rng.standard_normal(32)
        eps = float(rng.choice([0.0, 1e-3]))
        target = eps * g.measure + rng.uniform(0.1, 1.0)
        out = correct_positivity(ut, hist, bdf_tableau(2),
                                 copts("mass", 0.05, eps, target))
        assert g.mass(out.u_next) == pytest.approx(target, abs=1e-11)
        assert np.all(out.lambda_next >= 0.0)
        assert np.all(out.u_next >= eps)
        assert np.all(out.lambda_next * (out.u_next - eps) == 0.0)


# -- full steps ------------------------------------------------------------------


def test_step_zero_data_stays_zero():
    g = build_grid((0.0, 1.0), 8, "periodic")
    model = HeatModel(g, np.zeros(8))
    for variant in ("multiplier", "cutoff", "mass", "none"):
        opts = StepOptions(k=2, dt=0.01, variant=variant, target_mass=0.0)
        res = run_simulation(model, opts, 5)
        assert np.all(res.history.us[0] == 0.0)
        assert np.all(res.history.lams[0] == 0.0)
        assert all(d.xi == 0.0 for d in res.diagnostics)


def test_step_k2_startup_equals_k1_step():
    g = build_grid((0.0, 2 * np.pi), 16, "periodic")
    u0 = 1.5 + np.sin(g.axes[0])
    model = HeatModel(g, u0)
    outs = {}
    for k in (1, 2):
        opts = StepOptions(k=k, dt=0.01, variant="multiplier")
        res = run_simulation(model, opts, 1)
        outs[k] = res.history.us[0]
    assert np.array_equal(outs[1], outs[2])


def test_step_heat_matches_dense_oracle():
    g = build_grid((0.0, 2.0), 8, "dirichlet")
    rng = np.random.default_rng(6)
    u0 = rng.random(9) * g.active
    model = HeatModel(g, u0)
    opts = StepOptions(k=1, dt=0.01, variant="multiplier")
    res = run_simulation(model, opts, 1)

    M = dense_matrix(Operator.laplacian(g).apply, g)
    act = np.flatnonzero(np.ravel(g.active))
    A = np.eye(9) / 0.01 + M
    ut = np.zeros(9)
    ut[act] = np.linalg.solve(A[np.ix_(act, act)], (u0 / 0.01)[act])
    expect = np.maximum(ut, 0.0)
    assert np.abs(res.history.us[0] - expect).max() < 1e-12


def test_step_history_invariants_with_active_multiplier():
    g = build_grid((0.0, 1.0), 16, "periodic")
    rng = np.random.default_rng(7)
    u0 = rng.random(16)
    src = 30.0 * rng.standard_normal(16)  # strong indefinite source
    model = SourcedModel(g, u0, src)
    opts = StepOptions(k=2, dt=0.01, variant="multiplier")
    hist = History.start(g, model.initial_state())
    fired = 0
    for _ in range(20):
        hist, diag = step(hist, model, opts)
        fired += diag.active_count
        assert np.all(hist.us[0] >= 0.0)
        assert np.all(hist.lams[0] >= 0.0)
        assert np.all(hist.lams[0] * hist.us[0] == 0.0)
    assert fired > 0  # the constraint actually engaged


def test_step_mass_variant_conserves_with_source_free_operator():
    g = build_grid((0.0, 1.0), 16, "periodic")
    rng = np.random.default_rng(8)
    u0 = rng.random(16) + 0.2
    model = HeatModel(g, u0)
    opts = StepOptions(k=2, dt=0.01, variant="mass")
    res = run_simulation(model, opts, 10)
    m0 = g.mass(u0)
    for d in res.diagnostics:
        assert d.mass == pytest.approx(m0, rel=1e-12)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("variant", VARIANTS)
def test_blowup_detection(variant, k):
    # a NaN prediction must not be clamped into a finite, "successful" step
    g = build_grid((0.0, 1.0), 8, "periodic")

    class NanModel(HeatModel):
        def explicit_source(self, hist, k):
            return np.full(8, np.nan) if hist.nstep >= 1 else None

    model = NanModel(g, np.ones(8))
    opts = StepOptions(k=k, dt=0.01, variant=variant)
    res = run_simulation(model, opts, 5, stop_on_failure=False)
    assert isinstance(res.failure, BlowUpError)
    assert len(res.diagnostics) == 1


def test_mass_options_reused_across_models_keep_own_mass():
    # the default target mass is resolved per run, never written into opts
    from posikit.models import PorousMediumModel
    opts = StepOptions(k=2, dt=1e-3, variant="mass")
    for C in (1.0, 2.0):
        model = PorousMediumModel(m=2.0, n=64, dim=1, C=C)
        m0 = model.grid.mass(model.initial_state())
        res = run_simulation(model, opts, 5)
        assert abs(res.diagnostics[-1].mass - m0) <= 1e-10 * m0
        assert opts.target_mass is None



@pytest.mark.parametrize("field,value", [
    ("dt", 0.0), ("dt", float("nan")), ("solver_tol", 0.0),
    ("solver_tol", -1.0), ("secant_tol", 0.0), ("solver_maxit", 0),
    ("secant_maxit", 0)])
def test_step_options_reject_unusable_tolerances_and_limits(field, value):
    kwargs = dict(k=1, dt=0.01)
    kwargs[field] = value
    with pytest.raises(ValueError, match=field):
        StepOptions(**kwargs)
