import math
import numpy as np
import pytest

from posikit.grid import build_grid
from posikit.operators import Operator
from posikit.stepper import (EXTRAPOLATION_COEFFS, VARIANTS, BlowUpError,
                             History, SecantError, StepOptions, bdf_tableau,
                             combine_levels, correct_positivity, predict,
                             residual_F, run_simulation, solve_xi_exact,
                             solve_xi_secant, step)

from test_operators import dense_matrix


def three_node_grid():
    """Three active nodes of weight 1 (Dirichlet ends carry weight 0)."""
    return build_grid((0.0, 4.0), 4, "dirichlet")


def embed3(a, b, c):
    return np.array([0.0, a, b, c, 0.0])


def copts(variant, dt, eps_lb=0.0):
    """Options that select one correction of :func:`correct_positivity`."""
    return StepOptions(k=1, dt=dt, variant=variant, eps_lb=eps_lb)


def mass_history(g, target_mass):
    """A zero-state history that holds ``target_mass`` as its mass target."""
    hist = History.start(g, np.zeros(g.shape))
    hist.target_mass = target_mass
    return hist


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
    assert (t.k, t.alpha, t.a_coeffs) == (1, 1.0, (1.0,))


def test_tableau_k2():
    t = bdf_tableau(2)
    assert t.k == 2
    assert t.alpha == 1.5
    assert t.a_coeffs == (2.0, -0.5)


def pushed_history(k, lam, xi):
    """A four-node history after one step with multipliers (lam, xi)."""
    g = build_grid((0.0, 1.0), 4, "periodic")
    hist = History.start(g, np.ones(4))
    hist.push(np.ones(4), np.full(4, lam), xi, 0.1, k=k)
    return hist


@pytest.mark.parametrize("k", [1, 2])
def test_tableau_consistency_sums(k):
    # A_k sums to alpha_k; B_{k-1} carries a constant multiplier whole at
    # k = 2 and drops it at k = 1
    t = bdf_tableau(k)
    assert sum(t.a_coeffs) == pytest.approx(t.alpha, rel=1e-15)
    lam, xi = pushed_history(k, 1.0, 1.0).multiplier_load(t, "mass")
    assert np.all(lam == (1.0 if k >= 2 else 0.0))
    assert xi == (1.0 if k >= 2 else 0.0)


@pytest.mark.parametrize("k", [1, 2])
def test_extrapolation_coeffs_are_exact_on_polynomials(k):
    # order k: the k newest levels of a degree k - 1 polynomial, newest
    # first, extrapolate to its next value exactly (whole-number weights)
    w = EXTRAPOLATION_COEFFS[k]
    assert len(w) == k and all(float(c).is_integer() for c in w)
    for deg in range(k):
        levels = [float((-j) ** deg) for j in range(k)]  # t = 0, -1, ...
        assert sum(c * v for c, v in zip(w, levels)) == 1.0  # t = 1
    # B_{k-1} is the order k - 1 extrapolation of the multiplier levels
    hist = pushed_history(k, 0.75, 0.75)
    lam, xi = hist.multiplier_load(bdf_tableau(k), "mass")
    expect = sum(c * x for c, x in zip(EXTRAPOLATION_COEFFS[k - 1], [0.75]))
    assert np.all(lam == expect) and xi == expect


def test_combine_levels_subtracts_a_minus_one_weight_bitwise():
    # a level of weight -1 is subtracted, not scaled and added: the bits
    # agree with the scaled add on every operand pair, signed zeros,
    # infinities (inf - inf included) and subnormals among them
    rng = np.random.default_rng(31)
    tiny = np.finfo(float).smallest_subnormal
    specials = np.array([0.0, -0.0, np.inf, -np.inf, tiny, -tiny,
                         1000 * tiny, -3 * tiny, 1.0, -2.5e-300])
    pool = np.concatenate([specials, rng.standard_normal(6)])
    a, b = (x.ravel() for x in np.meshgrid(pool, pool))
    a0, b0 = a.copy(), b.copy()
    for coeffs in ((2.0, -1.0), (1.0, -1.0), (-1.0, -1.0)):
        with np.errstate(invalid="ignore"):  # inf - inf is NaN on both
            expect = coeffs[0] * a
            expect += -1.0 * b
            got = combine_levels(coeffs, [a, b])
        assert got.tobytes() == expect.tobytes(), coeffs
        assert got is not a  # the first level is scaled into a new array
    assert a.tobytes() == a0.tobytes() and b.tobytes() == b0.tobytes()


@pytest.mark.parametrize("k", [0, 3, 4, 5, -1])
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
    u_tilde, _ = predict(hist, bdf_tableau(1), Operator.laplacian(g),
                          StepOptions(k=1, dt=1.0))
    assert np.abs(u_tilde - 0.5 * u0).max() < 1e-13


@pytest.mark.parametrize("k", [1, 2])
def test_predict_constant_steady_state(k):
    g = build_grid((0.0, 1.0), 8, "periodic")
    u0 = np.full(8, 2.0)
    hist = History.start(g, u0)
    for _ in range(3):
        hist.push(u0.copy(), np.zeros(8), 0.0, 0.1)
    u_tilde, _ = predict(hist, bdf_tableau(k), Operator.laplacian(g),
                          StepOptions(k=k, dt=0.1))
    assert np.abs(u_tilde - 2.0).max() < 1e-12


def test_predict_heat_step_matches_dense_solve():
    g = build_grid((0.0, 2.0), 8, "dirichlet")
    rng = np.random.default_rng(0)
    u0 = rng.random(9) * g.active
    hist = History.start(g, u0)
    dt = 0.01
    op = Operator.laplacian(g)
    u_tilde, _ = predict(hist, bdf_tableau(1), op, StepOptions(k=1, dt=dt))

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
        predict(hist, bdf_tableau(1), Operator.laplacian(g),
                StepOptions(k=1, dt=0.0))


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
        tab = bdf_tableau(rng.integers(1, 3))
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


def test_secant_second_point_on_the_roots_side():
    # F(0) < 0: the root of the nondecreasing F lies above 0, so the second
    # point is +1, not -1, and F(0) is evaluated once
    def F(x):
        seen.append(x)
        return max(x, 0.5 * x) - 0.3

    seen = []
    xi, its = solve_xi_secant(F, 0.0, -1.0)
    assert seen[:2] == [0.0, 1.0] and seen.count(0.0) == 1
    assert xi == pytest.approx(0.3, abs=1e-15) and its == 1
    # F(0) > 0 keeps the given point
    seen.clear()
    solve_xi_secant(lambda x: F(x) + 0.6, 0.0, -1.0)
    assert seen[:2] == [0.0, -1.0]


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
    tabs = [bdf_tableau(k) for k in (1, 2)]
    for _ in range(200):
        ut = rng.standard_normal(17) * rng.uniform(0.2, 3.0)
        sb = rng.standard_normal(17) * rng.uniform(0.0, 2.0)
        tab = tabs[rng.integers(0, 2)]
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
    ut = embed3(0.1, 0.3, 0.4)
    out = correct_positivity(ut, mass_history(g, 0.8), bdf_tableau(1),
                             copts("mass", 1.0))
    assert out.xi_next == 0.0
    assert np.array_equal(out.u_next, ut)
    assert np.all(out.lambda_next == 0.0)


def test_correct_mass_three_node_oracle():
    g = three_node_grid()
    ut = embed3(-0.5, 0.2, 0.6)
    out = correct_positivity(ut, mass_history(g, 0.5), bdf_tableau(1),
                             copts("mass", 1.0))
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
        hist.target_mass = target
        out = correct_positivity(ut, hist, bdf_tableau(2),
                                 copts("mass", 0.05, eps))
        assert g.mass(out.u_next) == pytest.approx(target, abs=1e-11)
        assert np.all(out.lambda_next >= 0.0)
        assert np.all(out.u_next >= eps)
        assert np.all(out.lambda_next * (out.u_next - eps) == 0.0)


def test_correct_mass_flat_secant_falls_back_to_exact_solve():
    # every node is clamped at xi = 0 and at xi = +dt (F(0) < 0), so the
    # secant's first step is flat; the root unclamps all nodes at u = 1:
    # xi = (1 + 10) / dt
    g = build_grid((0.0, 1.0), 8, "neumann")
    ut = np.full(g.shape, -10.0)
    tab = bdf_tableau(1)
    with pytest.raises(SecantError) as err:
        solve_xi_secant(lambda x: residual_F(x, ut, 0.0, 0.01, tab, 1.0, g),
                        0.0, -0.01)
    assert err.value.iterations == 0
    out = correct_positivity(ut, mass_history(g, 1.0), tab,
                             copts("mass", 0.01))
    assert out.xi_next == pytest.approx(1100.0, rel=1e-12)
    assert g.mass(out.u_next) == pytest.approx(1.0, abs=1e-12)
    assert out.secant_iters == 0 and out.active_count == 0


def test_correct_mass_target_below_floor_raises_secant_error():
    g = three_node_grid()
    with pytest.raises(SecantError, match="floor"):
        correct_positivity(embed3(0.1, 0.2, 0.3), mass_history(g, 0.1),
                           bdf_tableau(1), copts("mass", 1.0, eps_lb=0.05))


def test_history_start_records_the_initial_mass_bit_for_bit():
    from posikit.models import PorousMediumModel
    for model in (PorousMediumModel(n=16), PorousMediumModel(n=8, dim=2)):
        u0 = model.initial_state()
        hist = History.start(model.grid, u0)
        assert hist.target_mass == model.grid.mass(u0)
        assert hist.target_mass > 0.0


def test_mass_correction_without_a_target_names_target_mass():
    # a hand-built history holds no target; the mass correction says so
    # instead of failing on arithmetic with None
    g = three_node_grid()
    hist = History(grid=g, us=[np.zeros(5)])
    with pytest.raises(ValueError, match="target_mass"):
        correct_positivity(embed3(0.1, 0.2, 0.3), hist, bdf_tableau(1),
                           copts("mass", 1.0))


# -- full steps ------------------------------------------------------------------


def test_step_zero_data_stays_zero():
    g = build_grid((0.0, 1.0), 8, "periodic")
    model = HeatModel(g, np.zeros(8))
    for variant in ("multiplier", "cutoff", "mass", "none"):
        opts = StepOptions(k=2, dt=0.01, variant=variant)
        res = run_simulation(model, opts, 5)
        assert res.history.target_mass == 0.0
        assert np.all(res.history.us[0] == 0.0)
        assert np.all(res.history.lam == 0.0)
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
        assert np.all(hist.lam >= 0.0)
        assert np.all(hist.lam * hist.us[0] == 0.0)
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
    # the target mass lives on each run's history, never on the options
    from posikit.models import PorousMediumModel
    opts = StepOptions(k=2, dt=1e-3, variant="mass")
    masses = []
    for C in (1.0, 2.0):
        model = PorousMediumModel(m=2.0, n=64, dim=1, C=C)
        m0 = model.grid.mass(model.initial_state())
        res = run_simulation(model, opts, 5)
        assert res.history.target_mass == m0
        assert abs(res.diagnostics[-1].mass - m0) <= 1e-10 * m0
        assert opts == StepOptions(k=2, dt=1e-3, variant="mass")
        masses.append(m0)
    assert masses[0] != masses[1]



@pytest.mark.parametrize("field,value", [
    ("dt", 0.0), ("dt", float("nan")), ("solver_tol", 0.0),
    ("solver_tol", -1.0), ("secant_tol", 0.0),
    # an inf dt failed at the first solve ("shift sigma must be positive"),
    # an inf solver_tol returned every Krylov start after 0 iterations, an
    # inf secant_tol ended every secant at its first point
    ("dt", float("inf")), ("solver_tol", float("inf")),
    ("secant_tol", float("inf")),
    # a negative floor ran; a nan or inf one clamped the first step to
    # itself and failed the second as a solver error
    ("eps_lb", -1.0), ("eps_lb", float("nan")), ("eps_lb", float("inf"))])
def test_step_options_reject_unusable_tolerances_and_limits(field, value):
    kwargs = dict(k=1, dt=0.01)
    kwargs[field] = value
    with pytest.raises(ValueError, match=field):
        StepOptions(**kwargs)


@pytest.mark.parametrize("k", [3, 4])
def test_step_options_reject_orders_above_two(k):
    # the start-up's BDF1 step caps any order at 2, so 3 and 4 are refused
    with pytest.raises(ValueError, match="BDF order must be 1 or 2"):
        StepOptions(k=k, dt=0.01)


# -- starting iterate and history depth ------------------------------------------


@pytest.mark.parametrize("k,case", [
    (1, "pme2d"), (2, "pme2d"), (1, "pme1d"), (2, "pme1d"),
    (1, "thin-film"), (2, "thin-film")],
    ids=["1", "2", "pme1d-1", "pme1d-2", "thin-film-1", "thin-film-2"])
def test_prediction_starts_from_the_order_k_extrapolation(monkeypatch, k,
                                                          case):
    # the x0 handed to the solver is bitwise the extrapolation the step
    # reads: u^n at k = 1 and at the first step, 2u^n - u^(n-1) at the
    # second step at k = 2, and from the third step on 3u^n - 3u^(n-1) +
    # u^(n-2) on the 2D edge-form CG, 2u^n - u^(n-1) on every other path
    from posikit import stepper as stepper_mod
    from posikit.models import LubricationModel, PorousMediumModel
    starts = []
    real = stepper_mod.solve_operator

    def spy(*args, **kwargs):
        starts.append(kwargs["x0"].copy())
        return real(*args, **kwargs)

    monkeypatch.setattr(stepper_mod, "solve_operator", spy)
    if case == "thin-film":
        model = LubricationModel(rho=0.5, n=64)
        opts = StepOptions(k=k, dt=1e-6, variant="mass", eps_lb=1e-4)
    else:
        model = PorousMediumModel(m=3.0, n=16, dim=2 if case == "pme2d" else 1)
        opts = StepOptions(k=k, dt=1e-3, variant="mass")
    levels = [model.initial_state()]
    res = run_simulation(model, opts, 6,
                         on_step=lambda h, d: levels.append(h.us[0].copy()))
    if case != "pme1d":  # the 1D elimination takes no iterations
        assert sum(d.solver_iters for d in res.diagnostics) > 0
    assert len(starts) == 6
    for n, x0 in enumerate(starts):
        u = levels[n::-1]  # u^n first
        order = min(k, n + 1)
        if order == 2 and n >= 2 and case == "pme2d":
            expect = 3.0 * u[0] - 3.0 * u[1] + u[2]
        elif order == 2:
            expect = 2.0 * u[0] - u[1]
        else:
            expect = u[0]
        assert np.array_equal(x0, expect), (k, n)


@pytest.mark.parametrize("k", [1, 2])
def test_pme2d_step_leaves_every_history_level_alone(k):
    # the 2D edge-form solve iterates in its start without a copy, so the
    # start must be a fresh array, never a level the history keeps; at k = 2
    # the history keeps the three levels of the quadratic start
    from posikit.models import PorousMediumModel
    model = PorousMediumModel(m=3.0, n=16, dim=2)
    g = model.grid
    hist = History.start(g, model.initial_state())
    opts = StepOptions(k=k, dt=1e-3, variant="mass")
    iters = 0
    for _ in range(5):
        kept = [(v, v.tobytes()) for v in hist.us + [hist.lam]
                if v is not None]
        hist, diag = step(hist, model, opts)
        iters += diag.solver_iters
        assert all(v.tobytes() == b for v, b in kept)
    assert iters > 0 and len(hist.us) == (3 if k == 2 else 1)


def test_history_push_defaults_to_order_two():
    g = build_grid((0.0, 1.0), 4, "periodic")
    hist = History.start(g, np.zeros(4))
    for n in range(3):
        hist.push(np.full(4, float(n + 1)), np.full(4, float(n)), n, 0.1)
    assert [u[0] for u in hist.us] == [3.0, 2.0]
    assert hist.lam[0] == 2.0
    assert hist.xi == 2.0 and type(hist.xi) is float and hist.nstep == 3


@pytest.mark.parametrize("k", [1, 2])
def test_multiplier_load_reads_the_newest_level_without_a_copy(k):
    # nodal load: 0.0 at k = 1, the newest level itself at k = 2; the
    # scalar load is a sum, so a -0.0 multiplier loads as +0.0
    g = build_grid((0.0, 1.0), 4, "periodic")
    hist = History.start(g, np.ones(4))
    hist.push(np.ones(4), np.full(4, 0.25), -0.0, 0.1, k=k)
    lam, xi = hist.multiplier_load(bdf_tableau(k), "mass")
    if k == 1:
        assert lam == 0.0
    else:
        assert lam is hist.lam
    assert xi == 0.0 and math.copysign(1.0, xi) == 1.0
    assert hist.multiplier_load(bdf_tableau(k), "multiplier")[1] is None


@pytest.mark.parametrize("k", [1, 2])
def test_history_keeps_only_the_levels_order_k_reads(k):
    from posikit.models import PorousMediumModel
    model = PorousMediumModel(m=2.0, n=32, dim=1)
    depths = []

    def record(hist, diag):
        # one multiplier level: a field and a float, never a list of them
        depths.append(len(hist.us))
        assert len(hist.us) <= k
        assert hist.lam.shape == model.grid.shape
        assert type(hist.xi) is float

    run_simulation(model, StepOptions(k=k, dt=1e-3, variant="mass"), 6,
                   on_step=record)
    assert depths[-1] == k


@pytest.mark.parametrize("ledgered", [False, True],
                         ids=["plain", "ledgered"])
def test_pme2d_step_peak_memory_in_field_sizes(ledgered):
    # the traced peak of a small 2D porous-medium mass run, in units of one
    # field: the history levels, the Krylov vectors, the start and the
    # correction's temporaries (the run keeps no copy of the initial
    # field); a change that keeps more of them alive through the solve
    # shows here before it shows in a benchmark's RSS.  A ledgered run
    # also keeps the solve's L u~ until the energy term reads it
    import tracemalloc
    from posikit.diagnostics import EnergyLedger
    from posikit.models import PorousMediumModel

    opts = StepOptions(k=2, dt=1e-3, variant="mass")
    run_simulation(PorousMediumModel(m=5.0, n=64, dim=2), opts, 8)  # warm-up
    model = PorousMediumModel(m=5.0, n=64, dim=2)
    ledger = EnergyLedger(model.grid, opts) if ledgered else None
    tracemalloc.start()
    try:
        res = run_simulation(model, opts, 8, ledger=ledger)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(d.solver_iters for d in res.diagnostics) > 0
    field_bytes = np.zeros(model.grid.shape).nbytes
    assert peak / field_bytes <= 14.5


def test_pme2d_mass_run_cg_iterations_from_the_quadratic_start():
    # the 64^2 run of the peak-memory guard: 41 CG iterations over 8 steps
    # from the quadratic start, 52 from the linear one
    from posikit.models import PorousMediumModel
    res = run_simulation(PorousMediumModel(m=5.0, n=64, dim=2),
                         StepOptions(k=2, dt=1e-3, variant="mass"), 8)
    assert 0 < sum(d.solver_iters for d in res.diagnostics) <= 45


def test_ledgered_pme2d_step_applies_the_operator_only_in_its_solve(
        monkeypatch):
    # the energy term reads L u~ off the edge-form CG's report, as the
    # thin film's reads the BiCGStab spectra; every CG iteration's matvec
    # is one accumulating apply, and each true residual one plain apply
    from posikit import stepper
    from posikit.diagnostics import EnergyLedger
    from posikit.models import PorousMediumModel
    model = PorousMediumModel(m=5.0, n=32, dim=2)
    opts = StepOptions(k=2, dt=1e-3, variant="mass")
    hist = History.start(model.grid, model.initial_state())
    ledger = EnergyLedger(model.grid, opts)
    step(hist, model, opts, ledger)
    calls, inside, real_apply = [], [False], Operator.apply
    real_solve = stepper.solve_operator

    def solve(*args, **kw):
        inside[0] = True
        try:
            return real_solve(*args, **kw)
        finally:
            inside[0] = False

    monkeypatch.setattr(Operator, "apply",
                        lambda self, u, out=None:
                        calls.append((inside[0], out is not None))
                        or real_apply(self, u, out))
    monkeypatch.setattr(stepper, "solve_operator", solve)
    _, diag = step(hist, model, opts, ledger)
    assert all(c[0] for c in calls) and len(calls) > diag.solver_iters > 0
    assert sum(c[1] for c in calls) == diag.solver_iters
    assert diag.op_quad > 0.0 and diag.ledger_residual <= 1e-8


@pytest.mark.parametrize("ledgered", [False, True],
                         ids=["plain", "ledgered"])
@pytest.mark.parametrize("case", ["pme2d", "thin-film"])
def test_step_frees_the_solves_L_u_before_the_correction(monkeypatch, case,
                                                         ledgered):
    # the report's L u~ (and on the periodic grid its spectrum of u~) is
    # read before the correction, and held by nothing from then on
    import weakref
    from posikit import stepper
    from posikit.diagnostics import EnergyLedger
    from posikit.models import LubricationModel, PorousMediumModel
    if case == "pme2d":
        model = PorousMediumModel(m=5.0, n=16, dim=2)
        opts = StepOptions(k=2, dt=1e-3, variant="mass")
    else:
        model = LubricationModel(rho=0.5, n=64)
        opts = StepOptions(k=2, dt=1e-6, variant="mass", eps_lb=1e-4)
    hist = History.start(model.grid, model.initial_state())
    ledger = EnergyLedger(model.grid, opts) if ledgered else None
    refs, alive = [], []
    real_solve = stepper.solve_operator
    real_correct = stepper.correct_positivity

    def solve(*args, **kw):
        u, rep = real_solve(*args, **kw)
        refs.append([weakref.ref(a) for a in (rep.applied, rep.spectrum)
                     if a is not None])
        return u, rep

    def correct(*args):
        alive.append([ref() is not None for ref in refs[-1]])
        return real_correct(*args)

    monkeypatch.setattr(stepper, "solve_operator", solve)
    monkeypatch.setattr(stepper, "correct_positivity", correct)
    for _ in range(3):
        step(hist, model, opts, ledger)
    held = 1 if case == "pme2d" else 2
    assert alive == [[False] * held] * 3


def count_ledger_step_calls(monkeypatch, opts):
    """Grid reductions and level combinations of the second ledgered step
    of an Allen-Cahn run under ``opts``, and that step's diagnostics."""
    from collections import Counter
    from posikit import models, stepper
    from posikit.diagnostics import EnergyLedger
    from posikit.grid import Grid
    from posikit.models import AllenCahnModel
    model = AllenCahnModel(eps2=1e-3, n=16)
    hist = History.start(model.grid, model.initial_state())
    ledger = EnergyLedger(model.grid, opts)
    step(hist, model, opts, ledger)
    calls = Counter()
    for owner, name in ((Grid, "norm"), (Grid, "mass"), (Grid, "inner"),
                        (stepper, "combine_levels"),
                        (models, "combine_levels")):
        def counting(*args, _name=name, _real=getattr(owner, name), **kw):
            calls[_name] += 1
            return _real(*args, **kw)
        monkeypatch.setattr(owner, name, counting)
    _, diag = step(hist, model, opts, ledger)
    return calls, diag


def test_ledger_allen_cahn_step_reductions_and_combos(monkeypatch):
    # past start-up a ledgered k = 2 step takes one norm, the multiplier's
    # (the mass and ||u^{n+1}||, which the ledger reads too, come from the
    # step statistics' one weighted product; the increment and the supply
    # are first-order terms), and combines levels twice: A_k(u) and the
    # source's extrapolated state; the transform solve reads no start, so
    # none is formed, and B_1(lam) is the newest multiplier level itself
    calls, diag = count_ledger_step_calls(monkeypatch,
                                          StepOptions(k=2, dt=1e-6))
    assert calls == {"norm": 1, "combine_levels": 2}
    assert diag.active_count > 0 and diag.ledger_residual <= 1e-8


def test_first_order_ledger_step_reductions_and_combos(monkeypatch):
    # a ledgered k = 1 step takes two norms (increment and multiplier), the
    # source's inner product with u~ and, above a floor, the multiplier's
    # mass; it combines levels twice, as at k = 2
    calls, diag = count_ledger_step_calls(
        monkeypatch, StepOptions(k=1, dt=1e-6, eps_lb=1e-3))
    assert calls == {"norm": 2, "inner": 1, "mass": 1, "combine_levels": 2}
    assert diag.active_count > 0 and diag.ledger_residual <= 1e-8


def test_ledger_pme1d_mass_step_applies_the_operator_once(monkeypatch):
    # past start-up: the elimination's residual check applies L to u~,
    # and the ledger's <L u~, u~> reads that apply off the solve's report
    from posikit.diagnostics import EnergyLedger
    from posikit.models import PorousMediumModel
    model = PorousMediumModel(m=5.0, n=64, dim=1)
    opts = StepOptions(k=2, dt=1e-3, variant="mass")
    hist = History.start(model.grid, model.initial_state())
    ledger = EnergyLedger(model.grid, opts)
    step(hist, model, opts, ledger)
    calls = []
    real = Operator.apply
    monkeypatch.setattr(Operator, "apply",
                        lambda self, u: calls.append(1) or real(self, u))
    _, diag = step(hist, model, opts, ledger)
    assert len(calls) == 1
    assert diag.ledger_residual <= 1e-8


def test_numpy_maximum_returns_its_second_operand_on_zero_ties():
    # correct_positivity and residual_F stand in for selects through
    # np.maximum with these operand orders; they stay bitwise only while
    # a tie of zeros returns the second operand, sign included, at every
    # length (vector bodies and scalar tails alike)
    rng = np.random.default_rng(0)
    msg = ("np.maximum no longer returns its second operand on a tie of "
           "zeros; the correction kernels would flip signed zeros")
    for n in list(range(1, 70)) + [257, 4225, 16641]:
        z = np.where(rng.random(n) < 0.5, -0.0, 0.0)
        inplace = z.copy()
        np.maximum(inplace, 0.0, out=inplace)
        assert (np.signbit(np.maximum(0.0, z)) == np.signbit(z)).all(), msg
        assert not np.signbit(np.maximum(z, 0.0)).any(), msg
        assert not np.signbit(inplace).any(), msg
