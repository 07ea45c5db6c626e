import numpy as np
import pytest

from posikit import operators as ops
from posikit.grid import build_grid
from posikit.operators import (DIV_COEFF_GRAD, Operator, SolverReport,
                               _backward, _denom, _diag_solve, _forward, _sl,
                               _symbol, apply_laplacian,
                               solve_conservative_poisson, solve_operator,
                               transport_div_form)


def dense_matrix(apply_fn, g):
    """Assemble the operator's matrix column by column from unit fields."""
    size = int(np.prod(g.shape))
    cols = []
    for j in range(size):
        e = np.zeros(size)
        e[j] = 1.0
        cols.append(np.ravel(apply_fn(e.reshape(g.shape))))
    return np.array(cols).T


def edge_flux_sum(c, v, ones_ext, g):
    """Independent edge-sum oracle for the bilinear form against a test field.

    Sums c_edge * (dv) * (dw) / h over every edge (including edges touching
    excluded nodes), which is the telescoped flux the conservation statement
    refers to on Dirichlet grids.
    """
    total = 0.0
    if g.dim == 1:
        h = g.spacings[0]
        for i in range(len(v) - 1):
            ce = 0.5 * (c[i] + c[i + 1])
            total += ce * (v[i + 1] - v[i]) * (ones_ext[i + 1] - ones_ext[i]) / h
    return total


# -- Laplacian ------------------------------------------------------------------


def test_laplacian_periodic_eigenfunction():
    g = build_grid((0.0, 2 * np.pi), 32, "periodic")
    u = np.sin(g.axes[0])
    assert np.abs(apply_laplacian(u, g) + u).max() < 1e-12


def test_laplacian_constant_is_zero():
    for bc in ("periodic", "neumann"):
        g = build_grid((0.0, 3.0), 8, bc)
        out = apply_laplacian(np.full(g.shape, 2.5), g)
        assert np.abs(out).max() < 1e-12


def test_laplacian_dirichlet_hat_stencil():
    g = build_grid((-5.0, 5.0), 10, "dirichlet")
    h = g.spacings[0]
    u = np.zeros(11)
    u[4] = 1.0
    out = apply_laplacian(u, g)
    assert out[4] == pytest.approx(-2.0 / h**2)
    assert out[3] == pytest.approx(1.0 / h**2)
    assert out[5] == pytest.approx(1.0 / h**2)


def test_laplacian_2d_separable():
    g = build_grid(((0.0, 2 * np.pi), (0.0, 2 * np.pi)), (16, 16), "periodic")
    X, Y = g.coords()
    u = np.sin(X) * np.cos(2 * Y)
    expect = -(1 + 4) * u
    assert np.abs(apply_laplacian(u, g) - expect).max() < 1e-11


# -- divergence form --------------------------------------------------------------


def test_div_unit_coeff_reduces_to_laplacian_fd():
    g = build_grid((-1.0, 1.0), 9, "dirichlet")
    rng = np.random.default_rng(0)
    u = rng.standard_normal(10)
    u[0] = u[-1] = 0.0
    c = np.ones(10)
    lhs = Operator.div_coeff_grad(g, c).apply(u)
    rhs = -apply_laplacian(u, g)
    assert np.abs((lhs - rhs)[g.active]).max() < 1e-12


def test_div_unit_coeff_reduces_to_laplacian_periodic():
    # band-limited field: the antisymmetric derivative drops the Nyquist mode
    g = build_grid((0.0, 2 * np.pi), 16, "periodic")
    x = g.axes[0]
    u = 0.3 + np.sin(x) - 2.1 * np.cos(3 * x) + 0.2 * np.sin(7 * x)
    lhs = Operator.div_coeff_grad(g, np.ones(16)).apply(u)
    rhs = -apply_laplacian(u, g)
    assert np.abs(lhs - rhs).max() < 1e-11


def test_div_zero_coeff_is_zero():
    g = build_grid((0.0, 1.0), 8, "neumann")
    u = np.random.default_rng(1).standard_normal(9)
    assert np.abs(Operator.div_coeff_grad(g, np.zeros(9)).apply(u)).max() == 0.0


def test_div_negative_coeff_rejected():
    g = build_grid((0.0, 1.0), 8, "periodic")
    c = np.ones(8)
    c[3] = -1e-12
    with pytest.raises(ValueError, match="nonnegative"):
        Operator.div_coeff_grad(g, c).apply(np.zeros(8))


@pytest.mark.parametrize("bc", ["periodic", "dirichlet", "neumann"])
def test_div_positive_semidefinite_dense(bc):
    # weighted-symmetrized dense assembly on an 8-interval grid
    g = build_grid((0.0, 2.0), 8, bc)
    c = np.random.default_rng(2).random(g.shape) + 0.1
    M = dense_matrix(lambda v: Operator.div_coeff_grad(g, c).apply(v), g)
    W = np.diag(np.ravel(g.weights))
    act = np.flatnonzero(np.ravel(g.active))  # degrees of freedom only
    A = (W @ M)[np.ix_(act, act)]
    assert np.abs(A - A.T).max() < 1e-12
    eigs = np.linalg.eigvalsh(0.5 * (A + A.T))
    assert eigs.min() > -1e-12


def test_div_symmetry_random_fields():
    for bc in ("periodic", "neumann"):
        g = build_grid((0.0, 1.0), 12, bc)
        rng = np.random.default_rng(3)
        c = rng.random(g.shape)
        u, v = rng.standard_normal(g.shape), rng.standard_normal(g.shape)
        a = g.inner(Operator.div_coeff_grad(g, c).apply(u), v)
        b = g.inner(u, Operator.div_coeff_grad(g, c).apply(v))
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("bc", ["periodic", "neumann"])
def test_conservation_second_order_kinds(bc):
    g = build_grid((0.0, 2.0), 16, bc)
    rng = np.random.default_rng(4)
    v = rng.standard_normal(g.shape)
    c = rng.random(g.shape)
    ones = np.ones(g.shape)
    for out in (Operator.laplacian(g).apply(v),
                Operator.div_coeff_grad(g, c).apply(v)):
        assert abs(g.inner(out, ones)) <= 1e-12 * max(1.0, g.norm(v))


def test_conservation_dirichlet_telescoped_flux():
    g = build_grid((0.0, 2.0), 8, "dirichlet")
    rng = np.random.default_rng(5)
    v = rng.standard_normal(9)
    v[0] = v[-1] = 0.0
    c = rng.random(9)
    ones_ext = np.ones(9)  # all-ones extension including excluded nodes
    assert edge_flux_sum(c, v, ones_ext, g) == 0.0


def test_conservation_lubrication_kind():
    g = build_grid((-1.0, 1.0), 16, "periodic")
    rng = np.random.default_rng(6)
    v = rng.standard_normal(16)
    c = rng.random(16)
    out = Operator.lubrication(g, c).apply(v)
    assert abs(g.inner(out, np.ones(16))) <= 1e-11 * max(1.0, g.norm(v))


def test_transport_div_form_allows_signed_coeff():
    g = build_grid((0.0, 1.0), 8, "neumann")
    rng = np.random.default_rng(7)
    c = rng.standard_normal(9)  # sign-indefinite
    u = rng.standard_normal(9)
    out = transport_div_form(c, u, g)
    assert abs(g.inner(out, np.ones(9))) <= 1e-12 * max(1.0, g.norm(u))


# -- shifted solves ---------------------------------------------------------------


def test_solve_shifted_eigenfunction():
    g = build_grid((0.0, 2 * np.pi), 32, "periodic")
    u_exact = np.sin(g.axes[0])
    u, rep = solve_operator(1.0, Operator.laplacian(g), 2.0 * u_exact)
    assert np.abs(u - u_exact).max() < 1e-13
    assert rep.converged


def test_solve_shifted_constant_rhs():
    g = build_grid((0.0, 1.0), 8, "neumann")
    sigma, c0 = 3.0, 1.7
    u, rep = solve_operator(sigma, Operator.laplacian(g),
                            np.full(9, sigma * c0))
    assert np.abs(u - c0).max() < 1e-13


def test_solve_shifted_residual_oracle_random():
    g = build_grid((0.0, 2.0), 8, "dirichlet")
    rng = np.random.default_rng(8)
    c = rng.random(9) + 0.05
    op = Operator.div_coeff_grad(g, c)
    rhs = rng.standard_normal(9) * g.active
    sigma = 2.5
    u, rep = solve_operator(sigma, op, rhs, tol=1e-12)
    res = sigma * u + op.apply(u) - rhs
    assert g.norm(res) <= 1e-12 * g.norm(rhs)
    assert rep.converged and rep.residual <= 1e-12


def test_coefficient_constant_on_active_nodes_only_is_variable():
    # the end edges of the Dirichlet edge form read the coefficient at the
    # excluded nodes, so a coefficient constant on the active set alone is
    # not the constant-coefficient operator
    g = build_grid((0.0, 1.0), 16, "dirichlet")
    c = np.ones(g.shape)
    c[0] = c[-1] = 0.0
    op = Operator.div_coeff_grad(g, c)
    rhs = np.random.default_rng(10).standard_normal(g.shape) * g.active
    u, rep = solve_operator(3.0, op, rhs, tol=1e-12)
    assert rep.converged and rep.iterations > 0
    res = 3.0 * u + op.apply(u) - rhs
    assert g.norm(res) <= 1e-12 * g.norm(rhs)


def test_solve_shifted_matches_dense_solve():
    g = build_grid((0.0, 2.0), 8, "dirichlet")
    rng = np.random.default_rng(9)
    c = rng.random(9) + 0.1
    op = Operator.div_coeff_grad(g, c)
    sigma = 4.0
    M = dense_matrix(op.apply, g)
    A = sigma * np.eye(9) + M
    rhs = (rng.standard_normal(9) * g.active).astype(float)
    # dense solve restricted to active nodes (excluded rows are identity-0)
    act = np.flatnonzero(np.ravel(g.active))
    x = np.zeros(9)
    x[act] = np.linalg.solve(A[np.ix_(act, act)], rhs[act])
    u, _ = solve_operator(sigma, op, rhs, tol=1e-13)
    assert np.abs(u - x).max() < 1e-11


def test_solve_shifted_validates():
    g = build_grid((0.0, 1.0), 8, "periodic")
    with pytest.raises(ValueError, match="positive"):
        solve_operator(0.0, Operator.laplacian(g), np.zeros(8))
    with pytest.raises(ValueError, match="positive"):
        solve_operator(0.0, Operator.lubrication(g, np.ones(8)), np.zeros(8))
    op = Operator.lubrication(g, 1.0 + np.arange(8.0))
    for tol in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="tolerance"):
            solve_operator(1.0, op, np.ones(8), tol=tol)


# -- fourth-order operator --------------------------------------------------------


def test_lubrication_biharmonic_composition():
    g = build_grid((0.0, 2 * np.pi), 32, "periodic")
    u = np.sin(g.axes[0])
    out = Operator.lubrication(g, np.ones(32)).apply(u)
    assert np.abs(out - u).max() < 1e-10


def test_lubrication_zero_coeff():
    g = build_grid((0.0, 2 * np.pi), 16, "periodic")
    u = np.random.default_rng(10).standard_normal(16)
    assert np.abs(Operator.lubrication(g, np.zeros(16)).apply(u)).max() == 0.0


def test_lubrication_solve_eigenfunction():
    g = build_grid((0.0, 2 * np.pi), 32, "periodic")
    u_exact = np.sin(g.axes[0])
    u, rep = solve_operator(1.0, Operator.lubrication(g, np.ones(32)),
                            2.0 * u_exact)
    assert np.abs(u - u_exact).max() < 1e-13
    assert rep.converged


def test_lubrication_variable_coeff_residual():
    g = build_grid((-1.0, 1.0), 64, "periodic")
    rng = np.random.default_rng(11)
    c = 0.5 + 0.4 * np.sin(np.pi * g.axes[0]) + 0.05 * rng.random(64)
    rhs = rng.standard_normal(64)
    sigma = 100.0
    u, rep = solve_operator(sigma, Operator.lubrication(g, c), rhs, tol=1e-11)
    res = sigma * u + Operator.lubrication(g, c).apply(u) - rhs
    assert g.norm(res) <= 1e-11 * g.norm(rhs)
    assert rep.converged


def test_lubrication_rejects_nonperiodic():
    g = build_grid((0.0, 1.0), 8, "dirichlet")
    with pytest.raises(ValueError, match="periodic"):
        Operator.lubrication(g, np.ones(9)).apply(np.zeros(9))


def test_mixed_grid_div_form_conservation_symmetry():
    # periodic x neumann: the edge path wraps around the periodic axis
    g = build_grid(((0.0, 1.0), (0.0, 2.0)), (8, 6), ("periodic", "neumann"))
    rng = np.random.default_rng(20)
    c = rng.random(g.shape)
    u, v = rng.standard_normal(g.shape), rng.standard_normal(g.shape)
    out = Operator.div_coeff_grad(g, c).apply(u)
    assert abs(g.inner(out, np.ones(g.shape))) <= 1e-12 * g.norm(u)
    assert g.inner(out, v) == pytest.approx(
        g.inner(u, Operator.div_coeff_grad(g, c).apply(v)), rel=1e-12, abs=1e-12)


def test_mixed_grid_constant_coeff_solve_matches_dense():
    g = build_grid(((0.0, 1.0), (0.0, 2.0)), (6, 5), ("periodic", "dirichlet"))
    cval = 0.7
    op = Operator.div_coeff_grad(g, np.full(g.shape, cval))
    sigma = 3.0
    M = dense_matrix(op.apply, g)
    rng = np.random.default_rng(21)
    rhs = rng.standard_normal(g.shape) * g.active
    act = np.flatnonzero(np.ravel(g.active))
    size = M.shape[0]
    A = sigma * np.eye(size) + M
    x = np.zeros(size)
    x[act] = np.linalg.solve(A[np.ix_(act, act)], np.ravel(rhs)[act])
    u, rep = solve_operator(sigma, op, rhs)
    assert rep.iterations == 0  # one-pass transform solve
    assert np.abs(np.ravel(u) - x).max() < 1e-12


# -- real-transform spectral core ---------------------------------------------

PERIODIC_GRIDS = [((-1.0, 1.0), 255), ((-1.0, 1.0), 256),
                  (((0.0, 1.0), (0.0, 2.0)), (15, 16)),
                  (((0.0, 1.0), (0.0, 2.0)), (16, 15))]


@pytest.mark.parametrize("extents,counts", PERIODIC_GRIDS)
def test_fused_fourth_order_matches_composed_form(extents, counts):
    # the fused apply keeps Delta u in transform space; the composed form
    # goes back to physical space in between
    g = build_grid(extents, counts, "periodic")
    rng = np.random.default_rng(30)
    c = rng.random(g.shape) + 0.1
    u = rng.standard_normal(g.shape)
    fused = Operator.lubrication(g, c).apply(u)
    composed = -transport_div_form(c, apply_laplacian(u, g), g)
    assert np.abs(fused - composed).max() <= 1e-14 * np.abs(composed).max()
    assert np.array_equal(fused, Operator.lubrication(g, c).apply(u))


MIXED_GRIDS = [("periodic", "neumann"), ("dirichlet", "periodic")]


@pytest.mark.parametrize("bcs", MIXED_GRIDS)
def test_transform_round_trip_mixed_grid_odd_count(bcs):
    g = build_grid(((0.0, 1.0), (0.0, 2.0)), (7, 7), bcs)
    rng = np.random.default_rng(31)
    v = rng.standard_normal(g.shape)
    if "dirichlet" in bcs:
        v = v[1:-1, :]  # the transforms act on interior nodes
    assert np.abs(_backward(g, _forward(g, v)) - v).max() < 1e-13
    # constant-coefficient operator, then its one-pass inverse
    u = rng.standard_normal(g.shape) * g.active
    cval, sigma = 0.7, 3.0
    op = Operator.div_coeff_grad(g, np.full(g.shape, cval))
    rhs = sigma * u + op.apply(u)
    back = _diag_solve(g, rhs, _denom(g, sigma, cval, DIV_COEFF_GRAD))
    assert np.abs(back - u).max() < 1e-12


@pytest.mark.parametrize("bcs", MIXED_GRIDS)
def test_mixed_grid_transform_solve_matches_dense_odd_count(bcs):
    g = build_grid(((0.0, 1.0), (0.0, 2.0)), (7, 6), bcs)
    cval, sigma = 1.3, 2.0
    op = Operator.div_coeff_grad(g, np.full(g.shape, cval))
    M = dense_matrix(op.apply, g)
    rng = np.random.default_rng(32)
    rhs = rng.standard_normal(g.shape) * g.active
    act = np.flatnonzero(np.ravel(g.active))
    A = sigma * np.eye(M.shape[0]) + M
    x = np.zeros(M.shape[0])
    x[act] = np.linalg.solve(A[np.ix_(act, act)], np.ravel(rhs)[act])
    u, rep = solve_operator(sigma, op, rhs)
    assert rep.iterations == 0
    assert np.abs(np.ravel(u) - x).max() < 1e-12


def test_symbols_built_once_per_grid():
    g = build_grid(((0.0, 1.0), (0.0, 2.0)), (9, 8), ("periodic", "dirichlet"))
    rhs = np.random.default_rng(33).standard_normal(g.shape) * g.active
    before = _symbol.cache_info()
    results = [_diag_solve(g, rhs, _denom(g, 2.0, 0.5, DIV_COEFF_GRAD))
               for _ in range(2)]
    after = _symbol.cache_info()
    assert after.misses - before.misses == 1
    assert after.hits - before.hits == 1
    assert np.array_equal(results[0], results[1])
    assert not _symbol(g, DIV_COEFF_GRAD).flags.writeable


# -- Neumann diagonalization and gauge --------------------------------------------


def test_neumann_solve_matches_dense():
    g = build_grid((-1.0, 1.0), 8, "neumann")
    op = Operator.laplacian(g)
    M = dense_matrix(op.apply, g)
    sigma = 2.0
    rng = np.random.default_rng(12)
    rhs = rng.standard_normal(9)
    x = np.linalg.solve(sigma * np.eye(9) + M, rhs)
    u, _ = solve_operator(sigma, op, rhs)
    assert np.abs(u - x).max() < 1e-12


def test_conservative_poisson_gauge_and_residual():
    g = build_grid(((-1.0, 1.0), (-1.0, 1.0)), (8, 8), "neumann")
    rng = np.random.default_rng(13)
    rho = rng.standard_normal(g.shape)
    rho -= g.mass(rho) / g.measure  # compatible right side
    scale = 0.01
    phi = solve_conservative_poisson(g, rho, scale)
    assert abs(g.mass(phi)) < 1e-12
    res = scale * Operator.laplacian(g).apply(phi) - rho
    assert g.norm(res) <= 1e-11 * g.norm(rho)


def test_solver_report_invariant():
    rep = SolverReport(iterations=3, residual=1e-12, converged=True)
    assert not rep.converged or rep.residual <= 1e-10


# -- edge-form kernel -------------------------------------------------------------


def edge_form_dense(c, g):
    """Matrix of +<-div(c grad u)> in edge form, assembled edge by edge.

    Every edge (i, j) along an axis carries 0.5 * (c_i + c_j); it adds its
    flux c_e * (u_j - u_i) to node j and subtracts it from node i, and each
    node's sum is divided by h times its own weight along that axis (1 at an
    excluded Dirichlet node, whose row is then zeroed).
    """
    size = int(np.prod(g.shape))
    M = np.zeros((size, size))
    flat = lambda idx: int(np.ravel_multi_index(idx, g.shape))
    for ax, bc in enumerate(g.bcs):
        n, h = g.shape[ax], g.spacings[ax]

        def scale(i):
            if bc == "neumann" and i in (0, n - 1):
                return h * (0.5 * h)
            if bc == "dirichlet" and i in (0, n - 1):
                return h * 1.0
            return h * h

        for idx in np.ndindex(g.shape):
            i = idx[ax]
            if i == n - 1 and bc != "periodic":
                continue
            nxt = list(idx)
            nxt[ax] = (i + 1) % n
            a, b = flat(idx), flat(tuple(nxt))
            ce = 0.5 * (c[idx] + c[tuple(nxt)])
            M[a, a] += ce / scale(i)
            M[a, b] -= ce / scale(i)
            M[b, b] += ce / scale(nxt[ax])
            M[b, a] -= ce / scale(nxt[ax])
    M[~np.ravel(g.active), :] = 0.0
    return M


EDGE_GRIDS = [
    ((0.0, 1.0), 9, "dirichlet"),
    ((0.0, 1.0), 9, "neumann"),
    (((0.0, 1.0), (0.0, 2.0)), (6, 5), "dirichlet"),
    (((0.0, 1.0), (0.0, 2.0)), (6, 5), "neumann"),
    (((0.0, 1.0), (0.0, 2.0)), (6, 5), ("periodic", "dirichlet")),
]
EDGE_IDS = ["1d-dirichlet", "1d-neumann", "2d-dirichlet", "2d-neumann",
            "periodic-x-dirichlet"]


@pytest.mark.parametrize("extents,counts,bcs", EDGE_GRIDS, ids=EDGE_IDS)
def test_edge_form_matches_edge_by_edge_dense(extents, counts, bcs):
    g = build_grid(extents, counts, bcs)
    rng = np.random.default_rng(50)
    c = 0.1 + rng.random(g.shape) * 3.0
    u = rng.standard_normal(g.shape)
    M = edge_form_dense(c, g)
    out = Operator.div_coeff_grad(g, c).apply(u)
    ref = (M @ np.ravel(u)).reshape(g.shape)
    assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("extents,counts,bcs",
                         EDGE_GRIDS + [((0.0, 1.0), 16, "periodic")],
                         ids=EDGE_IDS + ["1d-periodic"])
def test_operator_apply_is_transport_div_form(extents, counts, bcs):
    # one edge-form implementation: the operator's cached edge coefficients
    # give the same bits as building them for one transport term
    g = build_grid(extents, counts, bcs)
    rng = np.random.default_rng(51)
    c = rng.random(g.shape)
    op = Operator.div_coeff_grad(g, c)
    for _ in range(2):  # the second apply reads the cached coefficients
        u = rng.standard_normal(g.shape)
        assert np.array_equal(op.apply(u), transport_div_form(c, u, g))


def test_edge_coefficients_built_once_per_operator(monkeypatch):
    built = []
    real = ops._edge_coeffs

    def counting(c, g):
        built.append(1)
        return real(c, g)

    monkeypatch.setattr(ops, "_edge_coeffs", counting)
    g = build_grid(((0.0, 1.0), (0.0, 1.0)), (16, 16), "dirichlet")
    X, Y = g.coords()
    c = 0.2 + X ** 2 + np.sin(3.0 * Y) ** 2
    rhs = np.random.default_rng(52).standard_normal(g.shape) * g.active
    op = Operator.div_coeff_grad(g, c)
    u, rep = solve_operator(5.0, op, rhs, tol=1e-12)
    assert rep.converged and rep.iterations > 5
    assert len(built) == 1
    solve_operator(5.0, op, 2.0 * rhs)
    assert len(built) == 1  # the same operator: still cached
    solve_operator(5.0, Operator.div_coeff_grad(g, c), rhs)
    assert len(built) == 2


# -- edge-form PCG with the diagonal preconditioner -----------------------------


def patchy_coefficient(g, seed):
    """Spans three decades, with a zero patch over the first third of axis 0."""
    c = 10.0 ** np.random.default_rng(seed).uniform(-2.0, 1.0, g.shape)
    _sl(c, 0, slice(0, g.shape[0] // 3))[...] = 0.0
    return c


@pytest.mark.parametrize("extents,counts,bcs", EDGE_GRIDS, ids=EDGE_IDS)
def test_edge_diagonal_matches_dense(extents, counts, bcs):
    g = build_grid(extents, counts, bcs)
    c = patchy_coefficient(g, 60)
    op = Operator.div_coeff_grad(g, c)
    diag = ops._edge_diagonal(op.edge_coeffs, g) * g.active
    ref = np.diag(edge_form_dense(c, g)).reshape(g.shape)
    assert np.abs(diag - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("with_x0", [False, True], ids=["zero-x0", "x0"])
@pytest.mark.parametrize("extents,counts,bcs", EDGE_GRIDS, ids=EDGE_IDS)
def test_edge_form_solve_matches_dense(extents, counts, bcs, with_x0):
    g = build_grid(extents, counts, bcs)
    c = patchy_coefficient(g, 61)
    positive = c[c > 0]
    assert positive.max() >= 100.0 * positive.min() and (c == 0).any()
    op = Operator.div_coeff_grad(g, c)
    sigma, tol = 3.0, 1e-12
    rng = np.random.default_rng(62)
    rhs = rng.standard_normal(g.shape) * g.active
    x0 = rng.standard_normal(g.shape) if with_x0 else np.zeros(g.shape)
    u, rep = solve_operator(sigma, op, rhs, tol=tol,
                            x0=x0 if with_x0 else None)
    assert rep.converged and rep.iterations > 0 and rep.residual <= tol
    res = (sigma * u + op.apply(u) - rhs) * g.active
    assert g.norm(res) <= tol * g.norm(rhs)
    inactive = ~g.active
    assert np.array_equal(u[inactive], x0[inactive])
    # reference: the active rows of sigma I + L, the inactive values held
    # at x0
    A = sigma * np.eye(u.size) + edge_form_dense(c, g)
    b = np.ravel(rhs).copy()
    rows = np.flatnonzero(np.ravel(inactive))
    A[rows] = 0.0
    A[rows, rows] = 1.0
    b[rows] = np.ravel(x0)[rows]
    x = np.linalg.solve(A, b).reshape(g.shape)
    assert np.abs(u - x).max() <= 1e-9 * np.abs(x).max()


def count_bounded_transforms(monkeypatch):
    """Count the DST/DCT calls of :mod:`posikit.operators`, by name."""
    calls = []
    for name in ("dst", "dct", "idst", "idct"):
        real = getattr(ops.sfft, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(ops.sfft, name, counting)
    return calls


BOUNDED_GRIDS = EDGE_GRIDS[:4]
BOUNDED_IDS = EDGE_IDS[:4]


@pytest.mark.parametrize("extents,counts,bcs", EDGE_GRIDS, ids=EDGE_IDS)
def test_edge_form_variable_solve_makes_no_transforms(monkeypatch, extents,
                                                      counts, bcs):
    calls = count_bounded_transforms(monkeypatch)
    g = build_grid(extents, counts, bcs)
    op = Operator.div_coeff_grad(g, patchy_coefficient(g, 63))
    rhs = np.random.default_rng(64).standard_normal(g.shape) * g.active
    _, rep = solve_operator(3.0, op, rhs, tol=1e-12)
    assert rep.converged and rep.iterations > 0
    assert calls == []


@pytest.mark.parametrize("extents,counts,bcs", BOUNDED_GRIDS, ids=BOUNDED_IDS)
def test_constant_coefficient_solve_makes_one_transform_pass(
        monkeypatch, extents, counts, bcs):
    calls = count_bounded_transforms(monkeypatch)
    g = build_grid(extents, counts, bcs)
    op = Operator.div_coeff_grad(g, np.full(g.shape, 2.0))
    rhs = np.random.default_rng(65).standard_normal(g.shape) * g.active
    _, rep = solve_operator(3.0, op, rhs)
    assert rep.iterations == 0
    forward, backward = ("dst", "idst") if bcs == "dirichlet" else ("dct",
                                                                     "idct")
    assert sorted(calls) == sorted([forward] * g.dim + [backward] * g.dim)


# -- fourth-order BiCGStab in transform space -----------------------------------

KRYLOV_GRIDS = [((0.0, 2 * np.pi), 32), ((0.0, 2 * np.pi), 33),
                (((0.0, 2 * np.pi), (0.0, 2 * np.pi)), (12, 13))]


def strongly_varying(g):
    """A coefficient that ranges over more than two decades."""
    if g.dim == 1:
        return 0.02 + np.exp(2.0 * np.sin(g.axes[0]))
    X, Y = g.coords()
    return 0.02 + np.exp(2.0 * np.sin(X) * np.cos(Y))


@pytest.mark.parametrize("with_x0", [False, True], ids=["zero-x0", "x0"])
@pytest.mark.parametrize("extents,counts", KRYLOV_GRIDS,
                         ids=["32", "33", "12x13"])
def test_fourth_order_solve_matches_dense(extents, counts, with_x0):
    g = build_grid(extents, counts, "periodic")
    op = Operator.lubrication(g, strongly_varying(g))
    sigma, tol = 10.0, 1e-11
    rng = np.random.default_rng(53)
    rhs = rng.standard_normal(g.shape)
    x0 = rng.standard_normal(g.shape) if with_x0 else None
    u, rep = solve_operator(sigma, op, rhs, tol=tol, x0=x0)
    assert rep.converged and rep.iterations > 0
    assert u.dtype == np.float64 and u.shape == g.shape
    res = sigma * u + op.apply(u) - rhs
    assert g.norm(res) <= tol * g.norm(rhs)
    A = sigma * np.eye(u.size) + dense_matrix(op.apply, g)
    x = np.linalg.solve(A, np.ravel(rhs)).reshape(g.shape)
    assert np.abs(u - x).max() <= 1e-8 * np.abs(x).max()


def test_fourth_order_solve_out_of_iterations_returns_physical_iterate():
    g = build_grid((0.0, 2 * np.pi), 32, "periodic")
    op = Operator.lubrication(g, strongly_varying(g))
    rhs = np.random.default_rng(54).standard_normal(g.shape)
    u, rep = solve_operator(10.0, op, rhs, maxit=1, x0=np.zeros(g.shape))
    assert not rep.converged and rep.iterations == 1
    assert u.dtype == np.float64 and u.shape == g.shape
    assert np.all(np.isfinite(u))
    res = 10.0 * u + op.apply(u) - rhs
    assert rep.residual == pytest.approx(g.norm(res) / g.norm(rhs), rel=1e-10)


# -- periodic Krylov solves on real-FFT spectra --------------------------------

PARSEVAL_GRIDS = KRYLOV_GRIDS + [(((0.0, 2 * np.pi), (0.0, 1.0)), (16, 16))]


@pytest.mark.parametrize("extents,counts", PARSEVAL_GRIDS,
                         ids=["32", "33", "12x13", "16x16"])
def test_parseval_weights_reproduce_grid_inner(extents, counts):
    g = build_grid(extents, counts, "periodic")
    w = ops._parseval_weights(g)
    rng = np.random.default_rng(56)
    for _ in range(3):
        a, b = rng.standard_normal(g.shape), rng.standard_normal(g.shape)
        A = ops._rfft(g, a).view(float)
        B = ops._rfft(g, b).view(float)
        scale = g.norm(a) * g.norm(b)
        assert abs(ops._wdot(w, A, B) - g.inner(a, b)) <= 1e-13 * scale
        assert ops._wdot(w, A, A) == pytest.approx(g.norm(a) ** 2, rel=1e-13)


@pytest.mark.parametrize("with_x0", [False, True], ids=["zero-x0", "x0"])
@pytest.mark.parametrize("extents,counts", KRYLOV_GRIDS,
                         ids=["32", "33", "12x13"])
def test_periodic_second_order_solve_matches_dense(extents, counts, with_x0):
    g = build_grid(extents, counts, "periodic")
    op = Operator.div_coeff_grad(g, strongly_varying(g))
    sigma, tol = 3.0, 1e-11
    rng = np.random.default_rng(57)
    rhs = rng.standard_normal(g.shape)
    x0 = rng.standard_normal(g.shape) if with_x0 else None
    u, rep = solve_operator(sigma, op, rhs, tol=tol, x0=x0)
    assert rep.converged and rep.iterations > 0
    assert u.dtype == np.float64 and u.shape == g.shape
    res = sigma * u + op.apply(u) - rhs
    assert g.norm(res) <= tol * g.norm(rhs)
    A = sigma * np.eye(u.size) + dense_matrix(op.apply, g)
    x = np.linalg.solve(A, np.ravel(rhs)).reshape(g.shape)
    assert np.abs(u - x).max() <= 1e-8 * np.abs(x).max()


def count_periodic_transforms(monkeypatch):
    """Count the real FFT calls of the periodic transforms (1D and 2D)."""
    calls = []
    for owner, names in ((np.fft, ("rfft", "irfft")),
                         (ops.sfft, ("rfft2", "irfft2"))):
        for name in names:
            real = getattr(owner, name)

            def counting(*args, _real=real, **kwargs):
                calls.append(1)
                return _real(*args, **kwargs)

            monkeypatch.setattr(owner, name, counting)
    return calls


def periodic_solve_transforms(monkeypatch, g, op, maxit):
    """Real FFTs made by a periodic solve that runs exactly ``maxit``
    iterations (the tolerance is unreachable)."""
    rng = np.random.default_rng(55)
    rhs, x0 = rng.standard_normal(g.shape), rng.standard_normal(g.shape)
    calls = count_periodic_transforms(monkeypatch)
    _, rep = solve_operator(10.0, op, rhs, tol=1e-30, maxit=maxit, x0=x0)
    assert rep.iterations == maxit and not rep.converged
    return len(calls)


# Each operator apply makes 2 * dim real transforms.  Per solve the fixed
# part is the transforms of rhs and x0, the first and last true residuals
# (one apply each) and the inverse transform of the iterate.


@pytest.mark.parametrize("maxit", [1, 5, 20])
def test_fourth_order_solve_uses_four_transforms_per_iteration(
        monkeypatch, maxit):
    g = build_grid((0.0, 2 * np.pi), 64, "periodic")
    op = Operator.lubrication(g, 1.0 + 0.5 * np.sin(g.axes[0]))
    assert periodic_solve_transforms(monkeypatch, g, op, maxit) == \
        4 * maxit + 7


@pytest.mark.parametrize("maxit", [1, 5, 20])
def test_periodic_second_order_solve_uses_two_transforms_per_iteration(
        monkeypatch, maxit):
    g = build_grid((0.0, 2 * np.pi), 64, "periodic")
    op = Operator.div_coeff_grad(g, 1.0 + 0.5 * np.sin(g.axes[0]))
    assert periodic_solve_transforms(monkeypatch, g, op, maxit) == \
        2 * maxit + 7


@pytest.mark.parametrize("kind,per_iteration", [("lubrication", 8),
                                                ("div_coeff_grad", 4)],
                         ids=["bicgstab", "cg"])
def test_periodic_solve_transform_count_2d(monkeypatch, kind, per_iteration):
    g = build_grid(*KRYLOV_GRIDS[2], "periodic")
    op = getattr(Operator, kind)(g, strongly_varying(g))
    assert periodic_solve_transforms(monkeypatch, g, op, 5) == \
        5 * per_iteration + 11


def test_bicgstab_zero_t_is_a_breakdown_not_a_division_by_zero():
    # with the identity the first half step solves exactly, so s and t are
    # 0; a negative tolerance keeps the inner gate from stopping before t
    b = np.arange(1.0, 9.0)
    x, rep = ops._krylov(ops._pbicgstab, lambda v: v.copy(),
                         lambda r: r.copy(), b, np.ones(8), -1.0, 10)
    assert np.array_equal(x, b)
    assert rep.iterations == 1 and rep.residual == 0.0 and not rep.converged
