import importlib
import inspect
import pkgutil

import numpy as np
import pytest
import scipy.fft
from scipy.fft._pocketfft import pypocketfft

import posikit
from posikit import operators as ops
from posikit.grid import build_grid
from posikit.operators import (DIV_COEFF_GRAD, Operator, SolverReport,
                               _denom, _diag_solve, _symbol,
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
    assert np.abs(Operator.laplacian(g).apply(u) - u).max() < 1e-12


def test_laplacian_constant_is_zero():
    for bc in ("periodic", "neumann"):
        g = build_grid((0.0, 3.0), 8, bc)
        out = Operator.laplacian(g).apply(np.full(g.shape, 2.5))
        assert np.abs(out).max() < 1e-12


def test_laplacian_dirichlet_hat_stencil():
    g = build_grid((-5.0, 5.0), 10, "dirichlet")
    h = g.spacings[0]
    u = np.zeros(11)
    u[4] = 1.0
    out = -Operator.laplacian(g).apply(u)
    assert out[4] == pytest.approx(-2.0 / h**2)
    assert out[3] == pytest.approx(1.0 / h**2)
    assert out[5] == pytest.approx(1.0 / h**2)


def test_laplacian_2d_separable():
    g = build_grid(((0.0, 2 * np.pi), (0.0, 2 * np.pi)), (16, 16), "periodic")
    X, Y = g.coords()
    u = np.sin(X) * np.cos(2 * Y)
    expect = (1 + 4) * u
    assert np.abs(Operator.laplacian(g).apply(u) - expect).max() < 1e-11


# -- divergence form --------------------------------------------------------------


def test_div_unit_coeff_reduces_to_laplacian_fd():
    g = build_grid((-1.0, 1.0), 9, "dirichlet")
    rng = np.random.default_rng(0)
    u = rng.standard_normal(10)
    u[0] = u[-1] = 0.0
    c = np.ones(10)
    lhs = Operator.div_coeff_grad(g, c).apply(u)
    rhs = Operator.laplacian(g).apply(u)
    assert np.abs((lhs - rhs)[g.active]).max() < 1e-12


@pytest.mark.parametrize("extents,counts", [((-1.0, 1.0), 9),
                                            (((0.0, 1.0), (0.0, 2.0)), (6, 5))],
                         ids=["1d", "2d"])
@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_bounded_laplacian_is_the_unit_coefficient_edge_form(extents, counts,
                                                              bc):
    # one stencil: the Laplacian applies through the edge form at c == 1
    g = build_grid(extents, counts, bc)
    u = np.random.default_rng(3).standard_normal(g.shape)
    unit = Operator.div_coeff_grad(g, np.ones(g.shape))
    assert np.array_equal(Operator.laplacian(g).apply(u), unit.apply(u))


def test_div_unit_coeff_reduces_to_laplacian_periodic():
    # band-limited field: the antisymmetric derivative drops the Nyquist mode
    g = build_grid((0.0, 2 * np.pi), 16, "periodic")
    x = g.axes[0]
    u = 0.3 + np.sin(x) - 2.1 * np.cos(3 * x) + 0.2 * np.sin(7 * x)
    lhs = Operator.div_coeff_grad(g, np.ones(16)).apply(u)
    rhs = Operator.laplacian(g).apply(u)
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


@pytest.mark.parametrize("kind,extents,counts,bc", [
    ("div_coeff_grad", (0.0, 1.0), 16, "dirichlet"),
    ("div_coeff_grad", ((0.0, 1.0), (0.0, 1.0)), (16, 16), "dirichlet"),
    ("lubrication", (0.0, 2 * np.pi), 64, "periodic"),
], ids=["1d-dirichlet", "2d-dirichlet", "thin-film"])
def test_nan_coefficient_node_rejected_at_construction(kind, extents, counts,
                                                       bc):
    # NaN fails c < 0 as well as c >= 0: one NaN node once made a solve
    # spend its whole budget on NaN; +inf stays accepted, -inf rejected
    g = build_grid(extents, counts, bc)
    make = getattr(Operator, kind)
    for bad in (np.nan, -np.inf):
        c = np.ones(g.shape)
        c.reshape(-1)[c.size // 2] = bad
        with pytest.raises(ValueError, match="nonnegative"):
            make(g, c)
    c = np.ones(g.shape)
    c.reshape(-1)[c.size // 2] = np.inf
    assert make(g, c).coeff.reshape(-1)[c.size // 2] == np.inf


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
    # the 1D edge form solves by one exact elimination
    assert rep.converged and rep.iterations == 0 and rep.residual <= 1e-13
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
    composed = transport_div_form(c, Operator.laplacian(g).apply(u), g)
    assert np.abs(fused - composed).max() <= 1e-14 * np.abs(composed).max()
    assert np.array_equal(fused, Operator.lubrication(g, c).apply(u))


def test_symbols_built_once_per_grid():
    # the first solve builds the symbol into the grid's memo, the second finds
    # that very array there: a second build would add or replace an entry
    g = build_grid(((0.0, 1.0), (0.0, 2.0)), (9, 8), ("dirichlet", "neumann"))
    rhs = np.random.default_rng(33).standard_normal(g.shape) * g.active
    assert g.memo == {}
    results, stored = [], []
    for _ in range(2):
        denom = _denom(g, 2.0, 0.5, DIV_COEFF_GRAD)
        results.append(_diag_solve(g, rhs, denom))
        (symbol,) = g.memo.values()
        stored.append(symbol)
    assert stored[1] is stored[0] and _symbol(g, DIV_COEFF_GRAD) is stored[0]
    assert np.array_equal(results[0], results[1])
    assert not _symbol(g, DIV_COEFF_GRAD).flags.writeable


def test_pocketfft_loader_is_the_only_process_wide_cache():
    # every per-grid array lives in its grid's memo; only the module that
    # holds scipy's transform kernels is cached for the whole process
    cached = set()
    for info in pkgutil.iter_modules(posikit.__path__, "posikit."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            for member in [obj, *(vars(obj).values() if inspect.isclass(obj)
                                  else ())]:
                if (hasattr(member, "cache_info")
                        and member.__module__ == module.__name__):
                    cached.add(f"{module.__name__}.{member.__qualname__}")
    assert cached == {"posikit.operators._pocketfft"}


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
    excluded Dirichlet node, whose row is then zeroed).  Every axis is
    bounded: n - 1 edges between its n nodes.
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
            if i == n - 1:
                continue
            nxt = list(idx)
            nxt[ax] = i + 1
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
    (((0.0, 1.0), (0.0, 2.0)), (6, 5), ("dirichlet", "neumann")),
]
EDGE_IDS = ["1d-dirichlet", "1d-neumann", "2d-dirichlet", "2d-neumann",
            "dirichlet-x-neumann"]


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


@pytest.mark.parametrize("extents,counts,bcs", EDGE_GRIDS, ids=EDGE_IDS)
def test_edge_apply_rounds_as_the_edge_by_edge_scatter(extents, counts, bcs):
    # the flat edge form keeps the per-axis operations, bit for bit: the
    # flux 0.5 * (c_i + c_j) / h**2 * (u_j - u_i) leaves node i and enters
    # node j, a Neumann end node takes its one edge a second time, and the
    # excluded ends are 0
    g = build_grid(extents, counts, bcs)
    rng = np.random.default_rng(53)
    c, u = rng.random(g.shape), rng.standard_normal(g.shape)
    ref = np.zeros(g.shape)
    for ax, bc in enumerate(g.bcs):
        r, ca, ua = (np.moveaxis(a, ax, 0) for a in (ref, c, u))
        flux = 0.5 * (ca[:-1] + ca[1:]) / g.spacings[ax] ** 2
        flux *= ua[1:] - ua[:-1]
        r[:-1] -= flux
        r[1:] += flux
        if bc == "neumann":
            r[0] -= flux[0]
            r[-1] += flux[-1]
    ref[~g.active] = 0.0
    assert Operator.div_coeff_grad(g, c).apply(u).tobytes() == ref.tobytes()


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
    c[:g.shape[0] // 3] = 0.0
    return c


@pytest.mark.parametrize("extents,counts,bcs", EDGE_GRIDS, ids=EDGE_IDS)
def test_edge_diagonal_matches_dense(extents, counts, bcs):
    g = build_grid(extents, counts, bcs)
    c = patchy_coefficient(g, 60)
    op = Operator.div_coeff_grad(g, c)
    diag = ops._edge_diagonal(op.edge_coeffs, g) * g.active
    ref = np.diag(edge_form_dense(c, g)).reshape(g.shape)
    assert np.abs(diag - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("bcs", ["dirichlet", "neumann",
                                 ("dirichlet", "neumann")],
                         ids=["dirichlet", "neumann", "dirichlet-x-neumann"])
def test_edge_apply_and_diagonal_peak_memory_in_field_sizes(bcs):
    # the apply holds its output and one axis's flux at a time, the
    # diagonal only its output; numpy's small buffers stay under 0.05
    import tracemalloc
    g = build_grid(((0.0, 1.0), (0.0, 1.0)), (128, 128), bcs)
    rng = np.random.default_rng(54)
    c, u = rng.random(g.shape), rng.standard_normal(g.shape)
    op = Operator.div_coeff_grad(g, c)
    op.apply(u)  # builds the edge coefficients
    peaks = []
    for call in (lambda: op.apply(u),
                 lambda: ops._edge_diagonal(op.edge_coeffs, g)):
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1] / u.nbytes)
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 2.05 and peaks[1] <= 1.05, peaks


def assert_solve_path(g, rep):
    """1D edge forms solve by one exact elimination, 2D ones by PCG."""
    if g.dim == 1:
        assert rep.iterations == 0 and rep.residual <= 1e-13
    else:
        assert rep.iterations > 0


def dense_solve_holding_inactive(c, g, sigma, rhs, x0):
    """Dense reference: the active rows of sigma I + L, the inactive
    values held at x0."""
    A = sigma * np.eye(rhs.size) + edge_form_dense(c, g)
    b = np.ravel(rhs).copy()
    rows = np.flatnonzero(~np.ravel(g.active))
    A[rows] = 0.0
    A[rows, rows] = 1.0
    b[rows] = np.ravel(x0)[rows]
    return np.linalg.solve(A, b).reshape(g.shape)


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
    # a copy: the 2D path iterates in its start, which must stay the
    # reference the inactive nodes are held at
    u, rep = solve_operator(sigma, op, rhs, tol=tol,
                            x0=x0.copy() if with_x0 else None)
    assert rep.converged and rep.residual <= tol
    assert_solve_path(g, rep)
    res = (sigma * u + op.apply(u) - rhs) * g.active
    assert g.norm(res) <= tol * g.norm(rhs)
    inactive = ~g.active
    assert np.array_equal(u[inactive], x0[inactive])
    x = dense_solve_holding_inactive(c, g, sigma, rhs, x0)
    assert np.abs(u - x).max() <= 1e-9 * np.abs(x).max()


def test_1d_dirichlet_solve_holds_x0_at_both_ends():
    # the elimination's identity rows: nonzero ends of x0 stay put and
    # couple into the first and last active rows as the apply couples them
    g = build_grid((0.0, 1.0), 32, "dirichlet")
    c = patchy_coefficient(g, 66)
    op = Operator.div_coeff_grad(g, c)
    rng = np.random.default_rng(67)
    rhs = rng.standard_normal(g.shape) * g.active
    x0 = np.zeros(g.shape)
    x0[0], x0[-1] = 0.75, -1.5
    u, rep = solve_operator(2.0, op, rhs, tol=1e-12, x0=x0)
    # the ends enter the first and last active rows with weights up to
    # c / h^2 ~ 1e4, so rounding is measured against more than rhs
    assert rep.converged and rep.iterations == 0 and rep.residual <= 1e-12
    assert u[0] == 0.75 and u[-1] == -1.5
    x = dense_solve_holding_inactive(c, g, 2.0, rhs, x0)
    assert np.abs(u - x).max() <= 1e-12 * np.abs(x).max()


def test_2d_dirichlet_solve_with_zero_rhs_carries_x0():
    # a right side that vanishes on the active rows is judged by the
    # absolute residual: the ends stay at x0 = 1 and the rows next to them
    # couple to them, so the interior is not zero either
    g = build_grid(((0.0, 1.0), (0.0, 1.0)), (8, 8), "dirichlet")
    assert g.shape == (9, 9)
    c = patchy_coefficient(g, 70)
    op = Operator.div_coeff_grad(g, c)
    rhs = np.zeros(g.shape)
    x0 = np.ones(g.shape)
    u, rep = solve_operator(3.0, op, rhs, tol=1e-12, x0=x0.copy())
    assert rep.converged and rep.iterations > 0 and rep.residual <= 1e-12
    assert np.all(u[~g.active] == 1.0)
    assert np.abs(u[g.active]).max() > 0.0
    x = dense_solve_holding_inactive(c, g, 3.0, rhs, x0)
    assert np.abs(u - x).max() <= 1e-9 * np.abs(x).max()
    # without a start the zero right side still gives zero at once
    u0, rep0 = solve_operator(3.0, op, rhs, tol=1e-12)
    assert np.all(u0 == 0.0) and rep0 == SolverReport(0, 0.0, True)


@pytest.mark.parametrize("bcs", ["dirichlet", "neumann"])
def test_1d_solve_judges_its_residual_against_tol(bcs):
    # no iterations to spend: an unreachable tolerance is reported as not
    # converged, and maxit does not limit the elimination
    g = build_grid((0.0, 1.0), 16, bcs)
    op = Operator.div_coeff_grad(g, patchy_coefficient(g, 68))
    rhs = np.random.default_rng(69).standard_normal(g.shape) * g.active
    _, rep = solve_operator(3.0, op, rhs, tol=1e-30, maxit=1)
    assert not rep.converged and rep.iterations == 0
    assert 0.0 < rep.residual <= 1e-13
    _, exact = solve_operator(3.0, op, rhs, tol=1e-12, maxit=1)
    assert exact.converged and exact.residual == rep.residual


def count_calls(monkeypatch, calls, owner, names, record):
    """Patch the kernels ``names`` of ``owner`` (posikit looks them up on it
    at call time) to append ``record(name, args)`` to ``calls``."""
    for name in names:
        real = getattr(owner, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls.append(record(_name, args))
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    return calls


def count_bounded_transforms(monkeypatch):
    """Count the DST-I/DCT-I kernel calls of :mod:`posikit.operators`, by
    name: an inverse is the kernel at normalization code 2."""
    return count_calls(monkeypatch, [], pypocketfft, ("dst", "dct"),
                       lambda name, args: "i" * (args[3] == 2) + name)


@pytest.mark.parametrize("extents,counts,bcs", EDGE_GRIDS, ids=EDGE_IDS)
def test_edge_form_variable_solve_makes_no_transforms(monkeypatch, extents,
                                                      counts, bcs):
    calls = count_bounded_transforms(monkeypatch)
    g = build_grid(extents, counts, bcs)
    op = Operator.div_coeff_grad(g, patchy_coefficient(g, 63))
    rhs = np.random.default_rng(64).standard_normal(g.shape) * g.active
    _, rep = solve_operator(3.0, op, rhs, tol=1e-12)
    assert rep.converged
    assert_solve_path(g, rep)
    assert calls == []


@pytest.mark.parametrize("extents,counts,bcs", EDGE_GRIDS, ids=EDGE_IDS)
def test_constant_coefficient_solve_makes_one_transform_pass(
        monkeypatch, extents, counts, bcs):
    calls = count_bounded_transforms(monkeypatch)
    g = build_grid(extents, counts, bcs)
    op = Operator.div_coeff_grad(g, np.full(g.shape, 2.0))
    rhs = np.random.default_rng(65).standard_normal(g.shape) * g.active
    _, rep = solve_operator(3.0, op, rhs)
    assert rep.iterations == 0
    pass_of = {"dirichlet": ["dst", "idst"], "neumann": ["dct", "idct"]}
    expect = [name for bc in g.bcs for name in pass_of[bc]]
    assert sorted(calls) == sorted(expect)


def periodic_laplacian():
    return Operator.laplacian(
        build_grid(((0.0, 2 * np.pi), (0.0, 2 * np.pi)), (8, 9), "periodic"))


def bounded_constant_coefficient():
    g = build_grid(((0.0, 1.0), (0.0, 2.0)), (9, 8), ("dirichlet", "neumann"))
    return Operator.div_coeff_grad(g, np.full(g.shape, 2.0))


@pytest.mark.parametrize("make", [periodic_laplacian,
                                  bounded_constant_coefficient])
def test_constant_coefficient_solves_hold_one_diagonal(monkeypatch, make):
    # solves at one shift build sigma + cbar * symbol once and give the
    # bits of a fresh operator's solve; another shift replaces the held
    # diagonal, so an operator never holds more than one
    built = []
    real = ops._denom
    monkeypatch.setattr(ops, "_denom",
                        lambda *args: built.append(args[1]) or real(*args))
    op = make()
    g, cbar = op.grid, 1.0 if op.coeff is None else 2.0
    rhs = np.random.default_rng(66).standard_normal(g.shape) * g.active
    fresh = solve_operator(3.0, make(), rhs)[0]
    built.clear()
    us = [solve_operator(3.0, op, rhs)[0] for _ in range(3)]
    assert built == [3.0]
    assert all(u.tobytes() == fresh.tobytes() for u in us)
    held = op._diagonal
    assert held[:2] == (3.0, cbar) and not held[2].flags.writeable
    for sigma in (5.0, 3.0):
        solve_operator(sigma, op, rhs)
        assert op._diagonal[:2] == (sigma, cbar)
    assert built == [3.0, 5.0, 3.0]
    assert op._diagonal[2] is not held[2]
    assert set(vars(op)) == {"grid", "kind", "coeff", "_diagonal"}


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
    """Count the real FFT kernel calls of the periodic transforms: numpy's
    1D gufuncs and scipy's 2D pocketfft."""
    calls, one = [], lambda name, args: 1
    count_calls(monkeypatch, calls, np.fft._pocketfft_umath,
                ("rfft_n_even", "rfft_n_odd", "irfft"), one)
    return count_calls(monkeypatch, calls, pypocketfft, ("r2c", "c2r"), one)


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


@pytest.mark.parametrize("contrast", [3.0, 403.0], ids=["low", "high"])
@pytest.mark.parametrize("maxit", [1, 2, 5, 20])
def test_fourth_order_solve_uses_four_transforms_per_iteration(
        monkeypatch, maxit, contrast):
    # 4 per iteration on the spectral preconditioner; where the contrast
    # calls for the switch, the finite-difference one adds 2 per
    # application (8 per iteration) and the restart's true residual one
    # more apply
    g = build_grid((0.0, 2 * np.pi), 64, "periodic")
    c = contrast ** (0.5 + 0.5 * np.sin(g.axes[0]))
    op = Operator.lubrication(g, c)
    assert c.max() / c.min() == pytest.approx(contrast, rel=1e-3)
    spectral = maxit if contrast < ops._FD_CONTRAST else \
        min(maxit, ops._FD_SWITCH)
    fd = maxit - spectral
    restart = 2 if fd else 0
    assert periodic_solve_transforms(monkeypatch, g, op, maxit) == \
        4 * spectral + restart + 8 * fd + 7


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


def fd_stencil_matrix(c, sigma, h):
    """Dense sigma I + delta_c delta^2 row by row from its 5-point stencil,
    the periodic wrap entries dropped."""
    n = c.size
    ce = 0.5 * (c + np.roll(c, -1))
    A = np.zeros((n, n))
    for i in range(n):
        cem = ce[i - 1]
        row = [cem, -ce[i] - 3 * cem, sigma * h**4 + 3 * ce[i] + 3 * cem,
               -3 * ce[i] - cem, ce[i]]
        for j, v in zip(range(i - 2, i + 3), row):
            if 0 <= j < n:
                A[i, j] = v / h**4
    return A


@pytest.mark.parametrize("n", [8, 33, 64])
def test_band_solve_matches_the_finite_difference_stencil(n):
    rng = np.random.default_rng(58)
    c = np.exp(3.0 * rng.standard_normal(n))
    c[n // 3:n // 2] = 0.0
    sigma, h = 2.0, 2.0 / n
    r = rng.standard_normal(n)
    y = ops._band_solve(ops._band_factor(c, sigma, h), r)
    A = fd_stencil_matrix(c, sigma, h)
    assert np.abs(A @ y - r).max() <= 1e-12 * np.abs(A).max() * np.abs(y).max()


def post_touchdown_system():
    """The BDF2 prediction system of a thin film (mobility u^(1/2)) one step
    after a BDF1 step from a touched-down profile clamped at 1e-4: sigma,
    operator, right side and the extrapolated start."""
    g = build_grid((-1.0, 1.0), 256, "periodic")
    dt = 2e-7
    u0 = np.maximum(1.8 * np.abs(np.sin(0.5 * np.pi * g.axes[0])) ** 2.8,
                    1e-4)
    u1, _ = solve_operator(1.0 / dt, Operator.lubrication(g, np.sqrt(u0)),
                           u0 / dt)
    star = 2.0 * u1 - u0
    op = Operator.lubrication(g, np.sqrt(np.maximum(star, 1e-4)))
    return 1.5 / dt, op, (2.0 * u1 - 0.5 * u0) / dt, star


def test_post_touchdown_solve_takes_the_finite_difference_preconditioner():
    sigma, op, rhs, x0 = post_touchdown_system()
    g, c = op.grid, op.coeff
    assert c.max() / c.min() > 100 and sigma == 1.5 / 2e-7
    u, rep = solve_operator(sigma, op, rhs, x0=x0)
    # the mean-coefficient preconditioner alone takes 49
    assert rep.converged and ops._FD_SWITCH < rep.iterations <= 12
    A = sigma * np.eye(g.shape[0]) + dense_matrix(op.apply, g)
    x = np.linalg.solve(A, rhs)
    assert np.abs(u - x).max() <= 1e-8 * np.abs(x).max()
    # a zero patch, as the reg_eta mobility gives where the film is dry
    v = x0 - 0.01
    assert np.count_nonzero(v <= 0.0) > 0
    dry = Operator.lubrication(g, np.maximum(v, 0.0) ** 2)
    _, rep = solve_operator(sigma, dry, rhs, x0=x0)
    assert rep.converged and rep.iterations > ops._FD_SWITCH


def test_finite_difference_preconditioner_built_only_past_the_switch(
        monkeypatch):
    calls = []
    real = ops._band_factor

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(ops, "_band_factor", counting)
    # smooth, low contrast: converged before the switch
    g = build_grid((-1.0, 1.0), 256, "periodic")
    u = 1.0 + 0.2 * np.cos(np.pi * g.axes[0])
    sigma = 1.5 / 2e-7
    _, rep = solve_operator(sigma, Operator.lubrication(g, np.sqrt(u)),
                            sigma * u, x0=u.copy())
    assert rep.converged and rep.iterations <= ops._FD_SWITCH
    # low contrast past the switch: the spectral preconditioner stays
    g1 = build_grid((0.0, 2 * np.pi), 64, "periodic")
    c = 1.0 + 0.5 * np.sin(g1.axes[0])
    _, rep = solve_operator(10.0, Operator.lubrication(g1, c),
                            np.cos(g1.axes[0]))
    assert rep.converged and rep.iterations > ops._FD_SWITCH
    # 2D stays on the spectral preconditioner however long it iterates
    g2 = build_grid(*KRYLOV_GRIDS[2], "periodic")
    rhs = np.random.default_rng(59).standard_normal(g2.shape)
    op2 = Operator.lubrication(g2, strongly_varying(g2))
    _, rep = solve_operator(10.0, op2, rhs)
    assert rep.converged and rep.iterations > ops._FD_SWITCH
    # nor does a 1D zero patch with sigma h^4 below the stencil's rounding,
    # where the elimination's pivots lose their sign
    c = np.maximum(np.cos(np.pi * g.axes[0]), 0.0)
    sigma = 1e-17 / g.spacings[0] ** 4
    _, rep = solve_operator(sigma, Operator.lubrication(g, c), sigma * u)
    assert rep.iterations > ops._FD_SWITCH
    assert calls == []
    # past touchdown in 1D: one factorization for the whole solve
    sigma, op, rhs, x0 = post_touchdown_system()
    calls.clear()
    solve_operator(sigma, op, rhs, x0=x0)
    assert calls == [1]


@pytest.mark.parametrize("extents,counts,bcs,kind", [
    ((0.0, 2 * np.pi), 64, "periodic", "lubrication")], ids=["periodic"])
def test_krylov_solve_leaves_the_callers_start_alone(extents, counts, bcs,
                                                      kind):
    # the periodic paths iterate in the transform of x0
    g = build_grid(extents, counts, bcs)
    op = getattr(Operator, kind)(g, 1.0 + g.coords()[0] ** 2)
    x0 = np.random.default_rng(60).standard_normal(g.shape)
    kept = x0.copy()
    _, rep = solve_operator(10.0, op, np.ones(g.shape), x0=x0)
    assert rep.iterations > 0 and np.array_equal(x0, kept)


def test_2d_edge_solve_iterates_in_the_callers_start():
    # the 2D edge path takes a float x0 over without a copy and returns it
    # as the solution, the same bits as a solve from a copy of it
    g = build_grid(((0.0, 1.0), (0.0, 1.0)), (9, 9), "dirichlet")
    op = Operator.div_coeff_grad(g, 1.0 + g.coords()[0] ** 2)
    x0 = np.random.default_rng(60).standard_normal(g.shape)
    ref, _ = solve_operator(10.0, op, np.ones(g.shape), x0=x0.copy())
    u, rep = solve_operator(10.0, op, np.ones(g.shape), x0=x0)
    assert rep.iterations > 0 and u is x0 and np.array_equal(u, ref)
    # a start of another dtype is converted, not iterated in
    start = np.zeros(g.shape, dtype=np.float32)
    u32, _ = solve_operator(10.0, op, np.ones(g.shape), x0=start)
    assert u32 is not start and u32.dtype == float and not start.any()


def test_bicgstab_zero_t_is_a_breakdown_not_a_division_by_zero():
    # with the identity the first half step solves exactly, so s and t are
    # 0; a negative tolerance keeps the inner gate from stopping before t
    b = np.arange(1.0, 9.0)
    x, iterations, relres = ops._krylov(ops._pbicgstab, lambda v: v.copy(),
                                        lambda r: r.copy(), b, np.ones(8),
                                        -1.0, 10)
    assert np.array_equal(x, b)
    assert iterations == 1 and relres == 0.0 and not relres <= -1.0


# -- the energy term <L u, u> from a solve's spectrum ---------------------------


def periodic_operator(kind, g):
    if kind == "laplacian":
        return Operator.laplacian(g)
    return getattr(Operator, kind)(g, strongly_varying(g))


@pytest.mark.parametrize("kind", ["laplacian", "div_coeff_grad",
                                  "lubrication"])
@pytest.mark.parametrize("extents,counts", KRYLOV_GRIDS,
                         ids=["32", "33", "12x13"])
def test_quad_from_the_solve_spectrum_is_the_grid_inner(extents, counts,
                                                        kind):
    g = build_grid(extents, counts, "periodic")
    op = periodic_operator(kind, g)
    rng = np.random.default_rng(58)
    u, rep = solve_operator(10.0, op, rng.standard_normal(g.shape), tol=1e-11)
    assert rep.converged
    U = ops._rfft(g, u)
    assert np.abs(rep.spectrum - U).max() <= 1e-13 * np.abs(U).max()
    v = rng.standard_normal(g.shape)
    for field, spectrum in ((u, None), (u, rep.spectrum), (v, None)):
        expect = g.inner(op.apply(field), field)
        assert op.quad(field, spectrum) == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("constant", [False, True],
                         ids=["variable", "constant"])
@pytest.mark.parametrize("extents,counts,bcs", EDGE_GRIDS, ids=EDGE_IDS)
def test_solve_keeps_no_spectrum_off_fully_periodic_grids(extents, counts,
                                                          bcs, constant):
    # tridiagonal (1D variable), edge-form PCG (2D variable) and the
    # DST/DCT pass (constant)
    g = build_grid(extents, counts, bcs)
    c = np.full(g.shape, 2.0) if constant else patchy_coefficient(g, 59)
    rhs = np.random.default_rng(60).standard_normal(g.shape) * g.active
    _, rep = solve_operator(3.0, Operator.div_coeff_grad(g, c), rhs)
    assert rep.converged and rep.spectrum is None


def test_solve_spectrum_stays_out_of_report_repr_and_equality():
    g = build_grid((0.0, 2 * np.pi), 32, "periodic")
    _, rep = solve_operator(1.0, Operator.laplacian(g), np.cos(g.axes[0]))
    assert rep.spectrum is not None
    assert rep == SolverReport(0, 0.0, True)
    assert "spectrum" not in repr(rep)


def test_fourth_order_quad_from_the_solve_spectrum_takes_two_transforms(
        monkeypatch):
    g = build_grid((0.0, 2 * np.pi), 64, "periodic")
    op = Operator.lubrication(g, 1.0 + 0.5 * np.sin(g.axes[0]))
    rhs = np.random.default_rng(61).standard_normal(g.shape)
    u, rep = solve_operator(10.0, op, rhs)
    calls = count_periodic_transforms(monkeypatch)
    op.quad(u, rep.spectrum)
    assert len(calls) == 2


def handback_system(case):
    """A periodic Krylov system: sigma, operator, right side and start."""
    if case == "past-touchdown":
        return post_touchdown_system()
    if case.startswith("2d"):
        g = build_grid(*KRYLOV_GRIDS[2], "periodic")
        kind = "lubrication" if case == "2d-bicgstab" else "div_coeff_grad"
        rng = np.random.default_rng(62)
        return (10.0, getattr(Operator, kind)(g, strongly_varying(g)),
                rng.standard_normal(g.shape), rng.standard_normal(g.shape))
    g = build_grid((-1.0, 1.0), 256, "periodic")
    u = 1.0 + 0.2 * np.cos(np.pi * g.axes[0])
    sigma = 1.5 / 2e-7
    return sigma, Operator.lubrication(g, np.sqrt(u)), sigma * u, u.copy()


@pytest.mark.parametrize("spent", [False, True],
                         ids=["converged", "budget-spent"])
@pytest.mark.parametrize("case", ["before-touchdown", "past-touchdown",
                                  "2d-bicgstab", "2d-cg"])
def test_periodic_krylov_solve_hands_back_the_spectrum_of_L_u(case, spent):
    # the last matvec of a Krylov solve is its true residual's, on the
    # iterate it returns, so the report's applied is L u~ to the bit; past
    # touchdown the finite-difference switch has fired
    sigma, op, rhs, x0 = handback_system(case)
    u, rep = solve_operator(sigma, op, rhs, tol=1e-30 if spent else 1e-10,
                            maxit=3 if spent else 500, x0=x0)
    assert rep.converged != spent and rep.iterations > 0
    if case == "past-touchdown" and not spent:
        assert rep.iterations > ops._FD_SWITCH
    assert same_bits(rep.applied, op.apply_spectrum(rep.spectrum))
    assert op.quad(u, rep.spectrum, rep.applied).hex() == \
        op.quad(u, rep.spectrum).hex()


@pytest.mark.parametrize("start", ["none", "x0", "zero-rhs"])
@pytest.mark.parametrize("spent", [False, True],
                         ids=["converged", "budget-spent"])
@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_2d_edge_form_cg_hands_back_L_u(bc, spent, start):
    # as on periodic grids: the last matvec is the true residual's, on the
    # returned iterate, so the report's applied is op.apply(u~) to the bit
    # and quad applies nothing; a zero right side starts from ones
    g = build_grid(((0.0, 1.0), (0.0, 2.0)), (12, 10), bc)
    op = Operator.div_coeff_grad(g, patchy_coefficient(g, 64))
    rng = np.random.default_rng(65)
    rhs = rng.standard_normal(g.shape) * g.active
    x0 = {"none": None, "x0": rng.standard_normal(g.shape),
          "zero-rhs": np.ones(g.shape)}[start]
    if start == "zero-rhs":
        rhs = np.zeros(g.shape)
    u, rep = solve_operator(3.0, op, rhs, tol=1e-30 if spent else 1e-10,
                            maxit=1 if spent else 500, x0=x0)
    assert rep.converged != spent and rep.iterations > 0
    assert same_bits(rep.applied, op.apply(u))
    assert op.quad(u, None, rep.applied).hex() == op.quad(u).hex()


@pytest.mark.parametrize("kind,bound", [("lubrication", 20.0),
                                        ("div_coeff_grad", 13.9)],
                         ids=["bicgstab", "cg"])
def test_periodic_2d_solve_peak_memory_in_spectra(kind, bound):
    # the traced peak of a 2D periodic Krylov solve, in units of one
    # spectrum: each bound is the peak before the solve kept L u~'s
    # spectrum (19.0 and 12.9) plus that one spectrum
    import tracemalloc
    g = build_grid(((0.0, 2 * np.pi), (0.0, 2 * np.pi)), (32, 32),
                   "periodic")
    X, Y = g.coords()
    op = getattr(Operator, kind)(g, 1.0 + 0.5 * np.sin(X) * np.cos(Y))
    rng = np.random.default_rng(63)
    rhs, x0 = rng.standard_normal(g.shape), rng.standard_normal(g.shape)
    solve_operator(10.0, op, rhs, x0=x0.copy())  # warm-up
    tracemalloc.start()
    try:
        _, rep = solve_operator(10.0, op, rhs, x0=x0.copy())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.converged and rep.iterations > 10
    assert peak / ops._rfft(g, rhs).nbytes <= bound


def test_ledgered_thin_film_step_quad_makes_no_transform(monkeypatch):
    # the energy term reads the BiCGStab solve's spectra of u~ and L u~
    from posikit.diagnostics import EnergyLedger
    from posikit.models import LubricationModel
    from posikit.stepper import History, StepOptions, step
    model = LubricationModel(rho=0.5, n=64)
    opts = StepOptions(k=2, dt=1e-6, variant="mass", eps_lb=1e-4)
    hist = History.start(model.grid, model.initial_state())
    ledger = EnergyLedger(model.grid, opts)
    step(hist, model, opts, ledger)
    calls = count_periodic_transforms(monkeypatch)
    in_quad, real = [], Operator.quad

    def quad(self, *args):
        before = len(calls)
        out = real(self, *args)
        in_quad.append(len(calls) - before)
        return out

    monkeypatch.setattr(Operator, "quad", quad)
    _, diag = step(hist, model, opts, ledger)
    assert in_quad == [0] and len(calls) > 0 and diag.solver_iters > 0
    assert diag.op_quad > 0.0 and diag.ledger_residual <= 1e-8


def test_ledger_allen_cahn_step_takes_two_transforms(monkeypatch):
    # the prediction solve's forward and inverse transform; the energy term
    # reuses the solve's spectrum
    from posikit.diagnostics import EnergyLedger
    from posikit.models import AllenCahnModel
    from posikit.stepper import History, StepOptions, step
    model = AllenCahnModel(eps2=1e-3, n=16)
    opts = StepOptions(k=2, dt=1e-6)
    hist = History.start(model.grid, model.initial_state())
    ledger = EnergyLedger(model.grid, opts)
    step(hist, model, opts, ledger)
    calls = count_periodic_transforms(monkeypatch)
    _, diag = step(hist, model, opts, ledger)
    assert len(calls) == 2
    assert diag.op_quad > 0.0 and diag.ledger_residual <= 1e-8


# -- the transform kernels against the public functions -------------------------
#
# Each transform calls the compiled kernel in which the public numpy.fft or
# scipy.fft function ends, on the arguments that function passes.  These pin
# the bits against drift in those private modules.


def same_bits(a, b):
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def real_inputs(rng, shape):
    """Real fields as the transforms may get them: plain, strided, and in
    the dtypes the public wrappers cast."""
    v = rng.standard_normal(shape)
    wide = rng.standard_normal(tuple(2 * n for n in shape))
    return {"plain": v, "strided": wide[(slice(None, None, 2),) * len(shape)],
            "int": (10.0 * v).astype(int), "float32": v.astype(np.float32),
            "float16": v.astype(np.float16), "swapped": v.astype(">f8")}


@pytest.mark.parametrize("counts", [64, 33, (32, 32), (12, 13), (15, 16)],
                         ids=["64", "33", "32x32", "12x13", "15x16"])
def test_real_fft_kernels_match_the_public_functions(counts):
    axis = (0.0, 2 * np.pi)
    g = build_grid(axis if np.isscalar(counts) else (axis, axis), counts,
                   "periodic")
    if g.dim == 1:
        forward, inverse = np.fft.rfft, lambda V: np.fft.irfft(V, g.counts[0])
    else:
        forward, inverse = scipy.fft.rfft2, lambda V: scipy.fft.irfft2(
            V, g.counts)
    rng = np.random.default_rng(71)
    for name, v in real_inputs(rng, g.shape).items():
        assert same_bits(ops._rfft(g, v), forward(v)), name
    V = forward(rng.standard_normal(g.shape))
    # the Krylov paths hand over the complex view of a float iterate
    R = rng.standard_normal(V.shape[:-1] + (2 * V.shape[-1],))
    wide = forward(rng.standard_normal(tuple(2 * n for n in g.shape)))
    strided = wide[(slice(None, None, 2),) * g.dim][..., :V.shape[-1]]
    spectra = {"plain": V, "float-view": R.view(complex), "strided": strided,
               "complex64": V.astype(np.complex64), "real": V.real}
    for name, S in spectra.items():
        assert same_bits(ops._irfft(g, S), inverse(S)), name


@pytest.mark.parametrize("bcs", [("dirichlet", "neumann"),
                                 ("neumann", "dirichlet")],
                         ids=["dirichlet-x-neumann", "neumann-x-dirichlet"])
def test_r2r_kernels_match_the_public_functions(bcs):
    g = build_grid(((0.0, 1.0), (0.0, 2.0)), (12, 15), bcs)
    public = {"dirichlet": (scipy.fft.dst, scipy.fft.idst),
              "neumann": (scipy.fft.dct, scipy.fft.idct)}
    rng = np.random.default_rng(72)
    for name, v in real_inputs(rng, g.shape).items():
        for ax, bc in enumerate(bcs):
            forward, inverse = public[bc]
            assert same_bits(ops._r2r(g, v, (ax,), 0),
                             forward(v, type=1, axis=ax)), (name, ax)
            assert same_bits(ops._r2r(g, v, (ax,), 2),
                             inverse(v, type=1, axis=ax)), (name, ax)
        both = public[bcs[1]][0](public[bcs[0]][0](v, type=1, axis=0),
                                 type=1, axis=1)
        assert same_bits(ops._forward(g, v), both), name
        back = public[bcs[0]][1](public[bcs[1]][1](v, type=1, axis=1),
                                 type=1, axis=0)
        assert same_bits(ops._backward(g, v), back), name


def test_real_transforms_refuse_complex_input():
    g = build_grid((0.0, 1.0), 16, "dirichlet")
    with pytest.raises(TypeError, match="complex"):
        ops._forward(g, np.ones(g.shape, complex))


def refuse_public_transforms(monkeypatch):
    """Patch every public transform of numpy.fft and scipy.fft (all but the
    frequency helpers) to raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("a public transform was called")

    for owner in (np.fft, scipy.fft):
        for name in owner.__all__:
            if not name.endswith("freq"):
                monkeypatch.setattr(owner, name, refuse)


def test_steps_and_solves_call_no_public_transform(monkeypatch):
    from posikit.models import AllenCahnModel, PnpModel, run_pnp
    from posikit.stepper import History, StepOptions, step
    model = AllenCahnModel(eps2=1e-3, n=16)
    hist = History.start(model.grid, model.initial_state())
    system = post_touchdown_system()
    refuse_public_transforms(monkeypatch)
    with pytest.raises(AssertionError, match="public transform"):
        np.fft.rfft(np.ones(8))
    for _ in range(2):
        step(hist, model, StepOptions(k=2, dt=1e-6))
    _, rep = solve_operator(system[0], system[1], system[2], x0=system[3])
    assert rep.converged and rep.iterations > ops._FD_SWITCH
    run_p, run_n, _ = run_pnp(PnpModel(n=8), StepOptions(k=2, dt=1e-3,
                                                         variant="mass"), 2)
    assert len(run_p.diagnostics) == len(run_n.diagnostics) == 2
