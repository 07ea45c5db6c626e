"""Discrete spatial operators and the linear solvers behind the prediction step.

Three operator kinds, all in the sign convention of ``u_t + L u = 0`` (every
kind is the *positive* direction: for the heat part ``L = -laplacian``):

* ``laplacian``                 -- L u = -Delta u.  Periodic axes use exact
  Fourier differentiation, Dirichlet/Neumann axes the second-difference
  stencil of the lumped linear-element form (zero ghost / mirrored ghost).
* ``div-coeff-grad``            -- L u = -div(c grad u) with nodal c >= 0.
  On fully periodic grids it is assembled pseudo-spectrally from the
  antisymmetric Fourier derivative (Nyquist mode dropped), exactly
  symmetric positive semidefinite in the grid inner product and equal to
  the spectral Laplacian mode by mode at c == 1.  On grids with a
  Dirichlet/Neumann axis it is the edge form with edge coefficients
  ``0.5 * (c_i + c_{i+1})``, which an :class:`Operator` builds once
  (``Operator.edge_coeffs``).
* ``div-coeff-grad-laplacian``  -- L u = +div(c grad (Delta u)), the
  fourth-order thin-film operator; periodic grids only, applied in fused
  form (Delta u stays in transform space: 4 real transforms in 1D, 6 in 2D).

Periodic axes use real FFTs, Dirichlet/Neumann axes DST-I/DCT-I; the
unit-coefficient symbol of each kind is cached per grid, so a
constant-coefficient shifted system is the diagonal ``sigma + c * symbol``
in transform space.  All kinds annihilate constants in the adjoint sense:
``[L v, 1] = 0`` on periodic/Neumann grids, and the telescoped edge flux
against the all-ones extension vanishes on Dirichlet grids.

Every shifted system ``(sigma I + L) u = b`` goes through
:func:`solve_operator`:

* constant coefficients -- one exact transform pass;
* the edge form -- conjugate gradients preconditioned by the exact diagonal
  of ``sigma I + L``, with no transform at all;
* the periodic second-order kind -- conjugate gradients, and the
  fourth-order kind -- BiCGStab, both iterating on the real-FFT spectrum
  with Parseval-weighted inner products and the mean-coefficient transform
  solve as preconditioner (a division): only the operator applies
  transform (4 real transforms per BiCGStab iteration in 1D, 2 per CG one).

Operators are immutable; ``Operator.apply`` and ``solve_operator`` are pure
functions of their inputs and may run concurrently on distinct fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.fft as sfft

from .grid import DIRICHLET, NEUMANN, PERIODIC, Grid

LAPLACIAN = "laplacian"
DIV_COEFF_GRAD = "div-coeff-grad"
DIV_COEFF_GRAD_LAPLACIAN = "div-coeff-grad-laplacian"

DEFAULT_TOL = 1e-10
DEFAULT_MAXIT = 500


class SolverError(RuntimeError):
    """Linear solve failed to converge; carries the :class:`SolverReport`."""

    def __init__(self, message, report=None, iterate=None):
        super().__init__(message)
        self.report = report
        self.iterate = iterate


@dataclass(frozen=True)
class SolverReport:
    iterations: int
    residual: float
    converged: bool


def _sl(u: np.ndarray, ax: int, s: slice) -> np.ndarray:
    idx = [slice(None)] * u.ndim
    idx[ax] = s
    return u[tuple(idx)]


# -- transform layout and symbols ---------------------------------------------
#
# Periodic axes use real FFTs: the last periodic axis of a grid holds only the
# n//2 + 1 nonnegative frequencies, and every multiplier below is cached once
# per grid on that layout, shaped to broadcast along its axis.  Bounded axes
# use DST-I (Dirichlet, interior nodes) or DCT-I (Neumann, all nodes).


def _along(a: np.ndarray, ax: int, ndim: int) -> np.ndarray:
    shape = [1] * ndim
    shape[ax] = a.size
    out = a.reshape(shape)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _wavenumbers(g: Grid, ax: int) -> np.ndarray:
    """Angular wavenumbers of periodic axis ``ax`` on the real-FFT layout."""
    n, h = g.counts[ax], g.spacings[ax]
    halved = all(bc != PERIODIC for bc in g.bcs[ax + 1:])
    freq = np.fft.rfftfreq(n, d=h) if halved else np.fft.fftfreq(n, d=h)
    return _along(2.0 * np.pi * freq, ax, g.dim)


@lru_cache(maxsize=None)
def _ik(g: Grid, ax: int) -> np.ndarray:
    """Multiplier of the antisymmetric Fourier derivative (Nyquist dropped)."""
    ik = 1j * _wavenumbers(g, ax)
    n = g.counts[ax]
    if n % 2 == 0:
        ik.reshape(-1)[n // 2] = 0.0  # index n//2 is Nyquist in both layouts
    ik.setflags(write=False)
    return ik


@lru_cache(maxsize=None)
def _axis_symbol_laplacian(g: Grid, ax: int) -> np.ndarray:
    """Eigenvalues of the per-axis -d2/dx2 in the solve basis."""
    n, h, bc = g.counts[ax], g.spacings[ax], g.bcs[ax]
    if bc == PERIODIC:
        k2 = _wavenumbers(g, ax) ** 2
        k2.setflags(write=False)
        return k2
    j = np.arange(1, n) if bc == DIRICHLET else np.arange(0, n + 1)
    return _along((2.0 - 2.0 * np.cos(np.pi * j / n)) / h**2, ax, g.dim)


def _axis_symbol_div(g: Grid, ax: int) -> np.ndarray:
    """Per-axis symbol of the c == 1 divergence form in the solve basis."""
    if g.fully_periodic:
        return _ik(g, ax).imag ** 2
    if g.bcs[ax] == PERIODIC:
        # mixed grid: the edge stencil wraps around, FD symbol in FFT basis
        n, h = g.counts[ax], g.spacings[ax]
        j = np.arange(n // 2 + 1)
        return _along((2.0 - 2.0 * np.cos(2.0 * np.pi * j / n)) / h**2,
                      ax, g.dim)
    return _axis_symbol_laplacian(g, ax)


@lru_cache(maxsize=None)
def _symbol(g: Grid, kind: str) -> np.ndarray:
    """Transform-space symbol of the unit-coefficient operator of ``kind``."""
    lap = sum(_axis_symbol_laplacian(g, ax) for ax in range(g.dim))
    if kind == LAPLACIAN:
        out = lap
    else:
        out = sum(_axis_symbol_div(g, ax) for ax in range(g.dim))
        if kind == DIV_COEFF_GRAD_LAPLACIAN:
            out = out * lap
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _laplacian_multiplier(g: Grid) -> np.ndarray:
    """Fourier multiplier of Delta on a fully periodic grid."""
    out = -_symbol(g, LAPLACIAN)
    out.setflags(write=False)
    return out


def _denom(g: Grid, sigma: float, cbar: float, kind: str) -> np.ndarray:
    """Diagonal of sigma I + cbar L_kind in the solve basis."""
    return sigma + cbar * _symbol(g, kind)


def _interior_slices(g: Grid):
    return tuple(slice(1, -1) if bc == DIRICHLET else slice(None)
                 for bc in g.bcs)


def _rfft(g: Grid, v: np.ndarray) -> np.ndarray:
    """Real FFT over every axis of a fully periodic grid."""
    if g.dim == 1:
        return np.fft.rfft(v)
    return sfft.rfft2(v)


def _irfft(g: Grid, v: np.ndarray) -> np.ndarray:
    if g.dim == 1:
        return np.fft.irfft(v, g.counts[0])
    return sfft.irfft2(v, g.counts)


@lru_cache(maxsize=None)
def _parseval_weights(g: Grid) -> np.ndarray:
    """Weights on the float view of real-FFT spectra of a fully periodic
    grid: ``sum(w * A * B) == g.inner(a, b)`` for the spectra A, B of a, b.

    A column of the halved last axis stands for itself and its mirror image,
    so it counts twice, except the DC column and (n even) the Nyquist
    column; the re/im pair of a coefficient shares its weight.
    """
    # item stores, not np.where(mask, 1.0, 2.0): that call maps about
    # 0.1 MiB more of numpy's code into a thin-film run's resident memory
    n = g.counts[-1]
    m = np.full(n // 2 + 1, 2.0)
    m[0] = 1.0
    if n % 2 == 0:
        m[-1] = 1.0
    w = np.repeat(m * (np.prod(g.spacings) / np.prod(g.counts)), 2)
    w.setflags(write=False)
    return w


def _forward(g: Grid, v: np.ndarray) -> np.ndarray:
    if g.fully_periodic:
        return _rfft(g, v)
    for ax, bc in enumerate(g.bcs):
        if bc == DIRICHLET:
            v = sfft.dst(v, type=1, axis=ax)
        elif bc == NEUMANN:
            v = sfft.dct(v, type=1, axis=ax)
    if PERIODIC in g.bcs:  # mixed grid: the periodic axis goes last
        v = np.fft.rfft(v, axis=g.bcs.index(PERIODIC))
    return v


def _backward(g: Grid, v: np.ndarray) -> np.ndarray:
    if g.fully_periodic:
        return _irfft(g, v)
    if PERIODIC in g.bcs:
        ax = g.bcs.index(PERIODIC)
        v = np.fft.irfft(v, g.counts[ax], axis=ax)
    for ax in reversed(range(g.dim)):  # the inverse of _forward's order
        bc = g.bcs[ax]
        if bc == DIRICHLET:
            v = sfft.idst(v, type=1, axis=ax)
        elif bc == NEUMANN:
            v = sfft.idct(v, type=1, axis=ax)
    return v


def _diag_solve(g: Grid, rhs: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """Solve a constant-coefficient system diagonalized by the grid transforms."""
    if g.all_active:
        return _backward(g, _forward(g, rhs) / denom)
    sl = _interior_slices(g)
    out = np.zeros(g.shape)
    out[sl] = _backward(g, _forward(g, rhs[sl]) / denom)
    return out


# -- apply: Laplacian ---------------------------------------------------------


def _axis_laplacian(u: np.ndarray, g: Grid, ax: int) -> np.ndarray:
    n, h, bc = g.counts[ax], g.spacings[ax], g.bcs[ax]
    if bc == PERIODIC:
        # mixed grid only; fully periodic grids transform all axes at once
        return np.fft.irfft(-_axis_symbol_laplacian(g, ax)
                            * np.fft.rfft(u, axis=ax), n, axis=ax)
    out = np.zeros_like(u, dtype=float)
    mid = (_sl(u, ax, slice(0, -2)) - 2.0 * _sl(u, ax, slice(1, -1))
           + _sl(u, ax, slice(2, None))) / h**2
    idx = [slice(None)] * u.ndim
    idx[ax] = slice(1, -1)
    out[tuple(idx)] = mid
    if bc == NEUMANN:
        # mirrored ghosts at both ends
        lo, hi = [slice(None)] * u.ndim, [slice(None)] * u.ndim
        lo[ax], hi[ax] = 0, 1
        out[tuple(lo)] = 2.0 * (u[tuple(hi)] - u[tuple(lo)]) / h**2
        lo[ax], hi[ax] = -1, -2
        out[tuple(lo)] = 2.0 * (u[tuple(hi)] - u[tuple(lo)]) / h**2
    return out


def apply_laplacian(u: np.ndarray, g: Grid) -> np.ndarray:
    """Discrete Laplacian of ``u`` (the actual Laplacian, not its negative)."""
    u = g.check_field(u)
    if g.fully_periodic:
        return _irfft(g, _laplacian_multiplier(g) * _rfft(g, u))
    out = _axis_laplacian(u, g, 0)
    for ax in range(1, g.dim):
        out += _axis_laplacian(u, g, ax)
    return out


# -- apply: divergence form ---------------------------------------------------


def _div_grad_spectrum(c: np.ndarray, U: np.ndarray, g: Grid) -> np.ndarray:
    """Transform of div(c grad v) for the periodic field v whose real
    transform is U.

    Each axis forms D v spectrally, multiplies by c in physical space and
    applies D again; the per-axis spectra are summed (2 * dim real
    transforms).  Callers add their own terms before the one inverse
    transform.
    """
    acc = None
    for ax in range(g.dim):
        ik = _ik(g, ax)
        term = ik * _rfft(g, c * _irfft(g, ik * U))
        acc = term if acc is None else acc + term
    return acc


def _fourth_order_spectrum(c: np.ndarray, U: np.ndarray, g: Grid) -> np.ndarray:
    """Transform of +div(c grad (Delta v)) for the periodic v with transform
    U; Delta v stays in transform space."""
    return _div_grad_spectrum(c, _laplacian_multiplier(g) * U, g)


def _edge_coeffs(c: np.ndarray, g: Grid) -> tuple:
    """Edge coefficients 0.5 * (c_i + c_{i+1}) of the edge form, per axis.

    Along a periodic axis of a mixed grid the last edge wraps to node 0;
    along a Dirichlet/Neumann axis there are n edges between n + 1 nodes.
    """
    out = []
    for ax, bc in enumerate(g.bcs):
        if bc == PERIODIC:
            out.append(0.5 * (c + np.roll(c, -1, axis=ax)))
        else:
            out.append(0.5 * (_sl(c, ax, slice(1, None))
                              + _sl(c, ax, slice(0, -1))))
    return tuple(out)


@lru_cache(maxsize=None)
def _edge_scale(g: Grid, ax: int) -> np.ndarray:
    """h times the node weight along ``ax``, shaped to broadcast; the
    transverse weights cancel.  Excluded Dirichlet ends carry weight 1 (the
    caller masks their rows), Neumann ends h/2."""
    n, h, bc = g.counts[ax], g.spacings[ax], g.bcs[ax]
    w = np.full(n if bc == PERIODIC else n + 1, h)
    if bc == DIRICHLET:
        w[0] = w[-1] = 1.0
    elif bc == NEUMANN:
        w[0] = w[-1] = 0.5 * h
    return _along(h * w, ax, g.dim)


def _edge_apply(ce: tuple, u: np.ndarray, g: Grid) -> np.ndarray:
    """+<-div(c grad u)> in edge form, from the edge coefficients ``ce``."""
    out = None
    for ax, bc in enumerate(g.bcs):
        if bc == PERIODIC:
            flux = ce[ax] * (np.roll(u, -1, axis=ax) - u)  # edge (i, i+1 mod n)
            net = np.roll(flux, 1, axis=ax) - flux
        else:
            # edges 0..n-1, scaled in place: one temporary fewer
            flux = _sl(u, ax, slice(1, None)) - _sl(u, ax, slice(0, -1))
            flux *= ce[ax]
            net = np.zeros_like(u, dtype=float)
            lo = _sl(net, ax, slice(0, -1))
            lo -= flux
            hi = _sl(net, ax, slice(1, None))
            hi += flux
        net /= _edge_scale(g, ax)
        if out is None:
            out = net
        else:
            out += net
    if not g.all_active:
        out *= g.active
    return out


def _edge_diagonal(ce: tuple, g: Grid) -> np.ndarray:
    """Diagonal of :func:`_edge_apply`: per node, the sum of the edge
    coefficients on its two sides, scaled as the apply scales them (rows of
    inactive nodes are left for the caller to mask)."""
    out = None
    for ax, bc in enumerate(g.bcs):
        if bc == PERIODIC:
            # edges (i-1, i) and (i, i+1), wrapping around
            net = ce[ax] + np.roll(ce[ax], 1, axis=ax)
        else:
            net = np.zeros(g.shape)
            lo = _sl(net, ax, slice(0, -1))
            lo += ce[ax]
            hi = _sl(net, ax, slice(1, None))
            hi += ce[ax]
        net /= _edge_scale(g, ax)
        if out is None:
            out = net
        else:
            out += net
    return out


def _div_form(c: np.ndarray, u: np.ndarray, g: Grid) -> np.ndarray:
    """Unvalidated divergence form, +<-div(c grad u)>; sign-indefinite c allowed."""
    if g.fully_periodic:
        return -_irfft(g, _div_grad_spectrum(c, _rfft(g, u), g))
    return _edge_apply(_edge_coeffs(c, g), u, g)


def transport_div_form(c: np.ndarray, u: np.ndarray, g: Grid) -> np.ndarray:
    """Divergence form +<-div(c grad u)> without the sign gate on c.

    Intended for explicit transport terms (e.g. drift fluxes), whose
    coefficient is a solution extrapolation and may dip negative; the
    conservation and symmetry structure of the assembly is unchanged.
    """
    return _div_form(g.check_field(c), g.check_field(u), g)


# -- operator handles ---------------------------------------------------------


def _nonnegative(g: Grid, c: np.ndarray, what: str) -> np.ndarray:
    c = g.check_field(np.asarray(c, dtype=float))
    if np.any(c < 0):
        raise ValueError(f"{what} coefficient must be nonnegative")
    return c


@dataclass(frozen=True, eq=False)
class Operator:
    """Immutable handle for L in ``u_t + L u = 0``."""

    grid: Grid
    kind: str
    coeff: np.ndarray | None = None

    @classmethod
    def laplacian(cls, g: Grid) -> "Operator":
        return cls(grid=g, kind=LAPLACIAN)

    @classmethod
    def div_coeff_grad(cls, g: Grid, c: np.ndarray) -> "Operator":
        return cls(grid=g, kind=DIV_COEFF_GRAD,
                   coeff=_nonnegative(g, c, "div-coeff-grad"))

    @classmethod
    def lubrication(cls, g: Grid, c: np.ndarray) -> "Operator":
        if not g.fully_periodic:
            raise ValueError("the fourth-order operator requires a periodic grid")
        return cls(grid=g, kind=DIV_COEFF_GRAD_LAPLACIAN,
                   coeff=_nonnegative(g, c, "fourth-order"))

    @cached_property
    def edge_coeffs(self) -> tuple:
        """Edge coefficients of the div-coeff-grad kind on a grid with a
        Dirichlet/Neumann axis, built on first use and kept for the life of
        the operator."""
        return _edge_coeffs(self.coeff, self.grid)

    def apply(self, u: np.ndarray) -> np.ndarray:
        g = self.grid
        if self.kind == LAPLACIAN:
            out = -apply_laplacian(u, g)
            if not g.all_active:
                out *= g.active
            return out
        u = g.check_field(u)
        if self.kind == DIV_COEFF_GRAD:
            if g.fully_periodic:
                return _div_form(self.coeff, u, g)
            return _edge_apply(self.edge_coeffs, u, g)
        return _irfft(g, _fourth_order_spectrum(self.coeff, _rfft(g, u), g))

    def quad(self, u: np.ndarray) -> float:
        """The bilinear form <L u, u> in the grid inner product."""
        return self.grid.inner(self.apply(u), u)


# -- Krylov kernels -----------------------------------------------------------


def _wdot(w: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    # the same sum as np.sum(w * a * b), without a temporary and the np.sum
    # wrapper; not a BLAS dot, which goes multithreaded on 2D grids
    p = w * a
    p *= b
    return float(p.sum())


def _krylov(cycle, matvec, precond, b, w, tol, maxit, x0=None):
    """Restarted Krylov solve in the weighted inner product.

    Convergence is judged on the true residual.  From each true residual
    ``cycle`` (:func:`_pcg` or :func:`_pbicgstab`) runs one recursion,
    updating ``x`` in place until its recursive residual meets half the
    tolerance, it breaks down or the iteration budget is spent, and returns
    the iterations it took.
    """
    bnorm = np.sqrt(_wdot(w, b, b))
    if bnorm == 0.0:
        return np.zeros_like(b), SolverReport(0, 0.0, True)
    x = np.zeros_like(b) if x0 is None else x0.astype(float)
    gate = 0.5 * tol * bnorm
    total = 0
    while total < maxit:
        r = b - matvec(x)
        relres = np.sqrt(_wdot(w, r, r)) / bnorm
        if relres <= tol:
            return x, SolverReport(total, relres, True)
        used = cycle(matvec, precond, x, r, w, gate, maxit - total)
        if used == 0:
            break  # immediate breakdown, no progress possible
        total += used
    res = b - matvec(x)
    relres = np.sqrt(_wdot(w, res, res)) / bnorm
    return x, SolverReport(total, relres, bool(relres <= tol))


def _pcg(matvec, precond, x, r, w, gate, budget):
    """One preconditioned conjugate-gradient recursion from residual r."""
    z = precond(r)
    p = z.copy()
    rz = _wdot(w, r, z)
    used = 0
    while used < budget:
        used += 1
        Ap = matvec(p)
        alpha = rz / _wdot(w, p, Ap)
        x += alpha * p
        r -= alpha * Ap
        if np.sqrt(_wdot(w, r, r)) <= gate:
            break
        z = precond(r)
        rz_new = _wdot(w, r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return used


def _pbicgstab(matvec, precond, x, r, w, gate, budget):
    """One preconditioned BiCGStab recursion from residual r; a zero
    ``rho``, ``omega`` or ``[t, t]`` is a breakdown and ends it."""
    rhat = r.copy()
    rho = alpha = omega = 1.0
    v = np.zeros_like(r)
    p = np.zeros_like(r)
    used = 0
    while used < budget:
        rho_new = _wdot(w, rhat, r)
        if rho_new == 0.0 or omega == 0.0:
            break
        used += 1
        beta = (rho_new / rho) * (alpha / omega)
        rho = rho_new
        p = r + beta * (p - omega * v)
        phat = precond(p)
        v = matvec(phat)
        alpha = rho / _wdot(w, rhat, v)
        s = r - alpha * v
        if np.sqrt(_wdot(w, s, s)) <= gate:
            x += alpha * phat
            break
        shat = precond(s)
        t = matvec(shat)
        tt = _wdot(w, t, t)
        if tt == 0.0:
            # t = 0 only if s = 0: the half step solved the system
            x += alpha * phat
            break
        omega = _wdot(w, t, s) / tt
        x += alpha * phat + omega * shat
        r = s - omega * t
        if np.sqrt(_wdot(w, r, r)) <= gate:
            break
    return used


# -- shifted solves -----------------------------------------------------------


def solve_operator(sigma: float, op: Operator, rhs: np.ndarray,
                   tol: float = DEFAULT_TOL, maxit: int = DEFAULT_MAXIT,
                   x0: np.ndarray | None = None):
    """Solve the shifted system (sigma I + L) u = rhs for any operator kind.

    Constant coefficients (none, or equal on every node) solve
    exactly in one transform pass (iterations = 0, residual reported as 0).
    Variable coefficients iterate, with the residual judged in the grid
    inner product:

    * the edge form (a Dirichlet or Neumann axis) -- conjugate gradients
      preconditioned by the exact diagonal of ``sigma I + L``, built once
      per solve from ``Operator.edge_coeffs``; no transforms;
    * the pseudo-spectral second-order kind (fully periodic) -- conjugate
      gradients, and the fourth-order kind -- BiCGStab, both on the float
      view of the real-FFT spectrum: ``rhs`` and ``x0`` are transformed
      once and the iterate back once, inner products carry the Parseval
      weights, and the preconditioner (the operator at the mean
      coefficient) is a division.

    Iterative solves leave inactive (Dirichlet end) nodes at ``x0`` (0
    without it); the transform pass sets them to 0.
    """
    if sigma <= 0:
        raise ValueError("shift sigma must be positive")
    if not tol > 0:
        raise ValueError("solver tolerance must be positive")
    g = op.grid
    rhs = g.check_field(rhs)
    c = op.coeff
    # every node counts: the edge form's end edges read the coefficient at
    # inactive Dirichlet nodes
    if c is None or c.max() == c.min():
        cval = 1.0 if c is None else float(c.flat[0])
        denom = _denom(g, sigma, cval, op.kind)
        return _diag_solve(g, rhs, denom), SolverReport(0, 0.0, True)
    if g.fully_periodic:
        if op.kind == DIV_COEFF_GRAD_LAPLACIAN:
            spectrum, coeff, cycle = _fourth_order_spectrum, c, _pbicgstab
        else:  # L v = div(-c grad v)
            spectrum, coeff, cycle = _div_grad_spectrum, -c, _pcg
        denom = np.repeat(_denom(g, sigma, float(np.mean(c)), op.kind), 2,
                          axis=-1)

        def matvec(V):
            Z = V.view(complex)
            S = spectrum(coeff, Z, g)
            S += sigma * Z
            return S.view(float)

        X0 = None if x0 is None else _rfft(g, g.check_field(x0)).view(float)
        X, report = _krylov(cycle, matvec, lambda R: R / denom,
                            _rfft(g, rhs).view(float), _parseval_weights(g),
                            tol, maxit, x0=X0)
        return _irfft(g, X.view(complex)), report

    def matvec(v):
        # apply first: a sigma * v made before it would stay live through
        # the apply and raise the solve's peak memory
        out = op.apply(v)
        out += sigma * v
        return out

    # the edge form is an M-matrix whose exact diagonal preconditions about
    # as well as the mean-coefficient transform solve, at a fraction of its
    # cost; zero on inactive rows, so the iterate keeps x0 there
    inv = 1.0 / (sigma + _edge_diagonal(op.edge_coeffs, g))
    if not g.all_active:
        inv *= g.active
    return _krylov(_pcg, matvec, lambda r: r * inv, rhs, g.weights, tol,
                   maxit, x0=x0)


def solve_conservative_poisson(g: Grid, rhs: np.ndarray, scale: float) -> np.ndarray:
    """Solve scale * (-Delta) phi = rhs with the zero-weighted-mean gauge.

    Requires a grid without essential boundaries (all periodic/Neumann axes),
    where the operator annihilates constants; the zero mode of the right side
    is projected out, so the caller should check compatibility beforehand.
    """
    if any(bc == DIRICHLET for bc in g.bcs):
        raise ValueError("conservative Poisson solve needs periodic/Neumann axes")
    if scale <= 0:
        raise ValueError("scale must be positive")
    denom = _denom(g, 0.0, scale, LAPLACIAN)
    zero = (0,) * g.dim
    denom[zero] = 1.0
    v = _forward(g, rhs) / denom
    v[zero] = 0.0
    return _backward(g, v)
