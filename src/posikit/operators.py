"""Discrete spatial operators and the linear solvers behind the prediction step.

Three operator kinds, all in the sign convention of ``u_t + L u = 0`` (every
kind is the *positive* direction: for the heat part ``L = -laplacian``):

* ``laplacian``                 -- L u = -Delta u: exact Fourier
  differentiation on periodic grids, the edge form at c == 1 on bounded ones.
* ``div-coeff-grad``            -- L u = -div(c grad u) with nodal c >= 0.
  Periodic grids assemble it pseudo-spectrally from the antisymmetric
  Fourier derivative (Nyquist mode dropped): symmetric positive
  semidefinite in the grid inner product, and the spectral Laplacian mode
  by mode at c == 1.  Bounded grids use the edge form, built once per
  operator (``Operator.edge_coeffs``, :func:`_edge_apply`).
* ``div-coeff-grad-laplacian``  -- L u = +div(c grad (Delta u)), the
  fourth-order thin-film operator; periodic grids only, applied in fused
  form (Delta u stays in transform space: 4 real transforms in 1D, 6 in 2D).

Periodic grids transform with real FFTs, Dirichlet/Neumann axes with
DST-I/DCT-I, each by one call of the compiled kernel its public function
ends in, for the public bits (:func:`_pocketfft`; README, numerical notes).
A constant-coefficient shifted system is the diagonal ``sigma + c * symbol``
in transform space.  All kinds annihilate constants in the adjoint sense:
``[L v, 1] = 0`` on periodic/Neumann grids, and the telescoped edge flux
against the all-ones extension vanishes on Dirichlet grids.  Every shifted
system ``(sigma I + L) u = b`` goes through :func:`solve_operator`.

Operators are immutable but for their cached coefficient range and edge
coefficients and one held diagonal; ``Operator.apply`` and
``solve_operator`` are pure and may run concurrently on distinct fields.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, wraps

import numpy as np

from .grid import DIRICHLET, NEUMANN, PERIODIC, Grid, _wdot

# Freeing one untouched 2 MiB block raises glibc's mmap threshold, so
# field-sized temporaries come from the heap, not a fresh mmap each
# (README, numerical notes)
np.empty(1 << 18)

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
    """A solve's iterations, relative true residual and convergence, and,
    out of ``repr`` and equality, what ``Operator.quad`` reuses: the
    result's real-FFT ``spectrum`` on fully periodic grids, and L times the
    result in the basis of the result (``applied``), from the last true
    residual of every variable-coefficient solve."""

    iterations: int
    residual: float
    converged: bool
    spectrum: np.ndarray | None = field(default=None, repr=False, compare=False)
    applied: np.ndarray | None = field(default=None, repr=False, compare=False)


# -- transform layout and symbols ---------------------------------------------
#
# Periodic grids use real FFTs: the last axis holds only the n//2 + 1
# nonnegative frequencies, and every multiplier below is kept once per grid
# (:func:`_per_grid`) on that layout, shaped to broadcast along its axis.
# Bounded axes use DST-I (Dirichlet, interior nodes) or DCT-I (Neumann).


def _per_grid(fn):
    """Keep ``fn(g, *args)`` read-only in ``g.memo``, freed with the grid."""
    @wraps(fn)
    def memo(g: Grid, *args):
        out = g.memo.get((fn, args))
        if out is None:
            out = fn(g, *args)
            out.setflags(write=False)
            g.memo[fn, args] = out
        return out
    return memo


def _along(a: np.ndarray, ax: int, ndim: int) -> np.ndarray:
    shape = [1] * ndim
    shape[ax] = a.size
    return a.reshape(shape)


@_per_grid
def _wavenumbers(g: Grid, ax: int) -> np.ndarray:
    """Angular wavenumbers of axis ``ax`` of a periodic grid on the real-FFT
    layout."""
    n, h = g.counts[ax], g.spacings[ax]
    halved = ax == g.dim - 1
    freq = np.fft.rfftfreq(n, d=h) if halved else np.fft.fftfreq(n, d=h)
    return _along(2.0 * np.pi * freq, ax, g.dim)


@_per_grid
def _ik(g: Grid, ax: int) -> np.ndarray:
    """Multiplier of the antisymmetric Fourier derivative (Nyquist dropped)."""
    ik = 1j * _wavenumbers(g, ax)
    n = g.counts[ax]
    if n % 2 == 0:
        ik.reshape(-1)[n // 2] = 0.0  # index n//2 is Nyquist in both layouts
    return ik


def _axis_symbol_laplacian(g: Grid, ax: int) -> np.ndarray:
    """Eigenvalues of the per-axis -d2/dx2 in the solve basis."""
    n, h, bc = g.counts[ax], g.spacings[ax], g.bcs[ax]
    if bc == PERIODIC:
        return _wavenumbers(g, ax) ** 2
    j = np.arange(1, n) if bc == DIRICHLET else np.arange(0, n + 1)
    return _along((2.0 - 2.0 * np.cos(np.pi * j / n)) / h**2, ax, g.dim)


@_per_grid
def _symbol(g: Grid, kind: str) -> np.ndarray:
    """Transform-space symbol of the unit-coefficient operator of ``kind``."""
    lap = sum(_axis_symbol_laplacian(g, ax) for ax in range(g.dim))
    if kind == LAPLACIAN:
        out = lap
    else:
        # the c == 1 divergence form, periodic: the antisymmetric derivative
        out = sum(_ik(g, ax).imag ** 2 if g.fully_periodic
                  else _axis_symbol_laplacian(g, ax) for ax in range(g.dim))
        if kind == DIV_COEFF_GRAD_LAPLACIAN:
            out = out * lap
    return out


def _denom(g: Grid, sigma: float, cbar: float, kind: str) -> np.ndarray:
    """Diagonal of sigma I + cbar L_kind in the solve basis."""
    return sigma + cbar * _symbol(g, kind)


@lru_cache(maxsize=None)
def _pocketfft():
    """scipy's compiled pocketfft, in which ``scipy.fft``'s rfft2, irfft2,
    dst and dct end, loaded from its file with neither the ``scipy`` nor
    the ``scipy.fft`` package imported (``find_spec`` of a top-level package
    imports nothing).  It is kept in ``sys.modules`` under the name scipy
    imports it by, and taken from there if scipy got it first, so a process
    holds one kernel module whichever comes first."""
    name = "scipy.fft._pocketfft.pypocketfft"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    dirs = [os.path.join(d, "fft", "_pocketfft")
            for d in (scipy.submodule_search_locations if scipy else ())]
    for path in (os.path.join(d, "pypocketfft" + suffix) for d in dirs
                 for suffix in importlib.machinery.EXTENSION_SUFFIXES):
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location(name, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            # a thread that loaded or imported it meanwhile registered first
            return sys.modules.setdefault(name, module)
    raise ImportError("no pypocketfft extension in "
                      + (", ".join(dirs) or "scipy, which is not installed"),
                      name=name)


def _cast(v: np.ndarray, real: bool) -> np.ndarray:
    """``v`` as the public wrappers cast what is not float64 (``real``) or
    complex128: integers and bools to float64, float16 to float32, other
    floats to native byte order, and real input to a complex kernel + 0j."""
    t = v.dtype
    if t == (float if real else complex):
        return v
    if real and t.kind == "c":
        raise TypeError("a real transform takes no complex input")
    t = (np.float32 if t == np.float16 else t.newbyteorder("=")) \
        if t.kind in "fc" else float
    v = np.asarray(v, t)
    return v if v.dtype.kind == "c" or real else v + 0j


def _rfft(g: Grid, v: np.ndarray) -> np.ndarray:
    """Real FFT over every axis of a fully periodic grid."""
    v = _cast(v, True)
    if g.dim > 1:
        return _pocketfft().r2c(v, (0, 1), True, 0, None, 1)
    n, k = g.counts[0], np.fft._pocketfft_umath
    out = np.empty(n // 2 + 1, v.dtype.char.upper())
    return (k.rfft_n_odd if n % 2 else k.rfft_n_even)(v, 1, out=out)


def _irfft(g: Grid, v: np.ndarray) -> np.ndarray:
    v, n = _cast(v, False), g.counts[-1]
    if g.dim > 1:
        return _pocketfft().c2r(v, (0, 1), n, False, 2, None, 1)
    t = v.dtype.char.lower()
    fct = 1 / n if t == "d" else np.reciprocal(n, dtype=t)
    return np.fft._pocketfft_umath.irfft(v, fct, out=np.empty(n, t))


@_per_grid
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
    return np.repeat(m * (np.prod(g.spacings) / np.prod(g.counts)), 2)


def _forward(g: Grid, v: np.ndarray) -> np.ndarray:
    return _rfft(g, v) if g.fully_periodic else _r2r(g, v, range(g.dim), 0)


def _backward(g: Grid, v: np.ndarray) -> np.ndarray:  # axes in reverse
    return (_irfft(g, v) if g.fully_periodic
            else _r2r(g, v, reversed(range(g.dim)), 2))


def _r2r(g: Grid, v: np.ndarray, axes, inorm: int) -> np.ndarray:
    """DST-I on the Dirichlet and DCT-I on the Neumann ``axes``, in turn;
    ``inorm`` 2 divides each by its logical length (the inverses)."""
    k, v = _pocketfft(), _cast(v, True)
    for ax in axes:
        v = (k.dst if g.bcs[ax] == DIRICHLET else k.dct)(v, 1, (ax,), inorm,
                                                          None, 1, None)
    return v


def _diag_solve(g: Grid, rhs: np.ndarray, denom: np.ndarray) -> tuple:
    """Solve the system whose diagonal in transform space is ``denom``:
    the solution and, on fully periodic grids, its spectrum (else None)."""
    if not g.all_active:
        sl = g.active_block
        out = np.zeros(g.shape)
        out[sl] = _backward(g, _forward(g, rhs[sl]) / denom)
        return out, None
    V = _forward(g, rhs) / denom
    return _backward(g, V), V if g.fully_periodic else None


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


def _edge_coeffs(c: np.ndarray, g: Grid) -> tuple:
    """Edge coefficients on the flat (C-order) field of a bounded grid, per
    axis N - s entries: ``0.5 * (c_i + c_{i+s}) / h**2`` couples flat nodes
    i and i + s, s the axis stride and h its spacing (1/h**2 is the interior
    nodes' scale); 0 across the row wraps of a 2D grid."""
    # a list, not tuple() over a generator: that form raised the traced
    # peak memory of a pnp run by about 90 KiB
    v, out, s = c.reshape(-1), [], c.size
    for ax in range(g.dim):
        s //= g.shape[ax]
        ce = v[s:] + v[:-s]
        ce /= 2.0 * g.spacings[ax] ** 2  # 0.5 * (...) / h**2, bit for bit
        if ax == 1:  # the row wraps
            ce[g.shape[1] - 1::g.shape[1]] = 0.0
        out.append(ce)
    return tuple(out)


def _edge_sum(ce: tuple, g: Grid, edge_values, lower,
              out: np.ndarray | None = None) -> np.ndarray:
    """Per node and axis, the node combined by ``lower`` (in place) with the
    value ``edge_values(e)`` on the edge above it, plus the one below (two
    scatters into contiguous slices of one flat field: a zero one, or
    ``out``, C-contiguous, which the sum is added into); a Neumann end
    node, of half the weight, takes its one edge twice.  Inactive rows are
    0, whatever ``out`` held there."""
    flat = np.zeros(g.weights.size) if out is None else out.reshape(-1)
    for ax, e in enumerate(ce):
        s, f = flat.size - e.size, edge_values(e)
        lower(flat[:e.size], f)
        flat[s:] += f
        if g.bcs[ax] == NEUMANN:
            if s == 1:  # both ends of every line along the last axis
                n = g.shape[-1]
                lower(flat[::n], f[::n])
                flat[n - 1::n] += f[n - 2::n]
            else:  # the first and the last row
                lower(flat[:s], f[:s])
                flat[-s:] += f[-s:]
        del f  # freed before the next axis's flux is made
    return g.zero_excluded(flat.reshape(g.shape))


def _edge_apply(ce: tuple, u: np.ndarray, g: Grid,
                out: np.ndarray | None = None) -> np.ndarray:
    """+<-div(c grad u)> in edge form, from the flat edge coefficients
    ``ce``, scattered into ``out`` if given (:func:`_edge_sum`): per axis
    the flux, a difference of contiguous slices scaled in place, leaves
    each node by its upper edge and enters by its lower."""
    v = u.reshape(-1)

    def flux(e):
        d = v[v.size - e.size:] - v[:e.size]
        d *= e
        return d

    return _edge_sum(ce, g, flux, np.ndarray.__isub__, out)


def _edge_diagonal(ce: tuple, g: Grid) -> np.ndarray:
    """Diagonal of :func:`_edge_apply`: per node, the sum of the edge
    coefficients on its sides, Neumann ends doubled and inactive rows
    masked as the apply's."""
    return _edge_sum(ce, g, lambda e: e, np.ndarray.__iadd__)


def transport_div_form(c: np.ndarray, u: np.ndarray, g: Grid) -> np.ndarray:
    """Divergence form +<-div(c grad u)> without the sign gate on c.

    Intended for explicit transport terms (e.g. drift fluxes), whose
    coefficient is a solution extrapolation and may dip negative; the
    conservation and symmetry structure of the assembly is unchanged.
    """
    c, u = g.check_field(c), g.check_field(u)
    if g.fully_periodic:
        return -_irfft(g, _div_grad_spectrum(c, _rfft(g, u), g))
    return _edge_apply(_edge_coeffs(c, g), u, g)


# -- operator handles ---------------------------------------------------------


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
        return cls._nonnegative(g, DIV_COEFF_GRAD, c, "div-coeff-grad")

    @classmethod
    def lubrication(cls, g: Grid, c: np.ndarray) -> "Operator":
        if not g.fully_periodic:
            raise ValueError("the fourth-order operator requires a periodic grid")
        return cls._nonnegative(g, DIV_COEFF_GRAD_LAPLACIAN, c, "fourth-order")

    @classmethod
    def _nonnegative(cls, g: Grid, kind: str, c, what: str) -> "Operator":
        op = cls(grid=g, kind=kind,
                 coeff=g.check_field(np.asarray(c, dtype=float)))
        if not op._coeff_range[0] >= 0:  # a NaN node makes the minimum NaN
            raise ValueError(f"{what} coefficient must be nonnegative")
        return op

    @cached_property
    def _coeff_range(self) -> tuple:
        """(min, max) of the coefficient, (1.0, 1.0) for the Laplacian, read
        by the sign gate and every solve; every node counts, as the edge
        form's end edges read the coefficient at inactive Dirichlet nodes."""
        c = self.coeff
        return (1.0, 1.0) if c is None else (c.min(), c.max())

    @cached_property
    def edge_coeffs(self) -> tuple:
        """Edge coefficients on a bounded grid (from c == 1 for the
        Laplacian), each axis's divided by its h**2 (:func:`_edge_coeffs`),
        built on first use and kept for the life of the operator."""
        c = np.ones(self.grid.shape) if self.coeff is None else self.coeff
        return _edge_coeffs(c, self.grid)

    def _shifted_denom(self, sigma: float, cbar: float) -> np.ndarray:
        """The read-only :func:`_denom`, held as one (sigma, cbar, array)
        tuple until a solve at another shift (once per run) replaces it."""
        held = self.__dict__.get("_diagonal")
        if held is None or held[:2] != (sigma, cbar):
            held = (sigma, cbar, _denom(self.grid, sigma, cbar, self.kind))
            held[2].flags.writeable = False
            object.__setattr__(self, "_diagonal", held)
        return held[2]

    def apply_spectrum(self, V: np.ndarray) -> np.ndarray:
        """Real-FFT spectrum of L v from the spectrum ``V`` of v on a fully
        periodic grid (2 * dim transforms, none for the Laplacian); the
        fourth-order kind, -div(c grad(-Delta v)), keeps -Delta v in
        transform space."""
        g = self.grid
        if self.kind == LAPLACIAN:
            return _symbol(g, LAPLACIAN) * V
        if self.kind == DIV_COEFF_GRAD_LAPLACIAN:
            V = _symbol(g, LAPLACIAN) * V
        return -_div_grad_spectrum(self.coeff, V, g)

    def apply(self, u: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
        """L u, or with ``out`` (a float field) out + L u, formed in ``out``
        where it is C-contiguous.  The edge form scatters its fluxes
        straight into ``out`` and, as without it, sets the inactive rows to
        0: the sum is out + L u on the active rows only."""
        g = self.grid
        u = g.check_field(u)
        if out is not None:
            g.check_field(out)
        if g.fully_periodic:
            return _added(out, _irfft(g, self.apply_spectrum(_rfft(g, u))))
        return _edge_apply(self.edge_coeffs, u, g, out)

    def quad(self, u: np.ndarray, U: np.ndarray | None = None,
             Lu: np.ndarray | None = None) -> float:
        """The bilinear form <L u, u> in the grid inner product, from ``Lu``
        = L u in the basis of ``U``, as a solve's ``SolverReport.applied``
        holds it (else one apply); on fully periodic grids the Parseval sum
        over the spectrum ``U`` of u, a solve's ``SolverReport.spectrum``
        (else one transform)."""
        g = self.grid
        if not g.fully_periodic:
            return g.inner(self.apply(u) if Lu is None else Lu, u)
        if U is None:
            U = _rfft(g, g.check_field(u))
        Lu = self.apply_spectrum(U) if Lu is None else Lu
        return _wdot(_parseval_weights(g), Lu.view(float), U.view(float))


# -- Krylov kernels -----------------------------------------------------------


def _added(out: np.ndarray | None, Lv: np.ndarray) -> np.ndarray:
    """``out += Lv`` and ``out``, or ``Lv`` where ``out`` is None: the
    accumulating form of an apply that makes its own array."""
    if out is None:
        return Lv
    out += Lv
    return out


def _krylov(cycle, apply, sigma, precond, b, w, tol, maxit, x0=None,
            switch=None):
    """Restarted Krylov solve of ``sigma x + apply(x) = b`` in the weighted
    inner product.

    ``apply(v)`` is L v and ``apply(v, out)`` is out + L v, formed in
    ``out``.  Each recursion matvec is ``apply(v, sigma * v)``, so the 2D
    edge form scatters its fluxes straight into ``sigma v``, with no zero
    field and no final add; the inactive rows it zeroes are 0 in
    ``sigma v`` already, as in every direction the preconditioner makes.

    Convergence is judged on the true residual.  From each true residual
    ``cycle`` (:func:`_pcg` or :func:`_pbicgstab`) runs one recursion,
    updating ``x`` in place until its recursive residual meets half the
    tolerance, it breaks down or the iteration budget is spent, and returns
    the iterations it took.  Where ``b`` vanishes the residual is judged
    as absolute, so a nonzero ``x0`` is still carried to a solution.
    ``x0`` becomes the iterate: the caller hands over an array it owns.
    With ``switch = (n, make)`` the recursions stop after n iterations and,
    if the true residual there misses the tolerance, go on from it with the
    preconditioner ``make()``.  Returns the iterate, the iterations, the
    relative true residual and ``apply`` of the iterate, from that residual.
    """
    def matvec(v):
        return apply(v, sigma * v)

    bnorm = np.sqrt(_wdot(w, b, b)) or 1.0
    x = np.zeros_like(b) if x0 is None else x0
    gate = 0.5 * tol * bnorm
    total, used = 0, None
    cap = maxit if switch is None else min(switch[0], maxit)
    while True:
        r = sigma * x
        ax = apply(x)
        r += ax
        np.subtract(b, r, out=r)
        relres = np.sqrt(_wdot(w, r, r)) / bnorm
        # after an immediate breakdown no progress is possible
        if relres <= tol or total >= maxit or used == 0:
            return x, total, relres, ax
        del ax  # freed before the recursion's matvecs, where a solve peaks
        if total >= cap:
            precond, cap = switch[1](), maxit
        used = cycle(matvec, precond, x, r, w, gate, cap - total)
        total += used


def _pcg(matvec, precond, x, r, w, gate, budget):
    """One preconditioned conjugate-gradient recursion from residual r; the
    first direction is ``precond(r)`` itself (a fresh array, updated in
    place), and ``w * r`` serves ``[r, r]`` and ``[r, z]``: _wdot's bits.
    A zero ``[r, z]`` or ``[p, Ap]`` (an underflow) is a breakdown."""
    p = precond(r)
    rz = _wdot(w, r, p)
    used = 0
    while used < budget and rz != 0.0:
        Ap = matvec(p)
        pap = _wdot(w, p, Ap)
        if pap == 0.0:
            break
        used += 1
        alpha = rz / pap
        x += alpha * p
        r -= alpha * Ap
        del Ap  # each temporary is freed before the next matvec
        wr = w * r
        if np.sqrt(np.add.reduce(wr * r, None)) <= gate:
            break
        z = precond(r)
        wr *= z
        rz_new = float(np.add.reduce(wr, None))
        p *= rz_new / rz  # z + beta * p, in p
        p += z
        del wr, z
        rz = rz_new
    return used


def _pbicgstab(matvec, precond, x, r, w, gate, budget):
    """One preconditioned BiCGStab recursion from residual r; a zero
    ``rho``, ``[rhat, v]``, ``omega`` or ``[t, t]`` is a breakdown and ends
    it.  ``w * rhat`` and ``w * t`` are formed once each: the bits of
    :func:`_wdot`."""
    wr = w * r  # w * rhat, rhat = r
    rho = alpha = omega = 1.0
    v = np.zeros_like(r)
    p = np.zeros_like(r)
    used = 0
    while used < budget:
        rho_new = float(np.add.reduce(wr * r, None))
        if rho_new == 0.0 or omega == 0.0:
            break
        beta = (rho_new / rho) * (alpha / omega)
        rho = rho_new
        p = r + beta * (p - omega * v)
        phat = precond(p)
        v = matvec(phat)
        rv = float(np.add.reduce(wr * v, None))
        if rv == 0.0:
            break
        used += 1
        alpha = rho / rv
        s = r - alpha * v
        if np.sqrt(_wdot(w, s, s)) <= gate:
            x += alpha * phat
            break
        shat = precond(s)
        t = matvec(shat)
        wt = w * t
        ts = float(np.add.reduce(wt * s, None))
        wt *= t
        tt = float(np.add.reduce(wt, None))
        del wt  # freed before the next matvec, where a solve peaks
        if tt == 0.0:
            # t = 0 only if s = 0: the half step solved the system
            x += alpha * phat
            break
        omega = ts / tt
        x += alpha * phat + omega * shat
        r = s - omega * t
        if np.sqrt(_wdot(w, r, r)) <= gate:
            break
    return used


# -- exact 1D solve -----------------------------------------------------------


def _thomas(lo: list, di: list, up: list, b: list) -> list:
    """Solve the tridiagonal system with sub-, main and super-diagonals
    ``lo``, ``di``, ``up`` (``lo[0]`` and ``up[-1]`` zero) by elimination
    without pivoting, which is stable for diagonally dominant rows.  Plain
    Python on float lists: at a few hundred rows it is faster than a numpy
    cyclic reduction or a dense solve, and imports no scipy.linalg."""
    cs, ds = [], []
    c = d = 0.0
    for l, m, u, r in zip(lo, di, up, b):
        m -= l * c
        c = u / m
        d = (r - l * d) / m
        cs.append(c)
        ds.append(d)
    x = ds[-1]
    for i in range(len(ds) - 2, -1, -1):
        x = ds[i] - cs[i] * x
        ds[i] = x
    return ds


def _tridiagonal_solve(sigma: float, op: Operator, rhs: np.ndarray,
                       tol: float, x0: np.ndarray | None):
    """The 1D edge-form system by one elimination, Neumann ends as the
    apply's; inactive Dirichlet ends are identity rows holding ``x0``."""
    g = op.grid
    band = (-op.edge_coeffs[0]).tolist()
    lo, up = [0.0] + band, band + [0.0]
    di = (sigma + _edge_diagonal(op.edge_coeffs, g)).tolist()
    b = rhs.tolist()
    if g.all_active:
        up[0], lo[-1] = 2.0 * up[0], 2.0 * lo[-1]
    else:
        di[0] = di[-1] = 1.0
        lo[-1] = up[0] = 0.0
        if x0 is None:
            b[0] = b[-1] = 0.0
        else:  # Python floats: a numpy scalar would slow the whole sweep
            b[0], b[-1] = float(x0[0]), float(x0[-1])
    x = np.array(_thomas(lo, di, up, b))
    # the true residual on the active rows, as the Krylov solves judge it
    # (absolute where rhs vanishes on them); L x stays on the report
    ax = op.apply(x)
    r = rhs - ax
    r -= sigma * x
    bnorm = np.sqrt(_wdot(g.weights, rhs, rhs))
    relres = float(np.sqrt(_wdot(g.weights, r, r)) / (bnorm or 1.0))
    return x, SolverReport(0, relres, relres <= tol, applied=ax)


# -- finite-difference preconditioner of the 1D thin film ---------------------

# BiCGStab iterations on the mean-coefficient preconditioner before a 1D
# fourth-order solve switches to the finite-difference one, and the
# coefficient contrast max c / min c from which it switches at all: the
# fastest choices on thin-film systems (CHANGES.md, the switch's entry)
_FD_SWITCH = 2
_FD_CONTRAST = 50.0


def _band_factor(c: np.ndarray, sigma: float, h: float) -> tuple:
    """LU factors of ``sigma I + delta_c delta^2``, the second-order finite
    differences of div(c grad Delta), by elimination without pivoting.

    Row i is ``[cem, -ce-3cem, sigma h^4+3ce+3cem, -3ce-cem, ce] / h^4``
    (columns i-2..i+2) with ``ce = (c_i + c_{i+1}) / 2`` and ``cem =
    ce_{i-1}``, the periodic wrap entries dropped.  Every pivot is at least
    sigma, zero patches of c included, while sigma h^4 is above 1e-12 of
    max c (:func:`solve_operator` checks).  Returns per row the two
    multipliers, the pivot and the two entries right of it, as float lists
    (see :func:`_thomas`); the rows are read through memoryviews, which
    make each Python float only as it is used.
    """
    # concatenate, not np.roll: the roll's small index objects stayed alive
    # and held about 40 KiB through a thin-film run (tracemalloc)
    ce = 0.5 * (c + np.concatenate((c[1:], c[:1]))) / h**4
    cem = np.concatenate((ce[-1:], ce[:-1]))
    rows = [cem, -ce - 3.0 * cem, sigma + 3.0 * (ce + cem), -3.0 * ce - cem]
    rows[0][:2] = rows[1][0] = rows[3][-1] = 0.0
    f = ce.tolist()
    f[-2] = f[-1] = 0.0
    l2s, l1s, ps, u1s = [], [], [], []
    p2, u12, u22 = 1.0, 0.0, 0.0       # pivot, u1, u2 of row i-2
    p1, u11, u21 = 1.0, 0.0, 0.0       # and of row i-1
    for ei, ai, di, bi, fi in zip(*map(memoryview, rows), f):
        l2 = ei / p2
        l1 = (ai - l2 * u12) / p1
        p = di - l2 * u22 - l1 * u11
        u1 = bi - l1 * u21
        l2s.append(l2)
        l1s.append(l1)
        ps.append(p)
        u1s.append(u1)
        p2, u12, u22, p1, u11, u21 = p1, u11, u21, p, u1, fi
    return l2s, l1s, ps, u1s, f


def _band_solve(factor: tuple, r: np.ndarray) -> np.ndarray:
    """Forward and back substitution with :func:`_band_factor`'s factors;
    the back substitution writes straight into the returned array."""
    l2s, l1s, ps, u1s, u2s = factor
    y, y2, y1 = [], 0.0, 0.0
    for l2, l1, ri in zip(l2s, l1s, memoryview(r)):
        y2, y1 = y1, ri - l2 * y2 - l1 * y1
        y.append(y1)
    out = np.empty(len(y))
    x, x2, x1 = memoryview(out), 0.0, 0.0
    for i in range(len(y) - 1, -1, -1):
        x2, x1 = x1, (y[i] - u1s[i] * x1 - u2s[i] * x2) / ps[i]
        x[i] = x1
    return out


def _fd_preconditioner(g: Grid, sigma: float, c: np.ndarray, cbar: float,
                       denom: np.ndarray):
    """``R -> rfft(B^-1 irfft(R)) * (sigma + cbar k_FD^4) / denom`` on the
    float view of 1D spectra, B from :func:`_band_factor` and ``k_FD^2 =
    (2 - 2 cos kh) / h^2``: the rescale turns the finite-difference symbol
    at the mean coefficient into the spectral one, ``denom`` (Orszag 1980).
    """
    h = g.spacings[0]
    factor = _band_factor(c, sigma, h)
    kfd2 = (2.0 - 2.0 * np.cos(_wavenumbers(g, 0) * h)) / h**2
    scale = (sigma + cbar * kfd2**2) / denom

    def precond(R):
        Y = _rfft(g, _band_solve(factor, _irfft(g, R.view(complex))))
        Y *= scale
        return Y.view(float)

    return precond


# -- shifted solves -----------------------------------------------------------


def solve_operator(sigma: float, op: Operator, rhs: np.ndarray,
                   tol: float = DEFAULT_TOL, maxit: int = DEFAULT_MAXIT,
                   x0: np.ndarray | None = None):
    """Solve the shifted system (sigma I + L) u = rhs for any operator kind;
    returns u and a :class:`SolverReport`.

    Constant coefficients (none, or equal on every node by the operator's
    one ``(min, max)`` scan) solve exactly in one transform pass,
    :func:`_diag_solve` (iterations = 0, residual reported as 0).  Variable
    coefficients take one of three paths, each judging the true residual in
    the grid inner product against ``tol``:

    * a 1D bounded grid -- one exact tridiagonal elimination
      (iterations = 0, ``maxit`` unused);
    * a bounded 2D grid -- CG preconditioned by the exact diagonal of
      ``sigma I + L``, with no transform;
    * a periodic grid -- CG (second order) or BiCGStab (fourth order) on
      the float view of the real-FFT spectrum, preconditioned by the
      operator at the mean coefficient; a 1D fourth-order solve of contrast
      above ``_FD_CONTRAST`` that ``_FD_SWITCH`` iterations leave short of
      ``tol`` goes on from its iterate under :func:`_fd_preconditioner`.

    Each variable-coefficient path hands back L u, in the basis of u, as
    the report's ``applied``, and every periodic solve the spectrum of u,
    so ``Operator.quad`` applies and transforms nothing.  The Krylov paths
    start from ``x0`` (0 without it) and iterate in it: the 2D edge path in
    a float ``x0`` itself, so the caller hands over an array it owns (the
    periodic paths in its transform); where ``rhs`` vanishes on the active
    rows they judge the residual as absolute.  Iterative solves and the 1D
    elimination leave inactive (Dirichlet end) nodes at ``x0``; the
    transform pass ignores ``x0`` and sets them to 0.
    """
    if sigma <= 0:
        raise ValueError("shift sigma must be positive")
    if not tol > 0:
        raise ValueError("solver tolerance must be positive")
    g = op.grid
    rhs = g.check_field(rhs)
    lo, hi = op._coeff_range
    if lo == hi:
        u, U = _diag_solve(g, rhs, op._shifted_denom(sigma, float(hi)))
        return u, SolverReport(0, 0.0, True, U)
    if g.fully_periodic:
        c, fourth = op.coeff, op.kind == DIV_COEFF_GRAD_LAPLACIAN
        cbar = float(np.add.reduce(c, None) / c.size)  # np.mean's bits
        diag = _denom(g, sigma, cbar, op.kind)
        denom = np.repeat(diag, 2, axis=-1)
        switch = None
        # the band pivots keep their sign while sigma h^4 stands above the
        # rounding of the stencil (lost from about 1e-16 of max c)
        if (fourth and g.dim == 1 and hi > _FD_CONTRAST * lo
                and sigma * g.spacings[0] ** 4 > 1e-12 * hi):
            switch = (_FD_SWITCH,
                      lambda: _fd_preconditioner(g, sigma, c, cbar, diag))
        # a fresh spectrum: _krylov iterates on it without a copy
        X0 = None if x0 is None else _rfft(g, g.check_field(x0)).view(float)
        X, n, res, LX = _krylov(
            _pbicgstab if fourth else _pcg,
            lambda V, out=None: _added(
                out, op.apply_spectrum(V.view(complex)).view(float)), sigma,
            lambda R: R / denom, _rfft(g, rhs).view(float),
            _parseval_weights(g), tol, maxit, X0, switch)
        U = X.view(complex)
        return _irfft(g, U), SolverReport(n, res, bool(res <= tol), U,
                                          LX.view(complex))
    if g.dim == 1:
        return _tridiagonal_solve(sigma, op, rhs, tol, x0)
    # the edge form is an M-matrix whose exact diagonal preconditions about
    # as well as the mean-coefficient transform solve, at a fraction of its
    # cost; zero on inactive rows, so the iterate keeps x0 there
    inv = 1.0 / (sigma + _edge_diagonal(op.edge_coeffs, g))
    if not g.all_active:
        inv *= g.active
    x, n, res, Lx = _krylov(_pcg, op.apply, sigma, lambda r: r * inv, rhs,
                            g.weights, tol, maxit,
                            None if x0 is None else np.asarray(x0, float))
    return x, SolverReport(n, res, bool(res <= tol), applied=Lx)


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
    denom[(0,) * g.dim] = np.inf  # the zero mode divides to 0
    return _diag_solve(g, rhs, denom)[0]
