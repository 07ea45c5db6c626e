"""The four concrete PDE drivers.

Each single-field model supplies the pieces the stepper needs per step: an
operator handle (possibly rebuilt from lagged solution history), an explicit
source, initial data, and, where available, a reference solution.  The
electrodiffusion system couples two species through a potential: each
species steps through the generic :func:`posikit.stepper.step` as a
:class:`PnpSpecies`, and :func:`pnp_step` adds the potential update.

Models are immutable configuration plus pure assembly functions and are safe
to share between runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid import DIRICHLET, NEUMANN, PERIODIC, build_grid
from .operators import (Operator, solve_conservative_poisson,
                        transport_div_form)
from .stepper import (EXTRAPOLATION_COEFFS, VARIANT_MASS, History,
                      RunResult, StepOptions, combine_levels, step)

_STAR_FLOOR = 1e-14


def extrapolate_star(un: np.ndarray, unm1: np.ndarray) -> np.ndarray:
    """Positivity-preserving two-level extrapolation.

    Rising nodes extrapolate linearly (2 u^n - u^{n-1}); falling nodes use the
    harmonic form 1/(2/u^n - 1/u^{n-1}), which stays positive.  Nodes at or
    below 1e-14 return 0, the continuous limit of the harmonic branch.
    """
    un = np.asarray(un, dtype=float)
    unm1 = np.asarray(unm1, dtype=float)
    if np.any(un < 0) or np.any(unm1 < 0):
        raise ValueError("extrapolation requires nonnegative history")
    return _star(un, unm1)


def _star(un: np.ndarray, unm1: np.ndarray) -> np.ndarray:
    """:func:`extrapolate_star` on levels known to be nonnegative, its
    branches written into the fresh harmonic array."""
    star = 2.0 / np.maximum(un, _STAR_FLOOR)
    star -= 1.0 / np.maximum(unm1, _STAR_FLOOR)
    np.divide(1.0, star, out=star)
    np.copyto(star, 2.0 * un - unm1, where=un >= unm1)
    np.copyto(star, 0.0, where=un <= _STAR_FLOOR)
    return star


def _clamped_star(hist: History, k: int) -> np.ndarray:
    """History extrapolation for lagged coefficients, floored at zero.

    The uncorrected baseline variant can carry negative values in its
    history (on a periodic Fourier grid, whose divergence form is not
    monotone); the lagged coefficient must stay nonnegative for the operator
    to be well posed, so history levels are floored before extrapolating.
    For corrected variants the floor is a no-op.  The floored levels need
    no negativity scan, so the kernel is called directly.
    """
    u0 = np.maximum(hist.us[0], 0.0)
    if k >= 2 and len(hist.us) >= 2:
        return _star(u0, np.maximum(hist.us[1], 0.0))
    return u0


# -- phase-field relaxation on the periodic square ------------------------------

@dataclass
class AllenCahnModel:
    """u_t - Delta u + (1/eps2) u(u-1)(u-1/2) = 0 on [0, 2pi)^2, periodic.

    The double-well reaction is treated explicitly at an order-matched
    extrapolation of the history; the Laplacian is implicit.  Solutions of
    the continuous problem stay in [0, 1]; only the lower bound is enforced,
    the maximum is recorded by the run diagnostics.
    """

    eps2: float = 0.001
    n: int = 32

    def __post_init__(self):
        if not 0 < self.eps2 < np.inf:
            raise ValueError("interface parameter must be finite and positive")
        self.grid = build_grid(((0.0, 2.0 * np.pi), (0.0, 2.0 * np.pi)),
                               (self.n, self.n), PERIODIC)
        self._op = Operator.laplacian(self.grid)

    def initial_state(self) -> np.ndarray:
        X, Y = self.grid.coords()
        eps = np.sqrt(self.eps2)
        r = np.sqrt((X - np.pi) ** 2 + (Y - np.pi) ** 2)
        return 0.5 * (1.0 + np.tanh((1.0 - r) / (np.sqrt(2.0) * eps)))

    def operator(self, hist: History, k: int) -> Operator:
        return self._op

    def explicit_source(self, hist: History, k: int) -> np.ndarray:
        star = combine_levels(EXTRAPOLATION_COEFFS[min(k, len(hist.us))],
                              hist.us)
        # -(1/eps2) * star * (star - 1) * (star - 1/2), the products taken
        # in that order, in place
        out = -(1.0 / self.eps2) * star
        out *= star - 1.0
        out *= star - 0.5
        return out


# -- degenerate diffusion with a moving interface -------------------------------


def barenblatt(x, t: float, m: float, C: float = 1.0):
    """Compactly supported self-similar diffusion profile.

    ``x`` is a coordinate array (1D) or a tuple of coordinate arrays; the
    radial argument is the squared distance from the origin.  Requires m > 1.
    """
    if m <= 1:
        raise ValueError("the self-similar profile needs m > 1")
    if isinstance(x, (tuple, list)):
        r2 = sum(np.asarray(xi, dtype=float) ** 2 for xi in x)
    else:
        r2 = np.asarray(x, dtype=float) ** 2
    alpha = 1.0 / (m + 1.0)
    t0 = t + 1.0
    core = C - alpha * (m - 1.0) / (2.0 * m) * r2 / t0 ** (2.0 * alpha)
    return t0 ** (-alpha) * np.maximum(core, 0.0) ** (1.0 / (m - 1.0))


def pme_operator(hist: History, m: float, k: int = 2) -> Operator:
    """Lagged diffusion handle with coefficient m * star^(m-1) >= 0; a whole
    exponent by squaring, in place in the fresh floored array (libm's pow
    is slow at the zeros outside the support): the bits of ``**`` at m = 2
    and 3, within a few ulp above."""
    star, e = _clamped_star(hist, k), float(m - 1.0)
    if not (e.is_integer() and e >= 1.0):
        return Operator.div_coeff_grad(hist.grid, m * star ** e)
    e, odd = int(e), m
    while e > 1:  # m star^e: star's squares times m and the odd bits' powers
        if e & 1:
            odd = odd * star
        np.square(star, out=star)
        e >>= 1
    star *= odd
    return Operator.div_coeff_grad(hist.grid, star)


@dataclass
class PorousMediumModel:
    """u_t = Delta(u^m) on (-5, 5)^d with homogeneous Dirichlet boundaries."""

    m: float = 2.0
    n: int = 128
    dim: int = 1
    C: float = 1.0

    def __post_init__(self):
        # the Barenblatt start needs m > 1; an amplitude C <= 0 starts from
        # the zero state
        if not 1 < self.m < np.inf:
            raise ValueError("exponent m must be greater than 1 and finite")
        if not 0 < self.C < np.inf:
            raise ValueError("amplitude C must be positive and finite")
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim!r}")
        extents = ((-5.0, 5.0),) * self.dim
        self.grid = build_grid(extents, (self.n,) * self.dim, DIRICHLET)

    def initial_state(self) -> np.ndarray:
        return self.exact(0.0)

    def exact(self, t: float) -> np.ndarray:
        coords = self.grid.coords()
        x = coords[0] if self.dim == 1 else coords
        u = barenblatt(x, t, self.m, self.C)
        return np.where(self.grid.active, u, 0.0)

    def operator(self, hist: History, k: int) -> Operator:
        return pme_operator(hist, self.m, k)

    def explicit_source(self, hist: History, k: int) -> Optional[np.ndarray]:
        return None


# -- electrodiffusion of two ion species ---------------------------------------


@dataclass
class PnpModel:
    """Two-species drift-diffusion coupled to a potential, Neumann box (-1,1)^2.

    Both concentrations must stay nonnegative and conserve their individual
    mass, so each carries its own nodal and scalar multiplier pair; the
    potential solves a pure-Neumann Poisson problem whose compatibility needs
    the two masses to match, and is gauged to weighted mean zero.
    """

    eps_debye: float = 0.1
    n: int = 64

    def __post_init__(self):
        square = self.eps_debye * self.eps_debye  # the Poisson scale
        if not (self.eps_debye > 0 and 0 < square < np.inf):
            raise ValueError(f"Debye ratio eps_debye = {self.eps_debye!r} "
                             f"must be positive with a finite nonzero square")
        self.grid = build_grid(((-1.0, 1.0), (-1.0, 1.0)),
                               (self.n, self.n), NEUMANN)
        self.laplacian = Operator.laplacian(self.grid)

    def initial_state(self) -> tuple[np.ndarray, np.ndarray]:
        X, Y = self.grid.coords()
        disc = (X**2 + Y**2 <= 0.25).astype(float)
        return disc, disc.copy()

    def potential(self, p: np.ndarray, nfield: np.ndarray) -> np.ndarray:
        """Solve eps^2 (-Delta) phi = p - n with the mean-zero gauge."""
        g = self.grid
        rho = p - nfield
        if abs(g.mass(rho)) > 1e-8 * max(1.0, g.mass(p)):
            raise ValueError("species masses differ; potential solve is "
                             "incompatible")
        return solve_conservative_poisson(g, rho, self.eps_debye**2)


@dataclass(frozen=True)
class PnpSpecies:
    """One species of the electrodiffusion system as a single-field model.

    The diffusion part is the implicit Neumann Laplacian; the drift term
    ``sign * div(c grad phi)`` (sign -1 for the positive species, +1 for the
    negative one) is explicit, assembled at the extrapolations c*, phi* of
    the species history and of the potential levels ``phis`` (newest first),
    linear once two potential levels exist at k >= 2.
    """

    laplacian: Operator
    phis: list
    sign: float

    def operator(self, hist: History, k: int) -> Operator:
        return self.laplacian

    def explicit_source(self, hist: History, k: int) -> np.ndarray:
        coeffs = EXTRAPOLATION_COEFFS[2 if k >= 2 and len(self.phis) >= 2
                                      else 1]
        c_star = combine_levels(coeffs, hist.us)
        phi_star = combine_levels(coeffs, self.phis)
        return self.sign * transport_div_form(c_star, phi_star, hist.grid)


def pnp_step(hists, phis: list, model: PnpModel, opts: StepOptions) -> tuple:
    """Advance both species and the potential by one step.

    Each species takes one :func:`posikit.stepper.step` under ``opts`` from
    its (p, n) entry of ``hists``, which holds its mass target; both see the
    potential levels ``phis`` from before the step, to which the new
    potential is then prepended.  Returns the (p, n) step diagnostics.
    """
    diags = []
    for hist, sign in zip(hists, (-1.0, 1.0)):
        species = PnpSpecies(model.laplacian, phis, sign)
        diags.append(step(hist, species, opts)[1])
    phis.insert(0, model.potential(hists[0].us[0], hists[1].us[0]))
    del phis[2:]
    return tuple(diags)


def run_pnp(model: PnpModel, opts: StepOptions, n_steps: int):
    """Run both species (mass variant, lower bound 0, own initial mass) and
    the potential; returns the p and n run results and the potential levels.
    Options that select another variant or floor raise ValueError."""
    if opts.variant != VARIANT_MASS or opts.eps_lb != 0.0:
        raise ValueError("pnp runs the mass variant at eps_lb = 0, got "
                         f"{opts.variant!r} at eps_lb = {opts.eps_lb!r}")
    g = model.grid
    # only the histories hold the initial fields, which they soon drop
    hists = tuple(History.start(g, u0) for u0 in model.initial_state())
    phis = [model.potential(hists[0].us[0], hists[1].us[0])]
    runs = tuple(RunResult(h, []) for h in hists)
    for _ in range(n_steps):
        for run, diag in zip(runs, pnp_step(hists, phis, model, opts)):
            run.diagnostics.append(diag)
    return runs[0], runs[1], phis


# -- thin-film (fourth-order) flow ----------------------------------------------

def lubrication_f_eta(u: np.ndarray, rho: float, eta: float) -> np.ndarray:
    """Mobility regularization u^4 f(u) / (eta f(u) + u^4) with f(u) = u^rho.

    Continuous at zero with value 0; reduces to f for eta = 0.
    """
    u = np.asarray(u, dtype=float)
    pos = u > 0
    up = np.where(pos, u, 1.0)
    f = up**rho
    out = up**4 * f / (eta * f + up**4)
    return np.where(pos, out, 0.0)


@dataclass
class LubricationModel:
    """u_t + div(f(u) grad Delta u) = 0 with f(u) = u^rho, periodic domain.

    With eta > 0 the mobility is its eta-regularized form
    :func:`lubrication_f_eta`; with eta = 0 it is plain u^rho.  A positive
    lower bound is the correction's to keep (``StepOptions.eps_lb``).
    """

    rho: float = 0.5
    eta: float = 0.0
    n: int = 256
    dim: int = 1

    def __post_init__(self):
        if not np.isfinite(self.rho):
            raise ValueError("mobility exponent rho must be finite")
        if not 0 <= self.eta < np.inf:
            raise ValueError("eta must be finite and nonnegative")
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim!r}")
        if self.dim == 1:
            self.grid = build_grid((-1.0, 1.0), self.n, PERIODIC)
        else:
            self.grid = build_grid(((-np.pi, np.pi), (-np.pi, np.pi)),
                                   (self.n, self.n), PERIODIC)

    def initial_state(self) -> np.ndarray:
        if self.dim == 1:
            x = self.grid.axes[0]
            return 0.8 - np.cos(np.pi * x) + 0.25 * np.cos(2.0 * np.pi * x)
        X, Y = self.grid.coords()
        return np.where(X**2 + Y**2 <= 0.25,
                        (X - 0.5) ** 2 * (Y - 0.5) ** 2, 0.0)

    def mobility(self, star: np.ndarray) -> np.ndarray:
        if self.eta > 0:
            return lubrication_f_eta(star, self.rho, self.eta)
        return star**self.rho

    def operator(self, hist: History, k: int) -> Operator:
        star = _clamped_star(hist, k)
        return Operator.lubrication(self.grid, self.mobility(star))

    def explicit_source(self, hist: History, k: int) -> Optional[np.ndarray]:
        return None
