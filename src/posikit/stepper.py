"""Predictor-corrector time stepping with pointwise multiplier corrections.

Each step splits into:

1. *prediction* -- an implicit/IMEX BDF-k solve of
   ``(alpha_k/dt) u~ + L u~ = A_k(u)/dt + B_{k-1}(lam) [+ B_{k-1}(xi)] + source``,
   a generic semi-implicit scheme;
2. *correction* -- a pointwise update that enforces ``u >= eps_lb`` through a
   nodal multiplier field ``lam`` (and, optionally, conservation of the
   weighted mass through a spatially constant multiplier ``xi``), satisfying
   the complementarity triple ``lam >= 0``, ``u >= eps_lb``,
   ``lam * (u - eps_lb) = 0`` exactly: each branch pins one factor to zero.

Four step variants are supported; the three corrected ones share the one
kernel :func:`correct_positivity` and differ only in how far it shifts the
prediction before it clamps:

* ``multiplier`` -- nodal multiplier extrapolated into the prediction;
* ``cutoff``     -- zero multiplier extrapolation; the correction degenerates
  to clamping (for k = 1 this is bit-identical to ``multiplier``);
* ``mass``       -- multiplier variant plus the scalar mass multiplier,
  solved per step by a secant iteration on a piecewise-linear monotone
  residual;
* ``none``       -- no correction (the uncorrected baseline scheme).

A prediction that is not finite ends the step with :class:`BlowUpError`
before any correction.  The energy term ``<L u~, u~>`` is computed only when
an energy ledger is attached.

Start-up for k >= 2 cascades through the lower orders (step n runs at order
min(k, n+1)), which is also what the stability ledgers in
:mod:`posikit.diagnostics` assume.

A stepper's :class:`History` is owned by a single run; concurrent runs use
separate instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .grid import Grid
from .operators import (DEFAULT_MAXIT, DEFAULT_TOL, Operator, SolverError,
                        solve_operator)

VARIANT_MULTIPLIER = "multiplier"
VARIANT_CUTOFF = "cutoff"
VARIANT_MASS = "mass"
VARIANT_NONE = "none"
VARIANTS = (VARIANT_MULTIPLIER, VARIANT_CUTOFF, VARIANT_MASS, VARIANT_NONE)

DEFAULT_SECANT_TOL = 1e-12
DEFAULT_SECANT_MAXIT = 50


class SecantError(RuntimeError):
    """Secant iteration exhausted its budget; best iterate attached."""

    def __init__(self, message, best=None, iterations=0):
        super().__init__(message)
        self.best = best
        self.iterations = iterations


class BlowUpError(RuntimeError):
    """The solution lost finiteness (NaN/inf) during a step."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


# -- BDF tableaux -------------------------------------------------------------


@dataclass(frozen=True)
class BdfTableau:
    """Order k, shift alpha_k, history weights of A_k, extrapolation weights
    of B_{k-1} (empty for k = 1)."""

    k: int
    alpha: float
    a_coeffs: tuple[float, ...]
    b_coeffs: tuple[float, ...]


@lru_cache(maxsize=None)
def extrapolation_coeffs(k: int) -> tuple[float, ...]:
    """Weights (-1)^j C(k, j+1), j = 0..k-1, of the order-k extrapolation
    from the k newest levels (newest first); empty for k = 0."""
    return tuple(float((-1) ** j * math.comb(k, j + 1)) for j in range(k))


_TABLEAUX = {
    1: BdfTableau(1, 1.0, (1.0,), extrapolation_coeffs(0)),
    2: BdfTableau(2, 3.0 / 2.0, (2.0, -1.0 / 2.0), extrapolation_coeffs(1)),
    3: BdfTableau(3, 11.0 / 6.0, (3.0, -3.0 / 2.0, 1.0 / 3.0),
                  extrapolation_coeffs(2)),
    4: BdfTableau(4, 25.0 / 12.0, (4.0, -3.0, 4.0 / 3.0, -1.0 / 4.0),
                  extrapolation_coeffs(3)),
}


def bdf_tableau(k: int) -> BdfTableau:
    if k not in _TABLEAUX:
        raise ValueError(f"BDF order must be in 1..4, got {k}")
    return _TABLEAUX[k]


# -- history ------------------------------------------------------------------


def combine_levels(coeffs, levels) -> np.ndarray:
    """sum_i coeffs[i] * levels[i] over the leading levels, newest first."""
    out = coeffs[0] * levels[0]
    for c, v in zip(coeffs[1:], levels[1:]):
        out = out + c * v
    return out


@dataclass
class History:
    """Ring of the most recent solution/multiplier levels (newest first)."""

    grid: Grid
    us: list = field(default_factory=list)
    lams: list = field(default_factory=list)
    xis: list = field(default_factory=list)
    t: float = 0.0
    nstep: int = 0

    @classmethod
    def start(cls, g: Grid, u0: np.ndarray) -> "History":
        return cls(grid=g, us=[g.check_field(np.asarray(u0, dtype=float))])

    def a_combo(self, tab: BdfTableau) -> np.ndarray:
        if len(self.us) < tab.k:
            raise ValueError(f"history holds {len(self.us)} levels, "
                             f"BDF-{tab.k} needs {tab.k}")
        return combine_levels(tab.a_coeffs, self.us)

    def lambda_combo(self, tab: BdfTableau) -> np.ndarray:
        if not tab.b_coeffs:
            return np.zeros(self.grid.shape)
        if len(self.lams) < len(tab.b_coeffs):
            raise ValueError("not enough multiplier history for extrapolation")
        return combine_levels(tab.b_coeffs, self.lams)

    def xi_combo(self, tab: BdfTableau) -> float:
        if not tab.b_coeffs:
            return 0.0
        if len(self.xis) < len(tab.b_coeffs):
            raise ValueError("not enough xi history for extrapolation")
        return float(sum(c * x for c, x in zip(tab.b_coeffs, self.xis)))

    def push(self, u: np.ndarray, lam: np.ndarray, xi: float, dt: float) -> None:
        self.us.insert(0, u)
        self.lams.insert(0, lam)
        self.xis.insert(0, float(xi))
        del self.us[4:]
        del self.lams[3:]
        del self.xis[3:]
        self.nstep += 1
        self.t = self.nstep * dt  # not a running sum, which drifts


@dataclass
class CorrectionOutcome:
    u_next: np.ndarray
    lambda_next: np.ndarray
    xi_next: float
    secant_iterations: int
    active_count: int


# -- prediction ---------------------------------------------------------------


def predict(hist: History, tab: BdfTableau, op: Operator, dt: float,
            variant: str = VARIANT_MULTIPLIER,
            source: Optional[np.ndarray] = None,
            solver_tol: float = DEFAULT_TOL, solver_maxit: int = DEFAULT_MAXIT):
    """BDF-k IMEX prediction; returns (u~, SolverReport).

    The extrapolated nodal multiplier enters the right side for the
    ``multiplier`` and ``mass`` variants, the scalar one for ``mass`` only.
    Explicit model sources (already evaluated at the extrapolated state) are
    passed in via ``source``.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    rhs = hist.a_combo(tab) / dt
    if variant in (VARIANT_MULTIPLIER, VARIANT_MASS):
        rhs = rhs + hist.lambda_combo(tab)
    if variant == VARIANT_MASS:
        rhs = rhs + hist.xi_combo(tab)
    if source is not None:
        rhs = rhs + source
    sigma = tab.alpha / dt
    u_tilde, report = solve_operator(sigma, op, rhs, tol=solver_tol,
                                     maxit=solver_maxit, x0=hist.us[0])
    if not report.converged:
        raise SolverError(
            f"prediction solve failed: {report.iterations} iterations, "
            f"relative residual {report.residual:.3e}", report=report,
            iterate=u_tilde)
    return u_tilde, report


# -- corrections --------------------------------------------------------------


def _masked(g: Grid, u: np.ndarray) -> np.ndarray:
    if g.all_active:
        return u
    return np.where(g.active, u, 0.0)


def correct_positivity(u_tilde: np.ndarray, hist: History, tab: BdfTableau,
                       opts: StepOptions) -> CorrectionOutcome:
    """Pointwise correction enforcing u >= eps_lb, for every corrected variant.

    The variants differ only in the shift s added to the prediction: 0 for
    ``cutoff``, -(dt/alpha) B_{k-1}(lam) for ``multiplier``, and
    (dt/alpha)(xi - B_{k-1}(lam) - B_{k-1}(xi)) for ``mass``, with xi the
    secant root of :func:`residual_F`.  With base = u~ + s, nodes where
    base >= eps_lb keep (base, 0); the others get
    (eps_lb, (alpha/dt)(eps_lb - base)).  Exact ties land on the unclamped
    branch so active_count counts strict clamps only.
    """
    g = hist.grid
    u_tilde = g.check_field(u_tilde)
    dt, eps_lb = opts.dt, opts.eps_lb
    xi, iters = 0.0, 0
    if opts.variant == VARIANT_CUTOFF:
        base = u_tilde
    elif opts.variant == VARIANT_MASS:
        if opts.target_mass is None:
            raise ValueError("mass variant needs target_mass")
        target = opts.target_mass
        shift_base = hist.lambda_combo(tab) + hist.xi_combo(tab)
        tol = opts.secant_tol * max(1.0, abs(target))

        def F(x: float) -> float:
            return residual_F(x, u_tilde, shift_base, dt, tab, target, g,
                              eps_lb)

        xi, iters = solve_xi_secant(F, 0.0, -dt, tol=tol,
                                    maxit=opts.secant_maxit)
        base = u_tilde + (dt / tab.alpha) * (xi - shift_base)
    else:
        base = u_tilde - (dt / tab.alpha) * hist.lambda_combo(tab)
    inactive = base >= eps_lb
    u = np.where(inactive, base, eps_lb)
    lam = np.where(inactive, 0.0, (tab.alpha / dt) * (eps_lb - base))
    u = _masked(g, u)
    lam = _masked(g, lam)
    active_count = int(np.count_nonzero(~inactive & g.active))
    return CorrectionOutcome(u, lam, float(xi), iters, active_count)


def residual_F(xi: float, u_tilde: np.ndarray, shift_base: np.ndarray,
               dt: float, tab: BdfTableau, target_mass: float, g: Grid,
               eps_lb: float = 0.0) -> float:
    """Mass residual of the corrected state at scalar multiplier value xi.

    shift_base is the extrapolated multiplier load B_{k-1}(lam) + B_{k-1}(xi);
    the per-node shift is eta = (dt/alpha)(xi - shift_base).  F is continuous,
    piecewise linear and nondecreasing in xi.
    """
    eta = (dt / tab.alpha) * (xi - shift_base)
    vals = u_tilde + eta
    return float(np.sum(g.weights * np.where(vals > eps_lb, vals, eps_lb))
                 - target_mass)


def solve_xi_secant(F: Callable[[float], float], xi0: float, xi1: float,
                    tol: float = DEFAULT_SECANT_TOL,
                    maxit: int = DEFAULT_SECANT_MAXIT) -> tuple[float, int]:
    """Secant root search for a continuous monotone F; returns (xi, updates).

    A vanishing secant denominator falls back to bisection on a geometrically
    grown bracket.  Exceeding ``maxit`` raises :class:`SecantError` with the
    best iterate attached.
    """
    f0 = F(xi0)
    if abs(f0) <= tol:
        return xi0, 0
    f1 = F(xi1)
    if abs(f1) <= tol:
        return xi1, 0
    a, fa, b, fb = xi0, f0, xi1, f1
    for it in range(1, maxit + 1):
        if fb == fa:
            return _bisect_monotone(F, a, b, fa, fb, tol, maxit - it + 1, it - 1)
        xn = b - fb * (b - a) / (fb - fa)
        fn = F(xn)
        a, fa = b, fb
        b, fb = xn, fn
        if abs(fn) <= tol:
            return xn, it
    raise SecantError(f"secant did not reach |F| <= {tol:g} in {maxit} updates",
                      best=b, iterations=maxit)


def _bisect_monotone(F, a, b, fa, fb, tol, budget, used):
    """Bisection fallback for nondecreasing F; expands the bracket as needed."""
    lo, hi = min(a, b), max(a, b)
    flo = fa if lo == a else fb
    fhi = fb if hi == b else fa
    grow = max(1.0, hi - lo)
    it = used
    while flo > 0.0 and it < used + budget:
        it += 1
        lo -= grow
        grow *= 2.0
        flo = F(lo)
        if abs(flo) <= tol:
            return lo, it
    while fhi < 0.0 and it < used + budget:
        it += 1
        hi += grow
        grow *= 2.0
        fhi = F(hi)
        if abs(fhi) <= tol:
            return hi, it
    best = hi if abs(fhi) < abs(flo) else lo
    while it < used + budget:
        it += 1
        mid = 0.5 * (lo + hi)
        fm = F(mid)
        best = mid
        if abs(fm) <= tol:
            return mid, it
        if fm < 0.0:
            lo = mid
        else:
            hi = mid
    raise SecantError("bisection fallback exhausted its budget",
                      best=best, iterations=it)


def solve_xi_exact(u_tilde: np.ndarray, shift_base: np.ndarray, dt: float,
                   tab: BdfTableau, target_mass: float, g: Grid,
                   eps_lb: float = 0.0) -> float:
    """Exact scalar-multiplier solve by sorting the per-node clamp breakpoints.

    Node z leaves the clamp when xi exceeds
    t_z = shift_base(z) + (alpha/dt)(eps_lb - u~(z)); between consecutive
    breakpoints F is affine, so the segment containing the sign change is
    solved in closed form.  Used as the independent oracle for
    :func:`solve_xi_secant`.
    """
    act = g.active
    w = g.weights[act]
    tu = np.asarray(u_tilde, dtype=float)[act]
    sb = np.broadcast_to(shift_base, g.shape)[act].astype(float)
    r = dt / tab.alpha
    wtot = float(np.sum(w))
    floor_mass = eps_lb * wtot
    scale = max(1.0, abs(target_mass))
    if target_mass < floor_mass - 1e-12 * scale:
        raise ValueError(
            f"target mass {target_mass:g} below the clamp floor {floor_mass:g}")

    t_z = sb + (eps_lb - tu) / r
    order = np.argsort(t_z, kind="stable")
    ts = t_z[order]
    ws = w[order]
    gs = (tu - r * sb)[order] * ws

    cum_w = np.concatenate(([0.0], np.cumsum(ws)))
    cum_g = np.concatenate(([0.0], np.cumsum(gs)))
    # F at breakpoint ts[j], evaluated on the segment whose unclamped set is
    # every node with a strictly smaller breakpoint
    cnt = np.searchsorted(ts, ts, side="left")
    f_at = (cum_g[cnt] + r * ts * cum_w[cnt]
            + eps_lb * (wtot - cum_w[cnt]) - target_mass)

    pos = np.nonzero(f_at >= 0.0)[0]
    if pos.size == 0:
        # root beyond the last breakpoint: everything unclamped
        slope = r * cum_w[-1]
        return float((target_mass - cum_g[-1]) / slope)
    j = int(pos[0])
    m = cnt[j]
    slope = r * cum_w[m]
    if slope == 0.0:
        # all nodes clamped on this segment; only the floor-mass boundary works
        if abs(f_at[j]) <= 1e-12 * scale:
            return float(ts[j])
        raise ValueError("mass residual has no root: flat segment off target")
    return float(ts[j] - f_at[j] / slope)


# -- stepping -----------------------------------------------------------------


@dataclass
class StepOptions:
    k: int
    dt: float
    variant: str = VARIANT_MULTIPLIER
    eps_lb: float = 0.0
    target_mass: Optional[float] = None
    solver_tol: float = DEFAULT_TOL
    solver_maxit: int = DEFAULT_MAXIT
    secant_tol: float = DEFAULT_SECANT_TOL
    secant_maxit: int = DEFAULT_SECANT_MAXIT

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        bdf_tableau(self.k)
        for name in ("dt", "solver_tol", "secant_tol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in ("solver_maxit", "secant_maxit"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")


@dataclass
class StepDiagnostics:
    step: int
    t: float
    mass: float
    min_u: float
    max_u: float
    norm_u: float
    xi: float
    secant_iterations: int
    active_count: int
    solver_iterations: int
    solver_residual: float
    op_quad: float
    ledger_residual: float = float("nan")


def step(hist: History, model, opts: StepOptions, ledger=None):
    """Advance one step: predict, correct per variant, append to history.

    ``model`` supplies the operator handle and explicit source for the step
    (both may depend on the history).  Start-up runs at the highest order the
    history supports, capped at ``opts.k``.
    """
    k_eff = min(opts.k, hist.nstep + 1)
    tab = bdf_tableau(k_eff)
    g = hist.grid
    op = model.operator(hist, k_eff)
    source = model.explicit_source(hist, k_eff)

    u_tilde, report = predict(hist, tab, op, opts.dt, opts.variant, source,
                              solver_tol=opts.solver_tol,
                              solver_maxit=opts.solver_maxit)
    t_next = (hist.nstep + 1) * opts.dt
    # checked before the correction, whose clamp would turn NaN into eps_lb
    if not np.isfinite(u_tilde).all():
        raise BlowUpError(f"solution lost finiteness at t = {t_next:g}",
                          t=t_next)

    if opts.variant == VARIANT_NONE:
        out = CorrectionOutcome(u_tilde, np.zeros(g.shape), 0.0, 0, 0)
    else:
        out = correct_positivity(u_tilde, hist, tab, opts)

    op_quad = ledger_residual = float("nan")
    if ledger is not None:
        op_quad = op.quad(u_tilde)
        ledger.update(dt=opts.dt, u_prev=hist.us[0], u_tilde=u_tilde,
                      u_next=out.u_next, lam_next=out.lambda_next,
                      xi_next=out.xi_next, op_quad=op_quad)
        ledger_residual = ledger.residual_rel()

    act = g.active
    diag = StepDiagnostics(
        step=hist.nstep + 1,
        t=t_next,
        mass=g.mass(out.u_next),
        min_u=float(out.u_next[act].min()),
        max_u=float(out.u_next[act].max()),
        norm_u=g.norm(out.u_next),
        xi=out.xi_next,
        secant_iterations=out.secant_iterations,
        active_count=out.active_count,
        solver_iterations=report.iterations,
        solver_residual=float(report.residual),
        op_quad=op_quad,
        ledger_residual=ledger_residual,
    )
    hist.push(out.u_next, out.lambda_next, out.xi_next, opts.dt)
    return hist, diag


@dataclass
class RunResult:
    history: History
    diagnostics: list
    ledger: object = None
    failure: Optional[Exception] = None  # what ended the run early


def run_simulation(model, opts: StepOptions, n_steps: int,
                   ledger=None, on_step=None,
                   stop_on_failure: bool = True) -> RunResult:
    """Drive ``n_steps`` steps of ``model`` from its initial state.

    For the mass variant the target mass defaults to the mass of the initial
    state; ``opts`` itself is left unchanged, so one options object can drive
    runs of several models.  ``on_step(hist, diag)`` is invoked after every
    step.  With ``stop_on_failure=False`` a numerical failure ends the run
    early and its exception is recorded on the result as ``failure``
    instead of raising (used by the baseline comparison, where blow-up is
    an expected outcome).
    """
    g = model.grid
    u0 = model.initial_state()
    hist = History.start(g, u0)
    if opts.variant == VARIANT_MASS and opts.target_mass is None:
        opts = replace(opts, target_mass=g.mass(u0))
    diags = []
    for _ in range(n_steps):
        try:
            hist, diag = step(hist, model, opts, ledger=ledger)
        except (SolverError, SecantError, BlowUpError) as exc:
            if stop_on_failure:
                raise
            return RunResult(hist, diags, ledger, failure=exc)
        diags.append(diag)
        if on_step is not None:
            on_step(hist, diag)
    return RunResult(hist, diags, ledger)
