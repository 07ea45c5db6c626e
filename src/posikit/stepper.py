"""Predictor-corrector time stepping with pointwise multiplier corrections.

A step is a BDF-k prediction (:func:`predict`), a generic semi-implicit
scheme, and then, for every variant but ``none``, the one correction kernel
:func:`correct_positivity`, which enforces ``u >= eps_lb`` with exact
complementarity.  ``multiplier`` extrapolates the nodal multiplier into the
prediction; ``cutoff`` does not and only clamps (at k = 1 the bits of
``multiplier``); ``mass`` adds the scalar multiplier that keeps the weighted
mass; ``none`` is the uncorrected baseline.  A prediction that is not
finite ends the step with :class:`BlowUpError` before any correction.  The
order k is 1 or 2, and at k = 2 the first step runs at order 1.

:class:`StepOptions` is the scheme that the prediction, correction, ledgers
and studies all read; it and :class:`BdfTableau` are frozen, so one options
object can drive any number of runs, and all a run accumulates lives on its
:class:`History`, which is owned by that run alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .grid import Grid
from .operators import DEFAULT_TOL, Operator, SolverError, solve_operator

VARIANT_MULTIPLIER = "multiplier"
VARIANT_CUTOFF = "cutoff"
VARIANT_MASS = "mass"
VARIANT_NONE = "none"
VARIANTS = (VARIANT_MULTIPLIER, VARIANT_CUTOFF, VARIANT_MASS, VARIANT_NONE)

DEFAULT_SECANT_TOL = 1e-12
DEFAULT_SECANT_MAXIT = 50


class SecantError(RuntimeError):
    """The scalar-multiplier solve failed; carries the secant updates made."""

    def __init__(self, message, iterations=0):
        super().__init__(message)
        self.iterations = iterations


class BlowUpError(RuntimeError):
    """The solution lost finiteness (NaN/inf) during a step."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


# -- BDF tableaux -------------------------------------------------------------


@dataclass(frozen=True)
class BdfTableau:
    """Order k, shift alpha_k and the history weights of A_k."""

    k: int
    alpha: float
    a_coeffs: tuple[float, ...]


# weights of the order-j extrapolation from the j newest levels (newest
# first), indexed by j: none, u^n, 2u^n - u^(n-1), 3u^n - 3u^(n-1) + u^(n-2)
EXTRAPOLATION_COEFFS = ((), (1.0,), (2.0, -1.0), (3.0, -3.0, 1.0))

_TABLEAUX = {
    1: BdfTableau(1, 1.0, (1.0,)),
    2: BdfTableau(2, 3.0 / 2.0, (2.0, -1.0 / 2.0)),
}


def bdf_tableau(k: int) -> BdfTableau:
    if k not in _TABLEAUX:
        raise ValueError(f"BDF order must be 1 or 2, got {k}")
    return _TABLEAUX[k]


# -- history ------------------------------------------------------------------


def combine_levels(coeffs, levels) -> np.ndarray:
    """sum_i coeffs[i] * levels[i] over the leading levels, newest first;
    a level of weight -1 is subtracted, the bits of adding -1.0 * v."""
    out = coeffs[0] * levels[0]
    for c, v in zip(coeffs[1:], levels[1:]):
        if c == -1.0:
            out -= v
        else:
            out += c * v
    return out


@dataclass
class History:
    """All one run accumulates: the newest solution levels (newest first),
    as many as the step's :func:`_start_levels`,
    the newest multipliers ``lam`` (None before any step) and ``xi``, and
    ``target_mass``, the initial mass that the mass variant holds to."""

    grid: Grid
    us: list = field(default_factory=list)
    lam: Optional[np.ndarray] = None
    xi: float = 0.0
    target_mass: Optional[float] = None
    t: float = 0.0
    nstep: int = 0

    @classmethod
    def start(cls, g: Grid, u0: np.ndarray) -> "History":
        u0 = g.check_field(np.asarray(u0, dtype=float))
        return cls(grid=g, us=[u0], target_mass=g.mass(u0))

    def multiplier_load(self, tab: BdfTableau, variant: str) -> tuple:
        """The extrapolated multipliers a variant's step carries, as the
        pair (B_{k-1}(lam), B_{k-1}(xi)): the nodal one for ``multiplier``
        and ``mass``, the scalar one for ``mass`` only, None where absent.

        B_{k-1} is 0 at k = 1 and the newest level at k = 2.  The nodal
        load is for reading only: the level itself, so holding it through a
        step costs no field.  The scalar load is 0.0 + xi, which writes
        -0.0 as 0.0.
        """
        newest = tab.k == 2
        lam = xi = None
        if variant in (VARIANT_MULTIPLIER, VARIANT_MASS):
            if newest and self.lam is None:
                raise ValueError("not enough multiplier history for "
                                 "extrapolation")
            lam = self.lam if newest else 0.0
        if variant == VARIANT_MASS:
            xi = 0.0 + self.xi if newest else 0.0
        return lam, xi

    def push(self, u: np.ndarray, lam: np.ndarray, xi: float, dt: float,
             k: int = 2) -> None:
        """Prepend a step's levels, keeping k solution levels (:func:`step`
        passes its :func:`_start_levels`) and the newest multipliers (read
        by the caller at k = 1)."""
        self.us.insert(0, u)
        del self.us[k:]
        self.lam, self.xi = lam, float(xi)
        self.nstep += 1
        self.t = self.nstep * dt  # not a running sum, which drifts


@dataclass
class CorrectionOutcome:
    u_next: np.ndarray
    lambda_next: np.ndarray
    xi_next: float
    secant_iters: int
    active_count: int


# -- prediction ---------------------------------------------------------------


def _start_levels(op: Operator, k: int) -> int:
    """Solution levels the order-k prediction's start reads, once the
    history holds them, and so the levels the history keeps: 3 at k = 2
    for an operator whose variable-coefficient solve is the 2D edge-form
    CG (a coefficient field on a bounded 2D grid), k otherwise, as only
    there the quadratic start pays (README, numerical notes)."""
    g = op.grid
    bounded_2d = g.dim == 2 and not g.fully_periodic
    return 3 if k == 2 and op.coeff is not None and bounded_2d else k


def predict(hist: History, tab: BdfTableau, op: Operator, opts: StepOptions,
            source: Optional[np.ndarray] = None):
    """BDF-k IMEX prediction under ``opts``; returns (u~, SolverReport).

    The multiplier load of :meth:`History.multiplier_load` and the explicit
    model ``source`` (evaluated at the extrapolated state) enter the right
    side.  The solve starts from the extrapolation of the newest
    :func:`_start_levels` levels the history holds, formed only for an
    operator with a coefficient field: the transform pass ignores a start.
    """
    lam, xi = hist.multiplier_load(tab, opts.variant)
    if len(hist.us) < tab.k:
        raise ValueError(f"history holds {len(hist.us)} levels, "
                         f"BDF-{tab.k} needs {tab.k}")
    rhs = combine_levels(tab.a_coeffs, hist.us)
    rhs /= opts.dt
    for load in (lam, xi, source):
        if load is not None:
            rhs += load
    x0 = None
    if op.coeff is not None:
        levels = min(_start_levels(op, tab.k), len(hist.us))
        x0 = combine_levels(EXTRAPOLATION_COEFFS[levels], hist.us)
    u_tilde, report = solve_operator(tab.alpha / opts.dt, op, rhs,
                                     tol=opts.solver_tol, x0=x0)
    if not report.converged:
        raise SolverError(
            f"prediction solve failed: {report.iterations} iterations, "
            f"relative residual {report.residual:.3e}", report=report,
            iterate=u_tilde)
    return u_tilde, report


# -- corrections --------------------------------------------------------------


def correct_positivity(u_tilde: np.ndarray, hist: History, tab: BdfTableau,
                       opts: StepOptions) -> CorrectionOutcome:
    """Pointwise correction enforcing u >= eps_lb, for every corrected variant.

    The variants differ only in the shift s added to the prediction: 0 for
    ``cutoff``, -(dt/alpha) B_{k-1}(lam) for ``multiplier``, and
    (dt/alpha)(xi - B_{k-1}(lam) - B_{k-1}(xi)) for ``mass``, with xi the
    root of :func:`residual_F` by :func:`solve_xi_secant`, or by
    :func:`solve_xi_exact` where the secant fails.  With base = u~ + s, nodes
    where base >= eps_lb keep (base, 0); the others get
    (eps_lb, (alpha/dt)(eps_lb - base)).  Exact ties land on the unclamped
    branch so active_count counts strict clamps only: for finite u~ the
    kernel's u = max(eps_lb, base), lam = (alpha/dt)(u - base) gives the
    bits of that select, signed zeros included (README, numerical notes).
    """
    g = hist.grid
    u_tilde = g.check_field(u_tilde)
    dt, eps_lb = opts.dt, opts.eps_lb
    lam_load, xi_load = hist.multiplier_load(tab, opts.variant)
    xi, iters = 0.0, 0
    if opts.variant == VARIANT_CUTOFF:
        base = u_tilde
    elif opts.variant == VARIANT_MASS:
        target = hist.target_mass
        if target is None:
            raise ValueError("mass variant needs the history's target_mass")
        shift_base = lam_load + xi_load
        tol = opts.secant_tol * max(1.0, abs(target))

        def F(x: float) -> float:
            return residual_F(x, u_tilde, shift_base, dt, tab, target, g,
                              eps_lb)

        try:
            xi, iters = solve_xi_secant(F, 0.0, -dt, tol=tol)
        except SecantError as exc:  # a flat step or the budget used up
            iters = exc.iterations
            try:
                xi = solve_xi_exact(u_tilde, shift_base, dt, tab, target, g,
                                    eps_lb)
            except ValueError as err:  # the residual has no root
                raise SecantError(str(err), iters) from err
        base = u_tilde + (dt / tab.alpha) * (xi - shift_base)
    else:
        base = u_tilde - (dt / tab.alpha) * lam_load
    # on a tie, ±0 included, np.maximum returns its second operand
    # (test_numpy_maximum_returns_its_second_operand_on_zero_ties)
    u = np.maximum(eps_lb, base)
    lam = u - base
    if not g.all_active:
        for a in (u, lam):
            g.zero_excluded(a)
    active_count = int(np.count_nonzero(lam))
    lam *= tab.alpha / dt
    return CorrectionOutcome(u, lam, float(xi), iters, active_count)


def residual_F(xi: float, u_tilde: np.ndarray, shift_base: np.ndarray,
               dt: float, tab: BdfTableau, target_mass: float, g: Grid,
               eps_lb: float = 0.0) -> float:
    """Mass residual of the corrected state at scalar multiplier value xi.

    shift_base is the extrapolated multiplier load B_{k-1}(lam) + B_{k-1}(xi);
    the per-node shift is eta = (dt/alpha)(xi - shift_base).  F is continuous,
    piecewise linear and nondecreasing in xi.
    """
    vals = xi - shift_base  # eta, then u~ + eta, in one temporary
    vals *= dt / tab.alpha
    vals += u_tilde
    # bitwise the sum of w * where(vals > eps_lb, vals, eps_lb)
    np.maximum(vals, eps_lb, out=vals)
    vals *= g.weights
    return float(np.add.reduce(vals, None) - target_mass)


def solve_xi_secant(F: Callable[[float], float], xi0: float, xi1: float,
                    tol: float = DEFAULT_SECANT_TOL,
                    maxit: int = DEFAULT_SECANT_MAXIT) -> tuple[float, int]:
    """Secant root search for a continuous nondecreasing F; returns
    (xi, updates).

    The second point is ``xi1`` if it lies on the root's side of ``xi0``
    (below it where F(xi0) > 0, above it where F(xi0) < 0), else its mirror
    image ``2 xi0 - xi1``.  A flat step (equal residuals at the two newest
    points) or an exhausted ``maxit`` raises :class:`SecantError` with the
    updates made; :func:`correct_positivity` then takes the exact solve.
    """
    f0 = F(xi0)
    if abs(f0) <= tol:
        return xi0, 0
    if (f0 > 0.0) == (xi1 > xi0):
        xi1 = 2.0 * xi0 - xi1
    f1 = F(xi1)
    if abs(f1) <= tol:
        return xi1, 0
    a, fa, b, fb = xi0, f0, xi1, f1
    for it in range(1, maxit + 1):
        if fb == fa:
            raise SecantError("secant step is flat", iterations=it - 1)
        xn = b - fb * (b - a) / (fb - fa)
        fn = F(xn)
        a, fa = b, fb
        b, fb = xn, fn
        if abs(fn) <= tol:
            return xn, it
    raise SecantError(f"secant did not reach |F| <= {tol:g} in {maxit} updates",
                      iterations=maxit)


def solve_xi_exact(u_tilde: np.ndarray, shift_base: np.ndarray, dt: float,
                   tab: BdfTableau, target_mass: float, g: Grid,
                   eps_lb: float = 0.0) -> float:
    """Exact scalar-multiplier solve by sorting the per-node clamp breakpoints.

    Node z leaves the clamp when xi exceeds
    t_z = shift_base(z) + (alpha/dt)(eps_lb - u~(z)); between consecutive
    breakpoints F is affine, so the segment containing the sign change is
    solved in closed form.  The secant's fallback and test oracle; a target
    with no root raises ValueError.
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


@dataclass(frozen=True)
class StepOptions:
    """The scheme; frozen, so all holders of one options object agree."""

    k: int
    dt: float
    variant: str = VARIANT_MULTIPLIER
    eps_lb: float = 0.0
    solver_tol: float = DEFAULT_TOL
    secant_tol: float = DEFAULT_SECANT_TOL

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        bdf_tableau(self.k)
        for name in ("dt", "solver_tol", "secant_tol"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        if not 0 <= self.eps_lb < math.inf:
            raise ValueError("eps_lb must be finite and nonnegative")


def _field_stats(g: Grid, u: np.ndarray) -> tuple:
    """Mass, min and max over the active nodes (a view), and norm of ``u``,
    from one weighted product the bits of ``Grid.mass`` and ``Grid.norm``."""
    p = g.weights * u
    mass = float(np.add.reduce(p, None))
    p *= u
    u_act = u[g.active_block]
    return (mass, float(u_act.min()), float(u_act.max()),
            math.sqrt(np.add.reduce(p, None)))


@dataclass
class StepDiagnostics:
    """What one step did; ``run.csv`` writes the fields named in
    :data:`~posikit.diagnostics.RUN_COLUMNS`, an ``int`` as an integer."""

    step: int
    t: float
    mass: float
    min_u: float
    max_u: float
    norm_u: float
    xi: float
    secant_iters: int
    active_count: int
    solver_iters: int
    solver_residual: float
    op_quad: float
    ledger_residual: float = float("nan")

    @classmethod
    def initial(cls, g: Grid, u0: np.ndarray) -> "StepDiagnostics":
        """The t = 0 record of a run from ``u0``: counts and residuals 0."""
        return cls(0, 0.0, *_field_stats(g, u0), 0.0, 0, 0, 0, 0.0,
                   float("nan"), 0.0)


def step(hist: History, model, opts: StepOptions, ledger=None):
    """Advance one step: predict, correct per variant, append to history.

    ``model`` supplies the operator handle and explicit source for the step
    (both may depend on the history).  Start-up runs at the highest order the
    history supports, capped at ``opts.k``.  A ``ledger`` must be built for
    ``opts`` and have seen every earlier step of the run.
    """
    if ledger is not None and ledger.opts is not opts and ledger.opts != opts:
        raise ValueError(f"ledger built for {ledger.opts}, not {opts}")
    if ledger is not None and ledger.nsteps != hist.nstep:
        raise ValueError(f"ledger has seen {ledger.nsteps} steps, the run "
                         f"{hist.nstep}; it must follow one run from step 0")
    k_eff = min(opts.k, len(hist.us))
    tab = bdf_tableau(k_eff)
    g = hist.grid
    op = model.operator(hist, k_eff)
    source = model.explicit_source(hist, k_eff)

    u_tilde, report = predict(hist, tab, op, opts, source)
    t_next = (hist.nstep + 1) * opts.dt
    # checked before the correction, whose clamp would turn NaN into eps_lb
    if not np.isfinite(u_tilde).all():
        raise BlowUpError(f"solution lost finiteness at t = {t_next:g}",
                          t=t_next)
    # the report's L u~ and spectra are read here, freed before the correction
    op_quad = (float("nan") if ledger is None
               else op.quad(u_tilde, report.spectrum, report.applied))
    solver = report.iterations, float(report.residual)
    del report

    if opts.variant == VARIANT_NONE:
        out = CorrectionOutcome(u_tilde, np.zeros(g.shape), 0.0, 0, 0)
    else:
        out = correct_positivity(u_tilde, hist, tab, opts)

    stats = _field_stats(g, out.u_next)
    ledger_residual = float("nan")
    if ledger is not None:
        ledger.update(u_prev=hist.us[0], u_tilde=u_tilde, u_next=out.u_next,
                      lam_next=out.lambda_next, xi_next=out.xi_next,
                      op_quad=op_quad, um_norm=stats[3], source=source)
        ledger_residual = ledger.residual_rel()

    hist.push(out.u_next, out.lambda_next, out.xi_next, opts.dt,
              _start_levels(op, opts.k))
    diag = StepDiagnostics(hist.nstep, t_next, *stats, out.xi_next,
                           out.secant_iters, out.active_count, *solver,
                           op_quad, ledger_residual)
    return hist, diag


@dataclass
class RunResult:
    history: History
    diagnostics: list
    failure: Optional[Exception] = None  # what ended the run early


def run_simulation(model, opts: StepOptions, n_steps: int,
                   ledger=None, on_step=None,
                   stop_on_failure: bool = True) -> RunResult:
    """Drive ``n_steps`` steps of ``model`` from its initial state.

    The run's :class:`History` holds its state, the mass variant's target
    (the initial mass) included.  ``on_step(hist, diag)`` is invoked after
    every step.  With ``stop_on_failure=False`` a numerical failure ends the
    run early and its exception is recorded on the result as ``failure``
    instead of raising (used by the baseline comparison, where blow-up is
    an expected outcome).
    """
    # only the history holds the initial field, which it soon drops
    hist = History.start(model.grid, model.initial_state())
    diags = []
    for _ in range(n_steps):
        try:
            hist, diag = step(hist, model, opts, ledger=ledger)
        except (SolverError, SecantError, BlowUpError) as exc:
            if stop_on_failure:
                raise
            return RunResult(hist, diags, failure=exc)
        diags.append(diag)
        if on_step is not None:
            on_step(hist, diag)
    return RunResult(hist, diags)
