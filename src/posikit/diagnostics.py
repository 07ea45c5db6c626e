"""Runtime stability ledgers, constraint audits, and the convergence harness.

The first- and second-order step variants satisfy discrete energy statements
when the operator is conservative and positive semidefinite; this module
accumulates the corresponding quantities during a run and exposes their
residual, so stability is checked numerically instead of assumed.  The
scheme, one :class:`~posikit.stepper.StepOptions`, decides the statement:

* first-order multiplier and cut-off: the energy balance is an exact
  identity; residual is its absolute defect.
* first-order mass variant, and both second-order variants (multiplier and
  mass): inequalities; residual is the positive part of (LHS - RHS).

At k = 1 the statements read sums of the increments ``||u~ - u^n||^2``,
of ``dt^2 ||lam (+xi)||^2``, of ``dt <L u~, u~>`` and of the supply
``2 dt (<f, u~> + eps_lb <lam, 1>)`` of a source f and a floor; at k = 2 the
sum of ``dt <L u~, u~>`` and the newest ``||u^{n+1}||``, ``||lam (+xi)||``.
Both second-order forms assume the run started with a first-order step,
which is what the stepper's start-up cascade produces.  A convergence
study takes its scheme the same way, as options whose step it replaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Optional, get_type_hints

import numpy as np

from .grid import Grid
from .stepper import (StepDiagnostics, StepOptions, VARIANT_CUTOFF,
                      VARIANT_MASS, VARIANT_MULTIPLIER, run_simulation)

# the schemes with an energy statement, as (variant, k): the cut-off
# variant has one only at k = 1, where it steps as the multiplier variant
_STATEMENTS = frozenset({(VARIANT_MULTIPLIER, 1), (VARIANT_CUTOFF, 1),
                         (VARIANT_MASS, 1), (VARIANT_MULTIPLIER, 2),
                         (VARIANT_MASS, 2)})


def has_energy_statement(opts: StepOptions) -> bool:
    """Whether the scheme ``opts`` has an energy statement for a ledger.

    The mass statements hold only when the PDE conserves mass: flux through
    a Dirichlet end drains mass, the mass variant puts it back with xi > 0,
    and the ledger flags the run (residual of order 1, not 1e-8).
    """
    return (opts.variant, opts.k) in _STATEMENTS


class EnergyLedger:
    """Energy-balance terms of one run of the scheme ``opts``, from its
    first step on; :func:`~posikit.stepper.step` rejects any other use.
    A k = 1 step adds to the sums of increments, multipliers and supply, a
    k = 2 step forms only the multiplier norm; both sum ``dt <L u~, u~>``."""

    def __init__(self, g: Grid, opts: StepOptions):
        if not has_energy_statement(opts):
            raise ValueError(f"no energy statement for the {opts.variant!r} "
                             f"variant at k = {opts.k}")
        if opts.dt * opts.dt == math.inf:  # where dt**2 would raise
            raise ValueError(f"dt = {opts.dt!r}: its square overflows")
        self.grid = g
        self.opts = opts
        self.with_xi = opts.variant == VARIANT_MASS
        self.nsteps = 0
        self.u0_norm2 = None
        self.rhs_second = None       # ||2 u^1 - u^0||^2 + 4 ||u^0||^2
        self.sum_increments = 0.0    # sum ||u~^{n+1} - u^n||^2
        self.sum_mult2 = 0.0         # sum dt^2 ||lam (+xi)||^2
        self.sum_supply = 0.0        # sum 2 dt (<f, u~> + eps_lb <lam, 1>)
        self.sum_quad = 0.0          # sum dt <L u~, u~>
        self.um_norm2 = 0.0
        self.mult_m_norm2 = 0.0

    def update(self, u_prev: np.ndarray, u_tilde: np.ndarray,
               u_next: np.ndarray, lam_next: np.ndarray, xi_next: float,
               op_quad: float, um_norm: float,
               source: Optional[np.ndarray]) -> None:
        """Take in one step with its ||u^{n+1}|| and its source (or None)."""
        g, opts = self.grid, self.opts
        dt = opts.dt
        if self.nsteps == 0:
            self.u0_norm2 = g.norm(u_prev) ** 2
        mult = lam_next + xi_next if self.with_xi else lam_next
        self.mult_m_norm2 = g.norm(mult) ** 2
        self.sum_quad += dt * op_quad
        if opts.k == 1:
            self.sum_increments += g.norm(u_tilde - u_prev) ** 2
            self.sum_mult2 += dt**2 * self.mult_m_norm2
            if source is not None:
                self.sum_supply += 2.0 * dt * g.inner(source, u_tilde)
            if opts.eps_lb > 0.0:
                self.sum_supply += 2.0 * dt * opts.eps_lb * g.mass(lam_next)
        self.um_norm2 = um_norm ** 2
        self.nsteps += 1
        if self.nsteps == 1 and opts.k == 2:
            self.rhs_second = (g.norm(2.0 * u_next - u_prev) ** 2
                               + 4.0 * self.u0_norm2)

    def residual(self) -> float:
        """Defect of the energy statement after the steps seen so far."""
        if self.nsteps == 0:
            return 0.0
        if self.opts.k == 1:
            lhs = (self.um_norm2 + self.sum_increments + self.sum_mult2
                   + 2.0 * self.sum_quad)
            defect = lhs - self.u0_norm2 - self.sum_supply
            return max(defect, 0.0) if self.with_xi else abs(defect)
        lhs = (4.0 * self.um_norm2
               + (4.0 / 3.0) * self.opts.dt**2 * self.mult_m_norm2
               + 4.0 * self.sum_quad)
        return max(lhs - self.rhs_second, 0.0)

    def residual_rel(self) -> float:
        if self.nsteps == 0 or not self.u0_norm2:
            return 0.0
        r = self.residual()
        return r / self.u0_norm2 if math.isfinite(r) else float("nan")


# -- constraint audit -----------------------------------------------------------


@dataclass
class KktReport:
    worst_negative_multiplier: float   # max(0, -min lam)
    worst_bound_violation: float       # max(0, eps_lb - min u)
    worst_complementarity: float       # max |lam * (u - eps_lb)|
    violations: int

    @property
    def ok(self) -> bool:
        return self.violations == 0


def kkt_audit(u: np.ndarray, lam: np.ndarray, eps_lb: float,
              g: Grid) -> KktReport:
    """Check lam >= 0, u >= eps_lb and exact complementarity on active nodes."""
    act = g.active
    ua, la = np.asarray(u)[act], np.asarray(lam)[act]
    comp = la * (ua - eps_lb)
    neg_mult = max(0.0, float(-la.min())) if la.size else 0.0
    bound = max(0.0, float(eps_lb - ua.min())) if ua.size else 0.0
    worst_comp = float(np.abs(comp).max()) if comp.size else 0.0
    violations = int(np.count_nonzero(la < 0) + np.count_nonzero(ua < eps_lb)
                     + np.count_nonzero(comp != 0.0))
    return KktReport(neg_mult, bound, worst_comp, violations)


# -- convergence study ------------------------------------------------------------


@dataclass
class ConvergenceRow:
    dt: float
    error: float
    order: float  # NaN on the first row


# The default reference of a convergence study.  It is the multiplier
# variant: the cut-off variant carries a first-order error component at
# clamped nodes (its per-step clamp discards an O(dt) mass without
# feedback), so a cut-off reference would floor a second-order study near
# 3e-7 on the stock phase-field setup.  Measured against a same-family
# reference the expected orders are recovered on the whole step-size range.
DEFAULT_REFERENCE = StepOptions(k=2, dt=1e-6)


def horizon_steps(horizon: float, dt: float) -> int:
    """Steps of ``dt`` to the horizon: at least one, a whole number to 1e-9."""
    if horizon < dt:
        raise ValueError("horizon must be at least one step")
    if horizon / dt == math.inf:  # where round() would raise
        raise ValueError(f"horizon {horizon!r} over dt = {dt!r} overflows")
    n_steps = int(round(horizon / dt))
    if abs(n_steps * dt - horizon) > 1e-9 * horizon:
        raise ValueError(f"horizon {horizon!r} is not an integer number of "
                         f"steps of dt = {dt!r}")
    return n_steps


def fit_orders(dts, errors) -> list[float]:
    """Pairwise observed orders, matching consecutive table rows."""
    orders = [float("nan")]
    for i in range(1, len(dts)):
        orders.append(math.log(errors[i - 1] / errors[i])
                      / math.log(dts[i - 1] / dts[i]))
    return orders


def check_study_steps(dts, ref_dt: Optional[float] = None) -> None:
    """A convergence study's step sizes are strictly decreasing, and the
    reference step ``ref_dt``, if given, lies below them all."""
    if any(b >= a for a, b in zip(dts, dts[1:])):
        raise ValueError("step sizes must be strictly decreasing")
    if ref_dt is not None and ref_dt >= min(dts):
        raise ValueError(f"reference dt {ref_dt!r} not below the study steps")


def convergence_study(model, opts: StepOptions, dts, reference,
                      horizon: float) -> list[ConvergenceRow]:
    """Temporal convergence table of the scheme ``opts`` against a fine
    reference solution at ``horizon``.

    Each study run is ``opts`` at one of the step sizes ``dts``, which must
    pass :func:`check_study_steps`; ``opts.dt`` itself is not run.
    ``reference`` is either the :class:`~posikit.stepper.StepOptions` of the
    reference run (for example :data:`DEFAULT_REFERENCE`), computed once, or
    a precomputed final-state array.  Errors are the max-norm over active
    nodes.
    """
    dts = list(dts)
    if isinstance(reference, StepOptions):
        check_study_steps(dts, reference.dt)
        u_ref = run_simulation(model, reference, horizon_steps(
            horizon, reference.dt)).history.us[0]
    else:
        check_study_steps(dts)
        u_ref = np.asarray(reference)
    act = model.grid.active
    errors = []
    for dt in dts:
        u = run_simulation(model, replace(opts, dt=dt),
                           horizon_steps(horizon, dt)).history.us[0]
        errors.append(float(np.abs((u - u_ref)[act]).max()))
    orders = fit_orders(dts, errors)
    return [ConvergenceRow(dt, e, o) for dt, e, o in zip(dts, errors, orders)]


# -- CSV emission -----------------------------------------------------------------

# the run.csv columns, each a StepDiagnostics field; perfbench/gates.py
# reads the first nine by name
RUN_COLUMNS = ("t", "mass", "min_u", "max_u", "norm_u", "xi", "secant_iters",
               "active_count", "ledger_residual", "solver_iters",
               "solver_residual")
_INT_FIELDS = {name for name, tp in get_type_hints(StepDiagnostics).items()
               if tp is int}


def _cells(row, ints) -> str:
    return ",".join(str(int(v)) if i in ints
                    else "" if v is None
                    else v if type(v) is str
                    else repr(float(v)) for i, v in enumerate(row))


def write_csv(path, header, rows, int_columns=()) -> None:
    """Write ``rows`` under ``header``: a column in ``int_columns`` as
    integers, None as a blank, text as it is, and any other value as the
    repr of the float it equals (a numpy scalar's too)."""
    ints = frozenset(i for i, c in enumerate(header) if c in int_columns)
    # fast path (every run.csv row): plain ints and floats in columns of
    # their kind are their reprs.  A list, not a tuple: CPython's free list
    # keeps the resized 11-tuples a map builds (+256 KiB RSS at 10k rows).
    kinds = [int if i in ints else float for i in range(len(header))]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines((",".join(map(repr, row))
                       if list(map(type, row)) == kinds
                       else _cells(row, ints)) + "\n" for row in rows)


def write_run_csv(path, diags) -> None:
    """One row of :data:`RUN_COLUMNS` per step record in ``diags``."""
    write_csv(path, RUN_COLUMNS, map(attrgetter(*RUN_COLUMNS), diags),
              _INT_FIELDS)


def write_convergence_csv(path, rows) -> None:
    """The study table; the first row, which has no order, leaves it blank."""
    write_csv(path, ("dt", "error", "order"),
              ((r.dt, r.error, None if math.isnan(r.order) else r.order)
               for r in rows))
