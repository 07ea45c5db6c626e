"""Positivity- and mass-preserving predictor-corrector time integration.

A generic semi-implicit BDF-k prediction step is followed by a pointwise
correction that enforces nonnegativity (or a positive floor) through a nodal
multiplier field satisfying exact complementarity, with an optional scalar
multiplier that restores conservation of the weighted mass.  Ships with four
model problems, runtime stability ledgers, and a convergence-study harness.
"""

from .grid import Grid, build_grid, write_snapshot
from .operators import (Operator, SolverError, SolverReport,
                        solve_conservative_poisson, solve_operator)
from .stepper import (BdfTableau, BlowUpError, CorrectionOutcome, History,
                      RunResult, SecantError, StepDiagnostics, StepOptions,
                      bdf_tableau, correct_positivity, predict, residual_F,
                      run_simulation, solve_xi_exact, solve_xi_secant, step)
from .models import (AllenCahnModel, LubricationModel, PnpModel,
                     PorousMediumModel, barenblatt, lubrication_f_eta,
                     pme_operator, pnp_step, run_pnp)
from .diagnostics import (DEFAULT_REFERENCE, ConvergenceRow, EnergyLedger,
                          KktReport, convergence_study, has_energy_statement,
                          kkt_audit)

__version__ = "0.1.0"
