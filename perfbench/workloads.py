"""The benchmark's workloads and the `solve` configs generated for a seed.

Each workload is one `posikit solve` config; why each one is in the
benchmark is recorded in ``BENCHMARK.json``.  Seed 0 runs the base
parameters below.  Other seeds scale one physical parameter that the config
format already has by ``JITTER[seed % 8] * jitter_pct`` percent; the eight
levels each have a stored reference output (``reference.npz``, written by
``make_reference.py``).  Step size and step count are never jittered: the
horizon is always ``n_steps * dt``.

The jitter may change the inputs but not the cost of a solve by more than a
few percent, or the spread between seeds would hide a regression.  The
thin film is the exception that needs a small step: its Krylov iterations
past touchdown move by about 4 % per 1 % of the mobility exponent ``rho``,
so it is jittered by at most 0.3 %.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

JITTER = (0.0, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0, 1.5)

# Largest relative max-norm distance of a final field from its stored
# reference, per workload: ten times the distance between the default solve
# (solver_tol 1e-10) and one at solver_tol 1e-12, and at least 1e-8, which
# is ten times the distance measured on a Krylov workload and leaves the
# exact transform solves (distance 0) room for another rounding order.
# Measured at seed 0: thinfilm 1.9e-10, pme1d 3.2e-8, pme2d 5.6e-9,
# allencahn and pnp 0.  A solve loosened to solver_tol 1e-8 moves the
# three Krylov workloads by 2.0e-7, 3.8e-6 and 2.8e-7, past each bound.
REFERENCE_TOL = {"thinfilm-touchdown": 1e-8, "pme1d-mass": 4e-7,
                 "pme2d-mass": 6e-8, "allencahn-ledger": 1e-8,
                 "pnp-neumann": 1e-8}

# regime a run must show in its run.csv, whatever the seed
REGIME_CLAMPS = "clamps"          # some step has active_count > 0
REGIME_SECANT = "secant"          # some step makes secant updates


@dataclass(frozen=True)
class Workload:
    name: str
    params: tuple            # (key, value) pairs of the config, in order
    jitter_key: str          # the physical parameter other seeds scale
    jitter_pct: float        # percent per jitter unit
    dt: float
    n_steps: int
    eps_lb: float            # lower bound the run must keep
    mass: bool               # mass variant: mass drift is gated
    ledger: bool             # `solve` attaches an energy ledger
    regime: Optional[str]
    stride: int              # reference keeps every stride-th node per axis

    @property
    def horizon(self) -> float:
        return self.n_steps * self.dt

    @property
    def two_species(self) -> bool:
        return dict(self.params)["model"] == "pnp"


WORKLOADS = {w.name: w for w in (
    Workload(
        name="thinfilm-touchdown",
        params=(("model", "lubrication"), ("rho", 0.5), ("reg", "floor"),
                ("eps_lb", 1e-4), ("nx", 256), ("k", 2), ("variant", "mass")),
        jitter_key="rho", jitter_pct=0.1, dt=2e-7, n_steps=4000,
        eps_lb=1e-4, mass=True, ledger=True, regime=REGIME_CLAMPS, stride=1),
    Workload(
        name="pme1d-mass",
        params=(("model", "pme"), ("m", 5), ("C", 1.0), ("nx", 256),
                ("k", 2), ("variant", "mass")),
        jitter_key="C", jitter_pct=1.0, dt=1e-3, n_steps=2000,
        eps_lb=0.0, mass=True, ledger=True, regime=None, stride=1),
    Workload(
        name="pme2d-mass",
        params=(("model", "pme"), ("m", 5), ("C", 1.0), ("nx", 128),
                ("ny", 128), ("k", 2), ("variant", "mass")),
        jitter_key="C", jitter_pct=1.0, dt=1e-3, n_steps=200,
        eps_lb=0.0, mass=True, ledger=True, regime=REGIME_SECANT, stride=8),
    Workload(
        name="allencahn-ledger",
        params=(("model", "allen_cahn"), ("eps2", 1e-3), ("nx", 32),
                ("k", 2), ("variant", "multiplier")),
        jitter_key="eps2", jitter_pct=1.0, dt=1e-6, n_steps=10000,
        eps_lb=0.0, mass=False, ledger=True, regime=REGIME_CLAMPS, stride=2),
    Workload(
        name="pnp-neumann",
        params=(("model", "pnp"), ("eps_debye", 0.1), ("nx", 64), ("k", 2),
                ("variant", "mass")),
        jitter_key="eps_debye", jitter_pct=1.0, dt=1e-3, n_steps=1000,
        eps_lb=0.0, mass=True, ledger=False, regime=None, stride=4),
)}


def jitter_level(seed: int) -> int:
    return seed % len(JITTER)


def config_text(w: Workload, seed: int) -> str:
    """The `key = value` config of workload ``w`` for ``seed``."""
    factor = 1.0 + JITTER[jitter_level(seed)] * w.jitter_pct / 100.0
    horizon = repr(w.horizon)
    # `solve` takes round(T / dt) steps without a word; refuse a horizon
    # that is not n_steps * dt up to rounding
    if abs(float(horizon) / w.dt - w.n_steps) > 1e-9 * w.n_steps:
        raise ValueError(f"{w.name}: T = {horizon} is not {w.n_steps} * dt")
    lines = [f"# perfbench workload {w.name}, seed {seed}"]
    for key, value in w.params:
        if key == w.jitter_key:
            value = repr(value * factor)
        lines.append(f"{key} = {value}")
    lines.append(f"dt = {w.dt!r}")
    lines.append(f"T = {horizon}")
    return "\n".join(lines) + "\n"
