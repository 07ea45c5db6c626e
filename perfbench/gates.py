"""Correctness gates on the files one `posikit solve` run wrote.

The gates come from the package's acceptance criteria.  They read only the
CLI's output files, never posikit itself, so a change to the package cannot
change what they accept.
"""

from __future__ import annotations

import hashlib
import os
import sys

import numpy as np

from workloads import (REFERENCE_TOL, REGIME_CLAMPS, REGIME_SECANT, Workload,
                       jitter_level)

MASS_DRIFT_TOL = 1e-10
LEDGER_TOL = 1e-8
REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.npz")

_COL = {name: i for i, name in enumerate(
    "t,mass,min_u,max_u,norm_u,xi,secant_iters,active_count,"
    "ledger_residual".split(","))}


def read_run_csv(path) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    if header[:len(_COL)] != list(_COL):
        raise ValueError(f"{path}: unexpected header {header}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def read_snapshot(path) -> tuple[np.ndarray, float]:
    with open(path) as fh:
        header = fh.readline().split()
        values = np.array([float(line) for line in fh])
    shape = tuple(int(s) for s in header[:-1])
    return values.reshape(shape), float(header[-1])


def sample(w: Workload, u: np.ndarray) -> np.ndarray:
    """The nodes of a final field that the reference keeps."""
    return np.ascontiguousarray(u[(slice(None, None, w.stride),) * u.ndim])


def reference_key(w: Workload, seed: int) -> str:
    return f"{w.name}/{jitter_level(seed)}"


def output_digest(out_dir) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode())
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def final_field(w: Workload, out_dir) -> tuple[np.ndarray, float]:
    name = "p_final.txt" if w.two_species else "u_final.txt"
    return read_snapshot(os.path.join(out_dir, name))


def pnp_initial_mass(w: Workload) -> float:
    """Mass of each pnp species at t = 0.

    ``run_p.csv`` and ``run_n.csv`` start after the first step, so the drift
    gate needs this baseline from elsewhere: the initial state is the
    indicator of the disc x^2 + y^2 <= 1/4 on the Neumann grid of
    (-1, 1)^2, whose trapezoid weights are h inside and h/2 on the edges.
    """
    n = dict(w.params)["nx"]
    h = 2.0 / n
    x = -1.0 + h * np.arange(n + 1)
    weights = np.full(n + 1, h)
    weights[0] = weights[-1] = 0.5 * h
    X, Y = np.meshgrid(x, x, indexing="ij")
    disc = (X**2 + Y**2 <= 0.25).astype(float)
    return float(np.sum(np.multiply.outer(weights, weights) * disc))


def check(w: Workload, seed: int, out_dir, reference=None) -> list[str]:
    """Every gate the run in ``out_dir`` fails, as one message each."""
    errors = []
    T = w.horizon
    # the clock accumulates t += dt once per step
    t_tol = w.n_steps * np.finfo(float).eps * T
    logs = ("run_p.csv", "run_n.csv") if w.two_species else ("run.csv",)
    for log in logs:
        rows = read_run_csv(os.path.join(out_dir, log))
        expect = w.n_steps if w.two_species else w.n_steps + 1
        if len(rows) != expect:
            errors.append(f"{log}: {len(rows)} rows, expected {expect}")
            continue
        t = rows[:, _COL["t"]]
        if abs(t[-1] - T) > t_tol:
            errors.append(f"{log}: final t {t[-1]!r} is not the horizon {T!r}")
        min_u = rows[:, _COL["min_u"]].min()
        if not min_u >= w.eps_lb:
            errors.append(f"{log}: min_u {min_u!r} below eps_lb {w.eps_lb!r}")
        if w.mass:
            mass = rows[:, _COL["mass"]]
            mass0 = pnp_initial_mass(w) if w.two_species else mass[0]
            drift = float(np.abs(mass - mass0).max() / abs(mass0))
            if not drift <= MASS_DRIFT_TOL:
                errors.append(f"{log}: relative mass drift {drift:.3e}")
        ledger = rows[1:, _COL["ledger_residual"]]
        if w.ledger:
            if not np.isfinite(ledger).all():
                errors.append(f"{log}: no ledger residual recorded")
            elif not ledger.max() <= LEDGER_TOL:
                errors.append(f"{log}: ledger residual {ledger.max():.3e}")
        if (w.regime == REGIME_CLAMPS
                and not rows[:, _COL["active_count"]].max() > 0):
            errors.append(f"{log}: no node was clamped (regime lost)")
        if (w.regime == REGIME_SECANT
                and not rows[:, _COL["secant_iters"]].sum() > 0):
            errors.append(f"{log}: no secant update (regime lost)")

    u, t_snap = final_field(w, out_dir)
    if abs(t_snap - T) > t_tol:
        errors.append(f"final snapshot at t = {t_snap!r}, not {T!r}")
    if w.two_species:
        for a, b in (("p_final.txt", "n_final.txt"),
                     ("run_p.csv", "run_n.csv")):
            with open(os.path.join(out_dir, a), "rb") as fa, \
                    open(os.path.join(out_dir, b), "rb") as fb:
                if fa.read() != fb.read():
                    errors.append(f"{a} and {b} differ (p == n must hold "
                                  "bitwise)")
        phi, _ = read_snapshot(os.path.join(out_dir, "phi_final.txt"))
        if np.abs(phi).max() != 0.0:
            errors.append(f"max|phi| = {np.abs(phi).max():.3e}, expected 0")

    if reference is not None:
        key = reference_key(w, seed)
        if key not in reference:
            errors.append(f"no stored reference for {key}")
        else:
            ref = reference[key]
            got = sample(w, u)
            if got.shape != ref.shape:
                errors.append(f"final field sample shape {got.shape}, "
                              f"reference {ref.shape}")
            else:
                dist = float(np.abs(got - ref).max() / np.abs(ref).max())
                if not dist <= REFERENCE_TOL[w.name]:
                    errors.append(f"final field differs from the reference "
                                  f"by {dist:.3e} (relative max norm)")
    return errors


def load_reference() -> dict:
    with np.load(REFERENCE_FILE, allow_pickle=False) as z:
        return {k: z[k] for k in z.files}


def report(errors, label) -> None:
    for e in errors:
        print(f"perfbench: {label}: {e}", file=sys.stderr)
