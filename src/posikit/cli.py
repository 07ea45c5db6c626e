"""Batch front end: config parsing, experiment orchestration, CSV emission.

Configs are flat ``key = value`` text files; unknown keys are rejected so a
typo cannot silently fall back to a default.  Three subcommands:

* ``solve``        -- run one configuration, emit ``run.csv`` and field
  snapshots at the configured cadence;
* ``convergence``  -- temporal convergence table against a fine reference;
* ``compare``      -- run several step variants on one model and emit aligned
  per-step metrics (the ``none`` variant is the uncorrected baseline and may
  blow up; a failure's kind, and for a blow-up its time, are recorded, not
  raised).

Output directory precedence: ``--out`` flag, then the ``POSIKIT_OUT``
environment variable, then the config's ``out`` key, then ``./out``.
Exit codes: 0 success, 2 configuration error, 3 numerical failure.
Reruns of the same config reproduce all CSV output bit for bit.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import (EnergyLedger, ReferenceSpec, convergence_study,
                          ledger_variant_for, write_convergence_csv,
                          write_run_csv)
from .grid import write_snapshot
from .models import (AllenCahnModel, LubricationModel, PnpModel,
                     PorousMediumModel, run_pnp)
from .operators import SolverError
from .stepper import (BlowUpError, SecantError, StepOptions, VARIANTS,
                      run_simulation)

ENV_OUT = "POSIKIT_OUT"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    pass


_COMMON_KEYS = {"model", "nx", "ny", "k", "dt", "T", "variant", "eps_lb",
                "out", "snapshot_every", "solver_tol", "secant_tol"}
_MODEL_KEYS = {
    "allen_cahn": {"eps2"},
    "pme": {"m", "C"},
    "pnp": {"eps_debye"},
    "lubrication": {"rho", "reg", "eta"},
}
_STUDY_KEYS = {"dts", "ref_dt", "ref_k", "ref_variant"}
_COMPARE_KEYS = {"variants"}

_VALID_VARIANTS = {
    "allen_cahn": ("multiplier", "cutoff", "none"),
    "pme": VARIANTS,
    "pnp": ("mass",),
    "lubrication": ("mass", "multiplier", "cutoff", "none"),
}
_DEFAULT_VARIANT = {"allen_cahn": "multiplier", "pme": "multiplier",
                    "pnp": "mass", "lubrication": "mass"}


@dataclass
class RunConfig:
    model: str
    raw: dict = field(default_factory=dict)

    def get(self, key, default=None):
        return self.raw.get(key, default)

    def get_float(self, key, default=None):
        v = self.raw.get(key)
        if v is None:
            if default is None:
                raise ConfigError(f"missing required key '{key}'")
            return default
        try:
            return float(v)
        except ValueError:
            raise ConfigError(f"key '{key}': cannot parse {v!r} as a number")

    def get_int(self, key, default=None):
        v = self.raw.get(key)
        if v is None:
            if default is None:
                raise ConfigError(f"missing required key '{key}'")
            return default
        try:
            return int(v)
        except ValueError:
            raise ConfigError(f"key '{key}': cannot parse {v!r} as an integer")


def parse_config(path) -> RunConfig:
    raw = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    for lineno, line in enumerate(lines, 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (s.strip() for s in text.split("=", 1))
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key '{key}'")
        raw[key] = value
    model = raw.get("model")
    if model is None:
        raise ConfigError("missing required key 'model'")
    if model not in _MODEL_KEYS:
        raise ConfigError(f"key 'model': unknown model '{model}'")
    allowed = _COMMON_KEYS | _MODEL_KEYS[model] | _STUDY_KEYS | _COMPARE_KEYS
    for key in raw:
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}'")
    return RunConfig(model=model, raw=raw)


def build_model(cfg: RunConfig):
    try:
        return _build_model(cfg)
    except ConfigError:
        raise
    except ValueError as exc:  # a model rejecting its parameters
        raise ConfigError(f"model '{cfg.model}': {exc}") from exc


_DEFAULT_NX = {"allen_cahn": 32, "pme": 128, "pnp": 64, "lubrication": 256}


def _unused(cfg: RunConfig, key: str, why: str) -> None:
    if key in cfg.raw:
        raise ConfigError(f"key '{key}': not used {why}")


def _build_model(cfg: RunConfig):
    n = cfg.get_int("nx", _DEFAULT_NX[cfg.model])
    ny = cfg.get_int("ny") if "ny" in cfg.raw else None
    if ny is not None and ny != n:
        raise ConfigError(f"key 'ny': {cfg.model} uses equal per-axis counts")
    if cfg.model == "allen_cahn":
        return AllenCahnModel(eps2=cfg.get_float("eps2", 0.001), n=n)
    if cfg.model == "pme":
        dim = 2 if ny is not None else 1
        return PorousMediumModel(m=cfg.get_float("m", 2.0), n=n, dim=dim,
                                 C=cfg.get_float("C", 1.0))
    if cfg.model == "pnp":
        _unused(cfg, "eps_lb", "by pnp, whose species solves keep no floor")
        return PnpModel(eps_debye=cfg.get_float("eps_debye", 0.1), n=n)
    # lubrication
    reg = cfg.get("reg", "floor")
    if reg not in ("floor", "reg_eta"):
        raise ConfigError(f"key 'reg': unknown regularization '{reg}'")
    dim = 2 if ny is not None else 1
    kwargs = dict(rho=cfg.get_float("rho", 0.5), mode=reg, n=n, dim=dim)
    if reg == "floor":
        _unused(cfg, "eta", "with reg = floor")
        kwargs["eps_lb"] = cfg.get_float("eps_lb", 1e-2)
    else:
        _unused(cfg, "eps_lb", "with reg = reg_eta, which keeps no floor")
        kwargs["eta"] = cfg.get_float("eta", 1e-8)
        kwargs["eps_lb"] = 0.0
    return LubricationModel(**kwargs)


def _check_variant(cfg: RunConfig, variant: str, key="variant") -> None:
    if variant not in _VALID_VARIANTS[cfg.model]:
        raise ConfigError(f"key '{key}': '{variant}' is not valid for "
                          f"model '{cfg.model}'")


def _step_options(**kwargs) -> StepOptions:
    """:class:`StepOptions` whose rejected values are configuration errors."""
    try:
        return StepOptions(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"step options: {exc}") from exc


def build_options(cfg: RunConfig, model, variant=None) -> StepOptions:
    if variant is None:
        variant = cfg.get("variant", _DEFAULT_VARIANT[cfg.model])
    _check_variant(cfg, variant)
    eps_lb = getattr(model, "eps_lb", 0.0)
    if cfg.model != "lubrication":
        eps_lb = cfg.get_float("eps_lb", 0.0)
    return _step_options(k=cfg.get_int("k", 2), dt=cfg.get_float("dt"),
                         variant=variant, eps_lb=eps_lb,
                         solver_tol=cfg.get_float("solver_tol", 1e-10),
                         secant_tol=cfg.get_float("secant_tol", 1e-12))


def _n_steps(horizon: float, dt: float) -> int:
    if horizon < dt:
        raise ConfigError("key 'T': horizon must be at least one step")
    n_steps = int(round(horizon / dt))
    if abs(n_steps * dt - horizon) > 1e-9 * horizon:
        raise ConfigError(f"key 'T': horizon {horizon!r} is not an integer "
                          f"number of steps of dt = {dt!r}")
    return n_steps


def resolve_out_dir(cfg: RunConfig, flag_out) -> str:
    out = flag_out or os.environ.get(ENV_OUT) or cfg.get("out") or "out"
    os.makedirs(out, exist_ok=True)
    return out


def _initial_row(g, u0):
    act = g.active
    return (0.0, g.mass(u0), float(u0[act].min()), float(u0[act].max()),
            g.norm(u0), 0.0, 0, 0, 0.0, 0, 0.0)


def cmd_solve(cfg: RunConfig, out_dir: str) -> int:
    model = build_model(cfg)
    opts = build_options(cfg, model)
    n_steps = _n_steps(cfg.get_float("T"), opts.dt)
    cadence = cfg.get_int("snapshot_every", 0)
    if cadence < 0:
        raise ConfigError("key 'snapshot_every': must be nonnegative "
                          "(0 writes no snapshots)")

    if cfg.model == "pnp":
        _unused(cfg, "snapshot_every", "by pnp, which writes final fields "
                "only")
        result = run_pnp(model, opts, n_steps)
        write_run_csv(os.path.join(out_dir, "run_p.csv"), result.diagnostics_p)
        write_run_csv(os.path.join(out_dir, "run_n.csv"), result.diagnostics_n)
        g = model.grid
        st = result.state
        write_snapshot(os.path.join(out_dir, "p_final.txt"), st.hist_p.us[0],
                       g, st.hist_p.t)
        write_snapshot(os.path.join(out_dir, "n_final.txt"), st.hist_n.us[0],
                       g, st.hist_n.t)
        write_snapshot(os.path.join(out_dir, "phi_final.txt"), st.phis[0],
                       g, st.hist_p.t)
        return EXIT_OK

    g = model.grid
    lv = ledger_variant_for(opts.variant, opts.k)
    ledger = EnergyLedger(g, lv) if lv is not None else None

    def on_step(hist, diag):
        if cadence > 0 and diag.step % cadence == 0:
            path = os.path.join(out_dir, f"u_{diag.step:06d}.txt")
            write_snapshot(path, hist.us[0], g, diag.t)

    u0 = model.initial_state()
    result = run_simulation(model, opts, n_steps, ledger=ledger,
                            on_step=on_step)
    write_run_csv(os.path.join(out_dir, "run.csv"), result.diagnostics,
                  initial_row=_initial_row(g, u0))
    write_snapshot(os.path.join(out_dir, "u_final.txt"),
                   result.history.us[0], g, result.history.t)
    return EXIT_OK


def reference_spec(cfg: RunConfig) -> ReferenceSpec:
    """Reference settings of a convergence study; unset keys keep the
    :class:`ReferenceSpec` defaults."""
    default = ReferenceSpec()
    return ReferenceSpec(k=cfg.get_int("ref_k", default.k),
                         dt=cfg.get_float("ref_dt", default.dt),
                         variant=cfg.get("ref_variant", default.variant))


def _single_field(cfg: RunConfig, command: str) -> None:
    if cfg.model == "pnp":
        raise ConfigError(f"key 'model': '{command}' takes single-field "
                          f"models; run pnp through 'solve'")


def cmd_convergence(cfg: RunConfig, out_dir: str) -> int:
    _single_field(cfg, "convergence")
    model = build_model(cfg)
    variant = cfg.get("variant", _DEFAULT_VARIANT[cfg.model])
    _check_variant(cfg, variant)
    dts_raw = cfg.get("dts", "")
    try:
        dts = [float(s) for s in dts_raw.split(",") if s.strip()]
    except ValueError:
        raise ConfigError(f"key 'dts': cannot parse {dts_raw!r}")
    if not dts:
        raise ConfigError("missing required key 'dts'")
    if any(b >= a for a, b in zip(dts, dts[1:])):
        raise ConfigError("key 'dts': step sizes must be strictly decreasing")
    ref = reference_spec(cfg)
    _check_variant(cfg, ref.variant, "ref_variant")
    if ref.dt >= min(dts):
        raise ConfigError(f"key 'ref_dt': {ref.dt!r} is not below the study "
                          f"step sizes")
    k = cfg.get_int("k", 2)
    horizon = cfg.get_float("T", 0.01)
    runs = [(k, dt, variant) for dt in dts] + [(ref.k, ref.dt, ref.variant)]
    for run_k, dt, run_variant in runs:  # all checked before the first run
        _step_options(k=run_k, dt=dt, variant=run_variant)
        _n_steps(horizon, dt)
    rows = convergence_study(model, k, dts, ref, variant=variant,
                             horizon=horizon)
    write_convergence_csv(os.path.join(out_dir, "convergence.csv"), rows)
    return EXIT_OK


def cmd_compare(cfg: RunConfig, out_dir: str) -> int:
    _single_field(cfg, "compare")
    model = build_model(cfg)
    variants_raw = cfg.get("variants", "multiplier,cutoff,mass,none")
    variants = [v.strip() for v in variants_raw.split(",") if v.strip()]
    for v in variants:
        _check_variant(cfg, v, "variants")
    g = model.grid
    per_variant = {}
    summary = []
    n_steps = None
    for v in variants:
        opts = build_options(cfg, model, variant=v)
        n_steps = _n_steps(cfg.get_float("T"), opts.dt)
        result = run_simulation(model, opts, n_steps, stop_on_failure=False)
        diags = result.diagnostics
        per_variant[v] = diags
        write_run_csv(os.path.join(out_dir, f"run_{v}.csv"), diags,
                      initial_row=_initial_row(g, model.initial_state()))
        min_min = min((d.min_u for d in diags), default=float("nan"))
        first_neg = next((d.t for d in diags if d.min_u < 0), None)
        err = result.failure
        blowup = err.t if isinstance(err, BlowUpError) else None
        summary.append(",".join([
            v, str(len(diags)), repr(min_min),
            "" if first_neg is None else repr(first_neg),
            "" if blowup is None else repr(blowup),
            "" if err is None else type(err).__name__,
            repr(diags[-1].mass if diags else float("nan"))]))

    with open(os.path.join(out_dir, "compare.csv"), "w") as fh:
        cols = ["t"]
        for v in variants:
            cols += [f"{v}_mass", f"{v}_min_u"]
        fh.write(",".join(cols) + "\n")
        for i in range(n_steps):
            t = None
            row = []
            for v in variants:
                diags = per_variant[v]
                if i < len(diags):
                    if t is None:
                        t = diags[i].t
                    row += [repr(diags[i].mass), repr(diags[i].min_u)]
                else:
                    row += ["", ""]
            if t is None:
                break
            fh.write(",".join([repr(t)] + row) + "\n")

    with open(os.path.join(out_dir, "summary.csv"), "w") as fh:
        fh.write("variant,steps,min_min_u,first_negative_t,blowup_t,failure,"
                 "final_mass\n")
        for row in summary:
            fh.write(row + "\n")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="posikit",
        description="positivity/mass-preserving time integration experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "convergence", "compare"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to key = value "
                       "configuration file")
        p.add_argument("--out", default=None, help="output directory "
                       f"(overrides ${ENV_OUT} and the config 'out' key)")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
        out_dir = resolve_out_dir(cfg, args.out)
        if args.command == "solve":
            return cmd_solve(cfg, out_dir)
        if args.command == "convergence":
            return cmd_convergence(cfg, out_dir)
        return cmd_compare(cfg, out_dir)
    except ConfigError as exc:
        print(f"posikit: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, SecantError, BlowUpError, ValueError) as exc:
        print(f"posikit: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
