"""Batch front end: config parsing, experiment orchestration, CSV emission.

Configs are flat ``key = value`` text files; unknown keys are rejected so a
typo cannot silently fall back to a default, and so is a key the command
would ignore.  Three subcommands:

* ``solve``        -- run one configuration, emit ``run.csv`` and field
  snapshots at the configured cadence;
* ``convergence``  -- temporal convergence table against a fine reference
  (a ``ref_*`` key left unset keeps ``diagnostics.DEFAULT_REFERENCE``);
* ``compare``      -- run several step variants on one model and emit aligned
  per-step metrics (the ``none`` variant is the uncorrected baseline and may
  blow up; a failure's kind, and for a blow-up its time, are recorded, not
  raised).

Every command steps to the horizon ``T``, which each config must set.
Output directory precedence: ``--out`` flag, then the ``POSIKIT_OUT``
environment variable, then the config's ``out`` key, then ``./out``.
Exit codes: 0 success, 2 configuration error, 3 numerical failure.
Reruns of the same config reproduce all CSV output bit for bit.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .diagnostics import (DEFAULT_REFERENCE, EnergyLedger, check_study_steps,
                          convergence_study, has_energy_statement,
                          horizon_steps, write_convergence_csv, write_run_csv)
from .grid import write_snapshot
from .models import (AllenCahnModel, LubricationModel, PnpModel,
                     PorousMediumModel, run_pnp)
from .operators import SolverError
from .stepper import (BlowUpError, SecantError, StepOptions, VARIANT_MASS,
                      VARIANTS, run_simulation)

ENV_OUT = "POSIKIT_OUT"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    pass


def _finite(key: str, text: str) -> float:
    """Parse a number that must be finite: nan or inf in a config would
    only surface as a traceback, a silent no-op or a late numerical failure."""
    try:
        x = float(text)
    except ValueError:
        raise ConfigError(f"key '{key}': cannot parse {text!r} as a number")
    if not math.isfinite(x):
        raise ConfigError(f"key '{key}': {text!r} is not a finite number")
    return x


class _ModelEntry(NamedTuple):
    cls: type
    keys: tuple      # the model's own config keys
    variants: tuple  # the step variants it takes, its default first


_MODELS = {
    "allen_cahn": _ModelEntry(AllenCahnModel, ("eps2",),
                              ("multiplier", "cutoff", "none")),
    "pme": _ModelEntry(PorousMediumModel, ("m", "C"), VARIANTS),
    "pnp": _ModelEntry(PnpModel, ("eps_debye",), ("mass",)),
    "lubrication": _ModelEntry(LubricationModel, ("rho", "reg", "eta"),
                               ("mass", "multiplier", "cutoff", "none")),
}
_COMMON_KEYS = {"model", "nx", "ny", "k", "T", "eps_lb", "out"}
# the keys each command reads besides the common and model keys; a study
# steps at the default tolerances
_COMMAND_KEYS = {
    "solve": {"dt", "variant", "snapshot_every", "solver_tol", "secant_tol"},
    "compare": {"dt", "variants", "solver_tol", "secant_tol"},
    "convergence": {"variant", "dts", "ref_dt", "ref_k", "ref_variant"},
}


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
        return _finite(key, v)

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
    if model not in _MODELS:
        raise ConfigError(f"key 'model': unknown model '{model}'")
    allowed = _COMMON_KEYS.union(_MODELS[model].keys, *_COMMAND_KEYS.values())
    for key in raw:
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}'")
    return RunConfig(model=model, raw=raw)


def _check_command_keys(cfg: RunConfig, command: str) -> None:
    """Reject a key that only other commands read."""
    used = _COMMON_KEYS.union(_MODELS[cfg.model].keys, _COMMAND_KEYS[command])
    for key in cfg.raw:
        if key not in used:
            raise ConfigError(f"key '{key}': not used by '{command}'")


def build_model(cfg: RunConfig):
    try:
        return _build_model(cfg)
    except ConfigError:
        raise
    except ValueError as exc:  # a model rejecting its parameters
        raise ConfigError(f"model '{cfg.model}': {exc}") from exc


def _unused(cfg: RunConfig, key: str, why: str) -> None:
    if key in cfg.raw:
        raise ConfigError(f"key '{key}': not used {why}")


def _build_model(cfg: RunConfig):
    """The config's model; a key left unset keeps the model's default,
    except ``eta``, which is 1e-8 under ``reg = reg_eta``."""
    kwargs = {key: cfg.get_float(key) for key in _MODELS[cfg.model].keys
              if key != "reg" and key in cfg.raw}
    if "nx" in cfg.raw:
        kwargs["n"] = cfg.get_int("nx")
    ny = cfg.get_int("ny") if "ny" in cfg.raw else None
    if ny is not None and cfg.model in ("pme", "lubrication"):
        kwargs["dim"] = 2
    if cfg.model == "lubrication":
        reg = cfg.get("reg", "floor")
        if reg == "floor":
            _unused(cfg, "eta", "with reg = floor")
        elif reg == "reg_eta":
            kwargs.setdefault("eta", 1e-8)
            if not kwargs["eta"] > 0:
                raise ConfigError("key 'eta': reg = reg_eta needs eta > 0")
        else:
            raise ConfigError(f"key 'reg': unknown regularization '{reg}'")
    model = _MODELS[cfg.model].cls(**kwargs)
    if ny is not None and ny != model.n:
        raise ConfigError(f"key 'ny': {cfg.model} uses equal per-axis counts")
    return model


def _floor(cfg: RunConfig) -> float:
    """The lower bound every run of ``cfg`` steps above: the ``eps_lb`` key
    if set, else 1e-2 for a thin film with ``reg = floor``, else 0."""
    if cfg.model == "pnp":
        _unused(cfg, "eps_lb", "by pnp, whose species solves keep no floor")
    if cfg.model != "lubrication":
        return cfg.get_float("eps_lb", 0.0)
    if cfg.get("reg", "floor") != "floor":
        _unused(cfg, "eps_lb", "with reg = reg_eta, which keeps no floor")
        return 0.0
    eps_lb = cfg.get_float("eps_lb", 1e-2)
    if not eps_lb > 0:
        raise ConfigError("key 'eps_lb': reg = floor needs eps_lb > 0")
    return eps_lb


def _check_variant(cfg: RunConfig, variant: str, key="variant") -> None:
    if variant not in _MODELS[cfg.model].variants:
        raise ConfigError(f"key '{key}': '{variant}' is not valid for "
                          f"model '{cfg.model}'")


def _checked(what: str, rule, *args, **kwargs):
    """``rule(*args, **kwargs)``, its ValueError a ConfigError about ``what``."""
    try:
        return rule(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def build_options(cfg: RunConfig, model, variant=None) -> StepOptions:
    """Step options of ``cfg``, for ``variant`` if given; a tolerance left
    unset keeps the :class:`StepOptions` default.  Nothing is read from
    ``model``: the floor is the config's (:func:`_floor`)."""
    if variant is None:
        variant = cfg.get("variant", _MODELS[cfg.model].variants[0])
    _check_variant(cfg, variant)
    tols = {key: cfg.get_float(key) for key in ("solver_tol", "secant_tol")
            if key in cfg.raw}
    return _checked("step options", StepOptions, k=cfg.get_int("k", 2),
                    dt=cfg.get_float("dt"), variant=variant,
                    eps_lb=_floor(cfg), **tols)


def _check_floor(g, opts: StepOptions, mass: float) -> None:
    """Reject a mass variant whose floor holds more than the initial mass."""
    floor = opts.eps_lb * float(g.weights.sum())
    if opts.variant == VARIANT_MASS and mass < floor - 1e-12 * max(1.0, mass):
        raise ConfigError(f"key 'eps_lb': the floor holds a mass of "
                          f"{floor:g}, above the initial mass {mass:g}")


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
    n_steps = _checked("key 'T'", horizon_steps, cfg.get_float("T"), opts.dt)
    cadence = cfg.get_int("snapshot_every", 0)
    if cadence < 0:
        raise ConfigError("key 'snapshot_every': must be nonnegative "
                          "(0 writes no snapshots)")

    g = model.grid
    if cfg.model == "pnp":
        _unused(cfg, "snapshot_every", "by pnp, which writes final fields "
                "only")
        run_p, run_n, phis = run_pnp(model, opts, n_steps)
        for name, run in (("p", run_p), ("n", run_n)):
            write_run_csv(os.path.join(out_dir, f"run_{name}.csv"),
                          run.diagnostics)
            write_snapshot(os.path.join(out_dir, f"{name}_final.txt"),
                           run.history.us[0], g, run.history.t)
        write_snapshot(os.path.join(out_dir, "phi_final.txt"), phis[0], g,
                       run_p.history.t)
        return EXIT_OK

    ledger = EnergyLedger(g, opts) if has_energy_statement(opts) else None

    def on_step(hist, diag):
        if cadence > 0 and diag.step % cadence == 0:
            path = os.path.join(out_dir, f"u_{diag.step:06d}.txt")
            write_snapshot(path, hist.us[0], g, diag.t)

    # the t = 0 row is taken first, so that no copy of the initial field
    # stays alive through the run
    initial_row = _initial_row(g, model.initial_state())
    _check_floor(g, opts, initial_row[1])
    result = run_simulation(model, opts, n_steps, ledger=ledger,
                            on_step=on_step)
    write_run_csv(os.path.join(out_dir, "run.csv"), result.diagnostics,
                  initial_row=initial_row)
    write_snapshot(os.path.join(out_dir, "u_final.txt"),
                   result.history.us[0], g, result.history.t)
    return EXIT_OK


def reference_options(cfg: RunConfig, eps_lb: float) -> StepOptions:
    """Options of a convergence study's reference run, above the floor
    ``eps_lb``; a ``ref_*`` key left unset keeps :data:`DEFAULT_REFERENCE`."""
    variant = cfg.get("ref_variant", DEFAULT_REFERENCE.variant)
    _check_variant(cfg, variant, "ref_variant")
    return _checked("reference options", replace, DEFAULT_REFERENCE,
                    k=cfg.get_int("ref_k", DEFAULT_REFERENCE.k),
                    dt=cfg.get_float("ref_dt", DEFAULT_REFERENCE.dt),
                    variant=variant, eps_lb=eps_lb)


def _single_field(cfg: RunConfig, command: str) -> None:
    if cfg.model == "pnp":
        raise ConfigError(f"key 'model': '{command}' takes single-field "
                          f"models; run pnp through 'solve'")


def cmd_convergence(cfg: RunConfig, out_dir: str) -> int:
    _single_field(cfg, "convergence")
    model = build_model(cfg)
    variant = cfg.get("variant", _MODELS[cfg.model].variants[0])
    _check_variant(cfg, variant)
    dts = [_finite("dts", s) for s in cfg.get("dts", "").split(",")
           if s.strip()]
    if not dts:
        raise ConfigError("missing required key 'dts'")
    _checked("key 'dts'", check_study_steps, dts)
    eps_lb = _floor(cfg)
    ref = reference_options(cfg, eps_lb)
    _checked("key 'ref_dt'", check_study_steps, dts, ref.dt)
    k = cfg.get_int("k", 2)
    horizon = cfg.get_float("T")
    runs = [_checked("step options", StepOptions, k=k, dt=dt,
                     variant=variant, eps_lb=eps_lb) for dt in dts]
    mass = model.grid.mass(model.initial_state())
    for opts in runs + [ref]:  # all checked before the first run
        _check_floor(model.grid, opts, mass)
        _checked("key 'T'", horizon_steps, horizon, opts.dt)
    rows = convergence_study(model, runs[0], dts, ref, horizon)
    write_convergence_csv(os.path.join(out_dir, "convergence.csv"), rows)
    return EXIT_OK


def cmd_compare(cfg: RunConfig, out_dir: str) -> int:
    _single_field(cfg, "compare")
    model = build_model(cfg)
    variants_raw = cfg.get("variants", "multiplier,cutoff,mass,none")
    variants = [v.strip() for v in variants_raw.split(",") if v.strip()]
    if not variants:
        raise ConfigError("key 'variants': names no variant")
    g = model.grid
    initial_row = _initial_row(g, model.initial_state())
    options = {}
    for v in variants:  # all checked before the first run
        if v in options:
            raise ConfigError(f"key 'variants': names '{v}' twice")
        _check_variant(cfg, v, "variants")
        opts = options[v] = build_options(cfg, model, variant=v)
        _check_floor(g, opts, initial_row[1])
    # every variant steps at the one dt
    n_steps = _checked("key 'T'", horizon_steps, cfg.get_float("T"), opts.dt)
    per_variant = {}
    summary = []
    for v, opts in options.items():
        result = run_simulation(model, opts, n_steps, stop_on_failure=False)
        diags = result.diagnostics
        per_variant[v] = diags
        write_run_csv(os.path.join(out_dir, f"run_{v}.csv"), diags,
                      initial_row=initial_row)
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
        _check_command_keys(cfg, args.command)
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
