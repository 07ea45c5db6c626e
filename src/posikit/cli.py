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
from itertools import chain, zip_longest
from typing import NamedTuple

import numpy as np

from .diagnostics import (DEFAULT_REFERENCE, EnergyLedger, check_study_steps,
                          convergence_study, has_energy_statement,
                          horizon_steps, write_convergence_csv, write_csv,
                          write_run_csv)
from .grid import write_snapshot
from .models import (AllenCahnModel, LubricationModel, PnpModel,
                     PorousMediumModel, run_pnp)
from .operators import SolverError
from .stepper import (BlowUpError, SecantError, StepDiagnostics, StepOptions,
                      VARIANT_MASS, VARIANT_NONE, VARIANTS, run_simulation)

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
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
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
    """:func:`_step_options` at the config's ``dt``.  Nothing is read from
    ``model``: the floor is the config's (:func:`_floor`)."""
    return _step_options(cfg, cfg.get_float("dt"), variant)


def _step_options(cfg: RunConfig, dt: float, variant=None,
                  key="variant") -> StepOptions:
    """Step options of ``cfg`` at ``dt`` for ``variant`` (else the config's,
    else the model's default); unset tolerances keep their defaults."""
    if variant is None:
        variant = cfg.get("variant", _MODELS[cfg.model].variants[0])
    _check_variant(cfg, variant, key)
    tols = {name: cfg.get_float(name) for name in ("solver_tol", "secant_tol")
            if name in cfg.raw}
    return _checked("step options", StepOptions, k=cfg.get_int("k", 2),
                    dt=dt, variant=variant, eps_lb=_floor(cfg), **tols)


def _check_runs(cfg: RunConfig, g, runs, mass: float) -> None:
    """Reject a mass run whose floor outweighs the initial ``mass``, then
    ``eps_lb`` if no run corrects and ``secant_tol`` if none is ``mass``."""
    measure = float(g.weights.sum())
    for opts in runs:
        floor = opts.eps_lb * measure
        if (opts.variant == VARIANT_MASS
                and mass < floor - 1e-12 * max(1.0, mass)):
            raise ConfigError(f"key 'eps_lb': the floor holds a mass of "
                              f"{floor:g}, above the initial mass {mass:g}")
    variants = {opts.variant for opts in runs}
    if variants == {VARIANT_NONE}:
        _unused(cfg, "eps_lb", "by the uncorrected 'none' variant")
    if VARIANT_MASS not in variants:
        _unused(cfg, "secant_tol", "without the mass variant")


def make_out_dir(out: str) -> None:
    """Create ``out`` after every check, just before a command's first run."""
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: "
                          f"{exc.strerror}") from exc


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
        _unused(cfg, "snapshot_every", "by pnp, which writes final fields only")
        make_out_dir(out_dir)
        run_p, run_n, phis = run_pnp(model, opts, n_steps)
        for name, run in (("p", run_p), ("n", run_n)):
            write_run_csv(os.path.join(out_dir, f"run_{name}.csv"),
                          run.diagnostics)
            write_snapshot(os.path.join(out_dir, f"{name}_final.txt"),
                           run.history.us[0], g, run.history.t)
        write_snapshot(os.path.join(out_dir, "phi_final.txt"), phis[0], g,
                       run_p.history.t)
        return EXIT_OK

    ledger = (_checked("key 'dt'", EnergyLedger, g, opts)
              if has_energy_statement(opts) else None)

    def on_step(hist, diag):
        if cadence > 0 and diag.step % cadence == 0:
            path = os.path.join(out_dir, f"u_{diag.step:06d}.txt")
            write_snapshot(path, hist.us[0], g, diag.t)

    # the t = 0 record is taken first, so that no copy of the initial field
    # stays alive through the run
    initial = StepDiagnostics.initial(g, model.initial_state())
    _check_runs(cfg, g, [opts], initial.mass)
    make_out_dir(out_dir)
    result = run_simulation(model, opts, n_steps, ledger=ledger,
                            on_step=on_step)
    write_run_csv(os.path.join(out_dir, "run.csv"),
                  chain([initial], result.diagnostics))
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
    dts = [_finite("dts", s) for s in cfg.get("dts", "").split(",")
           if s.strip()]
    if not dts:
        raise ConfigError("missing required key 'dts'")
    _checked("key 'dts'", check_study_steps, dts)
    runs = [_step_options(cfg, dt) for dt in dts]
    ref = reference_options(cfg, runs[0].eps_lb)
    _checked("key 'ref_dt'", check_study_steps, dts, ref.dt)
    horizon = cfg.get_float("T")
    mass = model.grid.mass(model.initial_state())
    for opts in runs + [ref]:  # all checked before the first run
        _checked("key 'T'", horizon_steps, horizon, opts.dt)
    _check_runs(cfg, model.grid, runs + [ref], mass)
    make_out_dir(out_dir)
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
    initial = StepDiagnostics.initial(g, model.initial_state())
    dt = cfg.get_float("dt")  # every variant steps at the one dt
    options = {}
    for v in variants:  # all checked before the first run
        if v in options:
            raise ConfigError(f"key 'variants': names '{v}' twice")
        options[v] = _step_options(cfg, dt, v, "variants")
    n_steps = _checked("key 'T'", horizon_steps, cfg.get_float("T"), dt)
    _check_runs(cfg, g, options.values(), initial.mass)
    make_out_dir(out_dir)
    runs, summary = [], []
    for v, opts in options.items():
        result = run_simulation(model, opts, n_steps, stop_on_failure=False)
        diags = result.diagnostics
        runs.append(diags)
        write_run_csv(os.path.join(out_dir, f"run_{v}.csv"),
                      chain([initial], diags))
        err = result.failure
        summary.append((
            v, len(diags), min((d.min_u for d in diags), default=math.nan),
            next((d.t for d in diags if d.min_u < 0), None),
            err.t if isinstance(err, BlowUpError) else None,
            None if err is None else type(err).__name__,
            diags[-1].mass if diags else math.nan))

    # one row per step that any variant reached, blank where one had ended
    header = ["t"] + [f"{v}_{c}" for v in variants for c in ("mass", "min_u")]
    rows = []
    for ds in zip_longest(*runs):
        row = [next(d.t for d in ds if d is not None)]
        for d in ds:
            row += (None, None) if d is None else (d.mass, d.min_u)
        rows.append(row)
    write_csv(os.path.join(out_dir, "compare.csv"), header, rows)
    write_csv(os.path.join(out_dir, "summary.csv"),
              ("variant", "steps", "min_min_u", "first_negative_t",
               "blowup_t", "failure", "final_mass"), summary, ("steps",))
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
        out = args.out or os.environ.get(ENV_OUT) or cfg.get("out") or "out"
        if args.command == "solve":
            return cmd_solve(cfg, out)
        if args.command == "convergence":
            return cmd_convergence(cfg, out)
        return cmd_compare(cfg, out)
    except ConfigError as exc:
        print(f"posikit: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, SecantError, BlowUpError, ValueError) as exc:
        print(f"posikit: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
