"""Layer spans for a traced benchmark sample, recorded from outside posikit.

The tracer replaces each hooked entry point by a wrapper at the place where
its caller looks it up when it calls it (a module global or a class
attribute), so posikit itself is not changed.  Each call records a span
(name, start, end, parent span, and for some entry points one count read
from the returned value).  Spans stay in memory and are written to one
``.npz`` file when the solve ends; :func:`analyze` turns that file into the
per-layer metrics.

Hooks are resolved by name.  An entry point that no longer exists is
reported as absent, and the metrics that need it come out as ``None``.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

import numpy as np


def _iterations(out):
    return out[1].iterations


def _active(out):
    return out.active_count


def _updates(out):
    return out[1]


# (span name, "module" or "module:Class", attribute, count read from result)
HOOKS = (
    ("stepper.step", "posikit.stepper", "step", None),
    ("stepper.predict", "posikit.stepper", "predict", None),
    ("stepper.predict", "posikit.models", "predict", None),
    ("operators.solve", "posikit.stepper", "solve_operator", _iterations),
    ("stepper.correct", "posikit.stepper", "correct_positivity", _active),
    ("stepper.correct", "posikit.stepper", "correct_cutoff", _active),
    ("stepper.correct", "posikit.stepper", "correct_mass_conserving", _active),
    ("stepper.correct", "posikit.models", "correct_mass_conserving", _active),
    ("stepper.secant", "posikit.stepper", "solve_xi_secant", _updates),
    ("stepper.residual_F", "posikit.stepper", "residual_F", None),
    ("operators.apply", "posikit.operators:Operator", "apply", None),
    ("operators.quad", "posikit.operators:Operator", "quad", None),
    ("diagnostics.ledger", "posikit.diagnostics:EnergyLedger", "update", None),
    ("models.operator", "posikit.models:AllenCahnModel", "operator", None),
    ("models.operator", "posikit.models:PorousMediumModel", "operator", None),
    ("models.operator", "posikit.models:LubricationModel", "operator", None),
    ("models.source", "posikit.models:AllenCahnModel", "explicit_source",
     None),
    ("models.source", "posikit.models:PorousMediumModel", "explicit_source",
     None),
    ("models.source", "posikit.models:LubricationModel", "explicit_source",
     None),
    ("operators.transport", "posikit.models", "transport_div_form", None),
    ("operators.poisson", "posikit.models", "solve_conservative_poisson",
     None),
    ("models.pnp_step", "posikit.models", "pnp_step", None),
    ("grid", "posikit.grid:Grid", "mass", None),
    ("grid", "posikit.grid:Grid", "norm", None),
    ("grid", "posikit.grid:Grid", "inner", None),
    ("cli.run_simulation", "posikit.cli", "run_simulation", None),
    ("cli.run_pnp", "posikit.cli", "run_pnp", None),
    ("cli.write", "posikit.cli", "write_run_csv", None),
    ("cli.write", "posikit.cli", "write_snapshot", None),
)

# transform entry points whose calls are counted (not timed)
TRANSFORMS = (
    ("numpy.fft", ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2",
                   "irfft2", "fftn", "ifftn", "rfftn", "irfftn")),
    ("scipy.fft", ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2",
                   "irfft2", "fftn", "ifftn", "rfftn", "irfftn", "dct", "idct",
                   "dst", "idst", "dctn", "idctn", "dstn", "idstn")),
)

ROOT = "cli.main"
STEP_SPANS = ("stepper.step", "models.pnp_step")


def _resolve(target: str):
    module, _, cls = target.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        # [name id, start ns, end ns, parent index, count]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.transforms = [0]
        self.hooks: dict[str, bool] = {}

    def wrap(self, name: str, fn, count=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [nid, clock(), 0, stack[-1] if stack else -1, -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                try:
                    rec[4] = int(count(out))
                except (AttributeError, IndexError, TypeError, ValueError):
                    pass
            return out
        return traced

    def count_transforms(self) -> None:
        """Count calls of the numpy.fft / scipy.fft entry points.

        Installed before posikit is imported, so that a name bound by
        ``from scipy.fft import ...`` is the counting wrapper too.
        """
        cell = self.transforms

        def counting(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)
            return counted

        for module, names in TRANSFORMS:
            owner = importlib.import_module(module)
            for attr in names:
                fn = getattr(owner, attr, None)
                if fn is not None:
                    setattr(owner, attr, counting(fn))

    def install(self) -> None:
        """Wrap every entry point of HOOKS that exists."""
        for name, target, attr, count in HOOKS:
            key = f"{target}.{attr}"
            try:
                owner = _resolve(target)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.hooks[key] = False
                continue
            setattr(owner, attr, self.wrap(name, fn, count))
            self.hooks[key] = True

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.transforms[0] = 0

    def dump(self, path) -> None:
        arr = np.array(self.spans, dtype=np.int64).reshape(-1, 5)
        meta = {"names": self.names, "hooks": self.hooks,
                "transforms": self.transforms[0]}
        np.savez(path, spans=arr, meta=np.array(json.dumps(meta)))


# -- analysis ----------------------------------------------------------------

def analyze(path) -> tuple[dict, dict]:
    """Per-layer metrics of one traced solve, and its deterministic counts.

    Times are in seconds (``self_s``: span time minus the time of its
    direct children) or microseconds/milliseconds where the name says so.
    """
    with np.load(path, allow_pickle=False) as z:
        spans = z["spans"]
        meta = json.loads(str(z["meta"]))
    names = meta["names"]
    hooks = meta["hooks"]
    nid = spans[:, 0]
    dur = (spans[:, 2] - spans[:, 1]).astype(float) * 1e-9
    parent = spans[:, 3]
    value = spans[:, 4]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=len(spans))
    self_t = dur - child

    def mask(name):
        return nid == names.index(name) if name in names else \
            np.zeros(len(spans), dtype=bool)

    def hooked(name):
        return any(hooks.get(f"{target}.{attr}", False)
                   for span, target, attr, _ in HOOKS if span == name)

    def calls(name):
        return int(mask(name).sum()) if hooked(name) else None

    def self_s(name):
        return float(self_t[mask(name)].sum()) if hooked(name) else None

    def total_s(name):
        return float(dur[mask(name)].sum()) if hooked(name) else None

    def per_call_us(name):
        n = calls(name)
        if n is None:
            return None
        return self_s(name) / n * 1e6 if n else 0.0

    def values(name):
        return value[mask(name)] if hooked(name) else None

    root = mask(ROOT)
    root_dur = float(dur[root].sum())
    step_mask = mask(STEP_SPANS[0]) | mask(STEP_SPANS[1])
    steps = int(step_mask.sum())
    step_ms = dur[step_mask] * 1e3
    apply_m = mask("operators.apply")
    parent_name = np.full(len(spans), -1)
    parent_name[has_parent] = nid[parent[has_parent]]

    def apply_under(name):
        if not hooked(name) or not hooked("operators.apply"):
            return None, None
        m = apply_m & (parent_name == names.index(name))
        return int(m.sum()), float(self_t[m].sum())

    in_solve = apply_under("operators.solve")
    in_quad = apply_under("operators.quad")
    iters = values("operators.solve")
    secant = values("stepper.secant")
    active = values("stepper.correct")
    n_solve = calls("operators.solve")
    correct_total = total_s("stepper.correct")
    solve_total = total_s("operators.solve")

    def stat(arr, fn):
        if arr is None:
            return None
        return float(fn(arr)) if len(arr) else 0.0

    m = {
        "operators.solve.calls": n_solve,
        "operators.solve.self_s": self_s("operators.solve"),
        "operators.solve.us_per_call": per_call_us("operators.solve"),
        "operators.solve.total_s": solve_total,
        "operators.apply.calls": calls("operators.apply"),
        "operators.apply.self_s": self_s("operators.apply"),
        "operators.apply.us_per_call": per_call_us("operators.apply"),
        "operators.apply.in_solve.calls": in_solve[0],
        "operators.apply.in_solve.self_s": in_solve[1],
        "operators.apply.in_quad.calls": in_quad[0],
        "operators.apply.in_quad.self_s": in_quad[1],
        "operators.krylov_iters.total": stat(iters, np.sum),
        "operators.krylov_iters.mean": stat(iters, np.mean),
        "operators.krylov_iters.max": stat(iters, np.max),
        "operators.matvecs_per_solve": (
            None if n_solve is None or in_solve[0] is None
            else (in_solve[0] / n_solve if n_solve else 0.0)),
        "operators.transforms.calls": meta["transforms"],
        "operators.transforms.per_step": (meta["transforms"] / steps
                                          if steps else None),
        "operators.quad.self_s": self_s("operators.quad"),
        "operators.poisson.self_s": self_s("operators.poisson"),
        "operators.transport.self_s": self_s("operators.transport"),
        "models.operator.self_s": self_s("models.operator"),
        "models.source.self_s": self_s("models.source"),
        "models.pnp_step.self_s": self_s("models.pnp_step"),
        "stepper.steps": steps,
        "stepper.step.self_s": self_s("stepper.step"),
        "stepper.predict.self_s": self_s("stepper.predict"),
        "stepper.correct.self_s": self_s("stepper.correct"),
        "stepper.correct.us_per_call": per_call_us("stepper.correct"),
        "stepper.correct.total_s": correct_total,
        "stepper.correct_over_solve": (
            correct_total / solve_total
            if correct_total is not None and solve_total else None),
        "stepper.secant.updates_mean": stat(secant, np.mean),
        "stepper.secant.updates_max": stat(secant, np.max),
        "stepper.residual_F.calls": calls("stepper.residual_F"),
        "stepper.active_count.mean": stat(active, np.mean),
        "stepper.active_count.max": stat(active, np.max),
        "diagnostics.ledger.self_s": self_s("diagnostics.ledger"),
        "grid.calls": calls("grid"),
        "grid.self_s": self_s("grid"),
        "cli.write.self_s": self_s("cli.write"),
        "trace.accounted_frac": (1.0 - float(self_t[root].sum()) / root_dur
                                 if root_dur else None),
    }
    counts = {
        "spans": len(spans),
        "transforms": meta["transforms"],
        "steps": steps,
        **{f"calls.{n}": int((nid == i).sum()) for i, n in enumerate(names)},
        "krylov_iters": None if iters is None else iters.tolist(),
        "secant_updates": None if secant is None else secant.tolist(),
        "active_counts": None if active is None else active.tolist(),
        "hooks": hooks,
    }
    return m, {"steps_ms": step_ms, "counts": counts}
