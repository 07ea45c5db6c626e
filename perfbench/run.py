"""posikit benchmark: run one workload the way a user does and report metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workloads, the metrics and their
units are defined in ``BENCHMARK.json``; ``README.md`` next to this file
says which layer metric should move which end-to-end metric on which
workload.

Every sample is a fresh interpreter (``child.py``) that runs
``posikit.cli.main(["solve", "--config", <generated config>, "--out", <dir>])``
once: closed loop, one sample at a time.  A run first starts one set-up-only
child that is not timed (it leaves bytecode and file caches warm, which a
user who runs `posikit` twice also has), then solve children until
``--seconds`` have passed and at least two solves are done, then set-up-only
children until ``MIN_SETUP_SAMPLES`` set-ups have been timed.  Every
solve's output files go through the gates of ``gates.py``, and every solve
of a run must write byte-identical output.

``--trace 0`` reports the end-to-end metrics as medians over the run's
samples, with times calibrated by the speed probe of ``child.py``.
``--trace 1`` runs two untraced solves and at least two traced ones, and
reports the per-layer metrics of the traced solves (medians for times; the
deterministic counts must agree exactly between traced solves).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable table (median, quartile spread and sample count per metric) and a
record of the machine and library versions.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gates  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, config_text  # noqa: E402

# Times are rescaled to a core on which child.py's probe chunk takes this
# long; see README.md ("Calibrated times").
NOMINAL_PROBE_S = 50e-6
MIN_SOLVES = 2              # a median needs more than one long solve
MIN_SETUP_SAMPLES = 3       # solves plus set-up-only children
MIN_TRACED_STEPS = 1000     # step spans pooled before a p99 is reported
LAST_START_S = 120.0        # no sample starts later than this into a run
CHILD_TIMEOUT_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(root) -> dict:
    """Child environment: posikit from ``src``, at most nproc threads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    cap = nproc()
    for var in THREAD_VARS:
        cur = env.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= cap:
            env[var] = str(cap)
    return env


def machine_record(root, env) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    sha = None
    head = os.path.join(root, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        sha = ref
        if ref.startswith("ref: "):
            path = os.path.join(root, ".git", ref[5:])
            if os.path.isfile(path):
                with open(path) as fh:
                    sha = fh.read().strip()
    return {
        "nproc": nproc(), "cpu_model": cpu, "platform": platform.platform(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"), "git_sha": sha,
        "threads": {v: env[v] for v in THREAD_VARS},
    }


class Runner:
    """Starts children one at a time and checks what each one wrote."""

    def __init__(self, root, workload, seed, cfg_path, tmp, reference):
        self.root = root
        self.w = workload
        self.seed = seed
        self.cfg = cfg_path
        self.tmp = tmp
        self.reference = reference
        self.env = child_env(root)
        self.attempted = 0
        self.failed = 0
        self.digest = None

    def child(self, setup_only=False, traced=False):
        """One child; returns (result dict or None, out dir, spans file)."""
        i = self.attempted
        self.attempted += 1
        out = os.path.join(self.tmp, f"out-{i}")
        res_path = os.path.join(self.tmp, f"result-{i}.json")
        spans = os.path.join(self.tmp, f"spans-{i}.npz") if traced else None
        cmd = [sys.executable, os.path.join(HERE, "child.py"),
               "--config", self.cfg, "--out", out, "--result", res_path]
        if setup_only:
            cmd.append("--setup-only")
        if spans:
            cmd += ["--spans", spans]
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env,
                                  capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return self.fail(i, [f"timed out after {CHILD_TIMEOUT_S} s"])
        if proc.returncode != 0 or not os.path.isfile(res_path):
            tail = (proc.stderr or "").strip().splitlines()[-3:]
            return self.fail(i, [f"exit code {proc.returncode}"] + tail)
        with open(res_path) as fh:
            result = json.load(fh)
        if setup_only:
            return result, None, None
        try:
            errors = gates.check(self.w, self.seed, out, self.reference)
        except (OSError, ValueError) as exc:
            errors = [f"unreadable output: {exc}"]
        digest = gates.output_digest(out)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            errors.append("output differs from the first solve of this run")
        if errors:
            self.fail(i, errors)
        return result, out, spans

    def fail(self, i, errors):
        self.failed += 1
        gates.report(errors, f"{self.w.name} seed {self.seed} child {i}")
        return None, None, None


def quartile_spread(values):
    """(median, (q3 - q1) / median) of the samples."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def calibrated(res, key, window):
    return res[key] * NOMINAL_PROBE_S / res[window]


def timed_run(r: Runner, seconds):
    solves = []
    start = time.perf_counter()
    while True:
        res, out, _ = r.child()
        if res:
            solves.append(res)
            shutil.rmtree(out, ignore_errors=True)
        elapsed = time.perf_counter() - start
        if len(solves) >= MIN_SOLVES and elapsed >= seconds:
            break
        if elapsed >= LAST_START_S:
            break
    setup = list(solves)
    for _ in range(MIN_SETUP_SAMPLES - len(setup)):
        res, _, _ = r.child(setup_only=True)
        if res:
            setup.append(res)
    samples = {
        "wall_s": [calibrated(s, "wall_s", "probe_solve_s") for s in solves],
        "cpu_s": [calibrated(s, "cpu_s", "probe_solve_s") for s in solves],
        "setup_s": [calibrated(s, "setup_s", "probe_setup_s") for s in setup],
        "peak_rss_mb": [s["peak_rss_mb"] for s in solves],
        "raw wall_s": [s["wall_s"] for s in solves],
        "raw cpu_s": [s["cpu_s"] for s in solves],
        "raw setup_s": [s["setup_s"] for s in setup],
        "probe_us": [s["probe_solve_s"] * 1e6 for s in solves],
    }
    return {k: v for k, v in samples.items() if v}


def traced_run(r: Runner, seconds):
    untraced, traced, layer, step_ms = [], [], [], []
    # uncalibrated times of the untraced solves, so that a comparison can
    # also be made without the speed probe; traced children import the
    # tracer (and through it scipy.fft) before their set-up clock starts
    raw = {"raw.wall_s": [], "raw.cpu_s": [], "raw.setup_s": []}
    first = None     # counts, output bytes and ledger maximum of the first
    start = time.perf_counter()
    while True:
        if len(untraced) < MIN_SOLVES:
            res, out, _ = r.child()
            if res:
                untraced.append(calibrated(res, "wall_s", "probe_solve_s"))
                raw["raw.wall_s"].append(res["wall_s"])
                raw["raw.cpu_s"].append(res["cpu_s"])
                raw["raw.setup_s"].append(res["setup_s"])
                shutil.rmtree(out, ignore_errors=True)
        res, out, spans = r.child(traced=True)
        if res:
            traced.append(calibrated(res, "wall_s", "probe_solve_s"))
            metrics, extra = tracing.analyze(spans)
            layer.append(metrics)
            step_ms.append(extra["steps_ms"])
            if first is None:
                first = (extra["counts"],
                         sum(os.path.getsize(os.path.join(out, f))
                             for f in os.listdir(out)),
                         ledger_max(r.w, out))
            elif extra["counts"] != first[0]:
                r.fail(r.attempted - 1, ["deterministic counts differ from "
                                          "the first traced solve"])
            shutil.rmtree(out, ignore_errors=True)
        pooled = sum(len(s) for s in step_ms)
        elapsed = time.perf_counter() - start
        if (len(traced) >= MIN_SOLVES and len(untraced) >= MIN_SOLVES
                and pooled >= MIN_TRACED_STEPS and elapsed >= seconds):
            break
        if elapsed >= LAST_START_S:
            break
    if not layer:
        return {}
    samples = {name: [m[name] for m in layer if m[name] is not None] or None
               for name in layer[0]}
    steps = np.concatenate(step_ms)
    if len(steps):
        samples["stepper.step.ms_p50"] = [float(np.percentile(steps, 50))]
    if len(steps) >= MIN_TRACED_STEPS:
        samples["stepper.step.ms_p99"] = [float(np.percentile(steps, 99))]
    samples["cli.write.bytes"] = [first[1]]
    samples["diagnostics.ledger_residual.max"] = [first[2]]
    samples.update({k: v for k, v in raw.items() if v})
    if untraced:
        samples["trace.overhead"] = [statistics.median(traced)
                                     / statistics.median(untraced) - 1.0]
    return samples


def ledger_max(w, out_dir) -> float:
    """Largest ledger residual of the run; 0 where no ledger is attached."""
    if w.two_species:
        return 0.0
    col = gates.read_run_csv(os.path.join(out_dir, "run.csv"))[:, -1]
    col = col[np.isfinite(col)]
    return float(col.max()) if len(col) else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "posikit", "cli.py")):
        print("perfbench: no posikit sources under ./src; run from the root "
              "of a posikit checkout", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    tmp = os.path.join(root, ".perfbench_tmp", f"{w.name}-{os.getpid()}")
    os.makedirs(tmp)
    try:
        cfg = os.path.join(tmp, "workload.cfg")
        with open(cfg, "w") as fh:
            fh.write(config_text(w, args.seed))
        r = Runner(root, w, args.seed, cfg, tmp, gates.load_reference())
        warm, _, _ = r.child(setup_only=True)
        if warm is None:
            print("perfbench: posikit does not set up; no result",
                  file=sys.stderr)
            return 2
        if args.trace:
            samples = traced_run(r, args.seconds)
        else:
            samples = timed_run(r, args.seconds)
        record = machine_record(root, r.env)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass

    metrics = {}
    print(f"perfbench {w.name} seed {args.seed} trace {args.trace}")
    print(f"  {'failed_frac':38s} {r.failed / r.attempted:14.6g} 1      "
          f"{r.failed} of {r.attempted} children failed")
    for m in wanted:
        vals = samples.get(m["name"])
        if vals is None:
            metrics[m["name"]] = {"value": None, "unit": m["unit"]}
            print(f"  {m['name']:38s} {'absent':>14s} {m['unit']}")
            continue
        med, spread = quartile_spread(vals)
        metrics[m["name"]] = {"value": med, "unit": m["unit"]}
        print(f"  {m['name']:38s} {med:14.6g} {m['unit']:6s} "
              f"IQR/median {spread:.3f}  n={len(vals)}")
    shown = {m["name"] for m in wanted}
    for name, vals in samples.items():
        if name not in shown and vals:
            med, spread = quartile_spread(vals)
            print(f"  ({name:36s} {med:14.6g}        "
                  f"IQR/median {spread:.3f}  n={len(vals)})")
    print("perfbench record: " + json.dumps(record))
    print(json.dumps({"correct": r.failed == 0, "attempted": r.attempted,
                      "failed": r.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
