"""One benchmark sample: set-up and one `posikit solve` in a fresh interpreter.

    python3 perfbench/child.py --config CFG --out DIR --result FILE
                               [--setup-only] [--spans FILE.npz]

Times the set-up a user pays before a solve (``import posikit``, config
parse, model and options build, initial state), then the
``posikit.cli.main(["solve", ...])`` call, and writes one JSON object to
``--result``: the raw times, and the mean time of the speed probe's chunk
over the set-up and over the solve, by which ``run.py`` calibrates them.
``--spans`` traces the solve through the hooks of
``tracing.py`` and writes the spans there.  ``run.py`` starts one child per
sample, because posikit's per-grid caches live as long as the process and
would otherwise carry memory and warm state from one sample to the next.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time

PROBE_INTERVAL_S = 0.02


def _probe_chunk() -> float:
    """A fixed piece of pure-Python work, 45 to 65 us on a shared 2.1 GHz
    Xeon core depending on the load other tenants put on it."""
    acc = 0.0
    for i in range(600):
        acc = acc * 0.5 + i * 1.5
    return acc


class SpeedProbe:
    """Times ``_probe_chunk`` every ``PROBE_INTERVAL_S`` while the sample runs.

    The chunk runs from a SIGALRM handler, so it runs in the main thread,
    on the core the solve runs on, between two of the solve's bytecodes.
    Each timing is the speed of that core at that moment; other tenants of
    a shared host move it by up to half.  ``run.py`` divides each time by
    the mean chunk time of its window.  The probe's own CPU time is
    recorded so that it can be taken out of ``cpu_s``.
    """

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []  # start, wall, cpu

    def _tick(self, signum, frame):
        c = time.thread_time()
        t = time.perf_counter()
        _probe_chunk()
        self.samples.append((t, time.perf_counter() - t,
                             time.thread_time() - c))

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def window(self, start, end) -> tuple[float, float]:
        """(mean chunk wall time, probe CPU time) of chunks in [start, end).

        The mean follows the time-averaged speed of the core over the
        window; the slowest 5 % of chunks are left out, because a chunk
        preempted once reads hundreds of times too slow.
        """
        inside = [s for s in self.samples if start <= s[0] < end]
        if not inside:
            inside = self.samples[-1:]
        walls = sorted(s[1] for s in inside)
        kept = walls[:max(1, int(0.95 * len(walls)))]
        return sum(kept) / len(kept), sum(s[2] for s in inside)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    tracer = None
    if args.spans:
        from tracing import Tracer
        tracer = Tracer()
        tracer.count_transforms()

    probe = SpeedProbe()
    probe.start()
    t0 = time.perf_counter()
    import posikit  # noqa: F401
    from posikit import cli
    cfg = cli.parse_config(args.config)
    model = cli.build_model(cfg)
    cli.build_options(cfg, model)
    model.initial_state()
    t1 = time.perf_counter()
    result = {"setup_s": t1 - t0}

    if not args.setup_only:
        solve = cli.main
        if tracer is not None:
            tracer.install()
            solve = tracer.wrap("cli.main", cli.main)
            tracer.reset()
        c0 = time.process_time()
        w0 = time.perf_counter()
        code = solve(["solve", "--config", args.config, "--out", args.out])
        w1 = time.perf_counter()
        cpu = time.process_time() - c0
        result["wall_s"] = w1 - w0
        result["probe_solve_s"], probe_cpu = probe.window(w0, w1)
        result["cpu_s"] = cpu - probe_cpu
        result["exit_code"] = code
        if tracer is not None:
            tracer.dump(args.spans)
    probe.stop()
    result["probe_setup_s"] = probe.window(t0, t1)[0]
    # ru_maxrss is in KiB on Linux
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["peak_rss_mb"] = rss_kib / 1024
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0 if result.get("exit_code", 0) == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
