"""Check that the end-to-end metrics repeat: run.py on several seeds.

    python3 perfbench/steady.py [--seeds 10] [--workload NAME ...]

Run from the repository root.  For every workload, runs ``run.py`` once per
seed (1..N) and prints, per end-to-end metric, the median over the runs and
the quartile spread ``(q3 - q1) / median`` next to the metric's bound from
``BENCHMARK.json``.  A spread above a third of its bound is marked, except
for ``setup_s``, which is bounded only on its median.  Exits non-zero if a
run fails or is incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    run = [sys.executable, os.path.join(os.path.dirname(__file__), "run.py")]
    names = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    for name in names:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                run + ["--workload", name, "--seed", str(seed), "--seconds",
                       str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr}", flush=True)
                ok = False
                continue
            result = json.loads(lines[-1])
            ok &= result["correct"]
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            frac = result["failed"] / result["attempted"]
            print(f"{name} seed {seed}: correct {result['correct']} "
                  f"failed_frac {frac:.3g} ({result['failed']} of "
                  f"{result['attempted']}) "
                  + " ".join(f"{k}={v['value']:.6g}"
                             for k, v in result["metrics"].items()),
                  flush=True)
        for m in spec["end_to_end"]:
            vals = values.get(m["name"], [])
            if len(vals) < 2:
                continue
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = ("" if m["name"] == "setup_s" or spread < m["bound"] / 3
                    else "  <-- above bound/3")
            print(f"{name:20s} {m['name']:12s} median {med:10.5g} "
                  f"spread {spread:.4f} bound {m['bound']}{flag}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
