"""Write ``reference.npz``: sampled final fields of every workload and level.

    python3 perfbench/make_reference.py

Run from the root of a checkout, only at a commit whose results are known to
be right: the gates of ``gates.py`` then compare every later run against
these fields.  For each workload and each jitter level of ``workloads.py``
the script runs one `posikit solve` through ``child.py``, checks it with
every gate except the reference itself (so each level is also checked to
stay in its workload's regime), and stores the sampled final field under
``<workload>/<level>``.  The file is always written whole.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gates  # noqa: E402
from run import Runner  # noqa: E402
from workloads import JITTER, WORKLOADS, config_text  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.parse_args(argv)
    root = os.getcwd()
    stored = {}
    tmp = os.path.join(root, ".perfbench_tmp", f"reference-{os.getpid()}")
    os.makedirs(tmp)
    try:
        for name, w in WORKLOADS.items():
            for level in range(len(JITTER)):
                cfg = os.path.join(tmp, f"{name}-{level}.cfg")
                with open(cfg, "w") as fh:
                    fh.write(config_text(w, level))
                r = Runner(root, w, level, cfg, tmp, reference=None)
                _, out, _ = r.child()
                if out is None:
                    print(f"{name} level {level}: failed, nothing stored",
                          file=sys.stderr)
                    return 1
                u, _ = gates.final_field(w, out)
                stored[gates.reference_key(w, level)] = gates.sample(w, u)
                shutil.rmtree(out)
                print(f"{name} level {level}: stored", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    np.savez_compressed(gates.REFERENCE_FILE, **stored)
    return 0


if __name__ == "__main__":
    sys.exit(main())
