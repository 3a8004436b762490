"""One timed set-up of a workload in a fresh process, so that the set-up
pays for every import the program makes, third-party ones included.

    python3 perfbench/setup_once.py --workload dl_full_load --seed 1 < state

Standard input holds the pickled ``Workload.setup_state()`` of a prepared
workload. The last line of standard output is
``{"raw_s": ..., "before_ms": ..., "after_ms": ...}``: the wall time from
just before the program is imported to the end of the warm-up step, and
the reference probes run right before and right after it. ``run.py``
starts this script once per set-up it times and waits for it.
"""
from __future__ import annotations

import os

# before numpy is imported anywhere: no BLAS or OpenMP thread pools
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from measure import Probe  # noqa: E402
from workloads import WORKLOADS, import_program  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload](args.seed)
    vars(workload).update(pickle.load(sys.stdin.buffer))
    probe = Probe()
    probe.run()                      # first calls into numpy, not measured
    before = probe.run()
    t0 = time.perf_counter()
    workload.setup(import_program())
    raw = time.perf_counter() - t0
    after = probe.run()
    workload.close()
    print(json.dumps({"raw_s": raw, "before_ms": before, "after_ms": after}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
