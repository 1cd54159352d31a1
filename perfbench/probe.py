"""Set-up probe: a fresh interpreter imports advwave and calls each op once.

The runner times this whole process, from spawn to exit, as one ``setup_s``
sample.  Ops run on the smallest inputs that reach the same code as the
workload (``workloads.probe_ops``), so the sample is interpreter start, import
and first-call cost rather than work that scales with input size.

    python3 perfbench/probe.py --workload tables --seed 1 --out DIR
"""
from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402  (after the path set-up)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    for op in workloads.probe_ops(args.workload, args.seed):
        rc, _ = workloads.execute(op, args.out)
        # the probe's validate is under-resolved and may report failed rows
        allowed = (0, 2) if op.argv[:1] == ("validate",) else (0,)
        if rc not in allowed:
            print(f"probe op {op.label!r} exited {rc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
