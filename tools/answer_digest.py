"""One SHA-256 per workload and seed over every benchmark answer.

    python3 tools/answer_digest.py                       # all four workloads, seeds 1 and 2
    python3 tools/answer_digest.py --workload limits --seed 7

Builds each workload's fixed batch with ``perfbench/workloads.py`` (read,
not changed), runs every operation once in batch order and hashes, per
operation, its key followed by ``repr`` of its result, with no separator.
Two source trees whose digests agree give byte-identical answers on the
benchmark's inputs.  Each line also counts the operations whose answer
fails the workload's check.  The package is imported from the ``src/``
next to this script.  Exit code 1 when any operation failed.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from bench import import_package  # noqa: E402


def answer_digest(workload, seed):
    """(hex digest, op count, failed op count) of one workload's batch."""
    h = hashlib.sha256()
    ops = workloads.generate(workload, seed)
    failed = 0
    for op in ops:
        try:
            result = op.run()
        except Exception as exc:  # a raising operation is a failed one
            result = exc
            failed += 1
        else:
            failed += op.check(result) is not None
        h.update(op.key.encode())
        h.update(repr(result).encode())
    return h.hexdigest(), len(ops), failed


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=workloads.WORKLOADS,
                   help="workload to hash (repeatable; default all)")
    p.add_argument("--seed", type=int, action="append",
                   help="seed to hash (repeatable; default 1 and 2)")
    args = p.parse_args(argv)
    import_package()
    # the limit verb samples its plane with coefficients from BORDER3_SEED
    os.environ["BORDER3_SEED"] = "0"
    any_failed = False
    for workload in args.workload or workloads.WORKLOADS:
        for seed in args.seed or (1, 2):
            hexdigest, n, failed = answer_digest(workload, seed)
            any_failed |= bool(failed)
            print(f"{workload} seed {seed}: {hexdigest} "
                  f"({n} ops, {failed} failed)")
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
