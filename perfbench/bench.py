"""Closed-loop measurement core shared by the runner and the self-test.

One client issues each operation only after the previous one returned.
An operation is either a CLI verb called in-process through
``border3.cli.main(argv)`` with the tensor JSON on a swapped-in stdin, or a
library entry point where no verb exists.  Every execution is checked.
"""

from __future__ import annotations

import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# the tail is read at the highest percentile with this many samples above it
TAIL_BEYOND = 10
# inputs faster than this get the extra repeats of measure(fill_share=...)
FILL_BELOW_S = 0.005


def import_package():
    """Put the checkout's sources first on sys.path and import the package."""
    if not (SRC / "border3" / "cli.py").is_file():
        raise FileNotFoundError(f"no border3 sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import border3  # noqa: F401
    import border3.cli  # noqa: F401


@dataclass
class Op:
    """One checked operation of a workload's fixed batch."""

    label: str                                   # verb or entry point
    run: Callable[[], object]                    # the timed call
    check: Callable[[object], "str | None"]      # None when the answer is right
    key: str                                     # canonical input, for the digest
    dims: tuple = ()
    core_dims: tuple = ()
    bits: int = 0


def run_checked(op):
    """Execute and check one operation; returns (seconds, failure or None)."""
    t0 = perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # a raising operation is a failed operation
        return perf_counter() - t0, f"raised {type(exc).__name__}: {exc}"
    dt = perf_counter() - t0
    try:
        return dt, op.check(result)
    except Exception as exc:
        return dt, f"check raised {type(exc).__name__}: {exc}"


@dataclass
class Measurement:
    latencies: list      # per op, the seconds of each execution
    attempted: int
    failures: list       # (op label, reason)
    passes: int
    wall_s: float


def measure(ops, seconds, between=None, fill_share=0.0):
    """Run passes over the batch until `seconds` elapse (at least one pass).

    The deadline is checked before each operation once the first pass is
    complete, so every input is measured at least once.  `between`, when
    given, is called between operations, outside their timing.

    With `fill_share`, each later pass interleaves extra repeats of the
    cheap inputs (best below ``FILL_BELOW_S``): after each other operation
    they run round-robin for that share of its time.  A batch whose time
    goes to a few long searches then still gives each short input many
    repeats, spread over the whole run, to take its best from.
    """
    lat = [[] for _ in ops]
    failures = []
    attempted = passes = 0
    cheap, turn, debt = [], 0, 0.0
    start = perf_counter()

    def execute(i):
        nonlocal attempted
        if between is not None:
            between()
        dt, why = run_checked(ops[i])
        attempted += 1
        lat[i].append(dt)
        if why is not None:
            failures.append((ops[i].label, why))
        return dt

    done = False
    while not done:
        for i in range(len(ops)):
            if passes and perf_counter() - start >= seconds:
                done = True
                break
            dt = execute(i)
            if not cheap or min(lat[i]) < FILL_BELOW_S:
                continue
            debt += fill_share * dt
            while debt > 0 and perf_counter() - start < seconds:
                debt -= execute(cheap[turn])
                turn = (turn + 1) % len(cheap)
        else:
            passes += 1
            done = perf_counter() - start >= seconds
            if fill_share and not cheap:
                cheap = [i for i, x in enumerate(lat) if min(x) < FILL_BELOW_S]
    return Measurement(lat, attempted, failures, passes, perf_counter() - start)


def per_op_best(measurements):
    """Best (lowest) seconds of each op over its executions in the runs given.

    The host's speed changes in bursts of up to 2x within a run; the best of
    an input's repeats estimates its own cost without them.
    """
    merged = [sum(lats, []) for lats in
              zip(*(m.latencies for m in measurements))]
    return [min(x) for x in merged if x]


def latency_summary(best):
    """ops/s over the batch, median and tail latency from per-input bests."""
    s = sorted(best)
    n = len(s)
    k = max(n - TAIL_BEYOND - 1, 0)
    return {
        "ops_per_s": n / sum(s),
        "op_p50_ms": statistics.median(s) * 1e3,
        "op_tail_ms": s[k] * 1e3,
        "tail_percentile": 100.0 * (k + 1) / n,
        "tail_samples": n,
        "tail_beyond": n - k - 1,
    }
