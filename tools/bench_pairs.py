"""Alternated parent/change pairs of the committed benchmark, summarized.

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload catalog --pairs 10 --seed 301

Each tree is a checkout of the repository (a ``git archive`` or ``git clone``
copy).  Pair i runs both trees' ``perfbench/run.py --trace 0`` on seed
SEED + i for ``BENCHMARK.json``'s ``run_seconds``, with
``PYTHONDONTWRITEBYTECODE=1`` and the tree as working directory; the parent
runs first in even pairs and the change first in odd ones, so drift of the
host's speed falls on both sides.  The two trees must hold the same
``perfbench/`` and ``BENCHMARK.json``, or nothing runs.  For every
end-to-end metric of ``BENCHMARK.json`` it prints each side's median and
quartiles and the pairs in which the change is better in the metric's
``better`` direction, then each side's failed-op counts.  Exit code 1 when
the trees' harnesses differ or a run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def _harness_files(tree):
    """{relative path: bytes} of BENCHMARK.json and perfbench/, without the
    files that running or importing it leaves behind."""
    tree = Path(tree)
    files = {"BENCHMARK.json": (tree / "BENCHMARK.json").read_bytes()}
    for path in sorted((tree / "perfbench").rglob("*")):
        rel = path.relative_to(tree)
        if path.is_file() and "__pycache__" not in rel.parts and rel.parts[1] != "out":
            files[rel.as_posix()] = path.read_bytes()
    return files


def harness_difference(parent, change):
    """The sorted paths whose harness files differ between two trees."""
    a, b = _harness_files(parent), _harness_files(change)
    return sorted(p for p in a.keys() | b.keys() if a.get(p) != b.get(p))


def pair_plan(pairs, seed):
    """(seed, sides in run order) per pair, the parent first in even pairs."""
    return [(seed + i, ("parent", "change") if i % 2 == 0 else ("change", "parent"))
            for i in range(pairs)]


def run_once(tree, workload, seed, seconds):
    """The result JSON (the last stdout line) of one untraced run."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree} seed {seed}: exit {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent, change, end_to_end):
    """One row per end-to-end metric from paired result dicts:
    (name, unit, parent (q1, median, q3), change (q1, median, q3), wins),
    wins counting the pairs in which the change is strictly better."""
    rows = []
    for spec in end_to_end:
        name = spec["name"]
        a = [r["metrics"][name]["value"] for r in parent]
        b = [r["metrics"][name]["value"] for r in change]
        sign = 1 if spec["better"] == "higher" else -1
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        rows.append((name, spec["unit"], _quartiles(a), _quartiles(b), wins))
    return rows


def render(rows, parent, change):
    """The summary table and the failed-op counts, as text."""
    n = len(parent)
    lines = [f"| metric | parent median [q1, q3] | change median [q1, q3] "
             f"| change better |",
             "|---|---|---|---|"]
    for name, unit, (a1, a2, a3), (b1, b2, b3), wins in rows:
        lines.append(f"| {name} ({unit}) | {a2:.4g} [{a1:.4g}, {a3:.4g}] "
                     f"| {b2:.4g} [{b1:.4g}, {b3:.4g}] | {wins}/{n} |")
    for side, results in (("parent", parent), ("change", change)):
        lines.append(f"{side} failed ops: "
                     + "/".join(str(r["failed"]) for r in results)
                     + f" of {'/'.join(str(r['attempted']) for r in results)}")
    return "\n".join(lines)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", help="checkout of the parent commit")
    p.add_argument("change", help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    for tree in (args.parent, args.change):
        if not (Path(tree) / "BENCHMARK.json").is_file():
            p.error(f"{tree} holds no BENCHMARK.json")

    differ = harness_difference(args.parent, args.change)
    if differ:
        print("error: the trees' benchmark harnesses differ: "
              + ", ".join(differ), file=sys.stderr)
        return 1
    bench = json.loads((Path(args.change) / "BENCHMARK.json").read_text())
    trees = {"parent": args.parent, "change": args.change}
    results = {"parent": [], "change": []}
    try:
        for seed, order in pair_plan(args.pairs, args.seed):
            for side in order:
                results[side].append(run_once(trees[side], args.workload, seed,
                                              bench["run_seconds"]))
            ops = [results[s][-1]["metrics"]["ops_per_s"]["value"]
                   for s in ("parent", "change")]
            print(f"seed {seed}: ops_per_s {ops[0]:.0f} -> {ops[1]:.0f}",
                  file=sys.stderr)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rows = summarize(results["parent"], results["change"], bench["end_to_end"])
    print(f"{args.workload}, {args.pairs} alternated pairs, seeds "
          f"{args.seed}..{args.seed + args.pairs - 1}, "
          f"{bench['run_seconds']} s a run")
    print(render(rows, results["parent"], results["change"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
