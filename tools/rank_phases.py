"""Set-up, S check, projection and search times of the ``rank`` ops in a batch.

    python3 tools/rank_phases.py oracle 1
    python3 tools/rank_phases.py oracle 2 --repeat 9

Builds the workload's fixed batch with ``perfbench/workloads.py`` (read,
not changed) and times, in-process, the four parts of ``rank_over_field``
on the tensor of every ``rank`` CLI op: the set-up
(``_prepare_span_search``: residues and the concise core), the S check
(``_rank_is_dim_s``: whether the rank is dim S), and, only when the S
check fails, as ``rank_over_field`` runs them, the candidate projection
(``_project_candidates``) and the quotient searches for
r = dim S + 1, ..., r_max on that projection.  Each part is the best of N
runs; a run projects afresh, so its search starts with no neighbour mask
built.  Prints one line per group of ops sharing the field, the squeezed
core dims over that field and the final j (the rank minus dim S; ``set-up``
when the set-up decides the rank, ``refused`` when it refuses the search,
``>`` when no r <= r_max works), with the summed best times in ms, then
the totals.  The package is imported from the ``src/`` next to this
script.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from bench import import_package  # noqa: E402


def _flag(argv, name, default):
    return int(argv[argv.index(name) + 1]) if name in argv else default


def _best(fn, repeat):
    """(best seconds, result) of repeat calls of fn."""
    best = result = None
    for _ in range(repeat):
        t0 = perf_counter()
        result = fn()
        dt = perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, result


def op_phases(t, q, r_max, repeat):
    """(core dims, final j, set-up s, S check s, projection s, search s)
    of one op."""
    from border3.rank_oracle import (SearchSpaceError, _prepare_span_search,
                                     _project_candidates, _quotient_search,
                                     _rank_is_dim_s, from_rational)
    from border3.tensor import Tensor, concise_core, squeeze

    residues = Tensor(t.dims, tuple(from_rational(x, q) for x in t.entries))
    dims = squeeze(concise_core(residues, q).core)[0].dims

    def prepare():
        try:
            return _prepare_span_search(t, q)
        except SearchSpaceError:
            return None

    setup, prepared = _best(prepare, repeat)
    if prepared is None:
        return dims, "refused", setup, 0.0, 0.0, 0.0
    _, ctx = prepared
    if ctx is None:
        return dims, "set-up", setup, 0.0, 0.0, 0.0
    slice_rows, rest, low = ctx
    if low > r_max:
        return dims, ">", setup, 0.0, 0.0, 0.0
    check, is_dim_s = _best(lambda: _rank_is_dim_s(slice_rows, rest, q),
                            repeat)
    if is_dim_s:
        return dims, 0, setup, check, 0.0, 0.0

    def search(qt):
        masks = {}
        for r in range(low + 1, r_max + 1):
            if _quotient_search(qt, r - low, masks):
                return r - low
        return ">"

    project = search_s = None
    for _ in range(repeat):
        t0 = perf_counter()
        qt = _project_candidates(slice_rows, rest, q)
        t1 = perf_counter()
        j = search(qt)
        t2 = perf_counter()
        project = t1 - t0 if project is None else min(project, t1 - t0)
        search_s = t2 - t1 if search_s is None else min(search_s, t2 - t1)
    return dims, j, setup, check, project, search_s


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workload", choices=workloads.WORKLOADS)
    p.add_argument("seed", type=int)
    p.add_argument("--repeat", type=int, default=5,
                   help="runs per part; the best counts (default 5)")
    args = p.parse_args(argv)
    import_package()
    from border3.tensor import loads_tensor

    groups = defaultdict(lambda: [0, 0.0, 0.0, 0.0, 0.0])
    for op in workloads.generate(args.workload, args.seed):
        if not op.label.startswith("rank."):
            continue
        cli_argv, text = json.loads(op.key)
        q = _flag(cli_argv, "--field", None)
        r_max = _flag(cli_argv, "--rmax", 6)
        dims, j, *times = op_phases(loads_tensor(text), q, r_max, args.repeat)
        g = groups[(q, dims, str(j))]
        g[0] += 1
        for i, s in enumerate(times, 1):
            g[i] += s
    print(f"{'field':>5} {'core dims':<14} {'j':>7} {'ops':>4} "
          f"{'set-up ms':>10} {'S check ms':>11} {'project ms':>11} "
          f"{'search ms':>10}")
    totals = [0, 0.0, 0.0, 0.0, 0.0]
    for (q, dims, j), g in sorted(groups.items(), key=str):
        print(f"F{q:<4} {str(dims):<14} {j:>7} {g[0]:>4} "
              f"{g[1] * 1e3:>10.2f} {g[2] * 1e3:>11.2f} {g[3] * 1e3:>11.2f} "
              f"{g[4] * 1e3:>10.2f}")
        totals = [a + b for a, b in zip(totals, g)]
    print(f"{'all':<5} {'':<14} {'':>7} {totals[0]:>4} "
          f"{totals[1] * 1e3:>10.2f} {totals[2] * 1e3:>11.2f} "
          f"{totals[3] * 1e3:>11.2f} {totals[4] * 1e3:>10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
