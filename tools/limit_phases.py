"""Phase times of the limit-plane ops in a workload batch.

    python3 tools/limit_phases.py limits 1
    python3 tools/limit_phases.py limits 1 --repeat 9

Builds the workload's fixed batch with ``perfbench/workloads.py`` (read,
not changed) and times, in-process, the parts of every ``limit`` CLI op
and every ``limit_config`` op, in the order the library runs them:

- limit type: ``limit_type`` (``limit_config`` ops only), which the op runs
  before its plane;
- config curves: ``limit_config_curves`` (``limit_config`` ops only);
- embedding: ``_ambient_polynomial`` on each of the three chart curves;
- reduce: ``_reduce_rows`` on the embedded curves, modulo t^D;
- span basis: ``_back_substitute`` on the echelon of the leading vectors
  that ``_reduce_rows`` returns;
- sample: ``LimitPlaneResult.sample`` with the verb's coefficients
  (``BORDER3_SEED``, default 0; ``limit`` ops only);
- classify: ``classify`` of the sampled point (``limit`` ops only);
- JSON: reading the verb's config and writing its output (``limit`` ops
  only).

Each part is the best of N runs.  Prints one line per op label with the
summed best times in ms, then the totals.  The package is imported from
the ``src/`` next to this script.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from bench import import_package  # noqa: E402

PHASES = ("limit type", "config curves", "embedding", "reduce", "span basis",
          "sample", "classify", "JSON")


def _best(fn, repeat):
    """(best seconds, result) of repeat calls of fn."""
    best = result = None
    for _ in range(repeat):
        t0 = perf_counter()
        result = fn()
        dt = perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, result


def _plane_phases(model, curves, repeat, times):
    """Time the embedding, reduction and span basis of chart_limit_plane;
    returns the LimitPlaneResult."""
    from border3._linalg import _back_substitute
    from border3.limits import (LimitPlaneResult, _ambient_polynomial,
                                _curve_data, _reduce_rows)

    polys = [_curve_data(c) for c in curves]
    times["embedding"], amb = _best(
        lambda: [_curve_data(_ambient_polynomial(model, d)) for d in polys],
        repeat)
    bound = sum(len(d) - 1 for d in amb) + 1
    times["reduce"], reduced = _best(lambda: _reduce_rows(amb, bound), repeat)
    if reduced is None:
        return LimitPlaneResult((), (), None, degenerate=True)
    leads, echelon = reduced

    def basis_rows():
        rows = [list(v) for _, v in echelon]
        _back_substitute(rows, [p for p, _ in echelon])
        return rows

    times["span basis"], basis = _best(basis_rows, repeat)
    orders = tuple(o for o, _ in leads)
    return LimitPlaneResult(tuple(map(tuple, basis)), orders, sum(orders))


def config_op_phases(key, repeat):
    """{phase: best s} of one limit_config op, rebuilt from its key."""
    from border3.limits import (LimitConfig, ScalarSeries, VectorSeries,
                                limit_config_curves, limit_type, segre_model)

    _, k, l, (vdata, wdata), lamdata = json.loads(key)
    vdata, wdata = ([[Fraction(x) for x in r] for r in d] for d in (vdata, wdata))
    lamdata = [Fraction(x) for x in lamdata]
    prec = max(len(vdata), len(wdata), len(lamdata))
    model = segre_model(workloads.SEGRE333)
    cfg = LimitConfig(model, k, l, VectorSeries.from_polynomial(vdata, prec),
                      VectorSeries.from_polynomial(wdata, prec),
                      ScalarSeries(lamdata, prec))
    times = {}
    times["limit type"], _ = _best(lambda: limit_type(cfg), repeat)
    times["config curves"], curves = _best(lambda: limit_config_curves(cfg), repeat)
    _plane_phases(model, curves, repeat, times)
    return times


def limit_verb_phases(key, repeat):
    """{phase: best s} of one limit CLI op, rebuilt from its key."""
    from border3.classifier import classify
    from border3.cli import _curve_from_json, _model_from_json, _seed_rng
    from border3.normal_forms import segre_tensor_from_ambient
    from border3.tensor import scalar_str

    _, text = json.loads(key)

    def read():
        cfg = json.loads(text)
        return (_model_from_json(cfg["model"]),
                [_curve_from_json(c) for c in cfg["curves"]])

    times = {}
    read_s, (model, curves) = _best(read, repeat)
    result = _plane_phases(model, curves, repeat, times)
    if result.degenerate:
        times["JSON"] = read_s
        return times
    coeffs = [_seed_rng().randint(1, 97) for _ in result.plane]
    times["sample"], vec = _best(lambda: result.sample(coeffs), repeat)
    times["classify"], report = _best(
        lambda: classify(segre_tensor_from_ambient(model, vec)), repeat)

    def write():
        return json.dumps({
            "degenerate": result.degenerate,
            "orders": list(result.orders),
            "leading_order": result.leading_order,
            "plane": [[scalar_str(x) for x in row] for row in result.plane],
            "sample": {"coefficients": [scalar_str(c) for c in coeffs],
                       "vector": [scalar_str(x) for x in vec],
                       "classification": report.as_dict()},
        })

    write_s, _ = _best(write, repeat)
    times["JSON"] = read_s + write_s
    return times


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workload", choices=workloads.WORKLOADS)
    p.add_argument("seed", type=int)
    p.add_argument("--repeat", type=int, default=5,
                   help="runs per part; the best counts (default 5)")
    args = p.parse_args(argv)
    import_package()
    os.environ.setdefault("BORDER3_SEED", "0")

    groups = {}
    for op in workloads.generate(args.workload, args.seed):
        if op.label == "limit":
            times = limit_verb_phases(op.key, args.repeat)
        elif op.label == "limit_config":
            times = config_op_phases(op.key, args.repeat)
        else:
            continue
        g = groups.setdefault(op.label, [0, dict.fromkeys(PHASES, 0.0)])
        g[0] += 1
        for phase, s in times.items():
            g[1][phase] += s
    print(f"{'op':<13} {'ops':>4} " + " ".join(f"{p:>13}" for p in PHASES)
          + f" {'total':>9}   (ms)")
    totals = [0, dict.fromkeys(PHASES, 0.0)]
    for label, (n, times) in sorted(groups.items()):
        print(f"{label:<13} {n:>4} "
              + " ".join(f"{times[p] * 1e3:>13.2f}" for p in PHASES)
              + f" {sum(times.values()) * 1e3:>9.2f}")
        totals[0] += n
        for p in PHASES:
            totals[1][p] += times[p]
    print(f"{'all':<13} {totals[0]:>4} "
          + " ".join(f"{totals[1][p] * 1e3:>13.2f}" for p in PHASES)
          + f" {sum(totals[1].values()) * 1e3:>9.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
