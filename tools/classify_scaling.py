"""Best-of-N ``classify`` times and call counts on GL-moved sigma_3 points.

    python3 tools/classify_scaling.py --n 6 7 8 --repeat 3
    python3 tools/classify_scaling.py --n 5 --seed 4

For every n and every kind i, ii, iii, iv, moves ``sigma3_point(kind, n)``
by a random unimodular GL tuple drawn from ``random.Random(seed * 100 + n)``
(the kinds in that order, one stream per n), so two source trees classify
the same inputs.  Prints one line per point: its verdict (class and limit
type), the best of N in-process ``classify`` times, and, from one more
call, how often ``classify`` called ``concise_core`` and ``pivot_columns``
(the latter also counts the calls inside ``rank``).  The counting call runs
apart from the timed ones, so its wrappers cost the times nothing.  The
package is imported from the ``src/`` next to this script.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

KINDS = ("i", "ii", "iii", "iv")


def count_calls(names, fn):
    """(fn(), {name: calls}) with every ``border3`` module attribute that
    refers to one of the named functions wrapped by a counter."""
    import border3._linalg
    import border3.tensor
    counts = dict.fromkeys(names, 0)
    originals = {name: getattr(mod, name) for name in names
                 for mod in (border3.tensor, border3._linalg) if hasattr(mod, name)}

    def counter(name, real):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return wrapped

    patched = []
    for mod in [m for k, m in sys.modules.items() if k.startswith("border3")]:
        for name, real in originals.items():
            if getattr(mod, name, None) is real:
                patched.append((mod, name, real))
                setattr(mod, name, counter(name, real))
    try:
        return fn(), counts
    finally:
        for mod, name, real in patched:
            setattr(mod, name, real)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--n", type=int, nargs="+", default=[6, 7],
                   help="factor counts (default 6 7)")
    p.add_argument("--repeat", type=int, default=3,
                   help="timed classify calls per point; the best counts (default 3)")
    p.add_argument("--seed", type=int, default=0, help="GL-move seed (default 0)")
    args = p.parse_args(argv)
    from border3.classifier import classify
    from border3.normal_forms import sigma3_point
    from border3.tensor import apply_gl, random_gl_tuple

    print(f"{'n':>2} {'kind':<4} {'class':>5} {'type':<4} {'best s':>8} "
          f"{'concise_core':>12} {'pivot_columns':>13}")
    for n in args.n:
        rng = random.Random(args.seed * 100 + n)
        for kind in KINDS:
            t = sigma3_point(kind, n)
            t = apply_gl(t, random_gl_tuple(t.dims, rng))
            best = None
            for _ in range(args.repeat):
                t0 = perf_counter()
                classify(t)
                dt = perf_counter() - t0
                best = dt if best is None else min(best, dt)
            rep, counts = count_calls(("concise_core", "pivot_columns"),
                                      lambda: classify(t))
            print(f"{n:>2} {kind:<4} {rep.border_rank_class!s:>5} "
                  f"{rep.limit_type!s:<4} {best:>8.3f} "
                  f"{counts['concise_core']:>12} {counts['pivot_columns']:>13}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
