"""The sparse 3x3x3 sample's concise verdicts against two independent oracles.

    python3 tools/sparse_audit.py

Takes the first 20,000 draws of the sparse sample (``sparse_draws`` in
``tests/koszul_reference.py``: values from {1, 1, -1, 2} at 3 to 9 random
positions, from ``random.Random(3)``) and classifies each concise draw,
one whose three flattenings have rank 3.  An orbit verdict k agrees when
the draw's stabilizer dimension is that of orbit k in ``ORBIT_INFO`` and
its Koszul flattening has rank at most 6 in every direction, as on
sigma_3; neither oracle shares code with the quartic decision.  Prints the
counts of concise draws, agreeing and wrong orbit verdicts, ``unknown``
verdicts, greater_than_3 verdicts, and greater_than_3 verdicts whose three
Koszul ranks are all at most 6.  Takes about 4 s.  Exit code 1 when any
orbit verdict is wrong or any verdict is ``unknown``.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from border3.classifier import (  # noqa: E402
    GREATER_THAN_3, UNKNOWN, classify, stabilizer_dimension,
)
from border3.normal_forms import ORBIT_INFO  # noqa: E402
from border3.tensor import multilinear_rank  # noqa: E402
from koszul_reference import koszul_ranks, sparse_draws  # noqa: E402

DRAWS = 20_000


def sparse_counts(draws=DRAWS):
    """The counts this script prints, over the first draws of the sample."""
    counts = dict.fromkeys(("concise", "orbit_agrees", "orbit_wrong", "unknown",
                            "greater_than_3", "greater_than_3_koszul_le_6"), 0)
    for t in sparse_draws(draws):
        if multilinear_rank(t) != (3, 3, 3):
            continue
        counts["concise"] += 1
        rep = classify(t)
        if rep.border_rank_class == UNKNOWN:
            counts["unknown"] += 1
            continue
        low = max(koszul_ranks(t)) <= 6
        if rep.border_rank_class == GREATER_THAN_3:
            counts["greater_than_3"] += 1
            counts["greater_than_3_koszul_le_6"] += low
        else:
            ok = low and (stabilizer_dimension(t)
                          == ORBIT_INFO[rep.orbit_id]["stabilizer_dim"])
            counts["orbit_agrees" if ok else "orbit_wrong"] += 1
    return counts


def main():
    counts = sparse_counts()
    print(f"sparse sample: {DRAWS} draws from random.Random(3)")
    for name, n in counts.items():
        print(f"{name}: {n}")
    return 1 if counts["orbit_wrong"] or counts["unknown"] else 0


if __name__ == "__main__":
    sys.exit(main())
