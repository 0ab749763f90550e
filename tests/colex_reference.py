"""Reference rank search over GF(q): r-subsets of candidates in colex order.

A second exhaustive search, kept as a differential oracle for the
quotient-space search in rank_over_field.  The two share only the core
reduction (_prepare_span_search) and the candidate list
(_rank_one_candidates).
"""

from border3.rank_oracle import (
    GreaterThan, _prepare_span_search, _rank_one_candidates,
)


class _GFSpan:
    """Incremental echelon span over GF(q) with pop-undo."""

    def __init__(self, q):
        self.q = q
        self.rows = []
        self.pivots = []

    @property
    def dim(self):
        return len(self.rows)

    def _reduce(self, v):
        q = self.q
        v = [x % q for x in v]
        for row, p in zip(self.rows, self.pivots):
            f = v[p]
            if f:
                v = [(a - f * b) % q for a, b in zip(v, row)]
        return v

    def add(self, v):
        v = self._reduce(v)
        for c, x in enumerate(v):
            if x:
                inv = pow(x, self.q - 2, self.q)
                self.rows.append([a * inv % self.q for a in v])
                self.pivots.append(c)
                return True
        return False

    def pop(self):
        self.rows.pop()
        self.pivots.pop()


def _span_search(slice_rows, cands, r, q):
    """First (in colex order) r-subset of cands whose span contains the rows."""
    chosen_span = _GFSpan(q)
    joint_span = _GFSpan(q)
    for row in slice_rows:
        joint_span.add(row)
    target = joint_span.dim
    if target > r:
        return None
    found = []

    def rec(bound, slots):
        for i in range(slots - 1, bound):
            cand = cands[i]
            if not chosen_span.add(cand):
                continue  # no span growth: a smaller subset would already win
            grew = joint_span.add(cand)
            needed = joint_span.dim - chosen_span.dim
            if needed == 0:
                found.append(i)
                return True
            if needed <= slots - 1 and slots > 1:
                found.append(i)
                if rec(i, slots - 1):
                    return True
                found.pop()
            chosen_span.pop()
            if grew:
                joint_span.pop()
        return False

    if target == 0:
        return ()
    return tuple(sorted(found)) if rec(len(cands), r) else None


def colex_rank_over_field(t, q, r_max=6):
    """rank_over_field computed with the colex subset search."""
    decided, ctx = _prepare_span_search(t, q)
    if ctx is None:
        return decided if decided <= r_max else GreaterThan(r_max)
    slice_rows, rest, low = ctx
    cands = _rank_one_candidates(rest, q)
    for r in range(low, r_max + 1):
        if _span_search(slice_rows, cands, r, q) is not None:
            return r
    return GreaterThan(r_max)
