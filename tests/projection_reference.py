"""Reference candidate projection: each candidate lifted on its own.

The projection that rank_over_field used before its lifts were read from
per-head tables: every candidate's lift is summed from the lifts of the
unit vectors, and each new generator's multiples are added up one by one.
Kept to check _project_candidates field by field, with where in insertion
order.
"""

from border3._linalg import _gf_add, _multiples, _pack, rref
from border3.rank_oracle import _ZERO_SPACE, _Quotient, _grow


def project_candidates(slice_rows, cands, q):
    basis, pivots = rref(slice_rows, q)
    k = len(pivots)
    n = len(basis[0])
    free = [c for c in range(n) if c not in pivots]
    shift = 4 * k
    low = (1 << shift) - 1
    over, top = _pack([8 - q] * n), _pack([8] * n)
    qs = (top - over) & low
    units = []
    for c in range(n):
        coords = [int(c == p) for p in pivots]
        image = [(int(c == f) - sum(a * r[f] for a, r in zip(coords, basis)))
                 % q for f in free]
        units.append(_multiples(_pack(coords + image), q, over, top))
    gens, extra, spans, where = [], [], [], {}
    root = _ZERO_SPACE
    for cand in cands:
        v = 0
        for c, x in enumerate(cand):
            if x:
                s = v + units[c][x]
                v = s - (((s + over) & top) >> 3) * q
        hit = where.get(v >> shift)
        if hit is not None:
            p, part = hit
            diff = _gf_add(v & low, qs - part, q, over, top)
            grown = _grow(spans[p], diff, q, over, top)
            if grown is not spans[p]:
                spans[p] = grown
                extra[p].append(diff)
        elif v >> shift:
            for m in _multiples(v, q, over, top)[1:]:
                where[m >> shift] = (len(gens), m & low)
            gens.append(v)
            spans.append(_ZERO_SPACE)
            extra.append([])
        else:
            root = _grow(root, v, q, over, top)
    return _Quotient(q, k, over, top, tuple(gens), where,
                     tuple(map(tuple, extra)), root)
