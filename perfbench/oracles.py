"""Exact reference checks written without the package's own code paths.

Every expected answer in the benchmark is either fixed by construction at
generation time or re-derived here with small stdlib-only routines, so a
change that breaks the timed code cannot also break the check that judges it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import prod


def matrix_rank(rows):
    """Rank over Q by plain Gaussian elimination on Fractions."""
    m = [[Fraction(x) for x in row] for row in rows if any(row)]
    rank = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        p = m[rank][c]
        for i in range(rank + 1, len(m)):
            if m[i][c]:
                f = m[i][c] / p
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def mode_ranks(dims, entries):
    """Multilinear rank (the concise core dims) of a flat row-major tensor."""
    out = []
    for mode, d in enumerate(dims):
        rows = [[] for _ in range(d)]
        for idx, x in zip(product(*map(range, dims)), entries):
            rows[idx[mode]].append(x)
        out.append(matrix_rank(rows))
    return tuple(out)


def outer_sum(dims, terms):
    """Flat entries of sum coeff * v_1 (x) ... (x) v_n over the given terms."""
    acc = [Fraction(0)] * prod(dims)
    for coeff, vectors in terms:
        for flat, idx in enumerate(product(*map(range, dims))):
            acc[flat] += Fraction(coeff) * prod(
                Fraction(v[i]) for v, i in zip(vectors, idx))
    return acc


def _slices3(entries):
    return [[[entries[9 * a + 3 * b + c] for c in range(3)] for b in range(3)]
            for a in range(3)]


def _adj3(m):
    def minor(r, c):
        rs = [i for i in range(3) if i != r]
        cs = [j for j in range(3) if j != c]
        return (m[rs[0]][cs[0]] * m[rs[1]][cs[1]]
                - m[rs[0]][cs[1]] * m[rs[1]][cs[0]])
    return [[(-1) ** (r + c) * minor(c, r) for c in range(3)] for r in range(3)]


def _mul3(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)]


def strassen_witness(entries):
    """True when a 3x3x3 tensor provably has border rank > 3.

    Strassen's condition: with mode-0 slices A, B, C and A invertible, border
    rank <= 3 forces B adj(A) C = C adj(A) B.  Returns None when A is
    singular, so the caller redraws instead of guessing.
    """
    a, b, c = _slices3(entries)
    adj = _adj3(a)
    det = sum(a[0][k] * adj[k][0] for k in range(3))
    if det == 0:
        return None
    return _mul3(_mul3(b, adj), c) != _mul3(_mul3(c, adj), b)


def _dmul(x, y):
    return (x[0] * y[0], x[0] * y[1] + x[1] * y[0])


def _dsub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def _quartic_values(dual):
    """The 27 commutator quartics of strassen_equations' docstring.

    For each mode the slices x, y, z (rows and columns in mode order) give
    P[s][t] = sum_{j,k} cof(x)[j][k] (y[j][t] z[s][k] - y[s][k] z[j][t]);
    entries are dual numbers (value, derivative).
    """
    def entry(a, b, c):
        return dual[9 * a + 3 * b + c]

    out = []
    for mode in range(3):
        x, y, z = [[[entry(*((i, r, c) if mode == 0 else (r, i, c) if mode == 1
                             else (r, c, i))) for c in range(3)]
                    for r in range(3)] for i in range(3)]
        cof = [[None] * 3 for _ in range(3)]
        for j in range(3):
            r0, r1 = [r for r in range(3) if r != j]
            for k in range(3):
                c0, c1 = [c for c in range(3) if c != k]
                m = _dsub(_dmul(x[r0][c0], x[r1][c1]),
                          _dmul(x[r0][c1], x[r1][c0]))
                cof[j][k] = m if (j + k) % 2 == 0 else (-m[0], -m[1])
        for s in range(3):
            for t in range(3):
                acc = (0, 0)
                for j in range(3):
                    for k in range(3):
                        term = _dsub(_dmul(y[j][t], z[s][k]),
                                     _dmul(y[s][k], z[j][t]))
                        p = _dmul(cof[j][k], term)
                        acc = (acc[0] + p[0], acc[1] + p[1])
                out.append(acc)
    return out


def quartic_jacobian_rank(entries):
    """Rank of the Jacobian of the 27 quartics, by dual-number derivatives."""
    cols = []
    for e in range(27):
        dual = [(Fraction(v), 1 if i == e else 0) for i, v in enumerate(entries)]
        cols.append([d for _, d in _quartic_values(dual)])
    return matrix_rank(cols)


def segre_point(dims, chart):
    """Segre image (1, a) (x) (1, b) (x) ... of a chart point, row-major."""
    vecs, pos = [], 0
    for d in dims:
        vecs.append([1] + [Fraction(x) for x in chart[pos:pos + d - 1]])
        pos += d - 1
    return [prod(v[i] for v, i in zip(vecs, idx))
            for idx in product(*map(range, dims))]


def in_span(rows, vec):
    return matrix_rank(list(rows) + [list(vec)]) == matrix_rank(rows)


def coordinates(rows, vec):
    """c with sum c_i rows_i = vec for independent rows, else None."""
    n = len(rows)
    # columns of the augmented system: one equation per entry of vec
    m = [[Fraction(r[j]) for r in rows] + [Fraction(vec[j])]
         for j in range(len(vec))]
    for c in range(n):
        piv = next((i for i in range(c, len(m)) if m[i][c]), None)
        if piv is None:
            return None
        m[c], m[piv] = m[piv], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for i in range(len(m)):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    if any(row[n] for row in m[n:]):
        return None
    return [m[i][n] for i in range(n)]


def poly_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + Fraction(c1) * Fraction(c2)
    return {e: c for e, c in out.items() if c}


def poly_combination(multipliers, generators):
    total = {}
    for h, g in zip(multipliers, generators):
        for e, c in poly_mul(h, g).items():
            total[e] = total.get(e, 0) + c
    return {e: c for e, c in total.items() if c}


def same_poly(p, q):
    keys = set(p) | set(q)
    return all(Fraction(p.get(e, 0)) == Fraction(q.get(e, 0)) for e in keys)
