"""Degree-4 commutation equations and slice-determinant cubics for 3x3x3 tensors.

The quartic system evaluates, for each of the three slicing directions, the
nine entries of  Z adj(X) Y - Y adj(X) Z  where (X, Y, Z) are the three slices
of that direction and adj is the classical adjugate.  Vanishing of all 27
values characterises border rank <= 3 for concise 3x3x3 tensors.

The quartics exist only as this numeric evaluation.  Their Jacobian is in
closed form: each block is linear in Y and Z, so those partials are entries
of the products of adj(X) with Y and Z, and quadratic in X, so an X-partial
is the same block with adj(X) replaced by the four-entry change of the
adjugate along a unit matrix.

The slice cubic det(s S0 + t S1 + u S2), whose coefficients are sums of
mixed determinants of the slices' rows, splits into lines in one of four
ways (zero, a cube, a square times a line, squarefree), and linear algebra
tells them apart: the rank of its three partials is 1 for a cube and 3 for
a squarefree cubic, and at rank 2 the cubic is a cone over a binary cubic,
whose discriminant says whether a line repeats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import product

from ._linalg import _norm, pivot_columns, rank, transpose
from .tensor import _gather, slice_matrices

_COF_INDEX = ((1, 2), (0, 2), (0, 1))


def _cofactor_matrix(x):
    """cof[j][k] = (-1)^(j+k) * minor of x with row j, column k removed."""
    cof = [[0] * 3 for _ in range(3)]
    for j in range(3):
        r0, r1 = _COF_INDEX[j]
        for k in range(3):
            c0, c1 = _COF_INDEX[k]
            m = x[r0][c0] * x[r1][c1] - x[r0][c1] * x[r1][c0]
            cof[j][k] = m if (j + k) % 2 == 0 else -m
    return cof


def _commutator(cof, y, z):
    """Nine values P[s][t] = sum_{j,k} cof[j][k] (y[j][t] z[s][k] - y[s][k] z[j][t]),
    that is Z C^T Y - Y C^T Z, skipping the zeros of cof."""
    terms = [(j, k, c) for j, row in enumerate(cof) for k, c in enumerate(row) if c]
    out = []
    for s in range(3):
        ys, zs = y[s], z[s]
        for t in range(3):
            acc = 0
            for j, k, c in terms:
                acc += c * (y[j][t] * zs[k] - ys[k] * z[j][t])
            out.append(_norm(acc))
    return out


def strassen_equations(t):
    """All 27 quartic values, slicing along modes 0, 1, 2 in turn.

    Within each slicing direction the first slice plays the adjugate role and
    the nine entries are listed row-major.
    """
    if t.dims != (3, 3, 3):
        raise ValueError("the quartic system is defined for dims (3, 3, 3)")
    vals = []
    for mode in range(3):
        x, y, z = slice_matrices(t, mode)
        vals.extend(_commutator(_cofactor_matrix(x), y, z))
    return vals


def _mul3(a, b):
    return [[a[i][0] * b[0][j] + a[i][1] * b[1][j] + a[i][2] * b[2][j]
             for j in range(3)] for i in range(3)]


def _cofactor_step(x, r, c):
    """cof(X + E_rc) - cof(X): the adjugate is quadratic and adj(E_rc) = 0,
    so this is the derivative along E_rc.  Only the four minors that keep
    row r and column c change, each by the signed entry opposite (r, c)."""
    d = [[0] * 3 for _ in range(3)]
    for j in range(3):
        if j == r:
            continue
        r2 = 3 - r - j
        for k in range(3):
            if k == c:
                continue
            c2 = 3 - c - k
            v = x[r2][c2]
            # the minor gains +v when (r, c) and (r2, c2) are its main
            # diagonal, -v otherwise; the cofactor adds the sign (-1)^(j+k)
            d[j][k] = v if ((r < r2) == (c < c2)) == ((j + k) % 2 == 0) else -v
    return d


def _jacobian(t):
    """The 27x27 Jacobian of the quartic system at t: rows are the quartics in
    the order of strassen_equations, columns the entries x_ijk (flat 9i+3j+k).

    Each block P = Z A Y - Y A Z, with A = adj(X), is linear in Y and Z, so
    along a unit matrix E_rc its Y-partial Z A E_rc - E_rc A Z and its
    Z-partial E_rc A Y - Y A E_rc are read off the products Z A, A Z, Y A
    and A Y.  It is quadratic in X, and its X-partial is Z D Y - Y D Z with
    D = adj(X + E_rc) - adj(X), which has four nonzero entries.
    """
    if t.dims != (3, 3, 3):
        raise ValueError("the quartic system is defined for dims (3, 3, 3)")
    jac = [[0] * 27 for _ in range(27)]
    for mode in range(3):
        x, y, z = slice_matrices(t, mode)
        adj = transpose(_cofactor_matrix(x))
        za, az, ya, ay = _mul3(z, adj), _mul3(adj, z), _mul3(y, adj), _mul3(adj, y)
        rows = jac[9 * mode:9 * mode + 9]
        # pos[9a + 3r + c]: column of the entry with index a in `mode` and
        # (r, c) in the other two modes
        pos = _gather(t.dims, (mode, *(m for m in range(3) if m != mode)))
        for r in range(3):
            for c in range(3):
                dx = _commutator(_cofactor_step(x, r, c), y, z)
                vx, vy, vz = pos[3 * r + c], pos[9 + 3 * r + c], pos[18 + 3 * r + c]
                for s in range(3):
                    for u in range(3):
                        row = rows[3 * s + u]
                        row[vx] = dx[3 * s + u]
                        row[vy] = _norm((za[s][r] if u == c else 0)
                                        - (az[c][u] if s == r else 0))
                        row[vz] = _norm((ay[c][u] if s == r else 0)
                                        - (ya[s][r] if u == c else 0))
    return jac


def strassen_jacobian_rank(t):
    """Rank of the 27x27 Jacobian of the quartic system at t."""
    # the quartics are homogeneous, so clearing denominators scales the
    # Jacobian by a nonzero constant: same rank, integer arithmetic
    den = math.lcm(*(x.denominator for x in t.entries))
    return rank(_jacobian(den * t))


# ---- slice determinant cubics ----

@dataclass(frozen=True)
class TernaryCubic:
    """Homogeneous cubic in (s, t, u): dict {(i,j,k): coeff} with i+j+k = 3."""
    coeffs: tuple  # sorted tuple of ((i,j,k), coeff)

    @staticmethod
    def from_dict(d):
        items = tuple(sorted((e, c) for e, c in d.items() if c))
        for e, _ in items:
            if len(e) != 3 or sum(e) != 3:
                raise ValueError(f"not a ternary cubic monomial: {e}")
        return TernaryCubic(items)

    def as_dict(self):
        return {e: c for e, c in self.coeffs}

    def is_zero(self):
        return not self.coeffs

    def evaluate(self, s, t, u):
        total = 0
        for (i, j, k), c in self.coeffs:
            total += c * s ** i * t ** j * u ** k
        return _norm(total)


def _mixed_terms():
    """The 27 ways to take row 0 from slice a, row 1 from slice b and row 2
    from slice c, as (a, 3b + c) pairs grouped by the exponent of (s, t, u)
    they feed: how often each slice is used."""
    groups = {}
    for a, b, c in product(range(3), repeat=3):
        e = tuple((a, b, c).count(v) for v in range(3))
        groups.setdefault(e, []).append((a, 3 * b + c))
    return tuple(sorted((e, tuple(ts)) for e, ts in groups.items()))


_MIXED_TERMS = _mixed_terms()


def slice_det_cubic(t, mode):
    """det(s*S0 + t*S1 + u*S2) for the slices along a mode of a 3x3x3 tensor.

    The determinant is linear in each row, so the coefficient of s^i t^j u^k
    is the sum of the mixed determinants det(row 0 of S_a, row 1 of S_b,
    row 2 of S_c) over the assignments (a, b, c) that use slice 0 i times,
    slice 1 j times and slice 2 k times.  Each is row 0 of S_a dotted with
    the cross product of the other two rows.  The cubic of c*T is c^3 times
    that of T, so a caller that only reads its line pattern may clear the
    denominators of T first and work on integers.
    """
    if t.dims != (3, 3, 3):
        raise ValueError("slice determinants are defined for dims (3, 3, 3)")
    slices = slice_matrices(t, mode)
    first = [m[0] for m in slices]
    # cross[3b + c] = (row 1 of S_b) x (row 2 of S_c)
    cross = []
    for m in slices:
        y0, y1, y2 = m[1]
        for n in slices:
            z0, z1, z2 = n[2]
            cross.append((y1 * z2 - y2 * z1, y2 * z0 - y0 * z2, y0 * z1 - y1 * z0))
    coeffs = []
    for e, terms in _MIXED_TERMS:
        c = 0
        for a, bc in terms:
            x0, x1, x2 = first[a]
            w0, w1, w2 = cross[bc]
            c += x0 * w0 + x1 * w1 + x2 * w2
        if c:
            coeffs.append((e, _norm(c)))
    # _MIXED_TERMS is sorted, so these are already in from_dict's order
    return TernaryCubic(tuple(coeffs))


class LinePattern(Enum):
    IDENTICALLY_ZERO = "identically_zero"
    TRIPLE_LINE = "triple_line"
    DOUBLE_LINE_PLUS_LINE = "double_line_plus_line"
    SQUAREFREE = "squarefree"


def _cubic_partials(d):
    out = []
    for var in range(3):
        p = {}
        for e, c in d.items():
            k = e[var]
            if k:
                e2 = list(e)
                e2[var] -= 1
                p[tuple(e2)] = k * c
        out.append(p)
    return out


def cubic_line_pattern(cubic):
    """Classify det-slice cubics: zero, a cube, a square times a line, or squarefree.

    Read off the rank of the three partials of F.  Rank 1: F is the cube of
    a linear form.  Rank 3: F is squarefree, since F = L^2 M would put every
    partial in L*<L, M>.  Rank 2: some v != 0 has sum_i v_i dF/dx_i = 0, so
    F is a cone with vertex v; taking v_f = 1 at the free column f of the
    rref, F(x) = G(x - x_f v) with G the binary cubic F|_{x_f = 0}, and F
    has a repeated line exactly when G has a repeated root, that is when
    its discriminant is 0.
    """
    d = cubic.as_dict()
    if not d:
        return LinePattern.IDENTICALLY_ZERO
    partials = _cubic_partials(d)
    monos = sorted({e for p in partials for e in p})
    pivots = pivot_columns([[p.get(e, 0) for p in partials] for e in monos])
    if len(pivots) == 1:
        return LinePattern.TRIPLE_LINE
    if len(pivots) == 3:
        return LinePattern.SQUAREFREE
    f = next(v for v in range(3) if v not in pivots)
    # G = a u^3 + b u^2 w + c u w^2 + e w^3 in the pivot variables (u, w)
    g = {m[pivots[0]]: x for m, x in d.items() if not m[f]}
    a, b, c, e = (g.get(k, 0) for k in (3, 2, 1, 0))
    disc = (b * b * c * c - 4 * a * c ** 3 - 4 * b ** 3 * e - 27 * a * a * e * e
            + 18 * a * b * c * e)
    return LinePattern.SQUAREFREE if disc else LinePattern.DOUBLE_LINE_PLUS_LINE
