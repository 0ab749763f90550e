"""Degree-4 commutation equations and slice-determinant cubics for 3x3x3 tensors.

The quartic system evaluates, for each of the three slicing directions, the
nine entries of  Z adj(X) Y - Y adj(X) Z  where (X, Y, Z) are the three slices
of that direction and adj is the classical adjugate.  These 27 values lie in
Strassen's 27-dimensional module of degree-4 equations for sigma_3 but span
only 19 of its dimensions, so their vanishing is necessary for border rank
<= 3, not sufficient.  ``classifier._decide_concise_333`` evaluates the same
block with each mode-0 slice as X in turn, 27 values that span the module.

The quartics exist only as this numeric evaluation, in product form: with
A = adj(X) written out entry by entry, a block (``_block``) is Z (A Y) -
Y (A Z), read off the products A Y and A Z in 108 multiplications, where
summing the terms cof_jk (y_jt z_sk - y_sk z_jt) one by one takes up to
162.  Their Jacobian is in closed form: each block is linear in Y and Z, so
those partials are entries of the products of adj(X) with Y and Z, and
quadratic in X, so an X-partial is the same block function with adj(X)
replaced by the four-entry change of the adjugate along a unit matrix; the
products skip its zero entries.

The slice cubic det(s S0 + t S1 + u S2), whose ten coefficients
(``_cubic_coefficients``) are sums of mixed determinants of the slices'
rows, splits into lines in one of four ways (zero, a cube, a square times a
line, squarefree), and ``_line_pattern`` tells them apart by linear algebra
on those coefficients: the rank of the cubic's three partials is 1 for a
cube and 3 for a squarefree cubic, and at rank 2 the cubic is a cone over a
binary cubic, whose discriminant says whether a line repeats.  The partials
are three vectors of six coefficients, one per quadratic monomial, filled
from the ten coefficients through a fixed table.

The block, the coefficients and the pattern take a direction's slices, so
a caller that decides a core (``classifier._decide_concise_333``) gathers
the slices once, evaluates its blocks, stops at the first nonzero one, and
reads the line patterns off the same slices.  The public
``strassen_equations``, ``slice_det_cubic`` and ``cubic_line_pattern`` are
thin wrappers that gather the slices or unpack a ``TernaryCubic``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import product

from ._linalg import _norm, rank, small_pivots
from .tensor import _gather, slice_matrices


def _adjugate(x):
    """The classical adjugate of a 3x3 matrix: adj(X) X = det(X) I."""
    (x00, x01, x02), (x10, x11, x12), (x20, x21, x22) = x
    return [[x11 * x22 - x12 * x21, x02 * x21 - x01 * x22, x01 * x12 - x02 * x11],
            [x12 * x20 - x10 * x22, x00 * x22 - x02 * x20, x02 * x10 - x00 * x12],
            [x10 * x21 - x11 * x20, x01 * x20 - x00 * x21, x00 * x11 - x01 * x10]]


def _block(a, y, z):
    """The nine entries of Z (A Y) - Y (A Z), row-major, from the products
    A Y and A Z; the zero entries of a are skipped."""
    ay, az = [], []
    for row in a:
        u0 = u1 = u2 = w0 = w1 = w2 = 0
        for v, (y0, y1, y2), (z0, z1, z2) in zip(row, y, z):
            if v:
                u0 += v * y0
                u1 += v * y1
                u2 += v * y2
                w0 += v * z0
                w1 += v * z1
                w2 += v * z2
        ay.append((u0, u1, u2))
        az.append((w0, w1, w2))
    (p0, p1, p2), (q0, q1, q2), (r0, r1, r2) = ay
    (f0, f1, f2), (g0, g1, g2), (h0, h1, h2) = az
    out = []
    for (ya, yb, yc), (za, zb, zc) in zip(y, z):
        out += (_norm(za * p0 + zb * q0 + zc * r0 - ya * f0 - yb * g0 - yc * h0),
                _norm(za * p1 + zb * q1 + zc * r1 - ya * f1 - yb * g1 - yc * h1),
                _norm(za * p2 + zb * q2 + zc * r2 - ya * f2 - yb * g2 - yc * h2))
    return out


def strassen_equations(t):
    """All 27 quartic values, slicing along modes 0, 1, 2 in turn.

    Within each slicing direction the first slice plays the adjugate role and
    the nine entries are listed row-major.  The values span 19 of the 27
    dimensions of Strassen's module: they vanish on every tensor of border
    rank <= 3, and on some others.
    """
    if t.dims != (3, 3, 3):
        raise ValueError("the quartic system is defined for dims (3, 3, 3)")
    vals = []
    for mode in range(3):
        x, y, z = slice_matrices(t, mode)
        vals += _block(_adjugate(x), y, z)
    return vals


def _mul3(a, b):
    return [[a[i][0] * b[0][j] + a[i][1] * b[1][j] + a[i][2] * b[2][j]
             for j in range(3)] for i in range(3)]


def _adjugate_step(x, r, c):
    """adj(X + E_rc) - adj(X): the adjugate is quadratic and adj(E_rc) = 0,
    so this is the derivative along E_rc.  Only the four entries (k, j)
    with k != c and j != r change, each by the signed entry of x opposite
    (r, c) in the minor of row j and column k."""
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
            # diagonal, -v otherwise; the adjugate adds the sign (-1)^(j+k)
            d[k][j] = v if ((r < r2) == (c < c2)) == ((j + k) % 2 == 0) else -v
    return d


def _jacobian(t):
    """The 27x27 Jacobian of the quartic system at t: rows are the quartics in
    the order of strassen_equations, columns the entries x_ijk (flat 9i+3j+k).

    Each block P = Z A Y - Y A Z, with A = adj(X), is linear in Y and Z, so
    along a unit matrix E_rc its Y-partial Z A E_rc - E_rc A Z and its
    Z-partial E_rc A Y - Y A E_rc are read off the products Z A, A Z, Y A
    and A Y.  It is quadratic in X, and its X-partial is the block with A
    replaced by D = adj(X + E_rc) - adj(X), which has four nonzero entries.
    """
    if t.dims != (3, 3, 3):
        raise ValueError("the quartic system is defined for dims (3, 3, 3)")
    jac = [[0] * 27 for _ in range(27)]
    for mode in range(3):
        x, y, z = slice_matrices(t, mode)
        adj = _adjugate(x)
        za, az, ya, ay = _mul3(z, adj), _mul3(adj, z), _mul3(y, adj), _mul3(adj, y)
        rows = jac[9 * mode:9 * mode + 9]
        # pos[9a + 3r + c]: column of the entry with index a in `mode` and
        # (r, c) in the other two modes
        pos = _gather(t.dims, (mode, *(m for m in range(3) if m != mode)))
        for r in range(3):
            for c in range(3):
                dx = _block(_adjugate_step(x, r, c), y, z)
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
            if e not in _CUBIC_INDEX:
                raise ValueError(f"not a ternary cubic monomial: {e}")
        return TernaryCubic(items)

    def as_dict(self):
        return {e: c for e, c in self.coeffs}

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
_CUBIC_INDEX = {e: i for i, (e, _) in enumerate(_MIXED_TERMS)}


def _partials_table():
    """One column per variable v, one entry per quadratic monomial m: the
    position in _MIXED_TERMS of the cubic monomial m * v and its exponent
    of v.  The coefficient of m in dF/dv is that exponent times F's
    coefficient at that position."""
    quadrics = sorted({tuple(x - (w == v) for w, x in enumerate(e))
                       for e in _CUBIC_INDEX for v in range(3) if e[v]})
    return tuple(tuple((_CUBIC_INDEX[tuple(x + (w == v) for w, x in enumerate(m))],
                        m[v] + 1) for m in quadrics) for v in range(3))


_PARTIALS = _partials_table()


def _cubic_coefficients(slices):
    """The ten coefficients of det(s S0 + t S1 + u S2), zeros included, in
    the order of _MIXED_TERMS, for the three 3x3 slices S0, S1, S2.

    The determinant is linear in each row, so the coefficient of s^i t^j u^k
    is the sum of the mixed determinants det(row 0 of S_a, row 1 of S_b,
    row 2 of S_c) over the assignments (a, b, c) that use slice 0 i times,
    slice 1 j times and slice 2 k times.  Each is row 0 of S_a dotted with
    the cross product of the other two rows.  Integer slices give integer
    coefficients.
    """
    first = [m[0] for m in slices]
    # cross[3b + c] = (row 1 of S_b) x (row 2 of S_c)
    cross = []
    for m in slices:
        y0, y1, y2 = m[1]
        for n in slices:
            z0, z1, z2 = n[2]
            cross.append((y1 * z2 - y2 * z1, y2 * z0 - y0 * z2, y0 * z1 - y1 * z0))
    coeffs = []
    for _, terms in _MIXED_TERMS:
        c = 0
        for a, bc in terms:
            x0, x1, x2 = first[a]
            w0, w1, w2 = cross[bc]
            c += x0 * w0 + x1 * w1 + x2 * w2
        coeffs.append(c)
    return coeffs


def slice_det_cubic(t, mode):
    """det(s*S0 + t*S1 + u*S2) for the slices along a mode of a 3x3x3 tensor,
    from ``_cubic_coefficients``.  The cubic of c*T is c^3 times that of T,
    so a caller that only reads its line pattern may clear the denominators
    of T first and work on integers.
    """
    if t.dims != (3, 3, 3):
        raise ValueError("slice determinants are defined for dims (3, 3, 3)")
    coeffs = _cubic_coefficients(slice_matrices(t, mode))
    # _MIXED_TERMS is sorted, so these are already in from_dict's order
    return TernaryCubic(tuple((e, _norm(c)) for (e, _), c in zip(_MIXED_TERMS, coeffs)
                              if c))


class LinePattern(Enum):
    IDENTICALLY_ZERO = "identically_zero"
    TRIPLE_LINE = "triple_line"
    DOUBLE_LINE_PLUS_LINE = "double_line_plus_line"
    SQUAREFREE = "squarefree"


def _line_pattern(coeffs):
    """The line pattern of the cubic with these ten coefficients, in the
    order of _MIXED_TERMS: zero, a cube, a square times a line, or
    squarefree.

    Read off the rank of the three partials of F.  Rank 1: F is the cube of
    a linear form.  Rank 3: F is squarefree, since F = L^2 M would put every
    partial in L*<L, M>.  Rank 2: some v != 0 has sum_i v_i dF/dx_i = 0, so
    F is a cone with vertex v; taking v_f = 1 at the free column f of the
    rref, F(x) = G(x - x_f v) with G the binary cubic F|_{x_f = 0}, and F
    has a repeated line exactly when G has a repeated root, that is when
    its discriminant is 0.  The rank and the free column are read from the
    three partials by ``small_pivots``: all three when their leading 3x3
    minor is nonzero, else the partials that keep a pivot in the integer
    elimination of ``_linalg._small_echelon``.
    """
    if not any(coeffs):
        return LinePattern.IDENTICALLY_ZERO
    pivots = small_pivots([[k * coeffs[i] for i, k in col] for col in _PARTIALS])
    if len(pivots) == 1:
        return LinePattern.TRIPLE_LINE
    if len(pivots) == 3:
        return LinePattern.SQUAREFREE
    f = next(v for v in range(3) if v not in pivots)
    # G = a u^3 + b u^2 w + c u w^2 + e w^3 in the pivot variables (u, w)
    g = {m[pivots[0]]: x for (m, _), x in zip(_MIXED_TERMS, coeffs) if not m[f]}
    a, b, c, e = (g[k] for k in (3, 2, 1, 0))
    disc = (b * b * c * c - 4 * a * c ** 3 - 4 * b ** 3 * e - 27 * a * a * e * e
            + 18 * a * b * c * e)
    return LinePattern.SQUAREFREE if disc else LinePattern.DOUBLE_LINE_PLUS_LINE


def cubic_line_pattern(cubic):
    """Classify det-slice cubics: zero, a cube, a square times a line, or
    squarefree, by ``_line_pattern`` on the cubic's ten coefficients."""
    coeffs = [0] * len(_MIXED_TERMS)
    for e, c in cubic.coeffs:
        coeffs[_CUBIC_INDEX[e]] = c
    return _line_pattern(coeffs)
