"""Exact linear algebra over the rationals on plain lists.

``rref`` also reduces over GF(q) for a prime q, on integer residues.

Matrices are lists of rows; scalars are ``int`` or ``fractions.Fraction``
(mixed freely -- results of divisions are normalised back to ``int`` when
possible so the common all-integer paths stay fast).
"""

from __future__ import annotations

from fractions import Fraction


def _norm(x):
    """Collapse integral Fractions back to int."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    return x


def div(a, b):
    """Exact a / b (never float)."""
    return _norm(Fraction(a) / Fraction(b))


def mat_copy(a):
    return [list(row) for row in a]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def mat_mul(a, b):
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    out = []
    for i in range(n):
        row = a[i]
        orow = [0] * m
        for t in range(k):
            x = row[t]
            if x:
                brow = b[t]
                for j in range(m):
                    if brow[j]:
                        orow[j] += x * brow[j]
        out.append([_norm(v) for v in orow])
    return out


def mat_vec(a, v):
    return [_norm(sum(x * y for x, y in zip(row, v))) for row in a]


def rref(a, q=None):
    """Reduced row echelon form over Q, or over GF(q) for a prime q.

    Returns (rows, pivot_columns).  Over GF(q) the entries are integers
    read modulo q, and the rows returned hold residues 0..q-1.
    """
    if q is None:
        rows, norm = mat_copy(a), _norm
    else:
        rows, norm = [[x % q for x in row] for row in a], q.__rmod__  # x % q
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        if q is None:
            inv = Fraction(1, 1) / Fraction(rows[r][c])
        else:
            inv = pow(rows[r][c], q - 2, q)
        rows[r] = [norm(x * inv) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [norm(x - f * y) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(a):
    return len(rref(a)[1])


def nullspace(a):
    """Basis of {x : a x = 0}, one vector per free column."""
    if not a:
        return []
    ncols = len(a[0])
    rows, pivots = rref(a)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = _norm(-rows[r][fc])
        basis.append(v)
    return basis


def solve(a, b):
    """One solution x of a x = b, or None if inconsistent."""
    if not a:
        return [] if not any(b) else None
    ncols = len(a[0])
    aug = [list(row) + [bv] for row, bv in zip(a, b)]
    rows, pivots = rref(aug)
    if ncols in pivots:  # pivot in the augmented column
        return None
    x = [0] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = rows[r][ncols]
    return x


def inverse(a):
    n = len(a)
    aug = [list(row) + list(erow) for row, erow in zip(a, identity(n))]
    rows, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in rows]


def det(a):
    """Determinant by fraction-free-ish elimination (small matrices)."""
    n = len(a)
    rows = mat_copy(a)
    sign = 1
    d = 1
    for c in range(n):
        piv = None
        for i in range(c, n):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            return 0
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            sign = -sign
        p = rows[c][c]
        d = d * p
        for i in range(c + 1, n):
            if rows[i][c]:
                f = div(rows[i][c], p)
                rows[i] = [_norm(x - f * y) for x, y in zip(rows[i], rows[c])]
    return _norm(sign * d)


class Echelon:
    """Incremental row span with exact arithmetic.

    add() returns True when the vector enlarged the span; contains() tests
    membership; coords_in(v) expresses v in terms of the *inserted* vectors
    when it lies in the span (used to rewrite tensors on a chosen subbasis).
    """

    def __init__(self):
        self.rows = []        # echelon rows (pivot-normalised)
        self.pivots = []      # pivot column of each echelon row
        self.combos = []      # combos[i] = coefficients of inserted vectors
        self._ninserted = 0

    @property
    def dim(self):
        return len(self.rows)

    def _reduce(self, v, combo=None):
        v = list(v)
        for i, pc in enumerate(self.pivots):
            if v[pc]:
                f = v[pc]
                row = self.rows[i]
                v = [_norm(x - f * y) for x, y in zip(v, row)]
                if combo is not None:
                    crow = self.combos[i]
                    for j, cy in enumerate(crow):
                        if cy:
                            combo[j] = _norm(combo[j] - f * cy)
        return v

    def add(self, v):
        combo = [0] * self._ninserted + [1]
        for c in self.combos:
            c.append(0)
        self._ninserted += 1
        v = self._reduce(v, combo)
        for c, x in enumerate(v):
            if x:
                inv = Fraction(1) / Fraction(x)
                v = [_norm(y * inv) for y in v]
                combo = [_norm(y * inv) for y in combo]
                self.rows.append(v)
                self.pivots.append(c)
                self.combos.append(combo)
                return True
        return False

    def contains(self, v):
        return not any(self._reduce(v))

    def coords_in(self, v):
        """Coefficients c with v = sum c_i * inserted_i, or None."""
        combo = [0] * self._ninserted
        red = self._reduce(list(v), combo)
        if any(red):
            return None
        return [_norm(-x) for x in combo]


def span_dim(vectors):
    e = Echelon()
    for v in vectors:
        e.add(v)
    return e.dim


def span_basis(vectors):
    """Deterministic rref basis of the span."""
    rows, _ = rref(list(vectors))
    return [r for r in rows if any(r)]
