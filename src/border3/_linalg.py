"""Exact linear algebra over the rationals on plain lists.

``rref`` also reduces over GF(q) for a prime q < 9, and ``gf_pivots`` picks
independent vectors there, on rows packed into ints.

Matrices are lists of rows; scalars are ``int`` or ``fractions.Fraction``
(mixed freely -- results of divisions are normalised back to ``int`` when
possible so the common all-integer paths stay fast).

Over Q one forward elimination, ``_forward``, runs on integers: each row's
denominators are cleared, and every entry stays an integer (a minor of that
matrix, up to a deferred scaling) by dividing exactly by an earlier pivot
(Bareiss).  Ranks and pivot sets (``pivot_columns``) read its pivots and
nothing else.  ``rref``, for callers that read the reduced rows,
back-substitutes on its rows (``_back_substitute``, which ``limit_plane``
runs on the last ``_small_echelon`` of its reduction) and divides each row
by its pivot once, so no ``Fraction`` is made before the result.

A few integer vectors, at most three in every caller, are eliminated by
``_small_echelon``, with no division: it names each vector's pivot column,
or says that the vector depends on those before it.  ``small_pivots``
(the concise test of a small mode and the rank of a cubic's partials)
reads those pivots, and ``limit_plane``'s valuation reduction reads the
dependency of its leading vectors off the same elimination with a unit
vector appended to each.

Over GF(q) a vector is packed into an int, one 4-bit field per coordinate
(``_pack``).  A field of the sum of two packed vectors holds at most
2q - 2; adding 8 - q sets its top bit exactly when it reached q, which
marks where to subtract q (``_gf_add``), and keeps it below 16 for q < 9.
``_insert`` grows an echelon of packed vectors keyed by lowest nonzero
field: ``_gf_echelon`` (read by ``rref(a, q)`` and ``gf_pivots``) and the
rank search in ``rank_oracle`` both build theirs with it.
``Echelon`` keeps its rows sparse, as dicts of their nonzero entries,
because the Macaulay matrices it reduces hold a few nonzeros in hundreds of
columns.  It records how each row was reduced, not its combination of the
inserted vectors: ``coords_in`` rewrites those steps over the inserted
vectors once, and only for a vector in the span.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd, lcm
from operator import attrgetter


def _norm(x):
    """Collapse integral Fractions back to int."""
    # an exact type test: isinstance on an int goes through the numbers ABCs
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


def div(a, b):
    """Exact a / b (never float)."""
    return _norm(Fraction(a) / Fraction(b))


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


_denominator = attrgetter("denominator")


def _scaled_rows(a):
    """The rows of a, each scaled by the lcm of its denominators, as new
    lists; a itself, not copied, when every entry is an int."""
    # most matrices ranked here are all-int, and one type scan of the
    # matrix costs less than an lcm per row
    if set(map(type, chain.from_iterable(a))) <= {int}:
        return a
    rows = []
    for row in a:
        den = lcm(*map(_denominator, row))
        rows.append([x.numerator * (den // x.denominator) for x in row]
                    if den != 1 else list(map(int, row)))
    return rows


def _integer_rows(a):
    """The rows of a, each scaled by the lcm of its denominators, as new
    lists that the caller may write to."""
    rows = _scaled_rows(a)
    return [list(row) for row in a] if rows is a else rows


def _forward(a):
    """Forward elimination of a over Q.

    Returns (rows, pivots): pivots are the first columns, left to right,
    that are independent of the columns before them, and rows[i] for
    i < len(pivots) is an echelon row with its pivot in column pivots[i],
    up to a nonzero scalar.  A row's entries left of its pivot are stale:
    they are never read, and stand for zeros.  The rows after the pivot
    rows are stale too.

    Each row is first scaled by the lcm of its denominators, which changes
    no pivot, and fraction-free elimination (Bareiss 1968) clears the rows
    below each pivot and no others: with p the pivot and p_prev the one
    before it, a row becomes (p * row - row[c] * pivot_row) // p_prev, so
    its entries stay minors of the scaled matrix and the division is exact.
    A row with a zero in the pivot column c would only be scaled by
    p / p_prev, so that scaling is deferred: each row keeps the pivot b it
    was last reduced at, and is reduced as (p * row - row[c] * pivot_row)
    // b when it next has a nonzero in the pivot column (a pivot row's tail
    is first scaled up to date).
    """
    rows = _integer_rows(a)
    if not rows:
        return rows, []
    nrows, ncols = len(rows), len(rows[0])
    pivots = []
    prev = 1
    base = [1] * nrows
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        pivots.append(c)
        rows[r], rows[piv] = rows[piv], rows[r]
        if r + 1 == nrows or c + 1 == ncols:
            break
        prow = rows[r]
        # rows below never read column c or those before it again
        tail = prow[c + 1:]
        p = prow[c]
        base[r], base[piv] = base[piv], base[r]
        if base[r] != prev:
            p = p * prev // base[r]
            tail = [x * prev // base[r] for x in tail]
        for i in range(r + 1, nrows):
            row = rows[i]
            f = row[c]
            if f:
                b = base[i]
                row[c + 1:] = [(p * x - f * y) // b
                               for x, y in zip(row[c + 1:], tail)]
                base[i] = p
        prev = p
    return rows, pivots


def from_rational(x, q):
    """Residue of a rational number modulo the prime q."""
    if type(x) is int:
        return x % q
    x = Fraction(x)
    if x.denominator % q == 0:
        raise ValueError(f"denominator of {x} vanishes modulo {q}")
    return x.numerator * pow(x.denominator, q - 2, q) % q


def _pack(vec):
    """The residues vec, each below 16, packed: vec[j] in 4-bit field j."""
    # hex() writes each byte as two digits, the low one second
    return int(bytes(vec).hex()[::-2] or "0", 16)


_DIGITS = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))


def _unpack(v, n):
    """The n fields of the packed vector v, as a list."""
    return list((b"%0*x" % (n, v))[::-1].translate(_DIGITS)) if n else []


@lru_cache(maxsize=64)
def _carries(n, q):
    """The carry masks (over, top) of _gf_add for n packed fields."""
    # a composite q has residues with no inverse, which _insert needs
    if q not in (2, 3, 5, 7):
        raise ValueError(f"packed GF(q) vectors need a prime q < 9, not {q!r}")
    return _pack([8 - q] * n), _pack([8] * n)


def _gf_add(a, b, q, over, top):
    s = a + b
    return s - (((s + over) & top) >> 3) * q


def _multiples(x, q, over, top):
    """[0, x, 2x, ..., (q-1)x] for a packed vector x."""
    out = [0, x]
    while len(out) < q:
        out.append(_gf_add(out[-1], x, q, over, top))
    return out


def _insert(echelon, v, q, over, top):
    """Reduce the packed v by echelon, {field: the row with its leading 1
    there}, at its lowest nonzero field until no row leads there; store
    what is left, scaled to a leading 1, and say whether it was nonzero."""
    while v:
        c = ((v & -v).bit_length() - 1) >> 2
        x = v >> 4 * c & 15
        w = echelon.get(c)
        if w is None:
            if x != 1:
                v = _multiples(v, q, over, top)[pow(x, q - 2, q)]
            echelon[c] = v
            return True
        v = _gf_add(v, _multiples(w, q, over, top)[q - x], q, over, top)
    return False


def _gf_echelon(a, q):
    """(echelon, kept): the rows of a, read modulo the prime q, _insert-ed
    into one echelon, and the indices of those that grew it."""
    over, top = _carries(len(a[0]) if a else 0, q)
    echelon, kept = {}, []
    for i, row in enumerate(a):
        try:  # all-int rows pay for no residue rule
            v = _pack([x % q for x in row])
        except TypeError:  # Fraction % q is no int for bytes()
            v = _pack([from_rational(x, q) for x in row])
        if _insert(echelon, v, q, over, top):
            kept.append(i)
    return echelon, kept


def pivot_columns(a):
    """The pivot columns of ``rref(a)``, with no reduced form."""
    return _forward(a)[1]


def gf_pivots(vectors, q):
    """The indices of the vectors independent of those before them, over
    GF(q): the pivot columns of ``rref(transpose(vectors), q)``, from one
    pass of ``_gf_echelon`` over the vectors."""
    return _gf_echelon(vectors, q)[1]


def _small_echelon(vectors):
    """Yield one (pivot, reduced vector) pair per integer vector, in order.

    Each vector is reduced by the independent ones before it, at their
    pivots in turn, by cross-multiplication: with e the earlier row's
    pivot entry and f the vector's entry there, vec becomes e * vec - f *
    row, so every entry stays an integer and vec a nonzero multiple of the
    input minus a combination of the inputs before it.  Its pivot is then
    its first nonzero column, or None when it is zero and the vector
    depends on those before it.  Meant for a few vectors: with no division
    the entries grow with each step.  A vector that no step reduces is
    yielded as given.  Pairs are yielded as they are found, so a caller
    may stop at the first dependent vector.
    """
    ech = []
    for vec in vectors:
        for p, row in ech:
            f = vec[p]
            if f:
                e = row[p]
                vec = [e * x - f * y for x, y in zip(vec, row)]
        lead = next(filter(None, vec), 0)
        if lead:
            ech.append((vec.index(lead), vec))
            yield ech[-1]
        else:
            yield None, vec


def small_pivots(vectors):
    """The indices of the vectors independent of those before them, over Q:
    ``pivot_columns(transpose(vectors))`` for at most three vectors.

    Three vectors of at least three entries whose leading 3x3 minor is
    nonzero are independent, and that minor, nine products, certifies it
    before any scan or elimination.  Otherwise the vectors are scaled to
    integers by ``_scaled_rows``, which keeps every pivot (all-int vectors
    are read as given, since nothing here writes to them), and the indices
    are those with a pivot in ``_small_echelon``.
    """
    if len(vectors) > 3:
        raise ValueError("small_pivots takes at most three vectors")
    if len(vectors) == 3:
        u, v, w = vectors
        if len(u) >= 3 and len(v) >= 3 and len(w) >= 3:
            v0, v1, v2 = v[0], v[1], v[2]
            w0, w1, w2 = w[0], w[1], w[2]
            if (u[0] * (v1 * w2 - v2 * w1) - u[1] * (v0 * w2 - v2 * w0)
                    + u[2] * (v0 * w1 - v1 * w0)):
                return [0, 1, 2]
    return [k for k, (p, _) in enumerate(_small_echelon(_scaled_rows(vectors)))
            if p is not None]


def rank(a):
    return len(pivot_columns(a))


def _back_substitute(rows, pivots):
    """Reduce integer echelon rows, in place, to the rows of an rref.

    rows[k] for k < len(pivots) holds its pivot in column pivots[k], the
    pivots increase, and its entries left of the pivot stand for zeros.
    From the last pivot up, each pivot column is cleared in the rows above
    it, on integers: with p the pivot and f a row's entry in its column,
    the row becomes (p * row - f * pivot_row) / gcd(p, f).  A pivot row
    gets no further update once the rows above it are cleared, so it is
    then divided by its pivot: an entry is an int where the division is
    exact and a Fraction otherwise.  Rows after the pivot rows are left as
    they are.
    """
    for k in reversed(range(len(pivots))):
        c = pivots[k]
        tail = rows[k][c:]
        p = tail[0]
        for i in range(k):
            row = rows[i]
            f = row[c]
            if f:
                g = gcd(p, f)
                s, f = p // g, f // g
                ci = pivots[i]
                row[ci:] = ([s * x for x in row[ci:c]]
                            + [s * x - f * y for x, y in zip(row[c:], tail)])
        rows[k] = [0] * c + [Fraction(x, p) if x % p else x // p for x in tail]


def rref(a, q=None):
    """Reduced row echelon form over Q, or over GF(q) for a prime q < 9.

    Returns (rows, pivot_columns), the zero rows after the pivot rows.
    Over Q, ``_back_substitute`` on the echelon rows of ``_forward``.  Over
    GF(q) each row of the echelon of ``_gf_echelon`` is cleared at the
    pivots after its own, and the rows hold residues 0..q-1.
    """
    if q is not None:
        return _gf_rref(a, q)
    rows, pivots = _forward(a)
    _back_substitute(rows, pivots)
    rows[len(pivots):] = [[0] * len(row) for row in rows[len(pivots):]]
    return rows, pivots


def _gf_rref(a, q):
    n = len(a[0]) if a else 0
    over, top = _carries(n, q)
    echelon, _ = _gf_echelon(a, q)
    pivots = sorted(echelon)
    rows = []
    for k, c in enumerate(pivots):
        v = echelon[c]
        # an echelon row is zero before its lead, so clearing the later
        # pivot fields in increasing order leaves the cleared ones zero
        for d in pivots[k + 1:]:
            x = v >> 4 * d & 15
            if x:
                v = _gf_add(v, _multiples(echelon[d], q, over, top)[q - x],
                            q, over, top)
        rows.append(_unpack(v, n))
    rows += [[0] * n for _ in range(len(a) - len(pivots))]
    return rows, pivots


def inverse(a):
    n = len(a)
    aug = [list(row) + [1 if i == j else 0 for j in range(n)]
           for i, row in enumerate(a)]
    rows, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in rows]


def _axpy(v, f, row):
    """v += f * row on sparse {column: value} dicts, dropping cancelled entries."""
    for c, y in row.items():
        x = v.get(c, 0) + f * y
        if x:
            v[c] = _norm(x)
        else:
            del v[c]


class Echelon:
    """Incremental row span with exact arithmetic.

    add() returns True when the vector enlarged the span; contains() tests
    membership; coords_in(v) expresses v in terms of the *inserted* vectors
    when it lies in the span (used to rewrite tensors on a chosen subbasis).
    A vector goes in as a dense sequence or as a {column: value} dict, which
    a caller with a few nonzeros in many columns passes without ever
    building the dense form.  The echelon rows are kept sparse, as {column:
    value} dicts of the nonzero entries, so reduction never touches a zero;
    coords_in returns a dense list.

    A row is the inserted vector w minus the (row, factor) steps that
    reduced it, divided by its raw pivot p, the entry it then held at its
    pivot column: w = p * row + sum of factor * earlier row.  Only those
    steps and p are recorded, so an add costs the reduction and nothing
    more.  coords_in reduces v the same way, and when v lies in the span
    rewrites its steps over the inserted vectors once, from the last row
    down; the coordinates over the inserted vectors that grew the span are
    unique, and the others are 0.
    """

    def __init__(self):
        self.rows = []        # sparse echelon rows, pivot entry 1
        self.pivots = []      # pivot column of each echelon row
        self._raw = []        # raw pivot of each row, before its scaling
        self._steps = []      # (earlier row, factor) steps that reduced it
        self._inserted = []   # inserted index of each row
        self._row_at = {}     # pivot column -> index of its echelon row
        self._ninserted = 0

    @property
    def dim(self):
        return len(self.rows)

    def _reduce(self, v, steps=None):
        # Row i is zero at the pivots of rows before it, so subtracting it
        # can only create entries at the pivots of later rows: taking the
        # rows hit in increasing order reduces v as one pass over all rows
        # would, but visits only rows whose pivot entry may be nonzero.
        v = {c: x for c, x in (v.items() if type(v) is dict else enumerate(v))
             if x}
        row_at = self._row_at
        todo = [row_at[c] for c in v if c in row_at]
        heapify(todo)
        done = -1
        while todo:
            i = heappop(todo)
            if i == done:
                continue
            done = i
            f = v.get(self.pivots[i])
            if f:
                row = self.rows[i]
                _axpy(v, -f, row)
                if steps is not None:
                    steps.append((i, f))
                for c in row:
                    if c in row_at:
                        heappush(todo, row_at[c])
        return v

    def add(self, v):
        steps = []
        v = self._reduce(v, steps)
        index = self._ninserted
        self._ninserted += 1
        if not v:
            return False
        c = min(v)
        p = v[c]
        if p == -1:
            v = {j: -y for j, y in v.items()}
        elif p != 1:
            inv = div(1, p)
            v = {j: _norm(y * inv) for j, y in v.items()}
        self._row_at[c] = len(self.rows)
        self.rows.append(v)
        self.pivots.append(c)
        self._raw.append(p)
        self._steps.append(steps)
        self._inserted.append(index)
        return True

    def contains(self, v):
        return not self._reduce(v)

    def coords_in(self, v):
        """Coefficients c with v = sum c_i * inserted_i, or None."""
        steps = []
        if self._reduce(v, steps):
            return None
        coords = [0] * self._ninserted
        # v = sum f * rows[i]; a row's steps name only earlier rows, so
        # taking the rows from the last down rewrites every row once
        coef = dict(steps)
        for i in range(max(coef, default=-1), -1, -1):
            a = coef.get(i)
            if not a:
                continue
            p = self._raw[i]
            x = a if p == 1 else -a if p == -1 else div(a, p)
            coords[self._inserted[i]] = _norm(x)
            for j, f in self._steps[i]:
                coef[j] = coef.get(j, 0) - x * f
        return coords
