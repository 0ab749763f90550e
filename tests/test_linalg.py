import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from border3._linalg import (
    Echelon, _axpy, _back_substitute, _carries, _gf_add, _norm, _pack,
    _small_echelon, _unpack, div, gf_pivots, inverse, mat_mul, pivot_columns,
    rank, rref, small_pivots, transpose,
)
from border3.classifier import _stabilizer_matrix
from border3.normal_forms import ORBIT_IDS, orbit_representative
from border3.tensor import apply_gl, random_gl_tuple


def test_rref_and_rank_basic():
    a = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    r, piv = rref(a)
    assert rank(a) == 2
    assert piv == [0, 1]
    assert r[0][0] == 1 and r[1][1] == 1


def test_inverse_roundtrip():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 4)
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if rank(a) < n:
            continue
        inv = inverse(a)
        assert mat_mul(a, inv) == [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def test_echelon_tracks_coordinates():
    e = Echelon()
    assert e.add([1, 0, 1])
    assert e.add([0, 1, 1])
    assert not e.add([1, 1, 2])
    assert e.dim == 2
    assert e.contains([2, 3, 5])
    assert not e.contains([0, 0, 1])
    coords = e.coords_in([2, 3, 5])
    # inserted vectors were (1,0,1), (0,1,1), (1,1,2)
    v = [0, 0, 0]
    for c, w in zip(coords, [[1, 0, 1], [0, 1, 1], [1, 1, 2]]):
        v = [a + c * b for a, b in zip(v, w)]
    assert v == [2, 3, 5]
    assert e.coords_in([0, 0, 1]) is None


def test_span_helpers():
    assert rref([[2, 0], [0, 3]])[0] == [[1, 0], [0, 1]]
    # integer echelon rows, zero left of their pivots, reduce in place
    rows = [[2, 4, 0], [0, 3, 1]]
    _back_substitute(rows, [0, 1])
    assert rows == [[1, 0, Fraction(-2, 3)], [0, 1, Fraction(1, 3)]]


# -- property tests against a textbook reference ------------------------------

def _reference_rref(a, q=None):
    """Gauss-Jordan elimination on dense Fractions (or residues mod q)."""
    if q is None:
        rows = [[Fraction(x) for x in row] for row in a]
    else:
        rows = [[x % q for x in row] for row in a]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        hit = [i for i in range(r, len(rows)) if rows[i][c]]
        if not hit:
            continue
        rows[r], rows[hit[0]] = rows[hit[0]], rows[r]
        p = rows[r][c]
        if q is None:
            rows[r] = [x / p for x in rows[r]]
        else:
            inv = next(y for y in range(1, q) if p * y % q == 1)
            rows[r] = [x * inv % q for x in rows[r]]
        for i in range(len(rows)):
            if i != r:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
                if q is not None:
                    rows[i] = [x % q for x in rows[i]]
        pivots.append(c)
    return rows, pivots


def _reference_rank(rows):
    return len(_reference_rref(rows)[1])


_SCALARS = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@st.composite
def _matrices(draw, scalars=_SCALARS):
    """Small matrices, either dense or long rows with a few nonzeros."""
    m = draw(st.integers(1, 6))
    if draw(st.booleans()):
        n = draw(st.integers(1, 6))
        return [[draw(scalars) for _ in range(n)] for _ in range(m)]
    n = draw(st.integers(8, 40))
    a = [[0] * n for _ in range(m)]
    cells = st.tuples(st.integers(0, m - 1), st.integers(0, n - 1), scalars)
    for i, j, x in draw(st.lists(cells, max_size=3 * m)):
        a[i][j] = x
    return a


def _assert_exact_types(rows):
    """An entry is an int exactly when it is integral, else a reduced Fraction."""
    for row in rows:
        for x in row:
            assert type(x) is int or type(x) is Fraction and x.denominator != 1


@settings(max_examples=40, deadline=None, derandomize=True)
@given(a=_matrices())
def test_rref_matches_reference_over_q(a):
    rows, pivots = rref(a)
    assert (rows, pivots) == _reference_rref(a)
    _assert_exact_types(rows)


@st.composite
def _low_rank_products(draw, scalars=None):
    """A B with A m x k and B k x n: rank at most k, up to 10 x 12, with
    integer and Fraction factors, some columns set to zero, and sparse
    factors half of the time.  The fraction-free elimination divides by
    earlier pivots, so an inexact division shows only after several pivots,
    and the pivot it divides by depends on when a row was last reduced: the
    zeros make rows skip pivots and swap into place."""
    m, n = draw(st.integers(1, 10)), draw(st.integers(1, 12))
    k = draw(st.integers(1, min(m, n)))
    if scalars is None:
        scalars = draw(st.sampled_from([st.integers(-9, 9), _SCALARS]))
    if draw(st.booleans()):
        scalars = st.one_of(st.just(0), st.just(0), scalars)
    a = [[draw(scalars) for _ in range(k)] for _ in range(m)]
    b = [[draw(scalars) for _ in range(n)] for _ in range(k)]
    zero_cols = draw(st.sets(st.integers(0, n - 1), max_size=n // 3))
    return [[0 if j in zero_cols else sum(a[i][t] * b[t][j] for t in range(k))
             for j in range(n)] for i in range(m)]


@st.composite
def _pivot_cases(draw, scalars=_SCALARS):
    """Matrices of every shape the forward elimination treats apart: empty,
    one row, one column, zero rows and columns, and low-rank products."""
    kind = draw(st.sampled_from(("any", "low", "row", "col", "empty")))
    if kind == "any":
        return draw(_matrices(scalars))
    if kind == "low":
        return draw(_low_rank_products(scalars))
    if kind == "empty":
        return draw(st.sampled_from(([], [[]], [[], []])))
    n = draw(st.integers(1, 8))
    cells = st.one_of(st.just(0), scalars)
    if kind == "row":
        return [draw(st.lists(cells, min_size=n, max_size=n))]
    return [[x] for x in draw(st.lists(cells, min_size=n, max_size=n))]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(a=_pivot_cases())
def test_pivot_columns_match_rref_over_q(a):
    rows, pivots = rref(a)
    assert (rows, pivots) == _reference_rref(a)
    assert pivot_columns(a) == pivots
    _assert_exact_types(rows)


_INT_SCALARS = st.one_of(
    st.integers(-4, 4),
    st.integers(-3, 3).map(lambda k: 10 ** 12 + k),
)
_SMALL_SCALARS = st.one_of(
    _INT_SCALARS,
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.builds(Fraction, st.integers(-3, 3).map(lambda k: 10 ** 12 + k),
              st.integers(1, 7)),
)


@st.composite
def _small_cases(draw, count=3, scalars=_SMALL_SCALARS):
    """One to count vectors of one length from 1 to 9: drawn, zero, a repeat
    or a multiple of an earlier vector, the sum of the earlier ones, or a
    multiple of an earlier vector on the first three entries and drawn
    after them, which makes the leading 3x3 minor of three vectors zero
    while they may still be independent."""
    n = draw(st.integers(1, 9))
    cells = st.one_of(st.just(0), scalars)
    vs = []
    for _ in range(draw(st.integers(1, count))):
        kind = draw(st.sampled_from(("drawn", "zero", "repeat", "multiple",
                                     "sum", "head") if vs else ("drawn", "zero")))
        if kind == "drawn":
            v = draw(st.lists(cells, min_size=n, max_size=n))
        elif kind == "zero":
            v = [0] * n
        elif kind == "sum":
            v = [sum(col) for col in zip(*vs)]
        elif kind == "head":
            c = draw(scalars)
            v = [c * x for x in draw(st.sampled_from(vs))[:3]]
            v += draw(st.lists(cells, min_size=n - len(v), max_size=n - len(v)))
        else:
            v = draw(st.sampled_from(vs))
            if kind == "multiple":
                c = draw(scalars.filter(bool))
                v = [c * x for x in v]
        vs.append(v)
    return vs


@settings(max_examples=400, deadline=None, derandomize=True)
@given(vs=_small_cases())
def test_gram_pivots_match_pivot_columns(vs):
    assert small_pivots(vs) == pivot_columns(transpose(vs))


@pytest.mark.parametrize("vs, pivots", [
    # a nonzero leading minor: the certificate alone
    ([[1, 2, 3, 0], [0, 1, 4, 0], [5, 6, 0, 0]], [0, 1, 2]),
    ([[Fraction(1, 2), 0, 0], [0, 1, 0], [0, 0, -3]], [0, 1, 2]),
    # a zero leading minor: independent, and dependent, by the elimination
    ([[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 1]], [0, 1, 2]),
    ([[0, 0, 0, 1], [0, 0, 0, 2], [1, 0, 0, 0]], [0, 2]),
    ([[1, 2, 3, 4], [2, 4, 6, 8], [3, 6, 9, 12]], [0]),
    # one or two entries: three vectors are dependent
    ([[1, 2], [3, 4], [5, 6]], [0, 1]),
    ([[0], [Fraction(2, 3)], [1]], [1]),
])
def test_gram_pivots_minor_and_gram_paths(vs, pivots):
    assert small_pivots(vs) == pivot_columns(transpose(vs)) == pivots


def test_gram_pivots_refuse_four_vectors():
    assert small_pivots([]) == []
    with pytest.raises(ValueError, match="at most three"):
        small_pivots([[1, 0]] * 4)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(vs=_small_cases(count=4, scalars=_INT_SCALARS))
def test_small_echelon_pivots_and_dependencies(vs):
    before = repr(vs)
    ech = list(_small_echelon(vs))
    assert [k for k, (p, _) in enumerate(ech) if p is not None] == \
        pivot_columns(transpose(vs))
    seen = set()
    for p, vec in ech:
        if p is None:
            assert not any(vec)
        else:
            # a pivot is the reduced vector's first nonzero, in a new column
            assert vec[p] and not any(vec[:p]) and p not in seen
            seen.add(p)
    # with unit vector k appended to vector k, a dependent vector reduces to
    # zero on its own entries, and the appended part is a dependency
    width = len(vs[0])
    units = [[int(i == j) for j in range(len(vs))] for i in range(len(vs))]
    aug = list(_small_echelon([v + e for v, e in zip(vs, units)]))
    for k, ((p, _), (q, vec)) in enumerate(zip(ech, aug)):
        assert (p is None) == (q >= width) == (not any(vec[:width]))
        if p is None:
            combo = vec[width:]
            assert combo[k] and not any(combo[k + 1:])
            assert all(sum(c * v[i] for c, v in zip(combo, vs)) == 0
                       for i in range(width))
        else:
            assert q == p
    assert repr(vs) == before  # the caller's vectors are never written


# 7 is the largest prime a 4-bit field holds: a field of a sum then
# reaches 2q - 2 + 8 - q = 13 of 15
@pytest.mark.parametrize("q", [2, 3, 5, 7])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(a=_pivot_cases(scalars=st.integers(-6, 6)))
def test_pivot_columns_match_rref_over_gf(q, a):
    rows, pivots = rref(a, q)
    assert (rows, pivots) == _reference_rref(a, q)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(vs=_pivot_cases(scalars=st.integers(-6, 6)))
def test_gf_pivots_match_reference_pivots_of_the_transpose(q, vs):
    """The vectors kept by one pass of the packed echelon are the pivot
    columns of the matrix with those vectors as its columns."""
    assert gf_pivots(vs, q) == _reference_rref(transpose(vs), q)[1]


def test_packed_gf_rows_refuse_a_modulus_past_a_byte():
    # a 4-bit field holds a sum of two residues plus 8 - q only for q < 9,
    # and an echelon over Z/4 stored a zero row and looped on it for ever
    for q in (4, 11, 131):
        with pytest.raises(ValueError, match="packed"):
            gf_pivots([[1, 2]], q)
        with pytest.raises(ValueError, match="packed"):
            rref([[1, 2]], q)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_packed_sum_matches_fieldwise_sum(q, data):
    n = data.draw(st.integers(0, 27))
    vec = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    a, b = data.draw(vec), data.draw(vec)
    over, top = _carries(n, q)
    assert _unpack(_pack(a), n) == a
    assert (_unpack(_gf_add(_pack(a), _pack(b), q, over, top), n)
            == [(x + y) % q for x, y in zip(a, b)])


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_packed_gf_elimination_of_empty_rows(q):
    # an empty hex string is no int, so packing an empty row must not parse one
    assert rref([[]], q) == ([[]], [])
    assert rref([], q) == ([], [])
    assert gf_pivots([[], []], q) == []


@settings(max_examples=150, deadline=None, derandomize=True)
@given(a=_low_rank_products())
def test_rref_and_rank_match_reference_on_low_rank_products(a):
    rows, pivots = rref(a)
    assert (rows, pivots) == _reference_rref(a)
    assert rank(a) == len(pivots)
    _assert_exact_types(rows)


def test_rref_matches_reference_on_many_sparse_matrices():
    """A row swapped into the pivot position must bring along the pivot it
    was last reduced at; when it does not, the result is usually only a
    rescaled row, which the final division hides, and about 1 sparse matrix
    in 70 comes out wrong.  So this compares 1500 of them."""
    rng = random.Random(8)
    for _ in range(1500):
        m, n = rng.randint(1, 10), rng.randint(1, 12)
        a = [[rng.randint(-99, 99) if rng.random() < 0.5 else 0
              for _ in range(n)] for _ in range(m)]
        rows, pivots = rref(a)
        assert (rows, pivots) == _reference_rref(a)
        _assert_exact_types(rows)


@pytest.mark.parametrize("oid", ORBIT_IDS)
def test_rref_matches_reference_on_moved_stabilizer_matrices(oid):
    rng = random.Random(oid)
    for _ in range(2):
        t = apply_gl(orbit_representative(oid), random_gl_tuple((3, 3, 3), rng))
        m = _stabilizer_matrix(t)
        assert len(m[0]) == 27
        rows, pivots = rref(m)
        assert (rows, pivots) == _reference_rref(m)
        _assert_exact_types(rows)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(a=_matrices(scalars=st.integers(-6, 6)))
def test_rref_matches_reference_over_gf(q, a):
    assert rref(a, q) == _reference_rref(a, q)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(a=_matrices(), data=st.data())
def test_echelon_matches_reference(a, data):
    e = Echelon()
    for k, row in enumerate(a):
        grew = _reference_rank(a[:k + 1]) > _reference_rank(a[:k])
        assert e.add(row) is grew
    assert e.dim == _reference_rank(a)
    n = len(a[0])
    coeffs = data.draw(st.lists(_SCALARS, min_size=len(a), max_size=len(a)))
    in_span = [sum((c * row[j] for c, row in zip(coeffs, a)), Fraction(0))
               for j in range(n)]
    for v in (in_span, data.draw(st.lists(_SCALARS, min_size=n, max_size=n))):
        coords = e.coords_in(v)
        assert e.contains(v) is (coords is not None)
        if _reference_rank(a + [v]) > _reference_rank(a):
            assert coords is None
            continue
        assert coords is not None and len(coords) == len(a)
        assert [sum((c * row[j] for c, row in zip(coords, a)), Fraction(0))
                for j in range(n)] == v


class _ComboEchelon:
    """The Echelon that kept, for every row, its combination of the inserted
    vectors as a {inserted index: coefficient} dict, updated on every
    reduction, here reducing by every row in order.  Kept as the reference
    for Echelon, which records reduction steps instead."""

    def __init__(self):
        self.rows, self.pivots, self.combos = [], [], []
        self._row_at = {}
        self._ninserted = 0

    @property
    def dim(self):
        return len(self.rows)

    def _reduce(self, v, combo=None):
        v = {c: x for c, x in (v.items() if type(v) is dict else enumerate(v))
             if x}
        for i in range(len(self.rows)):
            f = v.get(self.pivots[i])
            if f:
                _axpy(v, -f, self.rows[i])
                if combo is not None:
                    _axpy(combo, -f, self.combos[i])
        return v

    def add(self, v):
        combo = {self._ninserted: 1}
        self._ninserted += 1
        v = self._reduce(v, combo)
        if not v:
            return False
        c = min(v)
        inv = div(1, v[c])
        if inv != 1:
            v = {j: _norm(y * inv) for j, y in v.items()}
            combo = {j: _norm(y * inv) for j, y in combo.items()}
        self._row_at[c] = len(self.rows)
        self.rows.append(v)
        self.pivots.append(c)
        self.combos.append(combo)
        return True

    def contains(self, v):
        return not self._reduce(v)

    def coords_in(self, v):
        combo = {}
        if self._reduce(v, combo):
            return None
        return [_norm(-combo.get(j, 0)) for j in range(self._ninserted)]


def _typed(xs):
    return None if xs is None else [(type(x), x) for x in xs]


# pivots of 1, of -1 and of other values, ints and Fractions, with zeros so
# that rows depend on each other and skip columns
_ECHELON_SCALARS = st.one_of(
    st.just(0), st.sampled_from([1, -1]), st.sampled_from([2, -3]),
    st.builds(Fraction, st.integers(-7, 7), st.integers(1, 5)),
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(a=_matrices(_ECHELON_SCALARS), data=st.data())
def test_echelon_matches_combination_dict_reference(a, data):
    n = len(a[0])
    # repeat some rows, scaled, so that some vectors do not grow the span
    extra = data.draw(st.lists(st.tuples(st.integers(0, len(a) - 1),
                                         _ECHELON_SCALARS), max_size=3))
    a = a + [[c * x for x in a[i]] for i, c in extra]
    got, want = Echelon(), _ComboEchelon()
    for row in a:
        if data.draw(st.booleans()):  # the sparse form macaulay passes
            row = {j: x for j, x in enumerate(row) if x}
        assert got.add(row) is want.add(row)
        assert got.dim == want.dim
    coeffs = data.draw(st.lists(_ECHELON_SCALARS, min_size=len(a),
                                max_size=len(a)))
    in_span = [_norm(sum((c * row[j] for c, row in zip(coeffs, a)), 0))
               for j in range(n)]
    other = data.draw(st.lists(_ECHELON_SCALARS, min_size=n, max_size=n))
    for v in (in_span, other, [0] * n, *a):
        assert got.contains(v) is want.contains(v)
        assert _typed(got.coords_in(v)) == _typed(want.coords_in(v))
