import json
import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from border3._linalg import _norm, from_rational, rref, transpose
from grouping_reference import group_modes
from border3.normal_forms import (
    ORBIT_IDS, orbit_representative, sigma2_point, sigma3_point,
)
from border3.tensor import (
    ConciseCore, GLTuple, Tensor, apply_gl, apply_mode_map, basis_tensor,
    concise_core, dumps_tensor, flattening, grouped_flattening, loads_tensor,
    make_tensor, multilinear_rank, parse_scalar, permute_modes, random_gl_tuple,
    random_tensor, rank_one, restrict, slice_matrices, squeeze, zero_tensor,
)


def test_make_and_index():
    t = make_tensor((2, 2), [1, 2, 3, 4])
    assert t[0, 1] == 2 and t[1, 0] == 3
    t = make_tensor((3, 3, 3), range(27))
    for idx in (1, (0, 0), (0, 0, 0, 5), (0, 3, 0), (0, -1, 0)):
        with pytest.raises(IndexError):
            t[idx]
    with pytest.raises(ValueError):
        make_tensor((2, 2), [1, 2, 3])
    with pytest.raises(OverflowError):
        zero_tensor((101, 101, 101))


def test_sum_difference_and_negation():
    s = make_tensor((2, 2), [1, Fraction(1, 2), 0, -3])
    t = make_tensor((2, 2), [2, Fraction(1, 2), Fraction(4, 3), 5])
    assert (s + t).entries == (3, 1, Fraction(4, 3), 2)
    d = s - t
    assert d.entries == (-1, 0, Fraction(-4, 3), -8)
    assert [type(x) for x in d.entries] == [int, int, Fraction, int]
    assert (-t).entries == (-2, Fraction(-1, 2), Fraction(-4, 3), -5)
    assert s - s == -s + s == zero_tensor((2, 2))
    assert (2 * s).entries == (2, 1, 0, -6)
    for other in (zero_tensor((4,)), zero_tensor((2, 2, 1))):
        with pytest.raises(ValueError, match="dimension mismatch"):
            s + other
        with pytest.raises(ValueError, match="dimension mismatch"):
            s - other


@pytest.mark.parametrize("build", [
    lambda: zero_tensor((3,) * 40),
    lambda: basis_tensor((3,) * 40, (0,) * 40),
    lambda: random_tensor((3,) * 40, random.Random(0)),
    lambda: rank_one([[1, 2, 3]] * 40),
    lambda: sigma2_point(64),
    lambda: sigma3_point("iii", 40),
], ids=["zero_tensor", "basis_tensor", "random_tensor", "rank_one",
        "sigma2_point", "sigma3_point"])
def test_constructors_check_the_entry_guard_before_building(build):
    # without the check first, 3^40 entries are refused by Python with
    # "cannot fit 'int' into an index-sized integer", or built until memory
    # runs out
    with pytest.raises(OverflowError, match="entry guard"):
        build()


def test_entry_guard_names_the_factor_count_in_a_short_message():
    with pytest.raises(OverflowError, match="entry guard") as info:
        zero_tensor((2,) * 100_000)
    msg = str(info.value)
    assert len(msg.encode()) < 300
    assert "100000 factors" in msg and "(2, 2, 2, 2, 2, 2, 2, 2, ...)" in msg


def test_rank_one_and_flattening():
    t = rank_one([[1, 2], [1, 0, -1], [3, 1]])
    assert t.dims == (2, 3, 2)
    assert t[1, 2, 0] == 2 * (-1) * 3
    assert multilinear_rank(t) == (1, 1, 1)


def test_flattening_shapes_and_rank():
    rng = random.Random(0)
    t = random_tensor((2, 3, 4), rng)
    for mode, nrows in [(0, 2), (1, 3), (2, 4)]:
        f = flattening(t, mode)
        assert len(f) == nrows and len(f[0]) == 24 // nrows
    # flattening along mode 0 of a sum of r random rank-ones has rank <= r
    s = zero_tensor((3, 3, 3))
    for _ in range(2):
        s = s + rank_one([[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
    assert all(r <= 2 for r in multilinear_rank(s))


def test_permute_modes_roundtrip():
    rng = random.Random(1)
    t = random_tensor((2, 3, 4), rng)
    p = permute_modes(t, [2, 0, 1])
    assert p.dims == (4, 2, 3)
    for i in range(2):
        for j in range(3):
            for k in range(4):
                assert p[k, i, j] == t[i, j, k]
    q = permute_modes(p, [1, 2, 0])
    assert q == t


def test_basis_tensor_refuses_a_wrong_length_index():
    for idx in ((0,), (0, 0, 0)):
        with pytest.raises(ValueError, match="does not fit"):
            basis_tensor((2, 2), idx)


def test_basis_tensor_refuses_an_out_of_range_index():
    for idx in ((1, -1), (2, 0)):
        with pytest.raises(ValueError, match="does not fit"):
            basis_tensor((2, 2), idx)
    assert basis_tensor((2, 2), (0, 1)).entries == (0, 1, 0, 0)


def test_group_modes_matches_grouped_flattening():
    rng = random.Random(2)
    t = random_tensor((2, 2, 2, 3), rng)
    g = group_modes(t, [[0], [1], [2, 3]])
    assert g.dims == (2, 2, 6)
    assert g[1, 0, 5] == t[1, 0, 1, 2]
    f = grouped_flattening(t, [0, 1])
    assert len(f) == 4 and len(f[0]) == 6


def test_restrict_refuses_blocks_or_keeps_that_do_not_fit():
    t = make_tensor((2, 3, 2), range(12))
    for blocks, keeps in (([[0], [1]], [[0], [0]]),
                          ([[0, 1], [1, 2]], [[0], [0]]),
                          ([[0], [1, 2]], [[0], [6]]),
                          ([[0], [1, 2]], [[0], [-1]]),
                          ([[0], [1, 2]], [[], [0]])):
        with pytest.raises(ValueError):
            restrict(t, blocks, keeps)


def test_apply_mode_map_and_gl():
    t = rank_one([[1, 0], [0, 1], [1, 1]])
    m = [[0, 1], [1, 0], [1, 1]]
    s = apply_mode_map(t, m, 0)
    assert s.dims == (3, 2, 2)
    assert s == rank_one([[0, 1, 1], [0, 1], [1, 1]])
    rng = random.Random(3)
    t = random_tensor((3, 3, 3), rng)
    g = random_gl_tuple((3, 3, 3), rng)
    assert multilinear_rank(apply_gl(t, g)) == multilinear_rank(t)


@st.composite
def _reshape_case(draw):
    """A tensor with 1-5 modes of size 1-4 and arguments for every reshape."""
    dims = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=5)))
    t = make_tensor(dims, draw(st.lists(st.integers(-9, 9), min_size=math.prod(dims),
                                        max_size=math.prod(dims))))
    n = len(dims)
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1))) if n > 1 else []
    blocks = [order[a:b] for a, b in zip([0] + cuts, cuts + [n])]
    mode = draw(st.integers(0, n - 1))
    matrix = draw(st.lists(st.lists(st.integers(-3, 3), min_size=dims[mode],
                                    max_size=dims[mode]), min_size=1, max_size=4))
    rows = sorted(draw(st.sets(st.integers(0, n - 1))))
    keeps = [draw(st.lists(st.integers(0, math.prod(dims[m] for m in b) - 1),
                           min_size=1, max_size=4, unique=True)) for b in blocks]
    return t, order, blocks, keeps, mode, matrix, rows


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_reshape_case())
def test_reshapes_match_their_index_definitions(case):
    """Every reshape against its definition by index: row-major means the
    order in which itertools.product lists the index tuples."""
    t, order, blocks, keeps, mode, matrix, rows = case
    dims, n = t.dims, t.order
    cells = list(product(*map(range, dims)))

    def ranges(modes):
        return product(*(range(dims[m]) for m in modes))

    def merge(modes_a, a, modes_b, b):
        idx = [0] * n
        for m, i in zip(modes_a + modes_b, a + b):
            idx[m] = i
        return tuple(idx)

    p = permute_modes(t, order)
    assert p.dims == tuple(dims[m] for m in order)
    assert all(p[tuple(idx[m] for m in order)] == t[idx] for idx in cells)

    # restrict: block b's kept index k is the k-th tuple over its sorted
    # modes, and the restricted tensor lists the kept tuples in keep order
    g = restrict(t, blocks, keeps)
    assert g.dims == tuple(map(len, keeps))
    subs = [list(ranges(sorted(b))) for b in blocks]
    for ridx in product(*map(range, g.dims)):
        idx = [0] * n
        for b, sub, keep, k in zip(blocks, subs, keeps, ridx):
            for m, x in zip(sorted(b), sub[keep[k]]):
                idx[m] = x
        assert g[ridx] == t[tuple(idx)]

    cols = [m for m in range(n) if m not in rows]
    expected = [[t[merge(rows, r, cols, c)] for c in ranges(cols)] for r in ranges(rows)]
    assert grouped_flattening(t, rows) == expected
    assert grouped_flattening(t, rows[::-1]) == expected

    others = [m for m in range(n) if m != mode]
    assert flattening(t, mode) == [[t[merge([mode], (i,), others, c)] for c in ranges(others)]
                                   for i in range(dims[mode])]

    s = apply_mode_map(t, matrix, mode)
    assert s.dims == dims[:mode] + (len(matrix),) + dims[mode + 1:]
    for idx in product(*map(range, s.dims)):
        assert s[idx] == sum(
            matrix[idx[mode]][j] * t[idx[:mode] + (j,) + idx[mode + 1:]]
            for j in range(dims[mode]))


def _unrank(k, dims):
    """The index tuple at position k of the row-major order over dims."""
    idx = []
    for d in reversed(dims):
        k, i = divmod(k, d)
        idx.append(i)
    return idx[::-1]


def _reference_flattening(t, rows):
    """Row r, column c: the entry whose indices in the (sorted) row modes
    are the r-th tuple and in the other modes the c-th, read by t[idx]."""
    rows = sorted(rows)
    cols = [m for m in range(t.order) if m not in rows]
    row_dims, col_dims = [t.dims[m] for m in rows], [t.dims[m] for m in cols]
    out = []
    for r in range(math.prod(row_dims)):
        line = []
        for c in range(math.prod(col_dims)):
            idx = [0] * t.order
            for m, i in zip(rows + cols, _unrank(r, row_dims) + _unrank(c, col_dims)):
                idx[m] = i
            line.append(t[tuple(idx)])
        out.append(line)
    return out


@st.composite
def _small_tensors(draw):
    """1-5 modes of size 1-3, with integer or rational entries."""
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=5)))
    scalars = st.one_of(st.integers(-9, 9),
                        st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5)))
    n = math.prod(dims)
    return make_tensor(dims, map(_norm, draw(st.lists(scalars, min_size=n, max_size=n))))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_small_tensors())
@example(make_tensor((1,), [7]))
@example(make_tensor((1, 1, 1), [Fraction(-2, 3)]))
@example(make_tensor((2, 1, 3, 1, 2), range(12)))
def test_flattenings_match_index_arithmetic(t):
    """Every row-mode subset, in either order, against the flattening read
    entry by entry; the mode flattenings and the slices of a 3-way tensor
    too.  Every row is a fresh list."""
    for size in range(t.order + 1):
        for rows in combinations(range(t.order), size):
            want = _reference_flattening(t, rows)
            got = grouped_flattening(t, list(rows))
            assert got == want and all(type(row) is list for row in got)
            assert grouped_flattening(t, rows[::-1]) == want
    for mode in range(t.order):
        assert flattening(t, mode) == _reference_flattening(t, [mode])
    if t.order == 3:
        for mode in range(3):
            a, b = [m for m in range(3) if m != mode]
            want = [[[t[tuple({mode: s, a: i, b: j}[m] for m in range(3))]
                      for j in range(t.dims[b])] for i in range(t.dims[a])]
                    for s in range(t.dims[mode])]
            got = slice_matrices(t, mode)
            assert got == want
            assert all(type(row) is list for mat in got for row in mat)
    grouped_flattening(t, [0])[0][0] = None
    assert grouped_flattening(t, [0])[0][0] == t.entries[0]


def test_slices_roundtrip():
    rng = random.Random(4)
    t = random_tensor((3, 3, 3), rng)
    mats = slice_matrices(t, 0)
    assert make_tensor((3, 3, 3), [x for m in mats for row in m for x in row]) == t
    mats1 = slice_matrices(t, 1)
    assert mats1[2][0][1] == t[0, 2, 1]


@st.composite
def _moved_orbit_or_short_sum(draw):
    """A GL-moved orbit representative, or a sum of <= 3 integer rank-one terms."""
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
        rep = orbit_representative(draw(st.sampled_from(ORBIT_IDS)))
        return apply_gl(rep, random_gl_tuple(rep.dims, rng))
    dims = draw(st.sampled_from([(3, 3, 3), (4, 4, 4), (2, 3, 4), (4, 2, 3),
                                 (2, 2, 2, 3)]))
    t = zero_tensor(dims)
    for _ in range(draw(st.integers(1, 3))):
        t = t + rank_one([draw(st.lists(st.integers(-3, 3), min_size=d,
                                        max_size=d)) for d in dims])
    return t


@settings(max_examples=60, deadline=None, derandomize=True)
@given(t=_moved_orbit_or_short_sum())
def test_concise_core_embeds_back(t):
    assume(not t.is_zero())
    cc = concise_core(t)
    assert cc.embed() == t
    assert cc.core.dims == multilinear_rank(t)


def _reference_concise_core(t, q=None):
    """concise_core by one rref per mode, with the map read off its rows."""
    core, maps = t, []
    for mode in range(t.order):
        d = core.dims[mode]
        rows, pivots = rref(transpose(flattening(core, mode)), q)
        if not pivots:
            pivots, rows = [0], [[0] * d]
        maps.append(transpose(rows[:len(pivots)]))
        if len(pivots) < d:
            sel = [[1 if j == p else 0 for j in range(d)] for p in pivots]
            core = apply_mode_map(core, sel, mode)
    return core, maps


def _typed(values):
    return [(type(x), x) for x in values]


@st.composite
def _concise_core_cases(draw):
    """Concise, non-concise and zero tensors, with int or Fraction entries,
    and GL-moved rank-2 3x3x3 sums, whose 3-slice modes are not concise."""
    kind = draw(st.sampled_from(("moved", "sum", "dense", "zero", "moved_sum")))
    if kind == "moved":
        return draw(_moved_orbit_or_short_sum())
    scalars = st.one_of(st.integers(-3, 3),
                        st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)))
    if kind == "moved_sum":
        t = zero_tensor((3, 3, 3))
        for _ in range(2):
            t = t + rank_one([draw(st.lists(scalars, min_size=3, max_size=3))
                              for _ in range(3)])
        rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
        return apply_gl(t, random_gl_tuple(t.dims, rng))
    dims = draw(st.sampled_from([(3, 3, 3), (1, 3, 2), (4, 2, 3), (2, 2, 2, 2)]))
    if kind == "zero":
        return zero_tensor(dims)
    if kind == "dense":
        n = math.prod(dims)
        return make_tensor(dims, draw(st.lists(scalars, min_size=n, max_size=n)))
    t = zero_tensor(dims)
    for _ in range(draw(st.integers(1, 3))):
        t = t + rank_one([draw(st.lists(scalars, min_size=d, max_size=d))
                          for d in dims])
    return t


@pytest.mark.parametrize("q", [None, 2, 3, 5])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(t=_concise_core_cases())
# mode 0 is not concise (its two slices are equal), and the kept slice holds
# an integral Fraction that restricting by a 0/1 matrix turns into an int
@example(t=make_tensor((2, 2, 2), [Fraction(1, 1), 0, 0, 2] * 2))
# a moved rank-2 sum: every mode keeps two of its three slices
@example(t=apply_gl(rank_one([[1, Fraction(1, 2), 0], [0, 1, -1],
                              [Fraction(2, 3), 1, 1]])
                    + rank_one([[0, 1, 1], [1, 0, Fraction(-1, 3)], [1, 2, 0]]),
                    random_gl_tuple((3, 3, 3), random.Random(4))))
def test_concise_core_matches_rref_alone(q, t):
    """Slices are kept by a gather, with no rref and no 0/1 matrix, and the
    maps come from the input alone; the core and maps must not change, in
    value or type, over Q and over GF(q)."""
    if q is not None:  # GF(q) reads integer entries
        t = make_tensor(t.dims, [Fraction(x).numerator for x in t.entries])
    cc = concise_core(t, q)
    core, maps = _reference_concise_core(t, q)
    assert cc.core.dims == core.dims
    assert _typed(cc.core.entries) == _typed(core.entries)
    assert [[_typed(row) for row in m] for m in cc.maps] == \
        [[_typed(row) for row in m] for m in maps]


@pytest.mark.parametrize("q", [3, 5])
def test_concise_core_over_gf_reads_a_fraction_as_its_residue(q):
    t = make_tensor((2, 2, 1), [Fraction(1, 2), 1, 2, 4])
    residues = make_tensor(t.dims, [from_rational(x, q) for x in t.entries])
    cc, want = concise_core(t, q), concise_core(residues, q)
    assert cc.core.dims == want.core.dims
    assert cc.maps == want.maps


def test_concise_core_over_gf_refuses_a_denominator_divisible_by_q():
    t = make_tensor((2, 2, 1), [Fraction(1, 3), 1, 2, 4])
    with pytest.raises(ValueError, match="vanishes modulo 3"):
        concise_core(t, 3)
    with pytest.raises(ValueError, match="vanishes modulo 3"):
        ConciseCore(t, t, 3).maps


def test_concise_core_of_concise_tensor_is_identity_shaped():
    t = basis_tensor((2, 2, 2), (0, 0, 0)) + basis_tensor((2, 2, 2), (1, 1, 1))
    cc = concise_core(t)
    assert cc.core == t


def test_squeeze():
    t = rank_one([[1], [1, 2], [3], [4, 5]])
    s, kept = squeeze(t)
    assert s.dims == (2, 2) and kept == [1, 3]
    assert s[1, 1] == 2 * 3 * 5 * 1


def test_json_roundtrip_and_scalar_parsing():
    t = make_tensor((2, 2), [1, Fraction(1, 2), -3, 0])
    s = dumps_tensor(t)
    assert loads_tensor(s) == t
    obj = json.loads(s)
    assert obj["entries"][1] == "1/2"
    assert parse_scalar("7") == 7 and parse_scalar("-3/6") == Fraction(-1, 2)
    with pytest.raises(ValueError):
        parse_scalar(0.5)


def test_parse_scalar_rejects_zero_denominator():
    for text in ("1/0", "-3/0", "0/0"):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_scalar(text)


_scalar_texts = st.one_of(
    st.text(),
    st.text(alphabet=" +-/._0123456789٣eE", max_size=12),
    st.integers(-10 ** 30, 10 ** 30).map(str),
    st.builds("{}/{}".format, st.integers(-10 ** 6, 10 ** 6),
              st.integers(-10 ** 6, 10 ** 6)),
    st.sampled_from(["", "-", "-0", "007", "+7", " 7", "7 ", "٣", "1_0",
                     "1.5", "-1/2", "1/-2", "1e5", "2E-3", "1e10000000"]),
)


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(_scalar_texts)
def test_parse_scalar_agrees_with_fraction(text):
    """Integer strings take a shortcut that must give Fraction's answer;
    exponent notation is the one form refused where Fraction accepts it."""
    if "e" in text or "E" in text:
        with pytest.raises(ValueError, match="exponent"):
            parse_scalar(text)
        return
    try:
        want = _norm(Fraction(text))
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ValueError):
            parse_scalar(text)
        return
    got = parse_scalar(text)
    assert got == want and type(got) is type(want)


def test_gl_tuple_validation():
    with pytest.raises(ValueError):
        GLTuple(([[1, 0]],))
