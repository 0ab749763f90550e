import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings, strategies as st

from colex_reference import colex_rank_over_field
from projection_reference import project_candidates
from border3 import rank_oracle
from border3._linalg import Echelon, rref
from border3.normal_forms import (
    ORBIT_IDS, ORBIT_INFO, SIGMA3_KINDS, orbit_representative, sigma2_point,
    sigma3_point,
)
from border3.rank_oracle import (
    Decomposition, GreaterThan, SearchSpaceError, _prepare_span_search,
    _project_candidates, _quotient_search, _rank_is_dim_s,
    _rank_one_candidates, from_rational,
    macaulay_membership, perturbed_pencil_matrix, perturbed_pencil_minors,
    perturbed_pencil_targets, rank_over_field, rank_upper_bound,
)
from border3.polytools import monomial, padd, pis_zero, pmul, psub
from border3.tensor import (
    apply_gl, concise_core, flattening, make_tensor, random_gl_tuple,
    random_tensor, rank_one, zero_tensor,
)


def test_field_element_from_rational():
    assert from_rational(Fraction(1, 2), 3) == 2  # 1/2 = 2 mod 3
    assert from_rational(Fraction(-1, 3), 5) == 3
    assert from_rational(4, 2) == 0
    with pytest.raises(ValueError):
        from_rational(Fraction(1, 2), 2)
    with pytest.raises(ValueError):
        from_rational(Fraction(3, 10), 5)


def _gf_span(rows, q):
    """Every vector of the row span over GF(q), by brute force."""
    n = len(rows[0])
    return {tuple(sum(c * r[j] for c, r in zip(cs, rows)) % q for j in range(n))
            for cs in product(range(q), repeat=len(rows))}


def _gf_rank(rows, q):
    """Rank over GF(q): the row span has q**rank vectors."""
    return round(math.log(len(_gf_span(rows, q)), q))


def test_rref_over_gf_matches_brute_force_span():
    rng = random.Random(41)
    for q in (2, 3, 5):
        for _ in range(20):
            m, n = rng.randint(1, 4), rng.randint(1, 5)
            a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
            rows, pivots = rref(a, q)
            span = _gf_span(a, q)
            assert len(span) == q ** len(pivots)
            assert _gf_span(rows, q) == span
            assert all(0 <= x < q for row in rows for x in row)
            assert not any(any(row) for row in rows[len(pivots):])
            for i, c in enumerate(pivots):
                assert [row[c] for row in rows] == [int(k == i) for k in range(m)]


def test_concise_core_over_gf_matches_brute_force_ranks():
    rng = random.Random(17)
    for q in (2, 3, 5):
        for _ in range(15):
            dims = tuple(rng.randint(1, 3) for _ in range(3))
            t = random_tensor(dims, rng, 0, q - 1)
            if t.is_zero():
                continue
            cc = concise_core(t, q)
            assert cc.core.dims == tuple(
                _gf_rank(flattening(t, m), q) for m in range(3))
            assert [x % q for x in cc.embed().entries] == list(t.entries)


def test_rank_over_field_small_cases():
    assert rank_over_field(zero_tensor((3, 3, 3)), 2) == 0
    assert rank_over_field(zero_tensor((2, 2)), 5) == 0
    t = rank_one([[1, 2], [3, 1], [0, 4]], 1)
    assert rank_over_field(t, 5) == 1
    assert rank_over_field(t, 3) == 1
    # a tensor that is rank one only after reduction: 5 * e000 over F2
    five = rank_one([[5], [1], [1]], 1)
    assert rank_over_field(five, 2) == 1
    assert rank_over_field(rank_one([[2], [1], [1]], 1), 2) == 0
    # rational entries are read as residues: 1/2 is 2 mod 3 and 3 mod 5
    half = Fraction(1, 2) * orbit_representative(38)
    assert rank_over_field(half, 3) == rank_over_field(half, 5) == 4
    # matrix case: concise core is square
    m = make_tensor((2, 3), [1, 0, 1, 0, 1, 1])
    assert rank_over_field(m, 2) == 2


def test_rank_over_field_matches_orbit_table():
    for oid in ORBIT_IDS:
        rep = orbit_representative(oid)
        expected = ORBIT_INFO[oid]["rank"]
        for q in (2, 3, 5):
            assert rank_over_field(rep, q) == expected


def test_rank_over_field_greater_than():
    rng = random.Random(7)
    g = make_tensor((3, 3, 3), [rng.randrange(1, 50) for _ in range(27)])
    out = rank_over_field(g, 2, r_max=4)
    assert out == GreaterThan(4)
    assert rank_over_field(g, 2, r_max=6) == 5


def test_ranks_decided_in_set_up_keep_the_bound():
    # a 3x3 identity stored as dims (3, 3, 1) is decided by its concise
    # core, a square matrix, and no search runs: its rank 3 still obeys r_max
    eye = make_tensor((3, 3, 1), [int(i == j) for i in range(3)
                                  for j in range(3)])
    assert rank_over_field(eye, 2, r_max=3) == 3
    assert rank_over_field(eye, 2, r_max=2) == GreaterThan(2)
    assert rank_over_field(rank_one([[1, 1], [1, 2]], 1), 3, r_max=1) == 1
    assert rank_over_field(orbit_representative(39), 2, r_max=2) == \
        GreaterThan(2)


def test_rank_over_field_depends_on_the_field():
    # slices I and a quarter turn: the pencil's determinant s^2 + t^2 is a
    # square over F2, irreducible over F3 and splits over F5 (-1 = 2^2)
    t = make_tensor((2, 2, 2), [1, 0, 0, 1, 0, -1, 1, 0])
    assert [rank_over_field(t, q) for q in (2, 3, 5)] == [3, 3, 2]


_SHAPES = {2: [(2, 2, 2), (3, 2, 2), (3, 3, 2), (3, 3, 3), (2, 2, 2, 2)],
           3: [(2, 2, 2), (3, 2, 2), (3, 3, 2), (3, 3, 3)],
           5: [(2, 2, 2), (3, 2, 2), (3, 3, 2)]}


@st.composite
def _small_tensor_and_bound(draw, q):
    dims = draw(st.sampled_from(_SHAPES[q]))
    size = math.prod(dims)
    entries = draw(st.lists(st.integers(0, q - 1), min_size=size,
                            max_size=size))
    return make_tensor(dims, entries), draw(st.integers(1, 6))


@pytest.mark.parametrize("q", sorted(_SHAPES))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_quotient_search_matches_colex_search(q, data):
    # r_max below the rank makes both searches prove a GreaterThan verdict
    t, r_max = data.draw(_small_tensor_and_bound(q))
    want = colex_rank_over_field(t, q, r_max)
    assert rank_over_field(t, q, r_max) == want
    # each j >= 1 searched alone, with none of the neighbour masks that
    # rank_over_field shares from a smaller j: true when the rank is at
    # most dim S + j and F^N/S has a j-dimensional subspace (j = 0 is
    # _rank_is_dim_s, checked against the colex search in
    # test_rank_is_dim_s_matches_colex_search)
    decided, ctx = _prepare_span_search(t, q)
    if ctx is None:
        return
    slice_rows, rest, low = ctx
    qt = _project_candidates(slice_rows, rest, q)
    for j in range(1, r_max - low + 1):
        fits = want != GreaterThan(r_max) and want <= low + j
        assert _quotient_search(qt, j) == (fits
                                           and j <= math.prod(rest) - low)


@pytest.mark.parametrize("q", [2, 3, 5])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_rank_is_dim_s_matches_colex_search(q, data):
    """The S check decides rank = dim S as the colex subset search does, on
    tensors of 3-4 modes with dims 1-3."""
    dims = tuple(data.draw(st.lists(st.sampled_from([1, 2, 2, 3, 3]),
                                    min_size=3, max_size=4)))
    size = math.prod(dims)
    if data.draw(st.booleans()):
        entries = data.draw(st.lists(st.integers(0, q - 1), min_size=size,
                                     max_size=size))
    else:  # a sum of a few rank-one terms, so that rank = dim S comes up
        entries = [0] * size
        for _ in range(data.draw(st.integers(1, 3))):
            term = [1]
            for d in dims:
                v = data.draw(st.lists(st.integers(0, q - 1), min_size=d,
                                       max_size=d))
                term = [x * y for x in term for y in v]
            entries = [(x + y) % q for x, y in zip(entries, term)]
    t = make_tensor(dims, entries)
    try:
        decided, ctx = _prepare_span_search(t, q)
    except SearchSpaceError:
        return
    if ctx is None:
        return
    slice_rows, rest, low = ctx
    want = colex_rank_over_field(t, q, low) == low
    assert _rank_is_dim_s(slice_rows, rest, q) is want


@pytest.mark.parametrize("q", [2, 3, 5])
def test_rank_dim_s_is_decided_without_projection(q, monkeypatch):
    def refuse(*args):
        raise AssertionError("the candidates were projected")

    monkeypatch.setattr(rank_oracle, "_project_candidates", refuse)
    assert rank_over_field(orbit_representative(39), q) == 3
    with pytest.raises(AssertionError, match="projected"):
        rank_over_field(orbit_representative(38), q)


@pytest.mark.parametrize("q", [2, 3, 5])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_tabulated_projection_matches_per_candidate_lifts(q, data):
    """Lifts read from the per-head tables give the _Quotient of lifting
    each candidate on its own, field by field and in insertion order."""
    dims = data.draw(st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 2, 2),
                                      (2, 2, 2, 2)]))
    n = math.prod(dims)
    rows = data.draw(st.lists(
        st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
        min_size=1, max_size=3))
    got = _project_candidates(rows, dims, q)
    want = project_candidates(rows, _rank_one_candidates(dims, q), q)
    assert (got.q, got.k, got.over, got.top) == \
        (want.q, want.k, want.over, want.top)
    assert got.gens == want.gens
    assert got.extra == want.extra
    assert got.root == want.root
    assert list(got.where.items()) == list(want.where.items())


def _moved_orbit_or_pattern(q):
    orbits = [(orbit_representative(oid), ORBIT_INFO[oid]["rank"])
              for oid in ORBIT_IDS]
    patterns = [(sigma2_point(n, set(J), (2,) * n), len(J))
                for n in (3, 4) for size in range(1, n + 1)
                for J in combinations(range(1, n + 1), size)]
    return st.tuples(st.sampled_from(orbits + patterns),
                     st.integers(0, 2 ** 32 - 1))


@pytest.mark.parametrize("q", [2, 3, 5])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_rank_over_field_is_gl_invariant(q, data):
    """A unimodular move is invertible modulo every prime, so it keeps the
    rank over F_q: orbit representatives and sigma_2 support patterns over
    all three fields."""
    (t, want), seed = data.draw(_moved_orbit_or_pattern(q))
    moved = apply_gl(t, random_gl_tuple(t.dims, random.Random(seed)))
    assert rank_over_field(t, q) == rank_over_field(moved, q) == want


def test_rank_over_field_zero_padding_invariance():
    # padding with zero slices never changes the rank
    rng = random.Random(23)
    small = make_tensor((2, 2, 2), [rng.randrange(5) for _ in range(8)])
    big = zero_tensor((3, 3, 3))
    entries = list(big.entries)
    for i, j, k in product(range(2), repeat=3):
        entries[i * 9 + j * 3 + k] = small[i, j, k]
    big = make_tensor((3, 3, 3), entries)
    for q in (2, 3):
        assert rank_over_field(small, q) == rank_over_field(big, q)


def test_rank_over_field_input_validation():
    t = zero_tensor((2, 2, 2))
    with pytest.raises(ValueError):
        rank_over_field(t, 7)
    with pytest.raises(ValueError):
        rank_over_field(t, 2, r_max=0)
    with pytest.raises(ValueError):
        rank_over_field(t, 2, r_max=7)
    # exact integers only: 2.0 == 2 and True == 1 would pass a comparison
    for bad in (2.0, Fraction(2), True, "2"):
        with pytest.raises(ValueError, match="search primes"):
            rank_over_field(t, bad)
    for bad in (True, 3.0, None):
        with pytest.raises(ValueError, match="r_max"):
            rank_over_field(t, 2, r_max=bad)
    rng = random.Random(5)
    wide = make_tensor((4, 3, 3), [rng.randrange(1, 7) for _ in range(36)])
    with pytest.raises(ValueError, match="too large"):
        rank_over_field(wide, 5)
    diag = zero_tensor((3, 3, 3, 3))
    entries = list(diag.entries)
    for c in range(3):
        entries[c * 27 + c * 9 + c * 3 + c] = 1
    diag = make_tensor((3, 3, 3, 3), entries)
    with pytest.raises(ValueError, match="budget"):
        rank_over_field(diag, 5)
    # the same shape fits the budget over the smaller fields
    assert rank_over_field(diag, 2) == 3


def test_sigma2_ranks_over_f2():
    # n = 5 with five terms is the only search at depth j = 3 of the
    # benchmark's oracle batch
    for n in (3, 4, 5):
        for size in range(1, n + 1):
            J = set(range(1, size + 1))
            t = sigma2_point(n, J, (2,) * n)
            expected = 1 if size == 1 else size
            assert rank_over_field(t, 2) == expected


def test_rank_upper_bound_zero_and_rank_one():
    z = zero_tensor((2, 3))
    dz = rank_upper_bound(z)
    assert len(dz) == 0 and dz.verify(z)
    t = rank_one([[2, -1], [1, 3, 0], [4]], Fraction(1, 2))
    d = rank_upper_bound(t)
    assert len(d) == 1 and d.verify(t)


_ENTRIES = st.one_of(st.integers(-3, 3),
                     st.fractions(min_value=-2, max_value=2, max_denominator=3))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(vectors=st.lists(st.lists(_ENTRIES, min_size=1, max_size=3),
                        min_size=1, max_size=4),
       coeff=_ENTRIES)
def test_rank_upper_bound_rank_one_verifies(vectors, coeff):
    # rank_upper_bound returns its rank-one recipe unchecked
    t = rank_one(vectors, coeff)
    dec = rank_upper_bound(t)
    assert dec.verify(t) and len(dec) == (0 if t.is_zero() else 1)


def test_rank_upper_bound_orbit_representatives():
    # rank_upper_bound returns the fixed orbit recipes unchecked, so this
    # is where each of the six is re-summed against its representative
    expected_terms = {34: 5, 35: 5, 36: 5, 37: 5, 38: 4, 39: 3}
    for oid in ORBIT_IDS:
        rep = orbit_representative(oid)
        dec = rank_upper_bound(rep)
        assert dec.verify(rep)
        assert len(dec) == expected_terms[oid]
        # the decomposition meets the known rank exactly
        assert len(dec) == ORBIT_INFO[oid]["rank"]


def test_rank_upper_bound_sigma_points():
    # every normal form is recognised and decomposed into its own basis
    # terms, at dims 2 or 3 per factor and with one factor of dimension 4;
    # rank_upper_bound returns these σ2 and σ3 recipes unchecked
    for n in (3, 4, 5):
        for dims in ((2,) * n, (4,) + (2,) * (n - 1)):
            for size in range(1, n + 1):
                for J in combinations(range(1, n + 1), size):
                    t = sigma2_point(n, set(J), dims)
                    dec = rank_upper_bound(t)
                    assert dec.verify(t) and len(dec) == size
        counts = {"i": 3, "ii": n + 1, "iii": n * (n + 1) // 2, "iv": 2 * n - 1}
        for dims in ((3,) * n, (3,) * (n - 1) + (4,)):
            for kind in SIGMA3_KINDS:
                for factor in range(1, n + 1) if kind == "iv" else (1,):
                    t = sigma3_point(kind, n, dims, factor)
                    dec = rank_upper_bound(t)
                    want = counts[kind]
                    if dims == (3, 3, 3) and kind == "iii":
                        want = 5  # orbit 37 has a five-term decomposition
                    assert dec.verify(t) and len(dec) == want, (kind, dims)


def test_rank_upper_bound_agrees_with_field_rank():
    # a field rank can only be smaller than the number of rational terms
    for oid in ORBIT_IDS:
        rep = orbit_representative(oid)
        dec = rank_upper_bound(rep)
        assert rank_over_field(rep, 3) <= len(dec)
    assert rank_over_field(orbit_representative(39), 5) == 3


def test_decomposition_reduces_modulo_odd_primes():
    # every coefficient of the five-term decomposition stays defined mod 3
    # and 5, so the rational terms certify the field rank bound directly
    rep = orbit_representative(37)
    dec = rank_upper_bound(rep)
    for q in (3, 5):
        acc = [0] * 27
        for coeff, vectors in dec.terms:
            c = from_rational(coeff, q)
            for pos, (i, j, k) in enumerate(product(range(3), repeat=3)):
                c_ijk = vectors[0][i] * vectors[1][j] * vectors[2][k]
                acc[pos] = (acc[pos] + c * c_ijk) % q
        want = [from_rational(x, q) for x in rep.entries]
        assert acc == want
    with pytest.raises(ValueError):
        from_rational(Fraction(1, 2), 2)


def test_rank_upper_bound_unknown_provenance():
    rng = random.Random(99)
    g = make_tensor((3, 3, 3), [rng.randrange(2, 9) for _ in range(27)])
    with pytest.raises(ValueError, match="provenance"):
        rank_upper_bound(g)


def test_decomposition_tensor_round_trip():
    terms = (
        (Fraction(3, 7), ((1, 0), (0, 2), (1, 1))),
        (-2, ((0, 1), (1, 1), (1, 0))),
    )
    dec = Decomposition((2, 2, 2), terms)
    t = dec.tensor()
    assert dec.verify(t)
    assert not dec.verify(zero_tensor((2, 2, 2)))
    assert t[0, 1, 0] == Fraction(6, 7)
    # one entry list gives the values and types of summing tensors
    want = zero_tensor((2, 2, 2))
    for coeff, vectors in terms:
        want = want + rank_one([list(v) for v in vectors], coeff)
    assert [(type(x), x) for x in t.entries] == \
        [(type(x), x) for x in want.entries]
    with pytest.raises(ValueError, match="mismatch"):
        Decomposition((2, 2), terms).tensor()


def _pencil_vars():
    # variable order: s, t, u, x graded; f1 f2 f3 g1 g2 g3 parameters
    def var(i):
        e = [0] * 10
        e[i] = 1
        return monomial(tuple(e))
    return [var(i) for i in range(10)]


def test_perturbed_pencil_matrix_entries():
    s, t, u, x, f1, f2, f3, g1, g2, g3 = _pencil_vars()
    a = perturbed_pencil_matrix()
    assert a[0][0] == padd(t, pmul(x, pmul(f1, g1)))
    assert a[0][1] == padd(s, pmul(x, pmul(f1, g2)))
    assert a[1][0] == padd(s, pmul(x, pmul(f2, g1)))
    assert a[1][1] == pmul(x, pmul(f2, g2))
    assert a[2][0] == padd(u, pmul(x, pmul(f3, g1)))
    assert a[2][2] == pmul(x, pmul(f3, g3))


def pscale_neg(p):
    return {e: -c for e, c in p.items()}


def test_perturbed_pencil_minors_and_targets():
    s, t, u, x, f1, f2, f3, g1, g2, g3 = _pencil_vars()
    minors = perturbed_pencil_minors()
    assert len(minors) == 9
    assert pis_zero(minors[((1, 2), (1, 2))])
    lin_f = psub(pmul(s, f3), pmul(u, f2))
    lin_g = psub(pmul(s, g3), pmul(u, g2))
    tgt_f, tgt_g = perturbed_pencil_targets()
    assert tgt_f == pmul(lin_f, lin_f)
    assert tgt_g == pmul(lin_g, lin_g)
    # hand-checked certificate: all first-order perturbation terms cancel
    combo = {}
    for key, mult in (
        (((0, 1), (0, 1)), pscale_neg(pmul(f3, f3))),
        (((0, 1), (0, 2)), pmul(f2, f3)),
        (((0, 2), (0, 1)), pmul(f2, f3)),
        (((0, 2), (0, 2)), pscale_neg(pmul(f2, f2))),
        (((1, 2), (0, 1)), pscale_neg(pmul(f1, f3))),
        (((1, 2), (0, 2)), pmul(f1, f2)),
    ):
        combo = padd(combo, pmul(mult, minors[key]))
    assert pis_zero(psub(combo, tgt_f))


def test_macaulay_membership_direct_and_failing():
    s, t, u, x, f1, f2, f3, g1, g2, g3 = _pencil_vars()
    gens = [pmul(s, s), pmul(u, u)]
    cert = macaulay_membership(gens[0], gens, 0)
    assert cert and not cert.bound_limited
    assert cert.multipliers[0] == {(0,) * 10: 1}
    assert cert.multipliers[1] == {}
    st = pmul(s, t)
    miss = macaulay_membership(st, gens, 1)
    assert not miss and miss.bound_limited
    assert miss.multipliers is None
    zero_cert = macaulay_membership({}, gens, 0)
    assert zero_cert and not zero_cert.bound_limited


def test_exact_degree_monomials_are_sorted_and_complete():
    for indices, degree, nvars in [((0, 1, 2, 3), 3, 6), ((4, 5), 2, 6),
                                   ((1,), 0, 2), ((), 0, 3), ((), 2, 3)]:
        want = sorted(e for e in product(range(degree + 1), repeat=nvars)
                      if sum(e) == degree
                      and not any(e[i] for i in range(nvars) if i not in indices))
        assert rank_oracle._exact_degree_monomials(indices, degree, nvars) == want


def test_macaulay_membership_validation():
    s, t, u, x, f1, f2, f3, g1, g2, g3 = _pencil_vars()
    with pytest.raises(ValueError):
        macaulay_membership(pmul(s, s), [], 1)
    with pytest.raises(ValueError):
        macaulay_membership(pmul(s, s), [s], -1)
    with pytest.raises(ValueError, match="homogeneous"):
        macaulay_membership(padd(s, pmul(s, s)), [s], 1)


@pytest.mark.parametrize("bound", [True, False, 2.0, "1", None, Fraction(1)])
def test_macaulay_membership_refuses_a_bound_that_is_not_an_int(bound):
    s = _pencil_vars()[0]
    with pytest.raises(ValueError, match="nonnegative integer"):
        macaulay_membership(pmul(s, s), [s], bound)
    with pytest.raises(ValueError, match="nonnegative integer"):
        macaulay_membership({}, [s], bound)


@pytest.mark.parametrize("graded", [(0, 1, 2, 3, 12), (0, 10), (-1,),
                                    (0, True), (0, 1.0), ("0",)])
def test_macaulay_membership_refuses_a_bad_graded_index(graded):
    s = _pencil_vars()[0]
    with pytest.raises(ValueError, match="graded indices"):
        macaulay_membership(pmul(s, s), [s], 1, graded_indices=graded)
    with pytest.raises(ValueError, match="graded indices"):
        macaulay_membership({}, [s], 1, graded_indices=graded)


def test_macaulay_membership_refuses_mixed_variable_lists():
    s = _pencil_vars()[0]
    with pytest.raises(ValueError, match="one variable list"):
        macaulay_membership(pmul(s, s), [{(1, 0): 1}], 1)
    with pytest.raises(ValueError, match="one variable list"):
        macaulay_membership({}, [s, {(1, 0): 1}], 1)


def test_pencil_targets_need_quadratic_multipliers():
    minors = perturbed_pencil_minors()
    gens = list(minors.values())
    tgt_f, tgt_g = perturbed_pencil_targets()
    for target in (tgt_f, tgt_g):
        for bound in (0, 1):
            cert = macaulay_membership(target, gens, bound)
            assert not cert and cert.bound_limited
        cert = macaulay_membership(target, gens, 2)
        assert cert and not cert.bound_limited
        # re-substitute the certificate independently
        total = {}
        for h, g in zip(cert.multipliers, gens):
            total = padd(total, pmul(h, g))
        assert pis_zero(psub(total, target))


class _DenseEchelon(Echelon):
    """An Echelon fed dense vectors, as macaulay_membership fed it before it
    passed its sparse {column: value} columns."""

    @staticmethod
    def _dense(v):
        if type(v) is not dict:
            return v
        out = [0] * (max(v, default=-1) + 1)
        for c, x in v.items():
            out[c] = x
        return out

    def add(self, v):
        return super().add(self._dense(v))

    def coords_in(self, v):
        return super().coords_in(self._dense(v))


def test_pencil_certificates_match_dense_columns(monkeypatch):
    gens = list(perturbed_pencil_minors().values())
    want = {}
    with monkeypatch.context() as m:
        m.setattr(rank_oracle, "Echelon", _DenseEchelon)
        for i, target in enumerate(perturbed_pencil_targets()):
            for bound in (0, 1, 2):
                want[i, bound] = macaulay_membership(target, gens, bound)
    for i, target in enumerate(perturbed_pencil_targets()):
        for bound in (0, 1, 2):
            got = macaulay_membership(target, gens, bound)
            assert got == want[i, bound]
            assert repr(got) == repr(want[i, bound])


def test_pencil_certificate_matches_hand_identity():
    s, t, u, x, f1, f2, f3, g1, g2, g3 = _pencil_vars()
    minors = perturbed_pencil_minors()
    keys = list(minors.keys())
    gens = [minors[k] for k in keys]
    tgt_f = perturbed_pencil_targets()[0]
    cert = macaulay_membership(tgt_f, gens, 2)
    by_key = dict(zip(keys, cert.multipliers))
    assert by_key[((0, 1), (0, 1))] == pscale_neg(pmul(f3, f3))
    assert by_key[((0, 1), (0, 2))] == pmul(f2, f3)
    assert by_key[((0, 2), (0, 1))] == pmul(f2, f3)
    assert by_key[((0, 2), (0, 2))] == pscale_neg(pmul(f2, f2))
    assert by_key[((1, 2), (0, 1))] == pscale_neg(pmul(f1, f3))
    assert by_key[((1, 2), (0, 2))] == pmul(f1, f2)


# -- macaulay_membership against an independently built Macaulay matrix -------

def _graded_monomials(degree, bound):
    """Exponents over (a, b, c | p): graded degree exactly degree in a, b,
    c and degree at most bound in the parameter p."""
    return [e + (k,) for e in product(range(degree + 1), repeat=3)
            if sum(e) == degree for k in range(bound + 1)]


def _reference_rank(vectors):
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        hit = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if hit is None:
            continue
        rows[rank], rows[hit] = rows[hit], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@st.composite
def _homogeneous_poly(draw, degree):
    terms = draw(st.lists(
        st.tuples(st.sampled_from(_graded_monomials(degree, 1)),
                  st.integers(-3, 3).filter(bool)),
        min_size=1, max_size=3))
    poly = {}
    for expo, c in terms:
        poly = padd(poly, monomial(expo, c))
    return poly


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_macaulay_membership_matches_reference_solve(data):
    gens, gen_degs = [], []
    for d in data.draw(st.lists(st.integers(1, 2), min_size=1, max_size=3)):
        g = data.draw(_homogeneous_poly(d))
        if g:
            gens.append(g)
            gen_degs.append(d)
    assume(gens)
    target_deg = data.draw(st.integers(2, 3))
    bound = data.draw(st.integers(0, 1))
    columns = [pmul(monomial(expo), g)
               for g, d in zip(gens, gen_degs)
               for expo in _graded_monomials(target_deg - d, bound)]
    target = {}
    if data.draw(st.booleans()):
        # a combination of the columns lies in the ideal by construction
        for col in columns:
            c = data.draw(st.integers(-2, 2))
            target = padd(target, {e: c * x for e, x in col.items()})
    if not target:
        target = data.draw(_homogeneous_poly(target_deg))
    slots = sorted(set(target).union(*columns))
    vectors = [[col.get(m, 0) for m in slots] for col in columns]
    tvec = [target.get(m, 0) for m in slots]
    expected = _reference_rank(vectors + [tvec]) == _reference_rank(vectors)

    cert = macaulay_membership(target, gens, bound, graded_indices=(0, 1, 2))
    assert cert.found is expected
    assert cert.bound_limited is not expected
    if expected:
        total = {}
        for h, g, d in zip(cert.multipliers, gens, gen_degs):
            assert all(e[3] <= bound and sum(e[:3]) + d == target_deg
                       for e in h)
            total = padd(total, pmul(h, g))
        assert total == target
