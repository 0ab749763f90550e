import math
import random
import re
from fractions import Fraction
from itertools import combinations, permutations, product
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from border3 import classifier
from border3._linalg import _norm, pivot_columns
from border3.classifier import (
    GREATER_THAN_3, UNKNOWN, classify, orbit_dimension,
    scheme_intersection_check, stabilizer_dimension,
)
from border3.equations import _adjugate, _block, cubic_line_pattern, slice_det_cubic
from border3.normal_forms import (
    ORBIT_IDS, ORBIT_INFO, orbit_representative, sigma2_point, sigma3_point,
)
from border3.tensor import (
    apply_gl, apply_mode_map, basis_tensor, concise_core, flattening,
    grouped_flattening, make_tensor, random_gl_tuple, random_tensor,
    random_unimodular, rank_one, slice_matrices, squeeze, zero_tensor,
)
from grouping_reference import group_modes


def test_trivial_classes():
    r = classify(zero_tensor((3, 3, 3)))
    assert r.border_rank_class == 0 and r.rank == 0
    r = classify(rank_one([[1, 2, 0], [0, 1, 1], [2, 2, 2]]))
    assert r.border_rank_class == 1 and r.rank == 1
    m = rank_one([[1, 0, 0], [1, 0, 0], [1, 1, 1]]) + rank_one([[0, 1, 0], [0, 1, 0], [1, 2, 4]])
    r = classify(m)  # matrix-like: two independent slices in a 2x2 layout
    assert r.border_rank_class == 2 and r.rank == 2


def test_orbit_representatives_classify_to_table_rows():
    for k in ORBIT_IDS:
        rep = classify(orbit_representative(k))
        info = ORBIT_INFO[k]
        assert rep.border_rank_class == 3
        assert rep.orbit_id == k
        assert rep.limit_type == info["type"]
        assert rep.rank == info["rank"]
        if info["type"] == "iv":
            assert rep.distinguished_factor == info["factor"]
        else:
            assert rep.distinguished_factor is None


def test_orbit_classification_is_basis_invariant():
    rng = random.Random(100)
    for k in ORBIT_IDS:
        t = orbit_representative(k)
        for _ in range(5):
            g = random_gl_tuple((3, 3, 3), rng)
            rep = classify(apply_gl(t, g))
            assert rep.orbit_id == k and rep.rank == ORBIT_INFO[k]["rank"]


def test_stabilizer_and_orbit_dimensions():
    for k, sd, od in [(34, 10, 16), (35, 10, 16), (36, 10, 16),
                      (37, 8, 18), (38, 7, 19), (39, 6, 20)]:
        t = orbit_representative(k)
        assert stabilizer_dimension(t) == sd
        assert orbit_dimension(t) == od
        assert sd + od + 1 == 27
    with pytest.raises(ValueError):
        orbit_dimension(zero_tensor((2, 2, 2)))


_SIGMA3_STABILIZER_N4 = {"i": 9, "ii": 10, "iii": 11, "iv": 13}  # 3n-3 .. 3n+1


@st.composite
def _stabilizer_cases(draw):
    """(tensor, expected stabilizer dimension or None) before a GL move."""
    source = draw(st.sampled_from(("orbit", "sigma3", "small")))
    if source == "orbit":
        k = draw(st.sampled_from(ORBIT_IDS))
        return orbit_representative(k), ORBIT_INFO[k]["stabilizer_dim"]
    if source == "sigma3":
        kind = draw(st.sampled_from(sorted(_SIGMA3_STABILIZER_N4)))
        return sigma3_point(kind, 4, factor=2), _SIGMA3_STABILIZER_N4[kind]
    dims = draw(st.lists(st.integers(1, 2), min_size=1, max_size=4).map(tuple)
                .filter(lambda d: any(x > 1 for x in d)))
    t = zero_tensor(dims)
    for _ in range(draw(st.integers(1, 3))):
        t = t + rank_one([draw(st.lists(st.integers(-2, 2), min_size=d,
                                        max_size=d)) for d in dims])
    return t, None


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=_stabilizer_cases(), seed=st.integers(0, 2 ** 32 - 1))
def test_stabilizer_dimension_is_gl_invariant(case, seed):
    t, expected = case
    sd = stabilizer_dimension(t)
    assert expected is None or sd == expected
    moved = apply_gl(t, random_gl_tuple(t.dims, random.Random(seed)))
    assert stabilizer_dimension(moved) == sd


def test_sigma3_normal_forms_classify_correctly_n3():
    assert classify(sigma3_point("i")).orbit_id == 39
    assert classify(sigma3_point("ii")).orbit_id == 38
    assert classify(sigma3_point("iii")).orbit_id == 37
    for f in (1, 2, 3):
        rep = classify(sigma3_point("iv", factor=f))
        assert rep.orbit_id == 33 + f
        assert rep.distinguished_factor == f
        assert rep.limit_type == "iv"


def test_sigma2_points_classify_with_rank_J():
    rng = random.Random(102)
    for n, J in [(3, {1, 2, 3}), (3, {1, 2}), (4, {1, 2, 3, 4}), (4, {2, 4}),
                 (5, {1, 3, 5}), (5, {1, 2, 3, 4, 5}), (6, {1, 2, 3, 4, 5, 6})]:
        t = sigma2_point(n, J)
        rep = classify(t)
        assert rep.border_rank_class == 2, (n, J)
        assert rep.rank == len(J), (n, J)
        assert rep.sigma2_support == tuple(sorted(J))
        g = random_gl_tuple(t.dims, rng)
        rep2 = classify(apply_gl(t, g))
        assert rep2.border_rank_class == 2 and rep2.rank == len(J)


def test_sigma2_rank2_vs_tangent_disambiguation():
    # a genuine rank-2 diagonal: all flattening ranks are 2 as well
    d = rank_one([[1, 0], [1, 0], [1, 0]]) + rank_one([[0, 1], [0, 1], [0, 1]])
    rep = classify(d)
    assert rep.border_rank_class == 2 and rep.rank == 2
    # mixed bases, still rank 2
    d2 = rank_one([[1, 1], [2, 1], [1, 3]]) + rank_one([[1, -1], [0, 1], [1, 1]])
    rep2 = classify(d2)
    assert rep2.border_rank_class == 2 and rep2.rank == 2
    w = sigma2_point(3, {1, 2, 3})
    assert classify(w).rank == 3


def test_pencil_rank_names_its_field():
    # slices I and M: det(s I + t M) is s^2 + t^2, and s^2 - 2 t^2 with roots
    # +-sqrt(2); neither pencil meets a rational product point
    for m, disc in (([[0, -1], [1, 0]], -4), ([[0, 2], [1, 0]], 8)):
        t = make_tensor((2, 2, 2), [1, 0, 0, 1] + [x for row in m for x in row])
        for u in (t, apply_gl(t, random_gl_tuple(t.dims, random.Random(disc)))):
            rep = classify(u)
            assert rep.border_rank_class == 2 and rep.rank == 3
            assert f"Q(sqrt({disc}))" in rep.witnesses[0]


_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(3, 4).flatmap(lambda n: st.lists(
    st.lists(st.lists(_rationals, min_size=2, max_size=2), min_size=n, max_size=n),
    min_size=2, max_size=2)))
def test_two_rational_rank_one_terms_keep_rank_two(terms):
    t = rank_one(terms[0]) + rank_one(terms[1])
    rep = classify(t)
    assert rep.border_rank_class in (0, 1, 2)
    assert rep.rank == rep.border_rank_class


def _kernel_quartics(core):
    """The 27 quartics of the concise 3x3x3 decision on the core as given:
    the blocks Z adj(X) Y - Y adj(X) Z of the mode-0 slices (S0, S1, S2),
    (S1, S0, S2) and (S2, S0, S1)."""
    s0, s1, s2 = slice_matrices(core, 0)
    return [v for x, y, z in ((s0, s1, s2), (s1, s0, s2), (s2, s0, s1))
            for v in _block(_adjugate(x), y, z)]


def _decide_unscaled(core):
    """The concise 3x3x3 decision on the core as given, without clearing
    its denominators first."""
    for i, v in enumerate(_kernel_quartics(core)):
        if v:
            return ("gt3", f"degree-4 commutation equation {i} is nonzero ({v})")
    pats = [cubic_line_pattern(slice_det_cubic(core, m)) for m in range(3)]
    return ("orbit", classifier._orbit_from_patterns(pats))


_small_rationals = st.one_of(
    st.integers(-9, 9), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)))


def _moved(draw, t, modes):
    """t moved by a random unimodular matrix in each of the given modes."""
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    for mode in modes:
        t = apply_mode_map(t, random_unimodular(3, rng), mode)
    return t


def _leading_minor(rows):
    """The determinant of the first three entries of three rows."""
    (a, b, c), (d, e, f), (g, h, i) = (r[:3] for r in rows)
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


@st.composite
def _rational_333(draw):
    """(kind, tensor, data), a rational 3x3x3 tensor, all but "sparse" ones
    scaled by p/q:

    - "sparse": a sparse tensor of small rationals;
    - "orbit": a GL-moved orbit point;
    - "block": a dense tensor whose first k mode-0 slices (k = data, 1 or
      2) have rank at most 1, so adj of each is zero and the first k
      quartic blocks vanish; it is moved only in modes 1 and 2, which keep
      those slices' ranks;
    - "minor": an orbit point whose direction-data flattening has three
      rows with a zero leading 3x3 minor, moved only in the two modes that
      keep that minor zero, so ``small_pivots`` falls back to its
      elimination.
    """
    kind = draw(st.sampled_from(("sparse", "orbit", "block", "minor")))
    scale = Fraction(draw(st.integers(-20, 20).filter(bool)), draw(st.integers(1, 20)))
    data = None
    if kind == "sparse":
        entries = draw(st.lists(_small_rationals, min_size=27, max_size=27))
        keep = draw(st.lists(st.integers(0, 2), min_size=27, max_size=27))
        return kind, make_tensor((3, 3, 3), [v if k else 0 for v, k in zip(entries, keep)]), data
    if kind == "orbit":
        rep = orbit_representative(draw(st.sampled_from(ORBIT_IDS)))
        g = random_gl_tuple((3, 3, 3), random.Random(draw(st.integers(0, 10 ** 6))))
        return kind, scale * apply_gl(rep, g), data
    if kind == "block":
        data = draw(st.integers(1, 2))
        small = st.integers(-5, 5)
        e = draw(st.lists(small, min_size=27, max_size=27))
        for i in range(data):
            a, b = (draw(st.lists(small, min_size=3, max_size=3)) for _ in range(2))
            for j in range(3):
                for k in range(3):
                    e[9 * i + 3 * j + k] = a[j] * b[k]  # mode-0 slice i is a b^T
        t = make_tensor((3, 3, 3), e)
        return kind, scale * _moved(draw, t, (1, 2)), data
    # a direction whose minor vanishes on the representative, and the two
    # modes other than the smaller of its two others: the minor's matrix is
    # the representative at index 0 of that smaller mode
    oid, data = draw(st.sampled_from(((34, 1), (34, 2), (35, 0), (38, 0), (38, 1),
                                      (38, 2), (39, 0), (39, 1), (39, 2))))
    fixed = min(m for m in range(3) if m != data)
    t = _moved(draw, orbit_representative(oid), [m for m in range(3) if m != fixed])
    return kind, scale * t, data


_QUARTIC_WITNESS = re.compile(r"degree-4 commutation equation (\d+) is nonzero \((.+)\)")


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_rational_333())
def test_integer_decision_changes_no_report(case):
    """Whole reports agree with the decision on the unscaled core; a
    "block" case's quartic witness lies past its vanishing blocks, and a
    "minor" case's flattening has a zero leading minor."""
    kind, t, data = case
    if kind == "minor":
        assert _leading_minor(flattening(t, data)) == 0
    rep = classify(t).as_dict()
    with patch.object(classifier, "_decide_concise_333", _decide_unscaled):
        assert rep == classify(t).as_dict()
    for w in rep["witnesses"]:
        m = _QUARTIC_WITNESS.fullmatch(w)
        if m:
            core, _ = squeeze(concise_core(t).core)
            assert m.group(2) == str(_kernel_quartics(core)[int(m.group(1))])
            if kind == "block":
                assert int(m.group(1)) >= 9 * data


def test_greater_than_3_detection():
    rng = random.Random(103)
    hits = 0
    for _ in range(10):
        t = random_tensor((3, 3, 3), rng, -9, 9)
        rep = classify(t)
        hits += rep.border_rank_class == GREATER_THAN_3
    assert hits == 10  # random integer tensors are generic
    diag4 = zero_tensor((4, 4, 4))
    for i in range(4):
        diag4 = diag4 + basis_tensor((4, 4, 4), (i, i, i))
    assert classify(diag4).border_rank_class == GREATER_THAN_3
    t = random_tensor((2, 2, 2, 2), rng, -9, 9)
    assert classify(t).border_rank_class == GREATER_THAN_3
    t = random_tensor((3, 3, 3, 3), rng, -5, 5)
    assert classify(t).border_rank_class == GREATER_THAN_3


def test_non_concise_three_way_reports_subspace_label():
    rng = random.Random(104)
    # concise core (2,3,3) inside (3,3,3): border rank exactly 3
    small = random_tensor((2, 3, 3), rng, -4, 4)
    emb = [[1, 0], [0, 1], [0, 0]]
    from border3.tensor import apply_mode_map
    t = apply_mode_map(small, emb, 0)
    rep = classify(t)
    assert rep.border_rank_class == 3
    assert rep.core_dims == (2, 3, 3)
    assert rep.subspace_label == (2, 3, 3)
    assert rep.orbit_id is None and rep.rank is None
    # matrix-like core (1,3,3): rank 3 is exact
    t = zero_tensor((3, 3, 3))
    for i in range(3):
        t = t + rank_one([[1, 1, 1], [1 if j == i else 0 for j in range(3)],
                          [1 if j == i else 0 for j in range(3)]])
    rep = classify(t)
    assert rep.border_rank_class == 3 and rep.rank == 3
    assert rep.core_dims == (1, 3, 3)


def test_classify_2x3x3_direct_input():
    rng = random.Random(105)
    t = random_tensor((2, 3, 3), rng, -4, 4)
    rep = classify(t)
    assert rep.border_rank_class == 3
    assert rep.subspace_label == (2, 3, 3)


def test_sigma3_families_classify_n4_n5():
    rng = random.Random(106)
    for n in (4, 5):
        for kind in ("i", "ii", "iii"):
            rep = classify(sigma3_point(kind, n))
            assert rep.border_rank_class == 3, (n, kind)
            assert rep.limit_type == kind
        for f in (1, n):
            rep = classify(sigma3_point("iv", n, factor=f))
            assert rep.border_rank_class == 3
            assert rep.limit_type == "iv"
            assert rep.distinguished_factor == f
    # stability under a random change of basis
    t = sigma3_point("iii", 4)
    g = random_gl_tuple(t.dims, rng)
    rep = classify(apply_gl(t, g))
    assert rep.limit_type == "iii" and rep.border_rank_class == 3


def test_moved_type_iv_points_locate_their_distinguished_factor():
    # the distinguished factor is the one factor in the distinguished block
    # of every singleton grouping; a GL move keeps each factor in place
    rng = random.Random(107)
    for n in (4, 5):
        for f in range(1, n + 1):
            t = sigma3_point("iv", n, factor=f)
            rep = classify(apply_gl(t, random_gl_tuple(t.dims, rng)))
            assert (rep.border_rank_class, rep.limit_type,
                    rep.distinguished_factor) == (3, "iv", f), (n, f)


def _check_every_grouping(t):
    """Every 3-block grouping of t, in every block order, gathered at the
    pivot sets of a fresh cache and of one filled as the bipartition
    screen fills it, against concise_core of the merged tensor."""
    m = t.order
    fresh, screened = {}, {}
    for size in range(2, m // 2 + 1):
        for rows in combinations(range(m), size):
            keep = pivot_columns(grouped_flattening(t, rows))
            screened[tuple(x for x in range(m) if x not in rows)] = tuple(keep) or (0,)
    for partition in classifier._partitions_into_3(m):
        for blocks in permutations(partition):
            want = concise_core(group_modes(t, blocks)).core
            for pivots in (fresh, screened):
                got = classifier._grouped_core(t, blocks, pivots)
                assert got.dims == want.dims, blocks
                assert [(type(x), x) for x in got.entries] == \
                    [(type(x), x) for x in want.entries], blocks


_SIGMA3_SPECS = [(kind, n, f) for n in (4, 5) for kind in ("i", "ii", "iii", "iv")
                 for f in (range(1, n + 1) if kind == "iv" else (1,))]


@pytest.mark.parametrize("kind,n,factor", _SIGMA3_SPECS)
@settings(max_examples=2, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_grouped_cores_of_moved_sigma3_points_match_the_merged_tensor(kind, n, factor, seed):
    t = sigma3_point(kind, n, factor=factor)
    _check_every_grouping(apply_gl(t, random_gl_tuple(t.dims, random.Random(seed))))


@st.composite
def _sparse_tensors(draw):
    """3-5 factors of dims 2-3 with a few int or Fraction entries, and some
    with whole slices, or everything, set to zero."""
    dims = tuple(draw(st.lists(st.integers(2, 3), min_size=3, max_size=5)))
    size = math.prod(dims)
    scalars = st.one_of(st.integers(-3, 3),
                        st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)))
    entries = [0] * size
    for pos, x in draw(st.lists(st.tuples(st.integers(0, size - 1), scalars),
                                max_size=8)):
        entries[pos] = x
    t = make_tensor(dims, map(_norm, entries))
    for mode, i in draw(st.lists(st.tuples(st.integers(0, len(dims) - 1),
                                           st.integers(0, 1)), max_size=2)):
        # a zero fiber: slice i along mode
        t = make_tensor(dims, [0 if idx[mode] == i else x for idx, x in
                               zip(product(*map(range, dims)), t.entries)])
    return t


@settings(max_examples=60, deadline=None, derandomize=True)
@given(t=_sparse_tensors())
def test_grouped_cores_of_sparse_tensors_match_the_merged_tensor(t):
    _check_every_grouping(t)


def test_classify_builds_no_core_per_grouping(monkeypatch):
    """On a moved type-ii point at n = 5 the only concise_core is the
    input's (31 when every grouping built its own: 1 + 25 + 5 singleton
    groupings).  Each pivot set computed, by the screen's pivot_columns or
    a grouping's pivot_set, is stored in the one cache under a block of
    its own, so no block's pivot set is computed twice."""
    calls, caches = {"concise_core": 0, "pivot_columns": 0, "pivot_set": 0}, []

    def counted(name, real):
        def call(*args):
            calls[name] += 1
            return real(*args)
        return call

    for name in calls:
        monkeypatch.setattr(classifier, name, counted(name, getattr(classifier, name)))
    real_grouped = classifier._grouped_core

    def grouped(sq, blocks, pivots):
        caches.append(pivots)
        return real_grouped(sq, blocks, pivots)

    monkeypatch.setattr(classifier, "_grouped_core", grouped)
    t = sigma3_point("ii", 5)
    rep = classify(apply_gl(t, random_gl_tuple(t.dims, random.Random(5))))
    assert (rep.border_rank_class, rep.limit_type) == (3, "ii")
    assert calls["concise_core"] == 1
    assert len(caches) == 30 and all(c is caches[0] for c in caches)
    assert calls["pivot_columns"] + calls["pivot_set"] == len(caches[0])


def test_stabilizer_dims_of_families_general_n():
    for n in (3, 4, 5):
        assert stabilizer_dimension(sigma3_point("i", n)) == 3 * n - 3
        assert stabilizer_dimension(sigma3_point("ii", n)) == 3 * n - 2
        assert stabilizer_dimension(sigma3_point("iii", n)) == 3 * n - 1
        assert stabilizer_dimension(sigma3_point("iv", n, factor=2)) == 3 * n + 1


def test_unknown_is_reported_honestly():
    # border rank 3 in a 2x2x2x2 ambient: no certificate implemented
    t = (rank_one([[1, 0], [1, 0], [1, 0], [1, 0]])
         + rank_one([[0, 1], [0, 1], [0, 1], [0, 1]])
         + rank_one([[1, 1], [1, -1], [1, 2], [1, 1]]))
    rep = classify(t)
    assert rep.border_rank_class in (UNKNOWN, 3)
    if rep.border_rank_class == UNKNOWN:
        assert rep.witnesses


def test_scheme_intersection_check_on_catalog():
    assert scheme_intersection_check(orbit_representative(39)) == "three_reduced_points"
    assert scheme_intersection_check(orbit_representative(38)) == "double_plus_reduced"
    assert scheme_intersection_check(orbit_representative(37)) == "curvilinear_triple"
    assert scheme_intersection_check(orbit_representative(34)) == "fat_triple"
    # the distinguished factor of orbit 35 is B: its net lives along mode 1
    assert scheme_intersection_check(orbit_representative(35), mode=1) == "fat_triple"
    assert scheme_intersection_check(orbit_representative(36), mode=2) == "fat_triple"
    with pytest.raises(ValueError):
        scheme_intersection_check(orbit_representative(35), mode=0)
    with pytest.raises(ValueError):
        scheme_intersection_check(zero_tensor((3, 3, 3)))
    with pytest.raises(ValueError):
        scheme_intersection_check(zero_tensor((2, 2, 2)))


def test_scheme_check_is_basis_invariant():
    rng = random.Random(107)
    for k, expected in [(39, "three_reduced_points"), (37, "curvilinear_triple")]:
        t = orbit_representative(k)
        for _ in range(3):
            g = random_gl_tuple((3, 3, 3), rng)
            assert scheme_intersection_check(apply_gl(t, g)) == expected


def test_report_as_dict_roundtrip():
    rep = classify(orbit_representative(38))
    d = rep.as_dict()
    assert d["border_rank_class"] == 3
    assert d["orbit_id"] == 38
    assert d["rank"] == 4
    assert isinstance(d["witnesses"], list)
