import random
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest

from border3.limits import _Poly, fundamental_form
from border3.normal_forms import (
    ORBIT_IDS, ORBIT_INFO, CominusculeModel, generic_det, generic_pfaffian,
    grassmann_model, lagrangian_model, orbit_representative, segre_model,
    sigma2_point, sigma3_point, spinor_model,
)
from border3.tensor import multilinear_rank, slice_matrices


def test_sigma2_point_structure():
    t = sigma2_point(3, {1, 2, 3})
    assert t.dims == (2, 2, 2)
    assert t[1, 0, 0] == t[0, 1, 0] == t[0, 0, 1] == 1
    assert t[0, 0, 0] == 0 and t[1, 1, 0] == 0
    s = sigma2_point(4, {2, 4}, dims=(1, 2, 1, 3))
    assert s.dims == (1, 2, 1, 3)
    assert s[0, 1, 0, 0] == 1 and s[0, 0, 0, 1] == 1
    with pytest.raises(ValueError):
        sigma2_point(3, {0, 1})
    with pytest.raises(ValueError):
        sigma2_point(3, {1, 2}, dims=(1, 2, 2))


def test_sigma3_points_match_orbit_representatives_at_n3():
    assert sigma3_point("i") == orbit_representative(39)
    assert sigma3_point("ii") == orbit_representative(38)
    assert sigma3_point("iii") == orbit_representative(37)


def test_sigma3_term_counts():
    for n in (3, 4, 5):
        assert sum(sigma3_point("i", n).entries) == 3
        assert sum(sigma3_point("ii", n).entries) == n + 1
        assert sum(sigma3_point("iii", n).entries) == n * (n + 1) // 2
        for f in range(1, n + 1):
            assert sum(sigma3_point("iv", n, factor=f).entries) == 2 * n - 1


def test_sigma3_validation():
    with pytest.raises(ValueError):
        sigma3_point("v")
    with pytest.raises(ValueError):
        sigma3_point("i", n=2)
    with pytest.raises(ValueError):
        sigma3_point("iv", n=3, factor=4)
    with pytest.raises(ValueError):
        sigma3_point("i", dims=(2, 3, 3))


def test_orbit_representatives_are_concise():
    for k in ORBIT_IDS:
        assert multilinear_rank(orbit_representative(k)) == (3, 3, 3)


def test_orbit_pencil_patterns():
    # slice pencils s*S0 + t*S1 + u*S2 along mode 0, frozen from the catalog
    def pencil(k):
        s0, s1, s2 = slice_matrices(orbit_representative(k), 0)
        return [[(s0[r][c], s1[r][c], s2[r][c]) for c in range(3)] for r in range(3)]

    S, T, U, O = (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)
    assert pencil(39) == [[S, O, O], [O, T, O], [O, O, U]]
    assert pencil(38) == [[T, S, O], [S, O, O], [O, O, U]]
    assert pencil(37) == [[U, T, S], [T, S, O], [S, O, O]]
    assert pencil(34) == [[T, S, U], [S, O, O], [U, O, O]]
    assert pencil(35) == [[T, S, O], [S, O, O], [U, O, S]]
    assert pencil(36) == [[T, S, U], [S, O, O], [O, O, S]]


def test_orbit_info_table():
    assert [ORBIT_INFO[k]["rank"] for k in ORBIT_IDS] == [5, 5, 5, 5, 4, 3]
    assert [ORBIT_INFO[k]["stabilizer_dim"] for k in ORBIT_IDS] == [10, 10, 10, 8, 7, 6]
    assert [ORBIT_INFO[k]["orbit_dim"] for k in ORBIT_IDS] == [16, 16, 16, 18, 19, 20]
    for k in ORBIT_IDS:
        info = ORBIT_INFO[k]
        assert 3 * (3 + 3 + 3) - info["dim_offset"] == info["orbit_dim"]
        assert info["stabilizer_dim"] + info["orbit_dim"] + 1 == 27


def _cofactor_det(a):
    """Laplace expansion along the first row."""
    if len(a) == 1:
        return a[0][0]
    return sum((-1) ** j * a[0][j]
               * _cofactor_det([row[:j] + row[j + 1:] for row in a[1:]])
               for j in range(len(a)))


def test_generic_det_and_pfaffian():
    rng = random.Random(21)
    for n in (1, 2, 3, 4):
        m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        assert generic_det(m) == _cofactor_det(m)
    for n in (2, 4, 6, 8):
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                a[i][j] = rng.randint(-4, 4)
                a[j][i] = -a[i][j]
        assert generic_pfaffian(a) ** 2 == generic_det(a)
    assert generic_pfaffian([[0, 3], [-3, 0]]) == 3
    with pytest.raises(ValueError):
        generic_pfaffian([[0]])


def _permutation_det(m):
    """The determinant as the signed sum over permutations, each product
    taken row by row (the reference for the first-row expansion)."""
    n = len(m)
    if n == 0:
        return 1
    perms = []

    def rec(prefix, rest, sign):
        if not rest:
            perms.append((prefix, sign))
        for i, x in enumerate(rest):
            rec(prefix + [x], rest[:i] + rest[i + 1:], sign * (-1) ** i)
    rec([], list(range(n)), 1)
    total = None
    for perm, sign in perms:
        prod = None
        for r, c in enumerate(perm):
            prod = m[r][c] if prod is None else prod * m[r][c]
        term = prod if sign > 0 else -1 * prod
        total = term if total is None else total + term
    return total


def _typed_value(x):
    if isinstance(x, _Poly):
        return "poly", [(c, type(c)) for c in x.coeffs]
    return x, type(x)


def test_generic_det_matches_permutation_expansion():
    rng = random.Random(22)
    entries = {
        "int": lambda: rng.randint(-4, 4),
        "fraction": lambda: rng.choice([rng.randint(-3, 3),
                                        Fraction(rng.randint(-6, 6), rng.randint(1, 4))]),
        # chart maps mix polynomial entries with integer zeros
        "poly": lambda: rng.choice([0, _Poly([rng.randint(-3, 3) for _ in range(3)]),
                                    _Poly((Fraction(rng.randint(-3, 3), 2), 1))]),
    }
    for kind, entry in entries.items():
        for n in range(6):
            for _ in range(4):
                m = [[entry() for _ in range(n)] for _ in range(n)]
                assert _typed_value(generic_det(m)) == _typed_value(_permutation_det(m)), (kind, m)


def test_sigma3_point_refuses_before_listing_its_terms():
    # the type-iii terms at n = 300 hold 13.5 million indices
    tracemalloc.start()
    try:
        with pytest.raises(OverflowError, match="entry guard"):
            sigma3_point("iii", 300)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_model_dimensions():
    assert segre_model((3, 3, 3)).ambient_dim == 27
    assert segre_model((3, 3, 3)).tangent_dim == 6
    assert segre_model((3, 3, 3)).base_degree == 3
    g = grassmann_model(3, 6)
    assert g.ambient_dim == 20 and g.tangent_dim == 9 and g.base_degree == 3
    l = lagrangian_model(3)
    assert l.ambient_dim == 14 and l.tangent_dim == 6 and l.base_degree == 3
    s = spinor_model(6)
    assert s.ambient_dim == 32 and s.tangent_dim == 15 and s.base_degree == 3
    models = ([segre_model(d) for d in [(1,), (2, 3), (3, 3, 3), (2, 1, 4, 2)]]
              + [grassmann_model(k, n) for n in range(2, 9) for k in range(1, n)]
              + [lagrangian_model(k) for k in range(1, 7)]
              + [spinor_model(k) for k in range(1, 10)])
    for model in models:
        assert model.ambient_dim == len(model.ambient_slots())
    assert segre_model((2, 3)).ambient_slots() == (
        (0, (0, 0)), (1, (0, 1)), (1, (0, 2)), (1, (1, 0)), (2, (1, 1)), (2, (1, 2)))
    with pytest.raises(ValueError):
        CominusculeModel("grassmann", k=3, n=3)
    with pytest.raises(ValueError):
        CominusculeModel("flag", k=1, n=2)


def test_grassmann_phi_matches_pluecker_coordinates():
    """Chart minors agree (up to a fixed sign per slot) with maximal minors of [I | M]."""
    rng = random.Random(23)
    g = grassmann_model(3, 6)
    slots = g.ambient_slots()
    signs = None
    for _ in range(6):
        m = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        full = [[1 if c == r else 0 for c in range(3)] + m[r] for r in range(3)]
        phi = g.phi([x for row in m for x in row])
        plueck = {}
        for cols in combinations(range(6), 3):
            plueck[cols] = generic_det([[full[r][c] for c in cols] for r in range(3)])
        cur = []
        for (s, (rs, cs)), val in zip(slots, phi):
            cols = tuple(sorted([r for r in range(3) if r not in rs] + [3 + c for c in cs]))
            p = plueck[cols]
            assert abs(p) == abs(val)
            cur.append(0 if p == 0 else (1 if p == val else -1))
        if signs is None:
            signs = cur
        else:
            for old, new in zip(signs, cur):
                if old and new:
                    assert old == new


def test_segre_phi_and_base_point():
    model = segre_model((2, 2))
    phi = model.phi([3, 5])  # tangent coords: one per factor
    # ambient order is row-major over the 2x2 index grid
    assert phi == [1, 5, 3, 15]
    assert model.phi([0, 0]) == [1, 0, 0, 0]  # the base point


def test_fundamental_form_diag_segre():
    model = segre_model((3, 3, 3))
    v = [1, 2, 0, 3, 0, 0]  # blocks (1,2), (0,3), (0,0)
    f1 = model.fundamental_form_diag(1, v)
    slots = model.ambient_slots()
    got = {slots[i][1]: c for i, c in f1.items()}
    assert got == {(1, 0, 0): 1, (2, 0, 0): 2, (0, 2, 0): 3}
    f2 = model.fundamental_form_diag(2, v)
    got2 = {slots[i][1]: c for i, c in f2.items()}
    assert got2 == {(1, 2, 0): 3, (2, 2, 0): 6}
    assert model.fundamental_form_diag(4, v) == {}
    f3 = model.fundamental_form_diag(3, v)
    assert f3 == {}  # third block vanishes


def test_fundamental_form_diag_drops_fraction_zeros():
    # products with the 1/2 in the second factor's block are Fraction(0)
    model = segre_model((2, 3, 3))
    v0 = (0, Fraction(1, 2), 0, 0, 0)
    assert model.fundamental_form_diag(2, v0) == {}
    assert fundamental_form(model, 2, [v0, v0]) == {}
    assert list(model.fundamental_form_diag(1, v0).values()) == [Fraction(1, 2)]
    # ring elements are kept, zero or not: the zero polynomial times each
    # of the four entries of the other two blocks
    diag = model.fundamental_form_diag(2, (_Poly([0]), 1, 0, 0, 0))
    assert [type(x) for x in diag.values()] == [_Poly] * 4


def test_spinor_phi_slots():
    s = spinor_model(4)
    v = list(range(1, 7))  # strict upper triangle of a 4x4 skew matrix
    phi = s.phi(v)
    slots = s.ambient_slots()
    by_label = {slots[i][1]: x for i, x in enumerate(phi)}
    assert by_label[()] == 1
    assert by_label[(0, 1)] == 1 and by_label[(2, 3)] == 6
    # Pf of the full 4x4: a01 a23 - a02 a13 + a03 a12
    assert by_label[(0, 1, 2, 3)] == 1 * 6 - 2 * 5 + 3 * 4
