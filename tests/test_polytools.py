import random
from fractions import Fraction

from border3.polytools import (
    gcd_bivariate, monomial, padd, pclean, pmul, psub, udivmod, ugcd, umul,
)


def bivariate_is_constant(p):
    p = pclean(p)
    return not p or set(p) == {(0, 0)}


def peval(p, point):
    """Value of a polynomial dict at a point, term by term."""
    total = 0
    for e, c in p.items():
        v = c
        for x, k in zip(point, e):
            v = v * x ** k
        total += v
    return total


def test_poly_arithmetic_against_evaluation():
    rng = random.Random(5)
    for _ in range(30):
        p = {(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-4, 4) for _ in range(4)}
        q = {(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-4, 4) for _ in range(4)}
        pt = [rng.randint(-3, 3), rng.randint(-3, 3)]
        assert peval(padd(p, q), pt) == peval(p, pt) + peval(q, pt)
        assert peval(psub(p, q), pt) == peval(p, pt) - peval(q, pt)
        assert peval(pmul(p, q), pt) == peval(p, pt) * peval(q, pt)


def test_univariate_division_and_gcd():
    f = umul([1, 1], [2, 0, 1])  # (1+x)(2+x^2)
    q, r = udivmod(f, [1, 1])
    assert r == [] and q == [2, 0, 1]
    g = ugcd(umul([1, 1], [1, 2]), umul([1, 1], [3, 1]))
    assert g == [1, 1]
    assert ugcd([2], [0, 0, 5]) == [1]


def _bpoly(factors):
    out = {(0, 0): 1}
    for f in factors:
        out = pmul(out, f)
    return out


def test_bivariate_gcd_detects_common_factors():
    x = {(1, 0): 1}
    y = {(0, 1): 1}
    xy1 = padd(padd(x, y), {(0, 0): 1})       # x + y + 1
    x2y = padd(x, pmul(y, {(0, 0): 2}))       # x + 2y
    p = _bpoly([xy1, xy1, x2y])
    q = _bpoly([xy1, x2y, x2y])
    g = gcd_bivariate(p, q)
    # gcd should be (x+y+1)(x+2y) up to scalar
    expected = _bpoly([xy1, x2y])
    ratio = None
    assert set(g) == set(expected)
    for k in g:
        r = Fraction(g[k]) / Fraction(expected[k])
        ratio = r if ratio is None else ratio
        assert r == ratio


def test_bivariate_gcd_coprime_is_constant():
    x = {(1, 0): 1}
    y = {(0, 1): 1}
    p = pmul(padd(x, y), padd(x, {(0, 0): 1}))
    q = pmul(psub(x, y), padd(y, {(0, 0): 3}))
    assert bivariate_is_constant(gcd_bivariate(p, q))


def test_bivariate_gcd_univariate_inputs():
    # both polynomials free of y: reduces to univariate gcd
    p = {(2, 0): 1, (1, 0): 2, (0, 0): 1}  # (x+1)^2
    q = {(1, 0): 1, (0, 0): 1}             # x + 1
    g = gcd_bivariate(p, q)
    assert set(g) == {(1, 0), (0, 0)}
    # one univariate in x, one genuinely bivariate and coprime to it
    r = {(0, 1): 1, (0, 0): 1}             # y + 1
    assert bivariate_is_constant(gcd_bivariate(q, r))


def test_monomial():
    assert monomial((1, 2), 5) == {(1, 2): 5}
    assert monomial((1, 2), 0) == {}
