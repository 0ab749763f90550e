import random
from fractions import Fraction
from itertools import product

from hypothesis import given, settings, strategies as st

from border3._linalg import _norm, rank
from border3.equations import (
    LinePattern, TernaryCubic, _jacobian, cubic_line_pattern, slice_det_cubic,
    strassen_equations, strassen_jacobian_rank,
)
from border3.normal_forms import ORBIT_IDS, orbit_representative
from border3.polytools import gcd_bivariate, padd, pclean, pmul
from border3.tensor import (
    Tensor, make_tensor, permute_modes, random_gl_tuple, random_tensor,
    random_unimodular, rank_one, apply_gl, slice_matrices, zero_tensor,
)


def _central_difference_jacobian(t):
    """Five-point central differences of the quartics, one column per entry.

    (8 (f(t+e) - f(t-e)) - (f(t+2e) - f(t-2e))) / 12 is exact for polynomials
    of degree at most four, so this is the Jacobian itself.
    """
    cols = []
    for v in range(27):
        def f(h):
            entries = list(t.entries)
            entries[v] += h
            return strassen_equations(Tensor(t.dims, tuple(entries)))
        cols.append([Fraction(8 * (a - b) - (c - d), 12)
                     for a, b, c, d in zip(f(1), f(-1), f(2), f(-2))])
    return [list(row) for row in zip(*cols)]


_scalars = st.one_of(
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7)))


@st.composite
def _quartic_points(draw):
    """Integer or rational 3x3x3 tensors, or GL-moved orbit representatives."""
    # rational inputs cost about ten integer ones, so they come less often
    which = draw(st.sampled_from(
        ("int", "int", "int", "fraction", "orbit", "orbit", "orbit")))
    if which == "int":
        entries = draw(st.lists(st.integers(-9, 9), min_size=27, max_size=27))
        return make_tensor((3, 3, 3), entries)
    if which == "fraction":
        entries = draw(st.lists(_scalars, min_size=27, max_size=27))
        return make_tensor((3, 3, 3), entries)
    rep = orbit_representative(draw(st.sampled_from(ORBIT_IDS)))
    g = random_gl_tuple((3, 3, 3), random.Random(draw(st.integers(0, 10 ** 6))))
    return apply_gl(rep, g)


# ---- the quartics evaluated term by term, as before the product form ------

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


def _reference_block(x, y, z):
    return _commutator(_cofactor_matrix(x), y, z)


def _reference_strassen_equations(t):
    vals = []
    for mode in range(3):
        vals.extend(_reference_block(*slice_matrices(t, mode)))
    return vals


def _reference_jacobian(t):
    """The Jacobian by block polarization: each block evaluated term by term
    in full at X + E, at Y = E and at Z = E for every unit matrix E."""
    jac = [[0] * 27 for _ in range(27)]
    for mode in range(3):
        x, y, z = slice_matrices(t, mode)
        base = _reference_block(x, y, z)
        others = [m for m in range(3) if m != mode]
        for r in range(3):
            for c in range(3):
                e = [[int((i, j) == (r, c)) for j in range(3)] for i in range(3)]
                xe = [list(row) for row in x]
                xe[r][c] += 1
                cols = ([_norm(v - b) for v, b in zip(_reference_block(xe, y, z), base)],
                        _reference_block(x, e, z), _reference_block(x, y, e))
                for a, col in enumerate(cols):
                    idx = [0, 0, 0]
                    idx[mode], idx[others[0]], idx[others[1]] = a, r, c
                    v = 9 * idx[0] + 3 * idx[1] + idx[2]
                    for s, val in enumerate(col):
                        jac[9 * mode + s][v] = val
    return jac


@st.composite
def _jacobian_points(draw):
    """_quartic_points, and half of the time with one slice made singular:
    along a drawn mode, a drawn slice becomes an outer product, or zero."""
    t = draw(_quartic_points())
    if draw(st.booleans()):
        mode, k = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        u = draw(st.lists(_scalars, min_size=3, max_size=3))
        w = draw(st.lists(_scalars, min_size=3, max_size=3))
        entries = list(t.entries)
        for i, j, l in product(range(3), repeat=3):
            if (i, j, l)[mode] == k:
                a, b = [x for m, x in enumerate((i, j, l)) if m != mode]
                entries[9 * i + 3 * j + l] = _norm(u[a] * w[b])
        t = make_tensor((3, 3, 3), entries)
    return t


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_jacobian_points())
def test_quartics_match_term_by_term_evaluation(t):
    """The product-form blocks equal the term-by-term sums, in value and in
    type (a value is an int exactly when it is integral), also where a
    singular first slice leaves zero rows in its adjugate."""
    got = strassen_equations(t)
    want = _reference_strassen_equations(t)
    assert [(type(v), v) for v in got] == [(type(v), v) for v in want]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_jacobian_points())
def test_jacobian_matches_block_polarization(t):
    """The closed-form Jacobian equals the block polarization entry by entry,
    in value and in type: an entry is an int exactly when it is integral."""
    want = _reference_jacobian(t)
    got = _jacobian(t)
    assert [[(type(x), x) for x in row] for row in got] == \
        [[(type(x), x) for x in row] for row in want]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_quartic_points())
def test_jacobian_matches_central_difference(t):
    reference = _central_difference_jacobian(t)
    assert _jacobian(t) == reference
    assert strassen_jacobian_rank(t) == rank(reference)


def test_zero_first_slice_kills_first_block():
    rng = random.Random(10)
    mats = [[[0] * 3 for _ in range(3)]] + [
        [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)] for _ in range(2)]
    t = make_tensor((3, 3, 3), [x for m in mats for row in m for x in row])
    vals = strassen_equations(t)
    assert vals[:9] == [0] * 9


def test_equations_vanish_on_rank_three_sums():
    rng = random.Random(11)
    for _ in range(20):
        t = zero_tensor((3, 3, 3))
        for _ in range(3):
            t = t + rank_one([[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)])
        assert strassen_equations(t) == [0] * 27


def test_equations_vanish_on_orbit_representatives():
    for k in range(34, 40):
        assert strassen_equations(orbit_representative(k)) == [0] * 27


def test_equations_nonzero_generically():
    rng = random.Random(12)
    hits = 0
    for _ in range(20):
        t = random_tensor((3, 3, 3), rng, -9, 9)
        if any(strassen_equations(t)):
            hits += 1
    assert hits == 20


def test_jacobian_rank_values():
    assert strassen_jacobian_rank(orbit_representative(35)) == 6
    assert strassen_jacobian_rank(orbit_representative(39)) == 6
    assert strassen_jacobian_rank(zero_tensor((3, 3, 3))) == 0


# expected det-slice patterns per orbit, modes 0, 1, 2
_PATTERNS = {
    34: ("identically_zero", "triple_line", "triple_line"),
    35: ("triple_line", "identically_zero", "triple_line"),
    36: ("triple_line", "triple_line", "identically_zero"),
    37: ("triple_line",) * 3,
    38: ("double_line_plus_line",) * 3,
    39: ("squarefree",) * 3,
}


def test_slice_det_patterns_of_orbits():
    for k, pats in _PATTERNS.items():
        t = orbit_representative(k)
        got = tuple(cubic_line_pattern(slice_det_cubic(t, m)).value for m in range(3))
        assert got == pats, (k, got)


def test_slice_det_cubic_values():
    t = orbit_representative(39)
    c = slice_det_cubic(t, 0)
    assert c.as_dict() == {(1, 1, 1): 1}  # det diag(s,t,u) = s t u
    assert c.evaluate(2, 3, 5) == 30
    t38 = orbit_representative(38)
    c38 = slice_det_cubic(t38, 0)
    assert c38.as_dict() == {(2, 0, 1): -1}  # det [[t,s,0],[s,0,0],[0,0,u]] = -s^2 u


# ---- slice cubics against the expansion by products of linear forms -------

def _reference_slice_det_cubic(t, mode):
    """det(s*S0 + t*S1 + u*S2) by the Leibniz formula, each term a product
    of three linear forms in (s, t, u) expanded through dicts."""
    s0, s1, s2 = slice_matrices(t, mode)
    lin = [[(s0[r][c], s1[r][c], s2[r][c]) for c in range(3)] for r in range(3)]
    out = {}
    for perm, sign in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                       ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1)):
        prod = {(0, 0, 0): sign}
        for r in range(3):
            f = lin[r][perm[r]]
            nxt = {}
            for e, c in prod.items():
                for v in range(3):
                    if f[v]:
                        e2 = list(e)
                        e2[v] += 1
                        e2 = tuple(e2)
                        nxt[e2] = nxt.get(e2, 0) + c * f[v]
            prod = nxt
        for e, c in prod.items():
            out[e] = out.get(e, 0) + c
    return TernaryCubic.from_dict({e: _norm(c) for e, c in out.items() if c})


@st.composite
def _slice_tensors(draw):
    """Integer or rational 3x3x3 tensors: dense, sparse, or with three
    slices of ranks 0-3 (sums of outer products) along a random mode."""
    scalars = draw(st.sampled_from((st.integers(-9, 9), _scalars)))
    kind = draw(st.sampled_from(("dense", "sparse", "low_rank")))
    if kind == "low_rank":
        entries = [0] * 27
        for a in range(3):
            for _ in range(draw(st.integers(0, 3))):
                x = draw(st.lists(scalars, min_size=3, max_size=3))
                y = draw(st.lists(scalars, min_size=3, max_size=3))
                for r in range(3):
                    for c in range(3):
                        entries[9 * a + 3 * r + c] += x[r] * y[c]
        t = make_tensor((3, 3, 3), [_norm(v) for v in entries])
        return permute_modes(t, draw(st.permutations(range(3))))
    entries = draw(st.lists(scalars, min_size=27, max_size=27))
    if kind == "sparse":
        keep = draw(st.lists(st.booleans(), min_size=27, max_size=27))
        entries = [v if k else 0 for v, k in zip(entries, keep)]
    return make_tensor((3, 3, 3), entries)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_slice_tensors())
def test_slice_det_cubic_matches_linear_form_expansion(t):
    for mode in range(3):
        got = slice_det_cubic(t, mode)
        want = _reference_slice_det_cubic(t, mode)
        assert got == want
        assert [type(c) for _, c in got.coeffs] == [type(c) for _, c in want.coeffs]


def test_patterns_are_basis_change_invariant():
    rng = random.Random(13)
    for k in (34, 37, 38, 39):
        t = orbit_representative(k)
        base = sorted(cubic_line_pattern(slice_det_cubic(t, m)).value for m in range(3))
        for _ in range(5):
            g = random_gl_tuple((3, 3, 3), rng)
            s = apply_gl(t, g)
            got = sorted(cubic_line_pattern(slice_det_cubic(s, m)).value for m in range(3))
            assert got == base


def test_cubic_line_pattern_directly():
    mk = TernaryCubic.from_dict
    assert cubic_line_pattern(mk({})) is LinePattern.IDENTICALLY_ZERO
    assert cubic_line_pattern(mk({(3, 0, 0): 2})) is LinePattern.TRIPLE_LINE
    # (s+t)^3
    assert cubic_line_pattern(mk({(3, 0, 0): 1, (2, 1, 0): 3, (1, 2, 0): 3, (0, 3, 0): 1})) \
        is LinePattern.TRIPLE_LINE
    assert cubic_line_pattern(mk({(1, 1, 1): 1})) is LinePattern.SQUAREFREE
    assert cubic_line_pattern(mk({(2, 0, 1): -1})) is LinePattern.DOUBLE_LINE_PLUS_LINE
    # s * t * (s + t): squarefree but fully inside two variables
    assert cubic_line_pattern(mk({(2, 1, 0): 1, (1, 2, 0): 1})) is LinePattern.SQUAREFREE
    # s * (s+t) * (s+t) = s^3 + 2 s^2 t + s t^2
    assert cubic_line_pattern(mk({(3, 0, 0): 1, (2, 1, 0): 2, (1, 2, 0): 1})) \
        is LinePattern.DOUBLE_LINE_PLUS_LINE
    # smooth cubic (Fermat): squarefree though irreducible
    assert cubic_line_pattern(mk({(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})) \
        is LinePattern.SQUAREFREE


# ---- line patterns against the dehomogenise-and-gcd decision ----------------

def _bivariate_is_constant(p):
    p = pclean(p)
    return not p or set(p) == {(0, 0)}


def _reference_line_pattern(f):
    """Zero; a cube when the three partials span one line; otherwise
    squarefree exactly when, with the first variable v that occurs set to 1,
    the cubic and its two partials have a constant gcd over Q.  Setting
    x_v = 1 loses only the line x_v = 0, which repeats when x_v^2 divides f.
    """
    if not f:
        return LinePattern.IDENTICALLY_ZERO
    partials = [{tuple(x - (w == v) for w, x in enumerate(e)): e[v] * c
                 for e, c in f.items() if e[v]} for v in range(3)]
    monos = sorted({e for p in partials for e in p})
    if rank([[p.get(e, 0) for e in monos] for p in partials]) == 1:
        return LinePattern.TRIPLE_LINE
    v = next(v for v in range(3) if any(e[v] for e in f))
    if min(e[v] for e in f) >= 2:
        return LinePattern.DOUBLE_LINE_PLUS_LINE
    keep = [w for w in range(3) if w != v]
    g = {}
    for e, c in f.items():
        key = (e[keep[0]], e[keep[1]])
        g[key] = g.get(key, 0) + c
    g = pclean(g)
    h = g
    for w in (0, 1):
        h = gcd_bivariate(h, {(e[0] - (w == 0), e[1] - (w == 1)): e[w] * c
                              for e, c in g.items() if e[w]})
    if _bivariate_is_constant(h):
        return LinePattern.SQUAREFREE
    return LinePattern.DOUBLE_LINE_PLUS_LINE


def _linear(v):
    return pclean({tuple(int(i == j) for j in range(3)): x for i, x in enumerate(v)})


def _product(polys):
    out = {(0, 0, 0): 1}
    for p in polys:
        out = pmul(out, p)
    return out


def _moved(f, m):
    """f(m x): each variable x_i becomes the linear form of row i of m."""
    rows = [_linear(row) for row in m]
    out = {}
    for e, c in f.items():
        out = padd(out, _product([{(0, 0, 0): c}] + [rows[i] for i in range(3)
                                                     for _ in range(e[i])]))
    return out


def _distinct_lines(forms):
    """Number of pairwise non-proportional nonzero vectors among forms."""
    reps = []
    for v in forms:
        if not any(all(v[i] * r[j] == v[j] * r[i] for i in range(3) for j in range(3))
                   for r in reps):
            reps.append(v)
    return len(reps)


_forms = st.lists(st.integers(-4, 4), min_size=3, max_size=3).filter(any)
_TERNARY_QUADRICS = [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
_TERNARY_CUBICS = [(i, j, 3 - i - j) for i in range(4) for j in range(4 - i)]


@st.composite
def _cubics(draw):
    """(cubic as an exponent dict, number of distinct lines when the cubic
    was built as a product of three linear forms, else None)."""
    kind = draw(st.sampled_from(("general", "repeated", "proportional", "concurrent",
                                 "cube", "conic_line", "binary", "dense")))
    lines = None
    if kind in ("general", "repeated", "proportional", "concurrent", "cube"):
        a, b = draw(_forms), draw(_forms)
        if kind == "general":
            forms = [a, b, draw(_forms)]
        elif kind == "repeated":
            forms = [a, a, b]
        elif kind == "proportional":
            k = draw(st.sampled_from((-3, -2, 2, 3)))
            forms = [a, [k * x for x in a], b]
        elif kind == "concurrent":
            # three lines through the point where a and b vanish
            forms = []
            for _ in range(3):
                p, q = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
                forms.append([p * x + q * y for x, y in zip(a, b)] if p or q else a)
            forms = [v if any(v) else a for v in forms]
        else:
            forms = [a, a, a]
        f = _product(_linear(v) for v in forms)
        lines = _distinct_lines(forms)
    elif kind == "conic_line":
        quad = pclean(dict(zip(_TERNARY_QUADRICS, draw(
            st.lists(st.integers(-3, 3), min_size=6, max_size=6)))))
        f = pmul(quad, _linear(draw(_forms)))
    elif kind == "binary":
        a, b = _linear(draw(_forms)), _linear(draw(_forms))
        f = {}
        for k, c in enumerate(draw(st.lists(st.integers(-3, 3), min_size=4, max_size=4))):
            f = padd(f, _product([{(0, 0, 0): c}] + [a] * (3 - k) + [b] * k))
    else:
        f = pclean(dict(zip(_TERNARY_CUBICS, draw(
            st.lists(st.integers(-5, 5), min_size=10, max_size=10)))))
    if draw(st.booleans()):
        f = _moved(f, random_unimodular(3, random.Random(draw(st.integers(0, 10 ** 6)))))
    scale = draw(st.sampled_from((1, 1, -1, Fraction(3, 7), Fraction(-5, 2))))
    return {e: scale * c for e, c in f.items()}, lines


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_cubics())
def test_cubic_line_pattern_matches_gcd_reference(case):
    f, lines = case
    got = cubic_line_pattern(TernaryCubic.from_dict(f))
    assert got is _reference_line_pattern(f)
    if lines is not None:
        assert got is (LinePattern.TRIPLE_LINE, LinePattern.DOUBLE_LINE_PLUS_LINE,
                       LinePattern.SQUAREFREE)[lines - 1]
