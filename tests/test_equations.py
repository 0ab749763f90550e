import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from border3._linalg import rank
from border3.equations import (
    LinePattern, TernaryCubic, _jacobian, cubic_line_pattern, slice_det_cubic,
    strassen_equations, strassen_jacobian_rank, subspace_membership,
)
from border3.normal_forms import ORBIT_IDS, orbit_representative
from border3.tensor import (
    Tensor, make_tensor, random_gl_tuple, random_tensor, rank_one, apply_gl,
    zero_tensor,
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


def test_subspace_membership():
    t = orbit_representative(39)
    assert subspace_membership(t, (3, 3, 3))
    assert not subspace_membership(t, (2, 3, 3))
    w = make_tensor((2, 2, 2), [0, 1, 1, 0, 1, 0, 0, 0])
    assert subspace_membership(w, (2, 2, 2))
