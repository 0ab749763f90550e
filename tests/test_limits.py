"""Tests for series curves, limit planes, and curve families."""

import io
import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from fractions import Fraction
from itertools import combinations, product, zip_longest
from operator import add

from border3 import limits
from border3.classifier import classify
from border3.cli import main
from border3.limits import (
    CurveFamily,
    LimitConfig,
    LimitPlaneResult,
    PrecisionError,
    ScalarSeries,
    VectorSeries,
    _ambient_polynomial,
    affine_tangent_frame,
    chart_limit_plane,
    embed_curve,
    fubini_series,
    fundamental_form,
    limit_analysis,
    limit_config_curves,
    limit_config_plane,
    limit_plane,
    limit_type,
    line_tangent_span,
    parameterize,
    prolongation_check,
    secant_curve_family,
    second_fundamental_vanishes,
    second_order_offset,
)
from border3.normal_forms import (
    generic_det,
    grassmann_model,
    lagrangian_model,
    segre_model,
    segre_tensor_from_ambient,
    spinor_model,
)
from border3._linalg import Echelon, _norm, rank, rref
from border3.equations import strassen_equations


def rand_curve(rng, dim, deg, order=1):
    vecs = [[0] * dim for _ in range(order)]
    vecs += [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(deg)]
    if not any(vecs[order]):
        vecs[order][rng.randrange(dim)] = 1
    return vecs


def test_scalar_series_records():
    s = ScalarSeries((1, 2), 4)
    assert s.coeffs == (1, 2, 0, 0)
    assert ScalarSeries((1, 2, 3, 4), 2).coeffs == (1, 2)
    assert ScalarSeries((Fraction(4, 2), Fraction(1, 2))).coeffs == (2, Fraction(1, 2))
    assert type(ScalarSeries((Fraction(4, 2),)).coeffs[0]) is int
    t = ScalarSeries((0, 1), 4)
    assert t.order() == 1
    assert ScalarSeries.constant(0, 3).order() is None
    assert ScalarSeries.constant(0, 3).is_zero() and not t.is_zero()
    assert ScalarSeries.constant(5, 2) == 5 and s != 1
    assert hash(ScalarSeries((1, 2, 0), 3)) == hash(ScalarSeries((1, 2), 3))
    assert s.coeff(1) == 2
    with pytest.raises(PrecisionError):
        s.coeff(4)
    with pytest.raises(ValueError):
        ScalarSeries((), 0)
    with pytest.raises(AttributeError):
        s.prec = 5


def test_vector_series_basics():
    vecs = [(1, 0), (0, 2), (3, 0)]
    vs = VectorSeries.from_polynomial(vecs, 5)
    assert vs.polynomial_coefficients() == [(1, 0), (0, 2), (3, 0)]
    assert vs.coeff_vector(1) == (0, 2)
    assert vs.order() == 0
    assert len(vs) == 2 and list(vs) == [vs[0], vs[1]]
    assert vs[0].coeffs == (1, 0, 3, 0, 0)
    shifted = VectorSeries.from_polynomial([(0, 0), (0, 0), (1, 1)], 5)
    assert shifted.order() == 2
    assert VectorSeries.from_polynomial([(0, 0)], 3).order() is None
    assert VectorSeries.from_polynomial(vecs, 3).prec == 3
    assert VectorSeries.from_polynomial(vecs, 2).polynomial_coefficients() == \
        [(1, 0), (0, 2)]
    assert type(VectorSeries.from_polynomial([(Fraction(6, 3),)], 1)
                .coeff_vector(0)[0]) is int
    with pytest.raises(ValueError, match="at least one coefficient vector"):
        VectorSeries.from_polynomial([], 3)
    with pytest.raises(ValueError, match="must share a length"):
        VectorSeries.from_polynomial([(1, 0), (1,)], 3)
    with pytest.raises(ValueError, match="share a truncation order"):
        VectorSeries([ScalarSeries((1,), 2), ScalarSeries((1,), 3)])


def test_embed_curve_matches_pointwise_evaluation():
    rng = random.Random(202)
    models = [segre_model((3, 3, 3)), grassmann_model(2, 5), lagrangian_model(3)]
    for model in models:
        for _ in range(5):
            data = rand_curve(rng, model.tangent_dim, deg=2, order=0)
            vs = VectorSeries.from_polynomial(data, 8)
            amb = embed_curve(model, vs)
            for tau in (1, 2, -3):
                point = [
                    sum(v[i] * tau ** k for k, v in enumerate(data))
                    for i in range(model.tangent_dim)
                ]
                direct = model.phi(point)
                from_series = [
                    sum(c * tau ** k for k, c in enumerate(p.coeffs))
                    for p in amb.parts
                ]
                assert [x - y for x, y in zip(direct, from_series)] == \
                    [0] * len(direct)


def test_affine_tangent_frame_and_second_order():
    model = segre_model((3, 3, 3))
    origin = [0] * 6
    frame = affine_tangent_frame(model, origin)
    assert len(frame) == 7 and rank(frame) == 7
    u = [1, 2, 0, 1, 0, 0]
    offset = second_order_offset(model, origin, u)
    diag = model.fundamental_form_diag(2, u)
    expected = [0] * model.ambient_dim
    for slot, val in diag.items():
        expected[slot] = val
    assert offset == expected
    # single-factor directions stay on a line of the variety
    assert second_fundamental_vanishes(model, origin, [1, 2, 0, 0, 0, 0])
    assert second_fundamental_vanishes(model, origin, [0, 0, 3, 1, 0, 0])
    assert not second_fundamental_vanishes(model, origin, u)
    # away from the origin the same dichotomy holds
    c = [1, 0, 2, 1, 0, 1]
    assert second_fundamental_vanishes(model, c, [1, 1, 0, 0, 0, 0])
    assert not second_fundamental_vanishes(model, c, [1, 0, 1, 0, 0, 0])


def test_fundamental_form_polarisation_properties():
    rng = random.Random(203)
    cases = [(segre_model((3, 3, 3)), 2), (segre_model((3, 3, 3)), 3),
             (grassmann_model(3, 6), 2), (spinor_model(6), 2)]
    for model, s in cases:
        n = model.tangent_dim
        for _ in range(5):
            vecs = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(s)]
            base = fundamental_form(model, s, vecs)
            # symmetry under swapping the first two arguments
            if s >= 2:
                swapped = fundamental_form(
                    model, s, [vecs[1], vecs[0]] + vecs[2:])
                assert swapped == base
            # additivity in the first argument
            w = [rng.randint(-3, 3) for _ in range(n)]
            second = fundamental_form(model, s, [w] + vecs[1:])
            summed = fundamental_form(
                model, s, [[a + b for a, b in zip(vecs[0], w)]] + vecs[1:])
            keys = set(base) | set(second) | set(summed)
            for k in keys:
                assert summed.get(k, 0) == base.get(k, 0) + second.get(k, 0)
            # the diagonal reproduces the degree-s coefficients
            v = vecs[0]
            diag = fundamental_form(model, s, [v] * s)
            assert diag == {
                k: val for k, val in model.fundamental_form_diag(s, v).items()
                if val
            }


def test_taylor_consistency_on_random_curves():
    """Along a curve vanishing to order m, block s of the chart map vanishes
    to order >= s*m, with the diagonal degree-s form on the curve's leading
    vector as its t^(s*m) coefficient."""
    rng = random.Random(204)
    models = [segre_model((3, 3, 3)), grassmann_model(3, 6), spinor_model(6),
              lagrangian_model(4)]
    for model in models:
        for order in (1, 2):
            data = rand_curve(rng, model.tangent_dim, deg=3, order=order)
            curve = VectorSeries.from_polynomial(data, 10)
            amb = embed_curve(model, curve)
            lead = list(curve.coeff_vector(order))
            for s in range(1, model.base_degree + 1):
                diag = model.fundamental_form_diag(s, lead)
                for i in model.slot_block(s):
                    o = amb[i].order()
                    assert o is None or o >= s * order
                    assert amb[i].coeff(s * order) == diag.get(i, 0)


def test_curve_families_have_expected_orders_and_tags():
    model = segre_model((3, 3, 3))
    rng = random.Random(206)
    expected = {"i": ((0, 0, 0), 0), "ii": ((0, 0, 1), 1), "iii": ((0, 1, 2), 3)}
    for tag, (orders, drop) in expected.items():
        for _ in range(3):
            fam = secant_curve_family(tag, model, rng)
            assert isinstance(fam, CurveFamily) and fam.tag == tag
            ana = limit_analysis(model, fam.curves)
            assert ana.tag == tag
            assert ana.plane.orders == orders
            assert ana.plane.leading_order == drop
            assert ana.distinguished_factor is None
    for factor in (1, 2, 3):
        for _ in range(3):
            fam = secant_curve_family("iv", model, rng, factor=factor)
            assert fam.factor == factor
            ana = limit_analysis(model, fam.curves)
            assert ana.tag == "iv"
            assert ana.support_count in (1, 2)
            assert ana.distinguished_factor == factor
            assert ana.plane.orders == (0, 0, 2)
            assert ana.plane.leading_order == 2


def _reference_iv_frames_independent(model, f, eta, v, w, sigma):
    """The type-iv frame test of secant_curve_family: mode f sees {eta,
    v_f}, and mode g != f the Fraction vectors {v_g + w_g / sigma, w_g}."""
    for m, sl in enumerate(model._block_slices):
        if m == f:
            mat = [list(eta), list(v[sl])]
        else:
            wg = list(w[sl])
            vg = [x + Fraction(y, sigma) for x, y in zip(v[sl], wg)]
            mat = [vg, wg]
        if rank(mat) != 2:
            return False
    return True


@st.composite
def _iv_frames(draw):
    """(model, f, eta, v, w, sigma) of a type-iv draw, each v block free or
    a multiple of the block it is tested against, so dependent frames are
    common."""
    model = segre_model(draw(st.sampled_from(((3, 3, 3), (3, 4, 3), (4, 3, 5)))))
    f = draw(st.integers(0, 2))
    sizes = [d - 1 for d in model.dims]

    def block(size):
        return tuple(draw(st.lists(st.integers(-3, 3), min_size=size,
                                   max_size=size).filter(any)))

    eta = block(sizes[f])
    wblocks = [None if m == f else block(sizes[m]) for m in range(3)]
    vblocks = []
    for m in range(3):
        against = eta if m == f else wblocks[m]
        if draw(st.booleans()):
            vblocks.append(block(sizes[m]))
        else:
            c = draw(st.integers(-2, 2))
            vblocks.append(tuple(c * x for x in against))
    v = limits._assemble(model, vblocks)
    w = limits._assemble(model, wblocks)
    sigma = draw(st.sampled_from((1, 2, -1, -2, 3)))
    return model, f, eta, v, w, sigma


def _reference_iv_family(model, rng, factor):
    """secant_curve_family("iv", model, rng, factor), its frames tested by
    _reference_iv_frames_independent."""
    f = factor - 1
    sizes = [d - 1 for d in model.dims]
    zero = (0,) * model.tangent_dim
    block, assemble = limits._rand_block, limits._assemble
    while True:
        eta = block(rng, sizes[f])
        v = assemble(model, [block(rng, s) for s in sizes])
        w = assemble(model, [None if m == f else block(rng, sizes[m])
                             for m in range(3)])
        sigma = rng.choice([1, 2, -1, -2, 3])
        if _reference_iv_frames_independent(model, f, eta, v, w, sigma):
            etahat = assemble(model, [eta if m == f else None for m in range(3)])
            curves = ((zero, etahat), (zero, zero, v),
                      (tuple(sigma * x for x in etahat), w))
            return CurveFamily("iv", curves, factor=factor)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(((3, 3, 3), (3, 4, 3), (4, 3, 5))), st.integers(1, 3),
       st.integers(0, 2 ** 32 - 1))
def test_type_iv_family_draws_as_the_fraction_ranks_did(dims, factor, seed):
    model = segre_model(dims)
    rng, ref = random.Random(seed), random.Random(seed)
    assert secant_curve_family("iv", model, rng, factor) == \
        _reference_iv_family(model, ref, factor)
    assert rng.getstate() == ref.getstate()  # the same draws, redraws too


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_iv_frames())
def test_type_iv_frame_test_matches_fraction_ranks(case):
    # rank [v_g + w_g / sigma, w_g] = rank [v_g, w_g], so the integer frame
    # test secant_curve_family reads decides as the Fraction ranks did
    model, f, eta, v, w, sigma = case
    etahat = limits._assemble(model, [eta if m == f else None for m in range(3)])
    got = limits._mode_frames_independent(
        model, [("dir", tuple(map(add, etahat, w))), ("dir", v)])
    assert got == _reference_iv_frames_independent(model, f, eta, v, w, sigma)


def test_limit_plane_samples_classify_to_expected_orbits():
    model = segre_model((3, 3, 3))
    rng = random.Random(207)
    plan = [("i", None, 39), ("ii", None, 38), ("iii", None, 37),
            ("iv", 1, 34), ("iv", 2, 35), ("iv", 3, 36)]
    for tag, factor, orbit in plan:
        for _ in range(3):
            fam = secant_curve_family(tag, model, rng, factor=factor or 1)
            plane = chart_limit_plane(model, fam.curves)
            seen = set()
            for _ in range(6):
                coeffs = [rng.randint(1, 9) for _ in range(3)]
                point = plane.sample(coeffs)
                rep = classify(segre_tensor_from_ambient(model, point))
                # every point of a limit plane has border rank class <= 3
                assert rep.border_rank_class in (0, 1, 2, 3)
                seen.add((rep.orbit_id, rep.distinguished_factor))
            assert (orbit, factor) in seen, (tag, factor, seen)


def _compose(data, inner):
    """Coefficient vectors of the curve sum_k t^k data[k] at t -> inner(t)."""
    out = [[0] * len(data[0])]
    power = [1]
    for vec in data:
        for k, c in enumerate(power):
            if k == len(out):
                out.append([0] * len(vec))
            out[k] = [a + c * x for a, x in zip(out[k], vec)]
        power = _pmul(power, inner)
    return out


def test_limit_plane_reparameterization_invariance():
    model = segre_model((3, 3, 3))
    rng = random.Random(208)
    assert _compose([(1, 0), (0, 0), (3, 1)], [0, 1, 1]) == \
        [[1, 0], [0, 0], [3, 1], [6, 2], [3, 1]]
    for tag, factor in [("ii", 1), ("iii", 1), ("iv", 2)]:
        fam = secant_curve_family(tag, model, rng, factor=factor)
        base = chart_limit_plane(model, fam.curves)
        inner = [0, 1, rng.randint(-2, 2), 1]
        reparam = [_compose(data, inner) for data in fam.curves]
        assert chart_limit_plane(model, reparam).plane == base.plane
        scaled = [_compose(data, [0, 3]) for data in fam.curves]
        assert chart_limit_plane(model, scaled).plane == base.plane


def test_limit_analysis_degenerate_and_osculating_cases():
    model = segre_model((3, 3, 3))
    zero = (0,) * 6
    # two tangent directions at one point: the plane stays tangent
    u = (1, 0, 2, 0, 0, 0)
    v = (0, 0, 1, 0, 1, 1)
    ana = limit_analysis(model, [(zero,), (zero, u), (zero, v)])
    assert ana.tag == "degenerate"
    assert ana.support_count == 1
    for coeffs in [(1, 2, 3), (5, 1, 4)]:
        point = ana.plane.sample(coeffs)
        rep = classify(segre_tensor_from_ambient(model, point))
        assert rep.border_rank_class <= 2
    # three points colliding along one curved arc: osculating plane; the
    # samples live in a (2, 2, 2) core, where border rank never exceeds 2
    w = (1, 1, 1, 0, 2, 0)
    w2 = tuple(2 * x for x in w)
    ana = limit_analysis(model, [(zero,), (zero, w), (zero, w2)])
    assert ana.tag == "iii"
    assert ana.plane.orders == (0, 1, 2)
    rep = classify(segre_tensor_from_ambient(
        model, ana.plane.sample((3, 1, 2))))
    assert rep.border_rank_class == 2
    assert rep.core_dims == (2, 2, 2)


def test_limit_plane_error_and_degenerate_paths():
    model = segre_model((3, 3, 3))
    zero = (0,) * 6
    u = (1, 0, 0, 1, 0, 1)
    with pytest.raises(ValueError):
        chart_limit_plane(model, [(zero, u), ((1,) + (0,) * 5,)])
    # identical curves: the wedge is certifiably zero, not an error
    res = chart_limit_plane(model, [(zero, u), (zero, u), (zero, u)])
    assert res.degenerate and res.plane == () and res.leading_order is None
    with pytest.raises(ValueError):
        res.sample((1, 2, 3))
    ana = limit_analysis(model, [(zero, u), (zero, u), (zero, u)])
    assert ana.tag == "degenerate"
    # identical curves of degree 30: the wedge is identically zero
    tall = [[1, 2], [0, 1]] + [[3, 5]] * 29
    res = limit_plane(tall, tall, tall)
    assert res.degenerate and res.orders == () and res.leading_order is None
    # a wedge degree bound over the cap is refused, never truncated
    with pytest.raises(ValueError, match="capped at"):
        limit_plane([[1, 2]] * 1000, tall, tall)
    with pytest.raises(ValueError, match="capped at"):
        chart_limit_plane(model, [(zero,) + (u,) * 400, (zero, u), (u,)])
    # ambient dimensions above the wedge guard are rejected
    wide = [[1] * 65]
    with pytest.raises(ValueError):
        limit_plane(wide, wide, wide)
    with pytest.raises(ValueError):
        secant_curve_family("nope")
    with pytest.raises(ValueError):
        secant_curve_family("iv", factor=4)
    with pytest.raises(ValueError):
        secant_curve_family("i", grassmann_model(3, 6))


def test_line_tangent_span_matches_formula():
    for dims, expected in [((2, 2, 2), (6, 6, 6)), ((3, 3, 3), (11, 11, 11)),
                           ((3, 4, 5), (17, 16, 15))]:
        for factor in (1, 2, 3):
            exact = line_tangent_span(dims, factor)
            assert exact == 2 * sum(d - 1 for d in dims) + 2 - dims[factor - 1]
            assert exact == expected[factor - 1]
    with pytest.raises(ValueError, match="factor out of range"):
        line_tangent_span((3, 3, 3), 4)
    # a factor of dimension 1 has no line, and the next factor may not stand in
    for dims, factor in (((3, 1, 3), 2), ((3, 3, 1), 3)):
        with pytest.raises(ValueError, match="dimension 1 has no line"):
            line_tangent_span(dims, factor)


def test_parameterize_matches_graded_blocks():
    model = segre_model((3, 3, 3))
    const = parameterize(model, VectorSeries.from_polynomial([(0,) * 6], 2))
    assert const.polynomial_coefficients() == [(1,) + (0,) * 26]
    # a tangent line inside one factor has no normal component
    line = parameterize(
        model, VectorSeries.from_polynomial([(0,) * 6, (2, -1, 0, 0, 0, 0)], 5))
    for s in range(2, model.base_degree + 1):
        for i in model.slot_block(s):
            assert line[i].is_zero()
    gm = grassmann_model(3, 6)
    rng = random.Random(209)
    m = [rng.randint(-3, 3) for _ in range(gm.tangent_dim)]
    curve = parameterize(
        gm, VectorSeries.from_polynomial([[0] * gm.tangent_dim, m], 5))
    second = gm.fundamental_form_diag(2, m)
    for i in gm.slot_block(2):
        assert curve[i].coeff(2) == second.get(i, 0)
    with pytest.raises(ValueError):
        parameterize(model, VectorSeries.from_polynomial([(0,) * 5], 2))


def test_fubini_form_values_and_errors():
    """The fundamental (Fubini) forms: polarisation, a line direction, the
    degrees past the top block, and malformed arguments."""
    model = segre_model((3, 3, 3))
    rng = random.Random(210)
    for _ in range(5):
        v = [rng.randint(-3, 3) for _ in range(6)]
        w = [rng.randint(-3, 3) for _ in range(6)]
        form = fundamental_form(model, 2, [v, w])
        block = model.slot_block(2)
        assert set(form) <= set(block)
        # polarisation: half the difference of diagonal values
        dvw = model.fundamental_form_diag(
            2, [a + b for a, b in zip(v, w)])
        dv = model.fundamental_form_diag(2, v)
        dw = model.fundamental_form_diag(2, w)
        for i in block:
            half = Fraction(dvw.get(i, 0) - dv.get(i, 0) - dw.get(i, 0), 2)
            assert form.get(i, 0) == half
    gm = grassmann_model(3, 6)
    eps = [0] * gm.tangent_dim
    eps[0] = 1
    assert fundamental_form(gm, 2, [eps, eps]) == {}
    assert fundamental_form(model, 5, [[1] * 6] * 5) == {}
    assert model.fundamental_form_diag(5, [1] * 6) == {}
    # past the top block too, a vector of the wrong length is refused
    with pytest.raises(ValueError):
        fundamental_form(model, 4, [[1]] * 4)
    with pytest.raises(ValueError):
        model.fundamental_form_diag(4, [1])
    with pytest.raises(ValueError):
        fundamental_form(model, 0, [])
    with pytest.raises(ValueError):
        fundamental_form(model, 2, [[1] * 6])
    with pytest.raises(ValueError):
        fundamental_form(model, 2, [[1] * 5, [1] * 5])


def test_prolongation_check_vanishing_arguments():
    rng = random.Random(211)
    model = segre_model((3, 3, 3))
    for _ in range(10):
        f = rng.randrange(3)
        v = [0] * 6
        v[2 * f] = rng.randint(1, 3)
        v[2 * f + 1] = rng.randint(-3, 3)
        w = [rng.randint(-3, 3) for _ in range(6)]
        w2 = [rng.randint(-3, 3) for _ in range(6)]
        assert prolongation_check(model, [v, v], [w])
        assert prolongation_check(model, [v, v], [w, w2])
        # two different directions in the same factor also annihilate the form
        v2 = [0] * 6
        v2[2 * f] = rng.randint(-3, 3)
        v2[2 * f + 1] = rng.randint(1, 3)
        assert prolongation_check(model, [v, v2], [w])
    for mdl in (grassmann_model(3, 6), spinor_model(6)):
        n = mdl.tangent_dim
        for _ in range(6):
            eps = [0] * n
            eps[rng.randrange(n)] = rng.randint(1, 3)
            w = [rng.randint(-3, 3) for _ in range(n)]
            assert prolongation_check(mdl, [eps, eps], [w])
    # precondition: the first argument must annihilate its own form
    u = [1, 0, 1, 0, 0, 0]
    with pytest.raises(ValueError):
        prolongation_check(model, [u, u], [u])
    with pytest.raises(ValueError):
        prolongation_check(model, [u], [u])
    with pytest.raises(ValueError):
        prolongation_check(model, [u, u], [])
    # the combined degree 3 is past the Grassmannian's top block, and the
    # second argument has the wrong length
    with pytest.raises(ValueError):
        prolongation_check(grassmann_model(2, 4), [[1, 0, 0, 0]] * 2, [[1, 2]])


def rand_base_annihilating_curve(rng, model, kind):
    """Random curve whose value at t=0 kills the second fundamental form."""
    if kind == "segre":
        sizes = [d - 1 for d in model.dims]
        f = rng.randrange(len(sizes))
        v0 = []
        for m, s in enumerate(sizes):
            v0.extend(rng.randint(-3, 3) if m == f else 0 for _ in range(s))
        if not any(v0):
            v0[sum(sizes[:f])] = 1
    elif kind == "grassmann":
        a = [rng.randint(-2, 2) for _ in range(3)]
        b = [rng.randint(-2, 2) for _ in range(3)]
        v0 = [x * y for x in a for y in b]
    else:  # spinor: a decomposable (rank-two) skew matrix
        k = 6
        u = [rng.randint(-2, 2) for _ in range(k)]
        w = [rng.randint(-2, 2) for _ in range(k)]
        v0 = [u[i] * w[j] - u[j] * w[i]
              for i in range(k) for j in range(i + 1, k)]
    data = [v0] + [[rng.randint(-2, 2) for _ in range(len(v0))]
                   for _ in range(2)]
    return VectorSeries.from_polynomial(data, 10)


def test_fubini_series_order_bound():
    rng = random.Random(212)
    cases = [(segre_model((2, 2, 2, 2)), "segre", (3, 4)),
             (grassmann_model(3, 6), "grassmann", (3,)),
             (spinor_model(6), "spinor", (3,))]
    for model, kind, degrees in cases:
        assert len(rand_base_annihilating_curve(rng, model, kind)) == \
            model.tangent_dim
        for _ in range(8):
            curve = rand_base_annihilating_curve(rng, model, kind)
            m = fubini_series(model, curve, 2).order()
            assert m is None or m >= 1
            for s in degrees:
                o = fubini_series(model, curve, s).order()
                if m is None:
                    assert o is None
                else:
                    assert o is None or o >= m + s - 2


def test_limit_config_validation_and_type_tree():
    model = segre_model((3, 3, 3))
    p = 6

    def vser(*vecs):
        return VectorSeries.from_polynomial(list(vecs), p)

    v = vser((1, 2, 0, 1, 0, 1))
    w = vser((0, 1, 1, 0, 2, 0))
    assert limit_type(LimitConfig(model, 0, 0, v, w, ScalarSeries((3,), p))) == "i"
    assert limit_type(LimitConfig(model, 0, 1, v, w, ScalarSeries((0,), p))) == "ii"
    assert limit_type(LimitConfig(model, 0, 1, v, w, ScalarSeries((1, 2), p))) == "ii"
    assert limit_type(LimitConfig(model, 0, 1, v, w, ScalarSeries((5,), p))) == "i"
    assert limit_type(LimitConfig(model, 1, 2, v, w, ScalarSeries((3,), p))) == "iii-iv"
    line = vser((1, 2, 0, 0, 0, 0))
    cfg = LimitConfig(model, 0, 1, line, w, ScalarSeries((1,), p))
    assert limit_type(cfg) == "iii-iv"
    assert cfg.m == 0
    assert LimitConfig(model, 0, 1, v, w, ScalarSeries((0, 4), p)).m == 1
    with pytest.raises(ValueError):
        LimitConfig(model, 2, 1, v, w, ScalarSeries((1,), p))
    with pytest.raises(ValueError):
        LimitConfig(model, -1, 0, v, w, ScalarSeries((1,), p))
    with pytest.raises(ValueError):
        LimitConfig(model, 0, 1, vser((0,) * 6, (1, 0, 0, 0, 0, 0)), w,
                    ScalarSeries((1,), p))
    with pytest.raises(ValueError):
        LimitConfig(model, 0, 1, vser((1, 2, 3)), w, ScalarSeries((1,), p))
    with pytest.raises(ValueError):
        LimitConfig(model, 0, 1, v, w, 3)


def test_limit_configs_hash_by_value():
    model = segre_model((3, 3, 3))
    p = 6

    def config(lam):
        return LimitConfig(model, 1, 2,
                           VectorSeries.from_polynomial([(1, 2, 1, 1, 1, -1)], p),
                           VectorSeries.from_polynomial([(1, 1, 2, 1, 1, 2)], p),
                           ScalarSeries(lam, p))

    a, b, c = config((3, 1)), config((3, 1)), config((3, 2))
    assert a == b and a is not b and hash(a) == hash(b)
    assert hash(a.v) == hash(VectorSeries(a.v.parts))
    assert {a, b, c} == {a, c} and len({a, b, c}) == 2
    planes = {a: limit_config_plane(a)}
    assert planes[b] == limit_config_plane(b)
    assert c not in planes


def test_limit_config_planes_classify_to_expected_strata():
    model = segre_model((3, 3, 3))
    rng = random.Random(213)
    p = 6

    def vser(*vecs):
        return VectorSeries.from_polynomial(list(vecs), p)

    def sampled_orbits(cfg):
        res = limit_config_plane(cfg)
        assert not res.degenerate
        seen = set()
        for _ in range(6):
            pt = res.sample([rng.randint(1, 9) for _ in range(3)])
            rep = classify(segre_tensor_from_ambient(model, pt))
            assert rep.border_rank_class in (0, 1, 2, 3)
            seen.add(rep.orbit_id)
        return seen

    v = vser((1, 2, 1, 1, 1, -1))
    w = vser((1, 1, 2, 1, 1, 2))
    # three distinct points
    cfg = LimitConfig(model, 0, 0, v, w, ScalarSeries((3,), p))
    assert limit_type(cfg) == "i"
    assert 39 in sampled_orbits(cfg)
    # third point collides with the base point along w
    cfg = LimitConfig(model, 0, 1, v, w, ScalarSeries((0,), p))
    assert limit_type(cfg) == "ii"
    assert 38 in sampled_orbits(cfg)
    # full collision of order one with a distinct scalar
    cfg = LimitConfig(model, 1, 2, v, w, ScalarSeries((3,), p))
    assert limit_type(cfg) == "iii-iv"
    assert 37 in sampled_orbits(cfg)
    # collision along a factor line: the frozen-first-point configuration
    # stays inside a proper subspace, so its samples drop to border rank <= 2
    line = vser((1, 1, 0, 0, 0, 0))
    cfg = LimitConfig(model, 0, 1, line, w, ScalarSeries((1,), p))
    assert limit_type(cfg) == "iii-iv"
    res = limit_config_plane(cfg)
    for _ in range(4):
        pt = res.sample([rng.randint(1, 9) for _ in range(3)])
        rep = classify(segre_tensor_from_ambient(model, pt))
        assert rep.border_rank_class <= 2


def _pmul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return out


_PERMS = (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
          ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1))


def _direct_wedge(ambs):
    """Pluecker coordinates of r1 ^ r2 ^ r3 as polynomials in t, one per
    column triple, by the Leibniz expansion of each 3x3 minor."""
    width = len(ambs[0][0])
    cols = [[[v[i] for v in data] for i in range(width)] for data in ambs]
    triples = list(combinations(range(width), 3))
    wedge = []
    for trip in triples:
        total = [0] * (sum(len(data) for data in ambs) - 2)
        for perm, sign in _PERMS:
            prod = _pmul(_pmul(cols[0][trip[perm[0]]], cols[1][trip[perm[1]]]),
                         cols[2][trip[perm[2]]])
            for k, x in enumerate(prod):
                total[k] += sign * x
        wedge.append(total)
    return triples, wedge


def _assert_matches_direct_wedge(ambs, res):
    """The wedge's valuation is leading_order, its lowest coefficient is
    proportional to the plane's Pluecker vector, and it is the zero
    polynomial exactly when the result is degenerate."""
    triples, wedge = _direct_wedge(ambs)
    lead = next((k for k in range(len(wedge[0])) if any(w[k] for w in wedge)),
                None)
    assert res.degenerate == (lead is None)
    if lead is None:
        assert res.plane == () and res.leading_order is None
        return
    assert res.leading_order == lead == sum(res.orders)
    low = [w[lead] for w in wedge]
    basis = [list(r) for r in res.plane]
    pluecker = [generic_det([[basis[0][i], basis[0][j], basis[0][l]],
                             [basis[1][i], basis[1][j], basis[1][l]],
                             [basis[2][i], basis[2][j], basis[2][l]]])
                for (i, j, l) in triples]
    wi = next(i for i, x in enumerate(low) if x)
    assert pluecker[wi] != 0
    scale = Fraction(low[wi]) / Fraction(pluecker[wi])
    assert all(Fraction(w) == scale * Fraction(p) for w, p in zip(low, pluecker))


def test_limit_plane_matches_direct_wedge():
    model = segre_model((2, 2, 2))
    rng = random.Random(214)
    done = 0
    while done < 4:
        ambs = []
        for _ in range(3):
            data = rand_curve(rng, 3, deg=2, order=0)
            vs = VectorSeries.from_polynomial(data, 10)
            ambs.append(embed_curve(model, vs).polynomial_coefficients())
        res = limit_plane(*ambs)
        if res.degenerate:
            continue
        done += 1
        _assert_matches_direct_wedge(ambs, res)


def _poly_combination(pairs, width):
    """sum of g_i(t) * r_i(t) over (g_i, r_i) pairs, as coefficient vectors."""
    n = max(len(g) + len(r) - 1 for g, r in pairs)
    out = [[0] * width for _ in range(n)]
    for g, r in pairs:
        for i in range(width):
            for k, x in enumerate(_pmul(g, [v[i] for v in r])):
                out[k][i] += x
    return out


@st.composite
def _high_order_triples(draw, small=st.integers(-2, 2)):
    """Curve triples whose wedge vanishes to high order or identically:
    r2 = g(t) r1 (+ t^k w), and r3 random, a polynomial combination of r1
    and r2 (+ t^m u), or a copy of r1 or r2.  Degree bounds reach about 100.
    Entries are drawn from small."""
    width = draw(st.integers(3, 4))

    def curve(max_deg, max_order=0):
        order = draw(st.integers(0, max_order))
        size = draw(st.integers(1, max_deg + 1))
        vecs = draw(st.lists(st.lists(small, min_size=width, max_size=width),
                             min_size=size, max_size=size))
        if not any(vecs[0]):
            vecs[0][draw(st.integers(0, width - 1))] = 1
        return [[0] * width for _ in range(order)] + vecs

    def scalar_poly(max_deg):
        size = draw(st.integers(1, max_deg + 1))
        g = draw(st.lists(small, min_size=size, max_size=size))
        return g if any(g) else g + [1]

    def plus_monomial_times_curve(r, max_shift):
        shift = draw(st.integers(0, max_shift))
        return _poly_combination([([1], r), ([0] * shift + [1], curve(2))], width)

    r1 = curve(5, 2)
    r2 = _poly_combination([(scalar_poly(30), r1)], width)
    if draw(st.integers(0, 3)):
        r2 = plus_monomial_times_curve(r2, 40)
    kind = draw(st.sampled_from(("random", "random", "combination", "copy")))
    if kind == "random":
        r3 = curve(20, 3)
    elif kind == "combination":
        r3 = _poly_combination([(scalar_poly(10), r1), (scalar_poly(10), r2)],
                               width)
        if draw(st.booleans()):
            r3 = plus_monomial_times_curve(r3, 30)
    else:
        r3 = [list(v) for v in draw(st.sampled_from((r1, r2)))]
    return draw(st.permutations([r1, r2, r3]))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_high_order_triples())
# r2 = (1 + t + t^2) r1 + t^5 e2: the wedge t^5 e1^e2^e3 has its valuation
# at the degree bound D - 1 = 5
@example([[[1, 0, 0]], [[1, 0, 0]] * 3 + [[0, 0, 0]] * 2 + [[0, 1, 0]],
          [[0, 0, 1]]])
def test_limit_plane_matches_direct_wedge_at_high_order(ambs):
    _assert_matches_direct_wedge(ambs, limit_plane(*ambs))


def _reference_reduce_rows(rows, bound):
    """The valuation reduction over Q: a rational Echelon of the leading
    vectors on every pass, and row updates a - c * b with rational c."""
    rows = [list(r[:bound]) for r in rows]
    orders = [limits._order(r) for r in rows]
    while None not in orders:
        idx = sorted(range(len(rows)), key=orders.__getitem__)
        ech = Echelon()
        inserted = []
        for i in idx:
            lead = rows[i][orders[i]]
            if ech.add(lead):
                inserted.append(i)
                continue
            row = rows[i]
            for j, c in zip(inserted, ech.coords_in(lead)):
                if c:
                    sh = orders[i] - orders[j]
                    src = rows[j][:bound - sh]
                    row.extend([(0,) * len(lead)] * (sh + len(src) - len(row)))
                    for k, v in enumerate(src, sh):
                        row[k] = tuple(_norm(a - c * b) for a, b in zip(row[k], v))
            orders[i] = limits._order(row, orders[i] + 1)
            break
        else:
            return [(orders[i], rows[i][orders[i]]) for i in idx]
    return None


def span_basis(vectors):
    """The rref basis of the span, by rref of the vectors themselves: the
    basis limit_plane read before it back-substituted its own echelon."""
    rows, _ = rref(list(vectors))
    return [r for r in rows if any(r)]


def _reference_limit_plane(*curves):
    polys = [[tuple(v) for v in c] for c in curves]
    leads = _reference_reduce_rows(polys, sum(len(c) - 1 for c in polys) + 1)
    if leads is None:
        return LimitPlaneResult((), (), None, degenerate=True)
    orders = tuple(o for o, _ in leads)
    basis = tuple(tuple(r) for r in span_basis([v for _, v in leads]))
    return LimitPlaneResult(basis, orders, sum(orders))


def _typed_result(res):
    return (res.degenerate, res.orders, type(res.leading_order), res.leading_order,
            _typed(res.plane))


def _positive_multiple(u, v):
    """Whether u = q * v for a rational q > 0."""
    k = next(i for i, x in enumerate(v) if x)
    q = Fraction(u[k]) / Fraction(v[k])
    return q > 0 and all(a == q * b for a, b in zip(u, v))


_RATIONALS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from((st.integers(-2, 2), _RATIONALS)).flatmap(_high_order_triples),
       st.lists(_RATIONALS.filter(bool), min_size=3, max_size=3))
def test_integer_reduction_matches_rational_reduction(ambs, scales):
    before = repr(ambs)
    got = limit_plane(*ambs)
    assert repr(ambs) == before  # the caller's vectors are never written
    assert _typed_result(got) == _typed_result(_reference_limit_plane(*ambs))
    # every row reduces as a positive multiple of its rational counterpart,
    # with integer entries
    bound = sum(len(r) - 1 for r in ambs) + 1
    reduced = limits._reduce_rows(ambs, bound)
    leads = reduced and reduced[0]
    want = _reference_reduce_rows(ambs, bound)
    assert (leads is None) == (want is None) == got.degenerate
    for (o, lead), (o_want, lead_want) in zip(leads or (), want or ()):
        assert o == o_want
        assert all(type(x) is int for x in lead)
        assert _positive_multiple(lead, lead_want)
    # the returned echelon: integer rows of the leads' span, zero left of
    # their increasing pivots
    if reduced is not None:
        pivots = [p for p, _ in reduced[1]]
        assert pivots == sorted(set(pivots)) and len(pivots) == 3
        for p, row in reduced[1]:
            assert all(type(x) is int for x in row)
            assert row[p] and not any(row[:p])
        ech = [list(row) for _, row in reduced[1]]
        assert rank(ech) == rank(ech + [list(v) for _, v in leads]) == 3
    # scaling a row by a nonzero constant moves no field
    scaled = [[[c * x for x in v] for v in r] for c, r in zip(scales, ambs)]
    assert _typed_result(limit_plane(*scaled)) == _typed_result(got)


def test_limit_plane_builds_no_echelon(monkeypatch):
    model = segre_model((3, 3, 3))
    fam = secant_curve_family("iii", model, random.Random(219))
    # r2 = (1 + t) r1 + t^2 e3 and r3 = 2 r1 + t^2 e2: three reduction passes
    rows = ([(1, 0, 0), (0, 1, 0)], [(1, 0, 0), (1, 1, 0), (0, 1, 1)],
            [(2, 0, 0), (0, 2, 0), (0, 1, 0)])
    want_family = chart_limit_plane(model, fam.curves)
    want_rows = limit_plane(*rows)
    assert want_rows.orders == (0, 2, 2)

    def refuse(self, *args, **kwargs):
        raise AssertionError("an Echelon was built on a limit path")

    monkeypatch.setattr(Echelon, "__init__", refuse)
    with pytest.raises(AssertionError):
        Echelon()
    assert limit_plane(*rows) == want_rows
    assert chart_limit_plane(model, fam.curves) == want_family


def _reference_segre_phi(model, v):
    """The Segre chart map slot by slot: each slot multiplies the block
    entries its index picks, mode by mode, and the all-zero slot is 1."""
    blocks, pos = [], 0
    for d in model.dims:
        blocks.append(v[pos:pos + d - 1])
        pos += d - 1
    out = []
    for idx in product(*map(range, model.dims)):
        prod = None
        for mode, c in enumerate(idx):
            if c:
                x = blocks[mode][c - 1]
                prod = x if prod is None else prod * x
        out.append(1 if prod is None else prod)
    return out


def _typed_entries(values):
    return [(type(x), x.coeffs if isinstance(x, limits._Poly) else x)
            for x in values]


_POLYS = st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(limits._Poly)


@st.composite
def _segre_points(draw):
    model = segre_model(draw(st.lists(st.integers(1, 3), min_size=1, max_size=5)))
    entries = draw(st.sampled_from((st.integers(-3, 3), _RATIONALS, _POLYS,
                                    st.one_of(st.integers(-3, 3), _RATIONALS,
                                              _POLYS))))
    n = model.tangent_dim
    return model, draw(st.lists(entries, min_size=n, max_size=n))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_segre_points())
@example((segre_model((1, 3, 1, 2, 3)), [2, Fraction(-1, 2), 0, limits._Poly([0, 1]), 3]))
@example((segre_model((3, 3, 3, 3, 3)), [Fraction(k - 4, 3) if k % 3 else k - 4
                                          for k in range(10)]))
@example((segre_model((1, 1)), []))
def test_segre_chart_map_is_the_slot_product(case):
    model, v = case
    want = _reference_segre_phi(model, v)
    assert _typed_entries(model.phi(v)) == _typed_entries(want)
    slots = model.ambient_slots()
    for s in range(model.base_degree + 2):
        got = model.fundamental_form_diag(s, v)
        block = [i for i, (deg, _) in enumerate(slots) if deg == s
                 and (not isinstance(want[i], (int, Fraction)) or want[i])]
        assert list(got) == block
        assert _typed_entries(got.values()) == _typed_entries(want[i] for i in block)
    # one slice per factor, d - 1 wide, covering the chart in factor order
    slices = model._block_slices
    assert [b.stop - b.start for b in slices] == [d - 1 for d in model.dims]
    n = model.tangent_dim
    assert [i for b in slices for i in range(n)[b]] == list(range(n))


def test_plane_samples_satisfy_strassen_quartics():
    model = segre_model((3, 3, 3))
    rng = random.Random(215)
    done = 0
    while done < 4:
        curves = [rand_curve(rng, 6, deg=2, order=0) for _ in range(3)]
        res = chart_limit_plane(model, curves)
        if res.degenerate:
            continue
        done += 1
        for _ in range(5):
            pt = res.sample([rng.randint(1, 9) for _ in range(3)])
            t = segre_tensor_from_ambient(model, pt)
            assert all(x == 0 for x in strassen_equations(t))


# -- exact polynomial evaluation of the chart map ----------------------------

_KIND_MODELS = (segre_model((2, 3, 3)), grassmann_model(2, 5),
                lagrangian_model(3), spinor_model(6))
_ENTRIES = st.one_of(st.integers(-3, 3),
                     st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))


def _typed(vectors):
    return [[(type(x), x) for x in v] for v in vectors]


@st.composite
def _chart_curves(draw):
    model = draw(st.sampled_from(_KIND_MODELS))
    n = model.tangent_dim
    vec = st.lists(_ENTRIES, min_size=n, max_size=n).map(tuple)
    return model, draw(st.lists(vec, min_size=1, max_size=5))


def _at(vectors, tau):
    """The polynomial curve sum_k t^k vectors[k] evaluated at t = tau."""
    return [sum(v[i] * tau ** k for k, v in enumerate(vectors))
            for i in range(len(vectors[0]))]


def _assert_interpolates(got, degree, value_at):
    """got is a trimmed list of exact coefficient vectors of a polynomial of
    degree <= degree that takes value_at(tau) at degree + 1 distinct
    rationals tau, which fixes it."""
    assert len(got) <= degree + 1
    assert len(got) == 1 or any(got[-1])
    assert all(type(x) is int or (type(x) is Fraction and x.denominator > 1)
               for v in got for x in v)
    for j in range(degree + 1):
        tau = Fraction(j - degree // 2, 3)
        assert _at(got, tau) == value_at(tau)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_chart_curves(), st.integers(1, 14))
def test_ambient_polynomial_matches_series_embedding(case, prec):
    model, data = case
    got = _ambient_polynomial(model, data)
    _assert_interpolates(got, (len(data) - 1) * model.base_degree,
                         lambda tau: model.phi(_at(data, tau)))
    # embedding a truncated curve truncates the exact ambient polynomial
    amb = embed_curve(model, VectorSeries.from_polynomial(data, prec))
    assert amb.prec == prec
    want = (got + [(0,) * model.ambient_dim] * prec)[:prec]
    assert _typed([amb.coeff_vector(k) for k in range(prec)]) == _typed(want)


def _line_coefficients(model, point, u):
    """Coefficient vectors of tau -> model.phi(point + tau * u), a polynomial
    of degree <= base_degree, by Lagrange interpolation at base_degree + 1
    distinct rationals tau."""
    degree = model.base_degree
    taus = [Fraction(j - degree // 2, 3) for j in range(degree + 1)]
    out = [[0] * model.ambient_dim for _ in range(degree + 1)]
    for i, ti in enumerate(taus):
        basis = [Fraction(1)]  # coefficients of prod_{j != i} (t - tj) / (ti - tj)
        for tj in taus[:i] + taus[i + 1:]:
            basis = [(a - tj * b) / (ti - tj)
                     for a, b in zip([0] + basis, basis + [0])]
        y = model.phi([p + ti * x for p, x in zip(point, u)])
        out = [[o + c * v for o, v in zip(row, y)] for row, c in zip(out, basis)]
    return out


@pytest.mark.parametrize("model", _KIND_MODELS, ids=lambda m: m.kind)
@pytest.mark.parametrize("entry", [lambda rng: rng.randint(-3, 3),
                                   lambda rng: Fraction(rng.randint(-6, 6),
                                                        rng.randint(1, 4))],
                         ids=["int", "fraction"])
def test_tangent_frames_match_the_chart_map_along_lines(model, entry):
    rng = random.Random(218)
    n = model.tangent_dim
    axes = [[int(i == j) for i in range(n)] for j in range(n)]
    for _ in range(2):
        point, u = ([entry(rng) for _ in range(n)] for _ in range(2))
        frame = affine_tangent_frame(model, point)
        offset = second_order_offset(model, point, u)
        assert frame[0] == _line_coefficients(model, point, [0] * n)[0]
        assert frame[1:] == [_line_coefficients(model, point, e)[1] for e in axes]
        assert offset == _line_coefficients(model, point, u)[2]
        assert all(type(x) is int or (type(x) is Fraction and x.denominator > 1)
                   for row in frame + [offset] for x in row)
    # a point or direction of the wrong length is refused, not cut or padded
    with pytest.raises(ValueError):
        affine_tangent_frame(model, point[:-1])
    for bad in (u[:2], u + [5, 5]):
        with pytest.raises(ValueError):
            second_order_offset(model, point, bad)
        with pytest.raises(ValueError):
            second_fundamental_vanishes(model, point, bad)


@pytest.mark.parametrize("model", _KIND_MODELS + (segre_model((3, 1, 3)),
                                                  grassmann_model(3, 6),
                                                  spinor_model(5)),
                         ids=lambda m: m.kind)
def test_affine_tangent_frame_has_full_rank(model):
    # its t^0 and t^1 slots read [[1, p], [0, I]], so the rank is its length
    rng = random.Random(227)
    n = model.tangent_dim
    for _ in range(3):
        point = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
        assert rank(affine_tangent_frame(model, point)) == n + 1


@st.composite
def _form_cases(draw):
    """A model of any kind (Segre factors of dims 1-3), a chart vector with
    int or Fraction entries, and a form degree s in 0..base_degree + 1."""
    model = draw(st.one_of(
        st.lists(st.integers(1, 3), min_size=1, max_size=4).map(segre_model),
        st.sampled_from(_KIND_MODELS[1:])))
    n = model.tangent_dim
    entries = draw(st.sampled_from((st.integers(-3, 3), _RATIONALS, _ENTRIES)))
    v = draw(st.lists(entries, min_size=n, max_size=n))
    return model, v, draw(st.integers(0, model.base_degree + 1))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_form_cases())
@example((segre_model((3, 1, 3)), [1, Fraction(1, 2), 0, 2], 2))
@example((segre_model((1, 1)), [], 0))
def test_fundamental_form_diag_is_the_line_coefficient(case):
    # F_s(v^s) is the t^s coefficient of the chart map along the line t * v
    model, v, s = case
    coeff = limits._line_coefficient(model, [0] * model.tangent_dim, v, s)
    want = {i: x for i, x in enumerate(coeff) if x}
    assert model.fundamental_form_diag(s, v) == want


def _phi_on_polys(model, data):
    """The chart map evaluated on _Poly ring elements, one per chart
    coordinate, read back as coefficient vectors with trailing zero vectors
    trimmed down to one."""
    values = model.phi([limits._Poly(col) for col in zip(*data)])
    coeffs = [v.coeffs if isinstance(v, limits._Poly) else [v] for v in values]
    return list(zip_longest(*coeffs, fillvalue=0)) or [(0,) * len(coeffs)]


@st.composite
def _segre_curves(draw):
    """A Segre model of 1-4 factors of dims 1-4 and a polynomial chart curve
    on it, with int, Fraction or mixed coefficients, maybe a zero leading
    vector and trailing zero vectors."""
    model = segre_model(draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)))
    n = model.tangent_dim
    entries = draw(st.sampled_from((st.integers(-3, 3), _RATIONALS,
                                    st.one_of(st.integers(-3, 3), _RATIONALS))))
    data = draw(st.lists(st.lists(entries, min_size=n, max_size=n).map(tuple),
                         min_size=1, max_size=3))
    if draw(st.booleans()):
        data[0] = (0,) * n
    return model, data + [(0,) * n] * draw(st.integers(0, 2))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_segre_curves())
@example((segre_model((1, 3, 1, 2)), [(0, 0, 0), (1, Fraction(-1, 2), 2), (0, 0, 0)]))
@example((segre_model((4, 4, 4, 4)), [tuple(range(-6, 6)), (0,) * 12,
                                      tuple(Fraction(k, 3) for k in range(12))]))
@example((segre_model((2, 2)), [(Fraction(2), Fraction(1, 2)), (Fraction(3, 2), 2)]))
@example((segre_model((1, 1)), [()]))
def test_segre_embedding_matches_the_chart_map_on_polynomials(case):
    model, data = case
    got = _ambient_polynomial(model, data)
    assert all(type(v) is tuple for v in got)
    assert _typed(got) == _typed(_phi_on_polys(model, data))


@pytest.mark.parametrize("dims", [(3, 3, 3), (2, 1, 4)])
@pytest.mark.parametrize("delta", [-1, 1])
def test_segre_embedding_refuses_a_wrong_length_vector(capsys, monkeypatch,
                                                        dims, delta):
    model = segre_model(dims)
    vec = tuple(range(1, model.tangent_dim + delta + 1))
    curves = [[vec], [vec, vec], [(0,) * len(vec), vec]]
    with pytest.raises(ValueError, match="tangent vector has wrong length"):
        _ambient_polynomial(model, [vec])
    with pytest.raises(ValueError, match="tangent vector has wrong length"):
        chart_limit_plane(model, curves)
    text = json.dumps({"model": {"kind": "segre", "dims": list(dims)},
                       "curves": [[list(v) for v in c] for c in curves]})
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["limit"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad limit config: tangent vector has wrong length" in captured.err


def _fraction_sample(plane, coeffs):
    """sum_j coeffs[j] * plane[j] on Fractions, integral entries as int."""
    out = [Fraction(0)] * len(plane[0])
    for c, row in zip(coeffs, plane):
        out = [s + Fraction(c) * Fraction(x) for s, x in zip(out, row)]
    return tuple(x.numerator if x.denominator == 1 else x for x in out)


_SAMPLE_ENTRIES = st.one_of(st.just(0), st.integers(-5, 5), _RATIONALS,
                            st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)))


@st.composite
def _planes_and_coefficients(draw):
    width = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(_SAMPLE_ENTRIES, min_size=width,
                                  max_size=width).map(tuple),
                         min_size=1, max_size=3))
    coeffs = draw(st.lists(_SAMPLE_ENTRIES, min_size=len(rows), max_size=len(rows)))
    return LimitPlaneResult(tuple(rows), (0,) * len(rows), 0), coeffs


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_planes_and_coefficients())
@example((LimitPlaneResult(((1, Fraction(1, 2), 0), (0, Fraction(1, 3), 1)),
                           (0, 1), 1), [2, 3]))
@example((LimitPlaneResult(((Fraction(1, 2), 1),), (0,), 0), [Fraction(2, 3)]))
@example((LimitPlaneResult(((Fraction(1, 2), 1), (1, 1)), (0, 0), 0), [0, 0]))
def test_plane_sample_matches_a_fraction_sum(case):
    plane, coeffs = case
    assert _typed([plane.sample(coeffs)]) == _typed([_fraction_sample(plane.plane, coeffs)])


def test_plane_samples_keep_their_errors():
    model = segre_model((3, 3, 3))
    rng = random.Random(218)
    while True:
        curves = [[tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                         for _ in range(6)) for _ in range(2)] for _ in range(3)]
        res = chart_limit_plane(model, curves)
        if not res.degenerate and any(type(x) is Fraction
                                      for row in res.plane for x in row):
            break
    for coeffs in ([1, Fraction(2, 3), 0], [0, 0, 5], [7, -2, 1]):
        assert _typed([res.sample(coeffs)]) == _typed([_fraction_sample(res.plane, coeffs)])
    for coeffs in ([1, 2], [1, 2, 3, 4]):
        with pytest.raises(ValueError, match="one coefficient per basis vector"):
            res.sample(coeffs)
    degenerate = LimitPlaneResult((), (), None, degenerate=True)
    with pytest.raises(ValueError, match="degenerate wedge"):
        degenerate.sample((1, 2, 3))
    with pytest.raises(ValueError, match="degenerate wedge"):
        degenerate.sample(())


@st.composite
def _configs(draw):
    model = draw(st.sampled_from(_KIND_MODELS))
    n = model.tangent_dim

    def series():
        vecs = draw(st.lists(st.lists(_ENTRIES, min_size=n, max_size=n),
                             min_size=1, max_size=3))
        if not any(vecs[0]):
            vecs[0][draw(st.integers(0, n - 1))] = 1
        return VectorSeries.from_polynomial(vecs, 6)

    k = draw(st.integers(0, 3))
    l = k + draw(st.integers(0, 3))
    lam = draw(st.lists(_ENTRIES, min_size=1, max_size=4))
    return LimitConfig(model, k, l, series(), series(), ScalarSeries(lam, 6))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_configs())
def test_limit_config_plane_matches_series_construction(cfg):
    def value(series, tau):
        return _at([series.coeff_vector(k) for k in range(series.prec)], tau)

    lam = [(c,) for c in cfg.lam.coeffs]
    curves = limit_config_curves(cfg)
    n = cfg.model.tangent_dim
    _assert_interpolates(curves[0], 0, lambda tau: [0] * n)
    _assert_interpolates(curves[1], cfg.k + cfg.v.prec - 1,
                         lambda tau: [tau ** cfg.k * x for x in value(cfg.v, tau)])
    degree = max(cfg.k + cfg.v.prec + cfg.lam.prec - 2, cfg.l + cfg.w.prec - 1)
    _assert_interpolates(
        curves[2], degree,
        lambda tau: [_at(lam, tau)[0] * tau ** cfg.k * x + tau ** cfg.l * y
                     for x, y in zip(value(cfg.v, tau), value(cfg.w, tau))])
    # the same plane from the series embedding of each curve, at a truncation
    # holding its whole image
    embedded = [embed_curve(cfg.model, VectorSeries.from_polynomial(
        c, (len(c) - 1) * cfg.model.base_degree + 1)).polynomial_coefficients()
        for c in curves]
    assert limit_config_plane(cfg) == limit_plane(*embedded)


def _polarized_limit_type(cfg):
    """limit_type with II(v0^2) read from the polarized form F_2(v0, v0)."""
    if cfg.l == 0:
        return "i"
    if cfg.k >= 1:
        return "iii-iv"
    v0 = cfg.v.coeff_vector(0)
    if not fundamental_form(cfg.model, 2, [v0, v0]):
        return "iii-iv"
    lam0 = cfg.lam.coeff(0)
    if lam0 != 0 and lam0 != 1:
        return "i"
    return "ii"


@st.composite
def _collision_configs(draw):
    """Configurations with k = 0 < l, where limit_type reads II(v0^2), and a
    sparse v0, on which the form often vanishes."""
    model = draw(st.sampled_from(_KIND_MODELS))
    n = model.tangent_dim
    v0 = draw(st.lists(st.one_of(st.just(0), _ENTRIES), min_size=n, max_size=n))
    if not any(v0):
        v0[draw(st.integers(0, n - 1))] = Fraction(1, 2)
    tail = draw(st.lists(st.lists(_ENTRIES, min_size=n, max_size=n), max_size=2))
    lam = draw(st.lists(st.sampled_from([0, 1, 2, Fraction(1, 2)]),
                        min_size=1, max_size=2))
    return LimitConfig(model, 0, draw(st.integers(1, 3)),
                       VectorSeries.from_polynomial([v0] + tail, 4),
                       VectorSeries.from_polynomial([[1] * n], 4),
                       ScalarSeries(lam, 4))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cfg=st.one_of(_configs(), _collision_configs()))
# a Fraction in one Segre block: the other blocks' products with it are
# Fraction(0) entries of the diagonal form, and the form vanishes
@example(cfg=LimitConfig(segre_model((2, 3, 3)), 0, 1,
                         VectorSeries.from_polynomial([(0, Fraction(1, 2), 0, 0, 0)], 2),
                         VectorSeries.from_polynomial([(1,) * 5], 2),
                         ScalarSeries((2,), 2)))
def test_limit_type_matches_the_polarized_form(cfg):
    assert limit_type(cfg) == _polarized_limit_type(cfg)


def test_limit_paths_build_no_truncated_series(capsys, monkeypatch):
    model = segre_model((3, 3, 3))
    fam = secant_curve_family("iii", model, random.Random(216))
    p = 6
    cfg = LimitConfig(model, 1, 2,
                      VectorSeries.from_polynomial([(1, 2, 1, 1, 1, -1)], p),
                      VectorSeries.from_polynomial([(1, 1, 2, 1, 1, 2)], p),
                      ScalarSeries((3, 1), p))
    want_family = chart_limit_plane(model, fam.curves)
    want_cfg = limit_config_plane(cfg)

    def refuse(self, *args, **kwargs):
        raise AssertionError("a truncated series was built on a limit path")

    monkeypatch.setattr(ScalarSeries, "__init__", refuse)
    assert chart_limit_plane(model, fam.curves) == want_family
    assert limit_analysis(model, fam.curves).tag == "iii"
    assert limit_config_plane(cfg) == want_cfg
    for curves, want in ((fam.curves, want_family),
                         (limit_config_curves(cfg), want_cfg)):
        text = json.dumps({"model": {"kind": "segre", "dims": [3, 3, 3]},
                           "curves": [[[str(x) for x in v] for v in c]
                                      for c in curves]})
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["limit"]) == 0
        assert json.loads(capsys.readouterr().out)["orders"] == list(want.orders)
    # empty curves and ragged coefficient vectors are still refused, by
    # limit_plane as by chart_limit_plane; a width-0 chart stays degenerate
    zero = (0,) * 6
    with pytest.raises(ValueError, match="at least one coefficient vector"):
        chart_limit_plane(model, [[], [zero], [zero]])
    with pytest.raises(ValueError, match="at least one coefficient vector"):
        limit_plane([], [(1, 0, 0)], [(0, 1, 0)])
    with pytest.raises(ValueError, match="must share a length"):
        limit_plane([(1, 0, 0), (1, 0)], [(1, 0, 0)], [(0, 1, 0)])
    assert chart_limit_plane(segre_model((1, 1, 1)), [[[]]] * 3).degenerate
    assert limit_plane([[]], [[]], [[]]).degenerate
    with pytest.raises(ValueError, match="must share a length"):
        chart_limit_plane(model, [[zero, (1,) * 5], [zero], [zero]])
    for curves in ([[], [zero], [zero]], [[zero, (1,) * 5], [zero], [zero]]):
        text = json.dumps({"model": {"kind": "segre", "dims": [3, 3, 3]},
                           "curves": curves})
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["limit"]) == 1
        assert capsys.readouterr().err


def test_fubini_series_keeps_every_block():
    # (t, t, 0) on the 2x2x2 chart: the degree-2 block, slot (1, 1, 0), is
    # t^2, past the two coefficient vectors of the curve
    model = segre_model((2, 2, 2))
    got = fubini_series(model, VectorSeries.from_polynomial([(0, 0, 0), (1, 1, 0)], 6), 2)
    assert got.order() == 2
    assert got.polynomial_coefficients() == [(0,) * 8, (0,) * 8, (0,) * 6 + (1, 0)]
    rng = random.Random(217)
    for model in _KIND_MODELS:
        data = rand_curve(rng, model.tangent_dim, deg=3, order=1)
        exact = _ambient_polynomial(model, data)
        series = VectorSeries.from_polynomial(data, len(exact))
        for s in range(2, model.base_degree + 1):
            block = set(model.slot_block(s))
            want = [tuple(x if i in block else 0 for i, x in enumerate(v))
                    for v in exact]
            while len(want) > 1 and not any(want[-1]):
                want.pop()
            assert fubini_series(model, series, s).polynomial_coefficients() == want
