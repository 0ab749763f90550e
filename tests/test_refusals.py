"""Input refusals of the library, one call each, with the message they give;
and the few non-refusal statements beside them that no other test runs."""

import random
from fractions import Fraction

import pytest

from border3 import cli
from border3._linalg import inverse
from border3.classifier import scheme_intersection_check
from border3.equations import TernaryCubic, slice_det_cubic, strassen_jacobian_rank
from border3.limits import (
    LimitConfig, ScalarSeries, VectorSeries, _Poly, fubini_series, limit_analysis,
    limit_plane,
)
from border3.normal_forms import (
    generic_pfaffian, grassmann_model, lagrangian_model, orbit_representative,
    segre_model, segre_tensor_from_ambient, sigma2_point,
)
from border3.tensor import (
    GLTuple, apply_gl, apply_mode_map, parse_scalar, permute_modes, random_tensor,
    slice_matrices, zero_tensor,
)

_SEGRE = segre_model((2, 2, 2))
_V = VectorSeries.from_polynomial([(1, 0, 0)], 2)


def _set_prec(series):
    series.prec = 3


_REFUSALS = [
    (lambda: inverse([[1, 2], [2, 4]]), ValueError, "singular"),
    (lambda: cli._parse_dims("0,2"), cli._UsageError, "entries must be >= 1"),
    (lambda: strassen_jacobian_rank(zero_tensor((2, 2, 2))), ValueError,
     r"defined for dims \(3, 3, 3\)"),
    (lambda: slice_det_cubic(zero_tensor((2, 3, 3)), 0), ValueError,
     r"defined for dims \(3, 3, 3\)"),
    (lambda: TernaryCubic.from_dict({(2, 0, 0): 1}), ValueError,
     "not a ternary cubic monomial"),
    (lambda: VectorSeries(()), ValueError, "empty vector series"),
    (lambda: _set_prec(_V), AttributeError, "immutable"),
    (lambda: limit_plane([(1, 0, 0)], [(0, 1, 0)], [(0, 0, 1, 0)]), ValueError,
     "share an ambient dimension"),
    (lambda: limit_analysis(_SEGRE, [[(0, 0, 0)], [(1, 0, 0)]]), ValueError,
     "exactly three curves"),
    (lambda: fubini_series(_SEGRE, _V, 1), ValueError, "start at degree 2"),
    (lambda: LimitConfig(_SEGRE, 1.0, 2, _V, _V, ScalarSeries((1,))), ValueError,
     "k and l must be integers"),
    (lambda: LimitConfig(_SEGRE, 1, 2, (1, 0, 0), _V, ScalarSeries((1,))), ValueError,
     "v must be a VectorSeries"),
    (lambda: sigma2_point(3, dims=(2, 2)), ValueError, "one entry per factor"),
    (lambda: orbit_representative(33), ValueError, "orbit_id must be one of"),
    (lambda: segre_model(()), ValueError, "segre model needs factor dims"),
    (lambda: lagrangian_model(0), ValueError, "model needs k >= 1"),
    (lambda: _SEGRE.fundamental_form_diag(-1, (1, 0, 0)), ValueError,
     "form degree must be >= 0"),
    (lambda: segre_tensor_from_ambient(grassmann_model(2, 4), [0] * 6), ValueError,
     "defined for segre models"),
    (lambda: permute_modes(zero_tensor((2, 3)), (0, 0)), ValueError,
     "not a permutation of the modes"),
    (lambda: apply_mode_map(zero_tensor((2, 3)), [[1, 0, 0]], 0), ValueError,
     "does not match mode dimension"),
    (lambda: apply_gl(zero_tensor((2, 3)), GLTuple(([[1, 0], [0, 1]],))), ValueError,
     "order does not match tensor order"),
    (lambda: slice_matrices(zero_tensor((2, 3)), 0), ValueError,
     "requires a 3-way tensor"),
    (lambda: parse_scalar(True), ValueError, "boolean is not a scalar"),
    # the 2x2 minors of a generic net of 3x3 slices span all six quadrics
    (lambda: scheme_intersection_check(random_tensor((3, 3, 3), random.Random(1))),
     ValueError, "minor space has dimension 6"),
]


@pytest.mark.parametrize("call,exc,message", _REFUSALS,
                         ids=[message for _, _, message in _REFUSALS])
def test_bad_input_is_refused_with_its_message(call, exc, message):
    with pytest.raises(exc, match=message):
        call()


def test_edge_values_outside_the_refusals(monkeypatch):
    two = parse_scalar(Fraction(4, 2))
    assert two == 2 and type(two) is int
    assert generic_pfaffian([]) == 1
    # comparisons and products with other types fall back to Python's
    assert ScalarSeries((1,)) != "1" and _V != (1, 0, 0)
    with pytest.raises(TypeError):
        _Poly((1,)) + "1"
    with pytest.raises(TypeError):
        _Poly((1,)) * "1"
    # a closed stdout ends a verb quietly

    def closed(obj):
        raise BrokenPipeError

    monkeypatch.setattr(cli, "_emit", closed)
    assert cli.main(["generate", "--type", "orbit", "--orbit", "39"]) == 0
