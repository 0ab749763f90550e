"""3x3x3 verdicts of classify against oracles that share no code with it:
the Koszul flattening rank, the stabilizer dimension and the intersection
scheme of the slice net, on the sparse sample; the limit types classify
reads at n >= 4 against the stabilizer dimension of each type's family;
and whole reports against those of GL-moved copies."""

import importlib.util
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from border3.classifier import (
    GREATER_THAN_3, classify, scheme_intersection_check, stabilizer_dimension,
)
from border3.normal_forms import (
    ORBIT_IDS, ORBIT_INFO, orbit_representative, sigma3_point,
)
from border3.tensor import (
    apply_gl, concise_core, make_tensor, multilinear_rank, random_gl_tuple,
    rank_one, squeeze,
)
from koszul_reference import koszul_ranks, sparse_draw, sparse_draws

_PATH = Path(__file__).resolve().parent.parent / "tools" / "sparse_audit.py"
_spec = importlib.util.spec_from_file_location("sparse_audit", _PATH)
sparse_audit = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sparse_audit)

_SCHEMES = {"i": "three_reduced_points", "ii": "double_plus_reduced",
            "iii": "curvilinear_triple", "iv": "fat_triple"}


def test_koszul_rank_of_the_catalog_orbits_is_six():
    for k in ORBIT_IDS:
        assert koszul_ranks(orbit_representative(k)) == (6, 6, 6)


def test_sparse_sample_verdicts_match_the_oracles():
    concise = orbits = 0
    for t in sparse_draws(5000):
        if multilinear_rank(t) != (3, 3, 3):
            continue
        concise += 1
        rep = classify(t)
        assert rep.is_definite
        assert (rep.border_rank_class == GREATER_THAN_3) == (max(koszul_ranks(t)) >= 7)
        if rep.border_rank_class == GREATER_THAN_3:
            continue
        orbits += 1
        info = ORBIT_INFO[rep.orbit_id]
        assert stabilizer_dimension(t) == info["stabilizer_dim"]
        mode = rep.distinguished_factor - 1 if rep.limit_type == "iv" else 0
        assert scheme_intersection_check(t, mode) == _SCHEMES[rep.limit_type]
    assert concise > 2000 and orbits > 200


def test_tensor_that_misled_the_fixed_slice_quartics_is_greater_than_3():
    # the 27 fixed-slice quartics vanish on it, and its line patterns read
    # orbit 39, but its stabilizer dimension is 5 and its Koszul rank 7
    t = make_tensor((3, 3, 3), [0, 0, 0, 0, 0, 0, -1, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0,
                                0, 0, 1, 0, 1, 1, 0, 0, 1])
    assert koszul_ranks(t) == (7, 7, 7)
    assert stabilizer_dimension(t) == 5
    assert classify(t).border_rank_class == GREATER_THAN_3


def test_sparse_audit_counts_the_first_draws():
    counts = sparse_audit.sparse_counts(500)
    assert counts["concise"] == sum(multilinear_rank(t) == (3, 3, 3)
                                    for t in sparse_draws(500))
    assert counts["concise"] == counts["orbit_agrees"] + counts["greater_than_3"]
    assert counts["orbit_agrees"] > 0
    assert counts["orbit_wrong"] == counts["unknown"] == 0
    assert counts["greater_than_3_koszul_le_6"] == 0


# the stabilizer dimension of each sigma_3 type on n factors of dim 3 is
# 3n plus this offset
_FAMILY_OFFSET = {"i": -3, "ii": -2, "iii": -1, "iv": 1}


def _check_stabilizer_family(t):
    """classify's limit type of t against the stabilizer dimension of its
    squeezed concise core, which classify does not compute at n >= 4."""
    rep = classify(t)
    sq, _ = squeeze(concise_core(t).core)
    assert rep.border_rank_class == 3 and sq.order >= 4
    assert stabilizer_dimension(sq) == 3 * sq.order + _FAMILY_OFFSET[rep.limit_type]
    return rep


_FAMILY_SPECS = ([(kind, n, f) for n in (4, 5) for kind in ("i", "ii", "iii", "iv")
                  for f in (range(1, n + 1) if kind == "iv" else (1,))]
                 + [("i", 6, 1), ("ii", 6, 1), ("iii", 6, 1), ("iv", 6, 4)])


@pytest.mark.parametrize("kind,n,factor", _FAMILY_SPECS)
@settings(max_examples=2, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6))
def test_moved_sigma3_types_match_their_stabilizer_family(kind, n, factor, seed):
    t = sigma3_point(kind, n, factor=factor)
    rep = _check_stabilizer_family(apply_gl(t, random_gl_tuple(t.dims, random.Random(seed))))
    assert rep.limit_type == kind
    assert rep.distinguished_factor == (factor if kind == "iv" else None)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                         min_size=4, max_size=4), min_size=3, max_size=3))
def test_sums_of_three_terms_match_their_stabilizer_family(terms):
    t = rank_one(terms[0]) + rank_one(terms[1]) + rank_one(terms[2])
    assume(classify(t).limit_type is not None)
    assert _check_stabilizer_family(t).limit_type == "i"


@st.composite
def _report_cases(draw):
    """A concise sparse 3x3x3 draw, an orbit point, or a sigma_3 point of
    four factors, with a seed for the GL move."""
    kind = draw(st.sampled_from(("sparse", "orbit", "sigma3")))
    if kind == "sparse":
        t = sparse_draw(random.Random(draw(st.integers(0, 10 ** 6))))
        assume(multilinear_rank(t) == (3, 3, 3))
    elif kind == "orbit":
        t = orbit_representative(draw(st.sampled_from(ORBIT_IDS)))
    else:
        family = draw(st.sampled_from(("i", "ii", "iii", "iv")))
        t = sigma3_point(family, 4, factor=draw(st.integers(1, 4)))
    return t, draw(st.integers(0, 10 ** 6))


def _without_witnesses(rep):
    d = rep.as_dict()
    del d["witnesses"]
    return d


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_report_cases())
def test_whole_reports_are_gl_invariant(case):
    t, seed = case
    moved = apply_gl(t, random_gl_tuple(t.dims, random.Random(seed)))
    assert _without_witnesses(classify(moved)) == _without_witnesses(classify(t))
