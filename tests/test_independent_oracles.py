"""3x3x3 verdicts of classify against oracles that share no code with it:
the Koszul flattening rank, the stabilizer dimension and the intersection
scheme of the slice net, on the sparse sample; and whole reports against
those of GL-moved copies."""

import importlib.util
import random
from pathlib import Path

from hypothesis import assume, given, settings, strategies as st

from border3.classifier import (
    GREATER_THAN_3, classify, scheme_intersection_check, stabilizer_dimension,
)
from border3.normal_forms import (
    ORBIT_IDS, ORBIT_INFO, orbit_representative, sigma3_point,
)
from border3.tensor import apply_gl, make_tensor, multilinear_rank, random_gl_tuple
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
