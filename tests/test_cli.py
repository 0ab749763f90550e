import contextlib
import io
import json
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from border3 import classifier, cli
from border3.cli import main
from border3.normal_forms import ORBIT_IDS, ORBIT_INFO, orbit_representative
from border3.tensor import (
    apply_gl, dumps_tensor, loads_tensor, random_gl_tuple, tensor_from_json,
    tensor_to_json,
)


def run_cli(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_generate_orbit_classify_round_trip(capsys, monkeypatch):
    for oid in ORBIT_IDS:
        code, out, _ = run_cli(capsys, ["generate", "--type", "orbit",
                                        "--orbit", str(oid)])
        assert code == 0
        blob = json.loads(out)
        # bit-exact round trip through the parser
        assert tensor_to_json(tensor_from_json(blob)) == blob
        code, out, _ = run_cli(capsys, ["classify", "-"], stdin=out,
                               monkeypatch=monkeypatch)
        assert code == 0
        report = json.loads(out)
        assert report["orbit_id"] == oid
        assert report["border_rank_class"] == 3
        assert report["rank"] == ORBIT_INFO[oid]["rank"]


def test_generate_sigma3_types_recover_labels(capsys, monkeypatch):
    for kind in ("i", "ii", "iii"):
        code, out, _ = run_cli(capsys, ["generate", "--type", kind, "--n", "3"])
        assert code == 0
        code, out, _ = run_cli(capsys, ["classify"], stdin=out,
                               monkeypatch=monkeypatch)
        assert code == 0
        assert json.loads(out)["limit_type"] == kind
    for factor in (1, 2, 3):
        code, out, _ = run_cli(capsys, ["generate", "--type", "iv",
                                        "--factor", str(factor)])
        assert code == 0
        code, out, _ = run_cli(capsys, ["classify"], stdin=out,
                               monkeypatch=monkeypatch)
        assert code == 0
        report = json.loads(out)
        assert report["limit_type"] == "iv"
        assert report["distinguished_factor"] == factor


def test_generate_sigma2_and_dims(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["generate", "--type", "sigma2", "--n", "4"])
    assert code == 0
    t = loads_tensor(out)
    assert t.dims == (2, 2, 2, 2)
    code, out, _ = run_cli(capsys, ["classify"], stdin=out,
                           monkeypatch=monkeypatch)
    assert code == 0
    report = json.loads(out)
    assert report["border_rank_class"] == 2
    assert report["sigma2_support"] == [1, 2, 3, 4]
    code, out, _ = run_cli(capsys, ["generate", "--type", "iii",
                                    "--dims", "3,4,5"])
    assert code == 0
    assert loads_tensor(out).dims == (3, 4, 5)


def test_generate_option_validation(capsys):
    bad_calls = [
        ["generate", "--type", "orbit"],
        ["generate", "--type", "i", "--orbit", "37"],
        ["generate", "--type", "ii", "--factor", "2"],
        ["generate", "--type", "i", "--n", "4", "--dims", "3,3,3"],
        ["generate", "--type", "i", "--dims", "3,x,3"],
        ["generate", "--type", "orbit", "--orbit", "37", "--dims", "3,3,4"],
        ["generate", "--type", "nope"],
    ]
    for argv in bad_calls:
        code, out, err = run_cli(capsys, argv)
        assert code == 1, argv
        assert err


@pytest.mark.parametrize("kind,n", [("i", 40), ("ii", 40), ("iii", 40),
                                    ("iv", 40), ("sigma2", 64)])
def test_generate_beyond_the_entry_guard_is_a_usage_error(capsys, kind, n):
    code, out, err = run_cli(capsys, ["generate", "--type", kind, "--n", str(n)])
    assert code == 1 and not out
    assert "entry guard" in err and err.count("\n") == 1


def test_generate_far_beyond_the_entry_guard_prints_a_short_error(capsys):
    code, out, err = run_cli(capsys, ["generate", "--type", "sigma2",
                                      "--n", "100000"])
    assert code == 1 and not out
    assert "entry guard" in err and "100000 factors" in err
    assert len(err.encode()) < 300 and err.count("\n") == 1


def test_classify_random_dense_is_greater_than_3(capsys, monkeypatch):
    rng = random.Random(11)
    blob = json.dumps({"dims": [3, 3, 3],
                       "entries": [str(rng.randrange(1, 100)) for _ in range(27)]})
    code, out, _ = run_cli(capsys, ["classify"], stdin=blob,
                           monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out)["border_rank_class"] == "greater_than_3"


def test_classify_malformed_input(capsys, monkeypatch):
    code, _, err = run_cli(capsys, ["classify"], stdin="not json",
                           monkeypatch=monkeypatch)
    assert code == 1 and err
    blob = json.dumps({"dims": [2, 2], "entries": ["1", "0", "0"]})
    code, _, err = run_cli(capsys, ["classify"], stdin=blob,
                           monkeypatch=monkeypatch)
    assert code == 1 and err
    code, _, err = run_cli(capsys, ["classify", "/nonexistent/file.json"])
    assert code == 1 and err


def test_strassen_verb(capsys, monkeypatch, tmp_path):
    code, out, _ = run_cli(capsys, ["generate", "--type", "i"])
    assert code == 0
    path = tmp_path / "diag.json"
    path.write_text(out)
    code, out, _ = run_cli(capsys, ["strassen", str(path), "--jacobian"])
    assert code == 0
    report = json.loads(out)
    assert report["all_zero"] is True
    assert len(report["values"]) == 27
    assert report["jacobian_rank"] == 6
    rng = random.Random(4)
    blob = json.dumps({"dims": [3, 3, 3],
                       "entries": [str(rng.randrange(1, 30)) for _ in range(27)]})
    code, out, _ = run_cli(capsys, ["strassen"], stdin=blob,
                           monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out)["all_zero"] is False
    blob = json.dumps({"dims": [2, 2, 2], "entries": ["1"] * 8})
    code, _, err = run_cli(capsys, ["strassen"], stdin=blob,
                           monkeypatch=monkeypatch)
    assert code == 1 and err


def test_rank_verb_and_overflow(capsys, monkeypatch, tmp_path):
    code, out, _ = run_cli(capsys, ["generate", "--type", "orbit",
                                    "--orbit", "38"])
    path = tmp_path / "t38.json"
    path.write_text(out)
    code, out, _ = run_cli(capsys, ["rank", str(path), "--field", "2"])
    assert code == 0
    assert json.loads(out)["rank"] == 4
    code, out, _ = run_cli(capsys, ["rank", str(path), "--field", "2",
                                    "--rmax", "3"])
    assert code == 0
    report = json.loads(out)
    assert report["rank"] is None and report["greater_than"] == 3
    # a rank decided without a search, by a square concise core, obeys
    # --rmax as a searched one does
    eye = json.dumps({"dims": [3, 3, 1],
                      "entries": [str(int(i == j)) for i in range(3)
                                  for j in range(3)]})
    code, out, _ = run_cli(capsys, ["rank", "-", "--field", "2", "--rmax",
                                    "2"], stdin=eye, monkeypatch=monkeypatch)
    assert code == 0
    report = json.loads(out)
    assert report["rank"] is None and report["greater_than"] == 2
    # --jobs is accepted and ignored
    code, out, _ = run_cli(capsys, ["rank", str(path), "--field", "3",
                                    "--jobs", "2"])
    assert code == 0
    assert json.loads(out)["rank"] == 4
    assert (0, out) == run_cli(capsys, ["rank", str(path), "--field", "3"])[:2]
    rng = random.Random(3)
    blob = json.dumps({"dims": [4, 3, 3],
                       "entries": [str(rng.randrange(1, 9)) for _ in range(36)]})
    code, _, err = run_cli(capsys, ["rank", "-", "--field", "2"], stdin=blob,
                           monkeypatch=monkeypatch)
    assert code == 3 and "search" in err
    code, _, err = run_cli(capsys, ["rank", str(path), "--field", "7"])
    assert code == 1
    code, _, err = run_cli(capsys, ["rank", str(path), "--field", "2",
                                    "--rmax", "9"])
    assert code == 1 and err


def test_stabilizer_verb(capsys, monkeypatch):
    for oid in (37, 39):
        code, out, _ = run_cli(capsys, ["generate", "--type", "orbit",
                                        "--orbit", str(oid)])
        code, out, _ = run_cli(capsys, ["stabilizer"], stdin=out,
                               monkeypatch=monkeypatch)
        assert code == 0
        report = json.loads(out)
        assert report["stabilizer_dim"] == ORBIT_INFO[oid]["stabilizer_dim"]
        assert report["orbit_dim"] == ORBIT_INFO[oid]["orbit_dim"]
    blob = dumps_tensor(loads_tensor(
        json.dumps({"dims": [2, 2], "entries": ["0"] * 4})))
    code, out, err = run_cli(capsys, ["stabilizer"], stdin=blob,
                             monkeypatch=monkeypatch)
    assert code == 1 and not out
    assert err == "error: the zero tensor has no projective orbit\n"


@pytest.mark.parametrize("oid, stab, orbit", [
    (34, 10, 16), (35, 10, 16), (36, 10, 16), (37, 8, 18), (38, 7, 19),
    (39, 6, 20),
])
def test_stabilizer_verb_builds_one_matrix(capsys, monkeypatch, oid, stab, orbit):
    builds = []
    build = classifier._stabilizer_matrix
    monkeypatch.setattr(classifier, "_stabilizer_matrix",
                        lambda t: builds.append(t) or build(t))
    t = apply_gl(orbit_representative(oid),
                 random_gl_tuple((3, 3, 3), random.Random(oid)))
    code, out, _ = run_cli(capsys, ["stabilizer"], stdin=dumps_tensor(t),
                           monkeypatch=monkeypatch)
    assert code == 0 and len(builds) == 1
    assert json.loads(out) == {"dims": [3, 3, 3], "stabilizer_dim": stab,
                               "orbit_dim": orbit}


def _limit_config(curves, **extra):
    cfg = {"model": {"kind": "segre", "dims": [3, 3, 3]}, "curves": curves}
    cfg.update(extra)
    return json.dumps(cfg)


def test_limit_verb_type_iii_config(capsys, monkeypatch, tmp_path):
    v = [1, 2, 1, 1, 1, -1]
    w = [1, 1, 2, 1, 1, 2]
    zero = [0] * 6
    cfg = _limit_config([[zero], [zero, v], [zero, [3 * c for c in v], w]])
    path = tmp_path / "cfg.json"
    path.write_text(cfg)
    code, out, _ = run_cli(capsys, ["limit", str(path)])
    assert code == 0
    report = json.loads(out)
    assert report["degenerate"] is False
    assert report["orders"] == [0, 1, 2]
    assert report["leading_order"] == 3
    assert len(report["plane"]) == 3 and len(report["plane"][0]) == 27
    sample = report["sample"]
    assert sample["classification"]["border_rank_class"] == 3
    assert sample["classification"]["orbit_id"] == 37


def test_limit_verb_seed_determinism(capsys, monkeypatch):
    v = [1, 0, 1, 1, 0, 1]
    zero = [0] * 6
    cfg = _limit_config([[zero], [zero, v], [[0, 1, 1, 0, 2, 0]]])
    outs = []
    for _ in range(2):
        monkeypatch.setenv("BORDER3_SEED", "5")
        code, out, _ = run_cli(capsys, ["limit"], stdin=cfg,
                               monkeypatch=monkeypatch)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    monkeypatch.setenv("BORDER3_SEED", "6")
    code, out, _ = run_cli(capsys, ["limit"], stdin=cfg, monkeypatch=monkeypatch)
    assert code == 0
    changed = json.loads(out)
    same = json.loads(outs[0])
    assert changed["plane"] == same["plane"]  # the plane itself is seed-free
    assert changed["sample"]["coefficients"] != same["sample"]["coefficients"]


@pytest.mark.parametrize("seed", ["abc", "1.5"])
def test_limit_verb_refuses_a_non_integer_seed(capsys, monkeypatch, seed):
    def no_plane(*args):
        raise AssertionError("the plane was computed before the seed was read")

    monkeypatch.setattr(cli, "chart_limit_plane", no_plane)
    monkeypatch.setenv("BORDER3_SEED", seed)
    cfg = _limit_config([[[0] * 6], [[0] * 6, [1, 0, 1, 1, 0, 1]], [[0, 1, 1, 0, 2, 0]]])
    code, out, err = run_cli(capsys, ["limit"], stdin=cfg, monkeypatch=monkeypatch)
    assert code == 1 and not out
    assert "BORDER3_SEED" in err and repr(seed) in err and err.count("\n") == 1


def test_limit_verb_degenerate_and_bad_config(capsys, monkeypatch):
    zero = [0] * 6
    rng = random.Random(31)
    # three identical curves: the wedge is identically zero, at any degree
    tall = [zero] + [[rng.randint(-3, 3) for _ in range(6)] for _ in range(9)]
    # 1x1x1 Segre is a point with a chart of width 0: all three curves stay
    # at its one ambient point, so they span a line and the wedge is zero
    point = json.dumps({"model": {"kind": "segre", "dims": [1, 1, 1]},
                        "curves": [[[]]] * 3})
    cfgs = [_limit_config([c, c, c]) for c in ([zero, [1, 2, 0, 1, 0, 1]], tall)]
    for cfg in cfgs + [point]:
        code, out, _ = run_cli(capsys, ["limit"], stdin=cfg,
                               monkeypatch=monkeypatch)
        assert code == 0
        report = json.loads(out)
        assert report["degenerate"] is True
        assert report["plane"] == [] and report["sample"] is None
    bad = [
        "not json",
        json.dumps({"model": {"kind": "mystery"}, "curves": [[zero]] * 3}),
        json.dumps({"model": {"kind": "segre", "dims": [3, 3, 3]},
                    "curves": [[zero]] * 2}),
        json.dumps({"model": {"kind": "segre", "dims": [3, 3, 3]}}),
    ]
    for blob in bad:
        code, _, err = run_cli(capsys, ["limit"], stdin=blob,
                               monkeypatch=monkeypatch)
        assert code == 1 and err


def test_limit_verb_non_tensor_model(capsys, monkeypatch):
    # grassmann planes come back without a tensor classification
    cfg = json.dumps({
        "model": {"kind": "grassmann", "k": 2, "n": 4},
        "curves": [
            [[0, 0, 0, 0]],
            [[0, 0, 0, 0], [1, 0, 0, 1]],
            [[0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 1, 0]],
        ],
    })
    code, out, _ = run_cli(capsys, ["limit"], stdin=cfg, monkeypatch=monkeypatch)
    assert code == 0
    report = json.loads(out)
    assert report["degenerate"] is False
    assert report["sample"]["classification"] is None


def test_unknown_verb_is_usage_error(capsys):
    code, _, err = run_cli(capsys, ["frobnicate"])
    assert code == 1 and err


@pytest.mark.parametrize("argv", [
    ["classify"], ["rank", "--field", "2"], ["stabilizer"], ["strassen"],
    ["limit"],
])
def test_zero_denominator_is_a_usage_error(capsys, monkeypatch, argv):
    if argv == ["limit"]:
        stdin = _limit_config([[[0] * 6], [[0] * 6, ["1/0"] + [1] * 5],
                               [[0] * 6, [1] * 6]])
    else:
        stdin = json.dumps({"dims": [2, 2, 2], "entries": ["1/0"] + ["1"] * 7})
    code, out, err = run_cli(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)
    assert code == 1 and not out
    assert "zero denominator" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["classify"], ["rank", "--field", "2"], ["stabilizer"], ["strassen"],
    ["limit"], ["generate", "--type", "i", "--n", "13"], ["stabilizer", "-"],
])
def test_oversized_input_is_a_usage_error(capsys, monkeypatch, argv):
    if argv == ["limit"]:
        # the wedge degree bound is 3 * 999 + 1; embedding the long curve
        # alone takes seconds
        stdin = _limit_config([[[0] * 6], [[1] * 6] * 1000, [[0] * 6, [1] * 6]])
    elif argv == ["stabilizer", "-"]:
        # 900 entries pass the entry guard, but the stabilizer matrix would
        # have 900 * 1800 cells; building and ranking it takes minutes
        rng = random.Random(30)
        stdin = json.dumps({"dims": [30, 30],
                            "entries": [str(rng.randint(-9, 9)) for _ in range(900)]})
    else:
        stdin = json.dumps({"dims": [1000, 1000, 10], "entries": []})
    start = time.perf_counter()
    code, out, err = run_cli(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and not out
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["classify"], ["rank", "--field", "2"], ["stabilizer"], ["strassen"],
    ["limit"],
])
def test_exponent_notation_is_a_usage_error(capsys, monkeypatch, argv):
    # Fraction("1e10000000") builds a ten-million-digit integer: seconds
    if argv == ["limit"]:
        stdin = _limit_config([[[0] * 6], [[0] * 6, ["1e10000000"] + [1] * 5],
                               [[0] * 6, [1] * 6]])
    else:
        stdin = json.dumps({"dims": [1, 1, 1], "entries": ["1e10000000"]})
    start = time.perf_counter()
    code, out, err = run_cli(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and not out
    assert err.startswith("error:") and err.count("\n") == 1
    assert "exponent" in err


@pytest.mark.parametrize("argv", [
    ["classify"], ["rank", "--field", "2"], ["stabilizer"], ["strassen"],
])
@pytest.mark.parametrize("blob", [
    {"dims": [2.9, True], "entries": ["1", "2"]},
    {"dims": "33", "entries": ["1"] * 9},
    {"dims": [2.0, 2], "entries": ["1"] * 4},
    {"dims": ["2", "2"], "entries": ["1"] * 4},
])
def test_non_integer_dims_are_a_usage_error(capsys, monkeypatch, argv, blob):
    code, out, err = run_cli(capsys, argv, stdin=json.dumps(blob),
                             monkeypatch=monkeypatch)
    assert code == 1 and not out
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["classify"], ["rank", "--field", "2"], ["stabilizer"], ["strassen"],
])
@pytest.mark.parametrize("blob", [
    {"dims": [3], "entries": "123"},
    {"dims": [3], "entries": {"1": 0, "2": 0, "3": 0}},
])
def test_non_list_entries_are_a_usage_error(capsys, monkeypatch, argv, blob):
    # iterating a string reads its characters, and an object its keys
    code, out, err = run_cli(capsys, argv, stdin=json.dumps(blob),
                             monkeypatch=monkeypatch)
    assert code == 1 and not out
    assert err.startswith("error:") and err.count("\n") == 1


# prec: one long curve alone pushes the wedge degree bound (the truncation
# order) past MAX_PREC; max_prec: each curve is under the cap, their sum is not
@pytest.mark.parametrize("model, width, lengths", [
    ({"kind": "segre", "dims": [200, 200, 200]}, 597, (1, 2, 1)),
    ({"kind": "segre", "dims": [2] * 7}, 7, (1, 2, 1)),
    ({"kind": "grassmann", "k": 5, "n": 100}, 475, (1, 2, 1)),
    ({"kind": "lagrangian", "k": 7}, 28, (1, 2, 1)),
    ({"kind": "spinor", "k": 10 ** 18}, 1, (1, 2, 1)),
    ({"kind": "segre", "dims": [3, 3, 3]}, 6, (1, 400, 1)),
    ({"kind": "segre", "dims": [3, 3, 3]}, 6, (200, 200, 200)),
], ids=["segre-200^3", "segre-2^7", "grassmann-5-100", "lagrangian-7",
        "spinor-10^18", "prec", "max_prec"])
def test_limit_refuses_oversized_models_at_once(capsys, monkeypatch, model, width, lengths):
    curves = [[[int(i == 2)] * width] + [[1] * width] * (n - 1)
              for i, n in enumerate(lengths)]
    stdin = json.dumps({"model": model, "curves": curves})
    start = time.perf_counter()
    code, out, err = run_cli(capsys, ["limit"], stdin=stdin, monkeypatch=monkeypatch)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and not out
    assert err.startswith("error:") and err.count("\n") == 1
    assert "capped at" in err


def _first_axes(width):
    """Three one-term curves: the origin and the first two tangent axes."""
    return [[[int(j == i) for j in range(width)]] for i in (-1, 0, 1)]


# each config is read with exit 0 when its numbers are truncated by int()
@pytest.mark.parametrize("cfg", [
    {"model": {"kind": "segre", "dims": [2.9, True, 3.5]}, "curves": _first_axes(3)},
    {"model": {"kind": "segre", "dims": [2.0, 2, 2]}, "curves": _first_axes(3)},
    {"model": {"kind": "segre", "dims": ["2", "2", "2"]}, "curves": _first_axes(3)},
    {"model": {"kind": "segre", "dims": "222"}, "curves": _first_axes(3)},
    {"model": {"kind": "grassmann", "k": 2.0, "n": 4}, "curves": _first_axes(4)},
    {"model": {"kind": "grassmann", "k": 2, "n": "4"}, "curves": _first_axes(4)},
    {"model": {"kind": "lagrangian", "k": 2.5}, "curves": _first_axes(3)},
    {"model": {"kind": "spinor", "k": "4"}, "curves": _first_axes(6)},
], ids=["segre-float-bool", "segre-2.0", "segre-strings", "segre-string",
        "grassmann-k", "grassmann-n", "lagrangian-k", "spinor-k"])
def test_non_integer_limit_numbers_are_a_usage_error(capsys, monkeypatch, cfg):
    code, out, err = run_cli(capsys, ["limit"], stdin=json.dumps(cfg),
                             monkeypatch=monkeypatch)
    assert code == 1 and not out
    assert err.startswith("error:") and err.count("\n") == 1
    assert "integer" in err


@pytest.mark.parametrize("curves", [
    [["000"], ["100"], ["010"]],
    [[[0, 0, 0]], ["100"], [[0, 1, 0]]],
    [[[0, 0, 0]], [[1, 0, 0]], [{"0": 0, "1": 1, "2": 0}]],
], ids=["strings", "one-string", "object"])
def test_curve_vectors_must_be_lists(capsys, monkeypatch, curves):
    cfg = {"model": {"kind": "segre", "dims": [2, 2, 2]}, "curves": curves}
    code, out, err = run_cli(capsys, ["limit"], stdin=json.dumps(cfg),
                             monkeypatch=monkeypatch)
    assert code == 1 and not out
    assert err.startswith("error:") and err.count("\n") == 1
    assert "must be a list" in err


def test_main_reuses_one_parser_across_calls(capsys, monkeypatch):
    assert cli._build_parser() is cli._build_parser()
    cli._build_parser.cache_clear()
    t = dumps_tensor(orbit_representative(38))
    calls = [
        (["classify"], t), (["rank", "--field", "3"], t), (["frobnicate"], None),
        (["strassen", "--jacobian"], t), (["rank", "--field", "7"], t),
        (["generate", "--type", "iv", "--factor", "2"], None),
        (["stabilizer"], t), (["generate", "--type", "orbit"], None),
        (["classify"], "not json"), (["limit"], _limit_config([[[0] * 6]])),
    ]
    forward = [run_cli(capsys, argv, stdin, monkeypatch) for argv, stdin in calls]
    backward = [run_cli(capsys, argv, stdin, monkeypatch)
                for argv, stdin in reversed(calls)]
    assert forward == backward[::-1]
    assert [code for code, _, _ in forward] == [0, 0, 1, 0, 1, 0, 0, 1, 1, 1]


_TENSOR = dumps_tensor(orbit_representative(37))
_VALID = {
    "classify": ([], _TENSOR),
    "generate": (["--type", "orbit", "--orbit", "37"], None),
    "strassen": (["--jacobian"], _TENSOR),
    "limit": ([], _limit_config([[[0] * 6], [[1, 0, 0, 0, 0, 0]],
                                 [[0, 1, 0, 0, 0, 0]]])),
    "rank": (["--field", "2"], _TENSOR),
    "stabilizer": ([], _TENSOR),
}
_EQUIVALENCE_CASES = [
    *([verb, *argv] for verb, (argv, _) in _VALID.items()),
    *([verb, "-h"] for verb in _VALID),
    *([verb, *argv, "--bogus"] for verb, (argv, _) in _VALID.items()),
    ["rank"], ["rank", "--field", "2", "--jac"], ["strassen", "--jac"],
    ["generate", "--ty", "orbit", "--orb", "38"], [], ["-h"], ["frobnicate"],
]


def _outcome(capsys, monkeypatch, argv):
    """(exit code, stdout, stderr) of main(argv); -h exits by SystemExit."""
    verb = argv[0] if argv else None
    stdin = _VALID[verb][1] if verb in _VALID else None
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin or ""))
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = ("exit", exc.code)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("argv", _EQUIVALENCE_CASES, ids=" ".join)
def test_verb_parser_matches_the_full_parser(capsys, monkeypatch, argv):
    parser, verbs = cli._build_parser()
    full_calls = []
    parse_args = parser.parse_args
    monkeypatch.setattr(parser, "parse_args",
                        lambda a: full_calls.append(a) or parse_args(a))
    direct = _outcome(capsys, monkeypatch, argv)
    # a known verb never reaches the full parser
    assert bool(full_calls) == (not argv or argv[0] not in verbs)
    monkeypatch.setattr(cli, "_build_parser", lambda: (parser, {}))
    assert _outcome(capsys, monkeypatch, argv) == direct


def test_main_reads_sys_argv_into_the_verb_parser(capsys, monkeypatch):
    parser, _ = cli._build_parser()

    def refuse(argv):
        raise AssertionError("the full parser was used")

    monkeypatch.setattr(parser, "parse_args", refuse)
    monkeypatch.setattr("sys.argv", ["border3", "generate", "--type", "orbit",
                                     "--orbit", "36"])
    assert main() == 0
    assert loads_tensor(capsys.readouterr().out) == orbit_representative(36)


_FUZZ_VERBS = (
    ["classify"], ["rank", "--field", "2"], ["rank", "--field", "3"],
    ["rank", "--field", "5"], ["strassen"], ["strassen", "--jacobian"],
    ["stabilizer"],
)

_json_atoms = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 4), st.integers(),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4),
    st.sampled_from(["1/0", "1/2", "-3", "x", "1e999", "", " 2 "]))


@st.composite
def _tensor_texts(draw):
    """Small valid tensors up to 3x3x3, malformed tensor JSON, or non-JSON."""
    kind = draw(st.sampled_from(("valid", "malformed", "text")))
    if kind == "valid":
        dims = draw(st.one_of(
            st.just([3, 3, 3]),
            st.lists(st.integers(1, 3), min_size=1, max_size=3)))
        n = 1
        for d in dims:
            n *= d
        entries = draw(st.lists(
            st.one_of(st.just(0), st.integers(-3, 3),
                      st.sampled_from(["1/2", "-2/3"])),
            min_size=n, max_size=n))
        return json.dumps({"dims": dims, "entries": entries})
    if kind == "text":
        return draw(st.one_of(st.text(max_size=12), st.sampled_from(
            ['{"dims": [2, 2]', "[]", "null", '{"dims": [2], "entries"}'])))
    dims = draw(st.one_of(
        _json_atoms,
        st.lists(st.one_of(st.integers(-2, 4), _json_atoms), max_size=4),
        st.lists(st.sampled_from([10 ** 3, 10 ** 7, 10 ** 40, -1, 0]),
                 min_size=1, max_size=3)))
    entries = draw(st.one_of(
        _json_atoms, st.lists(_json_atoms, max_size=8),
        st.lists(st.integers(-3, 3), max_size=8),
        st.dictionaries(st.text(max_size=2), _json_atoms, max_size=2)))
    obj = {"dims": dims, "entries": entries}
    for key in draw(st.sets(st.sampled_from(("dims", "entries")), max_size=1)):
        del obj[key]
    return json.dumps(obj)


_HUGE = st.sampled_from([10 ** 6, 10 ** 9, 10 ** 18, 10 ** 40])

# model JSON small enough to run
_SMALL_MODELS = (
    [{"kind": "segre", "dims": d}
     for d in ([3, 3, 3], [2, 2], [2, 3, 2], [1, 3], [2, 2, 2, 2])]
    + [{"kind": "grassmann", "k": k, "n": n} for k, n in ((1, 3), (2, 4), (2, 5))]
    + [{"kind": "lagrangian", "k": k} for k in (1, 2, 3)]
    + [{"kind": "spinor", "k": k} for k in (2, 4, 5)])


@st.composite
def _limit_texts(draw):
    """Limit configs: small valid ones (some with wrong curve lengths), huge
    models or curves too long for the wedge degree cap, non-integer model
    numbers, string coefficient vectors, malformed models and curves, or
    non-JSON."""
    kind = draw(st.sampled_from(("valid", "huge", "loose", "malformed", "text")))
    if kind == "text":
        return draw(st.one_of(st.text(max_size=12), st.sampled_from(
            ["[]", "null", '{"model": {"kind": "segre"}', '{"curves": []}'])))
    if kind == "malformed":
        model = draw(st.one_of(_json_atoms, st.fixed_dictionaries({
            "kind": st.one_of(_json_atoms, st.sampled_from(
                ["segre", "grassmann", "lagrangian", "spinor", "flag"])),
            "dims": st.one_of(_json_atoms, st.lists(_json_atoms, max_size=3)),
            "k": _json_atoms, "n": _json_atoms})))
        curves = draw(st.one_of(
            _json_atoms, st.lists(_json_atoms, max_size=3),
            st.lists(st.lists(st.one_of(_json_atoms, st.lists(_json_atoms, max_size=3)),
                              max_size=2), max_size=4)))
        return json.dumps({"model": model, "curves": curves})
    model = draw(st.sampled_from(_SMALL_MODELS))
    width = cli._model_from_json(model).tangent_dim
    cfg = {"model": model}
    long = None
    if kind == "huge":
        key = draw(st.sampled_from(("dims", "k", "n", "curve")))
        if key == "dims":
            cfg["model"] = {"kind": "segre", "dims": draw(st.lists(
                _HUGE | st.integers(1, 3), min_size=1, max_size=3))}
        elif key in ("k", "n"):
            cfg["model"] = {
                "kind": draw(st.sampled_from(("grassmann", "lagrangian", "spinor"))),
                "k": draw(_HUGE | st.integers(1, 12)), "n": draw(_HUGE)}
            cfg["model"][key] = draw(_HUGE)
        else:
            long = draw(st.integers(1025, 3000))
    elif kind == "loose":
        loose = st.sampled_from([2.0, 2.9, 3.5, True, False, "3", "8", 9.7])
        key = draw(st.sampled_from(("dims", "k", "n")))
        if key == "dims":
            dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
            dims[draw(st.integers(0, len(dims) - 1))] = draw(loose)
            cfg["model"] = {"kind": "segre", "dims": dims}
        else:
            cfg["model"] = {
                "kind": draw(st.sampled_from(("grassmann", "lagrangian", "spinor"))),
                "k": draw(st.integers(1, 4)), "n": draw(st.integers(2, 6))}
            cfg["model"][key] = draw(loose)
    else:
        width += draw(st.sampled_from([0, 0, 0, -1, 1]))
    entry = st.one_of(st.integers(-2, 2), st.sampled_from(["1/2", "-3"]))
    vector = st.lists(entry, min_size=max(width, 0), max_size=max(width, 0))
    if kind == "loose":
        vector |= st.text("0123-/", min_size=1, max_size=max(width, 1))
    cfg["curves"] = draw(st.lists(st.lists(vector, min_size=1, max_size=3),
                                  min_size=3, max_size=3))
    if long:
        cfg["curves"][0] += [cfg["curves"][0][-1]] * long
    return json.dumps(cfg)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(st.one_of(st.tuples(st.sampled_from(_FUZZ_VERBS), _tensor_texts()),
                 st.tuples(st.just(["limit"]), _limit_texts())))
def test_cli_fuzz_exits_with_a_documented_code(case):
    argv, text = case
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    assert code in (0, 1, 2, 3)
    if code in (1, 3):
        assert err.getvalue().startswith("error:") and not out.getvalue()


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text() | st.sampled_from(["", "é", "☃", "\U0001f600", "\"\\/\n\t\x00"]),
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=3).map(tuple)
                      | st.dictionaries(st.text(max_size=3), children, max_size=4)
                      | st.dictionaries(st.integers(), children, max_size=2)),
    max_leaves=24)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_json_values)
def test_json_writer_matches_json_dumps(obj):
    assert cli._json_text(obj) == json.dumps(obj, indent=2)


def _verb_cases():
    """(argv, stdin) for every verb on a fixed input."""
    moved = apply_gl(orbit_representative(37), random_gl_tuple((3, 3, 3), random.Random(3)))
    scaled = dumps_tensor(Fraction(-2, 3) * moved)
    v, w, zero = [1, 2, 1, 1, 1, -1], [1, 1, 2, 1, 1, 2], [0] * 6
    cfg = _limit_config([[zero], [zero, v], [zero, [3 * c for c in v], w]])
    return [
        (["classify"], dumps_tensor(moved)),
        (["classify"], scaled),
        (["classify"], json.dumps({"dims": [3, 3, 3], "entries": [
            str(Fraction(k ** 3 % 23 - 11, k % 4 + 1)) for k in range(27)]})),
        (["generate", "--type", "orbit", "--orbit", "36"], None),
        (["generate", "--type", "iv", "--n", "4", "--factor", "2"], None),
        (["strassen", "--jacobian"], scaled),
        (["limit"], cfg),
        (["rank", "--field", "3"], dumps_tensor(orbit_representative(38))),
        (["stabilizer"], dumps_tensor(moved)),
    ]


def test_every_verb_prints_what_json_dumps_prints(capsys, monkeypatch):
    for argv, stdin in _verb_cases():
        code, out, _ = run_cli(capsys, argv, stdin, monkeypatch)
        with monkeypatch.context() as m:
            m.setattr(cli, "_emit", lambda obj: print(json.dumps(obj, indent=2)))
            want = run_cli(capsys, argv, stdin, monkeypatch)
        assert (code, out) == want[:2] and out.startswith("{")
