"""tools/bench_pairs.py on fixed result dicts and small fake trees; no
benchmark runs here."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

_END_TO_END = [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
]


def _result(ops, p50, failed=0):
    return {"correct": not failed, "attempted": 100, "failed": failed,
            "metrics": {"ops_per_s": {"value": ops, "unit": "1/s"},
                        "op_p50_ms": {"value": p50, "unit": "ms"}}}


def test_summary_reads_quartiles_and_wins_in_each_direction():
    parent = [_result(100, 0.30), _result(110, 0.20), _result(90, 0.25),
              _result(120, 0.40), _result(105, 0.35)]
    change = [_result(130, 0.25), _result(100, 0.21), _result(95, 0.20),
              _result(125, 0.40), _result(140, 0.30, failed=2)]
    rows = bench_pairs.summarize(parent, change, _END_TO_END)
    assert rows == [
        ("ops_per_s", "1/s", (100, 105, 110), (100, 125, 130), 4),
        # a tie (0.40 against 0.40) is no win
        ("op_p50_ms", "ms", (0.25, 0.30, 0.35), (0.21, 0.25, 0.30), 3),
    ]
    text = bench_pairs.render(rows, parent, change)
    assert "| ops_per_s (1/s) | 105 [100, 110] | 125 [100, 130] | 4/5 |" in text
    assert "parent failed ops: 0/0/0/0/0 of 100/100/100/100/100" in text
    assert "change failed ops: 0/0/0/0/2 of" in text


def test_one_pair_has_degenerate_quartiles():
    rows = bench_pairs.summarize([_result(100, 0.3)], [_result(90, 0.2)],
                                 _END_TO_END)
    assert rows[0][2:] == ((100, 100, 100), (90, 90, 90), 0)
    assert rows[1][4] == 1


def test_pairs_alternate_the_side_that_runs_first():
    assert bench_pairs.pair_plan(3, 301) == [
        (301, ("parent", "change")), (302, ("change", "parent")),
        (303, ("parent", "change"))]


def _tree(root, bench="{}", run="print()"):
    (root / "perfbench" / "__pycache__").mkdir(parents=True)
    (root / "perfbench" / "out").mkdir()
    (root / "BENCHMARK.json").write_text(bench)
    (root / "perfbench" / "run.py").write_text(run)
    return root


def test_harness_difference_names_the_files_that_differ(tmp_path):
    a = _tree(tmp_path / "a")
    b = _tree(tmp_path / "b")
    # bytecode and spans are left behind by runs, not part of the harness
    (b / "perfbench" / "__pycache__" / "run.cpython-311.pyc").write_bytes(b"x")
    (b / "perfbench" / "out" / "spans-catalog-1.json").write_text("[]")
    assert bench_pairs.harness_difference(a, b) == []
    (b / "perfbench" / "run.py").write_text("print(1)")
    (b / "perfbench" / "extra.py").write_text("")
    (b / "BENCHMARK.json").write_text('{"run_seconds": 30}')
    assert bench_pairs.harness_difference(a, b) == [
        "BENCHMARK.json", "perfbench/extra.py", "perfbench/run.py"]


def test_differing_harnesses_run_nothing(tmp_path, capsys, monkeypatch):
    a = _tree(tmp_path / "a")
    b = _tree(tmp_path / "b", run="print(2)")
    monkeypatch.setattr(bench_pairs, "run_once", pytest.fail)
    assert bench_pairs.main([str(a), str(b), "--workload", "catalog",
                             "--seed", "1"]) == 1
    assert "perfbench/run.py" in capsys.readouterr().err
