"""Self-tests of the benchmark: its checker catches wrong answers and its
tracer leaves the package unpatched, also after an operation raised."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench  # noqa: E402

bench.import_package()

import tracer  # noqa: E402
import workloads  # noqa: E402


def _failed_ratio(ops):
    m = bench.measure(ops, 0)
    return len(m.failures) / m.attempted


def test_corrupted_expectation_raises_failed_ratio(monkeypatch):
    assert _failed_ratio(workloads.generate("catalog", 0)) == 0
    rank, ltype, factor, stab = workloads.CATALOG[39]
    monkeypatch.setitem(workloads.CATALOG, 39, (rank + 1, ltype, factor, stab))
    ops = workloads.generate("catalog", 0)
    assert _failed_ratio(ops) >= 10 / len(ops)


def _traced_names():
    out = {}
    for modname, attr, _ in tracer.TRACED:
        owner = sys.modules[modname]
        if "." in attr:
            cls, attr = attr.split(".")
            owner = getattr(owner, cls)
        out[(modname, attr)] = owner.__dict__[attr]
    for mod in tracer._package_modules():
        for key, value in vars(mod).items():
            out[(mod.__name__, key)] = value
    vs = sys.modules["border3.limits"].VectorSeries
    out["from_polynomial"] = vs.__dict__["from_polynomial"]
    return out


def test_tracer_restores_names_when_an_operation_raises():
    from border3 import classifier, cli

    before = _traced_names()
    tr = tracer.Tracer()
    with pytest.raises(AttributeError):
        with tr.installed():
            assert cli.main is not before[("border3.cli", "main")]
            classifier.classify(None)
    assert _traced_names() == before
    assert tr.calls["classifier.classify"] == 1
    assert tr.spans and tr.spans[0][2] == "classifier.classify"


def test_self_time_never_exceeds_busy_time():
    ops = workloads.generate("limits", 0)[:6]
    tr = tracer.Tracer()
    with tr.installed():
        m = bench.measure(ops, 0)
    assert not m.failures
    assert tr.calls["cli.main"] + len(
        [op for op in ops if op.label == "limit_config"]) == len(ops)
    for name, busy in tr.busy.items():
        assert 0 <= tr.self_time[name] <= busy + 1e-9
