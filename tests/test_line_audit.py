"""tools/line_audit.py on a toy module; no workload or test suite runs here."""

import importlib.util
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "line_audit.py"
_spec = importlib.util.spec_from_file_location("line_audit", _PATH)
line_audit = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(line_audit)

_TOY = '''"""A toy."""


def f(x):
    """Doc."""
    if x:
        return 1
    else:
        y = [
            x]
        return y


def g():
    try:
        raise ValueError
    except ValueError:
        pass
'''


def _load(path):
    spec = importlib.util.spec_from_file_location("toy", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_statements_start_on_lines_with_bytecode(tmp_path):
    path = tmp_path.resolve() / "toy.py"
    path.write_text(_TOY)
    # no function docstring, else: or except: line; a statement over two
    # lines counts once, at its first
    assert line_audit.statement_lines(path) == {
        1: '"""A toy."""', 4: "def f(x):", 6: "if x:", 7: "return 1",
        9: "y = [", 11: "return y", 14: "def g():", 15: "try:",
        16: "raise ValueError", 18: "pass"}


def test_recorder_lists_the_statements_that_never_ran(tmp_path):
    path = tmp_path.resolve() / "toy.py"
    path.write_text(_TOY)
    before = sys.gettrace()
    recorder = line_audit.LineRecorder([path])
    with recorder:
        toy = _load(path)
        assert toy.f(1) == 1
        sys.settrace(None)  # as Hypothesis does after tracing a failure
        toy.g()  # untraced
        recorder.resume()
        toy.g()
    assert sys.gettrace() is before
    assert recorder.unrun() == {str(path): {9: "y = [", 11: "return y"}}
