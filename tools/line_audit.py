"""The statements of ``src/border3`` that no workload pass runs.

    python3 tools/line_audit.py            # the four workloads, seed 1
    python3 tools/line_audit.py --tests    # and then the tier-1 test suite

Records executed lines with ``sys.settrace`` (and ``threading.settrace``)
alone, from before the package is imported, so module-level statements
count.  Each workload's fixed batch from ``perfbench/workloads.py`` (read,
not changed) is built at seed 1 and every operation is run and checked
once, as ``tools/answer_digest.py`` runs them.  ``--tests`` then runs
``pytest -q`` on the repository in the same process, with Hypothesis
deadlines off since tracing slows every test.

A statement is an ``ast`` statement whose first line carries bytecode, so
a function's docstring is none, and neither is an ``else:``.  Prints
``path:line: text`` for each statement that never ran and a count.  Code
run in another process, such as a CLI test's subprocess, is not seen.
Exit code 1 when the test suite fails, since its listing is then
incomplete.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "border3"


def statement_lines(path):
    """{line: stripped text} of the statements of the module at path whose
    first line carries bytecode, by increasing line."""
    source = Path(path).read_text()
    tree = ast.parse(source, str(path))
    code = compile(tree, str(path), "exec")
    lines = set()
    todo = [code]
    while todo:
        c = todo.pop()
        lines.update(line for _, _, line in c.co_lines() if line is not None)
        todo.extend(k for k in c.co_consts if isinstance(k, type(code)))
    starts = {node.lineno for node in ast.walk(tree) if isinstance(node, ast.stmt)}
    text = source.splitlines()
    return {line: text[line - 1].strip() for line in sorted(starts & lines)}


class LineRecorder:
    """The statements of some module files that run while it is active.

    A code object stops being traced once every statement line it holds
    has run, so hot code costs one call event per call and nothing more.
    """

    def __init__(self, paths):
        self.statements = {str(Path(p).resolve()): statement_lines(p) for p in paths}
        self.seen = {path: set() for path in self.statements}
        self._left = {}  # code object -> its statement lines not yet run
        self.trace = self._call  # one bound method, so gettrace() can match it

    def _call(self, frame, event, arg):
        code = frame.f_code
        left = self._left.get(code)
        if left is None:
            stmts = self.statements.get(code.co_filename)
            if stmts is None:
                return None
            left = self._left[code] = {line for _, _, line in code.co_lines()
                                       if line in stmts}
        if not left:
            return None
        seen = self.seen[code.co_filename]

        def line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
                left.discard(frame.f_lineno)
            return line

        return line

    def __enter__(self):
        self._previous = sys.gettrace(), threading.gettrace()
        threading.settrace(self.trace)
        sys.settrace(self.trace)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._previous[0])
        threading.settrace(self._previous[1])

    def resume(self):
        """Reinstall the trace function if something replaced it."""
        if sys.gettrace() is not self.trace:
            sys.settrace(self.trace)

    def unrun(self):
        """{path: {line: text}} of the statements that never ran."""
        return {path: {k: v for k, v in stmts.items() if k not in self.seen[path]}
                for path, stmts in self.statements.items()}


def run_workloads(seed=1):
    """Run and check every operation of the four workloads' batches once."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    from bench import import_package

    import_package()
    old = os.environ.get("BORDER3_SEED")
    # the limit verb samples its plane with coefficients from BORDER3_SEED
    os.environ["BORDER3_SEED"] = "0"
    try:
        for workload in workloads.WORKLOADS:
            for op in workloads.generate(workload, seed):
                try:
                    op.check(op.run())
                except Exception:  # a failing op still ran its lines
                    pass
    finally:
        if old is None:
            del os.environ["BORDER3_SEED"]
        else:
            os.environ["BORDER3_SEED"] = old


class _Retrace:
    """pytest plugin: turns Hypothesis deadlines off, and puts the trace
    function back after every test, since Hypothesis traces a failing test
    itself and then clears it."""

    def __init__(self, recorder):
        self.recorder = recorder

    def pytest_configure(self, config):
        # imported here, after pytest has set up its plugins' rewriting
        from hypothesis import settings

        settings.register_profile("line_audit", deadline=None)
        settings.load_profile("line_audit")

    def pytest_runtest_teardown(self, item):
        self.recorder.resume()


def run_tests(recorder):
    """pytest's exit code for the repository's suite, run in this process."""
    import pytest

    os.chdir(ROOT)
    return pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT)],
                       plugins=[_Retrace(recorder)])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--tests", action="store_true",
                   help="also run the tier-1 test suite")
    args = p.parse_args(argv)
    recorder = LineRecorder(sorted(PACKAGE.glob("*.py")))
    code = 0
    with recorder:
        run_workloads()
        if args.tests:
            code = run_tests(recorder)
    unrun = recorder.unrun()
    for path, lines in unrun.items():
        rel = Path(path).relative_to(ROOT)
        for line, text in lines.items():
            print(f"{rel}:{line}: {text}")
    total = sum(map(len, recorder.statements.values()))
    print(f"{sum(map(len, unrun.values()))} of {total} statements never ran "
          f"(workloads at seed 1{' and the tests' if args.tests else ''})")
    return 1 if code else 0


if __name__ == "__main__":
    sys.exit(main())
