"""Run one border3 CLI verb in-process with swapped standard streams."""

import io
import sys


def call_cli(argv, text):
    """Returns (exit code, stdout text); the tensor JSON arrives on stdin."""
    from border3 import cli

    old = sys.stdin, sys.stdout, sys.stderr
    out = io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), out, io.StringIO()
    try:
        code = cli.main(list(argv))
    finally:
        sys.stdin, sys.stdout, sys.stderr = old
    return code, out.getvalue()
