"""Set-up cost as a one-shot shell user pays it.

Run as ``python3 setup_probe.py <src dir>`` with a JSON list of
``[argv, stdin text]`` warm-up calls on stdin: imports border3 and
border3.cli in this fresh interpreter, then makes each call once.
"""

import json
import sys

calls = json.load(sys.stdin)
sys.path.insert(0, sys.argv[1])

import border3  # noqa: E402,F401
import border3.cli  # noqa: E402,F401
from clicall import call_cli  # noqa: E402

for argv, text in calls:
    code, _ = call_cli(argv, text)
    if code != 0:
        sys.exit(f"warm-up call {argv} exited with {code}")
