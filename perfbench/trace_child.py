"""Run the ``fdkit`` command line with spans around fdkit's functions.

Usage: ``python3 perfbench/trace_child.py COMMAND [ARGS...]`` with fdkit
importable (``PYTHONPATH=src``).  It behaves like the ``fdkit`` script,
exit status included, and writes its spans to stderr as one last line
starting with ``perfbench-spans ``, for the traced ``cli`` workload to
collect.
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer

SPANS_MARK = "perfbench-spans "


def main() -> int:
    tracer = Tracer()
    tracer.install()
    import fdkit.cli

    code = 0
    try:
        fdkit.cli.entry()
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout.flush()
        sys.stderr.write("\n" + SPANS_MARK + json.dumps(tracer.spans) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
