"""Run the hankelinv CLI under the benchmark's span tracer.

    python3 perfbench/cli_child.py SPANS_FILE CLI_ARGS...

Behaves like ``python -m hankelinv CLI_ARGS...`` (same output, same exit
code), and also writes to SPANS_FILE, as JSON, the time spent importing
``hankelinv.cli``, the time from this script's start to the end of ``main``,
and the child's spans and call counts for the parent to merge.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter


def run(spans_file: str, argv: list[str]) -> int:
    start = perf_counter()
    from spans import Tracer

    t0 = perf_counter()
    import hankelinv.cli

    import_s = perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    code = 1
    try:
        with tracer.span("cli.main"):
            code = hankelinv.cli.main(argv)
    finally:
        child_s = perf_counter() - start
        tracer.uninstall()
        with open(spans_file, "w") as out:
            json.dump({**tracer.export(), "import_s": import_s, "child_s": child_s}, out)
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2:]))
