"""One bcinv command-line job with spans recorded.

Usage: python3 bench/cli_job.py TRACE_FILE <bcinv arguments...>

Does what the ``bcinv`` console script does (``bcinv.cli.main``), after
timing the import of ``bcinv.cli`` and wrapping the package's functions
from outside.  Writes the import time, the module count, whether scipy was
loaded, the phase times (parse, run, serialize) and the spans to
TRACE_FILE.  Only traced benchmark runs use it.
"""

import sys
from time import perf_counter

_before = len(sys.modules)
_start = perf_counter()
import bcinv.cli  # noqa: E402

_import_s = perf_counter() - _start
_modules_loaded = len(sys.modules) - _before

import json  # noqa: E402

import tracer as tracing  # noqa: E402


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer(span_cap=1_000_000)
    tracing.install(tracer)
    tracing.install_argparse(tracer)
    tracer.begin_op(0)
    try:
        status = bcinv.cli.main(argv)
    finally:
        tracer.end_op()
        with open(trace_file, "w", encoding="utf-8") as handle:
            json.dump({"import_s": _import_s, "modules_loaded": _modules_loaded,
                       "scipy_loaded": "scipy" in sys.modules,
                       "aggregates": tracer.aggregates(),
                       "spans": tracer.span_records()}, handle)
    return status


if __name__ == "__main__":
    sys.exit(main())
