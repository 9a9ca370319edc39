"""Run one circfib CLI invocation with the tracer installed.

Usage: python3 perfbench/traced_cli.py TRACE_FILE REQUEST_ID [circfib args...]

Stdout, stderr and the exit code are the CLI's own; the trace (import time,
per-function aggregates, spans, normalizer cache counters) goes to
TRACE_FILE as JSON.
"""

import json
import sys
import time

import tracer

start = time.perf_counter()
import circfib.cli  # noqa: E402  (the import itself is measured)

import_s = time.perf_counter() - start


def main() -> int:
    trace_file, request_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    t = tracer.Tracer()
    t.request_id = request_id
    t.install()
    before = tracer.normalize_cache_info()
    code = circfib.cli.main(argv)
    after = tracer.normalize_cache_info()
    sys.stdout.flush()
    data = t.dump()
    data["import_s"] = import_s
    data["normalize_cache"] = [after[0] - before[0], after[1] - before[1]]
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
