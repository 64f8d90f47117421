"""One `verify` op in a fresh interpreter.  Started by worker.py.

Usage: child.py OP_JSON TRACE

OP_JSON is ["cli", *argv] for cli.main(argv) or ["checks", name] for a
checks suite called with its defaults.  Prints one JSON line: the
time.monotonic() at which imports were done, the op time measured around
the call, its exit code, its stdout (suite results rendered as
"name: PASS|FAIL" lines) and, with TRACE=1, the layer metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from time import perf_counter

import srctree
import tracing


def main(op_json, trace):
    _, _, checks, cli = srctree.load_package()
    ready = time.monotonic()
    tracer = None
    bindings = 0
    if trace == "1":
        tracer = tracing.Tracer()
        bindings = tracing.install(tracer)
    op = json.loads(op_json)
    out = io.StringIO()
    error = None
    code = None
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            if op[0] == "cli":
                code = cli.main(op[1:])
            else:
                results = getattr(checks, op[1])()
        op_s = perf_counter() - t0
    except Exception as exc:  # reported to the worker as a failed op
        op_s = perf_counter() - t0
        error = repr(exc)
    stdout = out.getvalue()
    if error is None and op[0] == "checks":
        if not isinstance(results, list):
            results = [results]
        stdout += "".join(f"{r.name}: {'PASS' if r.passed else 'FAIL'}\n" for r in results)
        code = 0
    print(json.dumps({
        "ready": ready,
        "op_s": op_s,
        "error": error,
        "code": code,
        "stdout": stdout,
        "trace": tracer.metrics() if tracer else None,
        "bindings": bindings,
    }))


if __name__ == "__main__":
    main(*sys.argv[1:3])
