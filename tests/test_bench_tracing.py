"""The benchmark's traced run (`bench/run.py --trace 1`) wraps every function
named in `bench/tracing.FUNCTIONS` and fails if one of them is gone.  This
guard installs the tracer on the package in `src/` and runs one traced `phi`
and one traced `free`, so that renaming or removing a traced function fails
here first.  It runs in a child interpreter, because installing the tracer
patches module globals for the rest of the process.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"

_SCRIPT = r"""
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import srctree, tracing
glnz, sanov, checks, cli = srctree.load_package()
tracer = tracing.Tracer()
bindings = tracing.install(tracer)
machine = glnz.phi(glnz.IntMatrix([[1, 2, 0], [0, 0, 1], [0, -1, 0]]))
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["free", "--max-length", "3"])
print(json.dumps({
    "functions": tracing.FUNCTIONS,
    "bindings": bindings,
    "calls": {name: stats[0] for name, stats in tracer.stats.items()},
    "states": machine.state_count(),
    "free": [code, out.getvalue()],
}))
"""


def test_traced_benchmark_functions_resolve_and_run():
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(BENCH)],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    # install raises on a missing name; each name has at least its home binding
    assert report["bindings"] >= len(report["functions"])
    calls = report["calls"]
    # factors SignFlip(3), Transposition(2, 3), Transvection(1, 2, 2)
    assert report["states"] == 3
    for name in ("glnz.phi", "glnz.factorize", "cli.main", "checks.freeness_suite",
                 "sanov.freeness_check", "sanov.depth_conjugacy_check"):
        assert calls[name] == 1, name
    for name in ("glnz.elementary_to_automorphism", "glnz.generator_automorphism",
                 "mealy.compose", "mealy.minimize", "mealy.power", "mealy.init",
                 "mealy.act"):
        assert calls[name] >= 1, name
    assert report["free"] == [
        0,
        '{"max_length": 3, "words_checked": 52, "counterexample": null}\n'
        "no relation found; conjugacy OK\n",
    ]
