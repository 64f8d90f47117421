"""Seeded benchmark of glnztree: the `phi`, `free` and `verify` workloads.

Usage, from the root of the tree:

    python3 bench/run.py --workload phi --seed 1 --seconds 16 --trace 0

Each run starts its workload in a process of its own (worker.py), with
GLNZ_THREADS removed from the environment, and prints two JSON lines: the
run's details (environment, failures, oracle self-test, input composition,
digests), then the result, with the end-to-end metrics for --trace 0 and the
per-layer metrics for --trace 1.  The set-up time is the median over
SETUP_PROBES extra processes that only set up, plus the measured one; for
`verify` the median start-and-import time of its op children is added.
The exit code is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("phi", "free", "verify")
SETUP_PROBES = 8
PROBE_TIMEOUT_S = 10
RUN_TIMEOUT_S = 150
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class RunError(Exception):
    pass


def start_worker(args, setup_only):
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
           str(args.seconds), str(args.trace)]
    timeout = PROBE_TIMEOUT_S if setup_only else RUN_TIMEOUT_S
    cmd.append(repr(time.monotonic()))
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError(f"worker timed out after {timeout} s")
    if proc.returncode != 0:
        raise RunError(f"worker exited with {proc.returncode}")
    return json.loads(out.splitlines()[-1])


def environment():
    src = ROOT / "src" / "glnztree"
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref[5:]
        else:
            commit = ref
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def run(args):
    if not (ROOT / "src" / "glnztree" / "__init__.py").is_file():
        raise RunError(f"no glnztree package under {ROOT / 'src'}")
    os.environ.pop("GLNZ_THREADS", None)
    setups = [start_worker(args, True)["setup_s"] for _ in range(SETUP_PROBES)]
    result = start_worker(args, False)
    setups.append(result["setup_s"])
    setup_s = statistics.median(setups)
    if "child_setup_s" in result:
        setup_s += result["child_setup_s"]
    details = {key: result[key] for key in (
        "failures", "samples", "units", "window_s", "work_unit", "checks", "selftest",
        "composition", "bindings_patched") if key in result}
    details.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        fail_ratio=result["failed"] / result["attempted"],
        setup_probes_s=setups, environment=environment())
    if args.trace:
        metrics = {
            name: {"value": value, "unit": layer_unit(name)}
            for name, value in result["layers"].items()
        }
    else:
        values = dict(result["metrics"], peak_rss_mb=result["peak_rss_mb"], setup_s=setup_s)
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    print(json.dumps(details))
    print(json.dumps({
        "correct": result["correct"] and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


def layer_unit(name):
    if name.endswith("ops_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("keep_ratio"):
        return "ratio"
    return "count"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        run(args)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
