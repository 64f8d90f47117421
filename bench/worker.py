"""One run of one workload, in a process of its own so that its peak
resident set belongs to it alone.  Started by run.py; prints one JSON line.

Usage: worker.py WORKLOAD SEED SECONDS TRACE SPAWNED [--setup-only]

SPAWNED is the parent's time.monotonic() just before it started this
process, so the set-up time runs from interpreter start to the first timed
op.  Each workload is a closed loop with one client and one thread: the
next op starts when the previous one has returned and been checked.  The
timed window is the sum of the op times; checks and input generation sit
outside it.  A run measures whole units (a block of 40 matrices, a pass over
the free lengths, a cycle over the verify ops) until the window reaches
SECONDS, so every run of a workload has the same op mix.  With TRACE=1 the
first half of the window runs untraced and the second half traced, and the
difference of their ops_per_s is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

import oracles
import srctree
import streams
import tracing

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 60

# sha256 over the minimal forms of the first block of the phi stream with
# seed 0, in stream order.  Minimal forms are canonical, so no correct
# change to the package can move it.
REFERENCE_SEED = 0
REFERENCE_DIGEST = "dc9c8f0b82a6bda6988f80ed150a4d0f8d884e2221350b0da7b43d697c86c00c"


def percentile_ms(times, q):
    if len(times) == 1:
        return times[0] * 1e3
    return statistics.quantiles(times, n=100, method="inclusive")[q - 1] * 1e3


class Window:
    """Ops of one timed window, unit by unit.  A failed op keeps its time,
    its latency until it failed, but does no work and is not completed."""

    def __init__(self):
        self.units = []  # per unit: (seconds, work, kind, ok) of each op
        self.failures = []  # the first few failure messages

    def record(self, dt, error, work, kind):
        ok = error is None
        if not ok and len(self.failures) < 5:
            self.failures.append(f"{kind}: {error}")
        self.units[-1].append((dt, work if ok else 0, kind, ok))

    @property
    def ops(self):
        return [op for unit in self.units for op in unit]

    @property
    def attempted(self):
        return len(self.ops)

    @property
    def failed(self):
        return sum(1 for *_, ok in self.ops if not ok)

    @property
    def seconds(self):
        return sum(dt for dt, *_ in self.ops)

    def ops_per_s(self):
        return (self.attempted - self.failed) / self.seconds

    def metrics(self, per_unit):
        """End-to-end metrics.  With `per_unit` the op percentiles are taken
        within each unit and the median over units is reported: where a unit
        holds a handful of distinct ops, the run's own median falls in the
        gap between two kinds of op and is set by their extreme samples."""
        groups = self.units if per_unit else [self.ops]
        samples = [[dt for dt, *_ in group] for group in groups]
        return {
            "ops_per_s": self.ops_per_s(),
            "op_p50_ms": statistics.median(percentile_ms(t, 50) for t in samples),
            "op_p90_ms": statistics.median(percentile_ms(t, 90) for t in samples),
            "work_per_s": sum(w for _, w, _, _ in self.ops) / self.seconds,
        }


def measure(units, run_op, seconds):
    window = Window()
    for unit in units:
        window.units.append([])
        for op in unit:
            window.record(*run_op(op))
        if window.seconds >= seconds:
            break
    return window


# ----------------------------------------------------------------------
# workloads: setup() returns the unit iterator, run_op(op) returns
# (seconds, error or None, work, kind)


class Workload:
    percentiles_per_unit = True

    def __init__(self, pkg, seed):
        self.glnz, self.sanov, _, self.cli = pkg
        self.seed = seed
        self.tracer = None
        self.bindings = 0  # binding sites patched for tracing

    def post_checks(self):
        """Checks made once after the untraced window: (record, passed)."""
        return {}, True

    def start_trace(self):
        self.tracer = tracing.Tracer()
        self.bindings = tracing.install(self.tracer)

    def layer_metrics(self):
        return self.tracer.metrics()

    def checking(self):
        """Context for result checks that call the package: kept out of the
        layer metrics."""
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()

    def composition(self, windows):
        """Per kind of op: share of the ops, share of the time, median time."""
        by_kind = {}
        for w in windows:
            for t, _, kind, _ in w.ops:
                by_kind.setdefault(kind, []).append(t)
        ops = sum(len(v) for v in by_kind.values())
        seconds = sum(sum(v) for v in by_kind.values())
        return {"kinds": {
            kind: {
                "op_share": len(v) / ops,
                "time_share": sum(v) / seconds,
                "p50_ms": statistics.median(v) * 1e3,
            }
            for kind, v in sorted(by_kind.items())
        }}


class PhiWorkload(Workload):
    work_unit = "minimal states built"
    percentiles_per_unit = False  # 40 ops a unit; hundreds a run

    def __init__(self, pkg, seed):
        super().__init__(pkg, seed)
        self.first_block = []

    def setup(self):
        glnz = self.glnz
        for n in streams.DENSE_DIMS:
            glnz.generator_automorphism("t1", n)
            glnz.generator_automorphism("t2", n)
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    glnz.generator_automorphism("s", n, i, j)
            glnz.elementary_to_automorphism(glnz.SignFlip(1), n)
        blocks = streams.phi_blocks(self.seed)
        return itertools.chain([next(blocks)], blocks)

    def run_op(self, op):
        kind = f"{op['family']} n={op['n']}"
        matrix = self.glnz.IntMatrix(op["rows"])
        t0 = perf_counter()
        try:
            machine = self.glnz.phi(matrix)
            count = machine.state_count()
        except Exception as exc:  # a raising op is a failed op
            return perf_counter() - t0, repr(exc), 0, kind
        dt = perf_counter() - t0
        with self.checking():
            error = oracles.check_phi(op, machine, count)
        if len(self.first_block) < streams.BLOCK_SIZE:
            self.first_block.append(machine)
        return dt, error, count, kind

    def post_checks(self):
        reference = next(streams.phi_blocks(REFERENCE_SEED))
        digest = oracles.machine_digest(
            self.glnz.phi(self.glnz.IntMatrix(op["rows"])) for op in reference)
        return {
            "reference_digest": digest,
            "reference_digest_ok": digest == REFERENCE_DIGEST,
            "first_block_digest": oracles.machine_digest(self.first_block),
        }, digest == REFERENCE_DIGEST

    def composition(self, windows):
        """Shares of family and n, and the state-count distribution, so a
        claim about large machines only can quote the share it covers."""
        record = super().composition(windows)
        states = sorted(w for window in windows for _, w, _, ok in window.ops if ok)
        total = len(states)
        for axis, part in (("family_share", 0), ("n_share", 1)):
            shares = {}
            for kind, row in record["kinds"].items():
                key = kind.split(" ")[part]
                shares[key] = shares.get(key, 0) + row["op_share"]
            record[axis] = shares
        deciles = statistics.quantiles(states, n=10, method="inclusive")
        record["states"] = {
            "p10": deciles[0], "p50": deciles[4], "p90": deciles[8], "max": states[-1],
            "share_ge_100": sum(1 for s in states if s >= 100) / total,
            "share_ge_1000": sum(1 for s in states if s >= 1000) / total,
        }
        return record


class FreeWorkload(Workload):
    work_unit = "reduced group words certified"

    def setup(self):
        self.sanov.binary_generators()
        self.sanov.depth_conjugacy_check(0)
        return streams.cycles("free", streams.FREE_LENGTHS, self.seed)

    def run_op(self, length):
        argv = ["free", "--max-length", str(length), "--depth", str(streams.FREE_DEPTH)]
        out = io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = self.cli.main(argv)
        except Exception as exc:
            return perf_counter() - t0, repr(exc), 0, f"L={length}"
        dt = perf_counter() - t0
        error = oracles.check_free(length, code, out.getvalue())
        return dt, error, 2 * (3 ** length - 1), f"L={length}"


class VerifyWorkload(Workload):
    """Each op runs in a fresh child interpreter, one at a time, because
    every CLI call starts with cold in-process memo caches.  With tracing,
    the children trace themselves and their layer metrics are summed."""

    work_unit = "PASS lines"

    def __init__(self, pkg, seed):
        super().__init__(pkg, seed)
        self.child_setup = []
        self.trace = None

    def setup(self):
        return streams.cycles("verify", streams.VERIFY_OPS, self.seed)

    def run_op(self, op):
        kind = " ".join(op[1:4])
        cmd = [sys.executable, str(HERE / "child.py"), json.dumps(op),
               str(int(self.trace is not None))]
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return CHILD_TIMEOUT_S, "child timed out", 0, kind
        try:
            report = json.loads(out.splitlines()[-1])
        except (IndexError, ValueError):
            return 0.0, f"child exit {proc.returncode}, no report", 0, kind
        self.child_setup.append(report["ready"] - spawned)
        if report["error"] is not None:
            return report["op_s"], report["error"], 0, kind
        if self.trace is not None:
            tracing.merge(self.trace, report["trace"])
            self.bindings = report["bindings"]
        error = oracles.check_verify(report["code"], report["stdout"])
        return report["op_s"], error, report["stdout"].count(": PASS"), kind

    def start_trace(self):
        self.trace = dict.fromkeys(tracing.Tracer().metrics(), 0)

    def layer_metrics(self):
        return self.trace


WORKLOADS = {"phi": PhiWorkload, "free": FreeWorkload, "verify": VerifyWorkload}


def peak_rss_mb():
    with open("/proc/self/status", encoding="ascii") as status:
        own_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own_kb, children_kb) / 1024


def main(argv):
    name, seed, seconds, trace, spawned = argv[:5]
    seconds, trace = float(seconds), int(trace)
    pkg = srctree.load_package()
    workload = WORKLOADS[name](pkg, seed)
    units = workload.setup()
    setup_s = time.monotonic() - float(spawned)
    if "--setup-only" in argv:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    windows = [measure(units, workload.run_op, seconds / 2 if trace else seconds)]
    checks, digest_ok = workload.post_checks()
    selftest = oracles.self_test(pkg[0])
    rss = peak_rss_mb()
    if trace:
        workload.start_trace()
        windows.append(measure(units, workload.run_op, seconds / 2))

    untraced = windows[0]
    result = {
        "setup_s": setup_s,
        "attempted": sum(w.attempted for w in windows),
        "failed": sum(w.failed for w in windows),
        "failures": [f for w in windows for f in w.failures],
        "correct": digest_ok and all(selftest.values()),
        "metrics": untraced.metrics(workload.percentiles_per_unit),
        "units": len(untraced.units),
        "peak_rss_mb": rss,
        "samples": untraced.attempted,
        "window_s": untraced.seconds,
        "work_unit": workload.work_unit,
        "checks": checks,
        "selftest": selftest,
        "composition": workload.composition(windows),
    }
    if isinstance(workload, VerifyWorkload):
        result["child_setup_s"] = statistics.median(workload.child_setup)
    if trace:
        traced = windows[1]
        layers = workload.layer_metrics()
        states_in = layers["mealy.minimize.states_in"]
        layers["mealy.minimize.keep_ratio"] = (
            layers["mealy.minimize.states_out"] / states_in if states_in else 0.0)
        layers["trace.untraced_ops_per_s"] = untraced.ops_per_s()
        layers["trace.traced_ops_per_s"] = traced.ops_per_s()
        layers["trace.overhead_ops_per_s"] = untraced.ops_per_s() - traced.ops_per_s()
        result["layers"] = layers
        result["bindings_patched"] = workload.bindings
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
