"""Per-layer tracing by wrapping the package's public functions.

Each wrapped call is a span.  At the end of a span its duration is added to
the function's total (outermost nesting level only, so recursion is not
counted twice) and its self time, the duration minus the time its child
spans cover, to the function's self time.  Spans are aggregated as they
close rather than stored.  `act` and `equal` are leaves called tens of
thousands of times per op, so they skip the span stack and only add a
count and their time.

Every binding site is patched: module globals in every glnztree module that
hold the original object (so `phi` as imported into `checks` and `cli`, and
the lru_cache object `generator_automorphism` as imported into `sanov`), and
every class attribute that is the original function (so the `__mul__` and
`__pow__` aliases of `compose` and `power`).
"""

from __future__ import annotations

import contextlib
import sys
from time import perf_counter

MEALY = ("compose", "minimize", "inverse", "power", "act", "equal", "refine",
         "state_at", "init")
GLNZ = ("phi", "factorize", "elementary_to_automorphism", "generator_automorphism",
        "factor_product")
SANOV = ("freeness_check", "depth_conjugacy_check", "binary_generators")
CHECKS = ("theorem1_suite", "lemma1_suite", "lemma2_suite", "proposition1_suite",
          "corollary_suite", "factorization_roundtrip", "homomorphism_spotcheck",
          "freeness_suite")
LEAVES = ("mealy.act", "mealy.equal")

FUNCTIONS = (
    [f"mealy.{f}" for f in MEALY]
    + [f"glnz.{f}" for f in GLNZ]
    + [f"sanov.{f}" for f in SANOV]
    + [f"checks.{f}" for f in CHECKS]
    + ["cli.main"]
)
COUNTS = (
    "mealy.compose.states_out",
    "mealy.minimize.states_in",
    "mealy.minimize.states_out",
    "mealy.minimize.noop_calls",
    "mealy.act.letters",
    "glnz.factorize.factors",
    "glnz.phi.states_out",
    "sanov.freeness_check.words",
)


def _count_hooks():
    def compose(args, result):
        return (("mealy.compose.states_out", len(result.outputs)),)

    def minimize(args, result):
        return (
            ("mealy.minimize.states_in", len(args[0].outputs)),
            ("mealy.minimize.states_out", len(result.outputs)),
            ("mealy.minimize.noop_calls", int(result is args[0])),
        )

    def act(args, result):
        return (("mealy.act.letters", len(result)),)

    def factorize(args, result):
        return (("glnz.factorize.factors", len(result)),)

    def phi(args, result):
        return (("glnz.phi.states_out", len(result.outputs)),)

    def freeness(args, result):
        return (("sanov.freeness_check.words", result.words_checked),)

    return {
        "mealy.compose": compose,
        "mealy.minimize": minimize,
        "mealy.act": act,
        "glnz.factorize": factorize,
        "glnz.phi": phi,
        "sanov.freeness_check": freeness,
    }


class Tracer:
    def __init__(self):
        # name -> [calls, total_s, self_s, active nesting depth]
        self.stats = {name: [0, 0.0, 0.0, 0] for name in FUNCTIONS}
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack = []  # child time covered so far, one entry per open span
        self._on = [True]

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own result checks) go untraced."""
        self._on[0] = False
        try:
            yield
        finally:
            self._on[0] = True

    def wrap(self, name, fn, hook=None):
        stats = self.stats[name]
        stack = self._stack
        counts = self.counts
        on = self._on

        if name in LEAVES:
            def leaf(*args, **kwargs):
                if not on[0]:
                    return fn(*args, **kwargs)
                t0 = perf_counter()
                result = fn(*args, **kwargs)
                dt = perf_counter() - t0
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt
                if stack:
                    stack[-1] += dt
                if hook is not None:
                    for key, value in hook(args, result):
                        counts[key] += value
                return result
            return leaf

        def span(*args, **kwargs):
            if not on[0]:
                return fn(*args, **kwargs)
            stack.append(0.0)
            stats[3] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stats[3] -= 1
                stats[0] += 1
                if not stats[3]:
                    stats[1] += dt
                stats[2] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
            if hook is not None:
                for key, value in hook(args, result):
                    counts[key] += value
            return result
        return span

    def metrics(self):
        out = {}
        for name, (calls, total, self_s, _) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total
            out[f"{name}.self_s"] = self_s
        out.update(self.counts)
        return out


def install(tracer):
    """Patch every binding site of every traced function in the loaded
    glnztree modules.  Returns the number of bindings replaced."""
    modules = {
        name.split(".")[-1]: mod
        for name, mod in sys.modules.items()
        if name == "glnztree" or name.startswith("glnztree.")
    }
    cls = modules["mealy"].TreeAutomorphism
    holders = [cls, *modules.values()]
    hooks = _count_hooks()
    replaced = 0
    for name in FUNCTIONS:
        module, attr = name.split(".")
        if module == "mealy":
            original = vars(cls)["__init__" if attr == "init" else attr]
        else:
            original = getattr(modules[module], attr)
        wrapper = tracer.wrap(name, original, hooks.get(name))
        for holder in holders:
            for key in [k for k, v in vars(holder).items() if v is original]:
                setattr(holder, key, wrapper)
                replaced += 1
    return replaced


def merge(into, metrics):
    for key, value in metrics.items():
        into[key] = into.get(key, 0) + value
