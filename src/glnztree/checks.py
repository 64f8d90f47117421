"""Verification suites behind the CLI `verify` and `free` subcommands.

Each suite returns a list of CheckResult rows in a fixed order, so output is
deterministic for fixed parameters (random sampling uses seeds derived from
the suite's `seed` argument only).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .glnz import (
    IntMatrix,
    SignFlip,
    Transposition,
    Transvection,
    base_permutation,
    elementary_to_automorphism,
    expected_states,
    factor_product,
    factorize,
    generator_automorphism,
    phi,
)
from .mealy import TreeAutomorphism
from .sanov import depth_conjugacy_check, freeness_check

DEFAULT_SEED = 20260817


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


# ----------------------------------------------------------------------
# random inputs

def random_permutation_matrix(n, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    return IntMatrix([[1 if c == perm[r] else 0 for c in range(n)] for r in range(n)])


def random_elementary(n, rng, kmax=3):
    kind = rng.randrange(3)
    if kind == 0:
        i, j = rng.sample(range(1, n + 1), 2)
        k = rng.choice([x for x in range(-kmax, kmax + 1) if x])
        return Transvection(i, j, k)
    if kind == 1:
        return SignFlip(rng.randint(1, n))
    i, j = sorted(rng.sample(range(1, n + 1), 2))
    return Transposition(i, j)


def random_unimodular(n, rng, max_factors=12, kmax=3):
    """A random GL(n, Z) element built from elementary factors; returns the
    matrix together with the factors that produced it."""
    factors = [random_elementary(n, rng, kmax) for _ in range(rng.randint(0, max_factors))]
    return factor_product(factors, n), factors


def random_triangular(n, rng, max_entry=5):
    """Unit-diagonal triangular matrix, upper or lower at random."""
    upper = rng.random() < 0.5
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
    for i in range(n):
        for j in range(n):
            if (j > i) if upper else (j < i):
                rows[i][j] = rng.randint(-max_entry, max_entry)
    return IntMatrix(rows)


# ----------------------------------------------------------------------
# minimized power/product cache shared by the heavier suites

@lru_cache(maxsize=None, typed=True)
def _gen_power(name, n, k):
    if k == 0:
        # the generator checks n against MAX_DIM before any alphabet is built
        return TreeAutomorphism.identity(generator_automorphism(name, n).n)
    prev = _gen_power(name, n, k - 1)
    return prev.compose(generator_automorphism(name, n)).minimize()


@lru_cache(maxsize=None, typed=True)
def _t1_t2_product(n, p, q):
    # minimized machine of t1^p t2^q
    return _gen_power("t1", n, p).compose(_gen_power("t2", n, q)).minimize()


# ----------------------------------------------------------------------
# suites

def theorem1_suite(dims=(2, 3), kmax=20, permutation_samples=10, seed=DEFAULT_SEED):
    """Exact minimal state counts of the elementary machines: permutation
    matrices give 1 state, sign flips 2 (two's-complement negation),
    transvections |k| + 1."""
    results = []
    for n in dims:
        rng = random.Random(f"{seed}/perm/{n}")
        bad = []
        for _ in range(permutation_samples):
            mat = random_permutation_matrix(n, rng)
            count = phi(mat).state_count()
            if count != 1:
                bad.append(f"{mat!r} -> {count}")
        results.append(CheckResult(
            f"theorem1/permutation-matrices n={n}", not bad, "; ".join(bad)))
        bad = []
        for i in range(1, n + 1):
            count = phi(SignFlip(i).matrix(n)).state_count()
            if count != expected_states(SignFlip(i)):
                bad.append(f"E_{i} -> {count}")
        results.append(CheckResult(f"theorem1/sign-flips n={n}", not bad, "; ".join(bad)))
        bad = []
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                for k in range(1, kmax + 1):
                    for signed in (k, -k):
                        count = phi(Transvection(i, j, signed).matrix(n)).state_count()
                        if count != k + 1:
                            bad.append(f"T_{i}{j}({signed}) -> {count}")
        results.append(CheckResult(
            f"theorem1/transvections n={n} kmax={kmax}", not bad, "; ".join(bad[:4])))
    return results


def lemma1_suite(dims=(2, 3)):
    """t1 and t2 commute and their product's root permutation is sigma."""
    results = []
    for n in dims:
        t1 = generator_automorphism("t1", n)
        t2 = generator_automorphism("t2", n)
        forward = t1.compose(t2)
        backward = t2.compose(t1)
        sigma = base_permutation("sigma", n)
        ok = (
            forward.equal(backward)
            and forward.outputs[0] == sigma
            and backward.outputs[0] == sigma
        )
        results.append(CheckResult(f"lemma1/commuting-product n={n}", ok))
    return results


def _lemma2_expected_sections(n, k1, e1, k2, e2, printed=False):
    """First-level sections of t1^(2k1+e1) t2^(2k2+e2), one machine per
    letter, from the closed carry recursion on the first two bits.

    t1^p t2^q adds (p+q) copies of the second coordinate plus the constant
    q to the first coordinate, so the section at a letter keeps the same
    multiplier and carries the constant floor(((p+q)*x2 + q + x1) / 2).
    With p = 2k1+e1, q = 2k2+e2 that evaluates to the four cases below.

    `printed=True` instead returns the variant with the (0,0) and (1,0)
    rows transposed, which is how the published closed form prints the
    table; the printed rows match the true recursion only when e2 = 0."""
    sections = []
    for v in range(1 << n):
        x1, x2 = v & 1, (v >> 1) & 1
        if (x1, x2) == (0, 0):
            p, q = 2 * k1 + e1 + k2 + e2, k2
        elif (x1, x2) == (1, 0):
            p, q = 2 * k1 + e1 + k2, k2 + e2
        elif (x1, x2) == (0, 1):
            p, q = k1 + e1, k1 + 2 * k2 + e2
        else:
            p, q = k1, k1 + e1 + 2 * k2 + e2
        if printed and x2 == 0:
            p, q = (2 * k1 + e1 + k2, k2 + e2) if x1 == 0 else (2 * k1 + e1 + k2 + e2, k2)
        sections.append(_t1_t2_product(n, p, q))
    return sections


def lemma2_suite(dims=(2, 3), mmax=20, eq1_kmax=3):
    """Structure of the powers t1^m: m + 1 minimal states, strongly
    connected, state set exactly {t1^i t2^(m-i)}, and the closed form for
    the first-level sections of t1^x t2^y."""
    results = []
    for n in dims:
        bad_counts = []
        bad_conn = []
        bad_sets = []
        for m in range(1, mmax + 1):
            power = _gen_power("t1", n, m)
            if len(power.outputs) != m + 1:
                bad_counts.append(f"m={m}: {len(power.outputs)}")
            if not power.is_strongly_connected():
                bad_conn.append(f"m={m}")
            candidates = [_t1_t2_product(n, i, m - i) for i in range(m + 1)]
            matched = set()
            for s in range(len(power.outputs)):
                pointed = power._repointed(s)
                found = [idx for idx, cand in enumerate(candidates) if pointed.equal(cand)]
                if len(found) != 1 or found[0] in matched:
                    bad_sets.append(f"m={m} state {s}: matches {found}")
                    break
                matched.add(found[0])
        results.append(CheckResult(
            f"lemma2/state-count n={n} mmax={mmax}", not bad_counts, "; ".join(bad_counts[:3])))
        results.append(CheckResult(
            f"lemma2/strong-connectivity n={n} mmax={mmax}", not bad_conn, "; ".join(bad_conn[:3])))
        results.append(CheckResult(
            f"lemma2/state-set n={n} mmax={mmax}", not bad_sets, "; ".join(bad_sets[:3])))
        bad_eq1 = []
        for k1 in range(eq1_kmax + 1):
            for e1 in (0, 1):
                for k2 in range(eq1_kmax + 1):
                    for e2 in (0, 1):
                        g = _t1_t2_product(n, 2 * k1 + e1, 2 * k2 + e2)
                        sections, _ = g.first_level_states()
                        expected = _lemma2_expected_sections(n, k1, e1, k2, e2)
                        for v, (got, want) in enumerate(zip(sections, expected)):
                            if not got.equal(want):
                                bad_eq1.append(f"(k1={k1},e1={e1},k2={k2},e2={e2}) letter {v + 1}")
        results.append(CheckResult(
            f"lemma2/first-level-sections n={n} kmax={eq1_kmax}", not bad_eq1, "; ".join(bad_eq1[:3])))
    return results


def proposition1_suite(dims=(2, 3), jkmax=10):
    """t1 and t2 generate a free abelian group of rank 2: they commute and
    no nontrivial t1^j t2^k is the identity."""
    results = []
    for n in dims:
        t1 = generator_automorphism("t1", n)
        t2 = generator_automorphism("t2", n)
        commute = t1.compose(t2).equal(t2.compose(t1))
        bad = []
        for j in range(jkmax + 1):
            for k in range(jkmax + 1):
                if j == 0 and k == 0:
                    continue
                if _t1_t2_product(n, j, k).is_identity():
                    bad.append(f"t1^{j} t2^{k} = e")
        results.append(CheckResult(
            f"proposition1/free-abelian n={n} jkmax={jkmax}",
            commute and not bad,
            "; ".join((["do not commute"] if not commute else []) + bad[:3])))
    return results


def corollary_suite(dims=(2, 3), samples_per_dim=50, max_entry=5, seed=DEFAULT_SEED):
    """State count of a unit-diagonal triangular matrix is bounded by the
    product of (1 + |entry|) over the off-diagonal positions."""
    results = []
    for n in dims:
        rng = random.Random(f"{seed}/tri/{n}")
        bad = []
        for _ in range(samples_per_dim):
            mat = random_triangular(n, rng, max_entry)
            bound = 1
            for r in range(n):
                for c in range(n):
                    if r != c:
                        bound *= 1 + abs(mat.rows[r][c])
            count = phi(mat).state_count()
            if count > bound:
                bad.append(f"{mat!r}: {count} > {bound}")
        results.append(CheckResult(
            f"corollary/triangular-bound n={n} samples={samples_per_dim}",
            not bad, "; ".join(bad[:2])))
    return results


def factorization_roundtrip(samples=200, dims=(2, 3, 4), max_factors=12, kmax=3,
                            seed=DEFAULT_SEED):
    """factorize() output multiplies back to its input on random unimodular
    matrices.  Returns a CheckResult."""
    rng = random.Random(f"{seed}/fact")
    bad = []
    for _ in range(samples):
        n = rng.choice(dims)
        mat, _ = random_unimodular(n, rng, max_factors, kmax)
        if factor_product(factorize(mat), n) != mat:
            bad.append(repr(mat))
    return CheckResult(f"factorization/roundtrip samples={samples}", not bad, "; ".join(bad[:2]))


def homomorphism_spotcheck(pairs=50, dims=(2, 3), max_factors=4, kmax=2, seed=DEFAULT_SEED):
    """phi(A B) agrees with phi(A) phi(B) on random pairs."""
    rng = random.Random(f"{seed}/hom")
    bad = []
    for _ in range(pairs):
        n = rng.choice(dims)
        a, _ = random_unimodular(n, rng, max_factors, kmax)
        b, _ = random_unimodular(n, rng, max_factors, kmax)
        if not phi(a * b).equal(phi(a).compose(phi(b))):
            bad.append(f"{a!r} * {b!r}")
    return CheckResult(f"homomorphism/products pairs={pairs}", not bad, "; ".join(bad[:2]))


def freeness_suite(max_length=8, depth=6):
    """The CLI `free` payload: the bounded relation sweep and the block-code
    conjugacy check."""
    report = freeness_check(max_length)
    conjugacy_ok = depth_conjugacy_check(depth)
    return report, conjugacy_ok
