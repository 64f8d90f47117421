"""Seeded inputs of the three workloads, generated without the package.

The `phi` stream is made of blocks of 40 matrices.  Every block has the same
composition, so a run of whole blocks always has the same family and
dimension shares whatever its seed:

- 24 dense products of random elementary factors, 8 at each n in {2, 3, 4};
  max|entry| lies in 4..32, its target drawn up to 32/16/8 for n = 2/3/4,
  because larger entries at n = 4 can cost over a minute per matrix today;
- 10 single transvections T_ij(k) at n in {2, 3}, five of each, with one
  |k| from each stratum 1-20, 21-40, ..., 181-200.  Their cost grows as k^2
  and is 80-90% of the stream's, so |k| is stratified and spread evenly;
- 6 signed permutation matrices at n = 4, drawn without replacement.

No matrix repeats within a stream, so a result cache cannot help.  The
stream ends at the first block a family cannot fill with new matrices (the
permutations run out after 64 blocks).
"""

from __future__ import annotations

import itertools
import random

BLOCK_DENSE_PER_N = 8
DENSE_DIMS = (2, 3, 4)
DENSE_TARGET_MAX = {2: 32, 3: 16, 4: 8}
DENSE_ENTRY_MIN, DENSE_ENTRY_MAX = 4, 32
TRANSVECTION_DIMS = (2, 3)
K_STRATA = tuple((20 * s + 1, 20 * s + 20) for s in range(10))
PERM_DIM = 4
PERMS_PER_BLOCK = 6
BLOCK_SIZE = BLOCK_DENSE_PER_N * len(DENSE_DIMS) + len(K_STRATA) + PERMS_PER_BLOCK
ORACLE_WORDS = 3
ORACLE_WORD_LENGTH = 12

FREE_LENGTHS = (5, 6, 7)
FREE_DEPTH = 6

VERIFY_OPS = (
    ("cli", "verify", "--n", "2", "--kmax", "20"),
    ("cli", "verify", "--n", "3", "--kmax", "20"),
    ("cli", "verify", "--n", "4", "--kmax", "20"),
    ("checks", "proposition1_suite"),
    ("checks", "factorization_roundtrip"),
    ("checks", "homomorphism_spotcheck"),
)


class _Exhausted(Exception):
    """A family has no unseen matrix left to fill the next block."""


def _identity(n):
    return [[int(r == c) for c in range(n)] for r in range(n)]


def _matmul(a, b):
    n = len(a)
    return [[sum(a[r][t] * b[t][c] for t in range(n)) for c in range(n)] for r in range(n)]


def _random_elementary(rng, n):
    m = _identity(n)
    draw = rng.random()
    if draw < 0.7:
        i, j = rng.sample(range(n), 2)
        m[i][j] = rng.choice((1, -1, 2, -2))
    elif draw < 0.85:
        i, j = rng.sample(range(n), 2)
        m[i][i] = m[j][j] = 0
        m[i][j] = m[j][i] = 1
    else:
        i = rng.randrange(n)
        m[i][i] = -1
    return m


def _dense(rng, n, target):
    while True:
        m = _identity(n)
        biggest = 1
        while biggest < target:
            m = _matmul(m, _random_elementary(rng, n))
            biggest = max(abs(e) for row in m for e in row)
        if biggest <= DENSE_ENTRY_MAX:
            return m


def _spread(rng):
    """Infinite sequence of points in [0, 1) whose every prefix is close to
    evenly spaced (additive golden-ratio recurrence from a seeded start)."""
    x = rng.random()
    while True:
        yield x
        x = (x + 0.6180339887498949) % 1.0


def _signed_permutations(n):
    out = []
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            m = [[0] * n for _ in range(n)]
            for r in range(n):
                m[r][perm[r]] = signs[r]
            out.append(m)
    return out


def _freeze(m):
    return tuple(tuple(row) for row in m)


def phi_blocks(seed):
    """Yield blocks of op dicts: family, n, rows, k (transvections only) and
    the oracle's words.  Ends before the first block a family cannot fill."""
    rng = random.Random(f"phi/{seed}")
    perms = _signed_permutations(PERM_DIM)
    rng.shuffle(perms)
    seen = set()

    def fresh(make, tries):
        for attempt in range(tries):
            rows = _freeze(make(attempt))
            if rows not in seen:
                seen.add(rows)
                return rows
        raise _Exhausted

    def transvection(lo, hi, n, point):
        # a collision moves |k| up by one within its stratum every 16 tries
        width = hi - lo + 1
        start = min(int(point * width), width - 1)
        sign = rng.choice((1, -1))

        def make(attempt):
            m = _identity(n)
            i, j = rng.sample(range(n), 2)
            m[i][j] = sign * (lo + (start + attempt // 16) % width)
            return m
        rows = fresh(make, 16 * width)
        k = next(e for r, row in enumerate(rows) for c, e in enumerate(row) if r != c and e)
        return ("transvection", n, rows, k)

    targets = {n: _spread(rng) for n in DENSE_DIMS}
    k_points = _spread(rng)

    def make_block():
        block = []
        for n in DENSE_DIMS:
            lo, hi = DENSE_ENTRY_MIN, DENSE_TARGET_MAX[n]
            for _ in range(BLOCK_DENSE_PER_N):
                target = lo + int(next(targets[n]) * (hi - lo + 1))
                block.append(("dense", n, fresh(lambda _: _dense(rng, n, target), 200), None))
        # Strata go in pairs at mirrored points of their ranges, one at each
        # dimension, so the k^2 cost of every block is within about 2% of
        # every other's.
        point = next(k_points)
        for s in range(0, len(K_STRATA), 2):
            dims = list(TRANSVECTION_DIMS)
            rng.shuffle(dims)
            block.append(transvection(*K_STRATA[s], dims[0], point))
            block.append(transvection(*K_STRATA[s + 1], dims[1], 1.0 - point))
        for _ in range(PERMS_PER_BLOCK):
            if not perms:
                raise _Exhausted
            block.append(("permutation", PERM_DIM, fresh(lambda _: perms.pop(), 1), None))
        return block

    while True:
        try:
            block = make_block()
        except _Exhausted:
            return
        rng.shuffle(block)
        yield [
            {
                "family": family,
                "n": n,
                "rows": rows,
                "k": k,
                "words": [
                    tuple(rng.randrange(1 << n) for _ in range(ORACLE_WORD_LENGTH))
                    for _ in range(ORACLE_WORDS)
                ],
            }
            for family, n, rows, k in block
        ]


def cycles(label, items, seed):
    """Yield whole passes over `items`, each in a seeded order."""
    rng = random.Random(f"{label}/{seed}")
    while True:
        order = list(items)
        rng.shuffle(order)
        yield order
