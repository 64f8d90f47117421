"""Embedding of GL(n, Z) into finite-state automorphisms of the 2^n-ary tree.

A column vector over Z/2 is read as one letter: the letter for bits
(x1, ..., xn) is 1 + x1 + 2*x2 + ... + 2^(n-1)*xn, so x1 is the least
significant bit and (1,1) is letter 4.  A word spells a row vector x of
2-adic integers, least significant digit first, and an integer matrix A acts
on the tree as x -> xA.

That action is an automaton whose states are carry vectors: from carry c,
on the letter with bits b, it writes s mod 2, where s = bA + c, and moves to
carry s >> 1.  The carries stay bounded, so the automaton is finite, and it
is an automorphism exactly when A is invertible mod 2.  Every machine here
with more than one state is such a carry machine (Brunner and Sidki): t1
and t2 are T_21(1) at carries 0 and e1, a sign flip E_i is x -> xE_i (carries
0 and -e_i), and T_ij(k) is the k-th power of the carry machine of T_ij(1).
A transposition permutes bits and has one state.  The embedding factors a
matrix into these elementary matrices and composes their machines.  The
machine of T_ij(k) costs |k| compositions, so `factorize` clears its final
lower triangular remainder right to left: the parameters are then that
remainder's own entries, not those of its inverse, which grow with n.

All matrix arithmetic is exact.  Entries are plain Python ints checked
against a signed 64-bit range at construction and after every arithmetic
step; violations raise OverflowError.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    InvalidAlphabet,
    InvalidIndex,
    InvalidLetter,
    NotUnimodular,
    ParseError,
    ShapeError,
)
from .mealy import TreeAutomorphism

INT64_MIN = -(2 ** 63)
INT64_MAX = 2 ** 63 - 1

# Largest dimension whose machines are built: their alphabet has 2^n
# letters, 4,096 at the cap.  Above it every function that would build such
# an alphabet raises InvalidAlphabet instead of exhausting memory.
MAX_DIM = 12


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _check64(value):
    if value < INT64_MIN or value > INT64_MAX:
        raise OverflowError(f"integer {value} leaves the checked 64-bit range")
    return value


# ----------------------------------------------------------------------
# letters <-> bit vectors

def bits_from_letter(letter, n):
    """1-based letter -> bit vector (x1, ..., xn), x1 least significant."""
    if not _is_int(n) or n < 1:
        raise InvalidAlphabet(f"bit count must be a positive integer, got {n!r}")
    if not (_is_int(letter) and 1 <= letter <= 1 << n):
        raise InvalidLetter(f"letter {letter!r} outside 1..{1 << n}")
    v = letter - 1
    return tuple((v >> i) & 1 for i in range(n))


def letter_from_bits(bits):
    """Bit vector (x1, ..., xn) -> 1-based letter; inverse of bits_from_letter."""
    bits = tuple(bits)
    if not bits:
        raise ValueError("empty bit vector")
    v = 0
    for i, b in enumerate(bits):
        if b not in (0, 1):
            raise ValueError(f"bit {b!r} is not 0 or 1")
        v |= b << i
    return v + 1


# ----------------------------------------------------------------------
# base alphabet permutations and generator machines

def _alphabet_size(n):
    """Check a dimension 2 <= n <= MAX_DIM and return its alphabet size 2^n."""
    if not _is_int(n) or n < 2:
        raise InvalidAlphabet(f"need an integer n >= 2, got {n!r}")
    if n > MAX_DIM:
        raise InvalidAlphabet(
            f"dimension {n} exceeds MAX_DIM = {MAX_DIM}: its alphabet would have 2^{n} letters")
    return 1 << n


def base_permutation(kind, n, i=None, j=None):
    """Rooted permutation of the 2^n letters, 0-based.

    "tau":   x1 += x2        (carry-free part of adding column 2 to column 1)
    "sigma": x1 += 1         (carry-free part of adding the vector e1)
    "pi":    swap bits i, j  (requires 1 <= i < j <= n)
    """
    size = _alphabet_size(n)
    if kind == "tau":
        return tuple(v ^ ((v >> 1) & 1) for v in range(size))
    if kind == "sigma":
        return tuple(v ^ 1 for v in range(size))
    if kind == "pi":
        if not (_is_int(i) and _is_int(j) and 1 <= i < j <= n):
            raise InvalidIndex(f"pi needs 1 <= i < j <= n, got i={i!r}, j={j!r}")
        a, b = i - 1, j - 1

        def swap(v):
            if ((v >> a) ^ (v >> b)) & 1:
                return v ^ (1 << a) ^ (1 << b)
            return v

        return tuple(swap(v) for v in range(size))
    raise ValueError(f"unknown permutation kind {kind!r}")


@lru_cache(maxsize=None, typed=True)
def generator_automorphism(name, n, i=None, j=None):
    """The finite-state machine of a group generator over 2^n letters.

    "t1": x -> x T_21(1), adding column 2 to column 1, least significant
          bit first: the carry machine of T_21(1) at carry 0 (two states;
          a carry is produced exactly on letters with x1 = x2 = 1)
    "t2": x -> x T_21(1) + e1, the same machine at carry e1 (the carry is
          absorbed exactly on letters with x1 = x2 = 0)
    "s":  swaps basis vectors i and j (single state, pure permutation)

    t1 and t2 are the two states of one machine, the full adder of
    low-order-first bit streams.  Any other exit rule for t2 breaks the
    group relations the embedding depends on (for n >= 3 the images of
    commuting elementary matrices stop commuting), so the machine is pinned
    by the arithmetic, not just by its displayed table.
    """
    size = _alphabet_size(n)
    if name == "s":
        pi = base_permutation("pi", n, i, j)
        return TreeAutomorphism._trusted(size, (pi,), ((0,) * size,), minimal=True)
    if i is not None or j is not None:
        raise InvalidIndex(f"generator {name!r} takes no indices")
    if name not in ("t1", "t2"):
        raise ValueError(f"unknown generator {name!r}")
    carry = (int(name == "t2"),) + (0,) * (n - 1)
    return _carry(Transvection(2, 1, 1).matrix(n), carry)


@lru_cache(maxsize=None)
def _carry(matrix, carry):
    """The machine of x -> xA + c on 2-adic row vectors, for A = `matrix`
    and c = `carry`, a tuple of n ints.  Its states are carry vectors,
    numbered breadth-first from c with letters ascending: on the letter with
    bits b, state c writes s mod 2, where s = bA + c, and moves to carry
    s >> 1.  Distinct carries give distinct maps, so the machine is minimal
    and canonically numbered as built.  The validating constructor rejects
    an A that is not invertible mod 2.  Only a finite set of matrices comes
    here, never a phi input: the one-step matrices of the generators and of
    the elementary factors, and the coarse T21(2) and T12(2) of sanov, so
    the cache stays small."""
    size = _alphabet_size(matrix.n)
    # bA for every letter: a letter's bits select the rows it sums, so bA is
    # the letter without its lowest set bit, plus that bit's row
    products = [(0,) * matrix.n]
    for v in range(1, size):
        low = (v & -v).bit_length() - 1
        products.append(tuple(map(sum, zip(products[v & (v - 1)], matrix.rows[low]))))
    ids = {carry: 0}
    order = [carry]
    states = []
    for c in order:  # grows as new carries are reached
        outs, targets = [], []
        for p in products:
            s = [x + y for x, y in zip(p, c)]
            outs.append(sum((x & 1) << i for i, x in enumerate(s)))
            nxt = tuple(x >> 1 for x in s)
            if nxt not in ids:
                ids[nxt] = len(order)
                order.append(nxt)
            targets.append(ids[nxt])
        states.append((outs, targets))
    return TreeAutomorphism(size, states)


# ----------------------------------------------------------------------
# integer matrices

class IntMatrix:
    """Immutable square integer matrix with checked 64-bit entries."""

    __slots__ = ("n", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if n < 2 or any(len(r) != n for r in rows):
            raise ShapeError(f"expected a square matrix of dimension >= 2, got {n} rows")
        for r in rows:
            for e in r:
                if not _is_int(e):
                    raise TypeError(f"matrix entries must be ints, got {e!r}")
                _check64(e)
        self.n = n
        self.rows = rows

    @classmethod
    def identity(cls, n):
        return cls(tuple(tuple(1 if r == c else 0 for c in range(n)) for r in range(n)))

    def __mul__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.n != other.n:
            raise ShapeError(f"dimension mismatch: {self.n} vs {other.n}")
        n = self.n
        a, b = self.rows, other.rows
        return IntMatrix(
            tuple(
                tuple(_check64(sum(a[r][k] * b[k][c] for k in range(n))) for c in range(n))
                for r in range(n)
            )
        )

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"IntMatrix({list(map(list, self.rows))})"

    def det(self):
        """Determinant by fraction-free (Bareiss) elimination, exact."""
        n = self.n
        m = [list(r) for r in self.rows]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for r in range(k + 1, n):
                    if m[r][k] != 0:
                        m[k], m[r] = m[r], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def is_unimodular(self):
        return self.det() in (1, -1)

    def to_json(self):
        return {"n": self.n, "rows": [list(r) for r in self.rows]}

    @classmethod
    def from_json(cls, data):
        try:
            n = data["n"]
            rows = data["rows"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed matrix JSON: {exc}") from exc
        if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
            raise ParseError("malformed matrix JSON: \"rows\" must be a list of lists")
        for r in rows:
            for e in r:
                if not _is_int(e):
                    raise ParseError(f"malformed matrix JSON: entry {e!r} is not an integer")
        matrix = cls(rows)
        if matrix.n != n:
            raise ShapeError(f"\"n\" is {n} but the matrix has {matrix.n} rows")
        return matrix


# ----------------------------------------------------------------------
# elementary factors

@dataclass(frozen=True)
class Transvection:
    """Identity plus k in entry (i, j); as a column operation it adds k times
    column i to column j.  Indices 1-based, i != j, k != 0."""

    i: int
    j: int
    k: int

    def __post_init__(self):
        if not (_is_int(self.i) and _is_int(self.j)
                and self.i >= 1 and self.j >= 1 and self.i != self.j):
            raise InvalidIndex(f"transvection needs distinct 1-based indices, got ({self.i!r}, {self.j!r})")
        if not _is_int(self.k) or self.k == 0:
            raise ValueError(f"transvection parameter must be a nonzero int, got {self.k!r}")
        _check64(self.k)

    def matrix(self, n):
        _require_dim(max(self.i, self.j), n)
        rows = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
        rows[self.i - 1][self.j - 1] = self.k
        return IntMatrix(rows)

    def inverse(self):
        return Transvection(self.i, self.j, -self.k)


@dataclass(frozen=True)
class SignFlip:
    """Diagonal matrix negating basis vector i (1-based)."""

    i: int

    def __post_init__(self):
        if not _is_int(self.i) or self.i < 1:
            raise InvalidIndex(f"sign flip needs a 1-based index, got {self.i!r}")

    def matrix(self, n):
        _require_dim(self.i, n)
        rows = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
        rows[self.i - 1][self.i - 1] = -1
        return IntMatrix(rows)

    def inverse(self):
        return self


@dataclass(frozen=True)
class Transposition:
    """Permutation matrix swapping basis vectors i < j (1-based)."""

    i: int
    j: int

    def __post_init__(self):
        if not (_is_int(self.i) and _is_int(self.j) and 1 <= self.i < self.j):
            raise InvalidIndex(f"transposition needs 1 <= i < j, got ({self.i!r}, {self.j!r})")

    def matrix(self, n):
        _require_dim(self.j, n)
        perm = list(range(n))
        perm[self.i - 1], perm[self.j - 1] = perm[self.j - 1], perm[self.i - 1]
        return IntMatrix([[1 if c == perm[r] else 0 for c in range(n)] for r in range(n)])

    def inverse(self):
        return self


ElementaryFactor = Transvection | SignFlip | Transposition


def _require_dim(index, n):
    if not _is_int(n) or n < 2:
        raise InvalidAlphabet(f"need an integer n >= 2, got {n!r}")
    if index > n:
        raise InvalidIndex(f"index {index} exceeds dimension {n}")


def factor_to_json(factor):
    if isinstance(factor, Transvection):
        return {"T": [factor.i, factor.j, factor.k]}
    if isinstance(factor, SignFlip):
        return {"E": factor.i}
    if isinstance(factor, Transposition):
        return {"P": [factor.i, factor.j]}
    raise TypeError(f"not an elementary factor: {factor!r}")


def factor_from_json(data):
    if not isinstance(data, dict) or len(data) != 1:
        raise ParseError(f"malformed factor JSON: {data!r}")
    try:
        if "T" in data:
            i, j, k = data["T"]
            return Transvection(i, j, k)
        if "E" in data:
            return SignFlip(data["E"])
        if "P" in data:
            i, j = data["P"]
            return Transposition(i, j)
    except (ValueError, TypeError, InvalidIndex) as exc:
        raise ParseError(f"malformed factor JSON: {data!r}") from exc
    raise ParseError(f"unknown factor tag in {data!r}")


def factors_to_json(factors):
    return [factor_to_json(f) for f in factors]


def factors_from_json(data):
    if not isinstance(data, list):
        raise ParseError("factor list JSON must be a list")
    return [factor_from_json(item) for item in data]


def factor_product(factors, n):
    """Product of the factor matrices, in list order."""
    acc = IntMatrix.identity(n)
    for f in factors:
        acc = acc * f.matrix(n)
    return acc


# ----------------------------------------------------------------------
# factorization into elementary matrices

def factorize(matrix):
    """Ordered elementary factors whose product equals `matrix`.

    Column reduction: per pivot position p, Euclid on row p across columns
    >= p (pivot = entry of least absolute value, ties to the lowest column,
    swapped into column p), then floor-quotient transvections shrink the
    rest of the row; once the matrix is a lower triangular M with
    unit-magnitude diagonal, below-diagonal entries are cleared and -1
    diagonal entries flipped.  The inverses of the recorded
    right-multiplications, reversed, are the factorization.

    The clearing runs over the columns of M right to left and cancels each
    m[q][p] with -m[q][p] * m[q][q] times column q, which is already cleared,
    so each step changes one entry and the parameters are the entries of M
    up to sign.  (Left to right, they would be the entries of M^-1, which
    grow multiplicatively with n.)  So the parameters of a unit triangular
    matrix are its nonzero off-diagonal entries up to sign, and at n = 2,
    with one entry to clear, the list is the same in either order."""
    if not isinstance(matrix, IntMatrix):
        raise TypeError("factorize expects an IntMatrix")
    d = matrix.det()
    if d not in (1, -1):
        raise NotUnimodular(f"determinant is {d}, expected +1 or -1")
    n = matrix.n
    m = [list(r) for r in matrix.rows]
    ops = []

    def add_col(i, j, t):
        # column j += t * column i; the factor is its inverse, recorded as
        # such so that t = 2^63 with a representable -t does not overflow
        for r in range(n):
            m[r][j] = _check64(m[r][j] + t * m[r][i])
        ops.append(Transvection(i + 1, j + 1, -t))

    def swap_cols(i, j):
        for r in range(n):
            m[r][i], m[r][j] = m[r][j], m[r][i]
        ops.append(Transposition(i + 1, j + 1))

    for p in range(n):
        while True:
            best = p
            for q in range(p, n):
                if m[p][q] != 0 and (m[p][best] == 0 or abs(m[p][q]) < abs(m[p][best])):
                    best = q
            # a zero row segment here would force det = 0
            if best != p:
                swap_cols(p, best)
            done = True
            for q in range(p + 1, n):
                if m[p][q]:
                    t = m[p][q] // m[p][p]
                    if t:
                        add_col(p, q, -t)
                    if m[p][q]:
                        done = False
            if done:
                break
    for p in reversed(range(n)):
        for q in range(p + 1, n):
            if m[q][p]:
                # column q is cleared and has unit diagonal m[q][q]
                add_col(q, p, -m[q][p] * m[q][q])
    for p in range(n):
        if m[p][p] == -1:
            for r in range(n):
                m[r][p] = -m[r][p]
            ops.append(SignFlip(p + 1))
    if any(m[r][c] != (1 if r == c else 0) for r in range(n) for c in range(n)):
        raise RuntimeError(f"factorize: column reduction left {m}, not the identity")
    # sign flips and transpositions are their own inverses
    return ops[::-1]


# ----------------------------------------------------------------------
# the embedding

def elementary_to_automorphism(factor, n):
    """Machine of one elementary factor acting on the 2^n-ary tree.  A
    transposition permutes two bits (one state).  A sign flip E_i is the
    carry machine of x -> xE_i, with carries 0 and -e_i (two states).
    T_ij(k) is the k-th power of the carry machine of T_ij(1) (|k| + 1
    states).  The index and the dimension are checked before any n x n
    matrix is built."""
    if isinstance(factor, Transposition):
        return generator_automorphism("s", n, factor.i, factor.j)
    if isinstance(factor, SignFlip):
        _require_dim(factor.i, n)
        _alphabet_size(n)
        return _carry(factor.matrix(n), (0,) * n)
    if isinstance(factor, Transvection):
        _require_dim(max(factor.i, factor.j), n)
        _alphabet_size(n)
        # a power, not a direct T_ij(k): a faster phi empties the benchmark's finite phi stream
        return _carry(Transvection(factor.i, factor.j, 1).matrix(n), (0,) * n).power(factor.k)
    raise TypeError(f"not an elementary factor: {factor!r}")


def expected_states(factor):
    """Exact minimal state count of an elementary factor's machine:
    1 for a transposition, 2 for a sign flip, |k| + 1 for a transvection.

    A sign flip negates one coordinate stream in two's complement (invert
    every bit, then add one).  Its carries are 0, which copies bits up to
    and including the first 1, and -e_i, which inverts every later bit:
    exactly two states."""
    if isinstance(factor, Transposition):
        return 1
    if isinstance(factor, SignFlip):
        return 2
    if isinstance(factor, Transvection):
        return abs(factor.k) + 1
    raise TypeError(f"not an elementary factor: {factor!r}")


def phi(matrix):
    """The embedding: factorize, map each factor to its machine, compose
    left to right with minimization interleaved.  Dimensions above MAX_DIM
    raise InvalidAlphabet before any work is done."""
    if not isinstance(matrix, IntMatrix):
        raise TypeError("phi expects an IntMatrix")
    size = _alphabet_size(matrix.n)
    factors = factorize(matrix)
    acc = TreeAutomorphism.identity(size)
    for f in factors:
        acc = acc.compose(elementary_to_automorphism(f, matrix.n)).minimize()
    return acc
