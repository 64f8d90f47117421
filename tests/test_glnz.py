"""Tests for the matrix-to-automorphism embedding: letter codecs, the base
machines, elementary factors, factorization and the embedding itself.

The two-state adder machine is pinned in both directions: its displayed
recursions and the group relations that force the carry rule (commuting
images of commuting matrices).  The relations are the stronger pin — they
fail for every other exit rule of the carry state.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import glnztree
from glnztree import (
    GlnzTreeError,
    IntMatrix,
    InvalidAlphabet,
    InvalidIndex,
    InvalidLetter,
    NotUnimodular,
    ParseError,
    ShapeError,
    SignFlip,
    Transposition,
    Transvection,
    TreeAutomorphism,
    base_permutation,
    bits_from_letter,
    elementary_to_automorphism,
    expected_states,
    factor_from_json,
    factor_product,
    factor_to_json,
    factorize,
    factors_from_json,
    factors_to_json,
    generator_automorphism,
    letter_from_bits,
    phi,
)
from glnztree import sanov
from glnztree.checks import random_unimodular
from glnztree.glnz import _carry

# ----------------------------------------------------------------------
# base permutations and letter codecs


def test_base_permutation_pinned():
    # 1-based cycle notation in comments
    assert base_permutation("tau", 2) == (0, 1, 3, 2)  # (34)
    assert base_permutation("sigma", 2) == (1, 0, 3, 2)  # (12)(34)
    assert base_permutation("pi", 2, 1, 2) == (0, 2, 1, 3)  # (23)
    assert base_permutation("sigma", 3) == (1, 0, 3, 2, 5, 4, 7, 6)
    assert base_permutation("tau", 3) == (0, 1, 3, 2, 4, 5, 7, 6)


def test_base_permutation_involutions():
    rng = random.Random("glnztree/tests/perm")
    for _ in range(20):
        n = rng.randint(2, 5)
        size = 1 << n
        for kind in ("tau", "sigma"):
            p = base_permutation(kind, n)
            assert sorted(p) == list(range(size))
            assert all(p[p[v]] == v for v in range(size))
        i = rng.randint(1, n - 1)
        j = rng.randint(i + 1, n)
        p = base_permutation("pi", n, i, j)
        assert sorted(p) == list(range(size))
        assert all(p[p[v]] == v for v in range(size))


def test_base_permutation_validation():
    with pytest.raises(InvalidAlphabet):
        base_permutation("tau", 1)
    with pytest.raises(InvalidIndex):
        base_permutation("pi", 2, 2, 1)
    with pytest.raises(InvalidIndex):
        base_permutation("pi", 3, 1, 5)
    with pytest.raises(InvalidIndex):
        base_permutation("pi", 2, None, None)
    with pytest.raises(ValueError):
        base_permutation("rho", 2)
    with pytest.raises(InvalidIndex):
        base_permutation("pi", 2, True, 2)


def test_letter_codec_pinned():
    assert letter_from_bits((1, 0)) == 2
    assert letter_from_bits((0, 0, 0)) == 1
    assert letter_from_bits((1, 1)) == 4
    assert bits_from_letter(2, 2) == (1, 0)
    assert bits_from_letter(1, 3) == (0, 0, 0)
    assert bits_from_letter(4, 2) == (1, 1)


def test_letter_codec_roundtrip():
    for n in (2, 3, 4):
        for letter in range(1, (1 << n) + 1):
            bits = bits_from_letter(letter, n)
            assert len(bits) == n
            assert letter_from_bits(bits) == letter


def test_letter_codec_validation():
    with pytest.raises(InvalidLetter):
        bits_from_letter(0, 2)
    with pytest.raises(InvalidLetter):
        bits_from_letter(5, 2)
    with pytest.raises(InvalidAlphabet):
        bits_from_letter(1, 0)
    with pytest.raises(ValueError):
        letter_from_bits(())
    with pytest.raises(ValueError):
        letter_from_bits((2, 0))


# ----------------------------------------------------------------------
# the generator machines


def test_generator_machines_pinned():
    for n in (2, 3, 4):
        t1 = generator_automorphism("t1", n)
        t2 = generator_automorphism("t2", n)
        assert t1.state_count() == 2
        assert t2.state_count() == 2
        assert t1.outputs[0] == base_permutation("tau", n)
        # the carry appears exactly on letters with x1 = x2 = 1 and is
        # absorbed exactly on letters with x1 = x2 = 0
        for v in range(1 << n):
            assert t1.state_at((v,)).equal(t2 if v & 3 == 3 else t1)
            assert t2.state_at((v,)).equal(t1 if v & 3 == 0 else t2)
    s13 = generator_automorphism("s", 3, 1, 3)
    assert len(s13.outputs) == 1
    assert s13.outputs[0] == base_permutation("pi", 3, 1, 3)


def test_generator_machine_displays():
    t1 = generator_automorphism("t1", 2)
    t2 = generator_automorphism("t2", 2)
    sections, root = t1.first_level_states()
    assert root == (0, 1, 3, 2)  # (34)
    assert [section.equal(t2) for section in sections] == [False, False, False, True]
    sections, root = t2.first_level_states()
    assert root == (1, 0, 2, 3)  # (12)
    assert [section.equal(t1) for section in sections] == [True, False, False, False]


def test_generator_validation():
    with pytest.raises(InvalidAlphabet):
        generator_automorphism("t1", 1)
    with pytest.raises(InvalidIndex):
        generator_automorphism("t1", 2, 1, 2)
    with pytest.raises(InvalidIndex):
        generator_automorphism("s", 2, 2, 1)
    with pytest.raises(InvalidIndex):
        generator_automorphism("s", 2, 1, 5)
    with pytest.raises(ValueError):
        generator_automorphism("t3", 2)
    # equal keys of another type miss the cache and are checked afresh
    generator_automorphism("s", 2, 1, 2)
    with pytest.raises(InvalidIndex):
        generator_automorphism("s", 2, True, 2)
    generator_automorphism("t1", 2)
    with pytest.raises(InvalidAlphabet):
        generator_automorphism("t1", 2.0)


def test_carry_rule_group_relations():
    """The relations that pin the carry state's exit rule (n = 3).

    Adding column 2 to column 1 commutes with adding column 3 to column 1,
    and the commutator of "column 1 += column 3" with "column 2 += column 1"
    is "column 2 += column 3".  Both fail for any other exit rule."""
    t1 = generator_automorphism("t1", 3)
    s23 = generator_automorphism("s", 3, 2, 3)
    other = s23.compose(t1).compose(s23).minimize()
    assert t1.compose(other).equal(other.compose(t1))

    g = phi(Transvection(3, 1, 1).matrix(3))
    h = phi(Transvection(1, 2, 1).matrix(3))
    commutator_matrix = (
        Transvection(3, 1, 1).matrix(3)
        * Transvection(1, 2, 1).matrix(3)
        * Transvection(3, 1, -1).matrix(3)
        * Transvection(1, 2, -1).matrix(3)
    )
    machine = g.compose(h).compose(g.inverse()).compose(h.inverse()).minimize()
    assert machine.equal(phi(commutator_matrix))
    # the commutator of those two column operations is itself elementary
    assert commutator_matrix in (
        Transvection(3, 2, 1).matrix(3),
        Transvection(3, 2, -1).matrix(3),
    )


# ----------------------------------------------------------------------
# matrices


def test_intmatrix_basics():
    eye = IntMatrix.identity(3)
    assert eye.det() == 1
    assert eye.is_unimodular()
    rot = IntMatrix([[0, -1], [1, 0]])
    assert rot.det() == 1
    assert (rot * rot).rows == ((-1, 0), (0, -1))
    assert IntMatrix([[2, 0], [0, 1]]).det() == 2
    assert not IntMatrix([[2, 0], [0, 1]]).is_unimodular()
    assert IntMatrix([[1, 0, 0], [3, 1, 0], [2, -1, 1]]).det() == 1
    assert IntMatrix([[0, 1], [1, 0]]).det() == -1
    assert IntMatrix([[1, 2], [2, 4]]).det() == 0


def test_intmatrix_validation():
    with pytest.raises(ShapeError):
        IntMatrix([[1, 0], [0, 1], [0, 0]])
    with pytest.raises(ShapeError):
        IntMatrix([[1]])
    with pytest.raises(TypeError):
        IntMatrix([[1, 0], [0, 1.0]])
    with pytest.raises(TypeError):
        IntMatrix([[1, 0], [0, True]])
    with pytest.raises(OverflowError):
        IntMatrix([[2 ** 63, 0], [0, 1]])
    big = IntMatrix([[2 ** 62, 0], [0, 1]])
    with pytest.raises(OverflowError):
        big * IntMatrix([[2, 0], [0, 1]])
    with pytest.raises(ShapeError):
        IntMatrix.identity(2) * IntMatrix.identity(3)


def test_intmatrix_json():
    mat = IntMatrix([[1, 0], [2, 1]])
    assert mat.to_json() == {"n": 2, "rows": [[1, 0], [2, 1]]}
    assert IntMatrix.from_json(json.loads(json.dumps(mat.to_json()))) == mat
    with pytest.raises(ParseError):
        IntMatrix.from_json({"rows": [[1, 0], [0, 1]]})
    with pytest.raises(ParseError):
        IntMatrix.from_json({"n": 2, "rows": "nope"})
    with pytest.raises(ShapeError):
        IntMatrix.from_json({"n": 3, "rows": [[1, 0], [0, 1]]})


@pytest.mark.parametrize("entry", [1.0, True, "1", None, [1]])
def test_intmatrix_from_json_rejects_non_integer_entries(entry):
    with pytest.raises(ParseError):
        IntMatrix.from_json({"n": 2, "rows": [[1, 0], [0, entry]]})


# ----------------------------------------------------------------------
# elementary factors


def test_factor_matrices_and_inverses():
    assert Transvection(2, 1, 3).matrix(2).rows == ((1, 0), (3, 1))
    assert Transvection(1, 2, -2).matrix(3).rows == ((1, -2, 0), (0, 1, 0), (0, 0, 1))
    assert SignFlip(2).matrix(2).rows == ((1, 0), (0, -1))
    assert Transposition(1, 3).matrix(3).rows == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    for f in (Transvection(2, 1, 3), SignFlip(1), Transposition(1, 2)):
        n = 3
        assert f.matrix(n) * f.inverse().matrix(n) == IntMatrix.identity(n)


def test_factor_validation():
    with pytest.raises(ValueError):
        Transvection(1, 2, 0)
    with pytest.raises(InvalidIndex):
        Transvection(2, 2, 1)
    with pytest.raises(InvalidIndex):
        Transvection(0, 1, 1)
    with pytest.raises(InvalidIndex):
        SignFlip(0)
    with pytest.raises(InvalidIndex):
        Transposition(2, 1)
    with pytest.raises(InvalidIndex):
        Transposition(2, 2)
    with pytest.raises(InvalidIndex):
        Transvection(1, 5, 1).matrix(3)
    with pytest.raises(InvalidIndex):
        SignFlip(4).matrix(3)
    with pytest.raises(OverflowError):
        Transvection(1, 2, 2 ** 63)
    # a bool is not an index or a parameter
    with pytest.raises(ValueError):
        Transvection(2, 1, True)
    with pytest.raises(InvalidIndex):
        Transvection(True, 2, 1)
    with pytest.raises(InvalidIndex):
        SignFlip(True)
    with pytest.raises(InvalidIndex):
        Transposition(True, 2)


def test_factor_json():
    factors = [Transvection(2, 1, 1), SignFlip(1), Transposition(1, 3)]
    payload = factors_to_json(factors)
    assert payload == [{"T": [2, 1, 1]}, {"E": 1}, {"P": [1, 3]}]
    assert factors_from_json(json.loads(json.dumps(payload))) == factors
    assert factor_from_json(factor_to_json(SignFlip(2))) == SignFlip(2)
    with pytest.raises(ParseError):
        factor_from_json({"X": 1})
    with pytest.raises(ParseError):
        factor_from_json({"T": [1, 2, 0]})
    with pytest.raises(ParseError):
        factor_from_json(json.loads('{"T": [2, 1, true]}'))
    # a bad index is malformed JSON too, not an InvalidIndex
    for bad in ('{"E": true}', '{"T": [0, 1, 1]}', '{"P": [2, 1]}'):
        with pytest.raises(ParseError):
            factor_from_json(json.loads(bad))
    with pytest.raises(ParseError):
        factor_from_json({"T": [1, 2], "E": 1})
    with pytest.raises(ParseError):
        factor_from_json("T 1 2 3")
    with pytest.raises(ParseError):
        factors_from_json({"T": [1, 2, 3]})
    with pytest.raises(TypeError):
        factor_to_json(IntMatrix.identity(2))


def test_factor_product():
    assert factor_product([], 2) == IntMatrix.identity(2)
    factors = [Transvection(2, 1, 1), Transposition(1, 2)]
    assert factor_product(factors, 2) == (
        Transvection(2, 1, 1).matrix(2) * Transposition(1, 2).matrix(2)
    )


# ----------------------------------------------------------------------
# factorization


def test_factorize_pinned():
    assert factorize(IntMatrix.identity(2)) == []
    assert factorize(IntMatrix.identity(4)) == []
    assert factorize(IntMatrix([[1, 0], [1, 1]])) == [Transvection(2, 1, 1)]
    rot = IntMatrix([[0, -1], [1, 0]])
    factors = factorize(rot)
    assert factor_product(factors, 2) == rot
    # determinism matters for byte-stable CLI output
    assert factorize(rot) == factors == [SignFlip(1), Transposition(1, 2)]


def test_factorize_roundtrip_random():
    rng = random.Random("glnztree/tests/factorize")
    dims = (2, 3, 4)
    for _ in range(60):
        n = rng.choice(dims)
        factors = [_random_factor(n, rng) for _ in range(rng.randint(0, 12))]
        mat = factor_product(factors, n)
        assert factor_product(factorize(mat), n) == mat


def _random_factor(n, rng):
    kind = rng.randrange(3)
    if kind == 0:
        i, j = rng.sample(range(1, n + 1), 2)
        return Transvection(i, j, rng.choice([-3, -2, -1, 1, 2, 3]))
    if kind == 1:
        return SignFlip(rng.randint(1, n))
    i, j = sorted(rng.sample(range(1, n + 1), 2))
    return Transposition(i, j)


def test_factorize_validation():
    with pytest.raises(NotUnimodular):
        factorize(IntMatrix([[2, 0], [0, 1]]))
    with pytest.raises(NotUnimodular):
        factorize(IntMatrix([[1, 2], [2, 4]]))
    with pytest.raises(TypeError):
        factorize([[1, 0], [0, 1]])


_RESIDUE_SCRIPT = """
from glnztree import IntMatrix, factorize
IntMatrix.det = lambda self: 1  # let a non-unimodular matrix through
try:
    factorize(IntMatrix([[2, 0], [0, 1]]))
except RuntimeError as exc:
    print("RuntimeError", exc)
else:
    print("returned")
"""


def test_factorize_residue_check_is_an_internal_error(monkeypatch):
    # a residue other than the identity is a bug, not malformed input
    monkeypatch.setattr(IntMatrix, "det", lambda self: 1)
    with pytest.raises(RuntimeError) as info:
        factorize(IntMatrix([[2, 0], [0, 1]]))
    assert not isinstance(info.value, GlnzTreeError)


def test_factorize_residue_check_survives_optimize():
    src = str(Path(glnztree.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-O", "-c", _RESIDUE_SCRIPT],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("RuntimeError factorize: ")


def test_factorize_stays_exact_on_large_entries():
    k = 2 ** 40
    mat = IntMatrix([[1, 0], [k, 1]])
    assert factorize(mat) == [Transvection(2, 1, k)]
    mixed = IntMatrix([[1, k], [0, 1]]) * IntMatrix([[1, 0], [7, 1]])
    assert factor_product(factorize(mixed), 2) == mixed


def _unit_lower(n, entry):
    return [[1 if r == c else entry if r > c else 0 for c in range(n)] for r in range(n)]


def _off_diagonal(rows):
    return sorted(e for r, row in enumerate(rows) for c, e in enumerate(row) if r != c and e)


@pytest.mark.parametrize("rows", [
    # the inverses of these have entries far beyond 2^63, so clearing left
    # to right overflows
    _unit_lower(12, 100),
    _unit_lower(8, 1000),
    _unit_lower(5, 100000),
    # left to right, entry (4, 1) would reach -2^63 and its factor 2^63
    [[1, 0, 0, 0], [1, 1, 0, 0], [1, 1, 1, 0], [-2 ** 62, 2 ** 62, 2 ** 62, 1]],
    # the column operation adds 2^63 times a column; its inverse is in range
    [[1, 0], [-2 ** 63, 1]],
    [[1, -2 ** 63], [0, 1]],
], ids=["12x12-100", "8x8-1000", "5x5-100000", "4x4-2^62", "lower-min64", "upper-min64"])
def test_factorize_parameters_are_the_entries_near_int64(rows):
    mat = IntMatrix(rows)
    factors = factorize(mat)
    assert factor_product(factors, mat.n) == mat
    assert sorted(f.k for f in factors) == _off_diagonal(rows)


def _unit_triangular(n, rng, lower):
    return [[1 if r == c else rng.randint(-5, 5) if (r > c) == lower else 0
             for c in range(n)] for r in range(n)]


def test_factorize_triangular_parameters():
    # upper: the pivot stage cancels each entry once; lower: the clearing
    # runs right to left, so each step cancels one entry of the matrix
    rng = random.Random("glnztree/tests/triangular-parameters")
    for n in range(3, 7):
        for lower in (False, True) * 15:
            rows = _unit_triangular(n, rng, lower)
            mat = IntMatrix(rows)
            factors = factorize(mat)
            assert factor_product(factors, n) == mat
            assert all(isinstance(f, Transvection) for f in factors)
            assert sorted(f.k for f in factors) == _off_diagonal(rows), rows


# ----------------------------------------------------------------------
# elementary images and the embedding


def test_elementary_images_pinned():
    assert elementary_to_automorphism(Transposition(1, 2), 2).equal(
        generator_automorphism("s", 2, 1, 2)
    )
    assert elementary_to_automorphism(Transposition(1, 2), 2).state_count() == 1
    t1 = generator_automorphism("t1", 2)
    assert elementary_to_automorphism(Transvection(2, 1, 1), 2).equal(t1)
    assert elementary_to_automorphism(Transvection(2, 1, 3), 2).equal(t1.power(3))
    # the (1,2)-transvection is the swap conjugate of the base machine
    s12 = generator_automorphism("s", 2, 1, 2)
    s1 = s12.compose(t1).compose(s12).minimize()
    assert elementary_to_automorphism(Transvection(1, 2, 1), 2).equal(s1)
    assert elementary_to_automorphism(Transvection(2, 1, -7), 3).state_count() == 8


def test_elementary_images_agree_with_their_matrices():
    rng = random.Random("glnztree/tests/elementary")
    n = 3
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            k = rng.choice([-3, -2, -1, 1, 2, 3])
            f = Transvection(i, j, k)
            machine = elementary_to_automorphism(f, n)
            assert machine.state_count() == abs(k) + 1
            assert machine.equal(phi(f.matrix(n)))


def test_sign_flip_images():
    for n in (2, 3):
        for i in range(1, n + 1):
            machine = elementary_to_automorphism(SignFlip(i), n)
            assert machine.state_count() == 2
            assert machine.compose(machine).is_identity()
            assert machine.equal(phi(SignFlip(i).matrix(n)))
    with pytest.raises(InvalidIndex):
        elementary_to_automorphism(SignFlip(3), 2)
    with pytest.raises(TypeError):
        elementary_to_automorphism(IntMatrix.identity(2), 2)


def test_sign_flip_negates_the_coordinate_stream():
    """phi(diag(-1, 1)) maps the digit stream of (x, y) to that of (-x, y):
    acting on the expansion of e1 = (1, 0, 0, ...) yields -e1, whose 2-adic
    first coordinate is all ones (two's complement)."""
    machine = elementary_to_automorphism(SignFlip(1), 2)
    one = (letter_from_bits((1, 0)) - 1,) + (letter_from_bits((0, 0)) - 1,) * 5
    minus_one = (letter_from_bits((1, 0)) - 1,) * 6
    assert machine.act(one) == minus_one


# The conjugation chains that built the elementary machines before they were
# built directly from their column arithmetic, kept as oracles.

def _conjugators(i, j):
    """Transpositions (outermost first) carrying the base (2,1)-transvection
    to position (i, j): T_ij = P1 P2 T21 P2 P1 for the returned [P1, P2]."""
    if (i, j) == (2, 1):
        return []
    if (i, j) == (1, 2):
        return [(1, 2)]
    if j == 1:
        return [(2, i)]
    if i == 2:
        return [(1, j)]
    if i == 1:
        return [(1, 2), (1, j)]
    if j == 2:
        return [(1, i), (1, 2)]
    return [(2, i), (1, j)]


def _chain_transvection(i, j, k, n):
    acc = generator_automorphism("t1", n).power(k)
    for a, b in reversed(_conjugators(i, j)):
        s = generator_automorphism("s", n, a, b)
        acc = s.compose(acc).compose(s)
    return acc


def _chain_sign_flip(i, n):
    # diag(-1, 1, ..., 1) = T21(1) P12 T21(-1) P12 T21(1) P12, then moved to
    # position i by conjugating with s_1i
    t1 = generator_automorphism("t1", n)
    s12 = generator_automorphism("s", n, 1, 2)
    acc = TreeAutomorphism.identity(1 << n)
    for g in (t1, s12, t1.inverse(), s12, t1, s12):
        acc = acc.compose(g)
    if i == 1:
        return acc
    s = generator_automorphism("s", n, 1, i)
    return s.compose(acc).compose(s)


_ORACLE_KS = (1, -1, 2, -2, 5, -5)


def _elementary_factors(n):
    for i in range(1, n + 1):
        yield SignFlip(i)
        for j in range(1, n + 1):
            if i != j:
                for k in _ORACLE_KS:
                    yield Transvection(i, j, k)
            if i < j:
                yield Transposition(i, j)


def test_elementary_machines_equal_the_conjugation_chains():
    for n in (2, 3, 4):
        for i in range(1, n + 1):
            assert elementary_to_automorphism(SignFlip(i), n).equal(_chain_sign_flip(i, n))
            for j in range(1, n + 1):
                if i == j:
                    continue
                for k in _ORACLE_KS:
                    machine = elementary_to_automorphism(Transvection(i, j, k), n)
                    assert machine.equal(_chain_transvection(i, j, k, n)), (n, i, j, k)


def _decode(word, n):
    """The n integers a word spells: bit i of its t-th letter is bit t of
    coordinate i."""
    x = [0] * n
    for t, letter in enumerate(word):
        for i in range(n):
            x[i] |= ((letter >> i) & 1) << t
    return x


def _spell(x, length):
    return tuple(sum(((xi >> t) & 1) << i for i, xi in enumerate(x)) for t in range(length))


def _arithmetic_image(rows, word, carry=None):
    """spell(decode(w) A + c mod 2^|w|): the row vector a word spells, times
    A, plus the carry vector c (default 0)."""
    n = len(rows)
    c = carry or (0,) * n
    x = _decode(word, n)
    y = [(sum(x[r] * rows[r][j] for r in range(n)) + c[j]) % (1 << len(word)) for j in range(n)]
    return _spell(y, len(word))


def _assert_acts_arithmetically(machine, rows, rng, carry=None):
    for length in (0, 1, 3, 8, 24):
        word = tuple(rng.randrange(machine.n) for _ in range(length))
        assert machine.act(word) == _arithmetic_image(rows, word, carry), (rows, carry, word)


def test_elementary_machines_act_by_column_arithmetic():
    """Each factor's machine and phi of its matrix map a word to the
    spelling of x A mod 2^|w|, computed on integers with no machine."""
    rng = random.Random("glnztree/tests/arithmetic-elementary")
    for n in (2, 3, 4):
        for f in _elementary_factors(n):
            rows = f.matrix(n).rows
            _assert_acts_arithmetically(elementary_to_automorphism(f, n), rows, rng)
            _assert_acts_arithmetically(phi(f.matrix(n)), rows, rng)


def test_phi_acts_by_column_arithmetic():
    rng = random.Random("glnztree/tests/arithmetic-phi")
    for n in (2, 3, 4):
        for _ in range(30):
            mat, _ = random_unimodular(n, rng)
            _assert_acts_arithmetically(phi(mat), mat.rows, rng)


def _construction_matrices():
    """Every elementary matrix with k in _ORACLE_KS, and 30 seeded
    random_unimodular matrices, per n in {2, 3, 4}."""
    rng = random.Random("glnztree/tests/carry-construction")
    for n in (2, 3, 4):
        for f in _elementary_factors(n):
            yield f.matrix(n)
        for _ in range(30):
            yield random_unimodular(n, rng)[0]


def test_carry_machine_is_the_minimal_phi():
    """The construction as a theorem: the carry machine of x -> xA, started
    at carry 0, is phi(A) in minimal form, row for row, and minimize()
    leaves it as built."""
    for mat in _construction_matrices():
        machine = _carry(mat, (0,) * mat.n)
        rows = (machine.outputs, machine.transitions)
        minimal = phi(mat).minimize()
        assert rows == (minimal.outputs, minimal.transitions), mat
        built = machine.minimize()
        assert rows == (built.outputs, built.transitions), mat
    # a matrix that is not invertible mod 2 gives no automorphism
    with pytest.raises(ValueError, match="is not a permutation"):
        _carry(IntMatrix([[2, 0], [0, 1]]), (0, 0))


def test_carry_machine_adds_its_carry():
    """Started at a nonzero carry c, the machine maps the word spelling x to
    the spelling of x A + c mod 2^|w|."""
    rng = random.Random("glnztree/tests/carry-affine")
    for mat in _construction_matrices():
        carry = (0,) * mat.n
        while not any(carry):
            carry = tuple(rng.randint(-9, 9) for _ in range(mat.n))
        _assert_acts_arithmetically(_carry(mat, carry), mat.rows, rng, carry)


def test_one_step_machines_are_built_without_composition(monkeypatch):
    """t1, t2, the sign flips, the one-step machines of T_ij(1) and the
    twelve coarse machines come straight from their carries."""
    calls = []
    compose = TreeAutomorphism.compose

    def counting(self, other):
        calls.append((self, other))
        return compose(self, other)

    monkeypatch.setattr(TreeAutomorphism, "compose", counting)
    generator_automorphism.cache_clear()
    _carry.cache_clear()
    sanov._coarse.cache_clear()
    for n in (2, 3, 4):
        generator_automorphism("t1", n)
        generator_automorphism("t2", n)
        for i in range(1, n + 1):
            elementary_to_automorphism(SignFlip(i), n)
            for j in range(1, n + 1):
                if i != j:
                    _carry(Transvection(i, j, 1).matrix(n), (0,) * n)
    sanov.coarse_machines()
    assert not calls
    # the counter does count: a product goes through it
    generator_automorphism("t1", 2).compose(generator_automorphism("t2", 2))
    assert len(calls) == 1


def test_expected_states():
    assert expected_states(Transposition(1, 3)) == 1
    assert expected_states(SignFlip(2)) == 2
    assert expected_states(Transvection(1, 2, 4)) == 5
    assert expected_states(Transvection(2, 1, -7)) == 8
    with pytest.raises(TypeError):
        expected_states("T21")


def test_phi_pinned():
    t1 = generator_automorphism("t1", 2)
    machine = phi(IntMatrix([[1, 0], [2, 1]]))
    assert machine.equal(t1.power(2).minimize())
    assert machine.state_count() == 3
    assert phi(IntMatrix([[0, 1], [1, 0]])).state_count() == 1
    assert phi(IntMatrix.identity(2)).is_identity()
    assert phi(IntMatrix.identity(3)).is_identity()


def test_phi_work_on_the_corollary_matrices(monkeypatch):
    # a deterministic work count instead of a wall clock: phi composes one
    # power step per unit of |k|, so fill-in in the factor parameters shows
    # up here (2,176 compositions when the remainder is cleared left to right)
    from glnztree.checks import corollary_suite

    calls = []
    compose = TreeAutomorphism.compose

    def counting(self, other):
        calls.append(None)
        return compose(self, other)

    monkeypatch.setattr(TreeAutomorphism, "compose", counting)
    (result,) = corollary_suite(dims=(4,))
    assert result.passed
    assert len(calls) <= 1140


def test_phi_triangular_example_within_bound():
    mat = IntMatrix([[1, 0, 0], [3, 1, 0], [2, -1, 1]])
    machine = phi(mat)
    assert machine.state_count() == 12
    bound = (1 + 3) * (1 + 2) * (1 + 1)
    assert machine.state_count() <= bound == 24


def test_phi_is_factorization_independent():
    mat = IntMatrix([[1, 0, 0], [3, 1, 0], [2, -1, 1]])
    alternative = [Transvection(2, 1, 3), Transvection(3, 1, 2), Transvection(3, 2, -1)]
    assert factor_product(alternative, 3) == mat
    machine = TreeAutomorphism.identity(8)
    for f in alternative:
        machine = machine.compose(elementary_to_automorphism(f, 3)).minimize()
    assert machine.equal(phi(mat))


def test_phi_homomorphism_sample():
    rng = random.Random("glnztree/tests/phi-hom")
    for _ in range(10):
        n = rng.choice((2, 3))
        a = factor_product([_random_factor(n, rng) for _ in range(rng.randint(0, 3))], n)
        b = factor_product([_random_factor(n, rng) for _ in range(rng.randint(0, 3))], n)
        assert phi(a * b).equal(phi(a).compose(phi(b)))


def test_phi_validation():
    with pytest.raises(NotUnimodular):
        phi(IntMatrix([[2, 0], [0, 1]]))
    with pytest.raises(TypeError):
        phi([[1, 0], [0, 1]])  # a wrong argument type is not malformed input


# ----------------------------------------------------------------------
# dimension cap


def _reversal(n):
    return IntMatrix([[1 if c == n - 1 - r else 0 for c in range(n)] for r in range(n)])


def test_dimension_cap_at_and_above():
    from glnztree.glnz import MAX_DIM

    assert MAX_DIM == 12
    # at the cap: 4,096 letters
    assert len(base_permutation("tau", MAX_DIM)) == 1 << MAX_DIM
    assert generator_automorphism("t1", MAX_DIM).n == 1 << MAX_DIM
    assert phi(_reversal(MAX_DIM)).state_count() == 1
    # above it: a typed error before any 2^n-letter alphabet is built
    above = MAX_DIM + 1
    for call in (
        lambda: base_permutation("sigma", above),
        lambda: generator_automorphism("t1", above),
        lambda: generator_automorphism("s", above, 1, 2),
        lambda: elementary_to_automorphism(SignFlip(1), above),
        lambda: elementary_to_automorphism(Transvection(1, 2, 1), above),
        lambda: phi(IntMatrix.identity(above)),
        lambda: phi(IntMatrix.identity(30)),
        # at once: no n x n matrix is built before the dimension is checked
        lambda: elementary_to_automorphism(SignFlip(1), 10 ** 6),
        lambda: elementary_to_automorphism(Transvection(1, 2, 3), 10 ** 6),
    ):
        with pytest.raises(InvalidAlphabet,
                           match=r"^dimension (13|30|1000000) exceeds MAX_DIM = 12: "):
            call()
    # matrix arithmetic and factorization stay uncapped
    big = _reversal(30)
    assert factor_product(factorize(big), 30) == big
    assert Transvection(1, 30, 2).matrix(30).rows[0][29] == 2


def test_lemma2_suite_checks_the_dimension_first():
    from glnztree.checks import lemma2_suite

    # the suite's first machine is the identity t1^0 over 2^n letters
    with pytest.raises(InvalidAlphabet, match=r"^dimension 40 exceeds MAX_DIM = 12: "):
        lemma2_suite(dims=(40,))
    with pytest.raises(InvalidAlphabet, match=r"^need an integer n >= 2, got 2\.0$"):
        lemma2_suite(dims=(2.0,))
