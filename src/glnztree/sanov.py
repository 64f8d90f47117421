"""A free group of rank 2 inside the binary-tree automorphisms.

The squares of the two matrices [[1,0],[2,1]] and [[1,2],[0,1]] generate a
free group of rank 2 (the classical Sanov subgroup of SL(2, Z)).  Their
machines live over the 4-letter alphabet; identifying each 4-ary letter with
a 2-block of binary letters rewrites them as automorphisms `a` and `d` of the
binary rooted tree, nine states each.

This module builds `a` and `d`, evaluates reduced words in them, decides by
a meet-in-the-middle sweep whether any reduced word up to a length bound is
a relation, and cross-checks the block-code conjugacy between the coarse and
fine machines on all vertices up to a depth bound.  The sweep files the
half-length words by the image of one fixed probe vertex and builds exact
minimal machines only for the words whose images collide.  It also carries a
hand-made transcription of the two published 9-state Moore diagrams for `a`
and `d`; `figure_diff()` compares the transcription against the
construction edge by edge, because the drawn diagrams are not to be trusted
blindly.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    AlphabetMismatch,
    InvalidArgument,
    NotReduced,
    ParseError,
    RefinementMismatch,
)
from .glnz import Transvection, _carry
from .mealy import RefinementMap, TreeAutomorphism, _refine_table

# coarse letter -> binary 2-block; letter 1 = (0,0), 2 = (1,1), 3 = (1,0), 4 = (0,1)
_BLOCK_TABLE = ((0, 0), (1, 1), (1, 0), (0, 1))


def block_code():
    """The vertex bijection between the 4-ary and binary trees used to
    rewrite the coarse machines over the binary alphabet."""
    return RefinementMap(2, _BLOCK_TABLE)


@lru_cache(maxsize=None)
def _coarse():
    """Generators and their pairwise products over the 4-letter alphabet,
    each the carry machine of x -> xA + c on pairs of 2-adic integers.  t1
    and t2 are T21(1) at carries (0, 0) and (1, 0); s1 and s2 are T12(1)
    (coordinate 2 += coordinate 1) at carries (0, 0) and (0, 1).  T21(1)
    fixes (1, 0) and T12(1) fixes (0, 1), so the product t_a t_b, which is
    x -> (x T21(1) + c_a) T21(1) + c_b, is T21(2) at carry (#2s, 0), and
    s_a s_b is T12(2) at carry (0, #2s), where #2s counts the 2s in a, b."""
    machines = {}
    for k in (1, 2):
        for g, i, j in (("t", 2, 1), ("s", 1, 2)):
            matrix = Transvection(i, j, k).matrix(2)
            for word in itertools.product((1, 2), repeat=k):
                carry = (word.count(2), 0) if g == "t" else (0, word.count(2))
                machines[g + g.join(map(str, word))] = _carry(matrix, carry)
    return machines


def coarse_machines():
    """Read-only access to the coarse generators and products (keys "t1",
    "t2", "s1", "s2" and the eight products "t1t1", ..., "s2s2")."""
    return dict(_coarse())


def sanov_generators():
    """The squared machines (t1^2, s1^2) over the 4-letter alphabet."""
    c = _coarse()
    return c["t1t1"], c["s1s1"]


@lru_cache(maxsize=None)
def binary_generators():
    """The free generators a, d over the binary alphabet, as the nine-state
    machines the refinement yields (3 coarse sections x 3 buffer positions).

    `a` is minimal as returned; `d` is not: its minimal form has 7 states,
    because in two of the coarse sections the two buffered half-letter
    states act identically (the pairs straddling the first and third
    sections each collapse).  Callers wanting canonical forms should
    minimize()."""
    code = block_code()
    return tuple(g.refine(code) for g in sanov_generators())


# ----------------------------------------------------------------------
# conjugacy between the coarse and refined machines

_CONJUGACY_KEYS = ("t1t1", "t1t2", "t2t2", "s1s1", "s1s2", "s2s2")


@lru_cache(maxsize=None)
def _conjugate_pairs():
    code = block_code()
    c = _coarse()
    return tuple((c[key], c[key].refine(code).minimize()) for key in _CONJUGACY_KEYS)


def depth_conjugacy_check(depth, code=None):
    """Verify encode(v^g) == encode(v)^g-hat for every coarse vertex v up to
    `depth` and every machine pair (g over 4 letters, g-hat its binary
    refinement).  `code` is the encoding under test; the refined machines
    always come from the standard block code, so passing a perturbed code
    makes the check fail, as it should.

    Level by level over state pairs: a vertex v x passes iff v passes and,
    from the pair (coarse state, fine state) that v reaches, the fine
    machine maps the block of x to the block of the coarse output on x.  So
    every pair reachable within depth - 1 letters is checked once, on each
    letter, instead of acting on all 4^0 + ... + 4^depth vertices.  Once a
    level brings no new pair the verdict is final, so the walk stops there
    and any depth costs at most the number of reachable pairs."""
    if not isinstance(depth, int) or isinstance(depth, bool) or depth < 0:
        raise InvalidArgument(f"depth must be a nonnegative integer, got {depth!r}")
    enc = block_code() if code is None else code
    if enc.coarse_size != 4 or enc.fine_size != 2:
        raise RefinementMismatch(
            f"code maps {enc.coarse_size} letters to blocks over {enc.fine_size}, "
            "expected 4 letters over 2")
    table = enc.table
    for coarse, fine in _conjugate_pairs():
        co, ct = coarse.outputs, coarse.transitions
        fo, ft = fine.outputs, fine.transitions
        seen = {(0, 0)}
        level = [(0, 0)]
        for _ in range(depth):
            nxt = []
            for p, q in level:
                for x in range(4):
                    r = q
                    image = []
                    for y in table[x]:
                        image.append(fo[r][y])
                        r = ft[r][y]
                    if tuple(image) != table[co[p][x]]:
                        return False
                    pair = (ct[p][x], r)
                    if pair not in seen:
                        seen.add(pair)
                        nxt.append(pair)
            if not nxt:
                break  # every reachable pair is checked; deeper levels repeat them
            level = nxt
    return True


# ----------------------------------------------------------------------
# reduced words and the freeness sweep

_SYMBOLS = {"a": ("a", 1), "A": ("a", -1), "d": ("d", 1), "D": ("d", -1)}
_LETTER_ORDER = (("a", 1), ("a", -1), ("d", 1), ("d", -1))
_RANK = {syl: pos for pos, syl in enumerate(_LETTER_ORDER)}

# Longest relation sweep accepted.  The sweep holds every reduced word of
# length <= ceil(L/2), three times more per level; L = 20 files 118,097 words.
MAX_SWEEP_LENGTH = 20
# The probe vertex of the sweep: _PROBE_LENGTH letters drawn from a fixed seed.
_PROBE_SEED = 2023
_PROBE_LENGTH = 64


class GroupWord:
    """Reduced word over two abstract generators, written "a"/"d" with
    capitals for inverses (so "adAD" is a d a^-1 d^-1)."""

    __slots__ = ("syllables",)

    def __init__(self, syllables):
        syls = tuple(syllables)
        for syl in syls:
            if syl not in _LETTER_ORDER:
                raise InvalidArgument(f"bad syllable {syl!r}: expected (symbol, +-1)")
        for left, right in zip(syls, syls[1:]):
            if left[0] == right[0] and left[1] == -right[1]:
                raise NotReduced(f"cancelling pair at {left} {right}")
        self.syllables = syls

    @classmethod
    def parse(cls, text):
        try:
            return cls(_SYMBOLS[ch] for ch in text)
        except KeyError as exc:
            raise ParseError(f"bad word character {exc.args[0]!r}: use a, A, d, D") from exc

    def __str__(self):
        return "".join(
            sym if exp == 1 else sym.upper() for sym, exp in self.syllables
        )

    def __len__(self):
        return len(self.syllables)

    def __iter__(self):
        return iter(self.syllables)

    def __eq__(self, other):
        if not isinstance(other, GroupWord):
            return NotImplemented
        return self.syllables == other.syllables

    def __hash__(self):
        return hash(self.syllables)

    def __repr__(self):
        return f"GroupWord.parse({str(self)!r})"


def _syllable_machines(gen_a, gen_d):
    """The machines of the four syllables a, A, d, D."""
    if gen_a.n != gen_d.n:
        raise AlphabetMismatch(f"alphabets differ: {gen_a.n} vs {gen_d.n}")
    return {
        ("a", 1): gen_a,
        ("a", -1): gen_a.inverse(),
        ("d", 1): gen_d,
        ("d", -1): gen_d.inverse(),
    }


def evaluate_group_word(word, gen_a, gen_d):
    """Machine of a reduced word in the generators, minimized."""
    if not isinstance(word, GroupWord):
        word = GroupWord(word)
    machines = _syllable_machines(gen_a, gen_d)
    acc = TreeAutomorphism.identity(gen_a.n)
    for syl in word:
        acc = acc.compose(machines[syl]).minimize()
    return acc


@dataclass(frozen=True)
class FreenessReport:
    """Outcome of a bounded relation sweep.  `counterexample` is None when no
    nonempty reduced word up to the bound evaluates to the identity,
    otherwise the (length, lexicographically) first such word."""

    max_length: int
    words_checked: int
    counterexample: GroupWord | None

    def to_json(self):
        return {
            "max_length": self.max_length,
            "words_checked": self.words_checked,
            "counterexample": None if self.counterexample is None else str(self.counterexample),
        }


def _free_reduce(syllables):
    stack = []
    for sym, exp in syllables:
        if stack and stack[-1] == (sym, -exp):
            stack.pop()
        else:
            stack.append((sym, exp))
    return tuple(stack)


def _word_inverse(syllables):
    return tuple((sym, -exp) for sym, exp in reversed(syllables))


def freeness_check(max_length, gen_a=None, gen_d=None):
    """Decide whether some nonempty reduced word of length <= max_length
    over the given generators (default: the binary pair a, d) evaluates to
    the identity, and report the first such word in shortlex order with
    letters a < A < d < D.  `words_checked` is the number of reduced words
    covered, 2 * (3^max_length - 1).  `max_length` is capped at
    MAX_SWEEP_LENGTH; above it InvalidArgument is raised.

    Meet in the middle: a relation w of length <= max_length splits as
    w = u v^-1 with u, v reduced, distinct and of length
    <= ceil(max_length/2), so u and v are equal elements; conversely two
    distinct equal words u, v give the nontrivial relation u v^-1, freely
    reduced.  So only the words of length <= ceil(max_length/2), the empty
    word included, are walked, level by level, and each carries the image
    of one fixed probe vertex (64 letters from a fixed seed), one act per
    word: image(w g) = g.act(image(w)).  Words are filed in buckets by
    their image.  Equal elements have equal images, so every class of
    equal words lies inside one bucket, and a word alone in its bucket
    equals no other.  Only the words of buckets holding two or more get a
    machine: their exact minimal forms split the bucket into the classes of
    equal words.  The report is therefore exact whatever the probe.  It
    takes the shortlex-first of the relations u v^-1, v u^-1 over pairs of
    one class that fit the bound."""
    if not isinstance(max_length, int) or isinstance(max_length, bool) or max_length < 1:
        raise InvalidArgument(f"max_length must be a positive integer, got {max_length!r}")
    if max_length > MAX_SWEEP_LENGTH:
        raise InvalidArgument(
            f"max_length must be at most {MAX_SWEEP_LENGTH}, got {max_length}")
    if gen_a is None and gen_d is None:
        gen_a, gen_d = binary_generators()
    elif gen_a is None or gen_d is None:
        raise InvalidArgument("pass both generators or neither")
    machines = _syllable_machines(gen_a, gen_d)
    rng = random.Random(_PROBE_SEED)
    probe = tuple(rng.randrange(gen_a.n) for _ in range(_PROBE_LENGTH))
    # buckets are keyed by the hash of the image: a hash collision only
    # puts more words in a bucket, and the exact split separates them
    first_in = {hash(probe): ()}
    shared = {}
    level = [((), probe)]
    half = (max_length + 1) // 2
    for depth in range(half):
        nxt = []
        for word, image in level:
            for syl in _LETTER_ORDER:
                if word and word[-1] == (syl[0], -syl[1]):
                    continue
                extended = word + (syl,)
                moved = machines[syl].act(image)
                key = hash(moved)
                first = first_in.setdefault(key, extended)
                if first is not extended:
                    shared.setdefault(key, [first]).append(extended)
                if depth + 1 < half:
                    nxt.append((extended, moved))
        level = nxt
    classes = []
    for words in shared.values():
        exact = {}
        for word in words:
            m = evaluate_group_word(word, gen_a, gen_d)
            exact.setdefault((m.outputs, m.transitions), []).append(word)
        classes.extend(exact.values())
    relations = []
    for words in classes:
        for u, v in itertools.combinations(words, 2):
            for rel in (_free_reduce(u + _word_inverse(v)), _free_reduce(v + _word_inverse(u))):
                if len(rel) <= max_length:
                    relations.append(rel)
    counterexample = None
    if relations:
        best = min(relations, key=lambda w: (len(w), tuple(_RANK[s] for s in w)))
        counterexample = GroupWord(best)
    return FreenessReport(max_length, 2 * (3 ** max_length - 1), counterexample)


# ----------------------------------------------------------------------
# reference diagrams

# Hand-made transcription of the published 9-state Moore diagrams for a and
# d, edge format (source, input, output, target).  State rows: a/b/c are the
# automorphism's sections at block boundaries (a itself, then the two others
# in breadth-first order), suffix 0/1 the buffered first binary letter.
# Kept verbatim, including any drawing mistakes; see figure_diff().
FIGURE_A_EDGES = (
    ("a", 0, 0, "a0"), ("a0", 0, 0, "a"), ("a", 1, 1, "a1"), ("a1", 1, 1, "a"),
    ("a0", 1, 1, "b"), ("a1", 0, 0, "b"),
    ("b", 0, 1, "b0"), ("b0", 0, 1, "b"), ("b", 1, 0, "b1"), ("b1", 0, 1, "b"),
    ("b0", 1, 0, "c"), ("b1", 1, 0, "a"),
    ("c", 0, 0, "c0"), ("c0", 1, 1, "c"), ("c", 1, 1, "c1"), ("c1", 0, 0, "c"),
    ("c0", 1, 0, "b"), ("c1", 1, 1, "b"),
)
FIGURE_D_EDGES = (
    ("d", 0, 0, "d0"), ("d0", 0, 0, "d"), ("d", 1, 1, "d1"), ("d1", 0, 0, "d"),
    ("d0", 1, 1, "b"), ("d1", 1, 1, "e"),
    ("e", 0, 1, "e0"), ("e0", 0, 0, "e"), ("e", 1, 0, "e1"), ("e1", 1, 1, "e"),
    ("e0", 1, 1, "f"), ("e1", 0, 0, "d"),
    ("f", 0, 0, "f0"), ("f0", 1, 1, "f"), ("f", 1, 1, "f1"), ("f1", 1, 1, "f"),
    ("f0", 0, 0, "e"), ("f1", 0, 0, "b"),
)

_FIGURE_ROWS = {"a": ("a", "b", "c"), "d": ("d", "e", "f")}


def constructed_edges(which):
    """Edge list of the freshly constructed binary machine for generator
    "a" or "d", named with the same state labels the reference diagrams use
    (row letter by coarse section, suffix by buffered binary letter)."""
    if which not in _FIGURE_ROWS:
        raise InvalidArgument(f"expected 'a' or 'd', got {which!r}")
    coarse = _coarse()["t1t1" if which == "a" else "s1s1"]
    outs, trans, names = _refine_table(coarse, block_code())
    rows = _FIGURE_ROWS[which]
    labels = [
        rows[cid] + "".join(str(b) for b in prefix) for cid, prefix in names
    ]
    edges = []
    for s, (orow, trow) in enumerate(zip(outs, trans)):
        for x in (0, 1):
            edges.append((labels[s], x, orow[x], labels[trow[x]]))
    return tuple(sorted(edges))


def figure_diff():
    """Symmetric difference between the constructed machines and the
    transcribed reference diagrams, per generator: edges only the
    construction has, and edges only the drawing has."""
    diff = {}
    for which, figure in (("a", FIGURE_A_EDGES), ("d", FIGURE_D_EDGES)):
        built = set(constructed_edges(which))
        drawn = set(figure)
        diff[which] = {
            "constructed_only": sorted(built - drawn),
            "figure_only": sorted(drawn - built),
        }
    return diff
