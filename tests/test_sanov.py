"""Tests for the rank-2 free group over the binary alphabet: the squared
coarse generators, the block-code refinement to the nine-state machines a
and d, word evaluation, the bounded relation sweep, and the edge-by-edge
comparison against the transcription of the published Moore diagrams.

The recursion table of the six coarse products is pinned twice: once as the
computed truth, and once as its exact difference from the printed table (two
rows deviate by one transposition of letters each; the acceptance suite
carries the expected failure for the printed form).
"""

from __future__ import annotations

import functools
import itertools
import json
import time

import pytest

from glnztree import sanov
from glnztree import (
    AlphabetMismatch,
    FreenessReport,
    GlnzTreeError,
    GroupWord,
    InvalidArgument,
    NotReduced,
    RefinementMismatch,
    ParseError,
    RefinementMap,
    TreeAutomorphism,
    binary_generators,
    block_code,
    coarse_machines,
    constructed_edges,
    depth_conjugacy_check,
    evaluate_group_word,
    figure_diff,
    freeness_check,
    generator_automorphism,
    sanov_generators,
)
from glnztree.sanov import FIGURE_A_EDGES, FIGURE_D_EDGES

# ----------------------------------------------------------------------
# block code and coarse machines


def test_block_code():
    code = block_code()
    assert code.table == ((0, 0), (1, 1), (1, 0), (0, 1))
    assert code.coarse_size == 4
    assert code.fine_size == 2
    assert code.block_length == 2
    # letter 4 (0-based 3) spells 01
    assert code.encode((3,)) == (0, 1)
    assert code.encode((0, 1, 2)) == (0, 0, 1, 1, 1, 0)


# The two-state full adder at n = 2, written out: state 0 is t1 (carry 0),
# state 1 is t2 (carry 1).  Letters 0-based, bits (x1, x2) = (v & 1, v >> 1).
_ADDER_ROWS = (((0, 1, 3, 2), (0, 0, 0, 1)), ((1, 0, 2, 3), (0, 1, 1, 1)))


def test_coarse_machines():
    c = coarse_machines()
    assert set(c) == {
        "t1", "t2", "s1", "s2",
        "t1t1", "t1t2", "t2t1", "t2t2",
        "s1s1", "s1s2", "s2s1", "s2s2",
    }
    t1 = TreeAutomorphism(4, _ADDER_ROWS, initial=0)
    t2 = TreeAutomorphism(4, _ADDER_ROWS, initial=1)
    s12 = generator_automorphism("s", 2, 1, 2)
    one_step = {
        "t1": t1, "t2": t2,
        "s1": s12.compose(t1).compose(s12), "s2": s12.compose(t2).compose(s12),
    }
    for key, machine in one_step.items():
        assert c[key].equal(machine), key
    # the composition chain that built the products is their oracle
    for g in "ts":
        for a, b in itertools.product("12", repeat=2):
            key = f"{g}{a}{g}{b}"
            chain = one_step[g + a].compose(one_step[g + b]).minimize()
            assert c[key].equal(chain), key
            assert (c[key].outputs, c[key].transitions) == (chain.outputs, chain.transitions), key
    # the two adder states commute
    assert t1.compose(t2).equal(t2.compose(t1))
    assert one_step["s1"].compose(one_step["s2"]).equal(one_step["s2"].compose(one_step["s1"]))
    for key in ("t1t1", "t1t2", "t2t2", "s1s1", "s1s2", "s2s2"):
        assert c[key].state_count() == 3


def test_sanov_generators():
    t1_sq, s1_sq = sanov_generators()
    c = coarse_machines()
    assert t1_sq.equal(c["t1t1"])
    assert s1_sq.equal(c["s1s1"])
    assert t1_sq.state_count() == 3
    assert s1_sq.state_count() == 3
    # both squares act trivially at the root
    assert t1_sq.outputs[0] == (0, 1, 2, 3)
    assert s1_sq.outputs[0] == (0, 1, 2, 3)


# the recursion table of the six products, as computed: section names per
# 0-based letter plus the root permutation (1-based cycles in comments)
_TRUE_TABLE = {
    "t1t1": (("t1t1", "t1t1", "t1t2", "t2t1"), (0, 1, 2, 3)),
    "t2t2": (("t2t1", "t1t2", "t2t2", "t2t2"), (0, 1, 2, 3)),
    "t1t2": (("t1t1", "t1t2", "t1t2", "t2t2"), (1, 0, 3, 2)),  # (12)(34)
    "s1s1": (("s1s1", "s1s2", "s1s1", "s2s1"), (0, 1, 2, 3)),
    "s2s2": (("s2s1", "s2s2", "s1s2", "s2s2"), (0, 1, 2, 3)),
    "s1s2": (("s1s1", "s1s2", "s1s2", "s2s2"), (2, 3, 0, 1)),  # (13)(24)
}

# where the printed table deviates from the computed one: the printed t1t2
# row transposes the sections at letters 1 and 2, the printed s1s2 row those
# at letters 1 and 3 (1-based); the other four rows agree
_PRINTED_DEVIATIONS = {"t1t2": {0, 1}, "s1s2": {0, 2}}


def test_recursion_table_true_rows():
    c = coarse_machines()
    for key, (section_names, root) in _TRUE_TABLE.items():
        sections, got_root = c[key].first_level_states()
        assert got_root == root, key
        for v, name in enumerate(section_names):
            assert sections[v].equal(c[name]), (key, v)


def test_recursion_table_printed_deviation_is_exactly_two_swaps():
    c = coarse_machines()
    for key, mismatched in _PRINTED_DEVIATIONS.items():
        sections, _ = c[key].first_level_states()
        names = list(_TRUE_TABLE[key][0])
        lo, hi = sorted(mismatched)
        names[lo], names[hi] = names[hi], names[lo]  # the printed row
        for v, name in enumerate(names):
            agrees = sections[v].equal(c[name])
            assert agrees == (v not in mismatched), (key, v)


# ----------------------------------------------------------------------
# binary generators


def test_binary_generators_states():
    a, d = binary_generators()
    assert a.n == 2 and d.n == 2
    assert len(a.outputs) == 9
    assert len(d.outputs) == 9
    assert a.minimize().state_count() == 9
    assert d.minimize().state_count() == 7


def test_binary_generators_construction():
    a, d = binary_generators()
    code = block_code()
    c = coarse_machines()
    assert a.equal(c["t1t1"].refine(code))
    assert d.equal(c["s1s1"].refine(code))
    # letter 3 is fixed by the coarse square and spells "10"
    assert a.act((1, 0)) == (1, 0)


def test_binary_sections_match_the_coarse_products():
    """The buffer-free states of a and d are the refinements of the coarse
    sections: a's state after 01 is refine(t1t2), d's after 01 is
    refine(s1s2)."""
    a, d = binary_generators()
    code = block_code()
    c = coarse_machines()
    assert a.state_at((0, 1)).equal(c["t1t2"].refine(code))
    assert d.state_at((0, 1)).equal(c["s1s2"].refine(code))


def test_d_collapses_exactly_two_state_pairs():
    """d's nine raw states minimize to seven: the two half-letter states of
    the first coarse section agree, as do those of the third; the middle
    section's pair stays distinct (hence 9 - 2 = 7)."""
    _, d = binary_generators()
    assert d.state_at((0,)).equal(d.state_at((1,)))  # d0 = d1
    f = (0, 1, 0, 1)  # path to the third section's block state
    assert d.state_at(f + (0,)).equal(d.state_at(f + (1,)))  # f0 = f1
    assert not d.state_at((0, 1, 0)).equal(d.state_at((0, 1, 1)))  # e0 != e1
    a, _ = binary_generators()
    assert not a.state_at((0,)).equal(a.state_at((1,)))


# ----------------------------------------------------------------------
# conjugacy through the block code


def test_depth_conjugacy_check():
    assert depth_conjugacy_check(0)
    assert depth_conjugacy_check(5)


def test_depth_conjugacy_negative_control():
    # swapping the blocks of letters 3 and 4 breaks the intertwining at once
    perturbed = RefinementMap(2, ((0, 0), (1, 1), (0, 1), (1, 0)))
    assert not depth_conjugacy_check(1, code=perturbed)
    assert depth_conjugacy_check(0, code=perturbed)  # the root sees nothing


def test_depth_conjugacy_stops_when_no_pair_is_new():
    # the reachable state pairs run out after a few levels; a huge depth
    # must not keep looping over empty levels
    start = time.perf_counter()
    assert depth_conjugacy_check(10**12)
    perturbed = RefinementMap(2, ((0, 0), (1, 1), (0, 1), (1, 0)))
    assert not depth_conjugacy_check(10**12, code=perturbed)
    assert time.perf_counter() - start < 0.5


def test_depth_conjugacy_validation():
    with pytest.raises(ValueError):
        depth_conjugacy_check(-1)
    with pytest.raises(ValueError):
        depth_conjugacy_check("deep")
    with pytest.raises(InvalidArgument):
        depth_conjugacy_check(True)
    with pytest.raises(RefinementMismatch):
        depth_conjugacy_check(1, code=RefinementMap(2, ((0,), (1,))))


def _vertex_conjugacy_reference(depth, code):
    """encode(v^g) == encode(v)^g-hat on every coarse vertex up to depth,
    vertex by vertex through act()."""
    c = coarse_machines()
    standard = block_code()
    pairs = [(c[key], c[key].refine(standard)) for key in
             ("t1t1", "t1t2", "t2t2", "s1s1", "s1s2", "s2s2")]
    for length in range(depth + 1):
        for v in itertools.product(range(4), repeat=length):
            for coarse, fine in pairs:
                if code.encode(coarse.act(v)) != fine.act(code.encode(v)):
                    return False
    return True


def test_depth_conjugacy_matches_vertex_reference():
    standard = block_code()
    perturbed = RefinementMap(2, ((0, 0), (1, 1), (0, 1), (1, 0)))
    for depth in range(6):
        for code in (standard, perturbed):
            assert depth_conjugacy_check(depth, code) == _vertex_conjugacy_reference(depth, code)
    # every bijective block code: the verdicts agree at each depth
    for table in itertools.permutations(((0, 0), (0, 1), (1, 0), (1, 1))):
        code = RefinementMap(2, table)
        for depth in range(4):
            assert depth_conjugacy_check(depth, code) == _vertex_conjugacy_reference(depth, code)


# ----------------------------------------------------------------------
# words in the generators


def test_group_word_parse_and_str():
    word = GroupWord.parse("adAD")
    assert word.syllables == (("a", 1), ("d", 1), ("a", -1), ("d", -1))
    assert str(word) == "adAD"
    assert len(word) == 4
    assert GroupWord.parse("") == GroupWord(())
    assert len(GroupWord.parse("")) == 0
    assert GroupWord.parse("aa") == GroupWord((("a", 1), ("a", 1)))
    assert hash(GroupWord.parse("ad")) == hash(GroupWord((("a", 1), ("d", 1))))
    assert repr(GroupWord.parse("aD")) == "GroupWord.parse('aD')"


def test_group_word_validation():
    with pytest.raises(NotReduced):
        GroupWord.parse("aA")
    with pytest.raises(NotReduced):
        GroupWord.parse("adDa")
    with pytest.raises(NotReduced):
        GroupWord((("d", -1), ("d", 1)))
    with pytest.raises(ParseError):
        GroupWord.parse("xyz")
    with pytest.raises(ValueError):
        GroupWord((("b", 1),))
    # same-direction repetition is reduced and allowed
    GroupWord.parse("aaDD")


def test_evaluate_group_word():
    a, d = binary_generators()
    assert evaluate_group_word(GroupWord(()), a, d).is_identity()
    assert evaluate_group_word(GroupWord.parse("a"), a, d).equal(a)
    commutator = evaluate_group_word(GroupWord.parse("adAD"), a, d)
    assert not commutator.is_identity()
    assert commutator.state_count() == 120
    roundtrip = evaluate_group_word(GroupWord.parse("ad"), a, d)
    assert roundtrip.equal(a.compose(d))
    with pytest.raises(NotReduced):
        evaluate_group_word((("a", 1), ("a", -1)), a, d)
    with pytest.raises(AlphabetMismatch):
        evaluate_group_word(GroupWord.parse("ad"), a, generator_automorphism("t1", 2))


# ----------------------------------------------------------------------
# relation sweep


def test_freeness_check_small():
    report = freeness_check(1)
    assert report == FreenessReport(1, 4, None)
    report = freeness_check(3)
    assert report.words_checked == 52  # 4 + 12 + 36 reduced words
    assert report.counterexample is None
    assert report.to_json() == {
        "max_length": 3,
        "words_checked": 52,
        "counterexample": None,
    }
    assert json.dumps(report.to_json())  # JSON-serializable as is


def test_freeness_negative_control():
    # equal generators satisfy a D^-1 = e, found at length 2 in search order
    a, _ = binary_generators()
    report = freeness_check(2, a, a)
    assert report.words_checked == 16
    assert report.counterexample == GroupWord.parse("aD")
    assert str(report.counterexample) == "aD"
    assert report.to_json()["counterexample"] == "aD"
    # the counterexample really evaluates to the identity
    assert evaluate_group_word(report.counterexample, a, a).is_identity()


def test_freeness_validation():
    a, d = binary_generators()
    with pytest.raises(ValueError):
        freeness_check(0)
    with pytest.raises(ValueError):
        freeness_check(2, a, None)
    with pytest.raises(AlphabetMismatch):
        freeness_check(1, a, generator_automorphism("t1", 2))


def test_argument_errors_are_typed():
    # typed for the CLI (exit 2), and still ValueErrors for library callers
    a, _ = binary_generators()
    for call in (
        lambda: freeness_check(0),
        lambda: freeness_check(2.0),
        lambda: freeness_check(2, a, None),
        lambda: freeness_check(sanov.MAX_SWEEP_LENGTH + 1),
        lambda: depth_conjugacy_check(-1),
        lambda: constructed_edges("b"),
        lambda: GroupWord((("b", 1),)),
    ):
        with pytest.raises(InvalidArgument) as info:
            call()
        assert isinstance(info.value, GlnzTreeError)
        assert isinstance(info.value, ValueError)


_LETTERS = (("a", 1), ("a", -1), ("d", 1), ("d", -1))


def _brute_force_reports(max_length, gen_a, gen_d):
    """FreenessReport for every bound up to max_length, from evaluating
    each reduced word on its own, in shortlex order a < A < d < D."""
    first = None
    reports = []
    for length in range(1, max_length + 1):
        for raw in itertools.product(_LETTERS, repeat=length):
            if first is not None:
                break
            if any(x[0] == y[0] and x[1] == -y[1] for x, y in zip(raw, raw[1:])):
                continue
            if evaluate_group_word(GroupWord(raw), gen_a, gen_d).is_identity():
                first = GroupWord(raw)
        reports.append(FreenessReport(length, 2 * (3 ** length - 1), first))
    return reports


@functools.lru_cache(maxsize=None)
def _brute_force_case(pair):
    """Generators named by `pair` and their brute-force reports up to 5."""
    a, d = binary_generators()
    gens = {"a": a, "d": d, "A": a.inverse(), "1": TreeAutomorphism.identity(2)}
    gen_a, gen_d = gens[pair[0]], gens[pair[1]]
    return gen_a, gen_d, tuple(_brute_force_reports(5, gen_a, gen_d))


@pytest.mark.parametrize("pair", ["ad", "da", "aa", "aA", "a1"])
def test_freeness_matches_brute_force(pair):
    gen_a, gen_d, reports = _brute_force_case(pair)
    for report in reports:
        assert freeness_check(report.max_length, gen_a, gen_d) == report


@pytest.mark.parametrize("pair", ["ad", "da", "aa", "aA", "a1"])
def test_freeness_is_exact_when_every_word_collides(pair, monkeypatch):
    """With an empty probe vertex every word lands in one bucket, so the
    report rests on the exact split by minimal forms alone."""
    monkeypatch.setattr(sanov, "_PROBE_LENGTH", 0)
    gen_a, gen_d, reports = _brute_force_case(pair)
    for report in reports:
        assert freeness_check(report.max_length, gen_a, gen_d) == report


def test_freeness_certifies_length_10():
    report = freeness_check(10)
    assert report == FreenessReport(10, 118_096, None)


def test_freeness_length_14_builds_no_machine(monkeypatch):
    """No two reduced words of length <= 7 in a, d share a probe image, so
    the sweep to length 14 builds no minimal form at all."""
    calls = []

    def counting(word, gen_a, gen_d):
        calls.append(word)
        return evaluate_group_word(word, gen_a, gen_d)

    monkeypatch.setattr(sanov, "evaluate_group_word", counting)
    assert freeness_check(14) == FreenessReport(14, 9_565_936, None)
    assert calls == []
    # control: equal generators collide, and each colliding word is built
    a, _ = binary_generators()
    assert freeness_check(2, a, a).counterexample == GroupWord.parse("aD")
    assert sorted(map(str, map(GroupWord, calls))) == ["A", "D", "a", "d"]


def test_words_agree_across_the_block_code():
    """A reduced word evaluates to the identity over the binary alphabet iff
    it does over the 4-letter one (none do up to length 3, on both sides)."""
    a, d = binary_generators()
    t1_sq, s1_sq = sanov_generators()
    letters = (("a", 1), ("a", -1), ("d", 1), ("d", -1))
    for length in range(1, 4):
        for raw in itertools.product(letters, repeat=length):
            if any(x[0] == y[0] and x[1] == -y[1] for x, y in zip(raw, raw[1:])):
                continue
            word = GroupWord(raw)
            fine = evaluate_group_word(word, a, d)
            coarse = evaluate_group_word(word, t1_sq, s1_sq)
            assert not fine.is_identity()
            assert not coarse.is_identity()


# ----------------------------------------------------------------------
# reference diagrams


def test_transcribed_figures_shape():
    for edges in (FIGURE_A_EDGES, FIGURE_D_EDGES):
        assert len(edges) == 18  # 9 states x 2 letters
        for src, inp, out, dst in edges:
            assert inp in (0, 1) and out in (0, 1)
    assert {e[0] for e in FIGURE_A_EDGES} == {
        "a", "a0", "a1", "b", "b0", "b1", "c", "c0", "c1"
    }
    assert {e[0] for e in FIGURE_D_EDGES} == {
        "d", "d0", "d1", "e", "e0", "e1", "f", "f0", "f1"
    }


def test_constructed_edges():
    for which, rows in (("a", "abc"), ("d", "def")):
        edges = constructed_edges(which)
        assert len(edges) == 18
        assert edges == tuple(sorted(edges))
        sources = {e[0] for e in edges}
        assert sources == {r + suffix for r in rows for suffix in ("", "0", "1")}
        # every source has one edge per input letter, outputs balanced
        for src in sources:
            inputs = sorted(inp for s, inp, _, _ in edges if s == src)
            assert inputs == [0, 1]
    with pytest.raises(ValueError):
        constructed_edges("b")


def test_figure_diff_frozen():
    """The exact edge-level difference between the construction and the
    transcribed drawings.  Three edges per diagram differ by their targets
    in a way consistent with the same letter-transposition that separates
    the printed recursion table from the computed one, plus one genuine
    drawing slip per diagram (c0 with two input-1 edges; d0 and f1 pointing
    at the other diagram's node b)."""
    diff = figure_diff()
    assert diff["a"]["constructed_only"] == [
        ("b0", 0, 1, "a"),
        ("b1", 1, 0, "b"),
        ("c0", 0, 0, "b"),
    ]
    assert diff["a"]["figure_only"] == [
        ("b0", 0, 1, "b"),
        ("b1", 1, 0, "a"),
        ("c0", 1, 0, "b"),
    ]
    assert diff["d"]["constructed_only"] == [
        ("d0", 1, 1, "e"),
        ("e0", 0, 0, "d"),
        ("e1", 0, 0, "e"),
        ("f1", 0, 0, "e"),
    ]
    assert diff["d"]["figure_only"] == [
        ("d0", 1, 1, "b"),
        ("e0", 0, 0, "e"),
        ("e1", 0, 0, "d"),
        ("f1", 0, 0, "b"),
    ]
    # the agreeing majority: 15 of 18 edges for a, 14 of 18 for d
    assert len(set(constructed_edges("a")) & set(FIGURE_A_EDGES)) == 15
    assert len(set(constructed_edges("d")) & set(FIGURE_D_EDGES)) == 14
