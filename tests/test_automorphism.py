"""Tests for the tree-automorphism calculus: construction, group operations,
minimization, alphabet refinement and serialization.

Letters are 0-based inside the library; 1-based letters appear only in DOT
labels and JSON payloads.  Where a pinned word is quoted in 1-based form in a
comment, subtract one per letter to get the tuples used here (over the
4-letter alphabet, letter 4 has bits (1, 1) and is written 3).
"""

from __future__ import annotations

import itertools
import json
import random
import re
from collections import deque

import pytest

from glnztree import (
    AlphabetMismatch,
    InvalidAlphabet,
    InvalidLetter,
    ParseError,
    RefinementMap,
    RefinementMismatch,
    TreeAutomorphism,
    binary_generators,
    block_code,
    coarse_machines,
    generator_automorphism,
)

T1 = generator_automorphism("t1", 2)
T2 = generator_automorphism("t2", 2)
S12 = generator_automorphism("s", 2, 1, 2)
E4 = TreeAutomorphism.identity(4)

# single-state involution over 4 letters that swaps the blocks (0,0) and
# (1,1) of the standard block code, so it cannot act letterwise on blocks
NON_REFINABLE = TreeAutomorphism(4, [((1, 0, 2, 3), (0, 0, 0, 0))])

# state 1 is an identity sink: reachable from state 0 but never returns
SINK_MACHINE = TreeAutomorphism(2, [((1, 0), (1, 1)), ((0, 1), (1, 1))])


def _words(n, max_len):
    for length in range(max_len + 1):
        yield from itertools.product(range(n), repeat=length)


def _random_machine(rng, pool, max_factors=4):
    acc = TreeAutomorphism.identity(pool[0].n)
    for _ in range(rng.randint(0, max_factors)):
        g = rng.choice(pool)
        if rng.random() < 0.5:
            g = g.inverse()
        acc = acc.compose(g).minimize()
    return acc


def _pool(n):
    gens = [generator_automorphism("t1", n), generator_automorphism("t2", n)]
    gens += [
        generator_automorphism("s", n, i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    ]
    return gens


# ----------------------------------------------------------------------
# construction


def test_identity_machine():
    e = TreeAutomorphism.identity(4)
    assert len(e.outputs) == 1
    assert e.outputs[0] == (0, 1, 2, 3)
    assert e.transitions[0] == (0, 0, 0, 0)
    assert e.is_identity()
    for n in (2, 4, 8):
        assert TreeAutomorphism.identity(n).state_count() == 1
    for w in _words(2, 6):
        assert TreeAutomorphism.identity(2).act(w) == w


def test_identity_alphabet_validation():
    for bad in (1, 0, -3, "4", 2.0, True):
        with pytest.raises(InvalidAlphabet):
            TreeAutomorphism.identity(bad)


def test_constructor_validation():
    with pytest.raises(ValueError):
        TreeAutomorphism(2, [])
    with pytest.raises(ValueError):
        TreeAutomorphism(2, [((0, 0), (0, 0))])  # output not a permutation
    with pytest.raises(ValueError):
        TreeAutomorphism(2, [((0, 1), (0,))])  # missing a transition
    with pytest.raises(ValueError):
        TreeAutomorphism(2, [((0, 1), (0, 7))])  # transition out of range
    with pytest.raises(ValueError):
        TreeAutomorphism(2, [((0, 1), (0, 0))], initial=5)
    with pytest.raises(InvalidAlphabet):
        TreeAutomorphism(1, [((0,), (0,))])


def test_constructor_rejects_bool_states():
    # bool is an int subclass; True must not pass for state 1
    rows = [((0, 1), (1, 0)), ((1, 0), (0, 1))]
    with pytest.raises(ValueError):
        TreeAutomorphism(2, [((0, 1), (True, 0)), ((1, 0), (0, 1))])
    with pytest.raises(ValueError):
        TreeAutomorphism(2, [((0, 1), (1, 0)), ((1, 0), (0, False))])
    with pytest.raises(ValueError):
        TreeAutomorphism(2, rows, initial=True)
    assert len(TreeAutomorphism(2, rows, initial=1)) == 2


def test_constructor_trims_unreachable_states():
    # state 2 is unreachable from state 0 and must be dropped
    g = TreeAutomorphism(
        2,
        [((1, 0), (1, 1)), ((0, 1), (1, 1)), ((1, 0), (2, 2))],
    )
    assert len(g.outputs) == 2
    # pointing at state 2 instead keeps only its own loop
    h = TreeAutomorphism(
        2,
        [((1, 0), (1, 1)), ((0, 1), (1, 1)), ((1, 0), (2, 2))],
        initial=2,
    )
    assert len(h.outputs) == 1


# ----------------------------------------------------------------------
# action on words


def test_act_on_pinned_words():
    # letter 4 (bits (1,1)) maps to 3 (bits (0,1)) and hands over the carry
    assert T1.act((3,)) == (2,)
    assert T1.act((3, 3)) == (2, 3)
    assert T1.act(()) == ()
    assert T2.act(()) == ()


def test_act_rejects_bad_letters():
    for bad_word in ((4,), (-1,), (0, 99), (True,), (1.0,)):
        with pytest.raises(InvalidLetter):
            T1.act(bad_word)


@pytest.mark.parametrize("bad", [True, -1, 4, 1.0, None])
def test_act_reports_the_first_bad_letter(bad):
    # the same message as the per-letter check, naming the first bad letter
    # even when a second one follows
    message = re.escape(f"letter {bad!r} outside alphabet 0..3")
    for word in ((bad,), (3, bad), (0, 1, bad, "x")):
        with pytest.raises(InvalidLetter, match=f"^{message}$"):
            T1.act(word)


def test_act_accepts_int_subclasses():
    class Letter(int):
        pass

    assert T1.act((Letter(3), Letter(3))) == T1.act((3, 3)) == (2, 3)
    assert T1.act(()) == ()


def test_act_preserves_length_and_prefixes():
    rng = random.Random("glnztree/tests/prefix")
    g = T1.compose(T2).compose(S12).minimize()
    for _ in range(60):
        w = tuple(rng.randrange(4) for _ in range(rng.randint(0, 6)))
        image = g.act(w)
        assert len(image) == len(w)
        for i in range(len(w) + 1):
            assert g.act(w[:i]) == image[:i]


# ----------------------------------------------------------------------
# sections (state_at / first_level_states)


def test_state_at_pinned_sections():
    # reading letter 4 from the carry-free state produces the carry state
    assert T1.state_at((3,)).equal(T2)
    # the carry is absorbed exactly on letter 1 (bits (0,0)) ...
    assert T2.state_at((0,)).equal(T1)
    # ... and kept on letter 2 (bits (1,0))
    assert T2.state_at((1,)).equal(T2)
    assert T2.state_at((2,)).equal(T2)
    assert T2.state_at((3,)).equal(T2)


def test_state_at_root_returns_self():
    assert T1.state_at(()) is T1
    assert S12.state_at((2, 1, 0)) is S12  # single-state machine


def test_state_at_repoints_without_revalidating():
    # the trusted re-point gives the rows of the validating constructor; a
    # minimal source passes its flag on, and the flag is truthful
    redundant = TreeAutomorphism(2, [((1, 0), (1, 1)), ((1, 0), (0, 0))])
    for g in (T1.power(5), T1.compose(T2).compose(S12).minimize(), redundant):
        minimal = g._minimal
        rows = list(zip(g.outputs, g.transitions))
        for s in range(len(g)):
            pointed = g._repointed(s)
            checked = TreeAutomorphism(g.n, rows, initial=s)
            assert (pointed.outputs, pointed.transitions) == (checked.outputs, checked.transitions)
            assert pointed._minimal is minimal
            if minimal:
                fresh = checked.minimize()
                assert (fresh.outputs, fresh.transitions) == (pointed.outputs, pointed.transitions)
    assert redundant.state_at((0,)).state_count() == 1
    assert len(SINK_MACHINE.state_at((0,))) == 1  # trimmed to the sink


def test_first_level_states_of_generators():
    sections, root = T1.first_level_states()
    assert root == (0, 1, 3, 2)  # 1-based cycle notation: (34)
    for v, section in enumerate(sections):
        assert section.equal(T2 if v == 3 else T1)

    sections, root = T2.first_level_states()
    assert root == (1, 0, 2, 3)  # (12)
    for v, section in enumerate(sections):
        assert section.equal(T1 if v == 0 else T2)

    s1 = S12.compose(T1).compose(S12).minimize()
    s2 = S12.compose(T2).compose(S12).minimize()
    sections, root = s1.first_level_states()
    assert root == (0, 3, 2, 1)  # (24)
    for v, section in enumerate(sections):
        assert section.equal(s2 if v == 3 else s1)

    sections, root = E4.first_level_states()
    assert root == (0, 1, 2, 3)
    assert all(section.is_identity() for section in sections)


# ----------------------------------------------------------------------
# composition


def test_compose_pinned_products():
    product = T1.compose(T2)
    # root permutation is sigma = (12)(34): add one to the first coordinate
    assert product.outputs[0] == (1, 0, 3, 2)
    c = coarse_machines()
    sections, root = T1.compose(T1).first_level_states()
    assert root == (0, 1, 2, 3)
    expected = (c["t1t1"], c["t1t1"], c["t1t2"], c["t2t1"])
    assert all(got.equal(want) for got, want in zip(sections, expected))
    for g in (T1, T2, S12):
        assert g.compose(E4).equal(g)
        assert E4.compose(g).equal(g)


def test_compose_validation():
    with pytest.raises(AlphabetMismatch):
        T1.compose(TreeAutomorphism.identity(2))
    with pytest.raises(TypeError):
        T1.compose("t2")


def test_right_action_law():
    rng = random.Random("glnztree/tests/right-action")
    for n in (2, 3):
        pool = _pool(n)
        for _ in range(25):
            g = _random_machine(rng, pool)
            h = _random_machine(rng, pool)
            product = g.compose(h)
            for _ in range(8):
                w = tuple(rng.randrange(1 << n) for _ in range(rng.randint(0, 6)))
                assert product.act(w) == h.act(g.act(w))


# ----------------------------------------------------------------------
# inverse and power


def test_inverse_basics():
    assert E4.inverse().equal(E4)
    assert len(T1.inverse().outputs) == len(T1.outputs)
    for k in range(1, 11):
        assert T1.power(k).inverse().state_count() == k + 1


def test_inverse_roundtrip_on_generators():
    s1 = S12.compose(T1).compose(S12).minimize()
    a, d = binary_generators()
    for g in (T1, T2, s1, a, d):
        assert g.compose(g.inverse()).is_identity()
        assert g.inverse().compose(g).is_identity()
        assert g.inverse().inverse().equal(g)


def test_inversion_law_random():
    rng = random.Random("glnztree/tests/inversion")
    pool = _pool(2)
    for _ in range(30):
        g = _random_machine(rng, pool)
        inv = g.inverse()
        for _ in range(6):
            w = tuple(rng.randrange(4) for _ in range(rng.randint(0, 6)))
            assert inv.act(g.act(w)) == w


def test_power():
    assert T1.power(0).is_identity()
    assert len(T1.power(5).outputs) == 6
    assert T1.power(5).state_count() == 6
    assert T1.power(-1).equal(T1.inverse())
    assert T1.power(-3).equal(T1.inverse().power(3))
    assert (T1 ** 2).equal(T1.compose(T1))
    with pytest.raises(TypeError):
        T1.power(1.5)
    with pytest.raises(TypeError):
        T1.power(True)


# ----------------------------------------------------------------------
# minimization and equality


def test_minimize_collapses_bisimilar_states():
    # two states with identical outputs and mutually mirrored transitions
    g = TreeAutomorphism(2, [((1, 0), (1, 1)), ((1, 0), (0, 0))])
    assert len(g.minimize().outputs) == 1
    assert g.state_count() == 1


def test_minimize_pinned_counts():
    assert T1.compose(T1.inverse()).minimize().is_identity()
    assert len(T1.compose(T1.inverse()).minimize().outputs) == 1
    assert len(T1.compose(T1).minimize().outputs) == 3


def test_minimize_is_canonical_and_idempotent():
    m = T1.compose(T2).minimize()
    assert m.minimize() is m
    assert m.equal(T1.compose(T2))
    # two routes to the same automorphism share one canonical form
    other = T2.compose(T1).minimize()
    assert m.outputs == other.outputs
    assert m.transitions == other.transitions


def test_equal():
    assert T1.compose(T2).equal(T2.compose(T1))
    assert not T1.equal(T2)
    assert T1.equal(T1)
    with pytest.raises(AlphabetMismatch):
        T1.equal(TreeAutomorphism.identity(2))
    with pytest.raises(TypeError):
        T1.equal(3)


def test_equality_operators_and_hash():
    left = T1.compose(T2)
    right = T2.compose(T1)
    assert left == right
    assert hash(left) == hash(right)
    assert len({left, right, T1, T2}) == 3
    assert T1 != TreeAutomorphism.identity(2)  # different alphabets, not an error
    assert (T1 == "t1") is False


def test_state_count_pinned():
    assert T1.state_count() == 2
    assert S12.state_count() == 1
    for k in range(1, 21):
        assert T1.power(k).state_count() == k + 1


def test_strong_connectivity():
    assert T1.power(6).is_strongly_connected()
    assert TreeAutomorphism.identity(2).is_strongly_connected()
    assert not SINK_MACHINE.is_strongly_connected()


# ----------------------------------------------------------------------
# refinement


def test_refine_pinned():
    code = block_code()
    t1_sq = T1.compose(T1).minimize()
    refined = t1_sq.refine(code)
    assert len(refined.outputs) == 9
    a, _ = binary_generators()
    assert refined.equal(a)
    assert TreeAutomorphism.identity(4).refine(code).equal(TreeAutomorphism.identity(2))


def test_refine_equivariance_exhaustive():
    code = block_code()
    t1_sq = T1.compose(T1).minimize()
    refined = t1_sq.refine(code)
    for v in _words(4, 5):
        assert code.encode(t1_sq.act(v)) == refined.act(code.encode(v))


def test_refine_rejects_mismatches():
    code = block_code()
    with pytest.raises(RefinementMismatch):
        TreeAutomorphism.identity(8).refine(code)
    with pytest.raises(RefinementMismatch):
        NON_REFINABLE.refine(code)
    with pytest.raises(RefinementMismatch):
        T1.refine(code)  # a nontrivial root permutation of block prefixes


def test_refinement_map_validation():
    code = block_code()
    assert code.coarse_size == 4
    assert code.fine_size == 2
    assert code.block_length == 2
    assert code.encode((0, 1)) == (0, 0, 1, 1)
    assert code.encode(()) == ()
    with pytest.raises(InvalidLetter):
        code.encode((4,))
    with pytest.raises(ValueError):
        RefinementMap(2, [(0, 0), (1, 1), (1, 0)])  # not a bijection
    with pytest.raises(ValueError):
        RefinementMap(2, [(0, 0), (1, 1), (1, 0), (1, 0)])  # not injective
    with pytest.raises(ValueError):
        RefinementMap(2, [(0, 0), (1, 1), (1, 0), (0, 1, 1)])  # ragged
    with pytest.raises(ValueError):
        RefinementMap(2, [(0, 0), (1, 2), (1, 0), (0, 1)])  # bad fine letter
    with pytest.raises(InvalidAlphabet):
        RefinementMap(1, [(0, 0)])


def test_refinement_map_rejects_bool_letters():
    # bools are rejected as letters by TreeAutomorphism and encode alike
    with pytest.raises(ValueError, match="code letter False outside fine alphabet"):
        RefinementMap(2, ((False, False), (True, True), (True, False), (False, True)))
    with pytest.raises(ValueError, match="code letter True"):
        RefinementMap(2, ((0, 0), (True, 1), (1, 0), (0, 1)))


def test_refinement_is_homomorphism():
    code = block_code()
    c = coarse_machines()
    refinable = [c[k] for k in ("t1t1", "t1t2", "t2t2", "s1s1", "s1s2", "s2s2")]
    rng = random.Random("glnztree/tests/refine-hom")
    for _ in range(12):
        g = rng.choice(refinable)
        h = rng.choice(refinable)
        assert g.compose(h).refine(code).equal(g.refine(code).compose(h.refine(code)))


# ----------------------------------------------------------------------
# state-count laws and the bounded-action characterization of equality


def test_product_state_bound_and_inverse_count():
    rng = random.Random("glnztree/tests/bounds")
    for n in (2, 3):
        pool = _pool(n)
        for _ in range(20):
            g = _random_machine(rng, pool)
            h = _random_machine(rng, pool)
            assert g.compose(h).state_count() <= g.state_count() * h.state_count()
            assert g.inverse().state_count() == g.state_count()


def _shortest_disagreement(g, h):
    """Shortest word on which two machines act differently (None if equal).
    Breadth-first over reachable state pairs, so the word length is bounded
    by the number of such pairs."""
    seen = {(0, 0)}
    queue = deque([((0, 0), ())])
    while queue:
        (p, q), word = queue.popleft()
        for x in range(g.n):
            if g.outputs[p][x] != h.outputs[q][x]:
                return word + (x,)
            pair = (g.transitions[p][x], h.transitions[q][x])
            if pair not in seen:
                seen.add(pair)
                queue.append((pair, word + (x,)))
    return None


def test_equality_matches_bounded_action():
    c = coarse_machines()
    s1 = S12.compose(T1).compose(S12).minimize()
    s2 = S12.compose(T2).compose(S12).minimize()
    pairs = [
        (T1, T2),
        (T1, E4),
        (s1, s2),
        (c["t1t1"], c["t2t2"]),
        (c["t1t2"], c["t2t1"]),
        (T1.compose(T2).minimize(), T2.compose(T1).minimize()),
    ]
    for g, h in pairs:
        witness = _shortest_disagreement(g.minimize(), h.minimize())
        if g.equal(h):
            assert witness is None
        else:
            assert witness is not None
            assert len(witness) <= g.state_count() * h.state_count()
            assert g.act(witness) != h.act(witness)


# ----------------------------------------------------------------------
# DOT output


def test_to_dot_identity_exact():
    assert TreeAutomorphism.identity(2).to_dot() == (
        "digraph moore {\n"
        "  rankdir=LR;\n"
        "  node [shape=circle];\n"
        "  s0 [peripheries=2];\n"
        '  s0 -> s0 [label="1|1"];\n'
        '  s0 -> s0 [label="2|2"];\n'
        "}\n"
    )


def test_to_dot_t1():
    text = T1.to_dot()
    assert text.count("->") == 8
    assert "  s0 [peripheries=2];" in text
    assert "  s1;" in text
    # the carry edge: letter 4 comes out as 3 and moves to the carry state
    assert '  s0 -> s1 [label="4|3"];' in text


_DOT_NODE = re.compile(r"^  s(\d+)(?: \[peripheries=2\])?;$")
_DOT_EDGE = re.compile(r'^  s(\d+) -> s(\d+) \[label="(\d+)\|(\d+)"\];$')


def _parse_dot(text, n):
    lines = text.splitlines()
    assert lines[0].startswith("digraph ") and lines[0].endswith(" {")
    assert lines[-1] == "}"
    nodes = set()
    edges = {}
    for line in lines[1:-1]:
        if line in ("  rankdir=LR;", "  node [shape=circle];"):
            continue
        node = _DOT_NODE.match(line)
        if node:
            nodes.add(int(node.group(1)))
            continue
        edge = _DOT_EDGE.match(line)
        assert edge is not None, f"unparsed DOT line: {line!r}"
        src, dst, inp, out = map(int, edge.groups())
        edges.setdefault(src, []).append((inp, out, dst))
    assert nodes
    for s in nodes:
        rows = sorted(edges.get(s, []))
        assert [inp for inp, _, _ in rows] == list(range(1, n + 1))
        assert sorted(out for _, out, _ in rows) == list(range(1, n + 1))
        assert all(dst in nodes for _, _, dst in rows)
    return nodes, edges


def test_to_dot_parses_for_all_generators():
    a, d = binary_generators()
    machines = [
        (T1, 4), (T2, 4), (S12, 4),
        (generator_automorphism("t1", 3), 8),
        (generator_automorphism("s", 3, 1, 3), 8),
        (a, 2), (d, 2),
    ]
    for machine, n in machines:
        nodes, _ = _parse_dot(machine.to_dot(), n)
        assert len(nodes) == len(machine.outputs)


# ----------------------------------------------------------------------
# JSON serialization


def test_json_pinned_t1():
    assert T1.to_json() == {
        "n": 4,
        "initial": 0,
        "states": [
            {"out": [1, 2, 4, 3], "to": [0, 0, 0, 1]},
            {"out": [2, 1, 3, 4], "to": [0, 1, 1, 1]},
        ],
    }


def test_json_roundtrip():
    a, d = binary_generators()
    for g in (T1, T2, S12, T1.power(5), a, d):
        payload = json.loads(json.dumps(g.to_json()))
        assert TreeAutomorphism.from_json(payload).equal(g)


def test_from_json_validation():
    good = T1.to_json()
    for mutate in (
        lambda p: p.pop("n"),
        lambda p: p.pop("states"),
        lambda p: p["states"][0].pop("out"),
        lambda p: p["states"][0]["out"].append(9),
        lambda p: p["states"][0]["to"].__setitem__(0, 17),
        lambda p: p["states"][0]["out"].__setitem__(0, 2),  # no longer a permutation
    ):
        payload = json.loads(json.dumps(good))
        mutate(payload)
        with pytest.raises(ParseError):
            TreeAutomorphism.from_json(payload)
    with pytest.raises(ParseError):
        TreeAutomorphism.from_json("not a dict")
