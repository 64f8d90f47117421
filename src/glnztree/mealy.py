"""Exact calculus of finite-state automorphisms of the n-regular rooted tree.

An automorphism is stored as a pointed, invertible, letter-to-letter
transducer: each state carries an output permutation of the alphabet and one
transition per letter.  Reading a word letter by letter from the initial
state permutes each letter through the current state's output and moves along
the transition, which is exactly the classical portrait action on the tree
whose vertices are words.

Letters are 0-based integers 0..n-1 throughout the library; they appear
1-based only in DOT labels, JSON payloads and CLI text.  Words are tuples of
letters, the empty tuple being the root.

Machines are immutable values.  Every constructor trims to the states
reachable from the initial one and renumbers breadth-first with letters
ascending, so the initial state is always state 0.  `minimize` additionally
merges bisimilar states; because the renumbering is canonical, two machines
define the same automorphism iff their minimal forms are bit-identical.
"""

from __future__ import annotations

from .errors import (
    AlphabetMismatch,
    InvalidAlphabet,
    InvalidLetter,
    ParseError,
    RefinementMismatch,
)


def _trim(outputs, transitions, initial):
    """The rows reachable from `initial`, renumbered breadth-first with
    letters ascending, so that `initial` becomes state 0."""
    order = [initial]
    renum = {initial: 0}
    head = 0
    while head < len(order):
        for t in transitions[order[head]]:
            if t not in renum:
                renum[t] = len(order)
                order.append(t)
        head += 1
    return (tuple(outputs[s] for s in order),
            tuple(tuple(renum[t] for t in transitions[s]) for s in order))


class TreeAutomorphism:
    __slots__ = ("n", "outputs", "transitions", "_minimal", "_hash")

    def __init__(self, n, states, initial=0):
        """Build a machine from `states`, a sequence of (output, transitions)
        rows, pointed at `initial`.  Outputs must be permutations of 0..n-1;
        transitions are state indices.  Unreachable states are dropped."""
        if not isinstance(n, int) or isinstance(n, bool) or n < 2:
            raise InvalidAlphabet(f"alphabet size must be an integer >= 2, got {n!r}")
        rows = [(tuple(out), tuple(trans)) for out, trans in states]
        if not rows:
            raise ValueError("an automorphism needs at least one state")
        size = len(rows)
        if not (isinstance(initial, int) and not isinstance(initial, bool)
                and 0 <= initial < size):
            raise ValueError(f"initial state {initial!r} out of range for {size} states")
        letters = tuple(range(n))
        for out, trans in rows:
            if tuple(sorted(out)) != letters:
                raise ValueError(f"state output {out!r} is not a permutation of 0..{n - 1}")
            if len(trans) != n:
                raise ValueError("each state needs one transition per letter")
            for t in trans:
                if not (isinstance(t, int) and not isinstance(t, bool) and 0 <= t < size):
                    raise ValueError(f"transition target {t!r} out of range")
        self.n = n
        self.outputs, self.transitions = _trim(
            [out for out, _ in rows], [trans for _, trans in rows], initial)
        self._minimal = False
        self._hash = None

    @classmethod
    def _trusted(cls, n, outputs, transitions, minimal=False):
        # internal fast path for machines already trimmed and BFS-numbered
        self = object.__new__(cls)
        self.n = n
        self.outputs = outputs
        self.transitions = transitions
        self._minimal = minimal
        self._hash = None
        return self

    @classmethod
    def identity(cls, n):
        """The trivial automorphism of the n-regular tree (one state)."""
        if not isinstance(n, int) or isinstance(n, bool) or n < 2:
            raise InvalidAlphabet(f"alphabet size must be an integer >= 2, got {n!r}")
        return cls._trusted(n, (tuple(range(n)),), ((0,) * n,), minimal=True)

    # ------------------------------------------------------------------
    # basic queries

    def __len__(self):
        """Number of stored states (not necessarily minimal)."""
        return len(self.outputs)

    def __repr__(self):
        return f"<TreeAutomorphism n={self.n} states={len(self.outputs)}>"

    def _letter(self, x):
        if not (isinstance(x, int) and not isinstance(x, bool) and 0 <= x < self.n):
            raise InvalidLetter(f"letter {x!r} outside alphabet 0..{self.n - 1}")
        return x

    def act(self, word):
        """Image of a vertex under the automorphism."""
        n = self.n
        outputs = self.outputs
        transitions = self.transitions
        s = 0
        image = []
        for x in word:
            if type(x) is not int or not 0 <= x < n:
                x = self._letter(x)  # raises, or passes an int subclass
            image.append(outputs[s][x])
            s = transitions[s][x]
        return tuple(image)

    def state_at(self, word):
        """The automorphism this machine performs below vertex `word`
        (the machine re-pointed at the state reached by reading `word`)."""
        s = 0
        for x in word:
            s = self.transitions[s][self._letter(x)]
        if s == 0:
            return self
        return self._repointed(s)

    def _repointed(self, state):
        """This machine re-pointed at `state`, without validating again.
        Every sub-automaton of a minimal machine is minimal, so the flag
        carries over."""
        outputs, transitions = _trim(self.outputs, self.transitions, state)
        return TreeAutomorphism._trusted(self.n, outputs, transitions, minimal=self._minimal)

    def first_level_states(self):
        """Wreath recursion of the initial state: the list of sections at the
        first level and the root output permutation."""
        return [self.state_at((x,)) for x in range(self.n)], self.outputs[0]

    def is_identity(self):
        # every reachable state has the identity output <=> trivial action
        ident = tuple(range(self.n))
        return all(out == ident for out in self.outputs)

    # ------------------------------------------------------------------
    # group operations

    def compose(self, other):
        """Product acting `self` first, then `other` (right-action order:
        act(compose(g, h), w) == act(h, act(g, w)))."""
        if not isinstance(other, TreeAutomorphism):
            raise TypeError(f"cannot compose with {type(other).__name__}")
        if self.n != other.n:
            raise AlphabetMismatch(f"alphabets differ: {self.n} vs {other.n}")
        n = self.n
        go, gt = self.outputs, self.transitions
        ho, ht = other.outputs, other.transitions
        ids = {(0, 0): 0}
        pairs = [(0, 0)]
        outs = []
        trans = []
        head = 0
        while head < len(pairs):
            p, q = pairs[head]
            head += 1
            op, tp = go[p], gt[p]
            oq, tq = ho[q], ht[q]
            orow = []
            trow = []
            for x in range(n):
                y = op[x]
                orow.append(oq[y])
                pair = (tp[x], tq[y])
                i = ids.get(pair)
                if i is None:
                    i = len(pairs)
                    ids[pair] = i
                    pairs.append(pair)
                trow.append(i)
            outs.append(tuple(orow))
            trans.append(tuple(trow))
        return TreeAutomorphism._trusted(n, tuple(outs), tuple(trans))

    __mul__ = compose

    def inverse(self):
        """Inverse automorphism: outputs inverted, transitions re-indexed
        through the inverted output (state set maps one-to-one)."""
        n = self.n
        outs = []
        trans = []
        for out, row in zip(self.outputs, self.transitions):
            inv = [0] * n
            for x in range(n):
                inv[out[x]] = x
            outs.append(tuple(inv))
            trans.append(tuple(row[inv[y]] for y in range(n)))
        return TreeAutomorphism._trusted(n, tuple(outs), tuple(trans))

    def power(self, k):
        """k-th power with minimization interleaved between factors."""
        if not isinstance(k, int) or isinstance(k, bool):
            raise TypeError("exponent must be an integer")
        if k < 0:
            return self.power(-k).inverse()
        acc = TreeAutomorphism.identity(self.n)
        base = self.minimize()
        for _ in range(k):
            acc = acc.compose(base).minimize()
        return acc

    __pow__ = power

    # ------------------------------------------------------------------
    # minimization and equality

    def minimize(self):
        """Canonical minimal form: bisimilar states merged (Moore partition
        refinement), then breadth-first renumbering.  Returns self when the
        machine is already in canonical minimal form."""
        if self._minimal:
            return self
        outputs = self.outputs
        transitions = self.transitions
        size = len(outputs)
        index = {}
        classes = [index.setdefault(out, len(index)) for out in outputs]
        count = len(index)
        while count < size:
            index = {}
            setd = index.setdefault
            classes = [
                setd((classes[s], *[classes[t] for t in transitions[s]]), len(index))
                for s in range(size)
            ]
            if len(index) == count:
                break
            count = len(index)
        # breadth-first renumbering of the quotient, one representative per class
        reps = [0]
        new_id = {classes[0]: 0}
        head = 0
        while head < len(reps):
            for t in transitions[reps[head]]:
                c = classes[t]
                if c not in new_id:
                    new_id[c] = len(reps)
                    reps.append(t)
            head += 1
        outs = tuple(outputs[s] for s in reps)
        trans = tuple(tuple(new_id[classes[t]] for t in transitions[s]) for s in reps)
        if outs == outputs and trans == transitions:
            self._minimal = True
            return self
        result = TreeAutomorphism._trusted(self.n, outs, trans, minimal=True)
        return result

    def state_count(self):
        """Number of states of the minimal form (= number of distinct
        automorphisms performed below vertices, this one included)."""
        return len(self.minimize().outputs)

    def equal(self, other):
        """Whether both machines define the same tree automorphism, decided
        by a breadth-first bisimulation over reachable state pairs."""
        if not isinstance(other, TreeAutomorphism):
            raise TypeError(f"cannot compare with {type(other).__name__}")
        if self.n != other.n:
            raise AlphabetMismatch(f"alphabets differ: {self.n} vs {other.n}")
        so, st = self.outputs, self.transitions
        oo, ot = other.outputs, other.transitions
        seen = {(0, 0)}
        stack = [(0, 0)]
        while stack:
            p, q = stack.pop()
            if so[p] != oo[q]:
                return False
            tp, tq = st[p], ot[q]
            for x in range(self.n):
                pair = (tp[x], tq[x])
                if pair not in seen:
                    seen.add(pair)
                    stack.append(pair)
        return True

    def __eq__(self, other):
        if not isinstance(other, TreeAutomorphism):
            return NotImplemented
        if self.n != other.n:
            return False
        return self.equal(other)

    def __hash__(self):
        if self._hash is None:
            m = self.minimize()
            self._hash = hash((m.n, m.outputs, m.transitions))
        return self._hash

    def is_strongly_connected(self):
        """Whether every minimal state is reachable from every other.
        Minimizes first; trimming already makes every state reachable from
        state 0, so only reverse reachability needs checking."""
        m = self.minimize()
        size = len(m.outputs)
        if size == 1:
            return True
        rev = [[] for _ in range(size)]
        for s, row in enumerate(m.transitions):
            for t in row:
                rev[t].append(s)
        seen = {0}
        stack = [0]
        while stack:
            for p in rev[stack.pop()]:
                if p not in seen:
                    seen.add(p)
                    stack.append(p)
        return len(seen) == size

    # ------------------------------------------------------------------
    # alphabet refinement

    def refine(self, code):
        """Rewrite the machine over the fine alphabet of a block code, so
        that it acts on fine words block by block.  Fails with
        RefinementMismatch if the alphabet sizes disagree or if some state
        does not act letterwise on blocks (the output of a fine letter must
        be determined by the prefix read so far)."""
        outs, trans, _ = _refine_table(self, code)
        return TreeAutomorphism._trusted(code.fine_size, outs, trans)

    # ------------------------------------------------------------------
    # serialization

    def to_dot(self, name="moore"):
        """Moore diagram in DOT format: one node per state (initial state
        drawn with a double border), edges labelled `input|output` with
        1-based letters."""
        lines = [f"digraph {name} {{", "  rankdir=LR;", "  node [shape=circle];"]
        for s in range(len(self.outputs)):
            lines.append(f"  s{s} [peripheries=2];" if s == 0 else f"  s{s};")
        for s, (out, row) in enumerate(zip(self.outputs, self.transitions)):
            for x in range(self.n):
                lines.append(f'  s{s} -> s{row[x]} [label="{x + 1}|{out[x] + 1}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json(self):
        """JSON-ready dict; output letters are 1-based, state ids 0-based."""
        return {
            "n": self.n,
            "initial": 0,
            "states": [
                {"out": [o + 1 for o in out], "to": list(row)}
                for out, row in zip(self.outputs, self.transitions)
            ],
        }

    @classmethod
    def from_json(cls, data):
        try:
            n = data["n"]
            initial = data["initial"]
            states = [
                (tuple(x - 1 for x in s["out"]), tuple(s["to"]))
                for s in data["states"]
            ]
        except (KeyError, TypeError, IndexError) as exc:
            raise ParseError(f"malformed automaton JSON: {exc}") from exc
        try:
            return cls(n, states, initial=initial)
        except (ValueError, TypeError) as exc:
            raise ParseError(f"malformed automaton JSON: {exc}") from exc


class RefinementMap:
    """A bijection between a coarse alphabet and the length-k blocks over a
    fine alphabet, i.e. a coding of one tree into another.  `table[c]` is the
    fine block spelled by coarse letter c."""

    __slots__ = ("fine_size", "block_length", "table")

    def __init__(self, fine_size, table):
        if not isinstance(fine_size, int) or isinstance(fine_size, bool) or fine_size < 2:
            raise InvalidAlphabet(f"fine alphabet size must be an integer >= 2, got {fine_size!r}")
        table = tuple(tuple(block) for block in table)
        if not table:
            raise ValueError("empty code table")
        k = len(table[0])
        if k < 1 or any(len(block) != k for block in table):
            raise ValueError("all code blocks must share one positive length")
        if len(table) != fine_size ** k:
            raise ValueError(
                f"table has {len(table)} blocks, expected {fine_size ** k} for a bijection"
            )
        for block in table:
            for b in block:
                if not (isinstance(b, int) and not isinstance(b, bool) and 0 <= b < fine_size):
                    raise ValueError(f"code letter {b!r} outside fine alphabet")
        if len(set(table)) != len(table):
            raise ValueError("code table is not injective")
        self.fine_size = fine_size
        self.block_length = k
        self.table = table

    @property
    def coarse_size(self):
        return len(self.table)

    def encode(self, word):
        """Spell a coarse word as the concatenation of its blocks."""
        out = []
        for x in word:
            if not (isinstance(x, int) and not isinstance(x, bool) and 0 <= x < self.coarse_size):
                raise InvalidLetter(f"letter {x!r} outside alphabet 0..{self.coarse_size - 1}")
            out.extend(self.table[x])
        return tuple(out)

    def __repr__(self):
        return f"<RefinementMap {self.coarse_size}->{self.fine_size}^{self.block_length}>"


def _refine_table(machine, code):
    """Shared refinement walk.  Returns (outputs, transitions, names) of the
    refined machine before minimization; names[i] = (coarse state, buffered
    fine prefix) identifies refined state i."""
    if code.coarse_size != machine.n:
        raise RefinementMismatch(
            f"code covers an alphabet of {code.coarse_size} letters, machine uses {machine.n}"
        )
    m = code.fine_size
    k = code.block_length
    table = code.table
    by_prefix = {}
    for c, block in enumerate(table):
        for j in range(1, k + 1):
            by_prefix.setdefault(block[:j], []).append(c)
    ids = {(0, ()): 0}
    names = [(0, ())]
    outs = []
    trans = []
    head = 0
    while head < len(names):
        q, prefix = names[head]
        head += 1
        sigma = machine.outputs[q]
        orow = []
        trow = []
        for y in range(m):
            extended = prefix + (y,)
            j = len(extended)
            cands = by_prefix[extended]
            images = {table[sigma[c]][j - 1] for c in cands}
            if len(images) != 1:
                raise RefinementMismatch(
                    "machine does not act letterwise on code blocks: "
                    f"state {q} is ambiguous after fine prefix {extended}"
                )
            if j == k:
                nxt = (machine.transitions[q][cands[0]], ())
            else:
                nxt = (q, extended)
            i = ids.get(nxt)
            if i is None:
                i = len(names)
                ids[nxt] = i
                names.append(nxt)
            orow.append(images.pop())
            trow.append(i)
        outs.append(tuple(orow))
        trans.append(tuple(trow))
    return tuple(outs), tuple(trans), names
