"""Command-line front end.

Subcommands: phi, factorize, act, dot, verify, free.  Letters are 1-based in
all CLI text; `act --bits` prints each letter as its bit vector instead
(least significant bit first).  Exit codes: 0 on success (all requested
checks passed), 1 when a verification fails, 2 on malformed input.  Only
the library's typed input errors (GlnzTreeError, OverflowError) and OS
errors map to exit 2; anything else is an internal fault and propagates.
A dimension above glnz.MAX_DIM (12, so 4,096 letters) is malformed input:
phi, act, `dot --n` and `verify --n` exit 2 on it.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from . import checks
from .errors import GlnzTreeError, InvalidArgument, InvalidLetter, ParseError
from .glnz import (
    IntMatrix,
    _alphabet_size,
    bits_from_letter,
    factorize,
    factors_to_json,
    generator_automorphism,
    phi,
)
from .sanov import binary_generators


def _load_matrix(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return IntMatrix.from_json(data)


def _write_text(path, text):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _cmd_phi(args):
    machine = phi(_load_matrix(args.matrix))
    if args.dot:
        _write_text(args.dot, machine.to_dot())
    if args.json:
        _write_text(args.json, json.dumps(machine.to_json()) + "\n")
    print(f"states: {machine.state_count()}")
    return 0


def _cmd_factorize(args):
    factors = factorize(_load_matrix(args.matrix))
    print(json.dumps(factors_to_json(factors)))
    return 0


def _parse_word(text, size):
    if text == "":
        return ()
    letters = []
    for part in text.split(","):
        part = part.strip()
        try:
            value = int(part)
        except ValueError as exc:
            raise ParseError(f"bad letter {part!r}: expected an integer") from exc
        if not 1 <= value <= size:
            raise InvalidLetter(f"letter {value} outside 1..{size}")
        letters.append(value - 1)
    return tuple(letters)


def _cmd_act(args):
    matrix = _load_matrix(args.matrix)
    # the word is checked against the capped alphabet before phi builds anything
    word = _parse_word(args.word, _alphabet_size(matrix.n))
    image = phi(matrix).act(word)
    if args.bits:
        rendered = [
            "".join(str(b) for b in bits_from_letter(x + 1, matrix.n)) for x in image
        ]
    else:
        rendered = [str(x + 1) for x in image]
    print(",".join(rendered))
    return 0


def _cmd_dot(args):
    spec = args.generator
    name = spec[0]
    if name in ("t1", "t2"):
        if len(spec) != 1:
            raise ParseError(f"generator {name} takes no indices")
        machine = generator_automorphism(name, args.n)
    elif name == "s":
        if len(spec) != 3:
            raise ParseError("generator s needs two indices: s i j")
        try:
            i, j = int(spec[1]), int(spec[2])
        except ValueError as exc:
            raise ParseError(f"bad index in {spec[1:]!r}") from exc
        machine = generator_automorphism("s", args.n, i, j)
    elif name in ("a", "d"):
        if len(spec) != 1:
            raise ParseError(f"generator {name} takes no indices")
        gen_a, gen_d = binary_generators()
        machine = gen_a if name == "a" else gen_d
    else:
        raise ParseError(f"unknown generator {name!r}: expected t1, t2, s i j, a or d")
    _write_text(args.out, machine.to_dot())
    return 0


def _cmd_verify(args):
    if args.kmax < 1:
        raise InvalidArgument(f"--kmax must be a positive integer, got {args.kmax}")
    dims = (args.n,) if args.n is not None else (2, 3)
    chosen = [
        name for name in ("theorem1", "lemma1", "lemma2", "corollary")
        if getattr(args, name)
    ]
    if not chosen:
        chosen = ["theorem1", "lemma1", "lemma2", "corollary"]
    suites = {
        "theorem1": lambda: checks.theorem1_suite(dims=dims, kmax=args.kmax),
        "lemma1": lambda: checks.lemma1_suite(dims=dims),
        "lemma2": lambda: checks.lemma2_suite(dims=dims, mmax=args.kmax),
        "corollary": lambda: checks.corollary_suite(dims=dims),
    }
    grouped = [suites[name]() for name in chosen]
    all_ok = True
    for results in grouped:
        for result in results:
            verdict = "PASS" if result.passed else "FAIL"
            suffix = f" ({result.detail})" if result.detail and not result.passed else ""
            print(f"{result.name}: {verdict}{suffix}")
            all_ok = all_ok and result.passed
    return 0 if all_ok else 1


def _cmd_free(args):
    report, conjugacy_ok = checks.freeness_suite(args.max_length, args.depth)
    print(json.dumps(report.to_json()))
    if report.counterexample is None and conjugacy_ok:
        print("no relation found; conjugacy OK")
        return 0
    if report.counterexample is not None:
        print(f"relation found: {report.counterexample}")
    print(f"conjugacy {'OK' if conjugacy_ok else 'FAIL'} (depth {args.depth})")
    return 1


@lru_cache(maxsize=None)
def build_parser():
    # built once per process: parse_args returns a fresh Namespace per call
    parser = argparse.ArgumentParser(
        prog="glnztree",
        description="Finite-state tree automorphisms of integer matrices.")
    sub = parser.add_subparsers(dest="command", required=True)

    cmd = sub.add_parser("phi", help="matrix -> automaton; print the state count")
    cmd.add_argument("--matrix", required=True, help="path to matrix JSON")
    cmd.add_argument("--dot", help="write the Moore diagram here")
    cmd.add_argument("--json", help="write the automaton JSON here")
    cmd.set_defaults(func=_cmd_phi)

    cmd = sub.add_parser("factorize", help="print the elementary factors as JSON")
    cmd.add_argument("--matrix", required=True)
    cmd.set_defaults(func=_cmd_factorize)

    cmd = sub.add_parser("act", help="apply the matrix automaton to a vertex")
    cmd.add_argument("--matrix", required=True)
    cmd.add_argument("--word", required=True,
                     help="comma-separated 1-based letters, e.g. 4,4")
    cmd.add_argument("--bits", action="store_true",
                     help="print output letters as bit vectors")
    cmd.set_defaults(func=_cmd_act)

    cmd = sub.add_parser("dot", help="write a generator's Moore diagram")
    cmd.add_argument("--generator", required=True, nargs="+",
                     metavar="NAME", help="t1 | t2 | s i j | a | d")
    cmd.add_argument("--n", type=int, default=2, help="matrix dimension (default 2)")
    cmd.add_argument("--out", required=True)
    cmd.set_defaults(func=_cmd_dot)

    cmd = sub.add_parser("verify", help="run verification suites")
    cmd.add_argument("--theorem1", action="store_true")
    cmd.add_argument("--lemma1", action="store_true")
    cmd.add_argument("--lemma2", action="store_true")
    cmd.add_argument("--corollary", action="store_true")
    cmd.add_argument("--n", type=int, help="single dimension (default: 2 and 3)")
    cmd.add_argument("--kmax", type=int, default=20)
    cmd.set_defaults(func=_cmd_verify)

    cmd = sub.add_parser("free", help="relation sweep and conjugacy check")
    cmd.add_argument("--max-length", type=int, default=8)
    cmd.add_argument("--depth", type=int, default=6)
    cmd.set_defaults(func=_cmd_free)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GlnzTreeError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
