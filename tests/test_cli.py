"""Command-line interface tests.

Everything runs in-process through ``main(argv)`` (stdout/stderr via capsys,
files via tmp_path) except one subprocess test that exercises the
``python -m glnztree.cli`` entry point end to end.

Exit code 1 (a verification suite failing, or the relation sweep finding a
counterexample) is not honestly reachable through the CLI: the suites verify
properties the construction guarantees, and the CLI does not let the caller
substitute broken generators.  The failing branches are exercised at library
level instead (see test_sanov.py's negative controls).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import glnztree
from glnztree import IntMatrix, TreeAutomorphism, factor_product, factors_from_json, phi
from glnztree.cli import main

T1_ROWS = [[1, 0], [2, 1]]  # phi image is the 3-state square of the adder


def _matrix_file(tmp_path, rows, name="matrix.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"n": len(rows), "rows": rows}), encoding="utf-8")
    return str(path)


# ----------------------------------------------------------------------
# phi


def test_phi_prints_state_count(tmp_path, capsys):
    assert main(["phi", "--matrix", _matrix_file(tmp_path, T1_ROWS)]) == 0
    assert capsys.readouterr().out == "states: 3\n"


def test_phi_writes_dot_and_json(tmp_path, capsys):
    dot_path = tmp_path / "m.dot"
    json_path = tmp_path / "m.json.out"
    rc = main([
        "phi", "--matrix", _matrix_file(tmp_path, T1_ROWS),
        "--dot", str(dot_path), "--json", str(json_path),
    ])
    assert rc == 0
    assert capsys.readouterr().out == "states: 3\n"
    dot = dot_path.read_text(encoding="utf-8")
    assert dot.startswith("digraph moore {\n")
    assert dot.endswith("}\n")
    assert "s0 [peripheries=2];" in dot
    assert dot.count(" -> ") == 3 * 4  # three states, four letters
    payload = json_path.read_text(encoding="utf-8")
    assert payload.endswith("\n")
    reloaded = TreeAutomorphism.from_json(json.loads(payload))
    assert reloaded.equal(phi(IntMatrix(T1_ROWS)))


def test_phi_output_is_byte_deterministic(tmp_path, capsys):
    blobs = []
    for run in ("one", "two"):
        dot_path = tmp_path / f"{run}.dot"
        json_path = tmp_path / f"{run}.json"
        rc = main([
            "phi", "--matrix", _matrix_file(tmp_path, [[0, -1], [1, 0]]),
            "--dot", str(dot_path), "--json", str(json_path),
        ])
        assert rc == 0
        blobs.append((
            capsys.readouterr().out,
            dot_path.read_bytes(),
            json_path.read_bytes(),
        ))
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("rows", [[[2, 0], [0, 1]], [[1, 1], [1, 1]]])
def test_phi_rejects_non_unimodular(tmp_path, capsys, rows):
    assert main(["phi", "--matrix", _matrix_file(tmp_path, rows)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_phi_missing_file(tmp_path, capsys):
    assert main(["phi", "--matrix", str(tmp_path / "absent.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_phi_malformed_inputs(tmp_path, capsys):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json", encoding="utf-8")
    assert main(["phi", "--matrix", str(bad_json)]) == 2
    assert capsys.readouterr().err.startswith("error: ")

    wrong_shape = tmp_path / "shape.json"
    wrong_shape.write_text(json.dumps({"n": 3, "rows": T1_ROWS}), encoding="utf-8")
    assert main(["phi", "--matrix", str(wrong_shape)]) == 2
    assert capsys.readouterr().err.startswith("error: ")

    not_integers = tmp_path / "floats.json"
    not_integers.write_text(
        json.dumps({"n": 2, "rows": [[1.0, 0.0], [0.0, 1.0]]}), encoding="utf-8")
    assert main(["phi", "--matrix", str(not_integers)]) == 2
    assert capsys.readouterr().err.startswith("error: ")

    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"n": 2, "rows": [[1, 0], [0, 1]], "note": "\xe9"}')
    assert main(["phi", "--matrix", str(not_utf8)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_phi_dimension_cap(tmp_path, capsys):
    def reversal(n):
        return [[1 if c == n - 1 - r else 0 for c in range(n)] for r in range(n)]

    assert main(["phi", "--matrix", _matrix_file(tmp_path, reversal(12))]) == 0
    assert capsys.readouterr().out == "states: 1\n"
    for n in (13, 30):
        assert main(["phi", "--matrix", _matrix_file(tmp_path, reversal(n))]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: dimension {n} exceeds MAX_DIM = 12")


def test_internal_error_is_not_malformed_input(tmp_path, monkeypatch):
    # only typed input errors exit 2; a bug inside the library propagates
    def broken(matrix):
        raise TypeError("internal bug")

    monkeypatch.setattr("glnztree.cli.phi", broken)
    with pytest.raises(TypeError, match="internal bug"):
        main(["phi", "--matrix", _matrix_file(tmp_path, T1_ROWS)])


# ----------------------------------------------------------------------
# factorize


def test_factorize_prints_json(tmp_path, capsys):
    assert main(["factorize", "--matrix", _matrix_file(tmp_path, [[1, 0], [1, 1]])]) == 0
    assert capsys.readouterr().out == '[{"T": [2, 1, 1]}]\n'


def test_factorize_identity_is_empty(tmp_path, capsys):
    assert main(["factorize", "--matrix", _matrix_file(tmp_path, [[1, 0], [0, 1]])]) == 0
    assert capsys.readouterr().out == "[]\n"


def test_factorize_large_unit_lower_triangular(tmp_path, capsys):
    # valid int64 input whose inverse leaves int64 is not malformed input
    rows = [[1 if r == c else 100 if r > c else 0 for c in range(12)] for r in range(12)]
    assert main(["factorize", "--matrix", _matrix_file(tmp_path, rows)]) == 0
    factors = json.loads(capsys.readouterr().out)
    assert factor_product(factors_from_json(factors), 12) == IntMatrix(rows)


# ----------------------------------------------------------------------
# act


def test_act_letters(tmp_path, capsys):
    path = _matrix_file(tmp_path, T1_ROWS)
    assert main(["act", "--matrix", path, "--word", "4,4"]) == 0
    assert capsys.readouterr().out == "4,3\n"


def test_act_bits(tmp_path, capsys):
    path = _matrix_file(tmp_path, T1_ROWS)
    assert main(["act", "--matrix", path, "--word", "4,4", "--bits"]) == 0
    assert capsys.readouterr().out == "11,01\n"  # least significant bit first


def test_act_empty_word(tmp_path, capsys):
    path = _matrix_file(tmp_path, T1_ROWS)
    assert main(["act", "--matrix", path, "--word", ""]) == 0
    assert capsys.readouterr().out == "\n"


def test_act_tolerates_spaces(tmp_path, capsys):
    path = _matrix_file(tmp_path, T1_ROWS)
    assert main(["act", "--matrix", path, "--word", "4, 4"]) == 0
    assert capsys.readouterr().out == "4,3\n"


@pytest.mark.parametrize("word", ["5", "0", "x", "1,,2"])
def test_act_rejects_bad_letters(tmp_path, capsys, word):
    path = _matrix_file(tmp_path, T1_ROWS)
    assert main(["act", "--matrix", path, "--word", word]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("word", ["0", "99"])
def test_act_rejects_the_word_before_building_the_machine(tmp_path, capsys, monkeypatch, word):
    def unreachable(matrix):
        raise AssertionError("phi called for a malformed word")

    monkeypatch.setattr("glnztree.cli.phi", unreachable)
    assert main(["act", "--matrix", _matrix_file(tmp_path, T1_ROWS), "--word", word]) == 2
    assert capsys.readouterr().err == f"error: letter {word} outside 1..4\n"
    # a bad word on a matrix above the cap reports the cap, as phi would
    reversal = [[1 if c == 12 - r else 0 for c in range(13)] for r in range(13)]
    assert main(["act", "--matrix", _matrix_file(tmp_path, reversal), "--word", word]) == 2
    assert capsys.readouterr().err.startswith("error: dimension 13 exceeds MAX_DIM = 12: ")


# ----------------------------------------------------------------------
# dot


@pytest.mark.parametrize(
    "argv,edges",
    [
        (["--generator", "t1"], 2 * 4),
        (["--generator", "s", "1", "2"], 1 * 4),
        (["--generator", "t2", "--n", "3"], 2 * 8),
        (["--generator", "a"], 9 * 2),
        (["--generator", "d"], 9 * 2),
    ],
)
def test_dot_writes_diagram(tmp_path, capsys, argv, edges):
    out = tmp_path / "g.dot"
    assert main(["dot", *argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    text = out.read_text(encoding="utf-8")
    assert text.startswith("digraph moore {\n")
    assert text.endswith("}\n")
    assert "s0 [peripheries=2];" in text
    assert text.count(" -> ") == edges


@pytest.mark.parametrize(
    "argv",
    [
        ["--generator", "s"],                 # s needs indices
        ["--generator", "s", "1"],
        ["--generator", "t1", "1", "2"],      # t1 takes none
        ["--generator", "a", "3"],
        ["--generator", "q"],                 # unknown name
        ["--generator", "s", "1", "5"],       # index out of range at n=2
        ["--generator", "s", "1", "1"],       # equal indices
        ["--generator", "s", "1", "x"],       # non-integer index
    ],
)
def test_dot_rejects_bad_generators(tmp_path, capsys, argv):
    out = tmp_path / "g.dot"
    assert main(["dot", *argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert not out.exists()


def test_dot_dimension_cap(tmp_path, capsys):
    out = tmp_path / "g.dot"
    assert main(["dot", "--generator", "t1", "--n", "12", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8").count(" -> ") == 2 * 4096
    out.unlink()
    for n in ("13", "40"):
        assert main(["dot", "--generator", "t1", "--n", n, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: dimension {n} exceeds MAX_DIM = 12: its alphabet would have 2^{n} letters\n")
        assert not out.exists()


# ----------------------------------------------------------------------
# verify


def test_verify_single_suite(capsys):
    assert main(["verify", "--lemma1", "--n", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines
    assert all(line.endswith(": PASS") for line in lines)
    assert all(line.startswith("lemma1/") for line in lines)


def test_verify_all_suites_small(capsys):
    assert main(["verify", "--n", "2", "--kmax", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(line.endswith(": PASS") for line in lines)
    prefixes = {line.split("/", 1)[0] for line in lines}
    assert prefixes == {"theorem1", "lemma1", "lemma2", "corollary"}


def test_verify_kmax_reaches_lemma2(capsys):
    assert main(["verify", "--lemma2", "--n", "2", "--kmax", "6"]) == 0
    out = capsys.readouterr().out
    assert out.count(": PASS") == out.count("\n")  # every line passes


@pytest.mark.parametrize("kmax", ["-3", "0"])
def test_verify_rejects_nonpositive_kmax(capsys, kmax):
    # a vacuous range would print PASS lines that check nothing
    assert main(["verify", "--n", "2", "--kmax", kmax]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_verify_dimension_cap(capsys):
    assert main(["verify", "--lemma1", "--n", "12"]) == 0
    assert capsys.readouterr().out == "lemma1/commuting-product n=12: PASS\n"
    for suite in ("--lemma1", "--theorem1", "--lemma2", "--corollary"):
        assert main(["verify", suite, "--n", "13"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: dimension 13 exceeds MAX_DIM = 12")
    # lemma2 builds t1^0 first; it must hit the cap before any alphabet too
    for n in ("13", "40"):
        assert main(["verify", "--lemma2", "--n", n]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: dimension {n} exceeds MAX_DIM = 12")


# ----------------------------------------------------------------------
# free


def test_free_small(capsys):
    assert main(["free", "--max-length", "2", "--depth", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0]) == {
        "max_length": 2,
        "words_checked": 16,
        "counterexample": None,
    }
    assert lines[1] == "no relation found; conjugacy OK"


def test_free_rejects_bad_bounds(capsys):
    assert main(["free", "--max-length", "0", "--depth", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert main(["free", "--max-length", "2", "--depth", "-1"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    # above the fixed length cap: a typed error, nothing on stdout
    assert main(["free", "--max-length", "21", "--depth", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: max_length must be at most 20")


def test_free_huge_depth_matches_depth_6(capsys):
    assert main(["free", "--max-length", "4", "--depth", "6"]) == 0
    expected = capsys.readouterr().out
    assert main(["free", "--max-length", "4", "--depth", "1000000000"]) == 0
    assert capsys.readouterr().out == expected


# ----------------------------------------------------------------------
# repeated calls in one process


def _separate_call(argv):
    # the same call in a fresh interpreter, as the oracle
    src = str(Path(glnztree.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])), COLUMNS="80")
    result = subprocess.run(
        [sys.executable, "-m", "glnztree.cli", *argv],
        capture_output=True, text=True, timeout=120, env=env,
    )
    return result.returncode, result.stdout, result.stderr


def _in_process_call(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # --help and argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_repeated_calls_match_separate_calls(tmp_path, capsys, monkeypatch):
    # one parser serves every call of a process; no state may carry over
    monkeypatch.setenv("COLUMNS", "80")
    matrix = _matrix_file(tmp_path, T1_ROWS)
    sequence = [
        ["verify", "--lemma1", "--n", "2"],
        ["verify", "--n", "2", "--kmax", "3"],
        ["free", "--max-length", "21", "--depth", "1"],
        ["free", "--max-length", "3", "--depth", "2"],
        ["free", "--max-length", "x"],
        ["phi", "--matrix", matrix],
        ["--help"],
        ["act", "--matrix", matrix, "--word", "4,4"],
        ["verify", "--help"],
        ["verify", "--theorem1", "--n", "2", "--kmax", "2"],
    ]
    got = [_in_process_call(argv, capsys) for argv in sequence]
    expected = [_separate_call(argv) for argv in sequence]
    assert [code for code, _, _ in got] == [0, 0, 2, 0, 2, 0, 0, 0, 0, 0]
    assert got == expected


# ----------------------------------------------------------------------
# module entry point


def test_module_entry_point(tmp_path):
    # the child imports the same package as this process, also when pytest
    # alone put its source directory on sys.path
    src = str(Path(glnztree.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-m", "glnztree.cli",
         "phi", "--matrix", _matrix_file(tmp_path, T1_ROWS)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert result.returncode == 0
    assert result.stdout == "states: 3\n"
    assert result.stderr == ""
