"""Result checks of the three workloads, and a self-test showing that each
check rejects a planted wrong result.

The `phi` check shares no code with the machine calculus: a word over the
2^n letters spells n integers in binary, least significant digit first
(bit i of a letter belongs to coordinate i), and phi(A) must map it to the
spelling of the row vector x*A reduced mod 2^|w|.
"""

from __future__ import annotations

import hashlib
import json


def _decode(word, n):
    x = [0] * n
    for t, letter in enumerate(word):
        for i in range(n):
            x[i] |= ((letter >> i) & 1) << t
    return x


def _spell(x, n, length):
    return tuple(
        sum(((x[i] >> t) & 1) << i for i in range(n)) for t in range(length)
    )


def arithmetic_image(rows, word):
    """Image of `word` under x -> x*A mod 2^|word|, spelled as letters."""
    n = len(rows)
    x = _decode(word, n)
    y = [sum(x[r] * rows[r][c] for r in range(n)) % (1 << len(word)) for c in range(n)]
    return _spell(y, n, len(word))


def check_phi(op, machine, count):
    """None if the machine and its state count are right for op, else why not."""
    for word in op["words"]:
        if machine.act(word) != arithmetic_image(op["rows"], word):
            return f"act mismatch on {word}"
    if op["family"] == "transvection" and count != abs(op["k"]) + 1:
        return f"T(k={op['k']}) has {count} states, expected {abs(op['k']) + 1}"
    if count < 1:
        return f"state count {count}"
    return None


def free_expected(length):
    words = 2 * (3 ** length - 1)
    record = {"max_length": length, "words_checked": words, "counterexample": None}
    return json.dumps(record) + "\nno relation found; conjugacy OK\n"


def check_free(length, code, stdout):
    if code != 0:
        return f"exit code {code}"
    if stdout != free_expected(length):
        return f"stdout {stdout!r}"
    return None


def check_verify(code, stdout):
    lines = stdout.splitlines()
    if code != 0:
        return f"exit code {code}"
    if not lines:
        return "no output"
    bad = [line for line in lines if not line.endswith(": PASS")]
    return f"not PASS: {bad[:2]}" if bad else None


def machine_digest(machines):
    """sha256 over canonical minimal forms, in order."""
    h = hashlib.sha256()
    for m in machines:
        m = m.minimize()
        h.update(repr((m.n, m.outputs, m.transitions)).encode())
    return h.hexdigest()


def self_test(glnz):
    """Feed each check a planted wrong result; return {case: caught}."""
    rows = ((1, 0, 0), (3, 1, 0), (0, 0, 1))
    neighbour = ((1, 0, 0), (3, 1, 0), (0, 1, 1))
    words = [(7, 1, 4, 6, 2, 5, 3, 0, 7, 7, 1, 2), (1,) * 12, (2, 3) * 6]
    op = {"family": "transvection", "n": 3, "rows": rows, "k": 3, "words": words}
    right = glnz.phi(glnz.IntMatrix(rows))
    wrong = glnz.phi(glnz.IntMatrix(neighbour))
    good_free = free_expected(5)
    bad_free = good_free.replace('"words_checked": 484', '"words_checked": 483')
    return {
        "phi_right_result_passes": check_phi(op, right, right.state_count()) is None,
        "phi_neighbour_machine": check_phi(op, wrong, right.state_count()) is not None,
        "phi_wrong_state_count": check_phi(op, right, 5) is not None,
        "free_right_result_passes": check_free(5, 0, good_free) is None,
        "free_wrong_words_checked": check_free(5, 0, bad_free) is not None,
        "free_wrong_exit_code": check_free(5, 1, good_free) is not None,
        "verify_right_result_passes": check_verify(0, "a: PASS\nb: PASS\n") is None,
        "verify_fail_line": check_verify(0, "a: PASS\nb: FAIL (x)\n") is not None,
        "verify_wrong_exit_code": check_verify(1, "a: PASS\n") is not None,
    }
