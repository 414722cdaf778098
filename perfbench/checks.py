"""Whether one operation behaved as documented.

A command passes when it exits with the documented code for its input:
2 for a malformed invocation; for a well-formed one, 3 (a numeric guard
fired) or 0 with valid output.  Valid output means every printed number is
finite and inside its range, and a dual sweep's ``p_total`` loses no more
than ``--tail-tol``.  A library call passes when it returns finite numbers
and probabilities inside [0, 1]; its truncation loss is left to the
command line's ``--tail-tol`` contract.

On top of that the result is compared with the reference recorded at the
commit that defined the benchmark (``reference.json``), wherever that
reference itself passed.  Printed bodies are compared cell by cell: text
exactly, numbers to within a relative ``REF_RTOL``, one unit in their last
printed digit and an absolute ``REF_ATOL``, so that a change of summation
order, which moves values by round-off, still matches.  ``classify`` then
sorts the operation into

* ``ok``: it passes;
* ``defect``: it breaks the contract on an input where the recorded
  reference broke it too, a defect known when the benchmark was defined;
* ``failed``: anything else, a regression.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal

TAIL_TOL_DEFAULT = 1e-10
#: half a unit in the ninth significant digit of a printed value near one
PRINT_SLACK = 5e-10
PROB_SLACK = 1e-9
#: relative and absolute tolerance when comparing results with the reference;
#: the absolute one covers values at round-off level, such as a closed form
#: minus its numeric twin or a relative error of 1e-15
REF_RTOL = 1e-9
REF_ATOL = 1e-12

_PROB_PREFIXES = ("p_", "ps_", "dp_", "dual_", "single_")
_VERIFY_LINE = re.compile(r"^\[(PASS|FAIL)\] .* computed=(\S+) expected=(\S+) tol=")
_VERIFY_TALLY = re.compile(r"^(\d+)/(\d+) checks passed$")
#: a printed number standing alone, not part of a word such as ``fig4``
_NUMBER = re.compile(r"(?<![\w.])([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                     r"|[-+]?(?:nan|inf))(?![\w.])")


def body_lines(text: str) -> list[str]:
    """Lines that are neither blank nor ``#`` comments."""
    return [ln for ln in text.splitlines() if ln and not ln.startswith("#")]




def _tail_tol(argv) -> float:
    argv = list(argv)
    if "--tail-tol" in argv:
        return float(argv[argv.index("--tail-tol") + 1])
    return TAIL_TOL_DEFAULT


def _column_range(name: str):
    """(low, high) for a numeric column, or None for a text column."""
    if name == "parity":
        return None
    if name.startswith(_PROB_PREFIXES) or name in ("total_success", "purity"):
        return -1e-12, 1.0 + PROB_SLACK
    if name == "infidelity":
        return -PROB_SLACK, 1.0 + PROB_SLACK
    if name in ("n", "m", "rel_err", "alpha", "a1_abs"):
        return 0.0, math.inf
    return -math.inf, math.inf


def check_table(lines: list[str], tail_tol: float) -> list[str]:
    """Problems in a comma-separated body: a header row, then values."""
    if len(lines) < 2:
        return ["no data rows"]
    header = lines[0].split(",")
    problems = []
    for i, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        if len(fields) != len(header):
            problems.append(f"row {i} has {len(fields)} fields, header {len(header)}")
            continue
        row = {}
        for name, field in zip(header, fields):
            bounds = _column_range(name)
            if bounds is None:
                if field not in ("even", "odd"):
                    problems.append(f"row {i} {name}={field!r}")
                continue
            try:
                x = float(field)
            except ValueError:
                problems.append(f"row {i} {name}={field!r} is not a number")
                continue
            row[name] = x
            if not math.isfinite(x):
                problems.append(f"row {i} {name}={field} is not finite")
            elif not bounds[0] <= x <= bounds[1]:
                problems.append(f"row {i} {name}={field} outside {bounds}")
        if {"p_direct", "p_modulated", "p_total"} <= row.keys():
            loss = 1.0 - row["p_total"]
            if loss > tail_tol + PRINT_SLACK:
                problems.append(f"row {i} p_total loses {loss:.3g} > tail-tol {tail_tol:g}")
            gap = abs(row["p_direct"] + row["p_modulated"] - row["p_total"])
            if gap > 3 * PRINT_SLACK:
                problems.append(f"row {i} p_direct + p_modulated != p_total")
    return problems


def check_verify(stdout: str) -> tuple[list[str], int]:
    """Problems in a ``verify`` report, and its number of failed checks."""
    problems = []
    for line in stdout.splitlines():
        m = _VERIFY_LINE.match(line)
        if m:
            for value in m.group(2, 3):
                if not math.isfinite(float(value)):
                    problems.append(f"non-finite value in {line[:60]!r}")
    tally = [_VERIFY_TALLY.match(ln) for ln in stdout.splitlines()]
    tally = [m for m in tally if m]
    if not tally:
        return problems + ["no check tally"], 0
    passed, total = int(tally[-1].group(1)), int(tally[-1].group(2))
    if passed != total:
        problems.append(f"{total - passed} of {total} checks failed")
    return problems, total - passed


def check_negativity(stdout: str) -> list[str]:
    values = {}
    for line in stdout.splitlines():
        if ":" in line:
            key, _, val = line.partition(":")
            values[key.strip()] = val.strip()
    problems = []
    for key, hi in (("closed form", 1.0 + PROB_SLACK), ("numeric PPT", 1.0 + PROB_SLACK),
                    ("difference", math.inf)):
        try:
            x = float(values[key])
        except (KeyError, ValueError):
            problems.append(f"missing {key!r}")
            continue
        if not (math.isfinite(x) and 0.0 <= x <= hi):
            problems.append(f"{key} = {values[key]}")
    return problems


def check_cli(op, rc: int, stdout: str, out_text: str | None) -> tuple[list[str], int]:
    """Contract problems of one command, and the failed-check count of a
    ``verify`` report.  ``out_text`` is the written CSV, if any."""
    if op.usage:
        return ([] if rc == 2 else [f"exit {rc} on malformed input, documented 2"]), 0
    if rc == 3:
        return [], 0
    command = op.argv[0]
    if command == "verify" and rc in (0, 1):
        problems, failed = check_verify(stdout)
        return problems + ([] if rc == 0 else ["exit 1"]), failed
    if rc != 0:
        return [f"exit {rc} on well-formed input, documented 0 or 3"], 0
    if command == "negativity":
        return check_negativity(stdout), 0
    text = stdout if op.out == "stdout" else out_text
    if text is None:
        return ["no output written"], 0
    return check_table(body_lines(text), _tail_tol(op.argv)), 0


def cli_observed(op, rc: int, stdout: str, out_text: str | None) -> dict:
    """What is compared with the reference: the exit code, plus the body
    lines of a successful well-formed command."""
    if op.usage or rc != 0:
        return {"exit": rc}
    text = stdout if op.out == "stdout" else (out_text or "")
    return {"exit": rc, "body": body_lines(text)}


def _last_digit(text: str) -> float:
    """The value of one unit in the last printed digit: 1e-9 for
    ``0.123456789``, 1e-6 for ``1.5e-05``."""
    return 10.0 ** Decimal(text).as_tuple().exponent


def same_number(a: str, b: str) -> bool:
    """Two printed numbers agree: integers exactly, anything else to
    within ``REF_RTOL``, one unit in the finer last printed digit of the
    two, and ``REF_ATOL``."""
    if a == b:
        return True
    x, y = float(a), float(b)
    if not (math.isfinite(x) and math.isfinite(y)):
        return False
    if a.lstrip("+-").isdigit() and b.lstrip("+-").isdigit():
        return x == y
    unit = min(_last_digit(a), _last_digit(b))
    return abs(x - y) <= REF_RTOL * max(abs(x), abs(y)) + unit + REF_ATOL


def same_line(a: str, b: str) -> bool:
    pa, pb = _NUMBER.split(a), _NUMBER.split(b)
    return len(pa) == len(pb) and all(
        same_number(x, y) if i % 2 else x == y
        for i, (x, y) in enumerate(zip(pa, pb)))


def same_observed(observed: dict, ref: dict) -> bool:
    """Exit codes equal and, where there is a body, the same lines."""
    if observed.get("exit") != ref.get("exit") or ("body" in observed) != ("body" in ref):
        return False
    a, b = observed.get("body", []), ref.get("body", [])
    return len(a) == len(b) and all(same_line(x, y) for x, y in zip(a, b))


def check_lib(result: dict) -> list[str]:
    problems = []
    if not all(math.isfinite(x) for x in result["fingerprint"] + result["probs"]):
        problems.append("non-finite result")
    for x in result["probs"]:
        if not -1e-12 <= x <= 1.0 + PROB_SLACK:
            problems.append(f"probability {x!r} outside [0, 1]")
            break
    return problems


def same_fingerprint(a, b) -> bool:
    return len(a) == len(b) and all(
        abs(x - y) <= REF_RTOL * max(abs(x), abs(y)) + REF_ATOL for x, y in zip(a, b))


def classify(problems: list[str], matches: bool, ref: dict | None) -> tuple[str, list[str]]:
    """Sort one operation into ok / defect / failed (see module docstring).

    ``matches`` says whether the result equals the recorded reference.
    """
    if ref is None:
        return "failed", problems + ["no recorded reference for this input"]
    if ref["valid"]:
        if not matches:
            return "failed", problems + ["differs from the recorded reference"]
        return ("failed" if problems else "ok"), problems
    return ("defect" if problems else "ok"), problems
