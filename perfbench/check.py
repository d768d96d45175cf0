"""Checks one CLI output CSV against its stored reference.

At the reference seed every cell and every provenance line but the version
line must match the reference (numbers to a relative 1e-10, text exactly).
At other seeds only the impurity-independent columns and provenance lines
are compared; every other number must be finite.  A row fails when any of
its checked cells does, and every row counts as failed when the header or a
provenance line differs.
"""
from __future__ import annotations

import csv
import math

RTOL = 1e-10
# The program's version line; a version bump alone changes no output.
VERSION_LINE = "# dqdsim "


def parse(text: str) -> tuple[list[str], list[str], list[list[str]]]:
    """Split a dqdsim CSV into (comment lines, header, data rows)."""
    comments, body = [], []
    for line in text.splitlines():
        (comments if line.startswith("#") else body).append(line)
    table = list(csv.reader(body))
    return comments, (table[0] if table else []), table[1:]


def _float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _close(a: float, b: float) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= RTOL * max(abs(a), abs(b))


def _same(cell: str, ref: str) -> bool:
    a, b = _float(cell), _float(ref)
    if a is None or b is None:
        return cell == ref
    return _close(a, b)


def _comment_ok(line: str, ref: str, seed_keys) -> bool:
    if ref.startswith(VERSION_LINE):
        return line.startswith(VERSION_LINE)
    key = ref[1:].partition("=")[0].strip()
    if key in seed_keys:
        return line.partition("=")[0] == ref.partition("=")[0]
    if "=" not in ref:
        return line == ref
    return line.partition("=")[0] == ref.partition("=")[0] and _same(
        line.partition("=")[2].strip(), ref.partition("=")[2].strip())


def check(text: str, ref_text: str, checked_columns, seed_keys=()) -> tuple[int, int, list[str]]:
    """Return (rows attempted, rows failed, problems).

    `checked_columns` is None to compare every column with the reference,
    or the names of the columns to compare; `seed_keys` names provenance
    lines whose value may differ from the reference.
    """
    comments, header, rows = parse(text)
    ref_comments, ref_header, ref_rows = parse(ref_text)
    attempted = max(len(rows), len(ref_rows))
    if header != ref_header:
        return attempted, attempted, [f"header {header} != reference {ref_header}"]
    if len(comments) != len(ref_comments) or not all(
            _comment_ok(c, r, seed_keys) for c, r in zip(comments, ref_comments)):
        return attempted, attempted, ["provenance lines differ from the reference"]
    problems = []
    if len(rows) != len(ref_rows):
        problems.append(f"{len(rows)} rows, reference has {len(ref_rows)}")
    compared = [i for i, name in enumerate(header)
                if checked_columns is None or name in checked_columns]
    failed = abs(len(rows) - len(ref_rows))
    for n, (row, ref) in enumerate(zip(rows, ref_rows)):
        finite = all(math.isfinite(v) for v in map(_float, row) if v is not None)
        matches = len(row) == len(ref) and all(_same(row[i], ref[i]) for i in compared)
        if not (finite and matches):
            failed += 1
            if len(problems) < 5:
                problems.append(f"row {n}: {row} vs reference {ref}")
    return attempted, failed, problems
