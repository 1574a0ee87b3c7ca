"""Compare the CSV outputs of two `kpwave theorem-suite` runs.

    python tools/compare_runs.py A B [--tol 1e-12]

Both trees must hold the same CSV files (by relative path), each with the
same header, the same number of rows and the same `t[code-units]` column.
Every other column is compared by its largest absolute difference relative
to its largest magnitude in A; cells that are not numbers (an empty
`abs_gamma_dot`, say) must match as text.  One line is printed for every
column over the tolerance, or for a file within it, one line naming its
worst column; the exit status is 1 when a file is missing, its layout
differs, or a column differs by more than the tolerance.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

TIME_COLUMN = "t[code-units]"


def _read(path: Path) -> tuple[list, list]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def column_difference(a: list, b: list) -> float:
    """Largest |a - b| over the column, relative to its largest |a|; inf
    when a non-numeric cell differs."""
    na, nb = [_number(x) for x in a], [_number(x) for x in b]
    if any((x is None) != (y is None) or (x is None and s != r)
           for x, y, s, r in zip(na, nb, a, b)):
        return float("inf")
    pairs = np.array([(x, y) for x, y in zip(na, nb) if x is not None], dtype=float)
    if pairs.size == 0:
        return 0.0
    diff = np.abs(pairs[:, 0] - pairs[:, 1]).max()
    scale = np.abs(pairs[:, 0]).max()
    return float(diff / scale) if scale > 0 else float(diff)


def compare_file(path_a: Path, path_b: Path) -> list[tuple[float, str]]:
    """(relative difference, column name) for every column, or a single
    (inf, reason) when the layouts differ."""
    head_a, rows_a = _read(path_a)
    head_b, rows_b = _read(path_b)
    if head_a != head_b:
        return [(float("inf"), f"headers differ: {head_a} vs {head_b}")]
    if len(rows_a) != len(rows_b):
        return [(float("inf"), f"row counts differ: {len(rows_a)} vs {len(rows_b)}")]
    out = []
    for i, name in enumerate(head_a):
        col_a = [r[i] for r in rows_a]
        col_b = [r[i] for r in rows_b]
        if name == TIME_COLUMN and col_a != col_b:
            return [(float("inf"), f"{TIME_COLUMN} columns differ")]
        out.append((column_difference(col_a, col_b), name))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", type=Path)
    ap.add_argument("b", type=Path)
    ap.add_argument("--tol", type=float, default=1e-12)
    args = ap.parse_args(argv)

    files_a = {p.relative_to(args.a) for p in args.a.rglob("*.csv")}
    files_b = {p.relative_to(args.b) for p in args.b.rglob("*.csv")}
    ok = files_a == files_b and bool(files_a)
    for rel in sorted(files_a ^ files_b):
        print(f"{rel}: only in {'A' if rel in files_a else 'B'}")
    if not files_a:
        print(f"no CSV files under {args.a}")
    for rel in sorted(files_a & files_b):
        diffs = compare_file(args.a / rel, args.b / rel)
        bad = [(d, what) for d, what in diffs if not d <= args.tol]
        ok &= not bad
        for d, what in bad:
            print(f"{rel}: {d:.3g} ({what})  > tol")
        if not bad:
            worst, where = max(diffs)
            print(f"{rel}: {worst:.3g} (worst column {where})")
    print(f"{'match' if ok else 'MISMATCH'} at tol {args.tol:g}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
