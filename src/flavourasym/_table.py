"""Comma-separated tables: the one writer and the one validating reader
behind the event, spectrum, counts, response and curve files.

Every reader failure is a ValueError naming the file, so the command line
reports it as a validation error (exit code 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CHUNK_ROWS = 8192


def write_table(path, columns, fmts, header=None, preamble=()) -> None:
    """Write equal-length `columns` as rows, one printf format per column.

    Formatting a column at a time, in chunks of rows, gives the same bytes
    as formatting row by row at a fraction of the interpreter overhead.
    A non-finite number is a failed computation, not a result: it raises
    ArithmeticError before the file is opened.
    """
    for col in columns:
        col = np.asarray(col)
        if col.dtype.kind == "f" and not np.all(np.isfinite(col)):
            raise ArithmeticError(f"non-finite value in the output for {path}")
    n_rows = len(columns[0])
    with open(path, "w") as f:
        for line in preamble:
            f.write(line + "\n")
        if header is not None:
            f.write(",".join(header) + "\n")
        for s in range(0, n_rows, CHUNK_ROWS):
            cells = [[fmt % v for v in np.asarray(col[s:s + CHUNK_ROWS]).tolist()]
                     for col, fmt in zip(columns, fmts)]
            f.write("".join(",".join(row) + "\n" for row in zip(*cells)))


def finite(values, what: str, dtype=float) -> np.ndarray:
    """`values` (strings or numbers) as an array of finite numbers."""
    try:
        out = np.array(values, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as e:
        raise ValueError(f"{what}: {e}") from None
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{what}: non-finite value")
    return out


@dataclass
class Table:
    """A parsed table: preamble lines, header fields, one list of field
    strings per column."""

    path: str
    preamble: list
    header: list
    columns: list

    def numbers(self, j: int, dtype=float) -> np.ndarray:
        return finite(self.columns[j], f"{self.path}: column {j + 1}", dtype)

    def codes(self, j: int, names) -> np.ndarray:
        """Column j as int8 indices into `names`; any other value is rejected."""
        bad = set(self.columns[j]) - set(names)
        if bad:
            raise ValueError(f"{self.path}: column {j + 1}: unknown "
                             f"values {sorted(bad)[:3]}")
        index = {name: code for code, name in enumerate(names)}
        return np.array([index[v] for v in self.columns[j]], dtype=np.int8)

    def edges(self) -> tuple:
        """Bin edges from the leading (bin, lo, hi) columns; the bins must be
        numbered 1..n and contiguous."""
        number, lo, hi = (self.numbers(j) for j in range(3))
        if np.any(number != np.arange(1, len(number) + 1)):
            raise ValueError(f"{self.path}: bins are not numbered 1..n")
        if np.any(hi[:-1] != lo[1:]):
            raise ValueError(f"{self.path}: bins are not contiguous")
        return tuple(np.append(lo, hi[-1]))


def read_table(path, header=None, *, extra: bool = False,
               preamble: int = 0) -> Table:
    """Read and validate the layout of a table written by `write_table`.

    Checks the exact `header` (with `extra`, further distinct named columns
    may follow it), the same number of fields on every row, and at least one
    row. With no header, the first row sets the width. Blank lines are
    skipped.
    """
    with open(path) as f:
        pre = [f.readline().rstrip("\n") for _ in range(preamble)]
        fields = None
        if header is not None:
            fields = f.readline().strip().split(",")
            named = fields[len(header):] if extra else []
            if (fields[:len(header)] != list(header)
                    or (not extra and len(fields) != len(header))
                    or not all(named) or len(set(named)) != len(named)):
                raise ValueError(f"unexpected header in {path}: {fields}")
        rows = [line.strip().split(",") for line in f if line.strip()]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    width = len(fields) if fields is not None else len(rows[0])
    if set(map(len, rows)) != {width}:
        i, n = next((i, len(r)) for i, r in enumerate(rows) if len(r) != width)
        raise ValueError(f"{path}: data row {i + 1} has {n} fields, "
                         f"expected {width}")
    return Table(str(path), pre, fields,
                 [[r[j] for r in rows] for j in range(width)])
