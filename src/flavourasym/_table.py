"""Comma-separated tables: the one writer and the one validating reader
behind the event, spectrum, counts, response and curve files.

A file format is one numpy dtype: a structured dtype's field names are the
header and each field's kind fixes its cell format (float %.9g, int %d,
name %s); a plain float dtype is a 2-d table with no header. Every reader
failure is a ValueError naming the file, so the command line reports it as
a validation error (exit code 2).
"""

from __future__ import annotations

import re
from itertools import chain

import numpy as np

CHUNK_ROWS = 8192
_CELL = {"f": "%.9g", "i": "%d", "U": "%s"}
# loadtxt's message for a row of the wrong width: expected, found, data row
# counted from 1
_WIDTH = re.compile(r"(\d+) (?:columns but|to) (\d+) (?:were found )?"
                    r"at row (\d+)")
# ... and for a cell it cannot convert: what, data row counted from 0, column
_CONVERT = re.compile(r"(.*) at row (\d+), (column \d+)\.", re.S)


def _located(msg: str) -> str:
    """loadtxt's parse error with its row given as the data row counted
    from 1."""
    w = _WIDTH.search(msg)
    if w:
        return f"data row {w[3]} has {w[2]} fields, expected {w[1]}"
    c = _CONVERT.fullmatch(msg)
    return f"data row {int(c[2]) + 1}, {c[3]}: {c[1]}" if c else msg


def _finite(rows) -> bool:
    """Whether every float in a structured or a 2-d array is finite."""
    cols = [rows[n] for n in rows.dtype.names] if rows.dtype.names else [rows]
    return all(np.all(np.isfinite(c)) for c in cols if c.dtype.kind == "f")


def write_table(path, rows, header=True, preamble=()) -> None:
    """Write a structured (or 2-d) array, one line per row, each chunk of
    rows as one `%` on a repeated row format. A non-finite number is a
    failed computation, not a result: it raises ArithmeticError before the
    file is opened."""
    if not _finite(rows):
        raise ArithmeticError(f"non-finite value in the output for {path}")
    dt = rows.dtype
    cells = [_CELL[dt[n].kind] for n in dt.names] if dt.names else [
        _CELL[dt.kind]] * rows.shape[1]
    row_fmt = ",".join(cells) + "\n"
    with open(path, "w") as f:
        for line in preamble:
            f.write(line + "\n")
        if header:
            f.write(",".join(dt.names) + "\n")
        for s in range(0, len(rows), CHUNK_ROWS):
            chunk = rows[s:s + CHUNK_ROWS].tolist()
            f.write(row_fmt * len(chunk) % tuple(chain.from_iterable(chunk)))


def finite(values, what: str) -> np.ndarray:
    """`values` (strings or numbers) as an array of finite floats."""
    try:
        out = np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as e:
        raise ValueError(f"{what}: {e}") from None
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{what}: non-finite value")
    return out


def read_table(path, dtype, *, header=True, extra: bool = False,
               preamble: int = 0) -> tuple:
    """The preamble lines and the rows, typed by `dtype` (with no header, a
    2-d array), of a table written by `write_table`. Checks the exact header
    (with `extra`, further distinct names of float columns may follow it),
    the fields per row, at least one row, integers that fit their field and
    finite floats."""
    dtype = np.dtype(dtype)
    with open(path) as f:
        pre = [f.readline().rstrip("\n") for _ in range(preamble)]
        if header:
            fields = f.readline().strip().split(",")
            named = fields[len(dtype.names):] if extra else []
            if (fields[:len(dtype.names)] != list(dtype.names)
                    or (not extra and len(fields) != len(dtype.names))
                    or not all(named) or len(set(fields)) != len(fields)):
                raise ValueError(f"unexpected header in {path}: {fields}")
            dtype = np.dtype(dtype.descr + [(n, "f8") for n in named])
        start = f.tell()
        if not any(line.strip() for line in f):    # loadtxt only warns
            raise ValueError(f"{path}: no data rows")
        f.seek(start)
        try:
            rows = np.loadtxt(f, dtype=dtype, delimiter=",", comments=None,
                              ndmin=1 if header else 2)
        except ValueError as e:
            raise ValueError(f"{path}: {_located(str(e))}") from None
    if not _finite(rows):
        raise ValueError(f"{path}: non-finite value")
    return pre, rows
