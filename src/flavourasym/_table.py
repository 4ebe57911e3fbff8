"""Comma-separated tables: the one writer and the one validating reader
behind the event, spectrum, counts, response and curve files.

A file's rows are one numpy dtype, and this is the only module that spells
their cells: a structured dtype's field names are the header and each
field's kind fixes its cell format (float %.9g, int %d); a code column
(`code_field`) holds int8 codes that the file spells as the names they
index; a plain float dtype is a 2-d table with no header. The writer
prints those formats with numpy: each column becomes a matrix of cells
padded with NUL bytes, the rows are joined and the NULs stripped, and
every cell reads byte for byte what Python's `%` prints. Every reader
failure is a ValueError naming the file, so the command line reports it
as a validation error (exit code 2).
"""

from __future__ import annotations

import functools
import re
import warnings

import numpy as np

CHUNK_ROWS = 8192
# loadtxt's message for a row of the wrong width: expected, found, data row
# counted from 1
_WIDTH = re.compile(r"(\d+) (?:columns but|to) (\d+) (?:were found )?"
                    r"at row (\d+)")
# ... and for a cell it cannot convert: what, data row counted from 0, column
_CONVERT = re.compile(r"(.*) at row (\d+), (column \d+)\.", re.S)
# ... where the cell is a code column's, whose byte field takes only Latin-1
# text: the cell's repr (compiled on the error path, not at import)
_NOT_LATIN1 = r"could not convert string (.*) to \|S\d+"


def _located(msg: str) -> str:
    """loadtxt's parse error, its row given as the data row from 1. A code
    cell that is not Latin-1 text is refused as an unknown value."""
    w = _WIDTH.search(msg)
    if w:
        return f"data row {w[3]} has {w[2]} fields, expected {w[1]}"
    c = _CONVERT.fullmatch(msg)
    if not c:
        return msg
    name = re.fullmatch(_NOT_LATIN1, c[1], re.S)
    what = f"unknown values [{name[1]}]" if name else c[1]
    return f"data row {int(c[2]) + 1}, {c[3]}: {what}"


def _undecodable(path, e: UnicodeDecodeError, lines_before: int) -> str:
    """The decoder's error `e` placed by the data row (counted from 1, as
    loadtxt counts: empty lines are not data rows) and the file offset of
    the file's first byte that is not UTF-8, where the decoder gives its
    position in the block it read. Only a failed read rescans the file."""
    row, offset = 0, 0
    with open(path, "rb") as f:
        for i, line in enumerate(f):
            if i >= lines_before and line.strip(b"\r\n"):
                row += 1
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as bad:
                where = (f"data row {row}" if i >= lines_before
                         else f"line {i + 1}, before the data rows,")
                return (f"'utf-8' codec can't decode byte "
                        f"0x{line[bad.start]:02x} in {where} at file offset "
                        f"{offset + bad.start}: {bad.reason}")
            offset += len(line)
    return str(e)


def code_field(names) -> np.dtype:
    """The dtype of a code column: int8 codes, each written to the file as
    the name it indexes in `names` and read back as bytes, so names are
    ASCII. They ride in the dtype's metadata, which `dtype.descr` drops."""
    names = tuple(names)
    if not "".join(names).isascii():
        raise ValueError(f"code column names must be ASCII: {names}")
    return np.dtype("i1", metadata={"names": names})


def _names(field: np.dtype):
    """The names of a code column's codes; None for any other column."""
    return (field.metadata or {}).get("names")


def _columns(rows) -> list:
    """(column, the names of its codes or None) of each column of a
    structured array or of a 2-d array."""
    if rows.dtype.names is None:
        return [(c, None) for c in rows.T]
    return [(rows[c], _names(rows.dtype[c])) for c in rows.dtype.names]


def _finite(rows) -> bool:
    """Whether every float in the rows is finite."""
    return all(np.all(np.isfinite(c)) for c, _ in _columns(rows)
               if c.dtype.kind == "f")


_WIDE = 15          # the widest fixed-form %.9g cell, "-0.000123456789"
_POW0 = 310         # the row of 10**0 in the power table
# Each number cell is gathered from a source row of five 4-byte words: NUL
# '0' '.' NUL; the sign (NUL if positive); three words of three of the 9
# significant digits and a NUL. These are the byte positions in that row.
_NUL, _ZERO, _POINT, _SIGN = 0, 1, 2, 4
_DIGIT = (8, 9, 10, 12, 13, 14, 16, 17, 18)
_SOURCE = 20


def _words(byte_rows) -> np.ndarray:
    """Rows of 4 bytes as one 4-byte word each."""
    return np.ascontiguousarray(byte_rows, np.uint8).view(np.uint32)[:, 0]


def _layout(e: int, s: int) -> list:
    """Source positions of the bytes of a cell with s significant digits
    at decimal exponent e, in %f form."""
    d = list(_DIGIT)
    if e < 0:
        body = [_ZERO, _POINT] + [_ZERO] * (-e - 1) + d[:s]
    else:
        body = d[:e + 1] + ([_POINT] + d[e + 1:s] if s > e + 1 else [])
    return [_SIGN] + body


@functools.cache
def _number_tables() -> dict:
    """The lookup tables of `_number_cells`, built on the first write.

    Layout (e + 4)·9 + s − 1 is %f at decimal exponent e in −4..8 with s
    significant digits, and 117 is zero.
    """
    bodies = [_layout(e, s) for e in range(-4, 9)
              for s in range(1, 10)] + [[_SIGN, _ZERO]]
    layout = np.full((len(bodies), _WIDE), _NUL, np.intp)
    for i, body in enumerate(bodies):
        layout[i, :len(body)] = body
    k = np.arange(1000)
    zero = ord("0")
    return {
        # 10**k for k in -_POW0.._POW0, each correctly rounded
        "pow10": np.array([float("1e%d" % k)
                           for k in range(-_POW0, _POW0 + 1)]),
        "digits": _words(np.stack([k // 100 + zero, k // 10 % 10 + zero,
                                   k % 10 + zero, 0 * k], axis=1)),
        # trailing zeros of 0..999 written with three digits
        "zeros": np.where(k % 10, 0, np.where(k % 100, 1, np.where(k, 2, 3))),
        "layout": layout,
        "length": (layout != _NUL).sum(axis=1),
        "head": _words([[0, zero, ord("."), 0]])[0],
        "sign": _words([[0, 0, 0, 0], [ord("-"), 0, 0, 0]]),
    }


def _number_cells(columns, fmts) -> list:
    """The cells of number columns of equal length, up to CHUNK_ROWS cells
    in all: for each column, one NUL-padded row per cell, as narrow as the
    column allows. The digits of every column come from one pass of
    vectorized arithmetic; only the gather of each column's bytes runs
    column by column. A cell is %.9g of its value x, which for an int x below
    10**9 in magnitude is its %d. The 9 digits are y = |x|·10**(8−e)
    rounded, with e = floor(log10|x|) and the power taken from a correctly
    rounded table, so y is off by at most about 2·2**−53 relative, under
    2.3e-7 absolute. Rounding y in float is therefore exact unless its
    fraction lies within 1e-6 of ½: such cells, those that %.9g writes in
    exponent form (e outside −4..8, as is every int of 10**9 or more in
    magnitude) and those where 10**(8−e) would not be a normal float get
    `fmts[j] % v` on column j's own value v. log10 is one off only within
    a few ulps of a power of ten, where y rounds to 1e8 (e one high: the
    cell is that power) or to 1e9, which the carry takes to the next
    exponent."""
    t = _number_tables()
    shape = (len(columns), len(columns[0]))
    x = np.array(columns, dtype=float).reshape(-1)
    ax = np.abs(x)
    zero = ax == 0
    fast = ax >= 1e-299
    a = np.where(fast, ax, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    y = a * t["pow10"][_POW0 + 8 - e]
    n = np.rint(y)
    carry = n >= 1e9
    n[carry] = 1e8
    e += carry
    slow = ((np.abs(y - np.floor(y) - 0.5) <= 1e-6) | ~(fast | zero)
            | (e < -4) | (e > 8))
    n = n.astype(np.intp)
    q = n // 1000
    hi = q // 1000
    mid, lo = q - 1000 * hi, n - 1000 * q
    zeros = t["zeros"]
    # the layout of 9 significant digits at e, less the trailing zeros
    key = (np.minimum(np.maximum(e, -4), 8) + 4) * 9 + 8 - np.where(
        lo, zeros[lo], np.where(mid, 3 + zeros[mid], 6 + zeros[hi]))
    key[zero] = 117
    src = np.empty((len(x), _SOURCE // 4), np.uint32)
    src[:, 0] = t["head"]
    neg = np.signbit(x)
    src[:, 1] = t["sign"][neg.view(np.uint8)]
    src[:, 2] = t["digits"][hi]
    src[:, 3] = t["digits"][mid]
    src[:, 4] = t["digits"][lo]
    source = src.view(np.uint8).reshape(shape[0], -1)
    key, slow = key.reshape(shape), slow.reshape(shape)
    # each column's span of layout bytes: none for the sign unless one of
    # its cells is negative, none past its longest cell
    spans = zip(np.where(neg.reshape(shape).any(axis=1), 0, 1).tolist(),
                t["length"][key].max(axis=1).tolist())
    offset = _SOURCE * np.arange(shape[1])[:, None]    # each cell's source row
    out = []
    for c, fmt, k, sl, b, (first, end) in zip(columns, fmts, key, slow,
                                              source, spans):
        width = end - first
        at = t["layout"][:, first:end].take(k, axis=0)
        at += offset
        cells = b.take(at)
        if sl.any():
            text = np.array([fmt % v for v in c[sl].tolist()], dtype="S")
            w = text.itemsize
            if w > width:
                cells = np.pad(cells, ((0, 0), (0, w - width)))
            cells[sl] = 0
            cells[sl, :w] = text.view(np.uint8).reshape(-1, w)
        out.append(cells)
    return out


def _fmt(col) -> str:
    """A number column's format: %.9g for floats, %d for ints."""
    return "%.9g" if col.dtype.kind == "f" else "%d"


def _name_cells(names) -> np.ndarray:
    """The cell of each code of a code column: its name, NUL-padded."""
    text = np.array(names, "S")
    return text.view(np.uint8).reshape(len(names), text.itemsize)


def write_table(path, rows, header=True, preamble=()) -> None:
    """Write a structured array (its field names are the header), or a 2-d
    array with `header=False`, one line per row. Each chunk of rows is a
    matrix of NUL-padded cells joined by commas, written with its NULs
    stripped; a chunk's number columns are one `_number_cells` call, so a
    chunk has CHUNK_ROWS // (number columns) rows. A non-finite number is a
    failed computation, not a result: it raises ArithmeticError before the
    file is opened."""
    if not _finite(rows):
        raise ArithmeticError(f"non-finite value in the output for {path}")
    cols = [(c, None if names is None else _name_cells(names))
            for c, names in _columns(rows)]
    numbers = [c for c, names in cols if names is None]
    fmts = [_fmt(c) for c in numbers]
    step = CHUNK_ROWS // max(len(numbers), 1)
    lines = [*preamble] + ([",".join(rows.dtype.names)] if header else [])
    with open(path, "wb") as f:
        f.write("".join(line + "\n" for line in lines).encode())
        for s in range(0, len(rows), step):
            nums = iter(_number_cells([c[s:s + step] for c in numbers], fmts)
                        if numbers else ())
            cells = [next(nums) if names is None else names[c[s:s + step]]
                     for c, names in cols]
            comma = np.full((len(cells[0]), 1), ord(","), np.uint8)
            block = np.hstack([m for c in cells for m in (c, comma)])
            block[:, -1] = ord("\n")
            f.write(block.tobytes().translate(None, b"\0"))


def finite(values, what: str) -> np.ndarray:
    """`values` (strings or numbers) as an array of finite floats."""
    try:
        out = np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as e:
        raise ValueError(f"{what}: {e}") from None
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{what}: non-finite value")
    return out


def _decoded(path, j: int, text, names) -> np.ndarray:
    """The codes of column j's cells `text`, read as bytes one wider than
    the longest name since loadtxt cuts a cell to its field's width: a name
    with one character more is read whole and refused, not cut to that
    name. Each name is matched in one pass over the cells. Unknown values
    are shown as the Latin-1 text loadtxt read."""
    codes = np.zeros(len(text), np.int8)
    known = np.zeros(len(text), bool)
    for k, name in enumerate(names):
        is_name = text == name.encode()
        codes[is_name] = k
        known |= is_name
    if not known.all():
        width = text.dtype.itemsize
        bad = sorted(set(np.char.decode(text[~known], "latin-1").tolist()))[:3]
        shown = [v + "..." if len(v) == width else v for v in bad]
        note = (f" ('...': a value that fills all {width} characters"
                " of its field may have been cut)" if shown != bad else "")
        raise ValueError(f"{path}: column {j + 1}: unknown values "
                         f"{shown}{note}")
    return codes


def read_table(path, dtype, *, header=True, extra: bool = False,
               preamble: int = 0) -> tuple:
    """The preamble lines and the rows, typed by `dtype` (with no header, a
    2-d array), of a table written by `write_table`. Checks UTF-8 text, the
    exact header (with `extra`, further distinct names of float columns may
    follow it), the fields per row, at least one row, integers that fit
    their field, known names in code columns and finite floats.

    The data rows are one `np.loadtxt` call, with each code column's names
    read as bytes and then mapped to their codes. An error names the data
    row counted from 1; empty lines are not data rows."""
    dtype = np.dtype(dtype)
    try:
        with open(path, encoding="utf-8") as f:
            pre = [f.readline().rstrip("\n") for _ in range(preamble)]
            if header:
                fields = f.readline().strip().split(",")
                named = fields[len(dtype.names):] if extra else []
                if (fields[:len(dtype.names)] != list(dtype.names)
                        or (not extra and len(fields) != len(dtype.names))
                        or not all(named) or len(set(fields)) != len(fields)):
                    raise ValueError(f"unexpected header in {path}: {fields}")
                dtype = np.dtype([(c, dtype[c]) for c in dtype.names]
                                 + [(c, "f8") for c in named])
            names = [_names(dtype[c]) for c in dtype.names or ()]
            text = np.dtype([(c, f"S{max(map(len, v)) + 1}" if v else dtype[c])
                             for c, v in zip(dtype.names, names)]
                            ) if any(names) else dtype
            with warnings.catch_warnings():     # no rows: refused below
                warnings.filterwarnings("ignore", "loadtxt: input contained "
                                        "no data", UserWarning)
                try:
                    # given the path, numpy reads the file in blocks; given
                    # the open file, it would iterate it line by line
                    rows = np.loadtxt(path, dtype=text, delimiter=",",
                                      comments=None,
                                      skiprows=preamble + header,
                                      encoding="utf-8",
                                      ndmin=1 if header else 2)
                except UnicodeDecodeError:
                    raise               # a ValueError, located below
                except ValueError as e:
                    raise ValueError(f"{path}: {_located(str(e))}") from None
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: {_undecodable(path, e, preamble + header)}"
                         ) from None
    if not len(rows):
        raise ValueError(f"{path}: no data rows")
    if not _finite(rows):
        raise ValueError(f"{path}: non-finite value")
    if any(names):
        out = np.empty(len(rows), dtype)
        for j, (c, v) in enumerate(zip(dtype.names, names)):
            out[c] = rows[c] if v is None else _decoded(path, j, rows[c], v)
        rows = out
    return pre, rows
