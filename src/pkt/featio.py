"""Decimal-text interchange files.

Feature file: a header line ``n d`` followed by n lines of d values.
Any whitespace separates values, and a value is any token Python's
``float()`` accepts; non-finite values are rejected.  Blank lines are
allowed only after the n rows.  Label file: one nonnegative integer per
line.  Values are written with 17 significant digits, so a write/read
round trip reproduces doubles exactly.

``read_features`` streams the rows into numpy's C parser.  numpy accepts
a subset of ``float()``'s tokens (not ``1_0`` or non-ASCII digits), so on
any parse error or irregular shape the file is read again line by line,
which returns the same array or names the offending line.
"""

from __future__ import annotations

import numpy as np


class _Irregular(Exception):
    """The data lines break a rule only the line loop reports (blank line, row count)."""


def _read_header(path, fh) -> tuple[int, int]:
    header = fh.readline().split()
    if len(header) != 2:
        raise ValueError(f"{path}: expected 'n d' header line")
    try:
        n, d = int(header[0]), int(header[1])
    except ValueError:
        raise ValueError(f"{path}: malformed header {header!r}") from None
    if n < 1 or d < 1:
        raise ValueError(f"{path}: header requires n, d >= 1")
    return n, d


def _data_lines(fh, n: int):
    """Yield the n data lines; raise ``_Irregular`` on a blank one among them,
    a non-blank one after them, or fewer than n lines."""
    count = 0
    for line in fh:
        blank = not line.strip()
        if count < n:
            if blank:
                raise _Irregular
            count += 1
            yield line
        elif not blank:
            raise _Irregular
    if count < n:
        raise _Irregular


def _finite(path, data: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: non-finite value in feature data")
    return data


def parse_row(path, line_no: int, toks: list[str], d: int) -> list[float]:
    """The d values of text line ``line_no``, split into ``toks``; an error names the file, line and column."""
    if len(toks) != d:
        raise ValueError(f"{path}: line {line_no} has {len(toks)} values, expected {d}")
    row = []
    for j, tok in enumerate(toks):
        try:
            row.append(float(tok))
        except ValueError:
            raise ValueError(f"{path}: line {line_no}, column {j + 1}: {tok!r} is not a number") from None
    return row


def _read_by_lines(path) -> np.ndarray:
    with open(path) as fh:
        n, d = _read_header(path, fh)
        rows = []
        for i, line in enumerate(fh):
            toks = line.split()
            if not toks and i >= n:
                continue
            rows.append(parse_row(path, i + 2, toks, d))
    if len(rows) != n:
        raise ValueError(f"{path}: header promises {n} rows, found {len(rows)}")
    return _finite(path, np.array(rows, dtype=float))


def read_features(path) -> np.ndarray:
    try:
        with open(path) as fh:
            n, d = _read_header(path, fh)
            lines = _data_lines(fh, n)
            try:  # max_rows: numpy allocates the n x d array once instead of growing it by reallocs
                data = np.loadtxt(lines, dtype=float, comments=None, ndmin=2, max_rows=n)
                next(lines, None)  # numpy stops after n rows; this checks the lines after them
            except (_Irregular, ValueError):
                data = None
        if data is None or data.shape != (n, d):
            return _read_by_lines(path)
    except UnicodeDecodeError as err:  # a ValueError that does not name the file
        raise ValueError(f"{path}: {err}") from None
    return _finite(path, data)


def write_rows(fh, rows: np.ndarray) -> None:
    """Write each row of a 2-D array as one line of ``%.17g`` values."""
    fmt = " ".join(["%.17g"] * rows.shape[1]) + "\n"
    for row in rows:
        fh.write(fmt % tuple(row.tolist()))


def write_features(path, feats: np.ndarray) -> None:
    feats = np.atleast_2d(np.asarray(feats, dtype=float))
    with open(path, "w") as fh:
        fh.write("%d %d\n" % feats.shape)
        write_rows(fh, feats)


def read_labels(path) -> np.ndarray:
    labels = []
    try:
        with open(path) as fh:
            for i, line in enumerate(fh):
                tok = line.strip()
                if not tok:
                    continue
                try:
                    value = int(tok)
                except ValueError:
                    raise ValueError(f"{path}: line {i + 1} is not an integer") from None
                if value < 0:
                    raise ValueError(f"{path}: line {i + 1} is negative")
                labels.append(value)
    except UnicodeDecodeError as err:  # a ValueError that does not name the file
        raise ValueError(f"{path}: {err}") from None
    if not labels:
        raise ValueError(f"{path}: empty label file")
    return np.array(labels, dtype=int)


def write_labels(path, labels) -> None:
    with open(path, "w") as fh:
        for lab in np.asarray(labels, dtype=int):
            fh.write(f"{lab}\n")
