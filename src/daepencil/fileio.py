"""File formats: Matrix Market matrices, plain vectors, trajectory CSV.

The Matrix Market reader accepts the dense `array` and sparse `coordinate`
variants for real general matrices and reports malformed input with 1-based
line numbers.  All writers serialize floats with 17 significant digits so a
write/parse round trip reproduces every double exactly.
"""

from __future__ import annotations

import numpy as np

from .exceptions import MatrixMarketError

__all__ = [
    "parse_matrix_market",
    "write_matrix_market",
    "read_vector",
    "write_vector",
    "write_trajectory_csv",
]

_HEADER_PREFIX = "%%matrixmarket"


def _real(values, what):
    """`values` as floats; complex input must pass `real_if_close(tol=1000)`."""
    real = np.real_if_close(values, tol=1000)
    if np.iscomplexobj(real):
        raise ValueError(f"{what} is complex; file output is real-only")
    return np.asarray(real, dtype=float)


def _write_rows(fh, table, sep):
    """One `sep`-joined `%.17g` line per row of a real 2-D table (none if empty)."""
    if table.size:
        line = sep.join(["%.17g"] * table.shape[1]) + "\n"
        for row in table:
            fh.write(line % tuple(row.tolist()))


def _data_lines(lines):
    """Yield (line_number, stripped_text) skipping comments and blanks."""
    for idx, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or text.startswith("%"):
            continue
        yield idx, text


def parse_matrix_market(path) -> np.ndarray:
    """Read a square real general matrix in array or coordinate format."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.readlines()
    if not lines:
        raise MatrixMarketError("empty file", path=path, line=1)

    header = lines[0].strip().lower().split()
    if len(header) != 5 or header[0] != _HEADER_PREFIX or header[1] != "matrix":
        raise MatrixMarketError(
            "expected header '%%MatrixMarket matrix <format> real general'",
            path=path,
            line=1,
        )
    fmt, field_kind, symmetry = header[2], header[3], header[4]
    if fmt not in ("array", "coordinate"):
        raise MatrixMarketError(f"unsupported format {fmt!r}", path=path, line=1)
    if field_kind != "real":
        raise MatrixMarketError(f"unsupported field {field_kind!r}", path=path, line=1)
    if symmetry != "general":
        raise MatrixMarketError(f"unsupported symmetry {symmetry!r}", path=path, line=1)

    entries = _data_lines(lines[1:])
    try:
        size_line_no, size_text = next(entries)
    except StopIteration:
        raise MatrixMarketError("missing size line", path=path, line=len(lines)) from None
    size_line_no += 1  # offset for the header line
    parts = size_text.split()

    if fmt == "array":
        if len(parts) != 2:
            raise MatrixMarketError(
                "array size line must be 'rows cols'", path=path, line=size_line_no
            )
        rows, cols = _parse_dims(parts, path, size_line_no)
        total = rows * cols
        values = np.empty(total)
        count = 0
        last_line = size_line_no
        for line_no, raw in enumerate(lines[size_line_no:], start=size_line_no + 1):
            try:
                values[count] = float(raw)  # one entry per line, as write_matrix_market writes
            except (ValueError, IndexError):  # anything else, or an entry past the last
                tokens = raw.split()
                if not tokens or tokens[0].startswith("%"):
                    continue
                count = _store_tokens(values, count, tokens, path, line_no)
            else:
                count += 1
            last_line = line_no
        if count < total:
            raise MatrixMarketError(
                f"expected {total} entries, found {count}",
                path=path,
                line=last_line,
            )
        matrix = values.reshape((cols, rows)).T  # array format is column-major
    else:
        if len(parts) != 3:
            raise MatrixMarketError(
                "coordinate size line must be 'rows cols nnz'",
                path=path,
                line=size_line_no,
            )
        rows, cols = _parse_dims(parts[:2], path, size_line_no)
        try:
            nnz = int(parts[2])
        except ValueError:
            raise MatrixMarketError(
                f"bad entry count {parts[2]!r}", path=path, line=size_line_no
            ) from None
        matrix = np.zeros((rows, cols))
        seen = set()
        count = 0
        last_line = size_line_no
        for line_no, text in entries:
            line_no += 1
            fields = text.split()
            if len(fields) != 3:
                raise MatrixMarketError(
                    "coordinate entries must be 'row col value'", path=path, line=line_no
                )
            try:
                i, j = int(fields[0]), int(fields[1])
            except ValueError:
                raise MatrixMarketError(
                    f"bad coordinates {fields[0]!r} {fields[1]!r}", path=path, line=line_no
                ) from None
            if not (1 <= i <= rows and 1 <= j <= cols):
                raise MatrixMarketError(
                    f"coordinates ({i}, {j}) outside {rows} x {cols}",
                    path=path,
                    line=line_no,
                )
            if (i, j) in seen:
                raise MatrixMarketError(
                    f"duplicate entry for ({i}, {j})", path=path, line=line_no
                )
            seen.add((i, j))
            matrix[i - 1, j - 1] = _parse_value(fields[2], path, line_no)
            count += 1
            last_line = line_no
        if count != nnz:
            raise MatrixMarketError(
                f"declared {nnz} entries, found {count}", path=path, line=last_line
            )

    if rows != cols:
        raise MatrixMarketError(f"matrix is {rows} x {cols}, expected square", path=path)
    return matrix


def _parse_dims(parts, path, line_no):
    try:
        rows, cols = int(parts[0]), int(parts[1])
    except ValueError:
        raise MatrixMarketError(
            f"bad dimensions {' '.join(parts)!r}", path=path, line=line_no
        ) from None
    if rows < 1 or cols < 1:
        raise MatrixMarketError(f"dimensions must be positive", path=path, line=line_no)
    return rows, cols


def _parse_value(token, path, line_no):
    try:
        return float(token)
    except ValueError:
        raise MatrixMarketError(
            f"non-numeric entry {token!r}", path=path, line=line_no
        ) from None


def _store_tokens(values, count, tokens, path, line_no):
    """Store one line's tokens at values[count:]; the count after them."""
    try:
        for token in tokens:
            values[count] = float(token)
            count += 1
    except (ValueError, IndexError):  # a bad token, or one past the last entry
        if count < values.size:
            _raise_bad_token(tokens, path, line_no)
        raise MatrixMarketError(
            f"more than {values.size} entries", path=path, line=line_no
        ) from None
    return count


def _raise_bad_token(tokens, path, line_no):
    """Raise the MatrixMarketError of the first non-numeric token of a line."""
    for token in tokens:
        _parse_value(token, path, line_no)


def write_matrix_market(path, matrix) -> None:
    """Write a real matrix in dense array format (column-major)."""
    M = _real(matrix, "matrix")
    if M.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={M.ndim}")
    rows, cols = M.shape
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("%%MatrixMarket matrix array real general\n")
        fh.write(f"{rows} {cols}\n")
        _write_rows(fh, M.T, "\n")


def read_vector(path) -> np.ndarray:
    """Read a whitespace-separated vector of reals (any line layout)."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.readlines()
    values = []
    for line_no, raw in enumerate(lines, start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("%"):
            continue
        try:
            values.extend(map(float, tokens))
        except ValueError:
            _raise_bad_token(tokens, path, line_no)
    if not values:
        raise MatrixMarketError("no numeric entries found", path=path)
    return np.array(values)


def write_vector(path, vector) -> None:
    v = _real(vector, "vector")
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got ndim={v.ndim}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        _write_rows(fh, v[None, :], "\n")


def write_trajectory_csv(fh, trajectory) -> None:
    """Write `t,u_1,...,u_n,residual` rows to an open text stream.

    CSV output is real-only; complex arithmetic stays internal.  A block
    trajectory (states (T, n, m)) is written by the caller column by column.
    """
    times, residuals = np.asarray(trajectory.times), np.asarray(trajectory.derivative_residuals)
    states = _real(trajectory.states, "trajectory states")
    if states.ndim != 2 or not times.shape == residuals.shape == states.shape[:1]:
        raise ValueError(
            f"trajectory needs times (T,), states (T, n) and residuals (T,); "
            f"got {times.shape}, {states.shape} and {residuals.shape}"
        )
    n = states.shape[1]
    fh.write("t," + ",".join(f"u_{i + 1}" for i in range(n)) + ",residual\n")
    _write_rows(fh, np.column_stack((times, states, residuals)), ",")
