"""File formats: Matrix Market matrices, plain vectors, trajectory CSV.

The Matrix Market reader accepts the dense `array` and sparse `coordinate`
variants for real general matrices and reports malformed input with 1-based
line numbers.  All writers serialize floats with 17 significant digits so a
write/parse round trip reproduces every double exactly.

Both readers find their data through one generator, `_tokens`, which yields
the line number and tokens of every line that is neither blank nor a `%`
comment, and turn every token into a number through one rule, `_number`:
Python's `float` (or `int`, for sizes, entry counts and coordinates) must
read it and it must hold no digit separator `_`.  A canonical array file,
one entry per line, is converted by a single `np.array` call, taken only
when no line holds a `_`, so it applies the same rule.

Every writer goes through one vectorized kernel, `_write_rows`, which writes
the bytes of `"%.17g" % v` for a block of values at once.  It takes the
decimal exponent and the 17 digits of each value from one long-double
product with a proven error bound.  A value the bound cannot certify, a zero
and a non-finite value go through Python's own `"%.17g"`, so the bytes are
the same on every platform; the kernel is fast where long double has a
64-bit mantissa, and where it is plain float64 every value falls back.
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


# values formatted per block of _write_rows; bounds the kernel's memory
_BLOCK_ENTRIES = 2**14

# floor(log10|x|) over the finite nonzero doubles; the kernel's tables run
# over this range of decimal exponents E, indexed by E - _E_LO
_E_LO, _E_HI = -324, 308


def _power_of_ten(k, bits):
    """10**k rounded to the nearest long double of `bits` bits, and whether exactly."""
    num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
    s = bits + den.bit_length() - num.bit_length()  # num * 2**s / den has bits or bits + 1 bits
    q, r = divmod(num << s, den) if s >= 0 else divmod(num, den << -s)
    if q >> bits:
        s -= 1
        q, r = divmod(num << s, den) if s >= 0 else divmod(num, den << -s)
    half = (den << max(0, -s)) - 2 * r  # sign of 1/2 - remainder, in units of the divisor
    q += half < 0 or (half == 0 and q & 1)  # to nearest, ties to even
    return np.ldexp(np.longdouble(q), -s), r == 0  # numpy parses the int: exact below 2**bits


def _power_table():
    """10**(16 - E) per exponent E, and the relative error bound of y = |x| * 10**(16 - E).

    That bound is one rounding of the product, plus one more where the
    power itself is rounded; it is exact only for 5**(16 - E) < 2**bits and
    E <= 16.  The factors 1.5 and 2.5 of the unit roundoff u, not 1 and 2,
    leave room for the rounding of the test.  The test runs in float64 on y
    and on y - D, which is exact in long double; its roundings add at most
    2**-53, which the term 2**-50 / 10**16 covers for y > 10**16.  Where
    long double is plain float64, y * bound exceeds 1/2, so every value
    falls back.
    """
    info = np.finfo(np.longdouble)
    with np.errstate(over="ignore"):  # 10**340 overflows a float64 long double
        tables = [_power_of_ten(16 - E, info.nmant + 1) for E in range(_E_LO, _E_HI + 1)]
    powers, exact = zip(*tables)
    bound = np.where(exact, 1.5, 2.5) * float(info.eps / 2) + 2.0**-50 / 1e16
    return np.array(powers, dtype=np.longdouble), bound


_POW, _BOUND = _power_table()


def _bytes(lo, hi):
    """0xFF on bytes lo..hi-1 of a 24-byte string, as an int."""
    return ((1 << (8 * (hi - lo))) - 1) << (8 * lo) if hi > lo else 0


def _text(pos, text):
    """The ASCII text at byte pos of a 24-byte string, as an int."""
    return int.from_bytes(text.encode(), "little") << (8 * pos)


def _layout(E):
    """Where the 17 digits d0..d16 of a value of decimal exponent E go.

    Byte 0 holds the sign and bytes 1..23 the text, with zero bytes as holes
    that the writer drops.  The digits are written twice: once from byte 1,
    kept on the integer-part bytes, and once from byte `shift`, kept on the
    fraction bytes with trailing zeros already dropped.  Returned as 24-byte
    ints: those two byte masks, the constant bytes, the decimal point
    (written only when a fraction digit is kept); then `shift` in bits.
    """
    if -4 <= E < 0:  # 0.000ddd
        zeros = -E - 1
        return 0, _bytes(0, 24), _text(1, "0." + "0" * zeros), 0, 8 * (3 + zeros)
    if 0 <= E <= 16:  # ddd.ddd
        return _bytes(1, E + 2), _bytes(E + 3, 19), 0, _text(E + 2, "."), 16
    exponent = f"{abs(E):02d}"  # d.ddde+XX, bytes 19..23
    const = _text(19, "e" + "-+"[E > 0]) | _text(24 - len(exponent), exponent)
    return _bytes(1, 2), _bytes(3, 19), const, _text(2, "."), 16


def _words(column):
    """A column of 24-byte ints as three rows of little-endian uint64 words."""
    words = [[(v >> (64 * w)) & (2**64 - 1) for v in column] for w in range(3)]
    return np.array(words, dtype=np.uint64)


_INT_MASK, _FRAC_MASK, _CONST, _POINT, _SHIFT = zip(*(_layout(E) for E in range(_E_LO, _E_HI + 1)))
_INT_MASK, _FRAC_MASK, _CONST, _POINT = map(_words, (_INT_MASK, _FRAC_MASK, _CONST, _POINT))
_SHIFT = np.array(_SHIFT, dtype=np.uint64)


def _digit_values(n):
    """Each n < 10**8 as its 8 decimal digits, one per byte, first digit lowest."""
    v = n // 10000
    v = v | ((n - v * 10000) << 32)  # two 4-digit halves
    q = ((v * 5243) >> 19) & 0x0000007F0000007F  # // 100 in each half
    v = q | ((v - q * 100) << 16)
    q = ((v * 103) >> 10) & 0x000F000F000F000F  # // 10 in each quarter
    return q | ((v - q * 10) << 8)


def _through_last_nonzero(v):
    """0xFF on every byte of v up to its last nonzero one (bytes below 16)."""
    v = v | (v >> 8)
    v = v | (v >> 16)
    v = v | (v >> 32)
    return (((v + 0x7F7F7F7F7F7F7F7F) >> 7) & 0x0101010101010101) * 255


def _decimal(x):
    """Each x as 17 digits times 10**(E - 16): E - _E_LO, the digits, and
    whether both are certified, which finite nonzero values only can be."""
    a = np.abs(x)
    fast = np.isfinite(a) & (a != 0)
    a = np.where(fast, a, 1.0)
    j = np.floor(np.log10(a)).astype(np.intp) - _E_LO  # E may be one off near 10**E
    y = a.astype(np.longdouble) * _POW[j]  # |x| * 10**(16 - E)
    D = np.rint(y)
    digits = D.astype(np.uint64)
    # 17 digits, so E is right, and their rounding certified; 10**16 falls back
    margin = 0.5 - np.abs((y - D).astype(float))
    ok = fast & (digits > 10**16) & (digits < 10**17) & (margin > y.astype(float) * _BOUND[j])
    return j, digits, ok


def _format_block(x, seps):
    """`"%.17g" % v` followed by the character of code sep, for each v, sep in x, seps."""
    j, digits, ok = _decimal(x)
    lead = digits // 10**16
    rest = digits - lead * 10**16
    upper = rest // 10**8
    hv, lv = _digit_values(upper), _digit_values(rest - upper * 10**8)
    zeros = 0x3030303030303030
    d0, hc, lc = lead | 48, hv | zeros, lv | zeros
    # trailing zero digits become holes in the fraction copy
    hct = hc & _through_last_nonzero(hv | ((lv != 0).astype(np.uint64) << 56))
    lct = lc & _through_last_nonzero(lv)
    s = _SHIFT[j]
    f0 = ((d0 << s) | (hct << (s + 8))) & _FRAC_MASK[0][j]
    f1 = ((hct >> (56 - s)) | (lct << (s + 8))) & _FRAC_MASK[1][j]
    f2 = (lct >> (56 - s)) & _FRAC_MASK[2][j]
    point = (f0 | f1 | f2) != 0
    rows = np.empty((x.size, 4), dtype="<u8")
    sign = np.signbit(x).astype(np.uint64) * ord("-")
    rows[:, 0] = ((d0 << 8) | (hc << 16)) & _INT_MASK[0][j] | f0 | sign
    rows[:, 1] = ((hc >> 48) | (lc << 16)) & _INT_MASK[1][j] | f1
    rows[:, 2] = (lc >> 48) & _INT_MASK[2][j] | f2
    for w in range(3):
        rows[:, w] |= _CONST[w][j] | _POINT[w][j] * point
    rows[:, 3] = seps

    slow = np.flatnonzero(~ok)
    if slow.size:  # at most 24 characters each; "%.17g" prints no space, so spaces are holes
        text = ("%-24.17g" * slow.size % tuple(x[slow].tolist())).encode("ascii")
        rows[slow, :3] = np.frombuffer(text, dtype="<u8").reshape(-1, 3)
    return rows.tobytes().translate(None, b"\0 ").decode("ascii")


def _write_rows(fh, table, sep):
    """One `sep`-joined `%.17g` line per row of a real 2-D table (none if empty)."""
    values = table.ravel()
    with np.errstate(all="ignore"):  # where long double is float64, y overflows for tiny |x|
        for start in range(0, values.size, _BLOCK_ENTRIES):
            block = values[start : start + _BLOCK_ENTRIES]
            row_end = (np.arange(start + 1, start + 1 + block.size) % table.shape[1]) == 0
            fh.write(_format_block(block, np.where(row_end, ord("\n"), ord(sep))))


def _read_lines(path):
    """The lines of the ASCII text file at path, read in text mode (universal newlines).

    A non-ASCII byte raises MatrixMarketError with the 1-based line of the first one.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.readlines()
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            raw = fh.read()
    pos = next(i for i, byte in enumerate(raw) if byte > 0x7F)
    head = raw[:pos].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    raise MatrixMarketError(
        f"non-ASCII byte 0x{raw[pos]:02x}", path=path, line=head.count(b"\n") + 1
    )


def _tokens(lines):
    """(line number, tokens) of every line that is neither blank nor a `%` comment."""
    for line_no, raw in enumerate(lines, start=1):
        tokens = raw.split()
        if tokens and not tokens[0].startswith("%"):
            yield line_no, tokens


def _number(token, path, line_no, kind=float, message="non-numeric entry {!r}", *shown):
    """The one number rule: `kind(token)` if Python's `kind` reads the token and
    it holds no digit separator `_`; otherwise MatrixMarketError at line_no,
    its message formatted with `shown` (by default the token)."""
    if "_" not in token:
        try:
            return kind(token)
        except ValueError:
            pass
    raise MatrixMarketError(message.format(*(shown or (token,))), path=path, line=line_no)


def parse_matrix_market(path) -> np.ndarray:
    """Read a square real general matrix in array or coordinate format."""
    lines = _read_lines(path)
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

    entries = _tokens(lines)  # the header is a `%` line
    size_line_no, parts = next(entries, (len(lines), None))
    if parts is None:
        raise MatrixMarketError("missing size line", path=path, line=size_line_no)

    if fmt == "array":
        if len(parts) != 2:
            raise MatrixMarketError(
                "array size line must be 'rows cols'", path=path, line=size_line_no
            )
        rows, cols = _parse_dims(parts, path, size_line_no)
        values = _parse_array(lines[size_line_no:], entries, rows * cols, size_line_no, path)
        matrix = values.reshape((cols, rows)).T  # array format is column-major
    else:
        if len(parts) != 3:
            raise MatrixMarketError(
                "coordinate size line must be 'rows cols nnz'",
                path=path,
                line=size_line_no,
            )
        rows, cols = _parse_dims(parts[:2], path, size_line_no)
        nnz = _number(parts[2], path, size_line_no, int, "bad entry count {!r}")
        matrix = np.zeros((rows, cols))
        seen = set()
        line_no = size_line_no  # the last line read, for the count check
        for line_no, fields in entries:
            if len(fields) != 3:
                raise MatrixMarketError(
                    "coordinate entries must be 'row col value'", path=path, line=line_no
                )
            i, j = (
                _number(f, path, line_no, int, "bad coordinates {!r} {!r}", *fields[:2])
                for f in fields[:2]
            )
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
            matrix[i - 1, j - 1] = _number(fields[2], path, line_no)
        if len(seen) != nnz:
            raise MatrixMarketError(
                f"declared {nnz} entries, found {len(seen)}", path=path, line=line_no
            )

    if rows != cols:
        raise MatrixMarketError(f"matrix is {rows} x {cols}, expected square", path=path)
    return matrix


def _parse_array(data, entries, total, line_no, path):
    """The `total` entries of an array file in file order: `data` holds the
    lines after the size line (line line_no) and `entries` their tokens."""
    if len(data) == total and "_" not in "".join(data):  # one entry per line, as written
        try:
            return np.array(data, dtype=float)
        except ValueError:  # a comment, a blank, several tokens or a bad one
            pass
    values = np.empty(total)
    count = 0
    for line_no, tokens in entries:
        for token in tokens:
            if count == total:  # reported before the token's own syntax
                raise MatrixMarketError(f"more than {total} entries", path=path, line=line_no)
            values[count] = _number(token, path, line_no)
            count += 1
    if count < total:
        raise MatrixMarketError(
            f"expected {total} entries, found {count}", path=path, line=line_no
        )
    return values


def _parse_dims(parts, path, line_no):
    shown = " ".join(parts)
    rows, cols = (_number(p, path, line_no, int, "bad dimensions {!r}", shown) for p in parts)
    if rows < 1 or cols < 1:
        raise MatrixMarketError("dimensions must be positive", path=path, line=line_no)
    return rows, cols


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
    entries = _tokens(_read_lines(path))
    values = [_number(token, path, line_no) for line_no, tokens in entries for token in tokens]
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
