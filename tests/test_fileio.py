import io
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from daepencil import fileio
from daepencil.chains import compute_chain, consistent_space
from daepencil.exceptions import MatrixMarketError
from daepencil.fileio import (
    parse_matrix_market,
    read_vector,
    write_matrix_market,
    write_trajectory_csv,
    write_vector,
)
from daepencil.fixtures import FixtureSpec, generate
from daepencil.solvers import Trajectory, classical_solution


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParseArray:
    def test_identity(self, tmp_path):
        path = write(
            tmp_path,
            "id.mtx",
            "%%MatrixMarket matrix array real general\n2 2\n1\n0\n0\n1\n",
        )
        np.testing.assert_array_equal(parse_matrix_market(path), np.eye(2))

    def test_column_major_order(self, tmp_path):
        path = write(
            tmp_path,
            "m.mtx",
            "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n",
        )
        np.testing.assert_array_equal(
            parse_matrix_market(path), np.array([[1.0, 3.0], [2.0, 4.0]])
        )

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = write(
            tmp_path,
            "c.mtx",
            "%%MatrixMarket matrix array real general\n% a comment\n\n1 1\n% more\n2.5\n",
        )
        np.testing.assert_array_equal(parse_matrix_market(path), [[2.5]])

    def test_missing_entries_flagged_with_line(self, tmp_path):
        path = write(
            tmp_path,
            "short.mtx",
            "%%MatrixMarket matrix array real general\n3 3\n1\n2\n",
        )
        with pytest.raises(MatrixMarketError, match="expected 9 entries, found 2"):
            parse_matrix_market(path)

    def test_extra_entries_rejected(self, tmp_path):
        path = write(
            tmp_path,
            "long.mtx",
            "%%MatrixMarket matrix array real general\n1 1\n1\n2\n",
        )
        with pytest.raises(MatrixMarketError, match="more than 1 entries"):
            parse_matrix_market(path)

    def test_non_numeric_entry_line_number(self, tmp_path):
        path = write(
            tmp_path,
            "bad.mtx",
            "%%MatrixMarket matrix array real general\n2 2\n1\n2\nbogus\n4\n",
        )
        with pytest.raises(MatrixMarketError, match=":5: non-numeric entry 'bogus'"):
            parse_matrix_market(path)

    def test_several_values_per_line_and_a_comment_among_them(self, tmp_path):
        path = write(
            tmp_path,
            "multi.mtx",
            "%%MatrixMarket matrix array real general\n3 3\n1 2 3\n"
            "% a comment in the data\n\n4\n5 6\n  7 8 9  \n",
        )
        np.testing.assert_array_equal(
            parse_matrix_market(path), np.arange(1.0, 10.0).reshape(3, 3).T
        )

    def test_non_numeric_entry_on_a_line_of_several(self, tmp_path):
        path = write(
            tmp_path,
            "bad2.mtx",
            "%%MatrixMarket matrix array real general\n2 2\n1 2\n% c\n3 bogus\n",
        )
        with pytest.raises(MatrixMarketError, match=":5: non-numeric entry 'bogus'"):
            parse_matrix_market(path)

    @pytest.mark.parametrize("tail", ["3 4 5\n", "3 4\n5\n", "3 4\nbogus\n", "3 4 bogus\n"])
    def test_an_entry_past_the_last_is_flagged_first(self, tmp_path, tail):
        # the first token past the declared count is reported, numeric or not
        path = write(
            tmp_path, "long2.mtx", "%%MatrixMarket matrix array real general\n2 2\n1 2\n" + tail
        )
        line = 4 if tail.count("\n") == 1 else 5
        with pytest.raises(MatrixMarketError, match=f":{line}: more than 4 entries"):
            parse_matrix_market(path)

    def test_bad_header(self, tmp_path):
        path = write(tmp_path, "h.mtx", "%%NotMatrixMarket nothing\n1 1\n1\n")
        with pytest.raises(MatrixMarketError, match="expected header"):
            parse_matrix_market(path)

    def test_complex_field_rejected(self, tmp_path):
        path = write(
            tmp_path,
            "cx.mtx",
            "%%MatrixMarket matrix array complex general\n1 1\n1 0\n",
        )
        with pytest.raises(MatrixMarketError, match="unsupported field"):
            parse_matrix_market(path)

    def test_non_square_rejected(self, tmp_path):
        path = write(
            tmp_path,
            "rect.mtx",
            "%%MatrixMarket matrix array real general\n2 1\n1\n2\n",
        )
        with pytest.raises(MatrixMarketError, match="expected square"):
            parse_matrix_market(path)


class TestParseCoordinate:
    def test_single_entry(self, tmp_path):
        path = write(
            tmp_path,
            "coo.mtx",
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 1.0\n",
        )
        np.testing.assert_array_equal(
            parse_matrix_market(path), np.array([[0.0, 1.0], [0.0, 0.0]])
        )

    def test_count_mismatch(self, tmp_path):
        path = write(
            tmp_path,
            "cnt.mtx",
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n",
        )
        with pytest.raises(MatrixMarketError, match="declared 2 entries, found 1"):
            parse_matrix_market(path)

    def test_out_of_bounds(self, tmp_path):
        path = write(
            tmp_path,
            "oob.mtx",
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n",
        )
        with pytest.raises(MatrixMarketError, match="outside"):
            parse_matrix_market(path)

    def test_duplicate_rejected(self, tmp_path):
        path = write(
            tmp_path,
            "dup.mtx",
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n1 1 2.0\n",
        )
        with pytest.raises(MatrixMarketError, match="duplicate"):
            parse_matrix_market(path)


class TestRoundTrip:
    def test_exact_doubles(self, tmp_path):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((5, 5)) * np.exp(rng.uniform(-30, 30, size=(5, 5)))
        M[0, 0] = 1 / 3
        M[1, 1] = -0.0
        path = tmp_path / "round.mtx"
        write_matrix_market(path, M)
        back = parse_matrix_market(path)
        assert np.array_equal(M, back)  # bit-exact, including signed zero sign

    def test_written_bytes_deterministic(self, tmp_path):
        M = np.array([[np.pi, 0.1], [1e-17, 3.0]])
        p1, p2 = tmp_path / "a.mtx", tmp_path / "b.mtx"
        write_matrix_market(p1, M)
        write_matrix_market(p2, M)
        assert p1.read_bytes() == p2.read_bytes()


class TestVectors:
    def test_round_trip(self, tmp_path):
        v = np.array([1.0, -2.5, 1e-300, 7.125])
        path = tmp_path / "v.txt"
        write_vector(path, v)
        assert np.array_equal(read_vector(path), v)

    def test_any_whitespace_layout(self, tmp_path):
        path = write(tmp_path, "w.txt", "1.0 2.0\n3.0\n% comment\n4.0 5.0 6.0\n")
        np.testing.assert_array_equal(read_vector(path), np.arange(1.0, 7.0))

    def test_empty_rejected(self, tmp_path):
        path = write(tmp_path, "e.txt", "% nothing\n")
        with pytest.raises(MatrixMarketError, match="no numeric entries"):
            read_vector(path)

    def test_bad_token_line(self, tmp_path):
        path = write(tmp_path, "b.txt", "1.0\nnope\n")
        with pytest.raises(MatrixMarketError, match=":2: non-numeric"):
            read_vector(path)

    def test_bad_token_among_several_on_a_line(self, tmp_path):
        path = write(tmp_path, "b2.txt", "1.0 2.0\n% c\n3.0 nope 4.0\n")
        with pytest.raises(MatrixMarketError, match=":3: non-numeric entry 'nope'"):
            read_vector(path)


class TestTrajectoryCsv:
    def test_header_and_rows(self):
        traj = Trajectory(
            times=np.array([0.0, 0.5]),
            states=np.array([[1.0, 2.0], [3.0, 4.0]]),
            derivative_residuals=np.array([0.0, 1e-12]),
            method="exponential",
        )
        buf = io.StringIO()
        write_trajectory_csv(buf, traj)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t,u_1,u_2,residual"
        assert lines[1] == "0,1,2,0"
        assert lines[2].startswith("0.5,3,4,")
        assert len(lines) == 3

    def test_block_trajectory_rejected_before_any_byte(self):
        traj = Trajectory(
            times=np.array([0.0, 0.5]),
            states=np.zeros((2, 3, 2)),
            derivative_residuals=np.zeros((2, 2)),
            method="exponential",
        )
        buf = io.StringIO()
        with pytest.raises(ValueError, match=r"\(2, 3, 2\)"):
            write_trajectory_csv(buf, traj)
        assert buf.getvalue() == ""

    @pytest.mark.parametrize("t_len, res_len", [(3, 2), (2, 3), (3, 3)])
    def test_length_mismatch_rejected_before_any_byte(self, t_len, res_len):
        traj = Trajectory(
            times=np.linspace(0.0, 1.0, t_len),
            states=np.ones((2, 4)),
            derivative_residuals=np.zeros(res_len),
            method="euler",
        )
        buf = io.StringIO()
        with pytest.raises(ValueError, match=rf"\({t_len},\), \(2, 4\) and \({res_len},\)"):
            write_trajectory_csv(buf, traj)
        assert buf.getvalue() == ""


class TestComplexAndShapeRejected:
    """The matrix and vector writers keep imaginary parts out of real files."""

    @pytest.mark.parametrize(
        "writer, value",
        [
            (write_matrix_market, np.array([[1 + 2j, 0], [0, 1]])),
            (write_vector, np.array([1.0, 1j])),
            (write_vector, np.eye(2)),
            (write_vector, np.float64(3.0)),
        ],
    )
    def test_rejected_before_the_file_is_opened(self, tmp_path, writer, value):
        path = tmp_path / "keep.txt"
        path.write_text("old contents\n")
        with pytest.raises(ValueError, match="complex|ndim"):
            writer(path, value)
        assert path.read_text() == "old contents\n"

    def test_a_vector_is_not_written_as_a_matrix(self, tmp_path):
        path = tmp_path / "v.mtx"
        with pytest.raises(ValueError, match="expected a matrix, got ndim=1"):
            write_matrix_market(path, np.ones(2))
        assert not path.exists()

    def test_near_real_matrix_written_as_its_real_part(self, tmp_path):
        M = np.array([[1.0, 2.0], [3.0, 4.0]])
        a, b = tmp_path / "a.mtx", tmp_path / "b.mtx"
        write_matrix_market(a, M + 1e-14j)
        write_matrix_market(b, M)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_vector_writes_an_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        write_vector(path, np.array([]))
        assert path.read_bytes() == b""


def _reference(rows, sep):
    """The per-value serialization every writer must reproduce byte for byte."""
    return "".join(sep.join(format(float(x), ".17g") for x in row) + "\n" for row in rows)


SPECIAL = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, 1e300, 1e-300, -1e300, 1 / 3, 1.0, -7.0, 2.0**53]


def _values(shape, seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal(shape) * np.exp(rng.uniform(-40.0, 40.0, size=shape))
    k = min(M.size, len(SPECIAL))
    M.flat[:k] = SPECIAL[:k]
    return M


class TestByteIdentity:
    @pytest.mark.parametrize("T", [1, 2, 2001])
    @pytest.mark.parametrize("n", [1, 3, 40])
    def test_trajectory(self, T, n):
        states = _values((T, n), seed=T * 100 + n)
        times = np.linspace(0.0, 2.0, T)
        residuals = np.abs(_values((T,), seed=T + n))
        buf = io.StringIO()
        write_trajectory_csv(buf, Trajectory(times, states, residuals, "exponential"))
        header = "t," + ",".join(f"u_{i + 1}" for i in range(n)) + ",residual\n"
        rows = [[t, *u, r] for t, u, r in zip(times, states, residuals)]
        assert buf.getvalue() == header + _reference(rows, ",")

    def test_near_real_complex_trajectory_gives_its_real_part_bytes(self):
        states = _values((5, 3), seed=7)
        states[~np.isfinite(states)] = 1.0
        near_real = states.astype(complex)
        near_real.imag = 1e-30  # keeps the real part, -0.0 included
        times, residuals = np.arange(5.0), np.full(5, 1e-12)
        real, near = io.StringIO(), io.StringIO()
        write_trajectory_csv(real, Trajectory(times, states, residuals, "oracle"))
        write_trajectory_csv(near, Trajectory(times, near_real, residuals, "oracle"))
        assert near.getvalue() == real.getvalue()

    @pytest.mark.parametrize("shape", [(1, 1), (4, 4), (3, 5), (40, 40)])
    def test_matrix_market(self, tmp_path, shape):
        M = _values(shape, seed=sum(shape))
        path = tmp_path / "m.mtx"
        write_matrix_market(path, M)
        head = f"%%MatrixMarket matrix array real general\n{shape[0]} {shape[1]}\n"
        assert path.read_text() == head + _reference([[x] for x in M.T.ravel()], ",")

    @pytest.mark.parametrize("n", [1, 3, 40])
    def test_vector(self, tmp_path, n):
        v = _values((n,), seed=n)
        path = tmp_path / "v.txt"
        write_vector(path, v)
        assert path.read_text() == _reference([[x] for x in v], ",")


def _written(table, sep):
    buf = io.StringIO()
    fileio._write_rows(buf, table, sep)
    return buf.getvalue()


NEG_NAN = -np.float64(np.nan)
EDGES = [
    0.0, -0.0, np.inf, -np.inf, np.nan, NEG_NAN, 5e-324, -5e-324, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 1e16, 1e17, 1e-4, 1e-5, 1e-300, 1e300,
    123456789012345678.0, 0.1, 1.0, 10.0,
]


class TestKernel:
    """The vectorized `%.17g` writer against the per-value reference."""

    @pytest.mark.filterwarnings("error")
    def test_random_bit_patterns(self):
        bits = np.random.default_rng(13).integers(0, 2**64, 2_000_000, dtype=np.uint64)
        values = bits.view(np.float64)
        table = values.reshape(-1, 10)
        expected = _reference(table.tolist(), ",")
        assert _written(table, ",") == expected
        assert _written(values[None, :], "\n") == expected.replace(",", "\n")  # one per line

    @settings(max_examples=200, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(0, 12), st.integers(1, 6)),
            elements=st.one_of(st.floats(width=64), st.sampled_from(EDGES)),
        )
    )
    def test_any_table(self, table):
        assert _written(table, ",") == _reference(table.tolist(), ",")

    def test_powers_of_ten_and_their_neighbours(self):
        # floor(log10|x|) can be one off here; such values must fall back
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        values = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
        table = np.concatenate([values, -values])[:, None]
        assert _written(table, ",") == _reference(table.tolist(), ",")

    def test_negative_nan_has_no_sign(self):
        assert np.signbit(NEG_NAN)
        assert _written(np.array([[NEG_NAN, np.nan, -0.0]]), ",") == "nan,nan,-0\n"

    def test_table_and_vector_longer_than_a_block(self, tmp_path):
        rows = 2 * fileio._BLOCK_ENTRIES // 7 + 3  # blocks end inside rows
        table = _values((rows, 7), seed=3)
        assert _written(table, ",") == _reference(table.tolist(), ",")
        v = _values((2 * fileio._BLOCK_ENTRIES + 5,), seed=4)
        path = tmp_path / "v.txt"
        write_vector(path, v)
        assert path.read_text() == _reference([[x] for x in v], ",")

    def test_every_value_through_the_fallback(self, monkeypatch):
        table = _values((300, 7), seed=5)
        expected = _reference(table.tolist(), ",")
        hi, _, hi_high, hi_low = fileio._POW
        # a low part as large as hi puts every t near y, far past its bound of 20
        monkeypatch.setattr(fileio, "_POW", np.stack((hi, hi, hi_high, hi_low)))
        assert not fileio._decimal(table.ravel())[2].any()
        assert _written(table, ",") == expected

    @pytest.mark.parametrize("factor", [10, 0.1])
    def test_an_exponent_one_off_falls_back(self, monkeypatch, factor):
        table = _values((50, 7), seed=6)
        expected = _reference(table.tolist(), ",")
        monkeypatch.setattr(fileio, "_POW", fileio._POW * factor)
        assert not fileio._decimal(table.ravel())[2].any()
        assert _written(table, ",") == expected

    @pytest.mark.parametrize("factor", [10, 0.1])
    def test_a_wrong_hi_alone_is_caught_by_the_size_of_t(self, monkeypatch, factor):
        # halves that no longer add up to hi leave Dekker's product inexact;
        # p + rint(t) still lands on 17 digits, and only |t| < 20 refuses them
        table = _values((50, 7), seed=6)
        expected = _reference(table.tolist(), ",")
        scaled = fileio._POW.copy()
        scaled[0] *= factor
        monkeypatch.setattr(fileio, "_POW", scaled)
        assert not fileio._decimal(table.ravel())[2].any()
        assert _written(table, ",") == expected

    def test_fast_path_certifies_a_trajectory(self):
        pencil, _ = generate(FixtureSpec(37, (2, 1), 100.0, 11))
        chain = compute_chain(pencil)
        basis = consistent_space(pencil, chain).basis.real
        u0 = basis @ np.random.default_rng(2).standard_normal(basis.shape[1])
        times = np.linspace(0.0, 2.0, 2001)
        traj = classical_solution(pencil, chain, u0 / np.linalg.norm(u0), times)
        table = np.column_stack((traj.times, traj.states.real, traj.derivative_residuals))
        assert table.shape == (2001, 42)
        assert fileio._decimal(table.ravel())[2].mean() >= 0.999

    def test_fast_path_certifies_magnitudes_across_the_range(self):
        # the rest are exact decimal ties, at E = 14 and 15, which fall back
        rng = np.random.default_rng(17)
        values = 10.0 ** rng.uniform(-270.0, 280.0, 100_000) * rng.choice([-1.0, 1.0], 100_000)
        assert fileio._decimal(values)[2].mean() >= 0.998

    def test_exact_decimal_ties_fall_back(self):
        # |x| 10**(16 - E) is a half-integer: t sits on it, inside any margin
        ties = np.array([1e15 + 0.25, 1e15 + 0.75, 1e14 + 0.125, -(1e14 + 0.375)])
        assert not fileio._decimal(ties)[2].any()
        assert _written(ties[:, None], ",") == _reference(ties[:, None].tolist(), ",")

    def test_power_table(self):
        # every exponent the certificate can use: 10**(16 - E) = hi + lo, each
        # rounded to nearest, and hi split into two halves of <= 26 bits
        hi, lo, hi_high, hi_low = fileio._POW
        assert hi.size == fileio._E_HI - fileio._E_LO + 1
        exponents = range(fileio._E_LO, fileio._E_HI + 1)
        for E, h, l, high, low in zip(exponents, hi, lo, hi_high, hi_low):
            power = Fraction(10) ** (16 - E)
            assert h == float(power)
            assert abs(Fraction(h) + Fraction(l) - power) <= Fraction(math.ulp(l)) / 2
            assert Fraction(high) + Fraction(low) == Fraction(h)
            for half in (high, low):
                n = abs(Fraction(half).numerator)
                assert (n // (n & -n) if n else 0).bit_length() <= 26  # odd part

    def test_writers_emit_no_runtime_warning(self, tmp_path):
        M = np.array(EDGES[:16]).reshape(4, 4)
        traj = Trajectory(np.arange(4.0), M, np.array(EDGES[16:20]), "exponential")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            write_matrix_market(tmp_path / "m.mtx", M)
            write_vector(tmp_path / "v.txt", np.array(EDGES))
            write_trajectory_csv(io.StringIO(), traj)


class TestNonAscii:
    """A non-ASCII byte is a MatrixMarketError naming the file and the 1-based
    line of the first such byte; newlines count as in text mode."""

    HEADER = b"%%MatrixMarket matrix array real general\n"

    def _raises(self, tmp_path, data, reader, line):
        path = tmp_path / "f.txt"
        path.write_bytes(data)
        with pytest.raises(MatrixMarketError, match="non-ASCII byte 0xc3") as info:
            reader(path)
        assert (info.value.path, info.value.line) == (path, line)
        assert str(info.value).startswith(f"{path}:{line}: ")

    def test_in_a_comment(self, tmp_path):
        data = self.HEADER + "% café\n1 1\n2.5\n".encode("utf-8")
        self._raises(tmp_path, data, parse_matrix_market, 2)

    def test_on_a_data_line(self, tmp_path):
        self._raises(tmp_path, self.HEADER + b"2 2\n1\n0\n0\xc3\n1\n", parse_matrix_market, 5)

    def test_after_carriage_returns(self, tmp_path):
        # "\r\n" and a lone "\r" each end one line
        data = self.HEADER + b"% a\r\n% b\r1 1\n\xc3\n"
        self._raises(tmp_path, data, parse_matrix_market, 5)

    def test_in_a_vector_file(self, tmp_path):
        self._raises(tmp_path, b"1.0 2.0\n% \xc3\n3.0\n", read_vector, 2)

    def test_line_endings_parse_to_the_same_bits(self, tmp_path):
        M = np.random.default_rng(3).standard_normal((4, 4))
        path = tmp_path / "m.mtx"
        write_matrix_market(path, M)
        data = path.read_bytes()
        for newline in (b"\r\n", b"\r"):
            path.write_bytes(data.replace(b"\n", newline))
            assert np.array_equal(parse_matrix_market(path), M)
        v = M[0]
        write_vector(path, v)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert np.array_equal(read_vector(path), v)


ARRAY = "%%MatrixMarket matrix array real general\n"
COORDINATE = "%%MatrixMarket matrix coordinate real general\n"


def _raises_at(tmp_path, text, reader, message, line):
    """reader of a file holding text raises MatrixMarketError(message) at the 1-based line."""
    path = write(tmp_path, "f.txt", text)
    with pytest.raises(MatrixMarketError, match=message) as info:
        reader(path)
    assert (info.value.path, info.value.line) == (path, line)


@pytest.mark.parametrize(
    "text, message, line",
    [
        ("", "empty file", 1),
        ("%%MatrixMarket matrix foo real general\n2 2\n", "unsupported format 'foo'", 1),
        (
            "%%MatrixMarket matrix array real symmetric\n2 2\n",
            "unsupported symmetry 'symmetric'",
            1,
        ),
        (ARRAY + "% only a comment\n\n", "missing size line", 3),
        (ARRAY + "2 2 4\n1\n0\n0\n1\n", "array size line must be 'rows cols'", 2),
        (COORDINATE + "2 2\n1 1 1\n", "coordinate size line must be 'rows cols nnz'", 2),
        (COORDINATE + "2 2 1\n1 1\n", "coordinate entries must be 'row col value'", 3),
        (ARRAY + "% c\n0 0\n", "dimensions must be positive", 3),
        (COORDINATE + "2 -1 0\n", "dimensions must be positive", 2),
    ],
)
def test_malformed_matrix_market_names_its_line(tmp_path, text, message, line):
    _raises_at(tmp_path, text, parse_matrix_market, message, line)


class TestDigitSeparators:
    """Python's int and float read `1_0` as 10; no field of an input file does."""

    def test_one_entry_per_line(self, tmp_path):
        # the canonical layout of the one-np.array fast path
        text = ARRAY + "2 2\n1\n2\n1_0\n4\n"
        _raises_at(tmp_path, text, parse_matrix_market, "non-numeric entry '1_0'", 5)

    def test_several_entries_on_a_line(self, tmp_path):
        text = ARRAY + "2 2\n1 2\n% c\n3 1_0\n"
        _raises_at(tmp_path, text, parse_matrix_market, "non-numeric entry '1_0'", 5)

    def test_size_line(self, tmp_path):
        text = ARRAY + "1_0 1_0\n" + "1\n" * 100
        _raises_at(tmp_path, text, parse_matrix_market, "bad dimensions '1_0 1_0'", 2)

    def test_coordinate_size(self, tmp_path):
        text = COORDINATE + "1_0 1_0 1\n1_0 1 2\n"
        _raises_at(tmp_path, text, parse_matrix_market, "bad dimensions '1_0 1_0'", 2)

    def test_coordinate_entry_count(self, tmp_path):
        text = COORDINATE + "2 2 0_1\n1 1 2\n"
        _raises_at(tmp_path, text, parse_matrix_market, "bad entry count '0_1'", 2)

    def test_coordinate_indices(self, tmp_path):
        text = COORDINATE + "10 10 1\n1_0 1 2\n"
        _raises_at(tmp_path, text, parse_matrix_market, "bad coordinates '1_0' '1'", 3)

    def test_coordinate_value(self, tmp_path):
        text = COORDINATE + "1 1 1\n1 1 1_0\n"
        _raises_at(tmp_path, text, parse_matrix_market, "non-numeric entry '1_0'", 3)

    def test_vector(self, tmp_path):
        _raises_at(tmp_path, "1.0 2.0\n3_0.5\n", read_vector, "non-numeric entry '3_0.5'", 2)
