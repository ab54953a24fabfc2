import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import daepencil.laplace as laplace_mod
import daepencil.pencils as pencils_mod
import daepencil.verification as verification_mod
from daepencil.analysis import IDENTITY_POINTS, analyze_pencil, build_analysis, report_to_json
from daepencil.exceptions import (
    NonFiniteEntriesError,
    NotRegularError,
    ShapeMismatchError,
    SingularMatrixError,
)
from daepencil.fixtures import FixtureSpec, generate
from daepencil.pencils import (
    DET_ZERO,
    RegularityCertificate,
    certify_regularity,
    index_by_growth,
    index_by_nilpotency,
    new_pencil,
    resolvent,
)
from daepencil.rng import make_rng
from daepencil.solvers import fitting_splitting
from daepencil.verification import random_specs, run_suite

N2 = np.array([[0.0, 1.0], [0.0, 0.0]])
N3 = np.eye(3, k=1)


def random_regular_pencil(rng, n):
    return new_pencil(rng.standard_normal((n, n)), rng.standard_normal((n, n)))


def all_points_certificate(pencil, seed):
    """Reference certificate: every determinant first, then the first nonzero one."""
    n = pencil.n
    radius = 1.0 + float(np.linalg.norm(pencil.E)) + float(np.linalg.norm(pencil.A))
    phase = make_rng(seed).uniform(0.0, 2.0 * np.pi)
    angles = phase + 2.0 * np.pi * np.arange(n + 1) / (n + 1)
    points = radius * np.exp(1j * angles)
    values = [complex(np.linalg.det(s * pencil.E + pencil.A)) for s in points]
    witness = None
    for s, d in zip(points, values):
        if np.isnan(d):
            continue
        if abs(d) > DET_ZERO:
            witness = complex(s)
            break
    return RegularityCertificate(
        regular=witness is not None,
        sample_points=tuple(map(complex, points)),
        determinant_values=tuple(values),
        witness=witness,
    )


def count_calls(monkeypatch, owner, name, counted=lambda *a, **kw: True):
    """Patch owner.name to count the calls for which counted(*args, **kwargs) holds."""
    real = getattr(owner, name)
    calls = []

    def patched(*args, **kwargs):
        if counted(*args, **kwargs):
            calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, patched)
    return calls


class TestNewPencil:
    def test_valid(self):
        p = new_pencil(np.eye(2), np.eye(2))
        assert p.n == 2 and not p.is_complex

    def test_size_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            new_pencil(np.eye(2), np.eye(3))

    def test_non_square(self):
        with pytest.raises(ShapeMismatchError):
            new_pencil(np.ones((2, 3)), np.ones((2, 3)))

    def test_empty(self):
        # no ambient dimension: growth sampling and analyze_pencil have nothing to work on
        with pytest.raises(ShapeMismatchError, match="nonempty"):
            new_pencil(np.zeros((0, 0)), np.zeros((0, 0)))

    def test_non_finite(self):
        bad = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(NonFiniteEntriesError):
            new_pencil(bad, np.eye(2))
        with pytest.raises(NonFiniteEntriesError):
            new_pencil(np.eye(2), np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_nilpotent_example(self):
        assert new_pencil(N2, np.eye(2)).n == 2

    def test_complex_promotion(self):
        p = new_pencil(np.eye(2) * 1j, np.eye(2))
        assert p.is_complex and p.A.dtype == complex

    def test_inputs_frozen(self):
        p = new_pencil(np.eye(2), np.eye(2))
        with pytest.raises(ValueError):
            p.E[0, 0] = 7.0


class TestCertifyRegularity:
    def test_an_overflowing_determinant_is_a_quiet_witness(self):
        # every det of this pencil times 1e100 overflows to inf; the caller's
        # numpy error state does not reach the certificate's det
        pencil, _ = generate(FixtureSpec(2, (1,), seed=1))
        with np.errstate(over="raise"):
            cert = certify_regularity(new_pencil(1e100 * pencil.E, 1e100 * pencil.A))
        assert cert.regular and np.isinf(cert.determinant_values[0])
        assert cert.witness == cert.sample_points[0]

    def test_identity_E_always_regular(self):
        rng = np.random.default_rng(0)
        cert = certify_regularity(new_pencil(np.eye(4), rng.standard_normal((4, 4))))
        assert cert.regular and cert.witness is not None

    def test_zero_E_identity_A(self):
        cert = certify_regularity(new_pencil(np.zeros((3, 3)), np.eye(3)))
        assert cert.regular
        # det(s*0 + I) = 1 at the first sample point, which is the witness
        assert cert.determinant_values == (1.0,)
        assert cert.witness == cert.sample_points[0]

    def test_singular_pencil(self):
        M = np.array([[1.0, 0.0], [0.0, 0.0]])
        cert = certify_regularity(new_pencil(M, M))
        assert not cert.regular and cert.witness is None

    def test_sample_count_and_distinctness(self):
        p = new_pencil(np.eye(3), np.eye(3))
        cert = certify_regularity(p, seed=5)
        assert len(cert.sample_points) == 4
        assert len(set(cert.sample_points)) == 4

    def test_verdict_seed_stable(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            p = random_regular_pencil(rng, n)
            verdicts = {certify_regularity(p, seed).regular for seed in (0, 1, 99)}
            assert verdicts == {True}

    def test_singular_verdict_seed_stable(self):
        # zero common row: det(sE + A) is exactly zero in floating point too
        M = np.array([[1.0, 0.0], [0.0, 0.0]])
        for seed in range(5):
            assert not certify_regularity(new_pencil(M, 3.0 * M), seed).regular

    def test_degenerate_shared_kernel_row(self):
        E = np.array([[1.0, 2.0], [0.0, 0.0]])
        A = np.array([[5.0, -1.0], [0.0, 0.0]])
        assert not certify_regularity(new_pencil(E, A)).regular

    def test_regular_pencil_stops_at_the_first_witness(self, monkeypatch):
        p, _ = generate(FixtureSpec(35, (3, 2), seed=40))
        dets = count_calls(monkeypatch, np.linalg, "det")
        cert = certify_regularity(p)
        assert p.n == 40 and len(dets) == 1
        assert cert.regular and cert.witness == cert.sample_points[0]
        assert len(cert.sample_points) == 41 and len(cert.determinant_values) == 1

    def test_singular_pencil_evaluates_every_point(self, monkeypatch):
        rng = np.random.default_rng(8)
        E, A = rng.standard_normal((2, 6, 6))
        E[-1] = A[-1] = 0.0
        dets = count_calls(monkeypatch, np.linalg, "det")
        cert = certify_regularity(new_pencil(E, A))
        assert len(dets) == 7 and len(cert.determinant_values) == 7
        assert not cert.regular and cert.witness is None

    @staticmethod
    def _reference_cases():
        rng = np.random.default_rng(19)
        for _ in range(40):
            yield random_regular_pencil(rng, int(rng.integers(1, 12)))
        M = np.array([[1.0, 0.0], [0.0, 0.0]])
        yield new_pencil(M, M)
        yield new_pencil(M, 3.0 * M)
        yield new_pencil(np.array([[1.0, 2.0], [0.0, 0.0]]), np.array([[5.0, -1.0], [0.0, 0.0]]))
        yield new_pencil(np.zeros((3, 3)), np.eye(3))
        yield new_pencil(N2, np.eye(2))
        yield new_pencil(N3, np.eye(3))
        yield new_pencil(np.zeros((2, 2)), np.zeros((2, 2)))
        for spec, scale in (
            (FixtureSpec(115, (3, 2), seed=5), 1e-3),  # |det| underflows below DET_ZERO
            (FixtureSpec(155, (3, 2), seed=6), 1.0),  # det overflows to inf
            (FixtureSpec(20, (4,), seed=7), 1e-20),
            (FixtureSpec(20, (4,), seed=7), 1e20),
            (FixtureSpec(2, (1,), seed=1), 1e200),  # every det is NaN
        ):
            p, _ = generate(spec)
            yield new_pencil(scale * p.E, scale * p.A)

    def test_matches_the_all_points_reference(self):
        with np.errstate(all="ignore"):
            for p in self._reference_cases():
                for seed in (0, 3):
                    cert = certify_regularity(p, seed)
                    ref = all_points_certificate(p, seed)
                    assert (cert.regular, cert.witness) == (ref.regular, ref.witness)
                    assert cert.sample_points == ref.sample_points
                    k = len(cert.determinant_values)
                    np.testing.assert_array_equal(
                        cert.determinant_values, ref.determinant_values[:k]
                    )


class TestResolvent:
    def test_scalar_inverse(self):
        p = new_pencil(np.eye(2), np.zeros((2, 2)))
        np.testing.assert_allclose(resolvent(p, 2.0), np.eye(2) / 2)

    def test_nilpotent_symbolic(self):
        # (sN + I)^{-1} = [[1, -s], [0, 1]]
        p = new_pencil(N2, np.eye(2))
        for s in (0.5, 3.0, -2.0):
            np.testing.assert_allclose(
                resolvent(p, s), np.array([[1.0, -s], [0.0, 1.0]]), atol=1e-14
            )

    def test_zero_E(self):
        p = new_pencil(np.zeros((2, 2)), np.eye(2))
        np.testing.assert_allclose(resolvent(p, 123.0), np.eye(2))

    def test_singular_point_raises(self):
        M = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(SingularMatrixError):
            resolvent(new_pencil(M, M), 1.0)

    def test_pole_raises(self):
        # s = 1 is a generalized eigenvalue of (I, -I)
        p = new_pencil(np.eye(2), -np.eye(2))
        with pytest.raises(SingularMatrixError):
            resolvent(p, 1.0)

    def test_complex_point_on_real_pencil(self):
        p = new_pencil(np.eye(2), np.eye(2))
        R = resolvent(p, 1j)
        np.testing.assert_allclose(R, np.eye(2) / (1j + 1.0))


class TestStackedResolvents:
    """pencils._sampled: every resolvent grid as chunked stacked solves."""

    @staticmethod
    def _pencil(n, seed, complex_, singular_at=None):
        """A random pencil; with singular_at (a power of two), s E + A has an
        exactly zero last row there, so LAPACK meets an exact zero pivot."""
        rng = np.random.default_rng(seed)
        E, A = rng.standard_normal((2, n, n))
        if complex_:
            E, A = E + 1j * rng.standard_normal((n, n)), A + 1j * rng.standard_normal((n, n))
        if singular_at is not None:
            A[-1] = -singular_at * E[-1]
        return new_pencil(E, A)

    @staticmethod
    def _sampled(pencil, points, **kwargs):
        """(R, used): the stack of every point kept and where each was taken."""
        return pencils_mod._sampled(pencil, points, lambda R, s: R, **kwargs)

    @staticmethod
    def _chunk_sizes(pencil, points):
        sizes = []
        pencils_mod._sampled(pencil, points, lambda R, s: sizes.append(len(s)) or s)
        return sizes

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        complex_=st.booleans(),
        singular=st.booleans(),
    )
    def test_bit_identical_to_pointwise_nudged_resolvents(self, n, seed, complex_, singular):
        p = self._pencil(n, seed, complex_, 2.0 if singular else None)
        points = np.append(np.geomspace(0.5, 50.0, 7), 2.0)  # 2.0 is exactly singular if asked
        pointwise, errors = [], []
        for s in points:
            try:
                pointwise.append(pencils_mod._nudged(lambda t: resolvent(p, t), s))
            except SingularMatrixError as err:
                pointwise.append(None)
                errors.append(str(err))
        if errors:
            with pytest.raises(SingularMatrixError) as raised:
                self._sampled(p, points)
            assert str(raised.value) == errors[0]
            R, used = self._sampled(p, points, drop=True)
        else:
            R, used = self._sampled(p, points)
        kept = iter(R)  # a dropped point is left out of the stack
        for sj, ref in zip(used, pointwise):
            if ref is None:
                assert np.isnan(sj)
            else:
                assert sj == ref[1] and np.array_equal(next(kept), ref[0])
        assert next(kept, None) is None
        if singular:
            assert used[-1] == 2.0 * 1.01

    def test_as_many_points_as_rows(self):
        # 20 points at n = 20: the right-hand side is a (20, 20, 20) identity
        # stack, never a 2-D array that could be read as 20 vectors
        p = self._pencil(20, 3, False)
        points = np.geomspace(0.5, 50.0, 20)
        R, used = self._sampled(p, points)
        assert R.shape == (20, 20, 20) and np.array_equal(used, points)
        for Rj, s in zip(R, points):
            assert np.array_equal(Rj, resolvent(p, s))

    def test_chunks_hold_at_most_stack_entries(self):
        p = self._pencil(5, 4, False)
        assert self._chunk_sizes(p, np.arange(1.0, 21.0)) == [20]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pencils_mod, "STACK_ENTRIES", 7 * 25 + 24)
            assert self._chunk_sizes(p, np.arange(1.0, 21.0)) == [7, 7, 6]

    def test_a_pole_costs_only_its_own_nudges(self, monkeypatch):
        # one exact pole in a 20-point chunk: the failing stack is halved until
        # the pole stands alone, so only it and its nudge are solved point by
        # point, and the stack is still bit for bit the pointwise one
        p = self._pencil(5, 6, False, singular_at=2.0)
        points = np.insert(np.geomspace(0.5, 50.0, 19), 7, 2.0)
        pointwise = [pencils_mod._nudged(lambda t: resolvent(p, t), s) for s in points]
        calls, real = [], pencils_mod._solve_shifted

        def counted(pencil, s, rhs=None):
            if np.ndim(s) == 0:  # a solve point by point, not a stack
                calls.append(s)
            return real(pencil, s, rhs)

        monkeypatch.setattr(pencils_mod, "_solve_shifted", counted)
        assert self._chunk_sizes(p, points) == [20]
        calls.clear()
        R, used = self._sampled(p, points)
        assert calls[0] == 2.0 and len(calls) <= 6
        assert used[7] == 2.0 * 1.01
        for Rj, sj, (ref, at) in zip(R, used, pointwise):
            assert sj == at and np.array_equal(Rj, ref)

    def test_every_resolvent_two_norm_is_one_norm2(self, monkeypatch):
        # every 2-norm of a resolvent stack goes through _norm2, which takes no
        # SVD: on analyze the growth fit's 12 upper-half samples, the expansion
        # bound's 12 grid points and the commutation and shift scales (R, and
        # both sides of the shift identity) at the 20 identity points; verify
        # adds chain_descent's 3 points and resolvent_identity's 4 scales at
        # each of its 3 pairs
        through, stacked = [], []
        norm2, svd = pencils_mod._norm2, np.linalg.svd

        def counted_norm2(R):
            through.extend(R)
            return norm2(R)

        def counted_svd(a, *args, **kwargs):
            if np.ndim(a) == 3:
                stacked.extend(a)
            return svd(a, *args, **kwargs)

        for module in (pencils_mod, laplace_mod, verification_mod):
            monkeypatch.setattr(module, "_norm2", counted_norm2)
        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        on_analyze = 12 + 12 + 3 * len(IDENTITY_POINTS)
        # n = 5; n = 60 with growth 2; n = 50 with E invertible
        for spec in (
            FixtureSpec(3, (2,), 100.0, 5),
            FixtureSpec(55, (3, 2), 100.0, 5),
            FixtureSpec(50, (), 100.0, 5),
        ):
            through.clear()
            stacked.clear()
            analyze_pencil(generate(spec)[0], seed=3)
            assert (len(through), len(stacked)) == (on_analyze, 0)
            through.clear()
            stacked.clear()
            run_suite([spec], seed=3)
            assert (len(through), len(stacked)) == (on_analyze + 3 + 4 * 3, 0)

    @pytest.mark.parametrize("points_per_chunk", [1, 3, 7])
    def test_every_report_equals_the_one_chunk_report(self, monkeypatch, points_per_chunk):
        # 20 identity points, 24 growth points, 12 expansion points and the
        # verify rows' 6 and 3 points split into chunks with remainders
        specs = random_specs(4, (5, 5), (1, 3), seed=2)
        pencils = [generate(spec)[0] for spec in specs]
        reference = [report_to_json(analyze_pencil(p, seed=3)) for p in pencils]
        suite = run_suite(specs, seed=3).to_dict()
        monkeypatch.setattr(pencils_mod, "STACK_ENTRIES", points_per_chunk * 25)
        pencils = [generate(spec)[0] for spec in specs]
        assert [report_to_json(analyze_pencil(p, seed=3)) for p in pencils] == reference
        assert run_suite(specs, seed=3).to_dict() == suite


def norm2_case(seed, n, kind, complex_, exponent):
    """A test matrix for _norm2: n x n, scaled by 10**exponent.

    "gaussian" has clustered top singular values, "rank_one" one nonzero
    value, "equal_top" sigma_1 = sigma_2 = 1 above values of at most 1e-3,
    "dominant" a Gaussian plus a large random term of rank 1 to 3, and
    "block_diagonal" a multiple of the identity beside a rank-one block of
    unimodular entries, rows and columns permuted: the identity's columns
    are the largest, the rank-one block holds sigma_max.
    """
    rng = np.random.default_rng(seed)

    def gaussian(*shape):
        G = rng.standard_normal(shape)
        return G + 1j * rng.standard_normal(shape) if complex_ else G

    if kind == "gaussian":
        X = gaussian(n, n)
    elif kind == "rank_one":
        X = gaussian(n, 1) @ gaussian(1, n)
    elif kind == "equal_top":
        U, V = np.linalg.qr(gaussian(n, n))[0], np.linalg.qr(gaussian(n, n))[0]
        sigma = np.concatenate(([1.0, 1.0], 1e-3 * rng.uniform(0.0, 1.0, n)))[:n]
        X = (U * sigma) @ V.conj().T
    elif kind == "dominant":
        r = int(rng.integers(1, 4))
        X = gaussian(n, n) + 100.0 * gaussian(n, r) @ gaussian(r, n)
    else:
        k = min(4, n // 2)
        m = n - k
        u, v = (gaussian(m, 1) for _ in range(2))
        X = np.zeros((n, n), dtype=u.dtype)
        X[:k, :k] = 1.5 * np.sqrt(m) * np.eye(k)
        X[k:, k:] = (u / np.abs(u)) @ (v / np.abs(v)).conj().T
        X = X[rng.permutation(n)][:, rng.permutation(n)]
    return X * 10.0**exponent


def block_diagonal_pencil(p, q, scale):
    """The pencil (diag(p.E, scale q.E), diag(p.A, scale q.A))."""
    return new_pencil(*(scipy.linalg.block_diag(X, scale * Y) for X, Y in ((p.E, q.E), (p.A, q.A))))


def stokes_pencil(m):
    """The Stokes-like saddle E = diag(I_m, 0_q), A = [[L, B^T], [-B, 0]], q = m/2,
    of the report gate (tools/report_gate.py), n = 3m/2."""
    q, inv_h = m // 2, m + 1
    E = np.diag(np.concatenate((np.ones(m), np.zeros(q))))
    A = np.zeros((m + q, m + q))
    A[:m, :m] = inv_h**2 * (2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1))
    for i in range(q):
        A[2 * i, m + i], A[2 * i + 1, m + i] = inv_h, -inv_h
    A[m:, :m] = -A[:m, m:].T
    return new_pencil(E, A)


# the least _norm2 / sigma_max measured was 0.760 on 62,000 norm2_case
# matrices drawn like TestNorm2's (kind, size, exponent, real or complex;
# "gaussian" lowest, then "dominant" 0.812 and "block_diagonal" 0.866),
# 0.752 on 60,000 more of the two lowest kinds at n = 47 to 96, and 0.911
# on the Stokes saddles at m = 16 to 128; NORM2_FLOOR keeps a margin under all
NORM2_FLOOR = 0.7


def assert_in_norm2_bracket(X, est):
    """largest column norm <= est <= sigma_max, and est >= NORM2_FLOOR sigma_max,
    for the matrix or stack X, up to 1e-12 relative."""
    svd = np.linalg.svd(X, compute_uv=False)[..., 0]
    peak = np.abs(X).max(axis=(-2, -1), keepdims=True)
    columns = np.linalg.norm(X / np.where(peak == 0.0, 1.0, peak), axis=-2).max(axis=-1)
    column = peak[..., 0, 0] * columns
    assert np.all(column * (1.0 - 1e-12) <= est)
    assert np.all(est <= svd * (1.0 + 1e-12))
    assert np.all(est >= NORM2_FLOOR * svd)


class TestNorm2:
    """pencils._norm2: a power-step lower bound on each sigma_max, no SVD."""

    norm2_cases = given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([1, 2, 5, 47, 48, 64, 96]),
        kind=st.sampled_from(["gaussian", "rank_one", "equal_top", "dominant", "block_diagonal"]),
        complex_=st.booleans(),
        exponent=st.sampled_from([-150, 0, 150]),
    )

    @settings(max_examples=80, deadline=None)
    @norm2_cases
    def test_within_the_svd_bracket(self, seed, n, kind, complex_, exponent):
        X = norm2_case(seed, n, kind, complex_, exponent)
        assert_in_norm2_bracket(X, pencils_mod._norm2(X[None])[0])

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
        exponent=st.integers(-150, 150),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_lower_bound_holds_at_every_magnitude(self, shape, exponent, seed):
        # non-square 2-D input, one matrix without a stack axis
        X = np.random.default_rng(seed).standard_normal(shape) * 10.0**exponent
        assert_in_norm2_bracket(X, pencils_mod._norm2(X))

    @settings(max_examples=40, deadline=None)
    @norm2_cases
    def test_bit_identical_alone_or_in_any_stack(self, seed, n, kind, complex_, exponent):
        # _norm2 and _frobenius alike; the other matrices of a stack take the
        # other branch or the same one, or hold inf and NaN, as the identity
        # checks' shift side I/s - R A/s does at s = 0
        X = norm2_case(seed, n, kind, complex_, exponent)
        others = [norm2_case(seed + 1, n, other, complex_, 0) for other in ("gaussian", "rank_one")]
        with np.errstate(divide="ignore", invalid="ignore"):
            blown = [np.eye(n) / 0.0 - others[0] / 0.0, np.full_like(X, np.nan)]
            for norm in (pencils_mod._norm2, pencils_mod._frobenius):
                alone = norm(X[None])[0]
                for before, after in (
                    (others[:1], []),
                    ([], others[::-1]),
                    (others[1:] * 2, []),
                    (blown[:1], blown[1:]),
                ):
                    stack = np.array([*before, X, *after])
                    assert norm(stack)[len(before)] == alone

    @staticmethod
    def assert_no_svd(cases, matrix_norm2_calls):
        matrix_norm2_calls.clear()
        for X in cases:
            pencils_mod._norm2(X[None])
            pencils_mod._norm2(np.array([X, 2.0 * X]))
        assert matrix_norm2_calls == []

    def test_separated_top_values_take_no_svd(self, matrix_norm2_calls):
        cases = [
            norm2_case(1, n, kind, False, 0)
            for n in (48, 64)
            for kind in ("rank_one", "dominant", "block_diagonal")
        ]
        self.assert_no_svd(cases, matrix_norm2_calls)

    def test_clustered_and_small_matrices_take_no_svd(self, matrix_norm2_calls):
        # clustered top values at every size, and every kind below 48 columns
        clustered = [norm2_case(1, n, kind, False, 0) for n in (48, 64) for kind in ("gaussian", "equal_top")]
        small = [
            norm2_case(1, n, kind, False, 0)
            for n in (1, 5, 47)
            for kind in ("gaussian", "rank_one", "equal_top", "dominant", "block_diagonal")
        ]
        self.assert_no_svd(clustered + small, matrix_norm2_calls)

    def test_top_value_outside_the_largest_columns(self):
        # the largest columns span e_0..e_3, an invariant subspace of X^H X at
        # sigma = 10; stepped from the largest column alone, the estimate stays
        # there.  The random start vector reaches sigma_max = 44.
        X = np.zeros((48, 48))
        X[:4, :4] = 10.0 * np.eye(4)
        X[4:, 4:] = 1.0
        est = pencils_mod._norm2(X[None])[0]
        assert 0.99 * 44.0 <= est <= 44.0 * (1.0 + 1e-12)

    @pytest.mark.parametrize(
        "pencil",
        [
            stokes_pencil(64),
            block_diagonal_pencil(
                generate(FixtureSpec(57, (3,), 100.0, 8))[0],
                generate(FixtureSpec(48, (2,), 100.0, 9))[0],
                1e3,
            ),
        ],
        ids=["stokes_m64", "block_diagonal"],
    )
    def test_structured_resolvents_within_the_svd_bracket(self, pencil):
        # the growth fit's and the expansion bound's grids on structured pencils
        points = np.concatenate((pencils_mod.GROWTH_GRID[12:], np.geomspace(1e3, 1e6, 12)))
        R, _ = pencils_mod._sampled(pencil, points, lambda R, s: R)
        assert_in_norm2_bracket(R, pencils_mod._norm2(R))

    def test_zero_and_empty_stacks(self):
        assert pencils_mod._norm2(np.zeros((2, 64, 64))).tolist() == [0.0, 0.0]
        assert pencils_mod._norm2(np.zeros((0, 64, 64))).shape == (0,)

    def test_zero_matrix_gives_zero_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pencils_mod._norm2(np.zeros((3, 3))) == 0.0
            assert pencils_mod._norm2(np.zeros((2, 2), dtype=complex)) == 0.0


class TestNorm2Verdicts:
    """analyze_pencil decides as it would with the exact 2-norm in _norm2."""

    @pytest.mark.parametrize(
        "pencil",
        [
            generate(FixtureSpec(50, (), 100.0, 31))[0],
            generate(FixtureSpec(60, (), 100.0, 32))[0],
            generate(FixtureSpec(60, (1, 1), 100.0, 33))[0],
            generate(FixtureSpec(50, (2, 2), 100.0, 36))[0],
            generate(FixtureSpec(55, (3, 2), 100.0, 5))[0],
            stokes_pencil(32),
        ],
        ids=["invertible_E_n50", "invertible_E_n60", "growth0_n62", "growth1_n54", "growth2_n60",
             "stokes_m32"],
    )
    def test_same_verdicts_as_the_exact_two_norm(self, monkeypatch, pencil):
        shipped = analyze_pencil(pencil, seed=1)
        for module in (pencils_mod, laplace_mod):
            monkeypatch.setattr(module, "_norm2", lambda R: np.linalg.svd(R, compute_uv=False)[..., 0])
        exact = analyze_pencil(new_pencil(pencil.E, pencil.A), seed=1)
        got, ref = shipped.index_growth, exact.index_growth
        assert (got["k"], got["confident"]) == (ref["k"], ref["confident"])
        dropped = [g["diagnostics"].get("samples_dropped") for g in (got, ref)]
        assert dropped[0] == dropped[1]
        assert abs(got["diagnostics"]["slope"] - ref["diagnostics"]["slope"]) <= 0.02
        checks = [(c["identity"], c["passed"]) for c in shipped.identity_checks]
        assert checks == [(c["identity"], c["passed"]) for c in exact.identity_checks]
        # a lower bound on ||R|| only raises the expansion constant C
        (C,), (C_exact,) = (
            [c["max_relative_error"] for c in r.identity_checks if c["identity"] == "expansion_e"]
            for r in (shipped, exact)
        )
        assert C >= C_exact * (1.0 - 1e-12)


class TestIndexByGrowth:
    def test_index_zero(self):
        est = index_by_growth(new_pencil(np.eye(2), np.eye(2)))
        assert est.k == 0 and est.confident
        # resolvent is I/(s+1): slope -1 up to the 1/s correction of the +1
        assert est.diagnostics["slope"] == pytest.approx(-1.0, abs=1e-4)

    def test_index_one(self):
        est = index_by_growth(new_pencil(N2, np.eye(2)))
        assert est.k == 1 and est.confident

    def test_index_two(self):
        est = index_by_growth(new_pencil(N3, np.eye(3)))
        assert est.k == 2 and est.confident
        assert est.method == "growth"

    def test_not_regular_raises(self):
        M = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(NotRegularError):
            index_by_growth(new_pencil(M, M))

    def test_constant_resolvent(self):
        est = index_by_growth(new_pencil(np.zeros((2, 2)), np.eye(2)))
        assert est.k == 0 and est.confident

    @staticmethod
    def _singular_between(monkeypatch, lo, hi):
        """Make sN2 + I (its (0, 1) entry is s) singular for lo <= s <= hi.

        A stack holding such a matrix raises, as LAPACK does on an exact zero
        pivot, so the sampling falls back to its per-point nudged solves.
        """
        real = np.linalg.solve

        def patched(a, b):
            if np.any((lo <= np.abs(a[..., 0, 1])) & (np.abs(a[..., 0, 1]) <= hi)):
                raise np.linalg.LinAlgError("Singular matrix")
            return real(a, b)

        monkeypatch.setattr(np.linalg, "solve", patched)

    def test_saturated_sample_is_dropped(self, monkeypatch):
        # the top grid point s = 1e7 and its nudges fail: the fit keeps the
        # other 11 upper points and s_range ends at the last point used
        self._singular_between(monkeypatch, 9e6, np.inf)
        est = index_by_growth(new_pencil(N2, np.eye(2)))
        assert est.k == 1 and not est.confident
        assert est.diagnostics["samples_dropped"] == 1
        assert est.diagnostics["points_fitted"] == 11
        assert est.diagnostics["s_range"][1] == pytest.approx(np.geomspace(1e2, 1e7, 24)[-2])

    def test_no_drop_keeps_diagnostic_keys(self):
        est = index_by_growth(new_pencil(N2, np.eye(2)))
        assert "samples_dropped" not in est.diagnostics
        assert est.diagnostics["s_range"] == (1e2, pytest.approx(1e7))

    def test_lower_half_sample_is_dropped(self, monkeypatch):
        # s = 1e2 and its five nudges (up to 105.1) fail; the fit is untouched
        self._singular_between(monkeypatch, 50.0, 106.0)
        est = index_by_growth(new_pencil(N2, np.eye(2)))
        assert est.k == 1 and not est.confident
        assert est.diagnostics["samples_dropped"] == 1
        assert est.diagnostics["points_fitted"] == 12
        assert est.diagnostics["s_range"][0] == np.geomspace(1e2, 1e7, 24)[1]

    def test_lower_half_is_probed_with_one_column(self, monkeypatch):
        # s = 1e2 stays singular through its five nudges: it is dropped and
        # counted, and every lower-half solve, nudges included, has one column
        self._singular_between(monkeypatch, 50.0, 106.0)
        columns, real = {}, pencils_mod._solve_shifted

        def recorded(pencil, s, rhs=None):
            for point in np.atleast_1d(s):
                width = pencil.n if rhs is None else rhs.shape[-1]
                columns.setdefault(float(point), set()).add(width)
            return real(pencil, s, rhs)

        monkeypatch.setattr(pencils_mod, "_solve_shifted", recorded)
        est = index_by_growth(new_pencil(N3, np.eye(3)))
        assert est.diagnostics["samples_dropped"] == 1 and not est.confident
        lower, upper = np.split(np.geomspace(1e2, 1e7, 24), 2)
        nudges = [1e2]
        for _ in range(5):
            nudges.append(nudges[-1] * 1.01)
        assert sorted(columns) == sorted([*nudges, *lower[1:], *upper])
        assert all(columns[s] == {1} for s in [*nudges, *lower[1:]])
        assert all(columns[s] == {3} for s in upper)

    @pytest.mark.parametrize("first", [True, False], ids=["overflow_first", "overflow_last"])
    def test_lower_half_drops_where_the_resolvent_overflows(self, first):
        # block-diagonal: 1/(s 1e-311) overflows for s below about 556, so the
        # lower half's four points up to 449 (and their nudges) are dropped by
        # the probe wherever the overflowing block sits, as they are by the
        # full inverse; regular, since the other block lifts det(sE + A)
        blocks = [new_pencil([[1e-311]], [[0.0]]), new_pencil(1e150 * N2, 1e150 * np.eye(2))]
        if not first:
            blocks.reverse()
        pencil = block_diagonal_pencil(*blocks, 1.0)

        def full_inverse_drops(s):
            try:
                pencils_mod._nudged(lambda t: resolvent(pencil, t), s)
            except SingularMatrixError:
                return True
            return False

        lower = np.geomspace(1e2, 1e7, 24)[:12]
        est = index_by_growth(pencil)
        assert est.diagnostics["samples_dropped"] == sum(map(full_inverse_drops, lower)) == 4
        assert not est.confident
        assert est.diagnostics["s_range"][0] == lower[4]

    def test_two_norms_only_for_the_fitted_half(self, monkeypatch):
        calls = count_calls(monkeypatch, pencils_mod, "_norm2")
        est = index_by_growth(new_pencil(N3, np.eye(3)))
        matrices = sum(len(R) for (R,) in calls)
        assert matrices == 24 - 24 // 2 == est.diagnostics["points_fitted"]

    def test_too_few_samples_left_raises(self, monkeypatch):
        self._singular_between(monkeypatch, 1e3, np.inf)
        with pytest.raises(SingularMatrixError):
            index_by_growth(new_pencil(N2, np.eye(2)))


class TestIndexByNilpotency:
    def test_invertible_E(self):
        rng = np.random.default_rng(3)
        est = index_by_nilpotency(new_pencil(np.eye(4), rng.standard_normal((4, 4))))
        assert est.k == 0 and est.diagnostics["nilpotency"] == 0

    def test_single_jordan_block(self):
        est = index_by_nilpotency(new_pencil(N2, np.eye(2)))
        assert est.k == 1
        assert est.diagnostics["kernel_dims"] == [0, 1, 2, 2]

    def test_zero_E(self):
        est = index_by_nilpotency(new_pencil(np.zeros((2, 2)), np.eye(2)))
        assert est.k == 0 and est.diagnostics["nilpotency"] == 1

    def test_reads_the_kept_certificate(self):
        p = new_pencil(N3, np.eye(3))
        certify_regularity(p, 3)
        est = index_by_nilpotency(p)
        assert est.k == 2
        assert est.diagnostics == {"kernel_dims": [0, 1, 2, 3, 3], "nilpotency": 3}
        assert [key for key in p._cache if key[0] == "certificate"] == [("certificate", 3)]

    def test_not_regular_raises(self):
        M = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(NotRegularError):
            index_by_nilpotency(new_pencil(M, M))


class TestCachedArtifacts:
    def test_second_call_returns_same_object(self):
        p, _ = generate(FixtureSpec(2, (3,), seed=12))
        assert certify_regularity(p, 4) is certify_regularity(p, 4)
        assert certify_regularity(p, 4) is not certify_regularity(p, 5)
        assert p.norm_E == np.linalg.norm(p.E, 2)
        assert p.norm_A == np.linalg.norm(p.A, 2)

    def test_index_routes_share_one_certificate(self, monkeypatch):
        calls = []
        real = pencils_mod._certify
        monkeypatch.setattr(
            pencils_mod, "_certify", lambda p, seed: calls.append(seed) or real(p, seed)
        )
        p = new_pencil(N3, np.eye(3))
        index_by_growth(p)
        index_by_nilpotency(p)
        fitting_splitting(p)
        assert calls == [0]

    def test_growth_route_reuses_a_kept_certificate(self, monkeypatch):
        calls = []
        real = pencils_mod._certify
        monkeypatch.setattr(
            pencils_mod, "_certify", lambda p, seed: calls.append(seed) or real(p, seed)
        )
        p = new_pencil(N3, np.eye(3))
        certify_regularity(p, 5)
        index_by_growth(p)
        assert calls == [5]

    def test_build_analysis_keeps_one_certificate(self):
        # the routes after it read the analysis' certificate; they build none
        p, _ = generate(FixtureSpec(4, (3, 1), seed=12))
        build_analysis(p, seed=7)
        index_by_nilpotency(p)
        fitting_splitting(p)
        assert [key for key in p._cache if key[0] == "certificate"] == [("certificate", 7)]

    def test_equal_pencils_compare_by_value(self):
        p = new_pencil(N3, np.eye(3))
        assert p == new_pencil(N3.copy(), np.eye(3))
        assert p != new_pencil(N3, 2.0 * np.eye(3))
        assert p != new_pencil(np.eye(2), np.eye(2))


class TestResolventIdentity:
    def test_on_random_pencils(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            p = random_regular_pencil(rng, n)
            s, t = rng.uniform(0.5, 60.0, size=2)
            try:
                Rs, Rt = resolvent(p, s), resolvent(p, t)
            except SingularMatrixError:
                continue
            lhs = Rs - Rt
            rhs = (t - s) * (Rs @ (p.E @ Rt))
            scale = max(np.linalg.norm(lhs, 2), np.linalg.norm(rhs, 2), 1e-300)
            assert np.linalg.norm(lhs - rhs, 2) / scale <= 1e-9

    def test_growth_and_nilpotency_agree_for_invertible_E(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            E = rng.standard_normal((n, n)) + n * np.eye(n)
            p = new_pencil(E, rng.standard_normal((n, n)))
            assert index_by_growth(p).k == 0
            assert index_by_nilpotency(p).k == 0
