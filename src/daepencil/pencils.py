"""Linear matrix pencils (E, A): validation, regularity, resolvents, index.

The pencil s -> sE + A is regular when det(sE + A) is not identically zero.
Two independent index estimators live here: resolvent-growth sampling on the
positive real axis and the kernel-chain (nilpotency) route through a single
resolvent of the pencil.  A third route via the IV chain is in `chains`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .exceptions import (
    DaePencilError,
    NonFiniteEntriesError,
    NotRegularError,
    ShapeMismatchError,
    SingularMatrixError,
)
from .rng import make_rng
from .subspaces import RankTolerance, _monotone_chain, preimage, zero_space

__all__ = [
    "Pencil",
    "RegularityCertificate",
    "IndexEstimate",
    "new_pencil",
    "certify_regularity",
    "resolvent",
    "index_by_growth",
    "index_by_nilpotency",
]

# |det| at or below DET_ZERO counts as an exact zero of the degree-<=n
# polynomial; TINY floors every scale that a relative error divides by
DET_ZERO = 1e-300
TINY = 1e-300

# fractional parts of the fitted growth slope in this band are ambiguous
SLOPE_AMBIGUOUS = (0.35, 0.65)

# rms residual of the log-log fit above which the power law is not trusted;
# saturated or pole-polluted samples show residuals well above this
SLOPE_RMS_MAX = 0.1

# sample points of index_by_growth; the fit reads the upper half
GROWTH_GRID = tuple(np.geomspace(1e2, 1e7, 24))

# matrix entries per stacked solve of _sampled: max(1, STACK_ENTRIES // n^2)
# sample points per chunk (a whole small-pencil grid, one point at n = 160)
STACK_ENTRIES = 2**15

# _norm2's block Rayleigh-Ritz estimate of sigma_max, measured with one BLAS
# thread on the resolvents of 48 or more columns whose 2-norm analyze_pencil
# takes: 2,856 on the analyze-large pencils of bench seeds 29, 41, 53 and on
# random_specs(100, (40, 160), (0, 4), seed=11), where the constants were
# chosen, and 3,192 on seeds 61, 73, 89, on random_specs seed=13 and on
# Stokes-like saddles and block-diagonal pencils, where they were checked.
# Below NORM2_MIN_N columns the SVD is about as fast as one round or faster
# (medians of 1,500 calls: SVD 57-97 us at n = 24-32 and 128-186 us at
# n = 40-48, a round 70-110 us at any of these sizes).  A block of
# NORM2_BLOCK vectors separates the clustered top values of pencils with
# several equal nilpotent blocks.  A matrix stops when its top Ritz pair's
# residual is at most NORM2_STOP times the Ritz value: every matrix that
# converged within 12 rounds did so within NORM2_ROUNDS.  Where the block's
# smallest Ritz value is above NORM2_CLUSTER times its largest, the SVD
# decides at once: every matrix that converged read 0.45 or less after its
# first round (0.005 or less out of sample), and 624 of the 696 that fell
# back stopped after one round, none of them one that would have converged.
# The computed Ritz value exceeded the SVD's by up to 4.8 eps, so it is
# shaded down by NORM2_SHADE to stay a lower bound.
NORM2_MIN_N = 48
NORM2_BLOCK = 4
NORM2_ROUNDS = 3
NORM2_STOP = 1e-13
NORM2_CLUSTER = 0.5
NORM2_SHADE = 8 * np.finfo(float).eps


def _cached(owner, key, build):
    """owner's artifact under key, built by build() on first use and kept.

    Owners are frozen values over read-only arrays (a Pencil from new_pencil,
    an IvChain from compute_chain), so a kept artifact cannot go stale.  A
    build that fails with a DaePencilError is kept too: every later call
    raises that error again instead of building once more.
    """
    if key not in owner._cache:
        try:
            owner._cache[key] = build()
        except DaePencilError as exc:
            owner._cache[key] = exc
            raise
    kept = owner._cache[key]
    if isinstance(kept, DaePencilError):
        raise kept.with_traceback(None)  # not the traceback of an earlier raise
    return kept


@dataclass(frozen=True)
class Pencil:
    """Validated pair of same-size square matrices over a common scalar field.

    Build it with new_pencil, which makes both arrays read-only; the
    per-pencil artifacts (norms, certificates, shifts, splittings) are then
    computed once and kept on the pencil.  Pencils compare by value.
    """

    E: np.ndarray
    A: np.ndarray
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.E.shape[0]

    @cached_property
    def norm_E(self) -> float:
        """||E||_2."""
        return float(np.linalg.norm(self.E, 2))

    @cached_property
    def norm_A(self) -> float:
        """||A||_2."""
        return float(np.linalg.norm(self.A, 2))

    def __eq__(self, other):
        if not isinstance(other, Pencil):
            return NotImplemented
        return np.array_equal(self.E, other.E) and np.array_equal(self.A, other.A)

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.E)

    def __repr__(self):
        kind = "complex" if self.is_complex else "real"
        return f"Pencil(n={self.n}, {kind})"


def new_pencil(E, A) -> Pencil:
    """Validate and freeze a pencil.

    Both matrices must be square, of equal size, at least 1 x 1, with finite
    entries.  Real input stays real; complex input promotes both to complex.
    """
    E = np.atleast_2d(np.asarray(E))
    A = np.atleast_2d(np.asarray(A))
    for name, M in (("E", E), ("A", A)):
        if M.ndim != 2 or M.shape[0] != M.shape[1] or M.size == 0:
            raise ShapeMismatchError(f"{name} must be square and nonempty, got shape {M.shape}")
    if E.shape != A.shape:
        raise ShapeMismatchError(f"size mismatch: E is {E.shape}, A is {A.shape}")
    dtype = complex if (np.iscomplexobj(E) or np.iscomplexobj(A)) else float
    E = E.astype(dtype)
    A = A.astype(dtype)
    for name, M in (("E", E), ("A", A)):
        if not np.all(np.isfinite(M)):
            raise NonFiniteEntriesError(f"{name} contains non-finite entries")
    E.setflags(write=False)
    A.setflags(write=False)
    return Pencil(E, A)


@dataclass(frozen=True)
class RegularityCertificate:
    """Outcome of sampling det(sE + A) at n+1 distinct points, in order.

    Since s -> det(sE + A) is a polynomial of degree at most n, it vanishes
    identically iff it vanishes at all n+1 points; `regular` is therefore an
    exact decision up to the DET_ZERO floor.  `determinant_values` holds the
    evaluated prefix of the points, ending at the witness when there is one.
    """

    regular: bool
    sample_points: tuple
    determinant_values: tuple
    witness: complex | None


def certify_regularity(pencil: Pencil, seed: int = 0) -> RegularityCertificate:
    """Sample det(sE + A) on a circle of radius 1 + ||E||_F + ||A||_F.

    Computed once per (pencil, seed) and kept on the pencil.  The n+1 angles
    are equally spaced with a seed-dependent rotation, which keeps the
    verdict seed-independent while avoiding any fixed unlucky alignment of
    sample points with determinant roots.  Evaluation stops at the first
    nonzero value: usually one det for a regular pencil, n+1 for a singular.

    The zero test is the absolute floor DET_ZERO, so it recognizes pencils
    whose determinant collapses to an exact floating-point zero (structural
    zero rows/columns and the like).  A pencil that is singular only
    analytically can evaluate to roundoff-level determinants and be certified
    regular; that is consistent with treating the stored floats as the pencil.
    """
    return _cached(pencil, ("certificate", seed), lambda: _certify(pencil, seed))


def _certify(pencil, seed):
    n = pencil.n
    radius = 1.0 + float(np.linalg.norm(pencil.E)) + float(np.linalg.norm(pencil.A))
    phase = make_rng(seed).uniform(0.0, 2.0 * np.pi)
    angles = phase + 2.0 * np.pi * np.arange(n + 1) / (n + 1)
    points = radius * np.exp(1j * angles)
    values, witness = [], None
    for s in points:
        with np.errstate(over="ignore"):  # an overflow to inf is a witness all the same
            values.append(complex(np.linalg.det(s * pencil.E + pencil.A)))
        if not np.isnan(values[-1]) and abs(values[-1]) > DET_ZERO:
            witness = complex(s)
            break
    return RegularityCertificate(
        regular=witness is not None,
        sample_points=tuple(map(complex, points)),
        determinant_values=tuple(values),
        witness=witness,
    )


def resolvent(pencil: Pencil, s):
    """(sE + A)^{-1} by a pivoted dense solve.

    Raises SingularMatrixError when sE + A is numerically singular, i.e.
    s lies outside the resolvent set.
    """
    return _solve_shifted(pencil, s)


def _solve_shifted(pencil: Pencil, s, rhs=None):
    """X with (sE + A) X = rhs (the identity when None), for one shift s or a
    1-d array of shifts, stacked along X's first axis in one solve; R(s) v
    needs no full inverse.  Real shifts on a real pencil are solved in real
    arithmetic, any other in complex; off the resolvent set SingularMatrixError."""
    s = np.asarray(s, dtype=complex)
    if not (pencil.is_complex or np.any(s.imag)):
        s = s.real
    M = s[..., None, None] * pencil.E + pencil.A
    if rhs is None:
        rhs = np.broadcast_to(np.eye(pencil.n, dtype=M.dtype), M.shape)
    return _solve(M, rhs, "sE + A", "s", s)


def _solve(M, rhs, name, symbol, value):
    """np.linalg.solve(M, rhs) for M = name at symbol = value, raising
    SingularMatrixError where LAPACK refuses or leaves a non-finite entry: the
    one singular rule of every resolvent sample and of implicit Euler's E/h + A."""
    try:
        X = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        kind = "singular"
    else:
        if np.all(np.isfinite(X)):
            return X
        kind = "numerically singular"
    raise SingularMatrixError(f"{name} is {kind} at {symbol} = {np.asarray(value).tolist()}")


@dataclass(frozen=True)
class IndexEstimate:
    """An estimate of the resolvent-growth index by one of three routes."""

    k: int
    method: str  # "growth" | "ivchain" | "nilpotency"
    confident: bool
    diagnostics: dict = field(default_factory=dict)


def _nudged(solve, x):
    """(solve(x), x) at the first of x, 1.01 x, ..., 1.01^5 x where solve raises no
    SingularMatrixError, else its error: the rule of every resolvent, s0 and Euler h."""
    for _ in range(5):
        try:
            return solve(x), x
        except SingularMatrixError:
            x = x * 1.01
    return solve(x), x


def _sampled(pencil, points, f, drop=False, rhs=None):
    """(values, used): f(X, s) of every chunk of points, concatenated, where
    X[j] = (s[j] E + A)^{-1} rhs (the resolvent itself when rhs is None) and
    used, like s, holds where each was taken.

    A chunk holds at most STACK_ENTRIES matrix entries (one point at least)
    and takes one stacked solve (_stack), whose slices are bit for bit the
    solve of each point.  A point still singular after its nudges raises
    its SingularMatrixError or, with drop, is left out of f's chunk and reads
    NaN in used.  This is the one loop over resolvent chunks.
    """
    points = np.asarray(points, dtype=complex if np.iscomplexobj(points) else float)
    step = max(1, STACK_ENTRIES // pencil.n**2)
    values, used = [], []
    for lo in range(0, points.size or 1, step):  # an empty grid is one empty chunk
        s = points[lo : lo + step].copy()
        # _stack writes the points used into s before f reads them; the chunk's
        # stack is freed before the next one is solved
        values.append(f(_stack(pencil, s, drop, rhs), s[~np.isnan(s)]))
        used.append(s)
    return np.concatenate(values), np.concatenate(used)


def _stack(pencil, s, drop, rhs):
    """X[j] = (s[j] E + A)^{-1} rhs by one stacked solve.  A failing stack is
    halved until its failing points stand alone; only those go through
    _nudged, which writes where it solved into s, or NaN for a point dropped
    after its nudges, whose slice is left out of X."""
    try:
        return _solve_shifted(pencil, s, rhs)
    except SingularMatrixError:
        if s.size > 1:
            half = s.size // 2
            return np.concatenate(
                (_stack(pencil, s[:half], drop, rhs), _stack(pencil, s[half:], drop, rhs))
            )
    try:
        X, s[0] = _nudged(lambda t: _solve_shifted(pencil, t, rhs), s[0])
    except SingularMatrixError:
        if not drop:
            raise
        s[0] = np.nan
        return np.empty((0, pencil.n, pencil.n if rhs is None else rhs.shape[-1]))
    return X[None]


def _norm2(R):
    """||R[j]||_2, the largest singular value, of each matrix of the stack R.

    A matrix of NORM2_MIN_N columns or more takes the block Rayleigh-Ritz
    estimate of _ritz_norm2; one below that size, or on which the estimate
    gives up, takes the SVD, all such matrices of R in one stacked call.  An
    estimate is a lower bound, within 1e-12 relative of the SVD's value on
    every matrix measured (see NORM2_MIN_N); that it finds the largest value
    and not a lower one rests on _ritz_norm2's random start.  A shortfall can
    only raise the expansion constant C, never pass it.  Each
    matrix is decided on its own, so its value is bit for bit the same alone
    or in any stack.
    """
    if R.shape[-1] < NORM2_MIN_N:
        return np.linalg.svd(R, compute_uv=False)[:, 0]
    norms = np.array([_ritz_norm2(X) for X in R], dtype=float)
    svd = np.isnan(norms)
    if svd.any():
        norms[svd] = np.linalg.svd(R[svd], compute_uv=False)[:, 0]
    return norms


def _ritz_norm2(X):
    """sigma_max(X) by block Rayleigh-Ritz on X, or NaN where the SVD must decide.

    X is scaled by its largest entry, so that no square over- or underflows.
    The block starts as X^H times X's NORM2_BLOCK - 1 largest columns and X
    times a fixed random vector (_random_start): the columns make the common
    case converge in one round, and the random vector gives the block a part
    along the top right singular vector even where the largest columns have
    none, as in a block-diagonal matrix whose largest columns lie in a block
    of lower norm.  Each round orthonormalizes the block to Q, takes the SVD
    of the n x NORM2_BLOCK matrix X Q, whose largest value theta (the Ritz
    value, at most sigma_max) has the left vector u and the right vector v,
    and continues with X^H times the left vectors.  It stops with theta once
    ||X^H u - theta v|| <= NORM2_STOP theta.  A small residual puts theta
    next to some singular value; that it is the largest rests on the random
    start (Kuczynski and Wozniakowski, SIAM J. Matrix Anal. Appl. 13(4),
    1992).  It gives up when the block's Ritz values are clustered or after
    NORM2_ROUNDS rounds.
    """
    peak = np.abs(X).max()
    if peak == 0.0:
        return 0.0
    X = X / peak
    XH = X.conj().T
    largest = np.argsort(np.einsum("ij,ij->j", X.conj(), X).real)[1 - NORM2_BLOCK :]
    block = XH @ np.column_stack((X[:, largest], X @ _random_start(X.shape[1])))
    for _ in range(NORM2_ROUNDS):
        Q = np.linalg.qr(block)[0]
        U, ritz, Vh = np.linalg.svd(X @ Q, full_matrices=False)
        block = XH @ U
        if np.linalg.norm(block[:, 0] - ritz[0] * (Q @ Vh[0].conj())) <= NORM2_STOP * ritz[0]:
            return peak * ritz[0] * (1.0 - NORM2_SHADE)
        if ritz[-1] > NORM2_CLUSTER * ritz[0]:
            break
    return np.nan


@lru_cache(maxsize=None)
def _random_start(n):
    """The random start vector of _ritz_norm2 at n columns, the same on every call."""
    g = make_rng(0).standard_normal(n)
    g.setflags(write=False)
    return g


def index_by_growth(pencil: Pencil) -> IndexEstimate:
    """Index from the slope of log ||(sE+A)^{-1}|| against log s.

    Samples GROWTH_GRID on the positive real axis by stacked solves and
    fits a least squares line over the upper half, the only samples whose
    2-norm is taken (by _norm2).  The index is the slope rounded to the
    nearest integer, halves up, clamped at zero.  The estimate is not
    confident when the slope's fractional part is ambiguous or the fit
    residual is large (the latter happens when floating-point saturation of
    the stored pencil caps the observable growth of high-index problems).  A
    sample that stays singular after its nudges, in either half, is
    saturated outright: it is dropped (counted in samples_dropped) and the
    estimate is not confident.  The lower half is solved for one column
    only, (sE + A)^{-1} times the all-ones vector, under the same singular
    rule and nudges: LAPACK refuses an exactly singular sE + A whatever the
    right-hand side, but the non-finite test reads that one column, so a
    lower-half point is dropped where the probe column overflows, not where
    some other column of the inverse would.  Raises SingularMatrixError only
    when fewer than two upper-half samples remain.
    """
    # the verdict is seed-independent, so any certificate kept on the pencil will do
    kept = (c for key, c in pencil._cache.items() if key[0] == "certificate")
    if not (next(kept, None) or certify_regularity(pencil)).regular:
        raise NotRegularError("growth sampling needs a regular pencil")

    half = len(GROWTH_GRID) // 2
    # the lower half is only probed for poles, one dense column of each resolvent
    probe = np.ones((pencil.n, 1))
    lower, _ = _sampled(pencil, GROWTH_GRID[:half], lambda X, s: s, drop=True, rhs=probe)
    norms, upper = _sampled(pencil, GROWTH_GRID[half:], lambda R, s: _norm2(R), drop=True)
    upper = upper[~np.isnan(upper)]
    if upper.size < 2:
        raise SingularMatrixError(f"only {upper.size} resolvent samples left to fit a line")
    logs = np.log(upper)
    logn = np.log(norms)
    (slope, intercept), res = np.polyfit(logs, logn, 1, full=True)[:2]
    rms = float(np.sqrt(res[0] / logs.size)) if res.size else 0.0

    k = max(math.floor(slope + 0.5), 0)
    frac = float(slope - math.floor(slope))
    sampled = np.concatenate((lower, upper))
    dropped = len(GROWTH_GRID) - sampled.size
    confident = not (SLOPE_AMBIGUOUS[0] <= frac <= SLOPE_AMBIGUOUS[1])
    confident = confident and rms <= SLOPE_RMS_MAX and not dropped
    diagnostics = {
        "slope": float(slope),
        "intercept": float(intercept),
        "fit_residual": rms,
        "points_fitted": int(logs.size),
        "s_range": (float(sampled[0]), float(sampled[-1])),
    }
    if dropped:
        diagnostics["samples_dropped"] = dropped
    return IndexEstimate(k=k, method="growth", confident=confident, diagnostics=diagnostics)


def _shifted_kernels(pencil: Pencil, seed: int):
    """(s0, F, ||F||_2, kernels) for the seed-derived shift, kept on the pencil.

    s0 is drawn from [1, 2] and nudged off singular points like any other
    resolvent sample; F = (s0 E + A)^{-1} E is read-only.  kernels is
    ker F^0 = {0} <= ker F <= ker F^2 <= ..., computed by iterated preimages
    rather than explicit powers of F (which keeps every rank decision at the
    scale of F itself), while the dimensions strictly rise
    (subspaces._monotone_chain): the last kernel repeats (or reverses) the
    dimension, so kernels[-2] is the stabilized one.  Both the nilpotency
    index and the Fitting splitting read it.
    """

    def build():
        s0 = float(make_rng(seed).uniform(1.0, 2.0))
        R, s0 = _nudged(lambda s: resolvent(pencil, s), s0)
        F = R @ pencil.E
        F.setflags(write=False)
        norm_F = float(np.linalg.norm(F, 2))
        kernels = _monotone_chain(
            lambda K: preimage(F, K, norm_F), zero_space(pencil.n, RankTolerance())
        )
        return s0, F, norm_F, tuple(kernels)

    return _cached(pencil, ("shift", seed), build)


def index_by_nilpotency(pencil: Pencil, seed: int = 0) -> IndexEstimate:
    """Index from the kernel chain of F = (s0 E + A)^{-1} E.

    The chain ker F^0 = {0} <= ker F <= ker F^2 <= ... (see _shifted_kernels)
    stabilizes at step nu, the nilpotency degree of the eigenvalue-zero part
    of F.  The nilpotent part contributes resolvent growth |s|^(nu-1) while
    the invertible part decays, so the growth index is max(nu - 1, 0).
    """
    if not certify_regularity(pencil, seed).regular:
        raise NotRegularError("the kernel-chain oracle needs a regular pencil")
    s0, _, _, kernels = _shifted_kernels(pencil, seed)
    nu = len(kernels) - 2
    return IndexEstimate(
        k=max(nu - 1, 0),
        method="nilpotency",
        confident=True,
        diagnostics={"kernel_dims": [K.dim for K in kernels], "shift": s0, "nilpotency": nu},
    )
