"""Linear matrix pencils (E, A): validation, regularity, resolvents, index.

The pencil s -> sE + A is regular when det(sE + A) is not identically zero.
Two independent index estimators live here: resolvent-growth sampling on the
positive real axis and the nilpotency route through the second Wong sequence
W_{j+1} = E^{-1}(A W_j).  A third route via the IV chain, the first Wong
sequence, is in `chains`.
"""

from __future__ import annotations

import copy
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
from .subspaces import RankTolerance, _monotone_chain, image, preimage, zero_space

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

# TINY floors every scale that a relative error divides by
TINY = 1e-300

# fractional parts of the fitted growth slope in this band are ambiguous
SLOPE_AMBIGUOUS = (0.35, 0.65)

# rms residual of the log-log fit above which the power law is not trusted;
# saturated or pole-polluted samples show residuals well above this
SLOPE_RMS_MAX = 0.1

# angle of the regularity certificate's first point: make_rng(0).uniform(0, 2 pi)
CERTIFICATE_ROTATION = 0.0883857918099689

# sample points of index_by_growth, every one fitted: the upper 12 of 24 geometric
# points from 1e2 to 1e7, s = 4.06e4 to 1e7
GROWTH_GRID = tuple(np.geomspace(1e2, 1e7, 24)[12:])

# matrix entries per stacked solve of _sampled: max(1, STACK_ENTRIES // n^2)
# sample points per chunk (a whole small-pencil grid, one point at n = 160)
STACK_ENTRIES = 2**15


def _cached(pencil, key, build):
    """The pencil's artifact under key, built by build() on first use and kept.

    The pencil is the one owner of every kept artifact: a frozen value over
    read-only arrays (new_pencil), so a kept artifact cannot go stale.  A
    build that fails with a DaePencilError is kept too, less its traceback
    (whose frames would pin the pencil): every later call raises a fresh copy.
    """
    if key not in pencil._cache:
        try:
            pencil._cache[key] = build()
        except DaePencilError as exc:
            pencil._cache[key] = copy.copy(exc)
            raise
    kept = pencil._cache[key]
    if isinstance(kept, DaePencilError):
        raise copy.copy(kept)
    return kept


@dataclass(frozen=True)
class Pencil:
    """Validated pair of same-size square matrices over a common scalar field.

    Build it with new_pencil, which makes both arrays read-only; the
    per-pencil artifacts (svd_E, norm_A, certificate, Wong chain, per tolerance
    the IV chain's spaces, restricted map and reduced generator, splittings)
    are then computed once and kept.  Pencils compare by value.
    """

    E: np.ndarray
    A: np.ndarray
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.E.shape[0]

    @property
    def norm_E(self) -> float:
        """||E||_2, the top singular value of svd_E."""
        return float(self.svd_E[1][0])

    @cached_property
    def svd_E(self) -> tuple:
        """np.linalg.svd(E) with full factors, read-only, the pencil's one SVD of E:
        norm_E, the IV chain's E[IV_0] with its complement and the W chain's W_1 = ker E."""
        svd = tuple(np.linalg.svd(self.E))
        for x in svd:
            x.setflags(write=False)
        return svd

    @cached_property
    def norm_A(self) -> float:
        """||A||_2."""
        return float(np.linalg.norm(self.A, 2))

    def __eq__(self, other):
        if not isinstance(other, Pencil):
            return NotImplemented
        return other is self or np.array_equal(self.E, other.E) and np.array_equal(self.A, other.A)

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
    """Outcome of solving with sE + A at n+1 distinct points, in order.

    Since s -> det(sE + A) is a polynomial of degree at most n, it vanishes
    identically iff it vanishes at all n+1 points; the pencil is called
    regular at the first point where _solve_shifted accepts sE + A, its
    witness, and singular when every point is refused.
    """

    regular: bool
    sample_points: tuple
    witness: complex | None


def certify_regularity(pencil: Pencil) -> RegularityCertificate:
    """Solve (sE + A) x = (1, ..., 1) through _solve_shifted at n+1 equally
    spaced points, from the angle CERTIFICATE_ROTATION, of the circle of
    radius 1 + ||E||_F + ||A||_F.

    Computed once per pencil and kept on it: every decision about the pencil
    reads this one certificate.  Evaluation stops at the first accepted
    point: usually one LU for a regular pencil, n+1 for a singular.

    A point is refused by _solve's rule: LAPACK meets an exactly zero pivot,
    or the solution is not finite (as where s E overflows).  So pencils that
    are singular in floating point (structural zero rows/columns and the
    like) are refused at any scale at which s E stays finite.  A pencil that
    is singular only analytically can pass at a point and be certified
    regular; that is consistent with treating the stored floats as the pencil.
    """
    return _cached(pencil, "certificate", lambda: _certify(pencil))


def _certify(pencil):
    n = pencil.n
    angles = CERTIFICATE_ROTATION + 2.0 * np.pi * np.arange(n + 1) / (n + 1)
    witness = None
    # a norm or an s E that overflows gives a point whose solve is refused
    with np.errstate(over="ignore", invalid="ignore"):
        radius = 1.0 + float(np.linalg.norm(pencil.E)) + float(np.linalg.norm(pencil.A))
        points = tuple(map(complex, radius * np.exp(1j * angles)))
        for s in points:
            try:
                _solve_shifted(pencil, s, np.ones(n))
            except SingularMatrixError:
                continue
            witness = s
            break
    return RegularityCertificate(regular=witness is not None, sample_points=points, witness=witness)


def resolvent(pencil: Pencil, s):
    """(sE + A)^{-1} by a pivoted dense solve.

    Raises SingularMatrixError when sE + A is numerically singular, i.e.
    s lies outside the resolvent set.
    """
    return _solve_shifted(pencil, s)


def _solve_shifted(pencil: Pencil, s, rhs=None):
    """X with (sE + A) X = rhs (the inverse when None), for one shift s or a
    1-d array of shifts, stacked along X's first axis in one solve; R(s) v
    needs no full inverse.  Real shifts on a real pencil are solved in real
    arithmetic, any other in complex; off the resolvent set SingularMatrixError."""
    s = np.asarray(s, dtype=complex)
    if not (pencil.is_complex or np.any(s.imag)):
        s = s.real
    M = s[..., None, None] * pencil.E + pencil.A
    return _solve(M, rhs, "sE + A", "s", s)


def _solve(M, rhs, name, symbol, value):
    """np.linalg.solve(M, rhs), or np.linalg.inv(M) where rhs is None, for
    M = name at symbol = value, raising SingularMatrixError where LAPACK
    refuses or leaves a non-finite entry: the one singular rule of the
    regularity certificate, of every resolvent sample and of implicit Euler's
    E/h + A.  inv gives the bits of a solve with the identity, one LU each."""
    try:
        X = np.linalg.inv(M) if rhs is None else np.linalg.solve(M, rhs)
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
    SingularMatrixError, else its error: the rule of every resolvent sample and Euler h."""
    for _ in range(5):
        try:
            return solve(x), x
        except SingularMatrixError:
            x = x * 1.01
    return solve(x), x


def _sampled(pencil, points, f, drop=False):
    """(values, used): f(R, s) of every chunk of points, concatenated, where
    R[j] = (s[j] E + A)^{-1} and used, like s, holds where each was taken.

    A chunk holds at most STACK_ENTRIES matrix entries (one point at least)
    and takes one stacked solve, whose slices are bit for bit the solve of
    each point.  Where that solve is refused, each point of the chunk is
    solved alone through _nudged; a point still singular after its nudges
    raises its SingularMatrixError or, with drop, is left out of f's chunk
    and reads NaN in used.  This is the one loop over resolvent chunks.
    """
    points = np.asarray(points, dtype=complex if np.iscomplexobj(points) else float)
    step = max(1, STACK_ENTRIES // pencil.n**2)
    values, used = [], []
    for lo in range(0, points.size or 1, step):  # an empty grid is one empty chunk
        s = points[lo : lo + step].copy()
        try:
            R = _solve_shifted(pencil, s)
        except SingularMatrixError:
            R = []
            for j, t in enumerate(s):
                try:
                    X, s[j] = _nudged(lambda x: _solve_shifted(pencil, x), t)
                    R.append(X)
                except SingularMatrixError:
                    if not drop:
                        raise
                    s[j] = np.nan
            R = np.array(R).reshape(-1, pencil.n, pencil.n)
        values.append(f(R, s[~np.isnan(s)]))
        used.append(s)
    return np.concatenate(values), np.concatenate(used)


def _peaks(X):
    """(max |entry| of each matrix of the stack X, the same with 1 for 0)."""
    peak = np.abs(X).max(axis=(-2, -1))
    return peak, np.where(peak == 0.0, 1.0, peak)


def _sumsq(X):
    """Sum of |entry|^2 of each matrix of the stack X, one BLAS dot each."""
    flat = X.reshape(*X.shape[:-2], 1, X.shape[-2] * X.shape[-1])  # no -1: stacks may be empty
    return (flat.conj() @ flat.swapaxes(-2, -1))[..., 0, 0].real


def _frobenius(X):
    """||X||_F of each matrix of the stack X, taken of X / max|X| so that no
    square over- or underflows."""
    peak, scale = _peaks(X)
    return peak * np.sqrt(_sumsq(X / scale[..., None, None]))


def _column_sumsq(X):
    """Sum of |entry|^2 of each column of each matrix of the stack X."""
    return np.einsum("...ij,...ij->...j", X.conj(), X).real


def _norm2(R):
    """A lower bound on ||R[j]||_2 of each matrix of the stack R (..., m, n),
    at least its largest column norm and at most sigma_max, with no SVD.

    The largest column and the fixed random vector _random_start(m) take
    three power steps v = R^H w, w = R v as one block; the value is the
    largest ||R v|| / ||v|| met.  The random vector reaches sigma_max where
    the largest columns miss it, as in a block-diagonal matrix whose largest
    columns lie in a block of lower norm (Kuczynski and Wozniakowski, SIAM J.
    Matrix Anal. Appl. 13(4), 1992).  Close top singular values leave a
    shortfall, to 0.75 sigma_max at worst on 122,000 test matrices.  It only
    makes the expansion, identity and chain_descent checks stricter, but can
    move the growth slope either way.  R is divided by its largest entry
    into C order, so that no square over- or underflows and every matrix is
    multiplied alike: its value is bit for bit the same alone or in any stack.
    """
    peak, scale = _peaks(R)
    X = np.divide(R, scale[..., None, None], order="C")
    XH = X.conj().swapaxes(-2, -1)
    columns = _column_sumsq(X)
    largest = columns.argmax(axis=-1)[..., None, None]
    start = np.broadcast_to(_random_start(X.shape[-2])[:, None], (*X.shape[:-1], 1))
    w = np.concatenate((np.take_along_axis(X, largest, axis=-1), start), axis=-1)
    best = columns.max(axis=-1)
    for _ in range(3):
        v = XH @ w
        w = X @ v
        # a zero v (of a zero matrix) has a zero w: its ratio is 0
        ratio = _column_sumsq(w) / np.maximum(_column_sumsq(v), TINY)
        best = np.maximum(best, ratio.max(axis=-1))
    return peak * np.sqrt(best)


@lru_cache(maxsize=None)
def _random_start(m):
    """The random left start vector of _norm2 at m rows: drawn from a fixed
    seed, so that every 2-norm is reproducible, and kept per m."""
    g = make_rng(0).standard_normal(m)
    g.setflags(write=False)
    return g


def _require_regular(pencil: Pencil):
    """Raise NotRegularError unless the pencil's certificate says regular."""
    if not certify_regularity(pencil).regular:
        raise NotRegularError("the pencil's regularity certificate says it is not regular")


def index_by_growth(pencil: Pencil) -> IndexEstimate:
    """Index from the slope of log ||(sE+A)^{-1}|| against log s.

    Samples GROWTH_GRID on the positive real axis by stacked solves and
    fits a least squares line over every sample.  The 2-norms come from
    _norm2, whose lower bound can move the slope either way where it falls
    short of sigma_max.  The index is the slope rounded to the nearest
    integer, halves up, clamped at zero.  The estimate is not confident when
    the slope's fractional part is ambiguous or the fit residual is large
    (the latter happens when floating-point saturation of the stored pencil
    caps the observable growth of high-index problems).  A sample that stays
    singular after its nudges is saturated outright: it is dropped (counted
    in samples_dropped) and the estimate is not confident.  Raises
    SingularMatrixError only when fewer than two samples remain.
    """
    _require_regular(pencil)
    norms, used = _sampled(pencil, GROWTH_GRID, lambda R, s: _norm2(R), drop=True)
    used = used[~np.isnan(used)]
    if used.size < 2:
        raise SingularMatrixError(f"only {used.size} resolvent samples left to fit a line")
    logs = np.log(used)
    logn = np.log(norms)
    (slope, intercept), res = np.polyfit(logs, logn, 1, full=True)[:2]
    rms = float(np.sqrt(res[0] / logs.size)) if res.size else 0.0

    k = max(math.floor(slope + 0.5), 0)
    frac = float(slope - math.floor(slope))
    dropped = len(GROWTH_GRID) - used.size
    confident = not (SLOPE_AMBIGUOUS[0] <= frac <= SLOPE_AMBIGUOUS[1])
    confident = confident and rms <= SLOPE_RMS_MAX and not dropped
    diagnostics = {
        "slope": float(slope),
        "intercept": float(intercept),
        "fit_residual": rms,
        "points_fitted": int(logs.size),
        "s_range": (float(used[0]), float(used[-1])),
    }
    if dropped:
        diagnostics["samples_dropped"] = dropped
    return IndexEstimate(k=k, method="growth", confident=confident, diagnostics=diagnostics)


def _wong_chain(pencil: Pencil):
    """The second Wong sequence W_0 = {0} <= W_1 = ker E <= W_2 <= ...,
    W_{j+1} = E^{-1}(A W_j), kept on the pencil.

    Each step is a preimage under E of an image under A, ranked against
    ||E|| and ||A|| as the IV chain is; A[W_j] is thin, so its preimage keeps
    the projector form.  W_1 = ker E is read from the pencil's kept svd_E,
    which the IV chain's first image shares.  It runs while the dimensions strictly
    rise (subspaces._monotone_chain), so the last space repeats (or reverses)
    the dimension and chain[-2] is the stabilized W*, the kernel part of the
    quasi-Weierstrass split.  Both the nilpotency index and the Fitting
    splitting read it.  Raises NotRegularError as _require_regular does.
    """
    _require_regular(pencil)

    def build():
        def step(W):
            S = image(pencil.A, W, pencil.norm_A)
            return preimage(pencil.E, S, svd=pencil.svd_E)

        return tuple(_monotone_chain(step, zero_space(pencil.n, RankTolerance())))

    return _cached(pencil, "wong", build)


def index_by_nilpotency(pencil: Pencil) -> IndexEstimate:
    """Index from the second Wong sequence W_{j+1} = E^{-1}(A W_j).

    The chain {0} = W_0 <= W_1 <= ... (see _wong_chain) stabilizes at step
    nu, the nilpotency degree of the pencil's infinite part: W_j is ker F^j
    for F = (s0 E + A)^{-1} E at any s0 in the resolvent set, and no F is
    formed.  The nilpotent part contributes resolvent growth |s|^(nu-1) while
    the finite part decays, so the growth index is max(nu - 1, 0).
    """
    chain = _wong_chain(pencil)
    nu = len(chain) - 2
    return IndexEstimate(
        k=max(nu - 1, 0),
        method="nilpotency",
        confident=True,
        diagnostics={"kernel_dims": [W.dim for W in chain], "nilpotency": nu},
    )
