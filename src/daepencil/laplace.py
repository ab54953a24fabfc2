"""Laplace-domain verification of the resolvent and solution identities.

Everything here checks exact rational identities of the pencil by sampling:
the commutation and shift identities of the resolvent, the asymptotic
expansion of (sE+A)^{-1}E on the IV spaces, the distributional solution
formula, and the match between the classical solution's Laplace transform
and (sE+A)^{-1} E u0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chains import IvChain, _check_owner
from .pencils import TINY, Pencil, _norm2, _sampled, _solve_shifted
from .solvers import _coordinates

__all__ = [
    "IdentityReport",
    "expansion_grid",
    "verify_commutation",
    "verify_shift",
    "verify_expansion",
    "verify_identities",
    "hat_solution",
    "verify_solution_formula",
    "verify_transform_match",
]

COMMUTATION_TOL = 1e-10
SHIFT_TOL = 1e-10
SOLUTION_FORMULA_TOL = 1e-10
EXPANSION_C_MAX = 10.0
TRANSFORM_TOL = 1e-6


@dataclass(frozen=True)
class IdentityReport:
    """Result of sampling one identity.

    max_relative_error is the worst sampled error in the identity's own
    normalization (for commutation_b and shift_d an upper bound on the relative
    2-norm error, within a factor of n); for expansion_e it is the remainder
    constant C, compared against EXPANSION_C_MAX instead of a relative tolerance.
    It is None when the check could not be evaluated, as for a transform_match
    whose reduced generator fails; such a report has no sample points and
    passed False.  sample_points are where the resolvents were taken, nudged.
    """

    identity: str  # commutation_b | shift_d | expansion_e | solution_formula | transform_match
    sample_points: tuple
    max_relative_error: float | None
    passed: bool
    details: dict = field(default_factory=dict)


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


def _norm2_lower(X):
    """Certified lower bound on ||X||_2, at least ||X||_F / sqrt(n), for each
    matrix of the stack X (..., m, n), by matvecs.

    The largest ||X v|| / ||v|| of the largest column and three power steps on
    X^H X from it; X is scaled by its largest entry so that no square overflows.
    A zero matrix gets 0.
    """
    peak, scale = _peaks(X)
    X = X / scale[..., None, None]
    XH = X.conj().swapaxes(-2, -1)
    largest = np.einsum("...ji,...ij->...j", XH, X).real.argmax(axis=-1)
    w = np.take_along_axis(X, largest[..., None, None], axis=-1)  # largest column
    best = _sumsq(w)
    for _ in range(3):
        v = XH @ w
        w = X @ v
        best = np.maximum(best, _sumsq(w) / np.where(peak == 0.0, 1.0, _sumsq(v)))
    return peak * np.sqrt(best)


# The errors below take a stack R[j] = (s[j] E + A)^{-1} and return one
# relative error per point.


def _commutation_error(pencil, R, s, u0):
    diff = pencil.E @ R @ pencil.A - pencil.A @ R @ pencil.E
    # the scale is grouped so that it neither over- nor underflows where R scales inversely
    denom = np.maximum((pencil.norm_E * _norm2_lower(R)) * pencil.norm_A, TINY)
    return _frobenius(diff) / denom


def _shift_error(pencil, R, s, u0):
    s = s[:, None, None]
    lhs = R @ pencil.E
    rhs = np.eye(pencil.n) / s - (R @ pencil.A) / s
    denom = np.maximum(np.maximum(_norm2_lower(lhs), _norm2_lower(rhs)), TINY)
    return _frobenius(lhs - rhs) / denom


def _formula_error(pencil, R, s, u0):
    s = s[:, None]
    lhs = R @ (pencil.E @ u0)
    rhs = u0 / s - (R @ (pencil.A @ u0)) / s
    norm_lhs, norm_rhs, norm_diff = (np.sqrt(_sumsq(x[..., None])) for x in (lhs, rhs, lhs - rhs))
    return norm_diff / np.maximum(np.maximum(norm_lhs, norm_rhs), TINY)


# identity -> (tolerance, its relative errors on a resolvent stack)
_IDENTITIES = {
    "commutation_b": (COMMUTATION_TOL, _commutation_error),
    "shift_d": (SHIFT_TOL, _shift_error),
    "solution_formula": (SOLUTION_FORMULA_TOL, _formula_error),
}


def _sample_identities(pencil, points, names, u0=None):
    """Reports of the named identities, sharing one resolvent per sample point,
    each evaluated on the stacks of _sampled at the points they were taken."""
    points = tuple(points)
    if 0 in points and set(names) - {"commutation_b"}:
        raise ValueError("the shift identity and solution formula are undefined at s = 0")
    errors, used = _sampled(
        pencil,
        points,
        lambda R, s: np.stack([_IDENTITIES[name][1](pencil, R, s, u0) for name in names], -1),
    )
    # np.max keeps a NaN error, which then fails the check
    worst = np.max(errors, axis=0, initial=0.0).tolist()
    return tuple(
        IdentityReport(name, tuple(used.tolist()), w, w <= _IDENTITIES[name][0])
        for name, w in zip(names, worst)
    )


def verify_commutation(pencil: Pencil, points) -> IdentityReport:
    """E (sE+A)^{-1} A = A (sE+A)^{-1} E at every sample point.

    Frobenius error over ||E|| ||A|| times a certified lower bound on ||R||_2.
    """
    return _sample_identities(pencil, points, ("commutation_b",))[0]


def verify_shift(pencil: Pencil, points) -> IdentityReport:
    """(sE+A)^{-1} E = I/s - (1/s)(sE+A)^{-1} A at every nonzero sample point.

    Frobenius error over the larger certified lower bound on ||lhs||_2, ||rhs||_2.
    """
    return _sample_identities(pencil, points, ("shift_d",))[0]


def verify_solution_formula(pencil: Pencil, u0, points) -> IdentityReport:
    """hat u(s) = u0/s - (sE+A)^{-1} A u0 / s at every nonzero sample point.

    This is the shift identity applied to u0, so it holds for every initial
    value, consistent or not.
    """
    return _sample_identities(pencil, points, ("solution_formula",), np.asarray(u0))[0]


def verify_identities(pencil: Pencil, u0, points) -> tuple:
    """(commutation_b, shift_d, solution_formula) reports from one resolvent per point.

    Bit for bit the reports (bounds included) of verify_commutation, verify_shift
    and verify_solution_formula on the same points and u0, at a third of the solves.
    """
    return _sample_identities(pencil, points, tuple(_IDENTITIES), np.asarray(u0))


def _float64_horizon(k: int) -> float:
    """s_h(k) = (1/eps)^(1/(k+1)), where eps * s^(k+1) reaches 1.

    Roundoff of the stored pencil contributes ~eps * s^(k+1) to the remainder
    constant of verify_expansion, so at s_h(k) that share is a tenth of
    EXPANSION_C_MAX; samples above it measure roundoff, not the identity.
    """
    return (1.0 / np.finfo(float).eps) ** (1.0 / (k + 1))


def expansion_grid(k: int):
    """Sample grid for verify_expansion, capped where float64 can still decide.

    Roundoff of the stored pencil contributes ~eps * s^(k+1) to the measured
    remainder constant, so the 12 geometric points run from 1e3 to
    min(1e6, s_h(k)) with s_h(k) = (1/eps)^(1/(k+1)), where that share
    reaches 1.  Returns None when s_h(k) < 1e3: no admissible point remains
    above the floor.  That first happens at k = 5 (s_h ~ 406).
    """
    limit = _float64_horizon(k)
    if limit < 1e3:
        return None
    return np.geomspace(1e3, min(1e6, limit), 12)


def _fit_expansion_coefficients(pencil, B, k):
    """Fit x_1..x_k for every column x of the basis matrix B at k+2 geometric points.

    The nodes are s_ref * 2^j, j = 0..k+1, with s_ref = 100 lowered where
    needed so that the top node stays a factor 4 below the float64 horizon
    s_h(k); samples above it would give the fitted x_l roundoff of size
    ~eps * s^(k+1).  The nodes, nudged where singular, are one resolvent
    stack, applied to E B at once.  The model y(s) = c_0/s + ... +
    c_{k+1}/s^{k+2} of (sE+A)^{-1} E x is solved as one Vandermonde system in
    the scaled variable s_ref/s for all columns; the extra top coefficient
    absorbs the leading remainder so it cannot contaminate x_k.  Returns the
    fitted stack, x_l of column j at [l - 1, :, j], and the Vandermonde
    condition number.
    """
    s_ref = min(100.0, _float64_horizon(k) / (4.0 * 2.0 ** (k + 1)))
    EB = pencil.E @ B
    REB, nodes = _sampled(pencil, s_ref * 2.0 ** np.arange(k + 2), lambda R, s: R @ EB)
    V = np.vander(nodes[0] / nodes, k + 2, increasing=True)
    gamma = np.linalg.solve(V, (REB * nodes[:, None, None]).reshape(k + 2, -1))
    coeffs = gamma.reshape(k + 2, *EB.shape) * (nodes[0] ** np.arange(k + 2))[:, None, None]
    return coeffs[1 : k + 1], float(np.linalg.cond(V))


def verify_expansion(pencil: Pencil, chain: IvChain, k: int, s_grid=None) -> IdentityReport:
    """Bounded-remainder form of the resolvent expansion on IV_k.

    For each basis vector x of IV_k, coefficients x_l are fitted from
    resolvent samples; the check is that s^{k+1} times the remainder
    y(s) - x/s - sum x_l / s^{l+1} stays below C * (1 + ||(sE+A)^{-1}|| ||A||)
    across the grid with C <= EXPANSION_C_MAX.  The reported
    max_relative_error is the observed C, worst over the basis.  Each fit
    node and grid point takes one resolvent, applied to the whole basis.

    The fit assumes its nodes (s from s_ref to 2^(k+1) s_ref, s_ref <= 100,
    about 10.6 at k = 4) lie well above the finite spectrum of the pencil,
    so that the 1/s series converges there; nothing checks this, and a pencil
    with finite eigenvalues of comparable modulus gets a meaningless C.

    In floating point the sampled remainder carries roundoff of the stored
    pencil of size ~eps * s^(k+1), so the check is only meaningful below the
    horizon s_h(k) = (1/eps)^(1/(k+1)).  The default s_grid is therefore
    expansion_grid(k); where that is None (s_h(k) < 1e3, from k = 5 on) a
    ValueError asks for an explicit grid.  Exactly stored pencils can be
    sampled further out.
    """
    _check_owner(pencil, chain)
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k > chain.stabilization + 1:
        raise ValueError(
            f"k = {k} exceeds stabilization + 1 = {chain.stabilization + 1}"
        )
    if s_grid is None:
        s_grid = expansion_grid(k)
        if s_grid is None:
            raise ValueError(
                f"no default grid at k = {k}: the float64 horizon "
                f"s_h(k) = {_float64_horizon(k):.3g} lies below 1e3; pass s_grid"
            )
    s_grid = np.asarray(s_grid, dtype=float)

    iv_k = chain.spaces[k]
    details = {"k": k, "basis_dim": iv_k.dim}
    if iv_k.dim == 0:
        return IdentityReport("expansion_e", tuple(s_grid), 0.0, True, details)

    B = iv_k.basis
    coeffs, cond = _fit_expansion_coefficients(pencil, B, k)
    details["fit_condition"] = cond
    if cond > 1e10:
        details["ill_conditioned_fit"] = True

    EB = pencil.E @ B

    def constants(R, s):  # the remainder constant C of every point
        bound = 1.0 + _norm2(R) * pencil.norm_A
        powers = s[:, None, None] ** -(np.arange(1, k + 1) + 1.0)
        # one gemv and one libm pow per point: a gemm over the chunk or a
        # vectorized power can round differently with the chunk size
        series = (powers @ coeffs.reshape(k, B.size)).reshape(-1, *B.shape)
        remainder = R @ EB - B / s[:, None, None] - series
        column = np.max(np.linalg.norm(remainder, axis=-2), axis=-1)
        lift = np.array([x ** (k + 1) for x in s.tolist()])
        return column * lift / bound

    C, used = _sampled(pencil, s_grid, constants)
    c = float(np.max(C, initial=0.0))
    return IdentityReport("expansion_e", tuple(used.tolist()), c, c <= EXPANSION_C_MAX, details)


def hat_solution(pencil: Pencil, u0, s):
    """(sE+A)^{-1} E u0: the Laplace transform of the distributional solution.

    One solve with E u0 as right-hand side; raises SingularMatrixError where
    resolvent would.
    """
    return _solve_shifted(pencil, s, pencil.E @ np.asarray(u0))


def verify_transform_match(pencil: Pencil, chain: IvChain, u0) -> IdentityReport:
    """The Laplace transform of the classical solution against (sE+A)^{-1} E u0.

    The classical solution is B exp(-tM) c, with M the reduced generator on
    IV_{k+1}, B its orthonormal basis and c = B^H u0, so its transform is
    B (sI + M)^{-1} c in closed form.  It is compared at s = alpha + 3 and
    alpha + 4, alpha = max(0, max Re(-eig M)), right of the finite spectrum.
    An inconsistent u0 raises InconsistentInitialValueError and a failing
    generator IsomorphismError, as from classical_solution.
    """
    gen, c = _coordinates(pencil, chain, u0)
    alpha = float(np.max(-np.real(np.linalg.eigvals(gen.M)), initial=0.0))
    points = (alpha + 3.0, alpha + 4.0)
    worst = 0.0
    for s in points:
        closed = gen.basis @ np.linalg.solve(s * np.eye(gen.dim) + gen.M, c)
        hat = hat_solution(pencil, u0, s)
        scale = max(float(np.linalg.norm(hat)), TINY)
        worst = float(np.maximum(worst, np.linalg.norm(closed - hat) / scale))
    return IdentityReport("transform_match", points, worst, worst <= TRANSFORM_TOL)
