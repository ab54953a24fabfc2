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

from .chains import IvChain, _check_owner, _restricted_iso
from .pencils import TINY, Pencil, _frobenius, _norm2, _sampled, _solve_shifted, _sumsq
from .solvers import _check_u0, _coordinates, reduced_generator

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
    constant C about the closed-form coefficients x_l = (-1)^l V M^l c of the
    reduced generator M, compared against EXPANSION_C_MAX instead of a
    relative tolerance.
    It is None when the check could not be evaluated, as for an expansion_e
    (k > 0) or a transform_match whose reduced generator fails; such a report
    has no sample points, passed False and the error in details["error"]
    (analysis.identity_checks).  sample_points are where the resolvents were
    taken, nudged; an expansion_e lists no point it dropped.
    """

    identity: str  # commutation_b | shift_d | expansion_e | solution_formula | transform_match
    sample_points: tuple
    max_relative_error: float | None
    passed: bool
    details: dict = field(default_factory=dict)


def _identity_errors(pencil, R, s, u0):
    """The relative errors of the commutation identity, the shift identity
    and the solution formula at u0, one column each, one row per matrix of
    the stack R[j] = (s[j] E + A)^{-1}.

    Each stack is normed as it is formed, at the chunk's size: one stack of
    all three sides would triple the temporaries of pencils._norm2, which
    costs page faults at n = 80..160.
    """
    E, A = pencil.E, pencil.A
    t = s[:, None, None]
    lhs = R @ E
    rhs = np.eye(pencil.n) / t - (R @ A) / t
    norm_R, norm_lhs, norm_rhs = map(_norm2, (R, lhs, rhs))
    # the scale is grouped so that it neither over- nor underflows where R scales inversely
    scale = np.maximum((pencil.norm_E * norm_R) * pencil.norm_A, TINY)
    commutation = _frobenius(E @ R @ A - A @ R @ E) / scale
    shift = _frobenius(lhs - rhs) / np.maximum(np.maximum(norm_lhs, norm_rhs), TINY)
    t = s[:, None]  # the solution formula: the shift identity applied to u0
    lhs, rhs = R @ (E @ u0), u0 / t - (R @ (A @ u0)) / t
    norm_lhs, norm_rhs, norm_diff = (np.sqrt(_sumsq(x[..., None])) for x in (lhs, rhs, lhs - rhs))
    formula = norm_diff / np.maximum(np.maximum(norm_lhs, norm_rhs), TINY)
    return np.stack((commutation, shift, formula), -1)


def verify_commutation(pencil: Pencil, points) -> IdentityReport:
    """E (sE+A)^{-1} A = A (sE+A)^{-1} E at every nonzero sample point.

    Frobenius error over ||E|| ||A|| times pencils._norm2's lower bound on
    ||R||_2, so an upper bound on the relative 2-norm error.  The
    commutation_b report of verify_identities, which refuses s = 0, where
    this identity reads E = E.
    """
    return verify_identities(pencil, np.zeros(pencil.n), points)[0]


def verify_shift(pencil: Pencil, points) -> IdentityReport:
    """(sE+A)^{-1} E = I/s - (1/s)(sE+A)^{-1} A at every nonzero sample point.

    Frobenius error over the larger of pencils._norm2's lower bounds on
    ||lhs||_2 and ||rhs||_2, so an upper bound on the relative 2-norm error.
    The shift_d report of verify_identities.
    """
    return verify_identities(pencil, np.zeros(pencil.n), points)[1]


def verify_solution_formula(pencil: Pencil, u0, points) -> IdentityReport:
    """hat u(s) = u0/s - (sE+A)^{-1} A u0 / s at every nonzero sample point.

    This is the shift identity applied to u0, so it holds for every initial
    value, consistent or not.  The solution_formula report of verify_identities.
    """
    return verify_identities(pencil, u0, points)[2]


def verify_identities(pencil: Pencil, u0, points) -> tuple:
    """(commutation_b, shift_d, solution_formula) reports from one resolvent per point.

    One pass per chunk of the resolvent stack gives all three errors, so
    verify_commutation, verify_shift and verify_solution_formula, which
    select their report from the same pass, give the same bits.  A point
    s = 0 is a ValueError, and u0 is checked as solvers' initial values are.
    """
    points = tuple(points)
    if 0 in points:
        raise ValueError("the shift identity and solution formula are undefined at s = 0")
    u0 = _check_u0(pencil, u0)
    errors, used = _sampled(pencil, points, lambda R, s: _identity_errors(pencil, R, s, u0))
    # np.max keeps a NaN error, which then fails the check
    worst = np.max(errors, axis=0, initial=0.0).tolist()
    names = ("commutation_b", "shift_d", "solution_formula")
    tols = (COMMUTATION_TOL, SHIFT_TOL, SOLUTION_FORMULA_TOL)
    at = tuple(used.tolist())
    return tuple(IdentityReport(name, at, w, w <= tol) for name, tol, w in zip(names, tols, worst))


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


def _expansion_coefficients(chain, EB, k):
    """x_1..x_k of every column x of a basis matrix B of IV_k, given E B, in closed form.

    For k = stabilization or stabilization + 1, E B lies in E[V] with
    V = IV_{stabilization+1}, so E B = E V c with c = S^{-1} C^H (E B), where
    S = C^H E V is the restricted map on the chain and C the basis of
    E[IV_stabilization].  Since A V = E V M for the reduced generator M,
    (sE+A)^{-1} E B = V (sI + M)^{-1} c exactly, whose series gives
    x_l = (-1)^l V M^l c.  Returns x_l of column j at [l - 1, :, j]; k = 0
    needs no coefficient and no generator.  Raises IsomorphismError from
    reduced_generator.
    """
    if k == 0:
        return np.zeros((0, *EB.shape))
    gen = reduced_generator(chain.pencil, chain)
    S = _restricted_iso(chain)[1]
    if S is None:  # V = {0}, so E B = 0
        return np.zeros((k, *EB.shape))
    z = np.linalg.solve(S, chain.images[chain.stabilization].basis.conj().T @ EB)
    coeffs = []
    for _ in range(k):
        z = -(gen.M @ z)
        coeffs.append(gen.basis @ z)
    return np.stack(coeffs)


def verify_expansion(pencil: Pencil, chain: IvChain, k: int, s_grid=None) -> IdentityReport:
    """Bounded-remainder form of the resolvent expansion on IV_k, k = stabilization
    or stabilization + 1.

    For each basis vector x of IV_k the coefficients x_l = (-1)^l V M^l c of
    (sE+A)^{-1} E x = V (sI + M)^{-1} c come in closed form from the reduced
    generator M on V = IV_{stabilization+1} (_expansion_coefficients); the
    check is that s^{k+1} times the remainder
    y(s) - x/s - sum x_l / s^{l+1} stays below C * (1 + ||(sE+A)^{-1}|| ||A||)
    across the grid with C <= EXPANSION_C_MAX.  The reported
    max_relative_error is the observed C, worst over the basis.  Each grid
    point takes one resolvent, applied to the whole basis, and no other
    resolvent is taken.  ||(sE+A)^{-1}|| is pencils._norm2's lower bound, so
    C is at least the value the exact 2-norm would give.  A grid point still
    singular after its nudges is dropped, counted in details["samples_dropped"],
    and fails the check.  Where k > 0 and the reduced generator fails, this
    raises its IsomorphismError.

    In floating point the sampled remainder carries roundoff of the stored
    pencil of size ~eps * s^(k+1), so the check is only meaningful below the
    horizon s_h(k) = (1/eps)^(1/(k+1)).  The default s_grid is therefore
    expansion_grid(k); where that is None (s_h(k) < 1e3, from k = 5 on) a
    ValueError asks for an explicit grid.  Exactly stored pencils can be
    sampled further out.
    """
    _check_owner(pencil, chain)
    if k not in (chain.stabilization, chain.stabilization + 1):
        raise ValueError(
            f"k = {k} is neither the stabilization {chain.stabilization} nor one past it"
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
    EB = pencil.E @ B
    coeffs = _expansion_coefficients(chain, EB, k)

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

    C, used = _sampled(pencil, s_grid, constants, drop=True)
    c = float(np.max(C, initial=0.0))
    dropped = int(np.count_nonzero(np.isnan(used)))
    if dropped:
        details["samples_dropped"] = dropped
    points = tuple(used[~np.isnan(used)].tolist())
    return IdentityReport("expansion_e", points, c, c <= EXPANSION_C_MAX and not dropped, details)


def hat_solution(pencil: Pencil, u0, s):
    """(sE+A)^{-1} E u0: the Laplace transform of the distributional solution.

    One solve with E u0 as right-hand side; raises SingularMatrixError where
    resolvent would.  u0 is checked as solvers' initial values are.
    """
    return _solve_shifted(pencil, s, pencil.E @ _check_u0(pencil, u0))


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
