"""Classical solutions of Eu' + Au = 0 on the consistent space.

The main route restricts E to an isomorphism IV_{k+1} -> E[IV_k], forms the
reduced generator M representing E~^{-1}A there, and evolves coordinates with
the matrix exponential.  An implicit Euler stepper provides a first-order
reference, and a splitting oracle built from the two Wong sequences (the
quasi-Weierstrass split) decides consistency on its own, by the oblique
component along the second Wong limit, and evolves with the same reduced
generator.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .chains import (
    IvChain,
    _restricted_iso,
    check_restricted_iso,
    compute_chain,
    consistent_space,
)
from .exceptions import (
    ConditioningWarning,
    InconsistentInitialValueError,
    IsomorphismError,
    NonFiniteEntriesError,
    ShapeMismatchError,
    SingularMatrixError,
)
from .expm import expm
from .pencils import TINY, Pencil, _cached, _nudged, _solve, _wong_chain
from .subspaces import RankTolerance, distance, project

__all__ = [
    "ReducedGenerator",
    "Trajectory",
    "FittingSplit",
    "is_consistent",
    "nearest_consistent",
    "reduced_generator",
    "classical_solution",
    "implicit_euler",
    "fitting_splitting",
    "decomposition_oracle",
]

# generator residual cap: ||E lift(M e_j) - A b_j|| <= this * (||E|| + ||A||)
GENERATOR_RTOL = 1e-8


@dataclass(frozen=True)
class ReducedGenerator:
    """The matrix M of E~^{-1}A on IV_{k+1} in an orthonormal basis.

    For every basis vector b_j the lifted image satisfies
    E (basis @ M[:, j]) = A b_j up to GENERATOR_RTOL * (||E|| + ||A||);
    max_residual records the worst observed defect.  Both arrays are
    read-only: the generator is kept on its pencil and shared.
    """

    k: int
    basis: np.ndarray  # (n, d), orthonormal columns spanning IV_{k+1}
    M: np.ndarray  # (d, d)
    max_residual: float

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class Trajectory:
    """A computed solution: time grid, states, and equation residuals.

    derivative_residuals[i] is ||E u'(t_i) + A u(t_i) - f(t_i)|| with u'
    taken analytically for the exponential routes and as a difference
    quotient of the computed states for the stepper.  For an (n, m) block
    u0 (exponential routes), column j is states[:, :, j] with residuals[:, j].
    """

    times: np.ndarray
    states: np.ndarray  # (len(times), n), or (len(times), n, m) for a block
    derivative_residuals: np.ndarray  # (len(times),), or (len(times), m)
    method: str  # "exponential" | "implicit_euler" | "decomposition_oracle"


def _check_u0(pencil, u0, block=False):
    """u0 as a finite array, complex if the pencil or u0 is, else real: shape
    (n,), or (n, m) if block.  The one check of every initial value."""
    complex_ = pencil.is_complex or np.iscomplexobj(u0)
    u0 = np.asarray(u0, dtype=complex if complex_ else float)
    if u0.shape[:1] != (pencil.n,) or u0.ndim > 1 + block:
        raise ShapeMismatchError(
            f"initial value shape {u0.shape} does not match pencil size {pencil.n}"
        )
    if not np.all(np.isfinite(u0)):
        raise NonFiniteEntriesError("u0 contains non-finite entries")
    return u0


def _check_times(times):
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a nonempty 1-d grid")
    bad = times[~np.isfinite(times)]
    if bad.size:
        raise ValueError(f"times must be finite, got {bad[0]}")
    if times[0] < 0 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be nonnegative and strictly increasing")
    return times


def is_consistent(pencil: Pencil, chain: IvChain, u0):
    """Whether u0 admits a classical solution, with its distance to IV_{k+1}.

    Consistent means distance <= chain.tol.membership * max(1, ||u0||).  An (n, m)
    block takes one projection; every column must pass, and the largest distance is given.
    """
    u0 = _check_u0(pencil, u0, block=True)
    dist = distance(consistent_space(pencil, chain), u0)
    ok = np.all(dist <= chain.tol.membership * np.maximum(1.0, np.linalg.norm(u0, axis=0)))
    return bool(ok), float(np.max(dist, initial=0.0))


def nearest_consistent(pencil: Pencil, chain: IvChain, u0):
    """Orthogonal projection of u0 (a vector or an (n, m) block) onto the consistent space."""
    return project(consistent_space(pencil, chain), _check_u0(pencil, u0, block=True))


def reduced_generator(pencil: Pencil, chain: IvChain) -> ReducedGenerator:
    """Solve E y = A b_j inside IV_{k+1} for every basis vector b_j.

    The solve happens in the orthonormal bases of IV_{k+1} and E[IV_k]
    (never through a pseudo-inverse of E on the whole space, which would be
    wrong off the subspace).  Raises IsomorphismError when the restricted map
    is not bijective or the lifted solutions fail the residual cap.  Computed
    once per pencil and tolerance and kept on the pencil.
    """
    iso = check_restricted_iso(pencil, chain)
    if not iso.bijective:
        raise IsomorphismError(
            f"restricted E is not bijective (domain dim {iso.dim_domain}, "
            f"codomain dim {iso.dim_codomain}, sigma_min {iso.sigma_min})"
        )
    return _cached(chain.pencil, ("generator", chain.tol), lambda: _generator(chain))


def _generator(chain):
    pencil = chain.pencil
    k = chain.stabilization
    B = chain.spaces[k + 1].basis
    d = B.shape[1]
    if d == 0:
        return ReducedGenerator(k, B, np.zeros((0, 0)), 0.0)
    AB = pencil.A @ B
    # S = C^H E B is square and certified of full rank by reduced_generator
    M = np.linalg.solve(_restricted_iso(chain)[1], chain.images[k].basis.conj().T @ AB)
    defect = pencil.E @ (B @ M) - AB
    scale = pencil.norm_E + pencil.norm_A
    worst = float(np.max(np.linalg.norm(defect, axis=0)))
    if worst > GENERATOR_RTOL * scale:
        raise IsomorphismError(
            f"reduced generator residual {worst:.3e} exceeds "
            f"{GENERATOR_RTOL:.0e} * (||E|| + ||A||) = {GENERATOR_RTOL * scale:.3e}"
        )
    M.setflags(write=False)
    return ReducedGenerator(k, B, M, worst)


def _is_uniform(times):
    if times.size < 3:
        return False
    steps = np.diff(times)
    h = steps[0]
    return h > 0 and float(np.max(np.abs(steps - h))) <= 1e-12 * h


def _evolve(M, C0, times):
    """Coordinates exp(-t_i M) C0 of a (d, m) block C0 as rows, row i*m + j for column j at t_i.

    A uniform grid is filled by doubling: the next b points are P^b times the
    first b, P = exp(-h M) squared once per round, so about 2 log2(len(times))
    products replace a step per point.  General grids take an exponential per point.
    """
    m = C0.shape[1]
    rows = np.empty((times.size * m, M.shape[0]), dtype=np.result_type(M, C0))
    uniform = _is_uniform(times)
    for i, t in enumerate(times[:1] if uniform else times):
        rows[i * m : (i + 1) * m] = ((expm(-t * M) @ C0) if t != 0.0 else C0).T
    if uniform:
        power, b = expm(-float(np.diff(times)[0]) * M), 1  # P^b, b grid points filled
        while b < times.size:
            take = min(b, times.size - b)
            rows[b * m : (b + take) * m] = rows[: take * m] @ power.T
            b += take
            if b < times.size:
                power = power @ power
    return rows


def classical_solution(pencil: Pencil, chain: IvChain, u0, times) -> Trajectory:
    """The unique continuously differentiable solution for consistent u0.

    Coordinates in the IV_{k+1} basis evolve by exp(-tM); states and the
    analytic derivative are lifted back to the ambient space, and the
    residual ||E u'(t) + A u(t)|| is recorded per grid point.  An (n, m)
    block u0 takes one projection, evolution and lift for all its columns; it
    is rejected if any column is, with the worst distance and projected block.
    """
    times = _check_times(times)
    gen, c0 = _coordinates(pencil, chain, u0)
    return _lifted(pencil, gen.basis, gen.M, c0, times, "exponential")


def _coordinates(pencil, chain, u0):
    """The reduced generator and the coordinates B^H u0 of a consistent u0
    (a vector or an (n, m) block) in its basis B.

    Raises InconsistentInitialValueError, with the worst distance and the
    projected u0, when u0 is off the consistent space, and IsomorphismError
    from reduced_generator.
    """
    u0 = _check_u0(pencil, u0, block=True)
    ok, dist = is_consistent(pencil, chain, u0)
    if not ok:
        raise InconsistentInitialValueError(
            f"u0 is {dist:.6e} away from the consistent space; "
            "no classical solution exists",
            distance=dist,
            nearest=nearest_consistent(pencil, chain, u0),
        )
    gen = reduced_generator(pencil, chain)
    return gen, gen.basis.conj().T @ u0


def _lifted(pencil, B, M, c0, times, method):
    """Coordinates exp(-tM) c0, c0 of shape (d,) or (d, m), lifted from the basis B.

    The residual E u' + A u = (A B - E B M) c is recorded per grid point and column.
    """
    cols = np.atleast_2d(c0.T).T  # (d, m): a vector is the block of one column
    rows = _evolve(M, cols, times)
    defect_map = pencil.A @ B - pencil.E @ (B @ M)
    residuals = np.linalg.norm(rows @ defect_map.T, axis=1).reshape(times.size, *c0.shape[1:])
    states = (rows @ B.T).reshape(times.size, cols.shape[1], pencil.n).swapaxes(1, 2)
    return Trajectory(times, states.reshape(times.size, pencil.n, *c0.shape[1:]), residuals, method)


def _difference_quotient_residuals(pencil, times, states, forcing_values):
    """||E q_i + A u_i - f_i|| with q the gradient of the computed states."""
    q = np.gradient(states, times, axis=0)
    r = q @ pencil.E.T + states @ pencil.A.T - forcing_values
    return np.linalg.norm(r, axis=1).astype(float)


def implicit_euler(pencil: Pencil, u0, h: float, T: float, forcing=None) -> Trajectory:
    """Backward Euler for E u' + A u = f with constant step h.

    Each step solves (E/h + A) u_{m+1} = (E/h) u_m + f(t_{m+1}), a single
    resolvent application at s = 1/h.  A step matrix singular by the rule of
    every resolvent sample (pencils._solve; so also where E/h overflows) nudges
    h off the singular point as pencils._nudged nudges every resolvent sample,
    with a ConditioningWarning; SingularMatrixError when the nudges run out.
    """
    u0 = _check_u0(pencil, u0)
    if not (0 < h < np.inf and 0 < T < np.inf):
        raise ValueError(f"require finite h > 0 and T > 0, got h = {h} and T = {T}")

    def solve_step(step, rhs):  # (E/h + A)^{-1} rhs, E/h + A formed as written
        return _solve(pencil.E / step + pencil.A, rhs, "E/h + A", "h", step)

    def step_matrix(step):  # W with u_{m+1} = W u_m when f = 0
        with np.errstate(over="ignore"):  # an E/h that overflows is refused as singular
            return solve_step(step, pencil.E / step)

    W, nudged = _nudged(step_matrix, h)
    if nudged != h:
        warnings.warn(
            f"step matrix singular at h={h:.6g}; stepping with h={nudged:.6g}",
            ConditioningWarning,
            stacklevel=2,
        )
        h = nudged

    steps = max(1, int(round(T / h)))
    times = np.arange(steps + 1) * h
    n = pencil.n
    dtype = np.result_type(u0, W)
    states = np.empty((steps + 1, n), dtype=dtype)
    states[0] = u0

    if forcing is None:
        forcing_values = np.zeros((steps + 1, n), dtype=dtype)
        driven = forcing_values
    else:
        forcing_values = np.array([np.asarray(forcing(t), dtype=dtype) for t in times])
        if forcing_values.shape != (steps + 1, n):
            raise ShapeMismatchError("forcing must return vectors of pencil size")
        if not np.all(np.isfinite(forcing_values)):  # else the solve would call E/h + A singular
            raise NonFiniteEntriesError("forcing returned non-finite entries")
        driven = solve_step(h, forcing_values.T).T

    u = u0
    for m in range(steps):
        u = W @ u + driven[m + 1]
        states[m + 1] = u

    residuals = _difference_quotient_residuals(pencil, times, states, forcing_values)
    return Trajectory(times, states, residuals, "implicit_euler")


@dataclass(frozen=True)
class FittingSplit:
    """The quasi-Weierstrass split H = V* (+) W* of the pencil.

    V* is the consistent space IV_{k+1} of the first Wong sequence (the IV
    chain) and W* the stabilized second Wong sequence W_{j+1} = E^{-1}(A W_j);
    in the Weierstrass form they carry the finite and the infinite part.
    range_basis and kernel_basis are orthonormal within each summand but the
    splitting itself is oblique; basis_sigma_min (smallest singular value of
    the combined basis) measures how oblique.  tol decided both summands, and
    range_basis is the very array of the reduced generator's basis at tol.
    All arrays are read-only: the split is kept on its pencil and shared.
    """

    range_basis: np.ndarray
    kernel_basis: np.ndarray
    basis_sigma_min: float
    tol: RankTolerance

    def components(self, u0):
        """Oblique components (range part, kernel part) of u0."""
        V = np.hstack([self.range_basis, self.kernel_basis])
        c = np.linalg.solve(V, u0)
        r = self.range_basis.shape[1]
        return self.range_basis @ c[:r], self.kernel_basis @ c[r:], c[:r]


def fitting_splitting(pencil: Pencil) -> FittingSplit:
    """Split the space along the two Wong sequences (quasi-Weierstrass split).

    The range part is the consistent space of the IV chain kept on the pencil
    at the tolerance of the Wong chain; the kernel part is the stabilized second
    Wong sequence, shared with the nilpotency index (pencils._wong_chain).
    No shift, resolvent or canonical-form transformation is involved.  The
    split holds no generator: the range part evolves by the reduced generator
    of the same chain, whose basis is the range basis itself.  Raises
    SingularMatrixError when the two dimensions do not add up to n,
    NotRegularError as _wong_chain does, and warns when the combined basis
    has sigma_min below 1e-8.  Computed once per pencil and kept on it, so
    the warning comes with the first call only.
    """
    return _cached(pencil, "split", lambda: _split(pencil))


def _split(pencil):
    ker = _wong_chain(pencil)[-2]
    ran = consistent_space(pencil, compute_chain(pencil, ker.tol))
    n = pencil.n
    if ran.dim + ker.dim != n:
        raise SingularMatrixError(
            f"splitting failed: range dim {ran.dim} + kernel dim {ker.dim} != {n}"
        )

    V = np.hstack([ran.basis, ker.basis])
    smin = float(np.linalg.svd(V, compute_uv=False)[-1])
    if smin < 1e-8:
        warnings.warn(
            f"combined splitting basis has sigma_min {smin:.3e} < 1e-8",
            ConditioningWarning,
            stacklevel=5,
        )
    return FittingSplit(ran.basis, ker.basis, smin, ker.tol)


def decomposition_oracle(pencil: Pencil, u0, times, seed: int = 0) -> Trajectory:
    """Solution via the quasi-Weierstrass split H = V* (+) W*.

    On W* (the kernel part) the only classical solution is zero, so a nonzero
    oblique W* component of u0 is flagged as inconsistent: the oracle's own
    check, decided without membership in the IV chain.  On V* (the range
    part) Eu' + Au = 0 reduces to c' = -M c in the range coordinates, M the
    reduced generator of the chain at the split's tolerance, whose basis is
    the range basis, so classical_solution and the oracle evolve by one
    generator.  An (n, m) block u0 is solved at once and rejected, like
    classical_solution's, if any column is, with the largest kernel component
    and the range part.  NotRegularError as fitting_splitting raises it, and
    IsomorphismError where reduced_generator refuses the range part.  seed is
    unused, kept while bench/workloads.py passes it.
    """
    u0 = _check_u0(pencil, u0, block=True)
    times = _check_times(times)
    split = fitting_splitting(pencil)
    range_part, kernel_part, c_r = split.components(u0)
    knorm = np.linalg.norm(kernel_part, axis=0)
    # oblique components amplify input noise by up to 1/sigma_min(V), so the
    # consistency threshold is widened accordingly (capped to keep genuine
    # O(1) kernel components detectable)
    amplification = min(1e3, 1.0 / max(split.basis_sigma_min, TINY))
    unit = np.maximum(1.0, np.linalg.norm(u0, axis=0))
    threshold = split.tol.membership * unit * amplification
    if np.any(knorm > threshold):
        worst = float(np.max(knorm))
        raise InconsistentInitialValueError(
            f"u0 has a kernel-part component of norm {worst:.6e}; "
            "only its range part can evolve classically",
            distance=worst,
            nearest=range_part,
        )
    gen = reduced_generator(pencil, compute_chain(pencil, split.tol))
    return _lifted(pencil, gen.basis, gen.M, c_r, times, "decomposition_oracle")
