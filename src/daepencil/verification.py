"""The property suite behind `daepencil verify`.

Runs every invariant the package claims of a pencil - resolvent identities,
chain monotonicity and stabilization, three-way index agreement, solver
residuals, inconsistency detection by the chain and by the quasi-Weierstrass
split, and the Laplace transform match - over a list of generated fixtures,
and reports one deterministic pass/fail row per law.  Every row reads only
the fixtures, and a fixture's random draws come from its own seed, so a
fixture's checks do not depend on the rest of the batch.  The Laplace checks
of each fixture are analysis.identity_checks, the battery `analyze` reports,
folded into one row per identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import build_analysis, identity_checks
from .chains import consistent_space
from .exceptions import InconsistentInitialValueError, IsomorphismError, SingularMatrixError
from .fixtures import FixtureSpec, generate
from .pencils import TINY, _norm2, _sampled
from .rng import make_rng
from .solvers import classical_solution, decomposition_oracle
from .subspaces import RankTolerance, contains, distance, equal

__all__ = ["CheckRow", "SuiteResult", "run_suite", "random_specs"]

SOLVE_GRID = np.linspace(0.0, 2.0, 9)

REFUSED = "not evaluated: reduced generator refused"


@dataclass(frozen=True)
class CheckRow:
    name: str
    checked: int
    failures: int
    worst: float | None
    passed: bool
    note: str = ""


@dataclass
class SuiteResult:
    rows: list
    fixtures: int
    passed: bool

    def table(self) -> str:
        lines = [f"{'check':28s} {'checked':>8s} {'failed':>7s} {'worst':>12s}  status"]
        for row in self.rows:
            worst = f"{row.worst:.3e}" if row.worst is not None else "-"
            status = "PASS" if row.passed else "FAIL"
            line = f"{row.name:28s} {row.checked:8d} {row.failures:7d} {worst:>12s}  {status}"
            if row.note:
                line += f"  ({row.note})"
            lines.append(line)
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'} on {self.fixtures} fixtures")
        return "\n".join(lines)


class _Row:
    """Accumulates (metric, threshold) observations, one per entry of ok; NaN stays
    worst.  worse picks the worse of two metrics: np.minimum for a margin."""

    def __init__(self, name, note="", worse=np.maximum):
        self.name = name
        self.note = note
        self.worse = worse
        self.checked = 0
        self.failures = 0
        self.worst = None

    def add(self, metric, ok):
        ok = np.asarray(ok)
        self.checked += ok.size
        self.failures += ok.size - int(np.count_nonzero(ok))
        if metric is not None and ok.size:
            m = float(self.worse.reduce(metric, axis=None))
            self.worst = m if self.worst is None else float(self.worse(self.worst, m))

    def done(self):
        return CheckRow(
            self.name, self.checked, self.failures, self.worst, self.failures == 0, self.note
        )


def _identity_rows(analyzed):
    """The identity_checks rows by identity (u0 from spec.seed + 2), one check per
    report.  The resolvent_expansion note counts why checks are missing or
    failed: fixtures without expansion_e (k >= 5), checks not evaluated because
    the reduced generator was refused (as the transform_match note does), and
    checks that dropped a grid point."""
    rows = {
        "commutation_b": _Row("resolvent_commutation"),
        "shift_d": _Row("resolvent_shift"),
        "solution_formula": _Row("solution_formula"),
        "expansion_e": _Row("resolvent_expansion"),
        "transform_match": _Row("transform_match"),
    }
    refused, dropped = dict.fromkeys(rows, 0), 0
    for spec, _, a in analyzed:
        for rep in identity_checks(a, spec.seed + 2):
            rows[rep.identity].add(rep.max_relative_error, rep.passed)
            refused[rep.identity] += "error" in rep.details
            dropped += "samples_dropped" in rep.details
    skipped = len(analyzed) - rows["expansion_e"].checked
    notes = (
        (skipped, "skipped: k too high for float64 at s >= 1e3"),
        (refused["expansion_e"], REFUSED),
        (dropped, "dropped a grid point singular after its nudges"),
    )
    rows["expansion_e"].note = "; ".join(f"{count} {text}" for count, text in notes if count)
    if refused["transform_match"]:
        rows["transform_match"].note = f"{refused['transform_match']} {REFUSED}"
    return {identity: row.done() for identity, row in rows.items()}


def _chain_descent_row(analyzed):
    """(sE+A)^{-1} E maps IV_k into IV_{k+1}.

    The mapped vector carries roundoff of size ~eps * ||R(s)|| * ||E||, so
    the 1e-8 relative membership bound is only decidable while that noise
    floor sits below it; undecidable (s, x) pairs are skipped and counted.
    """
    row = _Row("chain_descent")
    skipped = 0
    eps = np.finfo(float).eps
    for _, _, a in analyzed:
        p, chain = a.pencil, a.chain
        R, _ = _sampled(p, (3.0, 10.0, 100.0), lambda R, s: R)
        noise = 10.0 * eps * _norm2(R)[:, None] * p.norm_E
        for k in range(chain.stabilization + 1):
            mapped = R @ (p.E @ chain.spaces[k].basis)  # (point, n, column)
            norms = np.linalg.norm(mapped, axis=1)
            decidable = 1e-8 * norms > noise
            skipped += int(np.count_nonzero(~decidable))
            # one projection per point: a gemm over more columns rounds these
            # roundoff-level ratios differently
            for X, keep, norm in zip(mapped, decidable, norms):
                ratios = distance(chain.spaces[k + 1], X[:, keep]) / norm[keep]
                row.add(ratios, ratios <= 1e-8)
    if skipped:
        row.note = f"{skipped} skipped below the float64 noise floor"
    return row.done()


def _chain_rows(analyzed):
    """The chain_monotone, chain_stabilization, index_agreement and
    restricted_iso rows, one check per fixture each."""
    mono = _Row("chain_monotone")
    stab = _Row("chain_stabilization")
    agree = _Row("index_agreement")
    iso_row = _Row("restricted_iso", worse=np.minimum)
    for _, truth, a in analyzed:
        chain = a.chain
        ok = all(
            contains(chain.spaces[j], chain.spaces[j + 1])
            for j in range(len(chain.spaces) - 1)
        )
        mono.add(None, ok)

        k_nil = a.nilpotency.k
        witness = k_nil == chain.stabilization and equal(
            chain.spaces[k_nil + 1], chain.spaces[k_nil + 2]
        )
        stab.add(None, witness)

        agree.add(None, a.indices_agree and a.chain_index.k == truth.growth_index)
        iso_row.add(a.iso.sigma_min, a.iso.bijective)
    return [mono.done(), stab.done(), agree.done(), iso_row.done()]


def _solver_rows(analyzed):
    """Solver rows; the per-column ones get one solution and one norm per metric per fixture.

    classical_residual and initial_value solve each fixture's consistent
    basis as one block and still count `checked` per column.  A rejected
    block counts one failure per column, as its rejected columns did before
    blocks, so no PASS/FAIL moves; the classical_residual note counts those
    of a refused reduced generator.  inconsistency_detection
    passes a fixture when classical_solution and decomposition_oracle (by the
    oblique W* component) both reject one inconsistent u0; its note counts the
    fixtures whose split is refused (dim V* + dim W* != n).
    """
    residual = _Row("classical_residual")
    initial = _Row("initial_value")
    detect = _Row("inconsistency_detection")
    refused = []  # consistent dimension of each fixture whose reduced generator is refused
    unsplit = 0  # fixtures whose split is refused

    for _, _, a in analyzed:
        p, chain = a.pencil, a.chain
        cons = consistent_space(p, chain)
        if cons.dim < p.n:
            off = np.eye(p.n) - cons.basis @ cons.basis.conj().T
            j = int(np.argmax(np.linalg.norm(off, axis=0)))
            bad = off[:, j] / np.linalg.norm(off[:, j])
            if cons.dim:
                bad = bad + cons.basis[:, 0]
            caught = 0
            try:
                classical_solution(p, chain, bad, SOLVE_GRID)
            except InconsistentInitialValueError:
                caught += 1
            try:
                decomposition_oracle(p, bad, SOLVE_GRID)
            except InconsistentInitialValueError:
                caught += 1
            except SingularMatrixError:  # no splitting
                unsplit += 1
            except IsomorphismError:  # passed on to a refused generator
                pass
            detect.add(None, caught == 2)
        if not cons.dim:
            continue

        U0, rejected = cons.basis, np.zeros(cons.dim, dtype=bool)
        try:
            traj = classical_solution(p, chain, U0, SOLVE_GRID)
        except (InconsistentInitialValueError, IsomorphismError) as exc:
            residual.add(None, rejected)  # consistent columns rejected, or no reduced generator
            if isinstance(exc, IsomorphismError):
                refused.append(cons.dim)
            continue
        states = traj.states  # (times, n, columns)
        norms = np.linalg.norm(states, axis=1)
        peak = np.maximum(np.max(norms, axis=0), TINY)
        r = np.max(traj.derivative_residuals, axis=0) / ((p.norm_E + p.norm_A) * peak)
        residual.add(r, r <= 1e-8)
        d0 = np.linalg.norm(states[0] - U0, axis=0)
        initial.add(d0, d0 <= 1e-12 * np.linalg.norm(U0, axis=0))

    if refused:
        residual.note = f"{sum(refused)} {REFUSED} on {len(refused)} of {len(analyzed)} fixtures"
    if unsplit:
        detect.note = f"{unsplit} failed: split refused, dim V* + dim W* != n"
    return [residual.done(), initial.done(), detect.done()]


def run_suite(specs, tol: RankTolerance = RankTolerance()) -> SuiteResult:
    """Run every check over the given fixture specs; deterministic in specs.

    Every row folds per-fixture checks, each drawing from its own spec.seed, so
    a batch's checked, failures and worst are the row-by-row merge of its parts'."""
    specs = list(specs)
    if not specs:
        raise ValueError("no fixtures to verify")
    analyzed = []  # (spec, ground truth, Analysis) per fixture
    for spec in specs:
        pencil, truth = generate(spec)
        analysis = build_analysis(pencil, tol)
        if not analysis.certificate.regular:
            raise ValueError(f"generated fixture {spec} is not regular")
        analyzed.append((spec, truth, analysis))

    identity = _identity_rows(analyzed)
    rows = [identity[name] for name in ("commutation_b", "shift_d", "solution_formula")]
    rows.append(_chain_descent_row(analyzed))
    rows.append(identity["expansion_e"])
    rows.extend(_chain_rows(analyzed))
    rows.extend(_solver_rows(analyzed))
    rows.append(identity["transform_match"])
    return SuiteResult(rows=rows, fixtures=len(specs), passed=all(r.passed for r in rows))


def random_specs(count, dim_range, index_range, seed, conditioning=100.0):
    """Draw fixture specs with dimensions in dim_range and growth indices drawn
    from index_range, each capped at n - 1: a growth index k needs a nilpotent
    block of size k + 1, so a fixture of dimension n asked for k >= n gets n - 1."""
    d_lo, d_hi = dim_range
    i_lo, i_hi = index_range
    if not (1 <= d_lo <= d_hi):
        raise ValueError(f"bad dimension range {dim_range}")
    if not (0 <= i_lo <= i_hi):
        raise ValueError(f"bad index range {index_range}")
    rng = make_rng(seed)
    specs = []
    for _ in range(count):
        n = int(rng.integers(d_lo, d_hi + 1))
        target = int(rng.integers(i_lo, i_hi + 1))
        kron = min(target + 1 if target else int(rng.integers(0, 2)), n)
        blocks = [kron] if kron else []
        room = n - kron
        while room > 0 and kron > 1 and rng.uniform() < 0.3:
            extra = int(rng.integers(1, min(kron, room) + 1))
            blocks.append(extra)
            room -= extra
        specs.append(
            FixtureSpec(
                n1=n - sum(blocks),
                nilpotent_blocks=tuple(blocks),
                conditioning=conditioning,
                seed=int(rng.integers(2**63)),
            )
        )
    return specs
