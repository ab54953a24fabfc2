"""Full single-pencil analysis and its JSON-ready report.

build_analysis runs the regularity certificate, all three index routes, the
IV chain and the restricted-isomorphism check once, into one Analysis record
that solvers, verifiers and the property suite share.  identity_checks runs
the Laplace checks of a pencil, which analyze_pencil formats with the record
as one serializable report and the property suite folds into its rows.
report_to_json writes the JSON text of this report and of every other file the
CLI writes.  Given identical inputs and seed the JSON output is byte-identical
between runs.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, is_dataclass

import numpy as np

from .chains import (
    IsoReport,
    IvChain,
    check_restricted_iso,
    compute_chain,
    consistent_space,
    index_by_chain,
)
from .exceptions import IsomorphismError
from .laplace import (
    IdentityReport,
    expansion_grid,
    verify_expansion,
    verify_identities,
    verify_transform_match,
)
from .pencils import (
    IndexEstimate,
    Pencil,
    RegularityCertificate,
    certify_regularity,
    index_by_growth,
    index_by_nilpotency,
)
from .rng import make_rng
from .subspaces import RankTolerance
from .version import __version__

__all__ = [
    "Analysis",
    "AnalysisReport",
    "build_analysis",
    "identity_checks",
    "analyze_pencil",
    "report_to_json",
]

IDENTITY_POINTS = tuple(np.geomspace(0.5, 50.0, 20))


@dataclass(frozen=True)
class Analysis:
    """The per-pencil artifacts, each computed once by build_analysis.

    Every field after certificate, the one kept on the pencil, is None when
    the pencil is not regular.
    """

    pencil: Pencil
    certificate: RegularityCertificate
    chain: IvChain | None = None
    growth: IndexEstimate | None = None
    nilpotency: IndexEstimate | None = None
    chain_index: IndexEstimate | None = None
    iso: IsoReport | None = None

    @property
    def indices_agree(self) -> bool:
        """The chain and nilpotency indices are equal, and so is the growth
        index where it is confident."""
        k = self.chain_index.k
        return k == self.nilpotency.k and (not self.growth.confident or self.growth.k == k)


def build_analysis(pencil: Pencil, tol: RankTolerance = RankTolerance()) -> Analysis:
    """Certify regularity and, for a regular pencil, run every stage, each kept on the pencil."""
    certificate = certify_regularity(pencil)
    if not certificate.regular:
        return Analysis(pencil, certificate)
    chain = compute_chain(pencil, tol)
    return Analysis(
        pencil,
        certificate,
        chain=chain,
        growth=index_by_growth(pencil),
        nilpotency=index_by_nilpotency(pencil),
        chain_index=index_by_chain(chain),
        iso=check_restricted_iso(pencil, chain),
    )


@dataclass
class AnalysisReport:
    n: int
    seed: int
    tol: float
    regular: bool
    witness: complex | None = None
    index_growth: dict | None = None
    index_nilpotency: dict | None = None
    index_chain: dict | None = None
    indices_agree: bool | None = None
    iv_dims: list | None = None
    stabilization: int | None = None
    consistent_dim: int | None = None
    iso: dict | None = None
    identity_checks: list = field(default_factory=list)
    # closedness of the IV spaces is automatic in finite dimension; recorded
    # so reports state the hypothesis the solution theory rests on
    closed_hypothesis: str = "satisfied (finite dimension: every subspace is closed)"
    versions: dict = field(default_factory=dict)


def _identity_dict(report):
    out = asdict(report)
    out["points"] = len(out.pop("sample_points"))
    return out


def _evaluated(identity, check):
    """check(), or identity's report of not evaluated, with no error value and the
    message in details["error"], where the reduced generator fails."""
    try:
        return check()
    except IsomorphismError as exc:
        return IdentityReport(identity, (), None, False, {"error": str(exc)})


def identity_checks(a: Analysis, seed: int) -> list:
    """The Laplace reports of a regular pencil, in report order: commutation_b,
    shift_d, expansion_e at k = stabilization unless k is too high for float64,
    solution_formula with a unit u0 drawn from seed, and transform_match on the
    first consistent basis vector unless there is none.  A failing reduced
    generator leaves expansion_e (for k > 0) and transform_match not evaluated:
    they fail with no error value and its message in details["error"]."""
    pencil, chain = a.pencil, a.chain
    k = chain.stabilization
    u0 = make_rng(seed).standard_normal(pencil.n)
    u0 /= np.linalg.norm(u0)
    commutation, shift, formula = verify_identities(pencil, u0, IDENTITY_POINTS)
    checks = [commutation, shift]
    if expansion_grid(k) is not None:
        checks.append(_evaluated("expansion_e", lambda: verify_expansion(pencil, chain, k)))
    checks.append(formula)
    consistent = consistent_space(pencil, chain)
    if consistent.dim:
        u = consistent.basis[:, 0]
        match = _evaluated("transform_match", lambda: verify_transform_match(pencil, chain, u))
        checks.append(match)
    return checks


def analyze_pencil(
    pencil: Pencil, seed: int = 0, tol: RankTolerance = RankTolerance()
) -> AnalysisReport:
    """The Analysis of the pencil plus its identity_checks, as one report."""
    a = build_analysis(pencil, tol)
    report = AnalysisReport(
        n=pencil.n,
        seed=seed,
        tol=tol.relative,
        regular=a.certificate.regular,
        witness=a.certificate.witness,
        versions={"daepencil": __version__, "numpy": np.__version__},
    )
    if not report.regular:
        return report

    chain = a.chain
    report.index_growth = asdict(a.growth)
    report.index_nilpotency = asdict(a.nilpotency)
    report.index_chain = asdict(a.chain_index)
    report.indices_agree = a.indices_agree
    report.iv_dims = list(chain.dims)
    report.stabilization = chain.stabilization
    report.consistent_dim = consistent_space(pencil, chain).dim
    report.iso = asdict(a.iso)
    report.identity_checks = [_identity_dict(c) for c in identity_checks(a, seed)]
    return report


def _json_default(value):
    """A complex number as {"re", "im"}, a dataclass as its asdict; json's TypeError otherwise."""
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if is_dataclass(value):
        return asdict(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def report_to_json(report) -> str:
    """The JSON text of every file the CLI writes: sorted keys, two-space indent and
    a final newline, with complex numbers and dataclasses as _json_default spells them."""
    return json.dumps(report, sort_keys=True, indent=2, default=_json_default) + "\n"
