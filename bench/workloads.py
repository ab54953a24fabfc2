"""The benchmark's three workloads: seeded fixtures, one op each, output checks.

Every op drives the same public calls as the matching `daepencil` subcommand,
in-process, on files written during set-up:

  analyze-large  `daepencil analyze E.mtx A.mtx --json report.json`
  verify-small   `daepencil verify --fixtures specs.json --json result.json`
                 on a batch drawn from `verify --random`'s ranges, stratified
  solve-io       one initial value problem from E.mtx, A.mtx and u0.txt,
                 solved by the exponential route, the splitting oracle and
                 implicit Euler, each trajectory written as CSV

An op fails (`OpFailed`) when the program raises, exits non-zero or reports
a failed self-check in its output.  The workload's check raises `WrongOutput`
when the program reported success but its output contradicts the fixture's
ground truth or the check's own reference.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# ops call through the module objects so that the traced run, which rebinds
# names inside daepencil's modules, sees the calls
from daepencil import chains, cli, fileio, pencils, solvers
from daepencil.fixtures import FixtureSpec, generate
from daepencil.subspaces import RankTolerance
from daepencil.verification import random_specs

ANALYZE_SIZES = (80, 120, 160)  # one round of analyze-large ops, in this order
VERIFY_BATCH = 10  # specs per verify-small op
VERIFY_DIMS = (2, 20)  # the README's `verify --random` ranges
VERIFY_INDICES = (0, 4)
SOLVE_N = 40
SOLVE_T_END = 2.0
SOLVE_STEPS = 2000
SOLVE_METHODS = ("exponential", "oracle", "euler")
CONDITIONING = 100.0
MAX_GROWTH = 2  # analyze-large pencils have growth index 0..2
# solve-io stops at growth index 1: at growth index 2 backward Euler's roundoff,
# amplified like h^-2, swamps its first-order error at this step (README)
SOLVE_MAX_GROWTH = 1


class OpFailed(Exception):
    """The program raised, exited non-zero or reported a failed self-check."""


class WrongOutput(Exception):
    """The program produced an output that fails its check."""


@dataclass(frozen=True)
class Fixture:
    """One op's input files plus what the check needs to know about them."""

    key: str
    dir: Path
    seed: int
    truth: dict  # ground truth the fixture generator guarantees
    pencils: int  # pencils this op handles (the base of per-pencil ratios)


# ---------------------------------------------------------------- fixtures


def _growth_spec(rng, n, growth):
    """A conjugated pencil of size n and the given growth index, mixed nilpotent blocks."""
    kron = growth + 1 if growth else int(rng.integers(0, 2))
    blocks = [kron] if kron else []
    if kron:
        blocks += [int(rng.integers(1, kron + 1)) for _ in range(int(rng.integers(0, 4)))]
    return FixtureSpec(
        n1=n - sum(blocks),
        nilpotent_blocks=tuple(blocks),
        conditioning=CONDITIONING,
        seed=int(rng.integers(2**63)),
    )


def _write_pencil(directory, spec):
    directory.mkdir(parents=True, exist_ok=True)
    pencil, truth = generate(spec)
    fileio.write_matrix_market(directory / "E.mtx", pencil.E)
    fileio.write_matrix_market(directory / "A.mtx", pencil.A)
    return pencil, {
        "n": pencil.n,
        "growth_index": truth.growth_index,
        "consistent_dim": truth.consistent_dim,
    }


def analyze_fixture(rng, index, directory):
    """Sizes cycle through ANALYZE_SIZES and growth indices through 0..2, shifted by
    one each round, so every seed gets the same mix; the seed draws everything else."""
    n = ANALYZE_SIZES[index % len(ANALYZE_SIZES)]
    growth = (index + index // len(ANALYZE_SIZES)) % (MAX_GROWTH + 1)
    spec = _growth_spec(rng, n, growth)
    _, truth = _write_pencil(directory, spec)
    return Fixture(f"n{n}", directory, int(rng.integers(2**31)), truth, 1)


def _verify_cell(position):
    """(dimension, growth index) of a run's position-th spec.

    Every cell of VERIFY_DIMS x VERIFY_INDICES comes once in each stretch of
    95 specs, dimensions spread within a batch, in the same order for every
    seed: the uniform draw of `verify --random`, stratified, so that the
    seed does not change the mix of sizes a run times."""
    dims = VERIFY_DIMS[1] - VERIFY_DIMS[0] + 1
    indices = VERIFY_INDICES[1] - VERIFY_INDICES[0] + 1
    offset = (7 * position) % dims  # 7 is prime to the 19 dimensions
    shift = (position // dims) % indices
    return VERIFY_DIMS[0] + offset, VERIFY_INDICES[0] + (offset + shift) % indices


def verify_fixture(rng, index, directory):
    """One batch: each spec drawn by `random_specs` itself within its cell, so the
    nilpotent blocks, their split and the spec seed follow `verify --random`."""
    directory.mkdir(parents=True, exist_ok=True)
    seed = int(rng.integers(2**31))
    specs = []
    for position in range(index * VERIFY_BATCH, (index + 1) * VERIFY_BATCH):
        dim, growth = _verify_cell(position)
        specs += random_specs(1, (dim, dim), (growth, growth), seed=int(rng.integers(2**31)))
    entries = [
        {
            "n1": s.n1,
            "nilpotent_blocks": list(s.nilpotent_blocks),
            "conditioning": s.conditioning,
            "seed": s.seed,
        }
        for s in specs
    ]
    (directory / "specs.json").write_text(json.dumps(entries, indent=1) + "\n", encoding="ascii")
    return Fixture(f"batch{seed}", directory, seed, {"fixtures": len(specs)}, len(specs))


def solve_fixture(rng, index, directory):
    spec = _growth_spec(rng, SOLVE_N, index % (SOLVE_MAX_GROWTH + 1))
    pencil, truth = _write_pencil(directory, spec)
    consistent = chains.consistent_space(pencil, chains.compute_chain(pencil))
    u0 = consistent.basis.real @ rng.standard_normal(consistent.dim)
    u0 /= np.linalg.norm(u0)
    fileio.write_vector(directory / "u0.txt", u0)
    return Fixture(f"ivp{spec.seed}", directory, int(rng.integers(2**31)), truth, 1)


# ---------------------------------------------------------------- ops


def _run_cli(argv, log_path):
    """`daepencil <argv>` in-process, its stdout and stderr sent to log_path."""
    with open(log_path, "w", encoding="utf-8") as log:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            code = cli.main(argv)
    if code != cli.EXIT_OK:
        tail = Path(log_path).read_text(encoding="utf-8").strip().splitlines()[-1:]
        raise OpFailed(f"daepencil {argv[0]} exited {code}: {' '.join(tail)}")


def analyze_op(fx, out):
    report = out / "report.json"
    _run_cli(
        [
            "analyze",
            str(fx.dir / "E.mtx"),
            str(fx.dir / "A.mtx"),
            "--json",
            str(report),
            "--seed",
            str(fx.seed),
        ],
        out / "analyze.log",
    )
    return report


def verify_op(fx, out):
    table = out / "verify.log"
    result = out / "result.json"
    _run_cli(
        [
            "verify",
            "--fixtures",
            str(fx.dir / "specs.json"),
            "--seed",
            str(fx.seed),
            "--json",
            str(result),
        ],
        table,
    )
    return table, result


def solve_op(fx, out):
    """What `daepencil solve` does for each --method, parsing the files once."""
    pencil = pencils.new_pencil(
        fileio.parse_matrix_market(fx.dir / "E.mtx"), fileio.parse_matrix_market(fx.dir / "A.mtx")
    )
    u0 = fileio.read_vector(fx.dir / "u0.txt")
    times = np.linspace(0.0, SOLVE_T_END, SOLVE_STEPS + 1)
    chain = chains.compute_chain(pencil, RankTolerance(1e-10))
    trajectories = {
        "exponential": solvers.classical_solution(pencil, chain, u0, times),
        "oracle": solvers.decomposition_oracle(pencil, u0, times, seed=fx.seed),
        "euler": solvers.implicit_euler(pencil, u0, SOLVE_T_END / SOLVE_STEPS, SOLVE_T_END),
    }
    for method, trajectory in trajectories.items():
        with open(out / f"{method}.csv", "w", encoding="ascii", newline="\n") as fh:
            fileio.write_trajectory_csv(fh, trajectory)
    return pencil, trajectories


# ---------------------------------------------------------------- checks


def _require(ok, message):
    if not ok:
        raise WrongOutput(message)


def analyze_check(fx, report_path, out):
    report = json.loads(Path(report_path).read_text(encoding="ascii"))
    _require(report["regular"], "report says not regular")
    _require(report["indices_agree"], "index routes disagree")
    k = report["index_chain"]["k"]
    _require(k == fx.truth["growth_index"], f"chain index {k} != {fx.truth['growth_index']}")
    dim = report["consistent_dim"]
    _require(dim == fx.truth["consistent_dim"], f"consistent dim {dim} != {fx.truth['consistent_dim']}")
    failed = [c["identity"] for c in report["identity_checks"] if not c["passed"]]
    if failed:  # the report's own verdict: the op failed, the answer is not wrong
        raise OpFailed(f"report says identity checks failed: {failed}")


def verify_check(fx, outputs, out):
    _, result_path = outputs
    result = json.loads(Path(result_path).read_text(encoding="ascii"))
    _require(result["fixtures"] == fx.truth["fixtures"], "suite ran on the wrong batch size")
    failed = [row["name"] for row in result["rows"] if not row["passed"]]
    _require(not failed and result["passed"], f"suite rows failed: {failed}")


def _csv_rows_and_last(path):
    data = Path(path).read_bytes()
    lines = data.rstrip(b"\n").split(b"\n")
    return len(lines) - 1, np.array([float(x) for x in lines[-1].split(b",")])


def solve_check(fx, outputs, out):
    pencil, trajectories = outputs
    exact = trajectories["exponential"]
    states = exact.states.real
    peak = max(float(np.max(np.linalg.norm(states, axis=1))), 1e-300)
    scale = float(np.linalg.norm(pencil.E, 2) + np.linalg.norm(pencil.A, 2))
    residual = float(np.max(exact.derivative_residuals))
    _require(residual <= 1e-8 * scale * peak, f"residual {residual:.3e} above 1e-8 (|E|+|A|) peak")

    oracle = float(np.max(np.linalg.norm(trajectories["oracle"].states.real - states, axis=1)))
    _require(oracle <= 1e-7 * peak, f"oracle off the exponential route by {oracle / peak:.3e}")

    # first order, as in the acceptance suite's criterion 8: doubling the step
    # doubles the error against the exponential route
    h = SOLVE_T_END / SOLVE_STEPS
    euler = trajectories["euler"]
    _require(euler.states.shape == states.shape, f"euler grid {euler.states.shape} != {states.shape}")
    coarse = solvers.implicit_euler(pencil, euler.states[0], 2 * h, SOLVE_T_END)
    error = float(np.max(np.linalg.norm(euler.states.real - states, axis=1)))
    coarse_error = float(np.max(np.linalg.norm(coarse.states.real - states[::2], axis=1)))
    ratio = coarse_error / max(error, 1e-300)
    _require(1.7 <= ratio <= 2.3, f"euler error ratio {ratio:.3f} at 2h : h is not first order")

    for method in SOLVE_METHODS:
        rows, last = _csv_rows_and_last(out / f"{method}.csv")
        _require(rows == SOLVE_STEPS + 1, f"{method}.csv has {rows} rows, expected {SOLVE_STEPS + 1}")
        trajectory = trajectories[method]
        expected = np.concatenate(([trajectory.times[-1]], trajectory.states[-1].real))
        _require(np.array_equal(last[:-1], expected), f"{method}.csv last row does not round-trip")


# ---------------------------------------------------------------- repeated outputs
# An op runs once per pass; these files must be byte-identical every time
# (the README's byte-identical claim, measured rather than assumed).


def analyze_files(fx, report_path, out):
    return [report_path]


def verify_files(fx, outputs, out):
    table, _ = outputs
    return [table]


def solve_files(fx, outputs, out):
    return [out / f"{method}.csv" for method in SOLVE_METHODS]


# ---------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: str  # the stated input sizes ops_per_s refers to
    op_s: float  # nominal op time on the reference machine (see README)
    round: int  # ops are drawn in rounds of this many
    fixture: Callable  # (rng, index, directory) -> Fixture
    op: Callable  # (fixture, out_dir) -> outputs
    check: Callable  # (fixture, outputs, out_dir) -> None, raises WrongOutput
    files: Callable  # (fixture, outputs, out_dir) -> the output files that must repeat

    def op_count(self, seconds):
        """Ops per run: a fixed amount of work, about `seconds` at op_s."""
        rounds = max(1, round(seconds / (self.op_s * self.round)))
        return rounds * self.round


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "analyze-large",
            "n in {80, 120, 160} in turn, one pencil per op",
            1.15,
            len(ANALYZE_SIZES),
            analyze_fixture,
            analyze_op,
            analyze_check,
            analyze_files,
        ),
        Workload(
            "verify-small",
            f"{VERIFY_BATCH} specs per op, dims {VERIFY_DIMS[0]}..{VERIFY_DIMS[1]}, "
            f"growth index {VERIFY_INDICES[0]}..{VERIFY_INDICES[1]}",
            0.8,
            1,
            verify_fixture,
            verify_op,
            verify_check,
            verify_files,
        ),
        Workload(
            "solve-io",
            f"n = {SOLVE_N}, {SOLVE_STEPS} steps, {len(SOLVE_METHODS)} trajectories per op",
            0.45,
            1,
            solve_fixture,
            solve_op,
            solve_check,
            solve_files,
        ),
    )
}


def digest(paths):
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()
