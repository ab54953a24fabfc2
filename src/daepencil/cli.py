"""Command-line front end.

Subcommands:
  analyze   regularity, three index routes, chain, isomorphism, identities
  solve     integrate E u' + A u = 0 from a file-given initial value
  verify    run the property suite over generated fixtures
  generate  write a fixture pencil with known ground truth to disk

Exit codes: 0 success, 1 IO/parse/config error, 2 index routes disagree,
3 pencil not regular, 4 inconsistent initial value.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from .analysis import analyze_pencil, report_to_json
from .chains import compute_chain, consistent_space
from .exceptions import DaePencilError, InconsistentInitialValueError, NotRegularError
from .fileio import (
    parse_matrix_market,
    read_vector,
    write_matrix_market,
    write_trajectory_csv,
    write_vector,
)
from .fixtures import FixtureSpec, generate
from .pencils import certify_regularity, new_pencil
from .solvers import classical_solution, decomposition_oracle, implicit_euler
from .subspaces import RankTolerance
from .verification import random_specs, run_suite

__all__ = ["main", "entry_point"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INDEX_DISAGREE = 2
EXIT_NOT_REGULAR = 3
EXIT_INCONSISTENT = 4


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="daepencil",
        description="Analyze and solve regular linear differential-algebraic pencils.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="seed for all randomness")
        p.add_argument("--tol", type=float, default=1e-10, help="rank tolerance of the IV chain")

    p_analyze = sub.add_parser("analyze", help="full analysis report for one pencil")
    p_analyze.add_argument("E", help="Matrix Market file for E")
    p_analyze.add_argument("A", help="Matrix Market file for A")
    p_analyze.add_argument("--json", dest="json_out", help="write the report here (default stdout)")
    common(p_analyze)

    p_solve = sub.add_parser("solve", help="integrate Eu' + Au = 0 and write a CSV trajectory")
    p_solve.add_argument("E")
    p_solve.add_argument("A")
    p_solve.add_argument("u0", help="whitespace-separated initial value file")
    p_solve.add_argument("--t-end", type=float, required=True)
    p_solve.add_argument("--steps", type=int, required=True)
    p_solve.add_argument(
        "--method", choices=("exponential", "euler", "oracle"), default="exponential"
    )
    p_solve.add_argument("--csv", dest="csv_out", help="write the trajectory here (default stdout)")
    common(p_solve)

    p_verify = sub.add_parser("verify", help="run the property suite on fixtures")
    p_verify.add_argument("--fixtures", help="JSON file with a list of fixture specs")
    p_verify.add_argument("--random", type=int, help="number of random fixtures to draw")
    p_verify.add_argument("--dim-range", default="2..20", help="dimensions, e.g. 2..20")
    p_verify.add_argument("--index-range", default="0..3", help="growth indices, e.g. 0..4")
    p_verify.add_argument("--conditioning", type=float, default=100.0)
    p_verify.add_argument("--json", dest="json_out", help="also write results as JSON")
    common(p_verify)

    p_generate = sub.add_parser("generate", help="write a fixture pencil to a directory")
    p_generate.add_argument("--n1", type=int, required=True, help="dimension of the ODE block")
    p_generate.add_argument(
        "--blocks", default="", help="comma-separated nilpotent block sizes, e.g. 2,3"
    )
    p_generate.add_argument("--conditioning", type=float, default=100.0)
    p_generate.add_argument("--out", required=True, help="output directory (created if missing)")
    common(p_generate)
    return parser


def _parse_range(text):
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ValueError(f"expected 'a..b', got {text!r}")
    return int(lo), int(hi)


def _load_pencil(args):
    E = parse_matrix_market(args.E)
    A = parse_matrix_market(args.A)
    return new_pencil(E, A)


def _cmd_analyze(args):
    pencil = _load_pencil(args)
    report = analyze_pencil(pencil, seed=args.seed, tol=RankTolerance(args.tol))
    text = report_to_json(report)
    if args.json_out:
        with open(args.json_out, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if not report.regular:
        return EXIT_NOT_REGULAR
    if not report.indices_agree:
        return EXIT_INDEX_DISAGREE
    return EXIT_OK


def _cmd_solve(args):
    pencil = _load_pencil(args)
    if not certify_regularity(pencil, args.seed).regular:
        raise NotRegularError("the pencil is not regular: det(sE + A) vanishes at n+1 points")
    u0 = read_vector(args.u0)
    if not 0 < args.t_end < np.inf or args.steps < 1:
        raise ValueError(
            "require finite --t-end > 0 and --steps >= 1, "
            f"got --t-end {args.t_end} and --steps {args.steps}"
        )
    times = np.linspace(0.0, args.t_end, args.steps + 1)
    if args.method == "exponential":
        chain = compute_chain(pencil, RankTolerance(args.tol))
        trajectory = classical_solution(pencil, chain, u0, times)
    elif args.method == "oracle":
        trajectory = decomposition_oracle(pencil, u0, times, seed=args.seed)
    else:
        trajectory = implicit_euler(pencil, u0, args.t_end / args.steps, args.t_end)
    if args.csv_out:
        with open(args.csv_out, "w", encoding="ascii", newline="\n") as fh:
            write_trajectory_csv(fh, trajectory)
    else:
        write_trajectory_csv(sys.stdout, trajectory)
    return EXIT_OK


def _load_fixture_specs(path):
    with open(path, "r", encoding="ascii") as fh:
        raw = json.load(fh)
    if not isinstance(raw, list):
        raise ValueError("fixture file must hold a JSON list of spec objects")
    return [_fixture_spec(i, entry) for i, entry in enumerate(raw)]


def _fixture_spec(i, entry):
    """The FixtureSpec of entry i of a fixture file: an object whose n1, seed and
    nilpotent_blocks items are JSON integers; a ValueError naming i otherwise."""
    if not isinstance(entry, dict):
        raise ValueError(f"fixture entry {i} is not a JSON object: {json.dumps(entry)}")
    blocks = entry.get("nilpotent_blocks", [])
    if not isinstance(blocks, list):
        raise ValueError(f"fixture entry {i}: nilpotent_blocks must be a list")
    seed, conditioning = entry.get("seed", 0), entry.get("conditioning", 100.0)
    for key, value in (("n1", entry.get("n1")), ("seed", seed), *(("block", b) for b in blocks)):
        if type(value) is not int:
            raise ValueError(f"fixture entry {i}: {key} {json.dumps(value)} is not a JSON integer")
    if type(conditioning) not in (int, float):
        raise ValueError(f"fixture entry {i}: conditioning must be a JSON number")
    try:
        return FixtureSpec(entry["n1"], tuple(blocks), float(conditioning), seed)
    except ValueError as exc:
        raise ValueError(f"fixture entry {i}: {exc}") from None


def _cmd_verify(args):
    if args.fixtures:
        specs = _load_fixture_specs(args.fixtures)
    elif args.random:
        specs = random_specs(
            args.random,
            _parse_range(args.dim_range),
            _parse_range(args.index_range),
            seed=args.seed,
            conditioning=args.conditioning,
        )
    else:
        specs = []
    if not specs:
        print("error: nothing to verify (empty fixture list)", file=sys.stderr)
        return EXIT_ERROR
    result = run_suite(specs, seed=args.seed, tol=RankTolerance(args.tol))
    sys.stdout.write(result.table() + "\n")
    if args.json_out:
        with open(args.json_out, "w", encoding="ascii", newline="\n") as fh:
            fh.write(json.dumps(result.to_dict(), sort_keys=True, indent=2) + "\n")
    return EXIT_OK if result.passed else EXIT_ERROR


def _cmd_generate(args):
    blocks = tuple(int(b) for b in args.blocks.split(",") if b.strip())
    spec = FixtureSpec(
        n1=args.n1, nilpotent_blocks=blocks, conditioning=args.conditioning, seed=args.seed
    )
    pencil, truth = generate(spec)
    cons = consistent_space(pencil, compute_chain(pencil, RankTolerance(args.tol)))
    u0 = cons.basis[:, 0].real if cons.dim else np.zeros(pencil.n)
    os.makedirs(args.out, exist_ok=True)
    write_matrix_market(os.path.join(args.out, "E.mtx"), pencil.E)
    write_matrix_market(os.path.join(args.out, "A.mtx"), pencil.A)
    write_vector(os.path.join(args.out, "u0.txt"), u0)

    info = {"spec": asdict(spec), "ground_truth": asdict(truth), "n": pencil.n}
    with open(os.path.join(args.out, "truth.json"), "w", encoding="ascii", newline="\n") as fh:
        fh.write(json.dumps(info, sort_keys=True, indent=2) + "\n")
    print(f"wrote E.mtx, A.mtx, u0.txt, truth.json to {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "analyze": _cmd_analyze,
        "solve": _cmd_solve,
        "verify": _cmd_verify,
        "generate": _cmd_generate,
    }
    try:
        return handlers[args.command](args)
    except NotRegularError as exc:
        print(f"error: {exc}", file=sys.stderr)
        # the regularity exit code belongs to single-pencil commands
        return EXIT_NOT_REGULAR if args.command in ("analyze", "solve") else EXIT_ERROR
    except InconsistentInitialValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.nearest is not None:
            nearest = " ".join(format(x, ".17g") for x in np.real_if_close(exc.nearest))
            print(f"nearest consistent initial value: {nearest}", file=sys.stderr)
        return EXIT_INCONSISTENT if args.command == "solve" else EXIT_ERROR
    except (DaePencilError, OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
