"""Byte gate for the deterministic reports of the daepencil CLI.

    python3 tools/report_gate.py run OUT [--src SRC]
    python3 tools/report_gate.py compare OLD NEW

`run` writes into OUT the `analyze --json` report of 14 `generate` fixtures,
each fixture's files (`E.mtx`, `A.mtx`, `u0.txt`, `truth.json`) in a
directory of the same name, the `analyze --json --tol 1e-8` report of two of
them, the `solve --csv` trajectory of three of them (Kronecker index <= 2)
for each `--method`, and the stdout, JSON and exit code of
`verify --random 60 --dim-range 2..20 --index-range 0..4 --seed S` for
S = 7, 8, 9, 11, of the same command at `--seed 7 --tol 1e-8`, where every
rank, membership, bijectivity and consistency cutoff moves with the
tolerance, at `--seed 1 --conditioning 1e5`,
where the subspace chains meet roundoff well above the rank tolerance, and
at `--seed 1 --conditioning 1e6`, where the reduced generator fails on 19
fixtures (17 over its residual cap, 2 with a restricted E that is not
bijective), so both failure paths of the transform match are gated.  It
writes the singular pencil E = A = diag(1, 0) and u0 = (1, 0) as exact
array files and records the exit codes of `analyze` and of `solve` for each
`--method` on it, which the CLI's contract sets to 3.  It writes the
`analyze --json` report of the pole pencil E = I_2, A = -s I_2 with
s = IDENTITY_POINTS[3] of `daepencil.analysis`, as exact array files: sE + A
is exactly zero at an identity point, so the stacked solve of the identity
grid fails there, is halved down to that point, and the point is nudged to
1.01 s.  It also writes the `analyze --json` report of a 1-D Stokes-like saddle at
m = 16 (n = 24) and at m = 64 (n = 96), whose `E.mtx` and `A.mtx` it writes
itself with exact entries.  The small saddle's finite eigenvalues run from 17
to 561 in modulus, far outside the |lambda| <= 2.2 of every generated
fixture, so the gate also covers a pencil with a wide finite spectrum; the
large one's resolvents are sparse-structured, not randomly rotated, and have
the 48 or more columns at which `pencils._norm2` estimates instead of taking
the SVD.  SRC is the `src` directory of the checkout to run (this checkout's
by default), so two checkouts can be gated against each other.

`compare` prints every JSON leaf and text line that differs between two
`run` directories as old -> new, marking numbers that went down and giving
each changed number's relative change |new - old| / |old|, and exits 1 if
any exit code or `passed` flag differs, a file is missing on one side or a
text file changes its line count.  It ends with the largest relative
change per key, such as `transform_match.max_relative_error` or
`oracle_agreement.worst`, so that a roundoff-sized move reads at a glance,
and with the number of differing lines of each text file that has any.

Only the standard library and the CLI are used.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

# (generate --n1, --blocks, --seed, analyze --seed); None means no --blocks
ANALYZE_FIXTURES = (
    (2, None, 1, 0),
    (1, "2", 3, 5),
    (5, "3", 11, 2),
    (0, "4", 12, 1),
    (3, "5", 13, 3),
    (20, "3,2", 21, 7),
    (35, "4,1", 22, 9),
    (75, "3,2", 23, 4),
    (116, "3,1", 7961092196937783157, 935017201),
    (155, "3,2", 24, 6),
    (10, "5,2", 25, 8),
    (50, "2", 26, 10),
    (0, "1,1", 27, 11),
    (6, "4", 28, 12),
)
# generate --seed of the fixtures also analyzed at a non-default rank tolerance
TOL_SEEDS = (3, 11)
TOL = "1e-8"
# generate --seed of the fixtures solved by every --method (Kronecker index 0, 2, 2)
SOLVE_SEEDS = (1, 3, 26)
SOLVE_ARGS = ("--t-end", "2", "--steps", "200")
SOLVE_METHODS = ("exponential", "oracle", "euler")
# IDENTITY_POINTS[3] = np.geomspace(0.5, 50.0, 20)[3], exactly, the pole of the pole pencil
POLE = "1.0345690405573948"
# m of the Stokes-like saddles E = diag(I_m, 0_{m/2}), A = [[L, B^T], [-B, 0]]
STOKES_M = (16, 64)
VERIFY_ARGS = ("--random", "60", "--dim-range", "2..20", "--index-range", "0..4")
# output name -> the verify options that follow VERIFY_ARGS
VERIFY_RUNS = {f"verify_seed-{seed}": ("--seed", seed) for seed in (7, 8, 9, 11)}
VERIFY_RUNS[f"verify_seed-7_tol-{TOL}"] = ("--seed", 7, "--tol", TOL)
VERIFY_RUNS["verify_seed-1_conditioning-1e5"] = ("--seed", 1, "--conditioning", "1e5")
VERIFY_RUNS["verify_seed-1_conditioning-1e6"] = ("--seed", 1, "--conditioning", "1e6")
EXIT_CODES = "exit_codes.json"


def _cli(src, *args, stdout=subprocess.DEVNULL):
    """Run `python -m daepencil ARGS` on the package under src; its exit code."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    cmd = (sys.executable, "-m", "daepencil", *map(str, args))
    return subprocess.run(cmd, env=env, stdout=stdout, check=False).returncode


def _write_coordinate(path, n, entries):
    """A Matrix Market coordinate file of the n x n matrix {(i, j): value}, 0-based."""
    lines = ["%%MatrixMarket matrix coordinate real general", f"{n} {n} {len(entries)}"]
    lines += [f"{i + 1} {j + 1} {v}" for (i, j), v in sorted(entries.items())]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _write_stokes(fixture: Path, m: int):
    """E.mtx and A.mtx of the Stokes-like saddle E = diag(I_m, 0_q),
    A = [[L, B^T], [-B, 0]], q = m/2, h = 1/(m + 1).

    L is the tridiagonal Laplacian over h^2 (2/h^2 on the diagonal, -1/h^2
    beside it) and row i of B holds 1/h at node 2i and -1/h at node 2i + 1,
    so every entry is an integer and is written exactly.
    """
    q, inv_h = m // 2, m + 1
    E = {(i, i): 1 for i in range(m)}
    A = {(i, i): 2 * inv_h**2 for i in range(m)}
    for i in range(m - 1):
        A[i, i + 1] = A[i + 1, i] = -inv_h**2
    for i in range(q):
        for node, b in ((2 * i, inv_h), (2 * i + 1, -inv_h)):
            A[node, m + i] = b  # B^T
            A[m + i, node] = -b  # -B
    fixture.mkdir(parents=True, exist_ok=True)
    _write_coordinate(fixture / "E.mtx", m + q, E)
    _write_coordinate(fixture / "A.mtx", m + q, A)


def _write_diagonal(path, d0, d1):
    """A Matrix Market array file of diag(d0, d1), entries written as given."""
    text = f"%%MatrixMarket matrix array real general\n2 2\n{d0}\n0\n0\n{d1}\n"
    path.write_text(text, encoding="ascii")


def _write_singular(fixture: Path):
    """E.mtx = A.mtx = diag(1, 0) in array format and u0.txt = (1, 0), all exact."""
    fixture.mkdir(parents=True, exist_ok=True)
    for name in ("E.mtx", "A.mtx"):
        _write_diagonal(fixture / name, 1, 0)
    (fixture / "u0.txt").write_text("1 0\n", encoding="ascii")


def _write_pole(fixture: Path):
    """E.mtx = I_2 and A.mtx = -POLE I_2 in array format, both exact."""
    fixture.mkdir(parents=True, exist_ok=True)
    _write_diagonal(fixture / "E.mtx", 1, 1)
    _write_diagonal(fixture / "A.mtx", f"-{POLE}", f"-{POLE}")


def run(out: Path, src: Path):
    out.mkdir(parents=True, exist_ok=True)
    codes = {}
    for n1, blocks, seed, analyze_seed in ANALYZE_FIXTURES:
        name = f"analyze_n1-{n1}_blocks-{blocks or 'none'}_seed-{seed}"
        fixture = out / name
        extra = ("--blocks", blocks) if blocks else ()
        if _cli(src, "generate", "--n1", n1, *extra, "--seed", seed, "--out", fixture):
            raise SystemExit(f"generate failed for {name}")
        E, A, u0 = fixture / "E.mtx", fixture / "A.mtx", fixture / "u0.txt"
        codes[name] = _cli(
            src, "analyze", E, A, "--seed", analyze_seed, "--json", out / f"{name}.json"
        )
        print(f"{name}: exit {codes[name]}")
        if seed in TOL_SEEDS:
            key = f"{name}_tol-{TOL}"
            codes[key] = _cli(
                src, "analyze", E, A, "--seed", analyze_seed, "--tol", TOL,
                "--json", out / f"{key}.json",
            )
            print(f"{key}: exit {codes[key]}")
        for method in SOLVE_METHODS if seed in SOLVE_SEEDS else ():
            key = f"solve_{name}_{method}"
            codes[key] = _cli(
                src, "solve", E, A, u0, *SOLVE_ARGS, "--method", method,
                "--csv", fixture / f"{method}.csv",
            )
            print(f"{key}: exit {codes[key]}")
    fixture = out / "singular"
    _write_singular(fixture)
    E, A, u0 = fixture / "E.mtx", fixture / "A.mtx", fixture / "u0.txt"
    runs = {"analyze_singular": ("analyze", E, A)}
    for method in SOLVE_METHODS:
        runs[f"solve_singular_{method}"] = ("solve", E, A, u0, *SOLVE_ARGS, "--method", method)
    for key, args in runs.items():
        codes[key] = _cli(src, *args)
        print(f"{key}: exit {codes[key]}")
    name = "analyze_pole"
    _write_pole(out / name)
    E, A = out / name / "E.mtx", out / name / "A.mtx"
    codes[name] = _cli(src, "analyze", E, A, "--json", out / f"{name}.json")
    print(f"{name}: exit {codes[name]}")
    for m in STOKES_M:
        name = f"analyze_stokes_m-{m}"
        _write_stokes(out / name, m)
        E, A = out / name / "E.mtx", out / name / "A.mtx"
        codes[name] = _cli(src, "analyze", E, A, "--json", out / f"{name}.json")
        print(f"{name}: exit {codes[name]}")
    for name, options in VERIFY_RUNS.items():
        with open(out / f"{name}.txt", "w", encoding="ascii") as fh:
            codes[name] = _cli(
                src, "verify", *VERIFY_ARGS, *options,
                "--json", out / f"{name}.json", stdout=fh,
            )
        print(f"{name}: exit {codes[name]}")
    (out / EXIT_CODES).write_text(json.dumps(codes, sort_keys=True, indent=2) + "\n")


def _leaves(node, path=""):
    """(path, value) of every JSON leaf; list items are named by their
    `identity` or `name` key where they have one."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, item in enumerate(node):
            label = item.get("identity", item.get("name", i)) if isinstance(item, dict) else i
            yield from _leaves(item, f"{path}[{label}]")
    else:
        yield path, node


def _relative(old, new):
    """|new - old| / |old| when both are numbers, else None."""
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new)):
        return None
    if old == 0:
        return 0.0 if new == 0 else math.inf
    return abs(new - old) / abs(old)


def _key(path):
    """The path's last list label and its leaf.

    `rows[oracle_agreement].worst` -> `oracle_agreement.worst`.
    """
    head, _, leaf = path.rpartition(".")
    if not head.endswith("]"):
        return path
    return f"{head[head.rindex('[') + 1 : -1]}.{leaf}"


def compare(old_dir: Path, new_dir: Path) -> int:
    bad = 0
    largest = {}  # key -> largest relative change of its numbers
    differing = {}  # text file -> number of differing lines
    names = sorted(
        {p.relative_to(root).as_posix() for root in (old_dir, new_dir) for p in root.rglob("*")
         if p.is_file()}
    )
    for name in names:
        old_path, new_path = old_dir / name, new_dir / name
        if not (old_path.exists() and new_path.exists()):
            print(f"{name}: only in {old_dir if old_path.exists() else new_dir}")
            bad += 1
            continue
        if name.endswith(".json"):
            old = dict(_leaves(json.loads(old_path.read_text())))
            new = dict(_leaves(json.loads(new_path.read_text())))
            for key in sorted(old.keys() | new.keys()):
                a, b = old.get(key, "<missing>"), new.get(key, "<missing>")
                if a != b:
                    rel = _relative(a, b)
                    mark = "" if rel is None else f"  (rel {rel:.2e}{', lower' if b < a else ''})"
                    print(f"{name}: {key}: {a!r} -> {b!r}{mark}")
                    if rel is not None:
                        largest[_key(key)] = max(largest.get(_key(key), 0.0), rel)
                    gated = name == EXIT_CODES or key.rsplit(".", 1)[-1] == "passed"
                    bad += gated or "<missing>" in (a, b)
        else:
            old_lines = old_path.read_text().splitlines()
            new_lines = new_path.read_text().splitlines()
            if len(old_lines) != len(new_lines):
                print(f"{name}: {len(old_lines)} lines -> {len(new_lines)} lines")
                bad += 1
            for a, b in zip(old_lines, new_lines):
                if a != b:
                    print(f"{name}:\n  - {a}\n  + {b}")
                    differing[name] = differing.get(name, 0) + 1
    if largest:
        print("largest relative change per key:")
        for key in sorted(largest):
            print(f"  {key}: {largest[key]:.2e}")
    if differing:
        print("differing lines per text file:")
        for name in sorted(differing):
            print(f"  {name}: {differing[name]}")
    print(f"{sum(differing.values())} differing line(s)")
    print(f"{len(names)} files compared, {bad} gated difference(s)")
    return 1 if bad else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_run = sub.add_parser("run", help="write the gate's reports into OUT")
    p_run.add_argument("out", type=Path)
    p_run.add_argument(
        "--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
        help="src directory of the checkout to run (default: this one)",
    )
    p_compare = sub.add_parser("compare", help="diff two run directories")
    p_compare.add_argument("old", type=Path)
    p_compare.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    if args.mode == "run":
        run(args.out, args.src.resolve())
        return 0
    return compare(args.old, args.new)


if __name__ == "__main__":
    sys.exit(main())
