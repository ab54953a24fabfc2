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
bijective), so both failure paths of the transform match and the expansion
check are gated, and at `--seed 7 --conditioning 1e6`, where one expansion
grid point stays singular after its nudges and is dropped, failing the
check without aborting the run.  It
writes the singular pencil E = A = diag(1, 0) and u0 = (1, 0) as exact
array files and records the exit codes of `analyze` and of `solve` for each
`--method` on it, which the CLI's contract sets to 3.  It records the exit
codes of `solve --method exponential` and `--method oracle` on the fixture
of `generate --n1 16 --blocks 1 --conditioning 1e6 --seed
219515429046291558`, whose IV chain is wrong (consistent dimension 14, not
16): its split is built but its reduced generator is refused, so both exit
1.  It writes the pencil E = diag(1, N2), N2 the 2 x 2 nilpotent Jordan
block, and A = I_3 (Kronecker index 2, IV_(k+1) = span(e1)) and the
inconsistent u0 = e1 + e2, a consistent basis vector plus a unit normal to
IV_(k+1), as exact files, and records the exit code of `solve` for each
`--method` on it: 4 for `exponential` and `oracle`, 0 for `euler`, which
steps any u0.  Only exit codes are recorded there, not stderr, whose
labelled lines belong to the error's payload.  It writes the
`analyze --json` report of the pole pencil E = I_2, A = -s I_2 with
s = IDENTITY_POINTS[3] of `daepencil.analysis`, as exact array files: sE + A
is exactly zero at an identity point, so the stacked solve of the identity
grid is refused, the grid is solved point by point, and that point is nudged
to 1.01 s.  It also writes the `analyze --json` report of the 1-D Stokes-like
saddle `stokes_like(m)` of `tests/exact.py` at m = 16 (n = 24) and at m = 64
(n = 96), whose nonzero integer entries it writes exactly as the coordinate
files `E.mtx` and `A.mtx`, so they are the tests' saddles by construction.
The small saddle's finite eigenvalues run from 17 to 561 in modulus, far
outside the |lambda| <= 2.2 of every generated fixture, so the gate also
covers a pencil with a wide finite spectrum; the large one's resolvents are
sparse-structured, not randomly rotated, and their top singular values lie
close enough together that the power steps of `pencils._norm2` fall short
of `sigma_max` (to 0.91 of it).  SRC is the `src` directory of the checkout
to run (this checkout's by default), so two checkouts can be gated against
each other.

`compare` prints every JSON leaf and text line that differs between two
`run` directories as old -> new, marking numbers that went down, and
`failures` counts that went up, and giving each changed number's relative
change |new - old| / |old|, and exits 1 if any exit code or `passed` flag
differs, a file is missing on one side or a text file changes its line
count.  It ends with the largest relative change per key, such as
`transform_match.max_relative_error` or `classical_residual.worst`, next to
the largest magnitude of that key's changed values on either side, so that a
roundoff-sized move reads at a glance, with every `failures` count that
rose, and with the number of differing lines of each text file that has any.
A `.csv` of the same line count is compared cell by cell under its header
line: for each column it prints the number of differing cells, their
largest relative change (inf where either cell is not a finite number) and
the largest magnitude of the changed cells on either side (NaN and text cells
left out), not the lines.
Any other text file has its lines paired by `difflib.SequenceMatcher` and
prints each run of removed and added lines, so a table that loses one row
shows that one line, not every line after it.

Only the standard library, the CLI and `tests/exact.py` (standard library
only) are used.
"""

from __future__ import annotations

import argparse
import difflib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "exact", Path(__file__).resolve().parents[1] / "tests" / "exact.py"
)
exact = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(exact)

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
# generate options of the fixture whose reduced generator is refused but whose split is built
REFUSED = ("--n1", 16, "--blocks", 1, "--conditioning", "1e6", "--seed", 219515429046291558)
# IDENTITY_POINTS[3] = np.geomspace(0.5, 50.0, 20)[3], exactly, the pole of the pole pencil
POLE = "1.0345690405573948"
# m of the Stokes-like saddles exact.stokes_like(m)
STOKES_M = (16, 64)
VERIFY_ARGS = ("--random", "60", "--dim-range", "2..20", "--index-range", "0..4")
# output name -> the verify options that follow VERIFY_ARGS
VERIFY_RUNS = {f"verify_seed-{seed}": ("--seed", seed) for seed in (7, 8, 9, 11)}
VERIFY_RUNS[f"verify_seed-7_tol-{TOL}"] = ("--seed", 7, "--tol", TOL)
VERIFY_RUNS["verify_seed-1_conditioning-1e5"] = ("--seed", 1, "--conditioning", "1e5")
VERIFY_RUNS["verify_seed-1_conditioning-1e6"] = ("--seed", 1, "--conditioning", "1e6")
VERIFY_RUNS["verify_seed-7_conditioning-1e6"] = ("--seed", 7, "--conditioning", "1e6")
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
    """E.mtx and A.mtx of exact.stokes_like(m), its nonzero entries only."""
    fixture.mkdir(parents=True, exist_ok=True)
    for name, M in zip(("E.mtx", "A.mtx"), exact.stokes_like(m)):
        entries = {(i, j): v for i, row in enumerate(M) for j, v in enumerate(row) if v}
        _write_coordinate(fixture / name, len(M), entries)


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


def _write_inconsistent(fixture: Path):
    """E.mtx = diag(1, N2), A.mtx = I_3 and u0.txt = e1 + e2, all exact."""
    fixture.mkdir(parents=True, exist_ok=True)
    _write_coordinate(fixture / "E.mtx", 3, {(0, 0): 1, (1, 2): 1})
    _write_coordinate(fixture / "A.mtx", 3, {(i, i): 1 for i in range(3)})
    (fixture / "u0.txt").write_text("1 1 0\n", encoding="ascii")


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
    fixture = out / "refused_generator"
    if _cli(src, "generate", *REFUSED, "--out", fixture):
        raise SystemExit("generate failed for refused_generator")
    E, A, u0 = fixture / "E.mtx", fixture / "A.mtx", fixture / "u0.txt"
    for method in ("exponential", "oracle"):
        runs[f"solve_refused_generator_{method}"] = (
            "solve", E, A, u0, *SOLVE_ARGS, "--method", method,
        )
    fixture = out / "inconsistent"
    _write_inconsistent(fixture)
    E, A, u0 = fixture / "E.mtx", fixture / "A.mtx", fixture / "u0.txt"
    for method in SOLVE_METHODS:
        runs[f"solve_inconsistent_{method}"] = ("solve", E, A, u0, *SOLVE_ARGS, "--method", method)
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


def _number(cell):
    """A CSV cell as a float, or as the text it is."""
    try:
        return float(cell)
    except ValueError:
        return cell


def _key(path):
    """The path's last list label and its leaf.

    `rows[classical_residual].worst` -> `classical_residual.worst`.
    """
    head, _, leaf = path.rpartition(".")
    if not head.endswith("]"):
        return path
    return f"{head[head.rindex('[') + 1 : -1]}.{leaf}"


def compare(old_dir: Path, new_dir: Path) -> int:
    bad = 0
    largest = {}  # key -> (largest relative change, largest magnitude) of its changed numbers
    differing = {}  # text file -> number of differing lines
    rises = []  # "file: key: old -> new" of every failures count that rose
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
                    leaf = key.rsplit(".", 1)[-1]
                    rel = _relative(a, b)
                    rose = rel is not None and b > a and leaf == "failures"
                    trend = ", higher" if rose else ", lower" if rel is not None and b < a else ""
                    mark = "" if rel is None else f"  (rel {rel:.2e}{trend})"
                    print(f"{name}: {key}: {a!r} -> {b!r}{mark}")
                    if rose:
                        rises.append(f"{name}: {_key(key)}: {a} -> {b}")
                    if rel is not None:
                        most, size = largest.get(_key(key), (0.0, 0.0))
                        largest[_key(key)] = max(most, rel), max(size, abs(a), abs(b))
                    gated = name == EXIT_CODES or leaf == "passed"
                    bad += gated or "<missing>" in (a, b)
        else:
            old_lines = old_path.read_text().splitlines()
            new_lines = new_path.read_text().splitlines()
            if len(old_lines) != len(new_lines):
                print(f"{name}: {len(old_lines)} lines -> {len(new_lines)} lines")
                bad += 1
            by_cell = name.endswith(".csv") and old_lines and len(old_lines) == len(new_lines)
            if by_cell:  # lines paired by position, data lines compared cell by cell
                header = old_lines[0].split(",")
                pairs = zip(old_lines, new_lines)
                runs = [(i, i + 1, i, i + 1) for i, (a, b) in enumerate(pairs) if a != b]
            else:  # lines paired by content, so a removed line moves no other
                matcher = difflib.SequenceMatcher(None, old_lines, new_lines, autojunk=False)
                runs = [op[1:] for op in matcher.get_opcodes() if op[0] != "equal"]
            columns = {}  # CSV column -> (differing cells, largest relative change, magnitude)
            for i, i_end, j, j_end in runs:
                differing[name] = differing.get(name, 0) + max(i_end - i, j_end - j)
                cells = by_cell and i and (old_lines[i].split(","), new_lines[j].split(","))
                if not (cells and len(cells[0]) == len(cells[1]) == len(header)):
                    removed = [f"  - {line}" for line in old_lines[i:i_end]]
                    added = [f"  + {line}" for line in new_lines[j:j_end]]
                    print(f"{name}:", *removed, *added, sep="\n")
                    continue
                for column, x, y in zip(header, *cells):
                    if x != y:
                        a, b = _number(x), _number(y)
                        rel = _relative(a, b)
                        rel = math.inf if rel is None or math.isnan(rel) else rel
                        sizes = [abs(v) for v in (a, b) if isinstance(v, float)]
                        sizes = [v for v in sizes if not math.isnan(v)]
                        count, most, size = columns.get(column, (0, 0.0, 0.0))
                        columns[column] = count + 1, max(most, rel), max([size, *sizes])
            if columns:
                total = sum(count for count, _, _ in columns.values())
                print(f"{name}: {total} differing cell(s), by column:")
                for column, (count, most, size) in columns.items():
                    print(
                        f"  {column}: {count}, largest relative change {most:.2e}, "
                        f"largest magnitude {size:.2e}"
                    )
    if largest:
        print("largest relative change per key:")
        for key, (most, size) in sorted(largest.items()):
            print(f"  {key}: {most:.2e}, largest magnitude {size:.2e}")
    if rises:
        print("failures that rose:")
        for line in rises:
            print(f"  {line}")
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
