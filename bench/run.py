"""daepencil benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload analyze-large --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
Set-up draws the workload's fixtures from --seed and writes them as files
(three times; `setup_s` is the median plus the import time).  The measured
part runs a fixed set of ops in two passes, sized so that both take about
--seconds on the reference machine, with one closed-loop client in one
process and single-threaded BLAS.  Every op's output is checked, and each
op's output files must be byte-identical in both passes.  With --trace 0 the
last stdout line carries the end-to-end metrics over all timed ops; with
--trace 1 the second pass is traced, and the line carries the per-layer
metrics.  See bench/README.md.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = BENCH_DIR / ".work"
SETUP_REPEATS = 3
PASSES = 2  # every op runs once per pass, and its outputs must repeat byte for byte
TAIL_BEYOND = 10  # op_tail_s: the highest percentile with this many samples beyond it


def _import_program():
    """Import numpy and daepencil from this checkout's src/; return the time taken."""
    package = ROOT / "src" / "daepencil"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: {package} not found; run from a checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    start = perf_counter()
    import numpy  # noqa: F401
    import daepencil
    import daepencil.cli  # noqa: F401

    elapsed = perf_counter() - start
    if Path(daepencil.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"bench: imported daepencil from {daepencil.__file__}, not {package}")
    return elapsed


def _calibration_s():
    """A fixed pure-Python loop: context for the machine's speed, never a scale."""
    start = perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc = (acc + i * i) % 1_000_003
    return perf_counter() - start


def _environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy without mode="dicts"
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            np.show_config()
        blas = buf.getvalue()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "calibration_s": _calibration_s(),
    }


def _set_up(wl, seed, count, root):
    """Draw the fixtures, write their files and warm up on the first op."""
    import numpy as np

    shutil.rmtree(root, ignore_errors=True)
    (root / "out").mkdir(parents=True)
    rng = np.random.default_rng([seed, 0])
    fixtures = [wl.fixture(rng, i, root / f"op{i}") for i in range(count)]
    with contextlib.suppress(Exception):  # a failing op shows in the measured run
        wl.op(fixtures[0], root / "out")
    return fixtures


def _run_ops(wl, fixtures, out, tracer=None):
    """Run and check every fixture's op once; return (latency_s, status, note,
    output digest) per op."""
    from workloads import OpFailed, WrongOutput, digest

    records = []
    for i, fx in enumerate(fixtures):
        scope = tracer.op(i) if tracer else contextlib.nullcontext()
        start = perf_counter()
        try:
            with scope:
                outputs = wl.op(fx, out)
        except Exception as exc:  # the loop carries on; the op counts as failed
            note = f"{type(exc).__name__}: {exc}"
            records.append((perf_counter() - start, "failed", note, note))
            continue
        latency = perf_counter() - start
        output_digest = digest(wl.files(fx, outputs, out))
        try:
            wl.check(fx, outputs, out)
        except OpFailed as exc:
            records.append((latency, "failed", str(exc), output_digest))
        except WrongOutput as exc:
            records.append((latency, "wrong", str(exc), output_digest))
        except Exception as exc:  # an unreadable output is a wrong output
            records.append((latency, "wrong", f"{type(exc).__name__}: {exc}", output_digest))
        else:
            records.append((latency, "ok", "", output_digest))
    return records


def _timed_ops(passes, fixtures):
    """Every timed op of the passes as (latency_s, status, note, fixture).

    An op whose output files differ between its passes in a byte is wrong in
    every pass: the README's byte-identical claim, measured."""
    differ = [len({run[3] for run in runs}) > 1 for runs in zip(*passes)]
    ops = []
    for records in passes:
        for (latency, status, note, _), fx, repeats_differ in zip(records, fixtures, differ):
            if repeats_differ:
                status, note = "wrong", "; ".join(filter(None, ("outputs differ between passes", note)))
            ops.append((latency, status, note, fx))
    for _, status, note, fx in ops:
        if status != "ok":
            print(f"# op {fx.key} {status}: {note}", file=sys.stderr)
    return ops


def _ranked(records):
    """Latencies in order, an op that did not pass ranking above every passed op."""
    return sorted((0, r[0]) if r[1] == "ok" else (1, r[0]) for r in records)


def _at(ranked, position):
    """Latency at a (possibly fractional) rank; a failed op reads as the slowest op."""
    slowest = max(lat for _, lat in ranked)

    def value(i):
        failed, lat = ranked[i]
        return slowest if failed else lat

    low = int(position)
    if low == position:
        return value(low)
    return 0.5 * (value(low) + value(low + 1))


def _ops_per_s(records):
    """Passed ops per second spent in ops; failed ops' time stays in the denominator."""
    return sum(r[1] == "ok" for r in records) / sum(r[0] for r in records)


def _end_to_end(ops, setup_s, import_s):
    n = len(ops)
    ranked = _ranked(ops)
    tail_rank = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    passed = sum(op[1] == "ok" for op in ops)
    metrics = {
        "ops_per_s": (_ops_per_s(ops), "1/s"),
        "op_p50_s": (_at(ranked, (n - 1) / 2), "s"),
        "op_tail_s": (_at(ranked, tail_rank), "s"),
        "pass_share": (passed / n, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (import_s + statistics.median(setup_s), "s"),
    }
    tail = {"percentile": 100.0 * (tail_rank + 1) / n, "samples": n, "beyond": n - 1 - tail_rank}
    return metrics, tail


def _per_layer(wl, fixtures, out):
    """Run the ops untraced, then traced; return (both passes, per-layer metrics, tracer)."""
    from tracer import Tracer

    untraced = _run_ops(wl, fixtures, out)
    tracer = Tracer()
    traced = _run_ops(wl, fixtures, out, tracer)
    metrics = tracer.metrics(sum(fx.pencils for fx in fixtures))
    metrics["trace.ops_per_s_untraced"] = (_ops_per_s(untraced), "1/s")
    metrics["trace.ops_per_s_traced"] = (_ops_per_s(traced), "1/s")
    metrics["trace.overhead"] = (
        sum(r[0] for r in traced) / sum(r[0] for r in untraced),
        "ratio",
    )
    return [untraced, traced], metrics, tracer


def main(argv=None):
    import_s = _import_program()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    root = WORK / f"{tag}-{os.getpid()}"
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    env = _environment()
    print("# env " + json.dumps(env, sort_keys=True))

    count = wl.op_count(args.seconds / PASSES)
    tail = None
    try:
        setup_s = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            fixtures = _set_up(wl, args.seed, count, root)
            setup_s.append(perf_counter() - start)
        if args.trace:
            passes, metrics, tracer = _per_layer(wl, fixtures, root / "out")
            tracer.write_spans(results / f"{tag}-spans.jsonl")
        else:
            passes = [_run_ops(wl, fixtures, root / "out") for _ in range(PASSES)]
    finally:
        shutil.rmtree(root, ignore_errors=True)
    ops = _timed_ops(passes, fixtures)
    if not args.trace:
        metrics, tail = _end_to_end(ops, setup_s, import_s)

    wrong = sum(op[1] == "wrong" for op in ops)
    failed = sum(op[1] != "ok" for op in ops)
    line = {
        "correct": wrong == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = dict(
        line,
        workload=wl.name,
        seed=args.seed,
        trace=args.trace,
        input_sizes=wl.sizes,
        ops=count,
        passes=len(passes),
        op_tail=tail,
        setup_runs_s=setup_s,
        import_s=import_s,
        environment=env,
        ops_detail=[
            {"key": fx.key, "pass": i // count, "latency_s": lat, "status": status, "note": note}
            for i, (lat, status, note, fx) in enumerate(ops)
        ],
    )
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"# {wl.name}: {count} ops ({wl.sizes}) x {len(passes)} passes, {failed} failed")
    if tail:
        print(
            f"# op_tail_s is the p{tail['percentile']:.1f} latency: "
            f"{tail['beyond']} of {tail['samples']} samples beyond it"
        )
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
