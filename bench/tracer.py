"""Per-layer tracing for the benchmark's traced runs.

The layers are daepencil's modules.  `Tracer.op` wraps the public functions in
FUNCTIONS for the duration of one op by rebinding every module-level name in
every `daepencil.*` module that refers to them, because modules import each
other's functions by name (`from .pencils import resolvent`): patching the
defining module alone would miss most calls.  Each call records a span (name,
start, end, parent, op id) in memory; a span's self time is its duration minus
the durations of its child spans.

`numpy.linalg.{svd, solve, det, norm, eigvals, lstsq}` are wrapped as counters
only, with no span, so LAPACK time stays in the self time of the daepencil
function that called it.  Matrix 2-norms (`norm(M, 2)`, one SVD each) are
counted apart from other norms, and a nominal flop count is computed from the
argument shapes.

Nothing is patched outside `Tracer.op`, so untraced ops run the pristine code.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import warnings
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

FUNCTIONS = {
    "subspaces": ("image", "preimage", "contains", "project", "distance"),
    "pencils": ("certify_regularity", "resolvent", "index_by_growth", "index_by_nilpotency"),
    "chains": ("compute_chain", "check_restricted_iso"),
    "expm": ("expm",),
    "solvers": (
        "reduced_generator",
        "classical_solution",
        "implicit_euler",
        "fitting_splitting",
        "decomposition_oracle",
    ),
    "laplace": (
        "verify_commutation",
        "verify_shift",
        "verify_expansion",
        "verify_solution_formula",
        "verify_transform_match",
    ),
    "fileio": ("parse_matrix_market", "write_trajectory_csv"),
    "analysis": ("analyze_pencil", "report_to_json"),
    "verification": ("run_suite",),
}

LAPACK = ("svd", "solve", "det", "norm2", "norm_other", "eigvals", "lstsq")

PER_PENCIL = (
    "pencils.resolvent.calls",
    "pencils.certify_regularity.calls",
    "solvers.reduced_generator.calls",
    "lapack.norm2.calls",
)

OP_SPAN = "op"  # root span of one op; its self time is CLI and benchmark glue


def _svd_values_flops(m, n):
    big, small = max(m, n), min(m, n)
    return 4.0 * big * small**2 - 4.0 * small**3 / 3.0


def _flops(kind, args, kwargs):
    """Nominal real flop count of one numpy.linalg call (x4 for complex)."""
    a = args[0] if args else kwargs.get("a", kwargs.get("x"))
    shape = np.shape(a)
    if len(shape) < 2:
        return 2.0 * max(1, int(np.prod(shape))) if kind == "norm_other" else 0.0
    batch = float(np.prod(shape[:-2])) if len(shape) > 2 else 1.0
    m, n = shape[-2], shape[-1]
    if kind == "svd":
        full = args[2] if len(args) > 2 else kwargs.get("compute_uv", True)
        if full:
            big, small = max(m, n), min(m, n)
            flops = 4.0 * big**2 * small + 8.0 * big * small**2 + 9.0 * small**3
        else:
            flops = _svd_values_flops(m, n)
    elif kind == "norm2":
        flops = _svd_values_flops(m, n)
    elif kind == "norm_other":
        flops = 2.0 * m * n
    elif kind == "solve":
        b = args[1] if len(args) > 1 else kwargs["b"]
        rhs = np.shape(b)[-1] if np.ndim(b) == len(shape) else 1
        flops = 2.0 * n**3 / 3.0 + 2.0 * n**2 * rhs
    elif kind == "det":
        flops = 2.0 * n**3 / 3.0
    elif kind == "eigvals":
        flops = 10.0 * n**3
    else:  # lstsq, SVD based
        b = args[1] if len(args) > 1 else kwargs["b"]
        rhs = np.shape(b)[-1] if np.ndim(b) == 2 else 1
        flops = _svd_values_flops(m, n) + 2.0 * m * n * rhs
    return flops * batch * (4.0 if np.iscomplexobj(a) else 1.0)


def _norm_kind(args, kwargs):
    x = args[0] if args else kwargs["x"]
    order = args[1] if len(args) > 1 else kwargs.get("ord")
    axis = args[2] if len(args) > 2 else kwargs.get("axis")
    return "norm2" if order == 2 and np.ndim(x) == 2 and axis is None else "norm_other"


class Tracer:
    """Spans and counters of the traced ops of one run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()  # errors, warnings, bytes, lapack calls
        self.flops = 0.0
        self._stack = []  # [span index, time covered by children]
        self._op = None
        self._wrappers = self._build_wrappers()

    # ------------------------------------------------------------ spans

    def _enter(self, name):
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([len(self.spans), 0.0])
        self.spans.append([name, perf_counter(), None, parent, self._op])

    def _exit(self):
        index, children = self._stack.pop()
        span = self.spans[index]
        span[2] = perf_counter()
        duration = span[2] - span[1]
        self.self_s[span[0]] += duration - children
        if self._stack:
            self._stack[-1][1] += duration

    # ------------------------------------------------------------ wrappers

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            self.calls[name] += 1
            self._enter(name)
            try:
                if name == "pencils.certify_regularity":
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                    self.counts[name + ".warnings"] += len(caught)
                    return result
                if name == "fileio.parse_matrix_market":
                    self.counts[name + ".bytes"] += os.path.getsize(args[0])
                elif name == "fileio.write_trajectory_csv":
                    start = args[0].tell()
                    result = fn(*args, **kwargs)
                    self.counts[name + ".bytes"] += args[0].tell() - start
                    return result
                return fn(*args, **kwargs)
            except Exception:
                self.counts[name + ".errors"] += 1
                raise
            finally:
                self._exit()

        return traced

    def _count(self, attr, fn):
        def counted(*args, **kwargs):
            kind = _norm_kind(args, kwargs) if attr == "norm" else attr
            self.counts[f"lapack.{kind}.calls"] += 1
            self.flops += _flops(kind, args, kwargs)
            return fn(*args, **kwargs)

        return counted

    def _build_wrappers(self):
        """{id(original): (original, wrapper)} for every traced daepencil function."""
        wrappers = {}
        for module, names in FUNCTIONS.items():
            owner = sys.modules[f"daepencil.{module}"]
            for fname in names:
                original = getattr(owner, fname)
                wrappers[id(original)] = (original, self._wrap(f"{module}.{fname}", original))
        return wrappers

    def _patches(self):
        """(namespace, attribute, wrapper) for every name bound to a traced function."""
        found = []
        for mname, module in list(sys.modules.items()):
            if mname != "daepencil" and not mname.startswith("daepencil."):
                continue
            for attr, value in vars(module).items():
                original, wrapper = self._wrappers.get(id(value), (None, None))
                if original is value:
                    found.append((module, attr, wrapper))
        for attr in ("svd", "solve", "det", "norm", "eigvals", "lstsq"):
            found.append((np.linalg, attr, self._count(attr, getattr(np.linalg, attr))))
        return found

    @contextlib.contextmanager
    def op(self, op_id):
        """Trace one op: patch, record the op's spans, restore."""
        patches = self._patches()
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        self._op = op_id
        self._enter(OP_SPAN)
        try:
            yield
        finally:
            self._exit()
            self._op = None
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    # ------------------------------------------------------------ results

    def metrics(self, pencils):
        """Per-layer metrics as {name: (value, unit)}; pencils is the ratio base."""
        out = {}
        module_self = defaultdict(float)
        for module, names in FUNCTIONS.items():
            for fname in names:
                name = f"{module}.{fname}"
                out[name + ".calls"] = (self.calls[name], "count")
                out[name + ".self_s"] = (self.self_s[name], "s")
                module_self[module] += self.self_s[name]
        for module in FUNCTIONS:
            out[module + ".self_s"] = (module_self[module], "s")
        out[OP_SPAN + ".self_s"] = (self.self_s[OP_SPAN], "s")
        out["pencils.resolvent.errors"] = (self.counts["pencils.resolvent.errors"], "count")
        out["pencils.certify_regularity.warnings"] = (
            self.counts["pencils.certify_regularity.warnings"],
            "count",
        )
        for name in ("fileio.parse_matrix_market", "fileio.write_trajectory_csv"):
            out[name + ".bytes"] = (self.counts[name + ".bytes"], "bytes")
        for kind in LAPACK:
            out[f"lapack.{kind}.calls"] = (self.counts[f"lapack.{kind}.calls"], "count")
        out["lapack.flops_computed"] = (int(round(self.flops)), "flop")
        out["trace.pencils"] = (pencils, "count")
        for name in PER_PENCIL:
            total = out[name][0]
            out[name.rsplit(".", 1)[0] + ".calls_per_pencil"] = (total / pencils, "calls/pencil")
        return out

    def write_spans(self, path):
        """One JSON array per line: name, start_s, end_s, parent, op."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start - origin, end - origin, parent, op]) + "\n")
