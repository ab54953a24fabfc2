"""The benchmark's tracer rebinds daepencil functions by name.

bench/tracer.py lists them in FUNCTIONS; a rename or removal there would only
show as a crash of a traced benchmark run, so every entry is resolved here.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_tracer_functions_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module, names in tracer.FUNCTIONS.items():
        owner = importlib.import_module(f"daepencil.{module}")
        missing += [f"{module}.{name}" for name in names if not callable(getattr(owner, name, None))]
    assert not missing, missing
