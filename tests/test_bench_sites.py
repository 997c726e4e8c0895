"""The benchmark's tracer wraps coex functions by module and name; each one
must exist, or every traced benchmark run fails on lookup."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_resolves():
    tracing = _tracing()
    tracer = tracing.Tracer()
    sites = tracing.full_sites(tracer) + tracing.step_sites(tracer, alternate=False)
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in sites
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert sites and not missing, missing
