"""The benchmark's tracer wraps package functions by module and name."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.mark.skipif(not TRACING.exists(), reason="needs the bench/ directory of a checkout")
def test_traced_names_resolve_in_their_modules():
    # bench/tracing.py names each function it wraps by its degenrelax module;
    # a function moved or renamed there breaks every traced bench run
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tables = [tracing.LAYER_FUNCS, tracing.CONSTRUCTORS]
    missing = [f"degenrelax.{mod}.{name}" for table in tables for mod, names in table.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"degenrelax.{mod}"), name, None))]
    assert missing == []
    assert all(tables)
