"""The benchmark's tracer wraps qsp internals by name: deleting or renaming
one of them breaks only the traced benchmark passes, so check here that
every name it looks up still exists."""

import importlib.util
import os

import qsp.kzmono

TRACING = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_name_it_wraps():
    tracing = _load_tracing()
    # looks up every wrapped function; with no modules it replaces nothing
    tracing.Counters().install([])
    filename, _, name = tracing.ode_rhs_code(qsp.kzmono)
    assert name == "fn"
    assert os.path.samefile(filename, qsp.kzmono.__file__)
