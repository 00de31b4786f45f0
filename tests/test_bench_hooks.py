"""The library names the benchmark's tracer and checks look up.

``bench/tracing.py`` patches functions by module and name, and the traced
run reads two signatures; a rename in the package would otherwise surface
only when the benchmark runs with tracing on.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_patch_point_resolves():
    points = load_tracing().PATCH_POINTS
    assert points
    missing = [
        f"hcransim.{module}.{attr}"
        for module, attr, _ in points
        if not callable(getattr(importlib.import_module(f"hcransim.{module}"), attr, None))
    ]
    assert missing == []


def test_signatures_the_traced_run_reads():
    from hcransim.beamforming import rtd_solve
    from hcransim.rate_bounds import monte_carlo_rates

    feas_tol = inspect.signature(rtd_solve).parameters["feas_tol"]
    assert feas_tol.default is not inspect.Parameter.empty
    assert "trials" in inspect.signature(monte_carlo_rates).parameters
