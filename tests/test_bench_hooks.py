"""The library names the benchmark's tracer and checks look up.

``bench/tracing.py`` patches functions by module and name, the traced run
reads two signatures, and ``bench/workloads.py::check_traced`` reads the
beams, budgets and state an RTD run returns; a rename in the package would
otherwise surface only when the benchmark runs with tracing on.
"""

import dataclasses
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from hcransim import (
    ExperimentConfig,
    PowerBudget,
    ScenarioConfig,
    Topology,
    TrainingConfig,
    rtd_solve,
    run_se_sweep,
)
from hcransim.util import dbm_to_watt

from helpers import pipeline_instance

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return load_bench("tracing")


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


def test_traced_checks_run_on_an_rtd_result():
    workloads = load_bench("workloads")
    topology, _, _, links, training = pipeline_instance(r=3)
    budgets = PowerBudget(rrh=dbm_to_watt(27.0), mbs=dbm_to_watt(30.0))
    beams, state = rtd_solve(topology, links, training, budgets)
    workloads.check_traced({"rtd": [(topology, budgets, beams, state)]})
    halved = dataclasses.replace(budgets, rrh=0.5 * budgets.rrh)
    with pytest.raises(workloads.CheckError, match="exceeds budget"):
        workloads.check_traced({"rtd": [(topology, halved, beams, state)]})


def test_traced_sweep_captures_what_the_checks_read():
    """One traced ``run_se_sweep`` drop: the tracer takes the topology and
    budgets from ``rtd_solve``'s positional arguments, and ``check_traced``
    accepts what it captured."""
    tracing, workloads = load_tracing(), load_bench("workloads")
    cfg = ExperimentConfig(
        scenario=ScenarioConfig(num_rrh=10, num_ue=5, coverage_radius=130.0),
        training=TrainingConfig(tau=3, coherence=30),
        sweep_values=(3,),
        num_realizations=1,
    )
    tracer = tracing.Tracer()
    tracer.start_drop(0)
    with tracer.installed():
        run_se_sweep(cfg)
    captured = tracer.captured[0]
    [(topology, budgets, beams, state)] = captured["rtd"]
    assert isinstance(topology, Topology) and budgets == cfg.budgets
    assert tracer.counters["rtd_iterations"] == state.iterations > 0
    assert len(captured["lb"]) == len(captured["mc"]) == 1
    workloads.check_traced(captured)
    over, users = workloads.bound_violations(captured)
    assert users == topology.num_ue and 0 <= over <= users


def test_linear_solve_counter_matches_the_tracer_count():
    """The solver's own count of np.linalg.solve calls equals what the
    tracer counts by wrapping np.linalg.solve, over a whole design. The only
    solves are the RRH side's Newton systems, so the drop is one whose
    design takes Newton steps (r = 0; r = 3 takes none)."""
    tracer = load_tracing().Tracer()
    topology, _, _, links, training = pipeline_instance(r=0)
    budgets = PowerBudget(rrh=dbm_to_watt(27.0), mbs=dbm_to_watt(30.0))
    tracer.start_drop(0)
    with tracer.installed():
        _, state = rtd_solve(topology, links, training, budgets)
    assert state.counters["linear_solves"] == tracer.counters["linalg_solve_calls"] > 0
