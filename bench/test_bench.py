"""Tests of the benchmark itself: exact counters, transparent tracing, checks.

Run from the root of the repository:

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hcransim.experiments  # noqa: E402
import run  # noqa: E402
from calibration import Calibration  # noqa: E402
from tracing import Tracer, unit_costs  # noqa: E402
from workloads import (  # noqa: E402
    QUALITY_TOL,
    WORKLOADS,
    CheckError,
    check_traced,
    load_quality_reference,
)

# A short slice of each panel. The drop_perfect_csi slice holds a drop whose
# design stalls, so the convergence-error counter is exercised.
SLICES = {
    "drop_small": [0, 1, 2],
    "drop_large": [0],
    "drop_perfect_csi": [0, 1],
    "schedule_sweep": [0, 1, 2],
}


def traced_slice(workload, indices):
    tracer = Tracer()
    with tracer.installed():
        drops, _, _ = run.run_drops(workload, indices, tracer)
    for captured in tracer.captured.values():
        check_traced(captured)
    return tracer, [(d.rows, d.error) for d in drops]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counters_and_outputs_repeat_exactly(name):
    workload = WORKLOADS[name]
    first, first_out = traced_slice(workload, SLICES[name])
    second, second_out = traced_slice(workload, SLICES[name])
    assert first.counters == second.counters
    assert first_out == second_out  # sum-MSE and sum-SE rows, bit for bit
    assert [(s.name, s.parent, s.drop) for s in first.spans] == [
        (s.name, s.parent, s.drop) for s in second.spans
    ]
    plain, _, _ = run.run_drops(workload, SLICES[name])
    assert [(d.rows, d.error) for d in plain] == first_out
    calibrated, _, _ = run.run_drops(workload, SLICES[name], calibration=Calibration())
    assert [(d.rows, d.error) for d in calibrated] == first_out
    assert all(0.0 < d.wall and d.rep_wall > 0.0 for d in calibrated)
    reference = load_quality_reference()
    for index, (rows, _) in zip(SLICES[name], first_out):
        workload.check_quality(index, workload.check(rows), reference)
    stalled = sum(workload.check(rows)["stalled"] for rows, _ in first_out)
    assert first.counters["convergence_errors"] == stalled
    if name == "drop_perfect_csi":
        assert stalled >= 1
    if workload.beamformer is None:
        assert first.counters["rtd_iterations"] == 0
        assert first.counters["linalg_solve_calls"] == 0
    else:
        assert first.counters["rtd_iterations"] > 0
        assert first.counters["dual_updates"] > 0
        assert first.counters["mc_user_trials"] > 0


def test_tracer_restores_the_library():
    before = (hcransim.experiments.rtd_solve, hcransim.beamforming.solve_qcqp)
    import numpy as np

    solve = np.linalg.solve
    with Tracer().installed():
        assert hcransim.experiments.rtd_solve is not before[0]
        assert np.linalg.solve is not solve
    assert (hcransim.experiments.rtd_solve, hcransim.beamforming.solve_qcqp) == before
    assert np.linalg.solve is solve


def test_tracer_cost_per_call_is_positive_and_small():
    span_s, count_s = unit_costs(calls=2000)
    assert 0.0 < span_s < 1e-3 and 0.0 < count_s < 1e-3


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.start_drop(0)
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    layers = tracer.layer_times()
    assert inner.parent == 0 and outer.parent == -1
    assert layers["outer"]["self_s"] == pytest.approx(
        (outer.end - outer.start) - (inner.end - inner.start), abs=1e-12
    )
    assert layers["inner"]["calls"] == 1


@pytest.mark.parametrize(
    "rows",
    [
        [(5, "sum_se_lb_psa_rtd", 1.0, 0.0, 1), (5, "sum_se_mc_psa_rtd", math.nan, 0.0, 1),
         (5, "iterations_psa_rtd", 3.0, 0.0, 1), (5, "converged_psa_rtd", 1.0, 0.0, 1)],
        [(5, "sum_se_lb_psa_rtd", 1.0, 0.0, 1), (5, "sum_se_mc_psa_rtd", 1.0, 0.0, 2),
         (5, "iterations_psa_rtd", 3.0, 0.0, 1), (5, "converged_psa_rtd", 1.0, 0.0, 1)],
        [(5, "sum_se_lb_psa_rtd", 1.0, 0.0, 1)],
        [(5, "failures_psa_rtd", 2.0, 0.0, 1)],
    ],
)
def test_malformed_rows_fail_the_check(rows):
    with pytest.raises(CheckError):
        WORKLOADS["drop_small"].check(rows)


def test_exhaustive_search_beaten_fails_the_check():
    rows = [
        (tau, f"sum_mse_{s}", 2.0 if s == "es" else 1.0, 0.0, 1)
        for tau in (3, 4, 5, 6)
        for s in ("psa", "dsatur_random", "es")
    ]
    with pytest.raises(CheckError):
        WORKLOADS["schedule_sweep"].check(rows)


def test_quality_reference_covers_every_panel_drop():
    reference = load_quality_reference()
    for name, workload in WORKLOADS.items():
        assert sorted(map(int, reference[name])) == list(range(workload.panel_size))


def test_worse_design_fails_the_quality_check():
    reference = load_quality_reference()
    small, sweep = WORKLOADS["drop_small"], WORKLOADS["schedule_sweep"]
    se = reference["drop_small"]["0"]

    def design(share):
        return {"stalled": False, "sum_se_mc": se * (1.0 - share)}

    small.check_quality(0, design(QUALITY_TOL / 2), reference)
    with pytest.raises(CheckError):
        small.check_quality(0, design(2 * QUALITY_TOL), reference)
    with pytest.raises(CheckError):
        small.check_quality(0, {"stalled": True}, reference)
    mse = reference["schedule_sweep"]["0"]
    with pytest.raises(CheckError):
        worse = [v * (1.0 + 2 * QUALITY_TOL) for v in mse]
        sweep.check_quality(0, {"sum_mse_psa": worse}, reference)
    # A drop whose reference design stalled passes whatever it returns.
    stalled = [i for i, v in reference["drop_perfect_csi"].items() if v is None]
    assert stalled
    WORKLOADS["drop_perfect_csi"].check_quality(int(stalled[0]), {"stalled": True}, reference)


def test_tail_percentile_keeps_ten_drops_beyond():
    assert run.tail([float(i) for i in range(40)]) == (29.0, 75.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.REPORTED)
    assert all(m["unit"] == run.END_TO_END_UNITS[m["name"]] for m in spec["end_to_end"])
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert all(m["unit"] == run.per_layer_unit(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_calibration_slices_inside_the_interval_are_subtracted():
    calibration = Calibration()
    calibration.slices = [(1.0, 1.5, 0.4), (2.0, 2.25, 0.2), (9.0, 9.5, 0.5)]
    assert calibration.busy(0.5, 3.0) == (0.75, pytest.approx(0.6))
    assert calibration.rep_time(2.5, 8.5) == pytest.approx((0.75 / 8, 0.7 / 8))
