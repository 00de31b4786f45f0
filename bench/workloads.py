"""Benchmark workloads: seeded drops, one public sweep call per drop.

A drop is one random network realization run through the public sweep API
(``run_se_sweep`` or ``run_mse_sweep``) with ``num_realizations=1`` and
``jobs=1``. Each workload has a fixed panel of drops: drop ``i`` has master
seed ``i``. The workload seed sets the order in which a run visits the
panel, so one seed always yields the same drop sequence, and every run
measures the same work. Per-drop cost varies
several-fold between drops, so drop sets drawn per seed would differ by more
between seeds than the regressions the benchmark must detect.

Every workload uses the default training (tau 5, T 50) and budgets.
"""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hcransim import ExperimentConfig, ScenarioConfig, run_mse_sweep, run_se_sweep
from hcransim.beamforming import rtd_solve

TAU = 5
SWEEP_TAUS = (3, 4, 5, 6)
SCHEDULERS = ("psa", "dsatur_random", "es")
# The solver's relative feasibility tolerance, which budgets are checked to.
FEAS_TOL = inspect.signature(rtd_solve).parameters["feas_tol"].default
# Design quality of every panel drop at the seed commit, written by
# record_quality.py. A drop whose Monte Carlo sum SE falls, or whose PSA sum
# MSE rises, by more than QUALITY_TOL of its reference fails its check. The
# Monte Carlo standard error of a drop's sum SE is under 0.25% of it, so the
# tolerance also admits a change of the Monte Carlo random stream.
QUALITY_REF = Path(__file__).resolve().parent / "quality_ref.json"
QUALITY_TOL = 0.015


class CheckError(Exception):
    """A drop's output is malformed or violates a guarantee of the library."""


@dataclass(frozen=True)
class Workload:
    name: str
    num_ue: int
    num_rrh: int
    beamformer: str | None  # None: pilot scheduling only, via run_mse_sweep
    panel_size: int  # drops in one pass, 5 to 10 s at the seed commit

    def config(self, master_seed: int) -> ExperimentConfig:
        scenario = ScenarioConfig(num_ue=self.num_ue, num_rrh=self.num_rrh)
        if self.beamformer is None:
            return ExperimentConfig(
                scenario=scenario,
                sweep_name="tau",
                sweep_values=SWEEP_TAUS,
                num_realizations=1,
                schedulers=SCHEDULERS,
                master_seed=master_seed,
            )
        return ExperimentConfig(
            scenario=scenario,
            sweep_name="tau",
            sweep_values=(TAU,),
            num_realizations=1,
            schedulers=("psa",),
            beamformers=(self.beamformer,),
            master_seed=master_seed,
        )

    @property
    def api(self) -> str:
        return "run_mse_sweep" if self.beamformer is None else "run_se_sweep"

    def sweep(self, cfg: ExperimentConfig):
        """The public sweep call that makes up one drop."""
        return run_mse_sweep(cfg) if self.beamformer is None else run_se_sweep(cfg)

    def drop_order(self, workload_seed: int) -> list[int]:
        """The panel's drop indices in the order a run with this seed visits them."""
        return [int(i) for i in np.random.default_rng(workload_seed).permutation(self.panel_size)]

    def check(self, rows) -> dict:
        """Validate one drop's sweep rows; returns the drop's summary values.

        Raises CheckError on malformed output. A design that stalled is a
        legitimate outcome the sweep reports as a failure row; the summary
        then carries ``stalled=True``.
        """
        if self.beamformer is None:
            return _check_schedule_rows(rows)
        return _check_se_rows(rows, f"psa_{self.beamformer}")

    def check_quality(self, index: int, summary: dict, reference: dict) -> None:
        """Compare a checked drop's summary with its reference design quality.

        Raises CheckError when the design is worse than the reference by more
        than QUALITY_TOL, or stalled where the reference design did not. A
        drop whose reference stalled (None) passes whatever it returns.
        """
        ref = reference[self.name][str(index)]
        if self.beamformer is None:
            for tau, got, want in zip(SWEEP_TAUS, summary["sum_mse_psa"], ref):
                if got > want * (1.0 + QUALITY_TOL):
                    raise CheckError(f"PSA sum MSE {got!r} at tau {tau} above reference {want!r}")
        elif ref is not None:
            if summary["stalled"]:
                raise CheckError(f"design stalled; reference sum SE {ref!r}")
            if summary["sum_se_mc"] < ref * (1.0 - QUALITY_TOL):
                got = summary["sum_se_mc"]
                raise CheckError(f"Monte Carlo sum SE {got!r} below reference {ref!r}")


def _row_map(rows, sweep_values) -> dict:
    out = {}
    for value, metric, mean, stderr, n in rows:
        if value not in sweep_values:
            raise CheckError(f"row for unexpected sweep value {value!r}")
        if (value, metric) in out:
            raise CheckError(f"duplicate row {metric} at {value!r}")
        if n != 1 or not math.isfinite(mean) or stderr != 0.0:
            raise CheckError(f"row {metric} at {value!r}: mean {mean!r} stderr {stderr!r} n {n!r}")
        out[(value, metric)] = mean
    return out


def _check_se_rows(rows, tag: str) -> dict:
    got = _row_map(rows, (TAU,))
    if set(got) == {(TAU, f"failures_{tag}")}:
        if got[(TAU, f"failures_{tag}")] != 1.0:
            raise CheckError("failure row must count one failed realization")
        return {"stalled": True}
    expected = {(TAU, f"{m}_{tag}") for m in ("sum_se_lb", "sum_se_mc", "iterations", "converged")}
    if set(got) != expected:
        raise CheckError(f"unexpected rows {sorted(m for _, m in got)}")
    lb, mc = got[(TAU, f"sum_se_lb_{tag}")], got[(TAU, f"sum_se_mc_{tag}")]
    iterations = got[(TAU, f"iterations_{tag}")]
    if lb <= 0.0 or mc <= 0.0:
        raise CheckError(f"sum SE must be positive (bound {lb!r}, Monte Carlo {mc!r})")
    if iterations != int(iterations) or not 1 <= iterations <= 100:
        raise CheckError(f"RTD iteration count {iterations!r} outside 1..100")
    if got[(TAU, f"converged_{tag}")] not in (0.0, 1.0):
        raise CheckError("converged flag must be 0 or 1")
    return {"stalled": False, "sum_se_mc": mc}


def _check_schedule_rows(rows) -> dict:
    got = _row_map(rows, SWEEP_TAUS)
    expected = {(tau, f"sum_mse_{s}") for tau in SWEEP_TAUS for s in SCHEDULERS}
    if set(got) != expected:
        raise CheckError(f"unexpected rows {sorted(got)}")
    psa = []
    for tau in SWEEP_TAUS:
        values = {s: got[(tau, f"sum_mse_{s}")] for s in SCHEDULERS}
        if min(values.values()) <= 0.0:
            raise CheckError(f"sum MSE must be positive at tau {tau}: {values}")
        # Exhaustive search is the optimum over the assignments both
        # heuristics choose from.
        if values["es"] > min(values["psa"], values["dsatur_random"]) * (1.0 + 1e-12):
            raise CheckError(f"exhaustive search beaten at tau {tau}: {values}")
        psa.append(values["psa"])
    return {"stalled": False, "sum_mse_psa": psa}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("drop_small", 8, 25, "rtd", panel_size=75),
        Workload("drop_large", 32, 100, "rtd", panel_size=1),
        Workload("drop_perfect_csi", 16, 50, "rtd_perfect_csi", panel_size=3),
        # Exhaustive search takes up to 100 s on one drop at 8 users and up
        # to 24 s at 7; at 6 each of these 50 drops takes under 1 s.
        Workload("schedule_sweep", 6, 25, None, panel_size=50),
    )
}


def load_quality_reference() -> dict:
    """Per workload, per panel drop index: the reference design quality."""
    return json.loads(QUALITY_REF.read_text())["workloads"]


def check_traced(captured: dict) -> None:
    """Checks that need the objects inside a drop, captured by the tracer.

    Every returned beam set meets each per-RRH and the MBS budget within the
    solver's relative feasibility tolerance FEAS_TOL, and the RTD objective trace
    never increases (to the 1e-9 relative slack the library's tests allow).
    """
    for topology, budgets, beams, state in captured["rtd"]:
        caps = budgets.rrh_array(topology.num_rrh)
        for k in range(topology.num_rrh):
            power = beams.rrh_power(k)
            if power > caps[k] * (1.0 + FEAS_TOL):
                raise CheckError(f"RRH {k} power {power!r} exceeds budget {caps[k]!r}")
        if beams.mbs_power() > budgets.mbs * (1.0 + FEAS_TOL):
            raise CheckError(f"MBS power {beams.mbs_power()!r} exceeds budget {budgets.mbs!r}")
        trace = state.objective_trace
        for a, b in zip(trace, trace[1:]):
            if b > a + 1e-9 * max(1.0, abs(a)):
                raise CheckError(f"RTD objective rose from {a!r} to {b!r}")


def bound_violations(captured: dict) -> tuple[int, int]:
    """(users whose bound exceeds Monte Carlo by > 4 stderr, users compared)."""
    over = users = 0
    for lb, (mc, stderr) in zip(captured["lb"], captured["mc"]):
        for m, bound in lb.items():
            users += 1
            over += bound - mc[m] > 4.0 * stderr[m]
    return over, users
