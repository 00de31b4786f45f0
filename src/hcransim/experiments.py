"""Seeded experiment sweeps with CSV output.

Every sweep runs `num_realizations` independent topology/channel draws per
sweep value. Realization r derives all of its randomness from
(master_seed, r, slot) with fixed slots — 0: topology, 1: scheduler,
2: channel draw, 3: training noise, 4: Monte-Carlo — so the same realization
index reuses the same randomness at every sweep value (paired comparisons)
and results do not depend on execution order or worker count.

CSV schema: one row per (sweep_value, metric, mean, stderr, n).
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .beamforming import ConvergenceError, PowerBudget, rtd_solve
from .channel import (
    TrainingConfig,
    draw_small_scale,
    estimate_channels,
    perfect_channel_state,
    prelog_factor,
)
from .pilot_scheduler import (
    build_conflict_graph,
    compute_beta,
    dsatur_random_schedule,
    es_schedule,
    psa_schedule,
    sum_mse,
)
from .rate_bounds import build_covariances, lower_bound_rates, monte_carlo_rates
from .scenario import ScenarioConfig, generate_topology, save_topology, with_seed
from .util import child_rng, child_seed, dbm_to_watt, seed_to_int

SCHEDULERS = ("psa", "dsatur_random", "es")
BEAMFORMERS = ("rtd", "rtd_perfect_csi", "none")

_SCENARIO_SWEEPS = {
    "num_ue",
    "num_rrh",
    "rrh_antennas",
    "mbs_antennas",
    "coverage_radius",
}
_TRAINING_SWEEPS = {"tau", "coherence"}


@dataclass
class ExperimentConfig:
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    budgets: PowerBudget = field(
        default_factory=lambda: PowerBudget(rrh=dbm_to_watt(27.0), mbs=dbm_to_watt(30.0))
    )
    sweep_name: str = "tau"
    sweep_values: tuple = (3, 4, 5, 6)
    num_realizations: int = 100
    schedulers: tuple = ("psa",)
    beamformers: tuple = ("rtd",)
    mc_trials: int = 2000
    output_path: str | None = None
    master_seed: int = 0
    jobs: int = 1

    def __post_init__(self):
        if self.num_realizations < 1:
            raise ValueError("num_realizations must be >= 1")
        if self.sweep_name not in _SCENARIO_SWEEPS | _TRAINING_SWEEPS:
            raise ValueError(f"unknown sweep parameter {self.sweep_name!r}")
        if not self.sweep_values:
            raise ValueError("sweep_values must be non-empty")
        for s in self.schedulers:
            if s not in SCHEDULERS:
                raise ValueError(f"unknown scheduler {s!r}")
        for b in self.beamformers:
            if b not in BEAMFORMERS:
                raise ValueError(f"unknown beamformer {b!r}")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")


def _apply_sweep(cfg: ExperimentConfig, value):
    """Scenario and training configs with one sweep parameter replaced."""
    scenario, training = cfg.scenario, cfg.training
    if cfg.sweep_name in _TRAINING_SWEEPS:
        training = dataclasses.replace(training, **{cfg.sweep_name: value})
    else:
        scenario = dataclasses.replace(scenario, **{cfg.sweep_name: value})
    return scenario, training


def _topology_for(cfg: ExperimentConfig, scenario: ScenarioConfig, r: int):
    seed = seed_to_int(child_seed(cfg.master_seed, r, 0))
    return generate_topology(with_seed(scenario, seed))


def _schedule(topology, metrics, graph, scheduler: str, training, cfg, r: int):
    if scheduler == "psa":
        return psa_schedule(
            topology, metrics, graph, training.tau, rng=child_rng(cfg.master_seed, r, 1)
        )
    if scheduler == "dsatur_random":
        return dsatur_random_schedule(
            topology, training.tau, child_rng(cfg.master_seed, r, 1), graph
        )
    if scheduler == "es":
        return es_schedule(
            topology,
            training.tau,
            training.p_rue,
            training.p_bue,
            training.noise_power,
        )
    raise ValueError(f"unknown scheduler {scheduler!r}")


# ---------------------------------------------------------------------------
# Per-realization workers (module level so process pools can pickle them).


def _mse_realization(args):
    cfg, value, r = args
    scenario, training = _apply_sweep(cfg, value)
    topology = _topology_for(cfg, scenario, r)
    graph = build_conflict_graph(topology)
    metrics = compute_beta(topology, graph)
    out = {}
    for scheduler in cfg.schedulers:
        try:
            assignment = _schedule(topology, metrics, graph, scheduler, training, cfg, r)
        except ValueError as exc:
            if scheduler == "es":
                out[f"skip_{scheduler}"] = str(exc)
                continue
            raise
        out[f"sum_mse_{scheduler}"] = sum_mse(
            topology,
            assignment,
            training.p_rue,
            training.p_bue,
            training.noise_power,
        )
    return out


def _solve_realization(cfg, value, r, scheduler, beamformer):
    """Schedule, estimate, and run one beamformer; returns a metrics dict."""
    scenario, training = _apply_sweep(cfg, value)
    topology = _topology_for(cfg, scenario, r)
    graph = build_conflict_graph(topology)
    metrics = compute_beta(topology, graph)
    assignment = _schedule(topology, metrics, graph, scheduler, training, cfg, r)
    channels = draw_small_scale(topology, child_seed(cfg.master_seed, r, 2))
    if beamformer == "rtd_perfect_csi":
        state = perfect_channel_state(topology, channels)
    else:
        state = estimate_channels(
            topology, assignment, training, channels, child_seed(cfg.master_seed, r, 3)
        )
    # Rate prelog reflects the pilots actually spent (tau may have been
    # clamped up to the conflict-coloring count or the BUE count).
    training_eff = dataclasses.replace(training, tau=assignment.tau)
    links = build_covariances(topology, state)
    beams, rtd_state = rtd_solve(topology, links, training_eff, cfg.budgets)
    prelog = prelog_factor(training_eff.tau, training_eff.coherence)
    lb = lower_bound_rates(links, beams, training.noise_power, prelog)
    mc, mc_stderr = monte_carlo_rates(
        links,
        beams,
        training.noise_power,
        prelog,
        trials=cfg.mc_trials,
        seed=child_seed(cfg.master_seed, r, 4),
    )
    result = {
        "topology": topology,
        "assignment": assignment,
        "links": links,
        "state": state,
        "beams": beams,
        "rtd_state": rtd_state,
        "prelog": prelog,
        "lb": lb,
        "mc": mc,
        "mc_stderr": mc_stderr,
    }
    return result


def _se_realization(args):
    cfg, value, r = args
    out = {}
    for scheduler in cfg.schedulers:
        for beamformer in cfg.beamformers:
            if beamformer == "none":
                continue
            tag = f"{scheduler}_{beamformer}"
            try:
                res = _solve_realization(cfg, value, r, scheduler, beamformer)
            except ConvergenceError as exc:
                out[f"failed_{tag}"] = str(exc)
                continue
            out[f"sum_se_lb_{tag}"] = float(sum(res["lb"].values()))
            out[f"sum_se_mc_{tag}"] = float(sum(res["mc"].values()))
            out[f"iterations_{tag}"] = float(res["rtd_state"].iterations)
            out[f"converged_{tag}"] = float(res["rtd_state"].converged)
            if cfg.sweep_name == "num_rrh":
                out[f"trace_{tag}"] = list(res["rtd_state"].sum_se_trace)
    return out


def _tightness_realization(args):
    cfg, value, r = args
    out = {}
    scheduler = cfg.schedulers[0]
    beamformer = next((b for b in cfg.beamformers if b != "none"), None)
    if beamformer is None:
        raise ValueError("tightness runs need a beamformer other than 'none'")
    try:
        res = _solve_realization(cfg, value, r, scheduler, beamformer)
    except ConvergenceError as exc:
        out["failed"] = str(exc)
        return out
    topology, lb, mc = res["topology"], res["lb"], res["mc"]
    lb_rue = float(sum(lb[i] for i in topology.rue_set))
    mc_rue = float(sum(mc[i] for i in topology.rue_set))
    lb_bue = float(sum(lb[j] for j in topology.bue_set))
    mc_bue = float(sum(mc[j] for j in topology.bue_set))
    out["sum_lb_rue"] = lb_rue
    out["sum_mc_rue"] = mc_rue
    out["sum_lb_bue"] = lb_bue
    out["sum_mc_bue"] = mc_bue
    out["rel_gap_rue"] = (mc_rue - lb_rue) / abs(mc_rue) if mc_rue else 0.0
    out["rel_gap_bue"] = (mc_bue - lb_bue) / abs(mc_bue) if mc_bue else 0.0
    return out


# ---------------------------------------------------------------------------
# Ensemble reduction.


@dataclass
class SweepResult:
    """Reduced sweep output: rows of (sweep_value, metric, mean, stderr, n)."""

    rows: list
    path: str | None = None

    HEADER = ("sweep_value", "metric", "mean", "stderr", "n")

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.HEADER)
            for value, metric, mean, stderr, n in self.rows:
                writer.writerow([repr(value), metric, repr(mean), repr(stderr), n])
        self.path = str(path)

    def series(self, metric: str):
        """(sweep_values, means, stderrs) for one metric, in row order."""
        vals, means, errs = [], [], []
        for value, name, mean, stderr, _ in self.rows:
            if name == metric:
                vals.append(value)
                means.append(mean)
                errs.append(stderr)
        return vals, means, errs


def _mean_stderr(values: list[float]):
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    stderr = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
    return mean, stderr


def _run_ensemble(cfg: ExperimentConfig, worker, value):
    tasks = [(cfg, value, r) for r in range(cfg.num_realizations)]
    if cfg.jobs == 1:
        return [worker(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
        return list(pool.map(worker, tasks, chunksize=max(1, len(tasks) // cfg.jobs)))


def _reduce_metrics(results: list[dict], value) -> list:
    """Ordered reduction of per-realization dicts into CSV rows.

    Scalar metrics reduce to (mean, stderr, n) over the realizations carrying
    them. List-valued metrics (convergence traces) are padded with their last
    entry to the ensemble's longest trace and reduced per iteration index.
    `skip_*` markers drop the matching metric entirely; `failed_*` markers
    reduce to a failure-count row.
    """
    rows = []
    skipped = set()
    fail_counts = {}
    order = []
    seen = set()
    for res in results:
        for key in res:
            if key.startswith("skip_"):
                skipped.add(key[len("skip_"):])
            elif key.startswith("failed_") or key == "failed":
                fail_counts[key] = fail_counts.get(key, 0) + 1
            elif key not in seen:
                seen.add(key)
                order.append(key)
    for key in order:
        suffix = key.split("sum_mse_")[-1] if key.startswith("sum_mse_") else None
        if suffix in skipped:
            continue
        samples = [res[key] for res in results if key in res]
        if samples and isinstance(samples[0], list):
            depth = max(len(s) for s in samples)
            for d in range(depth):
                padded = [s[d] if d < len(s) else s[-1] for s in samples]
                mean, stderr = _mean_stderr(padded)
                rows.append((value, f"{key}_iter{d + 1}", mean, stderr, len(padded)))
        else:
            mean, stderr = _mean_stderr(samples)
            rows.append((value, key, mean, stderr, len(samples)))
    for key in sorted(fail_counts):
        rows.append((value, key.replace("failed", "failures"), float(fail_counts[key]), 0.0, len(results)))
    return rows


def _run_sweep(cfg: ExperimentConfig, worker) -> SweepResult:
    rows = []
    for value in cfg.sweep_values:
        results = _run_ensemble(cfg, worker, value)
        skip_msgs = {}
        for res in results:
            for key, msg in res.items():
                if key.startswith("skip_"):
                    skip_msgs.setdefault(key[len("skip_"):], msg)
        for name, msg in sorted(skip_msgs.items()):
            warnings.warn(f"{name} skipped at {cfg.sweep_name}={value}: {msg}")
        rows.extend(_reduce_metrics(results, value))
    result = SweepResult(rows=rows)
    if cfg.output_path:
        result.write(cfg.output_path)
    return result


def run_mse_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Ensemble mean sum channel-estimation MSE per scheduler per sweep value."""
    if cfg.sweep_name not in {"tau", "num_ue"}:
        raise ValueError("MSE sweeps cover tau or num_ue")
    return _run_sweep(cfg, _mse_realization)


def run_se_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Ensemble sum spectral efficiency (bound and Monte-Carlo) per sweep value."""
    return _run_sweep(cfg, _se_realization)


def run_tightness(cfg: ExperimentConfig) -> SweepResult:
    """Bound-vs-achievable comparison split by UE class."""
    if cfg.sweep_name not in {"rrh_antennas", "mbs_antennas", "num_rrh"}:
        raise ValueError("tightness sweeps cover rrh_antennas, mbs_antennas, or num_rrh")
    return _run_sweep(cfg, _tightness_realization)


# ---------------------------------------------------------------------------
# Single-instance runs and artifact dumps.


def _write_assignment(path, topology, assignment) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ue_id", "type", "pilot"])
        for m in range(topology.num_ue):
            kind = "rue" if m in topology.rue_set else "bue"
            writer.writerow([m, kind, assignment.pilots[m]])


def schedule_one(cfg: ExperimentConfig, out_path=None) -> list:
    """Pilot-schedule realization 0 of the configured scenario with every
    configured scheduler.

    Returns one (scheduler, assignment, sum MSE) triple per scheduler and,
    if out_path is given, writes the first scheduler's pilot table there.
    """
    training = cfg.training
    topology = _topology_for(cfg, cfg.scenario, 0)
    graph = build_conflict_graph(topology)
    metrics = compute_beta(topology, graph)
    results = []
    for scheduler in cfg.schedulers:
        assignment = _schedule(topology, metrics, graph, scheduler, training, cfg, 0)
        mse = sum_mse(topology, assignment, training.p_rue, training.p_bue, training.noise_power)
        results.append((scheduler, assignment, mse))
    if out_path and results:
        _write_assignment(out_path, topology, results[0][1])
    return results


def solve_one(cfg: ExperimentConfig, out_dir) -> dict:
    """Run one full realization (r = 0, first sweep value) and dump artifacts.

    Writes topology.csv, assignment.csv, rates.csv, and trace.csv into
    out_dir. Returns the in-memory results dict.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    scheduler = cfg.schedulers[0]
    beamformer = next((b for b in cfg.beamformers if b != "none"), "rtd")
    res = _solve_realization(cfg, cfg.sweep_values[0], 0, scheduler, beamformer)

    save_topology(res["topology"], out / "topology.csv")

    _write_assignment(out / "assignment.csv", res["topology"], res["assignment"])

    with open(out / "rates.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ue_id", "type", "lower_bound", "mc_rate", "mc_stderr"])
        topology = res["topology"]
        for m in range(topology.num_ue):
            kind = "rue" if m in topology.rue_set else "bue"
            writer.writerow(
                [m, kind, repr(res["lb"][m]), repr(res["mc"][m]), repr(res["mc_stderr"][m])]
            )

    with open(out / "trace.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "objective", "sum_se_lb"])
        rtd_state = res["rtd_state"]
        for d, (obj, se) in enumerate(
            zip(rtd_state.objective_trace, rtd_state.sum_se_trace), start=1
        ):
            writer.writerow([d, repr(obj), repr(se)])

    return res


# ---------------------------------------------------------------------------
# Config file loading.


def _power(entry: dict, key: str, default_w: float) -> float:
    if f"{key}_dbm" in entry:
        return dbm_to_watt(float(entry[f"{key}_dbm"]))
    if key in entry:
        return float(entry[key])
    return default_w


def load_config(path) -> ExperimentConfig:
    """Build an ExperimentConfig from a JSON file.

    Power entries accept either watts (`p_rue`) or dBm (`p_rue_dbm`).
    Unknown keys raise.
    """
    with open(path) as fh:
        raw = json.load(fh)
    known = {
        "scenario",
        "training",
        "budgets",
        "sweep",
        "num_realizations",
        "schedulers",
        "beamformers",
        "mc_trials",
        "output_path",
        "master_seed",
        "jobs",
    }
    extra = set(raw) - known
    if extra:
        raise ValueError(f"unknown config keys: {sorted(extra)}")

    s = dict(raw.get("scenario", {}))
    s_known = {f.name for f in dataclasses.fields(ScenarioConfig)}
    if set(s) - s_known:
        raise ValueError(f"unknown scenario keys: {sorted(set(s) - s_known)}")
    scenario = ScenarioConfig(**s)

    t = dict(raw.get("training", {}))
    t_known = {"p_rue", "p_rue_dbm", "p_bue", "p_bue_dbm", "noise", "noise_dbm", "tau", "coherence"}
    if set(t) - t_known:
        raise ValueError(f"unknown training keys: {sorted(set(t) - t_known)}")
    training = TrainingConfig(
        p_rue=_power(t, "p_rue", dbm_to_watt(17.0)),
        p_bue=_power(t, "p_bue", dbm_to_watt(20.0)),
        noise_power=_power(t, "noise", dbm_to_watt(-100.0)),
        tau=int(t.get("tau", 5)),
        coherence=int(t.get("coherence", 50)),
    )

    b = dict(raw.get("budgets", {}))
    b_known = {"rrh", "rrh_dbm", "mbs", "mbs_dbm"}
    if set(b) - b_known:
        raise ValueError(f"unknown budget keys: {sorted(set(b) - b_known)}")
    budgets = PowerBudget(
        rrh=_power(b, "rrh", dbm_to_watt(27.0)),
        mbs=_power(b, "mbs", dbm_to_watt(30.0)),
    )

    sweep = dict(raw.get("sweep", {"name": "tau", "values": [3, 4, 5, 6]}))
    if set(sweep) - {"name", "values"}:
        raise ValueError(f"unknown sweep keys: {sorted(set(sweep) - {'name', 'values'})}")
    kwargs = {}
    for key in ("num_realizations", "mc_trials", "master_seed", "jobs"):
        if key in raw:
            kwargs[key] = int(raw[key])
    if "schedulers" in raw:
        kwargs["schedulers"] = tuple(raw["schedulers"])
    if "beamformers" in raw:
        kwargs["beamformers"] = tuple(raw["beamformers"])
    if "output_path" in raw:
        kwargs["output_path"] = raw["output_path"]
    return ExperimentConfig(
        scenario=scenario,
        training=training,
        budgets=budgets,
        sweep_name=sweep["name"],
        sweep_values=tuple(sweep["values"]),
        **kwargs,
    )
