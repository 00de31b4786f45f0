"""Seeded experiment sweeps with CSV output.

Every sweep runs `num_realizations` independent topology/channel draws at
each sweep value. Realization r derives all of its randomness from
(master_seed, r, slot) with fixed slots — 0: topology, 1: scheduler,
2: channel draw, 3: training noise — so the same realization index reuses
the same randomness at every sweep value (paired comparisons) and results do
not depend on execution order or worker count. This is seed contract
version 2: in version 1 slot 4 fed the Monte-Carlo rate sampler. Since the
rates became exact quadratures, which draw nothing, slot 4 is retired, not
reused; slots 0-3 and their streams are as in version 1.

Sweeps run realization-major: one worker call takes one realization through
every sweep value and runs each stage once per distinct input (``_Scene``).
The topology, conflict graph with its Dsatur coloring, contamination levels,
sum-MSE problem and small-scale channel draw are made once per scenario:
once per call in a `tau` or `coherence` sweep, once per value in a scenario
sweep. Each scene keeps two tables. The schedule table holds, per
scheduler, ``{effective tau: assignment}``: a scheduler's first use fills
it for every tau of the scenario's sweep values in one call (the exhaustive
search from one enumeration, Dsatur-random from one color permutation, PSA
by refining Dsatur-random's entries). A refused exhaustive search stays in
the table as the guard's message: sweeps skip it and warn, single-instance
runs raise it. The sum-MSE table maps a pilot vector to its sum MSE. The
search enters its minima; the first ask of any other vector makes every
configured scheduler's table and scores the vectors still without a value
in one `sum_mse` call. Each assignment serves every beamformer, and each
design is one ``Design``. Nothing is kept between calls. With `jobs > 1`
one process pool serves the sweep, split by realization.

CSV schema: one row per (sweep_value, metric, mean, stderr, n).
"""

from __future__ import annotations

import csv
import dataclasses
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .beamforming import ConvergenceError, PowerBudget, RtdState, rtd_solve
from .channel import (
    TrainingConfig,
    draw_small_scale,
    estimate_channels,
    perfect_channel_state,
    prelog_factor,
)
from .pilot_scheduler import (
    PilotAssignment,
    build_conflict_graph,
    compute_beta,
    dsatur_random_schedule,
    effective_tau,
    es_schedule,
    mse_links,
    psa_schedule,
    sum_mse,
)
from .rate_bounds import build_covariances, lower_bound_rates, monte_carlo_rates
from .scenario import ScenarioConfig, generate_topology, save_topology
from .util import child_seed, dbm_to_watt, read_json_object, section, seed_to_int, typed

SCHEDULERS = ("psa", "dsatur_random", "es")
BEAMFORMERS = ("rtd", "rtd_perfect_csi")

_SCENARIO_SWEEPS = {
    "num_ue",
    "num_rrh",
    "rrh_antennas",
    "mbs_antennas",
    "coverage_radius",
}
_TRAINING_SWEEPS = {"tau", "coherence"}


class PilotOverflowError(ValueError):
    """A schedule's pilots fill the coherence block; sweeps count a failure."""


class Design(NamedTuple):
    """One scheduler x beamformer design of a scene: its pilot assignment,
    the alternating design's state and the per-UE rates keyed by UE id,
    RUEs first: the Jensen lower ``bound`` (``lower_bound_rates``), the
    ``exact`` ergodic rate and its quadrature error estimate ``stderr``
    (``monte_carlo_rates``)."""

    assignment: PilotAssignment
    state: RtdState
    bound: dict
    exact: dict
    stderr: dict


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
        if len(set(self.sweep_values)) < len(self.sweep_values):  # it would run and report twice
            raise ValueError(f"repeated sweep value in {self.sweep_values!r}")
        if not self.schedulers or not self.beamformers:
            raise ValueError("schedulers and beamformers must be non-empty")
        for kind, names, known in (("scheduler", self.schedulers, SCHEDULERS),
                                   ("beamformer", self.beamformers, BEAMFORMERS)):
            for name in names:
                if name not in known:
                    raise ValueError(f"unknown {kind} {name!r}")
            if len(set(names)) < len(names):  # each design would run twice
                raise ValueError(f"repeated {kind} in {names!r}")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")
        for value in self.sweep_values:  # a value the configs reject fails here, not mid-sweep
            scenario, training = _apply_sweep(self, value)
            self.budgets.rrh_array(scenario.num_rrh)
            if training.tau > scenario.num_ue:
                raise ValueError(f"tau cannot exceed the UE count at {self.sweep_name}={value!r}")


def _apply_sweep(cfg: ExperimentConfig, value):
    """Scenario and training configs with one sweep parameter replaced."""
    scenario, training = cfg.scenario, cfg.training
    if cfg.sweep_name in _TRAINING_SWEEPS:
        training = dataclasses.replace(training, **{cfg.sweep_name: value})
    else:
        scenario = dataclasses.replace(scenario, **{cfg.sweep_name: value})
    return scenario, training


class _Scene:
    """Realization r of one scenario: the stages no sweep value changes.

    The topology, its conflict graph (which holds the Dsatur coloring), the
    contamination levels and ``effs`` (``{tau: effective tau}`` for each of
    ``taus``, the pilot counts of the scene's sweep values) are made on
    construction; the sum-MSE problem (``mse_links`` at the training powers
    of ``cfg.training``, which no sweep changes: a test pins this for every
    sweep name), the small-scale channel draw and the schedule and sum-MSE
    tables on first use. ``solve`` makes one ``Design`` from an assignment.
    Everything here is shared by the schedulers and beamformers of one
    worker call and must not be mutated; the shared arrays are read-only.
    """

    def __init__(self, cfg: ExperimentConfig, scenario: ScenarioConfig, r: int, taus):
        self.cfg, self.r = cfg, r
        self.topology = generate_topology(scenario, seed_to_int(child_seed(cfg.master_seed, r, 0)))
        self.graph = build_conflict_graph(self.topology)
        self.beta = compute_beta(self.topology, self.graph)
        self.beta.flags.writeable = False
        self.effs = {tau: effective_tau(self.topology, tau, self.graph.coloring[0]) for tau in taus}
        self._schedules = {}  # scheduler -> {effective tau: assignment or the guard's message}
        self._mse = {}  # pilot vector bytes -> sum MSE

    @cached_property
    def mse_links(self):
        training = self.cfg.training
        return mse_links(self.topology, training.p_rue, training.p_bue, training.noise_power)

    @cached_property
    def channels(self):
        channels = draw_small_scale(self.topology, child_seed(self.cfg.master_seed, self.r, 2))
        channels.rrh.flags.writeable = channels.mbs.flags.writeable = False
        return channels

    def schedule(self, scheduler: str, tau: int) -> PilotAssignment | str:
        """Scheduler's assignment at tau, or the guard's message. A scheduler
        reads tau only through ``effective_tau``, which leaves an effective
        tau as it is, so the schedule made at the effective tau is tau's."""
        return self._table(scheduler)[self.effs[tau]]

    def _table(self, scheduler: str) -> dict:
        """Scheduler's table, made on first ask in one call over the sorted
        distinct effective taus. Dsatur-random draws one permutation per
        call, from a fresh generator on the scheduler seed, so every entry
        holds the permutation a one-tau call draws. PSA refines
        Dsatur-random's entries, each at its effective tau, and makes
        Dsatur-random's table first if no ask has: a scene opens one
        generator on the scheduler seed. The exhaustive search answers them
        all from one enumeration and enters each minimum in the sum-MSE
        table. Its guard measures the largest effective tau alone, so a
        refusal is that tau's entry (the guard's message) and the search
        goes on without it: no call repeats."""
        if scheduler not in self._schedules:
            topology, graph = self.topology, self.graph
            effs = sorted(set(self.effs.values()))
            table = self._schedules[scheduler] = {}
            if scheduler == "es":
                while effs:
                    try:
                        found = es_schedule(topology, effs, graph, self.mse_links)
                    except ValueError as exc:
                        table[effs.pop()] = str(exc)
                        continue
                    table.update(zip(effs, (a for a, _ in found)))
                    self._mse.update((a.pilots.tobytes(), value) for a, value in found)
                    break
            elif scheduler == "psa":
                starts = self._table("dsatur_random")
                made = psa_schedule(topology, self.beta, graph, [starts[eff] for eff in effs])
                table.update(zip(effs, made))
            else:
                rng = np.random.default_rng(child_seed(self.cfg.master_seed, self.r, 1))
                table.update(zip(effs, dsatur_random_schedule(topology, effs, rng, graph)))
        return self._schedules[scheduler]

    def sum_mse(self, assignment: PilotAssignment) -> float:
        """Sum MSE of an assignment of the schedule table. Every configured
        scheduler's table is made first. The exhaustive search's minimum is
        its assignment's sum MSE bit for bit, so no vector it found is
        scored. The first ask of any other vector scores each distinct
        vector of the tables still without a value in one ``sum_mse`` call:
        a vector's value is the same bit for bit in any list, and does not
        depend on the assignment's tau."""
        tables = [self._table(scheduler) for scheduler in self.cfg.schedulers]
        key = assignment.pilots.tobytes()
        if key not in self._mse:
            vectors = {each.pilots.tobytes(): each for table in tables
                       for each in table.values() if not isinstance(each, str)}
            unscored = [vector for vector in vectors if vector not in self._mse]
            values = sum_mse(self.topology, [vectors[v] for v in unscored], self.mse_links)
            self._mse.update(zip(unscored, values))
        return self._mse[key]

    def solve(self, assignment, training: TrainingConfig, beamformer: str) -> Design:
        """Estimate, run one beamformer and rate it. Rates use the pilots the
        assignment spends (``effective_tau``), and a PilotOverflowError is
        raised when those fill the coherence block."""
        topology, cfg = self.topology, self.cfg
        if assignment.tau >= training.coherence:
            raise PilotOverflowError(
                f"effective tau {assignment.tau} (tau {training.tau} lifted to the larger of the "
                f"coloring number {self.graph.coloring[0]} and the MBS-served user count "
                f"{len(topology.bue_set)}) reaches the coherence length {training.coherence}"
            )
        if beamformer == "rtd_perfect_csi":
            links = perfect_channel_state(topology, self.channels)
        else:
            seed = child_seed(cfg.master_seed, self.r, 3)
            links = estimate_channels(topology, assignment, training, self.channels, seed)
        training_eff = dataclasses.replace(training, tau=assignment.tau)
        links = build_covariances(topology, links)
        beams, rtd_state = rtd_solve(topology, links, training_eff, cfg.budgets)
        prelog = prelog_factor(training_eff.tau, training_eff.coherence)
        bound = lower_bound_rates(links, beams, training.noise_power, prelog)
        return Design(assignment, rtd_state, bound,
                      *monte_carlo_rates(links, beams, training.noise_power, prelog))


# ---------------------------------------------------------------------------
# Per-realization workers (module level so process pools can pickle them).


def _realization(args) -> list[dict]:
    """One metrics dict per sweep value for realization r, each scenario's
    shared stages made once (``_Scene``) and dropped when the call returns."""
    cfg, metrics_at, r = args
    points = [_apply_sweep(cfg, value) for value in cfg.sweep_values]
    scenes = {}
    for scenario, _ in points:
        if scenario not in scenes:
            taus = [training.tau for other, training in points if other == scenario]
            scenes[scenario] = _Scene(cfg, scenario, r, taus)
    return [metrics_at(scenes[scenario], training) for scenario, training in points]


def _schedules(scene: _Scene, training: TrainingConfig, out: dict | None):
    """(scheduler, assignment) of each configured scheduler at training's
    tau. An exhaustive search the enumeration guard refused yields nothing:
    a sweep records it in out as ``skip_es`` (and warns of it), and a
    single-instance run (out None) raises the guard's message."""
    for scheduler in scene.cfg.schedulers:
        assignment = scene.schedule(scheduler, training.tau)
        if not isinstance(assignment, str):
            yield scheduler, assignment
        elif out is None:
            raise ValueError(assignment)
        else:
            out[f"skip_{scheduler}"] = assignment


def _mse_metrics(scene: _Scene, training: TrainingConfig) -> dict:
    out = {}
    for scheduler, assignment in _schedules(scene, training, out):
        out[f"sum_mse_{scheduler}"] = scene.sum_mse(assignment)
    return out


def _designs(scene: _Scene, training: TrainingConfig, out: dict):
    """(tag, Design) of each configured scheduler x beamformer design that
    ran, tagged ``<scheduler>_<beamformer>``. A refused exhaustive search is
    recorded in out as ``skip_es`` and a design that raised ConvergenceError
    or PilotOverflowError as ``failed_<tag>``."""
    for scheduler, assignment in _schedules(scene, training, out):
        for beamformer in scene.cfg.beamformers:
            tag = f"{scheduler}_{beamformer}"
            try:
                design = scene.solve(assignment, training, beamformer)
            except (ConvergenceError, PilotOverflowError) as exc:
                out[f"failed_{tag}"] = str(exc)
                continue
            yield tag, design


def _se_metrics(scene: _Scene, training: TrainingConfig) -> dict:
    out = {}
    for tag, design in _designs(scene, training, out):
        out[f"sum_se_lb_{tag}"] = float(sum(design.bound.values()))
        out[f"sum_se_mc_{tag}"] = float(sum(design.exact.values()))
        out[f"iterations_{tag}"] = float(design.state.iterations)
        out[f"converged_{tag}"] = float(design.state.converged)
        if scene.cfg.sweep_name == "num_rrh":
            out[f"trace_{tag}"] = list(design.state.sum_se_trace)
    return out


def _tightness_metrics(scene: _Scene, training: TrainingConfig) -> dict:
    out = {}
    for tag, design in _designs(scene, training, out):
        gaps = {}
        for kind, users in (("rue", scene.topology.rue_set), ("bue", scene.topology.bue_set)):
            lb_sum = float(sum(design.bound[m] for m in users))
            mc_sum = float(sum(design.exact[m] for m in users))
            out[f"sum_lb_{kind}_{tag}"], out[f"sum_mc_{kind}_{tag}"] = lb_sum, mc_sum
            if mc_sum:  # no gap for a class with no user in this realization
                gaps[f"rel_gap_{kind}_{tag}"] = (mc_sum - lb_sum) / abs(mc_sum)
        out.update(gaps)
    return out


# ---------------------------------------------------------------------------
# Ensemble reduction.


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@dataclass
class SweepResult:
    """Reduced sweep output: rows of (sweep_value, metric, mean, stderr, n)."""

    rows: list
    path: str | None = None

    HEADER = ("sweep_value", "metric", "mean", "stderr", "n")

    def write(self, path) -> None:
        _write_csv(path, self.HEADER, ([repr(value), metric, repr(mean), repr(stderr), n]
                                       for value, metric, mean, stderr, n in self.rows))
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
    if len(values) == 1:
        return float(values[0]), 0.0
    arr = np.asarray(values, dtype=float)
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(arr.size))


def _reduce_metrics(results: list[dict], value) -> list:
    """Ordered reduction of per-realization dicts into CSV rows.

    Scalar metrics reduce to (mean, stderr, n) over the realizations carrying
    them. List-valued metrics (convergence traces) are padded with their last
    entry to the ensemble's longest trace and reduced per iteration index.
    `failed_*` markers reduce to a failure-count row; `skip_*` markers (the
    sweep warns of them) make no row, so a refused search's metrics reduce
    over the realizations whose search ran.
    """
    rows = []
    fail_counts = {}
    order = []
    seen = set()
    for res in results:
        for key in res:
            if key.startswith("failed_"):
                fail_counts[key] = fail_counts.get(key, 0) + 1
            elif not key.startswith("skip_") and key not in seen:
                seen.add(key)
                order.append(key)
    for key in order:
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


def _run_sweep(cfg: ExperimentConfig, metrics_at) -> SweepResult:
    """Every realization through ``_realization``, then rows value by value."""
    tasks = [(cfg, metrics_at, r) for r in range(cfg.num_realizations)]
    if cfg.jobs == 1:
        per_realization = [_realization(t) for t in tasks]
    else:
        # imported here: the pool's modules cost ~20 ms of every `import hcransim`
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            chunksize = max(1, len(tasks) // cfg.jobs)
            per_realization = list(pool.map(_realization, tasks, chunksize=chunksize))
    rows = []
    for value, results in zip(cfg.sweep_values, zip(*per_realization)):
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
    return _run_sweep(cfg, _mse_metrics)


def run_se_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Ensemble sum spectral efficiency (bound and exact rate) per sweep value."""
    return _run_sweep(cfg, _se_metrics)


def run_tightness(cfg: ExperimentConfig) -> SweepResult:
    """Bound-vs-achievable comparison split by UE class, per design."""
    return _run_sweep(cfg, _tightness_metrics)


# ---------------------------------------------------------------------------
# Single-instance runs and artifact dumps.


def _ue_kinds(topology) -> list[str]:
    """Per UE id, "rue" if an RRH serves it, else "bue"."""
    return ["rue" if cluster else "bue" for cluster in topology.serving_rrhs]


def _write_assignment(path, topology, assignment) -> None:
    _write_csv(path, ["ue_id", "type", "pilot"],
               ([m, kind, assignment.pilots[m]] for m, kind in enumerate(_ue_kinds(topology))))


def schedule_one(cfg: ExperimentConfig, out_path=None) -> list:
    """Pilot-schedule realization 0 at the first sweep value (as
    ``solve_one``) with every configured scheduler.

    Returns one (scheduler, assignment, sum MSE) triple per scheduler and,
    if out_path is given, writes the first scheduler's pilot table there. A
    refused exhaustive search raises the guard's message.
    """
    scenario, training = _apply_sweep(cfg, cfg.sweep_values[0])
    scene = _Scene(cfg, scenario, 0, (training.tau,))
    results = [(s, a, scene.sum_mse(a)) for s, a in _schedules(scene, training, None)]
    if out_path:
        _write_assignment(out_path, scene.topology, results[0][1])
    return results


def solve_one(cfg: ExperimentConfig, out_dir) -> Design:
    """Run one full realization (r = 0, first sweep value) with the first
    scheduler and beamformer, and dump artifacts.

    Writes topology.json (``save_topology``), assignment.csv, rates.csv
    and trace.csv into out_dir. In rates.csv, mc_rate is the exact ergodic
    rate and mc_stderr the quadrature's error estimate (see
    ``monte_carlo_rates``). Returns the ``Design``, which is realization 0
    of the SE sweep at the first sweep value. A refused exhaustive search
    raises the guard's message.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    scenario, training = _apply_sweep(cfg, cfg.sweep_values[0])
    scene = _Scene(cfg, scenario, 0, (training.tau,))
    _, assignment = next(_schedules(scene, training, None))
    design = scene.solve(assignment, training, cfg.beamformers[0])
    topology = scene.topology

    save_topology(topology, out / "topology.json")

    _write_assignment(out / "assignment.csv", topology, design.assignment)
    _write_csv(out / "rates.csv", ["ue_id", "type", "lower_bound", "mc_rate", "mc_stderr"],
               ([m, kind, repr(design.bound[m]), repr(design.exact[m]), repr(design.stderr[m])]
                for m, kind in enumerate(_ue_kinds(topology))))
    state = design.state
    _write_csv(out / "trace.csv", ["iteration", "objective", "sum_se_lb"],
               ([d, repr(obj), repr(se)] for d, (obj, se)
                in enumerate(zip(state.objective_trace, state.sum_se_trace), start=1)))

    return design


# ---------------------------------------------------------------------------
# Config file loading.


def _powers(entry: dict, **names: str) -> dict:
    """Watts of each power present in entry as `key` or `key_dbm`, by field name."""
    out = {}
    for key, name in names.items():
        if f"{key}_dbm" in entry:
            out[name] = dbm_to_watt(float(typed(entry[f"{key}_dbm"], float, f"{key}_dbm")))
        elif key in entry:
            out[name] = float(typed(entry[key], float, key))
    return out


def load_config(path) -> ExperimentConfig:
    """Build an ExperimentConfig from a JSON file.

    Power entries accept either watts (`p_rue`) or dBm (`p_rue_dbm`). A
    missing section or field takes the dataclass default. Unknown or
    repeated keys (``util.read_json_object``), a section that is not an
    object and a value of the wrong type (see ``util.typed``; output_path
    and the sweep name are strings, sweep values take the swept field's
    type) raise a ValueError that names them.
    """
    raw = read_json_object(path)
    known = {
        "scenario",
        "training",
        "budgets",
        "sweep",
        "num_realizations",
        "schedulers",
        "beamformers",
        "output_path",
        "master_seed",
        "jobs",
    }
    extra = set(raw) - known
    if extra:
        raise ValueError(f"unknown config keys: {sorted(extra)}")
    s = section(raw, "scenario", {f.name for f in dataclasses.fields(ScenarioConfig)}, "scenario")
    t = section(
        raw,
        "training",
        {"p_rue", "p_rue_dbm", "p_bue", "p_bue_dbm", "noise", "noise_dbm", "tau", "coherence"},
        "training",
    )
    b = section(raw, "budgets", {"rrh", "rrh_dbm", "mbs", "mbs_dbm"}, "budget")
    sweep = section(raw, "sweep", {"name", "values"}, "sweep")
    for key, value in s.items():
        typed(value, type(getattr(ScenarioConfig, key)), key)
    for entry, key in ((raw, "schedulers"), (raw, "beamformers"), (sweep, "values")):
        typed(entry.get(key, []), list, key)

    kwargs = {}
    for key in ("num_realizations", "master_seed", "jobs"):
        if key in raw:
            kwargs[key] = typed(raw[key], int, key)
    if "schedulers" in raw:
        kwargs["schedulers"] = tuple(raw["schedulers"])
    if "beamformers" in raw:
        kwargs["beamformers"] = tuple(raw["beamformers"])
    if "output_path" in raw:
        kwargs["output_path"] = typed(raw["output_path"], str, "output_path")
    name = typed(sweep.get("name", ExperimentConfig.sweep_name), str, "name")
    kwargs["sweep_name"] = name
    if name in _SCENARIO_SWEEPS | _TRAINING_SWEEPS:
        owner = TrainingConfig if name in _TRAINING_SWEEPS else ScenarioConfig
        for value in sweep.get("values", []):
            typed(value, type(getattr(owner, name)), "values")
    if "values" in sweep:
        kwargs["sweep_values"] = tuple(sweep["values"])
    training = TrainingConfig(
        **_powers(t, p_rue="p_rue", p_bue="p_bue", noise="noise_power"),
        **{key: typed(t[key], int, key) for key in ("tau", "coherence") if key in t},
    )
    return ExperimentConfig(
        scenario=ScenarioConfig(**s),
        training=training,
        budgets=dataclasses.replace(ExperimentConfig().budgets, **_powers(b, rrh="rrh", mbs="mbs")),
        **kwargs,
    )
