"""Sweep drivers: seeding, reduction, CSV output, config files."""

import dataclasses
import itertools
import json
import math
import warnings

import numpy as np
import pytest

from hcransim import (
    ConvergenceError,
    ExperimentConfig,
    PowerBudget,
    ScenarioConfig,
    SweepResult,
    TrainingConfig,
    generate_topology,
    load_config,
    load_topology,
    run_mse_sweep,
    run_se_sweep,
    run_tightness,
    schedule_one,
    solve_one,
)
from hcransim import beamforming, experiments, pilot_scheduler
from hcransim.util import dbm_to_watt


def tiny_config(**kw):
    base = dict(
        scenario=ScenarioConfig(num_rrh=10, num_ue=5, coverage_radius=130.0),
        training=TrainingConfig(tau=3, coherence=30),
        sweep_name="tau",
        sweep_values=(3, 4),
        num_realizations=3,
    )
    base.update(kw)
    return ExperimentConfig(**base)


TIGHTNESS_METRICS = (
    "sum_lb_rue", "sum_mc_rue", "sum_lb_bue", "sum_mc_bue", "rel_gap_rue", "rel_gap_bue",
)


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(num_realizations=0)
    with pytest.raises(ValueError):
        tiny_config(sweep_name="carrier_frequency")
    with pytest.raises(ValueError):
        tiny_config(sweep_values=())
    with pytest.raises(ValueError):
        tiny_config(schedulers=("psa", "greedy"))
    with pytest.raises(ValueError):
        tiny_config(beamformers=("zf",))
    with pytest.raises(ValueError):
        tiny_config(beamformers=("none",))
    with pytest.raises(ValueError, match="non-empty"):
        tiny_config(beamformers=())
    with pytest.raises(ValueError, match="non-empty"):
        tiny_config(schedulers=())
    # a repeated design would run twice and its rows reduce over both runs
    with pytest.raises(ValueError, match=r"repeated scheduler in \('psa', 'psa'\)"):
        tiny_config(schedulers=("psa", "psa"))
    with pytest.raises(ValueError, match="repeated beamformer"):
        tiny_config(beamformers=("rtd", "rtd_perfect_csi", "rtd"))
    # and a repeated sweep value would give two rows for one (value, metric)
    with pytest.raises(ValueError, match=r"repeated sweep value in \(3, 3\)"):
        tiny_config(sweep_values=(3, 3))
    with pytest.raises(ValueError):
        tiny_config(jobs=0)
    with pytest.raises(ValueError, match="master_seed must be >= 0"):
        tiny_config(master_seed=-1)
    # every sweep value's configs are built at construction (5 users,
    # coherence 30), so no sweep starts that would fail part way
    with pytest.raises(ValueError, match="need 0 < tau < coherence"):
        tiny_config(sweep_values=(3, 30))
    with pytest.raises(ValueError, match="tau cannot exceed the UE count at tau=6"):
        tiny_config(sweep_values=(3, 6))
    with pytest.raises(ValueError, match="tau cannot exceed the UE count at num_ue=2"):
        tiny_config(sweep_name="num_ue", sweep_values=(5, 2))
    with pytest.raises(ValueError, match="num_rrh must be >= 1"):
        tiny_config(sweep_name="num_rrh", sweep_values=(10, 0))
    # per-RRH budgets must fit every value of an RRH-count sweep
    with pytest.raises(ValueError, match=r"need 12 RRH budgets, got shape \(10,\)"):
        ExperimentConfig(
            scenario=ScenarioConfig(num_rrh=10, num_ue=6),
            training=TrainingConfig(tau=3),
            budgets=PowerBudget(rrh=np.full(10, 0.5), mbs=1.0),
            sweep_name="num_rrh",
            sweep_values=(10, 12),
        )


@pytest.mark.parametrize(
    "config, name", [(ScenarioConfig(), "num_ue"), (TrainingConfig(), "tau")]
)
def test_scenario_and_training_configs_are_frozen(config, name):
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(config, name, 3)
    assert hash(config) == hash(dataclasses.replace(config))


def test_mse_sweep_rows_and_scheduler_ordering():
    cfg = tiny_config(schedulers=("psa", "dsatur_random", "es"), num_realizations=4)
    result = run_mse_sweep(cfg)
    values = sorted({row[0] for row in result.rows})
    assert values == [3, 4]
    metrics = {row[1] for row in result.rows}
    assert metrics == {"sum_mse_psa", "sum_mse_dsatur_random", "sum_mse_es"}
    for row in result.rows:
        _, _, mean, stderr, n = row
        assert math.isfinite(mean) and mean > 0
        assert stderr >= 0 and n == 4
    for value in (3, 4):
        by = {m: mean for v, m, mean, *_ in result.rows if v == value}
        assert by["sum_mse_es"] <= by["sum_mse_psa"] + 1e-12
    # an MSE sweep takes every parameter ExperimentConfig takes
    result = run_mse_sweep(tiny_config(sweep_name="num_rrh", sweep_values=(8, 10)))
    assert [row[:2] for row in result.rows] == [(8, "sum_mse_psa"), (10, "sum_mse_psa")]
    assert all(math.isfinite(row[2]) and row[2] > 0 and row[4] == 3 for row in result.rows)


def test_exhaustive_search_guard_becomes_a_warning():
    # at M=12 the tau^M enumeration bound overflows the guard, so the es
    # scheduler is dropped (with a warning) while psa rows survive
    cfg = tiny_config(
        scenario=ScenarioConfig(num_rrh=10, num_ue=12, coverage_radius=130.0),
        training=TrainingConfig(tau=8, coherence=30),
        sweep_values=(8,),
        schedulers=("psa", "es"),
        num_realizations=2,
    )
    with pytest.warns(UserWarning, match="es skipped at tau=8"):
        result = run_mse_sweep(cfg)
    metrics = {row[1] for row in result.rows}
    assert metrics == {"sum_mse_psa"}


def test_se_and_tightness_sweeps_skip_a_refused_exhaustive_search():
    """At 14 users the enumeration guard refuses the exhaustive search; the
    SE and tightness sweeps skip it with the MSE sweep's warning instead of
    aborting, and the PSA rows are still there, in the tightness sweep too
    when es is the first scheduler."""
    scenario = ScenarioConfig(num_ue=14, num_rrh=25)
    cfg = ExperimentConfig(
        scenario=scenario, sweep_values=(5,), num_realizations=1, schedulers=("psa", "es")
    )
    with pytest.warns(UserWarning, match="es skipped at tau=5: search space"):
        rows = run_se_sweep(cfg).rows
    metrics = {row[1] for row in rows}
    assert {"sum_se_lb_psa_rtd", "sum_se_mc_psa_rtd"} <= metrics
    assert not [m for m in metrics if "_es_" in m]
    tight = dataclasses.replace(
        cfg, sweep_name="num_rrh", sweep_values=(25,), schedulers=("es", "psa")
    )
    with pytest.warns(UserWarning, match="es skipped at num_rrh=25: search space"):
        metrics = [row[1] for row in run_tightness(tight).rows]
    assert metrics == [f"{name}_psa_rtd" for name in TIGHTNESS_METRICS]


def test_a_partly_refused_search_reduces_over_the_realizations_that_ran():
    """At 9 users and tau 5 the guard refuses the search where the effective
    tau is 6 or more (realizations 0 and 2 here) and lets it run where it
    stays 5. The MSE sweep warns, as the SE sweep does, and reports the
    search's mean over the two realizations that ran, with n = 2."""
    cfg = ExperimentConfig(
        scenario=ScenarioConfig(num_ue=9, num_rrh=10, coverage_radius=100.0),
        training=TrainingConfig(tau=5),
        sweep_values=(5,),
        num_realizations=4,
        schedulers=("psa", "es"),
    )
    with pytest.warns(UserWarning, match="es skipped at tau=5: search space"):
        rows = {row[1]: row for row in run_mse_sweep(cfg).rows}
    assert rows["sum_mse_psa"][4] == 4 and rows["sum_mse_es"][4] == 2
    scenes = [experiments._Scene(cfg, cfg.scenario, r, (5,)) for r in (1, 3)]
    ran = [scene.sum_mse(scene.schedule("es", 5)) for scene in scenes]
    assert rows["sum_mse_es"][2] == pytest.approx(np.mean(ran), rel=1e-12)


def test_schedule_one_uses_the_first_sweep_value_as_solve_one_does(tmp_path):
    cfg = tiny_config(sweep_name="num_ue", sweep_values=(4, 5), schedulers=("psa", "es"))
    results = schedule_one(cfg)
    assert [len(assignment.pilots) for _, assignment, _ in results] == [4, 4]
    design = solve_one(cfg, tmp_path)
    assert np.array_equal(design.assignment.pilots, results[0][1].pilots)
    # a tau sweep's first value is the requested pilot length
    results = schedule_one(tiny_config(sweep_values=(4, 3)))
    assert results[0][1].tau == 4


@pytest.mark.parametrize(
    "schedulers, scored",
    [(("psa", "dsatur_random", "es"), 1), (("es", "dsatur_random", "psa"), 1), (("es",), 0)],
)
def test_schedule_one_calls_each_scheduler_once_and_scores_once(monkeypatch, schedulers, scored):
    """The single-instance path calls each configured scheduler once and
    scores the vectors the exhaustive search did not find in at most one
    ``sum_mse`` call, in any scheduler order; the search alone makes none."""
    counts = {}
    names = [f"{s}_schedule" for s in experiments.SCHEDULERS]
    _count_calls(monkeypatch, counts, experiments, names + ["sum_mse"])
    results = schedule_one(tiny_config(schedulers=schedulers))
    assert [s for s, *_ in results] == list(schedulers)
    assert counts == {f"{s}_schedule": int(s in schedulers) for s in experiments.SCHEDULERS} | {
        "sum_mse": scored
    }


@pytest.mark.parametrize("scheduler", ["psa", "es"])
def test_solve_one_design_is_realization_0_of_the_se_sweep(tmp_path, scheduler):
    """solve_one's Design is the SE sweep's realization 0 at the first sweep
    value with the first scheduler and beamformer: its summed rates and
    cycle count are that realization's rows bit for bit."""
    cfg = tiny_config(sweep_name="num_ue", sweep_values=(5, 4), num_realizations=1,
                      schedulers=(scheduler, "dsatur_random"),
                      beamformers=("rtd_perfect_csi", "rtd"))
    design = solve_one(cfg, tmp_path)
    rows = {metric: mean for value, metric, mean, *_ in run_se_sweep(cfg).rows if value == 5}
    tag = f"{scheduler}_rtd_perfect_csi"
    assert sum(design.bound.values()) == rows[f"sum_se_lb_{tag}"]
    assert sum(design.exact.values()) == rows[f"sum_se_mc_{tag}"]
    assert design.state.iterations == rows[f"iterations_{tag}"]


def test_sweep_csv_reproducibility_and_jobs(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    out3 = tmp_path / "c.csv"
    run_mse_sweep(tiny_config(output_path=str(out1)))
    run_mse_sweep(tiny_config(output_path=str(out2)))
    run_mse_sweep(tiny_config(output_path=str(out3), jobs=2))
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes() == out3.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "sweep_value,metric,mean,stderr,n"
    # a different master seed changes the numbers
    out4 = tmp_path / "d.csv"
    run_mse_sweep(tiny_config(output_path=str(out4), master_seed=1))
    assert out1.read_bytes() != out4.read_bytes()


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "sweep, kw",
    [
        (run_mse_sweep, dict(schedulers=("psa", "dsatur_random", "es"))),
        (
            run_se_sweep,
            dict(schedulers=("psa", "es"), beamformers=("rtd", "rtd_perfect_csi")),
        ),
    ],
    ids=["mse", "se"],
)
def test_multi_value_sweep_rows_equal_one_value_sweeps(sweep, kw, jobs):
    """Every row of a tau sweep equals, bit for bit, the row of the sweep at
    that tau alone: nothing a realization shares across sweep values is
    changed by the schedulers or beamformers that read it. Tau 2 is clamped
    up to the MBS-served user count on two of the three realizations."""
    taus = (2, 3, 4)
    multi = sweep(tiny_config(sweep_values=taus, jobs=jobs, **kw)).rows
    single = [
        row for tau in taus for row in sweep(tiny_config(sweep_values=(tau,), jobs=jobs, **kw)).rows
    ]
    assert multi == single
    assert {row[0] for row in multi} == set(taus)


def _count_calls(monkeypatch, counts, module, names) -> None:
    """Count the calls of each named function of ``module`` into ``counts``."""
    counts.update(dict.fromkeys(names, 0))
    for name in names:
        real = getattr(module, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)


def test_each_realization_runs_its_sweep_invariant_stages_once(monkeypatch):
    shared = ("generate_topology", "build_conflict_graph", "compute_beta", "mse_links")
    counts = {}
    _count_calls(monkeypatch, counts, experiments, shared + ("draw_small_scale", "sum_mse"))
    _count_calls(monkeypatch, counts, pilot_scheduler, ("dsatur_color",))
    taus = (2, 3, 4, 5)
    run_mse_sweep(
        tiny_config(sweep_values=taus, schedulers=("psa", "dsatur_random", "es"))
    )
    # the exhaustive search hands back its minimum, so only the heuristics'
    # other vectors are scored, in at most one call per realization: four in
    # realizations 0 and 2, none in realization 1, where every tau is lifted
    # to 5 and both heuristics find the search's vector
    assert counts == dict.fromkeys(shared + ("dsatur_color",), 3) | {
        "draw_small_scale": 0, "sum_mse": 2,
    }

    counts.update(dict.fromkeys(counts, 0))
    run_se_sweep(
        tiny_config(
            sweep_values=taus,
            num_realizations=2,
            schedulers=("psa", "dsatur_random"),
            beamformers=("rtd", "rtd_perfect_csi"),
        )
    )
    assert counts == dict.fromkeys(
        ("generate_topology", "build_conflict_graph", "compute_beta", "dsatur_color",
         "draw_small_scale"), 2
    ) | {"mse_links": 0, "sum_mse": 0}

    # a scenario sweep draws once per value (a repeated value is rejected)
    counts.update(dict.fromkeys(counts, 0))
    run_mse_sweep(tiny_config(sweep_name="num_ue", sweep_values=(4, 5)))
    assert counts["generate_topology"] == counts["compute_beta"] == 2 * 3


@pytest.mark.parametrize(
    "name", sorted(experiments._SCENARIO_SWEEPS | experiments._TRAINING_SWEEPS)
)
def test_no_sweep_changes_the_training_powers(name):
    """A scene makes its schedules once, at ``cfg.training``'s powers, for
    every sweep value it serves; that holds only while no sweep moves a
    power, so a sweep that did would reuse schedules made at other powers.
    Each sweep name moves its own field here and leaves the powers alone."""
    cfg = tiny_config()
    in_training = name in experiments._TRAINING_SWEEPS
    base = getattr(cfg.training if in_training else cfg.scenario, name)
    value = base + 1 if isinstance(base, int) else 2.0 * base
    swept = dataclasses.replace(cfg, sweep_name=name, sweep_values=(value,))
    scenario, training = experiments._apply_sweep(swept, value)
    assert getattr(training if in_training else scenario, name) == value
    powers = ("p_rue", "p_bue", "noise_power")
    assert [getattr(training, p) for p in powers] == [getattr(cfg.training, p) for p in powers]


def test_equal_effective_tau_shares_one_schedule(monkeypatch):
    """Each realization calls each scheduler once, for every distinct
    effective tau (tau lifted to the coloring number and the MBS-served user
    count) of the sweep, and scores the heuristics' schedules in one
    ``sum_mse`` call that holds each distinct pilot vector once, except the
    vectors the exhaustive search found: its minimum is their value, so a
    heuristic that finds the search's vector reports the search's sum MSE
    bit for bit. PSA and Dsatur-random find it at every tau of realization
    1 (every tau lifted to 5), which makes no call, and PSA at tau 1 and 2
    of realization 2. On a tau sweep where the clamp repeats, the schedules
    are fewer than the sweep's (realization, tau) pairs, and the rows equal
    those of one-value sweeps."""
    schedulers = ("psa_schedule", "dsatur_random_schedule", "es_schedule")
    counts = {}
    _count_calls(monkeypatch, counts, experiments, schedulers)
    scored = []
    real = experiments.sum_mse

    def recorded(topology, assignments, *args, **kwargs):
        scored.append(sorted(tuple(a.pilots.tolist()) for a in assignments))
        return real(topology, assignments, *args, **kwargs)

    monkeypatch.setattr(experiments, "sum_mse", recorded)
    taus = (1, 2, 3, 4)
    heuristics = ("psa", "dsatur_random")
    cfg = tiny_config(
        training=TrainingConfig(tau=1, coherence=30),
        sweep_values=taus,
        schedulers=heuristics + ("es",),
    )
    rows = run_mse_sweep(cfg).rows
    assert counts == dict.fromkeys(schedulers, cfg.num_realizations)
    swept, scored[:] = scored[:], []
    distinct, vectors, found = 0, [], set()
    for r in range(cfg.num_realizations):
        scene = experiments._Scene(cfg, cfg.scenario, r, taus)
        t = scene.graph.coloring[0]
        distinct += len({pilot_scheduler.effective_tau(scene.topology, tau, t) for tau in taus})
        searched = {tuple(scene.schedule("es", tau).pilots.tolist()) for tau in taus}
        made = {tuple(scene.schedule(s, tau).pilots.tolist()) for s in heuristics for tau in taus}
        if made - searched:
            vectors.append(sorted(made - searched))
        for tau in taus:
            out = experiments._mse_metrics(scene, dataclasses.replace(cfg.training, tau=tau))
            for s in heuristics:
                if np.array_equal(scene.schedule(s, tau).pilots, scene.schedule("es", tau).pilots):
                    found.add((r, s, tau))
                    assert out[f"sum_mse_{s}"] == out["sum_mse_es"]
    assert distinct < cfg.num_realizations * len(taus)
    assert swept == scored == vectors and len(vectors) == 2
    assert found == {(1, s, tau) for s in heuristics for tau in taus} | {(2, "psa", 1), (2, "psa", 2)}
    single = [
        row for tau in taus
        for row in run_mse_sweep(dataclasses.replace(cfg, sweep_values=(tau,))).rows
    ]
    assert rows == single


def test_a_scenes_shared_arrays_are_read_only():
    """The contamination levels and every schedule's pilot vector are
    shared by the scene's schedulers and designs, and Dsatur-random's
    entries share one vector across tau, so a write to any of them raises."""
    taus = (2, 3, 4)
    cfg = tiny_config(sweep_values=taus, schedulers=("psa", "dsatur_random", "es"))
    scene = experiments._Scene(cfg, cfg.scenario, 2, taus)
    entries = {s: [scene.schedule(s, tau) for tau in taus] for s in cfg.schedulers}
    random_pilots = {id(a.pilots) for a in entries["dsatur_random"]}
    assert len(random_pilots) == 1 and len({a.tau for a in entries["dsatur_random"]}) == 3
    for array in [scene.beta] + [a.pilots for each in entries.values() for a in each]:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1


@pytest.mark.parametrize(
    "schedulers", [("psa",), ("psa", "dsatur_random"), ("dsatur_random", "psa")]
)
def test_psa_refines_the_scenes_dsatur_random_entries(monkeypatch, schedulers):
    """Each scene makes one Dsatur-random call, whichever scheduler asks
    first and whether or not Dsatur-random is configured, and PSA's starts
    are Dsatur-random's entries at the same effective tau, the same objects."""
    counts, starts = {}, []
    _count_calls(monkeypatch, counts, experiments, ("dsatur_random_schedule",))
    real = experiments.psa_schedule

    def recorded(topology, beta, graph, given):
        starts.append(list(given))
        return real(topology, beta, graph, given)

    monkeypatch.setattr(experiments, "psa_schedule", recorded)
    taus = (1, 2, 3, 4)
    cfg = tiny_config(
        training=TrainingConfig(tau=1, coherence=30), sweep_values=taus, schedulers=schedulers
    )
    run_mse_sweep(cfg)
    assert counts == {"dsatur_random_schedule": cfg.num_realizations}
    assert len(starts) == cfg.num_realizations
    starts.clear()
    for r in range(cfg.num_realizations):
        scene = experiments._Scene(cfg, cfg.scenario, r, taus)
        for scheduler, tau in itertools.product(schedulers, taus):
            scene.schedule(scheduler, tau)
        entries = {scene.effs[tau]: scene.schedule("dsatur_random", tau) for tau in taus}
        assert counts["dsatur_random_schedule"] == cfg.num_realizations + r + 1
        (given,) = starts[r:]
        assert [id(a) for a in given] == [id(entries[eff]) for eff in sorted(entries)]


def test_a_sweep_whose_largest_tau_the_guard_refuses_equals_one_value_sweeps(monkeypatch):
    """With the enumeration guard between the search spaces of the sweep's
    effective taus, the one search for the whole sweep is refused, and each
    tau is searched on its own: the rows and the ``skip_es`` warnings equal
    those of one-value sweeps, where the smaller taus' searches run."""
    cfg = tiny_config(sweep_values=(2, 3, 4), schedulers=("psa", "es"))
    monkeypatch.setattr(pilot_scheduler, "ES_LIMIT", 3 ** cfg.scenario.num_ue)
    with pytest.warns(UserWarning) as multi_warnings:
        rows = run_mse_sweep(cfg).rows
    single, single_warnings = [], []
    for tau in cfg.sweep_values:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            single += run_mse_sweep(dataclasses.replace(cfg, sweep_values=(tau,))).rows
        single_warnings += [str(w.message) for w in caught]
    assert rows == single
    assert [str(w.message) for w in multi_warnings] == single_warnings
    # realization 1 holds 5 MBS-served users, so every tau is refused there;
    # realizations 0 and 2 search tau 2 and 3 and are refused at tau 4
    assert len(single_warnings) == len(cfg.sweep_values)
    assert {row[0]: row[4] for row in rows if row[1] == "sum_mse_es"} == {2: 2, 3: 2}


def test_a_refused_search_is_kept_and_no_search_repeats(monkeypatch):
    """The guard's refusal is the refused tau's table entry, so the sweep of
    the test above makes no ``es_schedule`` call twice in one realization:
    realization 0 (effective taus 3 and 4) is refused at [3, 4] and searches
    [3]; realization 1 (5 MBS-served users, every tau lifted to 5) is
    refused once at [5]; realization 2 is refused at [2, 3, 4] and searches
    [2, 3]. Before, the same sweep made 16 calls, 13 of them refused, six of
    them [5]."""
    calls = []
    real = experiments.es_schedule

    def recorded(topology, taus, *args, **kwargs):
        calls.append((topology, list(taus)))
        return real(topology, taus, *args, **kwargs)

    monkeypatch.setattr(experiments, "es_schedule", recorded)
    cfg = tiny_config(sweep_values=(2, 3, 4), schedulers=("psa", "es"))
    monkeypatch.setattr(pilot_scheduler, "ES_LIMIT", 3 ** cfg.scenario.num_ue)
    with pytest.warns(UserWarning, match="es skipped"):
        run_mse_sweep(cfg)
    # calls holds every topology, so no two realizations share an id
    realizations = dict.fromkeys(id(topo) for topo, _ in calls)
    per_realization = [[taus for topo, taus in calls if id(topo) == r] for r in realizations]
    assert per_realization == [[[3, 4], [3]], [[5]], [[2, 3, 4], [2, 3]]]


# Small generated configs, pinned: (num_ue, num_rrh, rrh_antennas,
# mbs_antennas, coverage_radius, tau, RRH budget dBm, MBS budget dBm (None is
# a zero budget), master seed). They span a single user, fewer users than
# RRH antennas (rank-deficient cost matrices under perfect CSI), one RRH,
# single antennas, zero budgets on either side or both, and coverage radii
# from 9 to 397 m.
GENERATED_CONFIGS = [
    (11, 6, 1, 2, 190.0, 1, 27.0, 30.0, 0),
    (7, 14, 2, 1, 94.0, 2, 27.0, 30.0, 3),
    (4, 20, 4, 1, 182.0, 4, None, 30.0, 4),
    (5, 10, 2, 2, 88.0, 2, 27.0, 30.0, 5),
    (7, 1, 1, 2, 129.0, 5, 27.0, 30.0, 7),
    (6, 7, 2, 2, 234.0, 4, 27.0, 30.0, 8),
    (2, 11, 1, 1, 293.0, 1, 27.0, 30.0, 12),
    (8, 13, 1, 6, 384.0, 8, 27.0, None, 13),
    (11, 4, 4, 1, 123.0, 1, 27.0, 30.0, 14),
    (1, 15, 1, 1, 10.0, 1, 27.0, 30.0, 15),
    (2, 5, 4, 2, 245.0, 1, 27.0, 30.0, 19),
    (9, 11, 1, 2, 224.0, 1, None, 30.0, 21),
    (3, 29, 4, 6, 277.0, 2, 27.0, 30.0, 25),
    (4, 8, 4, 6, 55.0, 1, 27.0, None, 28),
    (1, 11, 1, 1, 229.0, 1, 27.0, 30.0, 31),
    (1, 7, 4, 6, 310.0, 1, 27.0, None, 37),
    (8, 24, 1, 6, 397.0, 3, None, None, 44),
    (1, 5, 1, 1, 367.0, 1, 27.0, 30.0, 46),
    (1, 11, 1, 6, 391.0, 1, 27.0, 30.0, 47),
    (2, 28, 4, 2, 9.0, 1, 27.0, None, 55),
]


def test_generated_small_configs_run_without_failure():
    """Every pinned generated config runs one realization through PSA, the
    robust design and the perfect-CSI design with no failure row and finite
    means."""
    for num_ue, num_rrh, n, b, radius, tau, rrh, mbs, seed in GENERATED_CONFIGS:
        cfg = ExperimentConfig(
            scenario=ScenarioConfig(
                num_ue=num_ue, num_rrh=num_rrh, rrh_antennas=n, mbs_antennas=b,
                coverage_radius=radius,
            ),
            training=TrainingConfig(tau=tau),
            budgets=PowerBudget(
                rrh=dbm_to_watt(rrh) if rrh else 0.0, mbs=dbm_to_watt(mbs) if mbs else 0.0
            ),
            sweep_values=(tau,),
            num_realizations=1,
            beamformers=("rtd", "rtd_perfect_csi"),
            master_seed=seed,
        )
        rows = run_se_sweep(cfg).rows
        assert not [row for row in rows if row[1].startswith("failures_")], cfg
        assert all(math.isfinite(row[2]) for row in rows), cfg
        assert {f"sum_se_lb_psa_{b}" for b in cfg.beamformers} <= {row[1] for row in rows}


def test_generated_topologies_pass_validate():
    """``generate_topology`` returns what ``cluster_ues`` and ``pathloss_gain``
    built without re-checking it; ``Topology.validate`` passes on 50 seeds at
    each benchmark size and on every pinned generated config's scenario."""
    scenarios = [
        (ScenarioConfig(num_ue=num_ue, num_rrh=num_rrh), seed)
        for num_ue, num_rrh in ((8, 25), (16, 50), (32, 100))
        for seed in range(50)
    ]
    scenarios += [
        (ScenarioConfig(num_ue=num_ue, num_rrh=num_rrh, rrh_antennas=n, mbs_antennas=b,
                        coverage_radius=radius), seed)
        for num_ue, num_rrh, n, b, radius, _, _, _, seed in GENERATED_CONFIGS
    ]
    for scenario, seed in scenarios:
        generate_topology(scenario, seed).validate()


def _generated_config(rng, seed):
    """One config drawn over the ranges of the generated-config probe: 1-12
    users, 1-30 RRHs, 1/2/4 RRH and 1/2/6 MBS antennas, 5-400 m coverage,
    each budget zero (one time in four) or 10-40 dBm, tau up to 8 and the
    user count, and coherence tau + 1 to tau + 29."""
    num_ue = int(rng.integers(1, 13))
    tau = int(rng.integers(1, min(8, num_ue) + 1))
    rrh, mbs = (0.0 if rng.random() < 0.25 else dbm_to_watt(rng.uniform(10.0, 40.0)) for _ in "rm")
    return ExperimentConfig(
        scenario=ScenarioConfig(
            num_ue=num_ue,
            num_rrh=int(rng.integers(1, 31)),
            rrh_antennas=int(rng.choice([1, 2, 4])),
            mbs_antennas=int(rng.choice([1, 2, 6])),
            coverage_radius=float(rng.uniform(5.0, 400.0)),
        ),
        training=TrainingConfig(tau=tau, coherence=tau + int(rng.integers(1, 30))),
        budgets=PowerBudget(rrh=rrh, mbs=mbs),
        sweep_values=(tau,),
        num_realizations=2,
        schedulers=("psa", "dsatur_random"),
        beamformers=("rtd", "rtd_perfect_csi"),
        master_seed=seed,
    )


def test_generated_configs_raise_nothing_and_fail_only_on_pilot_overflow(monkeypatch):
    """40 seeded configs over the probe's ranges run through the SE sweep:
    nothing raises, every row is finite, and every failure a design records
    is a pilot overflow, never a stalled solver."""
    failures = []
    real = experiments._se_metrics

    def recorded(scene, training):
        out = real(scene, training)
        failures.extend(msg for key, msg in out.items() if key.startswith("failed_"))
        return out

    monkeypatch.setattr(experiments, "_se_metrics", recorded)
    rng = np.random.default_rng(2023)
    for seed in range(40):
        cfg = _generated_config(rng, seed)
        rows = run_se_sweep(cfg).rows
        assert rows, cfg
        assert all(math.isfinite(row[2]) and math.isfinite(row[3]) for row in rows), cfg
    assert failures  # two of the configs overflow
    assert all("reaches the coherence length" in msg for msg in failures), failures


def test_se_sweep_metric_tags_and_traces():
    cfg = tiny_config(
        schedulers=("psa", "dsatur_random"),
        beamformers=("rtd",),
        num_realizations=2,
        sweep_values=(3,),
    )
    result = run_se_sweep(cfg)
    metrics = {row[1] for row in result.rows}
    expected = set()
    for sched in ("psa", "dsatur_random"):
        tag = f"{sched}_rtd"
        expected |= {f"sum_se_lb_{tag}", f"sum_se_mc_{tag}", f"iterations_{tag}", f"converged_{tag}"}
    assert metrics == expected
    for _, metric, mean, _, n in result.rows:
        if metric.startswith("converged_"):
            assert mean == 1.0
        assert n == 2

    # sweeping the RRH count additionally emits per-iteration trace rows
    cfg = tiny_config(
        sweep_name="num_rrh",
        sweep_values=(8,),
        num_realizations=2,
        beamformers=("rtd",),
    )
    result = run_se_sweep(cfg)
    traces = [row for row in result.rows if row[1].startswith("trace_psa_rtd_iter")]
    assert traces
    # trace indices are contiguous from 1
    indices = sorted(int(row[1].split("iter")[-1]) for row in traces)
    assert indices == list(range(1, len(indices) + 1))
    # traces are padded with their converged value, so the deepest index's
    # mean equals the mean converged sum-SE bound
    last = max(indices)
    deepest = next(mean for _, m, mean, *_ in result.rows if m == f"trace_psa_rtd_iter{last}")
    lb_mean = next(mean for _, m, mean, *_ in result.rows if m == "sum_se_lb_psa_rtd")
    assert deepest == pytest.approx(lb_mean, rel=1e-12)


def test_se_sweep_failure_accounting(monkeypatch):
    calls = {"n": 0}
    real = experiments.rtd_solve

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 2:
            raise ConvergenceError("synthetic failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "rtd_solve", flaky)
    cfg = tiny_config(sweep_values=(3,), num_realizations=3)
    result = run_se_sweep(cfg)
    rows = {row[1]: row for row in result.rows}
    assert rows["failures_psa_rtd"][2] == 1.0
    assert rows["sum_se_lb_psa_rtd"][4] == 2  # failed realization excluded


def test_a_pilot_overflow_is_a_failure_row_not_an_aborted_sweep():
    """Realization 2 of this config has all 12 users MBS-served, so its
    effective tau of 12 reaches the coherence length of 11. The SE and
    tightness sweeps report it as one failure row, naming what lifted tau,
    and the other five realizations keep their metrics."""
    cfg = ExperimentConfig(
        scenario=ScenarioConfig(num_ue=12, num_rrh=10, coverage_radius=60.0),
        training=TrainingConfig(tau=2, coherence=11),
        sweep_values=(2,),
        num_realizations=6,
    )
    rows = {row[1]: row for row in run_se_sweep(cfg).rows}
    assert rows["failures_psa_rtd"][2:] == (1.0, 0.0, 6)
    assert rows["sum_se_lb_psa_rtd"][4] == rows["sum_se_mc_psa_rtd"][4] == 5
    tight = dataclasses.replace(cfg, sweep_name="rrh_antennas", sweep_values=(4,))
    rows = {row[1]: row for row in run_tightness(tight).rows}
    assert rows["failures_psa_rtd"][2:] == (1.0, 0.0, 6)
    assert rows["sum_lb_rue_psa_rtd"][4] == rows["sum_mc_bue_psa_rtd"][4] == 5
    scene = experiments._Scene(cfg, cfg.scenario, 2, (2,))
    assert experiments._se_metrics(scene, cfg.training) == {
        "failed_psa_rtd": "effective tau 12 (tau 2 lifted to the larger of the coloring "
        "number 0 and the MBS-served user count 12) reaches the coherence length 11"
    }


def test_dual_iteration_cap_reaches_the_solver(monkeypatch):
    """The solver reads ``MAX_DUAL_STEPS`` when it runs: with no step allowed
    after the cold start the first QCQP's beams break their caps, the design
    stalls and the sweep counts the realization as failed."""
    monkeypatch.setattr(beamforming, "MAX_DUAL_STEPS", 0)
    result = run_se_sweep(tiny_config(sweep_values=(3,), num_realizations=1))
    rows = {row[1]: row for row in result.rows}
    assert rows["failures_psa_rtd"][2] == 1.0
    assert "sum_se_lb_psa_rtd" not in rows


def test_dual_cap_counts_steps_so_a_large_drop_converges(monkeypatch):
    """At (128, 400), tau 5, master seed 3, realization 2, the psa_rtd
    design's second QCQP, its first warm one, moves more than 5,000
    multipliers over about 20 Newton steps. A cap on multiplier updates,
    which grow with the RRH count, stalled the design there; the cap on
    steps lets it converge, every solve far below the cap."""
    cfg = ExperimentConfig(
        scenario=ScenarioConfig(num_ue=128, num_rrh=400),
        training=TrainingConfig(tau=5),
        master_seed=3,
    )
    infos, real = [], beamforming.solve_qcqp

    def recorded(problem, feas_tol, mu0=None, nu0=None):
        beams, info = real(problem, feas_tol, mu0=mu0, nu0=nu0)
        steps = (mu0 is None) + info["newton_accepted"] + 2 * info["newton_rejected"]
        infos.append((steps, info["dual_iterations"]))
        return beams, info

    monkeypatch.setattr(beamforming, "solve_qcqp", recorded)
    scene = experiments._Scene(cfg, cfg.scenario, 2, (5,))
    assignment = scene.schedule("psa", 5)
    design = scene.solve(assignment, cfg.training, "rtd")
    assert design.state.converged and design.state.iterations == len(infos)
    assert infos[1][1] > 5000
    assert max(steps for steps, _ in infos) < beamforming.MAX_DUAL_STEPS // 10


def test_rtd_counters_leave_the_se_sweep_csv_unchanged(tmp_path, monkeypatch):
    plain, observed = tmp_path / "plain.csv", tmp_path / "observed.csv"
    run_se_sweep(tiny_config(output_path=str(plain)))
    counters = []
    real = experiments.rtd_solve

    def recorded(*args, **kwargs):
        beams, state = real(*args, **kwargs)
        counters.append(state.counters)
        return beams, state

    monkeypatch.setattr(experiments, "rtd_solve", recorded)
    run_se_sweep(tiny_config(output_path=str(observed)))
    assert plain.read_bytes() == observed.read_bytes()
    assert len(counters) == 6  # 2 sweep values x 3 realizations
    for c in counters:
        assert set(c) == {
            "dual_updates", "coordinate_passes", "newton_accepted", "newton_rejected",
            "linear_solves", "violation", "gap", "mbs_violation",
        }
        assert c["violation"] <= 1e-6 and 0.0 <= c["gap"] <= 1e-8
        assert c["mbs_violation"] <= 1e-6
    assert sum(c["dual_updates"] for c in counters) > 0


def test_tightness_rows_per_design_at_any_sweep():
    """Tightness rows come per scheduler x beamformer design, tagged as the
    SE sweep tags them, in the same order within each design, and a tau
    sweep runs like an antenna sweep. Realization 1 has no RRH-served user,
    so its RUE gap is undefined and the rel_gap_rue rows reduce over
    realization 0 alone."""
    cfg = tiny_config(sweep_name="rrh_antennas", sweep_values=(2, 4), num_realizations=2)
    result = run_tightness(cfg)
    assert [row[1] for row in result.rows] == [f"{m}_psa_rtd" for m in TIGHTNESS_METRICS] * 2
    for _, metric, mean, stderr, n in result.rows:
        assert math.isfinite(mean) and math.isfinite(stderr)
        assert n == (1 if metric.startswith("rel_gap_rue") else 2)
        if metric.startswith("sum_"):
            assert mean >= 0.0
    cfg = tiny_config(
        schedulers=("psa", "dsatur_random"),
        beamformers=("rtd", "rtd_perfect_csi"),
        num_realizations=2,
    )
    result = run_tightness(cfg)
    tags = [f"{s}_{b}" for s in cfg.schedulers for b in cfg.beamformers]
    per_value = [f"{m}_{tag}" for tag in tags for m in TIGHTNESS_METRICS]
    assert [row[:2] for row in result.rows] == [(v, m) for v in (3, 4) for m in per_value]
    assert all(
        math.isfinite(row[2]) and row[4] == (1 if row[1].startswith("rel_gap_rue") else 2)
        for row in result.rows
    )
    # each design's sums are the SE sweep's sums split by UE class
    se = {(v, m): mean for v, m, mean, *_ in run_se_sweep(cfg).rows}
    tight = {(v, m): mean for v, m, mean, *_ in result.rows}
    for v in (3, 4):
        for tag in tags:
            for kind in ("lb", "mc"):
                split = tight[v, f"sum_{kind}_rue_{tag}"] + tight[v, f"sum_{kind}_bue_{tag}"]
                assert split == pytest.approx(se[v, f"sum_se_{kind}_{tag}"], rel=1e-12)


def test_solve_one_artifacts(tmp_path):
    cfg = tiny_config(sweep_values=(3,))
    design = solve_one(cfg, tmp_path)
    topology = experiments._Scene(cfg, cfg.scenario, 0, (3,)).topology
    expected = {"topology.json", "assignment.csv", "rates.csv", "trace.csv"}
    assert {p.name for p in tmp_path.iterdir()} >= expected

    reloaded = load_topology(tmp_path / "topology.json")
    assert np.array_equal(reloaded.alpha_rrh, topology.alpha_rrh)

    lines = (tmp_path / "assignment.csv").read_text().splitlines()
    assert lines[0] == "ue_id,type,pilot"
    assert len(lines) == 1 + topology.num_ue
    for line in lines[1:]:
        ue, kind, pilot = line.split(",")
        assert kind in ("rue", "bue")
        assert 1 <= int(pilot) <= design.assignment.tau

    lines = (tmp_path / "rates.csv").read_text().splitlines()
    assert lines[0] == "ue_id,type,lower_bound,mc_rate,mc_stderr"
    parsed = [line.split(",") for line in lines[1:]]
    assert [int(p[0]) for p in parsed] == list(range(topology.num_ue))
    for p in parsed:
        assert float(p[2]) >= 0.0

    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0] == "iteration,objective,sum_se_lb"
    assert len(lines) == 1 + design.state.iterations
    objs = [float(line.split(",")[1]) for line in lines[1:]]
    assert objs == sorted(objs, reverse=True) or all(
        b <= a + 1e-9 for a, b in zip(objs, objs[1:])
    )


def test_sweep_result_series_roundtrip(tmp_path):
    rows = [
        (3, "alpha", 1.5, 0.1, 4),
        (4, "alpha", 1.25, 0.2, 4),
        (3, "beta", 9.0, 0.0, 4),
    ]
    result = SweepResult(rows=rows)
    vals, means, errs = result.series("alpha")
    assert vals == [3, 4] and means == [1.5, 1.25] and errs == [0.1, 0.2]
    path = tmp_path / "out.csv"
    result.write(path)
    text = path.read_text().splitlines()
    assert text[0] == "sweep_value,metric,mean,stderr,n"
    assert text[1] == "3,alpha,1.5,0.1,4"


def test_load_config_full_and_dbm(tmp_path):
    payload = {
        "scenario": {"num_rrh": 12, "num_ue": 6, "coverage_radius": 110.0},
        "training": {"p_rue_dbm": 17.0, "p_bue_dbm": 20.0, "noise_dbm": -100.0,
                     "tau": 4, "coherence": 40},
        "budgets": {"rrh_dbm": 27.0, "mbs_dbm": 30.0},
        "sweep": {"name": "tau", "values": [4, 5]},
        "num_realizations": 7,
        "schedulers": ["psa", "es"],
        "beamformers": ["rtd"],
        "master_seed": 11,
        "jobs": 2,
        "output_path": "result.csv",
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    cfg = load_config(path)
    assert cfg.scenario.num_rrh == 12
    assert cfg.training.p_rue == pytest.approx(dbm_to_watt(17.0), rel=1e-15)
    assert cfg.training.noise_power == pytest.approx(1e-13, rel=1e-12)
    assert cfg.budgets.mbs == pytest.approx(1.0, rel=1e-12)
    assert cfg.sweep_name == "tau" and cfg.sweep_values == (4, 5)
    assert cfg.num_realizations == 7 and cfg.jobs == 2
    assert cfg.schedulers == ("psa", "es") and cfg.beamformers == ("rtd",)
    assert cfg.output_path == "result.csv"
    # defaults apply when sections are omitted
    (tmp_path / "min.json").write_text("{}")
    assert load_config(tmp_path / "min.json") == ExperimentConfig()


def test_load_config_takes_missing_fields_from_the_dataclass_defaults(tmp_path):
    # tau 3: the default num_ue sweep starts at 3 users, and a tau above
    # the UE count at any sweep value is rejected
    payload = {
        "training": {"tau": 3, "p_bue_dbm": 23.0},
        "budgets": {"rrh_dbm": 20.0},
        "sweep": {"name": "num_ue"},
    }
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(payload))
    default = ExperimentConfig()
    assert load_config(path) == dataclasses.replace(
        default,
        training=TrainingConfig(tau=3, p_bue=dbm_to_watt(23.0)),
        budgets=PowerBudget(rrh=dbm_to_watt(20.0), mbs=default.budgets.mbs),
        sweep_name="num_ue",
    )
    path.write_text(json.dumps({"sweep": {"values": [2, 3]}}))
    assert load_config(path) == dataclasses.replace(default, sweep_values=(2, 3))


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"scenari": {}}, "unknown config keys"),
        ({"scenario": {"num_rhh": 3}}, "unknown scenario keys"),
        ({"scenario": {"rng_seed": 123}}, "unknown scenario keys"),
        ({"scenario": {"cell_radius": 500.0}}, "unknown scenario keys"),
        ({"training": {"p_rue_db": 17}}, "unknown training keys"),
        ({"budgets": {"rrhs": 1.0}}, "unknown budget keys"),
        ({"sweep": {"name": "tau", "values": [3], "step": 1}}, "unknown sweep keys"),
    ],
)
def test_load_config_rejects_unknown_keys(tmp_path, payload, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=message):
        load_config(path)


@pytest.mark.parametrize(
    "text, repeated",
    [
        ('{"num_realizations": 2, "num_realizations": 7}', "num_realizations"),
        ('{"scenario": {"num_ue": 8, "num_rrh": 25, "num_ue": 6}}', "num_ue"),
    ],
)
def test_load_config_rejects_a_repeated_key(tmp_path, text, repeated):
    """JSON keeps the last of a repeated key, so the first one used to be
    dropped without a word: a repeated key, top level or in a section, is a
    ValueError that names it and the file."""
    path = tmp_path / "repeated.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=rf"repeated keys \['{repeated}'\] in .*repeated\.json"):
        load_config(path)


@pytest.mark.parametrize(
    "budgets",
    [{"rrh": math.nan}, {"rrh": math.inf}, {"mbs": math.nan}, {"rrh_dbm": math.inf}],
)
def test_load_config_rejects_non_finite_budgets(tmp_path, budgets):
    """A NaN budget passed the old `< 0` check and zeroed every RRH; an
    infinite one made every drop stall. Both now fail at load time."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"budgets": budgets}))
    with pytest.raises(ValueError, match="finite"):
        load_config(path)
