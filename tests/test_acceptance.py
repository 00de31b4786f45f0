"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints one summary line with the measured margins before asserting,
so a verbose run doubles as a scoreboard. Ensemble sizes, seeds, and
tolerances are frozen; everything here is deterministic given the seeds.
"""

import dataclasses
import math
import time

import numpy as np

from hcransim import (
    ExperimentConfig,
    PowerBudget,
    ScenarioConfig,
    TrainingConfig,
    build_conflict_graph,
    compute_beta,
    dbm_to_watt,
    dsatur_random_schedule,
    es_schedule,
    generate_topology,
    lower_bound_rates,
    monte_carlo_rates,
    mse_and_equalizer,
    psa_schedule,
    rtd_solve,
    run_mse_sweep,
    run_se_sweep,
    sum_mse,
)
from hcransim.channel import prelog_factor
from hcransim.util import child_seed, crandn, seed_to_int

from helpers import child_rng, group_power, make_synthetic_qcqp, pipeline_instance, solved
from oracles import has_shared_rrh_pair, pgd_qcqp_oracle_batched, qcqp_value

BUDGETS = PowerBudget(rrh=dbm_to_watt(27.0), mbs=dbm_to_watt(30.0))


def test_c1_scheduler_ordering_es_psa_random():
    """Exhaustive search is never beaten by the greedy scheduler on any drop,
    and the greedy scheduler beats the random-permutation coloring baseline
    on ensemble average (100 drops, 6 users, 15 RRHs, 3 pilots)."""
    start = time.time()
    training = TrainingConfig(tau=3)
    args = (training.p_rue, training.p_bue, training.noise_power)
    es_le_psa = 0
    psa_vals, ds_vals = [], []
    for r in range(100):
        topology = generate_topology(
            ScenarioConfig(num_rrh=15, num_ue=6, rng_seed=seed_to_int(child_seed(42, r, 0)))
        )
        graph = build_conflict_graph(topology)
        beta = compute_beta(topology, graph)
        v_psa = sum_mse(topology, psa_schedule(topology, beta, graph, 3), *args)
        v_ds = sum_mse(
            topology, dsatur_random_schedule(topology, 3, child_rng(42, r, 1), graph), *args
        )
        v_es = sum_mse(topology, es_schedule(topology, 3, *args)[0], *args)
        es_le_psa += v_es <= v_psa * (1.0 + 1e-12)
        psa_vals.append(v_psa)
        ds_vals.append(v_ds)
    elapsed = time.time() - start
    print(
        f"\nC1 scheduler ordering: ES<=PSA on {es_le_psa}/100 drops, "
        f"mean PSA {np.mean(psa_vals):.4e} vs random baseline {np.mean(ds_vals):.4e}, "
        f"{elapsed:.1f}s"
    )
    assert es_le_psa == 100
    assert np.mean(psa_vals) <= np.mean(ds_vals)
    assert elapsed < 120.0


def test_c2_orthogonal_pilot_limit_matches_closed_form():
    """With as many pilots as users the scheduler separates everyone, and the
    scheduler's sum MSE equals the contamination-free closed form."""
    worst = 0.0
    for r in range(20):
        topology = generate_topology(
            ScenarioConfig(rng_seed=seed_to_int(child_seed(2, r, 0)))
        )
        training = TrainingConfig(tau=topology.num_ue)
        graph = build_conflict_graph(topology)
        assignment = psa_schedule(
            topology, compute_beta(topology, graph), graph, training.tau
        )
        assert len(set(assignment.pilots.tolist())) == topology.num_ue
        got = sum_mse(
            topology, assignment, training.p_rue, training.p_bue, training.noise_power
        )
        n0 = training.noise_power
        want = 0.0
        for i in topology.rue_set:
            for k in topology.serving_rrhs[i]:
                a = topology.alpha_rrh[k, i]
                want += topology.config.rrh_antennas * a * n0 / (training.p_rue * a + n0)
        for j in topology.bue_set:
            a = topology.alpha_mbs[j]
            want += topology.config.mbs_antennas * a * n0 / (training.p_bue * a + n0)
        worst = max(worst, abs(got - want) / want)
    print(f"\nC2 orthogonal limit: worst relative gap {worst:.3e} over 20 drops")
    assert worst <= 1e-10


def test_c3_rate_lower_bound_holds_on_monte_carlo():
    """The per-user rate bound sits at or below the exact ergodic rate (to
    1e-9 relative) for every user on 50 drops.

    Drops are taken from the default scenario family in deterministic seed
    order, keeping only topologies where no two users share more than one
    serving RRH. On that domain the bound's treatment of interference as
    independent across transmitters matches the exact conditional second
    moment of the channels, so the averaging argument behind the bound is
    airtight; when clusters overlap in two or more RRHs the neglected
    cross-correlation can push the bound above the rate, which is a
    documented model limit rather than a solver defect.
    """
    start = time.time()
    kept = scanned = violations = 0
    worst_ratio = -math.inf
    while kept < 50:
        r = scanned
        scanned += 1
        topology, _, _, links, training = pipeline_instance(
            r=r, master_seed=7, tau=5,
            scenario=ScenarioConfig(), training=TrainingConfig(tau=5),
        )
        if has_shared_rrh_pair(topology):
            continue
        kept += 1
        beams, _ = rtd_solve(topology, links, training, BUDGETS)
        prelog = prelog_factor(training.tau, training.coherence)
        lb = lower_bound_rates(links, beams, training.noise_power, prelog)
        rate, _ = monte_carlo_rates(links, beams, training.noise_power, prelog, trials=2000)
        for m in range(topology.num_ue):
            if rate[m] > 0:
                worst_ratio = max(worst_ratio, lb[m] / rate[m])
            violations += lb[m] > rate[m] * (1.0 + 1e-9)
    elapsed = time.time() - start
    print(
        f"\nC3 bound validity: {violations} violations over 50 kept drops "
        f"({scanned} scanned), worst bound/rate {worst_ratio:.6f}, {elapsed:.1f}s"
    )
    assert violations == 0


def test_c4_mse_sinr_and_rate_identities():
    """For random (channel, beam, interference) triples the optimal-equalizer
    MSE satisfies mse * (1 + SINR) = 1 and -log2(mse) = log2(1 + SINR)."""
    rng = np.random.default_rng(4)
    worst_prod = worst_rate = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        g = crandn(rng, n)
        w = crandn(rng, n) * rng.uniform(0.1, 3.0)
        j_power = float(rng.uniform(1e-3, 10.0))
        mse, _ = mse_and_equalizer(np.vdot(g, w), j_power)
        sinr = abs(np.vdot(g, w)) ** 2 / j_power
        worst_prod = max(worst_prod, abs(mse * (1.0 + sinr) - 1.0))
        worst_rate = max(worst_rate, abs(-math.log2(mse) - math.log2(1.0 + sinr)))
    print(
        f"\nC4 identities: worst |mse*(1+sinr)-1| {worst_prod:.3e}, "
        f"worst rate gap {worst_rate:.3e} over 1000 triples"
    )
    assert worst_prod <= 1e-10
    assert worst_rate <= 1e-9


def test_c5_alternating_design_converges_fast():
    """Across 50 drops (10 users, 20/25/30 RRHs, 5 pilots, 50-symbol frames)
    the objective trace never increases, at least 95% of runs converge within
    30 cycles, and the median is at most 10 cycles."""
    start = time.time()
    iters = []
    mono_ok = conv = 0
    for r in range(50):
        k = (20, 25, 30)[r % 3]
        topology, _, state, links, training = pipeline_instance(
            r=r, master_seed=9, tau=5,
            scenario=ScenarioConfig(num_rrh=k, num_ue=10),
            training=TrainingConfig(tau=5, coherence=50),
        )
        _, st = rtd_solve(topology, links, training, BUDGETS)
        trace = st.objective_trace
        mono_ok += all(b <= a + 1e-9 * max(1.0, abs(a)) for a, b in zip(trace, trace[1:]))
        conv += st.converged and st.iterations <= 30
        iters.append(st.iterations)
    elapsed = time.time() - start
    print(
        f"\nC5 convergence: monotone {mono_ok}/50, within 30 cycles {conv}/50, "
        f"median {np.median(iters):.1f}, max {max(iters)}, {elapsed:.1f}s"
    )
    assert mono_ok == 50
    assert conv >= 48  # 95% of 50
    assert np.median(iters) <= 10.0
    assert elapsed < 600.0


def test_c6_qcqp_solver_matches_first_order_oracle():
    """On 200 synthetic coupled power-constrained problems the dual solver's
    objective matches a long projected-gradient run to 1e-4 relative, and no
    power cap is violated by more than 1e-6 relative."""
    start = time.time()
    rng = np.random.default_rng(2024)
    instances = [make_synthetic_qcqp(rng, zero_cap_chance=0.03) for _ in range(200)]
    references = pgd_qcqp_oracle_batched([inst[1:] for inst in instances], iters=6000)
    worst_obj = worst_con = 0.0
    for (problem, quads, lins, groups, caps), w_ref in zip(instances, references):
        beams, info = solved(problem)
        reference = qcqp_value(quads, lins, w_ref)
        worst_obj = max(
            worst_obj, abs(info["primal_value"] - reference) / max(1.0, abs(reference))
        )
        for name, members in groups.items():
            power = group_power(beams, name, members)
            worst_con = max(worst_con, (power - caps[name]) / max(caps[name], 1e-12))
    elapsed = time.time() - start
    print(
        f"\nC6 solver vs oracle: worst objective gap {worst_obj:.3e}, "
        f"worst cap excess {worst_con:.3e} over 200 problems, {elapsed:.1f}s"
    )
    assert worst_obj <= 1e-4
    assert worst_con <= 1e-6


def _se_means(cfg: ExperimentConfig):
    _, means, errs = run_se_sweep(cfg).series("sum_se_lb_psa_rtd")
    return means, errs


def test_c8_ensemble_trends():
    """100-realization ensembles reproduce the headline trends: sum SE over
    the pilot count rises to an interior maximum and is smallest when every
    user gets its own pilot (training eats the frame); sum SE grows with the
    RRH count and with either antenna count; sum estimation MSE grows with
    the user count."""
    start = time.time()

    tau_cfg = ExperimentConfig(
        scenario=ScenarioConfig(
            num_rrh=20, num_ue=8, coverage_radius=110.0, max_ue_per_rrh=1
        ),
        training=TrainingConfig(tau=2, coherence=30),
        sweep_name="tau",
        sweep_values=(2, 3, 4, 5, 6, 7, 8),
        num_realizations=100,
    )
    tau_means, _ = _se_means(tau_cfg)
    imax = int(np.argmax(tau_means))
    print(
        "\nC8 tau sweep (sum SE): "
        + ", ".join(f"{v}:{m:.3f}" for v, m in zip(tau_cfg.sweep_values, tau_means))
    )
    assert 0 < imax < len(tau_means) - 1  # interior maximum
    assert int(np.argmin(tau_means)) == len(tau_means) - 1  # minimum at tau = M
    assert all(b >= a for a, b in zip(tau_means[:imax], tau_means[1 : imax + 1]))
    assert all(b <= a for a, b in zip(tau_means[imax:], tau_means[imax + 1 :]))

    base = dict(num_realizations=100)
    k_cfg = ExperimentConfig(
        scenario=ScenarioConfig(num_ue=8, coverage_radius=130.0),
        training=TrainingConfig(tau=4, coherence=30),
        sweep_name="num_rrh",
        sweep_values=(10, 15, 20, 25),
        **base,
    )
    k_means, _ = _se_means(k_cfg)
    print("C8 RRH-count sweep (sum SE): " + ", ".join(f"{m:.3f}" for m in k_means))
    assert all(b > a for a, b in zip(k_means, k_means[1:]))

    n_cfg = dataclasses.replace(
        k_cfg,
        scenario=ScenarioConfig(num_rrh=15, num_ue=8, coverage_radius=130.0),
        sweep_name="rrh_antennas",
        sweep_values=(2, 4, 8),
    )
    n_means, _ = _se_means(n_cfg)
    print("C8 RRH-antenna sweep (sum SE): " + ", ".join(f"{m:.3f}" for m in n_means))
    assert all(b > a for a, b in zip(n_means, n_means[1:]))

    b_cfg = dataclasses.replace(n_cfg, sweep_name="mbs_antennas", sweep_values=(6, 10, 14))
    b_means, _ = _se_means(b_cfg)
    print("C8 MBS-antenna sweep (sum SE): " + ", ".join(f"{m:.3f}" for m in b_means))
    assert all(b > a for a, b in zip(b_means, b_means[1:]))

    m_cfg = ExperimentConfig(
        scenario=ScenarioConfig(num_rrh=15, coverage_radius=130.0),
        training=TrainingConfig(tau=4),
        sweep_name="num_ue",
        sweep_values=(4, 6, 8, 10),
        num_realizations=100,
    )
    _, m_means, _ = run_mse_sweep(m_cfg).series("sum_mse_psa")
    print("C8 user-count sweep (sum MSE): " + ", ".join(f"{m:.3e}" for m in m_means))
    assert all(b > a for a, b in zip(m_means, m_means[1:]))
    print(f"C8 trends done in {time.time() - start:.1f}s")


def test_c9_rerun_outputs_are_byte_identical(tmp_path):
    """The sweep CSVs are byte-identical across reruns with the same config
    and seed, including when the work is split across worker processes."""
    cfg = ExperimentConfig(
        scenario=ScenarioConfig(num_rrh=10, num_ue=5, coverage_radius=130.0),
        training=TrainingConfig(tau=3, coherence=30),
        sweep_name="tau",
        sweep_values=(3, 4),
        num_realizations=3,
        master_seed=5,
    )
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    run_mse_sweep(cfg).write(first)
    run_mse_sweep(dataclasses.replace(cfg, jobs=2)).write(second)
    mse_equal = first.read_bytes() == second.read_bytes()
    run_se_sweep(cfg).write(first)
    run_se_sweep(dataclasses.replace(cfg, jobs=2)).write(second)
    se_equal = first.read_bytes() == second.read_bytes()
    print(f"\nC9 reproducibility: mse identical {mse_equal}, se identical {se_equal}")
    assert mse_equal
    assert se_equal
