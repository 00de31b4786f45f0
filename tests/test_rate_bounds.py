"""Aggregated link statistics, rate lower bounds, and Monte Carlo rates."""

import numpy as np
import pytest

from hcransim import (
    PowerBudget,
    ScenarioConfig,
    TrainingConfig,
    assemble_qcqp,
    build_covariances,
    draw_small_scale,
    estimate_channels,
    interference_plus_noise,
    lower_bound_rates,
    make_assignment,
    monte_carlo_rates,
    perfect_channel_state,
    prelog_factor,
    rtd_solve,
    zero_beams,
)
from hcransim.util import child_seed, crandn, dbm_to_watt

from helpers import hand_topology, pipeline_instance
from oracles import (
    full_stacked_cov_oracle,
    has_shared_rrh_pair,
    interference_oracle,
    monte_carlo_oracle,
    qcqp_terms_oracle,
)


def random_beams(links, seed):
    """Arbitrary nonzero beams (no power normalization; tests only)."""
    rng = np.random.default_rng(seed)
    beams = zero_beams(links)
    for i in links.rue_ids:
        beams.rue[i] = 2e-5 * crandn(rng, links.dim(i))
    for j in links.bue_ids:
        beams.bue[j] = 2e-5 * crandn(rng, links.mbs_antennas)
    return beams


def no_overlap_instance(r=0, **kw):
    topology, assignment, state, links, training = pipeline_instance(r=r, **kw)
    assert not has_shared_rrh_pair(topology)
    return topology, assignment, state, links, training


def modelled_moments(links, topology, dst):
    """The beamformer-step QCQP with every UE's MSE weight zero but dst's,
    which is one: quad_rue[src] is then the modelled second moment of
    cluster(src) -> dst for src != dst, and every quad_bue entry that of
    the MBS -> dst link."""
    ids = links.rue_ids + links.bue_ids
    f = {m: complex(m == dst) for m in ids}
    u = {m: 1.0 for m in ids}
    return assemble_qcqp(links, f, u, PowerBudget(rrh=1.0, mbs=1.0), topology)


def test_aggregated_links_structure():
    topology, _, state, links, _ = pipeline_instance(r=0)
    n = topology.config.rrh_antennas
    num_rrh, num_ue = topology.num_rrh, topology.num_ue
    assert links.rue_ids == sorted(topology.rue_set)
    assert links.bue_ids == sorted(topology.bue_set)
    assert links.est_rrh.shape == (num_rrh, num_ue, n)
    assert links.var_rrh.shape == (num_rrh, num_ue)
    assert links.est_mbs.shape == (num_ue, 10)
    assert links.var_mbs.shape == (num_ue,)
    for k in range(num_rrh):
        for m in range(num_ue):
            if (k, m) in state.est_rrh:
                assert np.array_equal(links.est_rrh[k, m], state.est_rrh[(k, m)])
                assert links.var_rrh[k, m] == state.errvar_rrh[(k, m)]
            else:
                assert not np.any(links.est_rrh[k, m])
                assert links.var_rrh[k, m] == topology.alpha_rrh[k, m]
    for m in range(num_ue):
        want = state.errvar_mbs.get(m, topology.alpha_mbs[m])
        assert links.var_mbs[m] == want
        assert np.array_equal(links.est_mbs[m], state.est_mbs.get(m, np.zeros(10)))
    for i in links.rue_ids:
        d = n * len(topology.serving_rrhs[i])
        assert links.dim(i) == d
        assert links.estimate(i).shape == (d,)
        assert np.all(links.var_rrh[topology.serving_rrhs[i], i] > 0)
    for j in links.bue_ids:
        assert links.estimate(j).shape == (10,)
        assert links.var_mbs[j] > 0
    for dst in links.rue_ids + links.bue_ids:
        problem = modelled_moments(links, topology, dst)
        for src in links.rue_ids:
            d = links.dim(src)
            assert problem.quad_rue[src].shape == (d, d)
        for j in links.bue_ids:
            assert problem.quad_bue[j].shape == (10, 10)


def test_all_covariances_hermitian_and_psd():
    topology, _, _, links, _ = pipeline_instance(r=1)
    assert links.bue_ids  # so the MBS -> UE moments are checked too
    assert np.all(links.var_rrh >= 0.0) and np.all(links.var_mbs >= 0.0)
    mats = []
    for dst in links.rue_ids + links.bue_ids:
        problem = modelled_moments(links, topology, dst)
        mats += [q for src, q in problem.quad_rue.items() if src != dst]
        mats += list(problem.quad_bue.values())
    assert len(mats) > 40
    for mat in mats:
        # diagonals may carry one-ulp imaginary residue from z*conj(z)
        assert np.allclose(mat, mat.conj().T, rtol=1e-12, atol=0)
        eigs = np.linalg.eigvalsh(mat)
        assert eigs.min() >= -1e-18


def test_cross_covariances_exact_on_disjointly_served_instances():
    """When no UE pair shares two serving RRHs, the library's block-diagonal
    cross covariances equal the exact conditional second moments."""
    checked = 0
    for r in (2, 3, 4, 5):
        topology, _, state, links, _ = no_overlap_instance(r=r)
        for dst in links.rue_ids + links.bue_ids:
            problem = modelled_moments(links, topology, dst)
            for src in links.rue_ids:
                if src != dst:
                    exact = full_stacked_cov_oracle(topology, state, src, dst)
                    got = problem.quad_rue[src]
                    assert np.allclose(got, exact, rtol=1e-12, atol=0)
                    checked += 1
    assert checked > 40


def test_shared_rrh_pairs_drop_exactly_the_cross_estimate_blocks():
    """Two UEs served by the same two RRHs: the aggregated model's cross
    covariance differs from the exact conditional second moment by exactly
    the off-diagonal outer products of the victim's estimates. This is the
    boundary of the bound's validity; see also the interference test below.
    """
    topology = hand_topology(
        serving_rrhs=[[0, 1], [0, 1], []],
        num_rrh=2,
        alpha_rrh=[[2e-8, 1e-8, 3e-9], [1.5e-8, 2.5e-8, 2e-9]],
        alpha_mbs=[1e-9, 2e-9, 4e-8],
        n_ant=2,
        b_ant=3,
    )
    assignment = make_assignment(topology, 3, [2, 3, 1])
    training = TrainingConfig(tau=3, coherence=50)
    channels = draw_small_scale(topology, child_seed(5, 0))
    state = estimate_channels(topology, assignment, training, channels, child_seed(5, 1))
    links = build_covariances(topology, state)

    exact = full_stacked_cov_oracle(topology, state, 0, 1)
    got = modelled_moments(links, topology, 1).quad_rue[0]
    diff = exact - got
    n = links.block_size
    # diagonal blocks agree; off-diagonal blocks are the estimate outer products
    assert np.allclose(diff[:n, :n], 0.0, atol=0)
    assert np.allclose(diff[n:, n:], 0.0, atol=0)
    e0 = state.est_rrh[(0, 1)]
    e1 = state.est_rrh[(1, 1)]
    assert np.allclose(diff[:n, n:], np.outer(e0, e1.conj()), rtol=0, atol=0)

    # the modeled interference misses exactly the cross term 2*Re(w0^H e0 e1^H w1)
    beams = random_beams(links, seed=7)
    j_rue, _ = interference_plus_noise(links, beams, training.noise_power)
    w = beams.rue[0]
    modeled_from_0 = float(np.real(np.vdot(w, got @ w)))
    exact_from_0 = float(np.real(np.vdot(w, exact @ w)))
    cross = 2.0 * np.real(np.vdot(w[:n], e0) * np.vdot(e1, w[n:]))
    assert exact_from_0 - modeled_from_0 == pytest.approx(cross, rel=1e-10)
    assert j_rue[1] > 0  # and the model value is what the bound consumes


def test_link_model_matches_dense_block_diagonal_oracle_on_shared_rrh_drops():
    """At (16 users, 50 RRHs, 130 m) users share RRHs on every drop; the
    per-link arrays reproduce the dense block-diagonal moments there, both
    in the interference power and in the assembled QCQP."""
    for r in (0, 1, 2):
        scenario = ScenarioConfig(num_rrh=50, num_ue=16, coverage_radius=130.0)
        topology, _, state, links, training = pipeline_instance(r=r, scenario=scenario)
        assert has_shared_rrh_pair(topology)
        beams = random_beams(links, seed=r)
        j_rue, j_bue = interference_plus_noise(links, beams, training.noise_power)
        want = interference_oracle(topology, state, beams, training.noise_power)
        for m, got in {**j_rue, **j_bue}.items():
            assert got == pytest.approx(want[m], rel=1e-12, abs=0)

        rng = np.random.default_rng(r)
        ids = links.rue_ids + links.bue_ids
        f = {m: complex(*rng.normal(scale=2.0, size=2)) for m in ids}
        u = {m: float(rng.uniform(0.2, 3.0)) for m in ids}
        problem = assemble_qcqp(links, f, u, PowerBudget(rrh=1.0, mbs=1.0), topology)
        quad, lin = qcqp_terms_oracle(topology, state, f, u)
        got_quad = {**problem.quad_rue, **problem.quad_bue}
        got_lin = {**problem.lin_rue, **problem.lin_bue}
        assert set(got_quad) == set(quad) == set(got_lin) == set(lin)
        for m in quad:
            assert np.linalg.norm(got_quad[m] - quad[m]) <= 1e-12 * np.linalg.norm(quad[m])
            assert np.linalg.norm(got_lin[m] - lin[m]) <= 1e-12 * np.linalg.norm(lin[m])


def test_interference_terms_match_sampled_expectation():
    """E over channel redraws of each UE's interference-plus-noise power
    matches interference_plus_noise, sampling with an independent scheme."""
    topology, _, state, links, training = no_overlap_instance(r=2)
    beams = random_beams(links, seed=3)
    j_rue, j_bue = interference_plus_noise(links, beams, training.noise_power)
    rng = np.random.default_rng(12345)
    trials = 20000
    n = links.block_size

    def draw_links_to(dst):
        out = {}
        for k in range(topology.num_rrh):
            base = crandn(rng, trials, n)
            if (k, dst) in state.est_rrh:
                out[k] = state.est_rrh[(k, dst)][None, :] + np.sqrt(
                    state.errvar_rrh[(k, dst)]) * base
            else:
                out[k] = np.sqrt(topology.alpha_rrh[k, dst]) * base
        base_b = crandn(rng, trials, links.mbs_antennas)
        if dst in state.est_mbs:
            mbs = state.est_mbs[dst][None, :] + np.sqrt(state.errvar_mbs[dst]) * base_b
        else:
            mbs = np.sqrt(topology.alpha_mbs[dst]) * base_b
        return out, mbs

    for dst in links.rue_ids[:3]:
        to_dst, mbs = draw_links_to(dst)
        own = np.concatenate(
            [to_dst[k] - state.est_rrh[(k, dst)][None, :] for k in topology.serving_rrhs[dst]],
            axis=1,
        )
        acc = np.abs(own.conj() @ beams.rue[dst]) ** 2
        for src in links.rue_ids:
            if src != dst:
                g = np.concatenate([to_dst[k] for k in topology.serving_rrhs[src]], axis=1)
                acc += np.abs(g.conj() @ beams.rue[src]) ** 2
        for j in links.bue_ids:
            acc += np.abs(mbs.conj() @ beams.bue[j]) ** 2
        acc += training.noise_power
        stderr = acc.std(ddof=1) / np.sqrt(trials)
        assert abs(acc.mean() - j_rue[dst]) < 5 * stderr

    for dst in links.bue_ids[:2]:
        to_dst, mbs = draw_links_to(dst)
        err = mbs - state.est_mbs[dst][None, :]
        acc = np.abs(err.conj() @ beams.bue[dst]) ** 2
        for src in links.rue_ids:
            g = np.concatenate([to_dst[k] for k in topology.serving_rrhs[src]], axis=1)
            acc += np.abs(g.conj() @ beams.rue[src]) ** 2
        for other in links.bue_ids:
            if other != dst:
                acc += np.abs(mbs.conj() @ beams.bue[other]) ** 2
        acc += training.noise_power
        stderr = acc.std(ddof=1) / np.sqrt(trials)
        assert abs(acc.mean() - j_bue[dst]) < 5 * stderr


def test_lower_bound_formula_and_positivity():
    _, _, _, links, training = pipeline_instance(r=3)
    beams = random_beams(links, seed=11)
    prelog = prelog_factor(training.tau, training.coherence)
    rates = lower_bound_rates(links, beams, training.noise_power, prelog)
    j_rue, j_bue = interference_plus_noise(links, beams, training.noise_power)
    assert set(rates) == set(links.rue_ids) | set(links.bue_ids)
    for i in links.rue_ids:
        signal = abs(np.vdot(links.estimate(i), beams.rue[i])) ** 2
        assert rates[i] == pytest.approx(prelog * np.log2(1 + signal / j_rue[i]), rel=1e-12)
        assert rates[i] >= 0.0
    for j in links.bue_ids:
        signal = abs(np.vdot(links.estimate(j), beams.bue[j])) ** 2
        assert rates[j] == pytest.approx(prelog * np.log2(1 + signal / j_bue[j]), rel=1e-12)
        assert rates[j] >= 0.0
    zero = zero_beams(links)
    assert all(v == 0.0 for v in lower_bound_rates(links, zero, training.noise_power, prelog).values())


def test_rates_scale_linearly_with_prelog():
    _, _, state, links, training = pipeline_instance(r=0)
    beams = random_beams(links, seed=2)
    one = lower_bound_rates(links, beams, training.noise_power, 1.0)
    half = lower_bound_rates(links, beams, training.noise_power, 0.5)
    for m in one:
        assert half[m] == pytest.approx(0.5 * one[m], rel=1e-15)


def test_lower_bound_below_monte_carlo_with_optimized_beams():
    """The Jensen direction holds per UE (3-sigma slack) on instances where
    the covariance model is exact, even for beams optimized against it."""
    budgets = PowerBudget(rrh=dbm_to_watt(27.0), mbs=dbm_to_watt(30.0))
    for r in (11, 12, 13, 14):
        topology, _, _, links, training = no_overlap_instance(r=r)
        beams, _ = rtd_solve(topology, links, training, budgets)
        prelog = prelog_factor(training.tau, training.coherence)
        lb = lower_bound_rates(links, beams, training.noise_power, prelog)
        mc, se = monte_carlo_rates(
            links, beams, training.noise_power, prelog, trials=2000, seed=child_seed(99, r)
        )
        for m in lb:
            assert lb[m] <= mc[m] + 3.0 * se[m]


def test_monte_carlo_seed_and_stderr_behaviour():
    _, _, _, links, training = pipeline_instance(r=4)
    beams = random_beams(links, seed=5)
    prelog = prelog_factor(training.tau, training.coherence)
    a, sa = monte_carlo_rates(links, beams, training.noise_power, prelog,
                              trials=400, seed=child_seed(7, 0))
    b, sb = monte_carlo_rates(links, beams, training.noise_power, prelog,
                              trials=400, seed=child_seed(7, 0))
    c, _ = monte_carlo_rates(links, beams, training.noise_power, prelog,
                             trials=400, seed=child_seed(7, 1))
    assert a == b and sa == sb
    assert any(a[m] != c[m] for m in a)
    big, sbig = monte_carlo_rates(links, beams, training.noise_power, prelog,
                                  trials=6400, seed=child_seed(7, 2))
    for m in a:
        assert sbig[m] < sa[m]  # 16x the trials shrinks the error bar
    with pytest.raises(ValueError):
        monte_carlo_rates(links, beams, training.noise_power, prelog, trials=0)


def test_monte_carlo_matches_per_link_oracle():
    """Monte Carlo on the link arrays reproduces, draw for draw, the rebuild
    of every link from the ChannelState dicts: on drops with shared RRH pairs
    and BUEs, on a perfect-CSI drop and with a single trial."""
    cases = []
    for r in (3, 4, 6):  # drops 0-2 of this family have no BUE
        scenario = ScenarioConfig(num_rrh=50, num_ue=16, coverage_radius=130.0)
        topology, _, state, links, training = pipeline_instance(r=r, scenario=scenario)
        assert has_shared_rrh_pair(topology) and links.bue_ids
        cases.append((topology, state, links, training, 2000))
    topology, _, state, _, training = pipeline_instance(r=5)
    perfect = perfect_channel_state(topology, state.true)
    cases.append((topology, perfect, build_covariances(topology, perfect), training, 2000))
    cases.append(cases[0][:4] + (1,))
    for n, (topology, state, links, training, trials) in enumerate(cases):
        beams = random_beams(links, seed=n)
        args = (beams, training.noise_power, prelog_factor(training.tau, training.coherence))
        seed = child_seed(11, n)
        want, want_se = monte_carlo_oracle(topology, state, *args, trials=trials, seed=seed)
        got, got_se = monte_carlo_rates(links, *args, trials=trials, seed=seed)
        assert list(got) == list(want)
        for m in want:
            assert got[m] == pytest.approx(want[m], rel=1e-12, abs=0)
            # under perfect CSI every trial is the same and stderr is rounding noise
            assert abs(got_se[m] - want_se[m]) <= max(1e-12 * want_se[m], 1e-15 * want[m])


def test_perfect_channel_state_links():
    topology, assignment, state, links, training = pipeline_instance(r=5)
    channels = state.true
    perfect = perfect_channel_state(topology, channels)
    plinks = build_covariances(topology, perfect)
    assert np.array_equal(plinks.est_rrh, channels.rrh)
    assert np.array_equal(plinks.est_mbs, channels.mbs)
    for i in plinks.rue_ids:
        stacked = np.concatenate([channels.rrh[k, i] for k in topology.serving_rrhs[i]])
        assert np.array_equal(plinks.estimate(i), stacked)
    assert np.all(plinks.var_rrh == 0.0) and np.all(plinks.var_mbs == 0.0)
    n = plinks.block_size
    for dst in plinks.rue_ids:
        problem = modelled_moments(plinks, topology, dst)
        for src in plinks.rue_ids:
            if src == dst:
                continue
            cov = problem.quad_rue[src]
            for pos, k in enumerate(topology.serving_rrhs[src]):
                h = channels.rrh[k, dst]
                blk = cov[pos * n:(pos + 1) * n, pos * n:(pos + 1) * n]
                assert np.allclose(blk, np.outer(h, h.conj()), rtol=0, atol=0)
    # interference keeps the per-RRH block structure: each serving block of an
    # interferer contributes |h^H w_block|^2 at the true channels
    beams = random_beams(plinks, seed=1)
    j_rue, _ = interference_plus_noise(plinks, beams, training.noise_power)
    n = plinks.block_size
    for i in plinks.rue_ids:
        manual = training.noise_power
        for src in plinks.rue_ids:
            if src != i:
                for pos, k in enumerate(topology.serving_rrhs[src]):
                    w_blk = beams.rue[src][pos * n:(pos + 1) * n]
                    manual += abs(np.vdot(channels.rrh[k, i], w_blk)) ** 2
        for j in plinks.bue_ids:
            manual += abs(np.vdot(channels.mbs[i], beams.bue[j])) ** 2
        assert j_rue[i] == pytest.approx(manual, rel=1e-12)

