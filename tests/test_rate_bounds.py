"""Aggregated link statistics, rate lower bounds, and exact ergodic rates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcransim import (
    AggregatedLinks,
    BeamformerSet,
    PowerBudget,
    ScenarioConfig,
    TrainingConfig,
    assemble_qcqp,
    build_covariances,
    draw_small_scale,
    estimate_channels,
    generate_topology,
    interference_plus_noise,
    link_amplitudes,
    lower_bound_rates,
    make_assignment,
    monte_carlo_rates,
    perfect_channel_state,
    prelog_factor,
    rtd_solve,
    stack_layout,
    useful_amplitude,
)
from hcransim.util import child_seed, crandn, dbm_to_watt

from helpers import (
    hand_links,
    hand_topology,
    instance_channels,
    oracle_state,
    pipeline_instance,
    random_beams,
    unpack_qcqp,
)
from oracles import (
    dense_amplitudes,
    dense_exact_rates,
    dense_gram_blocks,
    dense_interference_plus_noise,
    dense_mean_amplitudes,
    dense_rate_covariances,
    dense_useful_amplitude,
    estimate_channels_oracle,
    full_stacked_cov_oracle,
    has_shared_rrh_pair,
    interference_oracle,
    monte_carlo_oracle,
    own_estimate_oracle,
    qcqp_terms_oracle,
    stacked_beam,
)


def no_overlap_instance(r=0, **kw):
    topology, assignment, state, links, training = pipeline_instance(r=r, **kw)
    assert not has_shared_rrh_pair(topology)
    return topology, assignment, state, links, training


def modelled_moments(links, topology, dst):
    """The beamformer-step QCQP, per UE (``unpack_qcqp``), with every UE's
    MSE weight zero but dst's, which is one: quad_rue[src] is then the
    modelled second moment of cluster(src) -> dst for src != dst, and every
    quad_bue entry that of the MBS -> dst link."""
    f = np.arange(topology.num_ue) == dst
    layout = stack_layout(links, PowerBudget(rrh=1.0, mbs=1.0))
    return unpack_qcqp(assemble_qcqp(links, f + 0j, np.ones(topology.num_ue), layout))


def test_aggregated_links_structure():
    topology, _, state, links, _ = pipeline_instance(r=0)
    n = topology.config.rrh_antennas
    num_rrh, num_ue = topology.num_rrh, topology.num_ue
    assert links.topology is topology
    assert links.est_rrh.shape == (num_rrh, num_ue, n)
    assert links.var_rrh.shape == (num_rrh, num_ue)
    assert links.est_mbs.shape == (num_ue, 10)
    assert links.var_mbs.shape == (num_ue,)
    for k in range(num_rrh):
        for m in range(num_ue):
            if m in topology.served_rues[k]:
                assert np.array_equal(links.est_rrh[k, m], state.est_rrh[k, m])
                assert links.var_rrh[k, m] == state.var_rrh[k, m]
            else:
                assert not np.any(links.est_rrh[k, m])
                assert links.var_rrh[k, m] == topology.alpha_rrh[k, m]
    for m in range(num_ue):
        if m in topology.bue_set:
            assert links.var_mbs[m] == state.var_mbs[m]
            assert np.array_equal(links.est_mbs[m], state.est_mbs[m])
        else:
            assert links.var_mbs[m] == topology.alpha_mbs[m]
            assert np.array_equal(links.est_mbs[m], np.zeros(10))
    for i in topology.rue_set:
        assert np.all(links.var_rrh[topology.serving_rrhs[i], i] > 0)
    for j in topology.bue_set:
        assert links.var_mbs[j] > 0
    for dst in range(num_ue):
        problem = modelled_moments(links, topology, dst)
        for src in topology.rue_set:
            d = n * len(topology.serving_rrhs[src])
            assert problem.quad_rue[src].shape == (d, d)
        for j in topology.bue_set:
            assert problem.quad_bue[j].shape == (10, 10)


def test_all_covariances_hermitian_and_psd():
    topology, _, _, links, _ = pipeline_instance(r=1)
    assert topology.bue_set  # so the MBS -> UE moments are checked too
    assert np.all(links.var_rrh >= 0.0) and np.all(links.var_mbs >= 0.0)
    mats = []
    for dst in range(topology.num_ue):
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
        topology, assignment, _, links, training = no_overlap_instance(r=r)
        reference = oracle_state(topology, assignment, training, r=r)
        for dst in range(topology.num_ue):
            problem = modelled_moments(links, topology, dst)
            for src in topology.rue_set:
                if src != dst:
                    exact = full_stacked_cov_oracle(topology, reference, src, dst)
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
    assignment = make_assignment(3, [2, 3, 1])
    training = TrainingConfig(tau=3, coherence=50)
    channels = draw_small_scale(topology, child_seed(5, 0))
    state = estimate_channels(topology, assignment, training, channels, child_seed(5, 1))
    links = build_covariances(topology, state)
    reference = estimate_channels_oracle(
        topology, assignment, training, channels, child_seed(5, 1)
    )

    exact = full_stacked_cov_oracle(topology, reference, 0, 1)
    got = modelled_moments(links, topology, 1).quad_rue[0]
    diff = exact - got
    n = links.est_rrh.shape[2]
    # diagonal blocks agree; off-diagonal blocks are the estimate outer products
    assert np.allclose(diff[:n, :n], 0.0, atol=0)
    assert np.allclose(diff[n:, n:], 0.0, atol=0)
    e0 = links.est_rrh[0, 1]
    e1 = links.est_rrh[1, 1]
    assert np.allclose(diff[:n, n:], np.outer(e0, e1.conj()), rtol=0, atol=0)

    # the modeled interference misses exactly the cross term 2*Re(w0^H e0 e1^H w1)
    beams = random_beams(links, seed=7)
    j_power = interference_plus_noise(links, beams, training.noise_power)
    w = stacked_beam(beams, topology, 0)
    modeled_from_0 = float(np.real(np.vdot(w, got @ w)))
    exact_from_0 = float(np.real(np.vdot(w, exact @ w)))
    cross = 2.0 * np.real(np.vdot(w[:n], e0) * np.vdot(e1, w[n:]))
    assert exact_from_0 - modeled_from_0 == pytest.approx(cross, rel=1e-10)
    assert j_power[1] > 0  # and the model value is what the bound consumes


def test_link_model_matches_dense_block_diagonal_oracle_on_shared_rrh_drops():
    """At (16 users, 50 RRHs, 130 m) users share RRHs on every drop; the
    per-link arrays reproduce the dense block-diagonal moments there, both
    in the interference power and in the assembled QCQP."""
    for r in (0, 1, 2):
        scenario = ScenarioConfig(num_rrh=50, num_ue=16, coverage_radius=130.0)
        topology, assignment, _, links, training = pipeline_instance(r=r, scenario=scenario)
        assert has_shared_rrh_pair(topology)
        reference = oracle_state(topology, assignment, training, r=r)
        beams = random_beams(links, seed=r)
        got = interference_plus_noise(links, beams, training.noise_power)
        want = interference_oracle(topology, reference, beams, training.noise_power)
        assert got.shape == (topology.num_ue,)
        for m in want:
            assert got[m] == pytest.approx(want[m], rel=1e-12, abs=0)

        rng = np.random.default_rng(r)
        ids = topology.rue_set + topology.bue_set
        f = {m: complex(*rng.normal(scale=2.0, size=2)) for m in ids}
        u = {m: float(rng.uniform(0.2, 3.0)) for m in ids}
        layout = stack_layout(links, PowerBudget(rrh=1.0, mbs=1.0))
        f_arr, u_arr = (np.array([x[m] for m in range(len(ids))]) for x in (f, u))
        problem = unpack_qcqp(assemble_qcqp(links, f_arr, u_arr, layout))
        quad, lin = qcqp_terms_oracle(topology, reference, f, u)
        got_quad = {**problem.quad_rue, **problem.quad_bue}
        got_lin = {**problem.lin_rue, **problem.lin_bue}
        assert set(got_quad) == set(quad) == set(got_lin) == set(lin)
        for m in quad:
            assert np.linalg.norm(got_quad[m] - quad[m]) <= 1e-12 * np.linalg.norm(quad[m])
            assert np.linalg.norm(got_lin[m] - lin[m]) <= 1e-12 * np.linalg.norm(lin[m])


def test_interference_terms_match_sampled_expectation():
    """E over channel redraws of each UE's interference-plus-noise power
    matches interference_plus_noise, sampling with an independent scheme."""
    topology, assignment, _, links, training = no_overlap_instance(r=2)
    state = oracle_state(topology, assignment, training, r=2)
    beams = random_beams(links, seed=3)
    j_power = interference_plus_noise(links, beams, training.noise_power)
    rng = np.random.default_rng(12345)
    trials = 20000
    n = links.est_rrh.shape[2]

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

    rues, bues = topology.rue_set, topology.bue_set
    for dst in rues[:3]:
        to_dst, mbs = draw_links_to(dst)
        own = np.concatenate(
            [to_dst[k] - state.est_rrh[(k, dst)][None, :] for k in topology.serving_rrhs[dst]],
            axis=1,
        )
        acc = np.abs(own.conj() @ stacked_beam(beams, topology, dst)) ** 2
        for src in rues:
            if src != dst:
                g = np.concatenate([to_dst[k] for k in topology.serving_rrhs[src]], axis=1)
                acc += np.abs(g.conj() @ stacked_beam(beams, topology, src)) ** 2
        for j in bues:
            acc += np.abs(mbs.conj() @ beams.mbs[j]) ** 2
        acc += training.noise_power
        stderr = acc.std(ddof=1) / np.sqrt(trials)
        assert abs(acc.mean() - j_power[dst]) < 5 * stderr

    for dst in bues[:2]:
        to_dst, mbs = draw_links_to(dst)
        err = mbs - state.est_mbs[dst][None, :]
        acc = np.abs(err.conj() @ beams.mbs[dst]) ** 2
        for src in rues:
            g = np.concatenate([to_dst[k] for k in topology.serving_rrhs[src]], axis=1)
            acc += np.abs(g.conj() @ stacked_beam(beams, topology, src)) ** 2
        for other in bues:
            if other != dst:
                acc += np.abs(mbs.conj() @ beams.mbs[other]) ** 2
        acc += training.noise_power
        stderr = acc.std(ddof=1) / np.sqrt(trials)
        assert abs(acc.mean() - j_power[dst]) < 5 * stderr


def test_lower_bound_formula_and_positivity():
    topology, _, _, links, training = pipeline_instance(r=3)
    beams = random_beams(links, seed=11)
    prelog = prelog_factor(training.tau, training.coherence)
    rates = lower_bound_rates(links, beams, training.noise_power, prelog)
    j_power = interference_plus_noise(links, beams, training.noise_power)
    amplitude = useful_amplitude(links, beams)
    assert list(rates) == topology.rue_set + topology.bue_set
    assert amplitude.shape == (topology.num_ue,)
    for m in rates:
        want = np.vdot(own_estimate_oracle(topology, links, m), stacked_beam(beams, topology, m))
        assert abs(amplitude[m] - want) <= 1e-12 * abs(want)
        signal = abs(want) ** 2
        assert rates[m] == pytest.approx(prelog * np.log2(1 + signal / j_power[m]), rel=1e-12)
        assert rates[m] >= 0.0
    zero = BeamformerSet(np.zeros_like(beams.rrh), np.zeros_like(beams.mbs))
    assert all(v == 0.0 for v in lower_bound_rates(links, zero, training.noise_power, prelog).values())


def test_rates_scale_linearly_with_prelog():
    _, _, state, links, training = pipeline_instance(r=0)
    beams = random_beams(links, seed=2)
    one = lower_bound_rates(links, beams, training.noise_power, 1.0)
    half = lower_bound_rates(links, beams, training.noise_power, 0.5)
    for m in one:
        assert half[m] == pytest.approx(0.5 * one[m], rel=1e-15)


def test_lower_bound_below_monte_carlo_with_optimized_beams():
    """The Jensen direction holds per UE against the exact rate on instances
    where the covariance model is exact, even for beams optimized against it."""
    budgets = PowerBudget(rrh=dbm_to_watt(27.0), mbs=dbm_to_watt(30.0))
    for r in (11, 12, 13, 14):
        topology, _, _, links, training = no_overlap_instance(r=r)
        beams, _ = rtd_solve(topology, links, training, budgets)
        prelog = prelog_factor(training.tau, training.coherence)
        lb = lower_bound_rates(links, beams, training.noise_power, prelog)
        rate, _ = monte_carlo_rates(links, beams, training.noise_power, prelog, trials=2000)
        for m in lb:
            assert lb[m] <= rate[m] * (1.0 + 1e-9)


def test_exact_rate_repeats_and_error_estimate_behaviour():
    _, _, _, links, training = pipeline_instance(r=4)
    beams = random_beams(links, seed=5)
    args = (links, beams, training.noise_power, prelog_factor(training.tau, training.coherence))
    a, sa = monte_carlo_rates(*args, trials=10)
    b, sb = monte_carlo_rates(*args, trials=10)
    assert a == b and sa == sb
    fine, sfine = monte_carlo_rates(*args, trials=160)
    for m in a:
        assert sfine[m] < sa[m]  # 16x the intervals shrinks the error estimate
    # An odd count leaves the rule on every second node one interval short.
    for trials in (0, 1, 3):
        with pytest.raises(ValueError):
            monte_carlo_rates(*args, trials=trials)


@pytest.mark.parametrize("num_ue, num_rrh", [(8, 25), (32, 100)])
def test_default_quadrature_matches_five_times_the_intervals(num_ue, num_rrh):
    """The integrand is smooth and decays fast at both ends of the interval,
    so the trapezoid rule has converged well before the default number of
    intervals: every user's exact rate under the RTD design of the drop at
    master seed 0 agrees at the sweeps' default with the rule on 2,000
    intervals to 1e-12 relative."""
    topology, _, _, links, training = pipeline_instance(
        scenario=ScenarioConfig(num_ue=num_ue, num_rrh=num_rrh)
    )
    budgets = PowerBudget(rrh=dbm_to_watt(27.0), mbs=dbm_to_watt(30.0))
    beams, _ = rtd_solve(topology, links, training, budgets)
    args = (links, beams, training.noise_power, prelog_factor(training.tau, training.coherence))
    got, _ = monte_carlo_rates(*args)
    want, _ = monte_carlo_rates(*args, trials=2000)
    assert list(got) == list(want)
    for m in want:
        assert got[m] == pytest.approx(want[m], rel=1e-12, abs=0)


def test_exact_rate_agrees_with_monte_carlo_oracle():
    """The quadrature lies within 4 standard errors of the reference sampler,
    which redraws every link from the reference estimator's dicts, on drops
    with shared RRH pairs and BUEs."""
    for r in (3, 4, 6):  # drops 0-2 of this family have no BUE
        scenario = ScenarioConfig(num_rrh=50, num_ue=16, coverage_radius=130.0)
        topology, assignment, _, links, training = pipeline_instance(r=r, scenario=scenario)
        assert has_shared_rrh_pair(topology) and topology.bue_set
        reference = oracle_state(topology, assignment, training, r=r)
        beams = random_beams(links, seed=r)
        args = (beams, training.noise_power, prelog_factor(training.tau, training.coherence))
        want, want_se = monte_carlo_oracle(topology, reference, *args, trials=2000,
                                           seed=child_seed(11, r))
        got, _ = monte_carlo_rates(links, *args)
        assert list(got) == list(want)
        for m in want:
            assert abs(got[m] - want[m]) <= 4.0 * want_se[m]


def test_exact_rate_equals_closed_form_under_perfect_csi():
    """Without estimation error the interference is fixed and the rate is
    log2(1 + S / (noise + sum of the other sources' powers))."""
    topology, _, _, _, training = pipeline_instance(r=5)
    channels = instance_channels(topology, r=5)
    links = build_covariances(topology, perfect_channel_state(topology, channels))
    beams = random_beams(links, seed=4)
    prelog = prelog_factor(training.tau, training.coherence)
    got, _ = monte_carlo_rates(links, beams, training.noise_power, prelog)
    n = links.est_rrh.shape[2]
    for d in range(topology.num_ue):
        amplitude = {}
        for s in topology.rue_set:
            blocks = stacked_beam(beams, topology, s).reshape(-1, n)
            amplitude[s] = sum(np.vdot(channels.rrh[k, d], blocks[pos])
                               for pos, k in enumerate(topology.serving_rrhs[s]))
        for s in topology.bue_set:
            amplitude[s] = np.vdot(channels.mbs[d], beams.mbs[s])
        interference = sum(abs(a) ** 2 for s, a in amplitude.items() if s != d)
        sinr = abs(amplitude[d]) ** 2 / (training.noise_power + interference)
        assert got[d] == pytest.approx(prelog * np.log1p(sinr) / np.log(2.0), rel=1e-12, abs=0)


def test_exact_rate_of_one_uncertain_interferer_matches_gauss_hermite():
    """UE 0 knows its own link exactly and hears UE 1 through a link with a
    nonzero estimate and error variance: its rate is a 2-D expectation over
    the real and imaginary parts of the interferer's amplitude."""
    est_rrh = np.zeros((2, 2, 1), dtype=complex)
    est_rrh[0, 0] = np.sqrt(2.0)
    est_rrh[1, 0] = 0.8 - 0.3j
    est_rrh[:, 1] = 0.5
    var_rrh = np.array([[0.0, 0.2], [0.5, 0.1]])
    topology = hand_topology([[0], [1]], 2, np.ones((2, 2)), np.ones(2), n_ant=1, b_ant=1)
    links = AggregatedLinks(
        topology=topology, est_rrh=est_rrh, var_rrh=var_rrh,
        est_mbs=np.zeros((2, 1), dtype=complex), var_mbs=np.zeros(2),
    )
    rrh = np.zeros((2, 2, 1), dtype=complex)
    rrh[0, 0] = rrh[1, 1] = 1.0   # each UE's beam on its one serving RRH
    beams = BeamformerSet(rrh, np.zeros((2, 1), dtype=complex))
    got, _ = monte_carlo_rates(links, beams, noise_power=1.0, prelog=1.0)

    x, weight = np.polynomial.hermite_e.hermegauss(80)
    weight = weight / np.sqrt(2.0 * np.pi)  # probabilists' weight -> N(0, 1) expectation
    amplitude = np.conj(est_rrh[1, 0, 0]) + np.sqrt(var_rrh[1, 0] / 2.0) * (
        x[:, None] + 1j * x[None, :])
    rate = np.log2(1.0 + 2.0 / (1.0 + np.abs(amplitude) ** 2))
    want = float(weight @ rate @ weight)
    assert got[0] == pytest.approx(want, rel=1e-10, abs=0)


def test_perfect_channel_state_links():
    topology, _, _, _, training = pipeline_instance(r=5)
    channels = instance_channels(topology, r=5)
    perfect = perfect_channel_state(topology, channels)
    plinks = build_covariances(topology, perfect)
    assert np.array_equal(plinks.est_rrh, channels.rrh)
    assert np.array_equal(plinks.est_mbs, channels.mbs)
    rues = topology.rue_set
    assert np.all(plinks.var_rrh == 0.0) and np.all(plinks.var_mbs == 0.0)
    n = plinks.est_rrh.shape[2]
    for dst in rues:
        problem = modelled_moments(plinks, topology, dst)
        for src in rues:
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
    j_power = interference_plus_noise(plinks, beams, training.noise_power)
    n = plinks.est_rrh.shape[2]
    for i in rues:
        manual = training.noise_power
        for src in rues:
            if src != i:
                for pos, k in enumerate(topology.serving_rrhs[src]):
                    w_blk = stacked_beam(beams, topology, src)[pos * n:(pos + 1) * n]
                    manual += abs(np.vdot(channels.rrh[k, i], w_blk)) ** 2
        for j in topology.bue_set:
            manual += abs(np.vdot(channels.mbs[i], beams.mbs[j])) ** 2
        assert j_power[i] == pytest.approx(manual, rel=1e-12)


def served_link_case(name):
    """(links, beams, budgets, noise power) for one of the layouts the
    served-link products must reproduce the dense formulas on."""
    if name == "mbs_only":
        rng = np.random.default_rng(4)
        links = hand_links(
            [[], [], []], np.zeros((2, 3, 2)), np.ones((2, 3)),
            crandn(rng, 3, 3), rng.uniform(0.5, 1.5, size=3),
        )
        return links, random_beams(links, seed=4, scale=1.0), PowerBudget(rrh=1.0, mbs=1.0), 1.0
    if name == "perfect_csi":
        scenario = ScenarioConfig(num_rrh=100, num_ue=32)
        topology, _, _, _, training = pipeline_instance(r=0, scenario=scenario)
        links = build_covariances(
            topology, perfect_channel_state(topology, instance_channels(topology, r=0)))
        assert np.all(links.est_rrh != 0)
        return links, random_beams(links, seed=0), PowerBudget(rrh=1.0, mbs=1.0), training.noise_power
    if name == "shared_rrh":
        scenario = ScenarioConfig(num_rrh=50, num_ue=16, coverage_radius=130.0)
        topology, _, _, links, training = pipeline_instance(r=0, scenario=scenario)
        assert has_shared_rrh_pair(topology)
        return links, random_beams(links, seed=1), PowerBudget(rrh=1.0, mbs=1.0), training.noise_power
    # zero_budget: every other RRH has no power; the designed beams are zero there
    topology, _, _, links, training = pipeline_instance(r=1)
    caps = np.where(np.arange(topology.num_rrh) % 2, 0.0, dbm_to_watt(27.0))
    budgets = PowerBudget(rrh=caps, mbs=dbm_to_watt(30.0))
    assert any(caps[k] == 0.0 for cluster in topology.serving_rrhs for k in cluster)
    beams, _ = rtd_solve(topology, links, training, budgets)
    return links, beams, budgets, training.noise_power


def assert_relative(got, want, tol=1e-12):
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want)


@pytest.mark.parametrize("name", ["perfect_csi", "shared_rrh", "zero_budget", "mbs_only"])
def test_served_link_products_match_the_dense_formulas(name):
    """The per-served-link amplitudes, moments, useful amplitudes, mean
    amplitudes and QCQP Gram blocks equal the dense (K, M, M) and 4-D
    formulas to 1e-12 relative: under perfect CSI (every estimate nonzero),
    with users sharing RRHs, with zero-budget RRHs in clusters, and with no
    served link at all."""
    links, beams, budgets, noise = served_link_case(name)
    topology = links.topology
    ue, rrh = topology.served_links
    dense = dense_amplitudes(links, beams.rrh)
    amplitude = link_amplitudes(links, beams.rrh)
    assert_relative(amplitude, dense[rrh, ue])
    off_links = np.ones(dense.shape[:2], dtype=bool)
    off_links[rrh, ue] = False
    assert not np.any(dense[off_links])  # the served links carry every amplitude

    got = interference_plus_noise(links, beams, noise)
    want = dense_interference_plus_noise(links, beams, noise)
    assert np.all(np.abs(got - want) <= 1e-12 * want)
    assert_relative(useful_amplitude(links, beams), dense_useful_amplitude(links, beams))
    by_source = np.zeros((topology.num_ue, topology.num_ue), dtype=complex)
    np.add.at(by_source, ue, amplitude)
    mean = by_source.T + links.est_mbs.conj() @ beams.mbs.T
    assert_relative(mean, dense_mean_amplitudes(links, beams))

    rng = np.random.default_rng(7)
    f = crandn(rng, topology.num_ue)
    u = rng.uniform(0.5, 2.0, size=topology.num_ue)
    layout = stack_layout(links, budgets)
    problem = assemble_qcqp(links, f, u, layout)
    w8 = np.exp(u - 1.0) * np.abs(f) ** 2
    assert_relative(problem.blocks, dense_gram_blocks(links, w8, layout.active))
    if name == "zero_budget":
        assert layout.active.size < len(set(rrh.tolist()))


def exact_rate_case(name):
    """(links, beams, noise power) for one of the cases the block-wise exact
    rate must reproduce the dense one on."""
    budgets = PowerBudget(rrh=dbm_to_watt(27.0), mbs=dbm_to_watt(30.0))
    if name == "zero_budget":
        links, beams, _, noise = served_link_case("zero_budget")
        return links, beams, noise
    if name == "perfect_csi":
        scenario = ScenarioConfig(num_rrh=50, num_ue=16, coverage_radius=130.0)
        topology, _, _, _, training = pipeline_instance(r=3, scenario=scenario)
        links = perfect_channel_state(topology, instance_channels(topology, r=3))
        return links, random_beams(links, seed=3), training.noise_power
    r, scenario = {
        "small": (3, ScenarioConfig()),
        "shared_rrh_bue": (8, ScenarioConfig(num_rrh=50, num_ue=16, coverage_radius=130.0)),
        "large": (0, ScenarioConfig(num_rrh=100, num_ue=32)),
        "one_block": (0, ScenarioConfig(coverage_radius=400.0, max_ue_per_rrh=8)),
    }[name]
    topology, _, _, links, training = pipeline_instance(r=r, scenario=scenario)
    if name == "shared_rrh_bue":
        assert has_shared_rrh_pair(topology) and topology.bue_set
        return links, random_beams(links, seed=r), training.noise_power
    if name == "one_block":
        assert list(topology.sharing_blocks) == [len(topology.rue_set)] == [topology.num_ue]
        return links, random_beams(links, seed=r), training.noise_power
    beams, _ = rtd_solve(topology, links, training, budgets)
    return links, beams, training.noise_power


@pytest.mark.parametrize(
    "name", ["small", "shared_rrh_bue", "large", "perfect_csi", "one_block", "zero_budget"])
def test_exact_rate_by_blocks_matches_the_dense_covariances(name):
    """The rates and error estimates computed block by block equal the dense
    computation (one M x M covariance and eigh per user) to 1e-12 of each
    user's rate: RTD designs at (8, 25) and (32, 100), users sharing RRHs
    with BUEs at (16, 50, 130 m), perfect CSI, all users in one block, and
    zero-budget RRHs in clusters. The error estimate is itself near
    rounding level, so it is compared on the rate's scale."""
    links, beams, noise = exact_rate_case(name)
    got, got_se = monte_carlo_rates(links, beams, noise, 0.9)
    want, want_se = dense_exact_rates(links, beams, noise, 0.9)
    assert list(got) == list(want) == links.topology.rue_set + links.topology.bue_set
    assert sum(want.values()) > 0.0
    for m in want:
        assert abs(got[m] - want[m]) <= 1e-12 * want[m]
        assert abs(got_se[m] - want_se[m]) <= 1e-12 * want[m]


def test_exact_rate_cases_cover_every_block_path():
    """The cases above reach a BUE block that shares its size with RUE
    blocks, a one-BUE block and a perfect-CSI drop, whose eigenvalues are
    all zero."""
    sizes = {}
    for name in ("small", "shared_rrh_bue", "perfect_csi"):
        topology = exact_rate_case(name)[0].topology
        sizes[name] = (len(topology.bue_set), set(topology.sharing_blocks))
    assert sizes["small"][0] in sizes["small"][1]
    assert sizes["shared_rrh_bue"][0] in sizes["shared_rrh_bue"][1]
    assert sizes["perfect_csi"][0] >= 1


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_ue=st.integers(1, 12),
    num_rrh=st.integers(1, 20),
    coverage=st.floats(20.0, 600.0),
    cap=st.integers(1, 4),
)
def test_rate_covariances_vanish_outside_the_sharing_blocks(seed, num_ue, num_rrh, coverage, cap):
    """On random topologies, link statistics and beams on the serving
    links, the blocks partition the users, every RRH serves users of one
    block only, and the dense covariance C_d of every user d has no nonzero
    entry between two blocks."""
    topology = generate_topology(ScenarioConfig(
        num_ue=num_ue, num_rrh=num_rrh, coverage_radius=coverage, max_ue_per_rrh=cap,
        rng_seed=seed))
    rng = np.random.default_rng(seed)
    n, b = topology.config.rrh_antennas, topology.config.mbs_antennas
    links = AggregatedLinks(
        topology, crandn(rng, num_rrh, num_ue, n), rng.uniform(0.1, 1.0, (num_rrh, num_ue)),
        crandn(rng, num_ue, b), rng.uniform(0.1, 1.0, num_ue))
    blocks = [users for group in topology.sharing_blocks.values() for users in group.members.tolist()]
    blocks.append(topology.bue_set)
    label = np.full(num_ue, -1)
    for g, users in enumerate(blocks):
        assert np.all(label[users] == -1)
        label[users] = g
    assert np.all(label >= 0)
    for users in topology.served_rues:
        assert len(set(label[users].tolist())) <= 1
    cov = dense_rate_covariances(links, random_beams(links, seed=seed, scale=1.0))
    across = label[:, None] != label[None, :]
    assert not np.any(cov[:, across])
