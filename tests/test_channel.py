"""Fading draws, training simulation, and MMSE estimation statistics."""

import numpy as np
import pytest

from hcransim import (
    ScenarioConfig,
    TrainingConfig,
    build_conflict_graph,
    build_covariances,
    compute_beta,
    draw_small_scale,
    estimate_channels,
    generate_topology,
    perfect_channel_state,
    prelog_factor,
    psa_schedule,
    sum_mse,
)
from hcransim.util import child_seed

from helpers import instance_channels, oracle_state, pipeline_instance
from oracles import delta_oracle, has_shared_rrh_pair, perfect_channel_state_oracle


def make_instance(seed=0, tau=3, num_ue=6, num_rrh=15):
    topo = generate_topology(
        ScenarioConfig(num_rrh=num_rrh, num_ue=num_ue, coverage_radius=130.0, rng_seed=seed)
    )
    graph = build_conflict_graph(topo)
    training = TrainingConfig(tau=tau)
    assignment = psa_schedule(topo, compute_beta(topo, graph), graph, tau)
    return topo, training, assignment


def test_training_config_validation():
    with pytest.raises(ValueError):
        TrainingConfig(p_rue=0.0)
    with pytest.raises(ValueError):
        TrainingConfig(tau=0)
    with pytest.raises(ValueError):
        TrainingConfig(tau=50, coherence=50)
    for name in ("p_rue", "p_bue", "noise_power"):
        for value in (np.nan, np.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                TrainingConfig(**{name: value})


def test_prelog_factor():
    assert prelog_factor(5, 50) == pytest.approx(0.9, rel=1e-15)
    assert prelog_factor(1, 2) == pytest.approx(0.5, rel=1e-15)
    with pytest.raises(ValueError):
        prelog_factor(0, 50)
    with pytest.raises(ValueError):
        prelog_factor(50, 50)


def test_draw_small_scale_statistics():
    topo = generate_topology(ScenarioConfig(num_rrh=4, num_ue=3, rng_seed=1))
    # per-link empirical variance over many redraws matches the link gain
    acc_r = np.zeros((topo.num_rrh, topo.num_ue))
    acc_b = np.zeros(topo.num_ue)
    reps = 400
    for s in range(reps):
        ch = draw_small_scale(topo, child_seed(9, s))
        acc_r += np.mean(np.abs(ch.rrh) ** 2, axis=2)
        acc_b += np.mean(np.abs(ch.mbs) ** 2, axis=1)
    n_eff = reps * topo.config.rrh_antennas
    assert np.allclose(acc_r / reps, topo.alpha_rrh, rtol=6.0 / np.sqrt(n_eff))
    assert np.allclose(acc_b / reps, topo.alpha_mbs, rtol=6.0 / np.sqrt(reps * 10))


def test_draw_small_scale_deterministic():
    topo = generate_topology(ScenarioConfig(num_rrh=4, num_ue=3, rng_seed=1))
    a = draw_small_scale(topo, child_seed(0, 0, 2))
    b = draw_small_scale(topo, child_seed(0, 0, 2))
    assert np.array_equal(a.rrh, b.rrh)
    assert np.array_equal(a.mbs, b.mbs)


def trained_links(topo):
    return [(k, i) for i in topo.rue_set for k in topo.serving_rrhs[i]]


def test_estimates_cover_exactly_the_trained_links():
    topo, training, assignment = make_instance()
    channels = draw_small_scale(topo, child_seed(0, 0, 2))
    state = estimate_channels(topo, assignment, training, channels, child_seed(0, 0, 3))
    num_rrh, num_ue = topo.num_rrh, topo.num_ue
    assert state.est_rrh.shape == (num_rrh, num_ue, topo.config.rrh_antennas)
    assert state.var_rrh.shape == (num_rrh, num_ue)
    assert state.est_mbs.shape == (num_ue, topo.config.mbs_antennas)
    assert state.var_mbs.shape == (num_ue,)
    trained = np.zeros((num_rrh, num_ue), dtype=bool)
    for k, i in trained_links(topo):
        trained[k, i] = True
    # a trained link has a nonzero estimate and less than its prior variance;
    # every other link keeps estimate zero and variance alpha
    assert np.all(np.any(state.est_rrh, axis=2) == trained)
    assert np.all((state.var_rrh < topo.alpha_rrh) == trained)
    assert np.all(state.var_rrh[~trained] == topo.alpha_rrh[~trained])
    on_mbs = np.isin(np.arange(num_ue), topo.bue_set)
    assert np.all(np.any(state.est_mbs, axis=1) == on_mbs)
    assert np.all((state.var_mbs < topo.alpha_mbs) == on_mbs)
    assert np.all(state.var_mbs[~on_mbs] == topo.alpha_mbs[~on_mbs])


def test_error_variances_match_per_link_formula():
    topo, training, assignment = make_instance(seed=2)
    channels = draw_small_scale(topo, child_seed(0, 0, 2))
    state = estimate_channels(topo, assignment, training, channels, child_seed(0, 0, 3))
    pilots = assignment.pilots
    for k, i in trained_links(topo):
        errvar = state.var_rrh[k, i]
        co_r = [x for x in topo.rue_set if pilots[x] == pilots[i]]
        co_b = [x for x in topo.bue_set if pilots[x] == pilots[i]]
        expected = delta_oracle(
            topo.alpha_rrh[k, i],
            training.p_rue,
            [topo.alpha_rrh[k, x] for x in co_r],
            [topo.alpha_rrh[k, x] for x in co_b],
            training.p_rue,
            training.p_bue,
            training.noise_power,
        )
        assert errvar == pytest.approx(expected, rel=1e-12)
        assert 0.0 < errvar < topo.alpha_rrh[k, i]
    for j in topo.bue_set:
        errvar = state.var_mbs[j]
        co_r = [x for x in topo.rue_set if pilots[x] == pilots[j]]
        expected = delta_oracle(
            topo.alpha_mbs[j],
            training.p_bue,
            [topo.alpha_mbs[x] for x in co_r],
            [topo.alpha_mbs[j]],
            training.p_rue,
            training.p_bue,
            training.noise_power,
        )
        assert errvar == pytest.approx(expected, rel=1e-12)


def test_error_variances_sum_to_the_schedulers_objective():
    # the per-link error variances times the antenna counts reproduce the
    # scheduler's sum-MSE objective exactly
    for seed in range(4):
        topo, training, assignment = make_instance(seed=seed)
        channels = draw_small_scale(topo, child_seed(0, 0, 2))
        state = estimate_channels(topo, assignment, training, channels, child_seed(0, 0, 3))
        total = topo.config.rrh_antennas * sum(state.var_rrh[k, i] for k, i in trained_links(topo))
        total += topo.config.mbs_antennas * sum(state.var_mbs[j] for j in topo.bue_set)
        expected = sum_mse(topo, assignment, training.p_rue, training.p_bue, training.noise_power)
        assert total == pytest.approx(expected, rel=1e-12)


def test_estimation_is_statistically_consistent():
    """The estimator's second-order claims hold empirically.

    Per estimated link: Var(estimate) = alpha - errvar, Var(truth - estimate)
    = errvar, and the error is uncorrelated with the estimate.
    """
    topo, training, assignment = make_instance(seed=4, num_ue=4, num_rrh=8)
    (k, i) = trained_links(topo)[0]
    reps = 4000
    est_sq, err_sq, cross = 0.0, 0.0, 0.0 + 0.0j
    for s in range(reps):
        channels = draw_small_scale(topo, child_seed(1, s, 0))
        state = estimate_channels(topo, assignment, training, channels, child_seed(1, s, 1))
        est = state.est_rrh[k, i]
        err = channels.rrh[k, i] - est
        est_sq += float(np.mean(np.abs(est) ** 2))
        err_sq += float(np.mean(np.abs(err) ** 2))
        cross += complex(np.mean(est.conj() * err))
    alpha = topo.alpha_rrh[k, i]
    errvar = state.var_rrh[k, i]
    n_eff = reps * topo.config.rrh_antennas
    tol = 6.0 / np.sqrt(n_eff)
    assert est_sq / reps == pytest.approx(alpha - errvar, rel=tol)
    assert err_sq / reps == pytest.approx(errvar, rel=tol)
    assert abs(cross / reps) < 6.0 * alpha / np.sqrt(n_eff)


def test_estimator_is_linear_in_every_copilot_channel():
    """Shifting any co-pilot user's true channel shifts the estimate by
    coefficient * shift, where the coefficient is sqrt(p_own)*alpha/denom
    times that user's pilot amplitude — noise cancels under a fixed seed."""
    topo, training, assignment = make_instance(seed=0)
    pilots = assignment.pilots
    base = draw_small_scale(topo, child_seed(0, 0, 2))
    state0 = estimate_channels(topo, assignment, training, base, child_seed(0, 0, 3))
    # an estimated link whose pilot is actually reused
    (k, i) = next(
        (k, i)
        for (k, i) in sorted(trained_links(topo))
        if sum(1 for x in range(topo.num_ue) if pilots[x] == pilots[i]) >= 2
    )
    co_r = [x for x in topo.rue_set if pilots[x] == pilots[i]]
    co_b = [x for x in topo.bue_set if pilots[x] == pilots[i]]
    denom = (
        training.p_rue * sum(topo.alpha_rrh[k, x] for x in co_r)
        + training.p_bue * sum(topo.alpha_rrh[k, x] for x in co_b)
        + training.noise_power
    )
    coeff = np.sqrt(training.p_rue) * topo.alpha_rrh[k, i] / denom
    shift = np.array([0.7 - 0.2j] * topo.config.rrh_antennas)
    for x in co_r + co_b:
        bumped = draw_small_scale(topo, child_seed(0, 0, 2))
        bumped.rrh[k, x] += shift
        state1 = estimate_channels(topo, assignment, training, bumped, child_seed(0, 0, 3))
        amp = np.sqrt(training.p_rue if x in topo.rue_set else training.p_bue)
        got = state1.est_rrh[k, i] - state0.est_rrh[k, i]
        assert np.allclose(got, coeff * amp * shift, rtol=1e-11, atol=1e-15)


def test_estimation_seed_contract():
    topo, training, assignment = make_instance(seed=0)
    channels = draw_small_scale(topo, child_seed(0, 0, 2))
    a = estimate_channels(topo, assignment, training, channels, child_seed(0, 0, 3))
    b = estimate_channels(topo, assignment, training, channels, child_seed(0, 0, 3))
    c = estimate_channels(topo, assignment, training, channels, child_seed(0, 0, 4))
    for k, i in trained_links(topo):
        assert np.array_equal(a.est_rrh[k, i], b.est_rrh[k, i])
    k, i = trained_links(topo)[0]
    assert not np.array_equal(a.est_rrh[k, i], c.est_rrh[k, i])


def test_perfect_channel_state():
    topo = generate_topology(ScenarioConfig(num_rrh=6, num_ue=4, rng_seed=3))
    channels = draw_small_scale(topo, child_seed(0, 0, 2))
    state = perfect_channel_state(topo, channels)
    assert state.est_mbs.shape == (topo.num_ue, topo.config.mbs_antennas)
    assert state.est_rrh.shape[:2] == (topo.num_rrh, topo.num_ue)
    for k in range(topo.num_rrh):
        for m in range(topo.num_ue):
            assert np.array_equal(state.est_rrh[k, m], channels.rrh[k, m])
            assert state.var_rrh[k, m] == 0.0
    for m in range(topo.num_ue):
        assert np.array_equal(state.est_mbs[m], channels.mbs[m])
        assert state.var_mbs[m] == 0.0


def assert_arrays_equal_dicts(topo, state, want):
    """Every link of the array state against the dict-based estimator, exact:
    keyed links carry their estimate and error variance, the rest zero and
    alpha."""
    for k in range(topo.num_rrh):
        for m in range(topo.num_ue):
            if (k, m) in want.est_rrh:
                np.testing.assert_array_equal(state.est_rrh[k, m], want.est_rrh[(k, m)])
                assert state.var_rrh[k, m] == want.errvar_rrh[(k, m)]
            else:
                assert not np.any(state.est_rrh[k, m])
                assert state.var_rrh[k, m] == topo.alpha_rrh[k, m]
    for m in range(topo.num_ue):
        if m in want.est_mbs:
            np.testing.assert_array_equal(state.est_mbs[m], want.est_mbs[m])
            assert state.var_mbs[m] == want.errvar_mbs[m]
        else:
            assert not np.any(state.est_mbs[m])
            assert state.var_mbs[m] == topo.alpha_mbs[m]


def test_link_arrays_equal_the_dict_estimator():
    """The arrays estimate_channels writes equal the per-link dict estimator
    bit for bit: at (8, 25), at (16, 50, 130 m) with shared RRH pairs and
    RUEs on a BUE's pilot, at (32, 100) and under perfect CSI. Both training
    functions return the links with their topology attached, which
    build_covariances passes through and checks."""
    wide = ScenarioConfig(num_rrh=50, num_ue=16, coverage_radius=130.0)
    cases = [
        (r, scenario)
        for r in (0, 1)
        for scenario in (ScenarioConfig(), wide, ScenarioConfig(num_rrh=100, num_ue=32))
    ] + [(r, wide) for r in (3, 4, 6)]
    bue_pilot_shared = 0
    for r, scenario in cases:
        topo, assignment, state, _, training = pipeline_instance(r=r, scenario=scenario)
        assert state.topology is topo  # estimate_channels attaches its topology
        want = oracle_state(topo, assignment, training, r=r)
        assert_arrays_equal_dicts(topo, state, want)
        if scenario is wide:
            assert has_shared_rrh_pair(topo)
            bue_pilots = set(assignment.pilots[topo.bue_set].tolist())
            bue_pilot_shared += any(assignment.pilots[i] in bue_pilots for i in topo.rue_set)
    assert bue_pilot_shared == 3  # drops 3, 4 and 6 of the wide family
    channels = instance_channels(topo, r)
    perfect = perfect_channel_state(topo, channels)
    assert perfect.topology is topo
    assert_arrays_equal_dicts(topo, perfect, perfect_channel_state_oracle(topo, channels))
    assert build_covariances(topo, state) is state
    other = generate_topology(ScenarioConfig(rng_seed=1))
    with pytest.raises(ValueError, match="another topology"):
        build_covariances(other, state)


@pytest.mark.parametrize("antennas", [4, 1])
def test_link_arrays_equal_the_dict_estimator_with_many_copilot_rues(antennas):
    """Bit for bit also when a pilot carries 8 or more RUEs, where NumPy
    sums a contiguous axis pairwise, so a sum over a strided member axis
    rounds otherwise than the per-link sums, and with one antenna per RRH,
    where the per-link sum of the channels is itself pairwise."""
    scenario = ScenarioConfig(num_rrh=100, num_ue=32, rrh_antennas=antennas)
    for r in (0, 1):
        topo, assignment, state, _, training = pipeline_instance(r=r, tau=2, scenario=scenario)
        per_pilot = np.bincount(assignment.pilots[topo.rue_set])
        assert per_pilot.max() >= 8
        assert_arrays_equal_dicts(topo, state, oracle_state(topo, assignment, training, r=r))
