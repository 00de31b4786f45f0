"""Equalizer/auxiliary updates, the beamformer QCQP, and the alternating design."""

import dataclasses
import math

import numpy as np
import pytest

from hcransim import (
    BeamformerSet,
    ConvergenceError,
    ExperimentConfig,
    PowerBudget,
    ScenarioConfig,
    TrainingConfig,
    assemble_qcqp,
    build_covariances,
    interference_plus_noise,
    lower_bound_rates,
    mse_and_equalizer,
    perfect_channel_state,
    prelog_factor,
    qcqp_objective,
    rtd_solve,
    run_se_sweep,
    solve_qcqp,
    stack_layout,
    update_u,
)
from hcransim import beamforming
from hcransim.beamforming import _Eigenbasis, _objective, _solve_mbs_side
from hcransim.util import crandn, dbm_to_watt

from helpers import (
    child_rng,
    group_power,
    hand_links,
    hand_qcqp,
    instance_channels,
    make_synthetic_qcqp,
    pipeline_instance,
    random_beams,
    solved,
    unpack_qcqp,
)
from oracles import (
    assemble_qcqp_oracle,
    dense_power_jacobian,
    dense_rrh_beams,
    dense_rrh_powers,
    dense_rue_matrices,
    golden_min,
    own_estimate_oracle,
    pgd_qcqp_oracle,
    pgd_qcqp_oracle_batched,
    qcqp_value,
    stacked_beam,
)

BUDGETS = PowerBudget(rrh=dbm_to_watt(27.0), mbs=dbm_to_watt(30.0))


def test_power_budget_and_beam_container_mechanics():
    assert np.array_equal(PowerBudget(rrh=2.0, mbs=5.0).rrh_array(3), [2.0, 2.0, 2.0])
    assert np.array_equal(PowerBudget(rrh=np.array([1.0, 2.0]), mbs=5.0).rrh_array(2), [1.0, 2.0])
    with pytest.raises(ValueError):
        PowerBudget(rrh=-1.0, mbs=1.0).rrh_array(2)
    with pytest.raises(ValueError):
        PowerBudget(rrh=np.array([1.0, 2.0]), mbs=1.0).rrh_array(3)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            PowerBudget(rrh=bad, mbs=1.0)
        with pytest.raises(ValueError, match="finite"):
            PowerBudget(rrh=np.array([1.0, bad]), mbs=1.0)
        with pytest.raises(ValueError, match="finite"):
            PowerBudget(rrh=1.0, mbs=bad)
    # UE 0 served by RRHs 2 and 5, UE 1 by RRH 5, UE 7 by the MBS
    rrh = np.zeros((8, 6, 2), dtype=complex)
    rrh[0, 2], rrh[0, 5], rrh[1, 5] = [1.0, 0.0], [0.0, 2.0], [0.0, 3.0]
    mbs = np.zeros((8, 2), dtype=complex)
    mbs[7] = [0.0, 1.0 + 1.0j]
    beams = BeamformerSet(rrh, mbs)
    w_rrh, w_mbs = beams         # unpacks as the per-link pair
    assert w_rrh is rrh and w_mbs is mbs
    assert beams.rrh_power(2) == 1.0
    assert beams.rrh_power(5) == 4.0 + 9.0    # UE0's second block + UE1's block
    assert beams.rrh_power(3) == 0.0
    assert beams.mbs_power() == pytest.approx(2.0, rel=1e-15)


def test_mse_and_equalizer_frozen_point():
    mse, f = mse_and_equalizer(1.0 + 0j, 1.0)
    assert f == pytest.approx(0.5)
    assert mse == pytest.approx(0.5)
    with pytest.raises(ValueError):
        mse_and_equalizer(1.0 + 0j, 0.0)


def test_mse_and_u_updates_on_arrays_match_the_scalar_results():
    """One call on a stack of UEs gives each UE's scalar result exactly, and
    one nonpositive entry still raises."""
    rng = child_rng(31, 10)
    g, w = crandn(rng, 6, 4), crandn(rng, 6, 4)
    j_power = rng.uniform(0.1, 2.0, size=6)
    a = (g.conj()[:, None, :] @ w[:, :, None])[:, 0, 0]
    mse, f = mse_and_equalizer(a, j_power)
    u = update_u(mse)
    assert mse.shape == f.shape == u.shape == (6,)
    for m in range(6):
        mse_m, f_m = mse_and_equalizer(a[m], j_power[m])
        assert (mse[m], f[m], u[m]) == (mse_m, f_m, update_u(mse_m))
    with pytest.raises(ValueError):
        mse_and_equalizer(a, np.where(np.arange(6) == 3, 0.0, j_power))
    with pytest.raises(ValueError):
        update_u(np.where(np.arange(6) == 2, -1e-3, mse))


def test_equalizer_minimizes_the_mse():
    rng = child_rng(31, 0)
    g = crandn(rng, 4)
    w = crandn(rng, 4)
    j_power = float(rng.uniform(0.1, 2.0))
    a = complex(np.vdot(g, w))

    def mse_of(f):
        return abs(np.conj(f) * a - 1.0) ** 2 + abs(f) ** 2 * j_power

    mse, f_opt = mse_and_equalizer(a, j_power)
    assert mse == pytest.approx(mse_of(f_opt), rel=1e-12)
    for eps in (1e-3, 1e-2, 0.1):
        for phase in np.linspace(0.0, 2 * np.pi, 8, endpoint=False):
            assert mse_of(f_opt + eps * np.exp(1j * phase)) >= mse


def test_mmse_sinr_identity():
    """At the optimal equalizer, MSE * (1 + SINR) = 1, so the rate term
    -log2(MSE) equals log2(1 + SINR)."""
    rng = child_rng(31, 1)
    for _ in range(200):
        dim = int(rng.integers(1, 9))
        g = crandn(rng, dim)
        w = crandn(rng, dim)
        j_power = float(rng.uniform(1e-3, 10.0))
        mse, _ = mse_and_equalizer(np.vdot(g, w), j_power)
        sinr = abs(np.vdot(g, w)) ** 2 / j_power
        assert mse * (1.0 + sinr) == pytest.approx(1.0, abs=1e-12)
        assert -np.log2(mse) == pytest.approx(np.log2(1.0 + sinr), abs=1e-11)


def test_update_u_closed_form():
    assert update_u(math.exp(-1.0)) == pytest.approx(2.0, rel=1e-15)
    assert update_u(1.0) == 1.0
    with pytest.raises(ValueError):
        update_u(0.0)
    # matches the scalar minimizer of exp(u-1)*mse - u
    for mse in (0.03, 0.4, 0.9):
        u_star = update_u(mse)
        found = golden_min(lambda u: math.exp(u - 1.0) * mse - u, u_star - 6, u_star + 6)
        assert found == pytest.approx(u_star, abs=1e-6)


def test_qcqp_single_beam_closed_forms():
    """One RUE alone at a 2-antenna RRH with estimate g = (3, 4) and error
    variance 11: its matrix is |f|^2 (g g^H + 11 I) and its linear term f g,
    so at f = 1/36 the unconstrained beam is g itself, and a binding budget
    scales it onto the cap. The MBS side does the same for one BUE, and a
    zero equalizer (no weight and no gain) gives a zero beam."""
    g = np.array([3.0, 4.0], dtype=complex)
    zero = np.zeros(2, dtype=complex)

    def one_rue(f, budget):
        # UE 1, MBS-served, makes the RRH's matrix nonsingular at f = 0.
        links = hand_links([[0], []], np.array([[g, [4.0, -3.0]]]), [[11.0, 0.0]])
        return hand_qcqp(links, [f, 1.0 / 36.0], [1.0, 1.0], [budget])

    beams, _ = solved(one_rue(1.0 / 36.0, 36.0))
    assert np.allclose(beams.rrh[0, 0], g, rtol=1e-8)
    beams, _ = solved(one_rue(1.0 / 36.0, 16.0))
    assert np.allclose(beams.rrh[0, 0], [2.4, 3.2], rtol=1e-6)
    # the active constraint is met to the solver's feasibility tolerance
    assert beams.rrh_power(0) == pytest.approx(16.0, rel=2e-6)
    # MBS side, one BUE: same projection behaviour
    links = hand_links([[]], np.zeros((1, 1, 2)), [[0.0]], g[None], [11.0])
    beams, _ = solved(hand_qcqp(links, [1.0 / 36.0], [1.0], [0.0], mbs_budget=16.0))
    assert np.allclose(beams.mbs[0], [2.4, 3.2], rtol=1e-6)
    assert np.all(solved(one_rue(0.0, 4.0))[0].rrh[0, 0] == zero)


def test_qcqp_zero_budget_pins_beams():
    rng = child_rng(31, 2)
    problem, *_ = make_synthetic_qcqp(rng, zero_cap_chance=1.0)
    beams, _ = solved(problem)
    assert beams.rrh.size and not np.any(beams.rrh)


def test_assembled_qcqp_equals_weighted_mse_up_to_constant():
    """For arbitrary beams, equalizers, and auxiliaries, the assembled
    quadratic objective plus its documented constant reproduces
    sum_m exp(u_m - 1) * mse_m."""
    topology, _, state, links, training = pipeline_instance(r=2)
    rng = child_rng(31, 3)
    ids = topology.rue_set + topology.bue_set
    f = {m: complex(*rng.normal(scale=2.0, size=2)) for m in ids}
    u = {m: float(rng.uniform(0.2, 3.0)) for m in ids}
    layout = stack_layout(links, BUDGETS)
    f_arr, u_arr = (np.array([x[m] for m in range(len(ids))]) for x in (f, u))
    problem = assemble_qcqp(links, f_arr, u_arr, layout)
    beams = random_beams(links, rng, scale=1e-5)
    own = {m: stacked_beam(beams, topology, m) for m in ids}
    # Every budget is positive, so each RUE's whole beam fills its stack row.
    w_rue = np.zeros_like(layout.est)
    for row, i in enumerate(topology.rue_set):
        w_rue[row, :own[i].size] = own[i]
    w_bue = beams.mbs[topology.bue_set]

    j_power = interference_plus_noise(links, beams, training.noise_power)
    weighted = 0.0
    for m, w in own.items():
        a = complex(np.vdot(own_estimate_oracle(topology, links, m), w))
        weighted += math.exp(u[m] - 1.0) * (
            abs(np.conj(f[m]) * a - 1.0) ** 2 + abs(f[m]) ** 2 * j_power[m])
    constant = sum(
        math.exp(u[m] - 1.0) * (1.0 + abs(f[m]) ** 2 * training.noise_power) for m in ids
    )
    objective = qcqp_objective(problem, (w_rue, w_bue))
    assert objective + constant == pytest.approx(weighted, rel=1e-9)


def _clusters(topology):
    """RUE id -> its serving RRHs."""
    return {i: topology.serving_rrhs[i] for i in topology.rue_set}


def _overlap_drop():
    """The (16, 50, 130 m) drop r = 4, where two users share two RRHs and
    three users are MBS-served, with a zero budget at the first RRH the two
    share: (topology, links, training, RRH budgets, that RRH)."""
    topology, _, _, links, training = pipeline_instance(
        r=4, scenario=ScenarioConfig(num_ue=16, num_rrh=50, coverage_radius=130.0)
    )
    clusters = _clusters(topology)
    shared = next(
        sorted(set(clusters[a]) & set(clusters[b]))
        for a in clusters for b in clusters
        if a < b and len(set(clusters[a]) & set(clusters[b])) >= 2
    )
    budget = BUDGETS.rrh_array(topology.num_rrh)
    budget[shared[0]] = 0.0
    return topology, links, training, budget, shared[0]


def test_stack_assembly_matches_the_per_ue_reference():
    """On the overlap drop with its zero-budget RRH, every stack row is the
    live submatrix and linear term of the per-UE reference assembly, padded
    with identity rows and zeros (the dense matrices the factored problem
    stands for), and the MBS terms are its shared matrix and per-BUE linear
    terms, to 1e-15 relative."""
    topology, links, _, budget, _ = _overlap_drop()
    clusters, bues = _clusters(topology), topology.bue_set
    rng = child_rng(31, 11)
    f, u = crandn(rng, topology.num_ue), rng.uniform(0.2, 3.0, size=topology.num_ue)
    layout = stack_layout(links, PowerBudget(rrh=budget, mbs=BUDGETS.mbs))
    problem = assemble_qcqp(links, f, u, layout)
    quad, lin = assemble_qcqp_oracle(links, f, u)
    base, rhs = dense_rue_matrices(problem)
    n, width = layout.block_size, layout.est.shape[1]
    pairs = []
    for row, i in enumerate(layout.rue.tolist()):
        live = np.repeat(budget[clusters[i]] > 0, n)
        assert layout.active[layout.starts[row, layout.live[row]]].tolist() == [
            k for k in clusters[i] if budget[k] > 0
        ]
        want = np.eye(width, dtype=complex)
        d = int(live.sum())
        want[:d, :d] = quad[i][np.ix_(live, live)]
        want_rhs = np.zeros(width, dtype=complex)
        want_rhs[:d] = lin[i][live]
        pairs += [(base[row], want), (rhs[row], want_rhs)]
    assert problem.mbs_quad.shape == (links.mbs_antennas,) * 2 and len(bues) == 3
    pairs += [(problem.mbs_quad, quad[j]) for j in bues]
    pairs += list(zip(problem.mbs_lin, [lin[j] for j in bues]))
    for got, want in pairs:
        assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)


def test_returned_beams_are_zero_where_no_beam_is_designed():
    """On the overlap drop with its zero-budget RRH, the beams ``rtd_solve``
    returns are exactly zero off each RUE's cluster, on the zero-budget
    block, on the BUE rows of ``rrh`` and on the RUE rows of ``mbs``, and
    nonzero elsewhere; ``rrh_power`` and ``mbs_power`` are the per-RRH and
    MBS sums of the users' stacked beams to 1e-12 relative."""
    topology, links, training, budget, zeroed = _overlap_drop()
    clusters, rues, bues = _clusters(topology), topology.rue_set, topology.bue_set
    assert sum(zeroed in c for c in clusters.values()) >= 2 and bues
    beams, state = rtd_solve(topology, links, training, PowerBudget(rrh=budget, mbs=BUDGETS.mbs))
    assert state.converged
    designed = np.zeros(beams.rrh.shape[:2], dtype=bool)
    for i, cluster in clusters.items():
        designed[i, cluster] = True
    designed[:, zeroed] = False
    assert not np.any(beams.rrh[~designed]) and not np.any(beams.mbs[rues])
    assert np.all(np.any(beams.rrh[designed], axis=1))
    assert np.all(np.any(beams.mbs[bues], axis=1))
    n = links.est_rrh.shape[2]
    per_rrh = np.zeros(topology.num_rrh)
    for i, cluster in clusters.items():
        for block, k in zip(stacked_beam(beams, topology, i).reshape(-1, n), cluster):
            per_rrh[k] += float(np.sum(np.abs(block) ** 2))
    for k in range(topology.num_rrh):
        assert beams.rrh_power(k) == pytest.approx(per_rrh[k], rel=1e-12, abs=0)
    mbs = sum(float(np.sum(np.abs(stacked_beam(beams, topology, j)) ** 2)) for j in bues)
    assert beams.mbs_power() == pytest.approx(mbs, rel=1e-12, abs=0)


def test_mbs_side_on_the_shared_matrix_with_slack_and_binding_budget():
    """On the one (B, B) matrix all BUEs share, the MBS solve returns the
    unconstrained beams quad^-1 lin_j at nu = 0 when the budget is slack, and
    meets a binding budget with nu > 0; either way its dual value is the
    primal value of its beams."""
    _, problem = _first_qcqp(16, 50)
    quad, lin = problem.mbs_quad, problem.mbs_lin
    assert quad.ndim == 2 and len(lin) > 1
    free = np.linalg.solve(quad, lin.T).T
    power = float(np.sum(np.abs(free) ** 2))
    for budget, binding in ((2.0 * power, False), (0.25 * power, True)):
        beams, nu, value = _solve_mbs_side(quad, lin, budget, 1e-6, 1e-8)
        assert (nu > 0.0) == binding
        if binding:
            assert float(np.sum(np.abs(beams) ** 2)) == pytest.approx(budget, rel=1e-6)
        else:
            assert np.allclose(beams, free, rtol=1e-9, atol=0.0)
        assert value == pytest.approx(_objective(quad, lin, beams), rel=1e-6)


def test_solve_qcqp_respects_constraints_and_weak_duality():
    rng = child_rng(31, 4)
    without_bue = 0
    for trial in range(6):
        problem, quads, lins, groups, caps = make_synthetic_qcqp(rng)
        beams, info = solved(problem)
        for name, members in groups.items():
            power = group_power(beams, name, members)
            assert power <= caps[name] * (1.0 + 1e-6) + 1e-15
            if name == "mbs":
                excess = (power - caps[name]) / caps[name]
                assert info["mbs_violation"] == pytest.approx(excess, rel=1e-12, abs=1e-15)
        if "mbs" not in groups:
            # no MBS constraint is in play, so there is no excess to report
            assert info["mbs_violation"] == 0.0
            without_bue += 1
        assert info["dual_value"] <= info["primal_value"] + 1e-7 * abs(info["primal_value"])
        # any strictly feasible point scores no better than the dual value
        w = {m: 0.5 * np.linalg.solve(quads[m], lins[m]) for m in quads}
        for name, members in groups.items():
            power = sum(float(np.sum(np.abs(w[m][idx]) ** 2)) for m, idx in members)
            if power > caps[name]:
                scale = math.sqrt(caps[name] / power) if caps[name] > 0 else 0.0
                for m, idx in members:
                    w[m][idx] *= scale
        assert qcqp_value(quads, lins, w) >= info["dual_value"] - 1e-9 * abs(info["dual_value"])
    assert without_bue  # trials 1 and 3


def test_solve_qcqp_matches_projected_gradient_oracle():
    rng = child_rng(31, 5)
    instances = [make_synthetic_qcqp(rng) for _ in range(4)]
    references = pgd_qcqp_oracle_batched([inst[1:] for inst in instances], iters=6000)
    for (problem, quads, lins, *_), w in zip(instances, references):
        _, info = solve_qcqp(problem)
        reference = qcqp_value(quads, lins, w)
        assert info["primal_value"] == pytest.approx(reference, rel=1e-6)


def test_batched_projected_gradient_oracle_matches_the_loop_oracle():
    """The batched oracle runs the loop oracle's arithmetic, up to summation
    order, on problems of different sizes, with and without BUEs and with
    zero caps."""
    rng = child_rng(31, 7)
    problems = [make_synthetic_qcqp(rng, zero_cap_chance=0.25)[1:] for _ in range(5)]
    batched = pgd_qcqp_oracle_batched(problems, iters=1500)
    for (quads, lins, groups, caps), w in zip(problems, batched):
        ref = pgd_qcqp_oracle(quads, lins, groups, caps, iters=1500)
        assert set(w) == set(ref)
        for m in ref:
            np.testing.assert_allclose(w[m], ref[m], rtol=0, atol=1e-12)
        assert qcqp_value(quads, lins, w) == pytest.approx(
            qcqp_value(quads, lins, ref), rel=1e-12
        )


def test_solve_qcqp_exhausted_iterations_raises(monkeypatch):
    """Every RRH cap is a quarter of the unconstrained power, so no dual
    update at all leaves the caps exceeded."""
    rng = child_rng(31, 6)
    links = hand_links([[0, 1], [1]], crandn(rng, 2, 2, 2), np.ones((2, 2)))
    f, u = np.ones(2), np.ones(2)
    loose = hand_qcqp(links, f, u, [1e9, 1e9])
    free = dense_rrh_powers(loose, dense_rrh_beams(loose, np.zeros(2)))
    problem = hand_qcqp(links, f, u, 0.25 * free)
    monkeypatch.setattr(beamforming, "MAX_DUAL_ITERS", 0)
    with pytest.raises(ConvergenceError):
        solve_qcqp(problem)


def _secular_power(lam, coef, x):
    return float(np.sum(np.abs(coef) ** 2 / (lam + x) ** 2))


def _assert_secular_matches_dense(problem, mu, xs):
    """At multipliers mu (by active slot), every active RRH's secular
    function, from ``_Eigenbasis.schur`` over the users it serves, equals its
    block power in a dense solve with its own multiplier at x, for each x;
    the beams at x are zero on padding."""
    layout = problem.layout
    padding = ~np.repeat(layout.live, layout.block_size, axis=1)
    basis = _Eigenbasis(problem)
    for a, (users, pos) in enumerate(layout.users_of):
        lam, coef = basis.schur(basis.coupling(mu), users, pos)
        for x in xs:
            trial = mu.copy()
            trial[a] = x
            beams = dense_rrh_beams(problem, trial)
            assert not np.any(beams[padding])
            want = dense_rrh_powers(problem, beams)[a]
            assert _secular_power(lam, coef, x) == pytest.approx(want, rel=1e-9)


def _secular_field(clusters, n, budget, seed, zero_f=()):
    """A QCQP on hand-built links with the given clusters (RUE id -> RRHs)
    and one MBS-served UE, random estimates and variances, and unit
    equalizers except zero ones at ``zero_f`` (no weight and no gain)."""
    rng = child_rng(31, seed)
    num_rrh, num_ue = len(budget), len(clusters) + 1
    links = hand_links(
        [clusters.get(m, []) for m in range(num_ue)],
        crandn(rng, num_rrh, num_ue, n),
        rng.uniform(0.1, 1.0, size=(num_rrh, num_ue)),
    )
    f = np.where(np.isin(np.arange(num_ue), zero_f), 0.0, 1.0)
    problem = hand_qcqp(links, f, rng.uniform(0.5, 2.0, size=num_ue), budget)
    return problem, rng.uniform(0.1, 2.0, size=problem.layout.active.size)


def test_secular_power_matches_direct_solve():
    """The closed-form secular function of RRH k's multiplier equals the
    block power of a dense direct solve at every x, on a field where one RRH
    is shared by four users, users hold one to three blocks, one user has a
    zero linear term and one RRH has a zero budget; and on a field where
    every block is the user's whole beam, so nothing is eliminated."""
    clusters = {0: [1], 1: [0, 1], 2: [1, 2, 3], 3: [1, 3], 4: [0, 3]}
    problem, mu = _secular_field(clusters, 2, np.array([1.0, 1.0, 0.0, 1.0]), 7, zero_f=(3,))
    assert len(problem.layout.users_of[1][0]) == 4
    _assert_secular_matches_dense(problem, mu, xs=(0.05, 0.3, 1.0, 7.0))
    problem, mu = _secular_field({0: [0], 1: [0], 2: [0]}, 3, np.ones(1), 17, zero_f=(2,))
    _assert_secular_matches_dense(problem, mu, xs=(0.0, 0.2, 3.0))


@pytest.mark.parametrize(
    "clusters",
    [
        # one to three blocks, RRH 4's first, in the middle and last; the
        # padding after it is eliminated with the other entries
        {0: [4], 1: [1, 4], 2: [4, 2], 3: [0, 4, 3], 4: [4, 3]},
        # every member a single block, so nothing is eliminated
        {0: [4], 1: [4], 2: [4]},
    ],
    ids=["mixed_widths", "single_blocks"],
)
def test_block_secular_on_padded_stacks(clusters):
    """Each RRH's secular function over its padded users matches the dense
    block power, with users of one to three blocks padded to the widest."""
    problem, mu = _secular_field(clusters, 3, np.ones(5), 8)
    _assert_secular_matches_dense(problem, mu, xs=(0.0, 0.4, 5.0))


def _first_qcqp(num_ue, num_rrh, zero_busiest=False, **scenario):
    """The first beamformer QCQP (unit equalizers and auxiliaries) of the
    drop at master seed 0, and its topology. zero_busiest sets a zero budget
    at the busiest RRH of the widest cluster."""
    topology, _, _, links, _ = pipeline_instance(
        scenario=ScenarioConfig(num_ue=num_ue, num_rrh=num_rrh, **scenario)
    )
    budget = BUDGETS.rrh_array(topology.num_rrh)
    if zero_busiest:
        load = [len(users) for users in topology.served_rues]
        widest = max(topology.serving_rrhs, key=len)
        budget[max(widest, key=lambda k: load[k])] = 0.0
    layout = stack_layout(links, PowerBudget(rrh=budget, mbs=BUDGETS.mbs))
    ones = np.ones(topology.num_ue)
    return topology, assemble_qcqp(links, ones + 0j, ones, layout)


def _zero_budget_drop_qcqp():
    """The first QCQP of the (32 users, 100 RRHs) drop, with a zero budget at
    the busiest RRH of the widest cluster. Clusters hold 1 to 6 RRHs of 4
    antennas, so the solver's stack pads users from 4 to 24 entries."""
    return _first_qcqp(32, 100, zero_busiest=True)[1]


def _regime_qcqp(regime):
    """A QCQP at random equalizers and auxiliaries in one CSI regime:
    estimated CSI at (8, 25); perfect CSI (zero variances) at (8, 25);
    perfect CSI with 3 users on 4-antenna RRHs, so every G is rank-deficient;
    and the (32, 100) drop with single-block users, padding to 24 entries
    and a zero-budget RRH."""
    if regime == "padded_zero_budget":
        return _zero_budget_drop_qcqp()
    num_ue = 3 if regime == "rank_deficient" else 8
    scenario = ScenarioConfig(num_ue=num_ue, num_rrh=25, coverage_radius=150.0)
    topology, _, _, links, _ = pipeline_instance(r=2, tau=3, scenario=scenario)
    if regime != "estimated":
        state = perfect_channel_state(topology, instance_channels(topology, r=2))
        links = build_covariances(topology, state)
        assert not np.any(links.var_rrh)
    rng = child_rng(31, 12)
    f, u = crandn(rng, num_ue), rng.uniform(0.5, 2.0, size=num_ue)
    return assemble_qcqp(links, f, u, stack_layout(links, BUDGETS))


@pytest.mark.parametrize(
    "regime", ["estimated", "perfect_csi", "rank_deficient", "padded_zero_budget"]
)
def test_closed_form_matches_the_dense_oracle(regime):
    """At random multipliers the closed-form solve equals the dense per-user
    solve, every RRH's Schur target and secular power equal the dense block
    power at its own multiplier, and the closed-form Hessian equals the
    dense -2 Re w^H M^{-1} w and central differences of the powers."""
    problem = _regime_qcqp(regime)
    layout = problem.layout
    lam = np.linalg.eigvalsh(problem.blocks)
    if regime == "rank_deficient":
        assert np.all(lam[:, 0] <= 1e-12 * lam[:, -1])
    basis = _Eigenbasis(problem)
    rng = child_rng(31, 13)
    for _ in range(2):
        mu = rng.uniform(0.05, 1.0, size=layout.active.size) * lam[:, -1]
        want = dense_rrh_beams(problem, mu)
        got = basis.rotate_back(basis.solve(basis.coupling(mu)))
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)
        _assert_secular_matches_dense(problem, mu, xs=(mu.min(), mu.max()))
        jac = basis.power_jacobian(basis.coupling(mu))
        dense = dense_power_jacobian(problem, mu)
        assert np.linalg.norm(jac - dense) <= 1e-9 * np.linalg.norm(dense)

        def powers(at):
            return dense_rrh_powers(problem, basis.rotate_back(basis.solve(basis.coupling(at))))

        for b in range(layout.active.size):
            step = np.zeros_like(mu)
            step[b] = 1e-5 * mu[b]
            column = (powers(mu + step) - powers(mu - step)) / (2.0 * step[b])
            assert np.linalg.norm(column - jac[:, b]) <= 1e-6 * np.linalg.norm(jac[:, b])


def test_rrh_side_makes_no_stacked_linear_solve(monkeypatch):
    """On the (32, 100) drop the RRH side's only linear solves are its Newton
    systems: no ``np.linalg.solve`` call gets a stack of matrices, and
    ``linear_solves`` counts exactly the Newton systems solved."""
    shapes = []
    real = np.linalg.solve

    def recorded(a, b):
        shapes.append(np.shape(a))
        return real(a, b)

    monkeypatch.setattr(np.linalg, "solve", recorded)
    _, info = solve_qcqp(_zero_budget_drop_qcqp())
    assert shapes and all(len(shape) == 2 for shape in shapes)
    assert info["linear_solves"] == len(shapes)
    assert len(shapes) == info["newton_accepted"] + info["newton_rejected"]


def _assert_solved_like(w_rue, info, want):
    """The solve met both stopping tolerances, and its RUE beams are within
    sqrt(GAP_TOL) of ``want`` relative: the gap test bounds how far the
    objective is from its optimum, and on a strongly convex objective that
    moves the minimizer by about the square root."""
    assert info["violation"] <= 1e-6 and info["gap"] <= beamforming.GAP_TOL
    bound = math.sqrt(beamforming.GAP_TOL) * np.linalg.norm(want)
    assert np.linalg.norm(w_rue - want) <= bound


def test_warm_start_near_the_optimum_makes_no_coordinate_pass():
    """Re-solving the (32, 100) drop's first QCQP from its own multipliers
    makes no update; from those multipliers moved by 10% either way,
    projected Newton alone finishes the solve, with no coordinate pass."""
    problem = _first_qcqp(32, 100)[1]
    (want, _), cold = solve_qcqp(problem)
    for scale in (1.0, 0.9, 1.1):
        (w_rue, _), info = solve_qcqp(problem, mu0=scale * cold["rrh_dual"], nu0=cold["mbs_dual"])
        assert info["coordinate_passes"] == 0
        assert (info["newton_accepted"] > 0) == (scale != 1.0) == (info["dual_iterations"] > 0)
        _assert_solved_like(w_rue, info, want)


def test_sweeps_finish_the_solve_when_every_newton_step_is_rejected(monkeypatch):
    """With no step halving allowed every projected Newton step is rejected,
    so coordinate sweeps alone must finish the (8, 25) drop's first QCQP:
    from a cold start, and from its multipliers moved by 10% (where Newton
    goes first), within both tolerances of the default solve."""
    problem = _first_qcqp(8, 25)[1]
    (want, _), default = solve_qcqp(problem)
    monkeypatch.setattr(beamforming, "NEWTON_BACKTRACKS", 0)
    for mu0, nu0 in ((None, None), (1.1 * default["rrh_dual"], default["mbs_dual"])):
        (w_rue, _), info = solve_qcqp(problem, mu0=mu0, nu0=nu0)
        assert info["newton_accepted"] == 0 < info["newton_rejected"]
        assert info["coordinate_passes"] > 0
        _assert_solved_like(w_rue, info, want)


def _recorded_solves(monkeypatch) -> list:
    """The (beams, info) of every ``solve_qcqp`` call, in order."""
    calls = []
    real = beamforming.solve_qcqp

    def recorded(*args, **kwargs):
        calls.append(real(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(beamforming, "solve_qcqp", recorded)
    return calls


def test_the_cold_start_opens_with_newton_on_the_large_drop(monkeypatch):
    """Perf guard: in the design of the (32, 100) drop at master seed 0 the
    first QCQP starts cold (all multipliers 0) and opens with projected
    Newton, every free row solving p^{-1/2} = cap^{-1/2}; it takes at most 4
    accepted steps, where Newton on p - cap below the caps took 10 (halving
    its way onto a cap a full step overshot) and, with an opening sweep, 26.
    In every QCQP a sweep runs only after a rejected step, and each sweep
    updates an active RRH at most once."""
    calls = _recorded_solves(monkeypatch)
    topology, _, _, links, training = pipeline_instance(
        scenario=ScenarioConfig(num_ue=32, num_rrh=100)
    )
    _, st = rtd_solve(topology, links, training, BUDGETS)
    num_active = stack_layout(links, BUDGETS).active.size
    infos = [info for _, info in calls]
    assert st.iterations == len(infos) > 1
    assert 0 < infos[0]["newton_accepted"] <= 4
    for info in infos:
        assert info["coordinate_passes"] <= num_active * info["newton_rejected"]


@pytest.mark.parametrize("num_ue, num_rrh", [(8, 25), (16, 50)])
def test_the_smaller_drops_are_designed_by_newton_alone(num_ue, num_rrh):
    """Perf guard: the designs of the (8, 25) and (16, 50) drops at master
    seed 0 make no coordinate pass. Read on p - cap below the caps, the
    at-bound test sent near-singular multipliers to 0 (their power then rose
    about 1e8-fold), every backtrack failed and sweeps ran: 33 passes at
    (16, 50)."""
    topology, _, _, links, training = pipeline_instance(
        scenario=ScenarioConfig(num_ue=num_ue, num_rrh=num_rrh)
    )
    _, st = rtd_solve(topology, links, training, BUDGETS)
    assert st.counters["newton_accepted"] > 0
    assert st.counters["coordinate_passes"] == st.counters["newton_rejected"] == 0


def test_warm_solves_of_the_large_drop_take_few_newton_steps(monkeypatch):
    """Perf guard: in the design of the (32, 100) drop at master seed 0 no
    QCQP from the third RTD iteration on takes more than 8 accepted Newton
    steps. A multiplier counts as at its bound only when its own scaled
    gradient step reaches zero; with one eps for all of them (the length of
    the whole scaled projected-gradient step) settled multipliers took
    gradient steps the Newton block did not see, and the no-new-overshoot
    guard then held warm solves to runs of half steps, up to 25 per QCQP."""
    calls = _recorded_solves(monkeypatch)
    topology, _, _, links, training = pipeline_instance(
        scenario=ScenarioConfig(num_ue=32, num_rrh=100)
    )
    _, st = rtd_solve(topology, links, training, BUDGETS)
    steps = [info["newton_accepted"] for _, info in calls]
    assert st.iterations == len(steps) > 2
    assert max(steps[2:]) <= 8


def test_solver_multipliers_reproduce_its_beams():
    """At the returned multipliers, every live RRH's secular power equals its
    power in the returned beams, active caps are met, zero-budget RRHs carry
    nothing, the RUE beams are the dense solve's at those multipliers and
    each BUE beam is (Q + nu I)^{-1} b; on synthetic problems and on an
    assembled drop whose users span very different widths."""
    rng = child_rng(31, 9)
    problems = [make_synthetic_qcqp(rng, zero_cap_chance=0.25)[0] for _ in range(8)]
    for problem in problems + [_zero_budget_drop_qcqp()]:
        layout = problem.layout
        (w_rue, w_bue), info = solve_qcqp(problem)
        beams = layout.beams(w_rue, w_bue)
        mu = info["rrh_dual"][layout.active]
        want = dense_rrh_beams(problem, mu)
        assert np.linalg.norm(w_rue - want) <= 1e-9 * max(np.linalg.norm(want), 1e-300)
        basis = _Eigenbasis(problem)
        for k, cap in enumerate(layout.rrh_budget):
            if cap == 0.0:
                assert info["rrh_dual"][k] == 0.0 and beams.rrh_power(k) == 0.0
        for a, (users, pos) in enumerate(layout.users_of):
            k, cap = layout.active[a], layout.rrh_budget[layout.active[a]]
            lam, coef = basis.schur(basis.coupling(mu), users, pos)
            assert _secular_power(lam, coef, mu[a]) == pytest.approx(beams.rrh_power(k), rel=1e-7)
            if mu[a] > 0.0:
                assert beams.rrh_power(k) == pytest.approx(cap, rel=1e-6)
        spec = unpack_qcqp(problem)
        nu = info["mbs_dual"]
        for j, quad in spec.quad_bue.items():
            want = np.linalg.solve(quad + nu * np.eye(quad.shape[0]), spec.lin_bue[j])
            assert np.allclose(beams.mbs[j], want, rtol=1e-9, atol=1e-12)


def test_rtd_builds_the_stack_layout_once(monkeypatch):
    """Clusters and budgets are fixed for a design, so its stack layout is
    built once, not once per QCQP."""
    calls = []
    real = beamforming.stack_layout
    monkeypatch.setattr(
        beamforming, "stack_layout", lambda *args: calls.append(args) or real(*args)
    )
    topology, _, _, links, training = pipeline_instance(r=0)
    _, st = rtd_solve(topology, links, training, BUDGETS)
    assert st.iterations > 1 and len(calls) == 1


@pytest.mark.parametrize("start", [None, 2.0, 10.0, 100.0])
def test_single_coordinate_update_lands_on_the_cap(monkeypatch, start):
    """RRH 0 serves one user whose other block is nearly free (RRH 1: error
    variance 1e-4 against a unit estimate, and a huge budget), so
    eliminating it shrinks the target to c = lin g_0 / (1 + w8 R), R about
    1e4, and the Schur complement S = G_0 - rho |g_0|^2 to about 1% of
    G_0 = 1.01. The exact multiplier |c| / sqrt(cap) - S (about 0.09) lies
    far from the 999 that the block without elimination gives. RRH 0's power
    is then one secular term |c|^2 / (S + mu)^2 in its multiplier, so
    p^{-1/2} is linear in it and one projected Newton step, with no
    rejection and no coordinate pass, puts RRH 0 on its cap: from a cold
    start (far above the cap) and from ``start`` times the exact multiplier
    (below it, where the power falls like mu^-2 and p - cap is far from
    linear). Read on p - cap below the cap, the step fell short at 2x
    (three steps, stopping 4% off the multiplier), and at 10x and 100x the
    at-bound test sent the multiplier to 0, every trial was rejected and a
    sweep ran."""
    links = hand_links([[0, 1]], np.ones((2, 1, 1)), [[1e-2], [1e-4]])
    problem = hand_qcqp(links, [1.0], [1.0], [1e-6, 1e9])
    r = 1.0 / 1e-4  # s_1 / delta_1 = 1 / (G_1 - |g_1|^2)
    c = 1.0 / (1.0 + r)
    schur = 1.01 - r / (1.0 + r)
    exact = c / 1e-3 - schur
    mu0 = None if start is None else np.array([start * exact, 0.0])
    monkeypatch.setattr(beamforming, "MAX_DUAL_ITERS", 1)
    beams, info = solved(problem, mu0=mu0)
    assert info["dual_iterations"] == info["newton_accepted"] == 1
    assert info["newton_rejected"] == info["coordinate_passes"] == 0
    assert info["rrh_dual"][0] == pytest.approx(exact, rel=1e-9)
    assert 0.05 < info["rrh_dual"][0] < 0.1
    assert info["rrh_dual"][1] == 0.0
    assert beams.rrh_power(0) == pytest.approx(1e-6, rel=1e-9)
    assert beams.rrh_power(1) < 1e9


def test_singular_user_matrix_gets_the_minimum_norm_beam():
    """Neither user has an estimate or an error at RRH 1, so its matrix G_1 is
    zero and both users' matrices stay singular at every multiplier the
    solver tries: RRH 1 carries no cost and no gain, and the beams there are
    the minimum-norm zero. User 0's block at RRH 0 costs 1 and gains 1, so
    RRH 0's cap of 0.25 sets mu_0 = 1 and halves user 0's beam; user 1's
    beam at RRH 2 stays on its slack cap. The beams match the dense
    least-squares solve at the returned multipliers."""
    est = np.zeros((3, 2, 1))
    est[0, 0], est[2, 1] = 1.0, 1.0
    links = hand_links([[0, 1], [1, 2]], est, np.zeros((3, 2)))
    problem = hand_qcqp(links, np.ones(2), np.ones(2), [0.25, 1.0, 1.0])
    layout = problem.layout
    (w_rue, w_bue), info = solve_qcqp(problem)
    beams = layout.beams(w_rue, w_bue)
    assert info["rrh_dual"][0] == pytest.approx(1.0, rel=1e-9)
    assert np.allclose(beams.rrh[0, [0, 1], 0], [0.5, 0.0], rtol=1e-9, atol=1e-12)
    assert np.allclose(beams.rrh[1, [1, 2], 0], [0.0, 1.0], rtol=1e-9, atol=1e-12)
    assert beams.rrh_power(0) == pytest.approx(0.25, rel=1e-9)
    want = dense_rrh_beams(problem, info["rrh_dual"][layout.active])
    assert np.allclose(w_rue, want, rtol=1e-9, atol=1e-12)


def test_rtd_monotone_and_stationary():
    topology, _, state, links, training = pipeline_instance(r=3)
    beams, st = rtd_solve(topology, links, training, BUDGETS)
    assert st.converged
    assert 1 <= st.iterations <= 100
    trace = st.objective_trace
    assert len(trace) == st.iterations
    for a, b in zip(trace, trace[1:]):
        assert b <= a + 1e-9 * max(1.0, abs(a))
    # the SE trace's final point is the sum of the per-UE bounds at the output
    prelog = prelog_factor(training.tau, training.coherence)
    rates = lower_bound_rates(links, beams, training.noise_power, prelog)
    assert st.sum_se_trace[-1] == pytest.approx(sum(rates.values()), rel=1e-9)
    # power feasibility of the final beams
    for k in range(topology.num_rrh):
        assert beams.rrh_power(k) <= BUDGETS.rrh * (1.0 + 1e-5)
    assert beams.mbs_power() <= BUDGETS.mbs * (1.0 + 1e-5)


def test_rtd_objective_matches_log_mse_sum():
    # after each cycle the surrogate equals sum_m log(mse_m) at refreshed stats
    topology, _, state, links, training = pipeline_instance(r=4)
    _, st = rtd_solve(topology, links, training, BUDGETS)
    assert st.objective_trace[-1] == pytest.approx(
        sum(math.log(v) for v in st.mse), rel=1e-9
    )


def test_rtd_counters_sum_the_dual_solver_info(monkeypatch):
    """On drop_small's panel drop 1 (master seed 1), whose cold QCQP rejects
    a Newton step and sweeps, the design's counters sum every QCQP's."""
    calls = _recorded_solves(monkeypatch)
    topology, _, _, links, training = pipeline_instance(
        master_seed=1, tau=5, scenario=ScenarioConfig(num_ue=8, num_rrh=25)
    )
    _, st = rtd_solve(topology, links, training, BUDGETS)
    results, infos = zip(*calls)
    assert len(infos) == st.iterations
    counters = st.counters
    assert counters["dual_updates"] == sum(info["dual_iterations"] for info in infos) > 0
    for key in beamforming.DUAL_COUNTERS:
        assert counters[key] == sum(info[key] for info in infos)
    assert 0 < counters["coordinate_passes"] < counters["dual_updates"]
    # the only linear solves are the Newton systems
    assert counters["linear_solves"] == counters["newton_accepted"] + counters["newton_rejected"]
    assert counters["newton_accepted"] > 0
    assert counters["violation"] == infos[-1]["violation"] <= 1e-6
    assert 0.0 <= counters["gap"] == infos[-1]["gap"] <= 1e-8
    assert counters["mbs_violation"] == infos[-1]["mbs_violation"] <= 1e-6
    excess = (np.sum(np.abs(results[-1][1]) ** 2) - BUDGETS.mbs) / BUDGETS.mbs
    assert counters["mbs_violation"] == pytest.approx(excess, rel=1e-12, abs=1e-15)


def _drop_config(num_ue, num_rrh, beamformer, master_seed, realizations):
    """The sweep call of a benchmark-style drop: PSA at tau 5, default
    training and budgets."""
    return ExperimentConfig(
        scenario=ScenarioConfig(num_ue=num_ue, num_rrh=num_rrh),
        sweep_name="tau",
        sweep_values=(5,),
        num_realizations=realizations,
        schedulers=("psa",),
        beamformers=(beamformer,),
        master_seed=master_seed,
    )


def test_perfect_csi_drop_whose_dual_ascent_stalled_converges():
    """(16 users, 50 RRHs), perfect CSI, master seed 0. On the QCQP of its
    second RTD iteration a full Newton step cuts the worst cap violation only
    to 0.53-0.6 of its value; a polish that demands halving rejects every
    step, and coordinate sweeps alone stall with ConvergenceError."""
    result = run_se_sweep(_drop_config(16, 50, "rtd_perfect_csi", 0, 1))
    metrics = {row[1] for row in result.rows}
    assert not any(m.startswith("failures_") for m in metrics)
    assert "sum_se_mc_psa_rtd_perfect_csi" in metrics


@pytest.mark.parametrize(
    "num_ue, num_rrh, beamformer, master_seed, realizations",
    [
        (16, 50, "rtd", 1, 8),
        (16, 50, "rtd_perfect_csi", 1, 8),
        (32, 100, "rtd", 0, 1),
    ],
)
def test_frozen_ensembles_raise_no_convergence_error(
    num_ue, num_rrh, beamformer, master_seed, realizations
):
    cfg = _drop_config(num_ue, num_rrh, beamformer, master_seed, realizations)
    rows = {row[1]: row for row in run_se_sweep(cfg).rows}
    assert not [m for m in rows if m.startswith("failures_")]
    assert rows[f"converged_psa_{beamformer}"][4] == realizations


# The QCQP on which the non-robust design (RTD on links whose variances are
# zeroed) stalled at commit 20690ab: (8, 25) drop r = 6 at master seed 3,
# tau = 3, violation 1.324e-6 after 5,005 multiplier updates. The equalizers
# f and auxiliaries u it was posed at (by UE id), and the warm start the
# design passed it (mu0 by RRH id, zero elsewhere; nu0), as captured there.
STALL_F = np.array([
    90181.73535316305 + 3.4471574181140826e-12j,
    1403.6143519285336 + 0.0j,
    100208.54411083226 + 5.188323886811622e-12j,
    53041.21707539806 - 2.4842939477480436e-12j,
    512656.0010371304 - 1.2376718376815237e-11j,
    1901.2237885167663 + 1.4696305698245638e-13j,
    5057.420277989008 - 1.7332032408535162e-13j,
    1222.988733252725 - 4.05410748747563e-14j,
])
STALL_U = np.array([
    8.113627550452755, 16.439994274426745, 2.713110099865105, 4.199891697482494,
    1.8257154125501174, 15.83309973339519, 13.876380039579965, 16.715500212833625,
])
STALL_MU0 = {
    0: 0.0003944427360566959,
    6: 3.670930574170137e-05,
    7: 0.001036133071492078,
    9: 1.277595033091972e-05,
    11: 0.0015934206362892965,
    13: 0.0014205044300319852,
    16: 2.2106651644822695e-05,
}
STALL_NU0 = 2.7360558884729202e-05


def test_the_qcqp_that_once_stalled_converges_cold_and_warm():
    """The non-robust design's stalled QCQP, rebuilt on this drop's links
    (whose estimates are those it was posed on, bit for bit) with their
    variances zeroed, converges within both tolerances from a cold start and
    from the captured warm start, and both solves give the same beams."""
    topology, _, _, links, _ = pipeline_instance(
        r=6, master_seed=3, scenario=ScenarioConfig(), training=TrainingConfig(tau=3)
    )
    links = dataclasses.replace(
        links, var_rrh=np.zeros_like(links.var_rrh), var_mbs=np.zeros_like(links.var_mbs)
    )
    problem = assemble_qcqp(links, STALL_F, STALL_U, stack_layout(links, BUDGETS))
    mu0 = np.zeros(topology.num_rrh)
    mu0[list(STALL_MU0)] = list(STALL_MU0.values())
    (want, _), cold = solve_qcqp(problem)
    (w_rue, _), warm = solve_qcqp(problem, mu0=mu0, nu0=STALL_NU0)
    assert cold["violation"] <= 1e-6 and cold["gap"] <= beamforming.GAP_TOL
    assert max(cold["mbs_violation"], warm["mbs_violation"]) <= 1e-6
    _assert_solved_like(w_rue, warm, want)
