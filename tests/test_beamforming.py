"""Equalizer/auxiliary updates, the beamformer QCQP, and the alternating design."""

import math

import numpy as np
import pytest

from hcransim import (
    BeamformerSet,
    ConvergenceError,
    PowerBudget,
    QcqpProblem,
    assemble_qcqp,
    interference_plus_noise,
    lower_bound_rates,
    mse_and_equalizer,
    prelog_factor,
    qcqp_objective,
    rtd_solve,
    solve_qcqp,
    total_beam_diff,
    update_u,
    zero_beams,
)
from hcransim.beamforming import _Secular
from hcransim.util import child_rng, crandn, dbm_to_watt

from helpers import make_synthetic_qcqp, pipeline_instance
from oracles import golden_min, pgd_qcqp_oracle, qcqp_value

BUDGETS = PowerBudget(rrh=dbm_to_watt(27.0), mbs=dbm_to_watt(30.0))


def test_power_budget_and_beam_container_mechanics():
    assert np.array_equal(PowerBudget(rrh=2.0, mbs=5.0).rrh_array(3), [2.0, 2.0, 2.0])
    assert np.array_equal(PowerBudget(rrh=np.array([1.0, 2.0]), mbs=5.0).rrh_array(2), [1.0, 2.0])
    with pytest.raises(ValueError):
        PowerBudget(rrh=-1.0, mbs=1.0).rrh_array(2)
    with pytest.raises(ValueError):
        PowerBudget(rrh=np.array([1.0, 2.0]), mbs=1.0).rrh_array(3)
    beams = BeamformerSet(
        rue={0: np.array([1.0 + 0j, 0.0, 0.0, 2.0]), 1: np.array([0.0, 3.0 + 0j])},
        bue={7: np.array([0.0, 1.0 + 1.0j])},
        block_rrhs={0: [2, 5], 1: [5]},
        block_size=2,
    )
    assert np.array_equal(beams.block(0, 5), [0.0, 2.0])
    assert beams.rrh_power(2) == 1.0
    assert beams.rrh_power(5) == 4.0 + 9.0    # UE0's second block + UE1's block
    assert beams.rrh_power(3) == 0.0
    assert beams.mbs_power() == pytest.approx(2.0, rel=1e-15)
    other = beams.copy()
    other.rue[0][0] += 1.0       # copies are deep
    assert beams.rue[0][0] == 1.0
    assert total_beam_diff(other, beams) == 1.0


def test_mse_and_equalizer_frozen_point():
    mse, f = mse_and_equalizer(np.array([1.0 + 0j]), np.array([1.0 + 0j]), 1.0)
    assert f == pytest.approx(0.5)
    assert mse == pytest.approx(0.5)
    with pytest.raises(ValueError):
        mse_and_equalizer(np.array([1.0 + 0j]), np.array([1.0 + 0j]), 0.0)


def test_equalizer_minimizes_the_mse():
    rng = child_rng(31, 0)
    g = crandn(rng, 4)
    w = crandn(rng, 4)
    j_power = float(rng.uniform(0.1, 2.0))
    a = complex(np.vdot(g, w))

    def mse_of(f):
        return abs(np.conj(f) * a - 1.0) ** 2 + abs(f) ** 2 * j_power

    mse, f_opt = mse_and_equalizer(g, w, j_power)
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
        mse, _ = mse_and_equalizer(g, w, j_power)
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
    lin = np.array([3.0 + 0j, 4.0 + 0j])
    base = dict(
        quad_bue={}, lin_bue={}, block_rrhs={0: [0]}, block_size=2, mbs_budget=1.0,
    )
    loose = QcqpProblem(
        quad_rue={0: np.eye(2, dtype=complex)}, lin_rue={0: lin},
        rrh_budget=np.array([36.0]), **base,
    )
    beams = solve_qcqp(loose)
    assert np.allclose(beams.rue[0], lin, rtol=1e-8)
    tight = QcqpProblem(
        quad_rue={0: np.eye(2, dtype=complex)}, lin_rue={0: lin},
        rrh_budget=np.array([16.0]), **base,
    )
    beams = solve_qcqp(tight)
    assert np.allclose(beams.rue[0], [2.4, 3.2], rtol=1e-6)
    # the active constraint is met to the solver's feasibility tolerance
    assert beams.rrh_power(0) == pytest.approx(16.0, rel=2e-6)
    # MBS side, one BUE: same projection behaviour
    mbs = QcqpProblem(
        quad_rue={}, lin_rue={}, quad_bue={5: np.eye(2, dtype=complex)},
        lin_bue={5: lin}, block_rrhs={}, block_size=2,
        rrh_budget=np.zeros(0), mbs_budget=16.0,
    )
    beams = solve_qcqp(mbs)
    assert np.allclose(beams.bue[5], [2.4, 3.2], rtol=1e-6)
    zero_lin = QcqpProblem(
        quad_rue={0: np.eye(2, dtype=complex)}, lin_rue={0: np.zeros(2, dtype=complex)},
        rrh_budget=np.array([4.0]), **base,
    )
    assert np.all(solve_qcqp(zero_lin).rue[0] == 0.0)


def test_qcqp_zero_budget_pins_beams():
    rng = child_rng(31, 2)
    problem, *_ = make_synthetic_qcqp(rng, zero_cap_chance=1.0)
    beams = solve_qcqp(problem)
    for i in problem.quad_rue:
        assert np.all(beams.rue[i] == 0.0)


def test_assembled_qcqp_equals_weighted_mse_up_to_constant():
    """For arbitrary beams, equalizers, and auxiliaries, the assembled
    quadratic objective plus its documented constant reproduces
    sum_m exp(u_m - 1) * mse_m."""
    topology, _, state, links, training = pipeline_instance(r=2)
    rng = child_rng(31, 3)
    ids = links.rue_ids + links.bue_ids
    f = {m: complex(*rng.normal(scale=2.0, size=2)) for m in ids}
    u = {m: float(rng.uniform(0.2, 3.0)) for m in ids}
    problem = assemble_qcqp(links, f, u, BUDGETS, topology)
    beams = zero_beams(links)
    for i in links.rue_ids:
        beams.rue[i] = 1e-5 * crandn(rng, links.dim(i))
    for j in links.bue_ids:
        beams.bue[j] = 1e-5 * crandn(rng, links.mbs_antennas)

    j_rue, j_bue = interference_plus_noise(links, beams, training.noise_power)
    weighted = 0.0
    for i in links.rue_ids:
        a = complex(np.vdot(links.g_hat[i], beams.rue[i]))
        weighted += math.exp(u[i] - 1.0) * (
            abs(np.conj(f[i]) * a - 1.0) ** 2 + abs(f[i]) ** 2 * j_rue[i])
    for j in links.bue_ids:
        a = complex(np.vdot(links.bue_est[j], beams.bue[j]))
        weighted += math.exp(u[j] - 1.0) * (
            abs(np.conj(f[j]) * a - 1.0) ** 2 + abs(f[j]) ** 2 * j_bue[j])
    constant = sum(
        math.exp(u[m] - 1.0) * (1.0 + abs(f[m]) ** 2 * training.noise_power) for m in ids
    )
    assert qcqp_objective(problem, beams) + constant == pytest.approx(weighted, rel=1e-9)


def test_solve_qcqp_respects_constraints_and_weak_duality():
    rng = child_rng(31, 4)
    for trial in range(6):
        problem, quads, lins, groups, caps = make_synthetic_qcqp(rng)
        beams, info = solve_qcqp(problem, return_info=True)
        for name, members in groups.items():
            power = sum(
                float(np.sum(np.abs((beams.rue | beams.bue)[m][idx]) ** 2))
                for m, idx in members
            )
            assert power <= caps[name] * (1.0 + 1e-6) + 1e-15
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


def test_solve_qcqp_matches_projected_gradient_oracle():
    rng = child_rng(31, 5)
    for trial in range(4):
        problem, quads, lins, groups, caps = make_synthetic_qcqp(rng)
        _, info = solve_qcqp(problem, return_info=True)
        w = pgd_qcqp_oracle(quads, lins, groups, caps, iters=6000)
        reference = qcqp_value(quads, lins, w)
        assert info["primal_value"] == pytest.approx(reference, rel=1e-6)


def test_solve_qcqp_exhausted_iterations_raises():
    rng = child_rng(31, 6)
    problem, *_ = make_synthetic_qcqp(rng)
    with pytest.raises(ConvergenceError):
        solve_qcqp(problem, max_dual_iters=0)


def _block_power(mat, rhs, off, n, x):
    shifted = mat.copy()
    shifted[off:off + n, off:off + n] += x * np.eye(n)
    w = np.linalg.solve(shifted, rhs)
    return w, float(np.sum(np.abs(w[off:off + n]) ** 2))


def _secular_power(parts, x):
    return sum(float(np.sum(np.abs(s.coef) ** 2 / (s.lam + x) ** 2)) for s in parts)


def _rrh_block_system(quad, cluster, budget, mu, k, n):
    """A user's matrix as the RRH-side solver sees it when it updates RRH k:
    zero-budget blocks dropped, every other live block shifted by its
    multiplier. Returns (matrix, kept-entry mask, offset of k's block)."""
    live = [r for r in cluster if budget[r] > 0]
    mask = np.repeat([budget[r] > 0 for r in cluster], n)
    mat = quad[np.ix_(mask, mask)].astype(complex)
    for pos, r in enumerate(live):
        if r != k:
            mat[pos * n:(pos + 1) * n, pos * n:(pos + 1) * n] += mu[r] * np.eye(n)
    return mat, mask, n * live.index(k)


def test_secular_power_matches_direct_solve():
    """The Schur-complement secular function of RRH k's multiplier equals the
    block power of a direct solve at every x, on a field where one RRH is
    shared by three users, users hold one to three blocks, one user has a
    zero linear term, one a rank-one matrix, and one RRH has a zero budget."""
    rng = child_rng(31, 7)
    n = 2
    clusters = {0: [1], 1: [0, 1], 2: [1, 2, 3], 3: [1, 3], 4: [0, 3]}
    budget = np.array([1.0, 1.0, 0.0, 1.0])
    quads, lins = {}, {}
    for i, cluster in clusters.items():
        dim = n * len(cluster)
        a = crandn(rng, 1 if i == 4 else dim + 1, dim)
        quads[i] = a.conj().T @ a
        lins[i] = np.zeros(dim, dtype=complex) if i == 3 else crandn(rng, dim)
    mu = {k: float(rng.uniform(0.1, 2.0)) for k in range(4)}
    for k in (0, 1, 3):
        for x in (0.05, 0.3, 1.0, 7.0):
            parts, direct = [], 0.0
            for i, cluster in clusters.items():
                if k not in cluster:
                    continue
                mat, mask, off = _rrh_block_system(quads[i], cluster, budget, mu, k, n)
                part = _Secular.of(mat, lins[i][mask], off, n)
                w, power = _block_power(mat, lins[i][mask], off, n, x)
                assert np.allclose(part.solution(x), w, rtol=1e-9, atol=1e-12)
                parts.append(part)
                direct += power
            assert _secular_power(parts, x) == pytest.approx(direct, rel=1e-9)
    # MBS side: the whole beam is the block, nothing is eliminated.
    b_ant = 3
    parts, vecs = [], []
    for j in range(3):
        a = crandn(rng, b_ant + 1, b_ant)
        quad = a.conj().T @ a
        lin = np.zeros(b_ant, dtype=complex) if j == 2 else crandn(rng, b_ant)
        parts.append(_Secular.of(quad, lin, 0, b_ant))
        vecs.append((quad, lin))
    for nu in (0.0, 0.2, 3.0):
        direct = 0.0
        for part, (quad, lin) in zip(parts, vecs):
            w, power = _block_power(quad, lin, 0, b_ant, nu)
            assert np.allclose(part.solution(nu), w, rtol=1e-9, atol=1e-12)
            direct += power
        assert _secular_power(parts, nu) == pytest.approx(direct, rel=1e-9)


def test_solver_multipliers_reproduce_its_beams():
    """At the returned multipliers, every live RRH's secular power equals its
    power in the returned beams, active caps are met, zero-budget RRHs carry
    nothing, and each BUE beam is (Q + nu I)^{-1} b."""
    rng = child_rng(31, 9)
    for _ in range(8):
        problem, *_ = make_synthetic_qcqp(rng, zero_cap_chance=0.25)
        beams, info = solve_qcqp(problem, return_info=True)
        mu, n = info["rrh_dual"], problem.block_size
        for k, cap in enumerate(problem.rrh_budget):
            users = [i for i, c in problem.block_rrhs.items() if k in c]
            if not users:
                continue
            if cap == 0.0:
                assert k not in mu and beams.rrh_power(k) == 0.0
                continue
            parts = []
            for i in users:
                mat, mask, off = _rrh_block_system(
                    problem.quad_rue[i], problem.block_rrhs[i], problem.rrh_budget, mu, k, n
                )
                parts.append(_Secular.of(mat, problem.lin_rue[i][mask], off, n))
            assert _secular_power(parts, mu[k]) == pytest.approx(beams.rrh_power(k), rel=1e-7)
            if mu[k] > 0.0:
                assert beams.rrh_power(k) == pytest.approx(cap, rel=1e-6)
        nu = info["mbs_dual"]
        for j, quad in problem.quad_bue.items():
            want = np.linalg.solve(quad + nu * np.eye(quad.shape[0]), problem.lin_bue[j])
            assert np.allclose(beams.bue[j], want, rtol=1e-9, atol=1e-12)


def test_single_coordinate_update_lands_on_the_cap():
    """RRH 0 serves one user whose other block is nearly singular, so the
    eliminated target c = b_0 - F_01 b_1 / F_11 is 99 times longer than the
    whole linear term. The exact multiplier (about 99) lies far above
    ||b|| / sqrt(cap) = 1, a bound that assumes F + D >= mu_0 I; the secular
    bracket holds it, and one coordinate update puts RRH 0 on its cap."""
    f01, f11 = 0.0099, 1e-4
    problem = QcqpProblem(
        quad_rue={0: np.array([[1.0, f01], [f01, f11]], dtype=complex)},
        lin_rue={0: np.array([0.0, 1.0], dtype=complex)},
        quad_bue={}, lin_bue={}, block_rrhs={0: [0, 1]}, block_size=1,
        rrh_budget=np.array([1.0, 1e9]), mbs_budget=1.0,
    )
    beams, info = solve_qcqp(problem, max_dual_iters=1, return_info=True)
    assert info["dual_iterations"] == 1
    assert info["rrh_dual"][0] > 90.0 * np.linalg.norm(problem.lin_rue[0])
    assert info["rrh_dual"][1] == 0.0
    assert beams.rrh_power(0) == pytest.approx(1.0, rel=1e-6)
    assert beams.rrh_power(1) < 1e9


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
        sum(math.log(v) for v in st.mse.values()), rel=1e-9
    )


def test_rtd_distributed_matches_centralized_exactly():
    topology, _, state, links, training = pipeline_instance(r=5)
    beams_c, st_c = rtd_solve(topology, links, training, BUDGETS,
                              mode="centralized", keep_beam_history=True)
    beams_d, st_d = rtd_solve(topology, links, training, BUDGETS,
                              mode="distributed", keep_beam_history=True)
    assert st_c.iterations == st_d.iterations
    assert st_c.objective_trace == st_d.objective_trace
    assert len(st_c.beam_history) == st_c.iterations
    for hc, hd in zip(st_c.beam_history, st_d.beam_history):
        assert total_beam_diff(hc, hd) == 0.0
    assert total_beam_diff(beams_c, beams_d) == 0.0
    assert total_beam_diff(beams_c, st_c.beam_history[-1]) == 0.0


def test_rtd_mode_validation():
    topology, _, state, links, training = pipeline_instance(r=0)
    with pytest.raises(ValueError):
        rtd_solve(topology, links, training, BUDGETS, mode="sideways")
