"""Equalizer/auxiliary updates, the beamformer QCQP, and the alternating design."""

import math

import numpy as np
import pytest

from hcransim import (
    BeamformerSet,
    ConvergenceError,
    ExperimentConfig,
    PowerBudget,
    ScenarioConfig,
    assemble_qcqp,
    interference_plus_noise,
    lower_bound_rates,
    mse_and_equalizer,
    prelog_factor,
    qcqp_objective,
    rtd_solve,
    run_se_sweep,
    solve_qcqp,
    stack_layout,
    update_u,
)
from hcransim import beamforming
from hcransim.beamforming import _block_secular, _solve_mbs_side
from hcransim.util import crandn, dbm_to_watt

from helpers import (
    beams_equal,
    child_rng,
    group_power,
    make_synthetic_qcqp,
    pack_qcqp,
    pipeline_instance,
    random_beams,
    solved,
    unpack_qcqp,
)
from oracles import (
    assemble_qcqp_oracle,
    golden_min,
    has_shared_rrh_pair,
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
    mse, f = mse_and_equalizer(np.array([1.0 + 0j]), np.array([1.0 + 0j]), 1.0)
    assert f == pytest.approx(0.5)
    assert mse == pytest.approx(0.5)
    with pytest.raises(ValueError):
        mse_and_equalizer(np.array([1.0 + 0j]), np.array([1.0 + 0j]), 0.0)


def test_mse_and_u_updates_on_arrays_match_the_scalar_results():
    """One call on a stack of UEs gives each UE's scalar result exactly, and
    one nonpositive entry still raises."""
    rng = child_rng(31, 10)
    g, w = crandn(rng, 6, 4), crandn(rng, 6, 4)
    j_power = rng.uniform(0.1, 2.0, size=6)
    mse, f = mse_and_equalizer(g, w, j_power)
    u = update_u(mse)
    assert mse.shape == f.shape == u.shape == (6,)
    for m in range(6):
        mse_m, f_m = mse_and_equalizer(g[m], w[m], j_power[m])
        assert (mse[m], f[m], u[m]) == (mse_m, f_m, update_u(mse_m))
    with pytest.raises(ValueError):
        mse_and_equalizer(g, w, np.where(np.arange(6) == 3, 0.0, j_power))
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
    loose = pack_qcqp(
        quad_rue={0: np.eye(2, dtype=complex)}, lin_rue={0: lin},
        rrh_budget=np.array([36.0]), **base,
    )
    beams, _ = solved(loose)
    assert np.allclose(beams.rrh[0, 0], lin, rtol=1e-8)
    tight = pack_qcqp(
        quad_rue={0: np.eye(2, dtype=complex)}, lin_rue={0: lin},
        rrh_budget=np.array([16.0]), **base,
    )
    beams, _ = solved(tight)
    assert np.allclose(beams.rrh[0, 0], [2.4, 3.2], rtol=1e-6)
    # the active constraint is met to the solver's feasibility tolerance
    assert beams.rrh_power(0) == pytest.approx(16.0, rel=2e-6)
    # MBS side, one BUE: same projection behaviour
    mbs = pack_qcqp(
        quad_rue={}, lin_rue={}, quad_bue={0: np.eye(2, dtype=complex)},
        lin_bue={0: lin}, block_rrhs={}, block_size=2,
        rrh_budget=np.zeros(1), mbs_budget=16.0,
    )
    beams, _ = solved(mbs)
    assert np.allclose(beams.mbs[0], [2.4, 3.2], rtol=1e-6)
    zero_lin = pack_qcqp(
        quad_rue={0: np.eye(2, dtype=complex)}, lin_rue={0: np.zeros(2, dtype=complex)},
        rrh_budget=np.array([4.0]), **base,
    )
    assert np.all(solved(zero_lin)[0].rrh[0, 0] == 0.0)


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
        a = complex(np.vdot(links.estimate(m), w))
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
    live submatrix and linear term of the per-UE reference assembly, and the
    MBS terms are its shared matrix and per-BUE linear terms, to 1e-15
    relative."""
    topology, links, _, budget, _ = _overlap_drop()
    clusters, bues = _clusters(topology), topology.bue_set
    rng = child_rng(31, 11)
    f, u = crandn(rng, topology.num_ue), rng.uniform(0.2, 3.0, size=topology.num_ue)
    layout = stack_layout(links, PowerBudget(rrh=budget, mbs=BUDGETS.mbs))
    problem = assemble_qcqp(links, f, u, layout)
    quad, lin = assemble_qcqp_oracle(links, f, u)
    reference = pack_qcqp(
        {i: quad[i] for i in clusters}, {i: lin[i] for i in clusters},
        {j: quad[j] for j in bues}, {j: lin[j] for j in bues},
        clusters, links.block_size, budget, BUDGETS.mbs,
    )
    assert np.array_equal(layout.starts, reference.layout.starts)
    assert problem.mbs_quad.shape == (links.mbs_antennas,) * 2 and len(bues) == 3
    pairs = list(zip(problem.base, reference.base)) + list(zip(problem.rhs, reference.rhs))
    pairs += [(problem.mbs_quad, want) for want in reference.mbs_quad]
    pairs += list(zip(problem.mbs_lin, reference.mbs_lin))
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
    n = links.block_size
    per_rrh = np.zeros(topology.num_rrh)
    for i, cluster in clusters.items():
        for block, k in zip(stacked_beam(beams, topology, i).reshape(-1, n), cluster):
            per_rrh[k] += float(np.sum(np.abs(block) ** 2))
    for k in range(topology.num_rrh):
        assert beams.rrh_power(k) == pytest.approx(per_rrh[k], rel=1e-12, abs=0)
    mbs = sum(float(np.sum(np.abs(stacked_beam(beams, topology, j)) ** 2)) for j in bues)
    assert beams.mbs_power() == pytest.approx(mbs, rel=1e-12, abs=0)


def test_mbs_side_takes_the_shared_matrix_or_its_copies():
    """The MBS solve gives the same beams and multiplier for the one (B, B)
    matrix all BUEs share as for its explicit (J, B, B) copies, with the
    budget slack and binding."""
    _, problem = _first_qcqp(16, 50)
    quad, lin = problem.mbs_quad, problem.mbs_lin
    assert quad.ndim == 2 and len(lin) > 1
    copies = np.repeat(quad[None], len(lin), axis=0)
    power = float(np.sum(np.abs(np.linalg.solve(quad, lin.T)) ** 2))
    for budget, binding in ((2.0 * power, False), (0.25 * power, True)):
        beams, nu, value = _solve_mbs_side(quad, lin, budget, 1e-6, 1e-8)
        assert (nu > 0.0) == binding
        beams_1, nu_1, value_1 = _solve_mbs_side(copies, lin, budget, 1e-6, 1e-8)
        assert np.array_equal(beams, beams_1) and (nu, value) == (nu_1, value_1)


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
    rng = child_rng(31, 6)
    problem, *_ = make_synthetic_qcqp(rng)
    monkeypatch.setattr(beamforming, "MAX_DUAL_ITERS", 0)
    with pytest.raises(ConvergenceError):
        solve_qcqp(problem)


def _block_power(mat, rhs, off, n, x):
    shifted = mat.copy()
    shifted[off:off + n, off:off + n] += x * np.eye(n)
    w = np.linalg.solve(shifted, rhs)
    return w, float(np.sum(np.abs(w[off:off + n]) ** 2))


def _secular_power(lam, coef, x):
    return float(np.sum(np.abs(coef) ** 2 / (lam + x) ** 2))


def _padded(systems, width):
    """Stack (matrix, rhs) pairs padded to ``width`` entries with identity rows
    and zero right-hand sides, as the RRH-side solver pads its users."""
    mats = np.tile(np.eye(width, dtype=complex), (len(systems), 1, 1))
    rhs = np.zeros((len(systems), width), dtype=complex)
    for u, (mat, b) in enumerate(systems):
        mats[u, :b.shape[0], :b.shape[0]] = mat
        rhs[u, :b.shape[0]] = b
    return mats, rhs


def _rrh_block_stack(quads, lins, clusters, budget, mu, k, n, width):
    """RRH k's coordinate-update stack as the RRH-side solver sees it: each
    user RRH k serves, zero-budget blocks dropped, every other live block
    shifted by its multiplier, padded to ``width`` entries. Returns (matrices,
    right-hand sides, block positions of k, unpadded widths)."""
    systems, pos = [], []
    for i, cluster in clusters.items():
        if k not in cluster:
            continue
        live = [r for r in cluster if budget[r] > 0]
        mask = np.repeat([budget[r] > 0 for r in cluster], n)
        mat = quads[i][np.ix_(mask, mask)].astype(complex)
        for p, r in enumerate(live):
            if r != k:
                mat[p * n:(p + 1) * n, p * n:(p + 1) * n] += mu[r] * np.eye(n)
        systems.append((mat, lins[i][mask]))
        pos.append(live.index(k))
    mats, rhs = _padded(systems, width)
    return mats, rhs, np.array(pos), [b.shape[0] for _, b in systems]


def _assert_stack_matches_direct(mats, rhs, pos, dims, n, xs):
    """``_block_secular`` of the stack gives each member's unpadded direct
    solve, exact zeros on its padding, and the summed block power."""
    counts = {"linear_solves": 0}
    lam, coef, solution = _block_secular(mats, rhs, pos, n, counts)
    assert counts["linear_solves"] == 1
    for x in xs:
        w, direct = solution(x), 0.0
        for u, d in enumerate(dims):
            want, power = _block_power(mats[u, :d, :d], rhs[u, :d], pos[u] * n, n, x)
            assert np.allclose(w[u, :d], want, rtol=1e-9, atol=1e-12)
            assert not np.any(w[u, d:])
            direct += power
        assert _secular_power(lam, coef, x) == pytest.approx(direct, rel=1e-9)


def test_secular_power_matches_direct_solve():
    """The Schur-complement secular function of RRH k's multiplier equals the
    block power of a direct solve at every x, on a field where one RRH is
    shared by three users, users hold one to three blocks, one user has a
    zero linear term, one a rank-one matrix, and one RRH has a zero budget;
    each RRH's users form one stack padded to the widest user's entries."""
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
        stack = _rrh_block_stack(quads, lins, clusters, budget, mu, k, n, width=2 * n)
        _assert_stack_matches_direct(*stack, n, xs=(0.05, 0.3, 1.0, 7.0))
    # A block that is the whole beam: nothing is eliminated.
    b_ant = 3
    systems = []
    for j in range(3):
        a = crandn(rng, b_ant + 1, b_ant)
        lin = np.zeros(b_ant, dtype=complex) if j == 2 else crandn(rng, b_ant)
        systems.append((a.conj().T @ a, lin))
    mats, rhs = _padded(systems, b_ant)
    _assert_stack_matches_direct(mats, rhs, np.zeros(3, dtype=int), [b_ant] * 3, b_ant,
                                 xs=(0.0, 0.2, 3.0))


@pytest.mark.parametrize(
    "clusters",
    [
        # one to three blocks, RRH 4's first, in the middle and last; the
        # padding after it is eliminated with the other entries
        {0: [4], 1: [1, 4], 2: [4, 2], 3: [0, 4, 3], 4: [4, 3]},
        # every member a single block, so the stack is n wide and the
        # elimination solve is (U, 0, 0)
        {0: [4], 1: [4], 2: [4]},
    ],
    ids=["mixed_widths", "single_blocks"],
)
def test_block_secular_on_padded_stacks(clusters):
    rng = child_rng(31, 8)
    n = 3
    budget = np.ones(5)
    quads = {}
    for i, cluster in clusters.items():
        a = crandn(rng, n * len(cluster) + 1, n * len(cluster))
        quads[i] = a.conj().T @ a
    lins = {i: crandn(rng, q.shape[0]) for i, q in quads.items()}
    mu = {k: float(rng.uniform(0.1, 2.0)) for k in range(5)}
    width = n * max(map(len, clusters.values()))
    stack = _rrh_block_stack(quads, lins, clusters, budget, mu, 4, n, width)
    _assert_stack_matches_direct(*stack, n, xs=(0.0, 0.4, 5.0))


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


def test_solver_multipliers_reproduce_its_beams():
    """At the returned multipliers, every live RRH's secular power equals its
    power in the returned beams, active caps are met, zero-budget RRHs carry
    nothing, and each BUE beam is (Q + nu I)^{-1} b; on synthetic problems
    and on an assembled drop whose users span very different widths."""
    rng = child_rng(31, 9)
    problems = [make_synthetic_qcqp(rng, zero_cap_chance=0.25)[0] for _ in range(8)]
    for problem in problems + [_zero_budget_drop_qcqp()]:
        beams, info = solved(problem)
        spec = unpack_qcqp(problem)
        mu, n = info["rrh_dual"], spec.block_size
        for k, cap in enumerate(spec.rrh_budget):
            if cap == 0.0:
                assert mu[k] == 0.0 and beams.rrh_power(k) == 0.0
                continue
            if not any(k in c for c in spec.block_rrhs.values()):
                continue
            width = n * max(map(len, spec.block_rrhs.values()))
            mats, rhs, pos, _ = _rrh_block_stack(
                spec.quad_rue, spec.lin_rue, spec.block_rrhs, spec.rrh_budget, mu, k, n, width,
            )
            lam, coef, _ = _block_secular(mats, rhs, pos, n, {"linear_solves": 0})
            assert _secular_power(lam, coef, mu[k]) == pytest.approx(beams.rrh_power(k), rel=1e-7)
            if mu[k] > 0.0:
                assert beams.rrh_power(k) == pytest.approx(cap, rel=1e-6)
        nu = info["mbs_dual"]
        for j, quad in spec.quad_bue.items():
            want = np.linalg.solve(quad + nu * np.eye(quad.shape[0]), spec.lin_bue[j])
            assert np.allclose(beams.mbs[j], want, rtol=1e-9, atol=1e-12)


def _rrh_side(problem):
    return beamforming._solve_rrh_side(problem.layout, problem.base, problem.rhs, 1e-6)


def _one_rrh_at_a_time(monkeypatch):
    """Make every run a single RRH: the sweep before runs were batched."""
    monkeypatch.setattr(
        beamforming, "_disjoint_runs", lambda users_of: [[a] for a in range(len(users_of))]
    )


def test_batched_sweep_repeats_the_one_rrh_at_a_time_sweep_exactly(monkeypatch):
    """Updating each run of RRHs that share no user in one batched pass gives
    bit for bit the beams, multipliers, dual value and counters of updating
    the RRHs one at a time, in fewer passes: on the (32, 100) drop with a
    zero-budget RRH, on a (16, 50, 130 m) drop where two users share two
    RRHs, and through a whole alternating design at (8, 25)."""
    assert has_shared_rrh_pair(_first_qcqp(16, 50, coverage_radius=130.0)[0])

    def problems():
        # Posed anew each time: the runs are part of the stack layout.
        return [_zero_budget_drop_qcqp(), _first_qcqp(16, 50, coverage_radius=130.0)[1]]

    design = pipeline_instance(scenario=ScenarioConfig(num_ue=8, num_rrh=25))
    topology, _, _, links, training = design

    batched = [_rrh_side(p) for p in problems()]
    beams, state = rtd_solve(topology, links, training, BUDGETS)
    _one_rrh_at_a_time(monkeypatch)
    single = [_rrh_side(p) for p in problems()]
    beams_1, state_1 = rtd_solve(topology, links, training, BUDGETS)

    for (w, mu, value, info), (w_1, mu_1, value_1, info_1) in zip(batched, single):
        assert np.array_equal(w, w_1)
        assert np.array_equal(mu, mu_1) and value == value_1
        for key in ("coordinate_passes", "linear_solves"):
            assert info.pop(key) < info_1.pop(key)
        assert info == info_1
    assert beams_equal(beams, beams_1)
    assert state.objective_trace == state_1.objective_trace
    for key in ("coordinate_passes", "linear_solves"):
        assert state.counters.pop(key) < state_1.counters.pop(key)
    assert state.counters == state_1.counters


def _recorded_runs(monkeypatch, make_problem):
    """(users_of, runs) of the one partition made while posing a QCQP with
    make_problem() and solving it."""
    calls = []
    real = beamforming._disjoint_runs

    def recorded(users_of):
        calls.append((users_of, real(users_of)))
        return calls[-1][1]

    monkeypatch.setattr(beamforming, "_disjoint_runs", recorded)
    solve_qcqp(make_problem())
    assert len(calls) == 1
    return calls[0]


def test_disjoint_runs_partition_the_sweep_order(monkeypatch):
    """On the (32, 100) drop every active RRH lies in exactly one run, the
    runs keep the sweep order, no two RRHs of a run share a user, and each run
    ends where the next RRH shares a user with it."""
    users_of, runs = _recorded_runs(monkeypatch, _zero_budget_drop_qcqp)
    assert [a for run in runs for a in run] == list(range(len(users_of)))
    assert 1 < len(runs) < len(users_of)
    served = [set(users.tolist()) for users, _ in users_of]
    for run, after in zip(runs, runs[1:] + [None]):
        members = [served[a] for a in run]
        assert sum(map(len, members)) == len(set().union(*members))
        if after is not None:
            assert set().union(*members) & served[after[0]]


def test_disjoint_runs_on_a_hand_built_field(monkeypatch):
    """RRHs 0 and 1 share user 0 and RRH 2 serves user 1 alone, so the runs
    are [[0], [1, 2]]; RRH 3, which shares user 1 with RRH 2, has a zero
    budget and appears in no run (with a budget it would form a third)."""
    def field(last_budget):
        return lambda: pack_qcqp(
            quad_rue={i: np.array([[2.0, 0.5], [0.5, 1.0]], dtype=complex) for i in (0, 1)},
            lin_rue={i: np.ones(2, dtype=complex) for i in (0, 1)},
            quad_bue={}, lin_bue={}, block_rrhs={0: [0, 1], 1: [2, 3]}, block_size=1,
            rrh_budget=np.array([0.1, 0.1, 0.1, last_budget]), mbs_budget=1.0,
        )

    users_of, runs = _recorded_runs(monkeypatch, field(0.0))
    assert runs == [[0], [1, 2]]
    assert [users.tolist() for users, _ in users_of] == [[0], [0], [1]]
    assert _recorded_runs(monkeypatch, field(0.1))[1] == [[0], [1, 2], [3]]


def test_rtd_builds_the_stack_layout_once(monkeypatch):
    """Clusters and budgets are fixed for a design, so its runs (part of the
    stack layout) are computed once, not once per QCQP."""
    calls = []
    real = beamforming._disjoint_runs
    monkeypatch.setattr(
        beamforming, "_disjoint_runs", lambda users_of: calls.append(users_of) or real(users_of)
    )
    topology, _, _, links, training = pipeline_instance(r=0)
    _, st = rtd_solve(topology, links, training, BUDGETS)
    assert st.iterations > 1 and len(calls) == 1


def test_single_coordinate_update_lands_on_the_cap(monkeypatch):
    """RRH 0 serves one user whose other block is nearly singular, so the
    eliminated target c = b_0 - F_01 b_1 / F_11 is 99 times longer than the
    whole linear term. The exact multiplier (about 99) lies far above
    ||b|| / sqrt(cap) = 1, a bound that assumes F + D >= mu_0 I; the secular
    bracket holds it, and one coordinate update puts RRH 0 on its cap."""
    f01, f11 = 0.0099, 1e-4
    lin = np.array([0.0, 1.0], dtype=complex)
    problem = pack_qcqp(
        quad_rue={0: np.array([[1.0, f01], [f01, f11]], dtype=complex)},
        lin_rue={0: lin},
        quad_bue={}, lin_bue={}, block_rrhs={0: [0, 1]}, block_size=1,
        rrh_budget=np.array([1.0, 1e9]), mbs_budget=1.0,
    )
    monkeypatch.setattr(beamforming, "MAX_DUAL_ITERS", 1)
    beams, info = solved(problem)
    assert info["dual_iterations"] == 1
    assert info["rrh_dual"][0] > 90.0 * np.linalg.norm(lin)
    assert info["rrh_dual"][1] == 0.0
    assert beams.rrh_power(0) == pytest.approx(1.0, rel=1e-6)
    assert beams.rrh_power(1) < 1e9


def test_singular_user_matrix_falls_back_to_least_squares():
    """User 0's matrix diag(1, 0) stays singular at every multiplier the
    solver tries (its RRH-1 entry carries no cost and no gain), so each
    stacked solve falls back to per-member solves, least squares for user 0.
    RRH 0's cap then sets mu_0 = 1 and halves user 0's beam."""
    problem = pack_qcqp(
        quad_rue={
            0: np.diag([1.0, 0.0]).astype(complex),
            1: np.array([[2.0, 0.5], [0.5, 1.0]], dtype=complex),
        },
        lin_rue={0: np.array([1.0, 0.0], dtype=complex), 1: np.array([1.0, 1.0], dtype=complex)},
        quad_bue={}, lin_bue={}, block_rrhs={0: [0, 1], 1: [1, 2]}, block_size=1,
        rrh_budget=np.array([0.25, 1.0, 1.0]), mbs_budget=1.0,
    )
    beams, info = solved(problem)
    assert info["rrh_dual"][0] == pytest.approx(1.0, rel=1e-9)
    assert np.allclose(beams.rrh[0, [0, 1], 0], [0.5, 0.0], rtol=1e-9, atol=1e-12)
    assert beams.rrh_power(0) == pytest.approx(0.25, rel=1e-9)


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
    results, infos = [], []
    real = beamforming.solve_qcqp

    def recorded(*args, **kwargs):
        beams, info = real(*args, **kwargs)
        results.append(beams)
        infos.append(info)
        return beams, info

    monkeypatch.setattr(beamforming, "solve_qcqp", recorded)
    topology, _, state, links, training = pipeline_instance(r=0)
    _, st = rtd_solve(topology, links, training, BUDGETS)
    assert len(infos) == st.iterations
    counters = st.counters
    assert counters["dual_updates"] == sum(info["dual_iterations"] for info in infos) > 0
    for key in ("coordinate_passes", "newton_accepted", "newton_rejected", "linear_solves"):
        assert counters[key] == sum(info[key] for info in infos)
    assert 0 < counters["coordinate_passes"] < counters["dual_updates"]
    # at least the first beam solve and one elimination per coordinate pass
    assert counters["linear_solves"] > counters["coordinate_passes"]
    assert counters["newton_accepted"] > 0
    assert counters["violation"] == infos[-1]["violation"] <= 1e-6
    assert 0.0 <= counters["gap"] == infos[-1]["gap"] <= 1e-8
    assert counters["mbs_violation"] == infos[-1]["mbs_violation"] <= 1e-6
    excess = (np.sum(np.abs(results[-1][1]) ** 2) - BUDGETS.mbs) / BUDGETS.mbs
    assert counters["mbs_violation"] == pytest.approx(excess, rel=1e-12, abs=1e-15)


def _drop_config(num_ue, num_rrh, beamformer, master_seed, realizations, mc_trials=2000):
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
        mc_trials=mc_trials,
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
    cfg = _drop_config(num_ue, num_rrh, beamformer, master_seed, realizations, mc_trials=100)
    rows = {row[1]: row for row in run_se_sweep(cfg).rows}
    assert not [m for m in rows if m.startswith("failures_")]
    assert rows[f"converged_psa_{beamformer}"][4] == realizations
