"""Shared instance builders for the test suite."""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import numpy as np

from hcransim import (
    AggregatedLinks,
    BeamformerSet,
    PowerBudget,
    QcqpProblem,
    ScenarioConfig,
    Topology,
    TrainingConfig,
    build_conflict_graph,
    build_covariances,
    compute_beta,
    draw_small_scale,
    estimate_channels,
    generate_topology,
    psa_schedule,
    solve_qcqp,
    stack_layout,
)
from hcransim.util import child_rng, child_seed, crandn, seed_to_int

from oracles import estimate_channels_oracle


def hand_topology(serving_rrhs, num_rrh, alpha_rrh, alpha_mbs, n_ant=2, b_ant=3):
    """A topology with hand-picked cluster maps and gains.

    Positions are synthesized to satisfy the geometric invariants: every
    served UE sits at the centroid of its serving RRHs (with the coverage
    radius widened to reach them all), MBS-only users sit away from all RRHs.
    """
    num_ue = len(serving_rrhs)
    rrh_positions = np.array([[250.0 + 50.0 * k, 0.0] for k in range(num_rrh)], dtype=float)
    ue_positions = np.zeros((num_ue, 2))
    coverage = 10.0
    for i, cluster in enumerate(serving_rrhs):
        if cluster:
            ue_positions[i] = rrh_positions[cluster].mean(axis=0) + (0.0, 1.0 + 0.1 * i)
            reach = max(np.linalg.norm(rrh_positions[k] - ue_positions[i]) for k in cluster)
            coverage = max(coverage, reach + 1.0)
        else:
            ue_positions[i] = (-200.0, 37.0 * i)
    cfg = ScenarioConfig(
        num_rrh=num_rrh,
        num_ue=num_ue,
        rrh_antennas=n_ant,
        mbs_antennas=b_ant,
        max_ue_per_rrh=num_ue,
        coverage_radius=coverage,
    )
    served = [
        sorted(i for i in range(num_ue) if k in serving_rrhs[i]) for k in range(num_rrh)
    ]
    topo = Topology(
        config=cfg,
        mbs_position=np.zeros(2),
        rrh_positions=rrh_positions,
        ue_positions=ue_positions,
        serving_rrhs=[sorted(c) for c in serving_rrhs],
        served_rues=served,
        rue_set=[i for i in range(num_ue) if serving_rrhs[i]],
        bue_set=[i for i in range(num_ue) if not serving_rrhs[i]],
        alpha_rrh=np.asarray(alpha_rrh, dtype=float),
        alpha_mbs=np.asarray(alpha_mbs, dtype=float),
    )
    topo.validate()
    return topo


def small_scenario(seed, num_rrh=20, num_ue=8, coverage_radius=120.0, **kwargs):
    return ScenarioConfig(
        num_rrh=num_rrh,
        num_ue=num_ue,
        coverage_radius=coverage_radius,
        rng_seed=seed,
        **kwargs,
    )


def pipeline_instance(r=0, master_seed=0, tau=4, scenario=None, training=None):
    """One scheduled + estimated instance: the common test setup.

    Returns (topology, assignment, state, links, effective training config).
    """
    scenario = scenario or small_scenario(seed_to_int(child_seed(master_seed, r, 0)))
    if scenario.rng_seed == 0:
        scenario = dataclasses.replace(
            scenario, rng_seed=seed_to_int(child_seed(master_seed, r, 0))
        )
    training = training or TrainingConfig(tau=tau)
    topology = generate_topology(scenario)
    graph = build_conflict_graph(topology)
    metrics = compute_beta(topology, graph)
    assignment = psa_schedule(
        topology, metrics, graph, training.tau, rng=child_rng(master_seed, r, 1)
    )
    channels = draw_small_scale(topology, child_seed(master_seed, r, 2))
    state = estimate_channels(
        topology, assignment, training, channels, child_seed(master_seed, r, 3)
    )
    links = build_covariances(topology, state)
    training_eff = dataclasses.replace(training, tau=assignment.tau)
    return topology, assignment, state, links, training_eff


def oracle_state(topology, assignment, state, training, r=0, master_seed=0):
    """The training phase of ``pipeline_instance(r, master_seed)`` rerun by
    the dict-based reference estimator on the same channels and seed."""
    return estimate_channels_oracle(
        topology, assignment, training, state.true, child_seed(master_seed, r, 3)
    )


def make_synthetic_qcqp(rng, conditioning=60.0, zero_cap_chance=0.0):
    """Random coupled QCQP with the beamformer step's block structure.

    Returns (problem, quads, lins, groups, caps): a QcqpProblem (packed by
    ``pack_qcqp``) plus the same instance in the projected-gradient oracle's
    vocabulary. Quadratic terms are A^H A + eps*I with eps chosen so the
    condition number stays near ``conditioning``; budgets are random
    fractions of the unconstrained solution's power so that some constraints
    bind and others stay slack.
    """
    num_rrh = int(rng.integers(2, 5))
    n = int(rng.integers(2, 4))
    num_rue = int(rng.integers(2, 5))
    num_bue = int(rng.integers(0, 3))
    b_ant = int(rng.integers(2, 5))

    clusters = {}
    for i in range(num_rue):
        size = int(rng.integers(1, min(2, num_rrh) + 1))
        clusters[i] = sorted(rng.choice(num_rrh, size=size, replace=False).tolist())

    def random_quad(dim):
        a = crandn(rng, dim + 2, dim)
        q = a.conj().T @ a
        top = float(np.linalg.eigvalsh(q)[-1])
        return q + (top / conditioning) * np.eye(dim)

    quads, lins = {}, {}
    for i in range(num_rue):
        d = n * len(clusters[i])
        quads[i] = random_quad(d)
        lins[i] = crandn(rng, d)
    bue_ids = list(range(num_rue, num_rue + num_bue))
    for j in bue_ids:
        quads[j] = random_quad(b_ant)
        lins[j] = crandn(rng, b_ant)

    unconstrained = {m: np.linalg.solve(quads[m], lins[m]) for m in quads}

    groups, caps = {}, {}
    rrh_caps = np.ones(num_rrh)
    for k in range(num_rrh):
        members = []
        power = 0.0
        for i in range(num_rue):
            if k in clusters[i]:
                pos = clusters[i].index(k)
                idx = np.arange(pos * n, (pos + 1) * n)
                members.append((i, idx))
                power += float(np.sum(np.abs(unconstrained[i][idx]) ** 2))
        if members:
            cap = power * float(rng.uniform(0.25, 1.5))
            if rng.uniform() < zero_cap_chance:
                cap = 0.0
            rrh_caps[k] = cap
            groups[f"rrh{k}"] = members
            caps[f"rrh{k}"] = cap
    if bue_ids:
        power = sum(float(np.sum(np.abs(unconstrained[j]) ** 2)) for j in bue_ids)
        mbs_budget = power * float(rng.uniform(0.25, 1.5))
        groups["mbs"] = [(j, np.arange(b_ant)) for j in bue_ids]
        caps["mbs"] = mbs_budget
    else:
        mbs_budget = 1.0

    problem = pack_qcqp(
        quad_rue={i: quads[i] for i in range(num_rue)},
        lin_rue={i: lins[i] for i in range(num_rue)},
        quad_bue={j: quads[j] for j in bue_ids},
        lin_bue={j: lins[j] for j in bue_ids},
        block_rrhs=clusters,
        block_size=n,
        rrh_budget=rrh_caps,
        mbs_budget=float(mbs_budget),
    )
    return problem, quads, lins, groups, caps


def pack_qcqp(quad_rue, lin_rue, quad_bue, lin_bue, block_rrhs, block_size, rrh_budget, mbs_budget):
    """A QcqpProblem posed per UE: full-cluster matrices and linear terms by
    RUE id and by BUE id. The stack layout comes from links with the given
    clusters and all-zero estimates; each RUE's live submatrix (zero-budget
    blocks dropped) fills its stack row, and the BUE matrices form a
    (J, B, B) stack."""
    ids = list(block_rrhs) + list(quad_bue)
    num_ue, num_rrh = max(ids, default=-1) + 1, len(rrh_budget)
    b_ant = next(iter(lin_bue.values())).shape[0] if lin_bue else 0
    links = AggregatedLinks(
        rue_ids=list(block_rrhs),
        bue_ids=list(quad_bue),
        block_rrhs=block_rrhs,
        est_rrh=np.zeros((num_rrh, num_ue, block_size), dtype=complex),
        var_rrh=np.zeros((num_rrh, num_ue)),
        est_mbs=np.zeros((num_ue, b_ant), dtype=complex),
        var_mbs=np.zeros(num_ue),
    )
    layout = stack_layout(links, PowerBudget(rrh=np.asarray(rrh_budget), mbs=mbs_budget))
    base = np.tile(np.eye(layout.est.shape[1], dtype=complex), (len(block_rrhs), 1, 1))
    rhs = np.zeros_like(layout.est)
    for u, (i, cluster) in enumerate(block_rrhs.items()):
        live = np.repeat(layout.rrh_budget[cluster] > 0, block_size)
        d = int(live.sum())
        base[u, :d, :d] = quad_rue[i][np.ix_(live, live)]
        rhs[u, :d] = lin_rue[i][live]
    return QcqpProblem(
        layout=layout,
        base=base,
        rhs=rhs,
        mbs_quad=np.array([quad_bue[j] for j in quad_bue] or np.zeros((0, b_ant, b_ant)), complex),
        mbs_lin=np.array([lin_bue[j] for j in quad_bue] or np.zeros((0, b_ant)), complex),
    )


def unpack_qcqp(problem):
    """The per-UE view of a QcqpProblem, in ``pack_qcqp``'s argument names,
    on each RUE's live blocks (its cluster less its zero-budget RRHs, which
    is the whole cluster when every budget is positive): RUE matrices and
    linear terms, and each BUE's matrix and linear term."""
    layout = problem.layout
    n = layout.block_size
    quad_rue, lin_rue, block_rrhs = {}, {}, {}
    for u, i in enumerate(layout.rue.tolist()):
        block_rrhs[i] = layout.active[layout.starts[u, layout.live[u]]].tolist()
        d = n * len(block_rrhs[i])
        quad_rue[i] = problem.base[u, :d, :d]
        lin_rue[i] = problem.rhs[u, :d]
    quads = np.broadcast_to(problem.mbs_quad, problem.mbs_lin.shape + problem.mbs_lin.shape[-1:])
    bue = [int(j) for j in layout.bue]
    return SimpleNamespace(
        quad_rue=quad_rue,
        lin_rue=lin_rue,
        quad_bue=dict(zip(bue, quads)),
        lin_bue=dict(zip(bue, problem.mbs_lin)),
        block_rrhs=block_rrhs,
        block_size=n,
        rrh_budget=layout.rrh_budget,
    )


def solved(problem, **kwargs):
    """``solve_qcqp`` with its beams as a BeamformerSet: (beams, info)."""
    beams, info = solve_qcqp(problem, **kwargs)
    return problem.layout.split(problem.layout.rows(*beams)), info


def group_power(beams, name, members):
    """Power in the beams of a synthetic QCQP's constraint group: ``name`` is
    ``rrh<k>`` or ``mbs`` and ``members`` its (UE, entries) pairs, as
    ``make_synthetic_qcqp`` gives them; each member's beam on that side is
    read from the per-link arrays."""
    side = beams.mbs if name == "mbs" else beams.rrh[:, int(name[3:])]
    return sum(float(np.sum(np.abs(side[m]) ** 2)) for m, _ in members)


def random_beams(links, seed, scale=2e-5):
    """Arbitrary nonzero beams on every UE's own links (no power
    normalization; tests only): each RUE's stacked cluster beam, then each
    BUE's MBS beam, drawn in UE order from ``np.random.default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    num_rrh, num_ue, n = links.est_rrh.shape
    rrh = np.zeros((num_ue, num_rrh, n), dtype=complex)
    mbs = np.zeros((num_ue, links.mbs_antennas), dtype=complex)
    for i in links.rue_ids:
        rrh[i, links.block_rrhs[i]] = scale * crandn(rng, len(links.block_rrhs[i]) * n).reshape(-1, n)
    for j in links.bue_ids:
        mbs[j] = scale * crandn(rng, links.mbs_antennas)
    return BeamformerSet(rrh, mbs)


def beams_equal(a, b) -> bool:
    """Whether two beam sets hold the same per-link arrays."""
    return all(np.array_equal(x, y) for x, y in zip(a, b))
