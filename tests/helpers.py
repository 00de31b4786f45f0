"""Shared instance builders for the test suite."""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import numpy as np

from hcransim import (
    AggregatedLinks,
    BeamformerSet,
    PilotAssignment,
    PowerBudget,
    ScenarioConfig,
    Topology,
    TrainingConfig,
    assemble_qcqp,
    build_conflict_graph,
    build_covariances,
    compute_beta,
    draw_small_scale,
    dsatur_random_schedule,
    estimate_channels,
    generate_topology,
    psa_schedule,
    solve_qcqp,
    stack_layout,
)
from hcransim.pilot_scheduler import effective_tau
from hcransim.util import child_seed, crandn, seed_to_int

from oracles import assemble_qcqp_oracle, dense_rue_matrices, estimate_channels_oracle


def child_rng(master_seed: int, *key: int) -> np.random.Generator:
    """A generator on ``child_seed(master_seed, *key)``."""
    return np.random.default_rng(child_seed(master_seed, *key))


def dsatur_start(topology, graph, tau):
    """PSA's canonical start at tau's effective tau: Dsatur colors in order
    on pilots 1..t, the BUEs on pilots 1..|bue_set| in id order."""
    t, colors = graph.coloring
    pilots = np.zeros(topology.num_ue, dtype=int)
    pilots[topology.bue_set] = np.arange(1, len(topology.bue_set) + 1)
    pilots[topology.rue_set] = colors + 1
    return PilotAssignment(effective_tau(topology, tau, t), pilots)


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
    topo = Topology(
        config=cfg,
        rrh_positions=rrh_positions,
        ue_positions=ue_positions,
        serving_rrhs=[sorted(c) for c in serving_rrhs],
        alpha_rrh=np.asarray(alpha_rrh, dtype=float),
        alpha_mbs=np.asarray(alpha_mbs, dtype=float),
    )
    topo.validate()
    return topo


def pipeline_instance(r=0, master_seed=0, tau=4, scenario=None, training=None):
    """One scheduled + estimated instance: the common test setup.

    Returns (topology, assignment, state, links, effective training config).
    ``state`` and ``links`` are one object, the ``AggregatedLinks`` that
    training returns; the tuple keeps both places for its callers.
    """
    scenario = scenario or ScenarioConfig(num_rrh=20, num_ue=8, coverage_radius=120.0)
    training = training or TrainingConfig(tau=tau)
    topology = generate_topology(scenario, seed_to_int(child_seed(master_seed, r, 0)))
    graph = build_conflict_graph(topology)
    start = dsatur_random_schedule(topology, [training.tau], child_rng(master_seed, r, 1), graph)
    (assignment,) = psa_schedule(topology, compute_beta(topology, graph), graph, start)
    channels = instance_channels(topology, r, master_seed)
    state = estimate_channels(
        topology, assignment, training, channels, child_seed(master_seed, r, 3)
    )
    links = build_covariances(topology, state)
    training_eff = dataclasses.replace(training, tau=assignment.tau)
    return topology, assignment, state, links, training_eff


def instance_channels(topology, r=0, master_seed=0):
    """The small-scale draw that ``pipeline_instance(r, master_seed)`` trains on."""
    return draw_small_scale(topology, child_seed(master_seed, r, 2))


def oracle_state(topology, assignment, training, r=0, master_seed=0):
    """The training phase of ``pipeline_instance(r, master_seed)`` rerun by
    the dict-based reference estimator on the same channels and seed."""
    channels = instance_channels(topology, r, master_seed)
    return estimate_channels_oracle(
        topology, assignment, training, channels, child_seed(master_seed, r, 3)
    )


def hand_links(serving_rrhs, est_rrh, var_rrh, est_mbs=None, var_mbs=None):
    """Link statistics on a ``hand_topology`` with the given clusters and unit
    gains: est_rrh (K, M, N) and var_rrh (K, M), and for the MBS est_mbs
    (M, B) and var_mbs (M,), zero on one antenna when not given."""
    num_rrh, num_ue, n = est_rrh.shape
    if est_mbs is None:
        est_mbs, var_mbs = np.zeros((num_ue, 1), dtype=complex), np.zeros(num_ue)
    topology = hand_topology(
        serving_rrhs, num_rrh, np.ones((num_rrh, num_ue)), np.ones(num_ue), n, est_mbs.shape[1]
    )
    return AggregatedLinks(
        topology=topology,
        est_rrh=np.asarray(est_rrh, dtype=complex),
        var_rrh=np.asarray(var_rrh, dtype=float),
        est_mbs=np.asarray(est_mbs, dtype=complex),
        var_mbs=np.asarray(var_mbs, dtype=float),
    )


def hand_qcqp(links, f, u, rrh_budget, mbs_budget=1.0):
    """The beamformer-step QCQP assembled on ``links`` at equalizers f and
    auxiliaries u ((M,) by UE id) under the given budgets."""
    budgets = PowerBudget(rrh=np.asarray(rrh_budget, dtype=float), mbs=mbs_budget)
    layout = stack_layout(links, budgets)
    return assemble_qcqp(links, np.asarray(f, dtype=complex), np.asarray(u, dtype=float), layout)


def make_synthetic_qcqp(rng, zero_cap_chance=0.0):
    """Random coupled QCQP: the beamformer step assembled on random
    hand-built links at random equalizers and auxiliaries.

    Returns (problem, quads, lins, groups, caps): the QcqpProblem plus the
    same instance in the projected-gradient oracle's vocabulary, each UE's
    full-cluster matrix and linear term from ``assemble_qcqp_oracle``. Every
    link has a random estimate and an error variance in [0.5, 1.5], which
    keeps the matrices' condition numbers moderate; budgets are random
    fractions of the unconstrained solution's power so that some
    constraints bind and others stay slack.
    """
    num_rrh = int(rng.integers(2, 5))
    n = int(rng.integers(2, 4))
    num_rue = int(rng.integers(2, 5))
    num_bue = int(rng.integers(0, 3))
    b_ant = int(rng.integers(2, 5))
    num_ue = num_rue + num_bue

    clusters = {}
    for i in range(num_rue):
        size = int(rng.integers(1, min(2, num_rrh) + 1))
        clusters[i] = sorted(rng.choice(num_rrh, size=size, replace=False).tolist())
    links = hand_links(
        [clusters.get(m, []) for m in range(num_ue)],
        crandn(rng, num_rrh, num_ue, n),
        rng.uniform(0.5, 1.5, size=(num_rrh, num_ue)),
        crandn(rng, num_ue, b_ant),
        rng.uniform(0.5, 1.5, size=num_ue),
    )
    f, u = crandn(rng, num_ue), rng.uniform(0.5, 1.5, size=num_ue)
    quads, lins = assemble_qcqp_oracle(links, f, u)
    bue_ids = list(range(num_rue, num_ue))

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

    problem = hand_qcqp(links, f, u, rrh_caps, float(mbs_budget))
    return problem, quads, lins, groups, caps


def unpack_qcqp(problem):
    """The per-UE view of a QcqpProblem on each RUE's live blocks (its
    cluster less its zero-budget RRHs, which is the whole cluster when every
    budget is positive): RUE matrices and linear terms (``dense_rue_matrices``),
    and each BUE's matrix and linear term."""
    layout = problem.layout
    n = layout.block_size
    base, rhs = dense_rue_matrices(problem)
    quad_rue, lin_rue, block_rrhs = {}, {}, {}
    for u, i in enumerate(layout.rue.tolist()):
        block_rrhs[i] = layout.active[layout.starts[u, layout.live[u]]].tolist()
        d = n * len(block_rrhs[i])
        quad_rue[i] = base[u, :d, :d]
        lin_rue[i] = rhs[u, :d]
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
    return problem.layout.beams(*beams), info


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
    topology = links.topology
    for i in topology.rue_set:
        cluster = topology.serving_rrhs[i]
        rrh[i, cluster] = scale * crandn(rng, len(cluster) * n).reshape(-1, n)
    for j in topology.bue_set:
        mbs[j] = scale * crandn(rng, links.mbs_antennas)
    return BeamformerSet(rrh, mbs)
