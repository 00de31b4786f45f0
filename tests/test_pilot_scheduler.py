"""Conflict graph, contamination metrics, sum MSE, and the three schedulers.

Hand-traced expectations are frozen from the documented tie-breaking rules;
numeric quantities are pinned against the literal per-link oracles.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcransim import (
    PilotAssignment,
    ScenarioConfig,
    TrainingConfig,
    build_conflict_graph,
    compute_beta,
    dsatur_random_schedule,
    es_schedule,
    generate_topology,
    mse_links,
    psa_schedule,
    sum_mse,
    validate_assignment,
)
from hcransim import pilot_scheduler
from hcransim.pilot_scheduler import ConflictGraph, dsatur_color
from hcransim.util import child_seed, seed_to_int

from helpers import child_rng, hand_topology
from oracles import (
    best_schedules_oracle,
    beta_oracle,
    dsatur_oracle,
    enumerate_feasible_pilots,
    psa_oracle,
    sum_mse_oracle,
)

TRAIN = TrainingConfig()
POWERS = (TRAIN.p_rue, TRAIN.p_bue, TRAIN.noise_power)


def seeded_topology(seed, num_rrh=15, num_ue=6, coverage_radius=120.0):
    return generate_topology(
        ScenarioConfig(num_rrh=num_rrh, num_ue=num_ue, coverage_radius=coverage_radius), seed
    )


def es_at(topo, tau):
    """The exhaustive search's (assignment, minimum) at one tau."""
    return es_schedule(topo, [tau], *POWERS, build_conflict_graph(topo), mse_links(topo))[0]


def mse_of(topo, assignment, powers=POWERS):
    """``sum_mse`` of one assignment."""
    return sum_mse(topo, [assignment], *powers, mse_links(topo))[0]


# ---------------------------------------------------------------------------
# Conflict graph


def test_conflict_graph_edges_are_shared_rrhs():
    # UE0 <-RRH0-> UE1 share a server, UE2 is on its own RRH, UE3 is MBS-served
    topo = hand_topology(
        serving_rrhs=[[0], [0, 1], [2], []],
        num_rrh=3,
        alpha_rrh=np.ones((3, 4)),
        alpha_mbs=np.ones(4),
    )
    graph = build_conflict_graph(topo)
    assert topo.rue_set == [0, 1, 2] and graph.adjacency.shape == (3, 3)
    assert graph.adjacency[0, 1] == graph.adjacency[1, 0] == 1
    assert graph.adjacency[0, 2] == graph.adjacency[1, 2] == 0
    assert np.all(np.diag(graph.adjacency) == 0)


# ---------------------------------------------------------------------------
# Dsatur coloring: frozen hand traces of the documented tie-breaks


def _graph_from_edges(n, edges):
    adjacency = np.zeros((n, n), dtype=np.int8)
    for a, b in edges:
        adjacency[a, b] = adjacency[b, a] = 1
    return ConflictGraph(adjacency=adjacency)


def test_dsatur_five_cycle_frozen():
    # odd cycle: 3 colors; trace of (saturation, degree, lowest-index) rule
    graph = _graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    t, colors = dsatur_color(graph)
    assert t == 3
    assert list(colors) == [0, 1, 0, 1, 2]


def test_dsatur_triangle_with_pendant_frozen():
    graph = _graph_from_edges(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    t, colors = dsatur_color(graph)
    assert t == 3
    assert list(colors) == [0, 1, 2, 1]


def test_dsatur_properness_random_graphs():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(2, 12))
        adjacency = (rng.random((n, n)) < 0.4).astype(np.int8)
        adjacency = np.triu(adjacency, 1)
        adjacency = adjacency + adjacency.T
        graph = _graph_from_edges(n, [])
        graph.adjacency = adjacency
        t, colors = dsatur_color(graph)
        assert t == colors.max() + 1
        for a in range(n):
            for b in range(n):
                if adjacency[a, b]:
                    assert colors[a] != colors[b]


def test_dsatur_matches_the_loop_oracle():
    rng = np.random.default_rng(11)
    for n in range(40):
        for density in (0.1, 0.3, 0.6):
            adjacency = np.triu(rng.random((n, n)) < density, 1).astype(np.int8)
            adjacency += adjacency.T
            t, colors = dsatur_color(ConflictGraph(adjacency=adjacency))
            assert (t, colors.tolist()) == dsatur_oracle(adjacency.tolist())


# ---------------------------------------------------------------------------
# Contamination metrics


def test_beta_toy_values_frozen():
    # two isolated single-RRH users plus one MBS user with hand-set gains
    topo = hand_topology(
        serving_rrhs=[[0], [1], []],
        num_rrh=2,
        alpha_rrh=np.array([[1.0, 1.0, 0.5], [3.0, 2.0, 0.1]]),
        alpha_mbs=np.array([1.0, 0.3, 4.0]),
    )
    beta = compute_beta(topo, build_conflict_graph(topo))
    # leak of UE1 into cluster{0}: 1/1; leak of UE0 into cluster{1}: 3/2
    assert beta[0, 1] == pytest.approx(math.log(3.5), rel=1e-12)
    # MBS user: leak into cluster{0}: 0.5/1; pilot leak at the MBS: 1/4
    assert beta[0, 2] == pytest.approx(math.log(1.75), rel=1e-12)
    assert beta[0, 0] == 0.0
    assert beta.shape == (2, 3)  # rows: the RUEs in rue_set order


def test_beta_matches_oracle_and_connected_pairs_are_zero():
    for seed in range(6):
        topo = seeded_topology(seed)
        graph = build_conflict_graph(topo)
        beta = compute_beta(topo, graph)
        for r, i in enumerate(topo.rue_set):
            for m in range(topo.num_ue):
                # abs term: the library computes log(1 + x), the oracle
                # log1p(x); they agree to ~1 ulp of log's argument
                assert beta[r, m] == pytest.approx(
                    beta_oracle(topo, i, m), rel=1e-9, abs=1e-12
                )
        assert np.all(beta >= 0)


# ---------------------------------------------------------------------------
# Sum MSE


def test_sum_mse_hand_case_frozen():
    # one 2-antenna RRH serving UE0; UE1 at the 3-antenna MBS; shared pilot 1
    topo = hand_topology(
        serving_rrhs=[[0], []],
        num_rrh=1,
        alpha_rrh=np.array([[1.0, 0.5]]),
        alpha_mbs=np.array([0.25, 2.0]),
        n_ant=2,
        b_ant=3,
    )
    assignment = PilotAssignment(tau=2, pilots=[1, 1])
    value = mse_of(topo, assignment, powers=(2.0, 3.0, 1.0))
    # RRH link: denom = 2*1 + 3*0.5 + 1 = 4.5, delta = (4.5-2)/4.5 -> 2 * 5/9
    # MBS link: denom = 2*0.25 + 3*2 + 1 = 7.5, delta = 2*1.5/7.5 -> 3 * 2/5
    assert value == pytest.approx(10.0 / 9.0 + 6.0 / 5.0, rel=1e-14)


def test_sum_mse_matches_per_link_oracle():
    rng = np.random.default_rng(1)
    for seed in range(6):
        topo = seeded_topology(seed)
        graph = build_conflict_graph(topo)
        (assignment,) = dsatur_random_schedule(topo, [3], rng, graph)
        value = mse_of(topo, assignment)
        expected = sum_mse_oracle(
            topo, assignment.pilots, TRAIN.p_rue, TRAIN.p_bue, TRAIN.noise_power
        )
        assert value == pytest.approx(expected, rel=1e-12)


def test_sum_mse_rejects_conflicting_assignment():
    topo = hand_topology(
        serving_rrhs=[[0], [0]],
        num_rrh=1,
        alpha_rrh=np.array([[1.0, 1.0]]),
        alpha_mbs=np.array([1.0, 1.0]),
    )
    bad = PilotAssignment(tau=2, pilots=[1, 1])  # both on RRH 0
    with pytest.raises(ValueError):
        mse_of(topo, bad, powers=(1.0, 1.0, 1.0))


def test_sum_mse_of_a_list_equals_each_assignments_own_call():
    """A list is scored in one block, each value bit for bit its
    one-element call's, with the BUEs on their own pilots row by row; an
    invalid member raises the error its own call raises."""
    rng = np.random.default_rng(4)
    for seed in range(4):
        topo = seeded_topology(seed)
        graph, links = build_conflict_graph(topo), mse_links(topo)
        beta = compute_beta(topo, graph)
        assignments = [
            psa_schedule(topo, beta, graph, [3])[0],
            dsatur_random_schedule(topo, [4], rng, graph)[0],
            es_schedule(topo, [3], *POWERS, graph, links)[0][0],
        ]
        relabeled = assignments[0].pilots.copy()
        relabeled[topo.bue_set] = relabeled[topo.bue_set[::-1]]  # BUEs swap pilots
        assignments.append(PilotAssignment(assignments[0].tau, relabeled))
        assert len(topo.bue_set) >= 2
        values = sum_mse(topo, assignments, *POWERS, links)
        assert values == [sum_mse(topo, [a], *POWERS, links)[0] for a in assignments]
        assert all(type(v) is float for v in values)
        assert sum_mse(topo, [], *POWERS, links) == []
    bad = relabeled.copy()
    bad[topo.bue_set[1]] = bad[topo.bue_set[0]]
    bad = PilotAssignment(assignments[0].tau, bad)
    with pytest.raises(ValueError, match="shared by several MBS-served users") as alone:
        mse_of(topo, bad)
    with pytest.raises(ValueError) as listed:
        sum_mse(topo, assignments + [bad], *POWERS, links)
    assert str(listed.value) == str(alone.value)


def test_assignment_holds_an_int_tau_and_an_int_pilot_array():
    a = PilotAssignment(np.int64(3), [2, 3, 1])
    assert type(a.tau) is int and a.tau == 3
    assert isinstance(a.pilots, np.ndarray) and a.pilots.dtype == int
    assert a.pilots.tolist() == [2, 3, 1]


def test_validate_assignment_errors():
    topo = hand_topology(
        serving_rrhs=[[0], [], []],
        num_rrh=1,
        alpha_rrh=np.ones((1, 3)),
        alpha_mbs=np.ones(3),
    )
    with pytest.raises(ValueError):  # two MBS users on one pilot
        validate_assignment(topo, PilotAssignment(tau=2, pilots=[2, 1, 1]))
    with pytest.raises(ValueError):  # pilot outside 1..tau
        validate_assignment(topo, PilotAssignment(tau=2, pilots=[3, 1, 2]))
    with pytest.raises(ValueError):  # tau beyond the UE count
        validate_assignment(topo, PilotAssignment(tau=4, pilots=[3, 1, 2]))
    # users 0 and 1 share only RRH 2, the second RRH of each cluster
    overlap = hand_topology(
        serving_rrhs=[[0, 2], [1, 2], [3], []],
        num_rrh=4,
        alpha_rrh=np.ones((4, 4)),
        alpha_mbs=np.ones(4),
    )
    with pytest.raises(ValueError, match="share RRH 2"):
        validate_assignment(overlap, PilotAssignment(tau=2, pilots=[1, 1, 2, 2]))
    # users on disjoint RRHs may reuse a pilot, a BUE's included
    validate_assignment(overlap, PilotAssignment(tau=2, pilots=[1, 2, 1, 2]))


# ---------------------------------------------------------------------------
# Schedulers: clamping, determinism, frozen refinement traces


def test_tau_clamps_to_coloring_and_bue_count():
    # 3 mutually conflicting users force t = 3 even when tau = 1 is requested
    topo = hand_topology(
        serving_rrhs=[[0], [0, 1], [1], []],
        num_rrh=2,
        alpha_rrh=np.ones((2, 4)) * 0.5,
        alpha_mbs=np.ones(4),
    )
    graph = build_conflict_graph(topo)
    beta = compute_beta(topo, graph)
    (a,) = psa_schedule(topo, beta, graph, [1])
    assert a.tau == max(2, len(topo.bue_set))  # chain 0-1-2 colors with 2
    validate_assignment(topo, a)

    # 3 MBS users force tau >= 3
    topo2 = hand_topology(
        serving_rrhs=[[0], [], [], []],
        num_rrh=1,
        alpha_rrh=np.ones((1, 4)),
        alpha_mbs=np.ones(4),
    )
    graph2 = build_conflict_graph(topo2)
    (a2,) = psa_schedule(topo2, compute_beta(topo2, graph2), graph2, [1])
    assert a2.tau == 3
    # the three MBS users hold pilots 1..3 in id order
    assert list(a2.pilots[[1, 2, 3]]) == [1, 2, 3]

    with pytest.raises(ValueError):
        psa_schedule(topo2, compute_beta(topo2, graph2), graph2, [5])
    with pytest.raises(ValueError):
        psa_schedule(topo2, compute_beta(topo2, graph2), graph2, [0])


def test_psa_spreads_isolated_users_frozen_trace():
    # no conflicts, tau = 3: refinement should end fully orthogonal, and the
    # documented orderings (worst contamination first, lowest pilot on ties)
    # fix the exact outcome
    topo = hand_topology(
        serving_rrhs=[[0], [1], [2]],
        num_rrh=3,
        alpha_rrh=np.eye(3) + 0.01,
        alpha_mbs=np.ones(3),
    )
    graph = build_conflict_graph(topo)
    beta = np.array(
        [
            [0.0, 10.0, 1.0],
            [10.0, 0.0, 2.0],
            [1.0, 2.0, 0.0],
        ]
    )
    (a,) = psa_schedule(topo, beta, graph, [3])
    assert list(a.pilots) == [3, 2, 1]


def test_psa_respects_conflict_exclusion_frozen_trace():
    # users 0 and 1 share RRH 0, user 2 is free; tau = 2
    topo = hand_topology(
        serving_rrhs=[[0], [0], [1]],
        num_rrh=2,
        alpha_rrh=np.ones((2, 3)) * 0.5,
        alpha_mbs=np.ones(3),
    )
    graph = build_conflict_graph(topo)
    beta = np.array(
        [
            [0.0, 5.0, 3.0],
            [5.0, 0.0, 1.0],
            [3.0, 1.0, 0.0],
        ]
    )
    (a,) = psa_schedule(topo, beta, graph, [2])
    assert list(a.pilots) == [1, 2, 2]
    validate_assignment(topo, a)


def test_psa_deterministic_given_rng_state():
    topo = seeded_topology(3)
    graph = build_conflict_graph(topo)
    beta = compute_beta(topo, graph)
    (a,) = psa_schedule(topo, beta, graph, [3], rng=np.random.default_rng(7))
    (b,) = psa_schedule(topo, beta, graph, [3], rng=np.random.default_rng(7))
    assert np.array_equal(a.pilots, b.pilots)
    (c,) = psa_schedule(topo, beta, graph, [3])  # rng-free call is canonical
    (d,) = psa_schedule(topo, beta, graph, [3])
    assert np.array_equal(c.pilots, d.pilots)


def test_psa_matches_the_loop_oracle():
    # (num_ue, num_rrh, coverage_radius), three seeds each, every tau up to 8;
    # integer levels sum exactly in any order and tie often, testing tie-breaks
    sizes = ((6, 25, 100.0), (8, 25, 100.0), (16, 50, 130.0), (32, 100, 100.0))
    for (num_ue, num_rrh, radius), seed in itertools.product(sizes, range(3)):
        topo = seeded_topology(seed, num_rrh, num_ue, radius)
        graph = build_conflict_graph(topo)
        beta = compute_beta(topo, graph)
        for tau in range(1, min(8, num_ue) + 1):
            for levels, rng_seed in itertools.product((beta, np.round(4 * beta)), (None, seed)):
                rngs = [None if rng_seed is None else np.random.default_rng(rng_seed) for _ in "ab"]
                (a,) = psa_schedule(topo, levels, graph, [tau], rng=rngs[0])
                want = psa_oracle(topo, levels, graph.adjacency, tau, rng=rngs[1])
                assert (a.tau, a.pilots.tolist()) == want


def test_dsatur_random_never_uses_more_than_t_pilots():
    rng = np.random.default_rng(5)
    for seed in range(4):
        topo = seeded_topology(seed)
        graph = build_conflict_graph(topo)
        t, _ = dsatur_color(graph)
        for tau in range(1, topo.num_ue + 1):
            (a,) = dsatur_random_schedule(topo, [tau], rng, graph)
            validate_assignment(topo, a)
            rue_pilots = {int(a.pilots[i]) for i in topo.rue_set}
            assert len(rue_pilots) <= t


# (seed, num_rrh, num_ue, coverage_radius, tau): the optima include RUEs on a
# BUE's pilot and RUE-only pilots whose relabelings tie, at tau 3 to 6 and with
# up to 8 users. The last two add a drop with no BUE (every pilot free) and one
# at tau 6 with 2 BUEs and a one-color conflict graph, so 3 free pilots are
# left beyond the coloring. The brute-force oracle takes about 1.2 s over all.
ES_CASES = [(seed, 10, 5, 150.0, 3) for seed in range(5)] + [
    (0, 15, 6, 120.0, 4),
    (0, 15, 6, 120.0, 5),
    (0, 15, 6, 120.0, 6),
    (4, 15, 6, 120.0, 6),
    (1, 20, 7, 120.0, 5),
    (3, 25, 8, 100.0, 4),
    (5, 20, 6, 150.0, 4),
    (3, 20, 7, 120.0, 6),
]


def test_es_matches_brute_force_and_is_lexicographically_smallest():
    shares_bue_pilot = ties = no_bue = 0
    for seed, num_rrh, num_ue, radius, tau in ES_CASES:
        topo = seeded_topology(seed, num_rrh=num_rrh, num_ue=num_ue, coverage_radius=radius)
        a, minimum = es_at(topo, tau)
        validate_assignment(topo, a)
        assert a.tau == tau
        best_value, argmins = best_schedules_oracle(
            topo, a.tau, TRAIN.p_rue, TRAIN.p_bue, TRAIN.noise_power
        )
        value = mse_of(topo, a)
        assert value == minimum == pytest.approx(best_value, rel=1e-12)
        lexmin = min(tuple(p) for p in argmins)
        assert tuple(a.pilots) == lexmin
        bue_pilots = set(a.pilots[topo.bue_set].tolist())
        shares_bue_pilot += bool(bue_pilots & set(a.pilots[topo.rue_set].tolist()))
        ties += len(argmins) > 1
        no_bue += not topo.bue_set
    assert shares_bue_pilot and ties and no_bue


def first_free_pilots_increase(rue_pilots, num_bue):
    """Whether the pilots above num_bue first appear as num_bue + 1, + 2, ..."""
    free = [p for p in dict.fromkeys(rue_pilots.tolist()) if p > num_bue]
    return free == list(range(num_bue + 1, num_bue + 1 + len(free)))


def test_es_blocks_enumerate_in_order_and_score_independently_of_blocking():
    # 7 RUEs and 1 BUE at tau 6: 3,235 canonical candidates, several blocks
    topo = generate_topology(ScenarioConfig(num_ue=8, num_rrh=25), 2)
    graph = build_conflict_graph(topo)
    num_bue = len(topo.bue_set)
    blocks = list(pilot_scheduler._feasible_blocks(graph, 6, num_bue))
    assert len(blocks) > 1
    assert all(len(b) <= pilot_scheduler._BLOCK for b in blocks)
    candidates = np.concatenate(blocks)
    # the oracle's unpruned product, filtered: every feasible vector whose free
    # pilots first appear in increasing order, lexicographic
    feasible = (p[topo.rue_set] for p in enumerate_feasible_pilots(topo, 6))
    expected = [p for p in feasible if first_free_pilots_increase(p, num_bue)]
    assert np.array_equal(candidates, expected)

    bue_pilots = np.arange(1, len(topo.bue_set) + 1)
    args = (bue_pilots, TRAIN.p_rue, TRAIN.p_bue, TRAIN.noise_power)
    links = mse_links(topo)
    whole = pilot_scheduler._sum_mse_values(links, candidates, *args)
    for size in (1, 7):
        parts = [
            pilot_scheduler._sum_mse_values(links, candidates[s : s + size], *args)
            for s in range(0, len(candidates), size)
        ]
        assert np.array_equal(np.concatenate(parts), whole)  # bit for bit

    es, minimum = es_at(topo, 6)
    # the search hands back the minimum that sum_mse gives its assignment
    assert mse_of(topo, es) == whole.min() == minimum
    assert np.array_equal(es.pilots[topo.rue_set], candidates[np.argmin(whole)])
    # swapping two RUE-only pilot labels gives the same value, bit for bit
    rue_pilots = es.pilots[topo.rue_set]
    used = sorted(set(rue_pilots.tolist()) - set(bue_pilots.tolist()))
    assert len(used) >= 2
    swapped = rue_pilots.copy()
    swapped[rue_pilots == used[0]], swapped[rue_pilots == used[1]] = used[1], used[0]
    pair = pilot_scheduler._sum_mse_values(links, np.stack((rue_pilots, swapped)), *args)
    assert pair[0] == pair[1] == whole.min()


def test_es_given_a_sequence_of_tau_equals_one_call_per_tau():
    """One enumeration at the largest effective tau answers every tau of a
    sequence, repeated and unsorted ones included, with the pilots, tau and
    minimum of a one-element call per tau, bit for bit. Tau 1 is raised to
    the coloring number on some drops and to the MBS-served user count on
    others."""
    raised = set()
    for case, taus in (
        (ES_CASES[5], (3, 1, 4, 3, 2, 6)),
        (ES_CASES[8], (6, 1, 2, 6)),
        (ES_CASES[9], (5, 1, 3, 2, 5)),
        (ES_CASES[11], (4, 1, 2, 4)),
    ):
        seed, num_rrh, num_ue, radius, _ = case
        topo = seeded_topology(seed, num_rrh=num_rrh, num_ue=num_ue, coverage_radius=radius)
        graph = build_conflict_graph(topo)
        t, num_bue = graph.coloring[0], len(topo.bue_set)
        raised.add("coloring" if t > max(1, num_bue) else "bue" if num_bue > max(1, t) else None)
        answers = es_schedule(topo, taus, *POWERS, graph, mse_links(topo))
        assert len(answers) == len(taus)
        for tau, (got, got_minimum) in zip(taus, answers):
            want, want_minimum = es_at(topo, tau)
            assert got.tau == want.tau and got_minimum == want_minimum
            assert np.array_equal(got.pilots, want.pilots)
        assert answers[0][0].pilots is not answers[3][0].pilots
    assert {"coloring", "bue"} <= raised


def test_graph_colors_once_and_shares_a_read_only_coloring(monkeypatch):
    topo = seeded_topology(3)
    graph = build_conflict_graph(topo)
    calls = []

    def counted(g):
        calls.append(g)
        return dsatur_color(g)

    monkeypatch.setattr(pilot_scheduler, "dsatur_color", counted)
    beta = compute_beta(topo, graph)
    psa_schedule(topo, beta, graph, [3])
    dsatur_random_schedule(topo, [3], np.random.default_rng(0), graph)
    links = mse_links(topo)
    es_schedule(topo, [3], *POWERS, graph, links)
    assert calls == [graph]
    want_t, want_colors = dsatur_color(graph)
    t, colors = graph.coloring
    assert t == want_t and np.array_equal(colors, want_colors)
    with pytest.raises(ValueError, match="read-only"):
        colors[0] = 0
    for array in (links.owners, links.gains, links.own_gain, links.antennas):
        assert not array.flags.writeable


def test_es_memory_stays_bounded_beyond_one_block():
    # 7 RUEs at tau 6: 3,235 canonical vectors, more than one block
    topo = generate_topology(ScenarioConfig(num_ue=8, num_rrh=25), 2)
    graph, links = build_conflict_graph(topo), mse_links(topo)
    assert len(topo.rue_set) == 7
    tracemalloc.start()
    try:
        es_schedule(topo, [6], *POWERS, graph, links)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_es_guard_rejects_huge_search_spaces():
    topo = seeded_topology(0, num_rrh=25, num_ue=12, coverage_radius=150.0)
    with pytest.raises(ValueError, match="enumeration guard"):
        es_at(topo, 8)


def test_es_guard_reads_the_module_limit(monkeypatch):
    # the guard admits a search space of exactly ES_LIMIT and refuses one more
    topo = seeded_topology(1, num_rrh=10, num_ue=5, coverage_radius=150.0)
    t, _ = build_conflict_graph(topo).coloring
    size = pilot_scheduler.effective_tau(topo, 3, t) ** topo.num_ue
    monkeypatch.setattr(pilot_scheduler, "ES_LIMIT", size)
    es_at(topo, 3)
    monkeypatch.setattr(pilot_scheduler, "ES_LIMIT", size - 1)
    with pytest.raises(ValueError, match=f"exceeds the enumeration guard {size - 1}"):
        es_at(topo, 3)


def test_es_guard_refuses_a_sequence_whose_largest_tau_it_refuses(monkeypatch):
    topo = seeded_topology(1, num_rrh=10, num_ue=5, coverage_radius=150.0)
    graph, links = build_conflict_graph(topo), mse_links(topo)
    size = pilot_scheduler.effective_tau(topo, 3, graph.coloring[0]) ** topo.num_ue
    monkeypatch.setattr(pilot_scheduler, "ES_LIMIT", size)
    es_schedule(topo, [3, 2], *POWERS, graph, links)
    with pytest.raises(ValueError, match=f"search space 4\\^5 exceeds the enumeration guard {size}"):
        es_schedule(topo, [3, 4, 2], *POWERS, graph, links)


def test_es_never_beats_itself_with_fewer_pilots():
    # enlarging the pilot pool can only improve the exhaustive optimum
    topo = seeded_topology(1, num_rrh=10, num_ue=5, coverage_radius=150.0)
    values = []
    for tau in (2, 3, 4, 5):
        a, _ = es_at(topo, tau)
        values.append(mse_of(topo, a))
    for lo, hi in zip(values[1:], values[:-1]):
        assert lo <= hi + 1e-18


def test_schedulers_coincide_with_orthogonal_optimum_at_full_tau():
    topo = seeded_topology(2)
    graph = build_conflict_graph(topo)
    beta = compute_beta(topo, graph)
    tau = topo.num_ue
    (psa,) = psa_schedule(topo, beta, graph, [tau])
    es, _ = es_at(topo, tau)
    v_psa, v_es = sum_mse(topo, [psa, es], *POWERS, mse_links(topo))
    assert v_psa == pytest.approx(v_es, rel=1e-12)
    # every user alone on its pilot
    assert len(set(psa.pilots.tolist())) == topo.num_ue


@st.composite
def small_drops(draw):
    """A random drop of 3 to 7 users and a random sequence of tau up to the
    user count, repeats and unsorted orders included."""
    num_ue = draw(st.integers(3, 7))
    scenario = ScenarioConfig(
        num_ue=num_ue,
        num_rrh=draw(st.integers(1, 20)),
        coverage_radius=draw(st.floats(50.0, 300.0)),
    )
    taus = draw(st.lists(st.integers(1, num_ue), min_size=1, max_size=4))
    return scenario, draw(st.integers(0, 2**32 - 1)), taus


@settings(max_examples=100)
@given(drop=small_drops())
def test_es_bounds_the_heuristics_and_never_rises_with_tau_on_random_drops(drop):
    """On random drops (seeded as a sweep seeds realization 0), one list
    call of each scheduler equals its one-element calls bit for bit, pilots
    and tau: PSA and Dsatur-random on a fresh generator on the scheduler
    seed per call, as a sweep draws them. The exhaustive minimum is at or
    below the sum MSE of PSA and of Dsatur-random at every tau, and never
    rises as the effective tau grows. All of it holds exactly: relabeled
    free pilots tie bit for bit, and the candidates at a smaller effective
    tau are a subset of those at a larger."""
    scenario, master_seed, taus = drop
    topo = generate_topology(scenario, seed_to_int(child_seed(master_seed, 0, 0)))
    graph, links = build_conflict_graph(topo), mse_links(topo)
    beta = compute_beta(topo, graph)

    def heuristics(taus):
        return (psa_schedule(topo, beta, graph, taus, rng=child_rng(master_seed, 0, 1)),
                dsatur_random_schedule(topo, taus, child_rng(master_seed, 0, 1), graph))

    answers = es_schedule(topo, taus, *POWERS, graph, links)
    for tau, (got, minimum), psa, ds in zip(taus, answers, *heuristics(taus), strict=True):
        (want, want_minimum), = es_schedule(topo, [tau], *POWERS, graph, links)
        assert got.tau == want.tau and minimum == want_minimum
        assert np.array_equal(got.pilots, want.pilots)
        for listed, (alone,) in zip((psa, ds), heuristics([tau])):
            assert listed.tau == alone.tau and np.array_equal(listed.pilots, alone.pilots)
        assert psa.tau == ds.tau == got.tau
        es_value, psa_value, ds_value = sum_mse(topo, [got, psa, ds], *POWERS, links)
        assert es_value == minimum <= min(psa_value, ds_value)
    by_tau = sorted((a.tau, minimum) for a, minimum in answers)
    for (_, fewer), (_, more) in zip(by_tau, by_tau[1:]):
        assert more <= fewer
