"""Pilot-reuse scheduling for the uplink training phase.

Users served by a common RRH must hold orthogonal pilots; the remaining reuse
freedom is spent minimizing the sum channel-estimation MSE. Three schedulers
are provided:

* ``psa_schedule`` — Dsatur initialization followed by greedy reassignment of
  the most-contaminated users, driven by a log-domain contamination metric;
* ``dsatur_random_schedule`` — Dsatur color classes mapped randomly onto the
  first t pilots (baseline; never uses more than t pilots);
* ``es_schedule`` — exhaustive search over feasible assignments (oracle).
  It enumerates the RUE pilot vectors in lexicographic order, pruning
  conflicts at each RUE, in blocks of at most ``_BLOCK``, and scores each
  block with one array evaluation. The first strict minimum wins, so ties
  go to the lexicographically smallest vector, and the minimum comes back
  with the assignment.

``_sum_mse_values`` is the one sum-MSE evaluator (``sum_mse`` scores a block
of one); a candidate's value is bit for bit the same in any block. It reads
the read-only link arrays of ``mse_links``, which a caller scoring several
assignments of one topology builds once and passes to ``sum_mse`` and
``es_schedule``. Likewise a ``ConflictGraph`` computes its Dsatur coloring
once, on first use, for every scheduler it is passed to.

Pilot indices are 1-based. MBS-served users always hold pilots 1..|bue_set|,
one each; RRH-served users may share any pilot, including a BUE's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .scenario import Topology

_BLOCK = 512  # candidates per exhaustive-search block; bounds every temporary


@dataclass
class ConflictGraph:
    """Adjacency over RRH-served users, rows in ``topology.rue_set`` order: an
    edge when two users share an RRH."""

    adjacency: np.ndarray  # (R, R) 0/1, symmetric, zero diagonal

    def neighbors(self, r: int) -> np.ndarray:
        return np.nonzero(self.adjacency[r])[0]

    @cached_property
    def coloring(self) -> tuple[int, np.ndarray]:
        """``dsatur_color`` of this graph, computed on first use; the colors
        array is read-only, since every scheduler given the graph shares it."""
        t, colors = dsatur_color(self)
        colors.flags.writeable = False
        return t, colors


@dataclass
class PilotAssignment:
    tau: int
    pilots: np.ndarray  # (M,) pilot index per UE, 1..tau


def make_assignment(tau: int, pilots) -> PilotAssignment:
    return PilotAssignment(tau=int(tau), pilots=np.asarray(pilots, dtype=int))


def _shared_pilot(users, pilots: list[int]):
    """The first two of ``users`` that hold the same pilot, or None."""
    holder: dict[int, int] = {}
    for m in users:
        p = pilots[m]
        if p in holder:
            return holder[p], m
        holder[p] = m
    return None


def validate_assignment(topology: Topology, assignment: PilotAssignment) -> None:
    pilots = assignment.pilots
    if pilots.shape != (topology.num_ue,):
        raise ValueError("pilot vector length must equal the UE count")
    values = pilots.tolist()
    if min(values) < 1 or max(values) > assignment.tau:
        raise ValueError("pilot indices must lie in 1..tau")
    if assignment.tau > topology.num_ue:
        raise ValueError("tau cannot exceed the UE count")
    pair = _shared_pilot(topology.bue_set, values)
    if pair is not None:
        raise ValueError(f"pilot {pilots[pair[1]]} is shared by several MBS-served users")
    for k, rues in enumerate(topology.served_rues):
        pair = _shared_pilot(rues, values)
        if pair is not None:
            i, i2 = pair
            raise ValueError(f"users {i} and {i2} share RRH {k} but also pilot {pilots[i2]}")


def build_conflict_graph(topology: Topology) -> ConflictGraph:
    serving = [set(topology.serving_rrhs[i]) for i in topology.rue_set]
    n = len(serving)
    adjacency = np.zeros((n, n), dtype=np.int8)
    for r in range(n):
        for r2 in range(r + 1, n):
            if serving[r] & serving[r2]:
                adjacency[r, r2] = adjacency[r2, r] = 1
    return ConflictGraph(adjacency=adjacency)


def dsatur_color(graph: ConflictGraph) -> tuple[int, np.ndarray]:
    """Greedy saturation coloring; deterministic.

    Next vertex: highest saturation (distinct neighbor colors), then highest
    degree, then lowest index; it receives the smallest feasible color.
    Returns (color count t, per-vertex colors 0..t-1).
    """
    a = graph.adjacency
    n = a.shape[0]
    colors = np.full(n, -1, dtype=int)
    if n == 0:
        return 0, colors
    degree = a.sum(axis=1)
    for _ in range(n):
        best_v, best_key = -1, None
        for v in range(n):
            if colors[v] >= 0:
                continue
            neigh = np.nonzero(a[v])[0]
            sat = len({colors[u] for u in neigh if colors[u] >= 0})
            key = (sat, degree[v], -v)
            if best_key is None or key > best_key:
                best_v, best_key = v, key
        used = {colors[u] for u in np.nonzero(a[best_v])[0] if colors[u] >= 0}
        c = 0
        while c in used:
            c += 1
        colors[best_v] = c
    return int(colors.max()) + 1, colors


def compute_beta(topology: Topology, graph: ConflictGraph | None = None) -> np.ndarray:
    """Log-domain contamination level beta[r, m] (R, M) between every RUE
    (row r, in ``rue_set`` order) and every other UE (column m, by UE id).

    For an unconnected RUE pair the two mutual leakage ratios are summed inside
    the log; connected pairs (orthogonal by constraint) and the self entry are
    zero. For an RUE/BUE pair the MBS-side leakage ratio replaces the second
    term.
    """
    if graph is None:
        graph = build_conflict_graph(topology)
    rue_ids = topology.rue_set
    alpha_r, alpha_b = topology.alpha_rrh, topology.alpha_mbs
    own = {i: alpha_r[topology.serving_rrhs[i], i].sum() for i in rue_ids}
    beta = np.zeros((len(rue_ids), topology.num_ue))
    for r, i in enumerate(rue_ids):
        cluster = topology.serving_rrhs[i]
        for r2, i2 in enumerate(rue_ids):
            if i2 == i or graph.adjacency[r, r2]:
                continue
            leak_to_i = alpha_r[cluster, i2].sum() / own[i]
            leak_from_i = alpha_r[topology.serving_rrhs[i2], i].sum() / own[i2]
            beta[r, i2] = math.log(1.0 + leak_to_i + leak_from_i)
        for j in topology.bue_set:
            leak_to_i = alpha_r[cluster, j].sum() / own[i]
            leak_to_j = alpha_b[i] / alpha_b[j]
            beta[r, j] = math.log(1.0 + leak_to_i + leak_to_j)
    return beta


def group_by_pilot(topology: Topology, pilots: np.ndarray):
    """Pilot -> (RUE ids, BUE ids) holding it, each ascending; pilots in use only."""
    groups: dict[int, tuple[list[int], list[int]]] = {}
    for m in range(topology.num_ue):
        rues, bues = groups.setdefault(int(pilots[m]), ([], []))
        (rues if topology.serving_rrhs[m] else bues).append(m)
    return groups


class MseLinks(NamedTuple):
    """The estimated links of one topology, as ``_sum_mse_values`` reads them.

    Users are the RUEs in ``rue_set`` order, then the BUEs. Links are the RRH
    links in RUE order, then one MBS link per BUE. The arrays are read-only.
    """

    num_rue: int
    num_rrh_links: int
    owners: np.ndarray  # (links,) the user each link estimates
    gains: np.ndarray  # (users, links, 1) user u's gain at link l's receiver
    own_gain: np.ndarray  # (links,) the owner's gain at its link
    antennas: np.ndarray  # (links,) receive antennas


def mse_links(topology: Topology) -> MseLinks:
    """The sum-MSE link arrays of a topology; they do not depend on the pilots."""
    rues, bues = topology.rue_set, topology.bue_set
    num_rue = len(rues)
    link_rrh = [k for i in rues for k in topology.serving_rrhs[i]]
    link_rue = [r for r, i in enumerate(rues) for _ in topology.serving_rrhs[i]]
    rx = np.array(link_rrh + [topology.num_rrh] * len(bues))  # num_rrh is the MBS
    owners = np.array(link_rue + list(range(num_rue, num_rue + len(bues))))
    receivers = np.concatenate((topology.alpha_rrh, topology.alpha_mbs[None]))[:, rues + bues]
    cfg = topology.config
    links = MseLinks(
        num_rue=num_rue,
        num_rrh_links=len(link_rrh),
        owners=owners,
        gains=receivers[rx].T[:, :, None],
        own_gain=receivers[rx, owners],
        antennas=np.array([cfg.rrh_antennas] * len(link_rrh) + [cfg.mbs_antennas] * len(bues)),
    )
    for array in (links.owners, links.gains, links.own_gain, links.antennas):
        array.flags.writeable = False
    return links


def _sum_mse_values(links: MseLinks, rue_pilots, bue_pilots, p_rue, p_bue, noise_power):
    """Sum MSE (A,) of each row of the int array ``rue_pilots`` (A, R; RUEs in
    ``rue_set`` order), with the BUEs on the int array ``bue_pilots``.

    Arrays are (link, candidate), and every candidate goes through the same
    operations in the same order in any block: masked co-pilot loads summed
    over the RUEs, then the BUEs, and link terms summed in link order by
    ``np.add.accumulate`` (sequential, unlike axis reductions, whose order
    depends on the shape). Relabeled pilots therefore tie bit for bit.
    """
    num_rue, num_users = links.num_rue, len(links.gains)
    rrh, mbs = slice(None, links.num_rrh_links), slice(links.num_rrh_links, None)
    own_gain = links.own_gain
    pilots = np.empty((num_users, len(rue_pilots)), dtype=rue_pilots.dtype)
    pilots[:num_rue] = rue_pilots.T
    pilots[num_rue:] = bue_pilots[:, None]
    own = pilots[links.owners]  # (links, A): the pilot each link is estimated on
    hits = np.equal(pilots[:, None], own)  # (users, links, A): co-pilot masks
    # Masked gains are gain * 1.0 or gain * 0.0, so the loads are exact sums.
    rue_load, bue_load = np.zeros((2,) + own.shape)
    part = np.empty(own.shape)
    for u in range(num_users):
        load = rue_load if u < num_rue else bue_load
        load += np.multiply(hits[u], links.gains[u], out=part)
    # The scalar formulas, in their operation order, with
    # denom = p_rue * rue_load + p_bue * bue_load + noise:
    #   RRH link: n * a * (denom - p_rue * a) / denom
    #   MBS link: b * a * (p_rue * rue_load + noise) / denom
    rue_load *= p_rue
    bue_load *= p_bue
    np.add(rue_load[mbs], noise_power, out=part[mbs])
    denom = rue_load
    denom += bue_load
    denom += noise_power
    np.subtract(denom[rrh], p_rue * own_gain[rrh, None], out=part[rrh])
    part *= (links.antennas * own_gain)[:, None]
    part /= denom
    return np.add.accumulate(part, out=part)[-1]


def sum_mse(
    topology: Topology,
    assignment: PilotAssignment,
    p_rue: float,
    p_bue: float,
    noise_power: float,
    links: MseLinks | None = None,
) -> float:
    """Sum over all estimated links of the per-antenna error variance times
    the antenna count. Raises on an assignment violating the reuse constraints.
    ``links``, when given, must be ``mse_links(topology)``.
    """
    validate_assignment(topology, assignment)
    if links is None:
        links = mse_links(topology)
    pilots = assignment.pilots
    rue_pilots, bue_pilots = pilots[None, topology.rue_set], pilots[topology.bue_set]
    return float(_sum_mse_values(links, rue_pilots, bue_pilots, p_rue, p_bue, noise_power)[0])


def effective_tau(topology: Topology, tau: int, t: int) -> int:
    """The pilot count a scheduler spends when asked for tau: tau lifted to
    the coloring number t and the MBS-served user count."""
    if tau < 1:
        raise ValueError("tau must be a positive integer")
    if tau > topology.num_ue:
        raise ValueError("tau cannot exceed the UE count")
    return max(tau, t, len(topology.bue_set))


def _base_pilots(topology: Topology, colors: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """BUEs on pilots 1..|bue_set| in id order; RUE color classes on perm."""
    pilots = np.zeros(topology.num_ue, dtype=int)
    for idx, j in enumerate(topology.bue_set):
        pilots[j] = idx + 1
    for r, i in enumerate(topology.rue_set):
        pilots[i] = int(perm[colors[r]]) + 1
    return pilots


def dsatur_random_schedule(
    topology: Topology, tau: int, rng: np.random.Generator, graph: ConflictGraph | None = None
) -> PilotAssignment:
    """Baseline: color classes get a random permutation of pilots 1..t.

    The color count t never grows with tau, which is why this baseline's
    sum-MSE stays flat when more pilots are available.
    """
    if graph is None:
        graph = build_conflict_graph(topology)
    t, colors = graph.coloring
    tau_eff = effective_tau(topology, tau, t)
    perm = rng.permutation(t) if t else np.zeros(0, dtype=int)
    pilots = _base_pilots(topology, colors, perm)
    return make_assignment(tau_eff, pilots)


def psa_schedule(
    topology: Topology,
    beta: np.ndarray,
    graph: ConflictGraph,
    tau: int,
    rng: np.random.Generator | None = None,
) -> PilotAssignment:
    """Greedy contamination-driven refinement of a Dsatur initialization.

    Initialization: BUE j holds pilot j; Dsatur classes are mapped onto pilots
    1..t (randomly permuted when ``rng`` is given, identity otherwise). Then
    every RUE is revisited exactly once, worst-contaminated first, and moved to
    the pilot (excluding those held by its conflict-graph neighbors) with the
    least contamination. Ties: lowest UE id / lowest pilot index. ``beta`` is
    ``compute_beta(topology, graph)``.
    """
    rue_ids = topology.rue_set
    t, colors = graph.coloring
    tau_eff = effective_tau(topology, tau, t)
    perm = rng.permutation(t) if (rng is not None and t) else np.arange(t)
    pilots = _base_pilots(topology, colors, perm)

    bue_on_pilot = {idx + 1: j for idx, j in enumerate(topology.bue_set)}
    on_pilot: dict[int, set[int]] = {p: set() for p in range(1, tau_eff + 1)}
    for r, i in enumerate(rue_ids):
        on_pilot[pilots[i]].add(r)

    def contamination(r: int, pilot: int) -> float:
        val = sum(beta[r, rue_ids[r2]] for r2 in on_pilot[pilot] if r2 != r)
        if pilot in bue_on_pilot:
            val += beta[r, bue_on_pilot[pilot]]
        return val

    pending = set(range(len(rue_ids)))
    for _ in range(len(rue_ids)):
        worst_r, worst_val = -1, -np.inf
        for r in sorted(pending):
            val = contamination(r, pilots[rue_ids[r]])
            if val > worst_val:
                worst_r, worst_val = r, val
        taken = {pilots[rue_ids[r2]] for r2 in graph.neighbors(worst_r)}
        best_p, best_val = 0, np.inf
        for p in range(1, tau_eff + 1):
            if p in taken:
                continue
            val = contamination(worst_r, p)
            if val < best_val:
                best_p, best_val = p, val
        i = rue_ids[worst_r]
        on_pilot[pilots[i]].discard(worst_r)
        on_pilot[best_p].add(worst_r)
        pilots[i] = best_p
        pending.remove(worst_r)

    return make_assignment(tau_eff, pilots)


def _feasible_blocks(graph: ConflictGraph, tau: int):
    """Every feasible RUE pilot vector (RUEs in ``rue_set`` order), in
    lexicographic order, in blocks of at most ``_BLOCK`` rows.

    Prefixes grow one RUE at a time by the pilots its earlier conflict-graph
    neighbors do not hold; prefixes whose children would pass ``_BLOCK`` rows
    are split into slices expanded depth first, so the space is never held.
    """
    num = len(graph.adjacency)
    earlier = [[r2 for r2 in graph.neighbors(pos) if r2 < pos] for pos in range(num)]

    def grow(prefixes: np.ndarray):
        pos = prefixes.shape[1]
        if pos == num:
            if len(prefixes):
                yield prefixes
            return
        allowed = np.ones((len(prefixes), tau), dtype=bool)
        rows = np.arange(len(prefixes))
        for r2 in earlier[pos]:
            allowed[rows, prefixes[:, r2] - 1] = False
        counts = allowed.sum(axis=1)
        ends = np.cumsum(counts)
        start = 0
        while start < len(prefixes):
            done = ends[start - 1] if start else 0
            stop = int(np.searchsorted(ends, done + _BLOCK, side="right"))
            children = np.empty((ends[stop - 1] - done, pos + 1), dtype=prefixes.dtype)
            children[:, :pos] = np.repeat(prefixes[start:stop], counts[start:stop], axis=0)
            children[:, pos] = np.nonzero(allowed[start:stop])[1] + 1
            yield from grow(children)
            start = stop

    yield from grow(np.zeros((1, 0), dtype=np.min_scalar_type(tau)))


def es_schedule(
    topology: Topology,
    tau: int,
    p_rue: float,
    p_bue: float,
    noise_power: float,
    limit: int = 10_000_000,
    graph: ConflictGraph | None = None,
    links: MseLinks | None = None,
) -> PilotAssignment:
    """Exhaustive minimizer of the sum MSE over feasible assignments:
    (assignment, minimum sum MSE).

    BUE pilots are fixed to 1..|bue_set|. The feasible RUE pilot vectors are
    scored in lexicographic blocks (``_feasible_blocks``), one
    ``_sum_mse_values`` call each. A block's first minimum replaces the best
    only if strictly smaller, so the assignment is the lexicographically
    smallest minimizer, and ``sum_mse`` of it equals the returned minimum bit
    for bit.
    Guarded by tau_eff**M <= limit. ``graph`` and ``links``, when given, must
    be the topology's conflict graph and ``mse_links``.
    """
    if graph is None:
        graph = build_conflict_graph(topology)
    t, _ = graph.coloring
    tau_eff = effective_tau(topology, tau, t)
    if tau_eff ** topology.num_ue > limit:
        raise ValueError(
            f"search space {tau_eff}^{topology.num_ue} exceeds the enumeration guard {limit}"
        )
    if links is None:
        links = mse_links(topology)
    bue_pilots = np.arange(1, len(topology.bue_set) + 1)
    best_value, best_row = np.inf, None
    for block in _feasible_blocks(graph, tau_eff):
        values = _sum_mse_values(links, block, bue_pilots, p_rue, p_bue, noise_power)
        a = int(np.argmin(values))
        if values[a] < best_value:
            best_value, best_row = values[a], block[a].copy()
    pilots = np.zeros(topology.num_ue, dtype=int)
    pilots[topology.bue_set] = bue_pilots
    if best_row is not None:
        pilots[topology.rue_set] = best_row
    return make_assignment(tau_eff, pilots), float(best_value)
