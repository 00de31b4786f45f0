"""Pilot-reuse scheduling for the uplink training phase.

Users served by a common RRH must hold orthogonal pilots; the remaining reuse
freedom is spent minimizing the sum channel-estimation MSE. Three schedulers
are provided:

* ``psa_schedule`` — greedy reassignment of the most-contaminated users of a
  Dsatur schedule (Dsatur-random's, in the sweeps), driven by a log-domain
  contamination metric; each move reads one contamination matrix built from
  the pilot vector;
* ``dsatur_random_schedule`` — Dsatur color classes mapped randomly onto the
  first t pilots (baseline; never uses more than t pilots);
* ``es_schedule`` — exhaustive search over feasible assignments (oracle).
  Pilots that no BUE holds are interchangeable, so it enumerates one vector
  per relabeling class of them: the canonical one, whose free pilots first
  appear in increasing order. The canonical RUE pilot vectors come in
  lexicographic order, pruning conflicts at each RUE, in blocks of at most
  ``_BLOCK``, and each block is scored with one array evaluation. The first
  strict minimum wins, so ties go to the lexicographically smallest vector,
  and the minimum comes back with the assignment. Given several tau, one
  enumeration at the largest answers them all: the canonical vectors at a
  smaller tau are the rows whose pilots stay within it, in the same order.

Dsatur-random and the exhaustive search take a sequence of tau and return
one assignment per tau, in order, each equal bit for bit to its one-element
call's. Dsatur-random draws one color permutation per call, whatever the
number of tau, so its assignments share one pilot vector. PSA takes a
sequence of starts and refines each at its own tau, so it adds no draw.
Every scheduler's pilot vectors are read-only.

``_sum_mse_values`` is the one sum-MSE evaluator; a candidate's value is bit
for bit the same in any block. ``sum_mse`` scores a list of assignments in
one block. ``sum_mse`` and ``es_schedule`` take the sum-MSE problem as one
``MseLinks``: the read-only link arrays of a topology and the training
powers they are scored at, which the caller builds once per topology.
Likewise a ``ConflictGraph`` computes its Dsatur coloring once, on first
use, for every scheduler it is passed to.

Pilot indices are 1-based. MBS-served users always hold pilots 1..|bue_set|,
one each; RRH-served users may share any pilot, including a BUE's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .scenario import Topology

_BLOCK = 512  # candidates per exhaustive-search block; bounds every temporary
ES_LIMIT = 10_000_000  # largest search space tau_eff**M that es_schedule enumerates


@dataclass
class ConflictGraph:
    """Adjacency over RRH-served users, rows in ``topology.rue_set`` order: an
    edge when two users share an RRH."""

    adjacency: np.ndarray  # (R, R) 0/1, symmetric, zero diagonal

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

    def __post_init__(self):
        self.tau = int(self.tau)
        self.pilots = np.asarray(self.pilots, dtype=int)


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
        pair = _shared_pilot(rues, values) if len(rues) > 1 else None
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
    ``seen[v, c]`` records that a neighbor of v holds color c.
    Returns (color count t, per-vertex colors 0..t-1).
    """
    conflict = graph.adjacency.astype(bool)
    n = len(conflict)
    colors = np.full(n, -1, dtype=int)
    order = (-np.arange(n), conflict.sum(axis=1))  # lexsort keys: the last sorts first
    seen = np.zeros((n, n), dtype=bool)
    for _ in range(n):
        v = np.lexsort(order + (np.where(colors < 0, seen.sum(axis=1), -1),))[-1]
        colors[v] = c = int(np.argmin(seen[v]))
        seen[conflict[v], c] = True
    return int(colors.max(initial=-1)) + 1, colors


def compute_beta(topology: Topology, graph: ConflictGraph) -> np.ndarray:
    """Log-domain contamination level beta[r, m] (R, M) between every RUE
    (row r, in ``rue_set`` order) and every other UE (column m, by UE id).

    The leakage L[r, m] is UE m's gain summed over RUE r's cluster, divided by
    RUE r's own. For an unconnected RUE pair the two mutual leakage ratios are
    summed inside the log; connected pairs (orthogonal by constraint) and the
    self entry are zero. For an RUE/BUE pair the MBS-side leakage ratio
    replaces the second term. ``graph`` is the topology's conflict graph.
    """
    rue_ids, bue_ids = topology.rue_set, topology.bue_set
    alpha_b = topology.alpha_mbs
    gain = [topology.alpha_rrh[topology.serving_rrhs[i]].sum(axis=0) for i in rue_ids]
    gain = np.reshape(gain, (len(rue_ids), topology.num_ue))  # (R, M): over each RUE's cluster
    leak = gain / gain[np.arange(len(rue_ids)), rue_ids][:, None]
    rue_leak = leak[:, rue_ids]
    orthogonal = graph.adjacency + np.eye(len(rue_ids), dtype=graph.adjacency.dtype)
    beta = np.zeros((len(rue_ids), topology.num_ue))
    beta[:, rue_ids] = np.where(orthogonal, 0.0, np.log(1.0 + rue_leak + rue_leak.T))
    beta[:, bue_ids] = np.log(1.0 + leak[:, bue_ids] + alpha_b[rue_ids, None] / alpha_b[bue_ids])
    return beta


class MseLinks(NamedTuple):
    """The sum-MSE problem of one topology, as ``_sum_mse_values`` reads it:
    its estimated links and the training powers they are scored at.

    Users are the RUEs in ``rue_set`` order, then the BUEs. Links are the RRH
    links in RUE order, then one MBS link per BUE. The arrays are read-only.
    """

    num_rue: int
    num_rrh_links: int
    owners: np.ndarray  # (links,) the user each link estimates
    gains: np.ndarray  # (users, links, 1) user u's gain at link l's receiver
    own_gain: np.ndarray  # (links,) the owner's gain at its link
    antennas: np.ndarray  # (links,) receive antennas
    powers: tuple  # (p_rue, p_bue, noise_power) of the training phase


def mse_links(topology: Topology, p_rue: float, p_bue: float, noise_power: float) -> MseLinks:
    """The sum-MSE problem of a topology at the given training powers; it
    does not depend on the pilots."""
    rues, bues = topology.rue_set, topology.bue_set
    num_rue = len(rues)
    link_ue, link_rrh = topology.served_links  # BUEs have no RRH link
    rx = np.concatenate((link_rrh, np.full(len(bues), topology.num_rrh)))  # num_rrh is the MBS
    owners = np.concatenate((np.searchsorted(rues, link_ue), np.arange(len(bues)) + num_rue))
    receivers = np.concatenate((topology.alpha_rrh, topology.alpha_mbs[None]))[:, rues + bues]
    cfg = topology.config
    links = MseLinks(
        num_rue=num_rue,
        num_rrh_links=len(link_rrh),
        owners=owners,
        gains=receivers[rx].T[:, :, None],
        own_gain=receivers[rx, owners],
        antennas=np.array([cfg.rrh_antennas] * len(link_rrh) + [cfg.mbs_antennas] * len(bues)),
        powers=(p_rue, p_bue, noise_power),
    )
    for array in (links.owners, links.gains, links.own_gain, links.antennas):
        array.flags.writeable = False
    return links


def _sum_mse_values(links: MseLinks, rue_pilots, bue_pilots):
    """Sum MSE (A,) at ``links.powers`` of each row of the int array
    ``rue_pilots`` (A, R; RUEs in ``rue_set`` order), with the BUEs on the
    int array ``bue_pilots``: (B,) for every row, or (A, B) row by row.

    Arrays are (link, candidate), and every candidate goes through the same
    operations in the same order in any block: masked co-pilot loads summed
    over the RUEs, then the BUEs, and link terms summed in link order by
    ``np.add.accumulate`` (sequential, unlike axis reductions, whose order
    depends on the shape). Relabeled pilots therefore tie bit for bit.
    """
    num_rue, num_users = links.num_rue, len(links.gains)
    p_rue, p_bue, noise_power = links.powers
    rrh, mbs = slice(None, links.num_rrh_links), slice(links.num_rrh_links, None)
    own_gain = links.own_gain
    pilots = np.empty((num_users, len(rue_pilots)), dtype=rue_pilots.dtype)
    pilots[:num_rue] = rue_pilots.T
    pilots[num_rue:] = np.atleast_2d(bue_pilots).T
    own = pilots[links.owners]  # (links, A): the pilot each link is estimated on
    hits = np.equal(pilots[:, None], own)  # (users, links, A): co-pilot masks
    # Masked gains are gain * 1.0 or gain * 0.0, so the loads are exact sums,
    # taken user by user in user order (the outer axis of a C-ordered array).
    masked = hits * links.gains
    rue_load, bue_load = masked[:num_rue].sum(axis=0), masked[num_rue:].sum(axis=0)
    part = np.empty(own.shape)
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
    topology: Topology, assignments: Sequence[PilotAssignment], links: MseLinks
) -> list[float]:
    """Sum over all estimated links of the per-antenna error variance times
    the antenna count, for each of ``assignments``, scored in one block: a
    value is the same bit for bit in any list. Raises on an assignment
    violating the reuse constraints. ``links`` is ``mse_links`` of the
    topology at the training powers.
    """
    for each in assignments:
        validate_assignment(topology, each)
    pilots = np.reshape([each.pilots for each in assignments], (len(assignments), topology.num_ue))
    rue_pilots, bue_pilots = pilots[:, topology.rue_set], pilots[:, topology.bue_set]
    return _sum_mse_values(links, rue_pilots, bue_pilots).tolist()


def effective_tau(topology: Topology, tau: int, t: int) -> int:
    """The pilot count a scheduler spends when asked for tau: tau lifted to
    the coloring number t and the MBS-served user count."""
    if tau < 1:
        raise ValueError("tau must be a positive integer")
    if tau > topology.num_ue:
        raise ValueError("tau cannot exceed the UE count")
    return max(tau, t, len(topology.bue_set))


def dsatur_random_schedule(
    topology: Topology, taus: Sequence[int], rng: np.random.Generator, graph: ConflictGraph
) -> list[PilotAssignment]:
    """Baseline: BUEs hold pilots 1..|bue_set| in id order, and the color
    classes get a random permutation of pilots 1..t; one assignment per tau
    of ``taus`` in order.

    The color count t never grows with tau, which is why this baseline's
    sum-MSE stays flat when more pilots are available: one permutation is
    drawn for the call, and its read-only pilot vector backs every
    assignment, which differ only in their effective tau.
    """
    t, colors = graph.coloring
    effs = [effective_tau(topology, tau, t) for tau in taus]
    pilots = np.zeros(topology.num_ue, dtype=int)
    pilots[topology.bue_set] = np.arange(1, len(topology.bue_set) + 1)
    pilots[topology.rue_set] = rng.permutation(t)[colors] + 1
    pilots.flags.writeable = False
    return [PilotAssignment(eff, pilots) for eff in effs]


def psa_schedule(
    topology: Topology, beta: np.ndarray, graph: ConflictGraph, starts: Sequence[PilotAssignment]
) -> list[PilotAssignment]:
    """Greedy contamination-driven refinement of each of ``starts`` (Dsatur
    schedules, as ``dsatur_random_schedule`` makes), one assignment per
    start in order, at the start's tau.

    Each start is validated; then every RUE is revisited exactly once,
    worst-contaminated first, and moved to the pilot of 1..tau (excluding
    those held by its conflict-graph neighbors) with the least
    contamination. Ties: lowest UE id / lowest pilot index. ``beta`` is
    ``compute_beta(topology, graph)``. The pilot vectors are read-only.
    """
    rue_ids = np.array(topology.rue_set, dtype=int)
    conflict = graph.adjacency.astype(bool)
    rows = np.arange(len(rue_ids))
    out = []
    for start in starts:
        validate_assignment(topology, start)
        pilots, pilot_ids = start.pilots.copy(), np.arange(1, start.tau + 1)
        revisited = np.zeros(len(rue_ids), dtype=bool)
        for _ in rows:
            level = beta @ (pilots[:, None] == pilot_ids)  # RUE r's level on pilot p at [r, p - 1]
            rue_pilots = pilots[rue_ids]
            own = level[rows, rue_pilots - 1]
            own[revisited] = -np.inf
            r = own.argmax()
            options = level[r]
            options[rue_pilots[conflict[r]] - 1] = np.inf
            pilots[rue_ids[r]] = options.argmin() + 1
            revisited[r] = True
        pilots.flags.writeable = False
        out.append(PilotAssignment(start.tau, pilots))
    return out


def _feasible_blocks(graph: ConflictGraph, tau: int, num_bue: int):
    """Every canonical feasible RUE pilot vector (RUEs in ``rue_set`` order),
    in lexicographic order, in blocks of at most ``_BLOCK`` rows.

    The ``num_bue`` BUEs hold pilots 1..num_bue; the free pilots above them
    are interchangeable, so a vector is canonical when its free pilots first
    appear in increasing order (a restricted-growth string): each RUE takes
    a pilot at most one above the largest of num_bue and its prefix. Each
    class of vectors that differ by a permutation of free pilots is thus
    enumerated once, by its lexicographically first member.

    Prefixes grow one RUE at a time by the canonical pilots its earlier
    conflict-graph neighbors do not hold; prefixes whose children would pass
    ``_BLOCK`` rows are split into slices expanded depth first, so the space
    is never held.
    """
    num = len(graph.adjacency)
    earlier = [np.flatnonzero(graph.adjacency[pos, :pos]) for pos in range(num)]
    pilot_index = np.arange(tau)  # pilot p at index p - 1

    def grow(prefixes: np.ndarray):
        pos = prefixes.shape[1]
        if pos == num:
            if len(prefixes):
                yield prefixes
            return
        top = prefixes.max(axis=1, initial=num_bue)  # largest pilot held so far
        allowed = pilot_index <= top[:, None]
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
    topology: Topology, taus: Sequence[int], graph: ConflictGraph, links: MseLinks
) -> list[tuple[PilotAssignment, float]]:
    """Exhaustive minimizer of the sum MSE over feasible assignments, for
    each of ``taus`` in order: (assignment, minimum sum MSE).

    BUE pilots are fixed to 1..|bue_set|. The canonical feasible RUE pilot
    vectors are scored in lexicographic blocks (``_feasible_blocks``), one
    ``_sum_mse_values`` call each. A block's first minimum replaces the best
    only if strictly smaller, so the assignment is the lexicographically
    smallest canonical minimizer. That is the lexicographically smallest
    minimizer of all: swapping two free pilot labels leaves the value the
    same bit for bit, so a minimizer that is not canonical has an equal one
    that sorts earlier. ``sum_mse`` of the assignment equals the returned
    minimum bit for bit.

    One enumeration at the largest effective tau answers every entry. Its
    rows whose largest pilot is at most a smaller tau_eff are that
    tau_eff's canonical vectors, in the same order, so each tau_eff takes
    the first strict minimum over those rows of each block, and every pair
    equals the one-element call's bit for bit.
    Guarded by tau_eff**M <= ES_LIMIT at the largest tau_eff. ``graph`` is
    the topology's conflict graph and ``links`` its ``mse_links`` at the
    training powers. The pilot vectors are read-only.
    """
    t, _ = graph.coloring
    effs = [effective_tau(topology, tau, t) for tau in taus]
    largest = max(effs)
    if largest ** topology.num_ue > ES_LIMIT:
        raise ValueError(
            f"search space {largest}^{topology.num_ue} exceeds the enumeration guard {ES_LIMIT}"
        )
    bue_pilots = np.arange(1, len(topology.bue_set) + 1)
    best = dict.fromkeys(effs, (np.inf, None))  # tau_eff -> (minimum, its row)
    for block in _feasible_blocks(graph, largest, len(bue_pilots)):
        values = _sum_mse_values(links, block, bue_pilots)
        top = block.max(axis=1, initial=0)
        for cap in best:
            within = np.where(top <= cap, values, np.inf)
            a = int(np.argmin(within))
            if within[a] < best[cap][0]:
                best[cap] = within[a], block[a].copy()
    out = []
    for eff in effs:
        value, row = best[eff]
        pilots = np.zeros(topology.num_ue, dtype=int)
        pilots[topology.bue_set] = bue_pilots
        if row is not None:
            pilots[topology.rue_set] = row
        pilots.flags.writeable = False
        out.append((PilotAssignment(eff, pilots), float(value)))
    return out
