"""Network geometry, user-centric clustering, and large-scale gains.

A macro base station (MBS) sits at the origin of a circular cell. K remote
radio heads (RRHs) are dropped uniformly in an outer ring and M single-antenna
users uniformly in the whole disk. Every RRH within ``coverage_radius`` of a
user is a candidate server for it; each RRH keeps at most ``max_ue_per_rrh``
of its candidates (closest first). Users that end up with no serving RRH are
handled by the MBS directly.

``save_topology`` writes a drop as one JSON document (``hcransim-topology``
version 2; version 1 was a tagged CSV) that ``load_topology`` reads back bit
for bit and checks as outside input.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, fields, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .util import read_json_object, require_finite, section, typed

TOPOLOGY_FORMAT = "hcransim-topology"
TOPOLOGY_VERSION = 2
TOPOLOGY_TABLES = ("rrh_positions", "ue_positions", "alpha_rrh", "alpha_mbs")


@dataclass(frozen=True)
class ScenarioConfig:
    cell_radius: float = 500.0        # m
    inner_ring_radius: float = 200.0  # m, RRHs live in [inner, cell]
    num_rrh: int = 25
    num_ue: int = 8
    mbs_antennas: int = 10
    rrh_antennas: int = 4
    coverage_radius: float = 100.0    # m, RRH-UE association range
    max_ue_per_rrh: int = 3
    pathloss_exponent: float = 3.7
    shadowing_std: float = 8.0        # dB
    pathloss_intercept_db: float = 128.1  # dB at the reference distance
    reference_distance: float = 1000.0    # m
    min_link_distance: float = 1.0        # m, floor before path loss
    rng_seed: int = 0

    def __post_init__(self) -> None:
        require_finite(self)
        if not self.cell_radius > self.inner_ring_radius > 0:
            raise ValueError("need cell_radius > inner_ring_radius > 0")
        for name in ("num_rrh", "num_ue", "mbs_antennas", "rrh_antennas", "max_ue_per_rrh"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.coverage_radius <= 0:
            raise ValueError("coverage_radius must be positive")
        if self.reference_distance <= 0 or self.min_link_distance <= 0:
            raise ValueError("distances must be positive")


class SharingBlocks(NamedTuple):
    """The RUE sharing blocks of one size n, laid out on their serving links.

    Block g is ``members[g]``. Row r stands for RRH ``rrh[r]``, which serves
    users of block ``block[r]`` only; rows run block by block, RRHs
    ascending within a block. Served link ``links[j]`` (an index into
    ``Topology.served_links``) sits at slot ``slots[j] = r * n + p`` of a
    (rows, n) table: r the row of its RRH, p the position of its user in
    the block.
    """

    members: np.ndarray  # (G, n) UE ids, ascending within a block
    rrh: np.ndarray      # (R,)
    block: np.ndarray    # (R,)
    links: np.ndarray    # (J,)
    slots: np.ndarray    # (J,)


@dataclass
class Topology:
    """A fixed network realization: placements, cluster map, gains.

    ``serving_rrhs`` is the one stored cluster map; ``rue_set``, ``bue_set``,
    ``served_rues``, ``served_links`` and ``sharing_blocks`` are derived from
    it on first read and cached, so the map must not change after they are
    read.
    """

    config: ScenarioConfig
    rrh_positions: np.ndarray         # (K, 2)
    ue_positions: np.ndarray          # (M, 2)
    serving_rrhs: list[list[int]]     # per UE, sorted RRH ids (empty -> MBS user)
    alpha_rrh: np.ndarray             # (K, M) linear power gains
    alpha_mbs: np.ndarray             # (M,)

    @property
    def num_rrh(self) -> int:
        return self.rrh_positions.shape[0]

    @property
    def num_ue(self) -> int:
        return self.ue_positions.shape[0]

    @cached_property
    def rue_set(self) -> list[int]:
        """RRH-served users (RUEs), ascending."""
        return [i for i, cluster in enumerate(self.serving_rrhs) if cluster]

    @cached_property
    def bue_set(self) -> list[int]:
        """MBS-served users (BUEs), ascending."""
        return [i for i, cluster in enumerate(self.serving_rrhs) if not cluster]

    @cached_property
    def served_rues(self) -> list[list[int]]:
        """Per RRH, the users it serves, ascending."""
        served: list[list[int]] = [[] for _ in range(self.num_rrh)]
        for i, cluster in enumerate(self.serving_rrhs):
            for k in cluster:
                served[k].append(i)
        return served

    @cached_property
    def served_links(self) -> tuple[np.ndarray, np.ndarray]:
        """Every serving link as (ue, rrh) index arrays, UE-major and
        ascending: link l is RRH rrh[l] -> UE ue[l]."""
        ue = [i for i, cluster in enumerate(self.serving_rrhs) for _ in cluster]
        rrh = [k for cluster in self.serving_rrhs for k in cluster]
        return np.array(ue, dtype=int), np.array(rrh, dtype=int)

    @cached_property
    def sharing_blocks(self) -> dict[int, SharingBlocks]:
        """The RUEs whose beams can meet at one receiver, by block size n.

        Beams are zero off the serving links, so two RUEs' beams reach a
        receiver together only through an RRH that serves both: a block is
        a set of RUEs joined by chains of shared serving RRHs, and the
        blocks of one size, ordered by smallest member, form one
        ``SharingBlocks``. The BUEs, whose beams meet only at the MBS, are
        one more block, ``bue_set``.
        """
        root = list(range(self.num_ue))

        def find(i: int) -> int:
            while root[i] != i:
                root[i] = root[root[i]]
                i = root[i]
            return i

        for users in self.served_rues:
            for i in users[1:]:
                root[find(i)] = find(users[0])
        blocks: dict[int, list[int]] = {}
        for i in self.rue_set:
            blocks.setdefault(find(i), []).append(i)
        by_size: dict[int, list[list[int]]] = {}
        for users in blocks.values():
            by_size.setdefault(len(users), []).append(users)
        first_link = np.cumsum([0] + [len(c) for c in self.serving_rrhs]).tolist()
        groups = {}
        for n, members in sorted(by_size.items()):
            rrh, block, links, slots = [], [], [], []
            for g, users in enumerate(members):
                rows = sorted({k for i in users for k in self.serving_rrhs[i]})
                row = {k: len(rrh) + r for r, k in enumerate(rows)}
                rrh += rows
                block += [g] * len(rows)
                for p, i in enumerate(users):
                    for j, k in enumerate(self.serving_rrhs[i]):
                        links.append(first_link[i] + j)
                        slots.append(row[k] * n + p)
            groups[n] = SharingBlocks(*(np.array(a, dtype=int)
                                        for a in (members, rrh, block, links, slots)))
        return groups

    def validate(self) -> None:
        cfg = self.config
        k_count, m_count = self.num_rrh, self.num_ue
        load = np.zeros(k_count, dtype=int)
        for i, cluster in enumerate(self.serving_rrhs):
            load[cluster] += 1
            for k in cluster:
                d = np.linalg.norm(self.rrh_positions[k] - self.ue_positions[i])
                if d > cfg.coverage_radius + 1e-9:
                    raise ValueError("serving RRH outside coverage radius")
        over = np.nonzero(load > cfg.max_ue_per_rrh)[0]
        if over.size:
            raise ValueError(f"RRH {over[0]} exceeds max_ue_per_rrh")
        if self.alpha_rrh.shape != (k_count, m_count) or self.alpha_mbs.shape != (m_count,):
            raise ValueError("gain array shapes inconsistent with placements")
        if not (np.all(self.alpha_rrh > 0) and np.all(self.alpha_mbs > 0)):
            raise ValueError("all large-scale gains must be strictly positive")


def pathloss_gain(distance, cfg: ScenarioConfig, shadowing_db=0.0):
    """Linear power gain at a distance, optionally with a shadowing term (dB).

    PL(dB) = intercept + 10*exponent*log10(d/d_ref) + shadowing; gain = 10^(-PL/10).
    """
    distance = np.asarray(distance, dtype=float)
    if np.any(distance <= 0):
        raise ValueError("distance must be positive")
    pl_db = (
        cfg.pathloss_intercept_db
        + 10.0 * cfg.pathloss_exponent * np.log10(distance / cfg.reference_distance)
        + shadowing_db
    )
    return 10.0 ** (-pl_db / 10.0)


def cluster_ues(rrh_positions, ue_positions, coverage_radius, max_ue_per_rrh):
    """User-centric clustering: candidates by range, per-RRH cap by distance.

    Returns serving_rrhs: per UE, its sorted serving RRHs. An RRH over its cap
    keeps the closest candidates (ties by lower UE id); dropping a UE at one
    RRH does not affect its candidacy elsewhere.
    """
    rrh_positions = np.asarray(rrh_positions, dtype=float)
    ue_positions = np.asarray(ue_positions, dtype=float)
    m_count = ue_positions.shape[0]
    dist = np.linalg.norm(rrh_positions[:, None, :] - ue_positions[None, :, :], axis=2)

    serving_rrhs: list[list[int]] = [[] for _ in range(m_count)]
    for k, row in enumerate(dist.tolist()):
        candidates = [i for i in range(m_count) if row[i] <= coverage_radius]
        candidates.sort(key=lambda i: (row[i], i))
        for i in candidates[:max_ue_per_rrh]:
            serving_rrhs[i].append(k)
    return serving_rrhs


def generate_topology(cfg: ScenarioConfig) -> Topology:
    """Draw one network realization from the config's seed.

    Draw order (part of the reproducibility contract): RRH polar coordinates,
    UE polar coordinates, RRH-link shadowing (K, M), MBS-link shadowing (M,).
    """
    rng = np.random.default_rng(cfg.rng_seed)

    # RRHs uniform in the ring, UEs uniform in the disk (area-uniform radii)
    r_rrh = np.sqrt(rng.uniform(cfg.inner_ring_radius**2, cfg.cell_radius**2, cfg.num_rrh))
    phi_rrh = rng.uniform(0.0, 2.0 * np.pi, cfg.num_rrh)
    rrh_positions = np.column_stack([r_rrh * np.cos(phi_rrh), r_rrh * np.sin(phi_rrh)])

    r_ue = cfg.cell_radius * np.sqrt(rng.uniform(0.0, 1.0, cfg.num_ue))
    phi_ue = rng.uniform(0.0, 2.0 * np.pi, cfg.num_ue)
    ue_positions = np.column_stack([r_ue * np.cos(phi_ue), r_ue * np.sin(phi_ue)])

    shadow_rrh = rng.normal(0.0, cfg.shadowing_std, (cfg.num_rrh, cfg.num_ue))
    shadow_mbs = rng.normal(0.0, cfg.shadowing_std, cfg.num_ue)

    serving_rrhs = cluster_ues(
        rrh_positions, ue_positions, cfg.coverage_radius, cfg.max_ue_per_rrh
    )

    dist_rrh = np.linalg.norm(rrh_positions[:, None, :] - ue_positions[None, :, :], axis=2)
    dist_mbs = np.linalg.norm(ue_positions, axis=1)
    dist_rrh = np.maximum(dist_rrh, cfg.min_link_distance)
    dist_mbs = np.maximum(dist_mbs, cfg.min_link_distance)

    return Topology(
        config=cfg,
        rrh_positions=rrh_positions,
        ue_positions=ue_positions,
        serving_rrhs=serving_rrhs,
        alpha_rrh=pathloss_gain(dist_rrh, cfg, shadow_rrh),
        alpha_mbs=pathloss_gain(dist_mbs, cfg, shadow_mbs),
    )


def save_topology(topology: Topology, path) -> None:
    """The topology as one JSON document: format, version, config, the
    serving map and the four tables as plain lists. JSON writes floats by
    repr, so ``load_topology`` reads them back bit for bit."""
    doc = {"format": TOPOLOGY_FORMAT, "version": TOPOLOGY_VERSION,
           "config": asdict(topology.config), "serving_rrhs": topology.serving_rrhs,
           **{name: getattr(topology, name) for name in TOPOLOGY_TABLES}}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, default=lambda x: x.tolist())  # numpy arrays and scalars


def load_topology(path) -> Topology:
    """Read a ``save_topology`` file. Anything that does not describe a
    valid topology raises a ValueError that names it: another format or
    version, an entry missing, unknown or repeated, a config name that is
    no ScenarioConfig field or a value not of its type (``util.typed``, as
    in config files), a table that is not finite numbers of the shape
    ``num_rrh`` and ``num_ue`` give, a serving list that is not ascending,
    distinct RRH ids in range, and what ``Topology.validate`` rejects."""
    doc = read_json_object(path)
    if doc.get("format") != TOPOLOGY_FORMAT:
        raise ValueError(f"not a {TOPOLOGY_FORMAT} file: {path}")
    if doc.get("version") != TOPOLOGY_VERSION:
        raise ValueError(f"unsupported topology format version {doc.get('version')!r} in {path}")
    entries = {"format", "version", "config", "serving_rrhs", *TOPOLOGY_TABLES}
    if doc.keys() != entries:
        raise ValueError(f"missing topology entries {sorted(entries - doc.keys())}, "
                         f"unknown {sorted(doc.keys() - entries)}")
    config = section(doc, "config", {f.name for f in fields(ScenarioConfig)}, "config")
    config = ScenarioConfig(**{name: typed(value, type(getattr(ScenarioConfig, name)), name)
                               for name, value in config.items()})
    k_count, m_count = config.num_rrh, config.num_ue
    shapes = {"rrh_positions": (k_count, 2), "ue_positions": (m_count, 2),
              "alpha_rrh": (k_count, m_count), "alpha_mbs": (m_count,)}
    tables = {}
    for name, shape in shapes.items():
        table = np.array(doc[name], dtype=object)  # a ragged list keeps its lists as entries
        if table.shape != shape or not all(type(x) in (int, float) for x in table.flat):
            raise ValueError(f"{name} must be a {shape} table of numbers")
        if not all(abs(x) <= sys.float_info.max for x in table.flat):  # NaN compares False
            raise ValueError(f"{name} holds a non-finite entry")
        tables[name] = table.astype(float)
    serving = doc["serving_rrhs"]
    if not (isinstance(serving, list) and len(serving) == m_count):
        raise ValueError(f"serving_rrhs must hold one list per user, {m_count} in all")
    rrhs = range(k_count)
    for i, cluster in enumerate(serving):
        ids = isinstance(cluster, list) and all(type(k) is int and k in rrhs for k in cluster)
        if not (ids and cluster == sorted(set(cluster))):
            raise ValueError(f"user {i} has serving RRHs {cluster!r}, not ascending, "
                             f"distinct ids in 0..{k_count - 1}")
    topo = Topology(config=config, serving_rrhs=serving, **tables)
    topo.validate()
    return topo


def with_seed(cfg: ScenarioConfig, seed: int) -> ScenarioConfig:
    return replace(cfg, rng_seed=seed)
