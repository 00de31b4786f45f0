"""Network geometry, user-centric clustering, and large-scale gains.

A macro base station (MBS) sits at the origin of a circular cell of radius
``CELL_RADIUS``. K remote radio heads (RRHs) are dropped uniformly in the ring
from ``INNER_RING_RADIUS`` out and M single-antenna users uniformly in the
whole disk. Every RRH within ``coverage_radius`` of a user is a candidate
server for it; each RRH keeps at most ``max_ue_per_rrh`` of its candidates
(closest first). Users that end up with no serving RRH are handled by the MBS
directly. Path loss is ``PATHLOSS_INTERCEPT_DB`` + 10 * ``PATHLOSS_EXPONENT``
* log10(d / ``REFERENCE_DISTANCE``) dB with log-normal shadowing of
``SHADOWING_STD`` dB, and distances are floored at ``MIN_LINK_DISTANCE``.
These are the paper's setup, fixed for every run; ``ScenarioConfig`` holds
the six values a run sets.

``save_topology`` writes a drop as one JSON document (``hcransim-topology``
version 3; version 2 also held the constants and a seed as config entries,
version 1 was a tagged CSV) that ``load_topology`` reads back bit for bit and
checks as outside input.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, fields
from functools import cached_property

import numpy as np

from .util import read_json_object, require_finite, section, typed

TOPOLOGY_FORMAT = "hcransim-topology"
TOPOLOGY_VERSION = 3
TOPOLOGY_TABLES = ("rrh_positions", "ue_positions", "alpha_rrh", "alpha_mbs")

CELL_RADIUS = 500.0             # m
INNER_RING_RADIUS = 200.0       # m, RRHs live in [inner, cell]
PATHLOSS_EXPONENT = 3.7
SHADOWING_STD = 8.0             # dB
PATHLOSS_INTERCEPT_DB = 128.1   # dB at the reference distance
REFERENCE_DISTANCE = 1000.0     # m
MIN_LINK_DISTANCE = 1.0         # m, floor before path loss


@dataclass(frozen=True)
class ScenarioConfig:
    num_rrh: int = 25
    num_ue: int = 8
    mbs_antennas: int = 10
    rrh_antennas: int = 4
    coverage_radius: float = 100.0    # m, RRH-UE association range
    max_ue_per_rrh: int = 3

    def __post_init__(self) -> None:
        require_finite(self)
        for name in ("num_rrh", "num_ue", "mbs_antennas", "rrh_antennas", "max_ue_per_rrh"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.coverage_radius <= 0:
            raise ValueError("coverage_radius must be positive")


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
    def sharing_blocks(self) -> list[list[int]]:
        """The RUEs whose beams can meet at one receiver, as blocks of UE
        ids, ascending within a block, blocks ordered by smallest member.

        Beams are zero off the serving links, so two RUEs' beams reach a
        receiver together only through an RRH that serves both: a block is
        a set of RUEs joined by chains of shared serving RRHs. The BUEs,
        whose beams meet only at the MBS, are one more block, ``bue_set``.
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
        return list(blocks.values())

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


def pathloss_gain(distance, shadowing_db):
    """Linear power gain at a distance with a shadowing term (dB).

    PL(dB) = intercept + 10*exponent*log10(d/d_ref) + shadowing; gain = 10^(-PL/10).
    """
    distance = np.asarray(distance, dtype=float)
    if np.any(distance <= 0):
        raise ValueError("distance must be positive")
    pl_db = (
        PATHLOSS_INTERCEPT_DB
        + 10.0 * PATHLOSS_EXPONENT * np.log10(distance / REFERENCE_DISTANCE)
        + shadowing_db
    )
    return 10.0 ** (-pl_db / 10.0)


def cluster_ues(dist, coverage_radius, max_ue_per_rrh):
    """User-centric clustering on the (K, M) array of RRH-UE distances:
    candidates by range, per-RRH cap by distance.

    Returns serving_rrhs: per UE, its sorted serving RRHs. An RRH over its cap
    keeps the closest candidates (ties by lower UE id); dropping a UE at one
    RRH does not affect its candidacy elsewhere.
    """
    m_count = dist.shape[1]
    serving_rrhs: list[list[int]] = [[] for _ in range(m_count)]
    for k, row in enumerate(dist.tolist()):
        candidates = [i for i in range(m_count) if row[i] <= coverage_radius]
        candidates.sort(key=lambda i: (row[i], i))
        for i in candidates[:max_ue_per_rrh]:
            serving_rrhs[i].append(k)
    return serving_rrhs


def generate_topology(cfg: ScenarioConfig, seed: int) -> Topology:
    """Draw one network realization from a seed.

    Draw order (part of the reproducibility contract): RRH polar coordinates,
    UE polar coordinates, RRH-link shadowing (K, M), MBS-link shadowing (M,).
    """
    rng = np.random.default_rng(seed)

    # RRHs uniform in the ring, UEs uniform in the disk (area-uniform radii)
    r_rrh = np.sqrt(rng.uniform(INNER_RING_RADIUS**2, CELL_RADIUS**2, cfg.num_rrh))
    phi_rrh = rng.uniform(0.0, 2.0 * np.pi, cfg.num_rrh)
    rrh_positions = np.column_stack([r_rrh * np.cos(phi_rrh), r_rrh * np.sin(phi_rrh)])

    r_ue = CELL_RADIUS * np.sqrt(rng.uniform(0.0, 1.0, cfg.num_ue))
    phi_ue = rng.uniform(0.0, 2.0 * np.pi, cfg.num_ue)
    ue_positions = np.column_stack([r_ue * np.cos(phi_ue), r_ue * np.sin(phi_ue)])

    shadow_rrh = rng.normal(0.0, SHADOWING_STD, (cfg.num_rrh, cfg.num_ue))
    shadow_mbs = rng.normal(0.0, SHADOWING_STD, cfg.num_ue)

    dist_rrh = np.linalg.norm(rrh_positions[:, None, :] - ue_positions[None, :, :], axis=2)
    dist_mbs = np.linalg.norm(ue_positions, axis=1)

    return Topology(
        config=cfg,
        rrh_positions=rrh_positions,
        ue_positions=ue_positions,
        serving_rrhs=cluster_ues(dist_rrh, cfg.coverage_radius, cfg.max_ue_per_rrh),
        alpha_rrh=pathloss_gain(np.maximum(dist_rrh, MIN_LINK_DISTANCE), shadow_rrh),
        alpha_mbs=pathloss_gain(np.maximum(dist_mbs, MIN_LINK_DISTANCE), shadow_mbs),
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
