"""Network geometry, user-centric clustering, and large-scale gains.

A macro base station (MBS) sits at the origin of a circular cell. K remote
radio heads (RRHs) are dropped uniformly in an outer ring and M single-antenna
users uniformly in the whole disk. Every RRH within ``coverage_radius`` of a
user is a candidate server for it; each RRH keeps at most ``max_ue_per_rrh``
of its candidates (closest first). Users that end up with no serving RRH are
handled by the MBS directly.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, fields, replace

import numpy as np

TOPOLOGY_FORMAT = "hcransim-topology"
TOPOLOGY_VERSION = 1


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
        if not self.cell_radius > self.inner_ring_radius > 0:
            raise ValueError("need cell_radius > inner_ring_radius > 0")
        for name in ("num_rrh", "num_ue", "mbs_antennas", "rrh_antennas", "max_ue_per_rrh"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.coverage_radius <= 0:
            raise ValueError("coverage_radius must be positive")
        if self.reference_distance <= 0 or self.min_link_distance <= 0:
            raise ValueError("distances must be positive")


@dataclass
class Topology:
    """A fixed network realization: placements, cluster maps, gains."""

    config: ScenarioConfig
    mbs_position: np.ndarray          # (2,)
    rrh_positions: np.ndarray         # (K, 2)
    ue_positions: np.ndarray          # (M, 2)
    serving_rrhs: list[list[int]]     # per UE, sorted RRH ids (empty -> MBS user)
    served_rues: list[list[int]]      # per RRH, sorted UE ids
    rue_set: list[int] = field(default_factory=list)
    bue_set: list[int] = field(default_factory=list)
    alpha_rrh: np.ndarray = None      # (K, M) linear power gains
    alpha_mbs: np.ndarray = None      # (M,)

    @property
    def num_rrh(self) -> int:
        return self.rrh_positions.shape[0]

    @property
    def num_ue(self) -> int:
        return self.ue_positions.shape[0]

    def validate(self) -> None:
        cfg = self.config
        k_count, m_count = self.num_rrh, self.num_ue
        if sorted(self.rue_set + self.bue_set) != list(range(m_count)):
            raise ValueError("rue_set and bue_set must partition the UE ids")
        for i in range(m_count):
            served = bool(self.serving_rrhs[i])
            if served != (i in set(self.rue_set)):
                raise ValueError("rue_set inconsistent with serving_rrhs")
        for k in range(k_count):
            if len(self.served_rues[k]) > cfg.max_ue_per_rrh:
                raise ValueError(f"RRH {k} exceeds max_ue_per_rrh")
            for i in self.served_rues[k]:
                if k not in self.serving_rrhs[i]:
                    raise ValueError("cluster maps are not mutually consistent")
        for i in range(m_count):
            for k in self.serving_rrhs[i]:
                if i not in self.served_rues[k]:
                    raise ValueError("cluster maps are not mutually consistent")
                d = np.linalg.norm(self.rrh_positions[k] - self.ue_positions[i])
                if d > cfg.coverage_radius + 1e-9:
                    raise ValueError("serving RRH outside coverage radius")
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

    Returns (serving_rrhs, served_rues, rue_set, bue_set). An RRH over its cap
    keeps the closest candidates (ties by lower UE id); dropping a UE at one
    RRH does not affect its candidacy elsewhere.
    """
    rrh_positions = np.asarray(rrh_positions, dtype=float)
    ue_positions = np.asarray(ue_positions, dtype=float)
    k_count = rrh_positions.shape[0]
    m_count = ue_positions.shape[0]
    dist = np.linalg.norm(rrh_positions[:, None, :] - ue_positions[None, :, :], axis=2)

    served_rues: list[list[int]] = []
    for k in range(k_count):
        candidates = [i for i in range(m_count) if dist[k, i] <= coverage_radius]
        candidates.sort(key=lambda i: (dist[k, i], i))
        served_rues.append(sorted(candidates[:max_ue_per_rrh]))

    serving_rrhs: list[list[int]] = [[] for _ in range(m_count)]
    for k in range(k_count):
        for i in served_rues[k]:
            serving_rrhs[i].append(k)
    rue_set = [i for i in range(m_count) if serving_rrhs[i]]
    bue_set = [i for i in range(m_count) if not serving_rrhs[i]]
    return serving_rrhs, served_rues, rue_set, bue_set


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

    serving_rrhs, served_rues, rue_set, bue_set = cluster_ues(
        rrh_positions, ue_positions, cfg.coverage_radius, cfg.max_ue_per_rrh
    )

    dist_rrh = np.linalg.norm(rrh_positions[:, None, :] - ue_positions[None, :, :], axis=2)
    dist_mbs = np.linalg.norm(ue_positions, axis=1)
    dist_rrh = np.maximum(dist_rrh, cfg.min_link_distance)
    dist_mbs = np.maximum(dist_mbs, cfg.min_link_distance)

    topo = Topology(
        config=cfg,
        mbs_position=np.zeros(2),
        rrh_positions=rrh_positions,
        ue_positions=ue_positions,
        serving_rrhs=serving_rrhs,
        served_rues=served_rues,
        rue_set=rue_set,
        bue_set=bue_set,
        alpha_rrh=pathloss_gain(dist_rrh, cfg, shadow_rrh),
        alpha_mbs=pathloss_gain(dist_mbs, cfg, shadow_mbs),
    )
    topo.validate()
    return topo


def save_topology(topology: Topology, path) -> None:
    """Versioned plain-text dump; floats use repr so the round trip is exact."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([TOPOLOGY_FORMAT, TOPOLOGY_VERSION])
        for f in fields(ScenarioConfig):
            caster = int if f.type == "int" else float
            writer.writerow(["config", f.name, repr(caster(getattr(topology.config, f.name)))])
        for k in range(topology.num_rrh):
            writer.writerow(["rrh", k, repr(float(topology.rrh_positions[k, 0])), repr(float(topology.rrh_positions[k, 1]))])
        for i in range(topology.num_ue):
            writer.writerow(["ue", i, repr(float(topology.ue_positions[i, 0])), repr(float(topology.ue_positions[i, 1]))])
        for i, rrhs in enumerate(topology.serving_rrhs):
            for k in rrhs:
                writer.writerow(["serving", i, k])
        for k in range(topology.num_rrh):
            for i in range(topology.num_ue):
                writer.writerow(["alpha_rrh", k, i, repr(float(topology.alpha_rrh[k, i]))])
        for i in range(topology.num_ue):
            writer.writerow(["alpha_mbs", i, repr(float(topology.alpha_mbs[i]))])


def load_topology(path) -> Topology:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][0] != TOPOLOGY_FORMAT:
        raise ValueError(f"not a {TOPOLOGY_FORMAT} file: {path}")
    if int(rows[0][1]) != TOPOLOGY_VERSION:
        raise ValueError(f"unsupported topology format version {rows[0][1]}")

    config_kwargs: dict = {}
    rrh_rows: dict[int, tuple[float, float]] = {}
    ue_rows: dict[int, tuple[float, float]] = {}
    serving: dict[int, list[int]] = {}
    alpha_rrh_rows: dict[tuple[int, int], float] = {}
    alpha_mbs_rows: dict[int, float] = {}
    config_types = {f.name: f.type for f in fields(ScenarioConfig)}
    for row in rows[1:]:
        tag = row[0]
        if tag == "config":
            name, value = row[1], row[2]
            caster = int if config_types[name] == "int" else float
            config_kwargs[name] = caster(value)
        elif tag == "rrh":
            rrh_rows[int(row[1])] = (float(row[2]), float(row[3]))
        elif tag == "ue":
            ue_rows[int(row[1])] = (float(row[2]), float(row[3]))
        elif tag == "serving":
            serving.setdefault(int(row[1]), []).append(int(row[2]))
        elif tag == "alpha_rrh":
            alpha_rrh_rows[(int(row[1]), int(row[2]))] = float(row[3])
        elif tag == "alpha_mbs":
            alpha_mbs_rows[int(row[1])] = float(row[2])
        else:
            raise ValueError(f"unknown row tag {tag!r}")

    cfg = ScenarioConfig(**config_kwargs)
    k_count, m_count = len(rrh_rows), len(ue_rows)
    rrh_positions = np.array([rrh_rows[k] for k in range(k_count)])
    ue_positions = np.array([ue_rows[i] for i in range(m_count)])
    serving_rrhs = [sorted(serving.get(i, [])) for i in range(m_count)]
    served_rues: list[list[int]] = [[] for _ in range(k_count)]
    for i, rrhs in enumerate(serving_rrhs):
        for k in rrhs:
            served_rues[k].append(i)
    alpha_rrh = np.empty((k_count, m_count))
    for (k, i), value in alpha_rrh_rows.items():
        alpha_rrh[k, i] = value
    alpha_mbs = np.array([alpha_mbs_rows[i] for i in range(m_count)])

    topo = Topology(
        config=cfg,
        mbs_position=np.zeros(2),
        rrh_positions=rrh_positions,
        ue_positions=ue_positions,
        serving_rrhs=serving_rrhs,
        served_rues=[sorted(v) for v in served_rues],
        rue_set=[i for i in range(m_count) if serving_rrhs[i]],
        bue_set=[i for i in range(m_count) if not serving_rrhs[i]],
        alpha_rrh=alpha_rrh,
        alpha_mbs=alpha_mbs,
    )
    topo.validate()
    return topo


def with_seed(cfg: ScenarioConfig, seed: int) -> ScenarioConfig:
    return replace(cfg, rng_seed=seed)
