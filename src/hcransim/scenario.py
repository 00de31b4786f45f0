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
import json
from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from .util import require_finite, typed

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


@dataclass
class Topology:
    """A fixed network realization: placements, cluster map, gains.

    ``serving_rrhs`` is the one stored cluster map; ``rue_set``, ``bue_set``
    and ``served_rues`` are derived from it on first read and cached, so the
    map must not change after they are read.
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
    k_count = rrh_positions.shape[0]
    m_count = ue_positions.shape[0]
    dist = np.linalg.norm(rrh_positions[:, None, :] - ue_positions[None, :, :], axis=2)

    serving_rrhs: list[list[int]] = [[] for _ in range(m_count)]
    for k in range(k_count):
        candidates = [i for i in range(m_count) if dist[k, i] <= coverage_radius]
        candidates.sort(key=lambda i: (dist[k, i], i))
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

    topo = Topology(
        config=cfg,
        rrh_positions=rrh_positions,
        ue_positions=ue_positions,
        serving_rrhs=serving_rrhs,
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
    """Read a ``save_topology`` dump; an entry that is missing, repeated or
    out of range is a ValueError that names its tag and index, and a blank
    line or a header without this format version one that names the line.
    A config entry must name a ScenarioConfig field once, its value must have
    that field's type (``util.typed``, as in config files), and num_rrh and
    num_ue must count the rrh and ue entries."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][:1] != [TOPOLOGY_FORMAT]:
        raise ValueError(f"not a {TOPOLOGY_FORMAT} file: {path}")
    if rows[0][1:] != [str(TOPOLOGY_VERSION)]:
        raise ValueError(f"line 1: unsupported topology format version {rows[0][1:]}")

    config_kwargs: dict = {}
    # Per tag: the fields that index an entry, then the values it holds.
    layout = {"rrh": (1, 2), "ue": (1, 2), "serving": (2, 0),
              "alpha_rrh": (2, 1), "alpha_mbs": (1, 1)}
    entries: dict[str, dict] = {tag: {} for tag in layout}
    config_names = {f.name for f in fields(ScenarioConfig)}
    for line, row in enumerate(rows[1:], start=2):
        if not row:
            raise ValueError(f"line {line} is blank")
        tag = row[0]
        if tag == "config":
            _, name, text = row  # a ValueError unless the row holds a name and a value
            if name not in config_names:
                raise ValueError(f"unknown config entry {name!r}")
            if name in config_kwargs:
                raise ValueError(f"duplicate config entry {name!r}")
            try:  # the value as a config file would hold it
                value = json.loads(text)
            except ValueError:
                raise ValueError(f"config entry {name!r} is not a number: {text!r}") from None
            config_kwargs[name] = typed(value, type(getattr(ScenarioConfig, name)), name)
        elif tag in layout:
            width, values = layout[tag]
            if len(row) != 1 + width + values:
                raise ValueError(f"{tag} row {row} needs {width + values} fields after the tag")
            index = tuple(int(x) for x in row[1:1 + width])
            if index in entries[tag]:
                raise ValueError(f"duplicate {tag} entry {_label(index)}")
            entries[tag][index] = [float(x) for x in row[1 + width:]]
        else:
            raise ValueError(f"unknown row tag {tag!r}")

    k_count = 1 + max((k for k, in entries["rrh"]), default=-1)
    m_count = 1 + max((i for i, in entries["ue"]), default=-1)
    shapes = {"rrh": (k_count,), "ue": (m_count,), "serving": (m_count, k_count),
              "alpha_rrh": (k_count, m_count), "alpha_mbs": (m_count,)}
    for tag, shape in shapes.items():
        for index in entries[tag]:
            if not all(0 <= x < n for x, n in zip(index, shape)):
                raise ValueError(f"{tag} entry {_label(index)} out of range {shape}")
        missing = next((ix for ix in np.ndindex(*shape) if ix not in entries[tag]), None)
        if missing is not None and tag != "serving":  # a UE without one is MBS-served
            raise ValueError(f"missing {tag} entry {_label(missing)}")

    config = ScenarioConfig(**config_kwargs)
    if (config.num_rrh, config.num_ue) != (k_count, m_count):
        raise ValueError(f"config num_rrh {config.num_rrh} and num_ue {config.num_ue} do not "
                         f"count the {k_count} rrh and {m_count} ue entries")

    def table(tag: str) -> np.ndarray:
        values = [entries[tag][index] for index in np.ndindex(*shapes[tag])]
        return np.array(values, dtype=float).reshape(shapes[tag] + (layout[tag][1],))

    topo = Topology(
        config=config,
        rrh_positions=table("rrh"),
        ue_positions=table("ue"),
        serving_rrhs=[[k for j, k in sorted(entries["serving"]) if j == i] for i in range(m_count)],
        alpha_rrh=table("alpha_rrh")[..., 0],
        alpha_mbs=table("alpha_mbs")[:, 0],
    )
    topo.validate()
    return topo


def _label(index: tuple) -> str:
    return ",".join(map(str, index))


def with_seed(cfg: ScenarioConfig, seed: int) -> ScenarioConfig:
    return replace(cfg, rng_seed=seed)
