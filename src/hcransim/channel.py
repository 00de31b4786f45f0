"""Small-scale fading, uplink training, and MMSE channel estimation.

Training is simulated through the pilot-projected sufficient statistic: with
orthonormal pilots, projecting the received block onto pilot p leaves the
superposition of the co-pilot users' channels plus one CN(0, noise*I) vector,
so the full training matrix is never materialized. ``estimate_channels``
makes one array pass per pilot over the serving links of that pilot's RUEs,
with the draws and the floating-point operations of the per-link
estimator, so its output is bit for bit that estimator's. Training returns
``AggregatedLinks``, the one type the rate and beamforming code read: for
every RRH->UE and MBS->UE link the conditional mean and per-antenna variance,
with the topology that holds the serving clusters. An estimated link has its
MMSE estimate and error variance, the true channel being estimate + error
with the error independent of the estimate; a link no receiver estimated has
mean zero and variance alpha.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .pilot_scheduler import PilotAssignment, group_by_pilot, validate_assignment
from .scenario import Topology
from .util import crandn, dbm_to_watt, require_finite


@dataclass(frozen=True)
class TrainingConfig:
    p_rue: float = dbm_to_watt(17.0)        # uplink pilot power of RRH-served users, W
    p_bue: float = dbm_to_watt(20.0)        # uplink pilot power of MBS-served users, W
    noise_power: float = dbm_to_watt(-100.0)  # receiver noise, W
    tau: int = 5                             # pilot length, symbols
    coherence: int = 50                      # coherence block length T, symbols

    def __post_init__(self) -> None:
        require_finite(self)
        if min(self.p_rue, self.p_bue, self.noise_power) <= 0:
            raise ValueError("powers must be positive")
        if not 0 < self.tau < self.coherence:
            raise ValueError("need 0 < tau < coherence")


def prelog_factor(tau: int, coherence: int) -> float:
    """Fraction of the coherence block left for data: (T - tau)/T."""
    if not 0 < tau < coherence:
        raise ValueError("need 0 < tau < coherence")
    return (coherence - tau) / coherence


@dataclass
class TrueChannels:
    rrh: np.ndarray  # (K, M, N) complex, RRH k -> UE m
    mbs: np.ndarray  # (M, B) complex, MBS -> UE m


class ServedStats(NamedTuple):
    """The link statistics the rate code reads at every serving link l =
    (ue[l], rrh[l]) of ``Topology.served_links``."""

    est: np.ndarray           # (L, M, N) est_rrh[rrh]: RRH rrh[l] -> every UE
    var: np.ndarray           # (L, M) var_rrh[rrh]
    own_est_conj: np.ndarray  # (L, N) conj(est_rrh[rrh, ue]): the link itself
    est_mbs_conj: np.ndarray  # (M, B) conj(est_mbs)


@dataclass
class AggregatedLinks:
    """Conditional mean and per-antenna variance of every link.

    ``est_rrh[k, m]`` is the MMSE estimate of the RRH k -> UE m link (zero
    where the link was not estimated) and ``var_rrh[k, m]`` its error
    variance (alpha where it was not); ``est_mbs``/``var_mbs`` hold the same
    for the MBS -> UE links. The serving clusters are
    ``topology.serving_rrhs``. ``served`` gathers the arrays at the serving
    links on first read and caches them, so the arrays must not change after
    it is read.
    """

    topology: Topology
    est_rrh: np.ndarray                 # (K, M, N) complex
    var_rrh: np.ndarray                 # (K, M)
    est_mbs: np.ndarray                 # (M, B) complex
    var_mbs: np.ndarray                 # (M,)

    @property
    def mbs_antennas(self) -> int:
        return self.est_mbs.shape[1]

    @cached_property
    def served(self) -> ServedStats:
        ue, rrh = self.topology.served_links
        return ServedStats(self.est_rrh[rrh], self.var_rrh[rrh],
                           self.est_rrh[rrh, ue].conj(), self.est_mbs.conj())


def draw_small_scale(topology: Topology, seed) -> TrueChannels:
    """Independent CN(0, alpha*I) fading on every link."""
    rng = np.random.default_rng(seed)
    n_ant = topology.config.rrh_antennas
    b_ant = topology.config.mbs_antennas
    rrh = crandn(rng, topology.num_rrh, topology.num_ue, n_ant)
    rrh *= np.sqrt(topology.alpha_rrh)[:, :, None]
    mbs = crandn(rng, topology.num_ue, b_ant)
    mbs *= np.sqrt(topology.alpha_mbs)[:, None]
    return TrueChannels(rrh=rrh, mbs=mbs)


def estimate_channels(
    topology: Topology,
    assignment: PilotAssignment,
    training: TrainingConfig,
    channels: TrueChannels,
    seed,
) -> AggregatedLinks:
    """MMSE estimation from one simulated training phase.

    Draw order (reproducibility contract): RRH projected noise (K, tau, N),
    then MBS projected noise (tau, B). RRH k estimates the users it serves;
    the MBS estimates its own users.
    """
    validate_assignment(topology, assignment)
    rng = np.random.default_rng(seed)
    p_r, p_b, n0 = training.p_rue, training.p_bue, training.noise_power
    tau = assignment.tau
    alpha_r, alpha_b = topology.alpha_rrh, topology.alpha_mbs
    n_ant = topology.config.rrh_antennas
    b_ant = topology.config.mbs_antennas

    noise_rrh = np.sqrt(n0) * crandn(rng, topology.num_rrh, tau, n_ant)
    noise_mbs = np.sqrt(n0) * crandn(rng, tau, b_ant)

    est_rrh = np.zeros((topology.num_rrh, topology.num_ue, n_ant), dtype=complex)
    var_rrh = np.array(alpha_r, dtype=float)
    est_mbs = np.zeros((topology.num_ue, b_ant), dtype=complex)
    var_mbs = np.array(alpha_b, dtype=float)

    ue, rrh = topology.served_links
    link_pilot = assignment.pilots[ue]
    # Per pilot, the MBS's observation and MMSE denominator.
    observed_b, denom_b = np.zeros((tau, b_ant), dtype=complex), np.zeros(tau)
    for p, (rues, bues) in group_by_pilot(topology, assignment.pilots).items():
        pick = np.flatnonzero(link_pilot == p)  # the served links of this pilot's RUEs
        if pick.size:
            ks, owners = rrh[pick], ue[pick]
            # The (links, members) gathers are C-contiguous, so each row sums
            # in the order channels.rrh[k, rues].sum(axis=0) and
            # alpha_r[k, rues].sum() do (a strided member axis would not).
            col = ks[:, None]
            observed = np.sqrt(p_r) * channels.rrh[col, rues].sum(axis=1)
            if bues:
                observed = observed + np.sqrt(p_b) * channels.rrh[col, bues].sum(axis=1)
            observed += noise_rrh[ks, p - 1]
            denom = p_r * alpha_r[col, rues].sum(axis=1) + p_b * alpha_r[col, bues].sum(axis=1) + n0
            alpha = alpha_r[ks, owners]
            est_rrh[ks, owners] = (np.sqrt(p_r) * alpha / denom)[:, None] * observed
            var_rrh[ks, owners] = alpha * (denom - p_r * alpha) / denom
        if bues:
            observed_b[p - 1] = (
                (np.sqrt(p_r) * channels.mbs[rues].sum(axis=0) if rues else 0.0)
                + np.sqrt(p_b) * channels.mbs[bues].sum(axis=0)
                + noise_mbs[p - 1]
            )
            denom_b[p - 1] = p_r * alpha_b[rues].sum() + p_b * alpha_b[bues].sum() + n0
    bue = topology.bue_set
    at, alpha = assignment.pilots[bue] - 1, alpha_b[bue]
    est_mbs[bue] = (np.sqrt(p_b) * alpha / denom_b[at])[:, None] * observed_b[at]
    var_mbs[bue] = alpha * (denom_b[at] - p_b * alpha) / denom_b[at]

    return AggregatedLinks(topology, est_rrh, var_rrh, est_mbs, var_mbs)


def perfect_channel_state(topology: Topology, channels: TrueChannels) -> AggregatedLinks:
    """Reference variant: every link 'estimated' exactly (zero error variance).

    Feeding this into the rate/beamforming pipeline yields the perfect-CSI
    upper-reference curves.
    """
    return AggregatedLinks(
        topology=topology,
        est_rrh=channels.rrh.copy(),
        var_rrh=np.zeros((topology.num_rrh, topology.num_ue)),
        est_mbs=channels.mbs.copy(),
        var_mbs=np.zeros(topology.num_ue),
    )
