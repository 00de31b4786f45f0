"""Per-link statistics, spectral-efficiency lower bounds, and Monte-Carlo
achievable rates.

Conditioned on the training output, every RRH->UE and MBS->UE link has a
conditional mean and a per-antenna variance: a *known* link is its MMSE
estimate plus a zero-mean error of variance errvar, an *unknown* link is
zero-mean with variance alpha. ``AggregatedLinks`` keeps exactly these numbers
as arrays. The lower bound replaces each interference term by its second
moment under that model, taken per RRH (block-diagonally across the RRHs of
a serving cluster): the moment of cluster(src)->dst is

    sum_{k in C(src)}  |est[k, dst]^H w_k|^2 + var[k, dst] * ||w_k||^2.

Each RRH-served user i sees an aggregated channel from its serving cluster
(the per-RRH vectors stacked in sorted RRH order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelState
from .scenario import Topology


@dataclass
class AggregatedLinks:
    """Conditional mean and per-antenna variance of every link.

    ``est_rrh[k, m]`` is the estimate of the RRH k -> UE m link (zero where
    the link was not estimated) and ``var_rrh[k, m]`` its error variance
    (alpha where it was not); ``est_mbs``/``var_mbs`` hold the same for the
    MBS -> UE links.
    """

    rue_ids: list[int]
    bue_ids: list[int]
    block_rrhs: dict[int, list[int]]    # RUE -> sorted serving RRHs
    est_rrh: np.ndarray                 # (K, M, N) complex
    var_rrh: np.ndarray                 # (K, M)
    est_mbs: np.ndarray                 # (M, B) complex
    var_mbs: np.ndarray                 # (M,)

    @property
    def block_size(self) -> int:
        """Antennas per RRH block."""
        return self.est_rrh.shape[2]

    @property
    def mbs_antennas(self) -> int:
        return self.est_mbs.shape[1]

    def dim(self, rue_id: int) -> int:
        return self.block_size * len(self.block_rrhs[rue_id])

    def estimate(self, ue_id: int) -> np.ndarray:
        """The usable channel of a UE: the stacked cluster estimate of a RUE,
        the MBS-link estimate of a BUE."""
        if ue_id in self.block_rrhs:
            return self.est_rrh[self.block_rrhs[ue_id], ue_id].reshape(-1)
        return self.est_mbs[ue_id]


def build_covariances(topology: Topology, state: ChannelState) -> AggregatedLinks:
    n_ant = topology.config.rrh_antennas
    b_ant = topology.config.mbs_antennas
    est_rrh = np.zeros((topology.num_rrh, topology.num_ue, n_ant), dtype=complex)
    var_rrh = np.array(topology.alpha_rrh, dtype=float)
    for (k, m), est in state.est_rrh.items():
        est_rrh[k, m] = est
        var_rrh[k, m] = state.errvar_rrh[(k, m)]
    est_mbs = np.zeros((topology.num_ue, b_ant), dtype=complex)
    var_mbs = np.array(topology.alpha_mbs, dtype=float)
    for m, est in state.est_mbs.items():
        est_mbs[m] = est
        var_mbs[m] = state.errvar_mbs[m]
    rue_ids = list(topology.rue_set)
    return AggregatedLinks(
        rue_ids=rue_ids,
        bue_ids=list(topology.bue_set),
        block_rrhs={i: list(topology.serving_rrhs[i]) for i in rue_ids},
        est_rrh=est_rrh,
        var_rrh=var_rrh,
        est_mbs=est_mbs,
        var_mbs=var_mbs,
    )


def _beam_arrays(links: AggregatedLinks, beams):
    """Every UE's beams as arrays: per-RRH blocks (M, K, N), zero off the
    UE's cluster and for BUEs, and MBS beams (M, B), zero for RUEs."""
    num_rrh, num_ue, n_ant = links.est_rrh.shape
    rrh = np.zeros((num_ue, num_rrh, n_ant), dtype=complex)
    for i in links.rue_ids:
        rrh[i, links.block_rrhs[i]] = beams.rue[i].reshape(-1, n_ant)
    mbs = np.zeros((num_ue, links.mbs_antennas), dtype=complex)
    for j in links.bue_ids:
        mbs[j] = beams.bue[j]
    return rrh, mbs


def interference_plus_noise(links: AggregatedLinks, beams, noise_power: float):
    """Expected interference-plus-noise power per UE under the link model.

    Entry [src, dst] of the moment matrix is the second moment of what src's
    beams deliver to dst; on the diagonal only the error (variance) part
    counts, since the estimate part is the UE's own signal.

    Returns (per-RUE dict, per-BUE dict). Shared by the lower bound, the
    equalizer update, and the QCQP assembly identity.
    """
    w_rrh, w_mbs = _beam_arrays(links, beams)
    # amplitude[k, src, dst] = est[k, dst]^H w_src,k, one matrix product per RRH
    amplitude = w_rrh.transpose(1, 0, 2) @ links.est_rrh.conj().transpose(0, 2, 1)
    coherent = np.sum(np.abs(amplitude) ** 2, axis=0)
    coherent += np.abs(w_mbs @ links.est_mbs.conj().T) ** 2
    incoherent = np.sum(np.abs(w_rrh) ** 2, axis=2) @ links.var_rrh
    incoherent += np.outer(np.sum(np.abs(w_mbs) ** 2, axis=1), links.var_mbs)
    moments = coherent + incoherent
    np.fill_diagonal(moments, np.diagonal(incoherent))
    total = moments.sum(axis=0) + noise_power
    j_rue = {i: float(total[i]) for i in links.rue_ids}
    j_bue = {j: float(total[j]) for j in links.bue_ids}
    return j_rue, j_bue


def lower_bound_rates(links: AggregatedLinks, beams, noise_power: float, prelog: float):
    """Per-UE spectral-efficiency lower bounds (bits/s/Hz)."""
    j_rue, j_bue = interference_plus_noise(links, beams, noise_power)
    rates: dict[int, float] = {}
    for i in links.rue_ids:
        signal = abs(np.vdot(links.estimate(i), beams.rue[i])) ** 2
        rates[i] = prelog * math.log2(1.0 + signal / j_rue[i])
    for j in links.bue_ids:
        signal = abs(np.vdot(links.estimate(j), beams.bue[j])) ** 2
        rates[j] = prelog * math.log2(1.0 + signal / j_bue[j])
    return rates


def monte_carlo_rates(
    topology: Topology,
    state: ChannelState,
    beams,
    noise_power: float,
    prelog: float,
    trials: int = 2000,
    seed=0,
):
    """Achievable-rate estimates by redrawing the unknowns.

    Per trial, every known link is estimate + CN(0, errvar*I) and every unknown
    link is CN(0, alpha*I); estimates stay fixed. Each UE's effective SINR uses
    a consistent draw of its own channels across all interference terms.
    Returns (rates, stderr) keyed by UE id, both scaled by the prelog.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    n_ant = topology.config.rrh_antennas
    b_ant = topology.config.mbs_antennas
    alpha_r, alpha_b = topology.alpha_rrh, topology.alpha_mbs
    rue_ids = list(topology.rue_set)
    bue_ids = list(topology.bue_set)
    active_rrhs = sorted({k for i in rue_ids for k in topology.serving_rrhs[i]})

    def ue_links(m: int):
        """Per-trial channels of UE m from every active RRH and the MBS.

        Returns (rrh_links: dict k -> (trials, N), rrh_errors: dict k -> error
        part for known links, mbs_link (trials, B), mbs_error).
        """
        rrh_links, rrh_errors = {}, {}
        for k in active_rrhs:
            draw = rng.standard_normal((trials, n_ant)) + 1j * rng.standard_normal((trials, n_ant))
            draw /= np.sqrt(2.0)
            if (k, m) in state.est_rrh:
                err = np.sqrt(state.errvar_rrh[(k, m)]) * draw
                rrh_errors[k] = err
                rrh_links[k] = state.est_rrh[(k, m)][None, :] + err
            else:
                rrh_links[k] = np.sqrt(alpha_r[k, m]) * draw
        draw_b = rng.standard_normal((trials, b_ant)) + 1j * rng.standard_normal((trials, b_ant))
        draw_b /= np.sqrt(2.0)
        if m in state.est_mbs:
            mbs_error = np.sqrt(state.errvar_mbs[m]) * draw_b
            mbs_link = state.est_mbs[m][None, :] + mbs_error
        else:
            mbs_error = None
            mbs_link = np.sqrt(alpha_b[m]) * draw_b
        return rrh_links, rrh_errors, mbs_link, mbs_error

    def stack(parts: dict, cluster) -> np.ndarray:
        return np.concatenate([parts[k] for k in cluster], axis=1)

    rates: dict[int, float] = {}
    stderr: dict[int, float] = {}

    for i in rue_ids:
        rrh_links, rrh_errors, mbs_link, _ = ue_links(i)
        cluster = topology.serving_rrhs[i]
        signal = abs(np.vdot(_stacked_estimate(state, cluster, i), beams.rue[i])) ** 2
        denom = np.full(trials, noise_power)
        own_err = stack({k: rrh_errors.get(k, rrh_links[k]) for k in cluster}, cluster)
        denom += np.abs(own_err.conj() @ beams.rue[i]) ** 2
        for src in rue_ids:
            if src == i:
                continue
            g = stack(rrh_links, topology.serving_rrhs[src])
            denom += np.abs(g.conj() @ beams.rue[src]) ** 2
        for j in bue_ids:
            denom += np.abs(mbs_link.conj() @ beams.bue[j]) ** 2
        per_trial = np.log2(1.0 + signal / denom)
        rates[i] = prelog * float(per_trial.mean())
        stderr[i] = prelog * _stderr(per_trial)

    for j in bue_ids:
        rrh_links, _, mbs_link, mbs_error = ue_links(j)
        signal = abs(np.vdot(state.est_mbs[j], beams.bue[j])) ** 2
        denom = np.full(trials, noise_power)
        denom += np.abs(mbs_error.conj() @ beams.bue[j]) ** 2
        for i in rue_ids:
            g = stack(rrh_links, topology.serving_rrhs[i])
            denom += np.abs(g.conj() @ beams.rue[i]) ** 2
        for other in bue_ids:
            if other != j:
                denom += np.abs(mbs_link.conj() @ beams.bue[other]) ** 2
        per_trial = np.log2(1.0 + signal / denom)
        rates[j] = prelog * float(per_trial.mean())
        stderr[j] = prelog * _stderr(per_trial)

    return rates, stderr


def _stacked_estimate(state: ChannelState, cluster, i: int) -> np.ndarray:
    return np.concatenate([state.est_rrh[(k, i)] for k in cluster])


def _stderr(samples: np.ndarray) -> float:
    if samples.size < 2:
        return 0.0
    return float(samples.std(ddof=1) / np.sqrt(samples.size))


@dataclass
class RateReport:
    lb_rue: dict[int, float]
    lb_bue: dict[int, float]
    mc_rue: dict[int, float]
    mc_bue: dict[int, float]
    mc_stderr_rue: dict[int, float]
    mc_stderr_bue: dict[int, float]
    prelog: float

    def rows(self):
        """CSV rows (ue_id, type, lower_bound, mc_rate, mc_stderr)."""
        out = []
        for i in sorted(self.lb_rue):
            out.append((i, "rue", self.lb_rue[i], self.mc_rue[i], self.mc_stderr_rue[i]))
        for j in sorted(self.lb_bue):
            out.append((j, "bue", self.lb_bue[j], self.mc_bue[j], self.mc_stderr_bue[j]))
        return out


def make_rate_report(topology, links, beams, noise_power, prelog, state, trials, seed) -> RateReport:
    lb = lower_bound_rates(links, beams, noise_power, prelog)
    mc, se = monte_carlo_rates(topology, state, beams, noise_power, prelog, trials, seed)
    return RateReport(
        lb_rue={i: lb[i] for i in topology.rue_set},
        lb_bue={j: lb[j] for j in topology.bue_set},
        mc_rue={i: mc[i] for i in topology.rue_set},
        mc_bue={j: mc[j] for j in topology.bue_set},
        mc_stderr_rue={i: se[i] for i in topology.rue_set},
        mc_stderr_bue={j: se[j] for j in topology.bue_set},
        prelog=prelog,
    )
