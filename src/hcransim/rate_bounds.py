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
(the per-RRH vectors stacked in sorted RRH order). Monte Carlo redraws every
link from the same model to measure the exact rate the bound stands in for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelState
from .scenario import Topology

MC_RRH_GROUP = 16  # RRHs drawn per block in monte_carlo_rates; bounds its buffers


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
    own = {**beams.rue, **beams.bue}
    return {
        m: prelog * math.log2(1.0 + abs(np.vdot(links.estimate(m), own[m])) ** 2 / j)
        for m, j in {**j_rue, **j_bue}.items()
    }


def monte_carlo_rates(
    links: AggregatedLinks, beams, noise_power: float, prelog: float, trials: int = 2000, seed=0
):
    """Achievable rates by redrawing every link from the link model.

    Per trial the RRH k -> UE m link is est_rrh[k, m] + sqrt(var_rrh[k, m]) z,
    z ~ CN(0, I), and the MBS link likewise: a known link is its estimate plus
    CN(0, errvar I), an unknown one CN(0, alpha I). Each source delivers the
    exact amplitude summed over its cluster; a UE's own beam counts only
    through its error part, the estimate part being the signal.

    Seed contract (a realization's slot-4 stream): for each UE in the order
    rue_ids + bue_ids, one (trials, N) real block and then one imaginary block
    for each active RRH (serving some RUE) in ascending order, then the MBS
    (trials, B) real and imaginary blocks. Returns (rates, stderr) keyed by UE
    id, both scaled by the prelog.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    w_rrh, w_mbs = _beam_arrays(links, beams)
    # mean[dst, src]: the estimate part of the links, summed over src's cluster
    mean = np.einsum("skn,kdn->ds", w_rrh, links.est_rrh.conj()) + links.est_mbs.conj() @ w_mbs.T
    mean_parts = np.concatenate([mean.real, mean.imag], axis=1)
    num_ue = len(mean)
    active = sorted({k for i in links.rue_ids for k in links.block_rrhs[i]})
    coef_rrh = _draw_coefficients(w_rrh[:, active].transpose(1, 2, 0))
    coef_mbs = _draw_coefficients(w_mbs.T)
    scale_rrh = np.sqrt(links.var_rrh[active] / 2.0)
    rates, stderr = {}, {}
    for m in links.rue_ids + links.bue_ids:
        # real and imaginary parts of every source's amplitude at m, per trial
        parts = np.tile(mean_parts[m], (trials, 1))
        parts[:, [m, num_ue + m]] = 0.0  # the own estimate part is the signal
        for start in range(0, len(active), MC_RRH_GROUP):
            group = slice(start, start + MC_RRH_GROUP)
            draw = rng.standard_normal((len(active[group]), 2, trials, links.block_size))
            coef = coef_rrh[group] * scale_rrh[group, m, None, None, None]
            parts += np.tensordot(draw, coef, axes=([0, 1, 3], [0, 1, 2]))
        draw = rng.standard_normal((2, trials, links.mbs_antennas))
        coef = np.sqrt(links.var_mbs[m] / 2.0) * coef_mbs
        parts += np.tensordot(draw, coef, axes=([0, 2], [0, 1]))
        denom = noise_power + np.sum(parts**2, axis=1)
        per_trial = np.log2(1.0 + abs(mean[m, m]) ** 2 / denom)
        rates[m] = prelog * float(per_trial.mean())
        spread = per_trial.std(ddof=1) / math.sqrt(trials) if trials > 1 else 0.0
        stderr[m] = prelog * float(spread)
    return rates, stderr


def _draw_coefficients(w: np.ndarray) -> np.ndarray:
    """Real coefficients (..., 2, ant, 2M) taking the parts (a, b) of a unit
    draw to the real and imaginary parts of conj(a + ib) w = a w + b (-i w),
    for beams w (..., ant, M)."""
    both = np.stack([w, -1j * w], axis=-3)
    return np.concatenate([both.real, both.imag], axis=-1)
