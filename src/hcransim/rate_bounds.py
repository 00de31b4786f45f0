"""Per-link statistics, spectral-efficiency lower bounds, and exact ergodic
rates.

Conditioned on the training output, every RRH->UE and MBS->UE link has a
conditional mean and a per-antenna variance: an estimated link is its MMSE
estimate plus a zero-mean error with the estimation error variance, a link
not estimated is zero-mean with variance alpha. ``estimate_channels`` writes these
numbers as arrays and ``AggregatedLinks`` attaches the topology, which holds
the serving clusters, to the same arrays. RTD's equalizer step and the lower
bound read one signal, each UE's ``useful_amplitude`` est_m^H w_m. The lower
bound replaces each interference term by its second moment under that model,
taken per RRH (block-diagonally across the RRHs of a serving cluster): the
moment of cluster(src)->dst is

    sum_{k in C(src)}  |est[k, dst]^H w_k|^2 + var[k, dst] * ||w_k||^2.

``monte_carlo_rates`` computes the rate the bound stands in for exactly under
that model, as a one-dimensional Laplace-transform integral.

Beams are zero off the serving links, so the moments, the useful amplitudes
and the exact rate's mean amplitudes are summed per served link
(``Topology.served_links``; ``link_amplitudes`` gives the estimate part):
their cost scales with served links x users, not with K M^2.
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
    MBS -> UE links. The serving clusters are ``topology.serving_rrhs``.
    """

    topology: Topology
    est_rrh: np.ndarray                 # (K, M, N) complex
    var_rrh: np.ndarray                 # (K, M)
    est_mbs: np.ndarray                 # (M, B) complex
    var_mbs: np.ndarray                 # (M,)

    @property
    def mbs_antennas(self) -> int:
        return self.est_mbs.shape[1]


def build_covariances(topology: Topology, state: ChannelState) -> AggregatedLinks:
    """The training output's link arrays (shared, not copied) with the
    topology, which holds the serving clusters, attached."""
    return AggregatedLinks(
        topology=topology,
        est_rrh=state.est_rrh,
        var_rrh=state.var_rrh,
        est_mbs=state.est_mbs,
        var_mbs=state.var_mbs,
    )


def link_amplitudes(links: AggregatedLinks, w_rrh: np.ndarray) -> np.ndarray:
    """(L, M) array: entry [l, d] is est_rrh[k, d]^H w_rrh[s, k] for served
    link l = (s, k) of ``links.topology.served_links``, the amplitude of UE
    s's beam at RRH k through the estimate of the link RRH k -> UE d. Beams
    off the serving links are not read."""
    ue, rrh = links.topology.served_links
    # conj(est w*) = est* w, with the conjugation on the (L, M) result
    return (links.est_rrh[rrh] @ w_rrh[ue, rrh].conj()[:, :, None])[:, :, 0].conj()


def interference_plus_noise(links: AggregatedLinks, beams, noise_power: float):
    """Expected interference-plus-noise power per UE under the link model.

    beams is a BeamformerSet or the same (w_rrh (M, K, N), w_mbs (M, B))
    pair of per-link arrays; RRH beams off the serving links are not read.
    UE d receives from every served link l = (s, k) its second moment
    |est[k, d]^H w_s,k|^2 + var[k, d] ||w_s,k||^2, and from every BUE's MBS
    beam the same; of its own links only the error (variance) part counts,
    since the estimate part is d's own signal.

    Returns an (M,) array indexed by UE id. Shared by the lower bound, the
    equalizer update, and the QCQP assembly identity.
    """
    w_rrh, w_mbs = beams
    ue, rrh = links.topology.served_links
    coherent = np.abs(link_amplitudes(links, w_rrh)) ** 2
    coherent[np.arange(ue.size), ue] = 0.0
    power = np.sum(np.abs(w_rrh[ue, rrh]) ** 2, axis=1)
    rrh_part = np.sum(coherent + power[:, None] * links.var_rrh[rrh], axis=0)
    mbs = np.abs(w_mbs @ links.est_mbs.conj().T) ** 2
    np.fill_diagonal(mbs, 0.0)
    mbs_part = np.sum(mbs, axis=0) + np.sum(np.abs(w_mbs) ** 2) * links.var_mbs
    return rrh_part + mbs_part + noise_power


def useful_amplitude(links: AggregatedLinks, beams) -> np.ndarray:
    """(M,) array by UE id of sum_k est_rrh[k, m]^H w_rrh[m, k] +
    est_mbs[m]^H w_mbs[m], k over m's serving cluster: the own-link estimate
    times the beam, since beams are zero off a UE's cluster and serving
    side. The own-link entries of ``link_amplitudes``, one dot product per
    link."""
    w_rrh, w_mbs = beams
    ue, rrh = links.topology.served_links
    own = np.einsum("ln,ln->l", links.est_rrh[rrh, ue].conj(), w_rrh[ue, rrh])
    rrh_part = np.zeros(len(w_mbs), dtype=complex)
    np.add.at(rrh_part, ue, own)  # in link order: ascending RRH per UE
    return rrh_part + np.einsum("mb,mb->m", links.est_mbs.conj(), w_mbs)


def lower_bound_rates(links: AggregatedLinks, beams, noise_power: float, prelog: float):
    """Per-UE spectral-efficiency lower bounds (bits/s/Hz), RUEs first:
    prelog * log2(1 + |useful_amplitude|^2 / interference_plus_noise)."""
    j_power = interference_plus_noise(links, beams, noise_power)
    sinr = np.abs(useful_amplitude(links, beams)) ** 2 / j_power
    ids = links.topology.rue_set + links.topology.bue_set
    return {m: prelog * math.log1p(sinr[m]) / math.log(2.0) for m in ids}


def monte_carlo_rates(
    links: AggregatedLinks, beams, noise_power: float, prelog: float, trials: int = 400
):
    """Exact ergodic rates under the link model, by quadrature.

    With the estimates fixed, the amplitudes all sources deliver to UE d form
    one complex Gaussian vector: mean mean[d, :] and covariance
    C_d = sum_k var_rrh[k, d] W_k W_k^H + var_mbs[d] W_mbs W_mbs^H (row s of
    W_k is UE s's beam block at RRH k). With signal S = |mean[d, d]|^2 and
    interference X = ||mu + e||^2 (mu the mean row with entry d zeroed,
    e ~ CN(0, C_d), the own error part included), Hamdi's lemma (IEEE T-Commun
    2010) gives E log2(1 + S / (noise + X)) as
    (1 / ln 2) int_0^inf e^(-t noise) phi(t) (1 - e^(-t S)) / t dt, where
    phi(t) = prod_i exp(-t |nu_i|^2 / (1 + t lam_i)) / (1 + t lam_i),
    C_d = U diag(lam) U^H and nu = U^H mu. The trapezoid rule in u = ln t runs
    over ``trials`` intervals of [ln(1e-16 / (noise + S + tr C_d + ||mu||^2)),
    ln(40 / noise)]; outside it the integrand is negligible.

    Returns (rates, stderr) keyed by UE id, both scaled by the prelog; stderr
    is the rule's error estimate, |Q - Q on every second node|, so ``trials``
    is even (otherwise that rule stops one interval short). The name is kept
    from the Monte Carlo sampler this replaced. Sweeps always use the default
    400 intervals; ``trials`` is kept because the benchmark's tracer reads it
    through this signature to count quadrature work.
    """
    if trials < 2 or trials % 2:
        raise ValueError(f"trials must be >= 2 and even, got {trials!r}")
    w_rrh, w_mbs = beams
    # mean[dst, src]: the estimate part of the links, summed over src's cluster
    ue, _ = links.topology.served_links
    by_source = np.zeros((len(w_mbs), len(w_mbs)), dtype=complex)
    np.add.at(by_source, ue, link_amplitudes(links, w_rrh))
    mean = by_source.T + links.est_mbs.conj() @ w_mbs.T
    per_rrh = w_rrh.transpose(1, 0, 2)
    gram = per_rrh @ per_rrh.conj().transpose(0, 2, 1)
    cov = np.tensordot(links.var_rrh.T, gram, axes=1)
    cov += links.var_mbs[:, None, None] * (w_mbs @ w_mbs.conj().T)
    lam, vecs = np.linalg.eigh(cov)
    lam = np.maximum(lam, 0.0)
    signal = np.abs(np.diagonal(mean)) ** 2
    np.fill_diagonal(mean, 0.0)
    nu2 = np.abs(np.einsum("dsi,ds->di", vecs.conj(), mean)) ** 2
    scale = prelog / math.log(2.0)
    rates, stderr = {}, {}
    for m in links.topology.rue_set + links.topology.bue_set:
        total = noise_power + signal[m] + lam[m].sum() + nu2[m].sum()
        u = np.linspace(math.log(1e-16 / total), math.log(40.0 / noise_power), trials + 1)
        t = np.exp(u)
        tlam = np.outer(t, lam[m])
        log_phi = -np.sum(np.log1p(tlam) + np.outer(t, nu2[m]) / (1.0 + tlam), axis=1)
        f = np.exp(log_phi - t * noise_power) * -np.expm1(-t * signal[m])
        step = u[1] - u[0]
        fine = _trapezoid(f, step)
        coarse = _trapezoid(f[::2], 2.0 * step)
        rates[m] = scale * fine
        stderr[m] = scale * abs(fine - coarse)
    return rates, stderr


def _trapezoid(f: np.ndarray, step: float) -> float:
    """Trapezoid rule on equally spaced samples (np.trapezoid needs numpy 2)."""
    return step * float(f.sum() - 0.5 * (f[0] + f[-1]))
