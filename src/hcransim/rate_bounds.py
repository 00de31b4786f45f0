"""Spectral-efficiency lower bounds and exact ergodic rates on the link
statistics that training returns.

``channel.AggregatedLinks`` holds, for every RRH->UE and MBS->UE link, the
conditional mean given the training output and a per-antenna variance: an
estimated link is its MMSE estimate plus a zero-mean error with the
estimation error variance, a link not estimated is zero-mean with variance
alpha. RTD's equalizer step and the lower bound read one signal, each UE's
``useful_amplitude`` est_m^H w_m. The lower bound replaces each interference
term by its second moment under that model, taken per RRH
(block-diagonally across the RRHs of a serving cluster): the moment of
cluster(src)->dst is

    sum_{k in C(src)}  |est[k, dst]^H w_k|^2 + var[k, dst] * ||w_k||^2.

``monte_carlo_rates`` computes the rate the bound stands in for exactly under
that model, as a one-dimensional Laplace-transform integral.

Beams are zero off the serving links, so the moments, the useful amplitudes
and the exact rate's mean amplitudes are summed per served link
(``Topology.served_links``; ``link_amplitudes`` gives the estimate part,
``AggregatedLinks.served`` the statistics gathered at those links): their
cost scales with served links x users, not with K M^2. For the same reason
the covariance of the amplitudes a user receives is block-diagonal over
``Topology.sharing_blocks``: two RUEs' beams meet only at an RRH that serves
both, and BUEs' beams only at the MBS. The exact rate diagonalizes the
blocks one at a time, not one M x M matrix per user. The largest RUE block
holds up to 3 of the users at (8, 25) and 5-14 at (32, 100) (20 drops
each), but 26-62 at (64, 200) and 111-124 at (128, 400), where the user
density joins most RUEs into one block and the saving fades.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import AggregatedLinks
from .scenario import Topology


def build_covariances(topology: Topology, links: AggregatedLinks) -> AggregatedLinks:
    """``links`` itself, checked to carry ``topology``: training attaches it.
    Kept only as the name the benchmark patches and times
    (``bench/tracing.py:38``, ``bench/run.py:116``); ROADMAP item 24 unpins
    it, and then it is deleted."""
    if links.topology is not topology:
        raise ValueError("links were trained on another topology")
    return links


def link_amplitudes(links: AggregatedLinks, w_rrh: np.ndarray) -> np.ndarray:
    """(L, M) array: entry [l, d] is est_rrh[k, d]^H w_rrh[s, k] for served
    link l = (s, k) of ``links.topology.served_links``, the amplitude of UE
    s's beam at RRH k through the estimate of the link RRH k -> UE d. Beams
    off the serving links are not read."""
    ue, rrh = links.topology.served_links
    # conj(est w*) = est* w, with the conjugation on the (L, M) result
    return (links.served.est @ w_rrh[ue, rrh].conj()[:, :, None])[:, :, 0].conj()


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
    rrh_part = np.sum(coherent + power[:, None] * links.served.var, axis=0)
    mbs = np.abs(w_mbs @ links.served.est_mbs_conj.T) ** 2
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
    own = np.einsum("ln,ln->l", links.served.own_est_conj, w_rrh[ue, rrh])
    rrh_part = np.zeros(len(w_mbs), dtype=complex)
    np.add.at(rrh_part, ue, own)  # in link order: ascending RRH per UE
    return rrh_part + np.einsum("mb,mb->m", links.served.est_mbs_conj, w_mbs)


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

    C_d is block-diagonal (``_block_spectra``), and the mean term enters only
    where nu is nonzero: under estimated CSI, in d's own block.

    Returns (rates, stderr) keyed by UE id, RUEs first, both scaled by the
    prelog; stderr is the rule's error estimate, |Q - Q on every second
    node|, so ``trials`` is even (otherwise that rule stops one interval
    short). The name is kept from the Monte Carlo sampler this replaced.
    Sweeps always use the default 400 intervals; ``trials`` is kept because
    the benchmark's tracer reads it through this signature to count
    quadrature work.
    """
    if trials < 2 or trials % 2:
        raise ValueError(f"trials must be >= 2 and even, got {trials!r}")
    w_rrh, w_mbs = beams
    topology = links.topology
    num_ue = len(w_mbs)
    # mean[dst, src]: the estimate part of the links, summed over src's cluster
    ue, _ = topology.served_links
    by_source = np.zeros((num_ue, num_ue), dtype=complex)
    np.add.at(by_source, ue, link_amplitudes(links, w_rrh))
    mean = by_source.T + links.served.est_mbs_conj @ w_mbs.T
    signal = np.abs(np.diagonal(mean)) ** 2
    np.fill_diagonal(mean, 0.0)

    lam, nu2 = _block_spectra(links, beams, mean)

    # The nodes of every user, then the integrand user by user. A term with
    # lam = 0 is t |nu|^2 and one with nu = 0 is log1p(t lam).
    total = noise_power + signal + lam.sum(axis=1) + nu2.sum(axis=1)
    u = np.linspace(np.log(1e-16 / total), math.log(40.0 / noise_power), trials + 1, axis=1)
    t = np.exp(u)
    noisy = lam > 0.0
    mixed = noisy & (nu2 != 0.0)
    log_phi = -t * np.where(noisy, 0.0, nu2).sum(axis=1)[:, None]
    for m in range(num_ue):
        tm = t[m, :, None]
        log_phi[m] -= np.log1p(tm * lam[m, noisy[m]]).sum(axis=1)
        if mixed[m].any():
            log_phi[m] -= (tm * nu2[m, mixed[m]] / (1.0 + tm * lam[m, mixed[m]])).sum(axis=1)
    f = np.exp(log_phi - t * noise_power) * -np.expm1(-t * signal[:, None])
    step = u[:, 1] - u[:, 0]
    ends = 0.5 * (f[:, 0] + f[:, -1])
    fine = step * (f.sum(axis=1) - ends)
    coarse = 2.0 * step * (f[:, ::2].sum(axis=1) - ends)
    scale = prelog / math.log(2.0)
    ids = topology.rue_set + topology.bue_set
    return ({m: scale * float(fine[m]) for m in ids},
            {m: scale * float(abs(fine[m] - coarse[m])) for m in ids})


def _block_spectra(links: AggregatedLinks, beams, mean: np.ndarray):
    """(lam, nu2), each (M, M): row d holds the eigenvalues of C_d (see
    ``monte_carlo_rates``) and |nu|^2, nu the mean row ``mean[d]`` (entry d
    zeroed) in their eigenbasis, block by block.

    W_k has rows only for the users RRH k serves and W_mbs only for BUEs, so
    C_d is block-diagonal over ``Topology.sharing_blocks`` and the BUE block.
    A block's covariance, for every d at once, weights the Grams of its
    beams at its serving RRHs by var_rrh[k, d]. Those beams are read at
    every pair of a block user and a block RRH, where they are zero off the
    serving links. Each block takes one ``eigh``, and a one-user block is
    its own eigenvalue. MBS beams of RUEs are not read.
    """
    w_rrh, w_mbs = beams
    topology = links.topology
    # per block: its users (n,), receiver variances (R, M), beams there (R, n, N)
    blocks = []
    for users in topology.sharing_blocks:
        rrhs = sorted({k for i in users for k in topology.serving_rrhs[i]})
        blocks.append((users, links.var_rrh[rrhs], w_rrh[np.ix_(users, rrhs)].transpose(1, 0, 2)))
    bue = topology.bue_set
    if bue:
        blocks.append((bue, links.var_mbs[None], w_mbs[None, bue]))
    lam, nu2 = [], []
    for users, var, at in blocks:
        n = len(users)
        gram = at @ at.conj().transpose(0, 2, 1)  # (R, n, n), one per receiver
        cov = (var.T @ gram.reshape(len(var), n * n)).reshape(-1, n, n)
        mu = mean[:, users]  # (M, n)
        if n == 1:
            lam.append(cov[:, 0].real)
            nu2.append(np.abs(mu) ** 2)
        else:
            val, vecs = np.linalg.eigh(cov)
            lam.append(val)
            nu2.append(np.abs(np.einsum("dsi,ds->di", vecs.conj(), mu)) ** 2)
    return np.maximum(np.concatenate(lam, axis=1), 0.0), np.concatenate(nu2, axis=1)
