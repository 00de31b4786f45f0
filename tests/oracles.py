"""Independent reference implementations used to pin the library's numerics.

Everything here recomputes a quantity straight from its definition — plain
per-link loops, brute-force enumeration, golden-section search, a generic
projected-gradient solver — and deliberately shares no code path with the
package. Tests freeze values produced by these oracles or compare the library
against them at runtime.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np


# ---------------------------------------------------------------------------
# Channel-estimation error variance, one link at a time.


def delta_oracle(alpha_own, p_own, co_rue_alphas, co_bue_alphas, p_rue, p_bue, noise):
    """Per-antenna MMSE error variance of one estimated link.

    co_rue_alphas / co_bue_alphas are the gains toward the estimating receiver
    of every user sharing the pilot (the estimated user included on its own
    class's list); (alpha_own, p_own) single out the estimated link itself.
    """
    denom = p_rue * sum(co_rue_alphas) + p_bue * sum(co_bue_alphas) + noise
    return alpha_own * (denom - p_own * alpha_own) / denom


def sum_mse_oracle(topology, pilots, p_rue, p_bue, noise):
    """Sum estimation MSE from a literal loop over every estimated link."""
    n_ant = topology.config.rrh_antennas
    b_ant = topology.config.mbs_antennas
    total = 0.0
    for i in topology.rue_set:
        co_r = [x for x in topology.rue_set if pilots[x] == pilots[i]]
        co_b = [x for x in topology.bue_set if pilots[x] == pilots[i]]
        for k in topology.serving_rrhs[i]:
            total += n_ant * delta_oracle(
                topology.alpha_rrh[k, i],
                p_rue,
                [topology.alpha_rrh[k, x] for x in co_r],
                [topology.alpha_rrh[k, x] for x in co_b],
                p_rue,
                p_bue,
                noise,
            )
    for j in topology.bue_set:
        co_r = [x for x in topology.rue_set if pilots[x] == pilots[j]]
        co_b = [x for x in topology.bue_set if pilots[x] == pilots[j]]
        total += b_ant * delta_oracle(
            topology.alpha_mbs[j],
            p_bue,
            [topology.alpha_mbs[x] for x in co_r],
            [topology.alpha_mbs[x] for x in co_b],
            p_rue,
            p_bue,
            noise,
        )
    return total


def beta_oracle(topology, i, m):
    """Contamination level between RUE i and UE m, from its definition."""
    a_r = topology.alpha_rrh
    cluster_i = topology.serving_rrhs[i]
    own_i = sum(a_r[k, i] for k in cluster_i)
    if m in topology.bue_set:
        into_i = sum(a_r[k, m] for k in cluster_i) / own_i
        at_mbs = topology.alpha_mbs[i] / topology.alpha_mbs[m]
        return math.log1p(into_i + at_mbs)
    if m == i or set(cluster_i) & set(topology.serving_rrhs[m]):
        return 0.0
    own_m = sum(a_r[k, m] for k in topology.serving_rrhs[m])
    into_i = sum(a_r[k, m] for k in cluster_i) / own_i
    into_m = sum(a_r[k, i] for k in topology.serving_rrhs[m]) / own_m
    return math.log1p(into_i + into_m)


# ---------------------------------------------------------------------------
# Dsatur and PSA as plain loops over vertices, users and pilots.


def dsatur_oracle(adjacency):
    """Dsatur coloring (color count, colors) of a 0/1 adjacency matrix: the
    saturation of every uncolored vertex recounted from its neighbors at every
    step; highest saturation, then degree, then lowest index goes next and
    takes the smallest color no neighbor holds."""
    n = len(adjacency)
    colors = [-1] * n
    neighbors = [[u for u in range(n) if adjacency[v][u]] for v in range(n)]
    for _ in range(n):
        best_v, best_key = -1, None
        for v in range(n):
            if colors[v] >= 0:
                continue
            sat = len({colors[u] for u in neighbors[v] if colors[u] >= 0})
            key = (sat, len(neighbors[v]), -v)
            if best_key is None or key > best_key:
                best_v, best_key = v, key
        used = {colors[u] for u in neighbors[best_v]}
        c = 0
        while c in used:
            c += 1
        colors[best_v] = c
    return max(colors, default=-1) + 1, colors


def psa_oracle(topology, beta, adjacency, tau, rng=None):
    """PSA's pilot vector, with a pilot-to-users map kept beside it.

    BUE j holds pilot j; Dsatur classes go onto pilots 1..t, permuted by
    ``rng`` when given. Every RUE is then revisited once, worst-contaminated
    first (lowest id on a tie), and moved to the least-contaminated pilot its
    neighbors do not hold (lowest pilot on a tie).
    """
    rue_ids, bue_ids = topology.rue_set, topology.bue_set
    t, colors = dsatur_oracle(adjacency)
    tau_eff = max(tau, t, len(bue_ids))
    perm = rng.permutation(t) if (rng is not None and t) else range(t)
    pilots = [0] * topology.num_ue
    for idx, j in enumerate(bue_ids):
        pilots[j] = idx + 1
    for r, i in enumerate(rue_ids):
        pilots[i] = int(perm[colors[r]]) + 1
    bue_on_pilot = {idx + 1: j for idx, j in enumerate(bue_ids)}
    on_pilot = {p: set() for p in range(1, tau_eff + 1)}
    for r, i in enumerate(rue_ids):
        on_pilot[pilots[i]].add(r)

    def contamination(r, pilot):
        val = sum(beta[r, rue_ids[r2]] for r2 in on_pilot[pilot] if r2 != r)
        if pilot in bue_on_pilot:
            val += beta[r, bue_on_pilot[pilot]]
        return val

    pending = set(range(len(rue_ids)))
    for _ in range(len(rue_ids)):
        worst_r, worst_val = -1, -math.inf
        for r in sorted(pending):
            val = contamination(r, pilots[rue_ids[r]])
            if val > worst_val:
                worst_r, worst_val = r, val
        taken = {pilots[rue_ids[r2]] for r2 in range(len(rue_ids)) if adjacency[worst_r][r2]}
        best_p, best_val = 0, math.inf
        for p in range(1, tau_eff + 1):
            val = math.inf if p in taken else contamination(worst_r, p)
            if val < best_val:
                best_p, best_val = p, val
        i = rue_ids[worst_r]
        on_pilot[pilots[i]].discard(worst_r)
        on_pilot[best_p].add(worst_r)
        pilots[i] = best_p
        pending.remove(worst_r)
    return tau_eff, pilots


# ---------------------------------------------------------------------------
# Exhaustive schedule enumeration (no pruning, no shared code).


def enumerate_feasible_pilots(topology, tau):
    """Yield every pilot vector with BUEs on 1..|bue| and no RRH-sharing reuse."""
    pilots = np.zeros(topology.num_ue, dtype=int)
    for idx, j in enumerate(topology.bue_set):
        pilots[j] = idx + 1
    rues = topology.rue_set
    clusters = [set(topology.serving_rrhs[i]) for i in rues]
    for combo in itertools.product(range(1, tau + 1), repeat=len(rues)):
        ok = True
        for a in range(len(rues)):
            for b in range(a + 1, len(rues)):
                if combo[a] == combo[b] and clusters[a] & clusters[b]:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        for i, p in zip(rues, combo):
            pilots[i] = p
        yield pilots.copy()


def best_schedules_oracle(topology, tau, p_rue, p_bue, noise):
    """(minimum sum MSE, list of argmin pilot vectors) by full enumeration."""
    scored = [
        (sum_mse_oracle(topology, pilots, p_rue, p_bue, noise), pilots)
        for pilots in enumerate_feasible_pilots(topology, tau)
    ]
    best_value = min(value for value, _ in scored)
    argmins = [pilots for value, pilots in scored if value <= best_value * (1 + 1e-12)]
    return best_value, argmins


# ---------------------------------------------------------------------------
# MMSE channel estimation with per-link dicts.


@dataclasses.dataclass
class DictChannelState:
    """Training output keyed per link: a link is known iff it has an entry
    in est_rrh/est_mbs; known links are estimate + CN(0, errvar*I) error,
    unknown links CN(0, alpha*I)."""

    est_rrh: dict  # (rrh k, ue m) -> (N,)
    est_mbs: dict  # ue m -> (B,)
    errvar_rrh: dict
    errvar_mbs: dict


def _crandn(rng, *shape):
    out = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return out / np.sqrt(2.0)


def estimate_channels_oracle(topology, assignment, training, channels, seed):
    """MMSE estimation from one simulated training phase, link by link into
    dicts, with the library's draw order: RRH projected noise (K, tau, N),
    then MBS projected noise (tau, B). The input assignment must be valid.
    """
    rng = np.random.default_rng(seed)
    p_r, p_b, n0 = training.p_rue, training.p_bue, training.noise_power
    tau = assignment.tau
    alpha_r, alpha_b = topology.alpha_rrh, topology.alpha_mbs
    n_ant = topology.config.rrh_antennas
    b_ant = topology.config.mbs_antennas

    noise_rrh = np.sqrt(n0) * _crandn(rng, topology.num_rrh, tau, n_ant)
    noise_mbs = np.sqrt(n0) * _crandn(rng, tau, b_ant)

    est_rrh: dict[tuple[int, int], np.ndarray] = {}
    est_mbs: dict[int, np.ndarray] = {}
    errvar_rrh: dict[tuple[int, int], float] = {}
    errvar_mbs: dict[int, float] = {}

    for p in range(1, tau + 1):
        rues = [i for i in topology.rue_set if assignment.pilots[i] == p]
        bues = [j for j in topology.bue_set if assignment.pilots[j] == p]
        if not rues and not bues:
            continue
        for i in rues:
            for k in topology.serving_rrhs[i]:
                observed = (
                    np.sqrt(p_r) * channels.rrh[k, rues].sum(axis=0)
                    + (np.sqrt(p_b) * channels.rrh[k, bues].sum(axis=0) if bues else 0.0)
                    + noise_rrh[k, p - 1]
                )
                denom = p_r * alpha_r[k, rues].sum() + p_b * alpha_r[k, bues].sum() + n0
                est_rrh[(k, i)] = np.sqrt(p_r) * alpha_r[k, i] / denom * observed
                errvar_rrh[(k, i)] = alpha_r[k, i] * (denom - p_r * alpha_r[k, i]) / denom
        if bues:
            observed_b = (
                (np.sqrt(p_r) * channels.mbs[rues].sum(axis=0) if rues else 0.0)
                + np.sqrt(p_b) * channels.mbs[bues].sum(axis=0)
                + noise_mbs[p - 1]
            )
            denom_b = p_r * alpha_b[rues].sum() + p_b * alpha_b[bues].sum() + n0
            for j in bues:
                est_mbs[j] = np.sqrt(p_b) * alpha_b[j] / denom_b * observed_b
                errvar_mbs[j] = alpha_b[j] * (denom_b - p_b * alpha_b[j]) / denom_b

    return DictChannelState(
        est_rrh=est_rrh,
        est_mbs=est_mbs,
        errvar_rrh=errvar_rrh,
        errvar_mbs=errvar_mbs,
    )


def perfect_channel_state_oracle(topology, channels):
    """Every link 'estimated' exactly (zero error variance), as dicts."""
    est_rrh = {
        (k, m): channels.rrh[k, m].copy()
        for k in range(topology.num_rrh)
        for m in range(topology.num_ue)
    }
    est_mbs = {m: channels.mbs[m].copy() for m in range(topology.num_ue)}
    return DictChannelState(
        est_rrh=est_rrh,
        est_mbs=est_mbs,
        errvar_rrh={key: 0.0 for key in est_rrh},
        errvar_mbs={m: 0.0 for m in est_mbs},
    )


# ---------------------------------------------------------------------------
# Exact conditional second moments of stacked interference channels.


def full_stacked_cov_oracle(topology, state, src, dst):
    """E[g g^H] of the stacked channel from src's serving RRHs toward UE dst,
    conditioned on the training output, INCLUDING the cross-RRH blocks.

    A link (k, dst) with an estimate contributes mean ĥ and covariance
    errvar*I; an unestimated link is zero-mean with covariance alpha*I. Links
    at different RRHs are conditionally independent, so each cross block is
    the outer product of the two conditional means (zero unless both links
    are estimated).
    """
    n = topology.config.rrh_antennas
    cluster = topology.serving_rrhs[src]
    dim = n * len(cluster)
    out = np.zeros((dim, dim), dtype=complex)

    def mean(k):
        est = state.est_rrh.get((k, dst))
        return est if est is not None else np.zeros(n, dtype=complex)

    for o, ko in enumerate(cluster):
        for z, kz in enumerate(cluster):
            block = np.outer(mean(ko), mean(kz).conj())
            if o == z:
                if (ko, dst) in state.est_rrh:
                    block = block + state.errvar_rrh[(ko, dst)] * np.eye(n)
                else:
                    block = topology.alpha_rrh[ko, dst] * np.eye(n, dtype=complex)
            out[o * n:(o + 1) * n, z * n:(z + 1) * n] = block
    return out


def block_diagonal_cov_oracle(topology, state, src, dst):
    """The link model's second moment of cluster(src) -> dst: the exact one
    above with the cross-RRH blocks dropped, i.e. the per-RRH moments of the
    stacked channel placed on a block diagonal."""
    n = topology.config.rrh_antennas
    out = full_stacked_cov_oracle(topology, state, src, dst)
    for o in range(len(topology.serving_rrhs[src])):
        for z in range(len(topology.serving_rrhs[src])):
            if o != z:
                out[o * n:(o + 1) * n, z * n:(z + 1) * n] = 0.0
    return out


def mbs_cov_oracle(topology, state, dst):
    """Second moment of the MBS -> dst link given the training output."""
    b_ant = topology.config.mbs_antennas
    if dst in state.est_mbs:
        est = state.est_mbs[dst]
        return np.outer(est, est.conj()) + state.errvar_mbs[dst] * np.eye(b_ant)
    return topology.alpha_mbs[dst] * np.eye(b_ant, dtype=complex)


def own_error_oracle(topology, state, ue):
    """Per-coordinate error variance of a UE's own (stacked or MBS) channel."""
    if topology.serving_rrhs[ue]:
        n = topology.config.rrh_antennas
        return np.repeat([state.errvar_rrh[(k, ue)] for k in topology.serving_rrhs[ue]], n)
    return np.full(topology.config.mbs_antennas, state.errvar_mbs[ue])


def own_estimate_oracle(topology, state, ue):
    if topology.serving_rrhs[ue]:
        return np.concatenate([state.est_rrh[(k, ue)] for k in topology.serving_rrhs[ue]])
    return state.est_mbs[ue]


def stacked_beam(beams, topology, ue):
    """A UE's beam as the per-UE oracles read it: its per-RRH blocks stacked
    over its serving cluster, or its MBS beam if it has no cluster."""
    cluster = topology.serving_rrhs[ue]
    return beams.rrh[ue, cluster].reshape(-1) if cluster else beams.mbs[ue]


def interference_oracle(topology, state, beams, noise):
    """Expected interference-plus-noise power per UE, one dense quadratic
    form per (transmitter, receiver) pair under the block-diagonal moments."""
    rues, bues = topology.rue_set, topology.bue_set
    w = {m: stacked_beam(beams, topology, m) for m in range(topology.num_ue)}
    out = {}
    for dst in list(rues) + list(bues):
        own = w[dst]
        total = noise + float(np.sum(own_error_oracle(topology, state, dst) * np.abs(own) ** 2))
        for src in rues:
            if src != dst:
                cov = block_diagonal_cov_oracle(topology, state, src, dst)
                total += float(np.real(np.vdot(w[src], cov @ w[src])))
        for src in bues:
            if src != dst:
                cov = mbs_cov_oracle(topology, state, dst)
                total += float(np.real(np.vdot(w[src], cov @ w[src])))
        out[dst] = total
    return out


def assemble_qcqp_oracle(links, f, u):
    """(quad, lin) of the beamformer-step QCQP per UE id, assembled UE by UE
    on full clusters from the per-link arrays: the per-UE loop the
    library's stack assembly replaced. f and u are indexed by UE id."""
    topology = links.topology
    w8 = np.zeros(links.var_mbs.shape[0])
    for m in topology.rue_set + topology.bue_set:
        w8[m] = math.exp(u[m] - 1.0) * abs(f[m]) ** 2
    n = links.est_rrh.shape[2]
    scaled = links.est_rrh * w8[None, :, None]
    per_rrh = np.sum(scaled[..., :, None] * links.est_rrh.conj()[..., None, :], axis=1)
    per_rrh[:, np.arange(n), np.arange(n)] += (links.var_rrh @ w8)[:, None]
    quad, lin = {}, {}
    for i in topology.rue_set:
        g = _stacked_estimate(links, topology.serving_rrhs[i], i)
        mat = w8[i] * np.outer(g, g.conj())
        for pos, k in enumerate(topology.serving_rrhs[i]):
            mat[pos * n:(pos + 1) * n, pos * n:(pos + 1) * n] = per_rrh[k]
        quad[i] = mat
        lin[i] = math.exp(u[i] - 1.0) * f[i] * g
    shared = (links.est_mbs * w8[:, None]).T @ links.est_mbs.conj()
    shared += (links.var_mbs @ w8) * np.eye(links.mbs_antennas)
    for j in topology.bue_set:
        quad[j] = shared
        lin[j] = math.exp(u[j] - 1.0) * f[j] * links.est_mbs[j]
    return quad, lin


def qcqp_terms_oracle(topology, state, f, u):
    """(quad, lin) of the beamformer-step QCQP per UE, summed receiver by
    receiver from the block-diagonal moments."""
    rues, bues = topology.rue_set, topology.bue_set
    weight = {m: math.exp(u[m] - 1.0) * abs(f[m]) ** 2 for m in u}
    quad, lin = {}, {}
    for src in list(rues) + list(bues):
        g = own_estimate_oracle(topology, state, src)
        mat = weight[src] * (np.outer(g, g.conj()) + np.diag(own_error_oracle(topology, state, src)))
        for dst in list(rues) + list(bues):
            if dst == src:
                continue
            if src in rues:
                mat = mat + weight[dst] * block_diagonal_cov_oracle(topology, state, src, dst)
            else:
                mat = mat + weight[dst] * mbs_cov_oracle(topology, state, dst)
        quad[src] = mat
        lin[src] = math.exp(u[src] - 1.0) * f[src] * g
    return quad, lin


def monte_carlo_oracle(
    topology,
    state,
    beams,
    noise_power: float,
    prelog: float,
    trials: int = 2000,
    seed=0,
):
    """Achievable-rate estimates by redrawing the unknowns, rebuilt link by
    link from the DictChannelState dicts (a known link is estimate + error, an
    unknown one is redrawn whole): the sampling reference for the library's
    exact rate.

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
    w = {m: stacked_beam(beams, topology, m) for m in rue_ids + bue_ids}
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
        signal = abs(np.vdot(_stacked_estimate(state, cluster, i), w[i])) ** 2
        denom = np.full(trials, noise_power)
        own_err = stack({k: rrh_errors.get(k, rrh_links[k]) for k in cluster}, cluster)
        denom += np.abs(own_err.conj() @ w[i]) ** 2
        for src in rue_ids:
            if src == i:
                continue
            g = stack(rrh_links, topology.serving_rrhs[src])
            denom += np.abs(g.conj() @ w[src]) ** 2
        for j in bue_ids:
            denom += np.abs(mbs_link.conj() @ w[j]) ** 2
        per_trial = np.log2(1.0 + signal / denom)
        rates[i] = prelog * float(per_trial.mean())
        stderr[i] = prelog * _stderr(per_trial)

    for j in bue_ids:
        rrh_links, _, mbs_link, mbs_error = ue_links(j)
        signal = abs(np.vdot(state.est_mbs[j], w[j])) ** 2
        denom = np.full(trials, noise_power)
        denom += np.abs(mbs_error.conj() @ w[j]) ** 2
        for i in rue_ids:
            g = stack(rrh_links, topology.serving_rrhs[i])
            denom += np.abs(g.conj() @ w[i]) ** 2
        for other in bue_ids:
            if other != j:
                denom += np.abs(mbs_link.conj() @ w[other]) ** 2
        per_trial = np.log2(1.0 + signal / denom)
        rates[j] = prelog * float(per_trial.mean())
        stderr[j] = prelog * _stderr(per_trial)

    return rates, stderr


def _stacked_estimate(state, cluster, i: int) -> np.ndarray:
    return np.concatenate([state.est_rrh[(k, i)] for k in cluster])


def _stderr(samples: np.ndarray) -> float:
    if samples.size < 2:
        return 0.0
    return float(samples.std(ddof=1) / np.sqrt(samples.size))


def has_shared_rrh_pair(topology):
    """True if some pair of UEs is jointly served by two or more RRHs."""
    clusters = [set(c) for c in topology.serving_rrhs]
    return any(
        len(clusters[a] & clusters[b]) >= 2
        for a in range(len(clusters))
        for b in range(a + 1, len(clusters))
    )


# ---------------------------------------------------------------------------
# The RRH side of the beamformer QCQP as dense per-user systems.


def dense_rue_matrices(problem):
    """(base, rhs) of an assembled QcqpProblem's RUE side, built densely from
    its factors: base[u] is the (W, W) matrix of stack row u,
    blockdiag(G over its live blocks, identity on padding) plus
    w8_u (g g^H - blockdiag(g_p g_p^H)), and rhs[u] = lin_u g."""
    layout = problem.layout
    n = layout.block_size
    blocks = np.concatenate([problem.blocks, np.eye(n, dtype=complex)[None]])
    g = layout.est
    base = problem.w8[:, None, None] * (g[:, :, None] * g.conj()[:, None, :])
    for p in range(layout.starts.shape[1]):
        base[:, p * n:(p + 1) * n, p * n:(p + 1) * n] = blocks[layout.starts[:, p]]
    return base, problem.lin[:, None] * g


def _dense_shifted(problem, mu):
    """Every RUE's matrix plus its blocks' multipliers (mu by active slot)."""
    base, rhs = dense_rue_matrices(problem)
    diag = np.arange(base.shape[1])
    base[:, diag, diag] += np.append(mu, 0.0)[_entry_slots(problem.layout)]
    return base, rhs


def _entry_slots(layout):
    """The active slot of every stack entry (len(active) on padding)."""
    return np.repeat(layout.starts, layout.block_size, axis=1)


def dense_rrh_beams(problem, mu):
    """The (U, W) RUE beam stack at multipliers mu: one least-squares solve
    per user, which is the minimum-norm solution where a matrix is singular."""
    mats, rhs = _dense_shifted(problem, mu)
    return np.stack([np.linalg.lstsq(a, b, rcond=None)[0] for a, b in zip(mats, rhs)])


def dense_rrh_powers(problem, w):
    """Power of the (U, W) beam stack w at each active RRH slot."""
    layout = problem.layout
    weights = np.abs(w.ravel()) ** 2
    slots = _entry_slots(layout).ravel()
    return np.bincount(slots, weights=weights, minlength=layout.active.size + 1)[:-1]


def dense_power_jacobian(problem, mu):
    """d(powers)/d(mu) by active slot at multipliers mu: the sum over users of
    -2 Re w_a^H [M^{-1}]_ab w_b, from each user's dense inverse."""
    layout = problem.layout
    n, num = layout.block_size, layout.active.size
    (users, width), starts = layout.starts.shape, layout.starts
    mats, rhs = _dense_shifted(problem, mu)
    inv = np.linalg.inv(mats)
    w = (inv @ rhs[..., None])[..., 0].reshape(users, width, n)
    blocks = inv.reshape(users, width, n, width, n)
    # Entry (u, p, q) is w_p^H [M_u^{-1}]_pq w_q for user u's blocks p, q.
    terms = np.einsum("upi,upiqj,uqj->upq", w.conj(), blocks, w)
    jac = np.zeros((num + 1, num + 1))
    np.add.at(jac, (starts[:, :, None], starts[:, None, :]), -2.0 * terms.real)
    return jac[:num, :num]


# ---------------------------------------------------------------------------
# Scalar minimization (for the auxiliary-variable update).


def golden_min(fn, lo, hi, iters=160):
    """Golden-section minimizer of a unimodal scalar function."""
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - ratio * (b - a)
    d = a + ratio * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


# ---------------------------------------------------------------------------
# Generic projected-gradient solver for group-ball-constrained quadratics.


def pgd_qcqp_oracle(quads, lins, groups, caps, iters=4000, step=None):
    """Long-run projected gradient descent on

        min over w   sum_m  w_m^H Q_m w_m - 2 Re(b_m^H w_m)
        s.t.         sum_{(m, idx) in groups[g]} ||w_m[idx]||^2 <= caps[g]

    ``groups[g]`` lists (beam id, coordinate index array) pairs; the groups
    own disjoint coordinates, so the feasible set is a product of balls and
    the Euclidean projection is an exact per-group rescale. With a 1/L step
    this converges to the global optimum of the convex problem.
    """
    ids = list(quads)
    if step is None:
        lips = max(float(np.linalg.eigvalsh(quads[m])[-1]) for m in ids)
        step = 1.0 / (2.0 * lips)
    w = {m: np.zeros_like(lins[m]) for m in ids}
    for _ in range(iters):
        for m in ids:
            w[m] = w[m] - step * 2.0 * (quads[m] @ w[m] - lins[m])
        for g, members in groups.items():
            power = sum(float(np.sum(np.abs(w[m][idx]) ** 2)) for m, idx in members)
            if caps[g] <= 0.0:
                for m, idx in members:
                    w[m][idx] = 0.0
            elif power > caps[g]:
                scale = math.sqrt(caps[g] / power)
                for m, idx in members:
                    w[m][idx] = w[m][idx] * scale
    return w


def pgd_qcqp_oracle_batched(problems, iters=4000):
    """``pgd_qcqp_oracle`` run on many problems at once, default steps only.

    ``problems`` lists (quads, lins, groups, caps) tuples. Each problem's
    beams are concatenated into one vector with a block-diagonal quadratic
    term, zero-padded to a common length, so one batched product makes every
    problem's gradient step (each with its own 1/(2L) step) and one bincount
    over a global group index gives every group's power for the rescale.
    Coordinates outside every group, padding included, are never rescaled;
    padding stays zero. Returns one beam dict per problem.
    """
    size = max(sum(lins[m].shape[0] for m in lins) for _, lins, _, _ in problems)
    quad = np.zeros((len(problems), size, size), dtype=complex)
    lin = np.zeros((len(problems), size), dtype=complex)
    step = np.zeros(len(problems))
    group = np.zeros((len(problems), size), dtype=int)
    caps = [math.inf]  # group 0: coordinates no constraint covers
    offsets = []
    for p, (quads, lins, groups, group_caps) in enumerate(problems):
        offset, pos = {}, 0
        for m in quads:
            d = lins[m].shape[0]
            quad[p, pos:pos + d, pos:pos + d] = quads[m]
            lin[p, pos:pos + d] = lins[m]
            offset[m], pos = pos, pos + d
        lips = max(float(np.linalg.eigvalsh(quads[m])[-1]) for m in quads)
        step[p] = 1.0 / (2.0 * lips)
        for g, members in groups.items():
            caps.append(float(group_caps[g]))
            for m, idx in members:
                group[p, offset[m] + idx] = len(caps) - 1
        offsets.append(offset)
    caps = np.asarray(caps)
    w = np.zeros_like(lin)
    for _ in range(iters):
        w = w - step[:, None] * 2.0 * ((quad @ w[..., None])[..., 0] - lin)
        power = np.bincount(group.ravel(), weights=(np.abs(w) ** 2).ravel(), minlength=caps.size)
        scale = np.ones_like(caps)
        over = power > caps
        scale[over] = np.sqrt(caps[over] / power[over])
        w = w * scale[group]
    return [
        {m: w[p, pos:pos + lins[m].shape[0]].copy() for m, pos in offset.items()}
        for p, (offset, (_, lins, _, _)) in enumerate(zip(offsets, problems))
    ]


def qcqp_value(quads, lins, w):
    total = 0.0
    for m in quads:
        total += float(np.real(np.vdot(w[m], quads[m] @ w[m])))
        total -= 2.0 * float(np.real(np.vdot(lins[m], w[m])))
    return total


# ---------------------------------------------------------------------------
# The rate code's products over every RRH -> UE link, served or not.


def dense_amplitudes(links, w_rrh):
    """(K, M, M) array: entry [k, s, d] is est_rrh[k, d]^H w_rrh[s, k], one
    matrix product per RRH."""
    return w_rrh.transpose(1, 0, 2) @ links.est_rrh.conj().transpose(0, 2, 1)


def dense_interference_plus_noise(links, beams, noise_power):
    """Interference-plus-noise power per UE ((M,) by UE id) from the dense
    amplitudes: the moment of src -> dst sums |amplitude|^2 over every RRH,
    plus the error variances times every beam block's power."""
    w_rrh, w_mbs = beams
    coherent = np.sum(np.abs(dense_amplitudes(links, w_rrh)) ** 2, axis=0)
    coherent += np.abs(w_mbs @ links.est_mbs.conj().T) ** 2
    incoherent = np.sum(np.abs(w_rrh) ** 2, axis=2) @ links.var_rrh
    incoherent += np.outer(np.sum(np.abs(w_mbs) ** 2, axis=1), links.var_mbs)
    moments = coherent + incoherent
    np.fill_diagonal(moments, np.diagonal(incoherent))
    return moments.sum(axis=0) + noise_power


def dense_useful_amplitude(links, beams):
    """(M,) array by UE id of the own-link estimate times the beam, summed
    over every RRH and the MBS."""
    w_rrh, w_mbs = beams
    rrh = np.einsum("kmn,mkn->m", links.est_rrh.conj(), w_rrh)
    return rrh + np.einsum("mb,mb->m", links.est_mbs.conj(), w_mbs)


def dense_mean_amplitudes(links, beams):
    """(M, M) array: entry [dst, src] is the estimate part of what src's
    beams deliver to dst, summed over every RRH, plus the MBS part."""
    w_rrh, w_mbs = beams
    rrh = np.einsum("skn,kdn->ds", w_rrh, links.est_rrh.conj())
    return rrh + links.est_mbs.conj() @ w_mbs.T


def dense_gram_blocks(links, w8, rrhs):
    """(len(rrhs), N, N) array: sum_m w8[m] (est est^H + var I) over every
    link RRH k -> UE m, for each k in rrhs, from the 4-D outer products."""
    est = links.est_rrh[rrhs]
    n = est.shape[2]
    blocks = np.sum((est * w8[None, :, None])[..., :, None] * est.conj()[..., None, :], axis=1)
    blocks[:, np.arange(n), np.arange(n)] += (links.var_rrh @ w8)[rrhs, None]
    return blocks


def dense_rate_covariances(links, beams):
    """(M, M, M) array: entry [d] is the covariance C_d over every source of
    the amplitudes UE d receives, sum_k var_rrh[k, d] W_k W_k^H +
    var_mbs[d] W_mbs W_mbs^H, from the full beam arrays (row s of W_k is UE
    s's beam block at RRH k)."""
    w_rrh, w_mbs = beams
    per_rrh = w_rrh.transpose(1, 0, 2)
    gram = per_rrh @ per_rrh.conj().transpose(0, 2, 1)
    cov = np.tensordot(links.var_rrh.T, gram, axes=1)
    cov += links.var_mbs[:, None, None] * (w_mbs @ w_mbs.conj().T)
    return cov


def dense_exact_rates(links, beams, noise_power, prelog, trials=400):
    """``monte_carlo_rates`` with one dense M x M covariance and one ``eigh``
    per user: the same nodes, quadrature and error estimate, with the mean
    term over every eigenvalue."""
    mean = dense_mean_amplitudes(links, beams)
    lam, vecs = np.linalg.eigh(dense_rate_covariances(links, beams))
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
        fine = step * float(f.sum() - 0.5 * (f[0] + f[-1]))
        coarse = 2.0 * step * float(f[::2].sum() - 0.5 * (f[0] + f[-1]))
        rates[m] = scale * fine
        stderr[m] = scale * abs(fine - coarse)
    return rates, stderr
