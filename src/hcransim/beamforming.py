"""Robust downlink beamformer design.

The sum of per-UE lower-bound rates is maximized by block coordinate descent
on a weighted-MSE surrogate: with receive equalizers f and auxiliary variables
u (weights exp(u - 1)), the beamformer step is a convex QCQP

    min over w   sum_m  w_m^H F_m w_m - 2 Re(b_m^H w_m)

subject to per-RRH and MBS sum-power constraints. RRH constraints couple the
RUE beams through shared blocks and are handled by dual decomposition (exact
coordinate ascent on the multipliers plus a damped Newton polish); the MBS
constraint couples the BUE beams through a single scalar multiplier. With the
other multipliers fixed, the power under one constraint is a secular function
sum |coef|^2 / (lam + x)^2 of its multiplier x, built from one
eigendecomposition per beam (of the Schur complement on the RRH's block for a
RUE, of the whole matrix for a BUE), and both sides find its root with the
same safeguarded Newton iteration. The f and u updates are closed-form.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .channel import TrainingConfig, prelog_factor
from .rate_bounds import AggregatedLinks, interference_plus_noise
from .scenario import Topology


# Multiplier updates allowed per RRH-side dual solve.
MAX_DUAL_ITERS = 5000


class ConvergenceError(RuntimeError):
    """Raised when an iterative solve exhausts its iteration budget."""


@dataclass
class PowerBudget:
    """Transmit power caps in watts: one per RRH (scalar = shared) and one MBS."""

    rrh: float | np.ndarray
    mbs: float

    def rrh_array(self, num_rrh: int) -> np.ndarray:
        arr = np.asarray(self.rrh, dtype=float)
        if arr.ndim == 0:
            arr = np.full(num_rrh, float(arr))
        if arr.shape != (num_rrh,):
            raise ValueError(f"need {num_rrh} RRH budgets, got shape {arr.shape}")
        if np.any(arr < 0) or self.mbs < 0:
            raise ValueError("power budgets must be nonnegative")
        return arr


@dataclass
class BeamformerSet:
    """Transmit beams: stacked cluster beams per RUE, MBS beams per BUE."""

    rue: dict[int, np.ndarray]
    bue: dict[int, np.ndarray]
    block_rrhs: dict[int, list[int]]
    block_size: int

    def block(self, rue_id: int, rrh_id: int) -> np.ndarray:
        pos = self.block_rrhs[rue_id].index(rrh_id)
        n = self.block_size
        return self.rue[rue_id][pos * n:(pos + 1) * n]

    def rrh_power(self, rrh_id: int) -> float:
        total = 0.0
        for i, cluster in self.block_rrhs.items():
            if rrh_id in cluster:
                total += float(np.sum(np.abs(self.block(i, rrh_id)) ** 2))
        return total

    def mbs_power(self) -> float:
        return float(sum(np.sum(np.abs(w) ** 2) for w in self.bue.values()))

    def copy(self) -> "BeamformerSet":
        return BeamformerSet(
            rue={i: w.copy() for i, w in self.rue.items()},
            bue={j: w.copy() for j, w in self.bue.items()},
            block_rrhs={i: list(c) for i, c in self.block_rrhs.items()},
            block_size=self.block_size,
        )


def zero_beams(links: AggregatedLinks) -> BeamformerSet:
    return BeamformerSet(
        rue={i: np.zeros(links.dim(i), dtype=complex) for i in links.rue_ids},
        bue={j: np.zeros(links.mbs_antennas, dtype=complex) for j in links.bue_ids},
        block_rrhs={i: list(links.block_rrhs[i]) for i in links.rue_ids},
        block_size=links.block_size,
    )


def _diff_norm(new: dict, old: dict, ids) -> float:
    return sum(float(np.sum(np.abs(new[m] - old[m]) ** 2)) for m in ids)


def total_beam_diff(new: BeamformerSet, old: BeamformerSet) -> float:
    """Sum of squared beam changes over all UEs."""
    return _diff_norm(new.rue, old.rue, list(new.rue)) + _diff_norm(
        new.bue, old.bue, list(new.bue)
    )


@dataclass
class QcqpProblem:
    quad_rue: dict[int, np.ndarray]
    lin_rue: dict[int, np.ndarray]
    quad_bue: dict[int, np.ndarray]
    lin_bue: dict[int, np.ndarray]
    block_rrhs: dict[int, list[int]]
    block_size: int
    rrh_budget: np.ndarray
    mbs_budget: float


def mse_and_equalizer(g_eff: np.ndarray, w: np.ndarray, j_power: float):
    """Optimal scalar equalizer and the resulting MSE for one UE.

    g_eff is the usable (estimated) channel, w its beam, j_power the expected
    interference-plus-noise power. Returns (mse, f).
    """
    if j_power <= 0:
        raise ValueError("interference-plus-noise power must be positive")
    a = complex(np.vdot(g_eff, w))
    f = a / (abs(a) ** 2 + j_power)
    mse = abs(np.conj(f) * a - 1.0) ** 2 + abs(f) ** 2 * j_power
    return float(mse), f


def update_u(mse: float) -> float:
    """Closed-form auxiliary-variable update; the weight is exp(u - 1)."""
    if mse <= 0:
        raise ValueError("mse must be positive")
    return 1.0 - math.log(mse)


def _weights(links: AggregatedLinks, f: dict, u: dict) -> np.ndarray:
    """Per-UE MSE weights exp(u - 1) * |f|^2, indexed by UE id."""
    out = np.zeros(links.var_mbs.shape[0])
    for m in u:
        out[m] = math.exp(u[m] - 1.0) * abs(f[m]) ** 2
    return out


def _assemble_rue_side(links: AggregatedLinks, w8: np.ndarray, f: dict, u: dict):
    """Quadratic/linear terms for every RUE beam (needs all UEs' f and u).

    A beam block at RRH k costs G_k = sum_m w8_m (est est^H + var I) over the
    links k -> m, so a RUE's matrix is blockdiag(G_k) over its cluster; only
    its own term w8_i g g^H also couples the blocks.
    """
    n = links.block_size
    scaled = links.est_rrh * w8[None, :, None]
    per_rrh = np.sum(scaled[..., :, None] * links.est_rrh.conj()[..., None, :], axis=1)
    per_rrh[:, np.arange(n), np.arange(n)] += (links.var_rrh @ w8)[:, None]
    quad, lin = {}, {}
    for i in links.rue_ids:
        g = links.estimate(i)
        mat = w8[i] * np.outer(g, g.conj())
        for pos, k in enumerate(links.block_rrhs[i]):
            mat[pos * n:(pos + 1) * n, pos * n:(pos + 1) * n] = per_rrh[k]
        quad[i] = mat
        lin[i] = math.exp(u[i] - 1.0) * f[i] * g
    return quad, lin


def _assemble_bue_side(links: AggregatedLinks, w8: np.ndarray, f: dict, u: dict):
    """Quadratic/linear terms for every BUE beam; all BUEs share one matrix."""
    shared = (links.est_mbs * w8[:, None]).T @ links.est_mbs.conj()
    shared += (links.var_mbs @ w8) * np.eye(links.mbs_antennas)
    quad = {j: shared for j in links.bue_ids}
    lin = {j: math.exp(u[j] - 1.0) * f[j] * links.est_mbs[j] for j in links.bue_ids}
    return quad, lin


def assemble_qcqp(
    links: AggregatedLinks,
    f: dict,
    u: dict,
    budgets: PowerBudget,
    topology: Topology,
) -> QcqpProblem:
    """Beamformer-step QCQP at the current equalizers and weights.

    The dropped additive constant is sum_m exp(u_m - 1) * (1 + |f_m|^2 * N0);
    adding it back to the optimum recovers the weighted-MSE objective.
    """
    w8 = _weights(links, f, u)
    quad_rue, lin_rue = _assemble_rue_side(links, w8, f, u)
    quad_bue, lin_bue = _assemble_bue_side(links, w8, f, u)
    return QcqpProblem(
        quad_rue=quad_rue,
        lin_rue=lin_rue,
        quad_bue=quad_bue,
        lin_bue=lin_bue,
        block_rrhs={i: list(links.block_rrhs[i]) for i in links.rue_ids},
        block_size=links.block_size,
        rrh_budget=budgets.rrh_array(topology.num_rrh),
        mbs_budget=float(budgets.mbs),
    )


def _side_objective(quad: dict, lin: dict, beams: dict, ids) -> float:
    total = 0.0
    for m in ids:
        w = beams[m]
        total += float(np.real(np.vdot(w, quad[m] @ w)))
        total -= 2.0 * float(np.real(np.vdot(lin[m], w)))
    return total


def qcqp_objective(problem: QcqpProblem, beams: BeamformerSet) -> float:
    rue = _side_objective(problem.quad_rue, problem.lin_rue, beams.rue, problem.quad_rue)
    bue = _side_objective(problem.quad_bue, problem.lin_bue, beams.bue, problem.quad_bue)
    return rue + bue


def _solve_reg(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(mat, rhs, rcond=None)[0]


def _solve_stacked(mats: dict, rhs: dict) -> dict:
    """Solve mats[m] x = rhs[m] for every key, one stacked solve per shape.

    A stack with a singular member falls back to per-key solves, which use
    least squares where the matrix is singular.
    """
    groups: dict[tuple, list] = {}
    for m, b in rhs.items():
        groups.setdefault(b.shape, []).append(m)
    out = {}
    for shape, keys in groups.items():
        a = np.stack([mats[m] for m in keys])
        b = np.stack([rhs[m] for m in keys])
        try:
            if len(shape) == 1:
                sols = np.linalg.solve(a, b[..., None])[..., 0]
            else:
                sols = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            sols = [_solve_reg(mats[m], rhs[m]) for m in keys]
        out.update(zip(keys, sols))
    return out


@dataclass
class _Secular:
    """One block of (A + x E E^H)^{-1} b as an eigen-expansion in x.

    A is Hermitian positive semidefinite and E selects the n entries from
    ``off``. With S = A_kk - A_kr A_rr^{-1} A_rk the block's Schur complement
    (eigenpairs lam, vecs) and c = b_k - A_kr A_rr^{-1} b_r, the block equals
    vecs (coef / (lam + x)) with coef = vecs^H c, so its power is the secular
    function sum |coef|^2 / (lam + x)^2. ``rest`` is A_rr^{-1} [A_rk, b_r],
    from which the other entries follow.
    """

    lam: np.ndarray
    vecs: np.ndarray
    coef: np.ndarray
    off: int
    rest: np.ndarray

    @classmethod
    def of(cls, mat: np.ndarray, rhs: np.ndarray, off: int, n: int) -> "_Secular":
        others = np.r_[0:off, off + n:rhs.shape[0]]
        schur, c = mat[off:off + n, off:off + n], rhs[off:off + n]
        rest = np.zeros((0, n + 1), dtype=complex)
        if others.size:
            cross = mat[off:off + n, others]
            rows = mat[others]
            rest = _solve_reg(
                rows[:, others], np.column_stack([rows[:, off:off + n], rhs[others]])
            )
            schur = schur - cross @ rest[:, :n]
            c = c - cross @ rest[:, n]
        lam, vecs = np.linalg.eigh(0.5 * (schur + schur.conj().T))
        return cls(lam, vecs, vecs.conj().T @ c, off, rest)

    def solution(self, x: float) -> np.ndarray:
        """The whole vector (A + x E E^H)^{-1} b."""
        block = self.vecs @ np.divide(
            self.coef, self.lam + x, out=np.zeros_like(self.coef), where=self.coef != 0
        )
        if not self.rest.shape[0]:
            return block
        n = block.shape[0]
        others = self.rest[:, n] - self.rest[:, :n] @ block
        return np.concatenate([others[:self.off], block, others[self.off:]])


def _secular_root(
    parts: list, cap: float, cs_budget: float, feas_tol: float, x0: float
) -> float:
    """Smallest x >= 0 at which the summed block power of ``parts`` meets cap.

    The power p(x) = sum |coef|^2 / (lam + x)^2 decreases strictly on
    x > -min(lam), and 1/sqrt(p) is concave and nearly linear there (exactly
    linear for one term), so Newton's method on it approaches the root
    monotonically from below; a bisection step replaces any Newton step that
    leaves the bracket [lo, hi]. The bracket's upper end holds because
    lam + hi >= sqrt(sum |coef|^2 / cap) for every term. Stops when
    |p - cap| <= min(feas_tol * cap / 2, cs_budget / x), the complementary-
    slackness share of this multiplier; otherwise returns the feasible end of
    the final bracket. x0 is a warm start.
    """
    if not parts:
        return 0.0
    lam = np.concatenate([s.lam for s in parts])
    weight = np.concatenate([np.abs(s.coef) ** 2 for s in parts])
    lam, weight = lam[weight > 0.0], weight[weight > 0.0]
    if not lam.size:
        return 0.0
    lo = max(0.0, -float(lam.min()))
    hi = lo + math.sqrt(float(weight.sum()) / cap)
    x, first = lo, True
    # Bisection alone reaches the 1e-15 relative floor in about 50 steps.
    for _ in range(200):
        shifted = lam + x
        p = float(np.sum(weight / shifted**2)) if shifted.min() > 0.0 else math.inf
        if p > cap:
            lo = x
        else:
            hi = x
        if abs(p - cap) <= min(0.5 * feas_tol * cap, cs_budget / max(x, 1e-300)):
            return x
        if hi - lo <= 1e-15 * hi:
            return hi
        nxt = 0.5 * (lo + hi)
        if first and lo < x0 < hi:
            nxt = x0
        elif math.isfinite(p):
            slope = float(np.sum(weight / shifted**3)) * p**-1.5
            newton = x + (cap**-0.5 - p**-0.5) / slope
            if lo < newton < hi:
                nxt = newton
        x, first = nxt, False
    return hi


def _solve_rrh_side(
    quad: dict,
    lin: dict,
    block_rrhs: dict,
    block_size: int,
    budget: np.ndarray,
    feas_tol: float,
    gap_tol: float,
    max_iters: int,
    mu0: dict | None = None,
):
    """Dual decomposition over the per-RRH power constraints.

    For fixed multipliers mu the Lagrangian separates per RUE with minimizer
    (F_i + diag(mu over blocks))^{-1} b_i. The concave dual is maximized in
    two interleaved phases:

    * cyclic exact coordinate ascent — with the other multipliers fixed, RRH
      k's block of each user it serves is (S_ik + mu_k I)^{-1} c_ik, S_ik the
      Schur complement of the user's matrix on block k (see ``_Secular``).
      One eigendecomposition per user turns RRH k's power into a secular
      function of mu_k, whose complementary-slackness root (mu_k = 0 when the
      cap already holds) ``_secular_root`` finds with no further linear
      solves. Scale-free per constraint, globally convergent.
    * damped Newton polish on the active set — overlapping serving clusters
      couple the multipliers strongly enough that coordinate ascent's linear
      tail can crawl; the power-balance Jacobian is closed-form, so a few
      projected Newton steps finish the job quadratically. Steps are accepted
      only if they shrink the worst violation, otherwise sweeping resumes.

    mu0 warm-starts the multipliers (dict keyed by RRH id). Coordinates owned
    by zero-budget RRHs are pinned to zero up front. max_iters caps the total
    number of multiplier updates. Returns (beams dict, mu dict, dual value,
    info dict).
    """
    rue_ids = list(quad.keys())
    n = block_size
    info = {"dual_iterations": 0}

    keep, red_quad, red_lin, red_blocks = {}, {}, {}, {}
    for i in rue_ids:
        mask = np.repeat([budget[k] > 0 for k in block_rrhs[i]], n)
        keep[i] = mask
        red_quad[i] = quad[i][np.ix_(mask, mask)]
        red_lin[i] = lin[i][mask]
        red_blocks[i] = [k for k in block_rrhs[i] if budget[k] > 0]
    # Users with a zero linear term keep zero beams whatever the multipliers.
    solved = [i for i in rue_ids if np.any(red_lin[i])]
    active = sorted({k for i in rue_ids for k in red_blocks[i]})
    kpos = {k: idx for idx, k in enumerate(active)}
    cap = budget[active] if active else np.zeros(0)
    shift_idx = {
        i: np.repeat(np.asarray([kpos[k] for k in red_blocks[i]], dtype=int), n)
        for i in rue_ids
    }
    diag_idx = {i: np.arange(red_quad[i].shape[0]) for i in rue_ids}
    users_of = {k: [] for k in active}
    for i in solved:
        for pos, k in enumerate(red_blocks[i]):
            users_of[k].append((i, pos * n))

    def expand(i: int, reduced: np.ndarray) -> np.ndarray:
        full = np.zeros(quad[i].shape[0], dtype=complex)
        full[keep[i]] = reduced
        return full

    def shifted(i: int, mu: np.ndarray) -> np.ndarray:
        mat = red_quad[i].copy()
        mat[diag_idx[i], diag_idx[i]] += mu[shift_idx[i]]
        return mat

    def solve_all(mu: np.ndarray) -> dict:
        out = {i: np.zeros(red_lin[i].shape[0], dtype=complex) for i in rue_ids}
        out.update(
            _solve_stacked({i: shifted(i, mu) for i in solved}, {i: red_lin[i] for i in solved})
        )
        return out

    mu = np.zeros(len(active))
    if mu0:
        for k, val in mu0.items():
            if k in kpos and val > 0.0:
                mu[kpos[k]] = float(val)
    w_cache = solve_all(mu)

    def dual_value() -> float:
        val = -float(mu @ cap)
        for i in rue_ids:
            val -= float(np.real(np.vdot(red_lin[i], w_cache[i])))
        return val

    def finish():
        beams = {i: expand(i, w_cache[i]) for i in rue_ids}
        mu_out = {k: float(mu[kpos[k]]) for k in active}
        return beams, mu_out, dual_value(), info

    if not active:
        return finish()

    owner = np.concatenate([shift_idx[i] for i in rue_ids])

    def powers_of(beams: dict) -> np.ndarray:
        entries = np.abs(np.concatenate([beams[i] for i in rue_ids])) ** 2
        return np.bincount(owner, weights=entries, minlength=len(active))

    def power_at(k: int) -> float:
        return sum(
            float(np.sum(np.abs(w_cache[i][off:off + n]) ** 2)) for i, off in users_of[k]
        )

    def residuals():
        powers = powers_of(w_cache)
        viol = float(np.max((powers - cap) / np.maximum(cap, 1e-300)))
        gap = float(np.sum(mu * np.abs(cap - powers)))
        return powers, viol, gap

    def is_converged(viol: float, gap: float) -> bool:
        return viol <= feas_tol and gap <= gap_tol * max(1.0, abs(dual_value()))

    def coordinate_sweep(cs_budget: float) -> int:
        count = 0
        for k in active:
            idx = kpos[k]
            if power_at(k) <= cap[idx] and mu[idx] == 0.0:
                continue
            count += 1
            others = mu.copy()
            others[idx] = 0.0
            parts = {
                i: _Secular.of(shifted(i, others), red_lin[i], off, n) for i, off in users_of[k]
            }
            mu[idx] = _secular_root(list(parts.values()), cap[idx], cs_budget, feas_tol, mu[idx])
            for i, part in parts.items():
                w_cache[i] = part.solution(mu[idx])
        return max(count, 1)

    def newton_rounds(max_rounds: int) -> int:
        """Projected damped Newton on the power-balance equations."""
        count = 0
        for _ in range(max_rounds):
            powers, viol, gap = residuals()
            if is_converged(viol, gap):
                break
            act = [k for k in active if mu[kpos[k]] > 0.0 or powers[kpos[k]] > cap[kpos[k]]]
            if not act:
                break
            apos = {k: x for x, k in enumerate(act)}
            resid = np.array([powers[kpos[k]] - cap[kpos[k]] for k in act])
            # d(w_i)/d(mu_k) = -M_i^{-1} E_k E_k^H w_i: one column per block of user i.
            coupled = [i for i in solved if any(k in apos for k in red_blocks[i])]
            rhs = {}
            for i in coupled:
                nb = len(red_blocks[i])
                cols = np.zeros((nb, n, nb), dtype=complex)
                cols[np.arange(nb), :, np.arange(nb)] = w_cache[i].reshape(nb, n)
                rhs[i] = cols.reshape(nb * n, nb)
            sens = _solve_stacked({i: shifted(i, mu) for i in coupled}, rhs)
            jac = np.zeros((len(act), len(act)))
            for i in coupled:
                nb = len(red_blocks[i])
                cross = np.einsum(
                    "kn,knl->kl", w_cache[i].reshape(nb, n).conj(), sens[i].reshape(nb, n, nb)
                )
                sel = [pos for pos, k in enumerate(red_blocks[i]) if k in apos]
                rows = [apos[red_blocks[i][pos]] for pos in sel]
                jac[np.ix_(rows, rows)] -= 2.0 * np.real(cross[np.ix_(sel, sel)])
            try:
                step = np.linalg.solve(jac, -resid)
            except np.linalg.LinAlgError:
                break
            act_idx = [kpos[k] for k in act]
            worst = float(np.max(np.abs(resid) / np.maximum(cap[act_idx], 1e-300)))
            accepted = False
            alpha = 1.0
            for _ in range(6):
                trial = mu.copy()
                for k in act:
                    trial[kpos[k]] = max(0.0, mu[kpos[k]] + alpha * step[apos[k]])
                trial_w = solve_all(trial)
                t_powers = powers_of(trial_w)
                t_worst = float(
                    np.max(
                        np.abs(t_powers[act_idx] - cap[act_idx])
                        / np.maximum(cap[act_idx], 1e-300)
                    )
                )
                t_over = float(np.max((t_powers - cap) / np.maximum(cap, 1e-300)))
                if t_worst < 0.5 * worst and t_over <= max(viol, feas_tol):
                    mu[:] = trial
                    w_cache.update(trial_w)
                    count += len(act)
                    accepted = True
                    break
                alpha *= 0.5
            if not accepted:
                break
        return count

    updates = 0
    while updates < max_iters:
        powers, viol, gap = residuals()
        if is_converged(viol, gap):
            return finish()
        cs_budget = gap_tol * max(1.0, abs(dual_value())) / (2 * len(active))
        updates += coordinate_sweep(cs_budget)
        updates += newton_rounds(8)
        info["dual_iterations"] = updates
    powers, viol, gap = residuals()
    if viol <= feas_tol:
        return finish()
    raise ConvergenceError(
        f"RRH dual ascent stalled: violation {viol:.3e} after {updates} multiplier updates"
    )


def _solve_mbs_side(
    quad: dict,
    lin: dict,
    budget: float,
    feas_tol: float,
    gap_tol: float = 1e-8,
    nu0: float | None = None,
):
    """Single-constraint subproblem on the MBS multiplier nu.

    Each BUE's quadratic term is diagonalised once, so the MBS power is a
    secular function of nu and ``_secular_root`` finds the multiplier.
    """
    bue_ids = list(quad.keys())
    b_ant = lin[bue_ids[0]].shape[0] if bue_ids else 0
    parts = {}
    if budget > 0.0:
        parts = {j: _Secular.of(quad[j], lin[j], 0, b_ant) for j in bue_ids if np.any(lin[j])}
    nu = _secular_root(list(parts.values()), budget, 0.5 * gap_tol, feas_tol, nu0 or 0.0)
    beams = {j: np.zeros(b_ant, dtype=complex) for j in bue_ids}
    beams.update({j: part.solution(nu) for j, part in parts.items()})
    value = -sum(float(np.real(np.vdot(lin[j], beams[j]))) for j in bue_ids) - nu * budget
    return beams, nu, value


def solve_qcqp(
    problem: QcqpProblem,
    feas_tol: float = 1e-6,
    gap_tol: float = 1e-8,
    max_dual_iters: int = MAX_DUAL_ITERS,
    return_info: bool = False,
    mu0: dict | None = None,
    nu0: float | None = None,
):
    """Global minimizer of the beamformer-step QCQP.

    Strong duality holds (convex problem, Slater point w = 0), so the RRH-side
    multipliers from dual ascent and the MBS-side multiplier, the root of its
    secular equation (``_secular_root``), certify the solution. feas_tol
    bounds the relative constraint violation; gap_tol bounds the
    complementary-slackness residual relative to the objective scale. mu0/nu0
    warm-start the multipliers.
    """
    rue_beams, mu, rrh_value, info = _solve_rrh_side(
        problem.quad_rue,
        problem.lin_rue,
        problem.block_rrhs,
        problem.block_size,
        problem.rrh_budget,
        feas_tol,
        gap_tol,
        max_dual_iters,
        mu0=mu0,
    )
    bue_beams, nu, mbs_value = _solve_mbs_side(
        problem.quad_bue, problem.lin_bue, problem.mbs_budget, feas_tol, gap_tol, nu0=nu0
    )
    beams = BeamformerSet(
        rue=rue_beams,
        bue=bue_beams,
        block_rrhs={i: list(c) for i, c in problem.block_rrhs.items()},
        block_size=problem.block_size,
    )
    if not return_info:
        return beams
    info = dict(info)
    info["rrh_dual"] = mu
    info["mbs_dual"] = nu
    info["dual_value"] = rrh_value + mbs_value
    info["primal_value"] = qcqp_objective(problem, beams)
    return beams, info


def _accept_side(quad: dict, lin: dict, ids, candidate: dict, old: dict) -> dict:
    """Keep the previous side beams if the solver's answer lost ground.

    The solver works to tolerance; this guards the descent property of the
    outer alternation. The comparison is per side, which is valid because the
    QCQP objective and constraints separate across the two transmitter sides.
    """
    if _side_objective(quad, lin, candidate, ids) > _side_objective(quad, lin, old, ids):
        return old
    return candidate


@dataclass
class RtdState:
    """Trajectory of one alternating design run."""

    f: dict[int, complex]
    u: dict[int, float]
    mse: dict[int, float]
    objective_trace: list[float] = field(default_factory=list)
    sum_se_trace: list[float] = field(default_factory=list)
    beam_history: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = False


def _trace_point(u: dict, mse: dict, prelog: float, ids):
    obj = sum(math.exp(u[m] - 1.0) * mse[m] - u[m] for m in ids)
    sum_se = -prelog * sum(math.log2(mse[m]) for m in ids)
    return obj, sum_se


def _merge_beams(links: AggregatedLinks, rue_beams: dict, bue_beams: dict) -> BeamformerSet:
    return BeamformerSet(
        rue=rue_beams,
        bue=bue_beams,
        block_rrhs={i: list(links.block_rrhs[i]) for i in links.rue_ids},
        block_size=links.block_size,
    )


def _refresh_stats(links: AggregatedLinks, beams: BeamformerSet, noise_power: float):
    """Equalizers, auxiliaries and MSEs of every UE at the given beams."""
    j_rue, j_bue = interference_plus_noise(links, beams, noise_power)
    j_power = {**j_rue, **j_bue}
    w = {**beams.rue, **beams.bue}
    f, u, mse = {}, {}, {}
    for m in links.rue_ids + links.bue_ids:
        mse[m], f[m] = mse_and_equalizer(links.estimate(m), w[m], j_power[m])
        u[m] = update_u(mse[m])
    return f, u, mse


def rtd_solve(
    topology: Topology,
    links: AggregatedLinks,
    training: TrainingConfig,
    budgets: PowerBudget,
    rho: float = 1e-3,
    max_iters: int = 100,
    mode: str = "centralized",
    feas_tol: float = 1e-6,
    gap_tol: float = 1e-8,
    keep_beam_history: bool = False,
):
    """Alternating robust transmit design.

    Starts from zero beams with unit equalizers and auxiliaries, then cycles
    beamformer step / equalizer step / auxiliary step until the summed squared
    beam change falls to rho. The objective trace records the surrogate
    sum_m (exp(u_m - 1) * mse_m - u_m) after each full cycle, which equals
    sum_m log(mse_m) at the refreshed stats; the SE trace is the matching sum
    of per-UE rate lower bounds. keep_beam_history additionally stores a copy
    of the beams after every cycle.

    Both modes run the same loop. "distributed" hands the equalizers,
    auxiliaries and beams exchanged between the beamformer step and the stats
    refresh over as value copies, the messages an RRH-side and an MBS-side
    processor would exchange; the arithmetic is the same, so the iterates
    coincide with "centralized". Returns (BeamformerSet, RtdState).
    """
    if mode not in ("centralized", "distributed"):
        raise ValueError(f"unknown mode {mode!r}")
    send = copy.deepcopy if mode == "distributed" else (lambda message: message)
    prelog = prelog_factor(training.tau, training.coherence)
    all_ids = links.rue_ids + links.bue_ids
    beams = zero_beams(links)
    f = {m: 1.0 + 0.0j for m in all_ids}
    u = {m: 1.0 for m in all_ids}
    state = RtdState(f=f, u=u, mse={})
    mu0, nu0 = None, None
    for it in range(1, max_iters + 1):
        problem = assemble_qcqp(links, send(f), send(u), budgets, topology)
        candidate, qinfo = solve_qcqp(
            problem, feas_tol, gap_tol, return_info=True, mu0=mu0, nu0=nu0
        )
        mu0, nu0 = qinfo["rrh_dual"], qinfo["mbs_dual"]
        rue_new = _accept_side(
            problem.quad_rue, problem.lin_rue, links.rue_ids, candidate.rue, beams.rue
        )
        bue_new = _accept_side(
            problem.quad_bue, problem.lin_bue, links.bue_ids, candidate.bue, beams.bue
        )
        delta = _diff_norm(rue_new, beams.rue, links.rue_ids) + _diff_norm(
            bue_new, beams.bue, links.bue_ids
        )
        beams = _merge_beams(links, rue_new, bue_new)
        f, u, mse = _refresh_stats(links, send(beams), training.noise_power)
        obj, sum_se = _trace_point(u, mse, prelog, all_ids)
        state.f, state.u, state.mse = f, u, mse
        state.objective_trace.append(obj)
        state.sum_se_trace.append(sum_se)
        if keep_beam_history:
            state.beam_history.append(beams.copy())
        state.iterations = it
        if delta <= rho:
            state.converged = True
            break
    return beams, state
