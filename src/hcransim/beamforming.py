"""Robust downlink beamformer design.

The sum of per-UE lower-bound rates is maximized by block coordinate descent
on a weighted-MSE surrogate: with receive equalizers f and auxiliary variables
u (weights exp(u - 1)), the beamformer step is a convex QCQP

    min over w   sum_m  w_m^H F_m w_m - 2 Re(b_m^H w_m)

subject to per-RRH and MBS sum-power constraints. RRH constraints couple the
RUE beams through shared blocks and are handled by dual decomposition (exact
coordinate ascent on the multipliers plus a projected Newton polish whose
steps are accepted by Armijo's rule on the concave dual); the MBS
constraint couples the BUE beams through a single scalar multiplier. With the
other multipliers fixed, the power under one constraint is a secular function
sum |coef|^2 / (lam + x)^2 of its multiplier x. Both sides build it the same
way, from one batched eigendecomposition over the padded stack of the beams
the constraint covers (of each RUE's Schur complement on the RRH's block, of
each BUE's whole matrix), and find its root with the same safeguarded Newton
iteration. With the other multipliers fixed, RRHs that serve no common RUE
are decoupled, so the RRH-side sweep updates each run of consecutive such
RRHs in one batched pass. The f and u updates are closed-form.
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
# Projected Newton on the RRH-side dual: Armijo's sufficient-rise fraction
# and the step halvings tried along the projection arc.
ARMIJO_SIGMA = 1e-4
NEWTON_BACKTRACKS = 6


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


def _solve_batch(mats: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve mats[u] x = rhs[u] for every member of a stack in one call.

    A stack with a singular member falls back to per-member solves, which use
    least squares where the matrix is singular.
    """
    try:
        return np.linalg.solve(mats, rhs)
    except np.linalg.LinAlgError:
        if len(mats) == 1:
            return np.linalg.lstsq(mats[0], rhs[0], rcond=None)[0][None]
        return np.concatenate([_solve_batch(a[None], b[None]) for a, b in zip(mats, rhs)])


def _block_secular(mats: np.ndarray, rhs: np.ndarray, pos: np.ndarray, n: int):
    """One block of (A_u + x E_u E_u^H)^{-1} b_u as an eigen-expansion in x.

    For a stack of Hermitian positive semidefinite A (U, W, W) and b (U, W),
    E_u selects member u's n entries from pos[u] * n. Each member's entries
    are reordered so that the block comes last; with
    S = A_kk - A_kr A_rr^{-1} A_rk the block's Schur complement (eigenpairs
    lam, vecs) and c = b_k - A_kr A_rr^{-1} b_r, the block equals
    vecs (coef / (lam + x)) with coef = vecs^H c, so its power is the secular
    function sum |coef|^2 / (lam + x)^2. Identity rows with a zero right-hand
    side (the solver's padding) drop out of the elimination exactly.

    Returns (lam, coef), both (U, n), and solution(x), the (U, W) stack of
    whole vectors (A_u + x E_u E_u^H)^{-1} b_u.
    """
    size, width = rhs.shape
    in_block = np.arange(width) // n == pos[:, None]
    order = np.argsort(in_block, axis=1, kind="stable")
    members = np.arange(size)[:, None]
    mat = mats[members[..., None], order[:, :, None], order[:, None, :]]
    b = rhs[members, order]
    r = width - n
    cross = mat[:, r:, :r]
    # A_rr^{-1} [A_rk, b_r], from which the eliminated entries follow.
    rest = _solve_batch(mat[:, :r, :r], np.concatenate([mat[:, :r, r:], b[:, :r, None]], axis=2))
    schur = mat[:, r:, r:] - cross @ rest[..., :n]
    c = b[:, r:] - (cross @ rest[..., n:])[..., 0]
    lam, vecs = np.linalg.eigh(0.5 * (schur + schur.conj().swapaxes(1, 2)))
    coef = (vecs.conj().swapaxes(1, 2) @ c[..., None])[..., 0]

    def solution(x: float) -> np.ndarray:
        scaled = np.divide(coef, lam + x, out=np.zeros_like(coef), where=coef != 0)
        block = (vecs @ scaled[..., None])[..., 0]
        eliminated = rest[..., n] - (rest[..., :n] @ block[..., None])[..., 0]
        out = np.empty_like(b)
        np.put_along_axis(out, order, np.concatenate([eliminated, block], axis=1), axis=1)
        return out

    return lam, coef, solution


def _secular_root(
    lam: np.ndarray, coef: np.ndarray, cap: float, cs_budget: float, feas_tol: float, x0: float
) -> float:
    """Smallest x >= 0 at which the block power sum |coef|^2 / (lam + x)^2 meets cap.

    lam and coef are matching arrays of eigenvalues and coefficients, one term
    per entry (``_block_secular`` gives them per member of a stack). The power
    p(x) decreases strictly on x > -min(lam), and 1/sqrt(p) is concave and
    nearly linear there (exactly linear for one term), so Newton's method on
    it approaches the root monotonically from below; a bisection step
    replaces any Newton step that leaves the bracket [lo, hi]. The bracket's
    upper end holds because lam + hi >= sqrt(sum |coef|^2 / cap) for every
    term. Stops when |p - cap| <= min(feas_tol * cap / 2, cs_budget / x), the
    complementary-slackness share of this multiplier; otherwise returns the
    feasible end of the final bracket. x0 is a warm start.
    """
    weight = np.abs(coef).ravel() ** 2
    lam = lam.ravel()[weight > 0.0]
    weight = weight[weight > 0.0]
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


def _disjoint_runs(users_of: list) -> list[list[int]]:
    """Split the RRH-side sweep order 0..len(users_of)-1 into runs.

    users_of[a] is active RRH a's (users, block positions). A run is a
    maximal block of consecutive RRHs of which no two serve a common user.
    """
    runs, seen = [], set()
    for a, (users, _) in enumerate(users_of):
        mine = set(users.tolist())
        if not runs or seen & mine:
            runs.append([])
            seen = set()
        runs[-1].append(a)
        seen |= mine
    return runs


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
      Schur complement of the user's matrix on block k (see
      ``_block_secular``). One batched elimination and eigendecomposition
      over the stack rows of the users RRH k serves turn its power into a
      secular function of mu_k, whose complementary-slackness root (mu_k = 0
      when the cap already holds) ``_secular_root`` finds with no further
      linear solves. Scale-free per constraint, globally convergent. A sweep
      visits the active RRHs in order, a run at a time (``_disjoint_runs``:
      maximal blocks of consecutive RRHs of which no two share a user). The
      members of a run read and write disjoint stack rows and none sees
      another's multiplier, so one ``_block_secular`` call over the run's
      rows and one root per member give exactly the iterates of updating
      them one after another.
    * projected Newton polish — overlapping serving clusters couple the
      multipliers strongly enough that coordinate ascent's linear tail can
      crawl. The dual's gradient is powers - cap and its Hessian, the
      power-balance Jacobian, is closed-form, so up to eight projected Newton
      steps (Bertsekas 1982) follow each sweep: coordinates in the eps-active
      set at mu = 0 take a scaled gradient step, the rest a Newton step. A
      step is backtracked along the projection arc and accepted when the dual
      value rises by Armijo's rule (ARMIJO_SIGMA) and no cap is exceeded by
      more than before; when no trial passes, sweeping resumes.

    The U users' reduced systems (zero-budget blocks dropped, d entries each)
    form one padded stack: ``base`` (U, W, W) and ``rhs`` (U, W), every user
    padded to the widest user's W entries with identity rows and zero
    right-hand sides, and ``blk`` (U, W), each entry's position in
    ``active``. Padding entries point to an extra slot len(active) whose
    multiplier is always 0, so padded beam entries stay 0. The shifted
    matrices, the beam and Hessian solves (one batched solve each), the
    coordinate updates (one batched pass over the rows of a run's users),
    the per-RRH powers (one bincount over ``blk``) and the dual value all
    read the stack.

    mu0 warm-starts the multipliers (dict keyed by RRH id). Coordinates owned
    by zero-budget RRHs are pinned to zero up front. max_iters caps the total
    number of multiplier updates. Returns (beams dict, mu dict, dual value,
    info dict). info counts the multiplier updates (``dual_iterations``), the
    batched coordinate passes (``coordinate_passes``, one per run with an
    update) and the Newton steps accepted and rejected, and gives the final
    worst relative cap excess (``violation``) and complementary-slackness
    residual relative to the dual value's scale (``gap``), which feas_tol and
    gap_tol bound.
    """
    rue_ids = list(quad.keys())
    n = block_size
    info = dict.fromkeys(
        ("dual_iterations", "coordinate_passes", "newton_accepted", "newton_rejected"), 0
    )

    live = [np.repeat(budget[block_rrhs[i]] > 0, n) for i in rue_ids]
    dims = np.array([int(mask.sum()) for mask in live], dtype=int)
    active = sorted({k for i in rue_ids for k in block_rrhs[i] if budget[k] > 0})
    num = len(active)
    slot = {k: a for a, k in enumerate(active)}
    cap = budget[active]
    width = int(dims.max(initial=0))
    base = np.tile(np.eye(width, dtype=complex), (len(rue_ids), 1, 1))
    rhs = np.zeros((len(rue_ids), width), dtype=complex)
    blk = np.full((len(rue_ids), width), num)
    for u, i in enumerate(rue_ids):
        d = dims[u]
        base[u, :d, :d] = quad[i][np.ix_(live[u], live[u])]
        rhs[u, :d] = lin[i][live[u]]
        blk[u, :d] = np.repeat([slot[k] for k in block_rrhs[i] if k in slot], n)
    # Slot of each block position, and per active RRH the (users, positions)
    # of its blocks.
    starts = blk[:, ::n]
    users_of = [np.nonzero(starts == a) for a in range(num)]
    runs = _disjoint_runs(users_of)
    diag = np.arange(width)

    def shifted(mu: np.ndarray, users: np.ndarray = np.arange(len(rue_ids))) -> np.ndarray:
        mats = base[users]
        mats[:, diag, diag] += np.append(mu, 0.0)[blk[users]]
        return mats

    def solve(mu: np.ndarray) -> np.ndarray:
        return _solve_batch(shifted(mu), rhs[..., None])[..., 0]

    def per_rrh(values: np.ndarray) -> np.ndarray:
        """Sum of the (U, W) ``values`` over each active RRH's entries."""
        return np.bincount(blk.ravel(), weights=values.ravel(), minlength=num + 1)[:num]

    mu = np.zeros(num)
    for k, val in (mu0 or {}).items():
        if k in slot and val > 0.0:
            mu[slot[k]] = float(val)
    w = solve(mu) if active else np.zeros_like(rhs)

    def dual_value() -> float:
        return -float(mu @ cap) - float(np.real(np.vdot(rhs, w)))

    def finish(viol: float, gap: float):
        value = dual_value()
        info.update(violation=viol, gap=gap / max(1.0, abs(value)))
        beams = {}
        for u, i in enumerate(rue_ids):
            beams[i] = np.zeros(quad[i].shape[0], dtype=complex)
            beams[i][live[u]] = w[u, :dims[u]]
        mu_out = {k: float(mu[a]) for a, k in enumerate(active)}
        return beams, mu_out, value, info

    if not active:
        return finish(0.0, 0.0)

    def worst_excess(powers: np.ndarray) -> float:
        return float(np.max((powers - cap) / np.maximum(cap, 1e-300)))

    def residuals():
        powers = per_rrh(np.abs(w) ** 2)
        gap = float(np.sum(mu * np.abs(cap - powers)))
        return powers, worst_excess(powers), gap

    def is_converged(viol: float, gap: float) -> bool:
        return viol <= feas_tol and gap <= gap_tol * max(1.0, abs(dual_value()))

    def coordinate_sweep(cs_budget: float) -> int:
        count = 0
        for run in runs:
            powers = per_rrh(np.abs(w) ** 2)
            todo = [a for a in run if not (mu[a] == 0.0 and powers[a] <= cap[a])]
            if not todo:
                continue
            count += len(todo)
            info["coordinate_passes"] += 1
            others = mu.copy()
            others[todo] = 0.0
            users = np.concatenate([users_of[a][0] for a in todo])
            pos = np.concatenate([users_of[a][1] for a in todo])
            lam, coef, solution = _block_secular(shifted(others, users), rhs[users], pos, n)
            x = np.empty((len(users), 1))
            end = 0
            for a in todo:
                start, end = end, end + len(users_of[a][0])
                mu[a] = _secular_root(
                    lam[start:end], coef[start:end], cap[a], cs_budget, feas_tol, mu[a]
                )
                x[start:end] = mu[a]
            w[users] = solution(x)
        return max(count, 1)

    def dual_hessian(idx: np.ndarray) -> np.ndarray:
        """d(powers)/d(mu) on active[idx]: the dual's Hessian, negative semidefinite."""
        # d(w_u)/d(mu_k) = -M_u^{-1} E_k E_k^H w_u: one column per block position of user u.
        nb = width // n
        blocks = w.reshape(-1, nb, n)
        cols = (blocks[..., None] * np.eye(nb)[:, None, :]).reshape(-1, width, nb)
        sens = _solve_batch(shifted(mu), cols).reshape(-1, nb, n, nb)
        cross = np.einsum("upj,upjq->upq", blocks.conj(), sens)
        hess = np.zeros((num + 1, num + 1))
        np.add.at(hess, (starts[:, :, None], starts[:, None, :]), -2.0 * np.real(cross))
        return hess[np.ix_(idx, idx)]

    def newton_step(powers: np.ndarray, viol: float) -> int:
        """One projected Newton step on the dual; the number of multipliers moved.

        Coordinates at mu = 0 whose cap holds stay put. Of the rest, those in
        Bertsekas' eps-active set (mu within eps of zero and the gradient
        pushing it there; eps is the length of the diagonally scaled
        projected-gradient step) take a diagonally scaled gradient step, and
        the others a Newton step on their block of the Hessian. The step is
        backtracked along the projection arc max(0, mu + alpha d) until the
        dual value rises by Armijo's rule and no cap is exceeded by more than
        before; 0 means no trial passed or the Newton block is not an ascent
        direction (a singular or, by rounding, indefinite Hessian block).
        """
        grad = powers - cap
        idx = np.flatnonzero((mu > 0.0) | (grad > 0.0))
        hess = dual_hessian(idx)
        g, m = grad[idx], mu[idx]
        scale = np.maximum(-np.diag(hess), 1e-300)
        eps = float(np.linalg.norm(m - np.maximum(0.0, m + g / scale)))
        at_bound = (m <= eps) & (g < 0.0)
        free = ~at_bound
        step = g / scale
        try:
            step[free] = np.linalg.solve(hess[np.ix_(free, free)], -g[free])
        except np.linalg.LinAlgError:
            return 0
        slope = float(g[free] @ step[free])
        if slope < 0.0:
            return 0
        alpha = 1.0
        for _ in range(NEWTON_BACKTRACKS):
            trial = mu.copy()
            trial[idx] = np.maximum(0.0, m + alpha * step)
            trial_w = solve(trial)
            rise = alpha * slope + float(g[at_bound] @ (trial[idx][at_bound] - m[at_bound]))
            # The dual's change, g(trial) - g(mu) = sum_k dmu_k (Re<w'_k, w_k> - cap_k)
            # for beams w = M(mu)^-1 b, w' = M(trial)^-1 b: exact, and free of the
            # cancellation that differencing two dual values suffers near the optimum.
            change = float((trial - mu) @ (per_rrh(np.real(trial_w.conj() * w)) - cap))
            if (
                change >= ARMIJO_SIGMA * rise
                and worst_excess(per_rrh(np.abs(trial_w) ** 2)) <= max(viol, feas_tol)
            ):
                mu[:] = trial
                w[:] = trial_w
                return idx.size
            alpha *= 0.5
        return 0

    def newton_rounds(max_rounds: int) -> int:
        count = 0
        for _ in range(max_rounds):
            powers, viol, gap = residuals()
            if is_converged(viol, gap):
                break
            moved = newton_step(powers, viol)
            info["newton_accepted" if moved else "newton_rejected"] += 1
            if not moved:
                break
            count += moved
        return count

    updates = 0
    while updates < max_iters:
        powers, viol, gap = residuals()
        if is_converged(viol, gap):
            return finish(viol, gap)
        cs_budget = gap_tol * max(1.0, abs(dual_value())) / (2 * len(active))
        updates += coordinate_sweep(cs_budget)
        updates += newton_rounds(8)
        info["dual_iterations"] = updates
    powers, viol, gap = residuals()
    if viol <= feas_tol:
        return finish(viol, gap)
    raise ConvergenceError(
        f"RRH dual ascent stalled: violation {viol:.3e} after {updates} multiplier updates"
    )


def _solve_mbs_side(
    quad: dict,
    lin: dict,
    budget: float,
    feas_tol: float,
    gap_tol: float,
    nu0: float | None = None,
):
    """Single-constraint subproblem on the MBS multiplier nu.

    The BUE systems form one stack whose block is the whole beam, so
    ``_block_secular`` diagonalises each quadratic term once, the MBS power
    is a secular function of nu, and ``_secular_root`` finds the multiplier.
    """
    bue_ids = list(quad.keys())
    b_ant = lin[bue_ids[0]].shape[0] if bue_ids else 0
    beams = {j: np.zeros(b_ant, dtype=complex) for j in bue_ids}
    nu = 0.0
    if budget > 0.0 and bue_ids:
        stack = np.stack([quad[j] for j in bue_ids]), np.stack([lin[j] for j in bue_ids])
        lam, coef, solution = _block_secular(*stack, np.zeros(len(bue_ids), dtype=int), b_ant)
        nu = _secular_root(lam, coef, budget, 0.5 * gap_tol, feas_tol, nu0 or 0.0)
        beams = dict(zip(bue_ids, solution(nu)))
    value = -sum(float(np.real(np.vdot(lin[j], beams[j]))) for j in bue_ids) - nu * budget
    return beams, nu, value


def solve_qcqp(
    problem: QcqpProblem,
    feas_tol: float = 1e-6,
    gap_tol: float = 1e-8,
    max_dual_iters: int = MAX_DUAL_ITERS,
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

    Returns (beams, info): info holds the RRH-side solver's counters and final
    violation and gap, the MBS side's final relative cap excess
    (``mbs_violation``), the multipliers (``rrh_dual`` keyed by RRH id,
    ``mbs_dual``), and the dual and primal values.
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
    info.update(
        rrh_dual=mu,
        mbs_dual=nu,
        mbs_violation=(beams.mbs_power() - problem.mbs_budget) / max(problem.mbs_budget, 1e-300),
        dual_value=rrh_value + mbs_value,
        primal_value=qcqp_objective(problem, beams),
    )
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
    """Trajectory of one alternating design run.

    ``counters`` holds the RRH-side dual solver's work summed over the
    iterations (``dual_updates``, ``coordinate_passes``, ``newton_accepted``,
    ``newton_rejected``), the last solve's final relative cap ``violation``
    and complementary-slackness ``gap``, and its MBS side's final relative
    cap excess (``mbs_violation``).
    """

    f: dict[int, complex]
    u: dict[int, float]
    mse: dict[int, float]
    objective_trace: list[float] = field(default_factory=list)
    sum_se_trace: list[float] = field(default_factory=list)
    beam_history: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    counters: dict[str, float] = field(default_factory=dict)


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
    summed = ("coordinate_passes", "newton_accepted", "newton_rejected")
    counters = dict.fromkeys(("dual_updates",) + summed, 0)
    state.counters = counters
    mu0, nu0 = None, None
    for it in range(1, max_iters + 1):
        problem = assemble_qcqp(links, send(f), send(u), budgets, topology)
        candidate, qinfo = solve_qcqp(problem, feas_tol, gap_tol, mu0=mu0, nu0=nu0)
        mu0, nu0 = qinfo["rrh_dual"], qinfo["mbs_dual"]
        counters["dual_updates"] += qinfo["dual_iterations"]
        for key in summed:
            counters[key] += qinfo[key]
        counters.update(
            violation=qinfo["violation"], gap=qinfo["gap"], mbs_violation=qinfo["mbs_violation"]
        )
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
