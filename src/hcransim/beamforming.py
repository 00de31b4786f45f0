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
sum |coef|^2 / (lam + x)^2 of its multiplier x, built from eigendecompositions
(of each RUE's Schur complement on the RRH's block, batched over the padded
stack of the RUEs the RRH serves; of the one matrix all BUEs share) and
solved by the same safeguarded Newton iteration on both sides. With the
other multipliers fixed, RRHs that serve no common RUE are decoupled, so the
RRH-side sweep updates each run of consecutive such RRHs in one batched
pass. The f and u updates are closed-form.

The alternation runs on arrays: one ``StackLayout`` per design, each QCQP
written straight into its stack, and (M,) arrays of equalizers, auxiliaries
and MSEs. A design's beams are returned as a ``BeamformerSet``, the per-link
arrays (w_rrh, w_mbs) that the rate code computes on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .channel import TrainingConfig, prelog_factor
from .rate_bounds import AggregatedLinks, interference_plus_noise
from .scenario import Topology


# Multiplier updates allowed per RRH-side dual solve.
MAX_DUAL_ITERS = 5000
# Complementary-slackness residual allowed per QCQP, relative to its scale.
GAP_TOL = 1e-8
# RTD stops when the summed squared beam change of a cycle falls to RHO, or
# after MAX_RTD_ITERS cycles.
RHO = 1e-3
MAX_RTD_ITERS = 100
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

    def __post_init__(self):
        caps = np.append(np.asarray(self.rrh, dtype=float).ravel(), float(self.mbs))
        if not np.all(np.isfinite(caps) & (caps >= 0)):
            raise ValueError(f"power budgets must be finite and nonnegative, got {self}")

    def rrh_array(self, num_rrh: int) -> np.ndarray:
        arr = np.asarray(self.rrh, dtype=float)
        if arr.ndim == 0:
            arr = np.full(num_rrh, float(arr))
        if arr.shape != (num_rrh,):
            raise ValueError(f"need {num_rrh} RRH budgets, got shape {arr.shape}")
        return arr


class BeamformerSet(NamedTuple):
    """Transmit beams on every link: ``rrh[m, k]`` is UE m's beam block at
    RRH k and ``mbs[m]`` its MBS beam. Entries are zero off each RUE's
    serving cluster, on zero-budget blocks, on BUE rows of ``rrh`` and on RUE
    rows of ``mbs``. Unpacks as the (w_rrh, w_mbs) pair the rate code takes."""

    rrh: np.ndarray    # (M, K, N) complex
    mbs: np.ndarray    # (M, B) complex

    def rrh_power(self, rrh_id: int) -> float:
        return float(np.sum(np.abs(self.rrh[:, rrh_id]) ** 2))

    def mbs_power(self) -> float:
        return float(np.sum(np.abs(self.mbs) ** 2))


@dataclass
class StackLayout:
    """Where every RUE's reduced system sits in the RRH-side stack.

    Row u is RUE ``rue[u]``: its cluster's positive-budget blocks in order,
    padded with identity blocks to P blocks (W = P * block_size entries).
    ``starts[u, p]`` is block p's active slot (RRH ``active[slot]``), or
    len(active) at padding; ``blk`` repeats it per entry. ``users_of[a]``
    holds slot a's (rows, block positions), ``runs`` the sweep's runs. The
    ``live`` (U, P) blocks are, in row-major order, the links ``link_rrh`` ->
    ``link_ue``, with estimates ``est`` (U, W). ``est_rows`` holds every UE's
    estimates in the row format of ``rows``.
    """

    block_size: int
    rue: np.ndarray
    bue: np.ndarray
    rrh_budget: np.ndarray
    mbs_budget: float
    active: np.ndarray
    starts: np.ndarray
    blk: np.ndarray
    users_of: list
    runs: list[list[int]]
    live: np.ndarray
    link_rrh: np.ndarray
    link_ue: np.ndarray
    est: np.ndarray
    est_rows: np.ndarray

    def rows(self, w_rue: np.ndarray, w_bue: np.ndarray) -> np.ndarray:
        """Every UE's beams on every link: row m holds UE m's K per-RRH
        blocks (zero off its live blocks), then its MBS beam."""
        out = np.zeros(self.est_rows.shape, dtype=complex)
        w_rrh, w_mbs = self.split(out)
        w_rrh[self.link_ue, self.link_rrh] = w_rue.reshape(-1, self.block_size)[self.live.ravel()]
        w_mbs[self.bue] = w_bue
        return out

    def split(self, rows: np.ndarray) -> BeamformerSet:
        """Per-UE rows as a BeamformerSet of views into them."""
        cut = self.rrh_budget.size * self.block_size
        return BeamformerSet(rows[:, :cut].reshape(len(rows), -1, self.block_size), rows[:, cut:])


def stack_layout(links: AggregatedLinks, budgets: PowerBudget) -> StackLayout:
    """The stack layout of every beamformer QCQP on these links and budgets."""
    num_rrh, num_ue, n = links.est_rrh.shape
    budget = budgets.rrh_array(num_rrh)
    topology = links.topology
    clusters = [[k for k in topology.serving_rrhs[i] if budget[k] > 0] for i in topology.rue_set]
    active = np.array(sorted({k for c in clusters for k in c}), dtype=int)
    slot = np.zeros(num_rrh, dtype=int)
    slot[active] = np.arange(active.size)
    starts = np.full((len(clusters), max(map(len, clusters), default=0)), active.size)
    for u, c in enumerate(clusters):
        starts[u, :len(c)] = slot[c]
    live = starts < active.size
    rue = np.array(topology.rue_set, dtype=int)
    link_rrh = active[starts[live]]
    link_ue = np.broadcast_to(rue[:, None], starts.shape)[live]
    est = np.zeros(starts.shape + (n,), dtype=complex)
    est[live] = links.est_rrh[link_rrh, link_ue]
    users_of = [np.nonzero(starts == a) for a in range(active.size)]
    return StackLayout(
        block_size=n,
        rue=rue,
        bue=np.array(topology.bue_set, dtype=int),
        rrh_budget=budget,
        mbs_budget=float(budgets.mbs),
        active=active,
        starts=starts,
        blk=np.repeat(starts, n, axis=1),
        users_of=users_of,
        runs=_disjoint_runs(users_of),
        live=live,
        link_rrh=link_rrh,
        link_ue=link_ue,
        est=est.reshape(len(rue), starts.shape[1] * n),
        est_rows=np.concatenate(
            [links.est_rrh.transpose(1, 0, 2).reshape(num_ue, num_rrh * n), links.est_mbs], axis=1
        ),
    )


@dataclass
class QcqpProblem:
    """The beamformer-step QCQP on a stack layout: RUE ``layout.rue[u]``
    minimizes w^H base[u] w - 2 Re(rhs[u]^H w) over its stack row, BUE
    ``layout.bue[j]`` the same with ``mbs_quad`` (the (B, B) matrix all BUEs
    share, or a (J, B, B) stack) and ``mbs_lin[j]``."""

    layout: StackLayout
    base: np.ndarray
    rhs: np.ndarray
    mbs_quad: np.ndarray
    mbs_lin: np.ndarray


def mse_and_equalizer(g_eff: np.ndarray, w: np.ndarray, j_power):
    """Optimal scalar equalizers and the resulting MSEs (mse, f).

    g_eff (..., D) is the usable (estimated) channel, w its beam and j_power
    (...) the expected interference-plus-noise power, one UE per entry.
    """
    if np.any(np.asarray(j_power) <= 0):
        raise ValueError("interference-plus-noise power must be positive")
    a = (g_eff.conj()[..., None, :] @ w[..., :, None])[..., 0, 0]
    f = a / (np.abs(a) ** 2 + j_power)
    mse = np.abs(np.conj(f) * a - 1.0) ** 2 + np.abs(f) ** 2 * j_power
    return mse, f


def update_u(mse):
    """Closed-form auxiliary-variable update, elementwise; the weight is exp(u - 1)."""
    if np.any(np.asarray(mse) <= 0):
        raise ValueError("mse must be positive")
    return 1.0 - np.log(mse)


def assemble_qcqp(
    links: AggregatedLinks, f: np.ndarray, u: np.ndarray, layout: StackLayout
) -> QcqpProblem:
    """Beamformer-step QCQP at the current equalizers and auxiliaries.

    f and u are (M,) arrays by UE id; the MSE weights are w8 = exp(u - 1) |f|^2.
    A beam block at RRH k costs G_k = sum_m w8_m (est est^H + var I) over the
    links k -> m, so a RUE's matrix is blockdiag(G_k) over its live blocks
    plus its own term w8_i g g^H, the only one that couples them; every BUE
    shares the one matrix of the MBS links.

    The dropped additive constant is sum_m exp(u_m - 1) * (1 + |f_m|^2 * N0);
    adding it back to the optimum recovers the weighted-MSE objective.
    """
    scale = np.exp(u - 1.0)
    w8 = scale * np.abs(f) ** 2
    lin = scale * f
    n = layout.block_size
    est = links.est_rrh[layout.active]
    per_rrh = np.sum((est * w8[None, :, None])[..., :, None] * est.conj()[..., None, :], axis=1)
    per_rrh[:, np.arange(n), np.arange(n)] += (links.var_rrh @ w8)[layout.active, None]
    # One block per active slot, then the padding's identity.
    blocks = np.concatenate([per_rrh, np.eye(n, dtype=complex)[None]])
    g = layout.est
    base = w8[layout.rue, None, None] * (g[:, :, None] * g.conj()[:, None, :])
    for p in range(layout.starts.shape[1]):
        base[:, p * n:(p + 1) * n, p * n:(p + 1) * n] = blocks[layout.starts[:, p]]
    shared = (links.est_mbs * w8[:, None]).T @ links.est_mbs.conj()
    shared += (links.var_mbs @ w8) * np.eye(links.mbs_antennas)
    return QcqpProblem(
        layout=layout,
        base=base,
        rhs=lin[layout.rue, None] * g,
        mbs_quad=shared,
        mbs_lin=lin[layout.bue, None] * links.est_mbs[layout.bue],
    )


def _objective(quad: np.ndarray, lin: np.ndarray, w: np.ndarray) -> float:
    """sum_u w_u^H quad_u w_u - 2 Re(lin_u^H w_u) over a stack; a 2-D quad is
    shared by every row."""
    quadratic = np.vdot(w, (quad @ w[..., None])[..., 0])
    return float(np.real(quadratic)) - 2.0 * float(np.real(np.vdot(lin, w)))


def qcqp_objective(problem: QcqpProblem, beams) -> float:
    """Objective at beams = (RUE stack (U, W), BUE beams (J, B)), as
    ``solve_qcqp`` returns them."""
    w_rue, w_bue = beams
    rue = _objective(problem.base, problem.rhs, w_rue)
    return rue + _objective(problem.mbs_quad, problem.mbs_lin, w_bue)


def _solve_batch(mats: np.ndarray, rhs: np.ndarray, counts: dict) -> np.ndarray:
    """Solve mats[u] x = rhs[u] for every member of a stack in one call.

    A stack with a singular member falls back to per-member solves, which use
    least squares where the matrix is singular. counts["linear_solves"]
    counts every ``np.linalg.solve`` call.
    """
    counts["linear_solves"] += 1
    try:
        return np.linalg.solve(mats, rhs)
    except np.linalg.LinAlgError:
        if len(mats) == 1:
            return np.linalg.lstsq(mats[0], rhs[0], rcond=None)[0][None]
        return np.concatenate([_solve_batch(a[None], b[None], counts) for a, b in zip(mats, rhs)])


def _block_secular(mats: np.ndarray, rhs: np.ndarray, pos: np.ndarray, n: int, counts: dict):
    """One block of (A_u + x E_u E_u^H)^{-1} b_u as an eigen-expansion in x.

    For a stack of Hermitian positive semidefinite A (U, W, W) and b (U, W),
    E_u selects member u's n entries from pos[u] * n. Each member's entries
    are reordered so that the block comes last; with
    S = A_kk - A_kr A_rr^{-1} A_rk the block's Schur complement (eigenpairs
    lam, vecs) and c = b_k - A_kr A_rr^{-1} b_r, the block equals
    vecs (coef / (lam + x)) with coef = vecs^H c, so its power is the secular
    function sum |coef|^2 / (lam + x)^2. Identity rows with a zero right-hand
    side (the solver's padding) drop out of the elimination exactly. The
    elimination's solve is counted in counts (see ``_solve_batch``).

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
    rest = _solve_batch(
        mat[:, :r, :r], np.concatenate([mat[:, :r, r:], b[:, :r, None]], axis=2), counts
    )
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


def _solve_rrh_side(layout: StackLayout, base, rhs, feas_tol: float, mu0=None):
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

    ``base`` (U, W, W) and ``rhs`` (U, W) are the users' systems on the stack
    ``layout``; padding entries point to an extra slot len(active) whose
    multiplier is always 0, so padded beam entries stay 0.

    mu0 ((K,) by RRH id) warm-starts the multipliers. MAX_DUAL_ITERS caps
    the total number of multiplier updates. Returns (beam stack, mu by active
    slot, dual value, info). info counts the multiplier updates
    (``dual_iterations``), the batched coordinate passes (one per run with
    an update), the Newton steps accepted and rejected and the
    ``np.linalg.solve`` calls (``linear_solves``), and gives the final worst
    relative cap excess (``violation``) and complementary-slackness residual
    relative to the dual value's scale (``gap``).
    """
    n = layout.block_size
    blk, starts, users_of = layout.blk, layout.starts, layout.users_of
    cap = layout.rrh_budget[layout.active]
    num = cap.size
    width = rhs.shape[1]
    counted = ("coordinate_passes", "newton_accepted", "newton_rejected", "linear_solves")
    info = dict.fromkeys(("dual_iterations",) + counted, 0)
    diag = np.arange(width)

    def shifted(mu: np.ndarray, users: np.ndarray = np.arange(len(rhs))) -> np.ndarray:
        mats = base[users]
        mats[:, diag, diag] += np.append(mu, 0.0)[blk[users]]
        return mats

    def solve(mu: np.ndarray) -> np.ndarray:
        return _solve_batch(shifted(mu), rhs[..., None], info)[..., 0]

    def per_rrh(values: np.ndarray) -> np.ndarray:
        """Sum of the (U, W) ``values`` over each active RRH's entries."""
        return np.bincount(blk.ravel(), weights=values.ravel(), minlength=num + 1)[:num]

    mu = np.zeros(num) if mu0 is None else mu0[layout.active]
    w = solve(mu) if num else np.zeros_like(rhs)

    def dual_value() -> float:
        return -float(mu @ cap) - float(np.real(np.vdot(rhs, w)))

    def finish(viol: float, gap: float):
        value = dual_value()
        info.update(violation=viol, gap=gap / max(1.0, abs(value)))
        return w, mu, value, info

    if not num:
        return finish(0.0, 0.0)

    def worst_excess(powers: np.ndarray) -> float:
        return float(np.max((powers - cap) / np.maximum(cap, 1e-300)))

    def residuals():
        powers = per_rrh(np.abs(w) ** 2)
        gap = float(np.sum(mu * np.abs(cap - powers)))
        return powers, worst_excess(powers), gap

    def is_converged(viol: float, gap: float) -> bool:
        return viol <= feas_tol and gap <= GAP_TOL * max(1.0, abs(dual_value()))

    def coordinate_sweep(cs_budget: float) -> int:
        count = 0
        for run in layout.runs:
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
            lam, coef, solution = _block_secular(shifted(others, users), rhs[users], pos, n, info)
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
        sens = _solve_batch(shifted(mu), cols, info).reshape(-1, nb, n, nb)
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
        info["linear_solves"] += 1
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
    while updates < MAX_DUAL_ITERS:
        powers, viol, gap = residuals()
        if is_converged(viol, gap):
            return finish(viol, gap)
        cs_budget = GAP_TOL * max(1.0, abs(dual_value())) / (2 * num)
        updates += coordinate_sweep(cs_budget)
        updates += newton_rounds(8)
        info["dual_iterations"] = updates
    powers, viol, gap = residuals()
    if viol <= feas_tol:
        return finish(viol, gap)
    raise ConvergenceError(
        f"RRH dual ascent stalled: violation {viol:.3e} after {updates} multiplier updates"
    )


def _solve_mbs_side(quad, lin, budget: float, feas_tol: float, nu0=None):
    """Single-constraint subproblem on the MBS multiplier nu.

    quad is the (B, B) matrix all BUEs share or a (J, B, B) stack, lin the
    (J, B) linear terms; one code path broadcasts over both. With
    quad = V diag(lam) V^H, BUE j's beam is V (coef_j / (lam + nu)) for
    coef_j = V^H lin_j, so the MBS power is a secular function of nu and
    ``_secular_root`` finds the multiplier. Returns (beams (J, B), nu, dual
    value).
    """
    beams, nu = np.zeros_like(lin), 0.0
    if budget > 0.0 and len(lin):
        lam, vecs = np.linalg.eigh(0.5 * (quad + quad.conj().swapaxes(-1, -2)))
        coef = (vecs.conj().swapaxes(-1, -2) @ lin[..., None])[..., 0]
        lam = np.broadcast_to(lam, coef.shape)
        nu = _secular_root(lam, coef, budget, 0.5 * GAP_TOL, feas_tol, nu0 or 0.0)
        scaled = np.divide(coef, lam + nu, out=np.zeros_like(coef), where=coef != 0)
        beams = (vecs @ scaled[..., None])[..., 0]
    value = -float(np.real(np.vdot(lin, beams))) - nu * budget
    return beams, nu, value


def solve_qcqp(
    problem: QcqpProblem,
    feas_tol: float = 1e-6,
    mu0: np.ndarray | None = None,
    nu0: float | None = None,
):
    """Global minimizer of the beamformer-step QCQP.

    Strong duality holds (convex problem, Slater point w = 0), so the RRH-side
    multipliers from dual ascent and the MBS-side multiplier, the root of its
    secular equation (``_secular_root``), certify the solution. feas_tol
    bounds the relative constraint violation; GAP_TOL bounds the
    complementary-slackness residual relative to the objective scale. mu0
    ((K,) by RRH id) and nu0 warm-start the multipliers.

    Returns (beams, info): beams is (RUE stack, (J, B) BUE beams), which
    ``layout.split(layout.rows(*beams))`` turns into a BeamformerSet. info
    holds the RRH-side solver's counters and final violation and gap, the MBS
    side's final relative cap excess (``mbs_violation``; 0.0 when there is no
    BUE, as the RRH side reports for no live block), the multipliers
    (``rrh_dual`` by RRH id, 0 where no live block is; ``mbs_dual``), and the
    dual and primal values.
    """
    layout = problem.layout
    w_rue, mu, rrh_value, info = _solve_rrh_side(layout, problem.base, problem.rhs, feas_tol, mu0)
    w_bue, nu, mbs_value = _solve_mbs_side(
        problem.mbs_quad, problem.mbs_lin, layout.mbs_budget, feas_tol, nu0=nu0
    )
    rrh_dual = np.zeros(layout.rrh_budget.size)
    rrh_dual[layout.active] = mu
    mbs_violation = 0.0
    if len(w_bue):
        mbs_power = float(np.sum(np.abs(w_bue) ** 2))
        mbs_violation = (mbs_power - layout.mbs_budget) / max(layout.mbs_budget, 1e-300)
    beams = (w_rue, w_bue)
    info.update(
        rrh_dual=rrh_dual,
        mbs_dual=nu,
        mbs_violation=mbs_violation,
        dual_value=rrh_value + mbs_value,
        primal_value=qcqp_objective(problem, beams),
    )
    return beams, info


def _accept_side(quad: np.ndarray, lin: np.ndarray, candidate: np.ndarray, old: np.ndarray):
    """Keep the previous side beams if the solver's answer lost ground.

    The solver works to tolerance; this guards the descent property of the
    outer alternation. The comparison is per side, which is valid because the
    QCQP objective and constraints separate across the two transmitter sides.
    """
    if _objective(quad, lin, candidate) > _objective(quad, lin, old):
        return old
    return candidate


@dataclass
class RtdState:
    """Trajectory of one alternating design run; ``mse`` is the final (M,)
    array of MSEs by UE id.

    ``counters`` sums the RRH-side dual solver's work over the iterations
    (``dual_updates``, ``coordinate_passes``, ``newton_accepted``,
    ``newton_rejected``, ``linear_solves``) and keeps the last solve's final
    relative cap ``violation``, complementary-slackness ``gap`` and MBS-side
    relative cap excess (``mbs_violation``, 0.0 when there is no BUE).
    """

    mse: np.ndarray
    objective_trace: list[float] = field(default_factory=list)
    sum_se_trace: list[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    counters: dict[str, float] = field(default_factory=dict)


def rtd_solve(
    topology: Topology,
    links: AggregatedLinks,
    training: TrainingConfig,
    budgets: PowerBudget,
    feas_tol: float = 1e-6,
):
    """Alternating robust transmit design.

    Starts from zero beams with unit equalizers and auxiliaries, then cycles
    beamformer step / equalizer step / auxiliary step until the summed squared
    beam change falls to RHO, for at most MAX_RTD_ITERS cycles. The objective
    trace records the surrogate sum_m (exp(u_m - 1) * mse_m - u_m) after each
    full cycle, which equals sum_m log(mse_m) at the refreshed stats; the SE
    trace is the matching sum of per-UE rate lower bounds.

    The loop runs on arrays, one stack layout per run. The paper's
    distributed realization is the QCQP's split into the RRH-side and
    MBS-side subproblems, which ``solve_qcqp`` solves separately; they
    exchange only the equalizers, auxiliaries and beams. Returns
    (BeamformerSet, RtdState).

    The design reads the clusters from ``links.topology`` and never reads the
    ``topology`` argument, which should be that same object. It stays the
    first positional argument because ``bench/tracing.py`` captures
    arguments 0 and 3, and ``bench/workloads.py`` reads the default of
    feas_tol.
    """
    prelog = prelog_factor(training.tau, training.coherence)
    layout = stack_layout(links, budgets)
    num_ue = layout.est_rows.shape[0]
    w_rue = np.zeros_like(layout.est)
    w_bue = np.zeros((layout.bue.size, links.mbs_antennas), dtype=complex)
    f, u = np.ones(num_ue, dtype=complex), np.ones(num_ue)
    summed = ("coordinate_passes", "newton_accepted", "newton_rejected", "linear_solves")
    counters = dict.fromkeys(("dual_updates",) + summed, 0)
    state = RtdState(mse=np.zeros(0), counters=counters)
    mu0, nu0 = None, None
    for it in range(1, MAX_RTD_ITERS + 1):
        problem = assemble_qcqp(links, f, u, layout)
        (rue_new, bue_new), qinfo = solve_qcqp(problem, feas_tol, mu0=mu0, nu0=nu0)
        mu0, nu0 = qinfo["rrh_dual"], qinfo["mbs_dual"]
        counters["dual_updates"] += qinfo["dual_iterations"]
        for key in summed:
            counters[key] += qinfo[key]
        counters.update(
            violation=qinfo["violation"], gap=qinfo["gap"], mbs_violation=qinfo["mbs_violation"]
        )
        rue_new = _accept_side(problem.base, problem.rhs, rue_new, w_rue)
        bue_new = _accept_side(problem.mbs_quad, problem.mbs_lin, bue_new, w_bue)
        delta = float(np.sum(np.abs(rue_new - w_rue) ** 2) + np.sum(np.abs(bue_new - w_bue) ** 2))
        w_rue, w_bue = rue_new, bue_new
        # Equalizer and auxiliary steps, for every UE at once.
        rows = layout.rows(w_rue, w_bue)
        j_power = interference_plus_noise(links, layout.split(rows), training.noise_power)
        mse, f = mse_and_equalizer(layout.est_rows, rows, j_power)
        u = update_u(mse)
        state.mse = mse
        state.objective_trace.append(float(np.sum(np.exp(u - 1.0) * mse - u)))
        state.sum_se_trace.append(-prelog * float(np.sum(np.log2(mse))))
        state.iterations = it
        if delta <= RHO:
            state.converged = True
            break
    return layout.split(layout.rows(w_rue, w_bue)), state
