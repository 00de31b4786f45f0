"""Robust downlink beamformer design.

The sum of per-UE lower-bound rates is maximized by block coordinate descent
on a weighted-MSE surrogate: with receive equalizers f and auxiliary variables
u (weights exp(u - 1)), the beamformer step is a convex QCQP

    min over w   sum_m  w_m^H F_m w_m - 2 Re(b_m^H w_m)

subject to per-RRH and MBS sum-power constraints. RRH constraints couple the
RUE beams through shared blocks and are handled by dual decomposition; the
MBS constraint couples the BUE beams through a single scalar multiplier.
A power behaves like sum |c|^2 / (lam + x)^2 in its multiplier x, so
p^(-1/2) is nearly linear in x, and every multiplier update solves
p^(-1/2) = cap^(-1/2) by Newton's method: on the RRH side for a block of
multipliers at once (projected Newton on the concave dual, accepted by
Armijo's rule; a multiplier counts as at its bound only when its own scaled
step reaches zero), or for each RRH on its own multiplier (every RRH at
once from a cold start at zero, one at a time in a Gauss-Seidel sweep
after a rejected block step); on the MBS side by that per-multiplier step
on its one multiplier. Every block at an RRH costs that RRH's one matrix G,
and a RUE's own rank-one term is the only coupling between its blocks, so
the RRH side works in each RRH's eigenbasis and solves every user's system
and the dual's Hessian in closed form (Sherman-Morrison), with no linear
solve but the Newton step's. The f and u updates are closed-form.

The alternation runs on arrays: one ``StackLayout`` per design, each QCQP
kept in factored form on it (per-RRH matrices, per-RUE weights and linear
scalars, the estimates in the stack), and (M,) arrays of equalizers,
auxiliaries and MSEs. Each cycle's beams are a ``BeamformerSet`` (w_rrh,
w_mbs), whose ``useful_amplitude`` the equalizer step reads as the bound does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .channel import AggregatedLinks, TrainingConfig, prelog_factor
from .rate_bounds import interference_plus_noise, useful_amplitude
from .scenario import Topology


# Multiplier updates allowed per dual solve, either side.
MAX_DUAL_ITERS = 5000
# Complementary-slackness residual allowed per QCQP, relative to its scale.
GAP_TOL = 1e-8
# Default relative constraint violation allowed per QCQP.
FEAS_TOL = 1e-6
# RTD starts from equalizers sqrt(NOISE_REF / N0) and stops when the summed
# squared beam change of a cycle falls to RHO * N0 / NOISE_REF, or after
# MAX_RTD_ITERS cycles: both scale with the unit of power, and at the default
# noise power (NOISE_REF) they are 1 and RHO.
RHO = 1e-3
MAX_RTD_ITERS = 100
NOISE_REF = TrainingConfig().noise_power
# Projected Newton on the RRH-side dual: Armijo's sufficient-rise fraction
# and the step halvings tried along the projection arc.
ARMIJO_SIGMA = 1e-4
NEWTON_BACKTRACKS = 6
# What the RRH-side dual solver counts, per solve and summed over a design.
DUAL_COUNTERS = ("linear_solves", "newton_accepted", "newton_rejected", "coordinate_passes")


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
    rows of ``mbs``. Unpacks as the (w_rrh, w_mbs) pair the rate code takes;
    the lower bound's moments and amplitudes read ``rrh`` only on the serving
    links (``Topology.served_links``)."""

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
    len(active) at padding. The ``live`` (U, P) blocks are, in row-major
    order, the links ``link_rrh`` -> ``link_ue``, with estimates ``est``
    (U, W). BUE ``bue[j]`` is row j of the MBS side's (J, B) beams.
    ``gram_ue`` (A, Q) lists, per active slot, the users whose estimate at
    that RRH is nonzero (the served links under estimated CSI, every user
    under perfect CSI), ascending, then users with a zero estimate as
    padding; ``gram_est`` (A, Q, n) holds those estimates.
    """

    block_size: int
    rue: np.ndarray
    bue: np.ndarray
    rrh_budget: np.ndarray
    mbs_budget: float
    active: np.ndarray
    starts: np.ndarray
    live: np.ndarray
    link_rrh: np.ndarray
    link_ue: np.ndarray
    est: np.ndarray
    gram_ue: np.ndarray
    gram_est: np.ndarray

    def beams(self, w_rue: np.ndarray, w_bue: np.ndarray) -> BeamformerSet:
        """The RUE stack (U, W) and BUE beams (J, B) as per-link arrays."""
        num_ue = self.rue.size + self.bue.size
        rrh = np.zeros((num_ue, self.rrh_budget.size, self.block_size), dtype=complex)
        rrh[self.link_ue, self.link_rrh] = w_rue.reshape(-1, self.block_size)[self.live.ravel()]
        mbs = np.zeros((num_ue, w_bue.shape[1]), dtype=complex)
        mbs[self.bue] = w_bue
        return BeamformerSet(rrh, mbs)


def stack_layout(links: AggregatedLinks, budgets: PowerBudget) -> StackLayout:
    """The stack layout of every beamformer QCQP on these links and budgets."""
    num_rrh, _, n = links.est_rrh.shape
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
    # A link with a zero estimate adds nothing to its RRH's Gram block.
    at_active = links.est_rrh[active]
    known = np.any(at_active != 0, axis=2)
    gram_ue = np.argsort(~known, axis=1, kind="stable")[:, :known.sum(axis=1).max(initial=0)]
    return StackLayout(
        block_size=n,
        rue=rue,
        bue=np.array(topology.bue_set, dtype=int),
        rrh_budget=budget,
        mbs_budget=float(budgets.mbs),
        active=active,
        starts=starts,
        live=live,
        link_rrh=link_rrh,
        link_ue=link_ue,
        est=est.reshape(len(rue), starts.shape[1] * n),
        gram_ue=gram_ue,
        gram_est=np.take_along_axis(at_active, gram_ue[:, :, None], axis=1),
    )


@dataclass
class QcqpProblem:
    """The beamformer-step QCQP on a stack layout, in factored form.

    A beam block at active slot a costs ``blocks[a]`` (G_a; (A, n, n)). RUE
    ``layout.rue[u]`` minimizes w^H M_u w - 2 Re(lin[u] g^H w) over its stack
    row, g = ``layout.est[u]``, where its own rank-one term is the only one
    that couples its blocks: M_u = blockdiag(G over its live blocks, identity
    on padding) + w8[u] (g g^H - blockdiag(g_p g_p^H)). BUE ``layout.bue[j]``
    minimizes w^H mbs_quad w - 2 Re(mbs_lin[j]^H w), with ``mbs_quad`` the
    (B, B) matrix all BUEs share.
    """

    layout: StackLayout
    blocks: np.ndarray
    w8: np.ndarray
    lin: np.ndarray
    mbs_quad: np.ndarray
    mbs_lin: np.ndarray


def mse_and_equalizer(a, j_power):
    """Optimal scalar equalizers and their MSEs (mse, f) from the useful
    amplitude a = est^H w (``useful_amplitude``) and the expected
    interference-plus-noise power j_power, one UE per entry."""
    if np.any(np.asarray(j_power) <= 0):
        raise ValueError("interference-plus-noise power must be positive")
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
    links k -> m (the estimate part over ``layout.gram_est``, the links with
    a nonzero estimate), so a RUE's matrix is blockdiag(G_k) over its live
    blocks plus its own term w8_i g g^H, the only one that couples them; every BUE
    shares the one matrix of the MBS links. The problem keeps these factors
    (``QcqpProblem``) and never forms a RUE's matrix.

    The dropped additive constant is sum_m exp(u_m - 1) * (1 + |f_m|^2 * N0);
    adding it back to the optimum recovers the weighted-MSE objective.
    """
    scale = np.exp(u - 1.0)
    w8 = scale * np.abs(f) ** 2
    lin = scale * f
    n = layout.block_size
    est = layout.gram_est
    weighted = est * w8[layout.gram_ue][:, :, None]
    blocks = np.sum(weighted[..., :, None] * est.conj()[..., None, :], axis=1)
    blocks[:, np.arange(n), np.arange(n)] += (links.var_rrh @ w8)[layout.active, None]
    shared = (links.est_mbs * w8[:, None]).T @ links.est_mbs.conj()
    shared += (links.var_mbs @ w8) * np.eye(links.mbs_antennas)
    return QcqpProblem(
        layout=layout,
        blocks=blocks,
        w8=w8[layout.rue],
        lin=lin[layout.rue],
        mbs_quad=shared,
        mbs_lin=lin[layout.bue, None] * links.est_mbs[layout.bue],
    )


def _objective(quad: np.ndarray, lin: np.ndarray, w: np.ndarray) -> float:
    """sum_u w_u^H quad w_u - 2 Re(lin_u^H w_u) over the rows of a stack, all
    sharing the one matrix quad."""
    quadratic = np.vdot(w, (quad @ w[..., None])[..., 0])
    return float(np.real(quadratic)) - 2.0 * float(np.real(np.vdot(lin, w)))


def _rue_objective(problem: QcqpProblem, w: np.ndarray) -> float:
    """The RUE side's objective at the (U, W) beam stack w, from the factors."""
    layout = problem.layout
    n = layout.block_size
    z = w.reshape(layout.starts.shape + (n,))
    g = layout.est.reshape(z.shape)
    blocks = np.concatenate([problem.blocks, np.eye(n, dtype=complex)[None]])
    quadratic = np.vdot(z, (blocks[layout.starts] @ z[..., None])[..., 0])
    y = np.sum(g.conj() * z, axis=-1)
    own = np.abs(np.sum(y, axis=1)) ** 2 - np.sum(np.abs(y) ** 2, axis=1)
    signal = np.vdot(problem.lin, np.sum(y, axis=1))
    return float(np.real(quadratic) + problem.w8 @ own) - 2.0 * float(np.real(signal))


def qcqp_objective(problem: QcqpProblem, beams) -> float:
    """Objective at beams = (RUE stack (U, W), BUE beams (J, B)), as
    ``solve_qcqp`` returns them."""
    w_rue, w_bue = beams
    return _rue_objective(problem, w_rue) + _objective(problem.mbs_quad, problem.mbs_lin, w_bue)


def _residual(p: np.ndarray, cap: np.ndarray) -> np.ndarray:
    """p^{-1/2} - cap^{-1/2} scaled back by its derivative, 2 p (sqrt(p / cap)
    - 1), which is p - cap to first order at the cap; p - cap where p = 0.
    Every multiplier update, on either side, steps by it over -dp/dmu."""
    r = 2.0 * p * (np.sqrt(p / cap) - 1.0)
    return r if p.all() else np.where(p > 0.0, r, p - cap)


class _Iterate(NamedTuple):
    """The RRH-side dual's iterate: multipliers by active slot, their
    ``_Eigenbasis.coupling``, the rotated beams z and the per-RRH powers."""

    mu: np.ndarray
    coupled: tuple
    z: np.ndarray
    powers: np.ndarray


class _Eigenbasis:
    """Every RUE's system on the RRH side, in closed form in each active RRH's
    eigenbasis.

    With G_a = V_a diag(lam_a) V_a^H and gamma_p = V_a^H g_p the rotated
    estimate of a user's block p at slot a, the user's matrix at multipliers
    mu is blockdiag(D_p) + w8 (gamma gamma^H - blockdiag(gamma_p gamma_p^H)),
    D_p = diag(lam_a + mu_a). With q_p = gamma_p / d, s_p = gamma_p^H q_p,
    delta_p = 1 - w8 s_p (Sherman-Morrison on the block without its own term)
    and R_p = sum over the user's other blocks of s / delta, the user's
    rotated beam is z_p = lin kappa_p q_p with kappa_p = 1 / (1 + w8 delta_p
    R_p). Block powers, the dual value and the dual's Hessian are the same in
    either basis, so the solver works on z and rotates back once. These
    eigendecompositions are the RRH side's only ones: every multiplier
    update, in a block or for one RRH, steps on ``power_jacobian``.

    Directions at rounding level (zero variance and fewer users than
    antennas) carry no user's estimate in exact arithmetic: their estimate
    components are zeroed and their eigenvalue set to 1, so every beam is the
    minimum-norm one. The padding slot len(active) has eigenvalues 1 and no
    estimate. delta is floored at 1e-12: below that 1 - w8 s is rounding,
    and a user whose P blocks all reach the floor takes kappa of about 1/P on
    each, one of its many minimizers.
    """

    def __init__(self, problem: QcqpProblem):
        layout = problem.layout
        n = layout.block_size
        lam, vecs = np.linalg.eigh(problem.blocks)
        # Slot len(active) is the padding: eigenvalues 1, basis I.
        null = lam <= 1e-13 * np.maximum(lam[:, -1:], 0.0)
        null = np.append(null, np.zeros((1, n), dtype=bool), axis=0)
        lam = np.append(lam, np.ones((1, n)), axis=0)
        starts = self.starts = layout.starts
        # Each block's basis, gathered once for both rotations.
        self.vecs = np.append(vecs, np.eye(n, dtype=complex)[None], axis=0)[starts]
        self.stack_shape = layout.est.shape
        g = layout.est.reshape(starts.shape + (n,))
        gamma = (self.vecs.conj().swapaxes(-1, -2) @ g[..., None])[..., 0]
        gamma[null[starts]] = 0.0
        # Per user and block: eigenvalues, rotated estimate and its |.|^2.
        self.lam = np.where(null, 1.0, lam)[starts]
        self.gamma, self.size2 = gamma, gamma.real**2 + gamma.imag**2
        self.w8, self.lin = problem.w8[:, None], problem.lin[:, None]
        # Each user's linear term lin * gamma: the dual value reads it.
        self.rhs = self.lin[..., None] * gamma
        self.others = 1.0 - np.eye(starts.shape[1])
        num = self.num = layout.active.size
        self._mu = np.zeros(num + 1)  # multipliers, and 0 for the padding slot
        self._slots = starts.ravel()
        self._pairs = (starts[:, :, None] * (num + 1) + starts[:, None, :]).ravel()

    def at(self, mu: np.ndarray, coupled=None, z=None) -> _Iterate:
        """The iterate at multipliers mu (by active slot), given or making
        mu's ``coupling`` and beams."""
        if z is None:
            z = self.solve(coupled := self.coupling(mu))
        return _Iterate(mu, coupled, z, self.per_rrh(np.abs(z) ** 2))

    def per_rrh(self, values: np.ndarray) -> np.ndarray:
        """Sum of the (U, P, n) ``values`` over each active RRH's blocks."""
        per_block = values.sum(axis=-1).ravel()
        return np.bincount(self._slots, weights=per_block, minlength=self.num + 1)[:self.num]

    def coupling(self, mu: np.ndarray):
        """(d, s / delta, R, kappa) of every user at multipliers mu (by active
        slot), which ``solve`` and ``power_jacobian`` read.

        R is the one place where a user's blocks meet: R_p sums s / delta over
        the user's other blocks, the rank-one coupling of its own term."""
        self._mu[:-1] = mu
        d = self.lam + self._mu[self.starts][..., None]
        s = (self.size2 / d).sum(axis=-1)
        delta = np.maximum(1.0 - self.w8 * s, 1e-12)
        ratio = s / delta
        others = (ratio[:, None, :] * self.others).sum(axis=-1)
        return d, ratio, others, 1.0 / (1.0 + self.w8 * delta * others)

    def solve(self, coupled) -> np.ndarray:
        """The rotated beams z (U, P, n) at the multipliers of ``coupled``."""
        d, _, _, kappa = coupled
        return (self.lin * kappa)[..., None] * (self.gamma / d)

    def power_jacobian(self, coupled) -> np.ndarray:
        """d(powers)/d(mu) by active slot at the multipliers of ``coupled``:
        the dual's Hessian, negative semidefinite. User u adds
        -2 Re z_p^H [M_u^{-1}]_pq z_q at its blocks' slots, where M_u^{-1} is
        blockdiag of the blocks' Sherman-Morrison inverses less one rank-one
        term, so every entry is
        a product of per-block scalars: with t = q^H q, v = q^H D^{-1} q and
        kappa, delta, R as in ``coupling``, the diagonal term is
        -2 |lin|^2 kappa^2 (v + w8^2 kappa R t^2) and the term of blocks
        p != q is 2 w8 |lin|^2 kappa_p kappa_q t_p t_q phi_pq, with
        phi_pq = 1 / (delta_p delta_q (1 + w8 sum s / delta))
        = kappa_p kappa_q (1 + w8 sum s / delta)."""
        d, ratio, others, kappa = coupled
        w8, size = self.w8, np.abs(self.lin) ** 2
        weighted = self.size2 / (d * d)
        t, v = weighted.sum(axis=-1), (weighted / d).sum(axis=-1)
        scaled = kappa * t
        total = 1.0 + w8 * ratio.sum(axis=-1, keepdims=True)
        phi = kappa[:, :, None] * kappa[:, None, :] * total[..., None]
        terms = (2.0 * w8 * size)[..., None] * scaled[:, :, None] * scaled[:, None, :] * phi
        width = terms.shape[1]
        own = -2.0 * size * kappa**2 * (v + w8 * w8 * kappa * others * t**2)
        terms[:, np.arange(width), np.arange(width)] = own
        num = self.num
        jac = np.bincount(self._pairs, weights=terms.ravel(), minlength=(num + 1) ** 2)
        return jac.reshape(num + 1, num + 1)[:num, :num]

    def rotate_back(self, z: np.ndarray) -> np.ndarray:
        """The (U, W) beam stack of rotated beams z."""
        return (self.vecs @ z[..., None])[..., 0].reshape(self.stack_shape)


def _solve_rrh_side(problem: QcqpProblem, feas_tol: float, mu0=None):
    """Dual decomposition over the per-RRH power constraints.

    For fixed multipliers mu the Lagrangian separates per RUE with minimizer
    (M_u + diag(mu over blocks))^{-1} lin_u g_u, which ``_Eigenbasis`` gives
    in closed form from one eigendecomposition per active RRH. A power
    behaves like sum |c|^2 / (lam + mu)^2, so p - cap is far from linear in
    mu away from the cap while p^{-1/2} is nearly linear (exactly so for one
    term). So every multiplier update, here as on the MBS side, solves
    p^{-1/2} = cap^{-1/2}, above the cap or below it, by Newton's method on
    the ``_residual`` r = 2 p (sqrt(p / cap) - 1) (p - cap to first order at
    the cap, and where p = 0), in one of two ways:

    * projected Newton steps — overlapping serving clusters couple the
      multipliers strongly, so projected Newton (Bertsekas 1982) moves them
      together. The dual's gradient is powers - cap and its Hessian, the
      power-balance Jacobian, is closed-form (``_Eigenbasis.power_jacobian``).
      A coordinate in the eps-active set at mu = 0 takes a scaled step on
      r, the rest the Newton step on their block of the Hessian.
      eps is per coordinate, |r_k| / h_k for residual r and Hessian diagonal
      magnitude h, so a multiplier counts as at its bound only when its own
      scaled step reaches zero; a settled multiplier stays in the Newton
      block, whose step accounts for its coupling to the others. A step is
      backtracked along the projection arc and accepted when the dual value
      rises by Armijo's rule (ARMIJO_SIGMA) and no cap is exceeded by more
      than before; both tests read the gradient. README gives the rule's
      measured counters on the benchmark panels.
    * per-RRH steps — each RRH takes the Newton step on its own multiplier
      alone, mu_k = max(0, mu_k + r_k / h_kk) with h_kk the Hessian's
      diagonal magnitude, exact when RRH k's power is one secular term and
      nearly exact otherwise. A cold solve (no mu0) opens with this step
      for every RRH at once from mu = 0, where powers can be 1e8 times
      their caps; an RRH whose cap holds there stays at 0. After a rejected
      Newton step, a coordinate sweep takes it for the active RRHs in
      order, Gauss-Seidel, each at the iterate the previous one left,
      skipping an RRH at mu = 0 whose cap holds.

    The iterate is a value, an ``_Iterate`` (mu, coupling, rotated beams,
    per-RRH powers) that ``_Eigenbasis.at`` builds; the start, the cold
    start, each swept RRH and an accepted Newton trial each make a new one.
    After the cold start, or from the warm start mu0 ((K,) by RRH id; RTD
    passes the previous QCQP's multipliers), the solve goes on with
    projected Newton steps. Padding entries point to an extra slot
    len(active) whose multiplier is always 0 and which carries no
    estimate, so padded beam entries stay 0. Active caps are positive
    (``stack_layout``). One test stops the solve: with every cap met to
    feas_tol, it returns once the gap test holds or the multiplier updates,
    the cold start's included, reach MAX_DUAL_ITERS; with a cap exceeded
    there, it raises ConvergenceError. Returns
    (beam stack, mu by active slot, dual value, primal value, info). The
    beams minimize the Lagrangian at mu, where w^H M w = Re<b, w> - sum_k
    mu_k p_k, so the primal value is read off the dual solution as
    -Re<b, w> - sum_k mu_k p_k, with no product by M. info counts the
    multiplier updates (``dual_iterations``: one per coordinate update,
    every multiplier the cold start moves off 0 and every multiplier an
    accepted Newton step moves) and the ``DUAL_COUNTERS``: the
    ``np.linalg.solve`` calls (``linear_solves``: one per Newton system, the
    only linear solves the RRH side makes), the Newton steps accepted and
    rejected and the coordinate passes (one per RRH a sweep updates). It
    also gives the final worst relative cap excess (``violation``) and
    complementary-slackness residual relative to the dual value's scale
    (``gap``).
    """
    layout = problem.layout
    cap = layout.rrh_budget[layout.active]
    info = dict.fromkeys(("dual_iterations",) + DUAL_COUNTERS, 0)
    basis = _Eigenbasis(problem)

    def worst_excess(powers: np.ndarray) -> float:
        return float(((powers - cap) / cap).max()) if cap.size else 0.0

    def own_steps(it: _Iterate) -> np.ndarray:
        """Every RRH's per-RRH step r_k / h_kk at the iterate."""
        scale = np.maximum(-np.diagonal(basis.power_jacobian(it.coupled)), 1e-300)
        return _residual(it.powers, cap) / scale

    def coordinate_sweep(it: _Iterate) -> _Iterate:
        count = 0
        for a in range(cap.size):
            if it.mu[a] == 0.0 and it.powers[a] <= cap[a]:
                continue
            count += 1
            mu = it.mu.copy()
            mu[a] = max(0.0, mu[a] + own_steps(it)[a])
            it = basis.at(mu)
        info["coordinate_passes"] += count
        info["dual_iterations"] += max(count, 1)
        return it

    def newton_step(it: _Iterate, viol: float) -> _Iterate | None:
        """One projected Newton step on the dual from the iterate, as the
        first bullet above describes: the accepted trial, or None.

        Coordinates at mu = 0 whose cap holds stay put. Of the others, a
        multiplier whose own step r_k / h_k reaches zero while r pushes it
        down takes that step, and the rest the Newton step on their block of
        the Hessian against -r. The step is backtracked along the projection
        arc max(0, mu + alpha d); a trial's powers are summed only once its
        dual change passes Armijo's rule. None means no trial passed or the
        Newton block is not an ascent direction (a singular or, by
        rounding, indefinite Hessian block).
        """
        mu, powers = it.mu, it.powers
        grad = powers - cap
        idx = np.flatnonzero((mu > 0.0) | (grad > 0.0))
        hess = basis.power_jacobian(it.coupled).take(idx, 0).take(idx, 1)
        g, m = grad[idx], mu[idx]
        r = _residual(powers[idx], cap[idx])
        scale = np.maximum(-hess.diagonal(), 1e-300)
        step = r / scale
        at_bound = (g < 0.0) & (m + step <= 0.0)
        free = np.flatnonzero(~at_bound)
        info["linear_solves"] += 1
        try:
            step[free] = np.linalg.solve(hess.take(free, 0).take(free, 1), -r[free])
        except np.linalg.LinAlgError:
            return None
        slope = float(g[free] @ step[free])
        if slope < 0.0:
            return None
        g_bound, m_bound = g[at_bound], m[at_bound]
        alpha = 1.0
        for _ in range(NEWTON_BACKTRACKS):
            trial = mu.copy()
            trial[idx] = moved = np.maximum(0.0, m + alpha * step)
            z = basis.solve(coupled := basis.coupling(trial))
            rise = alpha * slope + float(g_bound @ (moved[at_bound] - m_bound))
            # The dual's change, g(trial) - g(mu) = sum_k dmu_k (Re<w'_k, w_k> - cap_k)
            # for beams w = M(mu)^-1 b, w' = M(trial)^-1 b: exact, and free of the
            # cancellation that differencing two dual values suffers near the optimum.
            change = float((trial - mu) @ (basis.per_rrh(np.real(z.conj() * it.z)) - cap))
            if change >= ARMIJO_SIGMA * rise:
                accepted = basis.at(trial, coupled, z)
                if worst_excess(accepted.powers) <= max(viol, feas_tol):
                    info["dual_iterations"] += idx.size
                    return accepted
            alpha *= 0.5
        return None

    it = basis.at(np.zeros(cap.size) if mu0 is None else mu0[layout.active])
    if mu0 is None:
        # Cold start: every RRH's per-RRH step from mu = 0, all at once.
        mu = np.maximum(0.0, own_steps(it))
        info["dual_iterations"] = int(np.count_nonzero(mu))
        if info["dual_iterations"]:
            it = basis.at(mu)
    while True:
        viol = worst_excess(it.powers)
        spent = info["dual_iterations"] >= MAX_DUAL_ITERS
        if viol <= feas_tol:
            value = -float(it.mu @ cap) - float(np.real(np.vdot(basis.rhs, it.z)))
            gap = float((it.mu * np.abs(cap - it.powers)).sum())
            if spent or gap <= GAP_TOL * max(1.0, abs(value)):
                info.update(violation=viol, gap=gap / max(1.0, abs(value)))
                # -Re<b, w> - sum mu p: the dual value less sum mu (p - cap).
                primal = value + float(it.mu @ (cap - it.powers))
                return basis.rotate_back(it.z), it.mu, value, primal, info
        elif spent:
            raise ConvergenceError(f"RRH dual ascent stalled: violation {viol:.3e} after "
                                   f"{info['dual_iterations']} multiplier updates")
        trial = newton_step(it, viol)
        info["newton_rejected" if trial is None else "newton_accepted"] += 1
        it = coordinate_sweep(it) if trial is None else trial


def _solve_mbs_side(quad, lin, budget: float, feas_tol: float, nu0=None):
    """Single-constraint subproblem on the MBS multiplier nu.

    quad is the (B, B) matrix all BUEs share and lin the (J, B) linear
    terms. With quad = V diag(lam) V^H, BUE j's beam is V (coef_j / (lam +
    nu)) for coef_j = V^H lin_j, so the MBS power is p = sum weight / (lam +
    nu)^2, weight the BUEs' summed |coef|^2. As p^{-1/2} is concave in nu
    (More & Sorensen 1983), the Newton step nu = max(0, nu + r / h), with r
    the ``_residual`` and h = 2 sum weight / (lam + nu)^3, rises from below
    to the root without overshooting it, and from above lands at or below
    it. It starts from nu0 (RTD passes the previous QCQP's nu) or 0, zeroes
    rounding-level directions as ``_Eigenbasis`` does, stops on the RRH
    side's test, and after MAX_DUAL_ITERS steps raises ConvergenceError
    unless the cap holds. Returns (beams (J, B), nu, dual value, primal
    value); as (quad + nu I) w_j = lin_j, the primal value is -Re<lin, w> -
    nu |w|^2.
    """
    beams, nu = np.zeros_like(lin), 0.0
    if budget > 0.0 and len(lin):
        lam, vecs = np.linalg.eigh(quad)
        null = lam <= 1e-13 * max(lam[-1], 0.0)
        lam[null] = 1.0
        coef = vecs.conj().T @ lin.T
        coef[null] = 0.0
        weight = (coef.real**2 + coef.imag**2).sum(axis=1)
        nu = nu0 or 0.0
        for updates in range(MAX_DUAL_ITERS + 1):
            inv = 1.0 / (lam + nu)
            power = weight @ inv**2
            excess = power - budget
            # weight @ inv + nu * budget is the dual value's magnitude.
            gap_ok = nu * abs(excess) <= GAP_TOL * max(1.0, weight @ inv + nu * budget)
            if excess <= feas_tol * budget and (gap_ok or updates == MAX_DUAL_ITERS):
                break
            slope = max(2.0 * float(weight @ inv**3), 1e-300)
            nu = max(0.0, nu + float(_residual(power, budget)) / slope)
        else:
            raise ConvergenceError(f"MBS dual stalled: relative excess {excess / budget:.3e}")
        beams = (vecs @ (coef * inv[:, None])).T
    signal = float(np.real(np.vdot(lin, beams)))
    power = float(np.real(np.vdot(beams, beams)))
    return beams, nu, -signal - nu * budget, -signal - nu * power


def solve_qcqp(
    problem: QcqpProblem,
    feas_tol: float = FEAS_TOL,
    mu0: np.ndarray | None = None,
    nu0: float | None = None,
):
    """Global minimizer of the beamformer-step QCQP.

    Strong duality holds (convex problem, Slater point w = 0), so the RRH-side
    multipliers from dual ascent and the MBS-side multiplier, from Newton
    steps on its p^{-1/2}, certify the solution. feas_tol bounds the
    relative constraint violation; GAP_TOL bounds the complementary-slackness
    residual relative to the objective scale. mu0 ((K,) by RRH id) and nu0
    warm-start the multipliers.

    Returns (beams, info): beams is (RUE stack, (J, B) BUE beams), which
    ``layout.beams(*beams)`` turns into a BeamformerSet. info
    holds the RRH-side solver's counters and final violation and gap, the MBS
    side's final relative cap excess (``mbs_violation``; 0.0 when there is no
    BUE, as the RRH side reports for no live block), the multipliers
    (``rrh_dual`` by RRH id, 0 where no live block is; ``mbs_dual``), the
    dual and primal values, and the primal value's RUE and BUE parts
    (``primal_sides``), each read off its side's dual solution as
    f(w) = -Re<b, w> - sum_k mu_k p_k at the Lagrangian's minimizer w, with
    no product by the QCQP's matrices.
    """
    layout = problem.layout
    w_rue, mu, rrh_value, rue_value, info = _solve_rrh_side(problem, feas_tol, mu0)
    w_bue, nu, mbs_value, bue_value = _solve_mbs_side(
        problem.mbs_quad, problem.mbs_lin, layout.mbs_budget, feas_tol, nu0=nu0
    )
    rrh_dual = np.zeros(layout.rrh_budget.size)
    rrh_dual[layout.active] = mu
    mbs_violation = 0.0
    if len(w_bue):
        mbs_power = float(np.sum(np.abs(w_bue) ** 2))
        mbs_violation = (mbs_power - layout.mbs_budget) / max(layout.mbs_budget, 1e-300)
    sides = (rue_value, bue_value)
    info.update(
        rrh_dual=rrh_dual,
        mbs_dual=nu,
        mbs_violation=mbs_violation,
        dual_value=rrh_value + mbs_value,
        primal_sides=sides,
        primal_value=sides[0] + sides[1],
    )
    return (w_rue, w_bue), info


@dataclass
class RtdState:
    """Trajectory of one alternating design run; ``mse`` is the final (M,)
    array of MSEs by UE id.

    ``counters`` sums the RRH-side dual solver's work over the iterations
    (``dual_updates`` and the ``DUAL_COUNTERS``: ``linear_solves``, the
    Newton systems solved, which are the design's only ``np.linalg.solve``
    calls, ``newton_accepted``, ``newton_rejected`` and
    ``coordinate_passes``, one per RRH a sweep updates) and keeps the last
    solve's final relative cap ``violation``, complementary-slackness
    ``gap`` and MBS-side relative cap excess (``mbs_violation``, 0.0 when
    there is no BUE).
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
    feas_tol: float = FEAS_TOL,
):
    """Alternating robust transmit design.

    Starts from zero beams, equalizers sqrt(NOISE_REF / N0) and unit
    auxiliaries, then cycles beamformer step / equalizer step / auxiliary
    step until the summed squared beam change falls to RHO * N0 / NOISE_REF,
    for at most MAX_RTD_ITERS cycles; neither rule depends on the unit of
    power. The objective
    trace records the surrogate sum_m (exp(u_m - 1) * mse_m - u_m) after each
    full cycle, which equals sum_m log(mse_m) at the refreshed stats; the SE
    trace is the matching sum of per-UE rate lower bounds.

    The loop runs on arrays, one stack layout per run. The paper's
    distributed realization is the QCQP's split into the RRH-side and
    MBS-side subproblems, which ``solve_qcqp`` solves separately; they
    exchange only the equalizers, auxiliaries and beams. Returns
    (the last cycle's BeamformerSet, RtdState).

    The design reads the clusters from ``links.topology`` and never reads the
    ``topology`` argument, which should be that same object. It stays the
    first positional argument because ``bench/tracing.py`` captures
    arguments 0 and 3. feas_tol stays a parameter, defaulting to FEAS_TOL,
    because ``bench/workloads.py`` reads its default through the signature.
    """
    prelog = prelog_factor(training.tau, training.coherence)
    layout = stack_layout(links, budgets)
    w_rue = np.zeros_like(layout.est)
    w_bue = np.zeros((layout.bue.size, links.mbs_antennas), dtype=complex)
    beams = layout.beams(w_rue, w_bue)
    noise = training.noise_power
    f, u = np.full(len(beams.mbs), math.sqrt(NOISE_REF / noise) + 0j), np.ones(len(beams.mbs))
    counters = dict.fromkeys(("dual_updates",) + DUAL_COUNTERS, 0)
    state = RtdState(mse=np.zeros(0), counters=counters)
    mu0, nu0 = None, None
    for it in range(1, MAX_RTD_ITERS + 1):
        problem = assemble_qcqp(links, f, u, layout)
        (rue_new, bue_new), qinfo = solve_qcqp(problem, feas_tol, mu0=mu0, nu0=nu0)
        mu0, nu0 = qinfo["rrh_dual"], qinfo["mbs_dual"]
        counters["dual_updates"] += qinfo["dual_iterations"]
        for key in DUAL_COUNTERS:
            counters[key] += qinfo[key]
        counters.update(
            violation=qinfo["violation"], gap=qinfo["gap"], mbs_violation=qinfo["mbs_violation"]
        )
        # A side keeps its previous beams if the solver's answer lost ground:
        # the solver works to tolerance, and this guards the alternation's
        # descent. Valid per side, since the QCQP separates across the sides.
        rue_value, bue_value = qinfo["primal_sides"]
        if rue_value > _rue_objective(problem, w_rue):
            rue_new = w_rue
        if bue_value > _objective(problem.mbs_quad, problem.mbs_lin, w_bue):
            bue_new = w_bue
        delta = float(np.sum(np.abs(rue_new - w_rue) ** 2) + np.sum(np.abs(bue_new - w_bue) ** 2))
        w_rue, w_bue = rue_new, bue_new
        # Equalizer and auxiliary steps, for every UE at once.
        beams = layout.beams(w_rue, w_bue)
        j_power = interference_plus_noise(links, beams, noise)
        mse, f = mse_and_equalizer(useful_amplitude(links, beams), j_power)
        u = update_u(mse)
        state.mse = mse
        state.objective_trace.append(float(np.sum(np.exp(u - 1.0) * mse - u)))
        state.sum_se_trace.append(-prelog * float(np.sum(np.log2(mse))))
        state.iterations = it
        if delta <= RHO * noise / NOISE_REF:
            state.converged = True
            break
    return beams, state
