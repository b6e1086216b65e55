"""Backward multiplier recursion and the parameter gradients built from it.

The Lagrange multipliers lambda_k carry the sensitivity of the total cost
to the state x_k and propagate backward in time:

    lambda_N = sigma'_N (.) (V^T e_N)
    lambda_k = (A + U diag(sigma'_k))^T lambda_{k+1}
             + sigma'_k (.) (V^T e_k) + state_loss_grad(...)     N-1 >= k >= 1

lambda_0 is evaluated by the same formula for diagnostics but never enters
a parameter update. Growth or decay of ||lambda_k|| is governed by powers
of (A + U diag sigma'_k): this recursion is the exact quantification of
vanishing/exploding gradients, and a non-finite lambda raises
CostateExplosionError naming the step.

Everything that does not depend on lambda (sigma'_k and the forcing f_k)
is computed for all k first. What is left is linear and time-varying,
lambda_k = T_k lambda_{k+1} + f_k, and it is solved in one of two regimes,
chosen from (N, n) alone:

  loop  one product per step, lambda_{k+1}^T [A | U] = [A^T lambda,
        U^T lambda], followed by in-place elementwise work: N Python steps
        of four NumPy calls each, every output array passed positionally
        (at small n a step costs the calls, not the arithmetic).
  scan  a blocked two-level scan: k = 0..N-1 is cut into B blocks of
        L ~ sqrt(N/2) steps (the N - B*L steps above them run as the loop).
        Pass 1 carries every block's transfer matrix Phi and zero-boundary
        response u (lambda_lo = lambda_hi @ Phi + u, row vectors), stacked
        (B, n+1, n), one product with [A | U] per step for all blocks at
        once; pass 2 steps from block boundary to block boundary; pass 3
        runs the true recursion in all blocks at once from those
        boundaries. About 2L + B Python steps, but pass 1 costs O(N n^3)
        flops.

The scan runs when N >= 100 and n <= 16. Measured medians of 21
interleaved runs (5 at n = 256), one BLAS thread on a 2-vCPU VM
(random_instance(3, scale=0.3), m = r = 1):

    N, n        loop      scan      rule
    20000, 4    98.7 ms   14.2 ms   scan
    20000, 8    99.3 ms   26.6 ms   scan
    20000, 12   85.1 ms   35.2 ms   scan
    20000, 16   101 ms    64.0 ms   scan
    20000, 24   118 ms    173 ms    loop
    1000, 8     4.71 ms   1.92 ms   scan
    1000, 16    4.80 ms   2.72 ms   scan
    100, 8      0.511 ms  0.378 ms  scan
    50, 8       0.197 ms  0.204 ms  loop
    15, 8       0.108 ms  0.163 ms  loop
    200, 256    6.98 ms   574 ms    loop

The scan agrees with the loop to rounding (last bits); the loop's results
are the reference. Finiteness is checked once, after the recursion: the
largest k with a non-finite lambda_k is the step at which the recursion
blew up, the same k a per-step check would report. A scan result with any
non-finite value is discarded and the loop is run instead, so an explosion
names the same k in both regimes, and block products that overflow while
the costates themselves stay finite cannot make up a failure.

Every per-step gradient contribution is a rank-one term plus a regularizer,
a_k b_k^T + gamma P (for example lambda_{k+1} h_k^T + gamma1 U). The sum
over k, which the sum and mean aggregations need, is one matrix product
(summed_gradients), and the largest per-step block norm has a closed form
(max_step_norm); only median and min_abs need the per-step contributions
themselves. step_block forms them with the step axis last, P.shape + (K,),
so that the reduction over k runs along contiguous memory;
per_step_gradients presents the same blocks step-first as GradSeq.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, CostateExplosionError
from .loss import LossWeights, state_loss_grad
from .model import BrnnParams, Sequence, Trajectory, nonlinearity_derivative


@dataclass
class CostateSeq:
    """Multipliers lambda_k, k = 0..N. Entries 1..N feed parameter updates;
    lam[0] is diagnostic only."""

    lam: np.ndarray        # (N+1, n)

    @property
    def N(self) -> int:
        return self.lam.shape[0] - 1


@dataclass
class GradSeq:
    """Per-step gradient contributions before aggregation.

    State-equation entries run k = 0..N-1, output-equation entries k = 0..N.
    """

    dU: np.ndarray   # (N, n, n)
    dW: np.ndarray   # (N, n, m)
    db: np.ndarray   # (N, n)
    dV: np.ndarray   # (N+1, r, n)
    dD: np.ndarray   # (N+1, r, m)
    dc: np.ndarray   # (N+1, r)


@dataclass
class GradSet:
    """One epoch-level gradient per parameter group."""

    dU: np.ndarray
    dW: np.ndarray
    db: np.ndarray
    dV: np.ndarray
    dD: np.ndarray
    dc: np.ndarray


def final_costate(params: BrnnParams, x_N, e_N) -> np.ndarray:
    """Boundary condition lambda_N = sigma'(x_N) (.) (V^T e_N)."""
    sp = nonlinearity_derivative(params.sigma, x_N)
    return sp * (params.V.T @ np.asarray(e_N, dtype=float))


def backward_costates(params: BrnnParams, traj: Trajectory,
                      w: LossWeights) -> CostateSeq:
    """Run the multiplier recursion from k = N down to k = 0, for one model.

    The recursion is solved by the blocked scan when _scan_pays(N, n) says
    it is faster, else by the one-product-per-step loop; a blocked result
    with any non-finite value is discarded and the loop is run instead.
    """
    if params.batch:
        raise ConfigurationError("backward_costates takes one model, not stacked params")
    N, n = traj.N, params.n
    lam = np.empty((N + 1, n))
    lam[N] = final_costate(params, traj.x[N], traj.e[N])
    if not np.isfinite(lam[N]).all():
        raise CostateExplosionError(f"non-finite multiplier at k={N}", k=N)

    x, h = traj.x[:N], traj.h[:N]
    # lam[k+1] @ [A | U] is [A^T lam, U^T lam]: one product per step
    AU = np.concatenate([params.A, params.U], axis=1)
    # explosion is detected after the recursion, so silence the warnings
    with np.errstate(over="ignore", invalid="ignore"):
        sp = nonlinearity_derivative(params.sigma, x)
        # every term that does not depend on lambda, for all k at once
        force = sp * (traj.e[:N] @ params.V) + state_loss_grad(w, x, h, sp)
        blocked = _scan_pays(N, n)
        if blocked:
            _blocked_scan(lam, AU, sp, force)
        if not blocked or not np.isfinite(lam[:N]).all():
            _recur(lam[:N], lam[N], AU, sp, force)
    # the recursion runs downward in k, so the largest non-finite k is the
    # step at which it first blew up
    bad = np.flatnonzero(~np.isfinite(lam[:N]).all(axis=1))
    if bad.size:
        k = int(bad[-1])
        raise CostateExplosionError(f"non-finite multiplier at k={k}", k=k)
    return CostateSeq(lam=lam)


def _scan_pays(N: int, n: int) -> bool:
    """Whether the blocked scan beats the per-step loop at these sizes (the
    measured table in the module docstring)."""
    return N >= 100 and n <= 16


def _recur(lam, top, AU, sp, force) -> None:
    """Fill lam[i] = lam[i+1] @ (A + U diag sp[i]) + force[i] for
    i = K-1..0 (K = len(lam)), with top as lam[K]. The leading axis is the
    step; any axes between it and the last are independent recursions."""
    n = AU.shape[0]
    t = np.empty(top.shape[:-1] + (2 * n,))
    t_A, t_U = t[..., :n], t[..., n:]
    lam_next = top
    # each step reads the row the previous step wrote
    for lam_k, sp_k, force_k in zip(lam[::-1], sp[::-1], force[::-1]):
        np.dot(lam_next, AU, t)
        np.multiply(sp_k, t_U, lam_k)
        lam_k += t_A
        lam_k += force_k
        lam_next = lam_k


def _blocked_scan(lam, AU, sp, force) -> None:
    """Fill lam[:N] from lam[N] by a two-level scan over B blocks of L steps.

    The N - B*L steps above the last block run per step first. Pass 1
    carries, for all blocks at once, the transfer matrix Phi and the
    zero-boundary response u of each block (lam_lo = lam_hi @ Phi + u) as
    the rows of one (B*(n+1), n) array, one product with [A | U] per step.
    Pass 2 steps from block to block to get every block's lam_hi; pass 3
    runs the recursion itself in all blocks at once from those boundaries.
    """
    N, n = sp.shape
    L = round(math.sqrt(N / 2))     # minimises the 2L + N/L Python steps
    B = N // L
    top = B * L
    _recur(lam[top:N], lam[N], AU, sp[top:], force[top:])
    # (L, B, n) views: row i of block j is step k = j*L + i
    sp3, force3, lam3 = (a[:top].reshape(B, L, n).swapaxes(0, 1)
                         for a in (sp, force, lam))

    # pass 1: per block, rows [Phi; u], advanced from lam_hi down to lam_lo
    S = np.zeros((B * (n + 1), n))
    S3 = S.reshape(B, n + 1, n)
    S3[:, :n] = np.eye(n)
    T = np.empty((B * (n + 1), 2 * n))
    T3 = T.reshape(B, n + 1, 2 * n)
    T_A, T_U, u = T3[..., :n], T3[..., n:], S3[:, n]
    for sp_i, force_i in zip(sp3[::-1, :, None], force3[::-1]):
        np.dot(S, AU, T)
        np.multiply(sp_i, T_U, S3)
        S3 += T_A
        u += force_i

    # pass 2: lam_lo of block j is lam_hi of block j - 1
    for j in range(B - 1, 0, -1):
        np.dot(lam[(j + 1) * L], S3[j, :n], lam[j * L])
        lam[j * L] += S3[j, n]

    # pass 3: every block from its lam_hi, lam[L], lam[2L], ..., lam[top]
    _recur(lam3, lam[L:top + 1:L], AU, sp3, force3)


def contributions(params: BrnnParams, traj: Trajectory, costates: CostateSeq,
                   seq: Sequence, w: LossWeights) -> dict:
    """Per group, the factors (a, b, P, g) of the step-k contribution
    a_k b_k^T + g P; b is None for the bias groups, whose contribution is
    the vector a_k + g P."""
    N = traj.N
    if costates.N != N or seq.N != N:
        raise ConfigurationError("costates/sequence length mismatch")
    lam = costates.lam[1:]       # lambda_1..lambda_N
    h, e, s = traj.h, traj.e, seq.s
    return {
        "dU": (lam, h[:N], params.U, w.gamma1),
        "dW": (lam, s[:N], params.W, w.gamma1),
        "db": (lam, None, params.b, w.gamma1),
        "dV": (e, h, params.V, w.gamma2),
        "dD": (e, s, params.Dft, w.gamma2),
        "dc": (e, None, params.c, w.gamma2),
    }


def per_step_gradients(params: BrnnParams, traj: Trajectory,
                       costates: CostateSeq, seq: Sequence,
                       w: LossWeights) -> GradSeq:
    """Unscaled gradient contributions at each step:

        dU_k = gamma1 U + lambda_{k+1} h_k^T          k = 0..N-1
        dW_k = gamma1 W + lambda_{k+1} s_k^T
        db_k = gamma1 b + lambda_{k+1}
        dV_k = gamma2 V + e_k h_k^T                   k = 0..N
        dD_k = gamma2 Dft + e_k s_k^T
        dc_k = gamma2 c + e_k

    Each array is a step-first view of the step-last block from step_block.
    """
    return GradSeq(**{name: np.moveaxis(step_block(*f), -1, 0) for name, f
                      in contributions(params, traj, costates, seq, w).items()})


def step_block(a, b, P, g) -> np.ndarray:
    """Every step's contribution a_k b_k^T + g P (a_k + g P without b), from
    the factors of one group as `contributions` returns them, as a new
    C-contiguous array of shape P.shape + (K,): the step axis is last."""
    aT = np.ascontiguousarray(a.T)
    if b is None:
        return aT + (g * P)[:, None]
    block = aT[:, None, :] * np.ascontiguousarray(b.T)[None, :, :]
    block += (g * P)[..., None]
    return block


def summed_gradients(params: BrnnParams, traj: Trajectory,
                     costates: CostateSeq, seq: Sequence,
                     w: LossWeights) -> GradSet:
    """Sum over k of the per-step contributions, without forming them:

        dU = Lambda^T H + N gamma1 U      (Lambda rows lambda_1..lambda_N,
        dV = E^T H + (N+1) gamma2 V        H rows h_0..h_{N-1} resp. h_0..h_N)

    and likewise for W, b, Dft, c. This is the exact gradient of the cost.
    """
    out = {}
    for name, (a, b, P, g) in contributions(params, traj, costates, seq, w).items():
        rank_one = a.sum(axis=0) if b is None else a.T @ b
        out[name] = rank_one + a.shape[0] * g * P
    return GradSet(**out)


def max_step_norm(params: BrnnParams, traj: Trajectory, costates: CostateSeq,
                  seq: Sequence, w: LossWeights) -> float:
    """Largest Frobenius norm of any per-step contribution of any group, from

        ||a b^T + g P||_F^2 = ||a||^2 ||b||^2 + 2 g a^T P b + g^2 ||P||_F^2

    per k, clamped at 0 against cancellation before the square root.
    """
    worst = 0.0
    # einsum's row dots beat a multiply and a sum over a short trailing axis
    for a, b, P, g in contributions(params, traj, costates, seq, w).values():
        sq = np.einsum("ij,ij->i", a, a)
        if b is None:
            cross = a @ P
        else:
            sq *= np.einsum("ij,ij->i", b, b)
            cross = np.einsum("ij,ij->i", a @ P, b)
        sq += 2.0 * g * cross + g * g * (P * P).sum()
        worst = max(worst, float(np.sqrt(np.maximum(sq, 0.0)).max()))
    return worst
