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

Each backward step is one product, lambda_{k+1}^T [A | U] = [A^T lambda,
U^T lambda], followed by in-place elementwise work; everything that does
not depend on lambda (sigma'_k and the forcing) is computed for all k
before the loop. Finiteness is checked once after the loop: the largest k
with a non-finite lambda_k is the step at which the recursion blew up, the
same k a per-step check would report.

Every per-step gradient contribution is a rank-one term plus a regularizer,
a_k b_k^T + gamma P (for example lambda_{k+1} h_k^T + gamma1 U). The sum
over k, which the sum and mean aggregations need, is one matrix product
(summed_gradients), and the largest per-step block norm has a closed form
(max_step_norm); only median and min_abs need the per-step contributions
themselves. step_block forms them with the step axis last, P.shape + (K,),
so that the reduction over k runs along contiguous memory;
per_step_gradients presents the same blocks step-first as GradSeq.
"""

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
    """Run the multiplier recursion from k = N down to k = 0, for one model."""
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
    t = np.empty(2 * n)
    t_A, t_U = t[:n], t[n:]
    # explosion is detected after the loop, so silence the warnings
    with np.errstate(over="ignore", invalid="ignore"):
        sp = nonlinearity_derivative(params.sigma, x)
        # every term that does not depend on lambda, for all k at once
        force = sp * (traj.e[:N] @ params.V) + state_loss_grad(w, x, h, sp)
        # rows k = N-1..0 with lam[k+1] beside each; the lam rows are views,
        # so each step reads the row the previous step wrote
        for lam_k, lam_next, sp_k, force_k in zip(
                lam[N - 1::-1], lam[N:0:-1], sp[::-1], force[::-1]):
            np.dot(lam_next, AU, out=t)
            np.multiply(sp_k, t_U, out=lam_k)
            lam_k += t_A
            lam_k += force_k
    # the recursion runs downward in k, so the largest non-finite k is the
    # step at which it first blew up
    bad = np.flatnonzero(~np.isfinite(lam[:N]).all(axis=1))
    if bad.size:
        k = int(bad[-1])
        raise CostateExplosionError(f"non-finite multiplier at k={k}", k=k)
    return CostateSeq(lam=lam)


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
    for a, b, P, g in contributions(params, traj, costates, seq, w).values():
        sq = (a * a).sum(axis=1)
        if b is None:
            cross = a @ P
        else:
            sq *= (b * b).sum(axis=1)
            cross = ((a @ P) * b).sum(axis=1)
        sq += 2.0 * g * cross + g * g * (P * P).sum()
        worst = max(worst, float(np.sqrt(np.maximum(sq, 0.0)).max()))
    return worst
