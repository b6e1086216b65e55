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
        and the product called as ndarray.dot (np.dot adds a Python-level
        dispatch per call; at small n a step costs the calls, not the
        arithmetic).
  scan  a blocked two-level scan: k = 0..N-1 is cut into B blocks of
        L ~ sqrt(N/2) steps (the N - B*L steps above them run as the loop).
        Pass 1 carries every block's transfer matrix Phi and zero-boundary
        response u (lambda_lo = lambda_hi @ Phi + u, row vectors), one
        product with [A | U] per step for all blocks at once; pass 2 steps
        from block boundary to block boundary; pass 3 runs the true
        recursion in all blocks at once from those boundaries. About
        2L + B Python steps, but pass 1 costs O(N n^3) flops. Passes 1 and
        3 keep the block axis last: [Phi; u] of all blocks is one
        (n, n+1, B) array St and each step's product is [A | U]^T @ St, so
        every elementwise call runs along contiguous rows of B values
        rather than strided rows of n. sigma' and f are transposed once to
        that layout, pass 1 hands pass 2 one transposed copy, (B, n+1, n),
        and pass 3 writes lambda over sigma' and copies it back once.

The scan runs when N >= 100 and n <= 16. Measured medians of 21
interleaved runs (5 at n = 256), one BLAS thread on a 2-vCPU VM
(random_instance(3, scale=0.3), m = r = 1):

    N, n        loop      scan      rule
    20000, 4    74.6 ms   5.65 ms   scan
    20000, 8    80.0 ms   12.3 ms   scan
    20000, 12   75.5 ms   18.9 ms   scan
    20000, 16   74.8 ms   35.5 ms   scan
    20000, 20   78.7 ms   54.2 ms   loop
    20000, 24   87.1 ms   87.2 ms   loop
    1000, 8     4.33 ms   1.22 ms   scan
    1000, 16    4.59 ms   2.44 ms   scan
    100, 8      0.456 ms  0.304 ms  scan
    70, 8       0.325 ms  0.261 ms  loop
    50, 8       0.254 ms  0.221 ms  loop
    30, 8       0.173 ms  0.186 ms  loop
    15, 8       0.112 ms  0.150 ms  loop
    200, 256    6.85 ms   374 ms    loop

The rule was fixed before passes 1 and 3 kept the block axis last; with
that layout the scan is also the faster regime at (20000, 20), (70, 8)
and (50, 8), where the rule still runs the loop.

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
themselves. reduce_step_blocks forms them with the step axis last, so
that the reduction over k runs along contiguous memory, one row of a
parameter at a time in one buffer that a row block fills at most
(n (N+1) values, 1.3 MB at N = 20000, n = 8, where the whole dU block
would take 10 MB), from factors transposed once each; per_step_gradients
presents copies of the same blocks step-first, as a GradSet.
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
class GradSet:
    """One gradient array per parameter group: each of a parameter's shape,
    or, from per_step_gradients, every step's contribution stacked along a
    leading step axis, k = 0..N-1 for the state-equation groups (N, ...) and
    k = 0..N for the output-equation ones (N+1, ...)."""

    dU: np.ndarray   # (n, n)
    dW: np.ndarray   # (n, m)
    db: np.ndarray   # (n,)
    dV: np.ndarray   # (r, n)
    dD: np.ndarray   # (r, m)
    dc: np.ndarray   # (r,)


# grad field of GradSet -> parameter attribute of BrnnParams
PARAM_GROUPS = (("dU", "U"), ("dW", "W"), ("db", "b"),
                ("dV", "V"), ("dD", "Dft"), ("dc", "c"))


def backward_costates(params: BrnnParams, traj: Trajectory,
                      w: LossWeights) -> CostateSeq:
    """Run the multiplier recursion from k = N down to k = 0, for one model.

    The recursion is solved by the blocked scan when _scan_pays(N, n) says
    it is faster, else by the one-product-per-step loop; a blocked result
    with any non-finite value is discarded and the loop is run instead, on
    its forcing computed again (the scan lets go of its own).
    """
    if params.batch:
        raise ConfigurationError("backward_costates takes one model, not stacked params")
    N, n = traj.N, params.n
    lam = np.empty((N + 1, n))
    # lam[k+1] @ [A | U] is [A^T lam, U^T lam]: one product per step
    AU = np.concatenate([params.A, params.U], axis=1)
    # explosion is detected after the recursion, so silence the warnings
    with np.errstate(over="ignore", invalid="ignore"):
        blocked = _scan_pays(N, n)
        if blocked:
            _blocked_scan(lam, AU, params, traj, w)
        if not blocked or not np.isfinite(lam[:N]).all():
            lam[N], sp, force = _forcing(params, traj, w)
            _recur(lam[:N], lam[N], AU, sp, force)
    if not np.isfinite(lam).all():
        # the recursion runs downward in k, so the largest non-finite k is
        # the step at which it first blew up (N for a non-finite lam[N])
        k = int(np.flatnonzero(~np.isfinite(lam).all(axis=1))[-1])
        raise CostateExplosionError(f"non-finite multiplier at k={k}", k=k)
    return CostateSeq(lam=lam)


def _forcing(params: BrnnParams, traj: Trajectory, w: LossWeights):
    """The boundary condition lambda_N = sigma'_N (.) (V^T e_N), and sigma'_k
    and the forcing f_k, k = 0..N-1, as (N, n) arrays: every term of the
    recursion that does not depend on lambda_k, k < N, for all k at once.
    sigma' is evaluated in one call over x_0..x_N."""
    N = traj.N
    x, h = traj.x[:N], traj.h[:N]
    sp_all = nonlinearity_derivative(params.sigma, traj.x)
    sp = sp_all[:N]
    lam_N = sp_all[N] * (params.V.T @ traj.e[N])
    return lam_N, sp, sp * (traj.e[:N] @ params.V) + state_loss_grad(w, x, h, sp)


def _scan_pays(N: int, n: int) -> bool:
    """Whether the blocked scan beats the per-step loop at these sizes (the
    measured table in the module docstring)."""
    return N >= 100 and n <= 16


def _recur(lam, top, AU, sp, force) -> None:
    """Fill lam[i] = lam[i+1] @ (A + U diag sp[i]) + force[i] for
    i = K-1..0 (K = len(lam)), with top as lam[K]."""
    n = AU.shape[0]
    t = np.empty(2 * n)
    t_A, t_U = t[:n], t[n:]
    dot = np.ndarray.dot
    lam_next = top
    # each step reads the row the previous step wrote
    for lam_k, sp_k, force_k in zip(lam[::-1], sp[::-1], force[::-1]):
        dot(lam_next, AU, t)
        np.multiply(sp_k, t_U, lam_k)
        lam_k += t_A
        lam_k += force_k
        lam_next = lam_k


def _blocked_scan(lam, AU, params, traj, w) -> None:
    """Fill lam by a two-level scan over B blocks of L steps, from lam[N].

    The N - B*L steps above the last block run per step first. Pass 1
    carries, for all blocks at once, the transfer matrix Phi and the
    zero-boundary response u of each block (lam_lo = lam_hi @ Phi + u),
    transposed with the block axis last: St[:, i, j] is row i of block j's
    [Phi; u], and one product [A | U]^T @ St advances every block by a step.
    Pass 2 steps from block to block to get every block's lam_hi; pass 3
    runs the recursion itself in all blocks at once from those boundaries,
    in pass 1's block-last layout.
    """
    lam[-1], sp, force = _forcing(params, traj, w)
    N, n = sp.shape
    L = round(math.sqrt(N / 2))     # minimises the 2L + N/L Python steps
    B = N // L
    top = B * L
    _recur(lam[top:N], lam[N], AU, sp[top:], force[top:])
    # sigma' and f in the block-last layout, (L, n, 1, B) and (L, n, B):
    # [i, :, ..., j] is step k = j*L + i, so every elementwise call runs along
    # rows of B values, not n. Each step-first array is let go once copied,
    # so the passes hold no more than the loop does.
    spT = np.ascontiguousarray(sp[:top].reshape(B, L, n).transpose(1, 2, 0))[:, :, None]
    del sp
    forceT = np.ascontiguousarray(force[:top].reshape(B, L, n).transpose(1, 2, 0))
    del force
    dot = np.ndarray.dot

    # pass 1: per block, [Phi; u] advanced from lam_hi down to lam_lo
    St = np.zeros((n, n + 1, B))
    St[:, :n] = np.eye(n)[..., None]
    St2 = St.reshape(n, (n + 1) * B)
    TT = np.empty((2 * n, n + 1, B))
    TT2 = TT.reshape(2 * n, (n + 1) * B)
    AUT = AU.T
    TT_A, TT_U, u = TT[:n], TT[n:], St[:, n]
    for sp_i, force_i in zip(spT[::-1], forceT[::-1]):
        dot(AUT, St2, TT2)
        np.multiply(sp_i, TT_U, St)
        St += TT_A
        u += force_i
    # (B, n+1, n): block j's [Phi; u] as rows, for pass 2
    S3 = np.ascontiguousarray(St.transpose(2, 1, 0))

    # pass 2: lam_lo of block j is lam_hi of block j - 1
    for j in range(B - 1, 0, -1):
        dot(lam[(j + 1) * L], S3[j, :n], lam[j * L])
        lam[j * L] += S3[j, n]

    # pass 3: every block from its lam_hi, lam[L], lam[2L], ..., lam[top];
    # each step's lambda overwrites the sigma' it is computed from
    t = np.empty((2 * n, B))
    t_A, t_U = t[:n], t[n:]
    lamT = spT[:, :, 0]
    lam_next = np.ascontiguousarray(lam[L:top + 1:L].T)
    for lam_k, force_k in zip(lamT[::-1], forceT[::-1]):
        dot(AUT, lam_next, t)
        np.multiply(lam_k, t_U, lam_k)
        lam_k += t_A
        lam_k += force_k
        lam_next = lam_k
    lam[:top].reshape(B, L, n)[...] = lamT.transpose(2, 0, 1)


def contributions(params: BrnnParams, traj: Trajectory, costates: CostateSeq,
                   seq: Sequence, w: LossWeights) -> dict:
    """Per group, the factors (a, b, P, g) of the step-k contribution
    a_k b_k^T + g P; b is None for the bias groups, whose contribution is
    the vector a_k + g P. a has one row per step of the group, K = N or
    N + 1; b is h or s in full (N + 1 rows), of which the first K pair
    with a's, so that the groups share each factor array."""
    N = traj.N
    if costates.N != N or seq.N != N:
        raise ConfigurationError("costates/sequence length mismatch")
    lam = costates.lam[1:]       # lambda_1..lambda_N
    h, e, s = traj.h, traj.e, seq.s
    return {
        "dU": (lam, h, params.U, w.gamma1),
        "dW": (lam, s, params.W, w.gamma1),
        "db": (lam, None, params.b, w.gamma1),
        "dV": (e, h, params.V, w.gamma2),
        "dD": (e, s, params.Dft, w.gamma2),
        "dc": (e, None, params.c, w.gamma2),
    }


def per_step_gradients(params: BrnnParams, traj: Trajectory,
                       costates: CostateSeq, seq: Sequence,
                       w: LossWeights) -> GradSet:
    """Unscaled gradient contributions at each step:

        dU_k = gamma1 U + lambda_{k+1} h_k^T          k = 0..N-1
        dW_k = gamma1 W + lambda_{k+1} s_k^T
        db_k = gamma1 b + lambda_{k+1}
        dV_k = gamma2 V + e_k h_k^T                   k = 0..N
        dD_k = gamma2 Dft + e_k s_k^T
        dc_k = gamma2 c + e_k

    Each array is a step-first view of the copied row blocks of
    reduce_step_blocks.
    """
    g = reduce_step_blocks(params, traj, costates, seq, w, np.copy)
    return GradSet(**{name: np.moveaxis(a, -1, 0) for name, a in vars(g).items()})


def reduce_step_blocks(params: BrnnParams, traj: Trajectory, costates: CostateSeq,
                       seq: Sequence, w: LossWeights, reduce) -> GradSet:
    """Per group, reduce(block) for each row i of P, stacked in row order.

    block holds row i of every step's contribution a_k b_k^T + g P
    (a_k + g P without b), from the factors `contributions` returns, as a
    C-contiguous array of shape P[i].shape + (K,): the step axis is last.
    Every block is built in one buffer, sized for the largest, and
    overwritten by the next, so reduce must return an array of its own.
    """
    groups = contributions(params, traj, costates, seq, w)
    # each distinct factor array (lam, h, e, s) transposed once, steps last
    step_last = {}
    for a, b, _, _ in groups.values():
        for f in (a, b):
            if f is not None and id(f) not in step_last:
                step_last[id(f)] = np.ascontiguousarray(f.T)
    # a row at a time, not a whole (n, n, N) block: a row block of at most
    # n (N+1) values is built, reduced and built over while still in cache
    buf = np.empty(max(P[0].size * a.shape[0] for a, _, P, _ in groups.values()))
    out = {}
    for name, (a, b, P, g) in groups.items():
        K = a.shape[0]
        aT = step_last[id(a)]
        bT = None if b is None else step_last[id(b)][:, :K]
        gP = g * P
        rows = []
        for i in range(P.shape[0]):
            block = buf[:P[i].size * K].reshape(P[i].shape + (K,))
            if bT is None:
                np.add(aT[i], gP[i], out=block)
            else:
                np.multiply(aT[i], bT, out=block)
                block += gP[i][:, None]
            rows.append(reduce(block))
        out[name] = np.array(rows)
    return GradSet(**out)


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
        rank_one = a.sum(axis=0) if b is None else a.T @ b[:len(a)]
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
            b = b[:len(a)]
            sq *= np.einsum("ij,ij->i", b, b)
            cross = np.einsum("ij,ij->i", a @ P, b)
        sq += 2.0 * g * cross + g * g * (P * P).sum()
        worst = max(worst, float(np.sqrt(np.maximum(sq, 0.0)).max()))
    return worst
