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
is computed for all k first; sigma'_k is read from h_k (the prime_of_h
column of model.SIGMAS), not evaluated again from x_k. What is left is
linear and time-varying, lambda_k = T_k lambda_{k+1} + f_k, and it is
solved in one of two regimes, chosen from (N, n) alone (the loop's product
also reads A's non-zero pattern):

  loop  one product per step, lambda_{k+1}^T [A | U] = [A^T lambda,
        U^T lambda], followed by in-place elementwise work: N Python steps
        of four NumPy calls each, every output array passed positionally
        and the product called as ndarray.dot (np.dot adds a Python-level
        dispatch per call; at small n a step costs the calls, not the
        arithmetic). When model.diagonal_A says so (a diagonal A and
        n >= model.DIAGONAL_MIN_N), the product leaves A out:
        lambda_k = sp_k (.) (lambda_{k+1}^T U) + a (.) lambda_{k+1} + f_k,
        a = diag A, five calls per step over a product half the size.
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

The scan runs when n <= 12 and N >= 50, n <= 16 and N >= 150, or n <= 20
and N >= 1000 (_SCAN_BANDS). Measured medians of 21 interleaved runs, one
BLAS thread on a 2-vCPU VM (random_instance(3, scale=0.3), m = r = 1),
with the number of runs in which the scan was the faster:

    N, n        loop      scan      scan faster  rule
    20000, 8    42.9 ms   8.16 ms   21/21        scan
    20000, 16   43.3 ms   27.0 ms   21/21        scan
    20000, 20   47.0 ms   44.8 ms   20/21        scan
    20000, 24   48.8 ms   75.1 ms    0/21        loop
    1000, 16    2.27 ms   1.40 ms   21/21        scan
    1000, 20    2.22 ms   1.91 ms   20/21        scan
    1000, 24    2.19 ms   3.27 ms    0/21        loop
    500, 20     1.19 ms   1.14 ms   13/21        loop
    300, 20     0.668 ms  0.712 ms   2/21        loop
    150, 16     0.397 ms  0.343 ms  18/21        scan
    100, 16     0.246 ms  0.245 ms  10/21        loop
    70, 16      0.169 ms  0.182 ms   2/21        loop
    100, 8      0.242 ms  0.147 ms  21/21        scan
    70, 12      0.176 ms  0.145 ms  21/21        scan
    50, 12      0.117 ms  0.113 ms  16/21        scan
    40, 12      0.118 ms  0.116 ms  12/21        loop
    50, 8       0.119 ms  0.097 ms  21/21        scan
    40, 8       0.096 ms  0.086 ms  21/21        loop
    30, 8       0.077 ms  0.082 ms   3/21        loop
    50, 4       0.123 ms  0.089 ms  20/21        scan
    30, 4       0.081 ms  0.081 ms  10/21        loop
    20, 1       0.082 ms  0.070 ms  20/21        loop
    10, 1       0.048 ms  0.054 ms   0/21        loop

Below N = 50 the scan is also faster at some small n, such as (40, 8) and
(20, 1), by 10-15%; the bands leave those sizes, where AC-4 and the
gradient check's instances lie, to the loop. At N = 200, n = 256 the scan
would take about 374 ms against the dense loop's 6-7 ms.

The loop's two products, dense and diagonal, are timed in brnn.model's
table (its co-state loop columns), which sets DIAGONAL_MIN_N for both.

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
(step_norms); only median and min_abs need the per-step contributions
themselves. reduce_step_blocks forms them with the step axis last, so
that the reduction over k runs along contiguous memory, one row of a
parameter at a time in one buffer that a row block fills at most
(n (N+1) values, 1.3 MB at N = 20000, n = 8, where the whole dU block
would take 10 MB), from factors transposed once each. Training reduces
these blocks through trainer.aggregate and never forms a step-first array;
per_step_gradients presents copies of the same blocks step-first, as a
GradSet, and is kept as the reference that the tests reduce over k to
check trainer.aggregate against.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, CostateExplosionError
from .loss import LossWeights, state_loss_grad
from .model import BrnnParams, Sequence, Trajectory, diagonal_A, nonlinearity


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
    """One gradient array per parameter group, each of its parameter's
    shape. per_step_gradients alone, the step-first reference, stacks every
    step's contribution along a leading step axis instead: k = 0..N-1 for
    the state-equation groups (N, ...), k = 0..N for the output-equation
    ones (N+1, ...)."""

    dU: np.ndarray   # (n, n)
    dW: np.ndarray   # (n, m)
    db: np.ndarray   # (n,)
    dV: np.ndarray   # (r, n)
    dD: np.ndarray   # (r, m)
    dc: np.ndarray   # (r,)


# grad field of GradSet -> (its parameter in BrnnParams, its regularizer
# weight in LossWeights, the names of its factors a and b in _factors): the
# step-k contribution is a_k b_k^T + g P, or a_k + g P for a bias (b None)
GROUPS = {
    "dU": ("U", "gamma1", "lam", "h"),
    "dW": ("W", "gamma1", "lam", "s"),
    "db": ("b", "gamma1", "lam", None),
    "dV": ("V", "gamma2", "e", "h"),
    "dD": ("Dft", "gamma2", "e", "s"),
    "dc": ("c", "gamma2", "e", None),
}
# grad field of GradSet -> parameter attribute of BrnnParams
PARAM_GROUPS = tuple((name, group[0]) for name, group in GROUPS.items())


def step_counts(N: int) -> dict:
    """Per group, the number K of steps its contributions run over, the
    rows of its factor a: N for lam, N + 1 for e."""
    rows = {"lam": N, "e": N + 1}
    return {name: rows[a] for name, (_, _, a, _) in GROUPS.items()}


def _factors(traj: Trajectory, costates: CostateSeq, seq: Sequence) -> dict:
    """The four gradient factors by name: lam = lambda_1..lambda_N (N rows),
    and e, h and s (N + 1 rows each, k = 0..N). A group pairs the first K
    rows of its b with the K rows of its a."""
    if costates.N != traj.N or seq.N != traj.N:
        raise ConfigurationError("costates/sequence length mismatch")
    return {"lam": costates.lam[1:], "e": traj.e, "h": traj.h, "s": seq.s}


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
    blocked = _scan_pays(N, n)
    a = None if blocked else diagonal_A(params.A)
    # lam[k+1] @ [A | U] is [A^T lam, U^T lam]: one product per step; with
    # a diagonal A the product is lam[k+1] @ U and A^T lam is a * lam
    AU = (np.concatenate([params.A, params.U], axis=1) if a is None
          else np.ascontiguousarray(params.U))
    # explosion is detected after the recursion, so silence the warnings
    with np.errstate(over="ignore", invalid="ignore"):
        if blocked:
            _blocked_scan(lam, AU, params, traj, w)
        if not blocked or not np.isfinite(lam[:N]).all():
            lam[N], sp, force = _forcing(params, traj, w)
            _recur(lam[:N], lam[N], AU, sp, force, a)
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
    sigma' is read from h_0..h_N in one call (model.SIGMAS' prime_of_h)."""
    N = traj.N
    x, h = traj.x[:N], traj.h[:N]
    sp_all = nonlinearity(params.sigma).prime_of_h(traj.h)
    sp = sp_all[:N]
    lam_N = sp_all[N] * (params.V.T @ traj.e[N])
    return lam_N, sp, sp * (traj.e[:N] @ params.V) + state_loss_grad(w, x, h, sp)


# (largest n, smallest N) of each band of sizes in which the blocked scan
# beats the per-step loop (the measured table in the module docstring)
_SCAN_BANDS = ((12, 50), (16, 150), (20, 1000))


def _scan_pays(N: int, n: int) -> bool:
    """Whether the blocked scan beats the per-step loop at these sizes."""
    return any(n <= n_max and N >= N_min for n_max, N_min in _SCAN_BANDS)


def _recur(lam, top, AU, sp, force, a=None) -> None:
    """Fill lam[i] = lam[i+1] @ (A + U diag sp[i]) + force[i] for
    i = K-1..0 (K = len(lam)), with top as lam[K]. AU is [A | U]; given a,
    A's diagonal (model.diagonal_A), AU is U alone and
    lam[i] = sp[i] * (lam[i+1] @ U) + a * lam[i+1] + force[i]."""
    n = AU.shape[0]
    dot = np.ndarray.dot
    lam_next = top
    # each step reads the row the previous step wrote
    if a is None:
        t = np.empty(2 * n)
        t_A, t_U = t[:n], t[n:]
        for lam_k, sp_k, force_k in zip(lam[::-1], sp[::-1], force[::-1]):
            dot(lam_next, AU, t)
            np.multiply(sp_k, t_U, lam_k)
            lam_k += t_A
            lam_k += force_k
            lam_next = lam_k
    else:
        t = np.empty(n)
        for lam_k, sp_k, force_k in zip(lam[::-1], sp[::-1], force[::-1]):
            dot(lam_next, AU, t)
            np.multiply(sp_k, t, lam_k)
            np.multiply(a, lam_next, t)
            lam_k += t
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


def _groups(params: BrnnParams, w: LossWeights, N: int) -> dict:
    """Per group, (a, b, P, g, K): the names of its factors a and b as
    GROUPS gives them, its parameter array P, its regularizer weight g and
    its step count K."""
    counts = step_counts(N)
    return {name: (a, b, getattr(params, p), getattr(w, g), counts[name])
            for name, (p, g, a, b) in GROUPS.items()}


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
    (a_k + g P without b), from the factors that GROUPS names, as a
    C-contiguous array of shape P[i].shape + (K,): the step axis is last.
    Every block is built in one buffer, sized for the largest, and
    overwritten by the next, so reduce must return an array of its own.
    """
    # each factor transposed once, steps last
    step_last = {key: np.ascontiguousarray(f.T)
                 for key, f in _factors(traj, costates, seq).items()}
    groups = _groups(params, w, traj.N)
    # a row at a time, not a whole (n, n, N) block: a row block of at most
    # n (N+1) values is built, reduced and built over while still in cache
    buf = np.empty(max(P[0].size * K for _, _, P, _, K in groups.values()))
    out = {}
    for name, (a, b, P, g, K) in groups.items():
        aT = step_last[a]
        bT = None if b is None else step_last[b][:, :K]
        rows = []
        for i in range(P.shape[0]):
            block = buf[:P[i].size * K].reshape(P[i].shape + (K,))
            if bT is None:
                block[...] = aT[i]
            else:
                np.multiply(aT[i], bT, out=block)
            # a term whose weight is 0 is not formed, as in step_norms
            if g != 0.0:
                block += (g * P[i])[..., None]
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
    f = _factors(traj, costates, seq)
    out = {}
    for name, (a, b, P, g, K) in _groups(params, w, traj.N).items():
        rank_one = f[a].sum(axis=0) if b is None else f[a].T @ f[b][:K]
        out[name] = rank_one + K * g * P if g != 0.0 else rank_one
    return GradSet(**out)


def step_norms(params: BrnnParams, traj: Trajectory, costates: CostateSeq,
               seq: Sequence, w: LossWeights) -> tuple[float, float]:
    """The epoch's two diagnostics from one set of row norms: grad_norm, the
    largest Frobenius norm of any per-step contribution of any group, from

        ||a b^T + g P||_F^2 = ||a||^2 ||b||^2 + 2 g a^T P b + g^2 ||P||_F^2

    per k, clamped at 0 against cancellation before the square root; and
    lambda_max = max ||lambda_k||_2 over k = 1..N. The squared row norms of
    each factor (lam, e, h, s) are computed once and shared by the groups;
    the cross and ||P|| terms are formed only for a group with g != 0.
    """
    f = _factors(traj, costates, seq)
    # einsum's row dots beat a multiply and a sum over a short trailing axis
    row_sq = {key: np.einsum("ij,ij->i", a, a) for key, a in f.items()}
    worst = 0.0
    for a, b, P, g, K in _groups(params, w, traj.N).values():
        sq = row_sq[a] if b is None else row_sq[a] * row_sq[b][:K]
        if g != 0.0:
            cross = f[a] @ P if b is None else np.einsum("ij,ij->i", f[a] @ P, f[b][:K])
            sq = sq + (2.0 * g * cross + g * g * (P * P).sum())
        worst = max(worst, float(np.sqrt(np.maximum(sq, 0.0)).max()))
    return worst, float(np.sqrt(row_sq["lam"].max()))
