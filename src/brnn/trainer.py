"""Epoch-level training: gradient aggregation, updates, and the main loop.

Per-step gradient contributions are mapped to one update per epoch by an
aggregation rule. Summation is the true gradient of the total cost; mean
differs only by a count factor that a rescaled learning rate absorbs;
median and min_abs are robust alternatives that are deliberately *not*
gradients of the cost (a near-zero mean can hide large per-step changes).
Sum and mean take the summed gradients from :mod:`brnn.adjoint` directly;
only median and min_abs form the per-step contributions, one parameter
group at a time, and reduce them over k. adjoint.reduce_step_blocks
builds them one parameter row at a time, each row block reduced before the
next is built over it in one buffer (1.3 MB at N = 20000, n = 8, where the
whole dU block would take 10 MB), from lam, h, e and s transposed once
each. Those blocks keep the step axis last, so each reduction runs along
contiguous rows of K = N or N+1 values: median is one single-kth partition
at K//2 (for even K the lower middle value is the largest entry below it,
and the two are averaged as np.median averages them), min_abs one argmin
of |block|. At N = 20000, n = 8 the median direction takes about 12 ms
and min_abs 8 ms (one BLAS thread, 2-vCPU VM).

Parameters are frozen within an epoch: forward and backward passes of
epoch i see only params_i, and the update produces params_{i+1}. params_0
comes from the caller (init_params draws it); TrainConfig holds only what
the loop reads.
"""

import math
from dataclasses import dataclass

import numpy as np

from .adjoint import (PARAM_GROUPS, CostateSeq, GradSet, backward_costates,
                      reduce_step_blocks, step_norms, summed_gradients)
from .errors import ConfigurationError, DivergenceError, NumericalError
from .loss import CostBreakdown, LossWeights, total_cost
from .model import BrnnParams, Dims, Sequence, Trajectory, forward
from .stability import make_stable_A

AGGREGATIONS = ("sum", "mean", "median", "min_abs")

# train raises DivergenceError once an epoch's total cost exceeds this
# multiple of the first epoch's (finite but exploding training)
DIVERGENCE_RATIO = 1e6


@dataclass
class TrainConfig:
    eta: float = 0.01
    epochs: int = 100
    aggregation: str = "sum"
    stop_tol: float = 0.0      # stop once total cost drops below this

    def __post_init__(self):
        if not 0.0 < self.eta < math.inf:
            raise ConfigurationError("eta must be finite and > 0")
        if self.epochs < 0:
            raise ConfigurationError("epochs must be >= 0")
        if self.aggregation not in AGGREGATIONS:
            raise ConfigurationError(f"unknown aggregation {self.aggregation!r}")
        if math.isnan(self.stop_tol):
            raise ConfigurationError("stop_tol must not be NaN")


@dataclass
class EpochMetrics:
    epoch: int                     # 1-based
    cost: CostBreakdown
    grad_norm: float               # max per-step gradient block norm
    lambda_max: float              # max ||lambda_k||_2 over k = 1..N


def _select(block: np.ndarray, mode: str) -> np.ndarray:
    """median or min_abs over the last (step) axis of `block`; median
    reorders `block` in place, so pass an array no one else reads."""
    if mode == "min_abs":
        # argmin takes the first k of equal magnitudes, keeping its sign
        k = np.abs(block).argmin(axis=-1)
        return np.take_along_axis(block, k[..., None], axis=-1)[..., 0]
    if mode != "median":
        raise ConfigurationError(f"unknown aggregation {mode!r}")
    K = block.shape[-1]
    h = K // 2
    # afterwards block[..., :h] <= block[..., h] <= block[..., h+1:], NaN last
    block.partition(h, axis=-1)
    mid = block[..., h]
    if K % 2 == 0:
        mid = (block[..., :h].max(axis=-1) + mid) / 2
    # as in np.median, any NaN among the K values makes the median NaN
    return np.where(np.isnan(block[..., h:].max(axis=-1)), np.nan, mid)


def _reduce(a: np.ndarray, mode: str) -> np.ndarray:
    if mode == "sum":
        return a.sum(axis=0)
    if mode == "mean":
        # same summation path as "sum", then one division by the count
        return a.sum(axis=0) / a.shape[0]
    # a step-last copy: the caller's array is left as it was
    return _select(np.moveaxis(a, 0, -1).copy(), mode)


def aggregate(grads: GradSet, mode: str) -> GradSet:
    """Collapse per-step contributions, as per_step_gradients returns them,
    over k (the leading axis of each array, which is not modified). Counts
    differ by group: N for the state-equation parameters, N+1 for the
    output-equation ones."""
    return GradSet(**{name: _reduce(a, mode) for name, a in vars(grads).items()})


def apply_update(params: BrnnParams, g: GradSet, eta: float) -> BrnnParams:
    """Gradient step p <- p - eta*dp for every trainable group; A unchanged."""
    if eta <= 0.0:
        raise ConfigurationError("eta must be > 0")
    out = BrnnParams(A=params.A, sigma=params.sigma, **{
        pname: getattr(params, pname) - eta * getattr(g, gname)
        for gname, pname in PARAM_GROUPS})
    for _, name in PARAM_GROUPS:
        if not np.isfinite(getattr(out, name)).all():
            raise DivergenceError(f"non-finite {name} after update")
    return out


def init_params(dims: Dims, *, sigma: str = "tanh", init_scale: float = 0.1,
                alpha_A: float = 0.5, seed: int = 0) -> BrnnParams:
    """Randomly small init: U, W, V, Dft uniform in [-init_scale, init_scale],
    zero biases, A = alpha_A * I."""
    if not 0.0 < init_scale < math.inf:
        raise ConfigurationError("init_scale must be finite and > 0")
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    A = make_stable_A(dims.n, "scaled_identity", alpha_A)
    rng = np.random.default_rng(seed)
    n, m, r = dims.n, dims.m, dims.r
    u = lambda *shape: rng.uniform(-init_scale, init_scale, shape)
    return BrnnParams(
        A=A, U=u(n, n), W=u(n, m), b=np.zeros(n),
        V=u(r, n), Dft=u(r, m), c=np.zeros(r), sigma=sigma)


def epoch_gradient(params: BrnnParams, traj: Trajectory, costates: CostateSeq,
                   seq: Sequence, w: LossWeights, mode: str) -> GradSet:
    """The epoch's update direction under aggregation `mode`. mean is the
    summed gradient divided by the step count of each group, N for the
    state-equation groups and N+1 for the output-equation ones, exactly as
    aggregate divides."""
    if mode not in ("sum", "mean"):
        # median reorders each block, which the next one overwrites anyway
        return reduce_step_blocks(params, traj, costates, seq, w,
                                  lambda block: _select(block, mode))
    g = summed_gradients(params, traj, costates, seq, w)
    if mode == "mean":
        N = traj.N
        g = GradSet(dU=g.dU / N, dW=g.dW / N, db=g.db / N,
                    dV=g.dV / (N + 1), dD=g.dD / (N + 1), dc=g.dc / (N + 1))
    return g


def train(config: TrainConfig, seq: Sequence, params0: BrnnParams, x0,
          w: LossWeights) -> tuple[BrnnParams, list[EpochMetrics]]:
    """Run forward -> backward -> aggregate -> update for up to
    config.epochs epochs, stopping early once total cost < stop_tol.

    Metrics are recorded with the cost of the parameters *entering* each
    epoch. Numerical failures re-raise with the epoch index attached; a
    total cost that is not finite, or above DIVERGENCE_RATIO times the
    first epoch's (when that is not 0), raises DivergenceError.

    params0 is validated once, here: each update keeps its shapes and
    apply_update rejects non-finite entries, so forward does not validate.
    """
    params0.validate()
    params = params0
    history: list[EpochMetrics] = []
    for i in range(1, config.epochs + 1):
        try:
            traj = forward(params, seq, x0)
            cost = total_cost(traj, seq, params, w)
            if not math.isfinite(cost.total):
                raise DivergenceError(f"total cost is {cost.total!r}")
            limit = DIVERGENCE_RATIO * history[0].cost.total if history else 0.0
            if limit > 0.0 and cost.total > limit:
                raise DivergenceError(
                    f"total cost {cost.total:.6g} exceeds {DIVERGENCE_RATIO:g} "
                    f"times the first epoch's {history[0].cost.total:.6g}")
            costates = backward_costates(params, traj, w)
            gset = epoch_gradient(params, traj, costates, seq, w,
                                  config.aggregation)
            grad_norm, lambda_max = step_norms(params, traj, costates, seq, w)
            history.append(EpochMetrics(epoch=i, cost=cost, grad_norm=grad_norm,
                                        lambda_max=lambda_max))
            if cost.total < config.stop_tol:
                break
            params = apply_update(params, gset, config.eta)
        except NumericalError as exc:
            exc.epoch = i
            raise
    return params, history
