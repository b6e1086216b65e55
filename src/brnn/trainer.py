"""Epoch-level training: gradient aggregation, updates, and the main loop.

Per-step gradient contributions are mapped to one update per epoch by an
aggregation rule. Summation is the true gradient of the total cost; mean
differs only by a count factor that a rescaled learning rate absorbs;
median and min_abs are robust alternatives that are deliberately *not*
gradients of the cost (a near-zero mean can hide large per-step changes).
The one aggregation function, aggregate, is what train calls once an
epoch. Sum and mean take the summed gradients from :mod:`brnn.adjoint`
directly; only median and min_abs form the per-step contributions, one
parameter group at a time, and reduce them over k. adjoint.reduce_step_blocks
builds them one parameter row at a time, each row block reduced before the
next is built over it in one buffer (its size is in brnn.adjoint), from
lam, h, e and s transposed once each. Those blocks keep the step axis last,
so each reduction runs along contiguous rows of K = N or N+1 values:
median is one single-kth partition at K//2 (for even K the lower middle
value is the largest entry below it, and the two are averaged as
np.median averages them), min_abs one argmin of |block|. At N = 20000,
n = 8, m = r = 2 the median direction takes about 5.5 ms, min_abs 3.8 ms
and sum 1.0 ms (medians of 15 calls, 3 runs, random_instance(3,
scale=0.3), one BLAS thread, 2-vCPU Intel Xeon VM).

Parameters are frozen within an epoch: forward and backward passes of
epoch i see only params_i, and the update produces params_{i+1}. params_0
comes from the caller (init_params draws it); TrainConfig holds only what
the loop reads.
"""

import math
from dataclasses import dataclass

import numpy as np

from .adjoint import (PARAM_GROUPS, CostateSeq, GradSet, backward_costates,
                      reduce_step_blocks, step_counts, step_norms,
                      summed_gradients)
from .errors import ConfigurationError, DivergenceError, NumericalError
from .loss import CostBreakdown, LossWeights, total_cost
from .model import BrnnParams, Sequence, Trajectory, check_seed, forward, param_shapes
from .stability import make_stable_A
from .tasks import split_seed, uniform_noise

AGGREGATIONS = ("sum", "mean", "median", "min_abs")

# train raises DivergenceError once an epoch's total cost exceeds this
# multiple of the first epoch's (finite but exploding training)
DIVERGENCE_RATIO = 1e6


def _check_eta(eta: float) -> None:
    """The learning-rate rule: finite and > 0."""
    if not 0.0 < eta < math.inf:
        raise ConfigurationError("eta must be finite and > 0")


@dataclass
class TrainConfig:
    eta: float = 0.01
    epochs: int = 100
    aggregation: str = "sum"
    stop_tol: float = 0.0      # stop once total cost drops below this

    def __post_init__(self):
        _check_eta(self.eta)
        # a run of no epochs has no cost to report and trains nothing
        if self.epochs < 1:
            raise ConfigurationError("epochs must be >= 1")
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
    K = block.shape[-1]
    h = K // 2
    # afterwards block[..., :h] <= block[..., h] <= block[..., h+1:], NaN last
    block.partition(h, axis=-1)
    mid = block[..., h]
    if K % 2 == 0:
        mid = (block[..., :h].max(axis=-1) + mid) / 2
    # as in np.median, any NaN among the K values makes the median NaN
    return np.where(np.isnan(block[..., h:].max(axis=-1)), np.nan, mid)


def aggregate(params: BrnnParams, traj: Trajectory, costates: CostateSeq,
              seq: Sequence, w: LossWeights, mode: str) -> GradSet:
    """The epoch's update direction: the per-step contributions aggregated
    over k under `mode`, one of AGGREGATIONS. mean is the summed gradient
    divided by each group's step count (adjoint.step_counts): N for the
    state-equation parameters, N+1 for the output-equation ones."""
    if mode not in AGGREGATIONS:
        raise ConfigurationError(f"unknown aggregation {mode!r}")
    if mode not in ("sum", "mean"):
        # median reorders each block, which the next one overwrites anyway
        return reduce_step_blocks(params, traj, costates, seq, w,
                                  lambda block: _select(block, mode))
    g = summed_gradients(params, traj, costates, seq, w)
    if mode == "mean":
        counts = step_counts(traj.N)
        g = GradSet(**{name: a / counts[name] for name, a in vars(g).items()})
    return g


# a non-finite result is refused below, so the overflow warnings are silenced
@np.errstate(over="ignore", invalid="ignore")
def apply_update(params: BrnnParams, g: GradSet, eta: float) -> BrnnParams:
    """Gradient step p <- p - eta*dp for every trainable group; A unchanged."""
    _check_eta(eta)
    out = BrnnParams(A=params.A, sigma=params.sigma, **{
        pname: getattr(params, pname) - eta * getattr(g, gname)
        for gname, pname in PARAM_GROUPS})
    for _, name in PARAM_GROUPS:
        if not np.isfinite(getattr(out, name)).all():
            raise DivergenceError(f"non-finite {name} after update")
    return out


def init_params(n: int, m: int, r: int, *, sigma: str = "tanh",
                init_scale: float = 0.1, alpha_A: float = 0.5,
                seed: int = 0) -> BrnnParams:
    """Randomly small init at sizes (n, m, r): U, W, V, Dft uniform in
    [-init_scale, init_scale), zero biases, A = alpha_A * I.

    U, W, V and Dft are one tasks.uniform_noise stream, drawn in
    param_shapes' order and seeded with tasks.split_seed(seed): a SplitMix64
    stream split off the one a dataset of the same seed draws its noise
    from. The seed (>= 0, check_seed) is taken modulo 2^64, and the draws
    are the same on every NumPy version.
    """
    shapes = param_shapes(n, m, r)
    if not 0.0 < init_scale < math.inf:
        raise ConfigurationError("init_scale must be finite and > 0")
    check_seed(seed)
    A = make_stable_A(n, "scaled_identity", alpha_A)
    trained = {name: shape for name, shape in shapes.items() if name != "A"}
    # the matrices take their entries from the stream in turn; b and c none
    sizes = [math.prod(shape) if len(shape) == 2 else 0 for shape in trained.values()]
    draws = np.split(uniform_noise(split_seed(seed), (sum(sizes),), init_scale),
                     np.cumsum(sizes)[:-1])
    return BrnnParams(A=A, sigma=sigma, **{
        name: draw.reshape(shape) if len(shape) == 2 else np.zeros(shape)
        for (name, shape), draw in zip(trained.items(), draws)})


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
            gset = aggregate(params, traj, costates, seq, w, config.aggregation)
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
