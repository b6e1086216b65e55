"""Scalar training cost and the per-step state-loss forcing terms.

The total cost over one trajectory is

    J = 1/2 ||e_N||^2                                   (final-time loss)
      + sum_{k<N} 1/2 ||e_k||^2                         (per-step output loss)
      + beta  * sum_{k<N} P(x_k)                        (state penalty)
      + beta0 * sum_{k<N} P(h_k)                        (hidden penalty)
      + gamma1 * N * 1/2 ||theta||^2                    (theta = U, W, b)
      + gamma2 * (N+1) * 1/2 ||nu||^2                   (nu = V, Dft, c)

where P is the L1 norm, its smooth surrogate sum_j z_j*tanh(alpha z_j),
or absent. The regularizers are summed per step, so their effective epoch
weights are N*gamma1 and (N+1)*gamma2; the per-step update laws in
:mod:`brnn.adjoint` count them the same way.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .model import BrnnParams, Sequence, Trajectory

STATE_LOSS_KINDS = ("none", "l1", "tanh_approx")


@dataclass
class LossWeights:
    """Penalty weights; all in [0, 1]. alpha_ent in (1, 3] sets the sharpness
    of the smooth L1 surrogate."""

    beta: float = 0.0        # weight on the state penalty P(x_k)
    beta0: float = 0.0       # weight on the hidden penalty P(h_k)
    gamma1: float = 0.0      # state-equation parameter regularizer
    gamma2: float = 0.0      # output-equation parameter regularizer
    state_loss_kind: str = "none"
    alpha_ent: float = 2.0

    def __post_init__(self):
        for name in ("beta", "beta0", "gamma1", "gamma2"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigurationError(f"{name}={v} outside [0, 1]")
        if self.state_loss_kind not in STATE_LOSS_KINDS:
            raise ConfigurationError(
                f"unknown state_loss_kind {self.state_loss_kind!r}")
        if not 1.0 < self.alpha_ent <= 3.0:
            raise ConfigurationError(f"alpha_ent={self.alpha_ent} outside (1, 3]")


@dataclass
class CostBreakdown:
    """Each field is a float, or a (B,) array of one value per member for
    params stacked along a batch axis of length B."""

    phi_N: float        # 1/2 ||e_N||^2
    output_sum: float   # sum_{k<N} 1/2 ||e_k||^2
    state_sum: float    # beta  * sum_{k<N} P(x_k)
    hidden_sum: float   # beta0 * sum_{k<N} P(h_k)
    reg_theta: float    # gamma1 * N * 1/2 ||theta||^2
    reg_nu: float       # gamma2 * (N+1) * 1/2 ||nu||^2
    total: float


def _penalty(kind: str, alpha: float, z: np.ndarray) -> np.ndarray:
    """P summed over the last two (step, unit) axes. kind is l1 or
    tanh_approx: the callers return before calling it for none."""
    if kind == "l1":
        return np.abs(z).sum(axis=(-2, -1))
    return (z * np.tanh(alpha * z)).sum(axis=(-2, -1))


def _penalty_grad(kind: str, alpha: float, z: np.ndarray) -> np.ndarray:
    if kind == "l1":
        return np.sign(z)  # sign(0) = 0
    t = np.tanh(alpha * z)
    return t + alpha * z * (1.0 - t * t)


def state_loss_grad(w: LossWeights, x_k, h_k, sigma_prime_k) -> np.ndarray:
    """Forcing term beta*g(x_k) + beta0*sigma'_k (.) g(h_k) for the backward
    multiplier recursion, where g is the derivative of the state penalty."""
    x_k = np.asarray(x_k, dtype=float)
    out = np.zeros_like(x_k)
    if w.state_loss_kind == "none":
        return out
    if w.beta != 0.0:
        out += w.beta * _penalty_grad(w.state_loss_kind, w.alpha_ent, x_k)
    if w.beta0 != 0.0:
        out += w.beta0 * np.asarray(sigma_prime_k, dtype=float) * _penalty_grad(
            w.state_loss_kind, w.alpha_ent, np.asarray(h_k, dtype=float))
    return out


# a cost that overflows is the caller's to check (train and eval do), so the
# intermediate warnings are silenced, as forward silences its own
@np.errstate(over="ignore", invalid="ignore")
def total_cost(traj: Trajectory, seq: Sequence, params: BrnnParams,
               w: LossWeights) -> CostBreakdown:
    """Evaluate the full cost of a trajectory, per member for stacked params."""
    N = seq.N
    if traj.x.shape[-2] != N + 1 or traj.e.shape[-2:] != seq.d.shape:
        raise ConfigurationError("trajectory does not match sequence length")

    e = traj.e
    phi_N = 0.5 * (e[..., N, :] ** 2).sum(axis=-1)
    output_sum = 0.5 * (e[..., :N, :] ** 2).sum(axis=(-2, -1))

    state_sum = hidden_sum = np.zeros(params.batch)
    if w.state_loss_kind != "none":
        kind, alpha = w.state_loss_kind, w.alpha_ent
        if w.beta != 0.0:
            state_sum = w.beta * _penalty(kind, alpha, traj.x[..., :N, :])
        if w.beta0 != 0.0:
            hidden_sum = w.beta0 * _penalty(kind, alpha, traj.h[..., :N, :])

    # a term whose weight is 0 is not formed: 0 * ||theta||^2 would be NaN
    # for params whose squares overflow, although the weighted cost is finite
    reg_theta = reg_nu = np.zeros(params.batch)
    if w.gamma1 != 0.0:
        theta_sq = ((params.U ** 2).sum(axis=(-2, -1)) + (params.W ** 2).sum(axis=(-2, -1))
                    + (params.b ** 2).sum(axis=-1))
        reg_theta = w.gamma1 * N * 0.5 * theta_sq
    if w.gamma2 != 0.0:
        nu_sq = ((params.V ** 2).sum(axis=(-2, -1)) + (params.Dft ** 2).sum(axis=(-2, -1))
                 + (params.c ** 2).sum(axis=-1))
        reg_nu = w.gamma2 * (N + 1) * 0.5 * nu_sq
    fields = dict(phi_N=phi_N, output_sum=output_sum, state_sum=state_sum,
                  hidden_sum=hidden_sum, reg_theta=reg_theta, reg_nu=reg_nu)
    fields["total"] = sum(fields.values())
    if not params.batch:
        fields = {name: float(v) for name, v in fields.items()}
    return CostBreakdown(**fields)
