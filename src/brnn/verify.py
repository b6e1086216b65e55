"""Finite-difference oracle for the cost gradient and the comparison harness.

The oracle perturbs every scalar entry of U, W, b, V, Dft, c by +/-eps and
central-differences the total cost; it never touches the multiplier code
path, so agreement certifies the backward recursion. Valid only for smooth
configurations: sigma in {tanh, logistic, identity} and state loss in
{none, tanh_approx}.
"""

from dataclasses import dataclass

import numpy as np

from .adjoint import GradSet, backward_costates, summed_gradients
from .errors import ConfigurationError
from .loss import LossWeights, total_cost
from .model import BrnnParams, Sequence, forward

# grad field of GradSet -> parameter attribute of BrnnParams
PARAM_GROUPS = (("dU", "U"), ("dW", "W"), ("db", "b"),
                ("dV", "V"), ("dD", "Dft"), ("dc", "c"))

SMOOTH_SIGMAS = ("tanh", "logistic", "identity")
SMOOTH_STATE_LOSSES = ("none", "tanh_approx")


def cost_value(params: BrnnParams, seq: Sequence, x0, w: LossWeights) -> float:
    """Total cost of one forward pass."""
    traj = forward(params, seq, x0)
    return total_cost(traj, seq, params, w).total


def analytic_gradient(params: BrnnParams, seq: Sequence, x0,
                      w: LossWeights) -> GradSet:
    """Summed multiplier gradient (the exact gradient of the cost), by the
    same code path the trainer's sum aggregation uses."""
    traj = forward(params, seq, x0)
    costates = backward_costates(params, traj, w)
    return summed_gradients(params, traj, costates, seq, w)


def numeric_gradient(params: BrnnParams, seq: Sequence, x0, w: LossWeights,
                     eps: float = 1e-5) -> GradSet:
    """Central finite differences of the total cost over every parameter entry."""
    if not 1e-7 <= eps <= 1e-3:
        raise ConfigurationError(f"eps={eps} outside [1e-7, 1e-3]")
    if params.sigma not in SMOOTH_SIGMAS:
        raise ConfigurationError(f"{params.sigma!r} is not smooth enough for the oracle")
    if w.state_loss_kind not in SMOOTH_STATE_LOSSES:
        raise ConfigurationError(
            f"state loss {w.state_loss_kind!r} is not smooth enough for the oracle")

    work = params.copy()
    out = {}
    for gname, pname in PARAM_GROUPS:
        arr = getattr(work, pname)
        grad = np.empty_like(arr)
        for i in range(arr.size):
            orig = arr.flat[i]
            arr.flat[i] = orig + eps
            jp = cost_value(work, seq, x0, w)
            arr.flat[i] = orig - eps
            jm = cost_value(work, seq, x0, w)
            arr.flat[i] = orig
            grad.flat[i] = (jp - jm) / (2.0 * eps)
        out[gname] = grad
    return GradSet(**out)


@dataclass
class GroupCheck:
    max_abs_err: float
    max_rel_err: float
    worst_index: tuple


@dataclass
class GradCheckReport:
    groups: dict          # grad field name -> GroupCheck
    tol: float
    passed: bool

    @property
    def max_rel_err(self) -> float:
        return max(g.max_rel_err for g in self.groups.values())


def compare_gradients(analytic: GradSet, numeric: GradSet,
                      tol: float) -> GradCheckReport:
    """Entrywise comparison; relative error uses max(|a|, |b|, 1e-8) as
    denominator, and the report passes iff every group stays below tol."""
    groups = {}
    for gname, _ in PARAM_GROUPS:
        a = getattr(analytic, gname)
        b = getattr(numeric, gname)
        if a.shape != b.shape:
            raise ConfigurationError(f"{gname} shapes differ: {a.shape} vs {b.shape}")
        abs_err = np.abs(a - b)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
        rel = abs_err / denom
        worst = int(rel.argmax())
        groups[gname] = GroupCheck(
            max_abs_err=float(abs_err.flat[worst]),
            max_rel_err=float(rel.flat[worst]),
            worst_index=tuple(int(i) for i in np.unravel_index(worst, a.shape)))
    passed = all(g.max_rel_err < tol for g in groups.values())
    return GradCheckReport(groups=groups, tol=tol, passed=passed)


def random_instance(seed: int, n: int = 4, m: int = 2, r: int = 2, N: int = 10,
                    sigma: str = "tanh", state_loss_kind: str = "none",
                    gamma1: float = 0.0, gamma2: float = 0.0,
                    beta: float = 0.3, beta0: float = 0.2,
                    scale: float = 0.5):
    """Seeded random (params, seq, x0, weights) tuple for gradient checks."""
    rng = np.random.default_rng(seed)
    u = lambda *shape: rng.uniform(-scale, scale, shape)
    params = BrnnParams(
        A=np.diag(rng.uniform(-0.8, 0.8, n)), U=u(n, n), W=u(n, m),
        b=u(n), V=u(r, n), Dft=u(r, m), c=u(r), sigma=sigma)
    seq = Sequence(s=rng.uniform(-1.0, 1.0, (N + 1, m)),
                   d=rng.uniform(-1.0, 1.0, (N + 1, r)))
    x0 = rng.uniform(-0.5, 0.5, n)
    if state_loss_kind == "none":
        beta = beta0 = 0.0
    w = LossWeights(beta=beta, beta0=beta0, gamma1=gamma1, gamma2=gamma2,
                    state_loss_kind=state_loss_kind, alpha_ent=2.0)
    return params, seq, x0, w


def gradcheck(params: BrnnParams, seq: Sequence, x0, w: LossWeights,
              eps: float = 1e-5, tol: float = 1e-5) -> GradCheckReport:
    """One full oracle-vs-multiplier comparison."""
    return compare_gradients(analytic_gradient(params, seq, x0, w),
                             numeric_gradient(params, seq, x0, w, eps=eps), tol)


def format_report(report: GradCheckReport) -> str:
    lines = []
    for gname, _ in PARAM_GROUPS:
        g = report.groups[gname]
        lines.append(f"{gname:>3}: max_abs={g.max_abs_err:.3e} "
                     f"max_rel={g.max_rel_err:.3e} worst={g.worst_index}")
    lines.append(f"tolerance {report.tol:g}: "
                 f"{'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines)
