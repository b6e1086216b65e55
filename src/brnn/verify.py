"""Finite-difference oracle for the cost gradient and the comparison harness.

The oracle perturbs every scalar entry of U, W, b, V, Dft, c by +/-eps and
central-differences the total cost; it never touches the multiplier code
path, so agreement certifies the backward recursion. All perturbed models
are stacked along a batch axis and run as one batched rollout (in chunks
of bounded memory). Valid only for smooth configurations: sigma in
{tanh, logistic, identity} and state loss in {none, tanh_approx}.
"""

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .adjoint import GradSet, backward_costates, summed_gradients
from .errors import ConfigurationError
from .loss import LossWeights, total_cost
from .model import BrnnParams, Dims, Sequence, forward

# grad field of GradSet -> parameter attribute of BrnnParams
PARAM_GROUPS = (("dU", "U"), ("dW", "W"), ("db", "b"),
                ("dV", "V"), ("dD", "Dft"), ("dc", "c"))

SMOOTH_SIGMAS = ("tanh", "logistic", "identity")
SMOOTH_STATE_LOSSES = ("none", "tanh_approx")

# memory the oracle may give one batched rollout; larger models run in
# more, smaller chunks of perturbed members
ORACLE_CHUNK_BYTES = 8 << 20


def cost_value(params: BrnnParams, seq: Sequence, x0, w: LossWeights):
    """Total cost of one forward pass: a float, or a (B,) array for params
    stacked along a batch axis of length B."""
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
    """Central finite differences of the total cost over every parameter entry.

    The P trainable entries, in PARAM_GROUPS order, form one vector theta.
    Rows 2i and 2i+1 of the stacked models are theta with entry i moved by
    +eps and -eps; each chunk of rows is one cost_value call.
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ConfigurationError(f"eps={eps} outside [1e-7, 1e-3]")
    if params.sigma not in SMOOTH_SIGMAS:
        raise ConfigurationError(f"{params.sigma!r} is not smooth enough for the oracle")
    if w.state_loss_kind not in SMOOTH_STATE_LOSSES:
        raise ConfigurationError(
            f"state loss {w.state_loss_kind!r} is not smooth enough for the oracle")
    if params.batch:
        raise ConfigurationError("the oracle takes one model, not stacked params")

    shapes = [getattr(params, pname).shape for _, pname in PARAM_GROUPS]
    # each group's [start, stop) slice of theta
    ends = list(accumulate(map(math.prod, shapes), initial=0))
    spans = list(zip(ends, ends[1:]))
    theta = np.concatenate([getattr(params, pname).ravel() for _, pname in PARAM_GROUPS])
    P = theta.size
    # floats one perturbed member holds: its parameters, and its x, h, y, e
    # with temporaries of the same size
    member_bytes = 8 * (P + 4 * (seq.N + 1) * (params.n + params.r))
    chunk = max(1, ORACLE_CHUNK_BYTES // (2 * member_bytes))

    grad = np.empty(P)
    for lo in range(0, P, chunk):
        idx = np.arange(lo, min(lo + chunk, P))
        plus = 2 * (idx - lo)
        rows = np.repeat(theta[None, :], 2 * idx.size, axis=0)
        rows[plus, idx] += eps
        rows[plus + 1, idx] -= eps
        stacked = BrnnParams(A=params.A, sigma=params.sigma, **{
            pname: rows[:, start:stop].reshape((rows.shape[0],) + shape)
            for (_, pname), (start, stop), shape in zip(PARAM_GROUPS, spans, shapes)})
        J = cost_value(stacked, seq, x0, w)
        grad[idx] = (J[0::2] - J[1::2]) / (2.0 * eps)
    return GradSet(**{gname: grad[start:stop].reshape(shape) for (gname, _), (start, stop),
                      shape in zip(PARAM_GROUPS, spans, shapes)})


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
    denominator, and the report passes iff every group stays below tol,
    which must be finite and > 0."""
    if not 0.0 < tol < math.inf:
        raise ConfigurationError(f"tol={tol} must be finite and > 0")
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
    Dims(n=n, m=m, r=r, N=N)  # raises ConfigurationError on sizes below 1
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
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
