"""Finite-difference oracle for the cost gradient and the comparison harness.

The oracle perturbs every scalar entry of U, W, b, V, Dft, c by +/-eps and
central-differences the total cost; it never touches the multiplier code
path, so agreement certifies the backward recursion. All perturbed models
are stacked along a trailing member axis and run as one batched rollout
(in chunks of bounded memory): each chunk's members are the columns of one
(P, C) array, so each parameter group is a run of its rows, a view of
shape + (C,). A member's arithmetic does not depend on how many members
share its chunk, so the chunked oracle gives the one-chunk oracle's bits.
Valid only for smooth configurations: sigma in {tanh, logistic, identity}
and state loss in {none, tanh_approx}.

analytic_gradient and numeric_gradient each validate their one model once;
the stacked members are built from it, and no rollout validates again.
compare_gradients does its elementwise work (absolute error, the
max(|a|, |b|, 1e-8) denominator, relative error) in one pass over all
groups' entries concatenated; only the argmax that picks each group's
worst entry runs per group. At the AC-1 sizes a NumPy call's fixed cost
outweighs its arithmetic, so each of these runs once per check rather than
once per group or per rollout.
"""

import math
from dataclasses import dataclass

import numpy as np

from .adjoint import PARAM_GROUPS, GradSet, backward_costates, summed_gradients
from .errors import ConfigurationError
from .loss import LossWeights, total_cost
from .model import (BrnnParams, Sequence, check_seed, check_sizes, forward,
                    param_shapes)

SMOOTH_SIGMAS = ("tanh", "logistic", "identity")
SMOOTH_STATE_LOSSES = ("none", "tanh_approx")

# memory the oracle may give one batched rollout; larger models run in
# more, smaller chunks of perturbed members
ORACLE_CHUNK_BYTES = 8 << 20


def cost_value(params: BrnnParams, seq: Sequence, x0, w: LossWeights):
    """Total cost of one forward pass: a float, or an array of shape
    `batch` (one value per member) for stacked params."""
    traj = forward(params, seq, x0)
    return total_cost(traj, seq, params, w).total


def analytic_gradient(params: BrnnParams, seq: Sequence, x0,
                      w: LossWeights) -> GradSet:
    """Summed multiplier gradient (the exact gradient of the cost), by the
    same code path the trainer's sum aggregation uses. params are validated
    here, once; forward does not validate them."""
    params.validate()
    traj = forward(params, seq, x0)
    costates = backward_costates(params, traj, w)
    return summed_gradients(params, traj, costates, seq, w)


def numeric_gradient(params: BrnnParams, seq: Sequence, x0, w: LossWeights,
                     eps: float = 1e-5) -> GradSet:
    """Central finite differences of the total cost over every parameter entry.

    The P trainable entries, in PARAM_GROUPS order, form one vector theta.
    Columns 2i and 2i+1 of the stacked models are theta with entry i moved
    by +eps and -eps; each chunk of columns is one cost_value call. params
    are validated once, before the stacked models are built from them.
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
    params.validate()

    # each group's [start, stop) slice of theta and its shape
    layout, stop = [], 0
    for gname, pname in PARAM_GROUPS:
        shape = getattr(params, pname).shape
        start, stop = stop, stop + math.prod(shape)
        layout.append((gname, pname, start, stop, shape))
    theta = np.concatenate([getattr(params, pname).ravel() for _, pname in PARAM_GROUPS])
    P = theta.size
    # floats one perturbed member holds: its parameters, its columns of
    # forward's M (D, n) and Z (N+1, D), and its x, h, y, e with temporaries
    # of the same size
    n, D = params.n, 2 * params.n + params.m + 1
    member_bytes = 8 * (P + n * D + (seq.N + 1) * (D + 4 * (n + params.r)))
    chunk = max(1, ORACLE_CHUNK_BYTES // (2 * member_bytes))

    grad = np.empty(P)
    for lo in range(0, P, chunk):
        hi = min(lo + chunk, P)
        C = 2 * (hi - lo)
        cols = np.repeat(theta[:, None], C, axis=1)
        # entry lo + j is element (lo + j) C + 2j of the flat (P, C) columns
        # in column 2j, and the next element in column 2j + 1: two strided
        # slices, no index arrays
        flat = cols.reshape(-1)
        flat[lo * C:hi * C:C + 2] += eps
        flat[lo * C + 1:hi * C:C + 2] -= eps
        # each group is a run of rows: a view of shape + (C,), no copy
        stacked = BrnnParams(A=params.A, sigma=params.sigma, **{
            pname: cols[start:stop].reshape(shape + (C,))
            for _, pname, start, stop, shape in layout})
        J = cost_value(stacked, seq, x0, w)
        grad[lo:hi] = (J[0::2] - J[1::2]) / (2.0 * eps)
    return GradSet(**{gname: grad[start:stop].reshape(shape)
                      for gname, _, start, stop, shape in layout})


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
    which must be finite and > 0. A group's max_abs_err is the absolute
    error at its worst relative error (the first such entry on ties, a NaN
    entry if there is one).

    The elementwise work runs once over all groups' entries, concatenated
    in PARAM_GROUPS order; only the argmax runs per group, on its slice.
    """
    if not 0.0 < tol < math.inf:
        raise ConfigurationError(f"tol={tol} must be finite and > 0")
    pairs = [(gname, getattr(analytic, gname), getattr(numeric, gname))
             for gname, _ in PARAM_GROUPS]
    for gname, a, b in pairs:
        if a.shape != b.shape:
            raise ConfigurationError(f"{gname} shapes differ: {a.shape} vs {b.shape}")
    a = np.concatenate([a.ravel() for _, a, _ in pairs])
    b = np.concatenate([b.ravel() for _, _, b in pairs])
    abs_err = np.abs(a - b)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    rel = abs_err / denom
    groups = {}
    lo = 0
    for gname, g, _ in pairs:
        hi = lo + g.size
        worst = lo + int(rel[lo:hi].argmax())
        groups[gname] = GroupCheck(
            max_abs_err=float(abs_err[worst]),
            max_rel_err=float(rel[worst]),
            worst_index=tuple(int(i) for i in np.unravel_index(worst - lo, g.shape)))
        lo = hi
    passed = all(g.max_rel_err < tol for g in groups.values())
    return GradCheckReport(groups=groups, tol=tol, passed=passed)


def random_instance(seed: int, n: int = 4, m: int = 2, r: int = 2, N: int = 10,
                    sigma: str = "tanh", state_loss_kind: str = "none",
                    gamma1: float = 0.0, gamma2: float = 0.0,
                    scale: float = 0.5):
    """Seeded random (params, seq, x0, weights) tuple for gradient checks.
    The sizes and the seed are checked before the first draw."""
    shapes = param_shapes(n, m, r)
    check_sizes(N=N)
    check_seed(seed)
    rng = np.random.default_rng(seed)
    A = np.diag(rng.uniform(-0.8, 0.8, n))
    # drawn in param_shapes' order
    params = BrnnParams(A=A, sigma=sigma, **{
        name: rng.uniform(-scale, scale, shape)
        for name, shape in shapes.items() if name != "A"})
    seq = Sequence(s=rng.uniform(-1.0, 1.0, (N + 1, m)),
                   d=rng.uniform(-1.0, 1.0, (N + 1, r)))
    x0 = rng.uniform(-0.5, 0.5, n)
    # the state-loss weights, where there is a state loss
    beta, beta0 = (0.0, 0.0) if state_loss_kind == "none" else (0.3, 0.2)
    w = LossWeights(beta=beta, beta0=beta0, gamma1=gamma1, gamma2=gamma2,
                    state_loss_kind=state_loss_kind)
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
