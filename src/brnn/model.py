"""Recurrent state-space model: parameters, nonlinearities, forward rollout.

The network runs over a finite horizon k = 0..N:

    x[k+1] = A x[k] + U h[k] + W s[k] + b        k = 0..N-1
    h[k]   = sigma(x[k])                         k = 0..N
    y[k]   = V h[k] + Dft s[k] + c               k = 0..N

A is fixed (never trained) and chosen stable so that bounded inputs keep
the state inside a bounded region; see :mod:`brnn.stability`. All
arithmetic is float64. `forward` also runs a stack of models (trainable
parameters with trailing batch axes, one index per member) in one
recursion.

Two tables state the model's choices once each. SIGMAS has one row per
nonlinearity (tanh, logistic, relu, identity): sigma itself, taking an
`out` array as a NumPy ufunc does; sigma' as a function of h = sigma(x),
which the co-state recursion reads from a trajectory's h; sup sigma' over
the real line, which sets step_rate and so the co-state decay rate; and
whether every h_i lies in [-1, 1], so that ||h||_2 <= sqrt(n), which the
BIBO bound of brnn.stability uses. Every reader (forward, step_rate,
BrnnParams.validate, brnn.adjoint, brnn.stability) takes its row through
nonlinearity(name), which raises ConfigurationError for a name without
one; the CLI's --sigma choices are its keys, NONLINEARITIES. PARAM_DIMS
names the seven parameters A, U, W, b, V, Dft, c in order with their
shapes; param_shapes gives them at sizes (n, m, r), and BrnnParams, the
checkpoint file and the random initializers follow it. check_sizes is the
rule for every size (>= 1) and check_seed the rule for every seed (>= 0);
each is called wherever such a value enters.

The state recursion is nonlinear in x and runs as a loop over k (for a
long horizon, see multiple shooting below). `forward` makes each step one
matrix product: it keeps the augmented rows z_k = [x_k, h_k, s_k, 1]
in one time-first buffer and multiplies by M = [A^T; U^T; W^T; b], built
once, so that x_{k+1} = z_k M. A step of one model is two NumPy calls,
sigma(x_k) into h_k and then one ndarray.dot into x_{k+1}, each with its
output array passed positionally. At small n a step costs the calls, not
the arithmetic: on a (19,) row and a (19, 8) M, ndarray.dot's
vector-matrix path takes about 0.78 us per call, np.dot (the same C
routine behind a Python-level dispatch) 1.1 us and the np.matmul gufunc
1.7 us (medians of 3 timings, one BLAS thread, 2-vCPU VM).

Stacked params keep their members on the last axes of every array: M is
(D, n) + batch and the buffer's rows z_k are (D,) + batch, so that sigma
runs on one contiguous (n,) + batch block and the step is one einsum over
every member, with no call per member. A stack with the members first
made a BLAS gemv per member per step (np.matmul over a 3-D M) and ran
sigma on strided views; at the gradient check's sizes (n <= 6, N <= 15,
20-160 members) the stacked forward took about 36% less time with the
members last (300 AC-1 checks' stacks, 49.8 -> 32.0 ms in all, one BLAS
thread, 2-vCPU VM). The einsum's sum over z_k's D entries is its outer
loop, so each member adds its D products in order, and a stack of any
width, 1 included, gives each member the same bits. The einsum does its
arithmetic at a lower rate than BLAS, so on larger models the per-member
gemvs were faster: the oracle's numeric_gradient took 0.4 ms against
0.6 ms at n = 4, N = 15 and 10.1 ms against 10.1 ms at n = 16, N = 15,
but 4.0 against 3.0 ms at n = 8, N = 50 and 284 against 211 ms at n = 32,
N = 50 (best of 3, random_instance(0)).

Every A that brnn builds to train with is diagonal (init_params' alpha_A I,
random_instance's diagonal draw), and at large n its zero off-diagonal is
half of M. So from n = DIAGONAL_MIN_N on, a single model with a diagonal A
leaves A out of the product:

    x_{k+1} = [h_k, s_k, 1] @ [U^T; W^T; b] + a * x_k      (a = diag A)

a product over half as many rows, plus two elementwise calls. diagonal_A
makes this choice from n and A's non-zero pattern, for forward and for the
co-state loop in brnn.adjoint alike; a dense A (random_orthogonal_scaled,
or a hand-written checkpoint), stacked params and smaller n keep A in the
product. The two forms agree to rounding, not bit for bit. Measured at
N = 200 (random_instance(3, m=4, r=4, scale=0.3); medians of 11
interleaved rounds, one BLAS thread, 2-vCPU VM), in ms:

    n      forward           co-state loop
           dense  diagonal   dense  diagonal
    32     0.322  0.473      0.498  0.576
    64     0.472  0.580      0.745  0.707
    96     0.670  0.693      1.107  0.891
    112    1.162  0.933      1.037  1.028
    128    1.395  1.083      1.558  1.013
    192    3.320  1.871      2.559  1.883
    256    5.816  3.472      5.961  2.534

Up to n = 112 the two forms traded places between runs; from 128 on the
diagonal one was faster or level in every run.

Over a long horizon a single model with A in the product runs most of the
steps as multiple shooting, and gets the step loop's bits. With
q = step_rate(params) < 1 the state map contracts: two rollouts from
different states close in by a factor q per step, so a rollout started
from 0 has forgotten its start after L(q) steps, the smallest L with
q^L < 2^-64. In floating point it then has the true rollout's bits, and
keeps them, since the arithmetic that follows is the same. The steps
k < B L are cut into B blocks of L steps. A sweep runs every block at
once, one step per iteration: sigma on the (B, n) view of the blocks'
rows, then one np.matmul over the rows and the shared M, which makes the
one gemv per row that ndarray.dot makes for one row (so does each row of
sigma's call). Two sweeps run, always: the first runs block 0 from x0 and
every other block from 0, and the second restarts blocks 1.. from the
first sweep's end of the block before each. Block 0 is then final, and so
is block 1, restarted from block 0's end; block j >= 2 is final when block
j-1 is final and block j restarted from the bits the second sweep ended
block j-1 with: its rows are then the loop's, step for step. The step
loop runs on from the end of the last final block, over whatever is open
and the N - B L steps after the blocks. The result is the loop's in every
case; only the time depends on how many blocks are final.

2^-53 (float64's unit roundoff) in place of 2^-64 left blocks open at
small q, since a state's norm can exceed its entries by some bits: in 36
random rollouts per q (n = 4, 8, 16, four sigmas, 40 blocks each) 1-15%
of the blocks were open at q = 0.05-0.3. At 2^-64 every block was final,
at each q from 0.05 to 0.8.

The regime runs when q < 1, n <= 16 (SHOOT_MAX_N), N >= 512 (SHOOT_MIN_N)
and N >= 12 L (SHOOT_BLOCKS); shooting_block decides from N and n before
it computes q. Measured medians of 21 interleaved runs against the step
loop, one BLAS thread on a 2-vCPU VM (tanh, A = 0.5 I, or (q/2) I for
q <= 0.5, U scaled to the rate q; m = r = 2), with the number of runs in
which shooting was the faster; every block was final in every row:

    q       L    N/L   n    loop       shooting   faster
    0.7625  164  122   1    21.0 ms    4.03 ms    21/21
    0.7625  164  122   8    48.1 ms    18.0 ms    21/21
    0.7625  164  122   16   45.4 ms    22.5 ms    21/21
    0.7625  164  122   24   35.2 ms    25.6 ms    21/21
    0.7625  164  122   32   36.0 ms    26.0 ms    19/21
    0.7625  164  24    24   5.42 ms    4.17 ms    21/21
    0.7625  164  12    8    2.26 ms    1.88 ms    17/21
    0.7625  164  12    16   4.97 ms    3.79 ms    21/21
    0.7625  164  12    24   2.64 ms    2.70 ms     5/21
    0.7625  164  12    32   2.84 ms    3.02 ms     1/21
    0.7625  164  8     8    1.39 ms    1.36 ms    18/21
    0.7625  164  6     8    1.09 ms    1.31 ms     0/21
    0.95    865  12    16   23.7 ms    17.6 ms    17/21
    0.95    865  8     16   16.6 ms    15.3 ms    19/21
    0.5     65   12    8    1.69 ms    1.34 ms    17/21
    0.5     65   12    16   0.974 ms   0.968 ms   12/21
    0.5     65   8     16   0.647 ms   0.805 ms    1/21
    0.2     28   20    16   0.684 ms   0.521 ms   21/21
    0.2     28   12    16   0.421 ms   0.433 ms    3/21
    0.2     28   8     8    0.277 ms   0.341 ms    0/21

Two sweeps cost about 4 L NumPy calls plus two rows of arithmetic per
step, so the regime pays from about 12 blocks; at small L the fixed cost
weighs more, which SHOOT_MIN_N covers. Above n = 16 the per-row products
cost more and the gain shrinks; at n = 48-64 blocks were left open in
some rollouts. Stacked params and the diagonal regime keep the loop.

Overflow is not checked per step: the finished trajectory is checked once
and StateOverflowError names the first non-finite k, as a per-step check
would.
"""

from dataclasses import dataclass
import copy
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigurationError, StateOverflowError


def _logistic(x, out=None):
    # tanh form 0.5 * (1 + tanh(x / 2)) is overflow-free for large |x|
    p = np.tanh(np.multiply(x, 0.5, out=out), out=out)
    p += 1.0
    p *= 0.5
    return p


# tanh' and logistic' form their result in place in one new array: with the
# temporary of 1.0 - h * h, the peak RSS of 5 median epochs at N = 20000,
# n = 8 rose by 2.4 MB (4%)
def _tanh_prime(h):
    p = np.multiply(h, h, out=np.empty_like(h))
    return np.subtract(1.0, p, out=p)


def _logistic_prime(h):
    p = np.subtract(1.0, h, out=np.empty_like(h))
    return np.multiply(p, h, out=p)


class Nonlinearity(NamedTuple):
    """One row of SIGMAS: everything brnn knows about one sigma."""

    f: Callable           # sigma(x, out=None), taking `out` as a NumPy ufunc does
    prime_of_h: Callable  # sigma'(x) as a function of h = sigma(x)
    prime_sup: float      # sup of sigma' over the real line
    bounded: bool         # |h_i| <= 1, so ||h||_2 <= sqrt(n)


# The nonlinearities by name. sigma' is read from h so that a trajectory's
# sigma' comes from its h; relu's is the subderivative 0 at x = 0.
SIGMAS = {
    "tanh": Nonlinearity(np.tanh, _tanh_prime, 1.0, True),
    "logistic": Nonlinearity(_logistic, _logistic_prime, 0.25, True),
    "relu": Nonlinearity(lambda x, out=None: np.maximum(x, 0.0, out=out),
                         lambda h: (h > 0.0).astype(float), 1.0, False),
    "identity": Nonlinearity(np.positive, np.ones_like, 1.0, False),
}
NONLINEARITIES = tuple(SIGMAS)


def nonlinearity(name: str) -> Nonlinearity:
    """SIGMAS' row for `name`, looked up at each call; ConfigurationError
    for a name that has no row."""
    try:
        return SIGMAS[name]
    except KeyError:
        raise ConfigurationError(f"unknown nonlinearity {name!r}") from None


def spectral_norm(A) -> float:
    return float(np.linalg.norm(np.asarray(A, dtype=float), 2))


def step_rate(params) -> float:
    """q = ||A||_2 + sup sigma' * ||U||_2 of a single model: a bound on
    ||A + U diag sigma'_k||_2 at every k of every rollout, so the state map
    contracts at rate q (two rollouts from different states close in by a
    factor q per step) and the co-states decay at rate q."""
    return (spectral_norm(params.A)
            + nonlinearity(params.sigma).prime_sup * spectral_norm(params.U))


def check_seed(seed: int) -> None:
    """The one rule for the seed of a random draw: an integer >= 0."""
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")


# The seven parameters, in the order of BrnnParams' fields and of the
# checkpoint file, each with its shape for one model as the names of its
# sizes, one letter per axis. A is fixed; the other six are trainable.
PARAM_DIMS = {"A": "nn", "U": "nn", "W": "nm", "b": "n", "V": "rn", "Dft": "rm", "c": "r"}


def check_sizes(**sizes) -> None:
    """The one rule for a size (n, m, r, the horizon N): it must be >= 1.
    Raises ConfigurationError naming the first size below 1, in argument
    order."""
    for name, value in sizes.items():
        if value < 1:
            raise ConfigurationError(f"{name} must be >= 1")


def param_shapes(n: int, m: int, r: int, batch: tuple = ()) -> dict:
    """Each parameter's shape at sizes (n, m, r), in PARAM_DIMS' order. The
    trainable ones carry the batch axes of stacked params last; A, which
    the members share, never does. The sizes are checked by check_sizes."""
    size = {"n": n, "m": m, "r": r}
    check_sizes(**size)
    return {name: tuple(map(size.get, dims)) + (() if name == "A" else batch)
            for name, dims in PARAM_DIMS.items()}


@dataclass
class BrnnParams:
    """All model parameters. A is fixed; U, W, b, V, Dft, c are trainable.

    Dft is the direct input-to-output feedthrough matrix. The trainable
    arrays may carry common trailing batch axes, which stack models that
    share A and sigma: U[..., i] is member i's U, and `batch` is (B,) for B
    members, () for one model. The shapes are param_shapes'.
    """

    A: np.ndarray
    U: np.ndarray
    W: np.ndarray
    b: np.ndarray
    V: np.ndarray
    Dft: np.ndarray
    c: np.ndarray
    sigma: str = "tanh"

    def __post_init__(self):
        for name in PARAM_DIMS:
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))

    @property
    def batch(self) -> tuple:
        return self.U.shape[2:]

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.W.shape[1]

    @property
    def r(self) -> int:
        return self.V.shape[0]

    def validate(self):
        shapes = param_shapes(self.n, self.m, self.r, self.batch)
        for name, want in shapes.items():
            got = getattr(self, name).shape
            if got != want:
                raise ConfigurationError(f"{name} has shape {got}, expected {want}")
        nonlinearity(self.sigma)  # raises for a sigma without a row
        for name in shapes:
            a = getattr(self, name)
            # count_nonzero skips the fixed cost of a ufunc reduction, which
            # .all() pays on each of these small arrays
            if np.count_nonzero(np.isfinite(a)) != a.size:
                raise ConfigurationError(f"{name} contains non-finite entries")

    def copy(self) -> "BrnnParams":
        return copy.deepcopy(self)


def _as_samples(a, name):
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise ConfigurationError(f"{name} must be a (N+1, dim) array")
    return a


@dataclass
class Sequence:
    """Input samples s and target samples d, one row per time step k = 0..N."""

    s: np.ndarray  # (N+1, m)
    d: np.ndarray  # (N+1, r)

    def __post_init__(self):
        self.s = _as_samples(self.s, "s")
        self.d = _as_samples(self.d, "d")
        if self.s.shape[0] != self.d.shape[0]:
            raise ConfigurationError(
                f"s has {self.s.shape[0]} rows but d has {self.d.shape[0]}")
        if self.s.shape[0] < 2:
            raise ConfigurationError("sequence needs at least 2 steps (N >= 1)")
        if not (np.isfinite(self.s).all() and np.isfinite(self.d).all()):
            raise ConfigurationError("sequence contains non-finite entries")

    @property
    def N(self) -> int:
        return self.s.shape[0] - 1

    @property
    def m(self) -> int:
        return self.s.shape[1]

    @property
    def r(self) -> int:
        return self.d.shape[1]


@dataclass
class Trajectory:
    """Forward-pass record: states x, hidden h = sigma(x), outputs y, errors
    e = y - d. Each array is time-first, with the batch axes of the params
    last."""

    x: np.ndarray  # (N+1, n) + batch
    h: np.ndarray  # (N+1, n) + batch
    y: np.ndarray  # (N+1, r) + batch
    e: np.ndarray  # (N+1, r) + batch

    @property
    def N(self) -> int:
        return self.x.shape[0] - 1


def forward(params: BrnnParams, seq: Sequence, x0) -> Trajectory:
    """Run the state recursion from x0 over the whole sequence.

    Stacked params (see BrnnParams.batch) run every member from the same x0
    on the same sequence in one recursion, the members along the trailing
    axes of every array. Each step is h_k = sigma(x_k) and
    x_{k+1} = z_k M over the augmented row z_k = [x_k, h_k, s_k, 1], or,
    when diagonal_A says so, the product without A plus a * x_k; when
    shooting_block says so, two multiple-shooting sweeps give most steps
    the loop's bits first (see the module docstring). Raises
    ConfigurationError on a mismatch between the sequence's and the
    params' dimensions or a bad x0, and StateOverflowError (naming the
    first offending k over all members) if the state or output turns
    non-finite.

    params are not validated here but where they enter: train validates
    params0 (its updates keep the shapes and are checked for finiteness),
    load_checkpoint validates what it reads, and the gradient check
    validates its one model before any rollout.
    """
    if seq.m != params.m or seq.r != params.r:
        raise ConfigurationError(
            f"sequence dims (m={seq.m}, r={seq.r}) do not match "
            f"params (m={params.m}, r={params.r})")
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape != (params.n,):
        raise ConfigurationError(f"x0 has shape {x0.shape}, expected ({params.n},)")
    if not np.isfinite(x0).all():
        raise ConfigurationError("x0 contains non-finite entries")

    sigma = nonlinearity(params.sigma).f
    # overflow is detected explicitly, so silence the intermediate warnings
    with np.errstate(over="ignore", invalid="ignore"):
        rollout = _stacked_rollout if params.batch else _rollout
        x, h, y = rollout(params, seq.s, x0, sigma)
    _check_finite(y, "output")
    d = seq.d.reshape(seq.d.shape + (1,) * len(params.batch))
    return Trajectory(x=x, h=h, y=y, e=y - d)


def _augmented(params, s, x0, with_A=True):
    """forward's buffers, laid out as one model's with the member axes of
    stacked params appended, and Z's x and h column views X and H, with
    X[0] = x0. M = [A^T; U^T; W^T; b], (D, n) + batch, maps the augmented
    row z_k = [x_k, h_k, s_k, 1] to x_{k+1} = z_k M, so each step is one
    product; Z, (N+1, D) + batch, is time-first, z_k in row k. Without A
    (the diagonal regime) M leaves out A^T and the product reads z_k from
    h_k on; the rows are filled from the bottom, so both layouts share them.
    """
    N, n, m, batch = len(s) - 1, params.n, params.m, params.batch
    col = (1,) * len(batch)   # trailing axes that broadcast over the members
    D = 2 * n + m + 1
    M = np.empty((D if with_A else D - n, n) + batch)
    if with_A:
        M[:n] = params.A.T.reshape((n, n) + col)
    M[-1 - m - n:-1 - m] = params.U.swapaxes(0, 1)
    M[-1 - m:-1] = params.W.swapaxes(0, 1)
    M[-1] = params.b
    Z = np.empty((N + 1, D) + batch)
    Z[:, 2 * n:D - 1] = s.reshape(s.shape + col)
    Z[:, D - 1] = 1.0
    X, H = Z[:, :n], Z[:, n:2 * n]
    X[0] = x0.reshape((n,) + col)
    return M, Z, X, H


def _rollout(params, s, x0, sigma):
    """x, h and y of one model (see forward); StateOverflowError names the
    first non-finite k of x."""
    N, n = len(s) - 1, params.n
    a = diagonal_A(params.A)
    M, Z, X, H = _augmented(params, s, x0, with_A=a is None)
    # ndarray.dot's vector-matrix path costs less per call than the
    # np.matmul gufunc (and than np.dot, which adds a Python-level dispatch)
    product = np.ndarray.dot
    if a is None:
        L = shooting_block(params, N)
        # the loop goes on from step k0; before it X[0..k0] and H[:k0] hold
        # its own bits
        k0 = _shoot(Z, M, sigma, n, L) if L else 0
        x_k = X[k0]
        for z_k, h_k, x_next in zip(Z[k0:N], H[k0:N], X[k0 + 1:]):
            sigma(x_k, h_k)
            product(z_k, M, x_next)
            x_k = x_next
    else:
        ax, x_k = np.empty(n), X[0]
        # x_{k+1} = [h_k, s_k, 1] @ [U^T; W^T; b] + a * x_k
        for z_k, h_k, x_next in zip(Z[:N, n:], H[:N], X[1:]):
            sigma(x_k, h_k)
            product(z_k, M, x_next)
            np.multiply(a, x_k, ax)
            x_next += ax
            x_k = x_next
    sigma(x_k, H[N])
    x, h = np.ascontiguousarray(X), np.ascontiguousarray(H)
    # x holds every step, so one check after the loop finds the first
    # non-finite k
    _check_finite(x, "state")
    y = h @ params.V.T + s @ params.Dft.T + params.c
    return x, h, y


def _stacked_rollout(params, s, x0, sigma):
    """x, h and y of every member of stacked params, the member axes last
    (see forward). A is broadcast to every member's M, and a step is sigma
    on the contiguous (n,) + batch block of x_k and one einsum over every
    member's x_{k+1} = z_k M: no call per member. The sum over z_k's D
    entries is the einsum's outer loop, not its inner one, so each member
    sums them in order, one product at a time, and gets the same bits in a
    stack of any width, 1 included. StateOverflowError names the first
    non-finite k of x over every member."""
    N = len(s) - 1
    M, Z, X, H = _augmented(params, s, x0)
    for z_k, x_k, h_k, x_next in zip(Z[:N], X[:N], H[:N], X[1:]):
        sigma(x_k, h_k)
        np.einsum("di...,d...->i...", M, z_k, out=x_next)
    sigma(X[N], H[N])
    x, h = np.ascontiguousarray(X), np.ascontiguousarray(H)
    _check_finite(x, "state")
    # y = h V^T + s Dft^T + c, added up as the single model's y; V^T and
    # Dft^T are laid out so that their sums too are the einsums' outer loops
    VT, DT = (np.ascontiguousarray(p.swapaxes(0, 1)) for p in (params.V, params.Dft))
    y = (np.einsum("jr...,kj...->kr...", VT, h)
         + np.einsum("lr...,kl->kr...", DT, s) + params.c)
    return x, h, y


# n from which the step products leave a diagonal A out (the module
# docstring's table)
DIAGONAL_MIN_N = 128

# the multiple-shooting regime's sizes (the module docstring's table): n at
# most SHOOT_MAX_N, N at least SHOOT_MIN_N and at least SHOOT_BLOCKS blocks
SHOOT_MAX_N, SHOOT_MIN_N, SHOOT_BLOCKS = 16, 512, 12


def shooting_block(params, N: int) -> int:
    """Block length L of forward's multiple-shooting regime for a single
    model with A in the product, or 0 where the step loop runs alone.

    L is the smallest L with q^L < 2^-64, q = step_rate(params), so that a
    rollout from 0 has forgotten its start to below rounding after L steps
    (see the module docstring). The regime runs when q < 1,
    n <= SHOOT_MAX_N, N >= SHOOT_MIN_N and N >= SHOOT_BLOCKS * L. N and n
    are tested first, so short rollouts (the gradient check's) take no SVD.
    """
    if N < SHOOT_MIN_N or params.n > SHOOT_MAX_N:
        return 0
    q = step_rate(params)
    if not q < 1.0:
        return 0
    L = 1 if q == 0.0 else int(64.0 / -np.log2(q)) + 1
    return L if N >= SHOOT_BLOCKS * L else 0


def _shoot(Z, M, sigma, n, L) -> int:
    """Fill the first blocks of L steps of forward's buffer Z with the step
    loop's own bits; return the step k0 from which the loop goes on.

    Z[:B*L] (B = (len(Z) - 1) // L) is cut into B blocks. Sweep 1 runs
    every block, block 0 from x0 and every other block from 0; sweep 2
    restarts blocks 1.. from sweep 1's end of the block before each. Block
    0 and then block 1 (started from block 0's end) are final, and block
    j >= 2 is final when block j-1 is final and sweep 2 ended block j-1 with
    the bits block j restarted from: its rows are then the loop's, step for
    step. X[k0] is the end of the last final block. shooting_block's
    N >= SHOOT_BLOCKS * L gives B >= 12, so the two blocks this counts as
    final without a test exist.
    """
    B = (len(Z) - 1) // L
    Zb = Z[:B * L].reshape(B, L, -1)
    starts = Zb[:, 0, :n]
    starts[1:] = 0.0
    ends = np.empty((B, 1, n))
    _sweep(Zb, M, sigma, n, ends)
    starts[1:] = ends[:-1, 0]
    _sweep(Zb[1:], M, sigma, n, ends[1:])
    same = (starts[2:].view(np.uint64) == ends[1:-1, 0].view(np.uint64)).all(axis=1)
    done = 2 + int(np.logical_and.accumulate(same).sum())
    Z[done * L, :n] = ends[done - 1, 0]
    return done * L


def _sweep(Zb, M, sigma, n, ends) -> None:
    """Run every block of Zb (B, L, D) from the state in its first row, all
    blocks at once, one step per iteration; write the state after each
    block's last step to ends (B, 1, n). The broadcast product is one gemv
    per block, the call ndarray.dot makes for one row, and sigma on the
    (B, 1, n) view gives each block the bits of the per-row call."""
    T = Zb[:, :, None, :].swapaxes(0, 1)   # T[i]: row i of every block
    X, H = T[..., :n], T[..., n:2 * n]
    for z_i, x_i, h_i, x_next in zip(T, X, H, [*X[1:], ends]):
        sigma(x_i, h_i)
        np.matmul(z_i, M, x_next)


def diagonal_A(A):
    """A's diagonal when the step products of forward and of the co-state
    loop should leave A out, else None: A is diagonal and n is at least
    DIAGONAL_MIN_N. Below that a step costs its calls, and the extra
    elementwise calls of the diagonal form cost more than the smaller product
    saves. Reads only n and A's non-zero pattern."""
    n = A.shape[0]
    if n < DIAGONAL_MIN_N:
        return None
    a = A.diagonal()
    if np.count_nonzero(A) != np.count_nonzero(a):
        return None
    # a contiguous copy: the view strides across n rows of A
    return a.copy()


def _check_finite(a, what):
    """Raise StateOverflowError naming the first step k at which any member
    of a ((N+1, dim) + batch) is non-finite. One pass over a finite array;
    the per-step mask is built only to name k."""
    if np.isfinite(a).all():
        return
    k = int(np.isfinite(a).reshape(len(a), -1).all(axis=1).argmin())
    raise StateOverflowError(f"non-finite {what} at k={k}", k=k)
