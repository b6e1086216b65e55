"""Recurrent state-space model: parameters, nonlinearities, forward rollout.

The network runs over a finite horizon k = 0..N:

    x[k+1] = A x[k] + U h[k] + W s[k] + b        k = 0..N-1
    h[k]   = sigma(x[k])                         k = 0..N
    y[k]   = V h[k] + Dft s[k] + c               k = 0..N

A is fixed (never trained) and chosen stable so that bounded inputs keep
the state inside a bounded region; see :mod:`brnn.stability`. All
arithmetic is float64. `forward` also runs a stack of models (trainable
parameters with a leading batch axis) in one recursion.

The state recursion cannot be vectorized over k, so `forward` makes each
step one matrix product: it keeps the augmented rows z_k = [x_k, h_k, s_k, 1]
in one time-first buffer and multiplies by M = [A^T; U^T; W^T; b], built
once, so that x_{k+1} = z_k M. A step of one model is two NumPy calls,
sigma(x_k) into h_k and then one ndarray.dot into x_{k+1}, each with its
output array passed positionally. At small n a step costs the calls, not
the arithmetic: on a (19,) row and a (19, 8) M, ndarray.dot's
vector-matrix path takes about 0.78 us per call, np.dot (the same C
routine behind a Python-level dispatch) 1.1 us and the np.matmul gufunc
1.7 us (medians of 3 timings, one BLAS thread, 2-vCPU VM).
Stacked params keep np.matmul, which is the batched product on a 3-D M.

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

Overflow is not checked per step: the finished trajectory is checked once
and StateOverflowError names the first non-finite k, as a per-step check
would.
"""

from dataclasses import dataclass
import copy

import numpy as np

from .errors import ConfigurationError, StateOverflowError


def _logistic(x, out=None):
    # tanh form 0.5 * (1 + tanh(x / 2)) is overflow-free for large |x|
    p = np.tanh(np.multiply(x, 0.5, out=out), out=out)
    p += 1.0
    p *= 0.5
    return p


# each takes an optional `out` array, as a NumPy ufunc does
_SIGMA = {
    "tanh": np.tanh,
    "logistic": _logistic,
    "relu": lambda x, out=None: np.maximum(x, 0.0, out=out),
    "identity": np.positive,
}
NONLINEARITIES = tuple(_SIGMA)

# tanh' and logistic' form their result in place in one new array: with the
# temporary of 1.0 - h * h, the peak RSS of 5 median epochs at N = 20000,
# n = 8 rose by 2.4 MB (4%)
def _tanh_prime(h):
    p = np.multiply(h, h, out=np.empty_like(h))
    return np.subtract(1.0, p, out=p)


def _logistic_prime(h):
    p = np.subtract(1.0, h, out=np.empty_like(h))
    return np.multiply(p, h, out=p)


# sigma'(x) as a function of h = sigma(x), so that a trajectory's sigma' is
# read from its h; relu's is the subderivative 0 at x = 0
SIGMA_PRIME_OF_H = {
    "tanh": _tanh_prime,
    "logistic": _logistic_prime,
    "relu": lambda h: (h > 0.0).astype(float),
    "identity": np.ones_like,
}


def nonlinearity_derivative(kind: str, x) -> np.ndarray:
    """Diagonal of sigma'(x), stored as a vector for Hadamard application."""
    if kind not in _SIGMA:
        raise ConfigurationError(f"unknown nonlinearity {kind!r}")
    return SIGMA_PRIME_OF_H[kind](_SIGMA[kind](np.asarray(x, dtype=float)))


@dataclass(frozen=True)
class Dims:
    """Problem sizes: state n, input m, output r, final horizon index N.

    A sequence has N+1 samples, k = 0..N.
    """

    n: int
    m: int
    r: int
    N: int

    def __post_init__(self):
        for name in ("n", "m", "r", "N"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")


@dataclass
class BrnnParams:
    """All model parameters. A is fixed; U, W, b, V, Dft, c are trainable.

    Dft is the direct input-to-output feedthrough matrix. The trainable
    arrays may carry a common leading batch axis, which stacks B models that
    share A and sigma; `batch` is then (B,), and () for one model.
    """

    A: np.ndarray      # n x n, fixed and shared
    U: np.ndarray      # batch + (n, n)
    W: np.ndarray      # batch + (n, m)
    b: np.ndarray      # batch + (n,)
    V: np.ndarray      # batch + (r, n)
    Dft: np.ndarray    # batch + (r, m)
    c: np.ndarray      # batch + (r,)
    sigma: str = "tanh"

    def __post_init__(self):
        for name in ("A", "U", "W", "b", "V", "Dft", "c"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))

    @property
    def batch(self) -> tuple:
        return self.U.shape[:-2]

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.W.shape[-1]

    @property
    def r(self) -> int:
        return self.V.shape[-2]

    def validate(self):
        n, m, r, batch = self.n, self.m, self.r, self.batch
        shapes = {
            "A": (n, n), "U": batch + (n, n), "W": batch + (n, m),
            "b": batch + (n,), "V": batch + (r, n), "Dft": batch + (r, m),
            "c": batch + (r,),
        }
        for name, want in shapes.items():
            got = getattr(self, name).shape
            if got != want:
                raise ConfigurationError(f"{name} has shape {got}, expected {want}")
        if self.sigma not in NONLINEARITIES:
            raise ConfigurationError(f"unknown nonlinearity {self.sigma!r}")
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
    e = y - d. Each array has the batch axes of the params in front."""

    x: np.ndarray  # batch + (N+1, n)
    h: np.ndarray  # batch + (N+1, n)
    y: np.ndarray  # batch + (N+1, r)
    e: np.ndarray  # batch + (N+1, r)

    @property
    def N(self) -> int:
        return self.x.shape[-2] - 1


def forward(params: BrnnParams, seq: Sequence, x0) -> Trajectory:
    """Run the state recursion from x0 over the whole sequence.

    Stacked params (see BrnnParams.batch) run every member from the same x0
    on the same sequence in one recursion. Each step is h_k = sigma(x_k) and
    x_{k+1} = z_k M over the augmented row z_k = [x_k, h_k, s_k, 1], or,
    when diagonal_A says so, the product without A plus a * x_k (see the
    module docstring). Raises ConfigurationError on a mismatch between the
    sequence's and the params' dimensions or a bad x0, and
    StateOverflowError (naming the first offending k over all members) if
    the state or output turns non-finite.

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

    N, n, m, batch = seq.N, params.n, params.m, params.batch
    s = seq.s
    sigma = _SIGMA[params.sigma]
    # stacked params keep the dense product, their one batched call per step
    a = None if batch else diagonal_A(params.A)

    # M = [A^T; U^T; W^T; b] maps the augmented row z_k = [x_k, h_k, s_k, 1]
    # to x_{k+1} = z_k M, so each step is one product. A stacked model's row
    # is (1, D) and its M is batch + (D, n); a single model's row is (D,).
    # In the diagonal regime M leaves out A^T and the product reads z_k from
    # h_k on; the rows are filled from the bottom, so both layouts share them.
    D = 2 * n + m + 1
    M = np.empty(batch + (D if a is None else D - n, n))
    if a is None:
        M[..., :n, :] = params.A.T
    M[..., -1 - m - n:-1 - m, :] = params.U.swapaxes(-1, -2)
    M[..., -1 - m:-1, :] = params.W.swapaxes(-1, -2)
    M[..., -1, :] = params.b
    lead = batch + (1,) if batch else ()
    # time-first: Z[k] is row k of every member; X and H are column views
    Z = np.empty((N + 1,) + lead + (D,))
    Z[..., 2 * n:D - 1] = s.reshape((N + 1,) + (1,) * len(lead) + (m,))
    Z[..., D - 1] = 1.0
    X, H = Z[..., :n], Z[..., n:2 * n]
    X[0] = x0
    # overflow is detected explicitly, so silence the intermediate warnings
    with np.errstate(over="ignore", invalid="ignore"):
        # ndarray.dot's vector-matrix path costs less per call than the
        # np.matmul gufunc (and than np.dot, which adds a Python-level
        # dispatch), but on a stacked (3-D) M it is not a batched product
        product = np.matmul if batch else np.ndarray.dot
        x_k = X[0]
        if a is None:
            for z_k, h_k, x_next in zip(Z[:N], H[:N], X[1:]):
                sigma(x_k, h_k)
                product(z_k, M, x_next)
                x_k = x_next
        else:
            ax = np.empty(n)
            # x_{k+1} = [h_k, s_k, 1] @ [U^T; W^T; b] + a * x_k
            for z_k, h_k, x_next in zip(Z[:N, n:], H[:N], X[1:]):
                sigma(x_k, h_k)
                product(z_k, M, x_next)
                np.multiply(a, x_k, ax)
                x_next += ax
                x_k = x_next
        sigma(x_k, H[N])
        x, h = _batch_first(X, batch), _batch_first(H, batch)
        # x holds every step, so one check after the loop finds the first
        # non-finite k
        _check_finite(x, "state")
        y = (h @ params.V.swapaxes(-1, -2) + s @ params.Dft.swapaxes(-1, -2)
             + params.c[..., None, :])
    _check_finite(y, "output")
    return Trajectory(x=x, h=h, y=y, e=y - seq.d)


# n from which the step products leave a diagonal A out (the module
# docstring's table)
DIAGONAL_MIN_N = 128


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


def _batch_first(cols, batch):
    """Contiguous batch + (N+1, dim) copy of time-first columns of Z."""
    if batch:
        # cols is (N+1,) + batch + (1, dim): the step axis takes the place of
        # the unit row axis
        cols = cols.swapaxes(0, -2).reshape(batch + (cols.shape[0], cols.shape[-1]))
    return np.ascontiguousarray(cols)


def _check_finite(a, what):
    """Raise StateOverflowError naming the first step k at which any member
    of a (batch + (N+1, dim)) is non-finite. One pass over a finite array;
    the per-row mask is built only to name k."""
    if np.isfinite(a).all():
        return
    bad = ~np.isfinite(a).all(axis=-1)
    k = int(np.argwhere(bad)[:, -1].min())
    raise StateOverflowError(f"non-finite {what} at k={k}", k=k)
