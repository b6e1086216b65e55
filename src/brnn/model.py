"""Recurrent state-space model: parameters, nonlinearities, forward rollout.

The network runs over a finite horizon k = 0..N:

    x[k+1] = A x[k] + U h[k] + W s[k] + b        k = 0..N-1
    h[k]   = sigma(x[k])                         k = 0..N
    y[k]   = V h[k] + Dft s[k] + c               k = 0..N

A is fixed (never trained) and chosen stable so that bounded inputs keep
the state inside a bounded region; see :mod:`brnn.stability`. All
arithmetic is float64.
"""

from dataclasses import dataclass
import copy

import numpy as np

from .errors import ConfigurationError, StateOverflowError

NONLINEARITIES = ("tanh", "logistic", "relu", "identity")


def _logistic(x):
    # tanh form is overflow-free for large |x|
    return 0.5 * (1.0 + np.tanh(0.5 * x))


_SIGMA = {
    "tanh": np.tanh,
    "logistic": _logistic,
    "relu": lambda x: np.maximum(x, 0.0),
    "identity": lambda x: np.positive(x),
}


def apply_nonlinearity(kind: str, x) -> np.ndarray:
    """Elementwise sigma(x)."""
    try:
        f = _SIGMA[kind]
    except KeyError:
        raise ConfigurationError(f"unknown nonlinearity {kind!r}") from None
    return f(np.asarray(x, dtype=float))


def nonlinearity_derivative(kind: str, x) -> np.ndarray:
    """Diagonal of sigma'(x), stored as a vector for Hadamard application.

    relu uses the subderivative 0 at x = 0.
    """
    x = np.asarray(x, dtype=float)
    if kind == "tanh":
        t = np.tanh(x)
        return 1.0 - t * t
    if kind == "logistic":
        p = _logistic(x)
        return p * (1.0 - p)
    if kind == "relu":
        return (x > 0.0).astype(float)
    if kind == "identity":
        return np.ones_like(x)
    raise ConfigurationError(f"unknown nonlinearity {kind!r}")


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
        for name in ("n", "m", "r"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        if self.N < 1:
            raise ConfigurationError("N must be >= 1")


@dataclass
class BrnnParams:
    """All model parameters. A is fixed; U, W, b, V, Dft, c are trainable.

    Dft is the direct input-to-output feedthrough matrix.
    """

    A: np.ndarray      # n x n, fixed
    U: np.ndarray      # n x n
    W: np.ndarray      # n x m
    b: np.ndarray      # n
    V: np.ndarray      # r x n
    Dft: np.ndarray    # r x m
    c: np.ndarray      # r
    sigma: str = "tanh"

    def __post_init__(self):
        for name in ("A", "U", "W", "b", "V", "Dft", "c"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))

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
        n, m, r = self.n, self.m, self.r
        shapes = {
            "A": (n, n), "U": (n, n), "W": (n, m), "b": (n,),
            "V": (r, n), "Dft": (r, m), "c": (r,),
        }
        for name, want in shapes.items():
            got = getattr(self, name).shape
            if got != want:
                raise ConfigurationError(f"{name} has shape {got}, expected {want}")
        if self.sigma not in NONLINEARITIES:
            raise ConfigurationError(f"unknown nonlinearity {self.sigma!r}")
        for name in shapes:
            if not np.isfinite(getattr(self, name)).all():
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
    """Forward-pass record: states x, hidden h = sigma(x), outputs y, errors e = y - d."""

    x: np.ndarray  # (N+1, n)
    h: np.ndarray  # (N+1, n)
    y: np.ndarray  # (N+1, r)
    e: np.ndarray  # (N+1, r)

    @property
    def N(self) -> int:
        return self.x.shape[0] - 1


def forward(params: BrnnParams, seq: Sequence, x0) -> Trajectory:
    """Run the state recursion from x0 over the whole sequence.

    Raises ConfigurationError on dimension mismatch and StateOverflowError
    (naming the first offending k) if the state or output turns non-finite.
    """
    params.validate()
    if seq.m != params.m or seq.r != params.r:
        raise ConfigurationError(
            f"sequence dims (m={seq.m}, r={seq.r}) do not match "
            f"params (m={params.m}, r={params.r})")
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape != (params.n,):
        raise ConfigurationError(f"x0 has shape {x0.shape}, expected ({params.n},)")
    if not np.isfinite(x0).all():
        raise ConfigurationError("x0 contains non-finite entries")

    N, n = seq.N, params.n
    A, U, s = params.A, params.U, seq.s
    sigma = _SIGMA[params.sigma]

    x = np.empty((N + 1, n))
    h = np.empty((N + 1, n))
    x[0] = x0
    # overflow is detected explicitly, so silence the intermediate warnings
    with np.errstate(over="ignore", invalid="ignore"):
        # the input drive W s[k] + b does not depend on the state
        drive = s[:N] @ params.W.T + params.b
        for k in range(N):
            hk = sigma(x[k])
            h[k] = hk
            xn = A @ x[k] + U @ hk + drive[k]
            if not np.isfinite(xn).all():
                raise StateOverflowError(f"non-finite state at k={k + 1}", k=k + 1)
            x[k + 1] = xn
        h[N] = sigma(x[N])

        y = h @ params.V.T + s @ params.Dft.T + params.c
    if not np.isfinite(y).all():
        bad = int(np.argwhere(~np.isfinite(y).all(axis=1))[0, 0])
        raise StateOverflowError(f"non-finite output at k={bad}", k=bad)
    return Trajectory(x=x, h=h, y=y, e=y - seq.d)
