"""BIBO bound and Liapunov invariant-region analysis for the state matrix.

Writing the forcing as M_k := U h_k + W s_k + b, the state recursion is
x_{k+1} = A x_k + M_k. When ||A||_2 < 1 and ||M_k||_2 <= M_sup every
rollout obeys

    ||x_k||_2 <= ||A||_2^k ||x0||_2 + M_sup / (1 - ||A||_2).

For the quadratic Liapunov candidate V(x) = x^T x the difference along
trajectories completes the square as

    Delta V = ||A x + M||^2 - ||x||^2 = -||G x - x2(M)||^2 + D(M)

with G^T G = I - A^T A, x2(M) = (G G^T)^{-1} G A^T M and
D(M) = M^T M + x2(M)^T x2(M), so Delta V < 0 strictly outside the
ellipsoid ||G x - x2(M)||^2 <= D(M). The center moves with M; the single
region certified for *every* ||M|| <= M_sup is the conservative exterior

    ||G x||_2 > ||x*_2||_2 + radius,

where x*_2 is the worst-case center over the M-ball and
radius = sqrt(M_sup^2 + ||x*_2||^2) = sqrt(D_lyap).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, UnboundedRegionError
from .model import BrnnParams, forward, Sequence

A_SCHEMES = ("scaled_identity", "random_diagonal", "random_orthogonal_scaled")


def spectral_norm(A) -> float:
    return float(np.linalg.norm(np.asarray(A, dtype=float), 2))


def spectral_radius(A) -> float:
    return float(np.abs(np.linalg.eigvals(np.asarray(A, dtype=float))).max())


def make_stable_A(n: int, scheme: str = "scaled_identity",
                  alpha_A: float = 0.5, seed: int = 0) -> np.ndarray:
    """Construct an n x n matrix with spectral norm <= alpha_A.

    scaled_identity gives alpha_A * I; random_diagonal draws diagonal
    entries uniform in [-alpha_A, alpha_A]; random_orthogonal_scaled
    conjugates such a diagonal by a random orthogonal Q.
    """
    if not 0.0 < alpha_A <= 1.0:
        raise ConfigurationError("alpha_A must be in (0, 1]")
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    if scheme == "scaled_identity":
        return alpha_A * np.eye(n)
    rng = np.random.default_rng(seed)
    d = rng.uniform(-alpha_A, alpha_A, n)
    if scheme == "random_diagonal":
        return np.diag(d)
    if scheme == "random_orthogonal_scaled":
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        return q @ np.diag(d) @ q.T
    raise ConfigurationError(f"unknown scheme {scheme!r}")


def hidden_sup(params: BrnnParams, s_sup: float, probe_steps: int = 2000,
               probe_seed: int = 0) -> float:
    """Bound on ||h_k||_2. sqrt(n) for saturating nonlinearities; for
    relu/identity the sup is measured on a seeded probe rollout with
    inputs of norm s_sup."""
    if params.sigma in ("tanh", "logistic"):
        return float(np.sqrt(params.n))
    rng = np.random.default_rng(probe_seed)
    dirs = rng.standard_normal((probe_steps + 1, params.m))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    seq = Sequence(s=s_sup * dirs, d=np.zeros((probe_steps + 1, params.r)))
    traj = forward(params, seq, np.zeros(params.n))
    return float(np.linalg.norm(traj.h, axis=1).max())


def _check_bound(name: str, value: float) -> None:
    """A sup-norm bound given as input must be a finite number >= 0; a
    negative, nan or infinite one yields no bound at all."""
    if not 0.0 <= value < np.inf:
        raise ConfigurationError(f"{name} must be finite and >= 0, got {value!r}")


def m_sup_bound(params: BrnnParams, s_sup: float) -> float:
    """Worst-case forcing norm ||U||2*h_sup + ||W||2*s_sup + ||b||2."""
    _check_bound("s_sup", s_sup)
    return (spectral_norm(params.U) * hidden_sup(params, s_sup)
            + spectral_norm(params.W) * s_sup
            + float(np.linalg.norm(params.b)))


def bibo_bound(params: BrnnParams, s_sup: float) -> float:
    """Asymptotic state bound M_sup / (1 - ||A||_2); add ||A||^k ||x0||
    for the transient. Requires ||A||_2 < 1."""
    a = spectral_norm(params.A)
    if a >= 1.0:
        raise UnboundedRegionError(f"spectral norm of A is {a} >= 1")
    return m_sup_bound(params, s_sup) / (1.0 - a)


@dataclass
class LyapunovRegion:
    """Ellipsoid data certifying Delta V < 0 outside a bounded region."""

    G: np.ndarray          # symmetric PSD square root of I - A^T A
    x_star2: np.ndarray    # worst-case ellipsoid center over ||M|| <= M_sup
    D_lyap: float          # M_sup^2 + ||x_star2||^2
    radius: float          # sqrt(D_lyap)
    M_sup: float

    def is_certified_exterior(self, x) -> bool:
        """True when Delta V < 0 is guaranteed at x for every ||M|| <= M_sup."""
        gx = float(np.linalg.norm(self.G @ np.asarray(x, dtype=float)))
        return gx > float(np.linalg.norm(self.x_star2)) + self.radius


def lyapunov_region(A, M_sup: float) -> LyapunovRegion:
    """Factor I - A^T A and build the certified region for ||M|| <= M_sup."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    _check_bound("M_sup", M_sup)
    S = np.eye(A.shape[0]) - A.T @ A
    S = 0.5 * (S + S.T)
    evals, vecs = np.linalg.eigh(S)
    if evals.min() <= 0.0:
        raise UnboundedRegionError("I - A^T A is not positive definite "
                                   f"(spectral norm of A is {spectral_norm(A)})")
    G = vecs @ np.diag(np.sqrt(evals)) @ vecs.T
    G = 0.5 * (G + G.T)

    K = np.linalg.solve(G @ G.T, G @ A.T)  # maps M to its ellipsoid center
    u, svals, _ = np.linalg.svd(K)
    x_star2 = M_sup * svals[0] * u[:, 0]
    j = int(np.abs(x_star2).argmax())
    if x_star2[j] < 0.0:
        x_star2 = -x_star2
    D_lyap = M_sup ** 2 + float(x_star2 @ x_star2)
    return LyapunovRegion(G=G, x_star2=x_star2, D_lyap=D_lyap,
                          radius=float(np.sqrt(D_lyap)), M_sup=M_sup)


def ellipsoid_center(G: np.ndarray, A, M) -> np.ndarray:
    """Per-forcing center x2(M) = (G G^T)^{-1} G A^T M."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    return np.linalg.solve(G @ G.T, G @ (A.T @ np.asarray(M, dtype=float)))


def ellipsoid_threshold(G: np.ndarray, A, M) -> float:
    """Per-forcing offset D(M) = ||M||^2 + ||x2(M)||^2."""
    M = np.asarray(M, dtype=float)
    x2 = ellipsoid_center(G, A, M)
    return float(M @ M + x2 @ x2)


def delta_v(A, x, M) -> float:
    """Liapunov difference ||A x + M||^2 - ||x||^2 along one step."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    x = np.asarray(x, dtype=float)
    step = A @ x + np.asarray(M, dtype=float)
    return float(step @ step - x @ x)


@dataclass
class StabilityReport:
    spectral_radius: float
    spectral_norm: float
    bibo: float            # M_sup / (1 - ||A||_2)
    region: LyapunovRegion


def stability_report(A, M_sup: float) -> StabilityReport:
    """Diagnostics for a fixed A under forcing bounded by M_sup."""
    _check_bound("M_sup", M_sup)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    norm = spectral_norm(A)
    if norm >= 1.0:
        raise UnboundedRegionError(f"spectral norm of A is {norm} >= 1")
    return StabilityReport(
        spectral_radius=spectral_radius(A), spectral_norm=norm,
        bibo=M_sup / (1.0 - norm), region=lyapunov_region(A, M_sup))
