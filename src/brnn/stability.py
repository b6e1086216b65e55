"""BIBO bound and Liapunov invariant-region analysis for the state matrix.

Writing the forcing as M_k := U h_k + W s_k + b, the state recursion is
x_{k+1} = A x_k + M_k. When ||A||_2 < 1 and ||M_k||_2 <= M_sup every
rollout obeys

    ||x_k||_2 <= ||A||_2^k ||x0||_2 + M_sup / (1 - ||A||_2).

Every bound is a closed form; none comes from running the model. M_sup
needs a bound on ||h_k||: sqrt(n) for tanh/logistic; for relu/identity,
where ||h|| <= ||x||, the small-gain bound (Miller & Hardt, "Stable
recurrent models", arXiv:1805.10369): with a = ||A||_2, u = ||U||_2 and
a + u < 1,

    ||x_k||_2 <= (a + u)^k ||x0||_2 + (||W||_2 s_sup + ||b||_2) / (1 - a - u),

so there the transient decays at the rate a + u, not ||A||_2.

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

A certificate whose numbers overflow float64 is no certificate: it raises
UnboundedRegionError, as a missing one does.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, UnboundedRegionError
from .model import BrnnParams

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
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
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


def _check_bound(name: str, value: float) -> None:
    """A sup-norm bound given as input must be a finite number >= 0; a
    negative, nan or infinite one yields no bound at all."""
    if not 0.0 <= value < np.inf:
        raise ConfigurationError(f"{name} must be finite and >= 0, got {value!r}")


def hidden_sup(params: BrnnParams, s_sup: float) -> float:
    """Bound on ||h_k||_2 over rollouts from x0 = 0 with ||s_k||_2 <= s_sup.

    tanh/logistic: sqrt(n), and the state transient decays at ||A||_2.
    relu/identity: ||h|| <= ||x||, and ||x_{k+1}|| <= (a + u) ||x_k||
    + ||W||_2 s_sup + ||b||_2 with a = ||A||_2, u = ||U||_2, so the bound
    is (||W||_2 s_sup + ||b||_2) / (1 - a - u) and the transient decays at
    a + u. Raises UnboundedRegionError when a + u >= 1.
    """
    _check_bound("s_sup", s_sup)
    if params.sigma in ("tanh", "logistic"):
        return float(np.sqrt(params.n))
    rate = spectral_norm(params.A) + spectral_norm(params.U)
    if rate >= 1.0:
        raise UnboundedRegionError(f"||A||_2 + ||U||_2 is {rate} >= 1, so a "
                                   f"{params.sigma} state has no small-gain bound")
    return ((spectral_norm(params.W) * s_sup + float(np.linalg.norm(params.b)))
            / (1.0 - rate))


def m_sup_bound(params: BrnnParams, s_sup: float) -> float:
    """Worst-case forcing norm ||U||2*h_sup + ||W||2*s_sup + ||b||2."""
    m_sup = (spectral_norm(params.U) * hidden_sup(params, s_sup)
             + spectral_norm(params.W) * s_sup
             + float(np.linalg.norm(params.b)))
    if not m_sup < np.inf:  # also catches 0 * inf
        raise UnboundedRegionError(f"M_sup overflows float64 at s_sup = {s_sup!r}")
    return m_sup


def bibo_bound(params: BrnnParams, s_sup: float) -> float:
    """Asymptotic state bound M_sup / (1 - ||A||_2). Requires ||A||_2 < 1.

    For the transient from x0, add rate^k ||x0||: rate = ||A||_2 for
    tanh/logistic, ||A||_2 + ||U||_2 for relu/identity (see hidden_sup).
    """
    a = spectral_norm(params.A)
    if a >= 1.0:
        raise UnboundedRegionError(f"spectral norm of A is {a} >= 1")
    bound = m_sup_bound(params, s_sup) / (1.0 - a)
    if not bound < np.inf:
        raise UnboundedRegionError(f"bibo_bound overflows float64 at s_sup = {s_sup!r}")
    return bound


@dataclass
class LyapunovRegion:
    """Ellipsoid data certifying Delta V < 0 outside a bounded region."""

    G: np.ndarray          # symmetric PSD square root of I - A^T A
    x_star2: np.ndarray    # worst-case ellipsoid center over ||M|| <= M_sup
    D_lyap: float          # M_sup^2 + ||x_star2||^2
    radius: float          # sqrt(D_lyap)
    M_sup: float


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
    # an overflow becomes inf, checked below; np.float64's ** is the C pow
    # that float's ** calls, but returns inf where float's raises
    with np.errstate(over="ignore", invalid="ignore"):
        x_star2 = M_sup * svals[0] * u[:, 0]
        D_lyap = float(np.float64(M_sup) ** 2 + x_star2 @ x_star2)
    if not D_lyap < np.inf:
        raise UnboundedRegionError(f"D_lyap overflows float64 at M_sup = {M_sup!r}")
    j = int(np.abs(x_star2).argmax())
    if x_star2[j] < 0.0:
        x_star2 = -x_star2
    return LyapunovRegion(G=G, x_star2=x_star2, D_lyap=D_lyap,
                          radius=float(np.sqrt(D_lyap)), M_sup=M_sup)


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
