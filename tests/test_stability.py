import warnings

import numpy as np
import pytest

from brnn.errors import ConfigurationError, UnboundedRegionError
from brnn.model import BrnnParams, Sequence, forward
from brnn.stability import (bibo_bound, hidden_sup, lyapunov_region,
                            make_stable_A, m_sup_bound, spectral_norm,
                            stability_report)


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


def is_certified_exterior(region, x) -> bool:
    """True when Delta V < 0 is guaranteed at x for every ||M|| <= M_sup."""
    gx = float(np.linalg.norm(region.G @ np.asarray(x, dtype=float)))
    return gx > float(np.linalg.norm(region.x_star2)) + region.radius


def random_stable(rng, n, norm_target):
    """General (non-symmetric) matrix with spectral norm == norm_target."""
    R = rng.standard_normal((n, n))
    return R / spectral_norm(R) * norm_target


def forcing_params(A, U=0.0, W=1.0, b=0.0, sigma="tanh"):
    n = A.shape[0]
    return BrnnParams(A=A, U=U * np.ones((n, n)), W=W * np.ones((n, 1)),
                      b=b * np.ones(n), V=np.ones((1, n)), Dft=np.zeros((1, 1)),
                      c=np.zeros(1), sigma=sigma)


def test_make_stable_A_scaled_identity():
    A = make_stable_A(3, "scaled_identity", 0.5)
    np.testing.assert_array_equal(A, 0.5 * np.eye(3))
    # alpha = 1 is the allowed marginal case
    assert spectral_norm(make_stable_A(2, "scaled_identity", 1.0)) == 1.0


@pytest.mark.parametrize("scheme", ["scaled_identity", "random_diagonal",
                                    "random_orthogonal_scaled"])
@pytest.mark.parametrize("n,alpha,seed", [(1, 0.5, 0), (4, 0.9, 1), (8, 1.0, 2)])
def test_make_stable_A_norm_oracle(scheme, n, alpha, seed):
    A = make_stable_A(n, scheme, alpha, seed=seed)
    assert np.linalg.svd(A, compute_uv=False).max() <= alpha + 1e-12


def test_make_stable_A_validation():
    with pytest.raises(ConfigurationError):
        make_stable_A(3, "scaled_identity", 0.0)
    with pytest.raises(ConfigurationError):
        make_stable_A(3, "scaled_identity", 1.1)
    with pytest.raises(ConfigurationError):
        make_stable_A(3, "hurwitz", 0.5)
    # also where the scheme draws nothing
    with pytest.raises(ConfigurationError, match="seed"):
        make_stable_A(3, "scaled_identity", 0.5, seed=-1)


def test_bibo_bound_zero_forcing():
    params = forcing_params(0.5 * np.eye(2), U=0.0, W=0.0, b=0.0)
    assert bibo_bound(params, 1.0) == 0.0


def test_bibo_bound_scalar_values():
    # M_sup = ||W|| * s_sup = 1 -> bound = 1/(1-0.5) = 2 and 1/(1-0.9) = 10
    params = forcing_params(np.array([[0.5]]))
    assert bibo_bound(params, 1.0) == pytest.approx(2.0, rel=1e-12)
    params9 = forcing_params(np.array([[0.9]]))
    assert bibo_bound(params9, 1.0) == pytest.approx(10.0, rel=1e-12)


def test_bibo_bound_unstable_raises():
    params = forcing_params(np.array([[1.0]]))
    with pytest.raises(UnboundedRegionError):
        bibo_bound(params, 1.0)


@pytest.mark.parametrize("bad", [-0.1, np.nan, np.inf, -np.inf])
def test_invalid_input_bounds_raise(bad):
    params = forcing_params(0.5 * np.eye(2), U=0.3)
    with pytest.raises(ConfigurationError, match="s_sup must be finite and >= 0"):
        m_sup_bound(params, bad)
    with pytest.raises(ConfigurationError, match="s_sup must be finite and >= 0"):
        bibo_bound(params, bad)
    for check in (stability_report, lyapunov_region):
        with pytest.raises(ConfigurationError, match="M_sup must be finite and >= 0"):
            check(params.A, bad)


def test_m_sup_bound_composition():
    n = 3
    params = forcing_params(0.5 * np.eye(n), U=0.2, W=0.4, b=0.1)
    expect = (spectral_norm(params.U) * np.sqrt(n)
              + spectral_norm(params.W) * 2.0 + np.linalg.norm(params.b))
    assert m_sup_bound(params, 2.0) == pytest.approx(expect, rel=1e-12)


def test_hidden_sup_measured_for_identity():
    # identity: h = x
    params = forcing_params(0.5 * np.eye(2), U=0.0, W=0.3, sigma="identity")
    h_sup = hidden_sup(params, 1.0)
    assert 0.0 < h_sup <= spectral_norm(params.W) / (1 - 0.5) + 1e-9


@pytest.mark.parametrize("sigma", ["tanh", "relu"])
def test_hidden_sup_rejects_invalid_input_bounds(sigma):
    params = forcing_params(0.5 * np.eye(2), U=0.2, sigma=sigma)
    for bad in (-0.1, np.nan, np.inf):
        with pytest.raises(ConfigurationError, match="s_sup must be finite and >= 0"):
            hidden_sup(params, bad)


def small_gain_network(rng, sigma):
    """Random network with n <= 8 and ||A||_2 + ||U||_2 = rate < 1."""
    n, m = int(rng.integers(1, 9)), int(rng.integers(1, 4))
    rate, share = rng.uniform(0.3, 0.97), rng.uniform(0.1, 0.9)
    return BrnnParams(A=random_stable(rng, n, share * rate),
                      U=random_stable(rng, n, (1.0 - share) * rate),
                      W=rng.uniform(-1, 1, (n, m)), b=rng.uniform(-0.5, 0.5, n),
                      V=np.ones((1, n)), Dft=np.zeros((1, m)), c=np.zeros(1),
                      sigma=sigma)


@pytest.mark.parametrize("sigma", ["relu", "identity"])
def test_small_gain_bounds_contain_rollouts(sigma):
    """20 random networks with a + u < 1 and ||s_k|| <= 1, 10^4 steps: from
    x0 = 0 every ||h_k|| is within hidden_sup, and from a random x0 every
    ||x_k|| within bibo_bound + (a + u)^k ||x0||."""
    rng = np.random.default_rng(31 if sigma == "relu" else 32)
    steps = 10_000
    for _ in range(20):
        params = small_gain_network(rng, sigma)
        rate = spectral_norm(params.A) + spectral_norm(params.U)
        dirs = rng.standard_normal((steps + 1, params.m))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        seq = Sequence(s=dirs * rng.uniform(0, 1, (steps + 1, 1)),
                       d=np.zeros((steps + 1, 1)))
        traj = forward(params, seq, np.zeros(params.n))
        assert np.linalg.norm(traj.h, axis=1).max() <= hidden_sup(params, 1.0) + 1e-9

        x0 = rng.uniform(-5, 5, params.n)
        traj = forward(params, seq, x0)
        allowed = (bibo_bound(params, 1.0)
                   + rate ** np.arange(steps + 1) * np.linalg.norm(x0) + 1e-9)
        assert (np.linalg.norm(traj.x, axis=1) <= allowed).all()


@pytest.mark.parametrize("sigma", ["relu", "identity"])
def test_small_gain_bound_is_reached_by_a_constant_input(sigma):
    # A = 0.5I, U = 0.4I, W = I, b = 0: h_sup = 1/(1 - 0.9) = 10, M_sup = 5,
    # bibo = 10, and the constant unit input e1 drives x_k to 10 e1
    eye, steps = np.eye(2), 10_000
    params = BrnnParams(A=0.5 * eye, U=0.4 * eye, W=eye, b=np.zeros(2), V=eye,
                        Dft=np.zeros((2, 2)), c=np.zeros(2), sigma=sigma)
    assert hidden_sup(params, 1.0) == pytest.approx(10.0, rel=1e-12)
    assert m_sup_bound(params, 1.0) == pytest.approx(5.0, rel=1e-12)
    bound = bibo_bound(params, 1.0)
    assert bound == pytest.approx(10.0, rel=1e-12)
    s = np.zeros((steps + 1, 2))
    s[:, 0] = 1.0
    traj = forward(params, Sequence(s=s, d=np.zeros((steps + 1, 2))), np.zeros(2))
    norms = np.linalg.norm(traj.x, axis=1)
    assert norms.max() <= bound + 1e-9 and norms[-1] == pytest.approx(bound, rel=1e-12)
    assert np.linalg.norm(traj.h, axis=1).max() <= hidden_sup(params, 1.0) + 1e-9


@pytest.mark.parametrize("sigma", ["relu", "identity"])
def test_small_gain_fails_without_a_certificate(sigma):
    # ||A||_2 = 0.5 < 1, but ||A||_2 + ||U||_2 = 0.5 + 0.6: A + U has eigenvalue 1.1
    params = forcing_params(0.5 * np.eye(2), U=0.3, sigma=sigma)
    for bound in (hidden_sup, m_sup_bound, bibo_bound):
        with pytest.raises(UnboundedRegionError, match=r"\|\|A\|\|_2 \+ \|\|U\|\|_2 is"):
            bound(params, 1.0)
    # a given M_sup needs only ||A||_2 < 1
    assert stability_report(params.A, 1.0).bibo == pytest.approx(2.0)


def test_overflowing_certificates_raise():
    # finite input bounds whose certificate is not a finite float64
    tanh = forcing_params(0.5 * np.eye(2), U=0.3, W=1.0)        # ||W||_2 = sqrt(2)
    relu = forcing_params(0.5 * np.eye(2), U=0.2, W=1.0, sigma="relu")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for params, s_sup in ((tanh, 1.7e308), (relu, 1e308)):
            with pytest.raises(UnboundedRegionError, match="M_sup overflows float64"):
                m_sup_bound(params, s_sup)
        with pytest.raises(UnboundedRegionError, match="bibo_bound overflows float64"):
            bibo_bound(tanh, 1e308)
        for M_sup in (1e160, 1e300, 1.7e308):
            for check in (lyapunov_region, stability_report):
                with pytest.raises(UnboundedRegionError, match="D_lyap overflows float64"):
                    check(tanh.A, M_sup)
        assert np.isfinite(lyapunov_region(tanh.A, 1e153).D_lyap)


def test_lyapunov_scalar_oracle():
    region = lyapunov_region(np.array([[0.5]]), 1.0)
    assert region.G[0, 0] == pytest.approx(0.866025, abs=1e-6)
    assert np.linalg.norm(region.x_star2) == pytest.approx(0.577350, abs=1e-6)
    assert region.D_lyap == pytest.approx(1.333333, abs=1e-6)
    # exterior in x-coordinates: |x - 2/3| > 4/3
    center = region.x_star2[0] / region.G[0, 0]
    halfwidth = region.radius / region.G[0, 0]
    assert center == pytest.approx(2.0 / 3.0, abs=1e-6)
    assert halfwidth == pytest.approx(4.0 / 3.0, abs=1e-6)


def test_lyapunov_A_zero():
    region = lyapunov_region(np.zeros((3, 3)), 2.0)
    np.testing.assert_allclose(region.G, np.eye(3), atol=1e-14)
    np.testing.assert_allclose(region.x_star2, 0.0, atol=1e-14)
    assert region.D_lyap == pytest.approx(4.0)


def test_lyapunov_zero_forcing():
    region = lyapunov_region(np.array([[0.5]]), 0.0)
    assert np.linalg.norm(region.x_star2) == 0.0
    assert region.D_lyap == 0.0


def test_lyapunov_unstable_raises():
    with pytest.raises(UnboundedRegionError):
        lyapunov_region(np.eye(2), 1.0)


def test_factor_correctness_random():
    rng = np.random.default_rng(10)
    for n in (1, 2, 5, 8, 12):
        A = random_stable(rng, n, rng.uniform(0.2, 0.95))
        region = lyapunov_region(A, 1.0)
        err = np.linalg.norm(region.G.T @ region.G - (np.eye(n) - A.T @ A))
        assert err < 1e-10


def test_completion_of_squares_identity():
    # Delta V == -||G x - x2(M)||^2 + D(M) for arbitrary x, M
    rng = np.random.default_rng(20)
    for n in (1, 3, 6):
        A = random_stable(rng, n, 0.8)
        region = lyapunov_region(A, 1.0)
        for _ in range(50):
            x = rng.uniform(-5, 5, n)
            M = rng.uniform(-2, 2, n)
            x2 = ellipsoid_center(region.G, A, M)
            D = ellipsoid_threshold(region.G, A, M)
            lhs = delta_v(A, x, M)
            rhs = -float((region.G @ x - x2) @ (region.G @ x - x2)) + D
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_per_forcing_exterior_is_negative():
    # for one fixed M, Delta V < 0 strictly outside that M's own ellipsoid
    rng = np.random.default_rng(21)
    for n in (1, 2, 5):
        A = random_stable(rng, n, 0.7)
        region = lyapunov_region(A, 1.0)
        Ginv = np.linalg.inv(region.G)
        for _ in range(20):
            M = rng.standard_normal(n)
            M /= max(1.0, np.linalg.norm(M))
            x2 = ellipsoid_center(region.G, A, M)
            D = ellipsoid_threshold(region.G, A, M)
            for _ in range(50):
                u = rng.standard_normal(n)
                u /= np.linalg.norm(u)
                z = x2 + u * np.sqrt(D) * (1.0 + rng.uniform(1e-6, 2.0))
                x = Ginv @ z
                assert delta_v(A, x, M) < 0.0


def test_certified_exterior_negative_for_all_forcings():
    rng = np.random.default_rng(22)
    for n in (1, 4, 8):
        A = random_stable(rng, n, rng.uniform(0.3, 0.9))
        region = lyapunov_region(A, 1.0)
        Ginv = np.linalg.inv(region.G)
        thresh = np.linalg.norm(region.x_star2) + region.radius
        xs = []
        for _ in range(200):
            u = rng.standard_normal(n)
            u /= np.linalg.norm(u)
            xs.append(Ginv @ (u * thresh * (1.0 + rng.uniform(1e-6, 3.0))))
        Ms = rng.standard_normal((50, n))
        Ms /= np.linalg.norm(Ms, axis=1, keepdims=True)
        Ms *= rng.uniform(0, 1, (50, 1))
        for x in xs:
            assert is_certified_exterior(region, x)
            Ax = A @ x
            dvs = ((Ax[None, :] + Ms) ** 2).sum(axis=1) - x @ x
            assert (dvs < 0).all()


def test_rollout_containment_short():
    rng = np.random.default_rng(23)
    for _ in range(3):
        n, m = int(rng.integers(1, 6)), 2
        params = BrnnParams(A=0.9 * np.eye(n), U=rng.uniform(-0.5, 0.5, (n, n)),
                            W=rng.uniform(-0.5, 0.5, (n, m)),
                            b=rng.uniform(-0.5, 0.5, n), V=np.ones((1, n)),
                            Dft=np.zeros((1, m)), c=np.zeros(1), sigma="tanh")
        steps = 2000
        dirs = rng.standard_normal((steps + 1, m))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        seq = Sequence(s=dirs * rng.uniform(0, 1, (steps + 1, 1)),
                       d=np.zeros((steps + 1, 1)))
        x0 = rng.uniform(-1, 1, n)
        traj = forward(params, seq, x0)
        bound = bibo_bound(params, 1.0)
        allowed = bound + 0.9 ** np.arange(steps + 1) * np.linalg.norm(x0) + 1e-9
        assert (np.linalg.norm(traj.x, axis=1) <= allowed).all()


def test_stability_report_fields():
    rng = np.random.default_rng(24)
    A = random_stable(rng, 4, 0.6)
    report = stability_report(A, 1.0)
    assert report.spectral_radius <= report.spectral_norm + 1e-12
    assert report.bibo == pytest.approx(1.0 / (1.0 - report.spectral_norm))
    assert report.region.radius == pytest.approx(np.sqrt(report.region.D_lyap))
    with pytest.raises(UnboundedRegionError):
        stability_report(np.eye(2), 1.0)
