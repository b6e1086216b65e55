import numpy as np
import pytest

from brnn.errors import ConfigurationError, UnboundedRegionError
from brnn.model import BrnnParams, Sequence, forward
from brnn.stability import (bibo_bound, delta_v, ellipsoid_center,
                            ellipsoid_threshold, hidden_sup, lyapunov_region,
                            make_stable_A, m_sup_bound, spectral_norm,
                            stability_report)


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
    # identity: h = x, sup measured on a probe rollout
    params = forcing_params(0.5 * np.eye(2), U=0.0, W=0.3, sigma="identity")
    h_sup = hidden_sup(params, 1.0, probe_steps=500)
    assert 0.0 < h_sup <= spectral_norm(params.W) / (1 - 0.5) + 1e-9


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
            assert region.is_certified_exterior(x)
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
