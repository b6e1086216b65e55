import dataclasses

import numpy as np
import pytest

from brnn.errors import ConfigurationError
from brnn.loss import LossWeights, state_loss_grad, total_cost
from brnn.model import BrnnParams, Sequence, Trajectory, forward


def zero_params(n=1, m=1, r=1, sigma="tanh"):
    return BrnnParams(A=np.zeros((n, n)), U=np.zeros((n, n)), W=np.zeros((n, m)),
                      b=np.zeros(n), V=np.zeros((r, n)), Dft=np.zeros((r, m)),
                      c=np.zeros(r), sigma=sigma)


def traj_with_errors(e, x=None, h=None):
    e = np.asarray(e, dtype=float)
    rows = e.shape[0]
    n = 1 if x is None else np.asarray(x).shape[1]
    x = np.zeros((rows, n)) if x is None else np.asarray(x, dtype=float)
    h = np.zeros_like(x) if h is None else np.asarray(h, dtype=float)
    return Trajectory(x=x, h=h, y=e.copy(), e=e)


def test_perfect_tracking_zero_total():
    params = zero_params()
    seq = Sequence(s=np.zeros((4, 1)), d=np.zeros((4, 1)))
    traj = forward(params, seq, [0.0])
    cost = total_cost(traj, seq, params, LossWeights())
    assert cost.total == 0.0


def test_scalar_hand_example():
    # N=1, e_0=0.2, e_1=0.1 -> 0.5*0.04 + 0.5*0.01 = 0.025
    seq = Sequence(s=np.zeros((2, 1)), d=np.zeros((2, 1)))
    traj = traj_with_errors(np.array([[0.2], [0.1]]))
    cost = total_cost(traj, seq, zero_params(), LossWeights())
    assert cost.phi_N == pytest.approx(0.005)
    assert cost.output_sum == pytest.approx(0.02)
    assert cost.total == pytest.approx(0.025)


def test_l1_state_sum_example():
    # one counted step (k=0) with x_0 = (0.5, -0.5) and zero errors
    seq = Sequence(s=np.zeros((2, 1)), d=np.zeros((2, 1)))
    traj = traj_with_errors(np.zeros((2, 1)), x=np.array([[0.5, -0.5], [0.0, 0.0]]))
    w = LossWeights(beta=1.0, state_loss_kind="l1")
    cost = total_cost(traj, seq, zero_params(n=2), w)
    assert cost.state_sum == 1.0
    assert cost.total == 1.0


def test_state_loss_grad_none_and_l1():
    w = LossWeights(state_loss_kind="none")
    assert (state_loss_grad(w, np.array([1.0, -2.0]), np.zeros(2), np.ones(2)) == 0).all()
    w = LossWeights(beta=0.5, state_loss_kind="l1")
    np.testing.assert_array_equal(
        state_loss_grad(w, np.array([2.0, -3.0]), np.zeros(2), np.ones(2)),
        [0.5, -0.5])
    # sign(0) = 0
    assert state_loss_grad(w, np.array([0.0]), np.zeros(1), np.ones(1))[0] == 0.0


def test_tanh_approx_grad_zero_at_origin():
    w = LossWeights(beta=1.0, state_loss_kind="tanh_approx", alpha_ent=2.0)
    assert state_loss_grad(w, np.array([0.0]), np.zeros(1), np.ones(1))[0] == 0.0


def test_tanh_approx_grad_matches_finite_difference():
    w = LossWeights(beta=1.0, state_loss_kind="tanh_approx", alpha_ent=2.0)
    rng = np.random.default_rng(42)
    xs = rng.uniform(0.1, 3.0, 100) * rng.choice([-1.0, 1.0], 100)
    eps = 1e-6
    pen = lambda z: z * np.tanh(w.alpha_ent * z)
    for x in xs:
        fd = (pen(x + eps) - pen(x - eps)) / (2 * eps)
        g = state_loss_grad(w, np.array([x]), np.zeros(1), np.ones(1))[0]
        assert g == pytest.approx(fd, rel=1e-6)


def test_hidden_loss_uses_sigma_prime():
    w = LossWeights(beta=0.0, beta0=0.4, state_loss_kind="l1")
    g = state_loss_grad(w, np.zeros(2), np.array([1.5, -0.2]), np.array([0.5, 2.0]))
    np.testing.assert_allclose(g, [0.4 * 0.5 * 1.0, 0.4 * 2.0 * -1.0])


def test_quadratic_homogeneity_exact():
    rng = np.random.default_rng(8)
    e = rng.uniform(-1, 1, (6, 2))
    seq = Sequence(s=np.zeros((6, 1)), d=np.zeros((6, 2)))
    params = zero_params(m=1, r=2)
    w = LossWeights()
    c1 = total_cost(traj_with_errors(e), seq, params, w)
    c2 = total_cost(traj_with_errors(2.0 * e), seq, params, w)
    assert c2.phi_N + c2.output_sum == 4.0 * (c1.phi_N + c1.output_sum)


def test_total_is_sum_of_components():
    rng = np.random.default_rng(12)
    n, m, r, N = 3, 2, 2, 7
    params = BrnnParams(A=0.4 * np.eye(n), U=rng.uniform(-0.5, 0.5, (n, n)),
                        W=rng.uniform(-1, 1, (n, m)), b=rng.uniform(-1, 1, n),
                        V=rng.uniform(-1, 1, (r, n)), Dft=rng.uniform(-1, 1, (r, m)),
                        c=rng.uniform(-1, 1, r), sigma="tanh")
    seq = Sequence(s=rng.uniform(-1, 1, (N + 1, m)), d=rng.uniform(-1, 1, (N + 1, r)))
    traj = forward(params, seq, rng.uniform(-1, 1, n))
    w = LossWeights(beta=0.3, beta0=0.2, gamma1=0.05, gamma2=0.01,
                    state_loss_kind="l1")
    cost = total_cost(traj, seq, params, w)
    parts = (cost.phi_N + cost.output_sum + cost.state_sum + cost.hidden_sum
             + cost.reg_theta + cost.reg_nu)
    assert cost.total == pytest.approx(parts, rel=1e-12)
    assert cost.total >= 0.0


@pytest.mark.parametrize("state_loss_kind", ["none", "l1", "tanh_approx"])
def test_stacked_total_cost_matches_single_models(state_loss_kind):
    rng = np.random.default_rng(19)
    B, n, m, r, N = 4, 3, 2, 2, 9
    params = BrnnParams(A=0.5 * np.eye(n), U=rng.uniform(-0.5, 0.5, (B, n, n)),
                        W=rng.uniform(-1, 1, (B, n, m)), b=rng.uniform(-1, 1, (B, n)),
                        V=rng.uniform(-1, 1, (B, r, n)), Dft=rng.uniform(-1, 1, (B, r, m)),
                        c=rng.uniform(-1, 1, (B, r)), sigma="tanh")
    seq = Sequence(s=rng.uniform(-1, 1, (N + 1, m)), d=rng.uniform(-1, 1, (N + 1, r)))
    x0 = rng.uniform(-1, 1, n)
    w = LossWeights(beta=0.3, beta0=0.2, gamma1=0.05, gamma2=0.01,
                    state_loss_kind=state_loss_kind)
    stacked = total_cost(forward(params, seq, x0), seq, params, w)
    fields = [f.name for f in dataclasses.fields(stacked)]
    for i in range(B):
        one = dataclasses.replace(params, **{k: getattr(params, k)[i]
                                             for k in ("U", "W", "b", "V", "Dft", "c")})
        single = total_cost(forward(one, seq, x0), seq, one, w)
        for name in fields:
            value = getattr(single, name)
            assert type(value) is float
            assert getattr(stacked, name).shape == (B,)
            np.testing.assert_allclose(getattr(stacked, name)[i], value, rtol=1e-13, atol=0)


def test_regularizer_step_counts():
    # theta regularizer counted N times, nu regularizer N+1 times
    params = zero_params()
    params.U = np.array([[2.0]])
    params.V = np.array([[3.0]])
    N = 5
    seq = Sequence(s=np.zeros((N + 1, 1)), d=np.zeros((N + 1, 1)))
    traj = traj_with_errors(np.zeros((N + 1, 1)))
    w = LossWeights(gamma1=0.5, gamma2=0.1)
    cost = total_cost(traj, seq, params, w)
    assert cost.reg_theta == pytest.approx(0.5 * N * 0.5 * 4.0)
    assert cost.reg_nu == pytest.approx(0.1 * (N + 1) * 0.5 * 9.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_zero_weight_regularizer_is_not_formed():
    # ||U||^2 = 1e400 overflows; a weight of 0 must not make it 0 * inf = nan
    N = 5
    seq = Sequence(s=np.zeros((N + 1, 1)), d=np.zeros((N + 1, 1)))
    traj = traj_with_errors(np.full((N + 1, 1), 0.5))
    params = zero_params()
    params.U = np.array([[1e200]])
    params.V = np.array([[1e200]])
    cost = total_cost(traj, seq, params, LossWeights())
    assert (cost.reg_theta, cost.reg_nu) == (0.0, 0.0)
    assert cost.total == cost.phi_N + cost.output_sum == 0.125 + 0.625
    cost = total_cost(traj, seq, params, LossWeights(gamma1=0.5))
    assert cost.reg_theta == cost.total == np.inf and cost.reg_nu == 0.0
    cost = total_cost(traj, seq, params, LossWeights(gamma2=0.5))
    assert cost.reg_nu == cost.total == np.inf and cost.reg_theta == 0.0
    # stacked: one 0 per member
    B = 3
    stacked = dataclasses.replace(params, **{
        name: np.broadcast_to(getattr(params, name), (B,) + getattr(params, name).shape)
        for name in ("U", "W", "b", "V", "Dft", "c")})
    btraj = traj_with_errors(np.full((N + 1, 1), 0.5))
    btraj = Trajectory(**{k: np.broadcast_to(v, (B,) + v.shape) for k, v in vars(btraj).items()})
    cost = total_cost(btraj, seq, stacked, LossWeights())
    assert cost.reg_theta.shape == cost.reg_nu.shape == (B,)
    assert (cost.total == 0.75).all()


def test_weights_validation():
    with pytest.raises(ConfigurationError):
        LossWeights(beta=1.5)
    with pytest.raises(ConfigurationError):
        LossWeights(gamma1=-0.1)
    with pytest.raises(ConfigurationError):
        LossWeights(state_loss_kind="l2")
    with pytest.raises(ConfigurationError):
        LossWeights(alpha_ent=1.0)
    with pytest.raises(ConfigurationError):
        LossWeights(alpha_ent=3.5)
    LossWeights(alpha_ent=3.0)
