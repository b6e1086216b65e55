import dataclasses

import numpy as np
import pytest

from brnn import model
from brnn.errors import ConfigurationError, StateOverflowError
from brnn.model import DIAGONAL_MIN_N, BrnnParams, Sequence, diagonal_A, forward
from brnn.stability import bibo_bound, make_stable_A
from brnn.tasks import TaskSpec


TRAINABLE = ("U", "W", "b", "V", "Dft", "c")


def member(params, i):
    """Model i of stacked params."""
    return dataclasses.replace(params, **{k: getattr(params, k)[..., i] for k in TRAINABLE})


def members_last(params):
    """Stacked params drawn with the member axis first, re-laid with it last,
    where BrnnParams keeps it."""
    return dataclasses.replace(params, **{k: np.moveaxis(getattr(params, k), 0, -1)
                                          for k in TRAINABLE})


def apply_nonlinearity(kind, x):
    """sigma(x) written from its definition: the oracle for forward's h,
    which it equals bit for bit."""
    x = np.asarray(x, dtype=float)
    if kind == "tanh":
        return np.tanh(x)
    if kind == "logistic":
        return 0.5 * (1.0 + np.tanh(x / 2))
    if kind == "relu":
        return np.maximum(x, 0.0)
    assert kind == "identity"
    return x


def scalar_params(A=0.5, U=0.1, W=1.0, b=0.0, V=1.0, Dft=0.0, c=0.0, sigma="tanh"):
    return BrnnParams(A=[[A]], U=[[U]], W=[[W]], b=[b], V=[[V]], Dft=[[Dft]],
                      c=[c], sigma=sigma)


def test_forward_scalar_example():
    params = scalar_params()
    seq = Sequence(s=np.array([[1.0], [0.0]]), d=np.zeros((2, 1)))
    traj = forward(params, seq, [0.0])
    assert traj.x[1, 0] == 1.0
    assert traj.h[1, 0] == pytest.approx(0.761594, abs=1e-6)


def test_forward_all_zero_params():
    params = scalar_params(A=0, U=0, W=0, V=0)
    seq = Sequence(s=np.array([[3.0], [-1.0], [2.0]]), d=np.zeros((3, 1)))
    traj = forward(params, seq, [0.0])
    assert (traj.x == 0).all()
    assert (traj.h == np.tanh(0.0)).all()
    assert (traj.y == 0).all()


def test_forward_linear_convolution_oracle():
    # sigma=identity with U=0, b=0 reduces to x_k = sum_j A^(k-1-j) W s_j + A^k x0
    rng = np.random.default_rng(3)
    n, m, N = 3, 2, 12
    A = rng.uniform(-0.4, 0.4, (n, n))
    W = rng.uniform(-1, 1, (n, m))
    params = BrnnParams(A=A, U=np.zeros((n, n)), W=W, b=np.zeros(n),
                        V=rng.uniform(-1, 1, (1, n)), Dft=np.zeros((1, m)),
                        c=np.zeros(1), sigma="identity")
    s = rng.uniform(-1, 1, (N + 1, m))
    x0 = rng.uniform(-1, 1, n)
    traj = forward(params, Sequence(s=s, d=np.zeros((N + 1, 1))), x0)
    for k in range(N + 1):
        expect = np.linalg.matrix_power(A, k) @ x0
        for j in range(k):
            expect += np.linalg.matrix_power(A, k - 1 - j) @ (W @ s[j])
        np.testing.assert_allclose(traj.x[k], expect, rtol=1e-10, atol=1e-12)


def test_hidden_values():
    def h0(sigma, x0):
        """forward's h[0], which is sigma(x0)."""
        n = len(x0)
        params = BrnnParams(A=0.5 * np.eye(n), U=np.zeros((n, n)), W=np.zeros((n, 1)),
                            b=np.zeros(n), V=np.zeros((1, n)), Dft=np.zeros((1, 1)),
                            c=np.zeros(1), sigma=sigma)
        return forward(params, Sequence(s=np.zeros((2, 1)), d=np.zeros((2, 1))), x0).h[0]

    z = np.zeros(4)
    assert (h0("tanh", z) == 0).all()
    assert (h0("logistic", z) == 0.5).all()
    np.testing.assert_array_equal(h0("relu", np.array([-1.0, 2.0])), [0.0, 2.0])
    x = np.array([-0.3, 1.7])
    np.testing.assert_array_equal(h0("identity", x), x)


def nonlinearity_derivative(kind, x):
    """sigma'(x) from the nonlinearity table: its prime_of_h column at
    h = sigma(x), with the table's ConfigurationError for an unknown kind."""
    sigma = model.nonlinearity(kind)
    return sigma.prime_of_h(sigma.f(np.asarray(x, dtype=float)))


def test_nonlinearity_derivative_values():
    d = nonlinearity_derivative("tanh", np.array([1.0]))
    assert d[0] == pytest.approx(0.419974, abs=1e-6)
    assert (nonlinearity_derivative("identity", np.array([-5.0, 2.0])) == 1).all()
    # relu subderivative at 0 is 0
    np.testing.assert_array_equal(
        nonlinearity_derivative("relu", np.array([-1.0, 0.0, 3.0])), [0.0, 0.0, 1.0])
    p = apply_nonlinearity("logistic", np.array([0.7]))
    assert nonlinearity_derivative("logistic", np.array([0.7]))[0] == \
        pytest.approx(p[0] * (1 - p[0]), rel=1e-12)


def kept_nonlinearity_derivative(kind, x):
    """sigma'(x) computed from x, as brnn computed it before it read the
    prime_of_h column of model.SIGMAS at h = sigma(x); kept to pin that
    column's bits."""
    x = np.asarray(x, dtype=float)
    if kind == "tanh":
        t = np.tanh(x)
        return 1.0 - t * t
    if kind == "logistic":
        p = model._logistic(x)
        return p * (1.0 - p)
    if kind == "relu":
        return (x > 0.0).astype(float)
    return np.ones_like(x)


# the tails, where tanh and the logistic saturate, and relu's kink
EDGE_X = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-9, -1e-9, 0.7, -0.7, 19.0, -19.0,
                   40.0, -40.0, 800.0, -800.0, np.inf, -np.inf])


@pytest.mark.parametrize("n", [1, 8, DIAGONAL_MIN_N, 256])
@pytest.mark.parametrize("sigma", model.SIGMAS)
def test_sigma_prime_of_h_equals_the_derivative_at_x_bit_for_bit(sigma, n):
    # the co-state recursion reads sigma' from forward's h; it must give the
    # bits of sigma' computed from x, in both forward regimes
    A = make_stable_A(n, "random_diagonal", 0.9, seed=n)
    params, seq, x0 = rollout_instance(n, sigma, A)
    traj = forward(params, seq, x0)
    want = kept_nonlinearity_derivative(sigma, traj.x)
    assert model.SIGMAS[sigma].prime_of_h(traj.h).tobytes() == want.tobytes()
    assert nonlinearity_derivative(sigma, traj.x).tobytes() == want.tobytes()
    edge = kept_nonlinearity_derivative(sigma, EDGE_X)
    assert nonlinearity_derivative(sigma, EDGE_X).tobytes() == edge.tobytes()


@pytest.mark.parametrize("sigma", model.SIGMAS)
def test_nonlinearity_table_sup_and_bound_columns_hold_on_samples(sigma):
    # sigma' at h = sigma(x) over a grid that reaches each row's sup (at 0,
    # or any x > 0 for relu) and the tails: the row's sup is a bound, and
    # the smallest; |h| <= 1 exactly for the bounded rows, |h| <= |x| for
    # the others
    row = model.SIGMAS[sigma]
    x = np.concatenate([EDGE_X, [1e3, -1e3], np.linspace(-1e3, 1e3, 20001)])
    h = row.f(x)
    assert row.prime_of_h(h).max() == row.prime_sup
    assert row.bounded == bool(np.abs(h).max() <= 1.0)
    if not row.bounded:
        assert (np.abs(h) <= np.abs(x)).all()


def test_unknown_nonlinearity_raises():
    with pytest.raises(ConfigurationError):
        scalar_params(sigma="softsign").validate()
    with pytest.raises(ConfigurationError):
        nonlinearity_derivative("softsign", np.zeros(2))


@pytest.mark.parametrize("sigma", ["tanh", "logistic", "relu", "identity"])
def test_trajectory_invariants_exact(sigma):
    rng = np.random.default_rng(9)
    n, m, r, N = 4, 2, 3, 20
    params = BrnnParams(A=0.6 * np.eye(n), U=rng.uniform(-0.4, 0.4, (n, n)),
                        W=rng.uniform(-1, 1, (n, m)), b=rng.uniform(-0.2, 0.2, n),
                        V=rng.uniform(-1, 1, (r, n)), Dft=rng.uniform(-1, 1, (r, m)),
                        c=rng.uniform(-1, 1, r), sigma=sigma)
    seq = Sequence(s=rng.uniform(-1, 1, (N + 1, m)), d=rng.uniform(-1, 1, (N + 1, r)))
    traj = forward(params, seq, rng.uniform(-1, 1, n))
    for k in range(N + 1):
        assert (traj.h[k] == apply_nonlinearity(sigma, traj.x[k])).all()
    y = traj.h @ params.V.T + seq.s @ params.Dft.T + params.c
    assert (traj.y == y).all()
    assert (traj.e == traj.y - seq.d).all()


@pytest.mark.parametrize("sigma", ["tanh", "logistic", "relu", "identity"])
def test_stacked_forward_matches_single_models(sigma):
    rng = np.random.default_rng(31)
    B, n, m, r, N = 5, 4, 2, 3, 25
    params = members_last(BrnnParams(
        A=0.6 * np.eye(n), U=rng.uniform(-0.4, 0.4, (B, n, n)),
        W=rng.uniform(-1, 1, (B, n, m)), b=rng.uniform(-0.2, 0.2, (B, n)),
        V=rng.uniform(-1, 1, (B, r, n)), Dft=rng.uniform(-1, 1, (B, r, m)),
        c=rng.uniform(-1, 1, (B, r)), sigma=sigma))
    assert params.batch == (B,) and (params.n, params.m, params.r) == (n, m, r)
    seq = Sequence(s=rng.uniform(-1, 1, (N + 1, m)), d=rng.uniform(-1, 1, (N + 1, r)))
    x0 = rng.uniform(-1, 1, n)
    stacked = forward(params, seq, x0)
    assert stacked.x.shape == (N + 1, n, B) and stacked.N == N
    # the two paths sum in different orders (einsum against BLAS dot), and
    # e = y - d cancels, so e is checked within each path, bit for bit
    assert stacked.e.tobytes() == (stacked.y - seq.d[..., None]).tobytes()
    for i in range(B):
        single = forward(member(params, i), seq, x0)
        for name in ("x", "h", "y"):
            np.testing.assert_allclose(getattr(stacked, name)[..., i], getattr(single, name),
                                       rtol=1e-13, atol=0)
        assert single.e.tobytes() == (single.y - seq.d).tobytes()


@pytest.mark.parametrize("sigma", ["tanh", "logistic", "relu", "identity"])
def test_every_slice_of_a_stack_rolls_out_to_the_stacks_bits(sigma):
    # a member's sums do not depend on the other members, so any slice of a
    # stack, down to one member, gives each member the stack's own bits, and
    # so does the stack laid out along two batch axes
    rng = np.random.default_rng(37)
    B, n, m, r, N = 6, 4, 2, 3, 20
    params = members_last(BrnnParams(
        A=0.6 * np.eye(n), U=rng.uniform(-0.4, 0.4, (B, n, n)),
        W=rng.uniform(-1, 1, (B, n, m)), b=rng.uniform(-0.2, 0.2, (B, n)),
        V=rng.uniform(-1, 1, (B, r, n)), Dft=rng.uniform(-1, 1, (B, r, m)),
        c=rng.uniform(-1, 1, (B, r)), sigma=sigma))
    seq = Sequence(s=rng.uniform(-1, 1, (N + 1, m)), d=rng.uniform(-1, 1, (N + 1, r)))
    x0 = rng.uniform(-1, 1, n)
    whole = forward(params, seq, x0)
    for i in range(B):
        for j in range(i + 1, B + 1):
            part = forward(dataclasses.replace(
                params, **{k: getattr(params, k)[..., i:j] for k in TRAINABLE}), seq, x0)
            for name in ("x", "h", "y", "e"):
                assert np.array_equal(getattr(part, name), getattr(whole, name)[..., i:j])
    grid = forward(dataclasses.replace(params, **{
        k: getattr(params, k).reshape(getattr(params, k).shape[:-1] + (2, 3))
        for k in TRAINABLE}), seq, x0)
    for name in ("x", "h", "y", "e"):
        assert np.array_equal(getattr(grid, name).reshape(getattr(whole, name).shape),
                              getattr(whole, name))


def forward_reference(params, seq, x0):
    """Per-step loop over the defining recursion, for one model: states and
    hidden units only."""
    N, n = seq.N, params.n
    x, h = np.empty((N + 1, n)), np.empty((N + 1, n))
    x[0] = x0
    for k in range(N):
        h[k] = apply_nonlinearity(params.sigma, x[k])
        x[k + 1] = params.A @ x[k] + params.U @ h[k] + params.W @ seq.s[k] + params.b
    h[N] = apply_nonlinearity(params.sigma, x[N])
    return x, h


@pytest.mark.parametrize("B", [None, 3])
@pytest.mark.parametrize("sigma", ["tanh", "logistic", "relu", "identity"])
def test_forward_matches_the_per_step_reference(sigma, B):
    rng = np.random.default_rng(53)
    n, m, r, N = 5, 3, 2, 60
    lead = () if B is None else (B,)
    params = BrnnParams(A=0.5 * np.eye(n), U=rng.uniform(-0.4, 0.4, lead + (n, n)),
                        W=rng.uniform(-1, 1, lead + (n, m)), b=rng.uniform(-0.2, 0.2, lead + (n,)),
                        V=rng.uniform(-1, 1, lead + (r, n)), Dft=rng.uniform(-1, 1, lead + (r, m)),
                        c=rng.uniform(-1, 1, lead + (r,)), sigma=sigma)
    seq = Sequence(s=rng.uniform(-1, 1, (N + 1, m)), d=rng.uniform(-1, 1, (N + 1, r)))
    x0 = rng.uniform(-1, 1, n)
    if B is not None:
        params = members_last(params)
    traj = forward(params, seq, x0)
    assert traj.x.shape == (N + 1, n) + lead
    assert traj.x.flags.c_contiguous and traj.h.flags.c_contiguous
    for i in range(B or 1):
        one = params if B is None else member(params, i)
        x, h = forward_reference(one, seq, x0)
        got_x, got_h = (traj.x, traj.h) if B is None else (traj.x[..., i], traj.h[..., i])
        np.testing.assert_allclose(got_x, x, rtol=1e-13, atol=1e-13 * np.abs(x).max())
        np.testing.assert_allclose(got_h, h, rtol=1e-13, atol=1e-13 * np.abs(h).max())


def matmul_step_rollout(params, seq, x0):
    """x and h of one model by one np.matmul(z_k, M) per step over the
    augmented rows z_k = [x_k, h_k, s_k, 1], with the keyword `out` forms."""
    N, n, m = seq.N, params.n, params.m
    sigma = model.SIGMAS[params.sigma].f
    # C order, as forward builds it: an F-ordered M sums in another order
    M = np.ascontiguousarray(np.vstack([params.A.T, params.U.T, params.W.T, params.b]))
    Z = np.empty((N + 1, 2 * n + m + 1))
    Z[:, 2 * n:-1], Z[:, -1] = seq.s, 1.0
    X, H = Z[:, :n], Z[:, n:2 * n]
    X[0] = x0
    for k in range(N):
        sigma(X[k], out=H[k])
        np.matmul(Z[k], M, out=X[k + 1])
    sigma(X[N], out=H[N])
    return X, H


def rollout_instance(n, sigma, A):
    """(params, seq, x0) with the given A, m = 3, r = 2, N = 40."""
    rng = np.random.default_rng(n)
    m, r, N = 3, 2, 40
    params = BrnnParams(A=A, U=rng.uniform(-1, 1, (n, n)) / np.sqrt(n),
                        W=rng.uniform(-1, 1, (n, m)), b=rng.uniform(-0.2, 0.2, n),
                        V=rng.uniform(-1, 1, (r, n)), Dft=rng.uniform(-1, 1, (r, m)),
                        c=rng.uniform(-1, 1, r), sigma=sigma)
    seq = Sequence(s=rng.uniform(-1, 1, (N + 1, m)), d=rng.uniform(-1, 1, (N + 1, r)))
    return params, seq, rng.uniform(-1, 1, n)


@pytest.mark.parametrize("n", [1, 8, 24, 256])
@pytest.mark.parametrize("sigma", ["tanh", "logistic", "relu", "identity"])
def test_single_model_rollout_equals_the_matmul_step_form(sigma, n):
    # forward's single-model step is np.dot with a positional out; it must
    # give the np.matmul step's bits, not merely values close to them. A is
    # dense, so every n runs the step with A in the product
    A = make_stable_A(n, "random_orthogonal_scaled", 0.5, seed=n)
    params, seq, x0 = rollout_instance(n, sigma, A)
    assert n == 1 or diagonal_A(A) is None
    traj = forward(params, seq, x0)
    x, h = matmul_step_rollout(params, seq, x0)
    assert np.array_equal(traj.x, x) and np.array_equal(traj.h, h)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def contractive_instance(n, sigma, q, N, seed=0):
    """(params, seq, x0) with a dense A, ||A||_2 = 0.5 and U scaled so that
    step_rate(params) = q; m = 2, r = 1."""
    rng = np.random.default_rng(seed)
    m = 2
    A = make_stable_A(n, "random_orthogonal_scaled", 0.5, seed=seed)
    A *= 0.5 / model.spectral_norm(A)
    U = rng.standard_normal((n, n))
    U *= (q - 0.5) / model.SIGMAS[sigma].prime_sup / model.spectral_norm(U)
    params = BrnnParams(A=A, U=U, W=rng.uniform(-1, 1, (n, m)),
                        b=rng.uniform(-0.2, 0.2, n), V=rng.uniform(-1, 1, (1, n)),
                        Dft=np.zeros((1, m)), c=np.zeros(1), sigma=sigma)
    seq = Sequence(s=rng.uniform(-1, 1, (N + 1, m)), d=np.zeros((N + 1, 1)))
    return params, seq, rng.uniform(-1, 1, n)


def spy_shoot(monkeypatch):
    """Record (k0, L) of each multiple-shooting call and the sweeps run."""
    calls = {"shoot": [], "sweeps": 0}
    shoot, sweep = model._shoot, model._sweep

    def spy(Z, M, sigma, n, L):
        k0 = shoot(Z, M, sigma, n, L)
        calls["shoot"].append((k0, L))
        return k0

    def count(*args):
        calls["sweeps"] += 1
        return sweep(*args)
    monkeypatch.setattr(model, "_shoot", spy)
    monkeypatch.setattr(model, "_sweep", count)
    return calls


def test_step_rate_is_a_plus_sup_sigma_prime_times_u():
    A, U = np.diag([0.5, -0.25]), np.array([[0.0, 0.6], [0.0, 0.0]])
    for sigma, d in (("tanh", 1.0), ("logistic", 0.25), ("relu", 1.0),
                     ("identity", 1.0)):
        params = BrnnParams(A=A, U=U, W=np.zeros((2, 1)), b=np.zeros(2),
                            V=np.zeros((1, 2)), Dft=np.zeros((1, 1)), c=np.zeros(1),
                            sigma=sigma)
        assert model.step_rate(params) == pytest.approx(0.5 + d * 0.6, rel=1e-15)


@pytest.mark.parametrize("n", [1, 3, 8, 16])
@pytest.mark.parametrize("sigma", ["tanh", "logistic", "relu", "identity"])
def test_shooting_regime_equals_the_matmul_step_form(monkeypatch, sigma, n):
    # the fewest blocks of L steps the regime takes, with no tail and with a
    # partial tail of 77 steps after them
    B = model.SHOOT_BLOCKS
    L = model.shooting_block(contractive_instance(n, sigma, 0.8, 1)[0], 10 ** 9)
    for tail in (0, 77):
        params, seq, x0 = contractive_instance(n, sigma, 0.8, B * L + tail)
        assert model.shooting_block(params, seq.N) == L
        with monkeypatch.context() as m:
            calls = spy_shoot(m)
            traj = forward(params, seq, x0)
        (k0, _), = calls["shoot"]
        # blocks 0 and 1 are final after the two sweeps, whatever follows
        assert calls["sweeps"] == 2 and 2 * L <= k0 <= B * L
        x, h = matmul_step_rollout(params, seq, x0)
        assert same_bits(traj.x, x) and same_bits(traj.h, h)


def test_an_all_zero_rollout_makes_every_block_final(monkeypatch):
    # x0 = 0, s = 0 and b = 0 keep every tanh state at 0: each block's zero
    # start already has the bits of the end before it, the second sweep
    # gives the same bits again, and every block counts as final
    B = model.SHOOT_BLOCKS
    L = model.shooting_block(contractive_instance(8, "tanh", 0.8, 1)[0], 10 ** 9)
    params, seq, _ = contractive_instance(8, "tanh", 0.8, B * L + 77)
    params.b[:] = 0.0
    seq = Sequence(s=np.zeros_like(seq.s), d=seq.d)
    x0 = np.zeros(params.n)
    calls = spy_shoot(monkeypatch)
    traj = forward(params, seq, x0)
    assert calls["shoot"] == [(B * L, L)] and calls["sweeps"] == 2
    x, h = matmul_step_rollout(params, seq, x0)
    assert same_bits(traj.x, x) and same_bits(traj.h, h)


def test_shooting_block_reads_N_n_and_the_rate():
    params, _, _ = contractive_instance(8, "tanh", 0.8, 1)
    # 0.8^L < 2^-64 first at L = 199
    assert model.shooting_block(params, model.SHOOT_BLOCKS * 199) == 199
    assert model.shooting_block(params, model.SHOOT_BLOCKS * 199 - 1) == 0
    big, _, _ = contractive_instance(model.SHOOT_MAX_N + 1, "tanh", 0.8, 1)
    assert model.shooting_block(big, 10 ** 6) == 0
    # below SHOOT_MIN_N the rate is not computed at all
    assert model.shooting_block(None, model.SHOOT_MIN_N - 1) == 0
    for sigma in ("tanh", "logistic"):
        slow, _, _ = contractive_instance(8, sigma, 1.1, 1)
        assert model.shooting_block(slow, 10 ** 6) == 0


def test_non_contractive_model_runs_the_loop(monkeypatch):
    params, seq, x0 = contractive_instance(8, "tanh", 1.1, 3000)
    assert model.step_rate(params) >= 1.0
    calls = spy_shoot(monkeypatch)
    traj = forward(params, seq, x0)
    assert calls == {"shoot": [], "sweeps": 0}
    x, h = matmul_step_rollout(params, seq, x0)
    assert same_bits(traj.x, x) and same_bits(traj.h, h)


@pytest.mark.parametrize("sigma", ["tanh", "relu"])
def test_open_blocks_after_two_sweeps_fall_back_to_the_loop(monkeypatch, sigma):
    # blocks of 3 steps cannot forget their zero start: after the two sweeps
    # only blocks 0 (from x0) and 1 (from block 0's end) are final
    params, seq, x0 = contractive_instance(8, sigma, 0.8, 3000)
    calls = spy_shoot(monkeypatch)
    monkeypatch.setattr(model, "shooting_block", lambda params, N: 3)
    traj = forward(params, seq, x0)
    assert calls["shoot"] == [(6, 3)] and calls["sweeps"] == 2
    x, h = matmul_step_rollout(params, seq, x0)
    assert same_bits(traj.x, x) and same_bits(traj.h, h)


def test_a_block_off_by_one_ulp_ends_the_final_blocks(monkeypatch):
    # the first sweep's end of block 3 is nudged by one ulp, so block 4
    # restarts from a state that is not the loop's: blocks 0-3 are final,
    # and no block after block 4 may count as final, though their starts
    # match
    params, seq, x0 = contractive_instance(8, "tanh", 0.8, 3000)
    calls = spy_shoot(monkeypatch)
    sweep = model._sweep

    def nudge(Zb, M, sigma, n, ends):
        sweep(Zb, M, sigma, n, ends)
        if calls["sweeps"] == 1:
            ends[3] = np.nextafter(ends[3], np.inf)
    monkeypatch.setattr(model, "_sweep", nudge)
    traj = forward(params, seq, x0)
    (k0, L), = calls["shoot"]
    assert k0 == 4 * L
    x, h = matmul_step_rollout(params, seq, x0)
    assert same_bits(traj.x, x) and same_bits(traj.h, h)


def test_shooting_overflow_names_the_loop_k(monkeypatch):
    # one input of 1e308 in the fourth block overflows W s (W = 4); the
    # loop's first non-finite state is the step after it
    params, seq, x0 = contractive_instance(8, "tanh", 0.8, 3000)
    params.W[:] = 4.0
    L = model.shooting_block(params, seq.N)
    seq.s[3 * L + 5] = 1e308
    calls = spy_shoot(monkeypatch)
    with pytest.raises(StateOverflowError) as shooting:
        forward(params, seq, x0)
    assert calls["sweeps"] >= 1
    monkeypatch.setattr(model, "shooting_block", lambda params, N: 0)
    with pytest.raises(StateOverflowError) as loop:
        forward(params, seq, x0)
    assert shooting.value.k == loop.value.k == 3 * L + 6


def diagonal_step_rollout(params, seq, x0):
    """x and h of one model with a diagonal A, which the product leaves out:
    x_{k+1} = np.matmul([h_k, s_k, 1], [U^T; W^T; b]) + a * x_k, with the
    keyword `out` forms."""
    N, n, m = seq.N, params.n, params.m
    sigma = model.SIGMAS[params.sigma].f
    a = np.diagonal(params.A)
    M = np.ascontiguousarray(np.vstack([params.U.T, params.W.T, params.b]))
    Z = np.empty((N + 1, 2 * n + m + 1))
    Z[:, 2 * n:-1], Z[:, -1] = seq.s, 1.0
    X, H = Z[:, :n], Z[:, n:2 * n]
    X[0] = x0
    for k in range(N):
        sigma(X[k], out=H[k])
        np.matmul(Z[k, n:], M, out=X[k + 1])
        X[k + 1] += a * X[k]
    sigma(X[N], out=H[N])
    return X, H


@pytest.mark.parametrize("n", [DIAGONAL_MIN_N - 1, DIAGONAL_MIN_N, 256])
@pytest.mark.parametrize("sigma", ["tanh", "logistic", "relu", "identity"])
def test_diagonal_A_rollout_equals_its_step_form_on_both_sides_of_the_threshold(sigma, n):
    # below DIAGONAL_MIN_N a diagonal A stays in the product; from it on,
    # the product leaves A out and a * x_k is added after it
    A = make_stable_A(n, "random_diagonal", 0.9, seed=n)
    params, seq, x0 = rollout_instance(n, sigma, A)
    traj = forward(params, seq, x0)
    kept = diagonal_step_rollout if n >= DIAGONAL_MIN_N else matmul_step_rollout
    x, h = kept(params, seq, x0)
    assert np.array_equal(traj.x, x) and np.array_equal(traj.h, h)


def dense_forward(monkeypatch, params, seq, x0):
    """forward with the diagonal regime switched off."""
    with monkeypatch.context() as m:
        m.setattr(model, "DIAGONAL_MIN_N", 10 ** 9)
        return forward(params, seq, x0)


@pytest.mark.parametrize("n", [DIAGONAL_MIN_N, 256])
@pytest.mark.parametrize("sigma", ["tanh", "logistic", "relu", "identity"])
def test_diagonal_regime_agrees_with_the_dense_product(monkeypatch, sigma, n):
    A = make_stable_A(n, "random_diagonal", 0.9, seed=n)
    params, seq, x0 = rollout_instance(n, sigma, A)
    got, want = forward(params, seq, x0), dense_forward(monkeypatch, params, seq, x0)
    for name in ("x", "h", "y", "e"):
        a, b = getattr(got, name), getattr(want, name)
        np.testing.assert_allclose(a, b, rtol=1e-13, atol=1e-13 * np.abs(b).max())


def test_diagonal_A_reads_n_and_the_non_zero_pattern():
    n = DIAGONAL_MIN_N
    d = np.linspace(-0.9, 0.9, n)
    assert np.array_equal(diagonal_A(np.diag(d)), d)
    assert diagonal_A(np.diag(d[:-1])) is None          # n below the threshold
    assert np.array_equal(diagonal_A(np.zeros((n, n))), np.zeros(n))
    A = np.diag(d)
    A[3, 70] = 1e-300                                   # one entry off the diagonal
    assert diagonal_A(A) is None
    # a diagonal zero is part of the pattern, not a reason to go dense
    A = np.diag(d)
    A[5, 5] = 0.0
    assert np.array_equal(diagonal_A(A), np.diagonal(A))


def test_state_overflow_names_the_same_k_in_both_regimes(monkeypatch):
    # identity sigma, x0 = 1: x grows by about 1e100 per step and first
    # overflows at k = 4 in both regimes
    n, N = DIAGONAL_MIN_N, 8
    rng = np.random.default_rng(5)
    params = BrnnParams(A=0.5 * np.eye(n), U=1e100 * rng.uniform(0.5, 1, (n, n)) / n,
                        W=np.zeros((n, 1)), b=np.zeros(n), V=np.ones((1, n)),
                        Dft=np.zeros((1, 1)), c=np.zeros(1), sigma="identity")
    seq = Sequence(s=np.zeros((N + 1, 1)), d=np.zeros((N + 1, 1)))
    with pytest.raises(StateOverflowError) as diagonal:
        forward(params, seq, np.ones(n))
    with pytest.raises(StateOverflowError) as dense:
        dense_forward(monkeypatch, params, seq, np.ones(n))
    assert diagonal.value.k == dense.value.k == 4


def test_linearity_superposition():
    rng = np.random.default_rng(17)
    n, m, N = 3, 2, 15
    params = BrnnParams(A=rng.uniform(-0.3, 0.3, (n, n)),
                        U=rng.uniform(-0.3, 0.3, (n, n)),
                        W=rng.uniform(-1, 1, (n, m)), b=np.zeros(n),
                        V=rng.uniform(-1, 1, (2, n)), Dft=rng.uniform(-1, 1, (2, m)),
                        c=np.zeros(2), sigma="identity")
    d = np.zeros((N + 1, 2))
    s1, s2 = rng.uniform(-1, 1, (N + 1, m)), rng.uniform(-1, 1, (N + 1, m))
    x1, x2 = rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)
    a, b = 1.7, -0.4
    t1 = forward(params, Sequence(s=s1, d=d), x1)
    t2 = forward(params, Sequence(s=s2, d=d), x2)
    tc = forward(params, Sequence(s=a * s1 + b * s2, d=d), a * x1 + b * x2)
    np.testing.assert_allclose(tc.x, a * t1.x + b * t2.x, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(tc.y, a * t1.y + b * t2.y, rtol=1e-12, atol=1e-12)


def test_dimension_mismatch_raises():
    params = scalar_params()
    seq = Sequence(s=np.zeros((3, 2)), d=np.zeros((3, 1)))
    with pytest.raises(ConfigurationError):
        forward(params, seq, [0.0])
    with pytest.raises(ConfigurationError):
        forward(params, Sequence(s=np.zeros((3, 1)), d=np.zeros((3, 1))), [0.0, 0.0])


def test_forward_checks_sequence_and_x0_but_not_params(monkeypatch):
    params = scalar_params()
    seq = Sequence(s=np.zeros((3, 1)), d=np.zeros((3, 1)))
    with pytest.raises(ConfigurationError, match="x0 has shape"):
        forward(params, seq, [0.0, 0.0])
    with pytest.raises(ConfigurationError, match="x0 contains non-finite"):
        forward(params, seq, [np.nan])
    with pytest.raises(ConfigurationError, match="sequence dims"):
        forward(params, Sequence(s=np.zeros((3, 2)), d=np.zeros((3, 1))), [0.0])
    # params are validated where they enter (train, load_checkpoint, the
    # gradient check), not on every rollout
    def fail(self):
        raise AssertionError("forward validated its params")
    monkeypatch.setattr(BrnnParams, "validate", fail)
    np.testing.assert_array_equal(forward(params, seq, [0.0]).x, np.zeros((3, 1)))


def test_overflow_error_names_first_k():
    # x1 = 1e200 is still finite; x2 = (1e200)^2 overflows
    params = scalar_params(A=1e200, U=0.0, W=0.0, sigma="identity")
    seq = Sequence(s=np.ones((6, 1)), d=np.zeros((6, 1)))
    with pytest.raises(StateOverflowError) as exc:
        forward(params, seq, [1.0])
    assert exc.value.k == 2
    assert "k=2" in str(exc.value)


def test_stacked_overflow_names_the_first_k_of_any_member():
    # identity sigma, x0 = 1, A = W = 0: x_k = U^k, so U = 1e200 overflows at
    # k = 2, U = 1e150 at k = 3 and U = 0.1 never
    seq = Sequence(s=np.ones((6, 1)), d=np.zeros((6, 1)))
    ones = np.ones((3, 1, 1))
    params = members_last(BrnnParams(
        A=[[0.0]], U=np.array([0.1, 1e150, 1e200])[:, None, None],
        W=0 * ones, b=np.zeros((3, 1)), V=ones, Dft=0 * ones,
        c=np.zeros((3, 1)), sigma="identity"))
    with pytest.raises(StateOverflowError) as single:
        forward(member(params, 1), seq, [1.0])
    assert single.value.k == 3
    pair = dataclasses.replace(params, **{k: getattr(params, k)[..., :2] for k in TRAINABLE})
    with pytest.raises(StateOverflowError) as stacked:
        forward(pair, seq, [1.0])
    assert stacked.value.k == 3
    with pytest.raises(StateOverflowError) as stacked:
        forward(params, seq, [1.0])
    assert stacked.value.k == 2


def test_bibo_rollout_property():
    rng = np.random.default_rng(23)
    n, m, steps = 5, 2, 10_000
    params = BrnnParams(A=0.9 * np.eye(n), U=rng.uniform(-0.5, 0.5, (n, n)),
                        W=rng.uniform(-0.5, 0.5, (n, m)), b=rng.uniform(-0.5, 0.5, n),
                        V=np.ones((1, n)), Dft=np.zeros((1, m)), c=np.zeros(1),
                        sigma="tanh")
    dirs = rng.standard_normal((steps + 1, m))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    seq = Sequence(s=dirs * rng.uniform(0, 1, (steps + 1, 1)),
                   d=np.zeros((steps + 1, 1)))
    x0 = rng.uniform(-1, 1, n)
    traj = forward(params, seq, x0)
    bound = bibo_bound(params, 1.0) + np.linalg.norm(x0)
    assert (np.linalg.norm(traj.x, axis=1) <= bound).all()


@pytest.mark.parametrize("name", ["n", "m", "r", "N"])
@pytest.mark.parametrize("size", [0, -1])
def test_param_shapes_is_the_size_rule(name, size):
    from brnn.verify import random_instance
    # each caller of the rule, with the sizes it takes
    callers = [
        ("nmr", lambda n, m, r, N: model.param_shapes(n, m, r)),
        ("Nmr", lambda n, m, r, N: TaskSpec("sine_track", N, m, r)),
        ("nmrN", lambda n, m, r, N: random_instance(0, n=n, m=m, r=r, N=N)),
        ("n", lambda n, m, r, N: make_stable_A(n)),
    ]
    sizes = {"n": 1, "m": 1, "r": 1, "N": 5, name: size}
    for names, call in callers:
        if name in names:
            with pytest.raises(ConfigurationError, match=f"^{name} must be >= 1$"):
                call(**sizes)
    assert model.param_shapes(1, 1, 1)["W"] == (1, 1)


def _softsign_reader(reader):
    """A call of one reader of the sigma table on a random instance whose
    sigma, set after construction, has no row."""
    from brnn import adjoint, stability
    from brnn.verify import random_instance
    params, seq, x0, w = random_instance(0)
    params.sigma = "softsign"
    traj = forward(dataclasses.replace(params, sigma="tanh"), seq, x0)
    return {
        "forward": lambda: forward(params, seq, x0),
        "step_rate": lambda: model.step_rate(params),
        "validate": params.validate,
        "backward_costates": lambda: adjoint.backward_costates(params, traj, w),
        "hidden_sup": lambda: stability.hidden_sup(params, 1.0),
        "m_sup_bound": lambda: stability.m_sup_bound(params, 1.0),
        "bibo_bound": lambda: stability.bibo_bound(params, 1.0),
    }[reader]


@pytest.mark.parametrize("reader", [
    "forward", "step_rate", "validate", "backward_costates", "hidden_sup",
    "m_sup_bound", "bibo_bound"])
def test_every_reader_of_the_sigma_table_refuses_an_unknown_sigma(reader):
    call = _softsign_reader(reader)
    with pytest.raises(ConfigurationError, match="^unknown nonlinearity 'softsign'$"):
        call()


@pytest.mark.parametrize("draw", ["make_stable_A", "init_params", "random_instance",
                                  "TaskSpec"])
def test_one_seed_rule(draw):
    from brnn.trainer import init_params
    from brnn.verify import random_instance
    call = {"make_stable_A": lambda: make_stable_A(3, "random_diagonal", seed=-1),
            "init_params": lambda: init_params(3, 1, 1, seed=-1),
            "random_instance": lambda: random_instance(-1),
            "TaskSpec": lambda: TaskSpec("lag_copy", 10, seed=-1)}[draw]
    with pytest.raises(ConfigurationError, match="^seed must be >= 0, got -1$"):
        call()


def test_sequence_validation():
    with pytest.raises(ConfigurationError):
        Sequence(s=np.zeros((3, 1)), d=np.zeros((4, 1)))
    with pytest.raises(ConfigurationError):
        Sequence(s=np.zeros((1, 1)), d=np.zeros((1, 1)))
    with pytest.raises(ConfigurationError):
        Sequence(s=np.array([[np.inf], [0.0]]), d=np.zeros((2, 1)))
    # a vector is one column; an array of 3 or more axes is refused
    with pytest.raises(ConfigurationError, match=r"^s must be a \(N\+1, dim\) array$"):
        Sequence(s=np.zeros((3, 1, 1)), d=np.zeros((3, 1)))
    with pytest.raises(ConfigurationError, match=r"^d must be a \(N\+1, dim\) array$"):
        Sequence(s=np.zeros(3), d=np.zeros((3, 1, 1)))


def test_params_validation():
    params = scalar_params()
    params.U = np.zeros((2, 2))
    with pytest.raises(ConfigurationError):
        params.validate()
    # stacked params: every trainable array carries the same batch axes
    params = scalar_params()
    params.U = np.moveaxis(np.zeros((3, 1, 1)), 0, -1)
    with pytest.raises(ConfigurationError):
        params.validate()
