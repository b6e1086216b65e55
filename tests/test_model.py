import dataclasses

import numpy as np
import pytest

from brnn import model
from brnn.errors import ConfigurationError, StateOverflowError
from brnn.model import (DIAGONAL_MIN_N, BrnnParams, Dims, Sequence, diagonal_A,
                        forward, nonlinearity_derivative)
from brnn.stability import bibo_bound, make_stable_A


TRAINABLE = ("U", "W", "b", "V", "Dft", "c")


def member(params, i):
    """Model i of stacked params."""
    return dataclasses.replace(params, **{k: getattr(params, k)[i] for k in TRAINABLE})


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
    params = BrnnParams(A=0.6 * np.eye(n), U=rng.uniform(-0.4, 0.4, (B, n, n)),
                        W=rng.uniform(-1, 1, (B, n, m)), b=rng.uniform(-0.2, 0.2, (B, n)),
                        V=rng.uniform(-1, 1, (B, r, n)), Dft=rng.uniform(-1, 1, (B, r, m)),
                        c=rng.uniform(-1, 1, (B, r)), sigma=sigma)
    assert params.batch == (B,) and (params.n, params.m, params.r) == (n, m, r)
    seq = Sequence(s=rng.uniform(-1, 1, (N + 1, m)), d=rng.uniform(-1, 1, (N + 1, r)))
    x0 = rng.uniform(-1, 1, n)
    stacked = forward(params, seq, x0)
    assert stacked.x.shape == (B, N + 1, n) and stacked.N == N
    for i in range(B):
        single = forward(member(params, i), seq, x0)
        for name in ("x", "h", "y", "e"):
            np.testing.assert_allclose(getattr(stacked, name)[i], getattr(single, name),
                                       rtol=1e-13, atol=0)


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
    traj = forward(params, seq, x0)
    assert traj.x.shape == lead + (N + 1, n)
    assert traj.x.flags.c_contiguous and traj.h.flags.c_contiguous
    for i in range(B or 1):
        one = params if B is None else member(params, i)
        x, h = forward_reference(one, seq, x0)
        got_x, got_h = (traj.x, traj.h) if B is None else (traj.x[i], traj.h[i])
        np.testing.assert_allclose(got_x, x, rtol=1e-13, atol=1e-13 * np.abs(x).max())
        np.testing.assert_allclose(got_h, h, rtol=1e-13, atol=1e-13 * np.abs(h).max())


def matmul_step_rollout(params, seq, x0):
    """x and h of one model by one np.matmul(z_k, M) per step over the
    augmented rows z_k = [x_k, h_k, s_k, 1], with the keyword `out` forms."""
    N, n, m = seq.N, params.n, params.m
    sigma = model._SIGMA[params.sigma]
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


def diagonal_step_rollout(params, seq, x0):
    """x and h of one model with a diagonal A, which the product leaves out:
    x_{k+1} = np.matmul([h_k, s_k, 1], [U^T; W^T; b]) + a * x_k, with the
    keyword `out` forms."""
    N, n, m = seq.N, params.n, params.m
    sigma = model._SIGMA[params.sigma]
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
    params = BrnnParams(A=[[0.0]], U=np.array([0.1, 1e150, 1e200])[:, None, None],
                        W=0 * ones, b=np.zeros((3, 1)), V=ones, Dft=0 * ones,
                        c=np.zeros((3, 1)), sigma="identity")
    with pytest.raises(StateOverflowError) as single:
        forward(member(params, 1), seq, [1.0])
    assert single.value.k == 3
    pair = dataclasses.replace(params, **{k: getattr(params, k)[:2] for k in TRAINABLE})
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


def test_dims_validation():
    with pytest.raises(ConfigurationError):
        Dims(n=0, m=1, r=1, N=5)
    with pytest.raises(ConfigurationError):
        Dims(n=1, m=1, r=1, N=0)
    Dims(n=1, m=1, r=1, N=1)


def test_sequence_validation():
    with pytest.raises(ConfigurationError):
        Sequence(s=np.zeros((3, 1)), d=np.zeros((4, 1)))
    with pytest.raises(ConfigurationError):
        Sequence(s=np.zeros((1, 1)), d=np.zeros((1, 1)))
    with pytest.raises(ConfigurationError):
        Sequence(s=np.array([[np.inf], [0.0]]), d=np.zeros((2, 1)))


def test_params_validation():
    params = scalar_params()
    params.U = np.zeros((2, 2))
    with pytest.raises(ConfigurationError):
        params.validate()
    # stacked params: every trainable array carries the same batch axes
    params = scalar_params()
    params.U = np.zeros((3, 1, 1))
    with pytest.raises(ConfigurationError):
        params.validate()
