import itertools
import warnings

import numpy as np
import pytest

from brnn import adjoint
from brnn import model
from brnn.adjoint import (backward_costates, per_step_gradients, step_norms,
                          summed_gradients)
from brnn.errors import ConfigurationError, CostateExplosionError
from brnn.loss import LossWeights, state_loss_grad
from brnn.model import (DIAGONAL_MIN_N, NONLINEARITIES, BrnnParams, Sequence,
                        Trajectory, forward)
from brnn.stability import make_stable_A, spectral_norm
from brnn.trainer import aggregate
from brnn.verify import random_instance
# sigma'(x) read from the nonlinearity table, and the step-first reduction
# over k that trainer.aggregate is checked against
from test_model import nonlinearity_derivative
from test_trainer import aggregate_steps

GROUPS = ("dU", "dW", "db", "dV", "dD", "dc")


def scalar_params(A=0.5, U=0.1, W=1.0, b=0.0, V=1.0, Dft=0.0, c=0.0, sigma="tanh"):
    return BrnnParams(A=[[A]], U=[[U]], W=[[W]], b=[b], V=[[V]], Dft=[[Dft]],
                      c=[c], sigma=sigma)


def perfect_then_final_error(params, s, x0, final_err):
    """Sequence whose targets match the model exactly except at k = N."""
    probe = Sequence(s=s, d=np.zeros((s.shape[0], params.r)))
    traj = forward(params, probe, x0)
    d = traj.y.copy()
    d[-1] -= final_err
    return Sequence(s=s, d=d)


def final_costate(params, x_N, e_N):
    """Boundary condition lambda_N = sigma'(x_N) (.) (V^T e_N) written from its
    definition: the reference for backward_costates' lam[N], which shares
    its sigma' call with the recursion and equals this bit for bit."""
    sp = nonlinearity_derivative(params.sigma, x_N)
    return sp * (params.V.T @ np.asarray(e_N, dtype=float))


def boundary_costate(params, x_N, e_N):
    """backward_costates' lam[N] on a one-step trajectory that ends at x_N
    with output error e_N. h is sigma(x), which backward_costates reads
    sigma' from."""
    x = np.zeros((2, params.n))
    x[1] = x_N
    e = np.zeros((2, params.r))
    e[1] = e_N
    traj = Trajectory(x=x, h=model.SIGMAS[params.sigma].f(x), y=np.zeros_like(e), e=e)
    return backward_costates(params, traj, LossWeights()).lam[1]


def test_final_costate_zero_error():
    params = scalar_params()
    assert boundary_costate(params, [0.3], [0.0])[0] == 0.0


def test_final_costate_scalar_example():
    params = scalar_params(V=2.0)
    lam = boundary_costate(params, [1.0], [0.1])
    assert lam[0] == pytest.approx(0.0839948, abs=1e-7)
    assert lam.tobytes() == final_costate(params, np.array([1.0]), [0.1]).tobytes()


def test_final_costate_identity_is_error():
    n = 3
    params = BrnnParams(A=np.zeros((n, n)), U=np.zeros((n, n)), W=np.zeros((n, 1)),
                        b=np.zeros(n), V=np.eye(n), Dft=np.zeros((n, 1)),
                        c=np.zeros(n), sigma="identity")
    e = np.array([0.3, -1.2, 0.5])
    np.testing.assert_array_equal(boundary_costate(params, np.zeros(n), e), e)


def test_backward_power_oracle():
    # zero per-step losses: lam_k = 0.5^(N-k) * lam_N for A=0.5, U=0, identity
    params = scalar_params(A=0.5, U=0.0, W=1.0, V=1.0, sigma="identity")
    s = np.array([[0.4], [-0.2], [0.1], [0.3]])
    seq = perfect_then_final_error(params, s, [0.2], np.array([1.0]))
    traj = forward(params, seq, [0.2])
    assert traj.e[3, 0] == pytest.approx(1.0)
    cs = backward_costates(params, traj, LossWeights())
    assert cs.lam[3, 0] == pytest.approx(1.0)
    assert cs.lam[2, 0] == pytest.approx(0.5)
    assert cs.lam[1, 0] == pytest.approx(0.25)


def test_backward_all_zero():
    params = scalar_params()
    seq_s = np.zeros((5, 1))
    seq = perfect_then_final_error(params, seq_s, [0.0], np.array([0.0]))
    traj = forward(params, seq, [0.0])
    cs = backward_costates(params, traj, LossWeights())
    assert (cs.lam == 0).all()


def test_geometric_growth_witness():
    # sRNN mode (A=0), identity, scalar U=3: lam_1/lam_N = 3^9 exactly
    params = scalar_params(A=0.0, U=3.0, W=0.0, V=1.0, sigma="identity")
    N = 10
    seq = Sequence(s=np.zeros((N + 1, 1)), d=np.zeros((N + 1, 1)))
    traj = forward(params, seq, [0.0])
    traj.e[:] = 0.0
    traj.e[N] = 1.0
    cs = backward_costates(params, traj, LossWeights())
    assert cs.lam[1, 0] / cs.lam[N, 0] == 19683.0


def test_explosion_error_names_k():
    params = scalar_params(A=0.0, U=1e200, W=0.0, V=1e200, sigma="identity")
    N = 6
    seq = Sequence(s=np.zeros((N + 1, 1)), d=np.zeros((N + 1, 1)))
    traj = forward(params, seq, [0.0])
    traj.e[N] = -1.0  # lam_N = -1e200; one backward step overflows
    with pytest.raises(CostateExplosionError) as exc:
        backward_costates(params, traj, LossWeights())
    assert exc.value.k == N - 1


@pytest.mark.parametrize("N", [10, 500])
def test_non_finite_final_costate_names_k_N(N):
    # x stays 0 under tanh, so sigma' = 1 and lam_N = V^T e_N is inf with no
    # invalid operation; N = 10 runs the loop, N = 500 the blocked scan
    assert adjoint._scan_pays(N, 1) == (N == 500)
    params = scalar_params()
    seq = Sequence(s=np.zeros((N + 1, 1)), d=np.zeros((N + 1, 1)))
    traj = forward(params, seq, [0.0])
    traj.e[N] = np.inf
    with pytest.raises(CostateExplosionError) as exc:
        backward_costates(params, traj, LossWeights())
    assert exc.value.k == N
    assert f"k={N}" in str(exc.value)


def backward_reference(params, traj, w):
    """Per-step loop over the multiplier recursion that raises at the first
    non-finite lambda as it goes, for one model."""
    N = traj.N
    lam = np.empty((N + 1, params.n))
    lam[N] = final_costate(params, traj.x[N], traj.e[N])
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(N - 1, -1, -1):
            sp = nonlinearity_derivative(params.sigma, traj.x[k])
            lam[k] = (params.A.T @ lam[k + 1] + sp * (params.U.T @ lam[k + 1])
                      + sp * (params.V.T @ traj.e[k])
                      + state_loss_grad(w, traj.x[k], traj.h[k], sp))
            if not np.isfinite(lam[k]).all():
                raise CostateExplosionError(f"non-finite multiplier at k={k}", k=k)
    return lam


def test_backward_costates_match_the_per_step_reference():
    for params, traj, cs, seq, w in equivalence_instances(N=50):
        want = backward_reference(params, traj, w)
        np.testing.assert_allclose(cs.lam, want, rtol=1e-13,
                                   atol=1e-13 * np.abs(want).max())


@pytest.mark.parametrize("state_loss", ("none", "tanh_approx"))
@pytest.mark.parametrize("sigma", NONLINEARITIES)
@pytest.mark.parametrize("n", (1, 4, 8))
@pytest.mark.parametrize("N", (500, 1999, 20000))
def test_blocked_scan_matches_the_per_step_reference(N, n, sigma, state_loss):
    # blocks of L = round(sqrt(N/2)) steps: 16, 32 and 100, so 500 and
    # 1999 leave 4 and 15 steps above the last block
    assert adjoint._scan_pays(N, n)
    params, seq, x0, w = random_instance(7, n=n, m=2, r=2, N=N, sigma=sigma,
                                         state_loss_kind=state_loss)
    traj = forward(params, seq, x0)
    want = backward_reference(params, traj, w)
    got = backward_costates(params, traj, w).lam
    np.testing.assert_allclose(got, want, rtol=1e-13,
                               atol=1e-13 * np.abs(want).max())


def loop_costates(monkeypatch, params, traj, w):
    """backward_costates with the blocked scan switched off."""
    with monkeypatch.context() as m:
        m.setattr(adjoint, "_scan_pays", lambda N, n: False)
        return backward_costates(params, traj, w).lam


@pytest.mark.parametrize("N, n", [(50, 4), (50, 8), (70, 8), (50, 12), (150, 16),
                                  (1000, 20), (20000, 20)])
def test_regime_rule_runs_the_scan_where_it_was_measured_faster(N, n):
    assert adjoint._scan_pays(N, n)


@pytest.mark.parametrize("N, n", [(200, 256), (1, 1), (8, 4), (15, 8), (15, 1),
                                  (40, 8), (49, 12), (100, 16), (500, 20), (20000, 24)])
def test_regime_rule_keeps_the_loop_for_wide_or_short_runs(monkeypatch, N, n):
    assert not adjoint._scan_pays(N, n)
    params, seq, x0, w = random_instance(11, n=n, m=2, r=2, N=N,
                                         state_loss_kind="tanh_approx")
    traj = forward(params, seq, x0)
    got = backward_costates(params, traj, w).lam
    assert np.array_equal(got, loop_costates(monkeypatch, params, traj, w))


def test_overflowing_block_products_fall_back_to_the_loop(monkeypatch):
    # the second state unit has A = 1e200 but no input, coupling or forcing,
    # so its multiplier stays 0 while every block's transfer matrix
    # overflows (1e200^L); 0 * inf is NaN in the scan, never in the loop
    n, N = 2, 500
    rng = np.random.default_rng(4)
    params = BrnnParams(A=np.diag([0.5, 1e200]), U=np.diag([0.3, 0.0]),
                        W=np.array([[0.8], [0.0]]), b=np.array([0.1, 0.0]),
                        V=np.array([[1.0, 0.0]]), Dft=np.zeros((1, 1)),
                        c=np.zeros(1))
    seq = Sequence(s=rng.uniform(-1, 1, (N + 1, 1)),
                   d=rng.uniform(-1, 1, (N + 1, 1)))
    traj = forward(params, seq, np.zeros(n))
    w = LossWeights()
    got = backward_costates(params, traj, w).lam
    assert np.isfinite(got).all() and (got[:, 1] == 0).all()
    assert np.array_equal(got, loop_costates(monkeypatch, params, traj, w))
    np.testing.assert_allclose(got, backward_reference(params, traj, w),
                               rtol=1e-13, atol=1e-13 * np.abs(got).max())


def kept_recur(lam, top, AU, sp, force):
    """The per-step co-state loop with keyword `out` forms, kept to pin
    adjoint._recur's bits."""
    n = AU.shape[0]
    t = np.empty(top.shape[:-1] + (2 * n,))
    lam_next = top
    for lam_k, sp_k, force_k in zip(lam[::-1], sp[::-1], force[::-1]):
        np.dot(lam_next, AU, out=t)
        np.multiply(sp_k, t[..., n:], out=lam_k)
        lam_k += t[..., :n]
        lam_k += force_k
        lam_next = lam_k


def kept_blocked_scan(lam, AU, sp, force):
    """adjoint._blocked_scan's three passes with keyword `out` forms and
    per-step views, kept to pin its bits. Its products are the same BLAS
    calls, so the pin holds whichever kernels BLAS picks."""
    N, n = sp.shape
    L = round(np.sqrt(N / 2))
    B = N // L
    top = B * L
    kept_recur(lam[top:N], lam[N], AU, sp[top:], force[top:])
    sp3, force3, lam3 = (a[:top].reshape(B, L, n).swapaxes(0, 1)
                         for a in (sp, force, lam))
    # passes 1 and 3 with the block axis last
    spT = np.ascontiguousarray(sp3.transpose(0, 2, 1))
    forceT = np.ascontiguousarray(force3.transpose(0, 2, 1))
    St = np.zeros((n, n + 1, B))
    St[:, :n] = np.eye(n)[..., None]
    TT = np.empty((2 * n, n + 1, B))
    for sp_i, force_i in zip(spT[::-1], forceT[::-1]):
        np.dot(AU.T, St.reshape(n, (n + 1) * B), out=TT.reshape(2 * n, (n + 1) * B))
        np.multiply(sp_i[:, None, :], TT[n:], out=St)
        St += TT[:n]
        St[:, n] += force_i
    S3 = np.ascontiguousarray(St.transpose(2, 1, 0))
    for j in range(B - 1, 0, -1):
        np.dot(lam[(j + 1) * L], S3[j, :n], out=lam[j * L])
        lam[j * L] += S3[j, n]
    lamT = np.empty((L, n, B))
    t = np.empty((2 * n, B))
    lam_next = np.ascontiguousarray(lam[L:top + 1:L].T)
    for i in range(L - 1, -1, -1):
        np.dot(AU.T, lam_next, out=t)
        np.multiply(spT[i], t[n:], out=lamT[i])
        lamT[i] += t[:n]
        lamT[i] += forceT[i]
        lam_next = lamT[i]
    lam3[...] = lamT.transpose(0, 2, 1)


def kept_diagonal_recur(lam, top, U, a, sp, force):
    """The per-step co-state loop for a diagonal A (its diagonal a), which
    the product leaves out, with keyword `out` forms: lam_k =
    sp_k * (lam_{k+1} @ U) + a * lam_{k+1} + f_k. Kept to pin the bits of
    adjoint._recur's diagonal regime."""
    t = np.empty(top.shape)
    lam_next = top
    for lam_k, sp_k, force_k in zip(lam[::-1], sp[::-1], force[::-1]):
        np.dot(lam_next, U, out=t)
        np.multiply(sp_k, t, out=lam_k)
        lam_k += a * lam_next
        lam_k += force_k
        lam_next = lam_k


def kept_costates(params, traj, w):
    """The costates by the kept step form of the regime backward_costates
    runs at these sizes and this A: the scan, the dense loop or the
    diagonal loop."""
    N, n = traj.N, params.n
    want = np.empty((N + 1, n))
    want[N] = final_costate(params, traj.x[N], traj.e[N])
    sp = nonlinearity_derivative(params.sigma, traj.x[:N])
    force = sp * (traj.e[:N] @ params.V) + state_loss_grad(w, traj.x[:N], traj.h[:N], sp)
    AU = np.concatenate([params.A, params.U], axis=1)
    a = np.diagonal(params.A)
    if adjoint._scan_pays(N, n):
        kept_blocked_scan(want, AU, sp, force)
    elif n >= DIAGONAL_MIN_N and np.array_equal(params.A, np.diag(a)):
        kept_diagonal_recur(want[:N], want[N], params.U, a, sp, force)
    else:
        kept_recur(want[:N], want[N], AU, sp, force)
    return want


@pytest.mark.parametrize("N, n", [(50, 8), (200, 24), (2000, 8), (1999, 3),
                                  (100, 16), (500, 8), (1999, 1), (30, 8)])
def test_costates_equal_the_kept_step_forms_bit_for_bit(N, n):
    params, seq, x0, w = random_instance(29, n=n, m=2, r=2, N=N, scale=0.3,
                                         state_loss_kind="tanh_approx")
    traj = forward(params, seq, x0)
    assert np.array_equal(backward_costates(params, traj, w).lam,
                          kept_costates(params, traj, w))


@pytest.mark.parametrize("dense", [False, True])
@pytest.mark.parametrize("n", [DIAGONAL_MIN_N - 1, DIAGONAL_MIN_N, 256])
def test_loop_costates_equal_the_kept_step_form_on_both_sides_of_the_diagonal_threshold(
        n, dense):
    # a diagonal A leaves the product from DIAGONAL_MIN_N on; a dense A
    # never does
    params, seq, x0, w = random_instance(31, n=n, m=2, r=2, N=60, scale=0.3,
                                         state_loss_kind="tanh_approx")
    if dense:
        params.A = make_stable_A(n, "random_orthogonal_scaled", 0.8, seed=n)
    traj = forward(params, seq, x0)
    want = kept_costates(params, traj, w)
    assert (model.diagonal_A(params.A) is None) == (dense or n < DIAGONAL_MIN_N)
    assert np.array_equal(backward_costates(params, traj, w).lam, want)


def dense_costates(monkeypatch, params, traj, w):
    """backward_costates with the diagonal regime switched off."""
    with monkeypatch.context() as m:
        m.setattr(model, "DIAGONAL_MIN_N", 10 ** 9)
        return backward_costates(params, traj, w).lam


@pytest.mark.parametrize("sigma", NONLINEARITIES)
@pytest.mark.parametrize("n", [DIAGONAL_MIN_N, 256])
def test_diagonal_regime_costates_agree_with_the_dense_product(monkeypatch, n, sigma):
    params, seq, x0, w = random_instance(37, n=n, m=2, r=2, N=80, sigma=sigma,
                                         scale=0.3, state_loss_kind="tanh_approx")
    traj = forward(params, seq, x0)
    got, want = backward_costates(params, traj, w).lam, dense_costates(monkeypatch, params, traj, w)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())


def test_costate_explosion_names_the_same_k_in_both_regimes(monkeypatch):
    # x = h = 0 and sigma' = 1, e_N = 1: each backward step multiplies lam
    # by A + U, about 1e110, so lam_{N-2} ~ 1e220 is the last finite one
    n, N = DIAGONAL_MIN_N, 50
    rng = np.random.default_rng(8)
    params = BrnnParams(A=0.5 * np.eye(n), U=1e110 * rng.uniform(0.5, 1, (n, n)) / n,
                        W=np.zeros((n, 1)), b=np.zeros(n), V=np.ones((1, n)),
                        Dft=np.zeros((1, 1)), c=np.zeros(1))
    seq = Sequence(s=np.zeros((N + 1, 1)), d=np.zeros((N + 1, 1)))
    traj = forward(params, seq, np.zeros(n))
    traj.e[N] = 1.0
    with pytest.raises(CostateExplosionError) as diagonal:
        backward_costates(params, traj, LossWeights())
    with pytest.raises(CostateExplosionError) as dense:
        dense_costates(monkeypatch, params, traj, LossWeights())
    with pytest.raises(CostateExplosionError) as ref:
        backward_reference(params, traj, LossWeights())
    assert diagonal.value.k == dense.value.k == ref.value.k == N - 3


def assert_explosion_names(k, N, A, U, V):
    """x = h = 0 and sigma' = 1, e_N = 1: each backward step multiplies lam
    by A + U; both recursions must raise at step k."""
    n = A.shape[0]
    params = BrnnParams(A=A, U=U, W=np.zeros((n, 1)), b=np.zeros(n), V=V,
                        Dft=np.zeros((1, 1)), c=np.zeros(1))
    seq = Sequence(s=np.zeros((N + 1, 1)), d=np.zeros((N + 1, 1)))
    traj = forward(params, seq, np.zeros(n))
    traj.e[N] = 1.0
    with pytest.raises(CostateExplosionError) as ref:
        backward_reference(params, traj, LossWeights())
    with pytest.raises(CostateExplosionError) as got:
        backward_costates(params, traj, LossWeights())
    assert got.value.k == ref.value.k == k
    assert f"k={k}" in str(got.value)


def test_explosion_deep_in_the_sequence_names_the_same_k():
    # lam grows by 1e110 per step: lam_{N-2} ~ 1e220 is the last finite one
    assert_explosion_names(47, N=50, A=0.5 * np.eye(2), U=1e110 * np.eye(2),
                           V=np.ones((1, 2)))


@pytest.mark.parametrize("A, U, V", [
    (np.diag([0.5, 0.5]), np.diag([1e10, 1e10]), np.ones((1, 2))),
    # the second unit's multiplier stays 0, but its A = 1e200 overflows
    # every block's transfer matrix, far above k = 469
    (np.diag([0.5, 1e200]), np.diag([1e10, 0.0]), np.array([[1.0, 0.0]])),
])
def test_explosion_inside_a_scan_block_names_the_same_k(A, U, V):
    # N = 500 runs the blocked scan with blocks of 16 steps; lam grows by
    # 1e10 per step and first overflows at k = 469, 5 steps into the block
    # 464..479
    assert adjoint._scan_pays(500, 2)
    assert_explosion_names(469, N=500, A=A, U=U, V=V)


def test_per_step_gradients_zero():
    params = scalar_params()
    N = 4
    seq = Sequence(s=np.zeros((N + 1, 1)), d=np.zeros((N + 1, 1)))
    traj = forward(params, seq, [0.0])
    w = LossWeights()
    cs = backward_costates(params, traj, w)
    g = per_step_gradients(params, traj, cs, seq, w)
    for name in ("dU", "dW", "db", "dV", "dD", "dc"):
        assert (getattr(g, name) == 0).all()


def test_gradient_factors_refuse_a_sequence_of_another_length():
    params = scalar_params()
    seq = Sequence(s=np.zeros((5, 1)), d=np.zeros((5, 1)))
    traj = forward(params, seq, [0.0])
    w = LossWeights()
    cs = backward_costates(params, traj, w)
    longer = Sequence(s=np.zeros((6, 1)), d=np.zeros((6, 1)))
    with pytest.raises(ConfigurationError, match="^costates/sequence length mismatch$"):
        per_step_gradients(params, traj, cs, longer, w)


def test_per_step_gradient_shapes_and_ranges():
    rng = np.random.default_rng(2)
    n, m, r, N = 3, 2, 2, 6
    params = BrnnParams(A=0.5 * np.eye(n), U=rng.uniform(-0.3, 0.3, (n, n)),
                        W=rng.uniform(-1, 1, (n, m)), b=rng.uniform(-1, 1, n),
                        V=rng.uniform(-1, 1, (r, n)), Dft=rng.uniform(-1, 1, (r, m)),
                        c=rng.uniform(-1, 1, r), sigma="tanh")
    seq = Sequence(s=rng.uniform(-1, 1, (N + 1, m)), d=rng.uniform(-1, 1, (N + 1, r)))
    traj = forward(params, seq, np.zeros(n))
    w = LossWeights()
    cs = backward_costates(params, traj, w)
    g = per_step_gradients(params, traj, cs, seq, w)
    assert g.dU.shape == (N, n, n)
    assert g.dW.shape == (N, n, m)
    assert g.db.shape == (N, n)
    assert g.dV.shape == (N + 1, r, n)
    assert g.dD.shape == (N + 1, r, m)
    assert g.dc.shape == (N + 1, r)
    # dU_k = lam_{k+1} h_k^T entrywise
    for k in range(N):
        np.testing.assert_allclose(g.dU[k], np.outer(cs.lam[k + 1], traj.h[k]))
    for k in range(N + 1):
        np.testing.assert_allclose(g.dV[k], np.outer(traj.e[k], traj.h[k]))


def test_per_step_gradient_scalar_example():
    # dU_0 = lam_1 * h_0 = 0.084 * 0.7 = 0.0588 with gamma1 = 0
    params = scalar_params()
    seq = Sequence(s=np.zeros((2, 1)), d=np.zeros((2, 1)))
    traj = forward(params, seq, [0.0])
    traj.h[0, 0] = 0.7
    from brnn.adjoint import CostateSeq
    cs = CostateSeq(lam=np.array([[0.0], [0.084]]))
    g = per_step_gradients(params, traj, cs, seq, LossWeights())
    assert g.dU[0, 0, 0] == pytest.approx(0.0588)


def test_pure_regularizer_gradient():
    # zero errors, gamma2 = 0.1, V = [1] -> dV_k = 0.1 for every k
    params = scalar_params(A=0.0, U=0.0, W=0.5, V=1.0)
    s = np.array([[0.5], [-0.5], [0.2]])
    seq = perfect_then_final_error(params, s, [0.0], np.array([0.0]))
    traj = forward(params, seq, [0.0])
    w = LossWeights(gamma2=0.1)
    cs = backward_costates(params, traj, w)
    g = per_step_gradients(params, traj, cs, seq, w)
    np.testing.assert_allclose(g.dV, 0.1 * np.ones((3, 1, 1)))


def test_lambda0_never_enters_updates():
    rng = np.random.default_rng(5)
    n, m, r, N = 3, 2, 1, 8
    params = BrnnParams(A=0.5 * np.eye(n), U=rng.uniform(-0.3, 0.3, (n, n)),
                        W=rng.uniform(-1, 1, (n, m)), b=rng.uniform(-1, 1, n),
                        V=rng.uniform(-1, 1, (r, n)), Dft=rng.uniform(-1, 1, (r, m)),
                        c=rng.uniform(-1, 1, r), sigma="tanh")
    seq = Sequence(s=rng.uniform(-1, 1, (N + 1, m)), d=rng.uniform(-1, 1, (N + 1, r)))
    traj = forward(params, seq, np.zeros(n))
    w = LossWeights(beta=0.4, state_loss_kind="tanh_approx")
    cs = backward_costates(params, traj, w)
    g1 = per_step_gradients(params, traj, cs, seq, w)
    cs.lam[0] = 0.0
    g2 = per_step_gradients(params, traj, cs, seq, w)
    for name in ("dU", "dW", "db", "dV", "dD", "dc"):
        assert (getattr(g1, name) == getattr(g2, name)).all()


def test_costate_decay_bound():
    # with e_k = 0 for k < N and beta = beta0 = 0:
    # ||lam_k|| <= rho^(N-k) ||lam_N|| (1 + 1e-10), rho = max_k ||A + U diag(sp_k)||
    rng = np.random.default_rng(31)
    n, m, r, N = 5, 2, 2, 40
    params = BrnnParams(A=0.5 * np.eye(n), U=rng.uniform(-0.2, 0.2, (n, n)),
                        W=rng.uniform(-1, 1, (n, m)), b=rng.uniform(-0.2, 0.2, n),
                        V=rng.uniform(-1, 1, (r, n)), Dft=rng.uniform(-1, 1, (r, m)),
                        c=rng.uniform(-1, 1, r), sigma="tanh")
    s = rng.uniform(-1, 1, (N + 1, m))
    x0 = rng.uniform(-1, 1, n)
    seq = perfect_then_final_error(params, s, x0, rng.uniform(0.5, 1.0, r))
    traj = forward(params, seq, x0)
    assert np.abs(traj.e[:N]).max() == 0.0
    cs = backward_costates(params, traj, LossWeights())
    rho = max(spectral_norm(params.A + params.U
                            * nonlinearity_derivative("tanh", traj.x[k])[None, :])
              for k in range(N))
    assert rho < 1.0
    norms = np.linalg.norm(cs.lam, axis=1)
    bound = rho ** (N - np.arange(N + 1)) * norms[N] * (1 + 1e-10)
    assert (norms <= bound).all()


# (N, n) of each co-state regime: the loop, the loop that leaves a diagonal
# A out of its product, and the blocked scan
COSTATE_REGIMES = {"loop": (40, 6), "diagonal": (40, DIAGONAL_MIN_N), "scan": (2000, 8)}


@pytest.mark.parametrize("state_loss", ("none", "tanh_approx"))
@pytest.mark.parametrize("regime", COSTATE_REGIMES)
def test_costates_obey_the_step_rate_certificate(regime, state_loss):
    # lam_k = lam_{k+1} (A + U diag sp_k) + f_k and ||A + U diag sp_k||_2 <= q,
    # q = step_rate(params), so by induction from k = N down
    #     ||lam_k|| <= q^(N-k) ||lam_N|| + F (1 - q^(N-k)) / (1 - q),
    # F = max ||f_k||. Rounding: each step's products and sums are off by at
    # most about (n + 3) u relative, sqrt(n) times that in the 2-norm, so
    # N steps gather below N (n + 3) sqrt(n) u < 1e-11 (u = 2^-53) at these
    # sizes; the slack 1e-9 leaves a hundredfold margin.
    N, n = COSTATE_REGIMES[regime]
    assert adjoint._scan_pays(N, n) == (regime == "scan")
    for sigma, seed in itertools.product(NONLINEARITIES, (1, 2, 3)):
        params, seq, x0, w = random_instance(seed, n=n, m=2, r=2, N=N, sigma=sigma,
                                             state_loss_kind=state_loss)
        assert (model.diagonal_A(params.A) is not None) == (regime == "diagonal")
        # U scaled to q = 0.9, whatever the sigma's sup sigma'
        params.U *= ((0.9 - spectral_norm(params.A)) / model.SIGMAS[sigma].prime_sup
                     / spectral_norm(params.U))
        q = model.step_rate(params)
        assert q == pytest.approx(0.9, rel=1e-12)
        traj = forward(params, seq, x0)
        lam = backward_costates(params, traj, w).lam
        F = float(np.linalg.norm(adjoint._forcing(params, traj, w)[2], axis=1).max())
        assert F > 0.0
        norms = np.linalg.norm(lam, axis=1)
        j = N - np.arange(N + 1)
        bound = q ** j * norms[N] + F * (1.0 - q ** j) / (1.0 - q)
        assert (norms <= bound * (1.0 + 1e-9)).all()


def materialized_max_step_norm(grads):
    """Reference for max_step_norm: the largest Frobenius norm over the
    formed per-step blocks of every group."""
    return max(float(np.linalg.norm(a.reshape(a.shape[0], -1), axis=1).max())
               for a in (getattr(grads, name) for name in GROUPS))


def equivalence_instances(N=None):
    """Every sigma x state loss x (gamma1, gamma2) on/off, n = 1 and n > 1,
    with (params, traj, costates, seq, w) ready for the gradient builders.
    N defaults to 7..11, varying with the instance."""
    combos = itertools.product(NONLINEARITIES, ("none", "tanh_approx", "l1"),
                               (0.0, 0.05), (0.0, 0.03), (1, 4))
    for i, (sigma, loss, gamma1, gamma2, n) in enumerate(combos):
        params, seq, x0, w = random_instance(
            900 + i, n=n, m=2, r=2, N=N or 7 + i % 5, sigma=sigma,
            state_loss_kind=loss, gamma1=gamma1, gamma2=gamma2)
        traj = forward(params, seq, x0)
        yield params, traj, backward_costates(params, traj, w), seq, w


@pytest.mark.parametrize("N, n", [(10, 4), (200, 8), (30, DIAGONAL_MIN_N)])
@pytest.mark.parametrize("sigma", NONLINEARITIES)
def test_backward_costates_reads_sigma_prime_from_h(monkeypatch, sigma, N, n):
    # loop, scan and the diagonal loop; beta0 > 0 puts sigma' in the forcing too
    params, seq, x0, w = random_instance(N + n, n=n, N=N, sigma=sigma,
                                         state_loss_kind="tanh_approx")
    traj = forward(params, seq, x0)
    lam = backward_costates(params, traj, w).lam
    calls = []
    for kind, row in model.SIGMAS.items():
        monkeypatch.setitem(model.SIGMAS, kind, row._replace(
            f=lambda *args, f=row.f, **kw: calls.append(f) or f(*args, **kw)))
    assert backward_costates(params, traj, w).lam.tobytes() == lam.tobytes()
    assert calls == []
    # without a state loss nothing reads x: a trajectory whose x is lost
    # gives the same co-states
    w = LossWeights()
    blind = Trajectory(x=np.full_like(traj.x, np.nan), h=traj.h, y=traj.y, e=traj.e)
    assert (backward_costates(params, blind, w).lam.tobytes()
            == backward_costates(params, traj, w).lam.tobytes())


def test_step_counts_are_the_per_step_lengths():
    for case in equivalence_instances():
        steps = per_step_gradients(*case)
        assert adjoint.step_counts(case[1].N) == {
            name: getattr(steps, name).shape[0] for name in GROUPS}


@pytest.mark.parametrize("case", list(equivalence_instances()))
def test_summed_gradients_and_max_step_norm_match_per_step(case):
    ref = per_step_gradients(*case)
    fused = summed_gradients(*case)
    summed = aggregate_steps(ref, "sum")
    for name in GROUPS:
        want = getattr(summed, name)
        err = np.abs(getattr(fused, name) - want).max()
        assert err <= 1e-12 * np.abs(want).max(), name
    want_norm = materialized_max_step_norm(ref)
    assert abs(step_norms(*case)[0] - want_norm) <= 1e-12 * want_norm


def test_mean_is_the_summed_gradient_over_the_step_counts():
    for params, traj, cs, seq, w in equivalence_instances():
        N = traj.N
        fused = summed_gradients(params, traj, cs, seq, w)
        mean = aggregate(params, traj, cs, seq, w, "mean")
        for name in GROUPS:
            count = N if name in ("dU", "dW", "db") else N + 1
            assert (getattr(mean, name) == getattr(fused, name) / count).all(), name


def test_median_and_min_abs_equal_aggregated_per_step_blocks():
    for case in equivalence_instances():
        for mode in ("median", "min_abs"):
            want = aggregate_steps(per_step_gradients(*case), mode)
            got = aggregate(*case, mode)
            for name in GROUPS:
                assert np.array_equal(getattr(got, name), getattr(want, name)), (mode, name)


def test_median_and_min_abs_equal_numpy_over_step_first_blocks():
    # references independent of the step-last selection: np.median and the
    # argmin/take_along_axis pick over axis 0 of the per-step blocks; N runs
    # 7..11, so both step counts take both parities
    for case in equivalence_instances():
        ref = per_step_gradients(*case)
        med = aggregate(*case, "median")
        low = aggregate(*case, "min_abs")
        for name in GROUPS:
            a = np.ascontiguousarray(getattr(ref, name))
            assert np.array_equal(getattr(med, name), np.median(a, axis=0)), name
            idx = np.expand_dims(np.abs(a).argmin(axis=0), axis=0)
            pick = np.take_along_axis(a, idx, axis=0)[0]
            assert np.array_equal(getattr(low, name), pick), name


def test_no_two_groups_share_memory():
    # reduce_step_blocks builds every row block in one buffer: what the
    # median, min_abs and per-step results keep must not be views of it
    for case in equivalence_instances():
        for gset in (aggregate(*case, "median"), aggregate(*case, "min_abs"),
                     per_step_gradients(*case)):
            for a, b in itertools.combinations(GROUPS, 2):
                assert not np.shares_memory(getattr(gset, a), getattr(gset, b)), (a, b)


def kept_contributions(params, traj, costates, seq, w):
    """Per group, the factors (a, b, P, g) of the step-k contribution
    a_k b_k^T + g P, written out: b is None for a bias, a has the group's
    K rows, and b is h or s in full (N + 1 rows)."""
    lam = costates.lam[1:]
    h, e, s = traj.h, traj.e, seq.s
    return {
        "dU": (lam, h, params.U, w.gamma1),
        "dW": (lam, s, params.W, w.gamma1),
        "db": (lam, None, params.b, w.gamma1),
        "dV": (e, h, params.V, w.gamma2),
        "dD": (e, s, params.Dft, w.gamma2),
        "dc": (e, None, params.c, w.gamma2),
    }


def kept_max_step_norm(params, traj, costates, seq, w):
    """grad_norm as trainer.train computed it before step_norms: six
    ||a_k||^2 and four ||b_k||^2 row-norm vectors, and the cross and ||P||
    terms for every group, whatever its g. Kept to pin step_norms' bits."""
    worst = 0.0
    for a, b, P, g in kept_contributions(params, traj, costates, seq, w).values():
        sq = np.einsum("ij,ij->i", a, a)
        if b is None:
            cross = a @ P
        else:
            b = b[:len(a)]
            sq *= np.einsum("ij,ij->i", b, b)
            cross = np.einsum("ij,ij->i", a @ P, b)
        sq += 2.0 * g * cross + g * g * (P * P).sum()
        worst = max(worst, float(np.sqrt(np.maximum(sq, 0.0)).max()))
    return worst


def kept_lambda_max(costates):
    lam = costates.lam[1:]
    return float(np.sqrt(np.einsum("ij,ij->i", lam, lam).max()))


def trained_instances():
    """Larger instances than equivalence_instances, gamma = 0 and > 0."""
    for N, n, gamma in ((50, 8, 0.0), (50, 8, 0.01), (200, 130, 0.0), (300, 20, 0.02)):
        params, seq, x0, w = random_instance(N + n, n=n, m=3, r=2, N=N, scale=0.3,
                                             gamma1=gamma, gamma2=gamma / 2)
        traj = forward(params, seq, x0)
        yield params, traj, backward_costates(params, traj, w), seq, w


def test_step_norms_equal_the_kept_formulas_bit_for_bit():
    cases = list(equivalence_instances()) + list(trained_instances())
    assert {case[-1].gamma1 for case in cases} == {0.0, 0.05, 0.01, 0.02}
    for case in cases:
        grad_norm, lambda_max = step_norms(*case)
        assert grad_norm == kept_max_step_norm(*case)
        assert lambda_max == kept_lambda_max(case[2])


def test_max_step_norm_clamps_cancelling_blocks():
    # n = 1: lam_1 h_0 = -gamma1 U makes the k = 0 block of dU vanish, and the
    # expanded square can round below zero; it must not reach the square root
    for seed in range(40):
        params, seq, x0, w = random_instance(seed, n=1, m=1, r=1, N=4,
                                             gamma1=0.5, gamma2=0.5)
        traj = forward(params, seq, x0)
        cs = backward_costates(params, traj, w)
        cs.lam[1] = -w.gamma1 * params.U[0] / traj.h[0]
        ref = per_step_gradients(params, traj, cs, seq, w)
        assert abs(ref.dU[0, 0, 0]) <= 1e-15 * abs(w.gamma1 * params.U[0, 0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = step_norms(params, traj, cs, seq, w)[0]
        want = materialized_max_step_norm(ref)
        assert abs(got - want) <= 1e-12 * want
