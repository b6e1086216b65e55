from dataclasses import fields

import numpy as np
import pytest

from brnn.adjoint import backward_costates, per_step_gradients
from brnn.errors import ConfigurationError, DivergenceError
from brnn.loss import LossWeights, total_cost
from brnn.model import BrnnParams, Dims, Sequence, forward
from brnn.tasks import TaskSpec, gen_task
from brnn.trainer import (DIVERGENCE_RATIO, GradSet, TrainConfig, aggregate,
                          apply_update, epoch_gradient, init_params, train)


def gradseq_with_dU(values, N=None, n=1, m=1, r=1):
    """Per-step GradSet whose dU carries the given scalar sequence, rest zeros."""
    values = np.asarray(values, dtype=float)
    N = len(values) if N is None else N
    g = GradSet(dU=np.zeros((N, n, n)), dW=np.zeros((N, n, m)), db=np.zeros((N, n)),
                dV=np.zeros((N + 1, r, n)), dD=np.zeros((N + 1, r, m)),
                dc=np.zeros((N + 1, r)))
    g.dU[:, 0, 0] = values
    return g


def test_aggregate_two_element_example():
    g = gradseq_with_dU([1.0, 3.0])
    assert aggregate(g, "sum").dU[0, 0] == 4.0
    assert aggregate(g, "mean").dU[0, 0] == 2.0
    assert aggregate(g, "median").dU[0, 0] == 2.0
    assert aggregate(g, "min_abs").dU[0, 0] == 1.0


def test_aggregate_skew_example():
    # mean can be small while individual changes are large
    g = gradseq_with_dU([-5.0, 1.0, 2.0])
    assert aggregate(g, "mean").dU[0, 0] == pytest.approx(-2.0 / 3.0)
    assert aggregate(g, "median").dU[0, 0] == 1.0
    assert aggregate(g, "min_abs").dU[0, 0] == 1.0


def test_aggregate_zero_for_every_mode():
    g = gradseq_with_dU([0.0, 0.0, 0.0])
    for mode in ("sum", "mean", "median", "min_abs"):
        out = aggregate(g, mode)
        for name in ("dU", "dW", "db", "dV", "dD", "dc"):
            assert (getattr(out, name) == 0).all()


def test_min_abs_preserves_sign():
    assert aggregate(gradseq_with_dU([-1.0, 2.0]), "min_abs").dU[0, 0] == -1.0
    assert aggregate(gradseq_with_dU([-3.0, -2.0, 4.0]), "min_abs").dU[0, 0] == -2.0


def test_mean_counts_differ_per_group():
    # state-equation groups divide by N, output-equation groups by N+1
    N = 4
    g = gradseq_with_dU(np.zeros(N))
    g.dU[:, 0, 0] = 1.0
    g.dV[:, 0, 0] = 1.0
    out = aggregate(g, "mean")
    assert out.dU[0, 0] == 1.0
    assert out.dV[0, 0] == 1.0
    g.dU[:, 0, 0] = np.arange(N)          # sum 6, mean 6/4
    g.dV[:, 0, 0] = np.arange(N + 1)      # sum 10, mean 10/5
    out = aggregate(g, "mean")
    assert out.dU[0, 0] == pytest.approx(6 / 4)
    assert out.dV[0, 0] == pytest.approx(10 / 5)


GROUPS = ("dU", "dW", "db", "dV", "dD", "dc")


def min_abs_reference(a):
    """The argmin/take_along_axis selection over axis 0 that min_abs must match."""
    idx = np.expand_dims(np.abs(a).argmin(axis=0), axis=0)
    return np.take_along_axis(a, idx, axis=0)[0]


def awkward_gradseq(N, seed, n=3, m=2, r=2):
    """Per-step GradSet whose columns mix ties (small integers), magnitudes near
    1e-300, 1e300 and 1e308, all-zero (relu-style) columns and plain
    normal draws."""
    rng = np.random.default_rng(seed)
    shapes = {"dU": (N, n, n), "dW": (N, n, m), "db": (N, n),
              "dV": (N + 1, r, n), "dD": (N + 1, r, m), "dc": (N + 1, r)}
    arrays = {}
    for name, shape in shapes.items():
        a = rng.integers(-2, 3, shape).astype(float)
        scale = rng.choice([1.0, 1e-300, 1e300, 0.5e308, 0.0], size=shape[1:])
        a *= scale
        plain = rng.random(shape[1:]) < 0.3
        a[:, plain] = rng.standard_normal((shape[0], int(plain.sum())))
        arrays[name] = a
    return GradSet(**arrays)


@pytest.mark.parametrize("N", [1, 2, 3, 6, 7, 20])
def test_median_and_min_abs_equal_the_numpy_references(N):
    # state groups reduce K = N steps, output groups K = N + 1: N = 1 and 2
    # cover K = 1, 2 and 3; the others odd and even counts on both sides
    for seed in range(5):
        g = awkward_gradseq(N, seed)
        # two middle values near 1e308 of equal sign overflow when averaged:
        # the same inf as np.median's
        with np.errstate(over="ignore", invalid="ignore"):
            med = aggregate(g, "median")
            want_med = {name: np.median(getattr(g, name), axis=0) for name in GROUPS}
        low = aggregate(g, "min_abs")
        for name in GROUPS:
            assert np.array_equal(getattr(med, name), want_med[name],
                                  equal_nan=True), (name, seed)
            assert np.array_equal(getattr(low, name),
                                  min_abs_reference(getattr(g, name))), (name, seed)


def test_median_of_a_column_with_nan_is_nan():
    g = gradseq_with_dU([1.0, np.nan, 3.0, 4.0, 5.0])
    g.dW[:, 0, 0] = [5.0, 4.0, 2.0, 1.0, np.nan]
    want = {name: np.median(getattr(g, name), axis=0) for name in GROUPS}
    out = aggregate(g, "median")
    for name in GROUPS:
        assert np.array_equal(getattr(out, name), want[name], equal_nan=True), name
    assert np.isnan(out.dU[0, 0]) and np.isnan(out.dW[0, 0])


def test_aggregate_leaves_its_input_unchanged():
    from brnn.verify import random_instance
    grads = [awkward_gradseq(6, 0), awkward_gradseq(7, 1, n=1, m=1, r=1)]
    for n, r in ((1, 1), (3, 2)):
        params, seq, x0, w = random_instance(11, n=n, m=1, r=r, N=9)
        traj = forward(params, seq, x0)
        grads.append(per_step_gradients(params, traj,
                                        backward_costates(params, traj, w), seq, w))
    for g in grads:
        before = {name: getattr(g, name).copy() for name in GROUPS}
        for mode in ("sum", "mean", "median", "min_abs"):
            with np.errstate(over="ignore", invalid="ignore"):
                aggregate(g, mode)
            for name in GROUPS:
                assert np.array_equal(getattr(g, name), before[name]), (mode, name)


def test_epoch_gradient_leaves_its_inputs_unchanged():
    # n = 1 and r = 1 make the transposed factors views of the trajectory
    # and the costates rather than copies
    from brnn.verify import random_instance
    for n, m, r in ((1, 1, 1), (1, 2, 1), (3, 1, 1), (3, 2, 2)):
        params, seq, x0, w = random_instance(12, n=n, m=m, r=r, N=10,
                                             gamma1=0.05, gamma2=0.03)
        traj = forward(params, seq, x0)
        cs = backward_costates(params, traj, w)
        held = {"x": traj.x, "h": traj.h, "y": traj.y, "e": traj.e,
                "lam": cs.lam, "s": seq.s, "d": seq.d,
                **{name: getattr(params, name)
                   for name in ("A", "U", "W", "b", "V", "Dft", "c")}}
        before = {key: a.copy() for key, a in held.items()}
        for mode in ("sum", "mean", "median", "min_abs"):
            epoch_gradient(params, traj, cs, seq, w, mode)
            for key, a in held.items():
                assert np.array_equal(a, before[key]), (mode, key)


def scalar_params(U=1.0, sigma="tanh"):
    return BrnnParams(A=[[0.5]], U=[[U]], W=[[1.0]], b=[0.0], V=[[1.0]],
                      Dft=[[0.0]], c=[0.0], sigma=sigma)


def zero_gradset(n=1, m=1, r=1):
    return GradSet(dU=np.zeros((n, n)), dW=np.zeros((n, m)), db=np.zeros(n),
                   dV=np.zeros((r, n)), dD=np.zeros((r, m)), dc=np.zeros(r))


def test_apply_update_zero_is_identity():
    params = scalar_params()
    out = apply_update(params, zero_gradset(), 0.1)
    for name in ("A", "U", "W", "b", "V", "Dft", "c"):
        assert (getattr(out, name) == getattr(params, name)).all()


def test_apply_update_scalar_example():
    params = scalar_params(U=1.0)
    g = zero_gradset()
    g.dU[0, 0] = 0.5
    out = apply_update(params, g, 0.1)
    assert out.U[0, 0] == pytest.approx(0.95)


def test_apply_update_keeps_A():
    params = scalar_params()
    g = zero_gradset()
    g.dU[0, 0] = 123.0
    out = apply_update(params, g, 1.0)
    assert out.A is params.A


def test_apply_update_divergence():
    params = scalar_params()
    g = zero_gradset()
    g.dW[0, 0] = np.inf
    with pytest.raises(DivergenceError):
        apply_update(params, g, 0.1)


def test_exploding_but_finite_cost_raises_divergence():
    # lag copy with eta = 5: the total grows from 2.9 by orders of magnitude
    # per epoch while every parameter stays finite
    seq = gen_task(TaskSpec(kind="lag_copy", N=20, seed=3))
    params0 = init_params(Dims(n=4, m=1, r=1, N=20), seed=3)
    cfg = TrainConfig(eta=5.0, epochs=20)
    with pytest.raises(DivergenceError) as exc:
        train(cfg, seq, params0, np.zeros(4), LossWeights())
    assert exc.value.epoch is not None and exc.value.epoch > 1
    _, history = train(TrainConfig(eta=5.0, epochs=exc.value.epoch - 1),
                       seq, params0, np.zeros(4), LossWeights())
    totals = [h.cost.total for h in history]
    assert all(np.isfinite(totals))
    assert max(totals) <= DIVERGENCE_RATIO * totals[0]


def test_train_zero_epochs():
    params = scalar_params()
    seq = Sequence(s=np.zeros((3, 1)), d=np.zeros((3, 1)))
    cfg = TrainConfig(epochs=0)
    out, history = train(cfg, seq, params, [0.0], LossWeights())
    assert history == []
    assert out is params


def test_train_early_stop_on_perfect_fit():
    params = scalar_params()
    s = np.array([[0.3], [-0.2], [0.5]])
    probe = forward(params, Sequence(s=s, d=np.zeros((3, 1))), [0.0])
    seq = Sequence(s=s, d=probe.y.copy())
    cfg = TrainConfig(epochs=50, stop_tol=1e-12)
    out, history = train(cfg, seq, params, [0.0], LossWeights())
    assert len(history) == 1
    assert history[0].cost.total == 0.0
    assert (out.U == params.U).all()  # no update applied


def test_params_frozen_within_epoch():
    rng = np.random.default_rng(77)
    n, N = 3, 10
    dims = Dims(n=n, m=1, r=1, N=N)
    params0 = init_params(dims, seed=4)
    seq = Sequence(s=rng.uniform(-1, 1, (N + 1, 1)), d=rng.uniform(-1, 1, (N + 1, 1)))
    w = LossWeights()
    cfg = TrainConfig(eta=0.05, epochs=2, aggregation="sum")
    _, history = train(cfg, seq, params0, np.zeros(n), w)

    # epoch 1 metrics must reflect params0 untouched
    traj0 = forward(params0, seq, np.zeros(n))
    assert history[0].cost.total == total_cost(traj0, seq, params0, w).total
    # epoch 2 metrics must reflect exactly one applied update
    cs = backward_costates(params0, traj0, w)
    g = aggregate(per_step_gradients(params0, traj0, cs, seq, w), "sum")
    params1 = apply_update(params0, g, cfg.eta)
    traj1 = forward(params1, seq, np.zeros(n))
    assert history[1].cost.total == total_cost(traj1, seq, params1, w).total


def test_monotone_first_step():
    from brnn.verify import random_instance
    for seed in (0, 1, 2):
        params, seq, x0, w = random_instance(seed, state_loss_kind="tanh_approx",
                                             gamma1=0.01, gamma2=0.01)
        base = total_cost(forward(params, seq, x0), seq, params, w).total
        traj = forward(params, seq, x0)
        cs = backward_costates(params, traj, w)
        g = aggregate(per_step_gradients(params, traj, cs, seq, w), "sum")
        eta, ok = 0.1, False
        for _ in range(20):
            try:
                cand = apply_update(params, g, eta)
                cost = total_cost(forward(cand, seq, x0), seq, cand, w).total
            except ArithmeticError:
                cost = np.inf
            if cost < base:
                ok = True
                break
            eta *= 0.5
        assert ok, f"no descent found for seed {seed}"


def test_sum_mean_update_equivalence_bitwise():
    # N=16: state groups divide by a power of two; output-group gradients are
    # pinned to zero (perfect tracking, gamma2=0) so their count never matters
    rng = np.random.default_rng(5)
    n, m, r, N = 3, 2, 1, 16
    params = BrnnParams(A=0.5 * np.eye(n), U=rng.uniform(-0.4, 0.4, (n, n)),
                        W=rng.uniform(-1, 1, (n, m)), b=rng.uniform(-0.4, 0.4, n),
                        V=rng.uniform(-1, 1, (r, n)), Dft=rng.uniform(-1, 1, (r, m)),
                        c=rng.uniform(-1, 1, r), sigma="tanh")
    s = rng.uniform(-1, 1, (N + 1, m))
    probe = forward(params, Sequence(s=s, d=np.zeros((N + 1, r))), np.zeros(n))
    seq = Sequence(s=s, d=probe.y.copy())
    traj = forward(params, seq, np.zeros(n))
    assert (traj.e == 0).all()

    w = LossWeights(beta=0.5, state_loss_kind="tanh_approx")
    cs = backward_costates(params, traj, w)
    gseq = per_step_gradients(params, traj, cs, seq, w)
    gsum = aggregate(gseq, "sum")
    gmean = aggregate(gseq, "mean")
    assert np.abs(gsum.dU).max() > 0  # the check is live

    eta0 = 1.0 / 128.0
    pa = apply_update(params, gsum, eta0)
    pb = apply_update(params, gmean, N * eta0)
    for name in ("U", "W", "b", "V", "Dft", "c"):
        assert (getattr(pa, name) == getattr(pb, name)).all(), name


def test_init_params():
    dims = Dims(n=4, m=2, r=3, N=10)
    p = init_params(dims, sigma="logistic", init_scale=0.2, alpha_A=0.7, seed=9)
    assert (p.A == 0.7 * np.eye(4)).all()
    assert (p.b == 0).all() and (p.c == 0).all()
    for name in ("U", "W", "V", "Dft"):
        arr = getattr(p, name)
        assert np.abs(arr).max() <= 0.2
        assert np.abs(arr).max() > 0
    p2 = init_params(dims, sigma="logistic", init_scale=0.2, alpha_A=0.7, seed=9)
    assert (p.U == p2.U).all()


def test_config_validation():
    with pytest.raises(ConfigurationError):
        TrainConfig(eta=0.0)
    with pytest.raises(ConfigurationError):
        TrainConfig(epochs=-1)
    with pytest.raises(ConfigurationError):
        TrainConfig(aggregation="max")
    for eta in (np.nan, np.inf):
        with pytest.raises(ConfigurationError, match="eta"):
            TrainConfig(eta=eta)
    with pytest.raises(ConfigurationError, match="stop_tol"):
        TrainConfig(stop_tol=np.nan)


def test_train_config_holds_only_what_train_reads():
    assert [f.name for f in fields(TrainConfig)] == [
        "eta", "epochs", "aggregation", "stop_tol"]


@pytest.mark.parametrize("kwargs", [
    {"alpha_A": 0.0}, {"alpha_A": 1.5}, {"alpha_A": np.nan},
    {"init_scale": 0.0}, {"init_scale": -0.1}, {"init_scale": np.nan},
    {"init_scale": np.inf}, {"seed": -1}])
def test_init_params_validation(kwargs):
    key = next(iter(kwargs))
    with pytest.raises(ConfigurationError, match=key):
        init_params(Dims(n=3, m=1, r=1, N=5), **kwargs)
