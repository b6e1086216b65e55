import dataclasses

import numpy as np
import pytest

from brnn import verify
from brnn.errors import ConfigurationError
from brnn.loss import LossWeights
from brnn.model import BrnnParams, Sequence, forward
from brnn.trainer import GradSet
from brnn.adjoint import backward_costates, per_step_gradients
from brnn.verify import (PARAM_GROUPS, analytic_gradient, compare_gradients,
                         cost_value, gradcheck, numeric_gradient, random_instance)
# the step-first reduction over k that trainer.aggregate is checked against
from test_trainer import aggregate_steps


def numeric_gradient_per_entry(params, seq, x0, w, eps=1e-5):
    """Reference oracle: two single-model cost_value calls per parameter entry."""
    work = params.copy()
    out = {}
    for gname, pname in PARAM_GROUPS:
        arr = getattr(work, pname)
        grad = np.empty_like(arr)
        for i in range(arr.size):
            orig = arr.flat[i]
            arr.flat[i] = orig + eps
            jp = cost_value(work, seq, x0, w)
            arr.flat[i] = orig - eps
            jm = cost_value(work, seq, x0, w)
            arr.flat[i] = orig
            grad.flat[i] = (jp - jm) / (2.0 * eps)
        out[gname] = grad
    return GradSet(**out)


ORACLE_CASES = [
    dict(),
    dict(sigma="logistic", state_loss_kind="tanh_approx"),
    dict(sigma="identity", n=6, m=3, N=15),
    dict(gamma1=0.01, gamma2=0.01, state_loss_kind="tanh_approx"),
    dict(n=1, m=1, r=1, N=1),
]


def test_compare_identical_passes():
    params, seq, x0, w = random_instance(0)
    g = analytic_gradient(params, seq, x0, w)
    report = compare_gradients(g, g, tol=1e-12)
    assert report.passed
    assert report.max_rel_err == 0.0


def test_compare_constructed_perturbation_fails():
    params, seq, x0, w = random_instance(0)
    g = analytic_gradient(params, seq, x0, w)
    h = GradSet(**{name: getattr(g, name).copy()
                   for name in ("dU", "dW", "db", "dV", "dD", "dc")})
    h.dU[0, 0] = 1.0
    g.dU[0, 0] = 1.0 + 1e-3
    report = compare_gradients(g, h, tol=1e-5)
    assert not report.passed
    assert report.groups["dU"].worst_index == (0, 0)
    assert report.groups["dU"].max_rel_err == pytest.approx(1e-3, rel=1e-2)


def test_compare_refuses_groups_of_different_shapes():
    params, seq, x0, w = random_instance(0)
    g = analytic_gradient(params, seq, x0, w)
    h = dataclasses.replace(g, dW=g.dW[:, :-1])
    with pytest.raises(ConfigurationError) as refused:
        compare_gradients(g, h, tol=1e-5)
    assert str(refused.value) == "dW shapes differ: (4, 2) vs (4, 1)"


def test_numeric_gradient_zero_at_perfect_fit():
    rng = np.random.default_rng(6)
    n, m, r, N = 3, 2, 1, 8
    params = BrnnParams(A=0.5 * np.eye(n), U=rng.uniform(-0.3, 0.3, (n, n)),
                        W=rng.uniform(-1, 1, (n, m)), b=rng.uniform(-0.3, 0.3, n),
                        V=rng.uniform(-1, 1, (r, n)), Dft=rng.uniform(-1, 1, (r, m)),
                        c=rng.uniform(-1, 1, r), sigma="tanh")
    s = rng.uniform(-1, 1, (N + 1, m))
    probe = forward(params, Sequence(s=s, d=np.zeros((N + 1, r))), np.zeros(n))
    seq = Sequence(s=s, d=probe.y.copy())
    g = numeric_gradient(params, seq, np.zeros(n), LossWeights())
    for name in ("dU", "dW", "db", "dV", "dD", "dc"):
        assert np.abs(getattr(g, name)).max() < 1e-9


def test_numeric_gradient_scalar_closed_form():
    # sigma=identity, N=1: hand-derived derivatives of the quadratic cost
    A, U, W, b, V, D, c = 0.5, 0.3, 0.8, 0.1, 1.2, -0.4, 0.2
    x0, s0, s1, d0, d1 = 0.7, 0.5, -0.3, 0.4, -0.2
    params = BrnnParams(A=[[A]], U=[[U]], W=[[W]], b=[b], V=[[V]], Dft=[[D]],
                        c=[c], sigma="identity")
    seq = Sequence(s=np.array([[s0], [s1]]), d=np.array([[d0], [d1]]))
    x1 = A * x0 + U * x0 + W * s0 + b
    e0 = V * x0 + D * s0 + c - d0
    e1 = V * x1 + D * s1 + c - d1
    expect = {
        "dU": e1 * V * x0, "dW": e1 * V * s0, "db": e1 * V,
        "dV": e0 * x0 + e1 * x1, "dD": e0 * s0 + e1 * s1, "dc": e0 + e1,
    }
    g = numeric_gradient(params, seq, [x0], LossWeights())
    for name, val in expect.items():
        assert getattr(g, name).flat[0] == pytest.approx(val, abs=1e-8)
    ga = analytic_gradient(params, seq, [x0], LossWeights())
    for name, val in expect.items():
        assert getattr(ga, name).flat[0] == pytest.approx(val, rel=1e-12)


def test_pure_regularizer_counts():
    # zero errors, gamma2 = 0.1: dV = 0.1 * V * (N+1) on both routes
    rng = np.random.default_rng(14)
    n, m, r, N = 2, 1, 1, 6
    params = BrnnParams(A=0.4 * np.eye(n), U=rng.uniform(-0.3, 0.3, (n, n)),
                        W=rng.uniform(-1, 1, (n, m)), b=np.zeros(n),
                        V=rng.uniform(-1, 1, (r, n)), Dft=rng.uniform(-1, 1, (r, m)),
                        c=rng.uniform(-1, 1, r), sigma="tanh")
    s = rng.uniform(-1, 1, (N + 1, m))
    probe = forward(params, Sequence(s=s, d=np.zeros((N + 1, r))), np.zeros(n))
    seq = Sequence(s=s, d=probe.y.copy())
    w = LossWeights(gamma2=0.1)
    gn = numeric_gradient(params, seq, np.zeros(n), w)
    ga = analytic_gradient(params, seq, np.zeros(n), w)
    np.testing.assert_allclose(gn.dV, 0.1 * params.V * (N + 1), rtol=1e-6)
    np.testing.assert_allclose(ga.dV, 0.1 * params.V * (N + 1), rtol=1e-12)


@pytest.mark.parametrize("kwargs", ORACLE_CASES[:4])
def test_gradcheck_passes_on_smooth_instances(kwargs):
    params, seq, x0, w = random_instance(100, **kwargs)
    report = gradcheck(params, seq, x0, w, tol=1e-5)
    assert report.passed, max((g.max_rel_err, n) for n, g in report.groups.items())


def test_median_aggregation_is_not_the_gradient():
    params, seq, x0, w = random_instance(7, N=12)
    traj = forward(params, seq, x0)
    cs = backward_costates(params, traj, w)
    gseq = per_step_gradients(params, traj, cs, seq, w)
    med = aggregate_steps(gseq, "median")
    oracle = numeric_gradient(params, seq, x0, w)
    report = compare_gradients(med, oracle, tol=1e-5)
    assert report.max_rel_err > 1e-2


def test_oracle_rejects_nonsmooth_configs():
    params, seq, x0, _ = random_instance(1)
    with pytest.raises(ConfigurationError):
        numeric_gradient(params, seq, x0,
                         LossWeights(beta=0.5, state_loss_kind="l1"))
    params.sigma = "relu"
    with pytest.raises(ConfigurationError):
        numeric_gradient(params, seq, x0, LossWeights())


def test_eps_range_enforced():
    params, seq, x0, w = random_instance(1)
    with pytest.raises(ConfigurationError):
        numeric_gradient(params, seq, x0, w, eps=1e-8)
    with pytest.raises(ConfigurationError):
        numeric_gradient(params, seq, x0, w, eps=1e-2)


@pytest.mark.parametrize("kwargs", ORACLE_CASES)
def test_numeric_gradient_matches_per_entry_loop(kwargs):
    params, seq, x0, w = random_instance(3, **kwargs)
    batched = numeric_gradient(params, seq, x0, w)
    reference = numeric_gradient_per_entry(params, seq, x0, w)
    for gname, _ in PARAM_GROUPS:
        np.testing.assert_allclose(getattr(batched, gname), getattr(reference, gname),
                                   rtol=0, atol=1e-7)


def test_chunked_oracle_equals_one_batch(monkeypatch):
    params, seq, x0, w = random_instance(5, n=5, m=3, N=12,
                                         state_loss_kind="tanh_approx")
    widths = []
    counted = lambda stacked, *args: (widths.append(stacked.batch[0])
                                      or cost_value(stacked, *args))
    monkeypatch.setattr(verify, "cost_value", counted)
    whole = numeric_gradient(params, seq, x0, w)
    P = sum(getattr(params, pname).size for _, pname in PARAM_GROUPS)
    assert widths == [2 * P]
    # one entry per chunk; several entries per chunk, where one budget leaves
    # a shorter last chunk
    shorter_last = []
    for budget in (1, verify.ORACLE_CHUNK_BYTES // 200, verify.ORACLE_CHUNK_BYTES // 150):
        monkeypatch.setattr(verify, "ORACLE_CHUNK_BYTES", budget)
        widths.clear()
        chunked = numeric_gradient(params, seq, x0, w)
        assert 1 < len(widths) <= P and sum(widths) == 2 * P
        assert len(set(widths[:-1])) <= 1 and widths[-1] <= widths[0]
        shorter_last.append(widths[-1] < widths[0])
        # a member's arithmetic does not depend on how many share its chunk
        for gname, _ in PARAM_GROUPS:
            assert np.array_equal(getattr(chunked, gname), getattr(whole, gname))
    assert any(shorter_last)


def test_one_model_paths_reject_stacked_params():
    params, seq, x0, w = random_instance(2)
    stacked = dataclasses.replace(params, **{
        pname: np.moveaxis(np.stack([getattr(params, pname)] * 2), 0, -1)
        for _, pname in PARAM_GROUPS})
    assert cost_value(stacked, seq, x0, w).shape == (2,)
    traj = forward(stacked, seq, x0)
    with pytest.raises(ConfigurationError):
        backward_costates(stacked, traj, w)
    with pytest.raises(ConfigurationError):
        numeric_gradient(stacked, seq, x0, w)


def compare_gradients_per_group(analytic, numeric, tol):
    """Reference: the elementwise work of compare_gradients run group by
    group, as (max_abs_err, max_rel_err, worst_index) per group and the
    pass flag."""
    groups = {}
    for gname, _ in PARAM_GROUPS:
        a, b = getattr(analytic, gname), getattr(numeric, gname)
        abs_err = np.abs(a - b)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
        rel = abs_err / denom
        worst = int(rel.argmax())
        groups[gname] = (float(abs_err.flat[worst]), float(rel.flat[worst]),
                         tuple(int(i) for i in np.unravel_index(worst, a.shape)))
    return groups, all(rel < tol for _, rel, _ in groups.values())


def random_gradsets(rng):
    """An (analytic, numeric) pair of random GradSets over random dims from
    1 up, so that groups of size 1 occur: entries from 1e-12 to 1e2, some
    below the 1e-8 floor; equal pairs copied to a second position, so that
    the worst relative error ties; now and then a NaN."""
    n, m, r = (int(v) for v in rng.integers(1, 4, 3))
    shapes = dict(dU=(n, n), dW=(n, m), db=(n,), dV=(r, n), dD=(r, m), dc=(r,))
    analytic, numeric = {}, {}
    for gname, shape in shapes.items():
        a = rng.standard_normal(shape) * 10.0 ** rng.uniform(-12, 2, shape)
        b = a + rng.standard_normal(shape) * 10.0 ** rng.uniform(-14, 0, shape)
        if a.size > 1 and rng.random() < 0.5:
            i, j = rng.choice(a.size, 2, replace=False)
            a.flat[j], b.flat[j] = a.flat[i], b.flat[i]
        if rng.random() < 0.15:
            (a if rng.random() < 0.5 else b).flat[rng.integers(a.size)] = np.nan
        analytic[gname], numeric[gname] = a, b
    return GradSet(**analytic), GradSet(**numeric)


def test_one_pass_comparison_equals_the_per_group_reference_bit_for_bit():
    rng = np.random.default_rng(20)
    bits = lambda v: np.float64(v).tobytes()
    seen = set()
    for _ in range(400):
        analytic, numeric = random_gradsets(rng)
        tol = 10.0 ** rng.uniform(-8, 0)
        report = compare_gradients(analytic, numeric, tol)
        want, passed = compare_gradients_per_group(analytic, numeric, tol)
        assert report.passed == passed
        for gname, (abs_err, rel_err, index) in want.items():
            got = report.groups[gname]
            assert bits(got.max_abs_err) == bits(abs_err)
            assert bits(got.max_rel_err) == bits(rel_err)
            assert got.worst_index == index
            seen.add("nan" if np.isnan(rel_err) else "size 1"
                     if getattr(analytic, gname).size == 1 else "other")
    assert seen == {"nan", "size 1", "other"}


def test_comparison_rules_on_fixed_entries():
    # dU: a tie between entries 1 and 3 goes to the first; dW: below the
    # 1e-8 floor the denominator is 1e-8; db: a NaN entry makes the group's
    # errors NaN and the report FAIL
    a = GradSet(dU=np.array([[1.0, 2.0], [1.0, 2.0]]), dW=np.array([[3e-9], [0.0]]),
                db=np.array([0.5, np.nan]), dV=np.ones((1, 2)), dD=np.ones((1, 1)),
                dc=np.ones(1))
    b = GradSet(dU=np.array([[1.0, 2.5], [1.0, 2.5]]), dW=np.array([[1e-9], [0.0]]),
                db=np.array([0.5, 1.0]), dV=np.ones((1, 2)), dD=np.ones((1, 1)),
                dc=np.ones(1))
    report = compare_gradients(a, b, tol=1.0)
    assert report.groups["dU"].worst_index == (0, 1)
    assert report.groups["dU"].max_abs_err == 0.5
    assert report.groups["dW"].max_rel_err == (3e-9 - 1e-9) / 1e-8
    assert report.groups["db"].worst_index == (1,)
    assert np.isnan(report.groups["db"].max_rel_err)
    assert not report.passed


def invalid_instance(fault):
    params, seq, x0, w = random_instance(4)
    if fault == "non-finite":
        params.U[0, 0] = np.nan
    else:
        # forward would end in a broadcast ValueError, not a clean error
        params.b = np.zeros(params.n + 1)
    return params, seq, x0, w


@pytest.mark.parametrize("fault", ["non-finite", "shape"])
@pytest.mark.parametrize("check", [analytic_gradient, numeric_gradient, gradcheck])
def test_gradient_checks_validate_their_params(check, fault):
    with pytest.raises(ConfigurationError, match="non-finite entries|has shape"):
        check(*invalid_instance(fault))


def test_gradcheck_validates_its_one_model_once_per_entry_point(monkeypatch):
    batches = []
    validate = BrnnParams.validate
    monkeypatch.setattr(BrnnParams, "validate",
                        lambda self: batches.append(self.batch) or validate(self))
    assert gradcheck(*random_instance(6)).passed
    # analytic_gradient and numeric_gradient, never a stacked member
    assert batches == [(), ()]
