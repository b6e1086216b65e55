"""Acceptance suite. Each test enforces one criterion at its stated
tolerance and prints a single pass/fail line (visible with pytest -s or in
captured output)."""

import time

import numpy as np
import pytest

from brnn.adjoint import backward_costates
from brnn.cli import main
from brnn.loss import LossWeights
from brnn.model import BrnnParams, Sequence, forward
from brnn.stability import bibo_bound, lyapunov_region, spectral_norm
from brnn.tasks import TaskSpec, gen_task, read_csv, write_csv
from brnn.trainer import aggregate, apply_update
from brnn.verify import compare_gradients, gradcheck, numeric_gradient
# sigma'(x) read from the nonlinearity table
from test_model import nonlinearity_derivative


def report(name, passed, detail=""):
    line = f"{name}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert passed, line


def random_bounded_inputs(rng, steps, m):
    dirs = rng.standard_normal((steps + 1, m))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return dirs * rng.uniform(0.0, 1.0, (steps + 1, 1))


def test_ac1_gradient_correctness():
    """50 seeded random instances; sum-aggregated multiplier gradients match
    central finite differences with max relative error < 1e-5 in < 30 s."""
    from brnn.verify import random_instance
    t0 = time.time()
    rng = np.random.default_rng(12345)
    sigmas = ("tanh", "logistic", "identity")
    losses = ("none", "tanh_approx")
    worst = 0.0
    for i in range(50):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 4))
        r = int(rng.integers(1, 3))
        N = int(rng.integers(2, 16))
        params, seq, x0, w = random_instance(
            1000 + i, n=n, m=m, r=r, N=N, sigma=sigmas[i % 3],
            state_loss_kind=losses[i % 2],
            gamma1=0.01 if (i // 2) % 2 else 0.0,
            gamma2=0.01 if (i // 4) % 2 else 0.0)
        rep = gradcheck(params, seq, x0, w, eps=1e-5, tol=1e-5)
        worst = max(worst, rep.max_rel_err)
        assert rep.passed, f"instance {i}: max_rel={rep.max_rel_err:.3e}"
    elapsed = time.time() - t0
    report("AC-1 gradient correctness",
           worst < 1e-5 and elapsed < 30.0,
           f"worst_rel={worst:.2e}, {elapsed:.1f}s")


def test_ac2_bibo_containment():
    """20 random networks with A = 0.9I, tanh, inputs bounded by 1, rolled out
    10,000 steps stay within bibo_bound + transient + 1e-9, in < 10 s."""
    t0 = time.time()
    rng = np.random.default_rng(7)
    steps = 10_000
    ok = True
    for _ in range(20):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 4))
        params = BrnnParams(
            A=0.9 * np.eye(n), U=rng.uniform(-0.5, 0.5, (n, n)),
            W=rng.uniform(-0.5, 0.5, (n, m)), b=rng.uniform(-0.5, 0.5, n),
            V=np.ones((1, n)), Dft=np.zeros((1, m)), c=np.zeros(1), sigma="tanh")
        seq = Sequence(s=random_bounded_inputs(rng, steps, m),
                       d=np.zeros((steps + 1, 1)))
        x0 = rng.uniform(-1, 1, n)
        traj = forward(params, seq, x0)
        allowed = (bibo_bound(params, 1.0)
                   + 0.9 ** np.arange(steps + 1) * np.linalg.norm(x0) + 1e-9)
        ok &= bool((np.linalg.norm(traj.x, axis=1) <= allowed).all())
    elapsed = time.time() - t0
    report("AC-2 BIBO containment", ok and elapsed < 10.0, f"{elapsed:.1f}s")


def test_ac3_liapunov_region():
    """10 random stable A (n <= 8), M_sup = 1: 1,000 certified-exterior states
    x 100 forcing vectors all give Delta V < 0; the scalar A = 0.5 case
    reproduces G, D_lyap, and the exterior interval |x - 2/3| > 4/3 to 1e-6."""
    rng = np.random.default_rng(99)
    ok = True
    for _ in range(10):
        n = int(rng.integers(1, 9))
        R = rng.standard_normal((n, n))
        A = R / spectral_norm(R) * rng.uniform(0.3, 0.95)
        region = lyapunov_region(A, 1.0)
        Ginv = np.linalg.inv(region.G)
        thresh = np.linalg.norm(region.x_star2) + region.radius
        dirs = rng.standard_normal((1000, n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        xs = (dirs * thresh * (1.0 + rng.uniform(1e-6, 3.0, (1000, 1)))) @ Ginv.T
        Ms = rng.standard_normal((100, n))
        Ms /= np.linalg.norm(Ms, axis=1, keepdims=True)
        Ms *= rng.uniform(0.0, 1.0, (100, 1))
        for x in xs:
            dvs = ((A @ x + Ms) ** 2).sum(axis=1) - x @ x
            if not (dvs < 0.0).all():
                ok = False

    region = lyapunov_region(np.array([[0.5]]), 1.0)
    g = region.G[0, 0]
    center = region.x_star2[0] / g
    halfwidth = region.radius / g
    scalar_ok = (abs(g - 0.866025) < 1e-6
                 and abs(region.D_lyap - 1.333333) < 1e-6
                 and abs(center - 2.0 / 3.0) < 1e-6
                 and abs(halfwidth - 4.0 / 3.0) < 1e-6)
    report("AC-3 Liapunov region", ok and scalar_ok,
           f"G={g:.6f}, D_lyap={region.D_lyap:.6f}, exterior |x-{center:.4f}|>{halfwidth:.4f}")


def test_ac4_costate_decay_and_explosion():
    """(a) zero per-step losses: ||lam_k|| <= rho^(N-k) ||lam_N|| (1+1e-10);
    (b) sRNN mode, identity, scalar U=3, N=10: lam_1/lam_N = 19683 exactly.
    Runtime < 1 s."""
    t0 = time.time()
    rng = np.random.default_rng(31)
    n, m, r, N = 5, 2, 2, 40
    params = BrnnParams(A=0.5 * np.eye(n), U=rng.uniform(-0.2, 0.2, (n, n)),
                        W=rng.uniform(-1, 1, (n, m)), b=rng.uniform(-0.2, 0.2, n),
                        V=rng.uniform(-1, 1, (r, n)), Dft=rng.uniform(-1, 1, (r, m)),
                        c=rng.uniform(-1, 1, r), sigma="tanh")
    s = rng.uniform(-1, 1, (N + 1, m))
    x0 = rng.uniform(-1, 1, n)
    probe = forward(params, Sequence(s=s, d=np.zeros((N + 1, r))), x0)
    d = probe.y.copy()
    d[N] += rng.uniform(0.5, 1.0, r)
    traj = forward(params, Sequence(s=s, d=d), x0)
    cs = backward_costates(params, traj, LossWeights())
    rho = max(spectral_norm(params.A + params.U
                            * nonlinearity_derivative("tanh", traj.x[k])[None, :])
              for k in range(N))
    assert rho < 1.0
    norms = np.linalg.norm(cs.lam, axis=1)
    decay_ok = bool((norms <= rho ** (N - np.arange(N + 1)) * norms[N]
                     * (1 + 1e-10)).all())

    srnn = BrnnParams(A=[[0.0]], U=[[3.0]], W=[[0.0]], b=[0.0], V=[[1.0]],
                      Dft=[[0.0]], c=[0.0], sigma="identity")
    N2 = 10
    seq2 = Sequence(s=np.zeros((N2 + 1, 1)), d=np.zeros((N2 + 1, 1)))
    traj2 = forward(srnn, seq2, [0.0])
    traj2.e[:] = 0.0
    traj2.e[N2] = 1.0
    cs2 = backward_costates(srnn, traj2, LossWeights())
    growth_ok = (cs2.lam[1, 0] / cs2.lam[N2, 0]) == 19683.0
    elapsed = time.time() - t0
    report("AC-4 co-state decay/explosion",
           decay_ok and growth_ok and elapsed < 1.0,
           f"rho={rho:.3f}, lam_1/lam_N={cs2.lam[1, 0] / cs2.lam[N2, 0]:.0f}, {elapsed:.2f}s")


def test_ac5_trainability(tmp_path):
    """Sine-tracking run (N=50, n=8, eta=0.01, sum, tanh, A=0.5I, fixed seed)
    reaches final total <= 10% of the first-epoch total within 5,000 epochs
    in < 60 s, through the CLI."""
    t0 = time.time()
    metrics = tmp_path / "metrics.csv"
    code = main(["train", "--task", "sine", "--N", "50", "--n", "8",
                 "--eta", "0.01", "--epochs", "5000", "--agg", "sum",
                 "--sigma", "tanh", "--alphaA", "0.5", "--seed", "0",
                 "--metrics-out", str(metrics),
                 "--checkpoint-out", str(tmp_path / "ckpt.txt")])
    assert code == 0
    rows = metrics.read_text().strip().splitlines()[1:]
    first = float(rows[0].split(",")[1])
    last = float(rows[-1].split(",")[1])
    elapsed = time.time() - t0
    report("AC-5 trainability", last <= 0.1 * first and elapsed < 60.0,
           f"total {first:.3f} -> {last:.5f} in {len(rows)} epochs, {elapsed:.1f}s")


def test_ac6_aggregation_semantics():
    """Sum vs mean: exact update equality under learning-rate rescaling for
    N=16; median and min_abs differ from the oracle gradient by > 1e-2."""
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
    w = LossWeights(beta=0.5, state_loss_kind="tanh_approx")
    cs = backward_costates(params, traj, w)
    gsum = aggregate(params, traj, cs, seq, w, "sum")
    gmean = aggregate(params, traj, cs, seq, w, "mean")
    assert np.abs(gsum.dU).max() > 0
    eta0 = 1.0 / 128.0
    pa = apply_update(params, gsum, eta0)
    pb = apply_update(params, gmean, N * eta0)
    exact = all((getattr(pa, name) == getattr(pb, name)).all()
                for name in ("U", "W", "b", "V", "Dft", "c"))

    from brnn.verify import random_instance
    params2, seq2, x02, w2 = random_instance(7, N=12)
    traj2 = forward(params2, seq2, x02)
    cs2 = backward_costates(params2, traj2, w2)
    oracle = numeric_gradient(params2, seq2, x02, w2)
    med = aggregate(params2, traj2, cs2, seq2, w2, "median")
    low = aggregate(params2, traj2, cs2, seq2, w2, "min_abs")
    med_err = compare_gradients(med, oracle, 1e-5).max_rel_err
    min_err = compare_gradients(low, oracle, 1e-5).max_rel_err
    report("AC-6 aggregation semantics",
           exact and med_err > 1e-2 and min_err > 1e-2,
           f"sum==mean bitwise; median_rel={med_err:.2e}, min_abs_rel={min_err:.2e}")


def test_ac7_determinism_and_formats(tmp_path):
    """Same seed gives byte-identical metrics; dataset and checkpoint
    round-trips are exact."""
    outs = []
    for tag in ("a", "b"):
        metrics = tmp_path / f"metrics_{tag}.csv"
        ckpt = tmp_path / f"ckpt_{tag}.txt"
        code = main(["train", "--task", "sine", "--N", "40", "--n", "6",
                     "--epochs", "5", "--seed", "11", "--noise", "0.05",
                     "--metrics-out", str(metrics), "--checkpoint-out", str(ckpt)])
        assert code == 0
        outs.append((metrics.read_bytes(), ckpt.read_bytes()))
    deterministic = outs[0] == outs[1]

    seq = gen_task(TaskSpec(kind="bandpass_filter", N=60, m=2, r=2, seed=4))
    data = tmp_path / "round.csv"
    write_csv(seq, data)
    back = read_csv(data)
    dataset_exact = bool((back.s == seq.s).all() and (back.d == seq.d).all())

    # one-epoch train, save, load: eval cost must equal the in-memory cost
    from brnn.cli import load_checkpoint
    from brnn.loss import total_cost
    metrics = tmp_path / "m1.csv"
    ckpt = tmp_path / "c1.txt"
    sine = tmp_path / "sine.csv"
    assert main(["generate", "--task", "sine", "--N", "30", "--out", str(sine)]) == 0
    assert main(["train", "--data", str(sine), "--n", "4", "--epochs", "1",
                 "--seed", "2", "--metrics-out", str(metrics),
                 "--checkpoint-out", str(ckpt)]) == 0
    from brnn.trainer import TrainConfig, init_params, train
    seq2 = read_csv(sine)
    params0 = init_params(4, 1, 1, sigma="tanh",
                          init_scale=0.1, alpha_A=0.5, seed=2)
    in_memory, _ = train(TrainConfig(eta=0.01, epochs=1), seq2, params0,
                         np.zeros(4), LossWeights())
    loaded = load_checkpoint(ckpt)
    ckpt_exact = all((getattr(loaded, nm) == getattr(in_memory, nm)).all()
                     for nm in ("A", "U", "W", "b", "V", "Dft", "c"))
    cost_mem = total_cost(forward(in_memory, seq2, np.zeros(4)), seq2,
                          in_memory, LossWeights()).total
    cost_loaded = total_cost(forward(loaded, seq2, np.zeros(4)), seq2,
                             loaded, LossWeights()).total
    report("AC-7 determinism & formats",
           deterministic and dataset_exact and ckpt_exact
           and cost_mem == cost_loaded,
           "byte-identical metrics; exact dataset and checkpoint round-trips")
