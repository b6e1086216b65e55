"""The benchmark's workloads and the checks on their outputs.

Run as a script, this file is one repetition of one workload in a fresh
process: `python3 bench/workloads.py '{"workload": ..., "seed": ...,
"trace": ...}'`, with `src/` on PYTHONPATH and the working directory set
to an empty scratch directory. It prints one JSON object: the moment the
inputs were ready (`time.perf_counter`, comparable across processes), the
workload's wall time and rates, one record per checked operation, the
peak RSS, the environment and, when traced, the span summary.

Workloads (all inputs derive from the workload seed; the program sees only
argv and the generated inputs):

- `wide_n256`: 10 epochs at n=256, N=200. The (N, n, n) per-step gradient
  tensors and their norms dominate; the only large-memory workload.
- `gradcheck_ac1`: 300 finite-difference gradient checks on AC-1 instances,
  tens of thousands of tiny forward-only rollouts; per-call overhead of
  model.forward and loss.total_cost dominates, the adjoint barely shows.
- `csv_pipeline`: generate a 20001-row bandpass dataset, train on it with
  median aggregation, eval the checkpoint, certify it with stability. The
  only workload that exercises tasks (noise, filter, CSV) and the CLI
  persistence formats, and the long-horizon recursion.

The AC-5 run (5000 epochs of N=50, n=8) is not a workload: on a shared
2-vCPU VM its 8-s repetitions, three to a run, spread up to 0.30 across
seeds, beyond any bound the benchmark may set. Its per-step work in
model and adjoint is measured by csv_pipeline.
"""

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import platform
import resource
import sys
import time

AC1_SHAPE_SEED = 12345   # tests/test_acceptance.py draws AC-1 shapes from this
GRADCHECK_INSTANCES = 300
CSV_ROWS = 20001
CSV_EPOCHS = 5


def derive_seed(seed, label):
    """A 32-bit seed for one input of the run, from the workload seed."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def op(name, ok, why="", digest=None):
    """Record of one checked operation; `digest` is compared across reps."""
    return {"name": name, "ok": bool(ok), "why": why, "digest": digest}


def call_cli(argv):
    """Run `brnn.cli.main(argv)` in process; returns (exit code, seconds, stdout)."""
    import brnn.cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = brnn.cli.main(argv)
        elapsed = time.perf_counter() - start
    return code, elapsed, out.getvalue()


def printed_value(stdout, key):
    """The float printed by the CLI as `key = value`, or nan."""
    for line in stdout.splitlines():
        name, sep, value = line.partition(" = ")
        if sep and name == key:
            return float(value)
    return math.nan


def file_digest(*paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def metrics_totals(path):
    """The `total` column of a metrics CSV, in epoch order."""
    with open(path) as f:
        rows = f.read().splitlines()[1:]
    return [float(row.split(",")[1]) for row in rows]


def check_train(code, metrics, checkpoint):
    """A train call passes if it exits 0 and its totals are finite and end
    below the first epoch's. The digest of both outputs is compared across
    repetitions."""
    if code != 0:
        return op("train", False, f"exit {code}")
    try:
        totals = metrics_totals(metrics)
        digest = file_digest(metrics, checkpoint)
    except (OSError, ValueError, IndexError) as exc:
        return op("train", False, f"unreadable output: {exc}")
    if not totals or not all(math.isfinite(t) for t in totals):
        return op("train", False, "non-finite total", digest)
    if not totals[-1] < totals[0]:
        return op("train", False, f"total {totals[0]!r} -> {totals[-1]!r} did not fall",
                  digest)
    return op("train", True, digest=digest)


def train_argv(seed, *flags):
    return ["train", *flags, "--seed", str(derive_seed(seed, "train")),
            "--metrics-out", "metrics.csv", "--checkpoint-out", "checkpoint.txt"]


def wide_n256(seed):
    argv = train_argv(seed, "--task", "lag", "--N", "200", "--m", "4", "--r", "4",
                      "--n", "256", "--init-scale", "0.02", "--eta", "1e-3",
                      "--agg", "sum", "--epochs", "10")
    yield "ready"
    code, elapsed, _ = call_cli(argv)
    yield "done"
    epochs = len(metrics_totals("metrics.csv")) if code == 0 else 0
    rates = {"ops_per_s": epochs / elapsed, "train_epochs_per_s": epochs / elapsed}
    yield rates, [check_train(code, "metrics.csv", "checkpoint.txt")]


def ac1_instances(seed, count):
    """AC-1's instance distribution: shapes and configurations follow the
    acceptance test's own draw (so every seed does the same work), values
    come from the workload seed."""
    import numpy as np
    from brnn import verify
    rng = np.random.default_rng(AC1_SHAPE_SEED)
    sigmas = ("tanh", "logistic", "identity")
    losses = ("none", "tanh_approx")
    out = []
    for i in range(count):
        n, m = int(rng.integers(1, 7)), int(rng.integers(1, 4))
        r, N = int(rng.integers(1, 3)), int(rng.integers(2, 16))
        out.append(verify.random_instance(
            derive_seed(seed, f"instance/{i}"), n=n, m=m, r=r, N=N,
            sigma=sigmas[i % 3], state_loss_kind=losses[i % 2],
            gamma1=0.01 if (i // 2) % 2 else 0.0,
            gamma2=0.01 if (i // 4) % 2 else 0.0))
    return out


REFERENCE_STEPS = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5)


def reference_gradient(params, seq, x0, w):
    """Five-point central differences of the total cost over every parameter
    entry, with the step chosen per entry: of the estimates at
    REFERENCE_STEPS, the smaller of the two neighbouring steps whose
    estimates agree best. Large steps carry truncation error O(h^4), small
    ones rounding error about u*|J|/h; the best-agreeing pair sits between."""
    import numpy as np
    from brnn import verify
    from brnn.trainer import GradSet
    work = params.copy()
    out = {}
    for gname, pname in verify.PARAM_GROUPS:
        arr = getattr(work, pname)
        grad = np.empty_like(arr)
        for i in range(arr.size):
            orig = arr.flat[i]
            estimates = []
            for h in REFERENCE_STEPS:
                f = {}
                for k in (-2, -1, 1, 2):
                    arr.flat[i] = orig + k * h
                    f[k] = verify.cost_value(work, seq, x0, w)
                estimates.append((f[-2] - 8.0 * f[-1] + 8.0 * f[1] - f[2]) / (12.0 * h))
            arr.flat[i] = orig
            best = min(range(len(estimates) - 1),
                       key=lambda j: abs(estimates[j] - estimates[j + 1]))
            grad.flat[i] = estimates[best + 1]
        out[gname] = grad
    return GradSet(**out)


def check_gradient(instance, report):
    """A gradcheck instance passes if the oracle's report passes. The
    oracle's fixed two-point step can miss tol=1e-5 with a correct gradient:
    by rounding noise (about 1e-11) on an entry near 1e-6, or by truncation
    error where the cost curves steeply. Such an instance is compared again,
    with the same comparison and tolerance, against reference_gradient."""
    from brnn import verify
    if report.passed:
        return op("gradcheck", True, f"max_rel_err {report.max_rel_err:.3e}")
    again = verify.compare_gradients(verify.analytic_gradient(*instance),
                                     reference_gradient(*instance), report.tol)
    result = op("gradcheck", again.passed,
                f"oracle max_rel_err {report.max_rel_err:.3e}, "
                f"reference max_rel_err {again.max_rel_err:.3e}")
    result["rechecked"] = True
    return result


def gradcheck_ac1(seed):
    import brnn.verify
    instances = ac1_instances(seed, GRADCHECK_INSTANCES)
    yield "ready"
    start = time.perf_counter()
    reports = [brnn.verify.gradcheck(*inst, eps=1e-5, tol=1e-5) for inst in instances]
    elapsed = time.perf_counter() - start
    yield "done"
    ops = [check_gradient(inst, rep) for inst, rep in zip(instances, reports)]
    yield {"ops_per_s": len(reports) / elapsed,
           "gradcheck_instances_per_s": len(reports) / elapsed}, ops


def csv_pipeline(seed):
    import numpy as np
    from brnn import cli, tasks
    from brnn.loss import LossWeights, total_cost
    from brnn.model import forward
    data_seed = derive_seed(seed, "data")
    calls = [
        ("generate", ["generate", "--task", "bandpass", "--N", str(CSV_ROWS - 1),
                      "--m", "2", "--r", "2", "--seed", str(data_seed),
                      "--out", "data.csv"]),
        ("train", train_argv(seed, "--data", "data.csv", "--n", "8",
                             "--agg", "median", "--eta", "0.5",
                             "--epochs", str(CSV_EPOCHS))),
        ("eval", ["eval", "--checkpoint", "checkpoint.txt", "--data", "data.csv"]),
        ("stability", ["stability", "--checkpoint", "checkpoint.txt"]),
    ]
    yield "ready"
    results = {name: call_cli(argv) for name, argv in calls}
    yield "done"

    ops = []
    code = results["generate"][0]
    if code != 0:
        ops.append(op("generate", False, f"exit {code}"))
    else:
        want = tasks.gen_task(tasks.TaskSpec(kind="bandpass_filter", N=CSV_ROWS - 1,
                                             m=2, r=2, seed=data_seed))
        got = tasks.read_csv("data.csv")
        exact = (got.s.shape == want.s.shape and got.d.shape == want.d.shape
                 and (got.s == want.s).all() and (got.d == want.d).all())
        ops.append(op("generate", exact, "" if exact else "CSV differs from gen_task",
                      file_digest("data.csv")))
    ops.append(check_train(results["train"][0], "metrics.csv", "checkpoint.txt"))

    code, _, stdout = results["eval"]
    if code != 0:
        ops.append(op("eval", False, f"exit {code}"))
    else:
        params = cli.load_checkpoint("checkpoint.txt")
        seq = tasks.read_csv("data.csv")
        want = total_cost(forward(params, seq, np.zeros(params.n)), seq, params,
                          LossWeights()).total
        got = printed_value(stdout, "total")
        ops.append(op("eval", got == want, f"printed {got!r}, in memory {want!r}"))

    code, _, stdout = results["stability"]
    bound = printed_value(stdout, "bibo_bound")
    ops.append(op("stability", code == 0 and math.isfinite(bound),
                  f"exit {code}, bibo_bound {bound!r}"))

    epochs = len(metrics_totals("metrics.csv")) if results["train"][0] == 0 else 0
    train_rate = epochs / results["train"][1]
    yield {"ops_per_s": train_rate, "train_epochs_per_s": train_rate,
           "generate_rows_per_s": CSV_ROWS / results["generate"][1],
           "eval_rows_per_s": CSV_ROWS / results["eval"][1]}, ops


# Each workload is a generator: it makes its inputs and yields "ready", runs
# the timed calls and yields "done", then checks the outputs and yields
# (rates, ops).
WORKLOADS = {"wide_n256": wide_n256, "gradcheck_ac1": gradcheck_ac1,
             "csv_pipeline": csv_pipeline}


def environment():
    """Interpreter, library and machine facts recorded with every result."""
    import numpy as np
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "nproc": os.cpu_count(), "cpu": platform.processor() or platform.machine(),
           "blas": None, "blas_threads": None}
    try:
        with open("/proc/cpuinfo") as f:
            env["cpu"] = next(line.split(":", 1)[1].strip() for line in f
                              if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype, threads.restype = ctypes.c_char_p, ctypes.c_int
                    env["blas"] = config().decode()
                    env["blas_threads"] = threads()
                    return env
    return env


def run_rep(workload, seed, trace):
    """One repetition in the current process and directory."""
    import brnn.cli  # noqa: F401  (set-up ends with the package imported)
    from tracing import Tracer, summarize
    steps = WORKLOADS[workload](seed)
    next(steps)                       # inputs exist
    ready = time.perf_counter()
    tracer = Tracer() if trace else contextlib.nullcontext()
    with tracer:
        next(steps)                   # the timed calls
    wall_s = time.perf_counter() - ready
    rates, ops = next(steps)          # checks, untimed and untraced
    result = {"ready": ready, "wall_s": wall_s, "rates": rates, "ops": ops,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "trace": None}
    if trace:
        by_name, epoch_gaps, top_level_s = summarize(tracer.spans)
        result["trace"] = {"by_name": by_name, "epoch_gaps": epoch_gaps,
                           "top_level_s": top_level_s}
    return result


def main(argv):
    spec = json.loads(argv[1])
    result = run_rep(spec["workload"], spec["seed"], spec["trace"])
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
