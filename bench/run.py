"""brnn benchmark driver.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Repeats the workload, each repetition in
a fresh child process (`bench/workloads.py`) with BLAS pinned to one
thread, one at a time, until the next repetition would end after S
seconds (at least MIN_REPS repetitions). The last line of standard output
is the result object (`correct`, `attempted`, `failed`, `metrics`); the line
before it is the full record: environment, seed, every repetition's figures,
the named rates of each workload, the failed operations and the gradcheck
instances the oracle rejected and the benchmark checked again.

Repetitions take turns on the CPUs the driver may use. --trace 0 reports
the end-to-end metrics: setup_s and peak_rss_mb are medians over the
repetitions, wall_s and ops_per_s means. --trace 1 alternates untraced and
traced repetitions and reports the per-layer metrics from the traced ones
(medians of self times, exact counts from one repetition) plus the tracing
overhead.

`failed` counts operations whose output check failed, including outputs
that differ from the first repetition's bytes (traced or not) and exact
counts that differ between traced repetitions; fail_frac = failed /
attempted. Seeds 1-10 were used while the benchmark was tuned; seed 104729
is held out for later claims.
"""

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MIN_REPS = 3
CHILD_TIMEOUT_S = 150

# per-layer metric -> (unit, span name, field of the span's per-rep totals);
# these counts repeat exactly, self times are medians over traced reps
COUNTS = {"model.forward.calls": ("count", "model.forward", "calls"),
          "model.forward.steps": ("count", "model.forward", "units"),
          "adjoint.per_step_gradients.bytes_computed":
              ("bytes", "adjoint.per_step_gradients", "units"),
          "verify.cost_value.calls": ("count", "verify.cost_value", "calls"),
          "tasks.write_csv.bytes": ("bytes", "tasks.write_csv", "units"),
          "tasks.read_csv.rows": ("count", "tasks.read_csv", "units"),
          "cli.save_checkpoint.bytes": ("bytes", "cli.save_checkpoint", "units")}
PER_STEP = ("model.forward", "adjoint.backward_costates")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")   # the checkout's brnn, nothing else
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(workload, seed, trace, workdir, cpu):
    """One repetition in a fresh process pinned to `cpu`; its setup_s runs
    from the spawn to the moment the child has imported brnn and made its
    inputs."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    spec = json.dumps({"workload": workload, "seed": seed, "trace": trace})
    spawned = time.perf_counter()
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "workloads.py"), spec],
                          cwd=workdir, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S,
                          preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} repetition exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    rep = json.loads(proc.stdout.splitlines()[-1])
    rep["setup_s"] = rep.pop("ready") - spawned
    rep["traced"] = bool(trace)
    rep["cpu"] = cpu
    return rep


def tally(reps):
    """(attempted, failed): every checked operation of every repetition;
    an operation also fails if its output bytes differ from the first
    repetition's, or a traced repetition's exact counts differ from the
    first traced one's."""
    attempted = failed = 0
    digests = {}
    counts = None
    for rep in reps:
        for i, o in enumerate(rep["ops"]):
            reference = digests.setdefault((i, o["name"]), o["digest"])
            attempted += 1
            failed += not (o["ok"] and o["digest"] == reference)
        if rep["trace"] is not None:
            mine = {name: (agg["calls"], agg["units"])
                    for name, agg in rep["trace"]["by_name"].items()}
            attempted += 1
            failed += counts is not None and mine != counts
            counts = counts or mine
    return attempted, failed


def median_of(reps, key):
    return statistics.median(rep[key] for rep in reps)


def end_to_end(reps):
    # Means, not medians, of the repetitions' times: slowdowns from other
    # tenants come in bursts that make repetition times bimodal, and the
    # median of a bimodal sample jumps between the modes from run to run.
    untraced = [rep for rep in reps if not rep["traced"]]
    return {
        "setup_s": (median_of(reps, "setup_s"), "s"),
        "wall_s": (statistics.fmean(rep["wall_s"] for rep in untraced), "s"),
        "ops_per_s": (statistics.fmean(rep["rates"]["ops_per_s"] for rep in untraced),
                      "1/s"),
        "peak_rss_mb": (median_of(untraced, "peak_rss_mb"), "MB"),
    }


def percentile(values, q):
    """Nearest-rank percentile; 0.0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q / 100.0 * len(ordered)))]


def per_layer(reps):
    traced = [rep["trace"] for rep in reps if rep["traced"]]
    untraced = [rep for rep in reps if not rep["traced"]]
    first = traced[0]["by_name"]
    out = {}
    for name in tracing.TRACED:
        out[f"{name}.self_ms"] = (statistics.median(
            t["by_name"][name]["self_s"] for t in traced) * 1e3, "ms")
    for name in PER_STEP:
        steps = first[name]["units"]
        out[f"{name}.us_per_step"] = (
            out[f"{name}.self_ms"][0] * 1e3 / steps if steps else 0.0, "us")
    for metric, (unit, name, field) in COUNTS.items():
        out[metric] = (first[name][field], unit)
    gaps = [gap for t in traced for gap in t["epoch_gaps"]]
    out["trainer.epoch_ms.p50"] = (percentile(gaps, 50) * 1e3, "ms")
    out["trainer.epoch_ms.p99"] = (percentile(gaps, 99) * 1e3, "ms")
    traced_wall = median_of([rep for rep in reps if rep["traced"]], "wall_s")
    out["trace.overhead_frac"] = (traced_wall / median_of(untraced, "wall_s") - 1.0,
                                  "frac")
    out["trace.unaccounted_ms"] = (statistics.median(
        rep["wall_s"] - rep["trace"]["top_level_s"] for rep in reps if rep["traced"])
        * 1e3, "ms")
    return out


def named_rates(reps):
    untraced = [rep for rep in reps if not rep["traced"]]
    names = sorted(untraced[0]["rates"])
    return {name: statistics.fmean(rep["rates"][name] for rep in untraced)
            for name in names}


def measure(workload, seed, seconds, trace, workdir):
    # Repetitions take turns on the CPUs: on a shared VM each virtual CPU
    # is slowed by its own neighbours, independently of the others, for
    # stretches of seconds, so one CPU alone would make runs differ more.
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    reps = []
    while True:
        rep_start = time.perf_counter()
        reps.append(run_child(workload, seed, trace and len(reps) % 2 == 1, workdir,
                              cpus[len(reps) % len(cpus)]))
        rep_s = time.perf_counter() - rep_start
        if len(reps) >= MIN_REPS and time.perf_counter() + rep_s > start + seconds:
            return reps


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if not (ROOT / "src" / "brnn" / "__init__.py").is_file():
        print(f"error: no brnn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        reps = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    attempted, failed = tally(reps)
    metrics = per_layer(reps) if args.trace else end_to_end(reps)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": reps[0]["env"], "fail_frac": failed / attempted,
              "epoch_gap_samples": sum(len(rep["trace"]["epoch_gaps"])
                                       for rep in reps if rep["traced"]),
              "rates": named_rates(reps),
              "reps": [{key: rep[key] for key in ("traced", "cpu", "setup_s", "wall_s",
                                                   "peak_rss_mb", "rates")}
                       for rep in reps],
              "failures": [o for rep in reps for o in rep["ops"] if not o["ok"]][:20],
              "rechecked": [o for rep in reps for o in rep["ops"] if o.get("rechecked")][:20]}
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
