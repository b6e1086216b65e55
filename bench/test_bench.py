"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest bench
"""

import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import call_cli, check_train  # noqa: E402

TINY_TRAIN = ["train", "--task", "sine", "--N", "20", "--n", "4", "--epochs", "6",
              "--seed", "3", "--metrics-out", "metrics.csv",
              "--checkpoint-out", "checkpoint.txt"]


def namespaces():
    return {(m.__name__, attr): value for m in tracing._modules()
            for attr, value in vars(m).items() if callable(value)}


def rep_with(ops):
    return {"ops": ops, "trace": None}


def test_tracer_wraps_every_caller_name_and_restores_originals():
    before = namespaces()
    with tracing.Tracer():
        during = namespaces()
        assert during[("brnn.trainer", "forward")] is during[("brnn.verify", "forward")]
        assert during[("brnn.trainer", "forward")] is not before[("brnn.trainer", "forward")]
        assert during[("brnn.cli", "read_csv")] is not before[("brnn.cli", "read_csv")]
    after = namespaces()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_outputs_are_byte_identical_to_untraced(tmp_path, monkeypatch):
    outputs = []
    for traced in (False, True):
        workdir = tmp_path / str(traced)
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        with tracing.Tracer() if traced else contextlib.nullcontext():
            assert call_cli(TINY_TRAIN)[0] == 0
        outputs.append((Path("metrics.csv").read_bytes(),
                        Path("checkpoint.txt").read_bytes()))
    assert outputs[0] == outputs[1]


def test_self_times_cover_the_top_level_call_and_counts_are_exact(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with tracing.Tracer() as tracer:
        assert call_cli(TINY_TRAIN)[0] == 0
    by_name, epoch_gaps, top_level_s = tracing.summarize(tracer.spans)
    assert [s[0] for s in tracer.spans if s[3] < 0] == ["cli.main"]
    assert abs(sum(agg["self_s"] for agg in by_name.values()) - top_level_s) < 1e-9
    assert len(epoch_gaps) == 5
    N, n, m, r, epochs = 20, 4, 1, 1, 6
    per_epoch = N * (n * n + n * m + n) + (N + 1) * (r * n + r * m + r)
    assert by_name["adjoint.per_step_gradients"]["units"] == epochs * per_epoch * 8
    assert by_name["model.forward"]["calls"] == epochs
    assert by_name["model.forward"]["units"] == epochs * N
    assert by_name["cli.save_checkpoint"]["units"] == Path("checkpoint.txt").stat().st_size


def test_flipped_byte_in_metrics_csv_counts_as_failure(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, _ = call_cli(TINY_TRAIN)
    first = check_train(code, "metrics.csv", "checkpoint.txt")
    assert first["ok"]
    metrics = Path("metrics.csv")
    data = bytearray(metrics.read_bytes())
    last = len(data) - 2                     # last digit of the last lambda_max
    data[last] = ord("0") + (data[last] - ord("0") + 1) % 10
    metrics.write_bytes(bytes(data))
    second = check_train(code, "metrics.csv", "checkpoint.txt")
    assert second["ok"]                      # still finite and falling ...
    assert run.tally([rep_with([first]), rep_with([second])]) == (2, 1)  # ... but not the same bytes


def test_failed_call_and_silent_divergence_are_failures(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, _ = call_cli(["train", "--epochs", "-1"])
    assert code == 2
    assert not check_train(code, "metrics.csv", "checkpoint.txt")["ok"]
    # exits 0 although the total grows from 2.9 to 9e18
    code, _, _ = call_cli(["train", "--task", "lag", "--N", "20", "--n", "4", "--epochs", "6",
                           "--seed", "3", "--eta", "5", "--metrics-out", "metrics.csv",
                           "--checkpoint-out", "checkpoint.txt"])
    assert code == 0
    assert not check_train(code, "metrics.csv", "checkpoint.txt")["ok"]


def test_gradcheck_noise_is_rechecked_but_a_wrong_gradient_fails(monkeypatch):
    import brnn.verify
    # instance 268 of seed 533345198: a correct gradient whose dW[1, 0] is
    # 1.4e-6, where the oracle's two-point rounding noise gives rel err 1.35e-5
    instance = workloads.ac1_instances(533345198, 269)[268]
    report = brnn.verify.gradcheck(*instance, eps=1e-5, tol=1e-5)
    assert not report.passed
    checked = workloads.check_gradient(instance, report)
    assert checked["ok"] and checked["rechecked"]

    analytic = brnn.verify.analytic_gradient

    def off_by_1e4(*args):
        grads = analytic(*args)
        grads.dW = grads.dW * (1 + 1e-4)
        return grads

    monkeypatch.setattr(brnn.verify, "analytic_gradient", off_by_1e4)
    report = brnn.verify.gradcheck(*instance, eps=1e-5, tol=1e-5)
    assert not workloads.check_gradient(instance, report)["ok"]

def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "wide_n256",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_result_metrics_are_those_declared_in_benchmark_json(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with tracing.Tracer() as tracer:
        assert call_cli(TINY_TRAIN)[0] == 0
    by_name, epoch_gaps, top_level_s = tracing.summarize(tracer.spans)
    plain = {"traced": False, "setup_s": 0.2, "wall_s": 1.0, "peak_rss_mb": 40.0,
             "rates": {"ops_per_s": 6.0}, "trace": None}
    traced = dict(plain, traced=True, trace={"by_name": by_name, "epoch_gaps": epoch_gaps,
                                             "top_level_s": top_level_s})
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, metrics in (("end_to_end", run.end_to_end([plain, traced])),
                         ("per_layer", run.per_layer([plain, traced]))):
        assert ({m["name"]: m["unit"] for m in declared[key]}
                == {name: unit for name, (_, unit) in metrics.items()})
    assert {w["name"] for w in declared["workloads"]} == set(workloads.WORKLOADS)
