import errno
import inspect
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from brnn import cli, model, tasks
from brnn.cli import (load_checkpoint, main, save_checkpoint)
from brnn.errors import (CheckpointFormatError, ConfigurationError,
                         CostateExplosionError, DatasetFormatError,
                         DivergenceError, NumericalError, StateOverflowError,
                         UnboundedRegionError)
from brnn.loss import LossWeights, total_cost
from brnn.model import BrnnParams, Sequence, forward
from brnn.stability import make_stable_A
from brnn.tasks import TaskSpec, gen_task, read_csv, write_csv
from brnn.trainer import AGGREGATIONS


def run(*argv):
    return main(list(argv))


def test_generate_writes_dataset(tmp_path, capsys):
    out = tmp_path / "data.csv"
    assert run("generate", "--task", "sine", "--N", "20", "--out", str(out)) == 0
    seq = read_csv(out)
    assert seq.N == 20 and seq.m == 1 and seq.r == 1
    assert "wrote 21 rows" in capsys.readouterr().out


def test_generate_to_a_device_exits_0(capsys):
    # a path that is no regular file takes the dataset as a file does
    assert run("generate", "--N", "20", "--out", os.devnull) == 0
    assert capsys.readouterr().out == f"wrote 21 rows (m=1, r=1) to {os.devnull}\n"


@pytest.mark.parametrize("flags", [
    ["--n", "4"], ["--n", "4", "--sigma", "relu"], ["--n", "4", "--sigma", "logistic"],
    # from DIAGONAL_MIN_N on, the step products leave a diagonal A out
    ["--n", str(model.DIAGONAL_MIN_N), "--init-scale", "0.02", "--eta", "1e-3"]],
    ids=["tanh", "relu", "logistic", "diagonal A"])
def test_train_eval_checkpoint_round_trip(flags, tmp_path, capsys):
    data = tmp_path / "data.csv"
    metrics = tmp_path / "metrics.csv"
    ckpt = tmp_path / "model.txt"
    assert run("generate", "--task", "sine", "--N", "30", "--out", str(data)) == 0
    assert run("train", "--data", str(data), *flags, "--epochs", "3",
               "--metrics-out", str(metrics), "--checkpoint-out", str(ckpt)) == 0
    capsys.readouterr()

    lines = metrics.read_text().strip().splitlines()
    assert lines[0] == "epoch,total,phi_N,output_sum,state_sum,reg,grad_norm,lambda_max"
    assert len(lines) == 4  # header + 3 epochs

    # eval must reproduce the library-computed cost of the loaded checkpoint
    params = load_checkpoint(ckpt)
    seq = read_csv(data)
    expect = total_cost(forward(params, seq, np.zeros(params.n)), seq, params,
                        LossWeights()).total
    assert run("eval", "--checkpoint", str(ckpt), "--data", str(data)) == 0
    out = capsys.readouterr().out
    total_line = [ln for ln in out.splitlines() if ln.startswith("total =")][0]
    assert float(total_line.split("=")[1]) == expect
    # the trained model gets its certificate: for relu the small-gain bound,
    # for the logistic one with sup sigma' = 1/4
    assert run("stability", "--checkpoint", str(ckpt)) == 0
    assert "bibo_bound = " in capsys.readouterr().out


@pytest.mark.parametrize("agg", AGGREGATIONS)
def test_metrics_deterministic_across_runs(agg, tmp_path):
    paths = []
    for tag in ("a", "b"):
        metrics = tmp_path / f"metrics_{tag}.csv"
        ckpt = tmp_path / f"ckpt_{tag}.txt"
        assert run("train", "--task", "sine", "--N", "25", "--n", "4",
                   "--epochs", "4", "--seed", "3", "--agg", agg,
                   "--metrics-out", str(metrics), "--checkpoint-out", str(ckpt)) == 0
        paths.append((metrics, ckpt))
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()


def test_checkpoint_round_trip_exact(tmp_path):
    rng = np.random.default_rng(13)
    params = BrnnParams(A=0.5 * np.eye(3), U=rng.uniform(-1, 1, (3, 3)),
                        W=rng.uniform(-1, 1, (3, 2)), b=rng.uniform(-1, 1, 3),
                        V=rng.uniform(-1, 1, (2, 3)), Dft=rng.uniform(-1, 1, (2, 2)),
                        c=rng.uniform(-1, 1, 2), sigma="logistic")
    path = tmp_path / "ckpt.txt"
    save_checkpoint(path, params)
    back = load_checkpoint(path)
    assert back.sigma == "logistic"
    for name in ("A", "U", "W", "b", "V", "Dft", "c"):
        assert (getattr(back, name) == getattr(params, name)).all()


def checkpoint_reference(path, params):
    """The per-value formatting loop save_checkpoint must match byte for byte."""
    lines = [f"brnn-v1 {params.n} {params.m} {params.r} {params.sigma}"]
    for name in ("A", "U", "W", "b", "V", "Dft", "c"):
        for row in np.atleast_2d(getattr(params, name)):
            lines.append(" ".join(repr(float(v)) for v in row))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def test_checkpoint_bytes_equal_the_reference_formatter(tmp_path):
    rng = np.random.default_rng(17)
    cases = [(1, 1, 1), (3, 2, 2), (6, 1, 4)]
    for i, (n, m, r) in enumerate(cases):
        params = BrnnParams(
            A=0.5 * np.eye(n), U=rng.uniform(-1, 1, (n, n)) * 1e-300,
            W=rng.uniform(-1, 1, (n, m)) * 1e300, b=np.full(n, -0.0),
            V=rng.standard_normal((r, n)), Dft=rng.uniform(-1, 1, (r, m)) / 3.0,
            c=np.full(r, 5e-324), sigma="relu")
        got, want = tmp_path / f"got{i}.txt", tmp_path / f"want{i}.txt"
        save_checkpoint(got, params)
        checkpoint_reference(want, params)
        assert got.read_bytes() == want.read_bytes()


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "ckpt.txt"
    path.write_text("not-a-checkpoint 1 1 1 tanh\n0.0\n")
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)
    path.write_text("brnn-v1 2 1 1 tanh\n0.0 0.0\n")
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


# a checkpoint at n = 2, m = r = 1: the header, then A, U and W two rows
# each and b, V, Dft and c one row each
CHECKPOINT_2_1_1 = ("brnn-v1 2 1 1 tanh\n0.5 0.0\n0.0 0.5\n" + "0.0 0.0\n" * 2
                    + "0.0\n" * 2 + "0.0 0.0\n" * 2 + "0.0\n" * 2)


@pytest.mark.parametrize("text, message", [
    ("", "empty checkpoint file"),
    (CHECKPOINT_2_1_1.replace("0.5 0.0\n", "0.5\n", 1),
     "A row 0 has 1 values, expected 2"),
    (CHECKPOINT_2_1_1.replace("0.5 0.0\n", "0.5 zero\n", 1),
     "A row 0: could not convert string to float: 'zero'"),
    # a header's sizes are checked against the file before any row is stored
    ("brnn-v1 1000000000000 1 1 tanh\n0.5\n",
     "expected 3000000000004 matrix rows, found 1"),
], ids=["empty file", "row one value short", "value not a number",
        "header larger than the file"])
def test_malformed_checkpoint_rows_exit_4(text, message, tmp_path, capsys):
    ckpt = tmp_path / "c.txt"
    ckpt.write_text(CHECKPOINT_2_1_1)
    assert run("stability", "--checkpoint", str(ckpt)) == 0
    ckpt.write_text(text)
    capsys.readouterr()
    assert run("stability", "--checkpoint", str(ckpt)) == 4
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_unknown_subcommand_exits_2():
    assert run("explode") == 2


def test_unknown_flag_exits_2():
    assert run("train", "--warp-speed", "9") == 2


def test_bad_configuration_exits_2(tmp_path):
    assert run("train", "--task", "sine", "--alphaA", "5.0",
               "--metrics-out", str(tmp_path / "m.csv"),
               "--checkpoint-out", str(tmp_path / "c.txt")) == 2


@pytest.mark.parametrize("flag, value, key", [
    ("--init-scale", "nan", "init_scale"), ("--init-scale", "inf", "init_scale"),
    ("--eta", "nan", "eta"), ("--eta", "inf", "eta"),
    ("--stop-tol", "nan", "stop_tol")])
def test_non_finite_train_values_exit_2(flag, value, key, tmp_path, capsys):
    metrics = tmp_path / "m.csv"
    assert run("train", "--N", "10", "--n", "3", "--epochs", "2", flag, value,
               "--metrics-out", str(metrics),
               "--checkpoint-out", str(tmp_path / "c.txt")) == 2
    assert key in capsys.readouterr().err
    assert not metrics.exists()


@pytest.mark.parametrize("epochs, message", [("0", "epochs must be >= 1"),
                                            ("-1", "epochs must be >= 1")])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_train_with_fewer_than_1_epoch_exits_2(epochs, message, source, tmp_path, capsys):
    metrics, checkpoint = tmp_path / "m.csv", tmp_path / "c.txt"
    argv = ["train", "--N", "10", "--n", "2", "--metrics-out", str(metrics),
            "--checkpoint-out", str(checkpoint)]
    if source == "flag":
        argv += ["--epochs", epochs]
    else:
        config = tmp_path / "train.cfg"
        config.write_text(f"epochs = {epochs}\n")
        argv += ["--config", str(config)]
    assert run(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not metrics.exists() and not checkpoint.exists()


def test_train_initialises_through_init_params(tmp_path):
    from brnn.trainer import TrainConfig, init_params, train
    ckpt = tmp_path / "c.txt"
    assert run("train", "--N", "20", "--n", "3", "--epochs", "3",
               "--init-scale", "0.3", "--alphaA", "0.8", "--seed", "5",
               "--metrics-out", str(tmp_path / "m.csv"),
               "--checkpoint-out", str(ckpt)) == 0
    seq = gen_task(TaskSpec(kind="sine_track", N=20, seed=5))
    params0 = init_params(3, 1, 1, init_scale=0.3,
                          alpha_A=0.8, seed=5)
    params, _ = train(TrainConfig(epochs=3), seq, params0, np.zeros(3),
                      LossWeights())
    save_checkpoint(tmp_path / "lib.txt", params)
    assert ckpt.read_bytes() == (tmp_path / "lib.txt").read_bytes()


def test_train_on_a_lag_task_draws_no_copy_of_its_inputs(monkeypatch, tmp_path):
    # one --seed feeds the dataset noise and the initial draw; the draw's
    # stream is split off the noise's, so U is no scaled copy of s
    from brnn.trainer import train
    seen = []
    monkeypatch.setattr(cli, "train", lambda config, seq, params0, *rest:
                        seen.append((seq.s, params0.U)) or train(config, seq, params0, *rest))
    assert run("train", "--task", "lag", "--N", "30", "--n", "4", "--seed", "7",
               "--epochs", "1", "--metrics-out", str(tmp_path / "m.csv"),
               "--checkpoint-out", str(tmp_path / "c.txt")) == 0
    (s, U), = seen
    ratio = U.ravel() / s.ravel()[:U.size]
    assert not np.allclose(ratio, ratio[0])


# Runs brnn.cli.main on each argv of the JSON list in argv[1], in a fresh
# interpreter, and prints per command [command, exit code, whether
# numpy.random is unloaded afterwards or a bare `import numpy` loads it].
FRESH_RUN = """
import json, sys
import numpy
eager = "numpy.random" in sys.modules
from brnn.cli import main
print(json.dumps([[argv[0], main(argv), eager or "numpy.random" not in sys.modules]
                  for argv in json.loads(sys.argv[1])]))
"""


def test_generate_train_eval_and_stability_load_no_numpy_random(tmp_path):
    # NumPy 2 loads numpy.random on first use, NumPy 1 at `import numpy`
    argvs = [["generate", "--task", "lag", "--N", "40", "--out", "d.csv"],
             ["train", "--data", "d.csv", "--n", "3", "--epochs", "2"],
             ["eval", "--checkpoint", "checkpoint.txt", "--data", "d.csv"],
             ["stability", "--checkpoint", "checkpoint.txt"]]
    # the directory brnn was imported from, first on the child's path
    root = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [root, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", FRESH_RUN, json.dumps(argvs)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert json.loads(done.stdout.splitlines()[-1]) == [
        [argv[0], 0, True] for argv in argvs]


def test_init_defaults_are_read_from_init_params():
    from brnn.trainer import init_params
    defaults = init_params.__kwdefaults__
    assert cli.KEYS["init_scale"][1] == defaults["init_scale"]
    assert cli.KEYS["alphaA"][1] == defaults["alpha_A"]
    assert cli.KEYS["sigma"][1] == defaults["sigma"]
    # one seed key feeds both the task and the initialisation
    assert cli.KEYS["seed"][1] == TaskSpec.seed == defaults["seed"]


def test_gradcheck_and_stability_defaults_are_read_from_their_owners(monkeypatch,
                                                                      capsys):
    from brnn import stability, verify

    def defaults(func):
        return {k: p.default for k, p in inspect.signature(func).parameters.items()}

    args = cli.build_parser().parse_args(["gradcheck"])
    instance, check = defaults(verify.random_instance), defaults(verify.gradcheck)
    for key in ("n", "m", "r", "N", "sigma", "gamma1", "gamma2"):
        assert getattr(args, key) == instance[key]
    assert args.state_loss == instance["state_loss_kind"]
    assert (args.eps, args.tol) == (check["eps"], check["tol"])
    assert (args.seed, args.instances) == (0, 1)       # the CLI's own

    # stability hands make_stable_A only the design flags given, so the
    # others take its defaults; --n defaults to 1, the CLI's own
    calls = []
    make_stable_A = stability.make_stable_A
    monkeypatch.setattr(stability, "make_stable_A",
                        lambda *a, **kw: calls.append((a, kw)) or make_stable_A(*a, **kw))
    assert run("stability") == 0
    assert run("stability", "--scheme", "random_diagonal", "--seed", "3") == 0
    assert calls == [((1,), {}), ((1,), {"scheme": "random_diagonal", "seed": 3})]


def test_config_value_that_fails_its_cast_exits_2(tmp_path, capsys):
    config = tmp_path / "train.cfg"
    config.write_text("N = abc\n")
    assert run("train", "--config", str(config),
               "--metrics-out", str(tmp_path / "m.csv"),
               "--checkpoint-out", str(tmp_path / "c.txt")) == 2
    assert "'abc'" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    # a misspelled key must not fall back to the default silently
    config = tmp_path / "train.cfg"
    config.write_text("N = 20\n# epochs below\nepoch = 3\n")
    metrics = tmp_path / "m.csv"
    assert run("train", "--config", str(config),
               "--metrics-out", str(metrics),
               "--checkpoint-out", str(tmp_path / "c.txt")) == 2
    err = capsys.readouterr().err
    assert "line 3" in err and "'epoch'" in err
    assert not metrics.exists()


def test_config_line_without_equals_exits_2(tmp_path, capsys):
    config = tmp_path / "train.cfg"
    config.write_text("N 20\n")
    assert run("train", "--config", str(config),
               "--metrics-out", str(tmp_path / "m.csv"),
               "--checkpoint-out", str(tmp_path / "c.txt")) == 2
    assert capsys.readouterr().err == f"error: {config}: line 1: expected key = value\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["train.cfg"]


# every key train takes -> a value other than its default, and the flags
# that make that value change the run (coeffs only shapes the bandpass task)
KEY_VALUES = {
    "task": ("bandpass", []), "N": ("9", []), "m": ("2", []), "r": ("2", []),
    # a value that starts with "-" and is no plain negative number to argparse
    "omega": ("0.7", []), "phase": ("-1e-3", []),
    "coeffs": ("0.5,-0.1,2.0", ["--task", "bandpass"]),
    "lag": ("3", ["--task", "lag"]), "noise": ("0.2", []), "seed": ("5", []),
    "data": ("d.csv", []), "n": ("5", []), "sigma": ("logistic", []),
    "eta": ("0.05", []), "epochs": ("3", []), "agg": ("median", []),
    "stop_tol": ("1e9", []), "init_scale": ("0.3", []), "alphaA": ("0.8", []),
    "beta": ("0.1", ["--state-loss", "l1"]), "beta0": ("0.1", ["--state-loss", "l1"]),
    "gamma1": ("0.1", []), "gamma2": ("0.1", []),
    "state_loss": ("l1", ["--beta", "0.1"]),
    "alpha_ent": ("2.5", ["--state-loss", "tanh_approx", "--beta", "0.1"]),
}


def test_key_values_cover_every_config_key():
    assert set(KEY_VALUES) == set(cli.KEYS)


@pytest.mark.parametrize("key", sorted(KEY_VALUES))
def test_config_file_key_equals_its_flag(key, tmp_path, capsys):
    value, extra = KEY_VALUES[key]
    if key == "data":
        value = str(tmp_path / value)
        assert run("generate", "--task", "lag", "--N", "12", "--seed", "3",
                   "--out", value) == 0
    base = [f for k, v in (("N", "12"), ("n", "3"), ("epochs", "2")) if k != key
            for f in (f"--{k}", v)] + extra
    config = tmp_path / "run.cfg"
    config.write_text(f"{key} = {value}\n")
    # the same file behind a UTF-8 byte-order mark, as some editors save it
    bom = tmp_path / "bom.cfg"
    bom.write_bytes(b"\xef\xbb\xbf" + config.read_bytes())

    def outputs(tag, *argv):
        metrics, ckpt = tmp_path / f"m_{tag}.csv", tmp_path / f"c_{tag}.txt"
        assert run("train", *base, *argv, "--metrics-out", str(metrics),
                   "--checkpoint-out", str(ckpt)) == 0
        return metrics.read_bytes(), ckpt.read_bytes()

    by_flag = outputs("flag", f"--{key.replace('_', '-')}={value}")
    assert outputs("file", "--config", str(config)) == by_flag
    assert outputs("bom", "--config", str(bom)) == by_flag
    assert outputs("default") != by_flag  # the value is not the default


def test_a_flag_value_that_starts_with_a_minus_takes_the_equals_form(tmp_path):
    # argparse reads `--coeffs -1.2,-0.72,1` as a flag without its value
    out = tmp_path / "d.csv"
    assert run("generate", "--task", "bandpass", "--N", "20", "--coeffs=-1.2,-0.72,1",
               "--out", str(out)) == 0
    want = gen_task(TaskSpec("bandpass_filter", 20, coeffs=(-1.2, -0.72, 1.0)))
    assert (read_csv(out).d == want.d).all()


def test_non_number_coeffs_exits_2(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    outs = ["--metrics-out", str(tmp_path / "m.csv"),
            "--checkpoint-out", str(tmp_path / "c.txt")]
    # an empty field is a field, so each of the last three has four
    for coeffs in ("a,b,c", "0.5,,-0.1,1", "0.5,-0.1,1,", ",0.5,-0.1,1"):
        config.write_text(f"coeffs = {coeffs}\n")
        for argv in (["generate", "--coeffs", coeffs, "--out", str(tmp_path / "d.csv")],
                     ["train", "--coeffs", coeffs, *outs],
                     ["train", "--config", str(config), *outs]):
            assert run(*argv) == 2
            assert (f"coeffs must be 'a1,a2,b0', got {coeffs!r}"
                    in capsys.readouterr().err)
    assert not (tmp_path / "d.csv").exists() and not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize("coeffs", ["0.5, -0.1, 1", "0.5 -0.1 1", " 0.5,-0.1 , 1 "])
def test_coeffs_fields_split_at_commas_or_whitespace(coeffs, tmp_path):
    out = tmp_path / "d.csv"
    assert run("generate", "--task", "bandpass", "--N", "20", f"--coeffs={coeffs}",
               "--out", str(out)) == 0
    want = gen_task(TaskSpec("bandpass_filter", 20, coeffs=(0.5, -0.1, 1.0)))
    assert (read_csv(out).d == want.d).all()


@pytest.mark.parametrize("key, value", [
    ("N", "abc"), ("noise", "abc"), ("coeffs", "a,b,c"), ("sigma", "softsign"),
    ("task", "foo")])
def test_bad_value_by_flag_and_by_config_gives_one_message(key, value, tmp_path,
                                                           capsys):
    # a config value is parsed as its flag: same cast, choices and message
    config = tmp_path / "run.cfg"
    config.write_text(f"{key} = {value}\n")
    outs = ["--metrics-out", str(tmp_path / "m.csv"),
            "--checkpoint-out", str(tmp_path / "c.txt")]
    errs = []
    for argv in ([f"--{key}={value}"], ["--config", str(config)]):
        assert run("train", *argv, *outs) == 2
        errs.append(capsys.readouterr().err.splitlines()[-1])
    assert errs[0] == errs[1]
    assert f"argument --{key}: " in errs[0] and repr(value) in errs[0]
    assert not any(p.suffix != ".cfg" for p in tmp_path.iterdir())


def task_argv(command, tmp_path, *flags):
    """generate or train (N = 12) with the given task flags, outputs in tmp_path."""
    if command == "generate":
        return ["generate", "--N", "12", *flags, "--out", str(tmp_path / "d.csv")]
    return ["train", "--N", "12", "--epochs", "1", *flags,
            "--metrics-out", str(tmp_path / "m.csv"),
            "--checkpoint-out", str(tmp_path / "c.txt")]


@pytest.mark.parametrize("coeffs", ["nan,0,1", "inf,0,1", "1,0,-inf"])
@pytest.mark.parametrize("command", ["generate", "train"])
def test_non_finite_coeffs_exits_2(command, coeffs, tmp_path, capsys):
    argv = task_argv(command, tmp_path, "--task", "bandpass", "--coeffs", coeffs)
    assert run(*argv) == 2
    assert "coeffs must be three finite numbers" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("noise", ["nan", "-1", "inf"])
@pytest.mark.parametrize("task", ["lag", "sine"])
@pytest.mark.parametrize("command", ["generate", "train"])
def test_bad_noise_exits_2(command, task, noise, tmp_path, capsys):
    argv = task_argv(command, tmp_path, "--task", task, "--noise", noise)
    assert run(*argv) == 2
    assert "noise must be finite and >= 0" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("task, kind", [("lag", "lag_copy"), ("bandpass", "bandpass_filter")])
def test_more_targets_than_inputs_exits_2(task, kind, tmp_path, capsys):
    # lag and bandpass make each target from an input of its own
    argv = task_argv("generate", tmp_path, "--task", task, "--m", "1", "--r", "2")
    assert run(*argv) == 2
    assert capsys.readouterr().err == f"error: {kind} requires r <= m\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, key", [
    (["train", "--data", "s.csv", "--noise", "nan", "--coeffs", "nan,0,1",
      "--epochs", "1"], "coeffs"),
    (["train", "--data", "s.csv", "--noise", "-1", "--epochs", "1"], "noise"),
    (["train", "--task", "sine", "--coeffs", "nan,0,1", "--epochs", "1"], "coeffs"),
    (["generate", "--task", "sine", "--coeffs", "nan,0,1"], "coeffs"),
    (["generate", "--task", "lag", "--coeffs", "inf,0,1"], "coeffs"),
    (["train", "--data", "s.csv", "--task", "lag", "--lag", "99", "--epochs", "1"],
     "lag"),
])
def test_bad_task_values_exit_2_for_every_kind_and_under_data(argv, key, tmp_path,
                                                              capsys):
    # TaskSpec checks coeffs and noise whether or not the task kind reads
    # them, and train builds one under --data too, where no task is generated
    data = tmp_path / "s.csv"
    assert run("generate", "--task", "lag", "--N", "12", "--out", str(data)) == 0
    outs = {"generate": ["--out", str(tmp_path / "d.csv")],
            "train": ["--metrics-out", str(tmp_path / "m.csv"),
                      "--checkpoint-out", str(tmp_path / "c.txt")]}[argv[0]]
    argv = [str(data) if a == "s.csv" else a for a in argv]
    capsys.readouterr()
    assert run(*argv, *outs) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv"]


def test_malformed_task_values_under_data_exit_2(tmp_path, capsys):
    # under --data the task keys go unused, but a malformed one is an error
    data = tmp_path / "d.csv"
    assert run("generate", "--task", "lag", "--N", "12", "--out", str(data)) == 0
    metrics = tmp_path / "m.csv"
    outs = ["--data", str(data), "--epochs", "1", "--metrics-out", str(metrics),
            "--checkpoint-out", str(tmp_path / "c.txt")]
    config = tmp_path / "run.cfg"
    for text, argv, msg in (
            (None, ["--coeffs", "a,b,c"], "got 'a,b,c'"),
            ("N = abc\n", [], "invalid int value: 'abc'"),
            ("coeffs = a,b,c\n", [], "got 'a,b,c'"),
            ("task = foo\n", [], "invalid choice: 'foo'")):
        if text is not None:
            config.write_text(text)
            argv = ["--config", str(config)]
        capsys.readouterr()
        assert run("train", *argv, *outs) == 2
        assert msg in capsys.readouterr().err
    assert not metrics.exists()
    # well-formed task keys that go unused stay accepted, so a config file
    # shared with generate still works
    config.write_text("task = bandpass\nN = 40\ncoeffs = 0.5,-0.1,2.0\nomega = 0.2\n")
    assert run("train", "--config", str(config), *outs) == 0


def test_repeated_config_key_exits_2(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("N = 20\nepochs = 1\nN = 5\n")
    metrics = tmp_path / "m.csv"
    assert run("train", "--config", str(config), "--metrics-out", str(metrics),
               "--checkpoint-out", str(tmp_path / "c.txt")) == 2
    err = capsys.readouterr().err
    assert "line 3" in err and "line 1" in err and "'N'" in err
    assert not metrics.exists()


def test_eval_loss_flags_set_the_weights(tmp_path, capsys):
    data, ckpt = tmp_path / "d.csv", tmp_path / "c.txt"
    assert run("generate", "--N", "15", "--out", str(data)) == 0
    assert run("train", "--data", str(data), "--n", "3", "--epochs", "1",
               "--metrics-out", str(tmp_path / "m.csv"),
               "--checkpoint-out", str(ckpt)) == 0
    params, seq = load_checkpoint(ckpt), read_csv(data)
    w = LossWeights(beta=0.1, beta0=0.2, gamma1=0.3, gamma2=0.4,
                    state_loss_kind="tanh_approx", alpha_ent=2.5)
    expect = total_cost(forward(params, seq, np.zeros(params.n)), seq, params, w).total
    capsys.readouterr()
    assert run("eval", "--checkpoint", str(ckpt), "--data", str(data),
               "--beta", "0.1", "--beta0", "0.2", "--gamma1", "0.3", "--gamma2", "0.4",
               "--state-loss", "tanh_approx", "--alpha-ent", "2.5") == 0
    out = capsys.readouterr().out
    assert f"total = {expect!r}" in out.splitlines()


def test_dataset_field_of_200001_digits_trains(tmp_path):
    # a numeral has no length limit: the field is read as float() reads it
    field = "0." + "1" * 200_000
    data = tmp_path / "d.csv"
    data.write_text(f"k,s1,d1\n0,1.0,2.0\n1,{field},2.0\n")
    assert run("train", "--data", str(data), "--epochs", "1",
               "--metrics-out", str(tmp_path / "m.csv"),
               "--checkpoint-out", str(tmp_path / "c.txt")) == 0
    assert read_csv(data).s.tolist() == [[1.0], [float(field)]]
    assert (tmp_path / "c.txt").exists()


def test_missing_dataset_exits_4(tmp_path, capsys):
    assert run("eval", "--checkpoint", str(tmp_path / "none.txt"),
               "--data", str(tmp_path / "none.csv")) == 4


@pytest.mark.parametrize("spelling", ["flag", "config"])
def test_empty_data_path_is_a_path_not_generate(spelling, tmp_path, monkeypatch, capsys):
    # only a missing data key means "generate the task"; an empty one is an
    # unreadable path
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.cfg").write_text("data =\nepochs = 1\n")
    argv = (["--data", "", "--epochs", "1"] if spelling == "flag"
            else ["--config", "c.cfg"])
    assert run("train", *argv) == 4
    assert capsys.readouterr().err == "error: [Errno 2] No such file or directory: ''\n"
    assert not (tmp_path / "metrics.csv").exists()
    assert not (tmp_path / "checkpoint.txt").exists()


@pytest.mark.parametrize("argv", [["train", "--config", "", "--epochs", "1"],
                                  ["stability", "--checkpoint", ""],
                                  ["stability", "--csv-out", ""]],
                         ids=["train --config", "stability --checkpoint",
                              "stability --csv-out"])
def test_every_empty_path_flag_is_a_path(argv, tmp_path, monkeypatch, capsys):
    # as for --data: an empty path is neither a flag left out (train on the
    # defaults, certify the default A, write no CSV) nor a readable file
    monkeypatch.chdir(tmp_path)
    assert run(*argv) == 4
    assert capsys.readouterr().err == "error: [Errno 2] No such file or directory: ''\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("flag", ["--checkpoint-out", "--metrics-out"])
def test_train_that_cannot_write_an_output_leaves_none(flag, tmp_path, monkeypatch,
                                                      capsys):
    # the other output goes to its default path in the working directory
    monkeypatch.chdir(tmp_path)
    missing = tmp_path / "no" / "such" / "out"
    assert run("train", "--N", "20", "--epochs", "1", flag, str(missing)) == 4
    assert capsys.readouterr() == (
        "", f"error: [Errno 2] No such file or directory: '{missing}'\n")
    assert not any(tmp_path.iterdir())


def test_train_refuses_one_file_for_both_outputs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run("train", "--N", "20", "--epochs", "1", "--metrics-out", "x.txt",
               "--checkpoint-out", "./x.txt") == 2
    assert capsys.readouterr() == (
        "", "error: --metrics-out and --checkpoint-out name one file\n")
    assert not any(tmp_path.iterdir())


def fill_disk_at(monkeypatch, name, room):
    """Writes to a file called `name` fail with ENOSPC once `room`
    characters are in it: the characters that fit reach the file first, as
    on a disk that fills up mid-write."""
    def limited_open(path, mode="r", **kwargs):
        f = open(path, mode, **kwargs)
        if os.path.basename(path) == name:
            write, left = f.write, room

            def write_some(text):
                nonlocal left
                if len(text) > left:
                    write(text[:left])
                    f.flush()
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                left -= len(text)
                return write(text)
            f.write = write_some
        return f
    for module in (cli, tasks):
        monkeypatch.setattr(module, "open", limited_open, raising=False)


@pytest.mark.parametrize("argv, name, room", [
    (["generate", "--task", "bandpass", "--N", "20000", "--m", "2", "--r", "2"],
     "dataset.csv", 100_000),
    (["train", "--N", "20", "--epochs", "1"], "metrics.csv", 100),
    (["train", "--N", "20", "--epochs", "1"], "checkpoint.txt", 100),
    (["stability", "--n", "2", "--csv-out", "s.csv"], "s.csv", 50),
], ids=["generate", "train metrics", "train checkpoint", "stability csv"])
def test_a_write_that_fails_mid_file_leaves_no_output(argv, name, room, tmp_path,
                                                      monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    fill_disk_at(monkeypatch, name, room)
    assert run(*argv) == 4
    assert capsys.readouterr() == ("", "error: [Errno 28] No space left on device\n")
    assert not any(tmp_path.iterdir())


def test_train_whose_metrics_cannot_be_written_keeps_a_checkpoint_link(tmp_path,
                                                                       capsys):
    # as /dev/stdout is a link: the checkpoint went through it, and it stays
    target, link = tmp_path / "target.txt", tmp_path / "link.txt"
    link.symlink_to(target)
    assert run("train", "--N", "20", "--epochs", "1", "--checkpoint-out", str(link),
               "--metrics-out", str(tmp_path / "no" / "m.csv")) == 4
    assert link.is_symlink() and target.exists()


def test_stability_that_cannot_write_its_csv_prints_nothing(tmp_path, capsys):
    missing = tmp_path / "no" / "s.csv"
    assert run("stability", "--n", "2", "--csv-out", str(missing)) == 4
    assert capsys.readouterr() == (
        "", f"error: [Errno 2] No such file or directory: '{missing}'\n")


def test_malformed_dataset_exits_4(tmp_path, capsys):
    # the dataset grammar has no quoting: a quoted number is no number
    ckpt = tmp_path / "c.txt"
    save_checkpoint(ckpt, BrnnParams(A=[[0.5]], U=[[0.0]], W=[[1.0]], b=[0.0],
                                     V=[[1.0]], Dft=[[0.0]], c=[0.0]))
    bad = tmp_path / "bad.csv"
    for text, line in (("k,s1,d1\n0,1.0,2.0\n1,zzz,2.0\n", 3),
                       ('k,s1,d1\n0,"1.5",2.0\n1,1.0,2.0\n', 2)):
        bad.write_text(text)
        for argv in (["train", "--data", str(bad), "--metrics-out", str(tmp_path / "m.csv"),
                      "--checkpoint-out", str(tmp_path / "out.txt")],
                     ["eval", "--checkpoint", str(ckpt), "--data", str(bad)]):
            assert run(*argv) == 4
            captured = capsys.readouterr()
            assert f"line {line}" in captured.err and captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.csv", "c.txt"]


@pytest.mark.parametrize("tail", [b"", b"\r\n"], ids=["bulk parse", "row parse"])
def test_dataset_and_checkpoint_behind_a_bom_read_as_the_plain_files(
        tail, tmp_path, monkeypatch, capsys):
    # a UTF-8 byte-order mark, as some editors save a file, is not part of
    # the first field; a blank line sends the dataset to the row-by-row parse
    monkeypatch.chdir(tmp_path)
    assert run("generate", "--task", "lag", "--N", "12", "--out", "d.csv") == 0
    bom = b"\xef\xbb\xbf"
    (tmp_path / "bom.csv").write_bytes(bom + (tmp_path / "d.csv").read_bytes() + tail)

    def outputs(data):
        assert run("train", "--data", data, "--n", "3", "--epochs", "2",
                   "--metrics-out", f"m_{data}", "--checkpoint-out", f"c_{data}") == 0
        return (tmp_path / f"m_{data}").read_bytes(), (tmp_path / f"c_{data}").read_bytes()

    assert outputs("bom.csv") == outputs("d.csv")
    (tmp_path / "bom.txt").write_bytes(bom + (tmp_path / "c_d.csv").read_bytes())
    capsys.readouterr()
    evals = []
    for ckpt in ("c_d.csv", "bom.txt"):
        assert run("eval", "--checkpoint", ckpt, "--data", "bom.csv") == 0
        evals.append(capsys.readouterr().out)
    assert evals[0] == evals[1]


@pytest.mark.parametrize("argv, code", [
    (["train", "--data", "{bin}"], 4),
    (["eval", "--checkpoint", "{bin}", "--data", "{data}"], 4),
    (["eval", "--checkpoint", "{ckpt}", "--data", "{bin}"], 4),
    (["stability", "--checkpoint", "{bin}"], 4),
    (["train", "--config", "{bin}"], 2)],
    ids=["train --data", "eval --checkpoint", "eval --data", "stability --checkpoint",
         "train --config"])
def test_non_text_files_exit_with_their_code(argv, code, tmp_path, monkeypatch, capsys):
    # a dataset or checkpoint that is not text is a format error (4), a
    # config file that is not text a configuration error (2)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bin.dat").write_bytes(bytes.fromhex("fffe00626164"))
    assert run("generate", "--N", "10", "--out", "data.csv") == 0
    save_checkpoint(tmp_path / "ckpt.txt", BrnnParams(
        A=[[0.5]], U=[[0.0]], W=[[1.0]], b=[0.0], V=[[1.0]], Dft=[[0.0]], c=[0.0]))
    capsys.readouterr()
    paths = {"bin": "bin.dat", "data": "data.csv", "ckpt": "ckpt.txt"}
    assert run(*(arg.format(**paths) for arg in argv)) == code
    err = capsys.readouterr().err
    assert err.startswith("error: bin.dat: not a text file") and len(err.splitlines()) == 1
    assert not (tmp_path / "metrics.csv").exists()


@pytest.mark.parametrize("dims", ["-1 1 1", "1 0 1", "1 1 -2"])
def test_checkpoint_dimensions_below_1_exit_4(dims, tmp_path, capsys):
    ckpt = tmp_path / "c.txt"
    ckpt.write_text(f"brnn-v1 {dims} tanh\n1\n")
    assert run("stability", "--checkpoint", str(ckpt)) == 4
    assert f"bad dimensions in header 'brnn-v1 {dims} tanh'" in capsys.readouterr().err


def test_unknown_sigma_in_a_checkpoint_exits_4(tmp_path, capsys):
    ckpt = tmp_path / "c.txt"
    ckpt.write_text("brnn-v1 1 1 1 softsign\n0.5\n0.1\n1\n0\n1\n0\n0\n")
    # eval loads the checkpoint before it reads the dataset
    for argv in (["stability", "--checkpoint", str(ckpt)],
                 ["eval", "--checkpoint", str(ckpt), "--data", str(tmp_path / "d.csv")]):
        assert run(*argv) == 4
        assert capsys.readouterr().err == "error: unknown nonlinearity 'softsign'\n"


# each error class, the exit code cli.main maps it to, and the prefix of
# its one line on stderr
EXIT_CODES = [
    (ConfigurationError, 2, "error: "),
    (MemoryError, 2, "error: sizes too large for memory: "),
    (NumericalError, 3, "numerical failure: "),
    (StateOverflowError, 3, "numerical failure: "),
    (CostateExplosionError, 3, "numerical failure: "),
    (DivergenceError, 3, "numerical failure: "),
    (UnboundedRegionError, 3, "numerical failure: "),
    (DatasetFormatError, 4, "error: "),
    (CheckpointFormatError, 4, "error: "),
    (OSError, 4, "error: "),
]


@pytest.mark.parametrize("error, code, prefix", EXIT_CODES,
                         ids=[error.__name__ for error, _, _ in EXIT_CODES])
def test_each_error_class_exits_with_its_documented_code(error, code, prefix,
                                                         monkeypatch, capsys):
    def command(args):
        raise error("boom")
    monkeypatch.setattr(cli, "cmd_stability", command)
    assert run("stability") == code
    assert capsys.readouterr().err == prefix + "boom\n"


def test_other_value_errors_surface(monkeypatch):
    def command(args):
        raise ValueError("a fault in brnn")
    monkeypatch.setattr(cli, "cmd_stability", command)
    with pytest.raises(ValueError, match="a fault in brnn"):
        run("stability")


# 2^62 float64 values overflow the byte count NumPy can address, so NumPy
# refuses the shape before it allocates anything
@pytest.mark.parametrize("argv", [
    ["stability", "--n", str(2 ** 62)],
    ["generate", "--task", "sine", "--N", str(2 ** 62)],
    ["train", "--task", "sine", "--N", "10", "--n", str(2 ** 62), "--epochs", "1"],
    ["gradcheck", "--n", str(2 ** 62)]], ids=lambda argv: argv[0])
def test_sizes_too_large_for_memory_exit_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sizes too large for memory: ") and len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_noise_of_2_to_the_64_values_exits_2(tmp_path, monkeypatch, capsys):
    # 2^33 rows of 2^31 inputs: a count of values that int64 arithmetic
    # wraps to 0
    test_sizes_too_large_for_memory_exit_2(
        ["generate", "--task", "lag", "--N", str(2 ** 33 - 1), "--m", str(2 ** 31)],
        tmp_path, monkeypatch, capsys)


@pytest.mark.parametrize("argv", [
    ["generate", "--seed", "-1"],
    ["train", "--seed", "-1", "--epochs", "1"],
    ["train", "--data", "data.csv", "--seed", "-1"],
    ["gradcheck", "--seed", "-1"],
    ["stability", "--seed", "-1", "--scheme", "random_diagonal"]], ids=" ".join)
def test_negative_seeds_exit_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # the dataset seed is taken modulo 2^64: 2^64 - 1 is the largest seed
    # with a stream of its own
    assert run("generate", "--task", "lag", "--N", "10", "--seed", str(2 ** 64 - 1),
               "--out", "data.csv") == 0
    capsys.readouterr()
    assert run(*argv) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert [p.name for p in tmp_path.iterdir()] == ["data.csv"]


def huge_target_dataset(path):
    """31 rows with s = sin(0.3 k) and targets of 1e200, whose squares
    overflow."""
    path.write_text("k,s1,d1\n" + "".join(
        f"{k},{math.sin(0.3 * k)!r},1e200\n" for k in range(31)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_total_cost_in_train_exits_3(tmp_path, capsys):
    data, metrics = tmp_path / "huge.csv", tmp_path / "m.csv"
    huge_target_dataset(data)
    assert run("train", "--data", str(data), "--n", "4", "--epochs", "1",
               "--metrics-out", str(metrics),
               "--checkpoint-out", str(tmp_path / "c.txt")) == 3
    assert capsys.readouterr().err == "numerical failure: total cost is inf (epoch 1)\n"
    assert not metrics.exists()
    # a cost that overflows during training ends the same way, and no
    # overflow warning leaks out
    assert run("train", "--task", "sine", "--sigma", "relu", "--eta", "3",
               "--epochs", "50", "--metrics-out", str(metrics),
               "--checkpoint-out", str(tmp_path / "c.txt")) == 3
    assert "numerical failure: total cost is" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("W, huge, total", [(1.0, True, "inf")])
def test_non_finite_total_cost_in_eval_exits_3(W, huge, total, tmp_path, capsys):
    # the targets' squares overflow
    data, ckpt = tmp_path / "d.csv", tmp_path / "c.txt"
    if huge:
        huge_target_dataset(data)
    else:
        assert run("generate", "--N", "30", "--out", str(data)) == 0
        capsys.readouterr()
    save_checkpoint(ckpt, BrnnParams(A=[[0.5]], U=[[0.0]], W=[[W]], b=[0.0],
                                     V=[[1.0]], Dft=[[0.0]], c=[0.0]))
    assert run("eval", "--checkpoint", str(ckpt), "--data", str(data)) == 3
    captured = capsys.readouterr()
    assert captured.err == f"numerical failure: total cost is {total}\n"
    assert captured.out == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_eval_leaves_a_zero_weight_regularizer_out_of_an_overflowing_total(tmp_path, capsys):
    # ||U||^2 = 1e400 overflows; with gamma1 = 0 it is not formed and the
    # total stays finite, with gamma1 > 0 the total is inf
    data, ckpt = tmp_path / "d.csv", tmp_path / "c.txt"
    assert run("generate", "--N", "30", "--out", str(data)) == 0
    params = BrnnParams(A=[[0.5]], U=[[1e200]], W=[[1.0]], b=[0.0],
                        V=[[1.0]], Dft=[[0.0]], c=[0.0])
    save_checkpoint(ckpt, params)
    seq = read_csv(data)
    expect = total_cost(forward(params, seq, np.zeros(1)), seq, params, LossWeights())
    capsys.readouterr()
    assert run("eval", "--checkpoint", str(ckpt), "--data", str(data)) == 0
    out = capsys.readouterr().out.splitlines()
    assert "reg_theta = 0.0" in out and f"total = {expect.total!r}" in out
    assert math.isfinite(expect.total)
    assert run("eval", "--checkpoint", str(ckpt), "--data", str(data),
               "--gamma1", "0.1") == 3
    assert capsys.readouterr().err == "numerical failure: total cost is inf\n"


def test_eval_of_a_dense_A_checkpoint_above_the_diagonal_threshold(tmp_path, capsys):
    # a hand-written checkpoint with a dense A runs the dense step products
    # at every n; eval prints the total an in-memory rollout gives
    n, m, r, N = model.DIAGONAL_MIN_N, 2, 1, 40
    rng = np.random.default_rng(12)
    params = BrnnParams(A=make_stable_A(n, "random_orthogonal_scaled", 0.7, seed=3),
                        U=rng.uniform(-1, 1, (n, n)) / n, W=rng.uniform(-1, 1, (n, m)),
                        b=rng.uniform(-0.1, 0.1, n), V=rng.uniform(-1, 1, (r, n)) / n,
                        Dft=rng.uniform(-1, 1, (r, m)), c=rng.uniform(-1, 1, r))
    data, ckpt = tmp_path / "d.csv", tmp_path / "c.txt"
    write_csv(Sequence(s=rng.uniform(-1, 1, (N + 1, m)),
                       d=rng.uniform(-1, 1, (N + 1, r))), data)
    save_checkpoint(ckpt, params)
    loaded, seq = load_checkpoint(ckpt), read_csv(data)
    assert model.diagonal_A(loaded.A) is None
    expect = total_cost(forward(loaded, seq, np.zeros(n)), seq, loaded, LossWeights())
    assert run("eval", "--checkpoint", str(ckpt), "--data", str(data)) == 0
    assert f"total = {expect.total!r}" in capsys.readouterr().out.splitlines()


def test_numerical_explosion_exits_3(tmp_path, capsys):
    # identity nonlinearity with a huge learning rate diverges quickly
    code = run("train", "--task", "sine", "--N", "30", "--n", "4",
               "--sigma", "identity", "--eta", "100.0", "--epochs", "50",
               "--metrics-out", str(tmp_path / "m.csv"),
               "--checkpoint-out", str(tmp_path / "c.txt"))
    assert code == 3
    err = capsys.readouterr().err
    assert "epoch" in err


def test_exit_3_names_the_step_once(tmp_path, capsys):
    # the error's message names its k; cli.main adds only the epoch
    assert run("train", "--task", "sine", "--N", "20", "--n", "2", "--sigma", "identity",
               "--init-scale", "1e100", "--epochs", "1",
               "--metrics-out", str(tmp_path / "m.csv"),
               "--checkpoint-out", str(tmp_path / "c.txt")) == 3
    assert capsys.readouterr().err == (
        "numerical failure: non-finite state at k=5 (epoch 1)\n")


def test_finite_but_exploding_training_exits_3(tmp_path, capsys):
    code = run("train", "--task", "lag", "--eta", "5", "--epochs", "20",
               "--metrics-out", str(tmp_path / "m.csv"),
               "--checkpoint-out", str(tmp_path / "c.txt"))
    assert code == 3
    err = capsys.readouterr().err
    assert "times the first epoch's" in err and "epoch" in err


@pytest.mark.parametrize("flags", [
    ["--n", "4", "--m", "2", "--r", "2", "--N", "10", "--sigma", "tanh", "--tol", "1e-5"],
    ["--instances", "20", "--sigma", "logistic", "--state-loss", "tanh_approx",
     "--gamma1", "0.01", "--gamma2", "0.02"]], ids=["sizes", "instance flags"])
def test_gradcheck_cli_passes(flags, capsys):
    assert run("gradcheck", *flags) == 0
    assert "PASS" in capsys.readouterr().out


def test_gradcheck_cli_fails_at_impossible_tolerance(capsys):
    assert run("gradcheck", "--n", "4", "--m", "2", "--r", "2", "--N", "10",
               "--sigma", "tanh", "--tol", "1e-15") == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
def test_gradcheck_tolerance_outside_its_range_exits_2(tol, capsys):
    assert run("gradcheck", "--tol", tol) == 2
    assert "tol" in capsys.readouterr().err


# a size checked only after the instance's first draw would end in a
# traceback (--n -1) or in another message (--N 0)
@pytest.mark.parametrize("flag, size", [
    pytest.param("--n", "0", id="--n"), pytest.param("--m", "0", id="--m"),
    pytest.param("--r", "0", id="--r"), pytest.param("--N", "0", id="--N"),
    pytest.param("--n", "-1", id="--n -1"),
    pytest.param("--instances", "0", id="--instances")])
def test_gradcheck_bad_dimensions_exit_2(flag, size, capsys):
    assert run("gradcheck", flag, size) == 2
    assert capsys.readouterr().err == f"error: {flag[2:]} must be >= 1\n"


def test_stability_without_certificate_exits_3(tmp_path, capsys):
    assert run("stability", "--alphaA", "1.0", "--n", "2") == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("numerical failure: spectral norm of A is")
    assert len(err.splitlines()) == 1

    ckpt = tmp_path / "c.txt"
    assert run("train", "--task", "sine", "--N", "10", "--n", "2", "--epochs", "1",
               "--alphaA", "1.0", "--metrics-out", str(tmp_path / "m.csv"),
               "--checkpoint-out", str(ckpt)) == 0
    capsys.readouterr()
    assert run("stability", "--checkpoint", str(ckpt)) == 3
    assert capsys.readouterr().err.startswith("numerical failure: spectral norm of A is")


@pytest.mark.parametrize("argv, code", [(["stability", "--n", "2"], 0),
                                        (["gradcheck", "--n", "0"], 2)],
                         ids=["stability", "gradcheck"])
def test_entry_exits_with_the_code_main_returns(argv, code, monkeypatch, capsys):
    # the console script's entry point: main on sys.argv, its code the exit status
    monkeypatch.setattr(sys, "argv", ["brnn", *argv])
    with pytest.raises(SystemExit) as exited:
        cli.entry()
    assert exited.value.code == code


def test_stability_cli_scalar_example(tmp_path, capsys):
    csv_out = tmp_path / "stab.csv"
    assert run("stability", "--alphaA", "0.5", "--n", "1", "--Msup", "1",
               "--csv-out", str(csv_out)) == 0
    out = capsys.readouterr().out
    values = {}
    for line in out.splitlines():
        if " = " in line:
            key, _, val = line.partition(" = ")
            try:
                values[key.strip()] = float(val)
            except ValueError:
                pass
    assert values["bibo_bound"] == 2.0
    assert values["D_lyap"] == pytest.approx(1.3333, abs=1e-3)
    header, row = csv_out.read_text().strip().splitlines()
    # the column order README documents, on stdout after n and in the CSV
    assert header == "spectral_radius,spectral_norm,M_sup,bibo_bound,x_star2_norm,D_lyap,radius"
    assert list(values) == ["n", *header.split(",")]
    assert len(header.split(",")) == len(row.split(","))


def test_stability_cli_from_checkpoint(tmp_path, capsys):
    params = BrnnParams(A=[[0.5]], U=[[0.0]], W=[[1.0]], b=[0.0], V=[[1.0]],
                        Dft=[[0.0]], c=[0.0], sigma="tanh")
    ckpt = tmp_path / "ckpt.txt"
    save_checkpoint(ckpt, params)
    assert run("stability", "--checkpoint", str(ckpt), "--s-sup", "1.0") == 0
    out = capsys.readouterr().out
    line = [ln for ln in out.splitlines() if ln.startswith("bibo_bound")][0]
    assert float(line.split("=")[1]) == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("flags", [["--s-sup", "-0.1"], ["--s-sup", "nan"],
                                   ["--Msup", "nan"], ["--Msup", "inf"],
                                   ["--Msup", "-1"]], ids=" ".join)
def test_stability_invalid_input_bound_exits_2(flags, tmp_path, capsys):
    params = BrnnParams(A=[[0.5]], U=[[0.3]], W=[[1.0]], b=[0.0], V=[[1.0]],
                        Dft=[[0.0]], c=[0.0], sigma="tanh")
    ckpt = tmp_path / "ckpt.txt"
    save_checkpoint(ckpt, params)
    assert run("stability", "--checkpoint", str(ckpt), *flags) == 2
    captured = capsys.readouterr()
    assert "must be finite and >= 0" in captured.err and "bibo_bound" not in captured.out


@pytest.mark.parametrize("flag, value, checkpoint", [("--Msup", "1e160", False),
                                                     ("--s-sup", "1e200", True)])
def test_stability_overflowing_certificate_exits_3(flag, value, checkpoint,
                                                   tmp_path, capsys):
    # a finite input bound whose D_lyap overflows float64 certifies nothing
    argv = [flag, value]
    if checkpoint:
        params = BrnnParams(A=[[0.5]], U=[[0.3]], W=[[1.0]], b=[0.0], V=[[1.0]],
                            Dft=[[0.0]], c=[0.0], sigma="tanh")
        save_checkpoint(tmp_path / "ckpt.txt", params)
        argv += ["--checkpoint", str(tmp_path / "ckpt.txt")]
    assert run("stability", *argv) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("numerical failure: D_lyap overflows float64")
    assert len(captured.err.splitlines()) == 1 and "bibo_bound" not in captured.out


def relu_checkpoint(tmp_path, u):
    """n = m = 2 relu network with A = 0.5I, U = u*I, W = I, b = 0."""
    eye = np.eye(2)
    params = BrnnParams(A=0.5 * eye, U=u * eye, W=eye, b=np.zeros(2), V=eye,
                        Dft=np.zeros((2, 2)), c=np.zeros(2), sigma="relu")
    ckpt = tmp_path / "relu.txt"
    save_checkpoint(ckpt, params)
    return str(ckpt)


def printed(out):
    return {key: float(value) for key, _, value in
            (line.partition(" = ") for line in out.splitlines()) if key != "n"}


def test_stability_relu_checkpoint_small_gain_bound(tmp_path, capsys):
    # h_sup = 1 / (1 - 0.5 - 0.4) = 10, M_sup = 0.4*10 + 1 = 5, bibo = 5/0.5:
    # a constant unit input drives ||x_k|| to 10, so the bound is tight
    assert run("stability", "--checkpoint", relu_checkpoint(tmp_path, 0.4)) == 0
    values = printed(capsys.readouterr().out)
    assert values["M_sup"] == pytest.approx(5.0, rel=1e-12)
    assert values["bibo_bound"] == pytest.approx(10.0, rel=1e-12)


def test_stability_relu_checkpoint_without_small_gain_exits_3(tmp_path, capsys):
    ckpt = relu_checkpoint(tmp_path, 0.6)
    assert run("stability", "--checkpoint", ckpt) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("numerical failure: ||A||_2 + ||U||_2 is")
    assert "bibo_bound" not in captured.out
    # a given M_sup needs only ||A||_2 < 1
    assert run("stability", "--checkpoint", ckpt, "--Msup", "1") == 0
    assert printed(capsys.readouterr().out)["bibo_bound"] == 2.0


def test_stability_checks_s_sup_without_a_checkpoint(capsys):
    assert run("stability", "--s-sup", "-5", "--n", "2") == 2
    captured = capsys.readouterr()
    assert "s_sup must be finite and >= 0" in captured.err
    assert "bibo_bound" not in captured.out


def test_stability_design_defaults(capsys):
    assert run("stability") == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "n = 1" and "bibo_bound = 2.0" in out


@pytest.mark.parametrize("flag, value", [("--n", "2"), ("--scheme", "random_diagonal"),
                                         ("--alphaA", "5"), ("--seed", "0")])
def test_stability_design_flags_with_a_checkpoint_exit_2(flag, value, tmp_path, capsys):
    # the checkpoint gives A, so a flag that designs A would be ignored
    params = BrnnParams(A=[[0.5]], U=[[0.0]], W=[[1.0]], b=[0.0], V=[[1.0]],
                        Dft=[[0.0]], c=[0.0], sigma="tanh")
    ckpt = tmp_path / "ckpt.txt"
    save_checkpoint(ckpt, params)
    assert run("stability", "--checkpoint", str(ckpt), flag, value) == 2
    captured = capsys.readouterr()
    assert flag in captured.err and "bibo_bound" not in captured.out


@pytest.mark.parametrize("argv", [["train", "--epoch", "2"],
                                  ["generate", "--ou", "d.csv"],
                                  ["gradcheck", "--inst", "2"],
                                  ["stability", "--alpha", "0.5"]], ids=" ".join)
def test_abbreviated_flags_exit_2(argv, tmp_path, monkeypatch, capsys):
    # as in a config file, where `epoch = 2` is an unknown key
    monkeypatch.chdir(tmp_path)
    assert run(*argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_config_file_flags_win(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("task = sine\nN = 20\nepochs = 3\nn = 4\n# comment\neta = 0.02\n")
    m1 = tmp_path / "m1.csv"
    assert run("train", "--config", str(cfg),
               "--metrics-out", str(m1),
               "--checkpoint-out", str(tmp_path / "c1.txt")) == 0
    assert len(m1.read_text().strip().splitlines()) == 1 + 3  # epochs from file

    m2 = tmp_path / "m2.csv"
    assert run("train", "--config", str(cfg), "--epochs", "2",
               "--metrics-out", str(m2),
               "--checkpoint-out", str(tmp_path / "c2.txt")) == 0
    assert len(m2.read_text().strip().splitlines()) == 1 + 2  # flag wins


def test_config_value_keeps_a_hash_that_follows_no_whitespace(tmp_path, monkeypatch):
    # cut at its #, the value would name `run`, which does not exist (exit 4)
    monkeypatch.chdir(tmp_path)
    assert run("generate", "--task", "sine", "--N", "20", "--out", "run#1.csv") == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("data = run#1.csv\nn = 2\nepochs = 1\n")
    assert cli.load_config_file(cfg)["data"] == "run#1.csv"
    assert run("train", "--config", str(cfg)) == 0
    assert len((tmp_path / "metrics.csv").read_text().splitlines()) == 1 + 1


def test_config_comment_after_whitespace_is_ignored(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a comment line\n  # an indented one\nepochs = 2  # two\n"
                   "N = 20\t# a tab before it\nn = 2\n")
    assert cli.load_config_file(cfg) == {"epochs": "2", "N": "20", "n": "2"}
    metrics = tmp_path / "m.csv"
    assert run("train", "--config", str(cfg), "--metrics-out", str(metrics),
               "--checkpoint-out", str(tmp_path / "c.txt")) == 0
    assert len(metrics.read_text().splitlines()) == 1 + 2


def test_stability_prints_the_step_rate_last(tmp_path, capsys):
    # relu: q = 0.5 + 1 * 0.4; logistic: q = 0.5 + 0.8 / 4
    eye = np.eye(2)
    logistic = BrnnParams(A=0.5 * eye, U=0.8 * eye, W=eye, b=np.zeros(2), V=eye,
                          Dft=np.zeros((2, 2)), c=np.zeros(2), sigma="logistic")
    save_checkpoint(tmp_path / "logistic.txt", logistic)
    for ckpt, rate in ((relu_checkpoint(tmp_path, 0.4), 0.9),
                       (str(tmp_path / "logistic.txt"), 0.7)):
        csv_out = tmp_path / "stab.csv"
        assert run("stability", "--checkpoint", ckpt, "--csv-out", str(csv_out)) == 0
        lines = capsys.readouterr().out.splitlines()
        key, _, value = lines[-2].partition(" = ")
        assert key == "step_rate" and float(value) == pytest.approx(rate, rel=1e-15)
        assert lines[-1] == f"csv: {csv_out}"
        header, row = csv_out.read_text().strip().splitlines()
        assert header.split(",")[-1] == "step_rate"
        assert row.split(",")[-1] == value
        assert run("stability", "--checkpoint", ckpt) == 0
        assert capsys.readouterr().out.splitlines()[-1] == lines[-2]
    # without a checkpoint there is no U, and no rate
    assert run("stability", "--n", "2") == 0
    assert "step_rate" not in capsys.readouterr().out


def test_train_writes_the_same_bytes_with_and_without_shooting(monkeypatch, tmp_path,
                                                               capsys):
    data = tmp_path / "data.csv"
    assert run("generate", "--task", "bandpass", "--N", "4999", "--m", "2", "--r", "2",
               "--out", str(data)) == 0
    sweeps, blocks = [], []
    sweep, shooting_block = model._sweep, model.shooting_block
    monkeypatch.setattr(model, "_sweep", lambda *args: sweeps.append(1) or sweep(*args))
    # the block length forward finds for each epoch's params
    monkeypatch.setattr(model, "shooting_block",
                        lambda params, N: blocks.append(shooting_block(params, N))
                        or blocks[-1])
    outputs = {}
    for regime in ("shooting", "loop"):
        if regime == "loop":
            monkeypatch.setattr(model, "shooting_block", lambda params, N: 0)
        capsys.readouterr()
        sweeps.clear()
        metrics, ckpt = tmp_path / f"{regime}.csv", tmp_path / f"{regime}.txt"
        # mean: the total falls. Under sum this run diverges, its total
        # growing 2e4-fold by epoch 3, whose params are outside the shooting
        # regime
        assert run("train", "--data", str(data), "--n", "8", "--agg", "mean",
                   "--epochs", "2", "--metrics-out", str(metrics),
                   "--checkpoint-out", str(ckpt)) == 0
        # eval's rollout of the trained params
        assert run("eval", "--checkpoint", str(ckpt), "--data", str(data)) == 0
        stdout = capsys.readouterr().out.replace(str(tmp_path / regime), "")
        outputs[regime] = (metrics.read_bytes(), ckpt.read_bytes(), stdout, len(sweeps))
    totals = [float(row.split(",")[1])
              for row in outputs["shooting"][0].decode().splitlines()[1:]]
    assert len(totals) == 2 and totals[1] < totals[0]
    # every rollout in the shooting regime, two epochs' and eval's: two
    # sweeps each
    assert len(blocks) == 3 and all(L > 0 for L in blocks)
    assert outputs["shooting"][3] == 6 and outputs["loop"][3] == 0
    assert outputs["shooting"][:3] == outputs["loop"][:3]
