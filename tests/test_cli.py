import inspect
import math

import numpy as np
import pytest

from brnn import cli, model
from brnn.cli import (load_checkpoint, main, save_checkpoint)
from brnn.errors import (CheckpointFormatError, ConfigurationError,
                         CostateExplosionError, DatasetFormatError,
                         DivergenceError, NumericalError, StateOverflowError,
                         UnboundedRegionError)
from brnn.loss import LossWeights, total_cost
from brnn.model import BrnnParams, Sequence, forward
from brnn.stability import make_stable_A
from brnn.tasks import read_csv, write_csv


def run(*argv):
    return main(list(argv))


def test_generate_writes_dataset(tmp_path, capsys):
    out = tmp_path / "data.csv"
    assert run("generate", "--task", "sine", "--N", "20", "--out", str(out)) == 0
    seq = read_csv(out)
    assert seq.N == 20 and seq.m == 1 and seq.r == 1
    assert "wrote 21 rows" in capsys.readouterr().out


def test_train_eval_checkpoint_round_trip(tmp_path, capsys):
    data = tmp_path / "data.csv"
    metrics = tmp_path / "metrics.csv"
    ckpt = tmp_path / "model.txt"
    assert run("generate", "--task", "sine", "--N", "30", "--out", str(data)) == 0
    assert run("train", "--data", str(data), "--n", "4", "--epochs", "3",
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


def test_metrics_deterministic_across_runs(tmp_path):
    paths = []
    for tag in ("a", "b"):
        metrics = tmp_path / f"metrics_{tag}.csv"
        ckpt = tmp_path / f"ckpt_{tag}.txt"
        assert run("train", "--task", "sine", "--N", "25", "--n", "4",
                   "--epochs", "4", "--seed", "3",
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
                                            ("-1", "epochs must be >= 0")])
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
    from brnn.model import Dims
    from brnn.tasks import TaskSpec, gen_task
    from brnn.trainer import TrainConfig, init_params, train
    ckpt = tmp_path / "c.txt"
    assert run("train", "--N", "20", "--n", "3", "--epochs", "3",
               "--init-scale", "0.3", "--alphaA", "0.8", "--seed", "5",
               "--metrics-out", str(tmp_path / "m.csv"),
               "--checkpoint-out", str(ckpt)) == 0
    seq = gen_task(TaskSpec(kind="sine_track", N=20, seed=5))
    params0 = init_params(Dims(n=3, m=1, r=1, N=20), init_scale=0.3,
                          alpha_A=0.8, seed=5)
    params, _ = train(TrainConfig(epochs=3), seq, params0, np.zeros(3),
                      LossWeights())
    save_checkpoint(tmp_path / "lib.txt", params)
    assert ckpt.read_bytes() == (tmp_path / "lib.txt").read_bytes()


def test_init_defaults_are_read_from_init_params():
    from brnn.tasks import TaskSpec
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


# every key train takes -> a value other than its default, and the flags
# that make that value change the run (coeffs only shapes the bandpass task)
KEY_VALUES = {
    "task": ("bandpass", []), "N": ("9", []), "m": ("2", []), "r": ("2", []),
    "omega": ("0.7", []), "phase": ("0.4", []),
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

    def outputs(tag, *argv):
        metrics, ckpt = tmp_path / f"m_{tag}.csv", tmp_path / f"c_{tag}.txt"
        assert run("train", *base, *argv, "--metrics-out", str(metrics),
                   "--checkpoint-out", str(ckpt)) == 0
        return metrics.read_bytes(), ckpt.read_bytes()

    by_flag = outputs("flag", "--" + key.replace("_", "-"), value)
    assert outputs("file", "--config", str(config)) == by_flag
    assert outputs("default") != by_flag  # the value is not the default


def test_non_number_coeffs_exits_2(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("coeffs = a,b,c\n")
    outs = ["--metrics-out", str(tmp_path / "m.csv"),
            "--checkpoint-out", str(tmp_path / "c.txt")]
    for argv in (["generate", "--coeffs", "a,b,c", "--out", str(tmp_path / "d.csv")],
                 ["train", "--coeffs", "a,b,c", *outs],
                 ["train", "--config", str(config), *outs]):
        assert run(*argv) == 2
        assert "coeffs must be 'a1,a2,b0', got 'a,b,c'" in capsys.readouterr().err
    assert not (tmp_path / "d.csv").exists() and not (tmp_path / "m.csv").exists()


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


@pytest.mark.parametrize("argv, key", [
    (["train", "--data", "s.csv", "--noise", "nan", "--coeffs", "nan,0,1",
      "--epochs", "1"], "coeffs"),
    (["train", "--data", "s.csv", "--noise", "-1", "--epochs", "1"], "noise"),
    (["train", "--task", "sine", "--coeffs", "nan,0,1", "--epochs", "1"], "coeffs"),
    (["generate", "--task", "sine", "--coeffs", "nan,0,1"], "coeffs"),
    (["generate", "--task", "lag", "--coeffs", "inf,0,1"], "coeffs"),
])
def test_bad_task_values_exit_2_for_every_kind_and_under_data(argv, key, tmp_path,
                                                              capsys):
    # coeffs and noise are checked as they are resolved, whether or not the
    # task kind reads them and whether or not a task is generated at all
    data = tmp_path / "s.csv"
    assert run("generate", "--task", "lag", "--N", "12", "--out", str(data)) == 0
    outs = {"generate": ["--out", str(tmp_path / "d.csv")],
            "train": ["--metrics-out", str(tmp_path / "m.csv"),
                      "--checkpoint-out", str(tmp_path / "c.txt")]}[argv[0]]
    argv = [str(data) if a == "s.csv" else a for a in argv]
    capsys.readouterr()
    assert run(*argv, *outs) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be")
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
            ("N = abc\n", [], "N = 'abc'"),
            ("coeffs = a,b,c\n", [], "got 'a,b,c'"),
            ("task = foo\n", [], "task = 'foo'")):
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


def test_dataset_field_over_the_csv_limit_exits_4(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("k,s1,d1\n0,1.0,2.0\n1,0." + "0" * 200_000 + "1,2.0\n")
    assert run("train", "--data", str(data), "--epochs", "1",
               "--metrics-out", str(tmp_path / "m.csv"),
               "--checkpoint-out", str(tmp_path / "c.txt")) == 4
    assert "line 3: field larger than field limit" in capsys.readouterr().err


def test_missing_dataset_exits_4(tmp_path, capsys):
    assert run("eval", "--checkpoint", str(tmp_path / "none.txt"),
               "--data", str(tmp_path / "none.csv")) == 4


def test_malformed_dataset_exits_4(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("k,s1,d1\n0,1.0,2.0\n1,zzz,2.0\n")
    assert run("train", "--data", str(bad),
               "--metrics-out", str(tmp_path / "m.csv"),
               "--checkpoint-out", str(tmp_path / "c.txt")) == 4
    err = capsys.readouterr().err
    assert "line 3" in err


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


@pytest.mark.parametrize("argv", [
    ["train", "--seed", "-1", "--epochs", "1"],
    ["train", "--data", "data.csv", "--seed", "-1"],
    ["gradcheck", "--seed", "-1"],
    ["stability", "--seed", "-1", "--scheme", "random_diagonal"]], ids=" ".join)
def test_negative_seeds_exit_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # the dataset seed is taken modulo 2^64, so generate accepts any integer
    assert run("generate", "--task", "lag", "--N", "10", "--seed", "-1",
               "--out", "data.csv") == 0
    capsys.readouterr()
    assert run(*argv) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not (tmp_path / "metrics.csv").exists()


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


def test_finite_but_exploding_training_exits_3(tmp_path, capsys):
    code = run("train", "--task", "lag", "--eta", "5", "--epochs", "20",
               "--metrics-out", str(tmp_path / "m.csv"),
               "--checkpoint-out", str(tmp_path / "c.txt"))
    assert code == 3
    err = capsys.readouterr().err
    assert "times the first epoch's" in err and "epoch" in err


def test_gradcheck_cli_passes(capsys):
    assert run("gradcheck", "--n", "4", "--m", "2", "--r", "2", "--N", "10",
               "--sigma", "tanh", "--tol", "1e-5") == 0
    assert "PASS" in capsys.readouterr().out


def test_gradcheck_cli_fails_at_impossible_tolerance(capsys):
    assert run("gradcheck", "--n", "4", "--m", "2", "--r", "2", "--N", "10",
               "--sigma", "tanh", "--tol", "1e-15") == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
def test_gradcheck_tolerance_outside_its_range_exits_2(tol, capsys):
    assert run("gradcheck", "--tol", tol) == 2
    assert "tol" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--n", "--m", "--instances"])
def test_gradcheck_bad_dimensions_exit_2(flag, capsys):
    assert run("gradcheck", flag, "0") == 2
    assert "must be >= 1" in capsys.readouterr().err


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
    assert "bibo_bound" in header.split(",")
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
