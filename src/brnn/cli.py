"""Command-line entry point: generate data, train, evaluate, gradient-check,
and report stability diagnostics.

Subcommands: generate | train | eval | gradcheck | stability.
Exit codes: 0 success (gradcheck: pass), 1 gradcheck failure, 2 usage or
configuration errors, 3 numerical explosion/divergence or no stability
certificate, 4 I/O and format errors.

A config file (one "key = value" per line, # comments allowed) can seed
the train subcommand; explicit command-line flags win over file values.
KEYS is the one place where these keys are declared: the flags of
generate, train and eval, the keys a config file may set (an unknown or
repeated key is a configuration error) and every default come from it.
"""

import argparse
import inspect
import math
import sys

import numpy as np

from . import stability as stab
from .errors import (CheckpointFormatError, ConfigurationError,
                     DatasetFormatError, NumericalError, UnboundedRegionError)
from .loss import STATE_LOSS_KINDS, LossWeights, total_cost
from .model import BrnnParams, Dims, NONLINEARITIES, forward
from .tasks import TaskSpec, gen_task, read_csv, write_csv
from .trainer import AGGREGATIONS, TrainConfig, init_params, train
from .verify import (SMOOTH_SIGMAS, SMOOTH_STATE_LOSSES, format_report,
                     gradcheck, random_instance)

CHECKPOINT_MAGIC = "brnn-v1"
METRICS_HEADER = "epoch,total,phi_N,output_sum,state_sum,reg,grad_norm,lambda_max"

TASK_ALIASES = {"sine": "sine_track", "bandpass": "bandpass_filter",
                "lag": "lag_copy"}


# The task keys' values are checked here, as they are resolved, for every
# task kind and under --data too, where no TaskSpec is built.
def _parse_coeffs(text):
    try:
        a1, a2, b0 = map(float, text.replace(",", " ").split())
    except ValueError:
        raise ConfigurationError(f"coeffs must be 'a1,a2,b0', got {text!r}") from None
    if not all(map(math.isfinite, (a1, a2, b0))):
        raise ConfigurationError(f"coeffs must be three finite numbers, got {text!r}")
    return a1, a2, b0


def _parse_noise(text):
    error = ConfigurationError(f"noise must be finite and >= 0, got {text!r}")
    try:
        noise = float(text)
    except ValueError:
        raise error from None
    if not 0.0 <= noise < math.inf:
        raise error
    return noise


def _defaults(func) -> dict:
    """func's parameter defaults by name: the CLI reads a default from the
    function that owns it, and writes no second copy."""
    return {name: p.default for name, p in inspect.signature(func).parameters.items()}


# Every train key: (cast, default, flag choices, subcommands taking it as a
# flag "--" + key with "_" as "-"). Defaults that TaskSpec, init_params,
# TrainConfig or LossWeights declare are read from there (seed feeds both
# TaskSpec and init_params, equal defaults).
KEYS = {
    "task": (str, "sine", sorted(TASK_ALIASES) + sorted(TASK_ALIASES.values()),
             ("generate", "train")),
    "N": (int, 50, None, ("generate", "train")),
    "m": (int, TaskSpec.m, None, ("generate", "train")),
    "r": (int, TaskSpec.r, None, ("generate", "train")),
    "omega": (float, TaskSpec.omega, None, ("generate", "train")),
    "phase": (float, TaskSpec.phase, None, ("generate", "train")),
    "coeffs": (_parse_coeffs, TaskSpec.coeffs, None, ("generate", "train")),
    "lag": (int, TaskSpec.lag, None, ("generate", "train")),
    "noise": (_parse_noise, TaskSpec.noise, None, ("generate", "train")),
    "seed": (int, TaskSpec.seed, None, ("generate", "train")),
    "data": (str, None, None, ("train",)),
    "n": (int, 8, None, ("train",)),
    "sigma": (str, init_params.__kwdefaults__["sigma"], NONLINEARITIES, ("train",)),
    "eta": (float, TrainConfig.eta, None, ("train",)),
    "epochs": (int, TrainConfig.epochs, None, ("train",)),
    "agg": (str, TrainConfig.aggregation, AGGREGATIONS, ("train",)),
    "stop_tol": (float, TrainConfig.stop_tol, None, ("train",)),
    "init_scale": (float, init_params.__kwdefaults__["init_scale"], None, ("train",)),
    "alphaA": (float, init_params.__kwdefaults__["alpha_A"], None, ("train",)),
    "beta": (float, LossWeights.beta, None, ("eval", "train")),
    "beta0": (float, LossWeights.beta0, None, ("eval", "train")),
    "gamma1": (float, LossWeights.gamma1, None, ("eval", "train")),
    "gamma2": (float, LossWeights.gamma2, None, ("eval", "train")),
    "state_loss": (str, LossWeights.state_loss_kind, STATE_LOSS_KINDS, ("eval", "train")),
    "alpha_ent": (float, LossWeights.alpha_ent, None, ("eval", "train")),
}


# ---------------------------------------------------------------- persistence

def save_checkpoint(path, params: BrnnParams) -> None:
    """Plain-text checkpoint: header "brnn-v1 n m r sigma", then one
    whitespace-separated line per matrix row in the order A,U,W,b,V,Dft,c."""
    with open(path, "w") as f:
        f.write(f"{CHECKPOINT_MAGIC} {params.n} {params.m} {params.r} {params.sigma}\n")
        for name in ("A", "U", "W", "b", "V", "Dft", "c"):
            # row by row, each written as it is formatted: the whole text, or
            # a whole n x n .tolist(), raises the peak RSS at n = 256
            for row in np.atleast_2d(getattr(params, name)):
                f.write(" ".join(map(repr, row.tolist())) + "\n")


def load_checkpoint(path) -> BrnnParams:
    try:
        with open(path) as f:
            lines = [ln for ln in (raw.strip() for raw in f) if ln]
    except UnicodeDecodeError as exc:
        raise CheckpointFormatError(f"{path}: not a text file ({exc})") from None
    if not lines:
        raise CheckpointFormatError("empty checkpoint file")
    head = lines[0].split()
    if len(head) != 5 or head[0] != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(f"bad header {lines[0]!r}")
    try:
        n, m, r = map(int, head[1:4])
        if min(n, m, r) < 1:
            raise ValueError
    except ValueError:
        raise CheckpointFormatError(f"bad dimensions in header {lines[0]!r}") from None
    sigma = head[4]
    if sigma not in NONLINEARITIES:
        raise CheckpointFormatError(f"unknown nonlinearity {sigma!r}")

    shapes = [("A", (n, n)), ("U", (n, n)), ("W", (n, m)), ("b", (1, n)),
              ("V", (r, n)), ("Dft", (r, m)), ("c", (1, r))]
    need = sum(rows for _, (rows, _) in shapes)
    if len(lines) - 1 != need:
        raise CheckpointFormatError(
            f"expected {need} matrix rows, found {len(lines) - 1}")
    blocks = {}
    at = 1
    for name, (rows, cols) in shapes:
        block = []
        for i in range(rows):
            fields = lines[at + i].split()
            if len(fields) != cols:
                raise CheckpointFormatError(
                    f"{name} row {i} has {len(fields)} values, expected {cols}")
            try:
                block.append([float(v) for v in fields])
            except ValueError as exc:
                raise CheckpointFormatError(f"{name} row {i}: {exc}") from None
        at += rows
        blocks[name] = np.array(block)
    params = BrnnParams(A=blocks["A"], U=blocks["U"], W=blocks["W"],
                        b=blocks["b"][0], V=blocks["V"], Dft=blocks["Dft"],
                        c=blocks["c"][0], sigma=sigma)
    try:
        params.validate()
    except ConfigurationError as exc:
        raise CheckpointFormatError(str(exc)) from None
    return params


def write_metrics_csv(path, history) -> None:
    rows = [METRICS_HEADER]
    for em in history:
        cost = em.cost
        reg = cost.reg_theta + cost.reg_nu
        rows.append(",".join([str(em.epoch)] + [
            repr(v) for v in (cost.total, cost.phi_N, cost.output_sum,
                              cost.state_sum, reg, em.grad_norm, em.lambda_max)]))
    with open(path, "w", newline="") as f:
        f.write("\n".join(rows) + "\n")


def load_config_file(path) -> dict:
    """Flat key = value pairs; blank lines and # comments ignored. A key
    not in KEYS, or one given twice, is an error."""
    try:
        with open(path) as f:
            raws = f.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: not a text file ({exc})") from None
    out, lines = {}, {}
    for lineno, raw in enumerate(raws, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(
                f"{path}: line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in KEYS:
            raise ConfigurationError(
                f"{path}: line {lineno}: unknown config key {key!r}")
        if key in lines:
            raise ConfigurationError(f"{path}: line {lineno}: config key "
                                     f"{key!r} is already set on line {lines[key]}")
        out[key], lines[key] = value, lineno
    return out


# --------------------------------------------------------------- subcommands

def _resolver(args, config: dict):
    """key -> its flag, else its config-file value (cast, and checked
    against the key's choices), else its default."""
    def value(key):
        cast, default, choices, _ = KEYS[key]
        flag = getattr(args, key)
        raw = flag if flag is not None else config.get(key)
        if raw is None:
            return default
        try:
            out = cast(raw)
        except ConfigurationError:
            raise
        except ValueError:
            raise ConfigurationError(
                f"config value {key} = {raw!r} is not a valid "
                f"{cast.__name__}") from None
        if choices is not None and out not in choices:
            raise ConfigurationError(
                f"config value {key} = {raw!r} is not one of {', '.join(choices)}")
        return out
    return value


def _task_spec(value) -> TaskSpec:
    kind = value("task")
    return TaskSpec(TASK_ALIASES.get(kind, kind), **{key: value(key) for key in (
        "N", "m", "r", "omega", "phase", "coeffs", "lag", "noise", "seed")})


def cmd_generate(args) -> int:
    seq = gen_task(_task_spec(_resolver(args, {})))
    write_csv(seq, args.out)
    print(f"wrote {seq.N + 1} rows (m={seq.m}, r={seq.r}) to {args.out}")
    return 0


def _loss_weights(value) -> LossWeights:
    return LossWeights(beta=value("beta"), beta0=value("beta0"), gamma1=value("gamma1"),
                       gamma2=value("gamma2"), state_loss_kind=value("state_loss"),
                       alpha_ent=value("alpha_ent"))


def cmd_train(args) -> int:
    value = _resolver(args, load_config_file(args.config) if args.config else {})
    data = value("data")
    if data:
        # the task keys go unused, but one given malformed is still an error
        for key, (_, _, _, commands) in KEYS.items():
            if "generate" in commands:
                value(key)
    seq = read_csv(data) if data else gen_task(_task_spec(value))

    tc = TrainConfig(eta=value("eta"), epochs=value("epochs"), aggregation=value("agg"),
                     stop_tol=value("stop_tol"))
    w = _loss_weights(value)

    dims = Dims(n=value("n"), m=seq.m, r=seq.r, N=seq.N)
    params0 = init_params(dims, sigma=value("sigma"), init_scale=value("init_scale"),
                          alpha_A=value("alphaA"), seed=value("seed"))
    params, history = train(tc, seq, params0, np.zeros(dims.n), w)

    write_metrics_csv(args.metrics_out, history)
    save_checkpoint(args.checkpoint_out, params)
    first = history[0].cost.total if history else float("nan")
    last = history[-1].cost.total if history else float("nan")
    print(f"trained {len(history)} epochs: total {first!r} -> {last!r}")
    print(f"metrics: {args.metrics_out}")
    print(f"checkpoint: {args.checkpoint_out}")
    return 0


def cmd_eval(args) -> int:
    params = load_checkpoint(args.checkpoint)
    seq = read_csv(args.data)
    w = _loss_weights(_resolver(args, {}))
    traj = forward(params, seq, np.zeros(params.n))
    cost = total_cost(traj, seq, params, w)
    if not math.isfinite(cost.total):
        raise NumericalError(f"total cost is {cost.total!r}")
    for name in ("phi_N", "output_sum", "state_sum", "hidden_sum",
                 "reg_theta", "reg_nu", "total"):
        print(f"{name} = {getattr(cost, name)!r}")
    return 0


def cmd_gradcheck(args) -> int:
    if args.instances < 1:
        raise ConfigurationError("instances must be >= 1")
    worst = None
    for i in range(args.instances):
        params, seq, x0, w = random_instance(
            args.seed + i, n=args.n, m=args.m, r=args.r, N=args.N,
            sigma=args.sigma, state_loss_kind=args.state_loss,
            gamma1=args.gamma1, gamma2=args.gamma2)
        report = gradcheck(params, seq, x0, w, eps=args.eps, tol=args.tol)
        if worst is None or report.max_rel_err > worst.max_rel_err:
            worst = report
        if not report.passed:
            print(f"instance {i} (seed {args.seed + i}):")
            print(format_report(report))
            return 1
    print(f"{args.instances} instance(s) checked; worst case:")
    print(format_report(worst))
    return 0


def _format_stability(report: stab.StabilityReport) -> list[tuple[str, float]]:
    region = report.region
    return [
        ("spectral_radius", report.spectral_radius),
        ("spectral_norm", report.spectral_norm),
        ("M_sup", region.M_sup),
        ("bibo_bound", report.bibo),
        ("x_star2_norm", float(np.linalg.norm(region.x_star2))),
        ("D_lyap", region.D_lyap),
        ("radius", region.radius),
    ]


def cmd_stability(args) -> int:
    stab._check_bound("s_sup", args.s_sup)
    # the flags that design A, by make_stable_A's argument names; a flag
    # not given is None
    design = {"n": args.n, "scheme": args.scheme, "alpha_A": args.alphaA,
              "seed": args.seed}
    given = {name: value for name, value in design.items() if value is not None}
    if args.checkpoint:
        # a checkpoint brings its own A
        if given:
            flags = ("--alphaA" if name == "alpha_A" else "--" + name for name in given)
            raise ConfigurationError(f"{', '.join(flags)} cannot go with "
                                     "--checkpoint, which gives A")
        params = load_checkpoint(args.checkpoint)
        A = params.A
        m_sup = args.Msup if args.Msup is not None else stab.m_sup_bound(
            params, args.s_sup)
    else:
        # a flag not given takes make_stable_A's default; --n's default 1 is
        # the CLI's own
        A = stab.make_stable_A(given.pop("n", 1), **given)
        m_sup = args.Msup if args.Msup is not None else 1.0
    report = stab.stability_report(A, m_sup)
    fields = _format_stability(report)
    print(f"n = {A.shape[0]}")
    for key, value in fields:
        print(f"{key} = {value!r}")
    if args.csv_out:
        with open(args.csv_out, "w", newline="") as f:
            f.write(",".join(key for key, _ in fields) + "\n")
            f.write(",".join(repr(v) for _, v in fields) + "\n")
        print(f"csv: {args.csv_out}")
    return 0


# -------------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brnn",
        description="Train and analyze a stable recurrent state-space network.",
        allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_key_flags(p, command):
        # argparse's default None tells the resolver no flag was given;
        # coeffs and noise stay strings for the resolver to parse and check
        # (own error messages)
        for key, (cast, _, choices, commands) in KEYS.items():
            if command in commands:
                p.add_argument("--" + key.replace("_", "-"), choices=choices,
                               type=cast if isinstance(cast, type) else None)

    p = sub.add_parser("generate", help="write a synthetic dataset CSV",
                       allow_abbrev=False)
    add_key_flags(p, "generate")
    p.add_argument("--out", default="dataset.csv")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train on a generated task or a dataset CSV",
                       allow_abbrev=False)
    add_key_flags(p, "train")
    p.add_argument("--config", default=None, help="key = value config file")
    p.add_argument("--metrics-out", dest="metrics_out", default="metrics.csv")
    p.add_argument("--checkpoint-out", dest="checkpoint_out", default="checkpoint.txt")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="cost breakdown of a checkpoint on a dataset",
                       allow_abbrev=False)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    add_key_flags(p, "eval")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck",
                       help="compare multiplier gradients to finite differences",
                       allow_abbrev=False)
    # the instance's and the check's defaults are random_instance's and
    # gradcheck's; --seed and --instances are the CLI's own
    instance, check = _defaults(random_instance), _defaults(gradcheck)
    for key in ("n", "m", "r", "N"):
        p.add_argument("--" + key, type=int, default=instance[key])
    p.add_argument("--sigma", choices=SMOOTH_SIGMAS, default=instance["sigma"])
    p.add_argument("--state-loss", dest="state_loss", choices=SMOOTH_STATE_LOSSES,
                   default=instance["state_loss_kind"])
    for key in ("gamma1", "gamma2"):
        p.add_argument("--" + key, type=float, default=instance[key])
    for key in ("eps", "tol"):
        p.add_argument("--" + key, type=float, default=check[key])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=1)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("stability",
                       help="BIBO bound and Liapunov region for A",
                       allow_abbrev=False)
    p.add_argument("--checkpoint", default=None)
    # default None: cmd_stability tells a given flag from one not given,
    # which takes make_stable_A's default
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--scheme", choices=stab.A_SCHEMES, default=None)
    p.add_argument("--alphaA", type=float, default=None)
    p.add_argument("--Msup", type=float, default=None)
    p.add_argument("--s-sup", dest="s_sup", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--csv-out", dest="csv_out", default=None)
    p.set_defaults(func=cmd_stability)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        where = []
        if exc.epoch is not None:
            where.append(f"epoch {exc.epoch}")
        if exc.k is not None:
            where.append(f"step k={exc.k}")
        suffix = f" ({', '.join(where)})" if where else ""
        print(f"numerical failure: {exc}{suffix}", file=sys.stderr)
        return 3
    except UnboundedRegionError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (DatasetFormatError, CheckpointFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
