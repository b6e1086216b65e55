"""Command-line entry point: generate data, train, evaluate, gradient-check,
and report stability diagnostics.

Subcommands: generate | train | eval | gradcheck | stability.
Exit codes: 0 success (gradcheck: pass), 1 gradcheck failure, 2 usage or
configuration errors and sizes too large for memory, 3 numerical
explosion/divergence or no stability certificate, 4 I/O and format errors.

A config file (one "key = value" per line, # comments allowed) can seed
the train subcommand: each pair is parsed as the flag --key=value placed
ahead of the command line's own flags, so it gets the flag's cast, choices
and messages, and a flag given on the command line wins. KEYS is the one
place where these keys are declared: the flags of generate, train and
eval, with their casts, choices and defaults, and the keys a config file
may set (an unknown or repeated key is a configuration error) come from it.
"""

import argparse
import inspect
import math
import os
import re
import sys

import numpy as np

from . import stability as stab
from .errors import (CheckpointFormatError, ConfigurationError,
                     DatasetFormatError, NumericalError)
from .loss import STATE_LOSS_KINDS, LossWeights, total_cost
from .model import (PARAM_DIMS, BrnnParams, NONLINEARITIES, forward, param_shapes,
                    step_rate)
from .tasks import TaskSpec, gen_task, read_csv, read_text, remove_file, write_csv, write_text
from .trainer import AGGREGATIONS, TrainConfig, init_params, train
from .verify import (SMOOTH_SIGMAS, SMOOTH_STATE_LOSSES, format_report,
                     gradcheck, random_instance)

CHECKPOINT_MAGIC = "brnn-v1"

TASK_ALIASES = {"sine": "sine_track", "bandpass": "bandpass_filter",
                "lag": "lag_copy"}


def _parse_coeffs(text):
    """'a1,a2,b0' as three floats, for argparse; TaskSpec checks their values.
    Fields are split at commas, at whitespace, or at a comma with whitespace
    around it, so an empty field (",," or a leading or trailing comma) is
    one of the fields and the value is refused."""
    try:
        a1, a2, b0 = map(float, re.split(r"\s*,\s*|\s+", text.strip()))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"coeffs must be 'a1,a2,b0', got {text!r}") from None
    return a1, a2, b0


def _defaults(func) -> dict:
    """func's parameter defaults by name: the CLI reads a default from the
    function that owns it, and writes no second copy."""
    return {name: p.default for name, p in inspect.signature(func).parameters.items()}


# Every train key: (cast, default, flag choices, subcommands taking it as a
# flag "--" + key with "_" as "-"): generate takes the task keys, eval the
# loss keys. Defaults that TaskSpec, init_params, TrainConfig or LossWeights
# declare are read from there (seed feeds both, equal defaults).
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
    "noise": (float, TaskSpec.noise, None, ("generate", "train")),
    "seed": (int, TaskSpec.seed, None, ("generate", "train")),
    "data": (str, None, None, ("train",)),
    "n": (int, 8, None, ("train",)),
    "sigma": (str, _defaults(init_params)["sigma"], NONLINEARITIES, ("train",)),
    "eta": (float, TrainConfig.eta, None, ("train",)),
    "epochs": (int, TrainConfig.epochs, None, ("train",)),
    "agg": (str, TrainConfig.aggregation, AGGREGATIONS, ("train",)),
    "stop_tol": (float, TrainConfig.stop_tol, None, ("train",)),
    "init_scale": (float, _defaults(init_params)["init_scale"], None, ("train",)),
    "alphaA": (float, _defaults(init_params)["alpha_A"], None, ("train",)),
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
    whitespace-separated line per matrix row, the matrices in
    model.PARAM_DIMS' order; b and c are one line each."""
    write_text(path, _checkpoint_lines(params))


def _checkpoint_lines(params: BrnnParams):
    yield f"{CHECKPOINT_MAGIC} {params.n} {params.m} {params.r} {params.sigma}\n"
    for name in PARAM_DIMS:
        # row by row, each formatted as it is asked for: the whole text, or a
        # whole n x n .tolist(), raises the peak RSS at n = 256
        for row in np.atleast_2d(getattr(params, name)):
            yield " ".join(map(repr, row.tolist())) + "\n"


def load_checkpoint(path) -> BrnnParams:
    text = read_text(path, CheckpointFormatError)
    lines = [ln for ln in map(str.strip, text.split("\n")) if ln]
    if not lines:
        raise CheckpointFormatError("empty checkpoint file")
    head = lines[0].split()
    if len(head) != 5 or head[0] != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(f"bad header {lines[0]!r}")
    try:
        shapes = param_shapes(*map(int, head[1:4]))
    except (ValueError, ConfigurationError):
        raise CheckpointFormatError(f"bad dimensions in header {lines[0]!r}") from None
    # a vector's shape[:-1] is (): one row. The count comes from the shapes,
    # before any array is made: a header may claim far more rows than the
    # file has
    need = sum(math.prod(shape[:-1]) for shape in shapes.values())
    if len(lines) - 1 != need:
        raise CheckpointFormatError(
            f"expected {need} matrix rows, found {len(lines) - 1}")
    blocks = {name: np.empty(shape) for name, shape in shapes.items()}
    # one (name, row index, row) per text row, in save_checkpoint's order
    table = [(name, i, row) for name, block in blocks.items()
             for i, row in enumerate(np.atleast_2d(block))]
    for line, (name, i, row) in zip(lines[1:], table):
        fields = line.split()
        if len(fields) != row.size:
            raise CheckpointFormatError(
                f"{name} row {i} has {len(fields)} values, expected {row.size}")
        try:
            row[:] = [float(v) for v in fields]
        except ValueError as exc:
            raise CheckpointFormatError(f"{name} row {i}: {exc}") from None
    params = BrnnParams(**blocks, sigma=head[4])
    try:
        params.validate()
    except ConfigurationError as exc:
        raise CheckpointFormatError(str(exc)) from None
    return params


def write_metrics_csv(path, history) -> None:
    """One row per epoch of `history` (at least one), under a header of the
    rows' keys; reg is reg_theta + reg_nu."""
    rows = [{"epoch": em.epoch, "total": em.cost.total, "phi_N": em.cost.phi_N,
             "output_sum": em.cost.output_sum, "state_sum": em.cost.state_sum,
             "reg": em.cost.reg_theta + em.cost.reg_nu,
             "grad_norm": em.grad_norm, "lambda_max": em.lambda_max} for em in history]
    write_text(path, [",".join(rows[0]) + "\n"]
               + [",".join(map(repr, row.values())) + "\n" for row in rows])


def load_config_file(path) -> dict:
    """Flat key = value pairs; blank lines and # comments ignored. A #
    starts a comment at the start of a line or after whitespace, so a value
    such as run#1.csv keeps its #. A key not in KEYS, or one given twice,
    is an error."""
    raws = read_text(path, ConfigurationError).split("\n")
    out, lines = {}, {}
    for lineno, raw in enumerate(raws, start=1):
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
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

def _command_keys(args, command) -> dict:
    """The values of the keys `command` takes as flags, by key."""
    return {key: getattr(args, key) for key, (*_, commands) in KEYS.items()
            if command in commands}


def _task_spec(args) -> TaskSpec:
    keys = _command_keys(args, "generate")
    kind = keys.pop("task")
    return TaskSpec(TASK_ALIASES.get(kind, kind), **keys)


def cmd_generate(args) -> int:
    seq = gen_task(_task_spec(args))
    write_csv(seq, args.out)
    print(f"wrote {seq.N + 1} rows (m={seq.m}, r={seq.r}) to {args.out}")
    return 0


def _loss_weights(args) -> LossWeights:
    keys = _command_keys(args, "eval")
    keys["state_loss_kind"] = keys.pop("state_loss")
    return LossWeights(**keys)


def cmd_train(args) -> int:
    if os.path.realpath(args.metrics_out) == os.path.realpath(args.checkpoint_out):
        raise ConfigurationError("--metrics-out and --checkpoint-out name one file")
    # built under --data too, where it goes unused: a task value that
    # generate refuses is refused here as well
    spec = _task_spec(args)
    # only a missing data key means "generate"; an empty path is a path
    seq = read_csv(args.data) if args.data is not None else gen_task(spec)

    tc = TrainConfig(eta=args.eta, epochs=args.epochs, aggregation=args.agg,
                     stop_tol=args.stop_tol)
    w = _loss_weights(args)

    params0 = init_params(args.n, seq.m, seq.r, sigma=args.sigma,
                          init_scale=args.init_scale, alpha_A=args.alphaA,
                          seed=args.seed)
    params, history = train(tc, seq, params0, np.zeros(params0.n), w)

    # a run whose outputs cannot all be written leaves none of them
    save_checkpoint(args.checkpoint_out, params)
    try:
        write_metrics_csv(args.metrics_out, history)
    except OSError:
        remove_file(args.checkpoint_out)
        raise
    first, last = history[0].cost.total, history[-1].cost.total
    print(f"trained {len(history)} epochs: total {first!r} -> {last!r}")
    print(f"metrics: {args.metrics_out}")
    print(f"checkpoint: {args.checkpoint_out}")
    return 0


def cmd_eval(args) -> int:
    params = load_checkpoint(args.checkpoint)
    seq = read_csv(args.data)
    w = _loss_weights(args)
    traj = forward(params, seq, np.zeros(params.n))
    cost = total_cost(traj, seq, params, w)
    if not math.isfinite(cost.total):
        raise NumericalError(f"total cost is {cost.total!r}")
    for name, v in vars(cost).items():
        print(f"{name} = {v!r}")
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


def cmd_stability(args) -> int:
    stab._check_bound("s_sup", args.s_sup)
    # the flags that design A, by make_stable_A's argument names; a flag
    # not given is None
    design = {"n": args.n, "scheme": args.scheme, "alpha_A": args.alphaA,
              "seed": args.seed}
    given = {name: value for name, value in design.items() if value is not None}
    if args.checkpoint is not None:
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
    # the report's fields are the table's columns, in their order
    fields = list(vars(stab.stability_report(A, m_sup)).items())
    if args.checkpoint is not None:
        fields.append(("step_rate", step_rate(params)))
    lines = [f"n = {A.shape[0]}"] + [f"{key} = {value!r}" for key, value in fields]
    # the CSV is written before anything prints, so a failed write prints no
    # report
    if args.csv_out is not None:
        write_text(args.csv_out, [",".join(key for key, _ in fields) + "\n",
                                  ",".join(repr(v) for _, v in fields) + "\n"])
        lines.append(f"csv: {args.csv_out}")
    print("\n".join(lines))
    return 0


# -------------------------------------------------------------------- parser

def _flag(key) -> str:
    return "--" + key.replace("_", "-")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brnn",
        description="Train and analyze a stable recurrent state-space network.",
        allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_key_flags(p, command):
        for key, (cast, default, choices, commands) in KEYS.items():
            if command in commands:
                p.add_argument(_flag(key), type=cast, default=default, choices=choices)

    def add_command(name, func, text):
        # a subcommand's flags, like the program's, are spelled in full
        p = sub.add_parser(name, help=text, allow_abbrev=False)
        p.set_defaults(func=func)
        return p

    p = add_command("generate", cmd_generate, "write a synthetic dataset CSV")
    add_key_flags(p, "generate")
    p.add_argument("--out", default="dataset.csv")

    p = add_command("train", cmd_train, "train on a generated task or a dataset CSV")
    add_key_flags(p, "train")
    p.add_argument("--config", default=None, help="key = value config file")
    p.add_argument("--metrics-out", dest="metrics_out", default="metrics.csv")
    p.add_argument("--checkpoint-out", dest="checkpoint_out", default="checkpoint.txt")

    p = add_command("eval", cmd_eval, "cost breakdown of a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    add_key_flags(p, "eval")

    p = add_command("gradcheck", cmd_gradcheck,
                    "compare multiplier gradients to finite differences")
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

    p = add_command("stability", cmd_stability, "BIBO bound and Liapunov region for A")
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
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None) is not None:
            # the file's pairs as flags ahead of the command line's own: the
            # last value of a flag wins, and the --key=value form keeps a
            # value that starts with "-" a value
            at = argv.index(args.command) + 1
            argv[at:at] = [f"{_flag(key)}={value}"
                           for key, value in load_config_file(args.config).items()]
            args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        # an error that knows its step k names it in its message
        suffix = f" (epoch {exc.epoch})" if exc.epoch is not None else ""
        print(f"numerical failure: {exc}{suffix}", file=sys.stderr)
        return 3
    except (DatasetFormatError, CheckpointFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (MemoryError, ValueError) as exc:
        # NumPy refuses a shape too large to address with a ValueError of
        # its own; any other ValueError is a fault and surfaces
        if isinstance(exc, ValueError) and not str(exc).startswith(
                ("array is too big", "Maximum allowed")):
            raise
        print(f"error: sizes too large for memory: {str(exc) or 'out of memory'}",
              file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
