"""Command-line entry point: generate data, train, evaluate, gradient-check,
and report stability diagnostics.

Subcommands: generate | train | eval | gradcheck | stability.
Exit codes: 0 success (gradcheck: pass), 1 gradcheck failure, 2 usage or
configuration errors, 3 numerical explosion/divergence or no stability
certificate, 4 I/O and format errors.

A config file (one "key = value" per line, # comments allowed) can seed
the train subcommand; explicit command-line flags win over file values,
and a key train does not read is a configuration error.
"""

import argparse
import sys

import numpy as np

from . import stability as stab
from .errors import (CheckpointFormatError, ConfigurationError,
                     DatasetFormatError, NumericalError, UnboundedRegionError)
from .loss import LossWeights, total_cost
from .model import BrnnParams, Dims, NONLINEARITIES, forward
from .tasks import TaskSpec, gen_task, read_csv, write_csv
from .trainer import AGGREGATIONS, TrainConfig, init_params, train
from .verify import format_report, gradcheck, random_instance

CHECKPOINT_MAGIC = "brnn-v1"
METRICS_HEADER = "epoch,total,phi_N,output_sum,state_sum,reg,grad_norm,lambda_max"

TASK_ALIASES = {"sine": "sine_track", "bandpass": "bandpass_filter",
                "lag": "lag_copy"}


# ---------------------------------------------------------------- persistence

def save_checkpoint(path, params: BrnnParams) -> None:
    """Plain-text checkpoint: header "brnn-v1 n m r sigma", then one
    whitespace-separated line per matrix row in the order A,U,W,b,V,Dft,c."""
    lines = [f"{CHECKPOINT_MAGIC} {params.n} {params.m} {params.r} {params.sigma}"]
    for name in ("A", "U", "W", "b", "V", "Dft", "c"):
        # row by row: a whole n x n .tolist() raises the peak RSS at n = 256
        for row in np.atleast_2d(getattr(params, name)):
            lines.append(" ".join(map(repr, row.tolist())))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def load_checkpoint(path) -> BrnnParams:
    with open(path) as f:
        lines = [ln for ln in (raw.strip() for raw in f) if ln]
    if not lines:
        raise CheckpointFormatError("empty checkpoint file")
    head = lines[0].split()
    if len(head) != 5 or head[0] != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(f"bad header {lines[0]!r}")
    try:
        n, m, r = int(head[1]), int(head[2]), int(head[3])
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


def load_config_file(path, keys) -> dict:
    """Flat key = value pairs; blank lines and # comments ignored. A key
    not in `keys` (the keys the subcommand reads) is an error."""
    out = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(
                    f"{path}: line {lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in keys:
                raise ConfigurationError(
                    f"{path}: line {lineno}: unknown config key {key!r}")
            out[key] = value
    return out


# --------------------------------------------------------------- subcommands

def _resolve(args, config: dict, key: str, cast, default):
    """Flag value if given, else config-file value, else default."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in config:
        try:
            return cast(config[key])
        except ValueError:
            raise ConfigurationError(
                f"config value {key} = {config[key]!r} is not a valid "
                f"{cast.__name__}") from None
    return default


def _parse_coeffs(text):
    parts = [p for p in str(text).replace(",", " ").split() if p]
    if len(parts) != 3:
        raise ConfigurationError(f"coeffs must be 'a1,a2,b0', got {text!r}")
    return tuple(float(p) for p in parts)


def _task_spec(args, config) -> TaskSpec:
    kind = _resolve(args, config, "task", str, "sine")
    kind = TASK_ALIASES.get(kind, kind)
    coeffs = _resolve(args, config, "coeffs", str, "1.2,-0.72,1.0")
    return TaskSpec(
        kind=kind,
        N=_resolve(args, config, "N", int, 50),
        m=_resolve(args, config, "m", int, 1),
        r=_resolve(args, config, "r", int, 1),
        omega=_resolve(args, config, "omega", float, 0.3),
        phase=_resolve(args, config, "phase", float, 0.0),
        coeffs=_parse_coeffs(coeffs),
        lag=_resolve(args, config, "lag", int, 1),
        noise=_resolve(args, config, "noise", float, 0.0),
        seed=_resolve(args, config, "seed", int, 0))


def cmd_generate(args) -> int:
    seq = gen_task(_task_spec(args, {}))
    write_csv(seq, args.out)
    print(f"wrote {seq.N + 1} rows (m={seq.m}, r={seq.r}) to {args.out}")
    return 0


def _loss_weights(args, config) -> LossWeights:
    return LossWeights(
        beta=_resolve(args, config, "beta", float, 0.0),
        beta0=_resolve(args, config, "beta0", float, 0.0),
        gamma1=_resolve(args, config, "gamma1", float, 0.0),
        gamma2=_resolve(args, config, "gamma2", float, 0.0),
        state_loss_kind=_resolve(args, config, "state_loss", str, "none"),
        alpha_ent=_resolve(args, config, "alpha_ent", float, 2.0))


# every key cmd_train resolves from a config file
TRAIN_CONFIG_KEYS = frozenset({
    "task", "N", "m", "r", "omega", "phase", "coeffs", "lag", "noise", "seed",
    "data", "n", "sigma", "eta", "epochs", "agg", "stop_tol", "init_scale",
    "alphaA", "beta", "beta0", "gamma1", "gamma2", "state_loss", "alpha_ent"})


def cmd_train(args) -> int:
    config = (load_config_file(args.config, TRAIN_CONFIG_KEYS)
              if args.config else {})
    data = _resolve(args, config, "data", str, None)
    seq = read_csv(data) if data else gen_task(_task_spec(args, config))

    seed = _resolve(args, config, "seed", int, 0)
    n = _resolve(args, config, "n", int, 8)
    sigma = _resolve(args, config, "sigma", str, "tanh")
    tc = TrainConfig(
        eta=_resolve(args, config, "eta", float, 0.01),
        epochs=_resolve(args, config, "epochs", int, 100),
        aggregation=_resolve(args, config, "agg", str, "sum"),
        stop_tol=_resolve(args, config, "stop_tol", float, 0.0),
        seed=seed,
        init_scale=_resolve(args, config, "init_scale", float, 0.1),
        alpha_A=_resolve(args, config, "alphaA", float, 0.5))
    w = _loss_weights(args, config)

    dims = Dims(n=n, m=seq.m, r=seq.r, N=seq.N)
    params0 = init_params(dims, sigma=sigma, init_scale=tc.init_scale,
                          alpha_A=tc.alpha_A, seed=tc.seed)
    params, history = train(tc, seq, params0, np.zeros(n), w)

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
    w = _loss_weights(args, {})
    traj = forward(params, seq, np.zeros(params.n))
    cost = total_cost(traj, seq, params, w)
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
    if args.checkpoint:
        params = load_checkpoint(args.checkpoint)
        A = params.A
        m_sup = args.Msup if args.Msup is not None else stab.m_sup_bound(
            params, args.s_sup)
    else:
        A = stab.make_stable_A(args.n, scheme=args.scheme,
                               alpha_A=args.alphaA, seed=args.seed)
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
        description="Train and analyze a stable recurrent state-space network.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_task_flags(p, for_train=False):
        # train resolves defaults through the config file, so leave None there
        p.add_argument("--task", choices=sorted(TASK_ALIASES) + sorted(TASK_ALIASES.values()),
                       default=None if for_train else "sine")
        p.add_argument("--N", type=int, default=None if for_train else 50)
        p.add_argument("--m", type=int, default=None if for_train else 1)
        p.add_argument("--r", type=int, default=None if for_train else 1)
        p.add_argument("--omega", type=float, default=None if for_train else 0.3)
        p.add_argument("--phase", type=float, default=None if for_train else 0.0)
        p.add_argument("--coeffs", default=None if for_train else "1.2,-0.72,1.0",
                       help="bandpass filter a1,a2,b0")
        p.add_argument("--lag", type=int, default=None if for_train else 1)
        p.add_argument("--noise", type=float, default=None if for_train else 0.0)
        p.add_argument("--seed", type=int, default=None if for_train else 0)

    p = sub.add_parser("generate", help="write a synthetic dataset CSV")
    add_task_flags(p)
    p.add_argument("--out", default="dataset.csv")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train on a generated task or a dataset CSV")
    add_task_flags(p, for_train=True)
    p.add_argument("--config", default=None, help="key = value config file")
    p.add_argument("--data", default=None, help="dataset CSV (overrides --task)")
    p.add_argument("--n", type=int, default=None, help="state dimension")
    p.add_argument("--sigma", choices=NONLINEARITIES, default=None)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--agg", choices=AGGREGATIONS, default=None)
    p.add_argument("--stop-tol", dest="stop_tol", type=float, default=None)
    p.add_argument("--init-scale", dest="init_scale", type=float, default=None)
    p.add_argument("--alphaA", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--beta0", type=float, default=None)
    p.add_argument("--gamma1", type=float, default=None)
    p.add_argument("--gamma2", type=float, default=None)
    p.add_argument("--state-loss", dest="state_loss",
                   choices=("none", "l1", "tanh_approx"), default=None)
    p.add_argument("--alpha-ent", dest="alpha_ent", type=float, default=None)
    p.add_argument("--metrics-out", dest="metrics_out", default="metrics.csv")
    p.add_argument("--checkpoint-out", dest="checkpoint_out", default="checkpoint.txt")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="cost breakdown of a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--beta0", type=float, default=None)
    p.add_argument("--gamma1", type=float, default=None)
    p.add_argument("--gamma2", type=float, default=None)
    p.add_argument("--state-loss", dest="state_loss",
                   choices=("none", "l1", "tanh_approx"), default=None)
    p.add_argument("--alpha-ent", dest="alpha_ent", type=float, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck",
                       help="compare multiplier gradients to finite differences")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--N", type=int, default=10)
    p.add_argument("--sigma", choices=("tanh", "logistic", "identity"),
                   default="tanh")
    p.add_argument("--state-loss", dest="state_loss",
                   choices=("none", "tanh_approx"), default="none")
    p.add_argument("--gamma1", type=float, default=0.0)
    p.add_argument("--gamma2", type=float, default=0.0)
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=1)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("stability",
                       help="BIBO bound and Liapunov region for A")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--scheme", choices=stab.A_SCHEMES, default="scaled_identity")
    p.add_argument("--alphaA", type=float, default=0.5)
    p.add_argument("--Msup", type=float, default=None)
    p.add_argument("--s-sup", dest="s_sup", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
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
