"""Command-line surface.

Exit codes: 0 for SCALED/IN, 1 for NOT_IN_POLYTOPE/EPS_FAR (and failed
checks), 2 for usage or validation errors and unreadable or unwritable
files, 3 for numeric failures and exhausted memory.
Reports are JSON, written to --out or standard output.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

import numpy as np

from . import io
from .hwv import (
    EvalBudgetError,
    check_hwv_transformation,
    evaluate_hwv,
    evaluation_bound,
)
from .oracle import (
    DEFAULT_REPEATS,
    IN,
    KroneckerQuery,
    kronecker_support,
    membership,
    qmp,
    sinkhorn,
)
from .partitions import as_int
from .reduction import reduce_tensor
from .scaling import (
    BOREL,
    PARABOLIC,
    SCALED,
    THEORETICAL,
    DEFAULT_RAND_RANGE,
    ScalingConfig,
    TargetSpectrum,
    identity_parametrization,
    mps_parametrization,
    mps_tensor,
    run_general_scaling,
    run_scaling,
)
from .tensors import NonFiniteEntriesError, NumericBreakdownError


class UsageError(ValueError):
    pass


def _parse_rand_range(text: str) -> int | str:
    if text == THEORETICAL:
        return THEORETICAL
    try:
        return int(text)
    except ValueError as exc:
        raise UsageError(f"--rand-range must be an integer or '{THEORETICAL}'") from exc


def _config(args: argparse.Namespace) -> ScalingConfig:
    return ScalingConfig(
        epsilon=args.epsilon,
        seed=args.seed,
        rand_range=_parse_rand_range(args.rand_range),
        mode=args.mode,
        max_iters=args.max_iters,
        randomize=not getattr(args, "no_randomize", False),
    )


def _load_target(args: argparse.Namespace, dims: Sequence[int]) -> TargetSpectrum:
    if args.target == "uniform":
        return TargetSpectrum.uniform(dims)
    return io.load_spectrum(args.target)


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _emit(obj: dict, out: str | None) -> None:
    text = io.dumps_canonical(obj)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_report(command: str, report, out: str | None, **extra) -> int:
    """Write a scaling report with its command name (and any ``extra`` keys
    after the report's); exit status 0 for SCALED, else 1."""
    _emit({"command": command, **io.report_to_obj(report), **extra}, out)
    return 0 if report.verdict == SCALED else 1


def _emit_verdict(command: str, verdict, out: str | None, **extra) -> int:
    """Write a decision verdict after its command name and ``extra`` keys;
    exit status 0 for IN, else 1."""
    _emit({"command": command, **extra, **io.verdict_to_obj(verdict)}, out)
    return 0 if verdict.answer == IN else 1


def _csv_ints(text: str, flag: str) -> tuple[int, ...]:
    try:
        values = tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise UsageError(f"{flag} expects comma-separated integers") from exc
    if not values or any(v < 0 for v in values):
        raise UsageError(f"{flag} expects nonnegative integers")
    return values


def _add_run_flags(sub: argparse.ArgumentParser, *, target: bool = True,
                   randomize: bool = False) -> None:
    """A run's flags; --no-randomize only where a run reads it."""
    if target:
        sub.add_argument("--target", required=True,
                         help="spectrum JSON path, or the shorthand 'uniform'")
    sub.add_argument("--epsilon", type=float, required=True)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--rand-range", default=str(DEFAULT_RAND_RANGE),
                     help=f"integer sampling range or '{THEORETICAL}'")
    sub.add_argument("--mode", choices=[BOREL, PARABOLIC], default=BOREL)
    sub.add_argument("--max-iters", type=int, default=None)
    if randomize:
        sub.add_argument("--no-randomize", action="store_true",
                         help="start from the input itself, without a random "
                              "basis change")
    sub.add_argument("--out", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tenscale",
        description="Tensor scaling to prescribed marginal spectra and "
                    "moment-polytope decision front-ends.")
    commands = parser.add_subparsers(dest="command", required=True)

    scale = commands.add_parser("scale", help="scale a tensor to a target")
    scale.add_argument("--tensor", required=True)
    _add_run_flags(scale, randomize=True)

    general = commands.add_parser(
        "general-scale", help="scale a sampled point of a parametrized variety, "
                              "or a given tensor as scale does")
    src = general.add_mutually_exclusive_group(required=True)
    src.add_argument("--dims", help="identity parametrization on 1;DIMS")
    src.add_argument("--mps", help="JSON file with matrix-product site data: "
                                   "'n' and 'bond', or 'matrices'")
    src.add_argument("--orbit-tensor",
                     help="tensor JSON, scaled as by the scale command")
    general.add_argument("--sites", type=int, default=None,
                         help="number of tensor factors for --mps")
    _add_run_flags(general)

    member = commands.add_parser("membership",
                                 help="promise membership for a fixed tensor")
    member.add_argument("--tensor", required=True)
    member.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    _add_run_flags(member, randomize=True)

    qmp_cmd = commands.add_parser("qmp", help="one-body marginal realizability")
    qmp_cmd.add_argument("--dims", required=True)
    qmp_cmd.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    _add_run_flags(qmp_cmd)

    kron = commands.add_parser("kronecker",
                               help="asymptotic Kronecker support query")
    kron.add_argument("--lam", required=True)
    kron.add_argument("--mu", required=True)
    kron.add_argument("--nu", required=True)
    kron.add_argument("--n", type=int, default=0)
    kron.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    _add_run_flags(kron, target=False)

    reduce_cmd = commands.add_parser(
        "reduce", help="expand a tensor for the uniform-scaling reduction")
    reduce_cmd.add_argument("--tensor", required=True)
    reduce_cmd.add_argument("--lambdas", required=True,
                            help="JSON list of partitions, one per factor")
    reduce_cmd.add_argument("--out", default=None)

    verify = commands.add_parser("verify-hwv",
                                 help="evaluate a weight vector and its bounds")
    verify.add_argument("--tensor", required=True)
    verify.add_argument("--spec", required=True)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--out", default=None)

    sink = commands.add_parser("sinkhorn", help="classical matrix scaling")
    sink.add_argument("--matrix", required=True,
                      help="JSON file with a nonnegative nested-array matrix")
    sink.add_argument("--rows", required=True,
                      help="comma-separated row target sums")
    sink.add_argument("--cols", required=True,
                      help="comma-separated column target sums")
    sink.add_argument("--epsilon", type=float, required=True)
    sink.add_argument("--max-iters", type=int, default=10_000)
    sink.add_argument("--out", default=None)
    return parser


def _cmd_scale(args) -> int:
    x = io.load_tensor(args.tensor)
    p = _load_target(args, x.dims)
    return _emit_report("scale", run_scaling(x, p, _config(args)), args.out)


def _cmd_general_scale(args) -> int:
    if args.sites is not None and not args.mps:
        raise UsageError("--sites applies only to --mps")
    x = phi = None
    if args.dims:
        dims = _csv_ints(args.dims, "--dims")
        phi = identity_parametrization(dims)
    elif args.orbit_tensor:
        x = io.load_tensor(args.orbit_tensor)
    else:
        obj = _load_json(args.mps)
        if not isinstance(obj, dict):
            raise UsageError("--mps file must hold a JSON object")
        sites = obj.get("sites") if args.sites is None else args.sites
        if sites is None:
            raise UsageError("give --sites (or a 'sites' key) for --mps")
        sites = as_int(sites, "--mps sites", low=1)
        if "matrices" in obj:
            matrices = io.number_array(obj["matrices"], f"{args.mps}.matrices")
            # trace products past the float range are a breakdown, as for
            # a sampled start
            try:
                x = mps_tensor(matrices, sites)
            except NonFiniteEntriesError as exc:
                raise NumericBreakdownError(
                    "the site matrices' trace products left the "
                    "floating-point range") from exc
        elif "n" in obj and "bond" in obj:
            n = as_int(obj["n"], "--mps n", low=1)
            phi = mps_parametrization(n, as_int(obj["bond"], "--mps bond", low=1),
                                      sites)
            dims = (n,) * sites
        else:
            raise UsageError("--mps file needs 'matrices' or 'n' and 'bond'")
    if phi is None:
        # one given tensor is scaled as `scale` scales it; the group acts on it
        report = run_scaling(x, _load_target(args, x.dims), _config(args))
    else:
        report, x = run_general_scaling(phi, _load_target(args, dims),
                                        _config(args))
    extra = {}
    if x.norm() > 0 and x.is_gaussian_integer():
        extra["sample"] = io.tensor_to_obj(x)
    return _emit_report("general-scale", report, args.out, **extra)


def _cmd_membership(args) -> int:
    x = io.load_tensor(args.tensor)
    p = _load_target(args, x.dims)
    verdict = membership(x, p, args.epsilon, cfg=_config(args),
                         repeats=args.repeats)
    return _emit_verdict("membership", verdict, args.out)


def _cmd_qmp(args) -> int:
    dims = _csv_ints(args.dims, "--dims")
    p = _load_target(args, dims)
    verdict = qmp(p, dims, args.epsilon, cfg=_config(args), repeats=args.repeats)
    return _emit_verdict("qmp", verdict, args.out)


def _cmd_kronecker(args) -> int:
    query = KroneckerQuery(lam=_csv_ints(args.lam, "--lam"),
                           mu=_csv_ints(args.mu, "--mu"),
                           nu=_csv_ints(args.nu, "--nu"), n=args.n)
    verdict = kronecker_support(query, args.epsilon, cfg=_config(args),
                                repeats=args.repeats)
    return _emit_verdict("kronecker", verdict, args.out, lam=list(query.lam),
                         mu=list(query.mu), nu=list(query.nu), n=query.n)


def _cmd_reduce(args) -> int:
    x = io.load_tensor(args.tensor)
    try:
        lams = json.loads(args.lambdas)
    except json.JSONDecodeError as exc:
        raise UsageError(f"--lambdas is not valid JSON: {exc}") from exc
    reduced = reduce_tensor(x, lams)
    _emit({"command": "reduce", "tensor": io.tensor_to_obj(reduced)}, args.out)
    return 0


def _cmd_verify_hwv(args) -> int:
    x = io.load_tensor(args.tensor)
    spec = io.load_hwv_spec(args.spec)
    value = evaluate_hwv(spec, x)
    bound = evaluation_bound(spec, x)
    rng = np.random.default_rng(args.seed)
    group = []
    for n in x.dims:
        upper = np.triu(rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n)), k=1)
        group.append(np.eye(n) + np.diag(1.0 + rng.random(n)) + upper)
    transform_ok = check_hwv_transformation(spec, x, group)
    bound_ok = abs(value) <= bound * (1 + 1e-9)
    _emit({"command": "verify-hwv",
           "value": {"re": value.real, "im": value.imag},
           "abs": abs(value), "bound": bound,
           "boundOk": bound_ok,
           "transformOk": transform_ok}, args.out)
    return 0 if bound_ok and transform_ok else 1


def _cmd_sinkhorn(args) -> int:
    matrix = io.number_array(_load_json(args.matrix), args.matrix)
    rows = [float(v) for v in args.rows.split(",")]
    cols = [float(v) for v in args.cols.split(",")]
    result = sinkhorn(matrix, rows, cols, args.epsilon, max_iters=args.max_iters)
    _emit({"command": "sinkhorn",
           "scalable": result.scalable,
           "converged": result.converged,
           "iterations": result.iterations,
           "matrix": [[float(v) for v in row] for row in result.matrix],
           "rowScale": [float(v) for v in result.row_scale],
           "colScale": [float(v) for v in result.col_scale]},
          args.out)
    return 0 if result.converged else 1


_HANDLERS = {
    "scale": _cmd_scale,
    "general-scale": _cmd_general_scale,
    "membership": _cmd_membership,
    "qmp": _cmd_qmp,
    "kronecker": _cmd_kronecker,
    "reduce": _cmd_reduce,
    "verify-hwv": _cmd_verify_hwv,
    "sinkhorn": _cmd_sinkhorn,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        # the breakdown rules decide values past the float range, so NumPy's
        # warnings stay silent and stderr holds at most the one line below
        with np.errstate(over="ignore", invalid="ignore"):
            return _HANDLERS[args.command](args)
    # the numeric clause comes first: np.linalg.LinAlgError is a ValueError
    except (ArithmeticError, EvalBudgetError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
