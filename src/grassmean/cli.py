"""Command-line interface.

Three subcommands: ``karcher-mean`` averages the subspaces in a JSON file,
``distance`` reports the geodesic distance between exactly two stored
subspaces, and ``bi-experiment`` runs the blind-identification benchmark
sweep. Exit codes: 0 success, 1 usage or input errors, 2 the solver stopped
without reaching the gradient tolerance, 3 a cut-locus failure. ``argparse``
is imported when the parser is built, so importing this module does not load it.
"""

from __future__ import annotations

import os
import sys

from . import __version__
from .blindid import MixingExperiment, run_experiment
from .exceptions import CutLocusError, GrassmeanError, InvalidInputError
from .files import read_subspace_file, write_results_csv, write_subspace_file, write_trace_csv
from .grassmann import basis_from_projector, dist, principal_angles, projector_from_basis
from .karcher import CGConfig, DIRECTION_RULES, KarcherProblem, karcher_mean

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_CONVERGED = 2
EXIT_CUT_LOCUS = 3

_STEP_RULES = {"backtrack": "backtracking", "newton": "newton_cp"}


def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="grassmean", description="Average subspaces of C^n and benchmark the result.")
    parser.add_argument("--version", action="version", version=f"grassmean {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    mean = sub.add_parser("karcher-mean", help="Karcher mean of the stored subspaces")
    mean.add_argument("input", help="subspace JSON file")
    mean.add_argument("--out", required=True, help="output subspace JSON file (one basis)")
    mean.add_argument("--trace", help="iteration trace CSV (default: <out>.trace.csv)")
    # the option defaults are CGConfig's, so the library and the CLI share one set
    defaults = CGConfig()
    mean.add_argument("--rule", choices=DIRECTION_RULES, default=defaults.direction_rule,
                      help="conjugate-direction update rule")
    mean.add_argument("--step", choices=sorted(_STEP_RULES),
                      default=next(k for k, v in _STEP_RULES.items() if v == defaults.step_rule),
                      help="step-size rule: Armijo backtracking, or newton (any rank)")
    mean.add_argument("--grad-tol", type=float, default=defaults.grad_tol,
                      help="gradient-norm stopping tolerance")
    mean.add_argument("--max-iter", type=int, default=defaults.max_iter, help="iteration cap")
    mean.add_argument("--repair", action="store_true",
                      help="re-orthonormalize bases that fail the file check")

    distance = sub.add_parser("distance",
                              help="geodesic distance between two stored subspaces")
    distance.add_argument("input", help="subspace JSON file holding exactly two bases")
    distance.add_argument("--repair", action="store_true",
                          help="re-orthonormalize bases that fail the file check")

    experiment = sub.add_parser("bi-experiment",
                                help="blind-identification benchmark sweep")
    experiment.add_argument("--n", type=int, default=5, help="number of sources")
    experiment.add_argument("--eps-list", default="1,0.5,0.2,0.1,0.01",
                            help="comma-separated mixing perturbation levels")
    experiment.add_argument("--nest-list", default="10",
                            help="comma-separated estimation counts per trial; "
                                 "a sweep needs a single --eps-list value (the default has five)")
    experiment.add_argument("--trials", type=int, default=100, help="trials per sweep value")
    experiment.add_argument("--samples", type=int, default=10000,
                            help="observations per estimation")
    experiment.add_argument("--seed", type=int, default=0, help="base RNG seed")
    experiment.add_argument("--out", required=True, help="results CSV path")
    return parser


def _run_karcher_mean(args) -> int:
    trace_path = args.trace or os.path.splitext(args.out)[0] + ".trace.csv"
    problem = KarcherProblem(read_subspace_file(args.input, repair=args.repair))
    config = CGConfig(direction_rule=args.rule, step_rule=_STEP_RULES[args.step],
                      grad_tol=args.grad_tol, max_iter=args.max_iter)
    try:
        point, trace = karcher_mean(problem, config=config)
    except GrassmeanError as err:
        if err.trace is not None:
            write_trace_csv(trace_path, err.trace)
        print(f"error: {err}", file=sys.stderr)
        if isinstance(err, CutLocusError):
            return EXIT_CUT_LOCUS
        return EXIT_NOT_CONVERGED if err.trace is not None else EXIT_USAGE
    write_trace_csv(trace_path, trace)
    write_subspace_file(args.out, [basis_from_projector(point)])
    last = trace.iterates[-1]
    print(f"status = {trace.status}")
    print(f"iterations = {last.iteration}")
    print(f"cost = {last.cost:.12g}")
    print(f"grad_norm = {last.grad_norm:.12g}")
    return EXIT_OK if trace.converged else EXIT_NOT_CONVERGED


def _run_distance(args) -> int:
    points = [projector_from_basis(b)
              for b in read_subspace_file(args.input, repair=args.repair)]
    if len(points) != 2:
        print(f"error: distance needs exactly 2 bases, file has {len(points)}",
              file=sys.stderr)
        return EXIT_USAGE
    value = dist(points[0], points[1])
    angles = principal_angles(points[0], points[1])
    print(f"distance = {value:.12g}")
    print("principal_angles_rad = " + " ".join(f"{a:.12g}" for a in angles))
    return EXIT_OK


def _parse_float_list(text: str, name: str):
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise InvalidInputError(f"{name} must be a comma-separated list of numbers")
    if not values:
        raise InvalidInputError(f"{name} must not be empty")
    return values


def _run_experiment_cmd(args) -> int:
    eps_values = _parse_float_list(args.eps_list, "--eps-list")
    nest_values = _parse_float_list(args.nest_list, "--nest-list")
    if len(eps_values) > 1 and len(nest_values) > 1:
        print("error: only one of --eps-list and --nest-list may vary", file=sys.stderr)
        return EXIT_USAGE
    for value in nest_values:
        if not value.is_integer() or value < 1:  # False for inf and nan
            print("error: --nest-list entries must be positive integers", file=sys.stderr)
            return EXIT_USAGE
    if len(nest_values) > 1:
        sweep_param = "n_estimations"
        sweep_values = [int(v) for v in nest_values]
    else:
        sweep_param = "noise_level"
        sweep_values = eps_values
    cfg = MixingExperiment(n=args.n, n_estimations=int(nest_values[0]),
                           noise_level=eps_values[0], trials=args.trials,
                           samples_per_trial=args.samples, rng_seed=args.seed)
    rows = run_experiment(cfg, sweep_param, sweep_values)
    write_results_csv(args.out, rows)
    failed = sum(1 for row in rows if row.status != "ok")
    print(f"rows = {len(rows)}")
    print(f"failed = {failed}")
    print(f"out = {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as err:  # argparse exits with 2 on bad usage; the contract here is 1
        return EXIT_USAGE if err.code == 2 else int(err.code or 0)
    try:
        if args.command == "karcher-mean":
            return _run_karcher_mean(args)
        if args.command == "distance":
            return _run_distance(args)
        return _run_experiment_cmd(args)
    except (InvalidInputError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
