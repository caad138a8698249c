"""Command-line interface.

    switchbif <subcommand> --config FILE [--out DIR] [flags]
    switchbif paper-example <subcommand> [--out DIR] [flags]

Subcommands: validate, simulate, poincare, classify, delta-sweep,
bifurcate, branch, verify-global.  ``paper-example`` runs any of them
on the built-in benchmark system and takes no ``--config``.  Exit codes:
0 success, else the ``exit_code`` of the error raised: 1 UserError,
2 NumericalError, 3 internal error (see ``switchbif.errors``).

Each handler returns its exit code and reports; ``_write_reports``
formats and writes every one.  Outputs are deterministic: identical
config and command produce byte-identical files.  CSV files carry a
comment line naming the tool version and config label, then a header
row; JSON reports embed the same metadata.  Every float is written as
Python's shortest repr, which reads back to the same float.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__, numeric
from .analytic import classify_origin, delta, delta_prime
from .bifurcation import (CheckStatus, bifurcation_direction, check_global_conditions,
                          continue_branch, find_critical_lambda,
                          fit_local_expansion, fit_scaling_law, leading_coefficient)
from .config import _OPTIONS, RunConfig, _switch, paper_example_config, parse_config
from .errors import InsufficientDataError, NoOrbitError, ParseError, SwitchBifError
from .model import validate
from .numeric import (StopAfterEvents, StopAtTime, StopOnReturn, integrate,
                      poincare_numeric)


def _write_reports(config: RunConfig, args, reports: dict) -> None:
    """Format each report and write it as ``args.out/filename``, else to stdout.

    A dict is a JSON report under the tool/version/command/config metadata;
    (columns, rows) is a CSV report: a comment line with the same metadata,
    the header row, then one line per row of Python floats and ints.
    """
    for filename, body in reports.items():
        if isinstance(body, dict):
            meta = {"tool": "switchbif", "version": __version__,
                    "command": args.command, "config": config.label}
            text = json.dumps({**meta, **body}, indent=2, sort_keys=True) + "\n"
        else:
            columns, rows = body
            text = (f"# switchbif {__version__} {args.command} config={config.label}\n"
                    + ",".join(columns) + "\n"
                    + "".join(",".join(map(repr, row)) + "\n" for row in rows))
        if args.out is None:
            sys.stdout.write(text)
        else:
            path = Path(args.out) / filename
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(text, encoding="utf-8")
            except OSError as exc:   # --out names a file, or a path through one
                raise ParseError(f"cannot write {path}: {exc}", "--out") from exc
            print(f"wrote {path}")


_HELP = {
    "x0": "initial state 'x1,x2'",
    "return_to_section": "stop at the first return to the positive x1-axis",
    "x1_values": "comma-separated amplitudes",
    "lambdas": "comma-separated parameter values",
    "bracket": "parameter bracket 'lo,hi'",
}


def _option(config: RunConfig, args, key: str, *, required: bool = False,
            from_config: bool = True):
    """Value of one option: the flag, else ``config.options[key]``, else the
    default; converted and range-checked once, whichever source it came from."""
    flag, convert, default, check, rule = _OPTIONS[key]
    value, where = getattr(args, key), flag
    if value is None and from_config and key in config.options:
        value, where = config.options[key], f"options.{key}"
    if value is None:
        if required:
            raise ParseError(f"{flag} is required")
        return default
    try:
        value = convert(value, where)
    except ValueError as exc:
        raise ParseError(f"bad value {value!r}: {exc}", where) from None
    if check is not None and not check(value):
        raise ParseError(f"{rule}, got {value!r}", where)
    return value


# -- subcommand handlers: each returns (exit code, {filename: report body}) ----


def _cmd_validate(config: RunConfig, args) -> tuple[int, dict]:
    # parse_config has already raised ValidationError for a failing system
    report = validate(config.system)
    return 0, {"validate.json": {"passed": report.passed,
                                 "violations": list(report.violations)}}


_STOPS = {"t_max": StopAtTime, "n_events": StopAfterEvents,
          "return_to_section": lambda _: StopOnReturn()}


def _stop_condition(config: RunConfig, args):
    """The one stop flag given, else the first stop option in the config."""
    flags = [key for key in _STOPS if getattr(args, key) is not None]
    if len(flags) > 1:
        raise ParseError("give only one of --t-max, --n-events, --return-to-section")
    for key in flags or _STOPS:
        value = _option(config, args, key)
        if value is not None and value is not False:
            return _STOPS[key](value)
    raise ParseError("a stop condition is required: --t-max, --n-events or --return-to-section")


def _cmd_simulate(config: RunConfig, args) -> tuple[int, dict]:
    lam = _option(config, args, "lambda")
    x0 = _option(config, args, "x0")
    stop = _stop_condition(config, args)
    traj = integrate(config.system, x0, lam, stop, config.integrator)

    event = np.zeros(len(traj.times), dtype=int)
    event[traj.events] = 1
    rows = zip(traj.times.tolist(), *traj.states.T.tolist(), traj.quadrants.tolist(),
               event.tolist())
    return 0, {"trajectory.csv": (["t", "x1", "x2", "quadrant", "event"], rows)}


def _cmd_poincare(config: RunConfig, args) -> tuple[int, dict]:
    lam = _option(config, args, "lambda")
    x1_values = _option(config, args, "x1_values", required=True)
    fields = numeric._compiled_fields(config.system, lam)
    samples = [poincare_numeric(config.system, x1, lam, config.integrator, fields=fields)
               for x1 in x1_values]
    return 0, {"poincare.csv": (["x1_in", "x1_out", "period"],
                                [(x1, s.x1_out, s.period) for x1, s in zip(x1_values, samples)])}


def _cmd_classify(config: RunConfig, args) -> tuple[int, dict]:
    lam = _option(config, args, "lambda")
    verdict = classify_origin(config.system.params, lam)
    return 0, {"classify.json": {"lambda": lam, "delta": delta(config.system.params, lam),
                                 "class": verdict.value}}


def _cmd_delta_sweep(config: RunConfig, args) -> tuple[int, dict]:
    lams = _option(config, args, "lambdas", from_config=False)
    if lams is None:
        lo = _option(config, args, "lambda_min")
        hi = _option(config, args, "lambda_max")
        if lo is None or hi is None:
            raise ParseError("give --lambdas or both --lambda-min and --lambda-max")
        n = _option(config, args, "n")
        lams = [lo + (hi - lo) * i / (n - 1) for i in range(n)] if n > 1 else [lo]
    p = config.system.params
    return 0, {"delta_sweep.csv": (["lambda", "delta", "delta_prime"],
                                   [(lam, delta(p, lam), delta_prime(p, lam)) for lam in lams])}


def _cmd_bifurcate(config: RunConfig, args) -> tuple[int, dict]:
    bracket = _option(config, args, "bracket")
    crit = find_critical_lambda(config.system.params, tuple(bracket))
    fit = fit_local_expansion(config.system, crit.lambda_star, config.integrator)
    direction = bifurcation_direction(config.system, lam_star=crit.lambda_star)
    C, k = leading_coefficient(config.system, crit.lambda_star)
    return 0, {"bifurcate.json": {
        "critical_lambda": crit.lambda_star,
        "delta_prime": crit.delta_prime,
        "direction": direction.value,
        "expansion_fit": asdict(fit),
        "leading_coefficient": {"C": C, "k": k, "gamma": -C / crit.delta_prime},
    }}


def _cmd_branch(config: RunConfig, args) -> tuple[int, dict]:
    lams = _option(config, args, "lambdas", required=True)
    x_scan_max = _option(config, args, "x_scan_max")
    result = continue_branch(config.system, lams, config.integrator,
                             x_scan_max=x_scan_max)
    if not result.points:
        raise NoOrbitError(f"no periodic orbit found for any of lambdas {lams}")
    try:
        scaling_fit = asdict(fit_scaling_law(result.points))
    except InsufficientDataError:   # fewer than four points, or both sides of lambda*
        scaling_fit = None
    return 0, {
        "branch.csv": (["lambda", "x1_fixed", "period", "residual"],
                       [(p.lam, p.x1_fixed, p.period, p.residual) for p in result.points]),
        "branch_fit.json": {
            "no_orbit_lambdas": list(result.no_orbit),
            "additional_orbits": [{"lambda": p.lam, "x1_fixed": p.x1_fixed,
                                   "period": p.period, "residual": p.residual}
                                  for p in result.additional],
            "scaling_fit": scaling_fit}}


def _cmd_verify_global(config: RunConfig, args) -> tuple[int, dict]:
    lam = _option(config, args, "lambda")
    radius = _option(config, args, "radius_m")
    n_samples = _option(config, args, "n_samples")
    rep = check_global_conditions(config.system, lam, radius_M=radius,
                                  n_samples=n_samples)
    def witness_doc(w):
        return None if w is None else {"field": w.field_index, "x": list(w.x),
                                       "value": w.value, "description": w.description}

    all_ok = (CheckStatus.FAIL not in (rep.lyapunov_ok, rep.rotation_ok)
              and rep.delta_conditions_ok)
    return (0 if all_ok else 2), {"global_check.json": {
        "lambda": lam,
        "lyapunov_ok": rep.lyapunov_ok.value,
        "lyapunov_witness": witness_doc(rep.lyapunov_witness),
        "rotation_ok": rep.rotation_ok.value,
        "rotation_witness": witness_doc(rep.rotation_witness),
        "delta_conditions_ok": rep.delta_conditions_ok,
        "samples_used": rep.samples_used,
        "radius_M": radius,
        "rotation_pert_inner_max": rep.rotation_pert_inner_max,
        "notes": list(rep.notes),
    }}


#: subcommand -> (handler, help, options it takes)
_COMMANDS = {
    "validate": (_cmd_validate, "check the standing assumptions of the configured system",
                 ()),
    "simulate": (_cmd_simulate, "integrate a trajectory and export CSV",
                 ("lambda", "x0", "t_max", "n_events", "return_to_section")),
    "poincare": (_cmd_poincare, "evaluate the return map at given amplitudes",
                 ("lambda", "x1_values")),
    "classify": (_cmd_classify, "classify the origin of the linear switched system",
                 ("lambda",)),
    "delta-sweep": (_cmd_delta_sweep, "tabulate the stability index over a parameter range",
                    ("lambdas", "lambda_min", "lambda_max", "n")),
    "bifurcate": (_cmd_bifurcate, "locate the critical parameter and the branch direction",
                  ("bracket",)),
    "branch": (_cmd_branch, "continue the periodic-orbit branch over parameter values",
               ("lambdas", "x_scan_max")),
    "verify-global": (_cmd_verify_global, "sampled check of the global existence conditions",
                      ("lambda", "radius_m", "n_samples")),
}


class _ArgumentParser(argparse.ArgumentParser):
    """Reports bad command lines as ParseError instead of exiting."""

    def error(self, message):
        raise ParseError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="switchbif",
        description="simulate planar switched systems and analyse their "
                    "switching-induced Hopf-like bifurcation")
    parser.add_argument("--error-json", action="store_true",
                        help="on failure, print a machine-readable error object to stdout")
    parser.add_argument("--version", action="version", version=f"switchbif {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (_, help_text, keys) in _COMMANDS.items():
        p = subparsers.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="FILE",
                       help="JSON configuration document (required, except after paper-example)")
        p.add_argument("--out", metavar="DIR", default=None,
                       help="directory for output files (default: print to stdout)")
        for key in keys:
            flag, convert = _OPTIONS[key][:2]
            if convert is _switch:
                p.add_argument(flag, dest=key, action="store_const", const=True,
                               help=_HELP.get(key))
            else:
                p.add_argument(flag, dest=key, help=_HELP.get(key))
    pe = subparsers.add_parser("paper-example",
                               help="run a subcommand on the built-in benchmark system")
    pe.add_argument("argv", nargs=argparse.REMAINDER, metavar="COMMAND ...",
                    help="a subcommand and its flags, without --config")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    error_json = "--error-json" in argv
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        if args.command == "paper-example":
            args = parser.parse_args(args.argv)
            if args.command == "paper-example" or args.config is not None:
                raise ParseError("paper-example takes one other subcommand and no --config")
            config = paper_example_config()
        elif args.config is None:
            raise ParseError("--config is required")
        else:
            path = Path(args.config)
            try:
                text = path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                raise ParseError(f"cannot read config file: {exc}") from exc
            config = parse_config(text, label=path.name)
        code, reports = _COMMANDS[args.command][0](config, args)
        _write_reports(config, args, reports)
        return code
    except SwitchBifError as exc:
        _report_error(exc, error_json)
        return exc.exit_code


def _report_error(exc: SwitchBifError, error_json: bool) -> None:
    if error_json:
        doc = {"error": type(exc).__name__, "message": str(exc), "exit_code": exc.exit_code}
        sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")
    print(f"switchbif: error: {type(exc).__name__}: {exc}", file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
