"""Command-line front end: estimate, sweep, verify.

Exit codes: 0 success, 1 usage or configuration problem, 2 domain error
(a precondition of the physics pipeline was violated).  A JSON config file
keys each value by its flag without the dashes and with _ for - (``aL_fm``
for ``--aL-fm``); the values are parsed as those flags, and flags win.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

from . import VERIFY_SUITES
from .errors import ConfigError, DomainError
from .estimator import (CHOICES, SWEEP_AXES, SWEEP_FIELDS, SWEEP_HEADER,
                        TaskSpec, estimate, sweep)

# one row per TaskSpec input: flag, TaskSpec field, parser, help
_SPEC_OPTIONS = (
    ("--task", "task", str, None),
    ("--model", "model", str, None),
    ("--encoding", "encoding", str, None),
    ("--order", "order", int, "Product-formula order p."),
    ("--L", "L", int, "Lattice extent per axis."),
    ("--aL-fm", "a_L", float, "Lattice spacing in fm."),
    ("--eta", "eta", int, "Nucleon number."),
    ("--Ekin-MeV", "E_kin", float,
     "Kinetic energy per nucleon (evolve task)."),
    ("--deltaE-MeV", "delta_E", float, "Energy resolution (qpe task)."),
    ("--Emax-MeV", "E_max", float, "Spectral range (qpe task)."),
    ("--success", "success", float, "QPE success probability."),
    ("--eps", "epsilon", float, "Total error budget."),
    ("--convention", "convention", str, None),
    ("--ell", "ell_units", int, "Force the range cutoff (lattice units)."),
    ("--nb", "n_b", int, "Force the boson register width."),
)


def _dest(flag: str) -> str:
    """The flag's argparse dest, which is also its config key."""
    return flag[2:].replace("-", "_")


def _load_config(path: str) -> list[str]:
    """The config file as the flags it stands for, one --flag=value each."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path} is not valid JSON "
            f"(line {exc.lineno}, column {exc.colno}): {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    flags = {_dest(flag): flag for flag, *_ in _SPEC_OPTIONS}
    unknown = sorted(set(raw) - set(flags))
    if unknown:
        raise ConfigError(
            f"unknown config field(s) in {path}: {', '.join(unknown)}")
    # a JSON string is the flag's text; any other value is spelled as JSON
    return [f"{flags[key]}="
            f"{value if isinstance(value, str) else json.dumps(value)}"
            for key, value in raw.items()]


def _build_spec(args) -> TaskSpec:
    """The TaskSpec of the inputs given; a run cannot default eta."""
    given = {field: getattr(args, _dest(flag))
             for flag, field, *_ in _SPEC_OPTIONS}
    if given["eta"] is None:
        raise ConfigError("missing required field: eta "
                          "(pass --eta or set it in the config)")
    return TaskSpec(**{k: v for k, v in given.items() if v is not None})


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc}") from exc


# the most points one sweep prices; a longer grid is refused before it is
# built, since each point is a whole estimate
MAX_SWEEP_POINTS = 100_000

# a token float() reads, such as -1e-3 or -inf, is a flag's value; argparse
# alone takes only -1 and -0.5 for values and the rest for unknown flags
_NEGATIVE_NUMBER = re.compile(r"-\.?\d|-(inf|infinity|nan)$", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """Takes flags only as spelled out, and hands usage errors to main."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def _add_spec_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config",
                        help="JSON config file; flags override its values.")
    for flag, field, parse, text in _SPEC_OPTIONS:
        parser.add_argument(flag, type=parse, choices=CHOICES.get(field),
                            help=text)


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nuceft", description="Quantum-resource estimates "
                     "for lattice nuclear Hamiltonians.")
    commands = parser.add_subparsers(required=True, metavar="COMMAND")

    def command(name: str, run, summary: str) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=summary, description=summary)
        sub.set_defaults(run=run)
        return sub

    estimate_cmd = command("estimate", cmd_estimate,
                           "Cost out one evolution or phase-estimation task.")
    _add_spec_options(estimate_cmd)
    estimate_cmd.add_argument("--output",
                              help="Report path (default: stdout).")

    sweep_cmd = command("sweep", cmd_sweep,
                        "Sweep one axis and emit a CSV table.")
    _add_spec_options(sweep_cmd)
    sweep_cmd.add_argument("--axis", choices=SWEEP_AXES, required=True)
    sweep_cmd.add_argument("--from", dest="start", type=float, required=True)
    sweep_cmd.add_argument("--to", dest="stop", type=float, required=True)
    sweep_cmd.add_argument("--step", type=float, default=1.0,
                           help="Grid spacing (default: 1.0).")
    sweep_cmd.add_argument("--output", help="CSV path (default: stdout).")

    verify_cmd = command("verify", cmd_verify,
                         "Run a module self-check suite.")
    verify_cmd.add_argument("suite", choices=[*VERIFY_SUITES, "all"])
    return parser


def cmd_estimate(args) -> None:
    """Cost out one evolution or phase-estimation task."""
    spec = _build_spec(args)
    report = estimate(spec)
    text = json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
    _write_text(args.output, text)


def cmd_sweep(args) -> None:
    """Sweep one axis and emit a CSV table."""
    import csv
    import io

    template = _build_spec(args)
    axis, start, stop, step = args.axis, args.start, args.stop, args.step
    for flag, value in (("--from", start), ("--to", stop), ("--step", step)):
        if not math.isfinite(value):
            raise ConfigError(f"{flag} must be finite, got {value}")
    if step <= 0:
        raise ConfigError(f"--step must be positive, got {step}")
    span = (stop - start) / step  # the grid has floor(span) + 1 points
    if span >= MAX_SWEEP_POINTS:
        raise ConfigError(
            f"sweep grid of {span + 1:.6g} points from {start} to {stop} "
            f"step {step}; at most {MAX_SWEEP_POINTS} points are priced")
    parse = next(parse for _, field, parse, _ in _SPEC_OPTIONS
                 if field == SWEEP_FIELDS[axis])
    # each point from its index, so no rounding error accumulates; 12
    # significant digits drop the representation error of start + i * step
    grid = []
    while (value := start + len(grid) * step) <= stop + 1e-12:
        if parse is float:
            grid.append(float(f"{value:.12g}"))
        elif value.is_integer():
            grid.append(int(value))
        else:
            raise ConfigError(
                f"sweep axis {axis} takes integers, but the grid from "
                f"{start:g} step {step:g} reaches {value:.12g}")
    if not grid:
        raise ConfigError(
            f"empty sweep grid: from {start} to {stop} step {step}")
    rows = sweep(template, axis, grid)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(SWEEP_HEADER)
    for row in rows:
        writer.writerow([row[key] for key in SWEEP_HEADER])
    _write_text(args.output, buf.getvalue())


def cmd_verify(args) -> None:
    """Run a module self-check suite."""
    # the oracle (and numpy) loads only here, so estimate and sweep skip it
    from .verify import run_suite
    checks = run_suite(args.suite)
    failed = 0
    for name, ok, detail in checks:
        status = "ok" if ok else "FAIL"
        print(f"{status:4s} {name} ({detail})")
        failed += 0 if ok else 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    if failed:
        raise DomainError(f"{failed} verification check(s) failed")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        parser = _parser()
        args = parser.parse_args(argv)
        if getattr(args, "config", None) is not None:
            # after the subcommand, argv[0], and before the command line's
            # flags, which still win
            tokens = _load_config(args.config)
            try:
                args = parser.parse_args([argv[0], *tokens, *argv[1:]])
            except argparse.ArgumentError as exc:
                raise ConfigError(f"config {args.config}: {exc}") from exc
        args.run(args)
    except SystemExit as exc:  # only --help exits; error() raises instead
        return exc.code
    except argparse.ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
