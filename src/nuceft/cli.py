"""Command-line front end: estimate, sweep, verify.

Exit codes: 0 success, 1 usage or configuration problem, 2 domain error
(a precondition of the physics pipeline was violated).  Flags override
config-file values; the config file is JSON with the same field names.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import VERIFY_SUITES
from .errors import ConfigError, DomainError
from .estimator import SWEEP_AXES, SWEEP_HEADER, TaskSpec, estimate, sweep

# config keys -> TaskSpec fields, with the parser applied to config values
_SPEC_FIELDS = {
    "task": ("task", str),
    "model": ("model", str),
    "encoding": ("encoding", str),
    "order": ("order", int),
    "L": ("L", int),
    "aL_fm": ("a_L", float),
    "eta": ("eta", int),
    "Ekin_MeV": ("E_kin", float),
    "deltaE_MeV": ("delta_E", float),
    "Emax_MeV": ("E_max", float),
    "success": ("success", float),
    "eps": ("epsilon", float),
    "convention": ("convention", str),
    "ell": ("ell_units", int),
    "nb": ("n_b", int),
}

# the TaskSpec fields a run cannot silently default
_REQUIRED = ("eta",)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
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
    unknown = sorted(set(raw) - set(_SPEC_FIELDS))
    if unknown:
        raise ConfigError(
            f"unknown config field(s) in {path}: {', '.join(unknown)}")
    return raw


def _build_spec(config: dict, flags: dict) -> TaskSpec:
    """Merge config-file values and flags (flags win) into a TaskSpec."""
    merged = {}
    for key, (field_name, parse) in _SPEC_FIELDS.items():
        if key in config:
            try:
                merged[field_name] = parse(config[key])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"config field {key}: {exc}") from exc
        if flags.get(key) is not None:
            merged[field_name] = flags[key]
    for key in _REQUIRED:
        if _SPEC_FIELDS[key][0] not in merged:
            raise ConfigError(f"missing required field: {key} "
                              f"(pass --{key} or set it in the config)")
    return TaskSpec(**merged)


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc}") from exc


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
    """The TaskSpec flags; each one's dest is its config key (argparse
    turns --aL-fm into aL_fm), which is what _build_spec reads."""
    add = parser.add_argument
    add("--config", help="JSON config file; flags override its values.")
    add("--task", choices=["evolve", "qpe"])
    add("--model", choices=["pionless", "ope", "dynpi"])
    add("--encoding", choices=["vc", "compact"])
    add("--order", type=int, help="Product-formula order p.")
    add("--L", type=int, help="Lattice extent per axis.")
    add("--aL-fm", type=float, help="Lattice spacing in fm.")
    add("--eta", type=int, help="Nucleon number.")
    add("--Ekin-MeV", type=float,
        help="Kinetic energy per nucleon (evolve task).")
    add("--deltaE-MeV", type=float, help="Energy resolution (qpe task).")
    add("--Emax-MeV", type=float, help="Spectral range (qpe task).")
    add("--success", type=float, help="QPE success probability.")
    add("--eps", type=float, help="Total error budget.")
    add("--convention", choices=["near-term", "fault-tolerant"])
    add("--ell", type=int, help="Force the range cutoff (lattice units).")
    add("--nb", type=int, help="Force the boson register width.")


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
    spec = _build_spec(_load_config(args.config), vars(args))
    report = estimate(spec)
    text = json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
    _write_text(args.output, text)


def cmd_sweep(args) -> None:
    """Sweep one axis and emit a CSV table."""
    import csv
    import io

    template = _build_spec(_load_config(args.config), vars(args))
    axis, start, stop, step = args.axis, args.start, args.stop, args.step
    if step <= 0:
        raise ConfigError(f"--step must be positive, got {step}")
    # each point from its index, so no rounding error accumulates; 12
    # significant digits drop the representation error of start + i * step
    grid = []
    while (value := start + len(grid) * step) <= stop + 1e-12:
        grid.append(float(f"{value:.12g}") if axis == "epsilon"
                    else int(round(value)))
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
    try:
        args = _parser().parse_args(argv)
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
