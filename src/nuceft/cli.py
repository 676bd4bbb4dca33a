"""Command-line front end: estimate, sweep, verify.

Exit codes: 0 success, 1 usage or configuration problem, 2 domain error
(a precondition of the physics pipeline was violated).  Flags override
config-file values; the config file is JSON with the same field names.
"""

from __future__ import annotations

import csv
import io
import json
import sys

import click

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


def _spec_options(f):
    opts = [
        click.option("--config", "config_path", type=str, default=None,
                     help="JSON config file; flags override its values."),
        click.option("--task", type=click.Choice(["evolve", "qpe"]),
                     default=None),
        click.option("--model", type=click.Choice(["pionless", "ope",
                                                   "dynpi"]), default=None),
        click.option("--encoding", type=click.Choice(["vc", "compact"]),
                     default=None),
        click.option("--order", type=int, default=None,
                     help="Product-formula order p."),
        click.option("--L", "L", type=int, default=None,
                     help="Lattice extent per axis."),
        click.option("--aL-fm", "aL_fm", type=float, default=None,
                     help="Lattice spacing in fm."),
        click.option("--eta", type=int, default=None,
                     help="Nucleon number."),
        click.option("--Ekin-MeV", "Ekin_MeV", type=float, default=None,
                     help="Kinetic energy per nucleon (evolve task)."),
        click.option("--deltaE-MeV", "deltaE_MeV", type=float, default=None,
                     help="Energy resolution (qpe task)."),
        click.option("--Emax-MeV", "Emax_MeV", type=float, default=None,
                     help="Spectral range (qpe task)."),
        click.option("--success", type=float, default=None,
                     help="QPE success probability."),
        click.option("--eps", type=float, default=None,
                     help="Total error budget."),
        click.option("--convention",
                     type=click.Choice(["near-term", "fault-tolerant"]),
                     default=None),
        click.option("--ell", type=int, default=None,
                     help="Force the range cutoff (lattice units)."),
        click.option("--nb", type=int, default=None,
                     help="Force the boson register width."),
    ]
    for opt in reversed(opts):
        f = opt(f)
    return f


@click.group()
def cli():
    """Quantum-resource estimates for lattice nuclear Hamiltonians."""


@cli.command("estimate")
@_spec_options
@click.option("--output", type=str, default=None,
              help="Report path (default: stdout).")
def cmd_estimate(config_path, output, **flags):
    """Cost out one evolution or phase-estimation task."""
    config = _load_config(config_path)
    spec = _build_spec(config, flags)
    report = estimate(spec)
    text = json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
    _write_text(output, text)


@cli.command("sweep")
@_spec_options
@click.option("--axis", type=click.Choice(list(SWEEP_AXES)), required=True)
@click.option("--from", "start", type=float, required=True)
@click.option("--to", "stop", type=float, required=True)
@click.option("--step", type=float, default=1.0, show_default=True)
@click.option("--output", type=str, default=None,
              help="CSV path (default: stdout).")
def cmd_sweep(config_path, axis, start, stop, step, output, **flags):
    """Sweep one axis and emit a CSV table."""
    config = _load_config(config_path)
    template = _build_spec(config, flags)
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
    _write_text(output, buf.getvalue())


@cli.command("verify")
@click.argument("suite", type=click.Choice(["pauli", "encodings", "seminorm",
                                            "trotter", "all"]))
def cmd_verify(suite):
    """Run a module self-check suite."""
    # the oracle (and numpy) loads only here, so estimate and sweep skip it
    from .verify import run_suite
    checks = run_suite(suite)
    failed = 0
    for name, ok, detail in checks:
        status = "ok" if ok else "FAIL"
        click.echo(f"{status:4s} {name} ({detail})")
        failed += 0 if ok else 1
    click.echo(f"{len(checks) - failed}/{len(checks)} checks passed")
    if failed:
        raise DomainError(f"{failed} verification check(s) failed")


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 1
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        return 1
    except DomainError as exc:
        click.echo(f"domain error: {exc}", err=True)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
