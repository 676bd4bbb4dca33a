"""One benchmark process: a set-up probe, a library workload, or a traced run.

run.py starts this file with the pinned environment (src on the path, one
BLAS thread) and reads the JSON object it prints last.  Only the standard
library is imported at the top, so a set-up probe times nuceft's import and
nothing of the benchmark's own.

    session.py --env
    session.py --setup-only --workload oracle|algebra
    session.py --workload oracle|algebra --seed N --seconds S
    session.py --trace --workload W --seed N
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import statistics
import sys
import time

from common import (ESTIMATE_CONFIGS, CliCommand, cli_commands,
                    load_reference, mismatch, timed_passes)

WORKLOADS = ("estimate-cli", "sweep-cli", "oracle", "algebra")


def environment() -> dict:
    import numpy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "cpu_count": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def setup_probe(workload: str) -> dict:
    """Time the import and the input building a library session pays
    before its first operation."""
    start = time.perf_counter()
    import library
    library.Session(workload, 0, None)
    return {"setup_s": time.perf_counter() - start}


def library_workload(workload: str, seed: int, seconds: float) -> dict:
    import library
    session = library.Session(workload, seed, load_reference())

    def run(op):
        """Run ``op`` op.repeat times; the inputs are fixed, so the output
        of the last run stands for all of them."""
        start = time.perf_counter()
        try:
            for _ in range(op.repeat):
                output = op.run()
        except Exception as exc:  # a failed call is counted, not fatal
            return time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
        return time.perf_counter() - start, op.check(output)

    return timed_passes(session.ops, seconds, run, random.Random(seed))


# ---------------------------------------------------------------------------
# traced run


class InProcess(CliCommand):
    """A CLI call run in this process through nuceft.cli.main."""

    def run(self) -> str:
        import nuceft.cli
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = nuceft.cli.main(self.argv)
        if code != 0:
            raise RuntimeError(f"exit code {code}")
        return out.getvalue()


class EstimateOp:
    """One warm in-process estimate through the library API."""

    def __init__(self, kind: str, reference: dict, **fields):
        self.kind, self.part, self.fields = kind, "pipeline", fields
        self.reference = reference.get(kind)

    def run(self):
        import nuceft.estimator
        spec = nuceft.estimator.TaskSpec(**self.fields)
        return nuceft.estimator.estimate(spec)

    def check(self, output) -> str | None:
        return mismatch(self.reference, output.to_json_dict(), self.kind)


def pipeline_ops(reference: dict) -> list[EstimateOp]:
    """The six default model/task estimates, and ope at pinned cutoffs."""
    ref = reference.get("pipeline", {})
    return ([EstimateOp(f"pipeline.{model}.{task}", ref, model=model,
                        task=task)
             for model in ("pionless", "ope", "dynpi")
             for task in ("evolve", "qpe")]
            + [EstimateOp(f"bound.ope.ell{ell}", ref, model="ope",
                          ell_units=ell) for ell in (10, 20, 40)])


def traced_sections(seed: int, reference: dict) -> dict:
    import library
    return {
        **{w: cli_commands(w, reference[w], InProcess)
           for w in ("estimate-cli", "sweep-cli")},
        **{w: library.Session(w, seed, reference).ops
           for w in ("oracle", "algebra")},
    }


def repeat_timed(fn, budget_s: float = 0.2, least: int = 3,
                 most: int = 300) -> list[float]:
    """Call fn until ``budget_s`` is spent (within [least, most] calls)."""
    times = []
    end = time.perf_counter() + budget_s
    while len(times) < most and (len(times) < least
                                 or time.perf_counter() < end):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return times


def traced_run(workload: str, seed: int) -> dict:
    import nuceft.models
    import nuceft.truncation

    import library
    from tracer import Tracer, install_boundaries

    reference = load_reference()
    sections = traced_sections(seed, reference)
    pipeline = pipeline_ops(reference)
    errors: list[str] = []
    attempted = 0
    metrics: dict[str, tuple[float, str]] = {}

    def run_checked(op, tracer=None):
        nonlocal attempted
        attempted += 1
        start = time.perf_counter()
        try:
            output = tracer.run_op(op.kind, op.run) if tracer else op.run()
        except Exception as exc:  # a failed call is counted, not fatal
            errors.append(f"{op.kind}: {type(exc).__name__}: {exc}")
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.active = False
        error = op.check(output)
        if tracer:
            tracer.active = True
        if error:
            errors.append(f"{op.kind}: {error}")
        return elapsed

    # untraced: warm in-process microbenchmarks
    for op in pipeline:
        if not op.kind.startswith("pipeline."):
            continue
        run_checked(op)
        metrics[f"estimator.estimate_us.{op.kind[9:]}"] = (
            1e6 * statistics.median(repeat_timed(op.run)), "us")
    lattice = library.encodings.LatticeSpec(2, 2, 1, library.A_L)
    params = nuceft.models.pionless_params_for(library.A_L)
    metrics["models.pionless_layers_ms"] = (1e3 * statistics.median(
        repeat_timed(lambda: nuceft.models.pionless_layers(lattice, params))),
        "ms")

    shells = nuceft.truncation.shell_count

    def run_section(ops, tracer=None):
        """Seconds for one pass, and the shell_count misses of the ope ell
        sweep, which starts from an empty cache."""
        total, misses = 0.0, None
        for op in ops:
            if op.kind == "sweep.ope_ell" and hasattr(shells, "cache_clear"):
                shells.cache_clear()
                total += run_checked(op, tracer)
                misses = shells.cache_info().misses
            else:
                total += run_checked(op, tracer)
        return total, misses

    # one untraced pass of every section warms it up, so that neither the
    # traced pass nor the untraced baseline after it pays first-call costs
    for ops in sections.values():
        run_section(ops)
    tracer = Tracer()
    install_boundaries(tracer)
    tracer.active = True
    try:
        for op in pipeline:
            for _ in range(3 if op.kind.endswith("ell40") else 10):
                run_checked(op, tracer)
        traced, misses = {}, {}
        for name, ops in sections.items():
            traced[name], misses[name] = run_section(ops, tracer)
    finally:
        tracer.active = False
        tracer.uninstall()
    untraced, _ = run_section(sections[workload])

    shell_misses = misses["sweep-cli"]
    if shell_misses is None:  # no cache to read: every call is a miss
        shell_misses = tracer.count("truncation.shell_count", "sweep.ope_ell")
    metrics.update(layer_metrics(tracer, shell_misses))
    metrics["trace.overhead_frac"] = (traced[workload] / untraced - 1,
                                      "fraction")
    return {"metrics": metrics, "attempted": attempted, "errors": errors,
            "missing_boundaries": tracer.missing,
            "self_time": top_self_times(tracer)}


ORACLE_OPS = ("evolve.", "sector.", "seminorm.")
PAULI_OPS = ("encode_hopping.", "encode_fermion_sum.", "mul.",
             "commutator_sum.")
PAIR_OPS = ("commutator.kinx_kiny", "commutator.kinx_diag",
            "commutator.kiny_diag")


def layer_metrics(tr, shell_misses: int) -> dict:
    """Per-layer metrics from the traced sections (see README.md)."""
    def total_ms(name, ops, direct=False):
        return sum(tr.durations(name, ops, direct)) / 1e6

    def median_us(name, ops):
        values = tr.durations(name, ops)
        return statistics.median(values) / 1e3 if values else 0.0

    cli_self, serialize = [], []
    for kind in ESTIMATE_CONFIGS:
        op = f"estimate.{kind}"
        cli_self.append(total_ms("cli.main", op)
                        - total_ms("estimator.estimate", op))
        serialize.append(1e3 * (total_ms("cli.to_json_dict", op)
                                + total_ms("cli.json_dumps", op)))
    searches = len(tr.durations("truncation.choose_ope_cutoff",
                                "sweep.ope_eta"))
    m = {
        "cli.self_ms": (statistics.median(cli_self), "ms"),
        "cli.serialize_us": (statistics.median(serialize), "us"),
        "truncation.choose_ope_cutoff_us": (
            median_us("truncation.choose_ope_cutoff", "sweep.ope_eta"), "us"),
        "truncation.ope_cutoff_error.calls": (
            tr.count("truncation.ope_cutoff_error", "sweep.ope_eta")
            / max(searches, 1), "count"),
        "truncation.realized_shells_us": (
            median_us("truncation.realized_shells", "sweep.ope_ell"), "us"),
        "truncation.shell_count.misses": (shell_misses, "count"),
        "trotter.ope_p1_bound.shells": (
            tr.count("trotter.ope_p1_bound.shells", "sweep.ope_ell"),
            "count"),
        "trotter.dynpi_p1_bound_us": (
            median_us("trotter.dynpi_p1_bound", "pipeline.dynpi."), "us"),
        "costs.step_cost_us": (median_us("costs.step_cost", "pipeline."),
                               "us"),
        "costs.t_synthesis_us": (median_us("costs.t_synthesis", "pipeline."),
                                 "us"),
        "fock.eta_sector_ms": (total_ms("fock.eta_sector", ORACLE_OPS), "ms"),
        "fock.eta_seminorm_ms": (total_ms("fock.eta_seminorm", "seminorm."),
                                 "ms"),
        "linalg.eigh.calls": (len(tr.durations("linalg.eigh", ORACLE_OPS)),
                              "count"),
        "linalg.eigh_ms": (total_ms("linalg.eigh", ORACLE_OPS), "ms"),
        "linalg.svd.calls": (len(tr.durations("linalg.svd", ORACLE_OPS)),
                             "count"),
        "linalg.svd_ms": (total_ms("linalg.svd", ORACLE_OPS), "ms"),
        "linalg.matrix_power_ms": (
            total_ms("linalg.matrix_power", ORACLE_OPS), "ms"),
        "fock.fermion_commutator_ms.pair": (
            total_ms("fock.fermion_commutator", PAIR_OPS), "ms"),
        "fock.fermion_commutator_ms.nested": (
            total_ms("fock.fermion_commutator", "commutator.nested"), "ms"),
        "fock.normal_order.calls": (
            tr.count("fock.normal_order", "commutator."), "count"),
        "fock.fermion_term.inits": (
            tr.count("fock.fermion_term", "commutator."), "count"),
        "pauli.mul_ms": (total_ms("pauli.mul", "mul.", direct=True), "ms"),
        "pauli.commutator_sum_ms": (
            total_ms("pauli.commutator_sum", "commutator_sum."), "ms"),
        "pauli.multiply.calls": (tr.count("pauli.multiply", PAULI_OPS),
                                 "count"),
    }
    for ell in (10, 20, 40):
        m[f"trotter.ope_p1_bound_us.ell{ell}"] = (
            median_us("trotter.ope_p1_bound", f"bound.ope.ell{ell}"), "us")
    for key in ("m16e3", "m16e4"):
        m[f"fock.sector_matrix_ms.{key}"] = (
            total_ms("fock.sector_matrix", f"sector.{key}"), "ms")
    for n in (8, 16):
        m[f"fock.exact_evolution_error_ms.m{n}"] = (
            total_ms("fock.exact_evolution_error", f"evolve.m{n}."), "ms")
    for enc in ("jw", "vc", "compact"):
        m[f"encodings.encode_hopping_ms.{enc}"] = (
            total_ms("encodings.encode_hopping", f"encode_hopping.{enc}"),
            "ms")
    return m


def top_self_times(tr, n: int = 12) -> list:
    """The boundaries with the most self time, summed over all spans."""
    by_name: dict[str, int] = {}
    for span, own in zip(tr.spans, tr.self_times()):
        if not span.name.startswith("op:"):
            by_name[span.name] = by_name.get(span.name, 0) + own
    ranked = sorted(by_name.items(), key=lambda kv: -kv[1])[:n]
    return [[name, ns / 1e6] for name, ns in ranked]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--env", action="store_true")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    if args.env:
        result = environment()
    elif args.setup_only:
        result = setup_probe(args.workload)
    elif args.trace:
        result = traced_run(args.workload, args.seed)
    else:
        result = library_workload(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
