"""The nuceft benchmark: one workload per run, end to end or traced.

    python3 bench/run.py --workload estimate-cli|sweep-cli|oracle|algebra \\
        --seed N --seconds S --trace 0|1

Run it from the root of a nuceft checkout; src/ is put on the path of every
process it starts, as the tests do.  Each workload is a closed loop with one
client: a call starts when the previous one has returned.  The run prints a
table of the metrics, each with its unit and sample count, then as its last
line one JSON object {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones.  README.md says what each workload and metric
is for.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time

from common import (BENCH_DIR, CALIBRATION_S, SWEEPS, CallStats,
                    calibration_loop, cli_commands, load_reference,
                    pinned_env, relative_times, run_process, tail,
                    timed_passes, uncontended)

WORKLOADS = ("estimate-cli", "sweep-cli", "oracle", "algebra")
SESSION = os.path.join(BENCH_DIR, "session.py")
# set-up is measured this many times per run, after one untimed warm-up
SETUP_REPEATS = 11
IMPORT_PROBE = ("import sys, time; n = len(sys.modules); "
                "t = time.perf_counter(); import nuceft.cli; "
                "print(time.perf_counter() - t, len(sys.modules) - n)")


def run_session(args: list[str], env: dict, timeout: float) -> dict:
    code, out, err, _ = run_process([SESSION, *args], env, timeout)
    if code != 0:
        raise RuntimeError(f"session {args} exited {code}: {err[-2000:]}")
    return json.loads(out.splitlines()[-1])


def measure_setup(workload: str, env: dict) -> tuple[list, list]:
    """Fresh-process set-up times, and the calibration loops around them.
    A first, untimed process compiles bytecode."""
    spans, marks = [], []
    for i in range(SETUP_REPEATS + 1):
        if i == 1:
            marks.append(calibration_loop())
        start = time.perf_counter()
        if workload in ("estimate-cli", "sweep-cli"):
            code, out, err, _ = run_process(["-c", IMPORT_PROBE], env)
            if code != 0:
                raise RuntimeError(f"import nuceft.cli failed: {err[-2000:]}")
            seconds = float(out.split()[0])
        else:
            seconds = run_session(["--setup-only", "--workload", workload],
                                  env, 120)["setup_s"]
        if i:
            spans.append([start, seconds])
            marks.append(calibration_loop())
    return spans, marks


def cli_workload(workload: str, seed: int, seconds: float, env: dict,
                 reference: dict) -> dict:
    def run(op):
        code, out, err, elapsed = run_process(["-m", "nuceft.cli", *op.argv],
                                              env)
        if code != 0:
            return elapsed, f"exit code {code}: {err.strip()[-300:]}"
        return elapsed, op.check(out)

    return timed_passes(cli_commands(workload, reference), seconds, run,
                        random.Random(seed))


def end_to_end(workload: str, seed: int, seconds: float, env: dict,
               reference: dict) -> tuple[dict, dict, dict]:
    """(gated metrics, the workload's own metrics, raw results).

    Times are at the host's uncontended speed; common.uncontended says
    how and why.
    """
    setup, setup_marks = measure_setup(workload, env)
    setup_s = [seconds for _, seconds in setup]
    if workload in ("estimate-cli", "sweep-cli"):
        data = cli_workload(workload, seed, seconds, env, reference[workload])
    else:
        data = run_session(["--workload", workload, "--seed", str(seed),
                            "--seconds", str(seconds)], env, seconds + 120)
    marks = [m[1] for m in setup_marks] + data["calibration"]
    floor = min(marks)
    stats = CallStats(data["calls"], len(data["passes"]))
    n_calls, n_passes = len(data["calls"]), len(data["passes"])
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    metrics = {
        "setup_s": (uncontended(relative_times(setup, setup_marks)),
                    "s", len(setup)),
        "pass_s": (stats.pass_s(), "s", n_calls),
        "call_ms.p50": (stats.call_ms(), "ms", n_calls),
        "peak_rss_mb": (peak_mb, "MB", 1),
    }
    own = {"failed_ops_frac": (len(data["errors"]) / data["attempted"],
                               "fraction", data["attempted"]),
           "call_ms.tail": (stats.tail_ms(), "ms", n_calls),
           # as measured, with what other tenants of the host add
           "raw.setup_s.p50": (statistics.median(setup_s), "s", len(setup)),
           "raw.pass_s.p50": (statistics.median(data["passes"]), "s",
                              n_passes),
           "raw.call_ms.p50": (stats.raw_call_ms(), "ms", n_calls),
           "host.calibration_ms.min": (1e3 * floor, "ms", len(marks)),
           "host.slowdown.p50": (statistics.median(marks) / floor, "x",
                                 len(marks))}
    if workload == "estimate-cli":
        # the calls are alike (import dominates), so they are pooled
        latencies = [1e3 * CALIBRATION_S * c[3] for c in data["calls"]]
        own["estimate_ms.p50"] = (statistics.median(latencies), "ms", n_calls)
        own["estimate_ms.tail"] = (tail(latencies), "ms", n_calls)
    elif workload == "sweep-cli":
        points = sum(len(reference[workload][k]) - 1 for k in SWEEPS)
        own["sweep_points_per_s"] = (points / stats.pass_s(), "1/s", n_calls)
        for kind in SWEEPS:
            own[f"sweep_{kind}_s"] = (stats.pass_s(kind), "s", n_passes)
    else:
        for part in sorted(set(stats.part.values())):
            own[f"{workload}_{part}_s"] = (stats.pass_s(part), "s", n_passes)
    return metrics, own, data


def import_layer(env: dict) -> dict:
    """import.* metrics from fresh interpreters."""
    times, loaded = [], []
    for _ in range(6):
        code, out, err, _ = run_process(["-c", IMPORT_PROBE], env)
        if code != 0:
            raise RuntimeError(f"import nuceft.cli failed: {err[-2000:]}")
        seconds, modules = out.split()
        times.append(1e3 * float(seconds))
        loaded.append(int(modules))
    numpy_ms = []
    for _ in range(3):
        # -X importtime lines: "import time: self | cumulative | name"
        _, _, err, _ = run_process(["-X", "importtime", "-c",
                                    "import nuceft.cli"], env)
        cumulative = [int(line.split("|")[1]) for line in err.splitlines()
                      if line.startswith("import time:")
                      and line.split("|")[-1].strip() == "numpy"]
        numpy_ms.append(cumulative[0] / 1e3 if cumulative else 0.0)
    return {"import.nuceft_cli_ms": (statistics.median(times[1:]), "ms"),
            "import.numpy_ms": (statistics.median(numpy_ms), "ms"),
            "import.modules_loaded": (loaded[-1], "count")}


def print_table(title: str, rows: dict) -> None:
    print(title)
    for name, (value, unit, *n) in rows.items():
        count = f"  n={n[0]}" if n else ""
        print(f"  {name:<40s} {value:>14.6g} {unit}{count}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "nuceft", "cli.py")):
        print(f"error: no nuceft sources under {root}/src; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    env = pinned_env(root)
    # every process of the run shares one CPU, so the calibration loop runs
    # on the CPU whose load it stands for; processes started later inherit
    # the affinity
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    reference = load_reference()
    print("env", json.dumps({**run_session(["--env"], env, 120),
                             "cpu": cpu, "workload": args.workload,
                             "seed": args.seed, "seconds": args.seconds,
                             "trace": args.trace}))

    if args.trace:
        traced = run_session(["--trace", "--workload", args.workload,
                              "--seed", str(args.seed)], env, 170)
        metrics = {**import_layer(env),
                   **{k: tuple(v) for k, v in traced["metrics"].items()}}
        errors, attempted = traced["errors"], traced["attempted"]
        print_table(f"per-layer metrics ({args.workload}, traced)",
                    dict(sorted(metrics.items())))
        print("self time by boundary, ms:")
        for name, ms in traced["self_time"]:
            print(f"  {name:<40s} {ms:>14.3f}")
        for name in traced["missing_boundaries"]:
            print(f"warning: boundary {name} not found, its metrics read 0")
    else:
        metrics, own, data = end_to_end(args.workload, args.seed,
                                        args.seconds, env, reference)
        errors, attempted = data["errors"], data["attempted"]
        print_table(f"end-to-end metrics ({args.workload})", metrics)
        print_table(f"workload metrics ({args.workload})", own)
    for error in errors[:20]:
        print(f"FAILED {error}")
    print(json.dumps({
        "correct": not errors, "attempted": attempted, "failed": len(errors),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, *_) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
