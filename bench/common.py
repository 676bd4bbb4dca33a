"""Shared, standard-library-only pieces of the benchmark.

Holds the CLI workload catalogue, the reference outputs and the rules for
comparing outputs with them, and the statistics every workload reports.
Nothing here imports nuceft or numpy, so run.py stays small and its own
start-up never counts towards a measurement.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")

# Relative tolerance for floats.  A term absent on one side of a term map
# counts as weight 0; weights below MAP_FLOOR of the map's largest weight
# are summation round-off and compare equal to 0.
REL_TOL = 1e-9
MAP_FLOOR = 1e-12

# estimate-cli: one fresh `python -m nuceft.cli estimate` process per call.
# Every input stays valid under the planned boundary validation: eta is at
# most 4 L^3, ope and dynpi use the vc encoding, and no float grid is swept.
ESTIMATE_CONFIGS = {
    **{f"pionless.{enc}.p{p}.{task}": ["--model", "pionless",
                                       "--encoding", enc,
                                       "--order", str(p), "--task", task,
                                       "--eta", "40", "--L", "10"]
       for enc in ("vc", "compact") for p in (1, 2)
       for task in ("evolve", "qpe")},
    "ope.evolve": ["--model", "ope", "--task", "evolve", "--eta", "40"],
    "ope.qpe": ["--model", "ope", "--task", "qpe", "--eta", "40"],
    "ope.evolve.ell13": ["--model", "ope", "--task", "evolve", "--eta", "40",
                         "--ell", "13"],
    "dynpi.evolve": ["--model", "dynpi", "--task", "evolve", "--eta", "40"],
    "dynpi.qpe": ["--model", "dynpi", "--task", "qpe", "--eta", "40"],
    "dynpi.evolve.nb20": ["--model", "dynpi", "--task", "evolve",
                          "--eta", "40", "--nb", "20"],
    "config": ["--config", os.path.join("bench", "inputs", "config.json")],
}

# sweep-cli: one fresh `python -m nuceft.cli sweep` process per sweep.
SWEEPS = {
    "ope_eta": ["--model", "ope", "--eta", "40", "--axis", "eta",
                "--from", "2", "--to", "400", "--step", "2"],
    "ope_ell": ["--model", "ope", "--eta", "40", "--axis", "ell",
                "--from", "1", "--to", "40"],
    "dynpi_nb": ["--model", "dynpi", "--task", "qpe", "--eta", "40",
                 "--axis", "n_b", "--from", "1", "--to", "200"],
    "pionless_L": ["--model", "pionless", "--eta", "40", "--axis", "L",
                   "--from", "3", "--to", "400"],
}


def parse_estimate(stdout: str) -> dict:
    return json.loads(stdout)


def parse_sweep(stdout: str) -> list[list[str]]:
    """CSV rows as lists of cells; the sweep output has no quoted cells."""
    return [line.split(",") for line in stdout.splitlines()]


class CliCommand:
    """One call of a CLI workload, with the output it must print."""

    def __init__(self, kind: str, part: str, argv: list[str], reference,
                 parse):
        self.kind, self.part, self.argv = kind, part, argv
        self.reference, self.parse = reference, parse

    def check(self, stdout: str) -> str | None:
        try:
            return mismatch(self.reference, self.parse(stdout), self.kind)
        except ValueError as exc:
            return f"unreadable output: {exc}"


def cli_commands(workload: str, reference: dict, cls=CliCommand) -> list:
    """The calls of estimate-cli or sweep-cli; ``reference`` maps a config
    or sweep name to its recorded output."""
    if workload == "estimate-cli":
        return [cls(f"estimate.{k}", "estimate", ["estimate", *argv],
                    reference.get(k), parse_estimate)
                for k, argv in ESTIMATE_CONFIGS.items()]
    return [cls(f"sweep.{k}", k, ["sweep", *argv], reference.get(k),
                parse_sweep) for k, argv in SWEEPS.items()]


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# comparison


def _number(cell):
    """An int, a float, or None for a CSV cell."""
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return None


def _scalars_match(ref, got) -> bool:
    if isinstance(ref, str) and isinstance(got, str):
        ref_n, got_n = _number(ref), _number(got)
        if ref_n is None or got_n is None:
            return ref == got
        ref, got = ref_n, got_n
    if isinstance(ref, bool) or isinstance(got, bool):
        return ref is got
    if isinstance(ref, int) and isinstance(got, int):
        return ref == got
    if isinstance(ref, (int, float)) and isinstance(got, (int, float)):
        return math.isclose(ref, got, rel_tol=REL_TOL, abs_tol=0.0)
    return ref == got


def _maps_match(ref: dict, got: dict) -> str | None:
    scale = max((math.hypot(*w) for w in ref.values()), default=0.0)
    floor = MAP_FLOOR * scale
    for key in ref.keys() | got.keys():
        a = ref.get(key, [0.0, 0.0])
        b = got.get(key, [0.0, 0.0])
        diff = math.hypot(a[0] - b[0], a[1] - b[1])
        if diff > max(REL_TOL * max(math.hypot(*a), math.hypot(*b)), floor):
            return f"term {key}: expected {a}, got {b}"
    return None


def mismatch(ref, got, path: str = "") -> str | None:
    """First difference between a reference output and an output, or None.

    Integers compare exactly, floats within REL_TOL, strings exactly (a CSV
    cell holding a number compares as that number).  A dict with the single
    key "terms" is a term map {term: [re, im]} and compares term by term, so
    the order in which a sum was accumulated does not matter.
    """
    if isinstance(ref, dict) and isinstance(got, dict):
        if set(ref) == {"terms"} and set(got) == {"terms"}:
            found = _maps_match(ref["terms"], got["terms"])
            return f"{path}: {found}" if found else None
        if set(ref) != set(got):
            return f"{path}: keys {sorted(set(ref) ^ set(got))} differ"
        for key in ref:
            found = mismatch(ref[key], got[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return f"{path}: length {len(got)}, expected {len(ref)}"
        for i, (a, b) in enumerate(zip(ref, got)):
            found = mismatch(a, b, f"{path}[{i}]")
            if found:
                return found
        return None
    if _scalars_match(ref, got):
        return None
    return f"{path}: expected {ref!r}, got {got!r}"


# ---------------------------------------------------------------------------
# statistics


def tail(values) -> float:
    """The highest percentile with at least 10 samples beyond it.

    With n samples that is the (n - 10)th smallest; below 11 samples no
    percentile qualifies and the maximum stands in.
    """
    ordered = sorted(values)
    return ordered[max(len(ordered) - 11, 0)] if len(ordered) >= 11 \
        else ordered[-1]


# The calibration loop: a fixed piece of pure-Python work, timed before the
# first call of a run and after every call.  Times are reported in units of
# CALIBRATION_S, the loop's fastest time on the 2-core Xeon host the
# benchmark was tuned on, so they read as seconds on that host when nothing
# else runs there.
CALIBRATION_N = 100_000
CALIBRATION_S = 0.0064


def calibration_loop() -> list[float]:
    """[start, seconds] of one run of the calibration loop, now."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_N):
        acc += i * i % 7
    return [start, time.perf_counter() - start]


def relative_times(spans, marks) -> list[float]:
    """Each span's time over the mean calibration loop around it.

    ``spans`` and ``marks`` are [start, seconds] lists; mark i ran just
    before span i and mark i + 1 just after it.  The loops averaged are
    those two and every other one that ran within one span-length of the
    span.  A short call is slowed by what the host does at that moment,
    which the loops next to it see; a long one by the average over its
    length, which a single loop at each end estimates poorly.
    """
    out = []
    for i, (start, seconds) in enumerate(spans):
        lo, hi = i, i + 1
        while lo > 0 and sum(marks[lo - 1]) >= start - seconds:
            lo -= 1
        end = start + 2 * seconds
        while hi + 1 < len(marks) and marks[hi + 1][0] <= end:
            hi += 1
        loops = [m[1] for m in marks[lo:hi + 1]]
        out.append(seconds / statistics.fmean(loops))
    return out


def uncontended(relative) -> float:
    """Seconds at the reference speed: the median of ``relative`` times
    CALIBRATION_S.

    The benchmark shares its host's CPUs with other tenants, and they slow
    everything that runs, CPU time included, by up to 60% for seconds to
    minutes at a time; a quiet moment may not come in a whole run.  On the
    2-core host, 12 windows of 25 s of estimate-cli calls gave medians that
    spread 23% (quartile distance over median), per-kind minima 11.5%, and
    the median of each call over its neighbouring calibration loops 2.1%.
    So every call is timed relative to the calibration loop, which the
    host slows alike, and CALIBRATION_S turns that back into seconds.
    """
    return statistics.median(relative) * CALIBRATION_S


class CallStats:
    """Latencies of a run's calls, grouped by kind of call.

    ``calls`` is a list of (kind, part, seconds, relative, repeat) over
    ``passes`` whole passes: a timed call ran its operation ``repeat``
    times, ``seconds`` is the time of one of them, and ``relative`` is that
    time over the calibration loops around the call.  A pass mixes kinds
    whose costs differ by up to 1000x, so statistics are taken per kind and
    then combined.
    """

    def __init__(self, calls, passes: int):
        self.by_kind: dict[str, list[float]] = {}
        self.raw: dict[str, list[float]] = {}
        self.part: dict[str, str] = {}
        self.runs: dict[str, int] = {}
        for kind, part, seconds, relative, repeat in calls:
            self.by_kind.setdefault(kind, []).append(relative)
            self.raw.setdefault(kind, []).append(seconds)
            self.part[kind] = part
            self.runs[kind] = self.runs.get(kind, 0) + repeat
        self.passes = passes

    def typical(self, kind: str) -> float:
        """Seconds of one call of ``kind`` at the reference speed."""
        return uncontended(self.by_kind[kind])

    def pass_s(self, part: str | None = None) -> float:
        """Seconds of one pass (or of one part of it) at the reference
        speed, every call at its kind's typical time."""
        return sum(self.typical(kind) * self.runs[kind] / self.passes
                   for kind in self.by_kind
                   if part is None or self.part[kind] == part)

    def call_ms(self) -> float:
        """Geometric mean over kinds of each kind's typical call, ms."""
        return 1e3 * math.exp(statistics.fmean(
            math.log(self.typical(k)) for k in self.by_kind))

    def raw_call_ms(self) -> float:
        """The same from the times as measured, contention included."""
        return 1e3 * math.exp(statistics.fmean(
            math.log(statistics.median(v)) for v in self.raw.values()))

    def tail_ms(self) -> float:
        """``call_ms`` times the tail of every call's relative time over
        its kind's median, i.e. how much slower than typical the slow
        calls run.  A pooled percentile would instead land on whichever
        kind straddles it, and jump as the number of passes changes."""
        medians = {k: statistics.median(v) for k, v in self.by_kind.items()}
        slowdown = tail([t / medians[k] for k, v in self.by_kind.items()
                         for t in v])
        return self.call_ms() * slowdown


# ---------------------------------------------------------------------------
# running


def pinned_env(root: str) -> dict:
    """The environment of every process the benchmark starts.

    Sweeps run serially (no NUCEFT_JOBS), the hash seed is fixed, and BLAS
    gets one thread: under default threading the same 8-mode
    exact_evolution_error call took 160 ms on 6 of 8 calls and 3.5 ms on
    the others, a bimodality that would swamp any change under test.
    """
    env = dict(os.environ)
    env.pop("NUCEFT_JOBS", None)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return env


def run_process(argv: list[str], env: dict, timeout: float = 120.0):
    """(exit code, stdout, stderr, seconds) of one child process."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)
    return (proc.returncode, proc.stdout, proc.stderr,
            time.perf_counter() - start)


def timed_passes(ops, seconds: float, run, order) -> dict:
    """Whole passes over ``ops``, each in an order drawn from ``order``,
    while the next pass is expected to end within ``seconds``; at least
    two.  The first pass warms up caches and is not measured.

    ``run(op)`` runs the operation ``op.repeat`` times (once if it has no
    such attribute) and returns (seconds for all of them, error or None);
    checking the outputs is not part of the time.  The calibration loop
    runs before the first call and after every call.  Returns the measured
    calls [kind, part, seconds per run, relative time, repeat], the
    measured pass times, the calibration loop times, the number of
    operations attempted and the errors.
    """
    passes, spans, errors = [], [], []
    marks = [calibration_loop()]
    deadline = time.perf_counter() + seconds
    while len(passes) < 2 or time.perf_counter() + statistics.median(
            passes) <= deadline:
        shuffled = list(ops)
        order.shuffle(shuffled)
        total = 0.0
        for op in shuffled:
            start = time.perf_counter()
            elapsed, error = run(op)
            marks.append(calibration_loop())
            spans.append((op, [start, elapsed]))
            total += elapsed
            if error:
                errors.append(f"{op.kind}: {error}")
        passes.append(total)
    relative = relative_times([span for _, span in spans], marks)
    calls = [[op.kind, op.part, t / n, r / n, n]
             for (op, (_, t)), r in zip(spans, relative)
             for n in [getattr(op, "repeat", 1)]]
    return {"calls": calls[len(ops):], "passes": passes[1:],
            "calibration": [m[1] for m in marks],
            "attempted": sum(c[4] for c in calls), "errors": errors}
