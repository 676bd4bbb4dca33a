"""Outside-in tracing: spans and counts at nuceft's layer boundaries.

The tracer wraps functions where their callers look them up (the module
attribute a caller names, or the class attribute for a method) from the
benchmark's own files; nothing under ``src/`` changes.  A span is (name,
start, end, parent); spans stay in memory until the run ends.  High-rate
boundaries (a term constructor, a Pauli product) keep only a count, which
is attributed, like every span, to the operation that is running.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int | None     # index into Tracer.spans
    op: str                # kind of the operation the span belongs to


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()      # (op, boundary) -> calls
        self.missing: list[str] = []          # boundaries not found
        self._stack: list[int] = []
        self._op = ""
        self._patches: list[tuple[object, str, object]] = []
        self.active = False

    # -- recording ------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent,
                               self._op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter_ns()
        self._stack.pop()

    def run_op(self, kind: str, fn):
        """Run one operation as a root span named op:<kind>."""
        self._op = kind
        index = self._open(f"op:{kind}")
        try:
            return fn()
        finally:
            self._close(index)
            self._op = ""

    # -- patching -------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, count_only: bool = False,
             tally=None):
        """Replace owner.attr by a wrapper that records a span (or a count)
        named ``name`` while the tracer is active.  ``tally`` is an optional
        (count name, function of the result) pair added to the counts."""
        original = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        tracer = self

        if count_only:
            def wrapper(*args, **kwargs):
                if tracer.active:
                    tracer.counts[(tracer._op, name)] += 1
                return original(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return original(*args, **kwargs)
                index = tracer._open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close(index)
                if tally is not None:
                    tracer.counts[(tracer._op, tally[0])] += tally[1](result)
                return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading --------------------------------------------------------------

    def self_times(self) -> list[int]:
        """Per span: its duration minus the time its child spans cover."""
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.end - s.start
        return out

    def durations(self, name: str, ops, direct: bool = False) -> list[int]:
        """Durations (ns) of the spans named ``name`` inside the operations
        ``ops`` selects (see ``selects``); ``direct`` keeps only spans
        called by the operation itself."""
        out = []
        for s in self.spans:
            if s.name != name or not selects(ops, s.op):
                continue
            if direct and (s.parent is None or not self.spans[
                    s.parent].name.startswith("op:")):
                continue
            out.append(s.end - s.start)
        return out

    def count(self, name: str, ops) -> int:
        return sum(n for (op, boundary), n in self.counts.items()
                   if boundary == name and selects(ops, op))


def selects(ops, kind: str) -> bool:
    """Whether an operation kind is one of ``ops``: a kind or a tuple of
    kinds, where an entry ending in "." stands for every kind it starts."""
    return any(kind == f or (f.endswith(".") and kind.startswith(f))
               for f in ((ops,) if isinstance(ops, str) else ops))


def install_boundaries(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    import json

    import numpy

    import nuceft.cli
    import nuceft.encodings
    import nuceft.estimator
    import nuceft.fock
    import nuceft.pauli
    import nuceft.truncation

    est = nuceft.estimator
    spans = [
        # the CLI front end
        (nuceft.cli, "main", "cli.main"),
        (nuceft.cli, "estimate", "estimator.estimate"),
        (est.CostReport, "to_json_dict", "cli.to_json_dict"),
        (json, "dumps", "cli.json_dumps"),
        # the closed-form pipeline, at the estimator's import sites
        (est, "estimate", "estimator.estimate"),
        (est, "choose_ope_cutoff", "truncation.choose_ope_cutoff"),
        (est, "ope_p1_bound", "trotter.ope_p1_bound"),
        (est, "dynpi_p1_bound", "trotter.dynpi_p1_bound"),
        (est, "pionless_step_cost", "costs.step_cost"),
        (est, "ope_step_cost", "costs.step_cost"),
        (est, "dynpi_step_cost", "costs.step_cost"),
        (est, "t_synthesis", "costs.t_synthesis"),
        # the oracle
        (nuceft.fock, "exact_evolution_error", "fock.exact_evolution_error"),
        (nuceft.fock, "sector_matrix", "fock.sector_matrix"),
        (nuceft.fock, "eta_seminorm", "fock.eta_seminorm"),
        (nuceft.fock.EtaSector, "__post_init__", "fock.eta_sector"),
        (numpy.linalg, "eigh", "linalg.eigh"),
        (numpy.linalg, "svd", "linalg.svd"),
        (numpy.linalg, "matrix_power", "linalg.matrix_power"),
        # the algebra
        (nuceft.fock, "fermion_commutator", "fock.fermion_commutator"),
        (nuceft.encodings, "encode_hopping", "encodings.encode_hopping"),
        (nuceft.encodings, "encode_fermion_sum",
         "encodings.encode_fermion_sum"),
        (nuceft.pauli, "commutator_sum", "pauli.commutator_sum"),
        (nuceft.pauli.PauliSum, "__mul__", "pauli.mul"),
    ]
    counts = [
        (nuceft.truncation, "ope_cutoff_error", "truncation.ope_cutoff_error"),
        (nuceft.truncation, "shell_count", "truncation.shell_count"),
        (nuceft.fock, "normal_order", "fock.normal_order"),
        (nuceft.fock.FermionTerm, "__post_init__", "fock.fermion_term"),
        # PauliSum.__mul__ finds multiply in pauli, the encoders in encodings
        (nuceft.pauli, "multiply", "pauli.multiply"),
        (nuceft.encodings, "multiply", "pauli.multiply"),
    ]
    for owner, attr, name in spans:
        tracer.wrap(owner, attr, name)
    # the shells ope_p1_bound sums over are the ones the estimator realizes
    tracer.wrap(est, "realized_shells", "truncation.realized_shells",
                tally=("trotter.ope_p1_bound.shells", len))
    for owner, attr, name in counts:
        tracer.wrap(owner, attr, name, count_only=True)
