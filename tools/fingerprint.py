"""Print one md5 per group of outputs, to show that a change moves none.

    python tools/fingerprint.py

It fingerprints the checkout it sits in (its ``src`` and ``bench``), so two
checkouts compare by running each one's copy.  The groups:

- ``library.oracle``, ``library.algebra``: the canonical JSON of every
  operation output of ``bench/library.Session`` at seed 0 (``bench`` is
  imported, never written);
- ``verify.pauli``, ``verify.encodings``, ``verify.seminorm``,
  ``verify.trotter``: the stdout of ``nuceft verify <suite>``, one group
  per suite of ``nuceft.VERIFY_SUITES``;
- ``jw.2x1x1``, ``jw.3x1x1``: ``pauli.dense_matrix`` of the Jordan-Wigner
  image of the pionless H at a_L = 2.2 fm (8 and 12 qubits).  Signed zeros
  are folded first, so matrices that ``np.array_equal`` calls equal share a
  digest;
- ``sector``: the dtype and bytes of ``fock.sector_matrix`` of the pionless
  H and of each of its layers at a_L = 2.2 fm, on 2x1x1 at eta 0 to 8 and
  on 2x2x1 at eta 0 to 4, signed zeros folded as above;
- ``estimate``: ``json.dumps(..., sort_keys=True)`` of every
  ``estimator.estimate`` report (``to_json_dict()``, or the message of its
  ``DomainError``) on ``ESTIMATE_GRID``: each ``costs.STEP_LAYERS`` pair at
  each order it prices, both tasks and both conventions, eta in
  ``ESTIMATE_ETAS``, at each model's spacings and pins.  It only builds
  ``TaskSpec``s and calls ``estimate``, so it runs on older checkouts too;
- ``shell_sums``: the ``repr`` of ``trotter._shell_sums(ell, a_L)`` at
  each a_L in ``SHELL_SPACINGS`` and ell in ``SHELL_CUTOFFS``, from the
  empty table to 14.2 million shell pairs.

Standard library and numpy only; outside the test suite.  The 12-qubit
matrix alone takes 256 MiB.  One BLAS thread is pinned before numpy loads,
as in ``tests/conftest.py``.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import library  # noqa: E402
from nuceft import (VERIFY_SUITES, cli, costs, encodings,  # noqa: E402
                    estimator, fock, models, pauli, trotter)
from nuceft.errors import DomainError  # noqa: E402

# model -> (the orders it prices, its spacings in fm, its pins)
ESTIMATE_GRID = {
    "pionless": ((1, 2), (1.4, 2.2), ({},)),
    "ope": ((1,), (1.0, 1.4, 2.2), [{"ell_units": k} for k in range(1, 41)]),
    "dynpi": ((1,), (1.0, 1.4, 2.2), [{"n_b": k} for k in range(1, 31)]),
}
ESTIMATE_ETAS = (1, 2, 3, 4, 7, 40, 400)
SHELL_SPACINGS = (0.5, 1.0, 1.4, 2.2, 3.0)
SHELL_CUTOFFS = (0, 1, 2, 5, 13, 17, 18, 25, 40, 60, 80)


def md5(data: bytes) -> str:
    return hashlib.md5(data).hexdigest()


def library_outputs(workload: str) -> str:
    session = library.Session(workload, 0, None)
    outputs = {op.kind: library.Session.canonical(op.run())
               for op in session.ops}
    return md5(json.dumps(outputs, sort_keys=True).encode())


def verify_stdout(suite: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", suite])
    if code != 0:
        raise SystemExit(f"nuceft verify {suite} exited {code}")
    return md5(out.getvalue().encode())


def jw_image(shape: tuple[int, int, int]) -> str:
    lattice = encodings.LatticeSpec(*shape, 2.2)
    h = models.build_pionless(lattice, models.pionless_params_for(2.2))
    p = encodings.encode_fermion_sum(encodings.QubitLayout("jw", lattice), h)
    mat = pauli.dense_matrix(p)
    mat += 0.0  # -0.0 + 0.0 is +0.0
    return md5(mat.tobytes())


def sector_matrices() -> str:
    digest = hashlib.md5()
    params = models.pionless_params_for(2.2)
    for shape, max_eta in (((2, 1, 1), 8), ((2, 2, 1), 4)):
        lattice = encodings.LatticeSpec(*shape, 2.2)
        sums = [models.build_pionless(lattice, params),
                *models.pionless_layers(lattice, params)]
        for eta in range(max_eta + 1):
            sector = fock.EtaSector(4 * lattice.n_sites, eta)
            for h in sums:
                mat = fock.sector_matrix(h, sector)
                mat += 0.0  # -0.0 + 0.0 is +0.0
                digest.update(mat.dtype.str.encode())
                digest.update(mat.tobytes())
    return digest.hexdigest()


def estimates() -> str:
    reports = []
    for model, encoding in costs.STEP_LAYERS:
        orders, spacings, pins = ESTIMATE_GRID[model]
        # the pins outside the tasks and etas, so that each shell table is
        # built once
        for a_L, pin, order, task, convention, eta in itertools.product(
                spacings, pins, orders, ("evolve", "qpe"),
                ("fault-tolerant", "near-term"), ESTIMATE_ETAS):
            spec = estimator.TaskSpec(task=task, model=model,
                                      encoding=encoding, order=order, a_L=a_L,
                                      eta=eta, convention=convention, **pin)
            try:
                reports.append([spec, estimator.estimate(spec).to_json_dict()])
            except DomainError as exc:
                reports.append([spec, str(exc)])
    return md5(json.dumps(reports, sort_keys=True).encode())


def shell_sums() -> str:
    sums = [repr(trotter._shell_sums(ell, a_L))
            for a_L, ell in itertools.product(SHELL_SPACINGS, SHELL_CUTOFFS)]
    return md5("\n".join(sums).encode())


def main() -> None:
    groups = [("library.oracle", lambda: library_outputs("oracle")),
              ("library.algebra", lambda: library_outputs("algebra")),
              *((f"verify.{suite}", lambda suite=suite: verify_stdout(suite))
                for suite in VERIFY_SUITES),
              ("jw.2x1x1", lambda: jw_image((2, 1, 1))),
              ("jw.3x1x1", lambda: jw_image((3, 1, 1))),
              ("sector", sector_matrices),
              ("estimate", estimates),
              ("shell_sums", shell_sums)]
    for name, digest in groups:
        start = time.perf_counter()
        value = digest()
        print(f"{name:16s} {value}  ({time.perf_counter() - start:.1f} s)")


if __name__ == "__main__":
    main()
