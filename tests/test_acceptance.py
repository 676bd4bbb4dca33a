"""Acceptance suite: one test (and one pass/fail line under pytest -v) per
criterion.  Tolerances are pinned in the assertions."""

import collections
import itertools
import math

from nuceft.costs import (COMPACT_KINETIC_DEPTH, CONTACT_DEPTH, KINETIC_DEPTH,
                          LONG_RANGE_PAIR_DEPTH, OPE_CONTACT_DEPTH,
                          OPE_EXCHANGE_DEPTH, pionless_step_cost)
from nuceft.estimator import TaskSpec, estimate, sweep
from nuceft.params import OpeParams, hopping_coefficient, pionless_params_for
from nuceft.trotter import general_npfo_bound, pionless_p1_bound
from nuceft.truncation import (boson_cutoffs, choose_ope_cutoff,
                               ope_cutoff_error, shell_count)
from nuceft.verify import verify_encodings, verify_seminorm, verify_trotter

BENCH = dict(model="pionless", encoding="vc", task="evolve", L=10, a_L=2.2,
             eta=40, E_kin=10.0, epsilon=0.1, order=1,
             convention="fault-tolerant")

T_CROSS = 0.7635238930596975


def _line(num, ok, detail):
    print(f"CRITERION {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_c01_golden_step_depth_table():
    want = {("vc", 1, False): 520, ("vc", 1, True): 630,
            ("vc", 2, False): 1014, ("vc", 2, True): 1230,
            ("compact", 1, False): 68, ("compact", 1, True): 106,
            ("compact", 2, False): 126, ("compact", 2, True): 190}
    ok = all(pionless_step_cost(e, p, c).depth_2q == d
             for (e, p, c), d in want.items())
    ok = ok and KINETIC_DEPTH[("x", False)] == 16 \
        and KINETIC_DEPTH[("y", False)] == 22 \
        and KINETIC_DEPTH[("z", False)] == 26 \
        and COMPACT_KINETIC_DEPTH[False] == 10 \
        and CONTACT_DEPTH == {False: 8, True: 22} \
        and OPE_CONTACT_DEPTH == {False: 6, True: 26} \
        and OPE_EXCHANGE_DEPTH == {False: 54, True: 98} \
        and LONG_RANGE_PAIR_DEPTH == {False: 14336, True: 16384}
    _line(1, ok, "per-step and component 2q depths match the golden table "
          "exactly")


def test_c02_hopping_coefficient_self_consistency():
    devs = {a: abs(hopping_coefficient(a) - pionless_params_for(a).h)
            / pionless_params_for(a).h for a in (1.4, 2.2)}
    ok = all(d < 5e-3 for d in devs.values())
    _line(2, ok, "recomputed h deviates %.3g%% (1.4 fm) / %.3g%% (2.2 fm); "
          "tolerance 0.5%%" % (100 * devs[1.4], 100 * devs[2.2]))


def test_c03_resource_cost_reproduction():
    notes = []
    ok = True

    vc = estimate(TaskSpec(**BENCH))
    ok &= 0.5 <= vc.depth_total / 6.2e8 <= 2.0
    ok &= 0.5 <= vc.T_total / 4.7e12 <= 2.0
    ok &= vc.qubits == 6000
    notes.append(f"pionless vc depth {vc.depth_total:.2e} T {vc.T_total:.2e}")

    compact = estimate(TaskSpec(**{**BENCH, "encoding": "compact"}))
    ok &= 0.5 <= compact.depth_total / 6.7e7 <= 2.0
    ok &= compact.qubits == 10000
    notes.append(f"compact depth {compact.depth_total:.2e}")

    ope = estimate(TaskSpec(**{**BENCH, "model": "ope"}))
    ok &= 0.1 <= ope.depth_total / 3.5e19 <= 10.0
    ok &= 0.1 <= ope.T_total / 5.9e23 <= 10.0
    ok &= ope.qubits == 6000
    notes.append(f"ope depth {ope.depth_total:.2e} T {ope.T_total:.2e}")

    # depth, qubits and the register width are near-term quantities; the
    # T count is fault-tolerant by construction
    dp = estimate(TaskSpec(**{**BENCH, "model": "dynpi",
                              "convention": "near-term"}))
    ok &= 99_000 <= dp.qubits <= 123_000
    ok &= 0.1 <= dp.depth_total / 6.0e36 <= 10.0
    ok &= 0.1 <= dp.T_total / 1.3e42 <= 10.0
    notes.append(f"dynpi n_b={dp.extras['n_b']} qubits {dp.qubits} "
                 f"depth {dp.depth_total:.2e} T {dp.T_total:.2e}")

    _line(3, bool(ok), "; ".join(notes))


def test_c04_general_vs_manual_bound():
    params = pionless_params_for(1.4)
    h, C, D = params.h, params.C_slash, params.D_slash
    general = (15 * general_npfo_bound(1, [2, 2], [h, h], 2)
               + 6 * (general_npfo_bound(1, [2, 4], [h, C / 2], 2)
                      + general_npfo_bound(1, [2, 6], [h, D / 6], 2)))
    manual = pionless_p1_bound(1.0, 2, params)
    ok = (0.5 <= general / 2.7e6 <= 2.0 and 0.5 <= manual / 1.1e4 <= 2.0
          and general / manual >= 50)
    _line(4, ok, "general %.3e (target 2.7e6), manual %.3e (target 1.1e4), "
          "ratio %.0f >= 50" % (general, manual, general / manual))


def test_c05_oracle_dominance():
    checks = verify_trotter()
    ok = all(passed for _, passed, _ in checks)
    _line(5, ok, "; ".join(d for _, _, d in checks))


def test_c06_encoding_correctness():
    checks = verify_encodings()
    ok = all(passed for _, passed, _ in checks)
    _line(6, ok, "; ".join(f"{n}: {d}" for n, p, d in checks))


def test_c07_seminorm_theorem():
    checks = verify_seminorm()
    ok = all(passed for _, passed, _ in checks)
    _line(7, ok, "; ".join(d for _, _, d in checks))


def test_c08_truncation_bounds():
    ok = True
    reach = 21
    brute = collections.Counter(
        i * i + j * j + k * k
        for i, j, k in itertools.product(range(-reach, reach + 1), repeat=3))
    for r_sq in range(0, 401):
        ok &= shell_count(r_sq) == brute[r_sq]

    tight = True
    for i in range(50):
        eps = 10.0 ** (2 - 0.12 * i)
        k = choose_ope_cutoff(eps, T_CROSS, 40, 2.2)
        tight &= T_CROSS * ope_cutoff_error(k * 2.2, 40, 2.2) <= eps
        if k > 1:
            tight &= T_CROSS * ope_cutoff_error((k - 1) * 2.2, 40, 2.2) > eps
    ok &= tight

    lecs = OpeParams.from_lecs(2.2)
    dig = boson_cutoffs(40, 400.0, (0.05 / 2) ** 2 / 2, lecs, 10)
    ok &= 31 <= dig.n_b <= 39
    _line(8, bool(ok), f"shell counts exact to r^2=400, cutoff tight on the "
          f"50-point grid, n_b={dig.n_b} in [31, 39]")


def test_c09_qualitative_orderings():
    grid = list(range(2, 41, 2))
    base = TaskSpec(**BENCH)
    pion1 = sweep(base, "eta", grid)
    pion2 = sweep(TaskSpec(**{**BENCH, "order": 2}), "eta", grid)
    comp = sweep(TaskSpec(**{**BENCH, "encoding": "compact"}), "eta", grid)
    ope = sweep(TaskSpec(**{**BENCH, "model": "ope"}), "eta", grid)
    dynpi = sweep(TaskSpec(**{**BENCH, "model": "dynpi",
                              "convention": "near-term"}), "eta", grid)
    bad = 0
    for a, b, c, d, e in zip(pion1, pion2, comp, ope, dynpi):
        if not (e["depth"] > d["depth"] > a["depth"]):
            bad += 1
        if not (float(e["T"]) > float(d["T"]) > float(a["T"])):
            bad += 1
        if not b["depth"] < a["depth"]:
            bad += 1
        if not c["depth"] < a["depth"]:
            bad += 1
    _line(9, bad == 0, f"dynpi > ope > pionless, p2 < p1, compact < vc at "
          f"all {len(grid)} sweep points ({bad} violations)")


def test_c10_cli_determinism(tmp_path):
    from nuceft.cli import main
    args = ["--model", "pionless", "--encoding", "vc", "--task", "evolve",
            "--L", "10", "--aL-fm", "2.2", "--eta", "40", "--Ekin-MeV", "10",
            "--eps", "0.1", "--order", "1", "--convention", "fault-tolerant"]
    ja, jb = tmp_path / "a.json", tmp_path / "b.json"
    ca, cb = tmp_path / "a.csv", tmp_path / "b.csv"
    ok = main(["estimate", *args, "--output", str(ja)]) == 0
    ok &= main(["estimate", *args, "--output", str(jb)]) == 0
    sweep_args = ["sweep", *args, "--axis", "eta", "--from", "2",
                  "--to", "20", "--step", "2"]
    ok &= main([*sweep_args, "--output", str(ca)]) == 0
    ok &= main([*sweep_args, "--output", str(cb)]) == 0
    ok &= ja.read_bytes() == jb.read_bytes()
    ok &= ca.read_bytes() == cb.read_bytes()
    _line(10, bool(ok), "repeated estimate and sweep runs are byte-identical")
