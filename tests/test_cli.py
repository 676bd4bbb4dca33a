import dataclasses
import json
import math
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

import nuceft
from nuceft import encodings, pauli, verify
from nuceft.cli import MAX_SWEEP_POINTS, main
from nuceft.fock import ANNIHILATE, FermionSum

BENCH_ARGS = ["--model", "pionless", "--encoding", "vc", "--task", "evolve",
              "--L", "10", "--aL-fm", "2.2", "--eta", "40",
              "--Ekin-MeV", "10", "--eps", "0.1", "--order", "1",
              "--convention", "fault-tolerant"]


def test_estimate_benchmark(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["estimate", *BENCH_ARGS, "--output", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema-version"] == 1
    assert report["depth_total"] == 604039280
    assert report["qubits"] == 6000
    assert abs(report["depth_total"] / 6.2e8 - 1) < 1.0  # within factor 2


def test_estimate_stdout(capsys):
    assert main(["estimate", *BENCH_ARGS]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["r"] == 1161614


def test_missing_eta_is_usage_error(capsys):
    args = [a for a in BENCH_ARGS]
    i = args.index("--eta")
    del args[i:i + 2]
    code = main(["estimate", *args])
    assert code == 1
    assert "eta" in capsys.readouterr().err


def test_domain_error_exit_code(capsys):
    code = main(["estimate", "--model", "dynpi", "--aL-fm", "0.3",
                 "--eta", "2", "--eps", "0.1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "domain error" in err


@pytest.mark.parametrize("model, a_L", [
    ("ope", "1e-300"), ("ope", "1e300"), ("ope", "1e100"),
    ("dynpi", "1e300"), ("dynpi", "1e-300"), ("dynpi", "1e100"),
])
def test_an_a_l_that_overflows_the_couplings_is_refused(model, a_L, capsys):
    assert main(["estimate", "--model", model, "--eta", "40",
                 "--aL-fm", a_L]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"domain error: model {model!r} cannot be priced "
                          f"at a_L={float(a_L):g} fm")


def test_a_sweep_notes_an_a_l_that_overflows_the_couplings(tmp_path):
    import csv
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--model", "ope", "--eta", "40", "--aL-fm", "1e300",
                 "--axis", "eta", "--from", "2", "--to", "6", "--step", "2",
                 "--output", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["value"] for row in rows] == ["2", "4", "6"]
    for row in rows:
        assert row["r"] == ""
        assert row["notes"].startswith(
            "DomainError: model 'ope' cannot be priced at a_L=1e+300 fm: "
            "OverflowError")


def test_unknown_flag_exit_code(capsys):
    assert main(["estimate", "--eta", "4", "--frobnicate", "1"]) == 1


def test_usage_errors_exit_1(capsys):
    cases = [["estimate", "--et", "40"],            # no abbreviated flags
             [],                                   # no subcommand
             ["frobnicate"],
             ["verify"],                           # no suite
             ["estimate", "--eta", "4.0"],
             ["estimate", "--eta", "40", "--model", "nucleon"],
             ["sweep", "--eta", "40"],             # no axis or range
             ["estimate", "--eta", "40", "extra"]]
    for args in cases:
        assert main(args) == 1, args
        err = capsys.readouterr().err
        assert err.startswith("error:"), (args, err)


def test_flag_spellings(capsys):
    assert main(["estimate", "--eta=40"]) == 0
    assert json.loads(capsys.readouterr().out)["r"] == 1161614
    # a negative value in any float spelling is a value, not a flag
    for value in ("-1e-3", "-0.1", "-inf"):
        assert main(["estimate", "--eta", "40", "--eps", value]) == 2, value
        assert capsys.readouterr().err.startswith("domain error:"), value
    for args in (["--help"], ["estimate", "--help"], ["sweep", "--help"]):
        assert main(args) == 0, args
        assert "usage:" in capsys.readouterr().out.lower()


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "model": "pionless", "encoding": "vc", "task": "evolve", "L": 10,
        "aL_fm": 2.2, "eta": 40, "Ekin_MeV": 10.0, "eps": 0.1, "order": 1,
        "convention": "fault-tolerant"}))
    assert main(["estimate", "--config", str(cfg)]) == 0
    base = json.loads(capsys.readouterr().out)
    assert base["qubits"] == 6000
    # flags win over the config file
    assert main(["estimate", "--config", str(cfg),
                 "--encoding", "compact"]) == 0
    over = json.loads(capsys.readouterr().out)
    assert over["qubits"] == 10000


def test_config_value_is_refused_as_its_flag_would_be(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cases = [({"eta": 2.7}, "--eta"), ({"eta": True}, "--eta"),
             ({"eta": 40, "L": 10.9}, "--L"),
             ({"eta": 40, "ell": None}, "--ell"),
             ({"eta": 40, "model": "nucleon"}, "--model"),
             ({"eta": 40, "convention": "later"}, "--convention")]
    for values, flag in cases:
        cfg.write_text(json.dumps(values))
        for command in (["estimate"], ["sweep", "--axis", "eta",
                                       "--from", "2", "--to", "4"]):
            assert main([*command, "--config", str(cfg)]) == 1, values
            err = capsys.readouterr().err
            assert err.startswith("config error:"), (values, err)
            assert f"argument {flag}:" in err, (values, err)
    # a string the flag would take is taken
    cfg.write_text(json.dumps({"eta": "40"}))
    assert main(["estimate", "--config", str(cfg)]) == 0
    from_config = capsys.readouterr().out
    assert main(["estimate", "--eta", "40"]) == 0
    assert capsys.readouterr().out == from_config


@pytest.mark.parametrize("content, message", [
    (None, "cannot read config"),
    ("[1, 2]", "must be a JSON object"),
])
def test_config_that_is_not_a_readable_object_is_refused(content, message,
                                                         tmp_path, capsys):
    cfg = tmp_path / "run.json"
    if content is not None:
        cfg.write_text(content)
    assert main(["estimate", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err, err


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"eta": 40, "flux_capacitor": 1.21}))
    assert main(["estimate", "--config", str(cfg)]) == 1
    assert "flux_capacitor" in capsys.readouterr().err


def test_config_invalid_json(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert main(["estimate", "--config", str(cfg)]) == 1
    assert "line" in capsys.readouterr().err


def test_unwritable_output_is_config_error(tmp_path, capsys):
    missing = str(tmp_path / "no" / "such" / "dir" / "out")
    for args in (["estimate", "--eta", "40"],
                 ["sweep", "--eta", "40", "--axis", "eta", "--from", "2",
                  "--to", "4", "--step", "2"]):
        assert main([*args, "--output", missing]) == 1, args
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write"), args


def test_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", *BENCH_ARGS, "--axis", "eta",
                 "--from", "2", "--to", "40", "--step", "2",
                 "--output", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "axis,value,r,depth,rz,T,qubits,ell_or_nb,notes"
    assert len(lines) == 21  # header + 20 grid points


def test_sweep_roundtrips_numeric_fields(tmp_path):
    import csv
    out = tmp_path / "sweep.csv"
    assert main(["sweep", *BENCH_ARGS, "--axis", "epsilon",
                 "--from", "0.05", "--to", "0.1", "--step", "0.05",
                 "--output", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        assert float(row["T"]) > 0
        assert int(row["r"]) >= 1


def test_sweep_byte_identical_reruns(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["sweep", *BENCH_ARGS, "--axis", "eta",
            "--from", "2", "--to", "20", "--step", "2"]
    assert main([*args, "--output", str(a)]) == 0
    assert main([*args, "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_estimate_byte_identical_reruns(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["estimate", *BENCH_ARGS, "--output", str(a)]) == 0
    assert main(["estimate", *BENCH_ARGS, "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_empty_grid(capsys):
    code = main(["sweep", *BENCH_ARGS, "--axis", "eta",
                 "--from", "10", "--to", "2", "--step", "2"])
    assert code == 1
    assert "empty sweep grid" in capsys.readouterr().err


@pytest.mark.parametrize("bounds", [
    ["--from", "-inf", "--to", "10"],
    ["--from", "nan", "--to", "10"],
    ["--from", "1", "--to", "10", "--step", "inf"],
    ["--from", "1", "--to", "10", "--step", "nan"],
])
def test_sweep_refuses_non_finite_bounds(bounds, capsys):
    assert main(["sweep", *BENCH_ARGS, "--axis", "eta", *bounds]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "must be finite" in err


@pytest.mark.parametrize("step", ["0", "-1"])
def test_sweep_refuses_a_step_that_is_not_positive(step, capsys):
    assert main(["sweep", *BENCH_ARGS, "--axis", "eta", "--from", "2",
                 "--to", "10", "--step", step]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: --step must be positive"), err


def _run_child(args: list[str], **kwargs) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports this nuceft."""
    src = os.path.dirname(os.path.dirname(nuceft.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, **kwargs)


def test_sweep_refuses_an_infinite_upper_bound():
    # in a child process with a timeout: an unchecked --to inf never returns
    proc = _run_child(["-m", "nuceft.cli", "sweep", "--eta", "40",
                       "--axis", "eta", "--from", "1", "--to", "inf",
                       "--step", "1"], timeout=60)
    assert proc.returncode == 1
    assert proc.stderr == "config error: --to must be finite, got inf\n"


def test_sweep_refuses_a_grid_over_the_point_cap():
    # in a child process with a timeout: building this grid never returns
    proc = _run_child(["-m", "nuceft.cli", "sweep", "--eta", "40",
                       "--axis", "eta", "--from", "1", "--to", "1e300",
                       "--step", "1"], timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("config error: sweep grid of 1e+300 points")
    assert str(MAX_SWEEP_POINTS) in proc.stderr


def test_sweep_point_cap_is_inclusive(monkeypatch, capsys):
    monkeypatch.setattr(nuceft.cli, "MAX_SWEEP_POINTS", 3)
    args = ["sweep", "--eta", "40", "--axis", "eta", "--from", "1",
            "--step", "1", "--to"]
    assert main([*args, "3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 3
    assert main([*args, "4"]) == 1
    assert "at most 3 points" in capsys.readouterr().err


def test_verify_suites(capsys):
    assert main(["verify", "pauli"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert main(["verify", "nonsense"]) == 1
    # the library refuses what the CLI's choices keep out
    from nuceft.errors import DomainError
    with pytest.raises(DomainError, match="^unknown verify suite 'nope' "):
        verify.run_suite("nope")


WEIGHTS = "{'x': 7, 'y': 10, 'z': 12, 'compact': 4}"
VERIFY_ALL_CHECKS = (   # (name, detail) of each check, in order
    ("pauli multiply matches dense product", "100/100 ok"),
    ("pauli commutes_with matches dense commutator", "100/100 ok"),
    ("sum commutator matches dense commutator", "10/10 ok"),
    ("jw ladders satisfy the anticommutation relations", "16x16 mode pairs"),
    ("vc ladders satisfy the anticommutation relations", "16x16 mode pairs"),
    ("vc stabilizers commute with every encoded term",
     "5 stabilizers x 32 terms"),
    ("hopping weights equal costs.HOPPING_WEIGHT",
     f"observed {WEIGHTS}, priced {WEIGHTS}"),
    ("disjoint NPFO sums respect the occupancy seminorm bound", "200/200 ok"),
    ("NPFO commutators respect the term-count and locality bounds",
     "200/200 ok"),
    ("exact Trotter error never exceeds the analytic bound",
     "58/58 grid points ok"),
)


def test_a_failing_check_fails_verify(monkeypatch, capsys):
    monkeypatch.setitem(verify.SUITES, "pauli",
                        lambda: [("planted", False, "0/1 ok")])
    assert main(["verify", "pauli"]) == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["FAIL planted (0/1 ok)",
                                         "0/1 checks passed"]
    assert captured.err == \
        "domain error: 1 verification check(s) failed\n"


def test_verify_all_runs_the_named_checks_in_order(capsys):
    """A check leaves ``verify all``, is renamed or changes its number of
    cases only with this list."""
    assert main(["verify", "all"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        *(f"ok   {name} ({detail})" for name, detail in VERIFY_ALL_CHECKS),
        "10/10 checks passed"]


def _times_i(a, b):
    product = pauli.multiply(a, b)
    return dataclasses.replace(product, phase=product.phase + 1)


class _AntiCommuting(pauli.PauliString):
    def commutes_with(self, other):
        return not super().commutes_with(other)


def _always_annihilating(layout, site, species, kind):
    return encodings.encode_ladder(layout, site, species, ANNIHILATE)


def _with_x_on_qubit_0(layout):
    return [dataclasses.replace(s, x_mask=s.x_mask ^ 1)
            for s in encodings.vc_stabilizers(layout)]


def _wide_commutator(a, b):
    term = SimpleNamespace(weight=1.0, locality=100)
    return SimpleNamespace(terms=[term] * 100)


LADDERS = "ladders satisfy the anticommutation relations"


# (suite, the name in nuceft.verify replaced, its stub, the failed checks)
PLANTED_DEFECTS = [
    ("pauli", "multiply", _times_i,
     {"pauli multiply matches dense product": "0/100 ok"}),
    ("pauli", "PauliString", _AntiCommuting,
     {"pauli commutes_with matches dense commutator": "0/100 ok"}),
    ("pauli", "commutator_sum", pauli.anticommutator_sum,
     {"sum commutator matches dense commutator": "0/10 ok"}),
    ("seminorm", "eta_seminorm", lambda x, eta: math.nan,
     {"disjoint NPFO sums respect the occupancy seminorm bound":
      "0/200 ok"}),
    # each trial breaks both bounds and still counts once
    ("seminorm", "fermion_commutator", _wide_commutator,
     {"NPFO commutators respect the term-count and locality bounds":
      "0/200 ok"}),
    ("trotter", "exact_evolution_error", lambda *args: math.nan,
     {"exact Trotter error never exceeds the analytic bound":
      "0/58 grid points ok"}),
    ("encodings", "encode_ladder", _always_annihilating,
     {f"jw {LADDERS}": "16x16 mode pairs",
      f"vc {LADDERS}": "16x16 mode pairs"}),
    ("encodings", "vc_stabilizers", _with_x_on_qubit_0,
     {"vc stabilizers commute with every encoded term":
      "5 stabilizers x 32 terms"}),
]


@pytest.mark.parametrize("suite, name, stub, failed", PLANTED_DEFECTS,
                         ids=[name for _, name, _, _ in PLANTED_DEFECTS])
def test_a_planted_defect_fails_its_check_with_the_right_count(
        monkeypatch, suite, name, stub, failed):
    """Every case of a counted check that is not within its bound fails
    once, a NaN included; the uncounted checks fail as a whole."""
    monkeypatch.setattr(verify, name, stub)
    got = {check: (passed, detail)
           for check, passed, detail in verify.run_suite(suite)
           if check in failed}
    assert got == {check: (False, detail) for check, detail in failed.items()}
    assert all(passed is False for passed, _ in got.values())


def test_a_commutator_that_is_always_zero_fails_at_once(monkeypatch):
    """A defect that zeroes every commutator leaves no live trial: the
    draws stop at their cap and every trial fails, where an uncapped loop
    would draw forever (the stub stops one past the cap)."""
    calls = []

    def zero(a, b):
        calls.append(None)
        assert len(calls) <= verify.COMMUTATOR_DRAWS, "the draws are not capped"
        return FermionSum(max(a.n_modes, b.n_modes))

    monkeypatch.setattr(verify, "fermion_commutator", zero)
    assert verify.run_suite("seminorm")[1] == (
        "NPFO commutators respect the term-count and locality bounds",
        False, "0/200 ok")
    assert 0 < len(calls) <= verify.COMMUTATOR_DRAWS


def test_verify_accepts_exactly_the_suites(capsys):
    import re

    assert main(["verify", "--help"]) == 0
    usage = capsys.readouterr().out.splitlines()[0]
    accepted = re.search(r"\{(.*)\}", usage).group(1).split(",")
    assert accepted == [*verify.SUITES, "all"]
    assert main(["verify", "all-suites"]) == 1
    assert "invalid choice" in capsys.readouterr().err


def test_verify_trotter(capsys):
    assert main(["verify", "trotter"]) == 0
    assert "ok" in capsys.readouterr().out


def test_unpriced_model_encoding_pair_is_refused(capsys):
    code = main(["estimate", "--model", "dynpi", "--encoding", "compact",
                 "--eta", "40"])
    assert code == 2
    assert "domain error:" in capsys.readouterr().err


def test_zero_register_width_is_domain_error(capsys):
    code = main(["estimate", "--model", "dynpi", "--eta", "40", "--nb", "0"])
    assert code == 2
    assert "domain error:" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--model", "pionless", "--nb", "0"], "n_b must be >= 1"),
    (["--model", "pionless", "--ell", "-5"], "ell_units must be >= 1"),
    (["--model", "dynpi", "--ell", "4"],
     "model 'dynpi' does not read ell_units"),
    (["--model", "ope", "--nb", "7"], "model 'ope' does not read n_b"),
])
def test_pins_below_one_or_unread_by_the_model_are_refused(flags, message,
                                                           capsys):
    assert main(["estimate", "--eta", "40", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("domain error:")
    assert message in captured.err


def test_register_width_beyond_the_float_range_is_refused(tmp_path, capsys):
    import csv
    code = main(["estimate", "--model", "dynpi", "--eta", "40", "--nb", "1024"])
    assert code == 2
    assert "register width n_b=1024" in capsys.readouterr().err
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--model", "dynpi", "--task", "qpe", "--eta", "40",
                 "--axis", "n_b", "--from", "1022", "--to", "1026",
                 "--output", str(out)]) == 0
    with open(out, newline="") as fh:
        notes = [row["notes"] for row in csv.DictReader(fh)]
    assert len(notes) == 5 and all(notes)
    assert notes[2].startswith("DomainError: register width n_b=1024")


def test_a_boson_cutoff_budget_of_one_or_more_is_refused(tmp_path, capsys):
    import csv
    # --eps 100 leaves eps_cut = (100/6)^2/2 = 138.9: no overlap is promised
    assert main(["estimate", "--model", "dynpi", "--eta", "40",
                 "--eps", "100"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("domain error: eps_cut=138.889 must be "
                                   "below 1")
    # eps_cut = 0.5 at --eps 6 is still priced
    assert main(["estimate", "--model", "dynpi", "--eta", "40",
                 "--eps", "6"]) == 0
    assert json.loads(capsys.readouterr().out)["ledger"]["eps_cut"] == 0.5
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--model", "dynpi", "--eta", "40",
                 "--axis", "epsilon", "--from", "1", "--to", "9",
                 "--step", "4", "--output", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["value"] for row in rows] == ["1.0", "5.0", "9.0"]
    assert [row["notes"] for row in rows[:2]] == ["", ""]
    assert rows[2]["notes"].startswith("DomainError: eps_cut=1.125 must be "
                                       "below 1")


def test_a_budget_beyond_the_t_count_fit_is_refused(tmp_path, capsys):
    import csv
    for flags in (["--eta", "40", "--eps", "1e12"],
                  ["--eta", "2", "--L", "1", "--eps", "1e6"]):
        assert main(["estimate", "--model", "pionless", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("domain error: synthesis budget")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--model", "pionless", "--eta", "2", "--L", "1",
                 "--axis", "epsilon", "--from", "1000", "--to", "1e6",
                 "--step", "999000", "--output", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [bool(row["notes"]) for row in rows] == [False, True]
    assert float(rows[0]["T"]) > 0
    assert rows[1]["notes"].startswith("DomainError: synthesis budget 500000")


@pytest.mark.parametrize("axis, grid", [
    ("eta", ["--from", "1", "--to", "3", "--step", "0.5"]),
    ("L", ["--from", "2.5", "--to", "3.5"]),
    ("ell", ["--from", "10", "--to", "11", "--step", "0.25"]),
    ("n_b", ["--from", "4.5", "--to", "5"]),
])
def test_sweep_refuses_a_fractional_value_on_an_integer_axis(axis, grid,
                                                              capsys):
    assert main(["sweep", "--eta", "40", "--axis", axis, *grid]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: sweep axis {axis} takes "
                                   "integers")


def test_sweep_grid_has_no_accumulated_drift(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", *BENCH_ARGS, "--axis", "epsilon",
                 "--from", "0.1", "--to", "0.3", "--step", "0.1",
                 "--output", str(out)]) == 0
    values = [line.split(",")[1] for line in out.read_text().splitlines()[1:]]
    assert values == ["0.1", "0.2", "0.3"]


def test_sweep_survives_a_refused_point(tmp_path):
    import csv
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--eta", "40", "--axis", "epsilon",
                 "--from", "0", "--to", "0.2", "--step", "0.1",
                 "--output", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert rows[0]["notes"] == \
        "DomainError: error budget must be positive, got 0.0"
    assert [row["notes"] for row in rows[1:]] == ["", ""]


def test_non_finite_and_out_of_range_inputs_are_domain_errors(capsys):
    cases = [(["--eps", "nan"], "epsilon"),
             (["--Ekin-MeV", "nan"], "E_kin"),
             (["--eps", "inf"], "epsilon"),
             (["--task", "qpe", "--Emax-MeV", "inf"], "E_max"),
             (["--L", "2", "--eta", "1000000"], "eta"),
             (["--order", "3"], "order"),
             (["--model", "ope", "--order", "2"], "order"),
             (["--eps", "1e-200"], "T count"),
             (["--task", "qpe", "--Ekin-MeV", "-1"],
              "kinetic energy E_kin must be positive, got -1.0"),
             (["--Ekin-MeV", "0"],
              "kinetic energy E_kin must be positive, got 0.0"),
             (["--Emax-MeV", "-5"],
              "spectral range E_max must be positive, got -5.0"),
             (["--Emax-MeV", "0"],
              "spectral range E_max must be positive, got 0.0"),
             (["--task", "qpe", "--Emax-MeV", "0"],
              "spectral range E_max must be positive, got 0.0"),
             (["--task", "qpe", "--deltaE-MeV", "0"],
              "energy resolution must be positive, got 0.0"),
             (["--task", "qpe", "--Emax-MeV", "1e300", "--deltaE-MeV",
               "1e-300"], "the error share per application underflows to 0")]
    for flags, field_name in cases:
        args = ["estimate", "--eta", "40", *flags]
        assert main(args) == 2, args
        err = capsys.readouterr().err
        assert err.startswith("domain error:"), args
        assert field_name in err, args


def test_estimate_does_not_import_the_oracle():
    code = """if True:
        import contextlib, io, sys
        import nuceft.cli
        for model in ("pionless", "ope", "dynpi"):
            with contextlib.redirect_stdout(io.StringIO()):
                assert nuceft.cli.main(
                    ["estimate", "--model", model, "--eta", "40"]) == 0
        # the benchmark's ope estimates and eta sweep price tables below
        # the numpy switch of the shell-pair sum
        for argv in (["--task", "qpe"], ["--ell", "13"]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert nuceft.cli.main(["estimate", "--model", "ope",
                                        "--eta", "40", *argv]) == 0
        with contextlib.redirect_stdout(io.StringIO()):
            assert nuceft.cli.main(["sweep", "--eta", "40", "--axis", "eta",
                                    "--from", "2", "--to", "4"]) == 0
            assert nuceft.cli.main(["sweep", "--model", "ope", "--eta", "40",
                                    "--axis", "eta", "--from", "2",
                                    "--to", "400", "--step", "2"]) == 0
        # neither the oracle nor what the estimate path does without
        oracle = ("numpy", "nuceft.fock", "nuceft.pauli", "nuceft.encodings",
                  "nuceft.models", "nuceft.verify", "click", "dataclasses")
        loaded = [name for name in oracle if name in sys.modules]
        assert not loaded, loaded
        from nuceft import FermionSum, PauliSum
        assert FermionSum.__module__ == "nuceft.fock"
        assert PauliSum.__module__ == "nuceft.pauli"
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert nuceft.cli.main(["verify", "pauli"]) == 0
        assert "FAIL" not in out.getvalue()
    """
    proc = _run_child(["-c", code])
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("a_L, ell, loads_numpy",
                         [(2.2, 18, False), (2.2, 40, False), (1.0, 40, True)])
def test_ope_estimate_loads_numpy_above_the_pair_switch(a_L, ell,
                                                        loads_numpy):
    # the shell pairs left after the cut are added in numpy above 32,768:
    # at 2.2 fm no cutoff keeps that many, at 1.0 fm ell = 40 keeps 367,022
    code = f"""if True:
        import contextlib, io, sys
        import nuceft.cli
        with contextlib.redirect_stdout(io.StringIO()):
            assert nuceft.cli.main(["estimate", "--model", "ope",
                                    "--eta", "40", "--aL-fm", "{a_L}",
                                    "--ell", "{ell}"]) == 0
        print("numpy" in sys.modules)
    """
    proc = _run_child(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{loads_numpy}\n"
