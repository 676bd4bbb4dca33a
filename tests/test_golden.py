"""Byte-level regression gate for the default ``estimate`` report and
``sweep`` table.

Every configuration the benchmark prices (``ESTIMATE_CONFIGS`` in
``bench/common.py``) has its recorded JSON report under ``tests/golden/``,
and every sweep it runs (``SWEEPS``) its recorded CSV as
``sweep.<name>.csv``; the CLI must print exactly those bytes.
"""

import importlib.util
from pathlib import Path

import pytest

from nuceft.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"


def _bench_common():
    spec = importlib.util.spec_from_file_location(
        "bench_common", ROOT / "bench" / "common.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_COMMON = _bench_common()
CONFIGS = _COMMON.ESTIMATE_CONFIGS
SWEEPS = _COMMON.SWEEPS


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_estimate_matches_golden(name, monkeypatch, capsys):
    # config paths in the catalogue are relative to the repository root
    monkeypatch.chdir(ROOT)
    assert main(["estimate", *CONFIGS[name]]) == 0
    want = (GOLDEN / f"{name}.json").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == want


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_matches_golden(name, capsys):
    assert main(["sweep", *SWEEPS[name]]) == 0
    want = (GOLDEN / f"sweep.{name}.csv").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == want
