"""The pin ledger under ``tests/pins/`` matches the tests that read it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ledger

ROOT = Path(__file__).resolve().parents[1]


def test_every_pin_has_a_reader_and_every_reader_a_pin():
    # a fresh process collects with -p ledger, which deselects every test that reads no pin
    path = os.pathsep.join(filter(None, [str(ROOT / "tests"), str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "ledger",
                          "-p", "no:cacheprovider", str(ROOT / "tests")],
                         cwd=ROOT, env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
    assert run.returncode == 0, run.stdout + run.stderr
    assert ledger.problems(ledger.load(), {line for line in run.stdout.splitlines() if "::" in line}) == []


def test_ledger_names_stale_keys_and_missing_test_ids(request):
    entries = {"tests/a.py::read": {}, "tests/a.py::stale": {}}
    assert ledger.problems(entries, {"tests/a.py::read", "tests/a.py::new"}) == [
        "pin ledger key that no test reads: tests/a.py::stale",
        "test that the pin ledger lacks: tests/a.py::new",
    ]
    with pytest.raises(pytest.fail.Exception, match="no entry for tests/a.py::new"):
        ledger.compare(request.config, "tests/a.py::new", [])
