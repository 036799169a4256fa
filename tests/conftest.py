"""Shared pytest wiring.

The acceptance tests record one line per criterion; printing them from a
pytest_terminal_summary hook keeps the lines visible under default output
capture, whether or not the underlying assert passed. The benchmark's
runner is shared too, for the tests that replay its recorded hashes.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

_CRITERION_LINES = []


def record_criterion(number, passed, detail):
    tag = "PASS" if passed else "FAIL"
    _CRITERION_LINES.append(f"[{tag}] criterion {number}: {detail}")


@pytest.fixture(scope="session")
def criterion_log():
    return record_criterion


@pytest.fixture(scope="session")
def perfbench_run():
    """perfbench/run.py imported by path (it puts its directory on sys.path
    to import workloads.py; the path is restored afterwards)."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    saved = list(sys.path)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


def pytest_terminal_summary(terminalreporter):
    if not _CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(_CRITERION_LINES):
        terminalreporter.write_line(line)
