from __future__ import annotations

import os

import pytest


def pytest_configure(config):
    """Hand the subprocess tests (``python -m quditprod``) the package that
    the ``pythonpath`` setting in pyproject.toml gives this process."""
    paths = [str(config.rootpath / "src"), os.environ.get("PYTHONPATH")]
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)


@pytest.fixture
def eliminations(monkeypatch):
    """Every ``gf._row_reduce`` call of the test, in order
    (``support.record_eliminations``)."""
    from support import record_eliminations

    return record_eliminations(monkeypatch)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One line per acceptance criterion at the end of the run."""
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if not RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(RESULTS):
        name, ok, detail = RESULTS[num]
        status = "PASS" if ok else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        terminalreporter.write_line(f"criterion {num:2d} [{name}]: {status}{suffix}")
