"""Shared benchmark infrastructure.

Every experiment builds one or more paper-style result tables and
registers them via the ``report`` fixture; the tables are printed in
the terminal summary (never swallowed by output capture), so running

    pytest benchmarks/ --benchmark-only

shows, for each experiment, both pytest-benchmark's timing panel and
the reproduced table/series the experiment is about.
"""

from __future__ import annotations

import os

import pytest

_REPORTS: list[str] = []

# Values that mean "off" for a REPRO_* environment gate.  Everything
# else — including the conventional "1" — means "on".
_FALSY = frozenset({"", "0", "false", "no"})


def env_flag(name: str) -> bool:
    """True when the environment variable ``name`` is set and truthy.

    ``""``, ``"0"``, ``"false"`` and ``"no"`` (case-insensitive) count
    as unset, so ``REPRO_E20_SMOKE=0 pytest ...`` disables a gate that
    a CI job exported earlier in the same shell.
    """
    value = os.environ.get(name)
    if value is None:
        return False
    return value.strip().lower() not in _FALSY


def smoke_env(tag: str) -> bool:
    """True when the ``REPRO_{tag}_SMOKE`` gate is on.

    One spelling for every experiment and simulation gate:
    ``smoke_env("E20")`` reads ``REPRO_E20_SMOKE``, ``smoke_env("SIM")``
    reads ``REPRO_SIM_SMOKE``, and so on.
    """
    return env_flag(f"REPRO_{tag}_SMOKE")


def record_env(tag: str) -> bool:
    """True when the ``REPRO_{tag}_RECORD`` gate is on.

    Recording gates append a dated entry to the experiment's
    ``BENCH_*.json`` trajectory; ``record_env("E25")`` reads
    ``REPRO_E25_RECORD``.
    """
    return env_flag(f"REPRO_{tag}_RECORD")


@pytest.fixture
def report():
    """Register a result table for the end-of-run summary."""

    def add(text: str) -> None:
        _REPORTS.append(text)

    return add


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORTS:
        return
    terminalreporter.write_sep("=", "experiment results")
    for text in _REPORTS:
        terminalreporter.write_line("")
        terminalreporter.write_line(text)
