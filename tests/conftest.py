import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

_acceptance_lines = []


@pytest.fixture
def acceptance_log():
    """Collect one pass/fail line per acceptance criterion for the summary."""

    def record(line):
        _acceptance_lines.append(line)

    return record


def pytest_terminal_summary(terminalreporter):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture
def run_capped():
    """``run_capped(script, cap_mb)`` runs a Python script in a fresh
    interpreter whose address space is capped at ``cap_mb`` MiB
    (``RLIMIT_AS``, set before the script's own imports), with this
    checkout's ``src`` on ``PYTHONPATH`` and one BLAS thread, whatever the
    caller's BLAS variables say: each BLAS thread maps its own buffers, so
    the thread count moves where a cap bites. Returns the completed
    process."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

    def run(script, cap_mb):
        cap = cap_mb * 1024 * 1024
        limit = f"import resource\nresource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n"
        return subprocess.run([sys.executable, "-c", limit + textwrap.dedent(script)], env=env,
                              capture_output=True, text=True, timeout=120)

    return run


@pytest.fixture
def splits(monkeypatch):
    """Every pass of a word pair through a coproduct table, in call order.

    ``passes`` holds (n, form, leg keys per leg) for each word pair of O_n
    that is split through a table of its form (``coproduct._leg_keys``),
    which gives its leg keys on each of the table's blocks: all blocks of
    the form for a coproduct and for each side of a coassociativity check
    that falls back to the canonical residual, one block for ``phi``
    (``coproduct.split_block``). A coassociativity check whose letters all
    agree, and the product functional of two states, make no pass.
    """
    from types import SimpleNamespace

    from cuntzr import coproduct

    calls = SimpleNamespace(passes=[])
    leg_keys = coproduct._leg_keys

    def one_pass(table, key):
        keys = leg_keys(table, key)
        calls.passes.append((table.n, table.form, len(keys) // len(table.blocks[0])))
        return keys

    monkeypatch.setattr(coproduct, "_leg_keys", one_pass)
    return calls


@pytest.fixture
def altered_tables(monkeypatch):
    """Changed split tables for one test.

    ``digits(digit_table)`` replaces ``coproduct._digit_table``, from which
    every table is built, and ``replace(n, form, table)`` replaces the
    table of one form on O_n. The table cache is cleared on entry, on each
    change of the digit table and on exit, so every table is built again
    from the digit table then in place, also where the real one was
    already read. ``real_digits`` is the real ``_digit_table``.
    """
    from types import SimpleNamespace

    from cuntzr import coproduct

    table = coproduct._table
    replaced = {}

    def digits(digit_table):
        monkeypatch.setattr(coproduct, "_digit_table", digit_table)
        table.cache_clear()

    def replace(n, form, new):
        replaced[n, form] = new

    def changed(n, form):
        return replaced.get((n, form)) or table(n, form)

    monkeypatch.setattr(coproduct, "_table", changed)
    table.cache_clear()
    yield SimpleNamespace(digits=digits, replace=replace, real_digits=coproduct._digit_table)
    table.cache_clear()
