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
def leg_splits(monkeypatch):
    """The index n of every split of a word pair of O_n, in call order
    (``coproduct._leg_keys``, which splits under all divisor pairs of n at
    once); a call of the one-pair ``coproduct.split_leg`` fails the test."""
    from cuntzr import coproduct

    calls = []
    real = coproduct._leg_keys

    def count(n, key):
        calls.append(n)
        return real(n, key)

    def one_pair(*args, **kwargs):
        raise AssertionError("a one-pair split")

    monkeypatch.setattr(coproduct, "_leg_keys", count)
    monkeypatch.setattr(coproduct, "split_leg", one_pair)
    return calls
