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
def splits(monkeypatch):
    """Every split of a word pair, in call order, in two lists.

    ``all_pairs`` holds the index n of each split under all divisor pairs
    of n at once (``coproduct._leg_keys``: delta, delta_op, phi and
    ``expand_leg``). ``passes`` holds (n, term writes) for each pass of a
    word pair through a composed table of a double coproduct
    (``coproduct._triple_keys``), which writes one term into each of the
    table's blocks. A call of the one-pair ``coproduct.split_leg`` fails the
    test.
    """
    from types import SimpleNamespace

    from cuntzr import coproduct

    calls = SimpleNamespace(all_pairs=[], passes=[])
    leg_keys, triple_keys = coproduct._leg_keys, coproduct._triple_keys

    def all_pairs(n, key):
        calls.all_pairs.append(n)
        return leg_keys(n, key)

    def one_pass(table, key):
        keys = tuple(triple_keys(table, key))
        calls.passes.append((table.n, len(keys)))
        return keys

    def one_pair(*args, **kwargs):
        raise AssertionError("a one-pair split")

    monkeypatch.setattr(coproduct, "_leg_keys", all_pairs)
    monkeypatch.setattr(coproduct, "_triple_keys", one_pass)
    monkeypatch.setattr(coproduct, "split_leg", one_pair)
    return calls
