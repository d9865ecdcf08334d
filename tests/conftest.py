import argparse
import random

import pytest

from pseudoquant.symcore import ChartSpec, standard_chart
from pseudoquant.verify import random_poly  # re-exported for the test modules


@pytest.fixture
def pq1():
    return standard_chart(1)


@pytest.fixture
def pq2():
    return standard_chart(2)


@pytest.fixture
def ab1():
    return ChartSpec((("a1", "b1"),))


@pytest.fixture
def rng():
    return random.Random(987654321)


# One verdict line per acceptance criterion, echoed after the test summary so
# they stay visible under pytest's output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def subcommands(parser, words=()):
    """(words, parser) for each leaf subcommand under ``parser``, such as (("bks", "pair"), p)."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from subcommands(sub, (*words, name))
            return
    yield words, parser


def declared_options(parser) -> list[argparse.Action]:
    """The option actions ``parser`` declares, its help flag aside."""
    return [a for a in parser._actions if a.option_strings and a.dest != "help"]
