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
