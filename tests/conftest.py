from __future__ import annotations

import numpy as np
import pytest

from grassflow.algebra import AlgebraSpec, Family
from grassflow.fields import Grid
from grassflow.suites import SUITES

TWO_PI = 2.0 * np.pi


@pytest.fixture
def u2() -> AlgebraSpec:
    return AlgebraSpec(Family.COMPACT_UNITARY, 2, 1)


@pytest.fixture
def u31() -> AlgebraSpec:
    return AlgebraSpec(Family.NONCOMPACT_UNITARY, 3, 1)


@pytest.fixture
def para2() -> AlgebraSpec:
    return AlgebraSpec(Family.PARA_REAL, 2, 1)


@pytest.fixture
def grid64() -> Grid:
    return Grid(64, TWO_PI)


@pytest.fixture
def grid128() -> Grid:
    return Grid(128, TWO_PI)


FAILING_CHECKS = [
    {"name": "holds", "residual": 0.5, "tolerance": 1.0, "pass": True},
    {"name": "misses", "residual": 2.0, "tolerance": 1.0, "pass": False},
]


@pytest.fixture
def failing_suite(monkeypatch) -> str:
    """Name of a suite, registered for the test, whose second check fails."""
    monkeypatch.setitem(SUITES, "failing", lambda: FAILING_CHECKS)
    return "failing"


def all_specs() -> list[AlgebraSpec]:
    return [
        AlgebraSpec(Family.COMPACT_UNITARY, 2, 1),
        AlgebraSpec(Family.NONCOMPACT_UNITARY, 3, 1),
        AlgebraSpec(Family.PARA_REAL, 2, 1),
    ]


ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
