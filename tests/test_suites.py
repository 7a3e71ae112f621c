from __future__ import annotations

import inspect

import numpy as np
import pytest

from grassflow.reductions import Geometry
from grassflow.suites import SUITES, random_spin_field, run_suite
import conftest


def test_registry_names():
    assert sorted(SUITES) == [
        "conservation",
        "curvature",
        "curve",
        "gauge-compare",
        "gradients",
        "identities",
        "integrable-limit",
        "reductions",
    ]


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suites_take_no_arguments(name):
    # a suite is a fixed contract: nothing can shrink its scale or tolerances
    assert inspect.signature(SUITES[name]) == inspect.Signature()


def test_run_suite_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("bogus")


def test_check_rows_carry_verdicts():
    out = run_suite("integrable-limit")
    assert out["suite"] == "integrable-limit"
    assert out["pass"] is True
    for check in out["checks"]:
        assert set(check) == {"name", "residual", "tolerance", "pass"}
        assert check["residual"] <= check["tolerance"]


def test_failure_is_reported_not_raised(failing_suite):
    out = run_suite(failing_suite)
    assert out == {"suite": failing_suite, "checks": conftest.FAILING_CHECKS, "pass": False}


def test_random_spin_field_lands_on_quadrics():
    from grassflow.fields import Grid
    from grassflow.reductions import quadric_defect

    grid = Grid(64, 2.0 * np.pi)
    for g in Geometry:
        sf = random_spin_field(g, grid, seed=3)
        assert quadric_defect(g, sf.s) < 1e-12
        if g is Geometry.HYPERBOLIC:
            assert np.all(sf.s[:, 2] > 0)
