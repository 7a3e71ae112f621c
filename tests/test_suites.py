from __future__ import annotations

import importlib
import inspect
import json
import multiprocessing
import os
import pickle
import pkgutil
import signal
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import grassflow
from grassflow.cli import ConfigError
from grassflow.flows import FlowBlowupError, NewtonError, StabilityError
from grassflow.gauge import GaugeError
from grassflow.reductions import Geometry
from grassflow.suites import SUITES, _map, random_spin_field, run_suite
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


def _blow_up(index):
    raise FlowBlowupError(None, index, 0.5, "off its cone")


class _OneWayError(Exception):
    # its arguments are not in args, so it pickles but cannot be unpickled
    def __init__(self, a, b):
        super().__init__()


def _one_way(index):
    if index == 1:
        raise _OneWayError(index, 2)
    return index


def _hung(signum, frame):
    raise TimeoutError("the worker's error never reached the parent")


def test_map_keeps_the_order_of_its_items():
    assert _map(str, range(25)) == [str(i) for i in range(25)]
    assert multiprocessing.active_children() == []


def test_map_raises_a_workers_typed_error():
    previous = signal.signal(signal.SIGALRM, _hung)
    signal.alarm(60)
    try:
        with pytest.raises(FlowBlowupError) as err:
            _map(_blow_up, [3, 4])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert err.value.step_index in (3, 4)
    assert str(err.value) == f"off its cone after step {err.value.step_index} (t=0.5)"
    assert multiprocessing.active_children() == []


def test_map_fails_when_a_workers_error_cannot_come_back():
    previous = signal.signal(signal.SIGALRM, _hung)
    signal.alarm(60)
    try:
        with pytest.raises(BrokenProcessPool):
            _map(_one_way, range(6))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []


def _errors_grassflow_defines():
    found = set()
    for info in pkgutil.iter_modules(grassflow.__path__):
        module = importlib.import_module(f"grassflow.{info.name}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__):
                found.add(obj)
    return found


def test_every_grassflow_error_survives_pickling():
    # a suite worker hands its error to the parent through pickle
    errors = [
        (ConfigError(["T: must be a number", "seed: must be an integer"]),
         {"messages": ["T: must be a number", "seed: must be an integer"]}),
        (StabilityError("dt=1e-3 exceeds the stability bound"), {}),
        (FlowBlowupError(None, 7, 0.25, "off its cone"),
         {"last_state": None, "step_index": 7, "time": 0.25, "what": "off its cone"}),
        (NewtonError(None, 7, 0.25, 3.5e-12),
         {"last_state": None, "step_index": 7, "time": 0.25, "residual": 3.5e-12}),
        (GaugeError("frame is not block diagonal"), {}),
    ]
    assert {type(err) for err, _ in errors} == _errors_grassflow_defines()
    for err, attributes in errors:
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is type(err)
        assert str(back) == str(err)
        assert {name: getattr(back, name) for name in attributes} == attributes


def test_suite_reports_do_not_depend_on_the_cpus(monkeypatch):
    every = json.dumps(run_suite("reductions"), sort_keys=True)
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert json.dumps(run_suite("reductions"), sort_keys=True) == every


def test_importing_the_cli_leaves_multiprocessing_out():
    # a pool is only started by the suites that use one
    code = (
        "import sys, grassflow.cli; "
        "print(any(m in sys.modules for m in ('multiprocessing', 'concurrent.futures')))"
    )
    src = os.path.dirname(os.path.dirname(grassflow.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "False"
