"""Tests of the benchmark's own machinery.  Run with ``python -m pytest bench``."""

import types

import pytest

from checks import STEP_SLACK, expected_steps
from run import run_op
from tracer import Tracer


class FakeClock:
    """A clock that each wrapped function advances by a fixed amount."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def work(self, seconds):
        self.now += seconds


def test_self_time_subtracts_traced_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.work(1.0)

    def middle():
        clock.work(2.0)
        traced_leaf()
        clock.work(0.5)
        traced_leaf()

    def top():
        clock.work(3.0)
        traced_middle()
        traced_leaf()

    traced_leaf = tracer.wrap("m.leaf", leaf)
    traced_middle = tracer.wrap("m.middle", middle)
    tracer.wrap("m.top", top)()

    summary = tracer.summary()
    assert summary["m.top"] == {"calls": 1, "self_s": 3.0}
    assert summary["m.middle"] == {"calls": 1, "self_s": 2.5}
    assert summary["m.leaf"] == {"calls": 3, "self_s": 3.0}
    total = sum(entry["self_s"] for entry in summary.values())
    assert total == clock.now
    assert tracer.child_counts("m.leaf") == {0: 1, 1: 2}


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def fails():
        clock.work(1.0)
        raise RuntimeError("boom")

    traced = tracer.wrap("m.fails", fails)
    with pytest.raises(RuntimeError):
        tracer.wrap("m.outer", lambda: traced())()
    assert tracer.summary() == {
        "m.fails": {"calls": 1, "self_s": 1.0},
        "m.outer": {"calls": 1, "self_s": 0.0},
    }


def test_patch_reaches_every_holder_and_restore_undoes_it():
    def work(x):
        return x + 1

    home = types.ModuleType("pkg.home")
    home.work = work
    user = types.ModuleType("pkg.user")
    user.work = work
    user.table = {"w": work}
    tracer = Tracer()
    tracer.patch({"home": home, "user": user}, ["home.work"])
    assert home.work is not work and user.work is not work and user.table["w"] is not work
    assert user.table["w"](1) == 2 and user.work(2) == 3
    assert tracer.summary()["home.work"]["calls"] == 2
    tracer.restore()
    assert home.work is work and user.work is work and user.table["w"] is work


def test_capture_is_kept_by_span_index():
    tracer = Tracer()
    traced = tracer.wrap("m.f", lambda x: x, capture=lambda args, kwargs: args[0] * 10)
    traced(1)
    traced(2)
    assert tracer.captured == {0: 10, 1: 20}


@pytest.mark.parametrize(
    "t0, times, dt, steps",
    [
        (0.0, [0.0], 1.0, 0),
        (0.0, [0.0, 4e-5, 8e-5], 2.1772628508657754e-07, 368),
        (0.0, [1.0], 0.25, 4),
        (0.0, [1.0], 0.3, 4),
        (0.5, [1.0, 2.0], 0.5, 3),
        # the ROADMAP's dt = 5.3e-11 case: 40 requested steps must be 40 taken
        (0.0, [40 * 5.3e-11], 5.3e-11, 40),
    ],
)
def test_expected_steps_is_a_sum_of_ceilings(t0, times, dt, steps):
    assert expected_steps(t0, times, dt) == steps


def test_expected_steps_ignores_roundoff_past_a_whole_step():
    dt = 0.1
    assert expected_steps(0.0, [3 * dt * (1 + STEP_SLACK / 10)], dt) == 3
    assert expected_steps(0.0, [3 * dt * (1 + 1e-6)], dt) == 4


def test_an_operation_that_raises_fails_without_ending_the_run():
    class Broken:
        def op(self, out_dir):
            raise RuntimeError("boom")

    result = run_op(Broken(), None)
    assert result.problems and "RuntimeError: boom" in result.problems[0]
    assert result.fingerprint == ""
