from __future__ import annotations

import base64
import itertools
import json

import numpy as np
import pytest

import grassflow.fields as fields
from grassflow.algebra import AlgebraSpec, Family
from grassflow.fields import (
    MIN_POINTS,
    Grid,
    MatrixField,
    cumulative_trapezoid,
    periodic_diff,
    stencil_symbol,
)
from grassflow.flows import FOURTH_DERIV_GAIN, THIRD_DERIV_GAIN, FlowKind, curve_flow_rhs, evolve
from grassflow.functionals import FlowParams, energy_report
import grassflow.gauge as gauge
from grassflow.gauge import akns4_rhs, curvature_residual, potential_rhs
from grassflow.initial_data import random_orbit_state, random_smooth_potential

TWO_PI = 2.0 * np.pi


def _mode_field(grid: Grid, m: int) -> np.ndarray:
    return np.exp(1j * m * (TWO_PI / grid.length) * grid.x)[:, None, None]


def test_grid_nodes_and_spacing():
    g = Grid(8, 4.0)
    assert g.h == 0.5
    assert np.allclose(g.x, 0.5 * np.arange(8))


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(3, 1.0)
    with pytest.raises(ValueError):
        Grid(8, 0.0)
    with pytest.raises(ValueError):
        Grid(8, np.inf)


def test_grid_json_roundtrip():
    g = Grid(16, 2.5)
    assert Grid.from_json_dict(g.to_json_dict()) == g


def test_first_derivative_symbol_is_exact_per_mode():
    # the stencil acts diagonally on single modes, with a known symbol
    grid = Grid(32, TWO_PI)
    h = grid.h
    for m in (1, 3, 7):
        f = _mode_field(grid, m)
        got = periodic_diff(f, 1, h)
        symbol = (8.0 * np.sin(m * h) - np.sin(2.0 * m * h)) / (6.0 * h)
        assert np.allclose(got, 1j * symbol * f, atol=1e-12)


def test_second_derivative_symbol_is_exact_per_mode():
    grid = Grid(32, TWO_PI)
    h = grid.h
    for m in (1, 4):
        f = _mode_field(grid, m)
        got = periodic_diff(f, 2, h)
        symbol = (30.0 - 32.0 * np.cos(m * h) + 2.0 * np.cos(2.0 * m * h)) / (12.0 * h**2)
        assert np.allclose(got, -symbol * f, atol=1e-11)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_stencil_symbol_is_the_fft_of_the_stencil(order):
    grid = Grid(48, 3.0)
    rng = np.random.default_rng(order)
    field = rng.standard_normal((48, 2, 2)) + 1j * rng.standard_normal((48, 2, 2))
    symbol = stencil_symbol(order, grid.num_points, grid.h)[:, None, None]
    got = np.fft.ifft(symbol * np.fft.fft(field, axis=0), axis=0)
    want = periodic_diff(field, order, grid.h)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_step_bound_gains_are_the_stencil_peaks():
    # the peaks over a fine grid of modes, in units of h^-order; the
    # fourth-order peak is at the Nyquist mode, the third-order one inside
    h = 0.01
    fourth = np.max(np.abs(stencil_symbol(4, 4096, h))) * h**4
    third = np.max(np.abs(stencil_symbol(3, 4096, h))) * h**3
    assert fourth == pytest.approx(FOURTH_DERIV_GAIN, rel=1e-12)
    assert third == pytest.approx(4.609, abs=1e-3)
    assert THIRD_DERIV_GAIN >= third


def test_derivatives_converge_at_fourth_order():
    errors = {}
    for npts in (32, 64):
        grid = Grid(npts, TWO_PI)
        f = np.sin(grid.x)[:, None, None]
        exact = {1: np.cos(grid.x), 2: -np.sin(grid.x), 3: -np.cos(grid.x), 4: np.sin(grid.x)}
        for order in (1, 2, 3, 4):
            err = np.max(np.abs(periodic_diff(f, order, grid.h)[:, 0, 0] - exact[order]))
            errors.setdefault(order, []).append(err)
    for order, (coarse, fine) in errors.items():
        rate = np.log2(coarse / fine)
        assert rate > 3.7, f"order {order} converged at rate {rate:.2f}"


def test_derivative_of_constant_is_zero():
    grid = Grid(16, TWO_PI)
    f = np.ones((16, 2, 2))
    for order in (1, 2, 3, 4):
        assert np.max(np.abs(periodic_diff(f, order, grid.h))) < 1e-13


def test_unknown_derivative_order_rejected():
    with pytest.raises(ValueError):
        stencil_symbol(5, 16, 0.1)
    with pytest.raises(ValueError):
        periodic_diff(np.ones((16, 1, 1)), 5, 0.1)
    # too few points for the stencil's reach
    for order, fewest in ((1, 5), (2, 5), (3, 16), (4, 16)):
        periodic_diff(np.ones((fewest, 2, 2)), order, 0.1)
        with pytest.raises(ValueError):
            periodic_diff(np.ones((fewest - 1, 2, 2)), order, 0.1)


def _rolled_diff(values, order, h):
    """The stencil summed over np.roll shifts, in the library's offset order."""
    offsets, weights, denom, power = {
        1: ((-2, -1, 1, 2), (1.0, -8.0, 8.0, -1.0), 12.0, 1),
        2: ((-2, -1, 0, 1, 2), (-1.0, 16.0, -30.0, 16.0, -1.0), 12.0, 2),
        3: ((-3, -2, -1, 1, 2, 3), (1.0, -8.0, 13.0, -13.0, 8.0, -1.0), 8.0, 3),
        4: ((-3, -2, -1, 0, 1, 2, 3), (-1.0, 12.0, -39.0, 56.0, -39.0, 12.0, -1.0), 6.0, 4),
    }[order]
    acc = np.zeros(values.shape, dtype=np.result_type(values.dtype, np.float64))
    for off, w in zip(offsets, weights):
        acc += w * np.roll(values, -off, axis=0)
    return acc / (denom * h ** power)


def test_padded_stencil_is_bit_equal_to_rolled_stencil():
    rng = np.random.default_rng(8)
    for npts in (16, 128):
        h = TWO_PI / npts
        cplx = rng.standard_normal((npts, 2, 2)) + 1j * rng.standard_normal((npts, 2, 2))
        real = rng.standard_normal((npts, 3))
        for values in (cplx, real):
            for order in (1, 2, 3, 4):
                got = periodic_diff(values, order, h)
                want = _rolled_diff(values, order, h)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), (npts, order)


# every set of distinct orders, ascending and reversed
ORDER_TUPLES = [
    combo[::step]
    for size in (1, 2, 3, 4)
    for combo in itertools.combinations((1, 2, 3, 4), size)
    for step in (1, -1)
    if size > 1 or step == 1
]


@pytest.mark.parametrize("orders", ORDER_TUPLES, ids=str)
def test_tuple_of_orders_is_bit_equal_to_single_order_calls(orders):
    rng = np.random.default_rng(9)
    for npts in (16, 128):
        h = TWO_PI / npts
        cplx = rng.standard_normal((npts, 2, 2)) + 1j * rng.standard_normal((npts, 2, 2))
        real = rng.standard_normal((npts, 3))
        for values in (cplx, real):
            got = periodic_diff(values, orders, h)
            assert isinstance(got, tuple) and len(got) == len(orders)
            for order, diff in zip(orders, got):
                want = periodic_diff(values, order, h)
                assert diff.dtype == want.dtype
                assert diff.tobytes() == want.tobytes(), (npts, orders, order)


def test_tuple_of_orders_needs_the_most_points_of_its_orders():
    for orders in ORDER_TUPLES:
        fewest = max(MIN_POINTS[order] for order in orders)
        periodic_diff(np.ones((fewest, 2, 2)), orders, 0.1)
        with pytest.raises(ValueError, match=f"need at least {fewest} points"):
            periodic_diff(np.ones((fewest - 1, 2, 2)), orders, 0.1)


@pytest.mark.parametrize("orders", [(), (1, 5), (0, 2), [1, 2], [2]], ids=str)
def test_empty_unknown_or_listed_orders_rejected(orders):
    with pytest.raises(ValueError, match="derivative order must be 1, 2, 3 or 4"):
        periodic_diff(np.ones((16, 2, 2)), orders, 0.1)


@pytest.fixture
def wrapped(monkeypatch):
    """The arrays that periodic_diff wrap-pads, in call order."""
    seen = []
    real = fields._wrap_pad

    def counted(values, pad):
        seen.append(values)
        return real(values, pad)

    monkeypatch.setattr(fields, "_wrap_pad", counted)
    return seen


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda os, p: energy_report(os, p),
        lambda os, p: gauge._connection_terms(os, p),
        lambda os, p: curve_flow_rhs(os, p),
    ],
    ids=["energy_report", "connection", "curve_flow_rhs"],
)
def test_orbit_side_wraps_phi_once(wrapped, evaluate):
    os = random_orbit_state(AlgebraSpec(Family.COMPACT_UNITARY, 2, 1), Grid(32, TWO_PI), seed=2)
    wrapped.clear()  # the frame draw differentiates too
    evaluate(os, FlowParams(0.8, 0.1, 0.06))
    assert len(wrapped) == 1 and wrapped[0] is os.phi.values


def test_curvature_residual_wraps_phi_once_per_snapshot(wrapped):
    # the lam-free terms and the target's cube come from one padded phi per
    # interior snapshot, whatever the number of values; A_t is padded once
    # per value for its x-derivative
    p = FlowParams(0.8, 0.1, 0.06)
    os = random_orbit_state(AlgebraSpec(Family.COMPACT_UNITARY, 2, 1), Grid(32, TWO_PI), seed=2)
    times = [0.0, 1e-6, 2e-6, 3e-6]
    states = evolve(os, p, FlowKind.THIRD_ORDER, 3e-6, 1e-6, output_times=times)
    lams = (0.5, 1.0, 2.0)
    wrapped.clear()
    curvature_residual(states, p, lams)
    assert len(wrapped) == 2 * (1 + len(lams))
    for interior in states[1:-1]:
        assert sum(values is interior.phi.values for values in wrapped) == 1


@pytest.mark.parametrize(
    "params, count",
    # q, its products r q, q r and q r q, and at beta != 0 also r
    [((1.0, 0.0, 0.02), 4), ((0.8, 0.1, 0.06), 5)],
    ids=["beta_zero", "beta_nonzero"],
)
def test_potential_rhs_wraps_each_array_once(wrapped, params, count):
    spec = AlgebraSpec(Family.COMPACT_UNITARY, 2, 1)
    ps = random_smooth_potential(spec, Grid(32, TWO_PI), seed=1)
    wrapped.clear()
    potential_rhs(ps, FlowParams(*params))
    assert len(wrapped) == count
    assert len({id(values) for values in wrapped}) == count


def test_akns4_rhs_wraps_q_and_its_adjoint_once_each(wrapped):
    q = np.random.default_rng(3).standard_normal((32, 1, 1)) + 0j
    akns4_rhs(q, TWO_PI / 32)
    assert len(wrapped) == 2 and wrapped[0] is not wrapped[1]


def test_cumulative_trapezoid_starts_at_zero_and_accumulates():
    grid = Grid(64, TWO_PI)
    f = np.cos(grid.x)[:, None, None]
    c = cumulative_trapezoid(f, grid.h)
    assert c[0, 0, 0] == 0.0
    assert np.max(np.abs(c[:, 0, 0] - np.sin(grid.x))) < 2e-3


def test_cumulative_integral_of_derivative_loses_two_orders():
    # the running sum is only second order, so the composition is too
    errs = []
    for npts in (64, 128):
        grid = Grid(npts, TWO_PI)
        f = np.sin(grid.x)[:, None, None].astype(complex)
        back = cumulative_trapezoid(periodic_diff(f, 1, grid.h), grid.h)
        target = np.sin(grid.x) - np.sin(grid.x)[0]
        errs.append(np.max(np.abs(back[:, 0, 0] - target)))
    rate = np.log2(errs[0] / errs[1])
    assert 1.6 < rate < 2.4


def test_matrix_field_validation():
    grid = Grid(8, 1.0)
    with pytest.raises(ValueError):
        MatrixField(grid, np.zeros((8, 2, 3)))
    with pytest.raises(ValueError):
        MatrixField(grid, np.zeros((7, 2, 2)))


def test_matrix_field_values_are_read_only():
    grid = Grid(8, 1.0)
    f = MatrixField(grid, np.zeros((8, 2, 2)))
    with pytest.raises(ValueError):
        f.values[0, 0, 0] = 1.0


def test_matrix_field_json_roundtrip():
    grid = Grid(8, 2.0)
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((8, 2, 2)) + 1j * rng.standard_normal((8, 2, 2))
    f = MatrixField(grid, vals)
    d = json.loads(json.dumps(f.to_json_dict()))
    # the documented layout: base64 of the row-major "<c16" bytes, shape (N, n, n)
    raw = np.frombuffer(base64.b64decode(d["values"]), "<c16").reshape(8, 2, 2)
    assert np.array_equal(raw.view(np.uint64), vals.view(np.uint64))
    back = MatrixField.from_json_dict(d)
    assert back.grid == grid
    assert np.array_equal(back.values.view(np.uint64), vals.view(np.uint64))
    # as snapshots were once written: nested lists of [re, im] pairs
    pairs = vals.view(np.float64).reshape(8, 2, 2, 2).tolist()
    loaded = MatrixField.from_json_dict({"grid": grid.to_json_dict(), "values": pairs})
    assert np.array_equal(loaded.values.view(np.uint64), vals.view(np.uint64))
    for bad in (None, "1.5", [1.0, 2.0, 3.0]):
        broken = vals.view(np.float64).reshape(8, 2, 2, 2).tolist()
        broken[3][1][0] = bad
        with pytest.raises(ValueError):
            MatrixField.from_json_dict({"grid": grid.to_json_dict(), "values": broken})


@pytest.mark.parametrize("values, match", [
    ("not base64!", "base64"),
    ("AAA", "base64"),  # missing padding
    ("\u00e9AAA", "base64"),  # not ASCII
    (base64.b64encode(bytes(3)).decode(), "bytes"),
    (base64.b64encode(bytes(16 * 8 * 2)).decode(), "bytes"),  # n^2 = 2
    ("", "bytes"),  # n = 0
    (None, "base64 string or nested"),
    (2.5, "base64 string or nested"),
    ({"re": 1.0}, "base64 string or nested"),
], ids=["not-base64", "padding", "not-ascii", "3-bytes", "n-squared-2", "empty", "null",
        "number", "object"])
def test_matrix_field_rejects_malformed_values(values, match):
    with pytest.raises(ValueError, match=match):
        MatrixField.from_json_dict({"grid": {"N": 8, "L": 2.0}, "values": values})
