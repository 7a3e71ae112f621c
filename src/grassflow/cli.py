"""Command line driver.

Subcommands: simulate, verify, gauge-compare, reduce, curvature-residual.
verify runs one suite as it stands.  Every other run is driven by a JSON
config document plus optional dotted-path overrides, writes a manifest
that reproduces it exactly, and emits only deterministic bytes: rerunning
the same config and seed gives identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
from dataclasses import astuple, dataclass, fields

import numpy as np

from . import __version__
from .algebra import AlgebraSpec, Family, membership_residual
from .fields import MIN_POINTS, Grid, _Base64Text
from .flows import (
    DERIVATIVE_ORDER,
    FlowBlowupError,
    FlowKind,
    NewtonError,
    StabilityError,
    _flow_params,
    _output_times,
    auto_dt,
    evolve,
    step_count,
)
from .functionals import EnergyReport, FlowParams, energy_report
from .gauge import GaugeError, curvature_residual, frame_potential_gaps
from .initial_data import draws_seed, make_initial_potential, make_initial_state
from .orbit import OrbitState, spectrum_deviation
from .reductions import matrix_and_vector_spins, spec_geometry
from .suites import SUITES, run_suite

OBSERVABLE_COLUMNS = ("t", *(f.name for f in fields(EnergyReport)), "spectrum_dev", "m_residual")


class ConfigError(ValueError):
    def __init__(self, messages):
        self.messages = list(messages)
        # the list goes to args, from which pickle rebuilds the error
        super().__init__(self.messages)

    def __str__(self):
        return "; ".join(self.messages)


@dataclass
class RunConfig:
    spec: AlgebraSpec
    grid: Grid
    params: FlowParams
    kind: FlowKind
    initial_data: dict
    T: float
    dt_raw: object
    output_times: list | None
    seed: int | None
    lambdas: list | None
    raw: dict


def load_config(path: str) -> dict:
    try:
        with open(path) as f:
            cfg = json.load(f)
    except OSError as exc:
        raise ConfigError([f"cannot read config: {exc}"]) from None
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config is not valid JSON: {exc}"]) from None
    if not isinstance(cfg, dict):
        raise ConfigError(["config must be a JSON object"])
    return cfg


def apply_overrides(cfg: dict, pairs: list) -> dict:
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ConfigError([f"override must look like key=value, got {pair!r}"])
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            nxt = node.get(part)
            if nxt is None:
                nxt = node[part] = {}
            if not isinstance(nxt, dict):
                raise ConfigError([f"override path '{key}' crosses a non-object field"])
            node = nxt
        node[parts[-1]] = value
    return cfg


def _number(value):
    """value as a float if JSON gave it as a number, else None.  A boolean
    is not a number here, though Python counts it as an int."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an integer beyond the float range
            return math.inf if value > 0 else -math.inf
    return None


def _numbers(value):
    """value as a list of floats if JSON gave it as an array of numbers,
    else None."""
    if not isinstance(value, list):
        return None
    values = [_number(v) for v in value]
    return None if None in values else values


# The fields that every run reads: a section's keys, or None for a field
# read whole.  curvature-residual reads lambdas as well.  Any other field is
# a config error rather than ignored; the options in initial_data are its
# builder's to check.
_FIELDS = {
    "algebra": ("family", "n", "k"),
    "grid": ("N", "L"),
    "params": ("alpha", "beta", "gamma"),
    **dict.fromkeys(("flow", "initial_data", "T", "dt", "output_times", "seed")),
}


def parse_run_config(
    cfg: dict, seed_override: int | None = None, command: str = "simulate"
) -> RunConfig:
    """The run that cfg describes for command; every fault that needs neither
    a file nor the initial state is raised, all together, as one ConfigError."""
    known = dict(_FIELDS, lambdas=None) if command == "curvature-residual" else _FIELDS
    errors = []
    for key, value in cfg.items():
        if key not in known:
            errors.append(f"unknown field '{key}'")
        elif known[key] is not None and isinstance(value, dict):
            errors.extend(f"unknown field '{key}.{sub}'" for sub in value if sub not in known[key])

    def get(path, required=True, default=None):
        node = cfg
        for part in path.split("."):
            if not isinstance(node, dict) or node.get(part) is None:  # null is missing too
                if required:
                    errors.append(f"missing field '{path}'")
                return default
            node = node[part]
        return node

    def build(section, make, *keys):
        # make(*values) of the JSON numbers section.key, or None with each fault noted
        values = [get(f"{section}.{key}") for key in keys]
        wrong = [key for key, v in zip(keys, values) if v is not None and _number(v) is None]
        errors.extend(f"{section}.{key}: must be a number" for key in wrong)
        if wrong or None in values:
            return None
        try:
            return make(*values)
        except (ValueError, TypeError, OverflowError) as exc:  # OverflowError: int(inf)
            errors.append(f"{section}: {exc}")
            return None

    family = get("algebra.family")

    def algebra(n, k):
        return None if family is None else AlgebraSpec(Family(family), n, k)

    spec = build("algebra", algebra, "n", "k")
    if command == "reduce" and spec is not None:
        try:
            spec_geometry(spec)
        except ValueError as exc:
            errors.append(f"algebra: {exc}")
    grid = build("grid", Grid, "N", "L")
    params = build("params", FlowParams, "alpha", "beta", "gamma")

    kind = None
    flow = get("flow")
    if flow is not None:
        try:
            kind = FlowKind(flow)
        except ValueError:
            errors.append(f"flow: {flow!r} is not one of {[m.value for m in FlowKind]}")

    # gauge-compare, reduce and curvature-residual cover the leading and
    # third orders, whose potential, vector and connection sides they
    # integrate with derivatives up to the fourth whatever the flow
    compares = command in ("gauge-compare", "reduce", "curvature-residual")
    if compares and kind is FlowKind.SECOND_ORDER:
        errors.append(f"flow: {command} covers leading_order and third_order")
    if grid is not None and (compares or kind is not None):
        need = MIN_POINTS[4 if compares else DERIVATIVE_ORDER[kind]]
        if grid.num_points < need:
            who = command if compares else f"the {kind.value} flow"
            errors.append(f"grid.N: {who} needs at least {need} points")

    initial = get("initial_data")
    if initial is not None and not isinstance(initial, dict):
        errors.append("initial_data: must be an object")
        initial = None
    if isinstance(initial, dict):
        if "generator" not in initial and "snapshot" not in initial:
            errors.append("initial_data: needs either 'generator' or 'snapshot'")
        elif command == "gauge-compare" and "snapshot" in initial:
            errors.append(
                "initial_data: gauge-compare starts from a potential generator, not a snapshot"
            )

    T = get("T")
    if T is not None:
        T = _number(T)
        if T is None:
            errors.append("T: must be a number")
        elif not math.isfinite(T):
            errors.append("T: must be finite")
        elif T < 0:
            errors.append("T: must be nonnegative")

    dt_raw = get("dt")
    if dt_raw is not None and dt_raw != "auto":
        dt_raw = _number(dt_raw)
        if dt_raw is None:
            errors.append("dt: must be a number or 'auto'")
        elif not math.isfinite(dt_raw):
            errors.append("dt: must be finite")
        elif dt_raw <= 0:
            errors.append("dt: must be positive or 'auto'")
    elif dt_raw == "auto" and None not in (grid, params, kind):
        if not math.isfinite(auto_dt(params, grid.h, kind)):
            errors.append("dt: these params have no stability bound; give dt as a number")

    output_times = get("output_times", required=False)
    if output_times is not None:
        output_times = _numbers(output_times)
        if output_times is None:
            errors.append("output_times: must be a list of numbers")
        elif command == "curvature-residual" and len(output_times) < 3:
            errors.append("output_times: curvature residuals need at least three snapshots")

    # the seed a generator draws from: --seed, else the one the config
    # gives as seed or initial_data.seed, which must agree; a boolean is
    # not an integer here, though Python counts it as one
    seed = get("seed", required=False)
    drawn = initial.get("seed") if isinstance(initial, dict) else None
    given = [s for s in (seed, drawn) if s is not None]
    if any(isinstance(s, bool) or not isinstance(s, int) for s in given):
        errors.append("seed: must be an integer")
    elif len(given) == 2 and seed != drawn:
        errors.append(f"seed: {seed!r} differs from initial_data.seed {drawn!r}")
    if seed_override is not None:
        seed = seed_override
    elif seed is None:
        seed = 0 if drawn is None else drawn

    lambdas = None
    if "lambdas" in known:
        lambdas = _numbers(get("lambdas", required=False, default=[0.5, 1.0, 2.0]))
        if lambdas is None:
            errors.append("lambdas: must be a list of numbers")
        elif not all(math.isfinite(v) for v in lambdas):
            errors.append("lambdas: must be finite")

    if errors:
        raise ConfigError(errors)
    initial = dict(initial)
    if seed_override is not None:
        initial.pop("seed", None)
    if not draws_seed(initial):
        seed = None  # nothing is drawn, so the run records no seed
    return RunConfig(
        spec, grid, params, kind, initial, T, dt_raw, output_times, seed, lambdas, cfg
    )


def build_state(rc: RunConfig) -> OrbitState:
    if "snapshot" in rc.initial_data:
        path = rc.initial_data["snapshot"]
        try:
            with open(path) as f:
                state = OrbitState.from_json_dict(json.load(f))
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError([f"initial_data.snapshot: cannot load {path!r}: {exc}"]) from None
        if state.spec != rc.spec:
            raise ConfigError(["initial_data.snapshot: algebra does not match the config"])
        if (
            state.phi.grid.num_points != rc.grid.num_points
            or state.phi.grid.length != rc.grid.length
        ):
            raise ConfigError(["initial_data.snapshot: grid does not match the config"])
        for field in (state.phi, state.frame):
            if field is not None and not np.all(np.isfinite(field.values)):
                raise ConfigError(["initial_data.snapshot: values must be finite"])
        return state
    try:
        return make_initial_state(rc.spec, rc.grid, rc.initial_data, rc.seed)
    except ValueError as exc:
        raise ConfigError([f"initial_data: {exc}"]) from None


def resolve_dt(rc: RunConfig) -> float:
    if rc.dt_raw == "auto":
        return auto_dt(rc.params, rc.grid.h, rc.kind)
    return float(rc.dt_raw)


def _resolve_output_times(t0: float, T: float, dt: float, times) -> list:
    """The output times of a run from t0 to t0 + T, which end at t0 + T."""
    try:
        return _output_times(t0, T, dt, times)
    except ValueError as exc:
        raise ConfigError([f"output_times: {exc}"]) from None


def _fmt(value) -> str:
    return repr(float(value))


def _hold_payloads(node):
    """node with every base64 payload of MatrixField.to_json_dict as ASCII
    bytes, which the JSON encoder hands to its default hook unscanned."""
    if isinstance(node, _Base64Text):
        return node.encode("ascii")
    if isinstance(node, dict):
        return {key: _hold_payloads(value) for key, value in node.items()}
    if isinstance(node, (list, tuple)):
        return [_hold_payloads(value) for value in node]
    return node


def _write_json(path: str, obj) -> None:
    """Write obj as JSON indented by two with sorted keys, and a newline, in
    one binary write: the bytes of json.dumps(obj, indent=2, sort_keys=True).
    The base64 payloads of snapshot fields are spliced into the encoded rest
    rather than scanned by the encoder; every other string is encoded."""
    held = _hold_payloads(obj)
    payloads, marker = [], "#"

    def hold(payload):
        if not isinstance(payload, bytes):
            raise TypeError(f"{type(payload).__name__} is not JSON serializable")
        payloads.append(payload)
        return marker

    while True:
        payloads.clear()
        text = json.dumps(held, indent=2, sort_keys=True, default=hold)
        parts = text.encode("ascii").split(f'"{marker}"'.encode("ascii"))
        if len(parts) == len(payloads) + 1:
            break
        # a string of obj holds the marker; one longer than every string cannot
        marker += "#"
    pieces = [parts[0]]
    for payload, part in zip(payloads, parts[1:]):
        pieces += (b'"', payload, b'"', part)
    pieces.append(b"\n")
    with open(path, "wb") as f:
        f.write(b"".join(pieces))


def _write_csv(path: str, header, rows) -> None:
    """Write header and rows as a new CSV, or append rows if header is None,
    which spares a rewrite its truncation: a flush on ext4."""
    with open(path, "a" if header is None else "w") as f:
        if header is not None:
            f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


def _manifest(rc: RunConfig, resolved: dict) -> dict:
    return {
        "config": rc.raw,
        "resolved": resolved,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "grassflow": __version__,
        },
        "status": "running",
        "abort": None,
    }


def _abort(manifest, out_dir, exc) -> int:
    manifest["status"] = "aborted"
    manifest["abort"] = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, _STEP_ERRORS):
        manifest["abort"]["step_index"] = exc.step_index
        manifest["abort"]["last_time"] = float(exc.last_state.time)
    if isinstance(exc, NewtonError):
        manifest["abort"]["residual"] = exc.residual
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)
    print(f"aborted: {exc}", file=sys.stderr)
    return 1


# Errors of a failed step, which carry its index and the last good state.
_STEP_ERRORS = (FlowBlowupError, NewtonError)
# Errors that abort a run once its manifest is written.
_RUN_ERRORS = (*_STEP_ERRORS, StabilityError, GaugeError, ValueError)


def _run(rc: RunConfig, out_dir: str, resolved: dict, body) -> int:
    """Write the manifest as running, run body(), then mark the manifest
    completed, or aborted if body raised one of _RUN_ERRORS."""
    os.makedirs(out_dir, exist_ok=True)
    manifest = _manifest(rc, resolved)
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)
    try:
        body()
    except _RUN_ERRORS as exc:
        return _abort(manifest, out_dir, exc)
    manifest["status"] = "completed"
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return 0


def cmd_simulate(rc: RunConfig, out_dir: str) -> int:
    state = build_state(rc)
    dt = resolve_dt(rc)
    times = _resolve_output_times(state.time, rc.T, dt, rc.output_times)
    csv_path = os.path.join(out_dir, "observables.csv")

    def body():
        current = state
        taken = 0  # steps of the segments before this one
        for index, target in enumerate(times):
            # one segment per output time, so each snapshot and row is written
            # on arrival, and a run refused before its first output time
            # writes no observables.csv
            try:
                (arrived,) = evolve(
                    current, rc.params, rc.kind, target - current.time, dt,
                    output_times=[target],
                )
            except _STEP_ERRORS as exc:
                exc.step_index += taken
                raise
            taken += step_count(current.time, target, dt)
            current = arrived
            _write_json(
                os.path.join(out_dir, f"snapshot_{index:04d}.json"), current.to_json_dict()
            )
            energies = astuple(energy_report(current, rc.params))
            m_residual = membership_residual(current.spec, current.phi.values)
            row = (target, *energies, spectrum_deviation(current), m_residual)
            _write_csv(csv_path, None if index else OBSERVABLE_COLUMNS, [row])

    return _run(rc, out_dir, {"dt": dt, "output_times": times, "seed": rc.seed}, body)


def cmd_verify(out_dir: str | None, suite: str) -> int:
    report = run_suite(suite)
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        _write_json(os.path.join(out_dir, "report.json"), report)
    return 0 if report["pass"] else 1


def cmd_gauge_compare(rc: RunConfig, out_dir: str) -> int:
    try:
        ps0 = make_initial_potential(rc.spec, rc.grid, rc.initial_data, rc.seed)
    except ValueError as exc:
        raise ConfigError([f"initial_data: {exc}"]) from None
    dt = resolve_dt(rc)
    times = _resolve_output_times(ps0.time, rc.T, dt, rc.output_times)
    mask = rc.grid.interior

    def body():
        gaps = frame_potential_gaps(ps0, rc.params, rc.kind, times, dt)
        rows = [(t, float(np.max(gap)), float(np.max(gap[mask]))) for t, gap in zip(times, gaps)]
        _write_csv(
            os.path.join(out_dir, "gauge_compare.csv"), ("t", "norm_gap", "interior_linf"), rows
        )

    return _run(rc, out_dir, {"dt": dt, "output_times": times, "seed": rc.seed}, body)


def cmd_reduce(rc: RunConfig, out_dir: str) -> int:
    geometry = spec_geometry(rc.spec)
    state = build_state(rc)
    dt = resolve_dt(rc)
    times = _resolve_output_times(state.time, rc.T, dt, rc.output_times)
    header = ("x", "s1_matrix", "s2_matrix", "s3_matrix", "s1_vector", "s2_vector", "s3_vector")

    def body():
        spins = matrix_and_vector_spins(state, rc.params, rc.kind, times, dt)
        for index, (matrix_s, vector_s) in enumerate(spins):
            rows = [(x, *ms, *vs) for x, ms, vs in zip(rc.grid.x, matrix_s, vector_s)]
            _write_csv(os.path.join(out_dir, f"reduce_{index:04d}.csv"), header, rows)
        summary = [(t, float(np.max(np.abs(m - v)))) for t, (m, v) in zip(times, spins)]
        _write_csv(os.path.join(out_dir, "reduce_summary.csv"), ("t", "max_gap"), summary)

    resolved = {"dt": dt, "output_times": times, "seed": rc.seed, "geometry": geometry.value}
    return _run(rc, out_dir, resolved, body)


def cmd_curvature_residual(rc: RunConfig, out_dir: str) -> int:
    state = build_state(rc)
    dt = resolve_dt(rc)
    t0 = state.time
    if rc.output_times is not None:
        times = _resolve_output_times(t0, rc.output_times[-1] - t0, dt, rc.output_times)
    else:
        times = [t0 + dt, t0 + 2.0 * dt, t0 + 3.0 * dt]

    physics = _flow_params(rc.params, rc.kind)

    def body():
        states = evolve(state, rc.params, rc.kind, times[-1] - t0, dt, output_times=times)
        residuals = curvature_residual(states, physics, rc.lambdas)
        rows = [(t, lam, res) for lam, pairs in zip(rc.lambdas, residuals) for t, res in pairs]
        _write_csv(os.path.join(out_dir, "curvature.csv"), ("t", "lam", "residual"), rows)

    resolved = {"dt": dt, "output_times": times, "seed": rc.seed, "lambdas": rc.lambdas}
    return _run(rc, out_dir, resolved, body)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="grassflow",
        description="Structure-preserving flows on matrix orbits: simulation and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", required=True, help="path to a JSON config")
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")
        sp.add_argument(
            "--override",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="dotted-path config override, value parsed as JSON",
        )

    add_common(sub.add_parser("simulate", help="run a flow and write trajectory files"))
    sp_verify = sub.add_parser("verify", help="run a verification suite")
    sp_verify.add_argument("--suite", required=True, choices=tuple(SUITES))
    sp_verify.add_argument("--out", help="directory for report.json")
    add_common(sub.add_parser("gauge-compare", help="frame flow vs potential flow, |q| gap"))
    add_common(sub.add_parser("reduce", help="matrix and vector forms side by side"))
    add_common(
        sub.add_parser("curvature-residual", help="connection curvature against its target")
    )
    args = parser.parse_args(argv)

    if args.command == "verify":
        return cmd_verify(args.out, args.suite)
    try:
        cfg = apply_overrides(load_config(args.config), args.override)
        rc = parse_run_config(cfg, args.seed, args.command)
        if args.command == "simulate":
            return cmd_simulate(rc, args.out)
        if args.command == "gauge-compare":
            return cmd_gauge_compare(rc, args.out)
        if args.command == "reduce":
            return cmd_reduce(rc, args.out)
        return cmd_curvature_residual(rc, args.out)
    except ConfigError as exc:
        for message in exc.messages:
            print(f"config error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
