"""Output checks for the benchmark's operations, and the step-count rule."""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

# Tolerances of the conservation suite (grassflow.suites.measure_conservation).
SPECTRUM_TOL = 1e-10
DRIFT_TOL = 1e-6

# Checks each suite reports at its shipped defaults.  A change that drops a
# check fails here even when every remaining check passes.
SUITE_CHECKS = {
    "identities": 6,
    "gradients": 12,
    "conservation": 4,
    "reductions": 6,
    "gauge-compare": 2,
    "curvature": 9,
    "integrable-limit": 3,
    "curve": 2,
}

# A segment whose length is within this fraction of a step of a whole number
# of steps takes that whole number: the stepping loop lands the last step on
# the target rather than take an extra sliver step.
STEP_SLACK = 1e-9


def expected_steps(t0: float, output_times, dt: float) -> int:
    """Steps ``flows.evolve`` must take: the sum over its segments of
    ``ceil((target - t) / dt)``, where each segment starts at the previous
    output time."""
    steps, t = 0, t0
    for target in output_times:
        steps += max(0, math.ceil((target - t) / dt - STEP_SLACK))
        t = target
    return steps


def evolve_expected_steps(bound_args: dict) -> int:
    """``expected_steps`` for one call of ``flows.evolve``, given its bound
    arguments, with the same default output times as ``evolve``."""
    t0 = bound_args["os"].time
    T = bound_args["T"]
    times = bound_args.get("output_times")
    if times is None:
        times = [t0, t0 + T] if T > 0 else [t0]
    return expected_steps(t0, [float(t) for t in times], bound_args["dt"])


def check_simulate_run(run_dir: Path, output_times) -> list[str]:
    """Problems found in one ``grassflow simulate`` run directory."""
    problems = []
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.is_file():
        return ["manifest.json missing"]
    status = json.loads(manifest_path.read_text()).get("status")
    if status != "completed":
        problems.append(f"manifest status is {status!r}")
    try:
        with open(run_dir / "observables.csv", newline="") as f:
            rows = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(f)]
    except (OSError, ValueError, TypeError) as exc:
        return problems + [f"observables.csv unreadable: {exc}"]
    if [row["t"] for row in rows] != [float(t) for t in output_times]:
        problems.append(f"observables.csv has {len(rows)} rows for {len(output_times)} output times")
    if not rows:
        return problems
    for column in ("spectrum_dev", "m_residual"):
        worst = max(row[column] for row in rows)
        if not worst <= SPECTRUM_TOL:
            problems.append(f"max {column} {worst:.3e} exceeds {SPECTRUM_TOL:.0e}")
    h0 = rows[0]["H"]
    drift = max(abs(row["H"] - h0) for row in rows) / max(1.0, abs(h0))
    if not drift <= DRIFT_TOL:
        problems.append(f"relative H drift {drift:.3e} exceeds {DRIFT_TOL:.0e}")
    for index in range(len(output_times)):
        if not (run_dir / f"snapshot_{index:04d}.json").is_file():
            problems.append(f"snapshot_{index:04d}.json missing")
    return problems


def check_suite_report(name: str, report: dict) -> list[str]:
    """Problems found in one ``run_suite`` report."""
    problems = []
    if report.get("suite") != name:
        problems.append(f"report names suite {report.get('suite')!r}")
    if report.get("pass") is not True:
        failing = [c["name"] for c in report.get("checks", []) if not c.get("pass")]
        problems.append(f"suite {name} fails: {failing}")
    count = len(report.get("checks", []))
    if count != SUITE_CHECKS[name]:
        problems.append(f"suite {name} reports {count} checks, expected {SUITE_CHECKS[name]}")
    return problems
