"""Time-to-T benchmark for grassflow.

Run from the root of a checkout:

    python3 bench/run.py --workload simulate-example --seed 1 --seconds 30 --trace 0

Workloads (all run in this one process, BLAS/OpenMP pools pinned to one thread):

* ``simulate-example``: ``grassflow simulate`` on the physics of
  ``configs/example.json`` with T scaled down by 100 (output times alike) and
  the initial-data seed taken from ``--seed``.
* ``simulate-wide``: the same CLI path on noncompact_u, n=4, k=2, N=256 with
  one output interval of about 30 steps, so the general Pade exponential,
  the larger stencils and the snapshot writer carry more of the cost.
* ``verify-all``: ``suites.run_suite`` for all eight suites at their shipped
  defaults and seeds.  Suites must not be re-seeded, so ``--seed`` is
  recorded and otherwise unused.

With ``--trace 0`` the run repeats whole operations (one simulate call, or
one pass over all suites) for ``--seconds``, at least ``MIN_OPS`` of them,
and reports the fastest as ``fastest_op_s``.  ``setup_s`` is the fastest of
``SETUPS`` fresh interpreters spread over the run, each timed from spawn until
it has imported ``grassflow.cli`` and, for the simulate workloads, loaded and
parsed the config and run ``build_state`` and ``resolve_dt``.  The fastest
rather than the median: on a shared 2-vCPU virtual machine the speed of the
same 50 RKMK steps drifted by up to a factor of two over tens of seconds,
which moved 30-second medians by a quarter, while the fastest of
0.25-0.5 s operations repeated to about 5%.  Medians and every sample go
into the run's record.  ``peak_rss_mb`` is this process's peak resident set.

With ``--trace 1`` the run makes one untraced and one traced operation on the
same inputs and reports per-layer calls and self time (see ``tracer.py``),
and traced minus untraced wall time as ``trace.overhead_s``.  It also checks
that the traced outputs are byte-identical to the untraced ones and that every
``flows.evolve`` call took exactly the steps ``checks.expected_steps`` gives.

Every operation's output is checked (``checks.py``); an operation that fails
a check counts as failed and is not timed.  The last line of standard output
is the JSON result; the line before it records the environment.  Run
directories, per-run records and span files go under ``.bench_work/``.
"""

from __future__ import annotations

import os

PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)  # before anything imports numpy

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from checks import (  # noqa: E402
    SUITE_CHECKS,
    check_simulate_run,
    check_suite_report,
    evolve_expected_steps,
    expected_steps,
)
from tracer import Tracer, public_functions  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXAMPLE_CONFIG = ROOT / "configs" / "example.json"
WORK = ROOT / ".bench_work"

WORKLOADS = ("simulate-example", "simulate-wide", "verify-all")
LAYERS = (
    "cli",
    "flows",
    "algebra",
    "fields",
    "functionals",
    "orbit",
    "gauge",
    "reductions",
    "initial_data",
    "suites",
)
MIN_OPS = 2
SETUPS = 12

# Simulate operations are kept to a few tenths of a second: on a shared host
# only short operations ever run unhindered, which is what makes the fastest
# of them repeat from run to run.
# simulate-example: configs/example.json runs to T = 0.002 (about 9,200 steps);
# T/100 takes 92 steps of the auto dt 2.18e-7.
EXAMPLE_T = 2e-5
# simulate-wide: one output interval of about 30.5 steps of the auto dt
# (1.36e-8), so the segment does not sit near a whole number of steps.
WIDE_ALGEBRA = {"family": "noncompact_u", "n": 4, "k": 2}
WIDE_POINTS = 256
WIDE_T = 4.15e-7

# Functions whose calls and self time are reported as per-layer metrics.
REPORTED_FUNCTIONS = (
    "cli._write_json",
    "flows.step",
    "flows.evolve",
    "algebra.exp_map",
    "algebra.bracket",
    "fields.periodic_diff",
    "fields.cumulative_trapezoid",
    "functionals.energy_report",
    "functionals.fd_gradient_check",
    "orbit.gauge_fix_frame",
    "orbit.frame_from_potential",
    "orbit.verify_identities",
    "orbit.spectrum_deviation",
    "gauge.evolve_potential",
    "gauge.potential_rhs",
    "gauge.curvature_residual",
    "reductions.spin_step",
    "reductions.cross_check_matrix_vs_vector",
    "initial_data.make_initial_state",
    "initial_data.random_frame_state",
    "initial_data.random_orbit_state",
)

SETUP_CODE = """
import sys, time
import grassflow.cli as cli
if len(sys.argv) > 1:
    rc = cli.parse_run_config(cli.load_config(sys.argv[1]))
    cli.build_state(rc)
    cli.resolve_dt(rc)
print(time.monotonic())
"""


@dataclass
class OpResult:
    """One timed operation: wall time, output problems, output fingerprint."""

    wall: float
    problems: list
    fingerprint: str
    info: dict


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class SimulateWorkload:
    def __init__(self, name: str, seed: int, work: Path, cli):
        self.cli = cli
        cfg = json.loads(EXAMPLE_CONFIG.read_text())
        if name == "simulate-example":
            scale = EXAMPLE_T / cfg["T"]
            cfg["T"] = EXAMPLE_T
            cfg["output_times"] = [t * scale for t in cfg["output_times"]]
        else:
            cfg["algebra"] = dict(WIDE_ALGEBRA)
            cfg["grid"]["N"] = WIDE_POINTS
            cfg["T"] = WIDE_T
            cfg["output_times"] = [0.0, WIDE_T]
        cfg["initial_data"]["seed"] = seed
        cfg["seed"] = seed
        self.config = cfg
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(cfg, indent=2) + "\n")
        self.setup_args = [str(self.config_path)]

    def op(self, out_dir: Path) -> OpResult:
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = ["simulate", "--config", str(self.config_path), "--out", str(out_dir)]
        gc.collect()
        start = time.perf_counter()
        code = self.cli.main(argv)
        wall = time.perf_counter() - start
        problems = [] if code == 0 else [f"grassflow simulate exited with {code}"]
        problems += check_simulate_run(out_dir, self.config["output_times"])
        files = sorted(p for p in out_dir.iterdir() if p.is_file()) if out_dir.is_dir() else []
        fingerprint = _digest("".join(f"{p.name}:{_digest(p.read_bytes())}\n" for p in files).encode())
        info = {
            "snapshot_bytes": sum(p.stat().st_size for p in files if p.name.startswith("snapshot_")),
        }
        manifest = out_dir / "manifest.json"
        if manifest.is_file():
            info["dt"] = json.loads(manifest.read_text())["resolved"]["dt"]
        return OpResult(wall, problems, fingerprint, info)

    def describe(self) -> dict:
        return {
            "config": self.config,
            "T": self.config["T"],
            "output_times": self.config["output_times"],
            "seed_applied": True,
        }


class VerifyWorkload:
    setup_args = ()

    def __init__(self, suites):
        self.suites = suites

    def op(self, out_dir: Path) -> OpResult:
        reports, suite_s, problems = {}, {}, []
        gc.collect()
        start = time.perf_counter()
        for name in SUITE_CHECKS:
            t0 = time.perf_counter()
            reports[name] = self.suites.run_suite(name)
            suite_s[name] = time.perf_counter() - t0
        wall = time.perf_counter() - start
        for name, report in reports.items():
            problems += check_suite_report(name, report)
        text = json.dumps(reports, sort_keys=True)
        return OpResult(wall, problems, _digest(text.encode()), {"suite_s": suite_s})

    def describe(self) -> dict:
        return {
            "suites": list(SUITE_CHECKS),
            "T": "per suite, at shipped defaults",
            "seed_applied": False,
        }


def run_op(workload, out_dir: Path) -> OpResult:
    """One operation; an exception fails the operation rather than the run."""
    start = time.perf_counter()
    try:
        return workload.op(out_dir)
    except Exception:
        return OpResult(time.perf_counter() - start, [traceback.format_exc(limit=4)], "", {})


def checkout_problem() -> str | None:
    for path in (SRC / "grassflow" / "cli.py", EXAMPLE_CONFIG):
        if not path.is_file():
            return f"not a grassflow checkout: {path.relative_to(ROOT)} is missing"
    return None


def load_modules() -> dict:
    sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"grassflow.{name}") for name in LAYERS}
    modules["grassflow"] = sys.modules["grassflow"]
    found = Path(modules["grassflow"].__file__).resolve().parent
    if found != (SRC / "grassflow").resolve():
        raise ImportError(f"grassflow was imported from {found}, not from {SRC}")
    return modules


def measure_setup(args: list) -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, *args],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.split()[-1]) - start


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    """sha256 over the library's sources, which names the code where git cannot."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "grassflow").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(args, workload_info: dict) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": PINNED_THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **workload_info,
    }


def run_untraced(workload, work: Path, seconds: float):
    setups: list[float] = []
    ops: list[OpResult] = []
    start = time.perf_counter()
    while True:
        # Spread the set-ups over the run, so that they sample the same
        # spells of host load as the operations.
        share = min(1.0, (time.perf_counter() - start) / seconds)
        while not setups or len(setups) < SETUPS * share:
            setups.append(measure_setup(workload.setup_args))
        elapsed = time.perf_counter() - start
        if len(ops) >= MIN_OPS and elapsed + min(r.wall for r in ops) > seconds:
            break
        result = run_op(workload, work / "op")
        if ops and result.fingerprint != ops[0].fingerprint:
            result.problems.append("outputs differ from the first operation's")
        ops.append(result)
    while len(setups) < SETUPS:
        setups.append(measure_setup(workload.setup_args))
    # Failed operations are not timed, unless every one failed and the run
    # reports correct: false anyway.
    passed = [r.wall for r in ops if not r.problems] or [r.wall for r in ops]
    metrics = {
        "fastest_op_s": {"value": min(passed), "unit": "s"},
        "setup_s": {"value": min(setups), "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
    }
    record = {
        "op_wall_s": [r.wall for r in ops],
        "op_wall_s_median": statistics.median(passed),
        "setup_s": setups,
        "setup_s_median": statistics.median(setups),
        "ops": [{"problems": r.problems, **r.info} for r in ops],
    }
    suite_runs = [r.info["suite_s"] for r in ops if "suite_s" in r.info and not r.problems]
    if suite_runs:
        record["suite_s_fastest"] = {name: min(run[name] for run in suite_runs) for name in SUITE_CHECKS}
    return ops, metrics, record


def run_traced(workload, work: Path, modules: dict, spans_path: Path):
    base = run_op(workload, work / "op")
    tracer = Tracer()
    signature = inspect.signature(modules["flows"].evolve)

    def capture_evolve(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return evolve_expected_steps(bound.arguments)

    targets = [t for layer in LAYERS for t in public_functions(modules[layer], extra=("_write_json",))]
    tracer.patch(modules, targets, captures={"flows.evolve": capture_evolve})
    try:
        traced = run_op(workload, work / "op_traced")
    finally:
        tracer.restore()

    problems = traced.problems
    if traced.fingerprint != base.fingerprint:
        problems.append("traced outputs differ from the untraced outputs")
    step_counts = tracer.child_counts("flows.step")
    expected_total = 0
    for index, expected in tracer.captured.items():
        expected_total += expected
        taken = step_counts.get(index, 0)
        if taken != expected:
            problems.append(f"flows.evolve span {index} took {taken} steps, expected {expected}")
    summary = tracer.summary()
    steps = summary.get("flows.step", {}).get("calls", 0)
    if steps != expected_total:
        problems.append(f"flows.step ran {steps} times, the step-count rule gives {expected_total}")

    metrics = {}
    for name in REPORTED_FUNCTIONS:
        entry = summary.get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{name}.calls"] = {"value": entry["calls"], "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": entry["self_s"], "unit": "s"}
    metrics["cli.snapshot_bytes"] = {"value": traced.info.get("snapshot_bytes", 0), "unit": "bytes"}
    suite_s = traced.info.get("suite_s", {})
    for name in SUITE_CHECKS:
        metrics[f"suites.{name}.wall_s"] = {"value": suite_s.get(name, 0.0), "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced.wall - base.wall, "unit": "s"}
    metrics["trace.spans"] = {"value": len(tracer), "unit": "count"}

    spans_path.write_text(json.dumps(tracer.to_json()))
    record = {
        "untraced_wall_s": base.wall,
        "traced_wall_s": traced.wall,
        "steps_taken": steps,
        "steps_expected": expected_total,
        "functions": summary,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "ops": [{"problems": r.problems, **r.info} for r in (base, traced)],
    }
    return [base, traced], metrics, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    problem = checkout_problem()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    try:
        modules = load_modules()
    except ImportError as exc:
        print(f"cannot import grassflow: {exc}", file=sys.stderr)
        return 2

    work = WORK / args.workload
    records = WORK / "records"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    records.mkdir(parents=True, exist_ok=True)
    if args.workload == "verify-all":
        workload = VerifyWorkload(modules["suites"])
    else:
        workload = SimulateWorkload(args.workload, args.seed, work, modules["cli"])

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        ops, metrics, record = run_traced(workload, work, modules, records / f"{stem}.spans.json")
    else:
        ops, metrics, record = run_untraced(workload, work, args.seconds)

    info = workload.describe()
    dts = {r.info["dt"] for r in ops if "dt" in r.info}
    if dts:
        info["dt"] = dts.pop() if len(dts) == 1 else sorted(dts)
    if "steps_taken" in record:
        info["steps"] = record["steps_taken"]
    elif "output_times" in info and "dt" in info:
        times = info["output_times"]
        info["steps"] = expected_steps(times[0], times, info["dt"])
    env = environment(args, info)
    failed = sum(1 for r in ops if r.problems)
    for r in ops:
        for line in r.problems:
            print(f"check failed: {line}", file=sys.stderr)
    (records / f"{stem}.json").write_text(
        json.dumps({"environment": env, "metrics": metrics, **record}, indent=1) + "\n"
    )
    print(json.dumps({"environment": env}))
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
