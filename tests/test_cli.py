from __future__ import annotations

import base64
import json
import os
import warnings

import numpy as np
import pytest

import grassflow.cli as cli
import grassflow.flows as flows
from grassflow.algebra import AlgebraSpec, Family
from grassflow.cli import OBSERVABLE_COLUMNS, main
from grassflow.fields import Grid, MatrixField
from grassflow.orbit import OrbitState
from grassflow.suites import SUITES


def _write_config(path, **updates):
    cfg = {
        "algebra": {"family": "compact_u", "n": 2, "k": 1},
        "grid": {"N": 32, "L": 2 * np.pi},
        "params": {"alpha": 1.0, "beta": 0.0, "gamma": 0.0},
        "flow": "leading_order",
        "initial_data": {"generator": "plane_wave", "mode": 1, "amplitude": 0.25},
        "T": 0.002,
        "dt": "auto",
        "seed": 3,
    }
    cfg.update(updates)
    with open(path, "w") as f:
        json.dump(cfg, f)
    return path


def _read(path):
    with open(path, "rb") as f:
        return f.read()


def test_simulate_outputs_are_deterministic(tmp_path):
    cfg = _write_config(tmp_path / "c.json",
                        initial_data={"generator": "random_smooth", "modes": 2})
    for name in ("a", "b"):
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / name)])
        assert rc == 0
    for rel in ("observables.csv", "manifest.json", "snapshot_0000.json", "snapshot_0001.json"):
        assert _read(tmp_path / "a" / rel) == _read(tmp_path / "b" / rel), rel
    manifest = json.loads(_read(tmp_path / "a" / "manifest.json"))
    assert manifest["status"] == "completed"
    assert manifest["resolved"]["dt"] > 0
    header = _read(tmp_path / "a" / "observables.csv").decode().splitlines()[0]
    assert header == ",".join(OBSERVABLE_COLUMNS)
    assert header == "t,E,E21,E22,E23,E2,Etilde,H,spectrum_dev,m_residual"


def test_simulate_zero_duration(tmp_path):
    cfg = _write_config(tmp_path / "c.json", T=0.0)
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    lines = _read(tmp_path / "out" / "observables.csv").decode().splitlines()
    assert len(lines) == 2
    assert os.path.exists(tmp_path / "out" / "snapshot_0000.json")
    assert not os.path.exists(tmp_path / "out" / "snapshot_0001.json")


def test_config_errors_exit_two(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["simulate", "--config", str(missing), "--out", str(tmp_path / "o")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    incomplete = tmp_path / "inc.json"
    incomplete.write_text(json.dumps({"grid": {"N": 32, "L": 6.28}}))
    assert main(["simulate", "--config", str(incomplete), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err
    assert "missing field 'algebra.family'" in err


@pytest.mark.parametrize(
    "command, override",
    [
        ("simulate", "output_times=[0.0, NaN, 0.002]"),
        ("curvature-residual", "lambdas=[NaN, 1.0]"),
        ("curvature-residual", "lambdas=[0.5, Infinity]"),
        ("simulate", "initial_data.amplitude=NaN"),
        ("gauge-compare", "initial_data.amplitude=NaN"),
    ],
    ids=["output_times", "lambdas_nan", "lambdas_inf", "simulate_option", "gauge_option"],
)
def test_non_finite_config_values_exit_two(tmp_path, capsys, command, override):
    cfg = _write_config(tmp_path / "c.json")
    out = tmp_path / "o"
    rc = main([command, "--config", str(cfg), "--out", str(out), "--override", override])
    assert rc == 2
    assert "must be finite" in capsys.readouterr().err
    assert not os.path.exists(out / "manifest.json")


@pytest.mark.parametrize("field", ["algebra.family", "algebra.n", "grid.N", "params.alpha",
                                   "flow", "initial_data", "T", "dt"])
def test_null_required_field_is_missing(tmp_path, capsys, field):
    cfg = _write_config(tmp_path / "c.json")
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out),
                 "--override", f"{field}=null"]) == 2
    assert capsys.readouterr().err == f"config error: missing field '{field}'\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize("override", ["grid.N=Infinity", "grid.N=1e400", "algebra.n=Infinity"])
def test_infinite_sizes_are_config_errors(tmp_path, capsys, override):
    cfg = _write_config(tmp_path / "c.json")
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--override", override]) == 2
    section = override.split(".")[0]
    assert capsys.readouterr().err == (
        f"config error: {section}: cannot convert float infinity to integer\n"
    )
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "override, message",
    [("T=NaN", "T: must be finite"), ("T=Infinity", "T: must be finite"),
     ("dt=NaN", "dt: must be finite"), ("T=1" + "0" * 400, "T: must be finite")],
    ids=["T_nan", "T_inf", "dt_nan", "T_integer_beyond_floats"],
)
def test_non_finite_T_and_dt_are_named_where_parsed(tmp_path, capsys, override, message):
    cfg = _write_config(tmp_path / "c.json")
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--override", override]) == 2
    err = capsys.readouterr().err
    assert f"config error: {message}" in err
    assert "output_times" not in err
    assert not os.path.exists(out)


def test_auto_dt_without_stability_bound_exits_two(tmp_path, capsys):
    # with alpha = beta = 0 the cubic term alone has no explicit step bound
    cfg = _write_config(tmp_path / "c.json", flow="third_order",
                        params={"alpha": 0.0, "beta": 0.0, "gamma": 0.1})
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "no stability bound" in capsys.readouterr().err


def test_override_reaches_manifest_and_run(tmp_path):
    cfg = _write_config(tmp_path / "c.json")
    out = tmp_path / "out"
    rc = main([
        "simulate", "--config", str(cfg), "--out", str(out),
        "--override", "params.alpha=0.5", "--override", "T=0.001",
    ])
    assert rc == 0
    manifest = json.loads(_read(out / "manifest.json"))
    assert manifest["config"]["params"]["alpha"] == 0.5
    assert manifest["config"]["T"] == 0.001
    assert manifest["resolved"]["output_times"][-1] == 0.001


def test_bad_override_exits_two(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.json")
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o"),
               "--override", "alphaonly"])
    assert rc == 2
    assert "key=value" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "gauge-compare", "reduce", "curvature-residual"])
@pytest.mark.parametrize("override, path", [
    ("grid.n=256", "grid.n"),
    ("params.gama=0.1", "params.gama"),
    ("dT=2e-5", "dT"),
    ("algebra.K=1", "algebra.K"),
    ('{"a":1}=2', '{"a":1}'),
])
def test_unknown_field_exits_two(tmp_path, capsys, command, override, path):
    # a field the run never reads would otherwise be ignored, yet recorded in the manifest
    cfg = _write_config(tmp_path / "c.json")
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out), "--override", override]) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: unknown field '{path}'"]
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["simulate", "gauge-compare", "reduce"])
def test_lambdas_is_unknown_outside_curvature_residual(tmp_path, capsys, command):
    # only curvature-residual reads the spectral parameters
    cfg = _write_config(tmp_path / "c.json")
    out = tmp_path / "o"
    argv = [command, "--config", str(cfg), "--out", str(out), "--override", "lambdas=[7]"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "config error: unknown field 'lambdas'\n"
    assert not os.path.exists(out)


def test_lambdas_faults_are_reported_with_the_others(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.json")
    out = tmp_path / "o"
    assert main(["curvature-residual", "--config", str(cfg), "--out", str(out),
                 "--override", "T=true", "--override", "lambdas=[NaN]"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: T: must be a number", "config error: lambdas: must be finite"
    ]
    assert not os.path.exists(out)


def test_every_unknown_field_is_named_and_initial_data_options_reach_the_builder(
    tmp_path, capsys
):
    cfg = _write_config(tmp_path / "c.json", comment="x", grid={"N": 32, "L": 1.0, "n": 256})
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["config error: unknown field 'grid.n'", "config error: unknown field 'comment'"]
    cfg = _write_config(tmp_path / "c.json")
    assert main(["simulate", "--config", str(cfg), "--out", str(out),
                 "--override", "initial_data.bogus=1"]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("config error: initial_data: bad options for generator 'plane_wave'")
    assert not os.path.exists(out)


def test_seed_flag_changes_the_draw(tmp_path):
    cfg = _write_config(tmp_path / "c.json",
                        initial_data={"generator": "random_smooth", "modes": 2})
    outs = {}
    for seed in (1, 2):
        out = tmp_path / f"s{seed}"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--seed", str(seed)]) == 0
        outs[seed] = _read(out / "observables.csv")
        manifest = json.loads(_read(out / "manifest.json"))
        assert manifest["resolved"]["seed"] == seed
    assert outs[1] != outs[2]


def _outputs(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "manifest.json"}


@pytest.mark.parametrize("command", ["simulate", "gauge-compare"])
def test_seed_flag_overrides_both_config_seeds(tmp_path, command):
    # the config gives the same seed twice; --seed replaces it in the draw
    # and in the manifest
    init = {"generator": "random_smooth", "seed": 3, "modes": 2}
    cfg = _write_config(tmp_path / "c.json", initial_data=init)
    runs = {}
    for name, flag in (("config", []), ("flag", ["--seed", "7"])):
        out = tmp_path / name
        assert main([command, "--config", str(cfg), "--out", str(out), *flag]) == 0
        runs[name] = (_outputs(out), json.loads(_read(out / "manifest.json"))["resolved"]["seed"])
    seven = _write_config(tmp_path / "seven.json", initial_data={**init, "seed": 7}, seed=7)
    assert main([command, "--config", str(seven), "--out", str(tmp_path / "seven")]) == 0
    assert runs["config"][1] == 3 and runs["flag"][1] == 7
    assert runs["flag"][0] != runs["config"][0]
    assert runs["flag"][0] == _outputs(tmp_path / "seven")


def test_initial_data_seed_alone_is_the_resolved_seed(tmp_path):
    cfg = _write_config(tmp_path / "c.json", seed=None,
                        initial_data={"generator": "random_smooth", "seed": 5, "modes": 2})
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert json.loads(_read(tmp_path / "a" / "manifest.json"))["resolved"]["seed"] == 5
    flagged = _write_config(tmp_path / "f.json",
                            initial_data={"generator": "random_smooth", "modes": 2})
    assert main(["simulate", "--config", str(flagged), "--out", str(tmp_path / "b"),
                 "--seed", "5"]) == 0
    assert _outputs(tmp_path / "a") == _outputs(tmp_path / "b")


def test_seedless_generator_records_no_seed(tmp_path):
    # plane_wave draws nothing, so --seed changes no file of the run
    cfg = _write_config(tmp_path / "c.json")
    runs = []
    for seed in ("5", "9"):
        out = tmp_path / seed
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--seed", seed]) == 0
        runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert runs[0] == runs[1]
    assert json.loads(runs[0]["manifest.json"])["resolved"]["seed"] is None


def test_differing_config_seeds_exit_two(tmp_path, capsys):
    # one of the two would be ignored
    cfg = _write_config(tmp_path / "c.json", seed=3,
                        initial_data={"generator": "random_smooth", "seed": 4, "modes": 2})
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "seed: 3 differs from initial_data.seed 4" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_snapshot_resume(tmp_path):
    cfg = _write_config(tmp_path / "c.json")
    first = tmp_path / "first"
    assert main(["simulate", "--config", str(cfg), "--out", str(first)]) == 0
    snap = str(first / "snapshot_0001.json")
    cfg2 = _write_config(tmp_path / "c2.json", initial_data={"snapshot": snap}, T=0.001)
    second = tmp_path / "second"
    assert main(["simulate", "--config", str(cfg2), "--out", str(second)]) == 0
    manifest = json.loads(_read(second / "manifest.json"))
    times = manifest["resolved"]["output_times"]
    assert times[0] == pytest.approx(0.002)
    assert times[-1] == pytest.approx(0.003)
    assert manifest["resolved"]["seed"] is None


def test_snapshot_grid_mismatch_exits_two(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.json")
    first = tmp_path / "first"
    assert main(["simulate", "--config", str(cfg), "--out", str(first)]) == 0
    snap = str(first / "snapshot_0000.json")
    cfg2 = _write_config(tmp_path / "c2.json", initial_data={"snapshot": snap},
                         grid={"N": 64, "L": 2 * np.pi})
    assert main(["simulate", "--config", str(cfg2), "--out", str(tmp_path / "o")]) == 2
    assert "grid does not match" in capsys.readouterr().err


def test_unstable_requested_step_aborts_with_manifest(tmp_path, capsys):
    # on para_gl, where no implicit step applies: one line on stderr, and no
    # snapshot or observables file
    cfg = _write_config(tmp_path / "c.json", dt=1.0, algebra={"family": "para_gl", "n": 2, "k": 1})
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    manifest = json.loads(_read(out / "manifest.json"))
    assert manifest["status"] == "aborted"
    assert manifest["abort"]["error"] == "StabilityError"
    message = manifest["abort"]["message"]
    assert message == "dt=1.000e+00 exceeds the stability bound 7.711e-03"
    assert capsys.readouterr().err == f"aborted: {message}\n"
    assert not os.path.exists(out / "snapshot_0000.json")
    assert not os.path.exists(out / "observables.csv")


def _blowup_config(path, **updates):
    # no stability bound without alpha and beta, so dt=0.05 is taken and the
    # quartic term blows up at step 5, t=0.25
    return _write_config(path, flow="third_order",
                         params={"alpha": 0.0, "beta": 0.0, "gamma": 1.0},
                         initial_data={"generator": "random_smooth", "modes": 2},
                         T=2.5, dt=0.05, **updates)


def test_blowup_aborts_with_step_index(tmp_path):
    cfg = _blowup_config(tmp_path / "c.json")
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    manifest = json.loads(_read(out / "manifest.json"))
    assert manifest["status"] == "aborted"
    assert manifest["abort"]["error"] == "FlowBlowupError"
    assert manifest["abort"]["step_index"] >= 1
    assert manifest["abort"]["last_time"] == pytest.approx(
        0.05 * (manifest["abort"]["step_index"] - 1))


def test_blowup_reports_one_line_and_no_numpy_warnings(tmp_path, capsys):
    # the last step's overflow and invalid values are the FlowBlowupError,
    # not RuntimeWarnings that name a source line of the installed package
    cfg = _blowup_config(tmp_path / "c.json")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert caught == []
    assert capsys.readouterr().err == "aborted: non-finite field after step 5 (t=0.25)\n"


@pytest.mark.parametrize("output_times", [None, [0.0, 0.1, 2.5], [0.0, 0.2, 0.3, 2.5]])
def test_blowup_step_index_counts_from_the_start_of_the_run(tmp_path, output_times):
    updates = {} if output_times is None else {"output_times": output_times}
    cfg = _blowup_config(tmp_path / "c.json", **updates)
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
    abort = json.loads(_read(out / "manifest.json"))["abort"]
    assert abort["step_index"] == 5
    assert abort["last_time"] == pytest.approx(0.2)
    assert abort["message"] == "non-finite field after step 5 (t=0.25)"


@pytest.mark.parametrize("command", ["gauge-compare", "reduce"])
def test_aborted_comparison_writes_no_tables(tmp_path, command):
    cfg = _blowup_config(tmp_path / "c.json", output_times=[0.0, 0.1, 2.5])
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    manifest = json.loads(_read(out / "manifest.json"))
    assert manifest["status"] == "aborted"
    assert manifest["abort"]["error"] == "FlowBlowupError"
    assert sorted(os.listdir(out)) == ["manifest.json"]


@pytest.mark.parametrize("family", ["compact_u", "para_gl"])
@pytest.mark.parametrize("command", ["gauge-compare", "reduce"])
def test_comparison_rows_match_separate_runs_to_each_output_time(tmp_path, command, family):
    # one march over all output times lands where a run ending at each of
    # them does: no row depends on the output times after it
    times = [0.0, 0.7e-3, 1.3e-3, 2e-3]
    tables = []
    for last in range(len(times)):
        cfg = _write_config(
            tmp_path / f"c{last}.json",
            algebra={"family": family, "n": 2, "k": 1},
            params={"alpha": 1.0, "beta": 0.1, "gamma": -0.0125},
            flow="third_order",
            initial_data={"generator": "random_smooth", "modes": 2, "amplitude": 0.2},
            T=times[last],
            output_times=times[: last + 1],
        )
        out = tmp_path / f"out{last}"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        tables.append({table.name: _read(table).decode() for table in out.glob("*.csv")})
    full = tables[-1]
    for last, table in enumerate(tables):
        for name, text in table.items():
            lines = text.splitlines()
            if name.startswith("reduce_0"):
                assert text == full[name], (last, name)
            else:
                assert len(lines) == last + 2
                assert lines == full[name].splitlines()[: last + 2], (last, name)


@pytest.mark.parametrize("flow, points", [("third_order", 8), ("leading_order", 4)])
def test_grid_too_small_for_the_stencils_exits_two(tmp_path, capsys, flow, points):
    cfg = _write_config(tmp_path / "c.json", flow=flow, grid={"N": points, "L": 2 * np.pi},
                        dt=1e-6)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "grid.N" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_potential_side_commands_need_full_stencils(tmp_path, capsys):
    # the leading-order flow runs on 8 points, but the potential and
    # connection sides of these commands take fourth derivatives
    cfg = _write_config(tmp_path / "c.json", grid={"N": 8, "L": 2 * np.pi}, dt=1e-6,
                        output_times=[0.0, 1e-6, 2e-6])
    for command in ("gauge-compare", "reduce", "curvature-residual"):
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert "grid.N" in capsys.readouterr().err
        assert not os.path.exists(out)


@pytest.mark.parametrize(
    "command, overrides, messages",
    [
        ("reduce", ["algebra.n=3", "flow=second_order", "grid.N=8"],
         ["algebra: vector reductions need n = 2, k = 1",
          "flow: reduce covers leading_order and third_order",
          "grid.N: reduce needs at least 16 points"]),
        ("curvature-residual", ["grid.N=8", "output_times=[0, 0.002]"],
         ["grid.N: curvature-residual needs at least 16 points",
          "output_times: curvature residuals need at least three snapshots"]),
        ("simulate", ['params={"alpha": 0, "beta": 0, "gamma": 1}', "T=-1"],
         ["T: must be nonnegative",
          "dt: these params have no stability bound; give dt as a number"]),
        ("gauge-compare", ['initial_data={"snapshot": "absent.json"}', "grid.N=8"],
         ["initial_data: gauge-compare starts from a potential generator, not a snapshot",
          "grid.N: gauge-compare needs at least 16 points"]),
    ],
    ids=["reduce", "curvature_residual", "simulate_auto_dt", "gauge_compare_snapshot"],
)
def test_every_fault_of_a_config_is_reported_together(
    tmp_path, capsys, command, overrides, messages
):
    cfg = _write_config(tmp_path / "c.json")
    out = tmp_path / "o"
    argv = [command, "--config", str(cfg), "--out", str(out)]
    for override in overrides:
        argv += ["--override", override]
    assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert sorted(lines) == sorted(f"config error: {message}" for message in messages)
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["simulate", "gauge-compare"])
def test_non_string_generator_is_a_config_error(tmp_path, capsys, command):
    cfg = _write_config(tmp_path / "c.json")
    out = tmp_path / "o"
    override = 'initial_data={"generator": [1]}'
    assert main([command, "--config", str(cfg), "--out", str(out), "--override", override]) == 2
    assert "config error: initial_data:" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "command, overrides, message",
    [
        ("curvature-residual", ["T=2e-5", "output_times=[0,1e-5,2e-5]", 'lambdas="12"'],
         "lambdas: must be a list of numbers"),
        ("curvature-residual", ["T=2e-5", "output_times=[0,1e-5,2e-5]", "lambdas=[1,true]"],
         "lambdas: must be a list of numbers"),
        ("simulate", ["T=0", 'output_times="0"'], "output_times: must be a list of numbers"),
        ("simulate", ["seed=true", "initial_data.seed=true"], "seed: must be an integer"),
        ("simulate", ["seed=1", "initial_data.seed=true"], "seed: must be an integer"),
        ("simulate", ["T=true"], "T: must be a number"),
        ("simulate", ["dt=true"], "dt: must be a number or 'auto'"),
        ("simulate", ["algebra.k=true"], "algebra.k: must be a number"),
        ("simulate", ["grid.L=true"], "grid.L: must be a number"),
        ("simulate", ['grid.N="128"'], "grid.N: must be a number"),
        ("simulate", ["params.alpha=true"], "params.alpha: must be a number"),
        ("simulate", ['params.beta="0.1"'], "params.beta: must be a number"),
    ],
    ids=["lambdas_string", "lambdas_boolean", "output_times_string", "seeds_boolean",
         "initial_data_seed_boolean", "T_boolean", "dt_boolean", "algebra_k_boolean",
         "grid_L_boolean", "grid_N_string", "params_alpha_boolean", "params_beta_string"],
)
def test_strings_and_booleans_are_not_numbers(tmp_path, capsys, command, overrides, message):
    cfg = _write_config(tmp_path / "c.json", flow="third_order",
                        initial_data={"generator": "random_smooth", "modes": 2})
    out = tmp_path / "o"
    argv = [command, "--config", str(cfg), "--out", str(out)]
    for override in overrides:
        argv += ["--override", override]
    assert main(argv) == 2
    assert f"config error: {message}" in capsys.readouterr().err.splitlines()
    assert not os.path.exists(out)


_BAD_AMPLITUDE = "initial_data: bad options for generator 'random_smooth': amplitude must be a number"
_FRACTIONAL_MODE = "initial_data: mode must be a whole number"


@pytest.mark.parametrize(
    "command, override, message",
    [
        ("simulate", "initial_data.amplitude=false", _BAD_AMPLITUDE),
        ("simulate", "initial_data.amplitude=true", _BAD_AMPLITUDE),
        ("simulate", "initial_data.modes=true",
         "initial_data: bad options for generator 'random_smooth': modes must be a number"),
        ("gauge-compare", "initial_data.amplitude=false", _BAD_AMPLITUDE),
        ("simulate", 'initial_data={"generator": "latitude_circle", "mode": 2.5}', _FRACTIONAL_MODE),
        ("simulate", 'initial_data={"generator": "plane_wave", "mode": 2.5}', _FRACTIONAL_MODE),
        ("gauge-compare", 'initial_data={"generator": "plane_wave", "mode": 2.5}', _FRACTIONAL_MODE),
    ],
    ids=["simulate_amplitude_false", "simulate_amplitude_true", "simulate_modes_true",
         "gauge_amplitude_false", "latitude_circle_fraction", "plane_wave_fraction",
         "gauge_plane_wave_fraction"],
)
def test_boolean_and_fractional_generator_options_are_config_errors(
    tmp_path, capsys, command, override, message
):
    # false once ran on a zero potential, and mode 2.5 on a field broken at the wrap
    cfg = _write_config(tmp_path / "c.json", flow="third_order",
                        params={"alpha": 1.0, "beta": 0.1, "gamma": -0.0125},
                        initial_data={"generator": "random_smooth", "modes": 2})
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out), "--override", override]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not os.path.exists(out)


_MODES = "initial_data: modes must be an integer from 1 to 1024, got "
_WIDTH = "initial_data: width must be positive and finite, got "


@pytest.mark.parametrize("command", ["simulate", "gauge-compare"])
@pytest.mark.parametrize(
    "initial_data, message",
    [
        ({"generator": "random_smooth", "seed": 3, "modes": 100000000}, _MODES + "100000000"),
        ({"generator": "random_smooth", "modes": 0}, _MODES + "0"),
        ({"generator": "random_smooth", "modes": -2}, _MODES + "-2"),
        ({"generator": "random_smooth", "modes": 2.0}, _MODES + "2.0"),
        ({"generator": "gaussian_bump", "width": 0}, _WIDTH + "0.0"),
        ({"generator": "gaussian_bump", "width": -0.3}, _WIDTH + "-0.3"),
        ({"generator": "two_bump", "width": 0}, _WIDTH + "0.0"),
    ],
    ids=["modes_huge", "modes_zero", "modes_negative", "modes_float", "gaussian_width_zero",
         "gaussian_width_negative", "two_bump_width_zero"],
)
def test_out_of_range_generator_options_are_config_errors(
    tmp_path, capsys, command, initial_data, message
):
    # a huge modes once allocated terabytes, and modes 0 or width 0 failed
    # with messages about reshapes, envelopes or holonomy
    cfg = _write_config(tmp_path / "c.json", initial_data=initial_data)
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize("modes", [0, 1025, 100000000])
def test_out_of_range_frame_modes_are_config_errors(tmp_path, capsys, modes):
    cfg = _write_config(tmp_path / "c.json",
                        initial_data={"generator": "random_frame", "modes": modes})
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {_MODES}{modes}\n"
    assert not os.path.exists(out)


def test_whole_number_modes_given_as_floats_still_run(tmp_path):
    for generator in ("latitude_circle", "plane_wave"):
        cfg = _write_config(tmp_path / "c.json", T=0.0,
                            initial_data={"generator": generator, "mode": 2.0})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / generator)]) == 0


@pytest.mark.parametrize("output_times", [[0.0, 0.001], []])
@pytest.mark.parametrize("command", ["simulate", "gauge-compare", "reduce"])
def test_output_times_must_end_at_the_end_of_the_run(tmp_path, capsys, command, output_times):
    # a run that stopped at its last output time would report itself completed short of T
    cfg = _write_config(tmp_path / "c.json", output_times=output_times)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert "output_times: must end at start + T = 0.002" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_verify_runs_and_writes_report(tmp_path, capsys):
    out = tmp_path / "report"
    rc = main(["verify", "--suite", "integrable-limit", "--out", str(out)])
    assert rc == 0
    report = json.loads(_read(out / "report.json"))
    assert report["suite"] == "integrable-limit"
    assert report["pass"] is True
    assert '"pass": true' in capsys.readouterr().out


def test_verify_failure_exit_code(tmp_path, failing_suite):
    out = tmp_path / "report"
    assert main(["verify", "--suite", failing_suite, "--out", str(out)]) == 1
    assert json.loads(_read(out / "report.json"))["pass"] is False


@pytest.mark.parametrize("name", sorted(SUITES))
def test_verify_accepts_every_suite(name, monkeypatch, capsys):
    ran = []

    def fake_run_suite(suite):
        ran.append(suite)
        return {"suite": suite, "checks": [], "pass": True}

    monkeypatch.setattr(cli, "run_suite", fake_run_suite)
    assert main(["verify", "--suite", name]) == 0
    assert ran == [name]
    assert json.loads(capsys.readouterr().out)["suite"] == name


def test_verify_rejects_unknown_suite():
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", "bogus"])
    assert err.value.code == 2


@pytest.mark.parametrize("flag, value", [("--config", "c.json"), ("--override", "T=1"),
                                         ("--seed", "1")])
def test_verify_rejects_run_options(capsys, flag, value):
    # a suite runs as it stands: no config, override or seed reaches it
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", "integrable-limit", flag, value])
    assert err.value.code == 2
    assert flag in capsys.readouterr().err


def test_gauge_compare_writes_gap_table(tmp_path):
    cfg = _write_config(
        tmp_path / "c.json",
        grid={"N": 48, "L": 2 * np.pi},
        initial_data={"generator": "random_smooth", "modes": 2, "amplitude": 0.2},
        T=0.001,
    )
    out = tmp_path / "out"
    rc = main(["gauge-compare", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    lines = _read(out / "gauge_compare.csv").decode().splitlines()
    assert lines[0] == "t,norm_gap,interior_linf"
    last = [float(v) for v in lines[-1].split(",")]
    assert last[2] < 1e-4


@pytest.mark.parametrize("n", [2, 3])
def test_gauge_compare_gap_refines_on_split_family(tmp_path, n):
    # the split family's residual gauge is real block-diagonal: it keeps
    # tr(q r) but not |q|, so only the former gap can close under refinement
    gaps = []
    for points in (64, 128):
        cfg = _write_config(
            tmp_path / f"c{points}.json",
            algebra={"family": "para_gl", "n": n, "k": 1},
            grid={"N": points, "L": 2 * np.pi},
            initial_data={"generator": "random_smooth", "seed": 3, "modes": 2, "amplitude": 0.3},
            T=0.001,
        )
        out = tmp_path / f"out{points}"
        assert main(["gauge-compare", "--config", str(cfg), "--out", str(out)]) == 0
        lines = _read(out / "gauge_compare.csv").decode().splitlines()
        assert lines[0] == "t,norm_gap,interior_linf"
        gaps.append(float(lines[-1].split(",")[1]))
    assert gaps[0] < 1e-5
    assert np.log2(gaps[0] / gaps[1]) > 2.0, gaps


def test_gauge_compare_rejects_second_order_flow(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.json", flow="second_order")
    rc = main(["gauge-compare", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "covers leading_order and third_order" in capsys.readouterr().err


def test_reduce_writes_summary_and_profiles(tmp_path):
    cfg = _write_config(
        tmp_path / "c.json",
        initial_data={"generator": "latitude_circle", "mode": 2, "height": 0.5},
        T=0.001,
    )
    out = tmp_path / "out"
    rc = main(["reduce", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    manifest = json.loads(_read(out / "manifest.json"))
    assert manifest["resolved"]["geometry"] == "sphere"
    summary = _read(out / "reduce_summary.csv").decode().splitlines()
    assert summary[0] == "t,max_gap"
    gaps = [float(line.split(",")[1]) for line in summary[1:]]
    assert max(gaps) < 1e-8
    profile = _read(out / "reduce_0000.csv").decode().splitlines()
    assert profile[0] == "x,s1_matrix,s2_matrix,s3_matrix,s1_vector,s2_vector,s3_vector"
    assert len(profile) == 33


@pytest.mark.parametrize("command", ["reduce", "curvature-residual", "gauge-compare"])
def test_leading_order_commands_ignore_beta_and_gamma(tmp_path, command):
    # the leading-order flow is the third-order flow at beta = gamma = 0, so
    # both sides of a comparison must integrate it whatever beta and gamma say
    outputs = []
    for name, params in (
        ("dispersive", {"alpha": 1.0, "beta": 0.1, "gamma": -0.0125}),
        ("plain", {"alpha": 1.0, "beta": 0.0, "gamma": 0.0}),
    ):
        cfg = _write_config(
            tmp_path / f"{name}.json",
            params=params,
            initial_data={"generator": "random_smooth", "modes": 2, "amplitude": 0.3},
            output_times=[0.0, 0.001, 0.002],
        )
        out = tmp_path / name
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        outputs.append({table.name: _read(table) for table in out.glob("*.csv")})
    assert outputs[0] and outputs[0] == outputs[1]


def test_reduce_needs_vector_sized_algebra(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.json", algebra={"family": "compact_u", "n": 3, "k": 1},
                        initial_data={"generator": "random_frame"})
    rc = main(["reduce", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "n = 2" in capsys.readouterr().err


def test_curvature_residual_table(tmp_path):
    cfg = _write_config(
        tmp_path / "c.json",
        params={"alpha": 1.0, "beta": 0.05, "gamma": -0.00625},
        flow="third_order",
        grid={"N": 48, "L": 2 * np.pi},
        initial_data={"generator": "random_smooth", "modes": 2, "amplitude": 0.2},
        T=0.01,
        lambdas=[0.5, 1.0],
    )
    out = tmp_path / "out"
    rc = main(["curvature-residual", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    lines = _read(out / "curvature.csv").decode().splitlines()
    assert lines[0] == "t,lam,residual"
    assert len(lines) == 3
    lams = {float(line.split(",")[1]) for line in lines[1:]}
    assert lams == {0.5, 1.0}


def test_curvature_residual_output_times_before_start_exit_two(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.json", output_times=[-0.001, 0.0, 0.001])
    out = tmp_path / "out"
    assert main(["curvature-residual", "--config", str(cfg), "--out", str(out)]) == 2
    assert "output_times" in capsys.readouterr().err
    assert not os.path.exists(out / "manifest.json")


def test_curvature_residual_needs_three_output_times(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.json", output_times=[0.0, 0.001])
    rc = main(["curvature-residual", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "three snapshots" in capsys.readouterr().err


@pytest.mark.parametrize("family, n, points", [
    ("compact_u", 2, 128), ("noncompact_u", 4, 256), ("para_gl", 3, 17),
])
def test_snapshot_text_matches_json_dump_and_round_trips(tmp_path, family, n, points):
    rng = np.random.default_rng(points)
    shape = (points, n, n)
    phi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    # signed zero, a subnormal, a large and a long-exponent entry, non-finite ones
    phi.flat[:6] = [-0.0 + 0.0j, 5e-324 - 0.0j, 1e16 + 1e-300j, -2.5e-17 + 1e22j,
                    complex(np.nan, np.inf), complex(-np.inf, -np.nan)]
    frame = rng.standard_normal(shape) + 0.0j
    grid = Grid(points, 2 * np.pi)
    state = OrbitState(
        AlgebraSpec(Family(family), n, 1), MatrixField(grid, phi), 1e-5, MatrixField(grid, frame)
    )
    path = tmp_path / "snapshot.json"
    cli._write_json(str(path), state.to_json_dict())
    text = path.read_text()
    assert text == json.dumps(state.to_json_dict(), indent=2, sort_keys=True) + "\n"
    back = OrbitState.from_json_dict(json.loads(text))
    for got, want in ((back.phi.values, phi), (back.frame.values, frame)):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_json_writer_writes_json_dumps_text(tmp_path):
    obj = {
        "b": [1, 2.5, -0.0, 1e-300, None, True],
        "a": {"nested": {"z": "text", "y": "two\nlines"}, "\u00e9": []},
        "nan": float("nan"),
    }
    path = tmp_path / "doc.json"
    cli._write_json(str(path), obj)
    assert path.read_text() == json.dumps(obj, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("family, n, k, framed", [
    ("compact_u", 2, 1, True), ("compact_u", 2, 1, False), ("noncompact_u", 4, 2, True),
], ids=["n2-frame", "n2-no-frame", "n4-k2-frame"])
def test_json_writer_splices_snapshot_payloads_byte_for_byte(tmp_path, family, n, k, framed):
    grid = Grid(256, 2 * np.pi)
    rng = np.random.default_rng(n + framed)
    shape = (grid.num_points, n, n)
    fields_ = [MatrixField(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
               for _ in range(2)]
    state = OrbitState(AlgebraSpec(Family(family), n, k), fields_[0], 2.5e-8,
                       fields_[1] if framed else None)
    obj = state.to_json_dict()
    path = tmp_path / "snapshot.json"
    cli._write_json(str(path), obj)
    assert path.read_bytes() == (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


def test_json_writer_encodes_config_strings_in_a_manifest(tmp_path):
    # strings of a config are encoded, never spliced, even under a key named
    # values or when they hold the writer's splice marker; a field payload
    # beside them is still spliced in its place
    config = {
        "values": 'a "quoted" \\ back\\slash, "#" and #',
        "initial_data": {"values": "#", "#": ['x"#', "\u00e9t\u00e9 \u65e5\u672c \U0001f600"]},
        "note": "tab\tnew\nline",
    }
    manifest = {"config": config, "resolved": {"dt": 1e-8, "seed": None}, "status": "running"}
    manifest["field"] = MatrixField(Grid(4, 1.0), np.full((4, 2, 2), 0.5 - 2j)).to_json_dict()
    path = tmp_path / "manifest.json"
    cli._write_json(str(path), manifest)
    assert path.read_bytes() == (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode()
    with open(path) as f:
        assert json.load(f) == manifest


def _old_format(snapshot: dict) -> dict:
    """snapshot with its fields' values as the nested [re, im] lists that
    snapshots were once written with."""
    old = json.loads(json.dumps(snapshot))
    for key in ("phi", "frame"):
        if key in old:
            field = MatrixField.from_json_dict(old[key])
            shape = field.values.shape + (2,)
            old[key]["values"] = field.values.view(np.float64).reshape(shape).tolist()
    return old


def test_resume_is_bit_exact_from_new_and_old_snapshots(tmp_path):
    example = os.path.join(os.path.dirname(__file__), "..", "configs", "example.json")
    run = ["simulate", "--config", example, "--override", "T=8e-5",
           "--override", "output_times=[0, 4e-5, 8e-5]", "--out"]
    assert main(run + [str(tmp_path / "whole")]) == 0
    snap = json.loads(_read(tmp_path / "whole" / "snapshot_0001.json"))
    old = _old_format(snap)
    assert isinstance(old["phi"]["values"], list)
    old_path = tmp_path / "old.json"
    old_path.write_text(json.dumps(old))
    loaded = OrbitState.from_json_dict(old)
    want = OrbitState.from_json_dict(snap)
    for got, ref in ((loaded.phi, want.phi), (loaded.frame, want.frame)):
        assert np.array_equal(got.values.view(np.uint64), ref.values.view(np.uint64))
    assert loaded.to_json_dict() == want.to_json_dict()
    last_row = _read(tmp_path / "whole" / "observables.csv").splitlines()[-1]
    for name, path in (("new", tmp_path / "whole" / "snapshot_0001.json"), ("old", old_path)):
        out = tmp_path / name
        resume = ["simulate", "--config", example, "--override", "T=4e-5",
                  "--override", "output_times=null",
                  "--override", f"initial_data={json.dumps({'snapshot': str(path)})}",
                  "--out", str(out)]
        assert main(resume) == 0
        assert _read(out / "snapshot_0001.json") == _read(tmp_path / "whole" / "snapshot_0002.json")
        assert _read(out / "observables.csv").splitlines()[-1] == last_row


def _resume_from(tmp_path, snapshot: dict):
    path = tmp_path / "snap.json"
    path.write_text(json.dumps(snapshot))
    cfg = _write_config(tmp_path / "c2.json", initial_data={"snapshot": str(path)})
    out = tmp_path / "o"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
    return rc, out


def _filled_values(fill):
    """base64 values of a 32-point 2x2 field whose every entry is fill."""
    return base64.b64encode(np.full((32, 2, 2), fill, dtype="<c16").tobytes()).decode()


@pytest.mark.parametrize("frame", [
    MatrixField(Grid(64, 2 * np.pi), np.broadcast_to(np.eye(2), (64, 2, 2))),
    MatrixField(Grid(32, 2 * np.pi), np.ones((32, 1, 1))),
    MatrixField(Grid(32, 2 * np.pi), np.full((32, 2, 2), np.nan)),
], ids=["grid", "matrix-size", "NaN"])
def test_snapshot_frame_unlike_phi_exits_two(tmp_path, capsys, frame):
    cfg = _write_config(tmp_path / "c.json")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "first")]) == 0
    snap = json.loads(_read(tmp_path / "first" / "snapshot_0000.json"))
    snap["frame"] = frame.to_json_dict()
    rc, out = _resume_from(tmp_path, snap)
    assert rc == 2
    assert "config error: initial_data.snapshot:" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("key, value", [
    ("values", "not base64!"),
    ("values", base64.b64encode(bytes(16 * 32 * 3)).decode()),
    ("values", None),
    ("values", {"re": 1.0}),
    ("values", _filled_values(np.nan)),
    ("values", _filled_values(np.inf)),
    ("values", _filled_values(-np.inf)),
    ("grid", None),
], ids=["not-base64", "n-squared-3", "null", "object", "NaN", "Infinity", "-Infinity",
        "null-grid"])
def test_malformed_snapshot_fields_exit_two(tmp_path, capsys, key, value):
    cfg = _write_config(tmp_path / "c.json")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "first")]) == 0
    snap = json.loads(_read(tmp_path / "first" / "snapshot_0000.json"))
    snap["phi"][key] = value
    rc, out = _resume_from(tmp_path, snap)
    assert rc == 2
    assert "config error: initial_data.snapshot:" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("time", [float("nan"), float("inf"), float("-inf")],
                         ids=["NaN", "Infinity", "-Infinity"])
def test_snapshot_time_not_finite_exits_two(tmp_path, capsys, time):
    cfg = _write_config(tmp_path / "c.json")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "first")]) == 0
    snap = json.loads(_read(tmp_path / "first" / "snapshot_0001.json"))
    snap["time"] = time
    rc, out = _resume_from(tmp_path, snap)
    assert rc == 2
    assert "config error: initial_data.snapshot:" in capsys.readouterr().err
    assert not os.path.exists(out)


def _midpoint_config(path, **updates):
    # third order on 32 points, where the explicit bound is 1.1e-4
    cfg = dict(
        params={"alpha": 1.0, "beta": 0.1, "gamma": -0.0125},
        flow="third_order",
        initial_data={"generator": "random_smooth", "modes": 2, "amplitude": 0.3},
        dt=0.01,
        T=0.05,
    )
    cfg.update(updates)
    return _write_config(path, **cfg)


def test_simulate_beyond_the_bound_tracks_auto_dt(tmp_path):
    # at 18x the bound the midpoint keeps the energies of an explicit run
    cfg = _midpoint_config(tmp_path / "c.json", T=0.01)
    rows = {}
    for dt in (0.002, "auto"):
        out = tmp_path / str(dt)
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--override", f"dt={json.dumps(dt)}"]) == 0
        lines = _read(out / "observables.csv").decode().splitlines()[1:]
        rows[dt] = np.array([[float(v) for v in line.split(",")] for line in lines])
    iso, rk = rows[0.002], rows["auto"]
    energies = slice(1, OBSERVABLE_COLUMNS.index("H") + 1)
    assert np.max(np.abs(iso[:, energies] / rk[:, energies] - 1.0)) <= 1e-6
    assert np.max(iso[:, -2:]) <= 1e-13


@pytest.mark.parametrize(
    "command, updates",
    [("simulate", {"algebra": {"family": "para_gl", "n": 2, "k": 1}}),
     ("simulate", {"flow": "second_order"}),
     ("gauge-compare", {}),
     ("reduce", {})],
    ids=["para_gl", "second_order", "gauge-compare", "reduce"],
)
def test_dt_beyond_the_bound_is_refused_where_no_implicit_step_applies(tmp_path, command, updates):
    # gauge-compare and reduce compare explicit integrators at the same dt
    cfg = _midpoint_config(tmp_path / "c.json", **updates)
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    manifest = json.loads(_read(out / "manifest.json"))
    assert manifest["abort"]["error"] == "StabilityError"
    assert manifest["abort"]["message"].startswith("dt=1.000e-02 exceeds the stability bound ")


def test_curvature_residual_runs_beyond_the_bound(tmp_path):
    # dt at 9x the bound
    cfg = _midpoint_config(tmp_path / "c.json", dt=1e-3, lambdas=[1.0])
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["curvature-residual", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(_read(out / "curvature.csv").decode().splitlines()) == 2


def test_failed_newton_solve_aborts_with_step_index(tmp_path):
    # the first segment's step of 1e-3 converges; the next, of 3.0, does not
    cfg = _midpoint_config(tmp_path / "c.json", dt=3.0, T=3.001, output_times=[0.0, 0.001, 3.001])
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
    abort = json.loads(_read(out / "manifest.json"))["abort"]
    assert abort["error"] == "NewtonError"
    assert abort["step_index"] == 2
    assert abort["last_time"] == pytest.approx(0.001)
    assert np.isfinite(abort["residual"]) and abort["residual"] > 0
    lines = _read(out / "observables.csv").decode().splitlines()[1:]
    assert len(lines) == 2
    assert all(np.isfinite(float(v)) for line in lines for v in line.split(","))


def test_non_finite_midpoint_step_aborts_without_nan(tmp_path, monkeypatch):
    real = flows._flow

    def nan_flow(*args):
        return real(*args)._replace(generator=lambda phi: np.full_like(phi, np.nan))

    monkeypatch.setattr(flows, "_flow", nan_flow)
    cfg = _midpoint_config(tmp_path / "c.json")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
    text = _read(out / "manifest.json").decode()
    abort = json.loads(text)["abort"]
    assert abort["error"] == "FlowBlowupError"
    assert abort["step_index"] == 1
    assert "NaN" not in text
