"""Command-line behavior: artifacts, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trapqa.cli import main
from trapqa.electrostatics import paper_trap_geometry
from trapqa.thermometry import SENSOR_PRESETS, RTModel, model_resistance


def run_cli(*args):
    return main([str(a) for a in args])


def test_dissipation_to_stdout(capsys):
    assert run_cli("dissipation") == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert len(lines) == 7  # header + 3 presets x 2 temperatures
    assert lines[0].startswith("trap,")


def test_dissipation_to_file(tmp_path):
    out = tmp_path / "report.csv"
    assert run_cli("dissipation", "--out", out) == 0
    text = out.read_text()
    assert "si_partial_shield" in text
    assert "fused_silica" in text


def test_wafertest_clean_chip(tmp_path):
    log = tmp_path / "steps.csv"
    summary = tmp_path / "summary.json"
    assert run_cli("wafertest", "--out", log, "--summary", summary) == 0
    blob = json.loads(summary.read_text())
    assert blob["outcome"] == "PASS"
    assert blob["steps_executed"] == 480
    assert blob["plan_steps"] == 480
    assert blob["elapsed_s"] == pytest.approx(7.8, abs=0.1)
    assert len(log.read_text().strip().split("\n")) == 481


def test_wafertest_faulty_chip_exits_1(tmp_path):
    faults = tmp_path / "faults.json"
    faults.write_text(json.dumps({"faults": [{"kind": "OPEN", "net": "DC05"}]}))
    log = tmp_path / "steps.csv"
    assert run_cli("wafertest", "--faults", faults, "--out", log) == 1
    assert "CONTINUITY_FAIL" in log.read_text()


@pytest.mark.parametrize(
    "fault", [{"kind": "OPEN", "net": "DC99"}, {"kind": "HW_FAIL", "step_index": 999}]
)
def test_wafertest_unhostable_fault_exits_2(tmp_path, capsys, fault):
    faults = tmp_path / "faults.json"
    faults.write_text(json.dumps({"faults": [fault]}))
    log = tmp_path / "steps.csv"
    err = _refused(capsys, "wafertest", "--faults", faults, "--out", log)
    assert "DC99" in err or "step 999" in err
    assert not log.exists()


def test_yieldmap_artifacts_are_deterministic(tmp_path):
    paths = {}
    for tag in ("a", "b"):
        svg = tmp_path / f"{tag}.svg"
        csv_ = tmp_path / f"{tag}.csv"
        stats = tmp_path / f"{tag}.json"
        code = run_cli(
            "--seed", 99, "yieldmap",
            "--out-svg", svg, "--out-csv", csv_, "--out-stats", stats,
        )
        assert code in (0, 1)
        paths[tag] = (svg.read_bytes(), csv_.read_bytes(), stats.read_bytes())
    assert paths["a"] == paths["b"]


def test_yieldmap_seed_changes_output(tmp_path):
    outs = []
    for seed in (1, 2):
        svg = tmp_path / f"s{seed}.svg"
        csv_ = tmp_path / f"s{seed}.csv"
        run_cli("--seed", seed, "yieldmap", "--out-svg", svg, "--out-csv", csv_)
        outs.append(csv_.read_bytes())
    assert outs[0] != outs[1]


def test_yieldmap_planted_cell_flags_and_exits_1(tmp_path):
    svg = tmp_path / "map.svg"
    csv_ = tmp_path / "map.csv"
    stats = tmp_path / "stats.json"
    code = run_cli(
        "--seed", 7, "yieldmap",
        "--plant-cell", "1,1,LEAK_DC_DC,0.9",
        "--out-svg", svg, "--out-csv", csv_, "--out-stats", stats,
    )
    assert code == 1
    blob = json.loads(stats.read_text())
    assert [1, 1] in blob["flagged_cells"]


def test_field_scan(tmp_path):
    out = tmp_path / "scan.csv"
    assert run_cli("field", "--z", "50:200:4", "--y", "42.331:42.331:1", "--out", out) == 0
    rows = out.read_text().strip().split("\n")
    assert len(rows) == 5
    assert rows[0].split(",")[:4] == ["x_um", "y_um", "z_um", "phi_V"]


def test_strayfield(tmp_path):
    applied = tmp_path / "applied.json"
    reference = tmp_path / "ref.json"
    applied.write_text(json.dumps({"CP1": 0.5}))
    reference.write_text(json.dumps({"CP1": 0.0}))
    out = tmp_path / "stray.json"
    assert run_cli(
        "strayfield", "--applied", applied, "--reference", reference,
        "--point", "0,42.3,124.4", "--out", out,
    ) == 0
    blob = json.loads(out.read_text())
    assert len(blob["E_stray_V_per_m"]) == 3
    assert blob["magnitude_V_per_m"] > 0


def _scenario(tmp_path, fault):
    spec = {
        "geometry": "builtin",
        "voltages": {
            "DC17": 1.0, "DC18": -2.0, "DC19": 1.0,
            "DC52": 1.0, "DC53": -2.0, "DC54": 1.0,
        },
        "scales": [1.0, 2.0, 4.0],
        "window_um": [-300, 300],
        "fault": fault,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(spec))
    return path


def test_diagnose_nominal_exits_0(tmp_path):
    scenario = _scenario(tmp_path, {"kind": "NOMINAL"})
    out = tmp_path / "diag.json"
    assert run_cli("diagnose", "--scenario", scenario, "--out", out) == 0
    assert json.loads(out.read_text())["classification"] == "NOMINAL"


def test_diagnose_short_exits_1(tmp_path):
    scenario = _scenario(tmp_path, {"kind": "SHORTED", "electrode": "DC19"})
    out = tmp_path / "diag.json"
    assert run_cli("diagnose", "--scenario", scenario, "--out", out) == 1
    assert json.loads(out.read_text())["classification"] == "SHORTED"


def test_diagnose_from_measurements_csv(tmp_path):
    scenario = _scenario(tmp_path, {"kind": "NOMINAL"})
    meas = tmp_path / "meas.csv"
    # positions pinned regardless of scale: a grounded short
    meas.write_text("scale,position_um\n1.0,14.4\n2.0,14.4\n4.0,14.4\n")
    out = tmp_path / "diag.json"
    assert run_cli(
        "diagnose", "--scenario", scenario, "--measurements", meas, "--out", out
    ) == 1
    assert json.loads(out.read_text())["classification"] == "SHORTED"


def test_thermo_preset_readout(tmp_path):
    out = tmp_path / "thermo.json"
    assert run_cli(
        "thermo", "--preset", "TS1", "--resistance", 29500, "--out", out
    ) == 0
    blob = json.loads(out.read_text())
    assert blob["sensitivity_10_15_K"] == pytest.approx(2.5, abs=0.5)
    assert "T_K" in blob["readout"]


def test_thermo_out_of_range_exits_1(tmp_path):
    out = tmp_path / "thermo.json"
    assert run_cli("thermo", "--preset", "TS2", "--resistance", 1.0, "--out", out) == 1
    assert "error" in json.loads(out.read_text())["readout"]


def test_thermo_fit_from_csv(tmp_path):
    import numpy as np

    from trapqa.thermometry import RTModel, model_resistance

    truth = RTModel(r_res=2000.0, amplitude=5100.0, theta=180.0)
    ts = np.linspace(4.0, 300.0, 40)
    rows = ["T_K,R_ohm"]
    rows += [f"{t},{model_resistance(truth, t)}" for t in ts]
    cal = tmp_path / "cal.csv"
    cal.write_text("\n".join(rows) + "\n")
    out = tmp_path / "fit.json"
    assert run_cli("thermo", "--calibration", cal, "--out", out) == 0
    blob = json.loads(out.read_text())
    assert blob["model"]["theta"] == pytest.approx(180.0, rel=1e-3)
    # how the fit ended: least_squares' convergence status (1..4) and its count
    # of residual evaluations, next to chi2 and dof
    assert type(blob["fit_status"]) is int and 1 <= blob["fit_status"] <= 4
    assert type(blob["fit_nfev"]) is int and blob["fit_nfev"] > 0


def test_heating_default_site(tmp_path):
    out = tmp_path / "heating.json"
    assert run_cli("heating", "--out", out) == 0
    blob = json.loads(out.read_text())
    assert blob["n_points"] == 8
    assert 1.5 <= blob["alpha"] <= 2.5


def test_heating_from_csv(tmp_path):
    rows = ["site,frequency_mhz,rate_quanta_per_s,sigma_quanta_per_s"]
    for f in (0.5, 1.0, 2.0, 4.0):
        rows.append(f"3,{f},{20.0 * f**-2},{0.5 * f**-2}")
    table = tmp_path / "rates.csv"
    table.write_text("\n".join(rows) + "\n")
    out = tmp_path / "fit.json"
    assert run_cli("heating", "--csv", table, "--site", 3, "--out", out) == 0
    assert json.loads(out.read_text())["alpha"] == pytest.approx(2.0, abs=1e-6)


# (arguments, the path the message must name): a path the command cannot
# read or write, as the user typed it
_UNUSABLE_PATHS = [
    (["diagnose", "--scenario", "nope.json", "--out", "out.json"], "nope.json"),
    (["heating", "--csv", "adir", "--out", "out.json"], "adir"),
    (["thermo", "--calibration", "adir", "--out", "out.json"], "adir"),
    (["wafertest", "--netlist", "adir", "--out", "out.csv"], "adir"),
    (["dissipation", "--out", "missing_dir/out.csv"], "missing_dir/out.csv"),
    (["dissipation", "--out", "afile/out.csv"], "afile/out.csv"),
    (["heating", "--out", "adir"], "adir"),
]


def test_missing_input_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    (tmp_path / "afile").write_text("")
    for args, path in _UNUSABLE_PATHS:
        err = _refused(capsys, *args)
        assert err.count("\n") == 1 and err.startswith(f"trapqa: cannot use {path}: "), args
        assert not list(tmp_path.glob("out.*")) and not list(tmp_path.glob("**/.tmp_*")), args


def test_unprintable_path_is_refused_on_one_line(tmp_path, capsys, monkeypatch):
    # a scenario names its geometry file in document text, which may hold a newline
    monkeypatch.chdir(tmp_path)
    (tmp_path / "scenario.json").write_text(json.dumps({**_SCENARIO, "geometry": "a\nb.json"}))
    err = _refused(capsys, "diagnose", "--scenario", "scenario.json", "--out", "out.json")
    assert err.count("\n") == 1 and err.startswith("trapqa: cannot use 'a\\nb.json': ")


def test_unexpected_error_exits_3_with_traceback(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("a bug")

    monkeypatch.setattr("trapqa.cli._cmd_dissipation", broken)
    assert run_cli("dissipation") == 3
    err = capsys.readouterr().err
    assert err.startswith("Traceback") and err.endswith("RuntimeError: a bug\n")


@pytest.mark.parametrize(
    "args, option, value",
    [
        (["field"], "--x", "-100:100:20"),
        (["field", "--x", "-20:20:3"], "--y", "-50:50:5"),
        (["field", "--x", "-5:5:3"], "--z", "50:150:4"),
        (["strayfield", "--applied", "applied.json", "--reference", "ref.json"], "--point", "-10,42.3,124.4"),
    ],
)
def test_option_value_may_start_with_minus(tmp_path, monkeypatch, args, option, value):
    # "--x -100:100:20" writes the bytes of "--x=-100:100:20"
    monkeypatch.chdir(tmp_path)
    _stray_inputs(tmp_path)
    written = []
    for form in ([option, value], [f"{option}={value}"]):
        assert run_cli(*args, *form, "--out", "out.txt") == 0
        written.append((tmp_path / "out.txt").read_bytes())
    assert written[0] == written[1]


def _refused(capsys, *args):
    """Run a command that must refuse: exit 2 with a message on stderr."""
    with pytest.raises(SystemExit) as exc:
        run_cli(*args)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.strip()
    return err


def _stray_inputs(tmp_path):
    applied = tmp_path / "applied.json"
    reference = tmp_path / "ref.json"
    applied.write_text(json.dumps({"CP1": 0.5}))
    reference.write_text(json.dumps({"CP1": 0.0}))
    return ["strayfield", "--applied", applied, "--reference", reference]


_YIELDMAP_OUT = ["--out-svg", "out.svg", "--out-csv", "out.csv"]


@pytest.mark.parametrize(
    "args, message",
    [
        pytest.param(["strayfield", "--applied", "applied.json", "--reference", "ref.json", "--point", "1,2",
                      "--out", "out.json"], "--point needs x,y,z in um, got '1,2'", id="strayfield_point"),
        pytest.param(["heating", "--csv", "rates.csv", "--out", "out.json"], "at least 3 records, got 1",
                     id="heating_few"),
        pytest.param(["diagnose", "--scenario", "scenario.json", "--out", "out.json"], "scenario has no 'fault'",
                     id="diagnose_no_fault"),
        pytest.param(["thermo", "--resistance", "1000.0", "--out", "out.json"], "thermo needs --preset or",
                     id="thermo_no_input"),
        # option strings of the wrong form name the option and the form
        pytest.param(["field", "--x", "0:10", "--out", "out.csv"], "--x needs lo:hi:n in um, got '0:10'",
                     id="field_axis_two_fields"),
        pytest.param(["field", "--z", "50:150:ten", "--out", "out.csv"], "--z needs lo:hi:n in um",
                     id="field_axis_count_not_a_number"),
        # a value that starts with "-" reaches the command's own check
        pytest.param(["field", "--z", "-10:90:3", "--out", "out.csv"], "outside the half space z > 0",
                     id="field_axis_starts_with_minus"),
        pytest.param(["yieldmap", "--plant-cell", "1,2,LEAK_DC_DC", *_YIELDMAP_OUT],
                     "--plant-cell needs cx,cy,CODE,rate, got '1,2,LEAK_DC_DC'", id="plant_cell_three_fields"),
        pytest.param(["yieldmap", "--plant-cell", "1,b,LEAK_DC_DC,0.9", *_YIELDMAP_OUT],
                     "--plant-cell needs cx,cy,CODE,rate", id="plant_cell_not_a_number"),
        pytest.param(["yieldmap", "--plant-edge", "LEAK_DC_DC,0.9", *_YIELDMAP_OUT],
                     "--plant-edge needs CODE,rate,annulus_fraction, got 'LEAK_DC_DC,0.9'",
                     id="plant_edge_two_fields"),
        # a failure code outside wafertest.FAILURE_CODES would become a new outcome class
        pytest.param(["yieldmap", "--rates", "codes.json", *_YIELDMAP_OUT], "unknown failure code 'FOO'",
                     id="rates_unknown_code"),
        pytest.param(["yieldmap", "--plant-cell", "1,1,FOO,0.9", *_YIELDMAP_OUT], "unknown failure code 'FOO'",
                     id="plant_cell_unknown_code"),
        pytest.param(["yieldmap", "--plant-edge", "FOO,0.5,0.2", *_YIELDMAP_OUT], "unknown failure code 'FOO'",
                     id="plant_edge_unknown_code"),
        pytest.param(["yieldmap", "--plant-edge", "-LEAK_DC_GND,0.5,0.2", *_YIELDMAP_OUT],
                     "unknown failure code '-LEAK_DC_GND'", id="plant_edge_signed_code"),
        pytest.param(["--seed", "-1", "yieldmap", *_YIELDMAP_OUT], "--seed needs a whole number in [0, 2**128)",
                     id="seed_negative"),
        pytest.param(["--seed", str(2**128), "yieldmap", *_YIELDMAP_OUT], "--seed needs a whole number",
                     id="seed_too_large"),
    ],
)
def test_input_errors_exit_2_with_message(tmp_path, capsys, monkeypatch, args, message):
    monkeypatch.chdir(tmp_path)
    _stray_inputs(tmp_path)
    (tmp_path / "rates.csv").write_text("site,frequency_mhz,rate_quanta_per_s,sigma_quanta_per_s\n3,1.0,20.0,0.5\n")
    (tmp_path / "codes.json").write_text(json.dumps({"LEAK_DC_DC": 0.1, "FOO": 0.1}))
    _scenario(tmp_path, None)
    err = _refused(capsys, *args)
    assert err.count("\n") == 1 and err.startswith("trapqa: bad input:")
    assert message in err
    assert not list(tmp_path.glob("out.*"))


@pytest.mark.parametrize("z", ["-50:-50:1", "0:0:1", "nan:nan:1", "-10:90:3"])
def test_field_below_plane_exits_2(tmp_path, capsys, z):
    volts = tmp_path / "volts.json"
    volts.write_text(json.dumps({"DC18": 1.0}))
    out = tmp_path / "scan.csv"
    err = _refused(capsys, "field", "--voltages", volts, "--y=42:42:1", f"--z={z}", "--out", out)
    assert "z > 0" in err
    assert not out.exists()


@pytest.mark.parametrize("point", ["0,42.3,-124.4", "0,42.3,0", "inf,42.3,124.4"])
def test_strayfield_below_plane_exits_2(tmp_path, capsys, point):
    out = tmp_path / "stray.json"
    err = _refused(capsys, *_stray_inputs(tmp_path), "--point", point, "--out", out)
    assert "z > 0" in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_field_non_finite_voltage_exits_2(tmp_path, capsys, value):
    volts = tmp_path / "volts.json"
    volts.write_text(f'{{"DC01": {value}}}')
    out = tmp_path / "scan.csv"
    err = _refused(capsys, "field", "--voltages", volts, "--out", out)
    assert "'DC01' is not finite" in err
    assert not out.exists()


@pytest.mark.parametrize("name", ["applied.json", "ref.json"])
def test_strayfield_non_finite_voltage_exits_2(tmp_path, capsys, name):
    args = _stray_inputs(tmp_path)
    (tmp_path / name).write_text('{"CP1": 0.5, "CP2": NaN}')
    out = tmp_path / "stray.json"
    err = _refused(capsys, *args, "--point", "0,42.3,124.4", "--out", out)
    assert "'CP2' is not finite" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "voltages, fault, message",
    [
        ({"DC18": float("nan")}, {"kind": "NOMINAL"}, "'DC18' is not finite"),
        (
            {},
            {"kind": "FLOATING", "electrode": "DC19", "held_voltage": float("inf")},
            "held_voltage",
        ),
        (
            {},
            {"kind": "GAP_CHARGE", "charge_rects_um": [[-10, 10, 30, 34]],
             "charge_voltage": float("nan")},
            "charge_voltage",
        ),
    ],
    ids=["voltage", "held_voltage", "charge_voltage"],
)
def test_diagnose_non_finite_voltage_exits_2(tmp_path, capsys, voltages, fault, message):
    spec = json.loads(_scenario(tmp_path, fault).read_text())
    spec["voltages"].update(voltages)
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(spec))
    out = tmp_path / "diag.json"
    err = _refused(capsys, "diagnose", "--scenario", scenario, "--out", out)
    assert message in err and "not finite" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["dissipation", "--v0", "nan"],
        ["dissipation", "--freq-mhz", "inf"],
        ["thermo", "--preset", "TS1", "--resistance", "nan"],
        ["thermo", "--preset", "TS1", "--meter-resolution=-inf"],
        ["field", "--rf-volts", "nan"],
    ],
    ids=["v0", "freq_mhz", "resistance", "meter_resolution", "rf_volts"],
)
def test_non_finite_number_option_exits_2(tmp_path, capsys, args):
    out = tmp_path / "out"
    err = _refused(capsys, *args, "--out", out)
    assert "not a finite number" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["dissipation", "--freq-mhz", "0"],
        ["dissipation", "--freq-mhz", "-3"],
        ["dissipation", "--v0", "0"],
        ["dissipation", "--v0", "-160"],
        ["thermo", "--preset", "TS1", "--resistance", "29500", "--meter-resolution", "-1"],
        ["thermo", "--preset", "TS1", "--resistance", "29500", "--meter-resolution", "0"],
    ],
    ids=[
        "freq_mhz_zero",
        "freq_mhz_negative",
        "v0_zero",
        "v0_negative",
        "meter_resolution_negative",
        "meter_resolution_zero",
    ],
)
def test_nonpositive_number_option_exits_2(tmp_path, capsys, args):
    out = tmp_path / "out"
    err = _refused(capsys, *args, "--out", out)
    assert "must be above zero" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["--freq-mhz", "1e300"],
        ["--freq-mhz", "1e150"],
        ["--freq-mhz", "1e-300"],
        ["--v0", "1e300"],
        ["--v0", "1e300", "--freq-mhz", "1000"],
    ],
    ids=[
        "freq_mhz_square_overflows",
        "freq_mhz_huge",
        "freq_mhz_admittance_underflows",
        "v0_square_overflows",
        "v0_square_overflows_above_validity_limit",
    ],
)
def test_dissipation_drive_without_finite_power_exits_2(tmp_path, capsys, args):
    # these used to exit 3 (OverflowError, ZeroDivisionError) or, for v0, exit
    # 0 with inf and nan in every row; at 1000 MHz the refusal used to follow
    # a warning about the small-loss split
    out = tmp_path / "power.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = _refused(capsys, "dissipation", *args, "--out", out)
    assert err.splitlines() == [err.strip()]
    assert err.startswith("trapqa: bad input: the drive v0 = ") and "not finite" in err
    assert not out.exists()


@pytest.mark.parametrize("axis", ["--x=0:0:0", "--y=42:42:0", "--z=50:150:-2"])
def test_field_axis_without_points_exits_2(tmp_path, capsys, axis):
    out = tmp_path / "f.csv"
    err = _refused(capsys, "field", axis, "--out", out)
    assert "n >= 1" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "rates, args, message",
    [
        ({"CONTINUITY_FAIL": -0.5}, ["--rates", "rates.json"], "rate of CONTINUITY_FAIL"),
        ({"CONTINUITY_FAIL": 1.5}, ["--rates", "rates.json"], "rate of CONTINUITY_FAIL"),
        ({}, ["--plant-cell", "1,1,LEAK_DC_DC,1.5"], "cell boost rate of LEAK_DC_DC"),
        ({}, ["--plant-edge", "LEAK_DC_GND,0.6,-0.2"], "edge annulus fraction of LEAK_DC_GND"),
    ],
    ids=["rate_negative", "rate_above_one", "plant_cell", "plant_edge"],
)
def test_yieldmap_rate_outside_unit_interval_exits_2(tmp_path, capsys, monkeypatch, rates, args, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "rates.json").write_text(json.dumps(rates))
    outs = ["w.svg", "w.csv", "w.json"]
    err = _refused(
        capsys, "yieldmap", *args, "--out-svg", outs[0], "--out-csv", outs[1], "--out-stats", outs[2]
    )
    assert message in err and "[0, 1]" in err
    assert not any((tmp_path / o).exists() for o in outs)


@pytest.mark.parametrize(
    "cell",
    ["0,0,LEAK_DC_DC,1.0", "5,2,LEAK_DC_DC,0.9", "-1,1,LEAK_DC_DC,0.9"],
    ids=["test_cell", "outside_reticle", "negative_column"],
)
def test_yieldmap_plant_cell_without_chip_exits_2(tmp_path, capsys, monkeypatch, cell):
    # a process-control cell and cells outside the 3x3 reticle hold no chip to plant
    monkeypatch.chdir(tmp_path)
    err = _refused(capsys, "yieldmap", "--plant-cell", cell, *_YIELDMAP_OUT)
    cx, cy = cell.split(",")[:2]
    assert f"cell ({cx}, {cy}) holds no chip" in err
    assert not list(tmp_path.glob("out.*"))


@pytest.mark.parametrize("rate", ["0.2", None, True, [0.2]], ids=["string", "null", "bool", "list"])
def test_yieldmap_non_number_rate_exits_2(tmp_path, capsys, monkeypatch, rate):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "rates.json").write_text(json.dumps({"LEAK_DC_DC": 0.2, "CONTINUITY_FAIL": rate}))
    err = _refused(capsys, "yieldmap", "--rates", "rates.json", "--out-svg", "w.svg", "--out-csv", "w.csv")
    assert "rate of CONTINUITY_FAIL must be a number" in err
    assert not (tmp_path / "w.svg").exists() and not (tmp_path / "w.csv").exists()


def test_yieldmap_stats_without_a_passing_chip_exits_2(tmp_path, capsys, monkeypatch):
    # the map and the CSV used to be written before the defect estimate refused
    monkeypatch.chdir(tmp_path)
    (tmp_path / "rates.json").write_text(json.dumps({"CONTINUITY_FAIL": 1.0}))
    outs = ["w.svg", "w.csv", "w.json"]
    err = _refused(
        capsys, "yieldmap", "--rates", "rates.json", "--out-svg", outs[0], "--out-csv", outs[1], "--out-stats", outs[2]
    )
    assert err.count("\n") == 1 and "no chip passed" in err
    assert not any((tmp_path / o).exists() for o in outs)


def test_parser_defaults_match_the_analysis_modules():
    # the parser repeats these so that building it imports no analysis module
    from trapqa import cli, dissipation, thermometry

    assert cli.DRIVE_V0 == dissipation.DEFAULT_DRIVE_V0
    assert cli.SENSOR_PRESET_NAMES == tuple(sorted(thermometry.SENSOR_PRESETS))


def test_thermo_unconverged_fit_exits_2(tmp_path, capsys, starved_fit):
    cal = tmp_path / "cal.csv"
    cal.write_text("T_K,R_ohm\n4,2000.1\n77,2400.5\n150,3900.2\n295,6800.9\n")
    out = tmp_path / "fit.json"
    err = _refused(capsys, "thermo", "--calibration", cal, "--out", out)
    assert "status 0" in err
    assert not out.exists()


@pytest.mark.parametrize("t_k", ["0", "-4"])
def test_thermo_calibration_nonpositive_temperature_exits_2(tmp_path, capsys, t_k):
    cal = tmp_path / "cal.csv"
    cal.write_text(f"T_K,R_ohm\n{t_k},2000.1\n77,2400.5\n150,3900.2\n295,6800.9\n")
    out = tmp_path / "fit.json"
    err = _refused(capsys, "thermo", "--calibration", cal, "--out", out)
    assert "temperature must be positive" in err
    assert not out.exists()


@pytest.mark.parametrize("t_k", ["1e-60", "1e300", "1e-310"])
def test_thermo_calibration_temperature_without_finite_model_exits_2(tmp_path, capsys, t_k):
    # (Theta/T)**5, (T/Theta)**5 or Theta/T itself is not a finite double
    cal = tmp_path / "cal.csv"
    cal.write_text(f"T_K,R_ohm\n{t_k},2000.1\n77,2400.5\n150,3900.2\n295,6800.9\n")
    out = tmp_path / "fit.json"
    err = _refused(capsys, "thermo", "--calibration", cal, "--out", out)
    assert err.count("\n") == 1 and err.startswith(f"trapqa: bad input: temperature {float(t_k)!r} K")
    assert not out.exists()


def test_thermo_preset_with_calibration_exits_2(tmp_path, capsys):
    # the preset would win and the calibration file would never be opened
    out = tmp_path / "thermo.json"
    err = _refused(capsys, "thermo", "--preset", "TS1", "--calibration", tmp_path / "missing.csv", "--out", out)
    assert "--calibration: not allowed with argument --preset" in err
    assert not out.exists()


@pytest.mark.parametrize("filled", [1, 3, 19])
def test_thermo_partial_sigma_column_exits_2(tmp_path, capsys, filled):
    # one filled row used to weigh every row alike; three hit a numpy broadcast error
    rows = [f"{4 + 15 * k},{2000 + 25 * k * k},{5 if k < filled else ''}" for k in range(20)]
    cal = tmp_path / "cal.csv"
    cal.write_text("\n".join(["T_K,R_ohm,sigma_ohm", *rows]) + "\n")
    out = tmp_path / "fit.json"
    err = _refused(capsys, "thermo", "--calibration", cal, "--out", out)
    assert err == (
        f"trapqa: bad input: --calibration: sigma_ohm is on {filled} of 20 rows; give it on all rows or none\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("temps", [[10, 10, 10, 10], [10, 20, 10, 20]], ids=["one", "two"])
def test_thermo_calibration_with_too_few_temperatures_exits_2(tmp_path, capsys, temps):
    # the fit used to report its start value, or near it, as converged
    cal = tmp_path / "cal.csv"
    cal.write_text("\n".join(["T_K,R_ohm", *(f"{t},{2000 + t + k}" for k, t in enumerate(temps))]) + "\n")
    out = tmp_path / "fit.json"
    err = _refused(capsys, "thermo", "--calibration", cal, "--out", out)
    assert err.count("\n") == 1 and f"at least 3 distinct temperatures, one per model parameter, got {len(set(temps))}" in err
    assert not out.exists()


def test_diagnose_window_missing_well_exits_2(tmp_path, capsys):
    spec = json.loads(_scenario(tmp_path, {"kind": "SHORTED", "electrode": "DC19"}).read_text())
    spec["window_um"] = [200, 400]
    scenario = tmp_path / "missed.json"
    scenario.write_text(json.dumps(spec))
    out = tmp_path / "diag.json"
    err = _refused(capsys, "diagnose", "--scenario", scenario, "--out", out)
    assert "scale 1:" in err and "window edge 400 um" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "window", [[float("-inf"), 300], [-300, float("inf")], [float("nan"), 300]], ids=["-inf", "inf", "nan"]
)
def test_diagnose_non_finite_window_exits_2(tmp_path, capsys, window):
    spec = json.loads(_scenario(tmp_path, {"kind": "SHORTED", "electrode": "DC19"}).read_text())
    spec["window_um"] = window
    scenario = tmp_path / "unbounded.json"
    scenario.write_text(json.dumps(spec))
    out = tmp_path / "diag.json"
    with warnings.catch_warnings():
        # numpy used to warn on the unbounded scan before the misleading refusal
        warnings.simplefilter("error")
        err = _refused(capsys, "diagnose", "--scenario", scenario, "--out", out)
    assert "scenario 'window_um' is not finite" in err
    assert not out.exists()


def test_diagnose_axis_below_plane_exits_2(tmp_path, capsys):
    spec = json.loads(_scenario(tmp_path, {"kind": "SHORTED", "electrode": "DC19"}).read_text())
    spec["axis_um"] = {"y": 42.3, "z": -124.4}
    scenario = tmp_path / "below.json"
    scenario.write_text(json.dumps(spec))
    out = tmp_path / "diag.json"
    err = _refused(capsys, "diagnose", "--scenario", scenario, "--out", out)
    assert "-124.4" in err and "z > 0" in err
    assert not out.exists()


_FLOATING = {"kind": "FLOATING", "electrode": "DC19", "held_voltage": -0.8}
_GAP_CHARGE = {"kind": "GAP_CHARGE", "charge_rects_um": [[20, 60, 20, 60]], "charge_voltage": 1.0}


@pytest.mark.parametrize(
    "fault, scales",
    [(_FLOATING, [2.0, 2.0]), (_FLOATING, [4.0, 4.0, 4.0]), (_GAP_CHARGE, [2.0, 2.0])],
    ids=["floating_2_2", "floating_4_4_4", "gap_charge_2_2"],
)
def test_diagnose_with_one_repeated_scale_exits_2(tmp_path, capsys, fault, scales):
    # one scale repeated is one probe; each of these used to read SHORTED
    spec = json.loads(_scenario(tmp_path, fault).read_text())
    spec["scales"] = scales
    scenario = tmp_path / "repeated.json"
    scenario.write_text(json.dumps(spec))
    out = tmp_path / "diag.json"
    err = _refused(capsys, "diagnose", "--scenario", scenario, "--out", out)
    assert err == "trapqa: bad input: need measurements at two or more distinct scale factors\n"
    assert not out.exists()


@pytest.mark.parametrize("scales", [[0.0, 1.0, 2.0], [-1.0, 1.0, 2.0]], ids=["zero", "negative"])
def test_diagnose_scale_not_above_zero_exits_2(tmp_path, capsys, scales):
    # these used to be refused as a window that "misses the well"
    spec = json.loads(_scenario(tmp_path, _FLOATING).read_text())
    spec["scales"] = scales
    scenario = tmp_path / "unscaled.json"
    scenario.write_text(json.dumps(spec))
    out = tmp_path / "diag.json"
    err = _refused(capsys, "diagnose", "--scenario", scenario, "--out", out)
    assert err == f"trapqa: bad input: scale {scales[0]:g} is not above zero: a DC scale factor must be positive\n"
    assert not out.exists()


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        run_cli("frobnicate")
    assert exc.value.code == 2


def test_console_entry_point(tmp_path):
    # one end-to-end subprocess round through the installed script
    out = tmp_path / "report.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "trapqa.cli", "dissipation", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert out.exists()


_SCENARIO = {"voltages": {"DC18": -2.0}, "window_um": [-300, 300], "fault": {"kind": "NOMINAL"}}
_STRAY = ["--reference", "ref.json", "--point", "0,42.3,124.4", "--out", "out.json"]


_FAULTS = ["wafertest", "--faults", "bad.json", "--out", "out.csv"]
_NETLIST = ["wafertest", "--netlist", "bad.json", "--out", "out.csv"]
_GEOMETRY = ["field", "--geometry", "bad.json", "--out", "out.csv"]
_VOLTAGES = ["field", "--voltages", "bad.json", "--out", "out.csv"]
_DIAGNOSE = ["diagnose", "--scenario", "bad.json", "--out", "out.json"]


def _fault(**fields):
    return {"faults": [fields]}


def _net(**fields):
    return {"nets": [{"id": "DC01", "role": "dc", "pads": ["A", "B"], "loop_resistance_ohm": 20.0, **fields}]}


def _electrode(**fields):
    return {"electrodes": [{"id": "E1", "role": "rf", "rects": [[-10, 10, -5, 5]], **fields}]}


def _scenario_fault(**fields):
    return {**_SCENARIO, "fault": {"kind": "FLOATING", "electrode": "DC19", **fields}}


# (id, command, document, a part of the one-line refusal)
_MALFORMED = [
    ("faults_object", _FAULTS, {"faults": {"kind": "OPEN", "net": "DC05"}}, "'faults' must be a list"),
    ("faults_list_document", _FAULTS, [{"kind": "OPEN", "net": "DC05"}], "fault set must be a JSON object"),
    ("fault_number", _FAULTS, {"faults": [1]}, "fault 0"),
    ("rates_list", ["yieldmap", "--rates", "bad.json", "--out-svg", "out.svg", "--out-csv", "out.csv"],
     [0.2], "base rates must map"),
    ("voltages_list", _VOLTAGES, [1.0], "--voltages must be a JSON object"),
    ("voltage_null", _VOLTAGES, {"DC18": None}, "'DC18' must be a number"),
    ("applied_list", ["strayfield", "--applied", "bad.json", *_STRAY], [0.5], "--applied must be a JSON object"),
    ("scenario_string", _DIAGNOSE, "DC18", "scenario must be a JSON object"),
    ("scenario_voltages_list", _DIAGNOSE, {**_SCENARIO, "voltages": [1.0, -2.0]},
     "scenario 'voltages' must be a JSON object"),
    # faults: field types and numbers
    ("fault_resistance_null", _FAULTS, _fault(kind="SHORT", net="DC01", other="RF", resistance_ohm=None),
     "fault 0 'resistance_ohm' must be a number"),
    ("fault_resistance_string", _FAULTS, _fault(kind="LEAK_TO_GND", net="DC01", resistance_ohm="1e6"),
     "fault 0 'resistance_ohm' must be a number"),
    ("fault_resistance_bool", _FAULTS, _fault(kind="LEAK_TO_GND", net="DC01", resistance_ohm=True),
     "fault 0 'resistance_ohm' must be a number"),
    ("fault_short_resistance_infinite", _FAULTS,
     _fault(kind="SHORT", net="DC05", other="RF", resistance_ohm=float("inf")), "'resistance_ohm' is not finite"),
    ("fault_factor_nan", _FAULTS, _fault(kind="RESISTANCE_SHIFT", net="DC01", factor=float("nan")),
     "'factor' is not finite"),
    ("fault_step_index_overflow", _FAULTS, _fault(kind="HW_FAIL", step_index=float("inf")),
     "'step_index' is not finite"),
    ("fault_step_index_huge_int", _FAULTS, _fault(kind="HW_FAIL", step_index=10**400),
     "'step_index' is too large for a float"),
    ("fault_step_index_fraction", _FAULTS, _fault(kind="HW_FAIL", step_index=2.5),
     "'step_index' must be a whole number"),
    ("fault_step_index_string", _FAULTS, _fault(kind="HW_FAIL", step_index="3"),
     "'step_index' must be a number"),
    ("fault_net_list", _FAULTS, _fault(kind="OPEN", net=["DC01"]), "fault 0 'net' must be a string"),
    ("fault_other_number", _FAULTS, _fault(kind="SHORT", net="DC01", other=5, resistance_ohm=1e6),
     "fault 0 'other' must be a string"),
    ("fault_kind_null", _FAULTS, _fault(kind=None, net="DC01"), "fault 0 'kind' must be a string"),
    ("faults_null", _FAULTS, {"faults": None}, "'faults' must be a list"),
    # netlists
    ("netlist_list_document", _NETLIST, [], "netlist must be a JSON object"),
    ("netlist_nets_object", _NETLIST, {"nets": {"id": "DC01"}}, "'nets' must be a list"),
    ("netlist_net_number", _NETLIST, {"nets": [5]}, "net 0 must be a JSON object"),
    ("netlist_loop_resistance_nan", _NETLIST, _net(loop_resistance_ohm=float("nan")),
     "net 0 'loop_resistance_ohm' is not finite"),
    ("netlist_loop_resistance_string", _NETLIST, _net(loop_resistance_ohm="20"),
     "net 0 'loop_resistance_ohm' must be a number"),
    ("netlist_element_resistance_null", _NETLIST, _net(role="ts", pads=["A", "B", "C", "D"], element_resistance_ohm=None),
     "net 0 'element_resistance_ohm' must be a number"),
    ("netlist_pads_string", _NETLIST, _net(pads="AB"), "net 0 'pads' must be a list"),
    ("netlist_id_number", _NETLIST, _net(id=1), "net 0 'id' must be a string"),
    # geometries
    ("geometry_list_document", _GEOMETRY, [], "geometry must be a JSON object"),
    ("geometry_electrodes_string", _GEOMETRY, {"electrodes": "E1"}, "geometry 'electrodes' must be a list"),
    ("geometry_rect_nan", _GEOMETRY, _electrode(rects=[[-10, 10, -5, float("nan")]]),
     "electrode 0 'rects' is not finite"),
    ("geometry_rect_string", _GEOMETRY, _electrode(rects=[["-10", 10, -5, 5]]), "electrode 0 'rects' must be a number"),
    ("geometry_rect_three_corners", _GEOMETRY, _electrode(rects=[[-10, 10, -5]]),
     "electrode 0 rectangle must have 4 entries"),
    ("geometry_id_null", _GEOMETRY, _electrode(id=None), "electrode 0 'id' must be a string"),
    ("geometry_length_unit_list", _GEOMETRY, {**_electrode(), "length_unit": ["um"]},
     "geometry 'length_unit' must be a string"),
    ("geometry_ion_axis_list", _GEOMETRY, {**_electrode(), "ion_axis": [0, 50]},
     "geometry 'ion_axis' must be a JSON object"),
    ("geometry_ion_axis_infinite", _GEOMETRY, {**_electrode(), "ion_axis": {"y": 0, "z": float("inf")}},
     "geometry 'ion_axis' z is not finite"),
    # scenarios
    ("scenario_window_string", _DIAGNOSE, {**_SCENARIO, "window_um": "300"}, "scenario 'window_um' must be a list"),
    ("scenario_window_one_end", _DIAGNOSE, {**_SCENARIO, "window_um": [-300]},
     "scenario 'window_um' must have 2 entries"),
    ("scenario_window_null_end", _DIAGNOSE, {**_SCENARIO, "window_um": [-300, None]},
     "scenario 'window_um' must be a number"),
    ("scenario_scales_number", _DIAGNOSE, {**_SCENARIO, "scales": 2}, "scenario 'scales' must be a list"),
    ("scenario_scale_string", _DIAGNOSE, {**_SCENARIO, "scales": [1, "2", 4]}, "scenario 'scales' must be a number"),
    ("scenario_scale_nan", _DIAGNOSE, {**_SCENARIO, "scales": [1, float("nan"), 4]},
     "scenario 'scales' is not finite"),
    ("scenario_axis_list", _DIAGNOSE, {**_SCENARIO, "axis_um": [42.3, 124.4]},
     "scenario 'axis_um' must be a JSON object"),
    ("scenario_axis_string", _DIAGNOSE, {**_SCENARIO, "axis_um": {"y": "42.3", "z": 124.4}},
     "scenario 'axis_um' y must be a number"),
    ("scenario_fault_string", _DIAGNOSE, {**_SCENARIO, "fault": "SHORTED"}, "scenario 'fault' must be a JSON object"),
    ("scenario_fault_kind_number", _DIAGNOSE, {**_SCENARIO, "fault": {"kind": 5}}, "fault 'kind' must be a string"),
    ("scenario_fault_electrode_list", _DIAGNOSE, _scenario_fault(electrode=["DC19"]),
     "fault 'electrode' must be a string"),
    ("scenario_held_voltage_string", _DIAGNOSE, _scenario_fault(held_voltage="1"),
     "fault 'held_voltage' must be a number"),
    ("scenario_charge_rects_string", _DIAGNOSE, {**_SCENARIO, "fault": {"kind": "GAP_CHARGE", "charge_rects_um": "x"}},
     "fault 'charge_rects_um' must be a list"),
    ("scenario_charge_rect_three_corners", _DIAGNOSE,
     {**_SCENARIO, "fault": {"kind": "GAP_CHARGE", "charge_rects_um": [[-10, 10, 30]], "charge_voltage": 1.0}},
     "a charge rectangle must have 4 entries"),
    ("scenario_charge_rect_null", _DIAGNOSE,
     {**_SCENARIO, "fault": {"kind": "GAP_CHARGE", "charge_rects_um": [[-10, 10, 30, None]], "charge_voltage": 1.0}},
     "fault 'charge_rects_um' must be a number"),
    ("scenario_geometry_number", _DIAGNOSE, {**_SCENARIO, "geometry": 5}, "scenario 'geometry' must be a string"),
    ("scenario_geometry_zero", _DIAGNOSE, {**_SCENARIO, "geometry": 0}, "scenario 'geometry' must be a string"),
    # voltages: overflow and unknown electrode ids
    ("voltage_huge_int", _VOLTAGES, {"DC18": 10**400}, "'DC18' is too large for a float"),
    ("voltage_unknown_electrode", _VOLTAGES, {"XX": 5}, "no electrode 'XX'"),
    ("scenario_voltage_unknown_electrode", _DIAGNOSE, {**_SCENARIO, "voltages": {"XX": 1.0}}, "no electrode 'XX'"),
    ("scenario_fault_unknown_electrode", _DIAGNOSE, {**_SCENARIO, "fault": {"kind": "SHORTED", "electrode": "NOPE"}},
     "no electrode 'NOPE'"),
    # finite voltages whose field overflows: a numpy RuntimeWarning fails the
    # test (pyproject's filterwarnings), and the scan is two kernel blocks, so
    # the kernel's threads must not warn either
    ("voltage_overflow", [*_VOLTAGES, "--x=-100:100:30", "--y=-50:50:30", "--z=50:150:20"], {"DC18": 1e308},
     "the field is not finite"),
    ("applied_overflow", ["strayfield", "--applied", "bad.json", *_STRAY], {"CP1": 1e308},
     "the stray field is not finite"),
    # the axial potential overflows to a -inf plateau, whose "minimum" is no ion position
    ("scenario_potential_overflow", _DIAGNOSE,
     {**_SCENARIO, "voltages": {f"DC{k}": -1.7e308 for k in range(16, 21)}, "scales": [1.0, 0.5]},
     "the potential is not finite"),
    # a netlist with nothing to test
    ("netlist_no_nets", _NETLIST, {"nets": []}, "the netlist has no dc, comp, ts or rf net to test"),
    ("netlist_gnd_only", _NETLIST, _net(role="gnd"), "the netlist has no dc, comp, ts or rf net to test"),
]


@pytest.mark.parametrize(
    "args, document, message", [pytest.param(*case[1:], id=case[0]) for case in _MALFORMED]
)
def test_malformed_json_document_exits_2(tmp_path, capsys, monkeypatch, args, document, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ref.json").write_text(json.dumps({"CP1": 0.0}))
    (tmp_path / "bad.json").write_text(json.dumps(document))
    err = _refused(capsys, *args)
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith("trapqa: bad input:")
    assert message in err
    assert not list(tmp_path.glob("out.*"))


@pytest.mark.parametrize(
    "args, document, line",
    [
        (_DIAGNOSE, {k: v for k, v in _SCENARIO.items() if k != "window_um"}, "missing key 'window_um'"),
        (_VOLTAGES, {"XX": 5}, "no electrode 'XX'"),
    ],
    ids=["missing_key", "unknown_electrode"],
)
def test_key_errors_print_plainly(tmp_path, capsys, monkeypatch, args, document, line):
    # the message, not the repr of a KeyError: no quotes around it
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_text(json.dumps(document))
    assert _refused(capsys, *args) == f"trapqa: bad input: {line}\n"


# (id, command, document, the one-line refusal): values of the right type
# that the wafer-test domain types refuse
_WAFERTEST_REFUSALS = [
    ("short_zero_resistance", _FAULTS, _fault(kind="SHORT", net="DC01", other="RF", resistance_ohm=0),
     "SHORT needs a positive path resistance"),
    ("open_without_net", _FAULTS, _fault(kind="OPEN"), "OPEN needs a net"),
    ("hw_fail_negative_step", _FAULTS, _fault(kind="HW_FAIL", step_index=-3), "HW_FAIL needs a step_index >= 0"),
    ("leak_negative_resistance", _FAULTS, _fault(kind="LEAK_TO_GND", net="DC01", resistance_ohm=-1),
     "LEAK_TO_GND needs a net and positive resistance"),
    ("shift_zero_factor", _FAULTS, _fault(kind="RESISTANCE_SHIFT", net="DC01", factor=0),
     "RESISTANCE_SHIFT needs a net and positive factor"),
    ("net_zero_loop_resistance", _NETLIST, _net(loop_resistance_ohm=0), "net 'DC01': loop_resistance must be positive"),
    ("sensor_without_element", _NETLIST, _net(id="TS1", role="ts", pads=["A", "B", "C", "D"]),
     "sensor net 'TS1' needs element_resistance > 0"),
]


@pytest.mark.parametrize(
    "args, document, line", [pytest.param(*case[1:], id=case[0]) for case in _WAFERTEST_REFUSALS]
)
def test_wafertest_refuses_faults_and_nets_it_cannot_simulate(tmp_path, capsys, monkeypatch, args, document, line):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_text(json.dumps(document))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        err = _refused(capsys, *args)
    assert caught == []
    assert err == f"trapqa: bad input: {line}\n"
    assert not list(tmp_path.glob("out.*"))


# (id, command, document, the one-line refusal): a key that nothing reads; a
# misspelt optional key used to take its default without a word
_UNKNOWN_KEYS = [
    ("scenario", _DIAGNOSE, {**_SCENARIO, "scale": [1.0, 3.0]},
     "a scenario has an unknown key 'scale'; did you mean 'scales'?"),
    ("scenario_axis", _DIAGNOSE, {**_SCENARIO, "axis_um": {"y": 42.3, "z": 124.4, "x": 0.0}},
     "scenario 'axis_um' has an unknown key 'x'; it takes 'y', 'z'"),
    ("scenario_fault", _DIAGNOSE, _scenario_fault(held_volts=1.0),
     "scenario 'fault' has an unknown key 'held_volts'; did you mean 'held_voltage'?"),
    ("fault_set", _FAULTS, {"fault": [{"kind": "OPEN", "net": "DC05"}]},
     "a fault set has an unknown key 'fault'; did you mean 'faults'?"),
    ("fault", _FAULTS, _fault(kind="LEAK_TO_GND", net="DC05", resistance=1e6),
     "fault 0 has an unknown key 'resistance'; did you mean 'resistance_ohm'?"),
    ("netlist", _NETLIST, {**_net(), "title": "toy"}, "a netlist has an unknown key 'title'; it takes 'name', 'nets'"),
    ("net", _NETLIST, _net(group="SUP1"),
     "net 0 has an unknown key 'group'; it takes 'element_resistance_ohm', 'id', 'loop_resistance_ohm', 'pads', 'role'"),
    ("geometry", _GEOMETRY, {**_electrode(), "unit": "mm"},
     "a geometry has an unknown key 'unit'; it takes 'electrodes', 'ion_axis', 'length_unit', 'name'"),
    ("electrode", _GEOMETRY, _electrode(rect=[[-10, 10, -5, 5]]),
     "electrode 0 has an unknown key 'rect'; did you mean 'rects'?"),
    ("ion_axis", _GEOMETRY, {**_electrode(), "ion_axis": {"y": 0, "Z": 50}},
     "geometry 'ion_axis' has an unknown key 'Z'; it takes 'y', 'z'"),
]


@pytest.mark.parametrize("args, document, line", [pytest.param(*case[1:], id=case[0]) for case in _UNKNOWN_KEYS])
def test_unknown_key_exits_2_naming_it(tmp_path, capsys, monkeypatch, args, document, line):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_text(json.dumps(document))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        err = _refused(capsys, *args)
    assert caught == []
    assert err == f"trapqa: bad input: {line}\n"
    assert not list(tmp_path.glob("out.*"))


_NO_AXIS_GEOMETRY = {"electrodes": [{"id": "E1", "role": "dc", "rects": [[-10, 10, -5, 5]]}]}


def _charge_rect(*rect):
    return {**_SCENARIO, "fault": {"kind": "GAP_CHARGE", "charge_rects_um": [list(rect)], "charge_voltage": 1.0}}


# (id, command, the files it reads, the refusal's last line): refusals that
# no other test reaches, and those that did not name what they refused
_MORE_REFUSALS = [
    ("geometry_role", _GEOMETRY, {"bad.json": _electrode(role="xx")},
     "trapqa: bad input: electrode 'E1': role must be one of ('rf', 'dc', 'comp', 'gnd'), got 'xx'"),
    ("geometry_no_rects", _GEOMETRY, {"bad.json": _electrode(rects=[])},
     "trapqa: bad input: electrode 'E1' has no rectangles"),
    ("geometry_repeated_id", _GEOMETRY,
     {"bad.json": {"electrodes": [*_electrode()["electrodes"], *_electrode(rects=[[20, 30, -5, 5]])["electrodes"]]}},
     "trapqa: bad input: electrode ids must be unique: 'E1' is repeated"),
    ("geometry_length_unit", _GEOMETRY, {"bad.json": {**_electrode(), "length_unit": "cm"}},
     "trapqa: bad input: unsupported length_unit 'cm'"),
    ("netlist_repeated_id", _NETLIST,
     {"bad.json": {"nets": [*_net()["nets"], *_net(pads=["C", "D"])["nets"]]}},
     "trapqa: bad input: net ids must be unique: 'DC01' is repeated"),
    ("calibration_cell", ["thermo", "--calibration", "bad.csv", "--out", "out.json"],
     {"bad.csv": "T_K,R_ohm\n4,2000.1\n77,abc\n150,3900.2\n295,6800.9\n"},
     "trapqa: bad input: --calibration line 3: R_ohm must be a number, got 'abc'"),
    ("resistance_option", ["thermo", "--preset", "TS1", "--resistance", "abc", "--out", "out.json"], {},
     "trapqa thermo: error: argument --resistance: not a number: 'abc'"),
    ("diagnose_no_ion_axis", _DIAGNOSE,
     {"geom.json": _NO_AXIS_GEOMETRY, "bad.json": {**_SCENARIO, "geometry": "geom.json", "voltages": {"E1": 1.0}}},
     "trapqa: bad input: the geometry has no ion_axis; give scenario 'axis_um'"),
    # inverted corners flipped the sign of the charge and gave a confident class
    ("charge_rect_x_inverted", _DIAGNOSE, {"bad.json": _charge_rect(-40, -60, 40, 140)},
     "trapqa: bad input: charge rectangle 0 (x1, x2, y1, y2) = (-40, -60, 40, 140) um needs x2 > x1 and y2 > y1"),
    ("charge_rect_y_inverted", _DIAGNOSE, {"bad.json": _charge_rect(-60, -40, 140, 40)},
     "trapqa: bad input: charge rectangle 0 (x1, x2, y1, y2) = (-60, -40, 140, 40) um needs x2 > x1 and y2 > y1"),
    ("charge_rect_zero_width", _DIAGNOSE, {"bad.json": _charge_rect(-40, -40, 40, 140)},
     "trapqa: bad input: charge rectangle 0 (x1, x2, y1, y2) = (-40, -40, 40, 140) um needs x2 > x1 and y2 > y1"),
]


@pytest.mark.parametrize("args, files, line", [pytest.param(*case[1:], id=case[0]) for case in _MORE_REFUSALS])
def test_refusal_exits_2_naming_what_it_refuses(tmp_path, capsys, monkeypatch, args, files, line):
    monkeypatch.chdir(tmp_path)
    for name, content in files.items():
        (tmp_path / name).write_text(content if isinstance(content, str) else json.dumps(content))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        err = _refused(capsys, *args)
    assert caught == []
    # a bad input is one line; argparse prints its usage text first
    assert err.splitlines()[-1] == line
    assert err.startswith("usage:") or err.count("\n") == 1
    assert not list(tmp_path.glob("out.*"))


def test_field_csv_is_the_same_at_every_thread_count(tmp_path, monkeypatch, geometry):
    # all 79 electrodes driven: 8000 points are 39 kernel blocks
    from trapqa.kernels import rect_np

    volts = tmp_path / "volts.json"
    volts.write_text(json.dumps({eid: 0.1 * (k % 7 - 3) + 0.05 for k, eid in enumerate(geometry.ids())}))
    scans = []
    for threads in (1, 2):
        monkeypatch.setattr(rect_np, "_usable_cpus", lambda: threads)
        out = tmp_path / f"scan{threads}.csv"
        assert run_cli(
            "field", "--voltages", volts, "--x=-100:100:20", "--y=-50:50:20", "--z=50:150:20", "--out", out
        ) == 0
        scans.append(out.read_bytes())
    assert scans[0] == scans[1]


_ELECTRODE_IDS = paper_trap_geometry().ids()
_DIAGNOSE_SCENARIO = {
    "geometry": "builtin",
    "voltages": {"DC17": 1.0, "DC18": -2.0, "DC19": 1.0, "DC52": 1.0, "DC53": -2.0, "DC54": 1.0},
    "scales": [1.0, 2.0, 4.0],
    "window_um": [-300, 300],
}

# Frozen SHA-256 of electrostatics artifacts, one per path to the kernels: the
# README field scan, a scan with every electrode at 0 V (no rectangle reaches
# the kernels), a scan of four kernel blocks with all 79 electrodes driven,
# the README-style strayfield, and a GAP_CHARGE diagnosis, whose charge
# rectangle is stacked under the driven electrodes' rectangles; and the
# SHORTED and FLOATING diagnoses, frozen before the search and
# classification tolerances became constants; and a diagnosis on an axis
# of its own, one from a measurements CSV and one with its scales unsorted,
# frozen before the scales of a scenario were evaluated together. Each case
# is (input documents, arguments without --out, exit code, digest); a
# document given as text, such as a CSV, is written as it is.
_ELECTROSTATICS_PINS = {
    "field_readme": (
        {},
        ["field", "--z", "50:200:16", "--y", "42.331:42.331:1"],
        0,
        "f7473bbb63d7ead4768ad5d4a391870cd58d2ba08f1399737c33809092c3b32f",
    ),
    "field_all_zero": (
        {"volts.json": {eid: 0.0 for eid in _ELECTRODE_IDS}},
        ["field", "--voltages", "volts.json", "--x=-100:100:3", "--z", "50:200:4"],
        0,
        "a53dfab4a11e3e6e653c701d3831f4e4d6f962583a82ae9164460d1795470588",
    ),
    "field_blocks": (
        {"volts.json": {eid: 0.1 * (k % 7 - 3) + 0.05 for k, eid in enumerate(_ELECTRODE_IDS)}},
        ["field", "--voltages", "volts.json", "--x=-100:100:12", "--y=-50:50:8", "--z=50:150:8"],
        0,
        "56fb3e3101dccac9a52a480b38974146eda4746d00f73813e75f77d7d5e383d4",
    ),
    "strayfield_readme": (
        {"applied.json": {"CP1": 0.7, "CP4": -0.2}, "ideal.json": {"CP1": 0.5}},
        ["strayfield", "--applied", "applied.json", "--reference", "ideal.json", "--point", "0,42.3,124.4"],
        0,
        "376685c4d6bb602ed504356d9e21a2aab7f07be188846b078f1c7832ad21e2bd",
    ),
    "diagnose_gap_charge": (
        {
            "scenario.json": {
                "geometry": "builtin",
                "voltages": {"DC17": 1.0, "DC18": -2.0, "DC19": 1.0, "DC52": 1.0, "DC53": -2.0, "DC54": 1.0},
                "scales": [1.0, 2.0, 4.0],
                "window_um": [-300, 300],
                "fault": {"kind": "GAP_CHARGE", "charge_rects_um": [[51.5, 59.5, 40, 135]], "charge_voltage": -2.0},
            }
        },
        ["diagnose", "--scenario", "scenario.json"],
        1,
        "55b91189c88e98ef517bafa9722e54db5b2438e413c6e945f1fbf211155dd467",
    ),
    "diagnose_shorted": (
        {"scenario.json": {**_DIAGNOSE_SCENARIO, "fault": {"kind": "SHORTED", "electrode": "DC19"}}},
        ["diagnose", "--scenario", "scenario.json"],
        1,
        "4281c3d9c47b2f129a877217d5f48072874fcb1dc23e3d877b4e3e0d9af2d1f1",
    ),
    "diagnose_floating": (
        {
            "scenario.json": {
                **_DIAGNOSE_SCENARIO,
                "fault": {"kind": "FLOATING", "electrode": "DC19", "held_voltage": -0.8},
            }
        },
        ["diagnose", "--scenario", "scenario.json"],
        1,
        "8e787c50b6a4a2dc1ff8fc8c3478bce7e6c89c556ccbb1c8559e64fa9851cd70",
    ),
    "diagnose_axis": (
        {
            "scenario.json": {
                **_DIAGNOSE_SCENARIO,
                "axis_um": {"y": 30.0, "z": 100.0},
                "fault": {"kind": "FLOATING", "electrode": "DC19", "held_voltage": -0.8},
            }
        },
        ["diagnose", "--scenario", "scenario.json"],
        1,
        "407a5325ee60747fc79c5211b35303ddc7bda73812e9c8944e8c000a6e1dc0c2",
    ),
    "diagnose_measurements": (
        {"scenario.json": _DIAGNOSE_SCENARIO, "meas.csv": "scale,position_um\n1.0,14.4\n2.0,14.4\n4.0,14.4\n"},
        ["diagnose", "--scenario", "scenario.json", "--measurements", "meas.csv"],
        1,
        "eea7bd229a9aef20b83c376b43d26a71445b45900f6a4f1d19e12850ed0dba6f",
    ),
    "diagnose_unsorted_scales": (
        {
            "scenario.json": {
                **_DIAGNOSE_SCENARIO,
                "scales": [4, 1, 2],
                "fault": {"kind": "GAP_CHARGE", "charge_rects_um": [[51.5, 59.5, 40, 135]], "charge_voltage": -2.0},
            }
        },
        ["diagnose", "--scenario", "scenario.json"],
        1,
        "da8995cf86b0d8ca7d1d89116ab3e4cff0613d8fa39c1e6838fb11b2377d2486",
    ),
}


@pytest.mark.parametrize("name", list(_ELECTROSTATICS_PINS))
def test_electrostatics_artifacts_keep_their_bytes(tmp_path, monkeypatch, name):
    inputs, args, code, sha = _ELECTROSTATICS_PINS[name]
    monkeypatch.chdir(tmp_path)
    for path, doc in inputs.items():
        (tmp_path / path).write_text(doc if isinstance(doc, str) else json.dumps(doc))
    assert run_cli(*args, "--out", "out") == code
    assert hashlib.sha256((tmp_path / "out").read_bytes()).hexdigest() == sha


# SHA-256 of the SVG, CSV and stats JSON of the README's two yieldmap
# commands, frozen before the significance level became a constant
_YIELDMAP_PINS = {
    "seed_99": (
        ["--seed", "99", "yieldmap"],
        0,
        (
            "ed225932f8b0da637cc7cb2deac81c6373f5eb8a7e7b66e1fc0be69eb587beac",
            "d9e232b772acdefca98411b72bb44e4428308d1ef8f290d7120ac08f46c8f8c5",
            "73db4a9ab0018eee9c5b2861ae11c76dbc6549a123cc528c13943236be597ef3",
        ),
    ),
    "plant_cell": (
        ["yieldmap", "--plant-cell", "1,1,LEAK_DC_DC,0.9"],
        1,
        (
            "d10fd2712f9f051d6e10d0f4302b23977f7858946a48db4326fecef76a8ac7bd",
            "2cb0909bee4177fc5b6779fba8ea6f53728787dba8d0e1321b936d7d82b61832",
            "ad876f5a255b74eaf9756bf10eae53996251aec64a96a91ce52c176737ee55ce",
        ),
    ),
}


@pytest.mark.parametrize("name", list(_YIELDMAP_PINS))
def test_yieldmap_artifacts_keep_their_bytes(tmp_path, monkeypatch, name):
    args, code, shas = _YIELDMAP_PINS[name]
    monkeypatch.chdir(tmp_path)
    assert run_cli(*args, "--out-svg", "w.svg", "--out-csv", "w.csv", "--out-stats", "s.json") == code
    assert tuple(hashlib.sha256((tmp_path / p).read_bytes()).hexdigest() for p in ("w.svg", "w.csv", "s.json")) == shas


# a seeded calibration of RTModel(2000, 5100, 180) with 0.1% noise, 2.5..295 K
_CALIBRATION_ROWS = [
    "2.5,1999.804,1.9998", "4,2001.719,2.0017", "6,2001.079,2.0011", "9,2003.679,2.0037",
    "12,1998.273,1.9983", "16,2003.754,2.0038", "22,2016.387,2.0164", "30,2044.119,2.0441",
    "45,2145.393,2.1454", "60,2266.243,2.2662", "77,2411.854,2.4119", "100,2595.911,2.5959",
    "130,2832.551,2.8326", "170,3135.513,3.1355", "220,3503.047,3.5030", "295,4050.903,4.0509",
]

# SHA-256 of thermo.json, frozen before the quadrature and root finder were
# ported from scipy: the ports keep every bit of every readout and fit
_THERMO_PINS = {
    "ts1_readout": (
        None, ["thermo", "--preset", "TS1", "--resistance", "29500"], 0, "4691efa423ef96ab5941cdf68be95ee20fc27e8c7931cf945df9f568ad4ead44",
    ),
    "ts2_readout_cold": (
        None, ["thermo", "--preset", "TS2", "--resistance", "8343.4", "--meter-resolution", "0.1"], 0,
        "caaacf225d346b24c9f9d680518060a24526a5dc0bcb3dac997ea2324a7d99fd",
    ),
    "ts2_readout_warm": (
        None, ["thermo", "--preset", "TS2", "--resistance", "11000"], 0, "175995e23f7387a129300fafee1a2b867b363694a062a1d9a15f4ed69fd255d1",
    ),
    "out_of_range": (
        None, ["thermo", "--preset", "TS2", "--resistance", "1.0"], 1, "0c7ceb648b09d6508d28ac8886f9c30e8cbbf928f2783001f9d4302afe38d0c2",
    ),
    "calibration": (
        ["T_K,R_ohm"] + [r[: r.rindex(",")] for r in _CALIBRATION_ROWS],
        ["thermo", "--calibration", "cal.csv", "--resistance", "2300"], 0, "aa8283a377ca6670e30ba6343866093515eba9d967d02edc9f5425864d865730",
    ),
    "calibration_sigma": (
        ["T_K,R_ohm,sigma_ohm"] + _CALIBRATION_ROWS,
        ["thermo", "--calibration", "cal.csv"], 0, "d7166a48ce16985430074d07c81896894c7fef198f8db51caf8d94a3da150d42",
    ),
}


@pytest.mark.parametrize("name", list(_THERMO_PINS))
def test_thermo_artifacts_keep_their_bytes(tmp_path, monkeypatch, name):
    rows, args, code, sha = _THERMO_PINS[name]
    monkeypatch.chdir(tmp_path)
    if rows is not None:
        (tmp_path / "cal.csv").write_text("\n".join(rows) + "\n")
    assert run_cli(*args, "--out", "thermo.json") == code
    assert hashlib.sha256((tmp_path / "thermo.json").read_bytes()).hexdigest() == sha


_CALIBRATION = ["T_K,R_ohm", "4,2000.1", "77,2400.5", "150,3900.2", "295,6800.9"]
_HEATING = ["site,frequency_mhz,rate_quanta_per_s,sigma_quanta_per_s", "3,0.5,80,2", "3,1.0,20,0.5", "3,2.0,5,0.2"]
_POSITIONS = ["scale,position_um", "1.0,14.4", "2.0,14.4", "4.0,14.4"]


@pytest.mark.parametrize(
    "command, rows, message",
    [
        (["thermo", "--calibration", "bad.csv"], _CALIBRATION[:2] + ["77"] + _CALIBRATION[3:], "line 3 has 1 cells"),
        (["thermo", "--calibration", "bad.csv"], _CALIBRATION[:2] + ["77,nan"] + _CALIBRATION[3:],
         "line 3: R_ohm is not finite"),
        (["thermo", "--calibration", "bad.csv"], ["T_K,R"] + _CALIBRATION[1:], "no column 'R_ohm'"),
        (["heating", "--csv", "bad.csv"], _HEATING[:2] + ["3,1.0,20"] + _HEATING[3:], "line 3 has 3 cells"),
        (["heating", "--csv", "bad.csv"], _HEATING[:2] + ["3,1.0,NaN,0.5"] + _HEATING[3:],
         "line 3: rate_quanta_per_s is not finite"),
        (["heating", "--csv", "bad.csv"], ["site,frequency_mhz,rate_quanta_per_s"] + [r[:r.rindex(",")] for r in _HEATING[1:]],
         "no column 'sigma_quanta_per_s'"),
        (["diagnose", "--scenario", "scenario.json", "--measurements", "bad.csv"],
         _POSITIONS[:2] + ["2.0,14.4,1"] + _POSITIONS[3:], "line 3 has 3 cells"),
        (["diagnose", "--scenario", "scenario.json", "--measurements", "bad.csv"],
         _POSITIONS[:2] + ["2.0,inf"] + _POSITIONS[3:], "line 3: position_um is not finite"),
        (["diagnose", "--scenario", "scenario.json", "--measurements", "bad.csv"],
         ["scale,position"] + _POSITIONS[1:], "no column 'position_um'"),
    ],
    ids=[
        "calibration_short_row", "calibration_nan", "calibration_missing_column",
        "heating_short_row", "heating_nan", "heating_missing_column",
        "measurements_long_row", "measurements_infinite", "measurements_missing_column",
    ],
)
def test_malformed_csv_table_exits_2(tmp_path, capsys, monkeypatch, command, rows, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "scenario.json").write_text(json.dumps(_SCENARIO))
    (tmp_path / "bad.csv").write_text("\n".join(rows) + "\n")
    err = _refused(capsys, *command, "--out", "out.json")
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith("trapqa: bad input:")
    assert message in err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize(
    "fault",
    [
        {"kind": "OPEN", "net": "DC05"},
        {"kind": "SHORT", "net": "DC05", "other": "RF", "resistance_ohm": 1e6},
        {"kind": "LEAK_TO_GND", "net": "TS1", "resistance_ohm": 2e5},
        {"kind": "RESISTANCE_SHIFT", "net": "RF", "factor": 12.0},
        {"kind": "HW_FAIL", "step_index": 77},
    ],
    ids=["open", "short", "leak", "shift", "hw_fail"],
)
def test_fault_with_explicit_defaults_writes_the_same_log(tmp_path, fault):
    # the defaults a fault file may spell out, as fault-set writers do
    explicit = {"net": None, "other": None, "resistance_ohm": 0.0, "factor": 1.0, "step_index": -1, **fault}
    logs = []
    for name, spec in (("minimal", fault), ("explicit", explicit)):
        (tmp_path / f"{name}.json").write_text(json.dumps({"faults": [spec]}))
        log = tmp_path / f"{name}.csv"
        assert run_cli("wafertest", "--faults", tmp_path / f"{name}.json", "--out", log) == 1
        logs.append(log.read_bytes())
    assert logs[0] == logs[1]


def test_heating_csv_without_site_column_fits_every_row(tmp_path):
    table = tmp_path / "rates.csv"
    table.write_text("frequency_mhz,rate_quanta_per_s,sigma_quanta_per_s\n" + "".join(
        f"{f},{20.0 * f**-2},{0.5 * f**-2}\n" for f in (0.5, 1.0, 2.0, 4.0)))
    out = tmp_path / "fit.json"
    assert run_cli("heating", "--csv", table, "--out", out) == 0
    blob = json.loads(out.read_text())
    assert blob["n_points"] == 4 and blob["alpha"] == pytest.approx(2.0, abs=1e-6)


# ------------------------------------------------------------ fuzzed documents

# Keys and strings the documents use, mixed with arbitrary text.
_WORDS = [
    "faults", "kind", "net", "other", "resistance_ohm", "factor", "step_index",
    "nets", "id", "role", "pads", "loop_resistance_ohm", "element_resistance_ohm", "group", "name",
    "geometry", "voltages", "scales", "window_um", "axis_um", "y", "z", "fault", "electrode",
    "held_voltage", "charge_rects_um", "charge_voltage",
    "OPEN", "SHORT", "LEAK_TO_GND", "RESISTANCE_SHIFT", "HW_FAIL", "dc", "comp", "ts", "rf", "gnd",
    "DC05", "DC18", "CP1", "TS1", "RF", "RF0", "GND", "builtin", "NOMINAL", "SHORTED", "FLOATING",
    "GAP_CHARGE", "CONTINUITY_FAIL", "LEAK_DC_DC",
]
_TEXT = st.sampled_from(_WORDS) | st.text(max_size=6)
_SCALAR = st.none() | st.booleans() | st.integers() | st.floats() | _TEXT
_JSON = st.recursive(
    _SCALAR,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=5),
    max_leaves=16,
)


def _paths(doc, at=()):
    """The path of every node of a JSON document, the document itself first."""
    yield at
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, (*at, key))


def _replaced(doc, path, value):
    if not path:
        return value
    copy = dict(doc) if isinstance(doc, dict) else list(doc)
    copy[path[0]] = _replaced(doc[path[0]], path[1:], value)
    return copy


@st.composite
def _documents(draw, valid):
    """``valid`` with one node, or the whole of it, replaced by a drawn JSON
    value, a scalar as often as not: so that most documents get past the
    first shape check."""
    path = draw(st.sampled_from(list(_paths(valid))))
    return _replaced(valid, path, draw(_SCALAR | _JSON))


_VALID_NETLIST = {"name": "toy", "nets": [
    {"id": "DC01", "role": "dc", "pads": ["P1", "P2"], "loop_resistance_ohm": 20.0},
    {"id": "TS1", "role": "ts", "pads": ["T1", "T2", "T3", "T4"], "loop_resistance_ohm": 15.0,
     "element_resistance_ohm": 32.3e3},
    {"id": "RF", "role": "rf", "pads": ["R1", "R2"], "loop_resistance_ohm": 5.0},
    {"id": "GND", "role": "gnd", "pads": ["G1"]},
]}
_VALID_FAULTS = {"faults": [
    {"kind": "SHORT", "net": "DC05", "other": "RF", "resistance_ohm": 1e8},
    {"kind": "RESISTANCE_SHIFT", "net": "TS1", "factor": 1.05},
    {"kind": "HW_FAIL", "step_index": 300},
]}


@pytest.mark.parametrize(
    "args, valid",
    [
        (["wafertest", "--faults", "doc.json", "--out", "out.csv"], _VALID_FAULTS),
        (["wafertest", "--netlist", "doc.json", "--out", "out.csv"], _VALID_NETLIST),
        (["yieldmap", "--rates", "doc.json", "--out-svg", "out.svg", "--out-csv", "out.csv"],
         {"CONTINUITY_FAIL": 0.2, "LEAK_DC_DC": 0.22}),
        (["field", "--voltages", "doc.json", "--out", "out.csv"], {"RF0": 1.0, "DC18": -2.0, "CP1": 0.5}),
        (["diagnose", "--scenario", "doc.json", "--out", "out.json"],
         {**_SCENARIO, "geometry": "builtin", "scales": [1.0, 2.0],
          "fault": {"kind": "FLOATING", "electrode": "DC18", "held_voltage": -1.0}}),
    ],
    ids=["faults", "netlist", "rates", "voltages", "scenario"],
)
@settings(
    derandomize=True, max_examples=150, deadline=None, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],  # the directory is reused on purpose
)
@given(data=st.data())
def test_any_json_document_is_answered_or_refused(tmp_path, monkeypatch, args, valid, data):
    # whatever the document, the command answers (0 or 1) or refuses it with
    # one line (2); never an unexpected error (3) or a traceback
    monkeypatch.chdir(tmp_path)
    (tmp_path / "doc.json").write_text(json.dumps(data.draw(_documents(valid), label="document")))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = run_cli(*args)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), err.getvalue()
    if code == 2:
        assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("trapqa: "), err.getvalue()


@pytest.mark.parametrize("sigmas", [["1e-320", "5", "2"], ["1e300"] * 3], ids=["weight_inf", "weights_zero"])
def test_heating_sigma_without_a_weight_exits_2(tmp_path, capsys, sigmas):
    # 1e-320 used to write NaN and exit 0; 1e300 was refused as a "degenerate abscissa"
    table = tmp_path / "rates.csv"
    rows = [f"{f},{r},{s}" for f, r, s in zip((1.0, 2.0, 3.0), (100.0, 30.0, 12.0), sigmas)]
    table.write_text("\n".join(["frequency_mhz,rate_quanta_per_s,sigma_quanta_per_s", *rows]) + "\n")
    out = tmp_path / "heating.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        err = _refused(capsys, "heating", "--csv", table, "--out", out)
    assert caught == []
    assert err.count("\n") == 1 and err.startswith(f"trapqa: bad input: sigma {float(sigmas[0])!r} gives the weight")
    assert not out.exists()


@pytest.mark.parametrize(
    "command, header, rows, line",
    [
        ("thermo", "T_K,R_ohm,sigma_ohm", ["10,100,1", "20,101,0", "30,105,-1", "40,110,1"],
         "sigma 0.0 ohm at 20.0 K is not above zero"),
        ("heating", "frequency_mhz,rate_quanta_per_s,sigma_quanta_per_s", ["1.0,100,5", "2.0,30,-2", "3.0,12,0"],
         "sigma -2.0 at frequency 2.0 is not above zero"),
    ],
    ids=["thermo_calibration", "heating_csv"],
)
def test_sigma_not_above_zero_exits_2_naming_its_row(tmp_path, capsys, command, header, rows, line):
    # both used to refuse with a message that named neither the row nor the sigma
    table = tmp_path / "table.csv"
    table.write_text("\n".join([header, *rows]) + "\n")
    out = tmp_path / "out.json"
    option = "--calibration" if command == "thermo" else "--csv"
    err = _refused(capsys, command, option, table, "--out", out)
    assert err == f"trapqa: bad input: {line}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "rows, reason",
    [
        (["10,100", "20,100", "30,100", "40,100"], "did not estimate Theta"),
        (["10,100,1e150", "20,101,1e150", "30,105,1e150", "40,110,1e150"], "did not estimate Theta"),
        (["10,-100", "20,100", "30,105", "40,110"], "resistance -100.0 ohm at 10.0 K is not above zero"),
    ],
    ids=["flat", "huge_sigma", "negative"],
)
def test_thermo_calibration_without_an_estimate_exits_2(tmp_path, capsys, rows, reason):
    # the first two used to exit 0 with Theta at its start value, 300.0
    header = "T_K,R_ohm,sigma_ohm" if rows[0].count(",") == 2 else "T_K,R_ohm"
    cal = tmp_path / "cal.csv"
    cal.write_text("\n".join([header, *rows]) + "\n")
    out = tmp_path / "fit.json"
    err = _refused(capsys, "thermo", "--calibration", cal, "--out", out)
    assert err.count("\n") == 1 and reason in err
    assert not out.exists()


def _calibration_rows(model, count, sigmas):
    """A noiseless calibration table of ``count`` rows from 10 to 300 K."""
    ts = [10.0 + 290.0 * k / (count - 1) for k in range(count)]
    rs = model_resistance(model, ts).tolist()
    if sigmas is None:
        return ["T_K,R_ohm", *(f"{t!r},{r!r}" for t, r in zip(ts, rs))]
    return ["T_K,R_ohm,sigma_ohm", *(f"{t!r},{r!r},{s!r}" for t, r, s in zip(ts, rs, sigmas))]


@pytest.mark.parametrize(
    "model, count, sigmas, line",
    [
        (RTModel(r_res=100.0, amplitude=1000.0, theta=900.0), 40, None,
         "R(T) fit ended with Theta 599.9999999999999 K pinned at its bound 600.0 K (allowed 100.0..600.0 K;"),
        (RTModel(r_res=100.0, amplitude=1000.0, theta=60.0), 40, None,
         "R(T) fit ended with Theta 100.00000000000001 K pinned at its bound 100.0 K (allowed 100.0..600.0 K;"),
        (SENSOR_PRESETS["TS1"], 10, [1e-320] + [5.0] * 9,
         "sigma 1e-320 gives the weight 1/sigma**2 = inf; it must be finite and above zero"),
    ],
    ids=["theta_above_bounds", "theta_below_bounds", "weight_inf"],
)
def test_thermo_calibration_refuses_a_pinned_theta_and_an_infinite_weight(tmp_path, capsys, model, count, sigmas, line):
    # the first two used to write Theta at its bound and exit 0; the third
    # printed two RuntimeWarnings and stopped in scipy's "Residuals are not finite"
    cal = tmp_path / "cal.csv"
    cal.write_text("\n".join(_calibration_rows(model, count, sigmas)) + "\n")
    out = tmp_path / "fit.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        err = _refused(capsys, "thermo", "--calibration", cal, "--out", out)
    assert caught == []
    assert err.count("\n") == 1 and err.startswith(f"trapqa: bad input: {line}")
    assert not out.exists()
