"""Command-line behavior: artifacts, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from trapqa.cli import main


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


def test_missing_input_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("diagnose", "--scenario", tmp_path / "nope.json", "--out", tmp_path / "o.json")
    assert exc.value.code == 2


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


@pytest.mark.parametrize("case", ["strayfield_point", "heating_few", "diagnose_no_fault", "thermo_no_input"])
def test_input_errors_exit_2_with_message(tmp_path, capsys, case):
    out = tmp_path / "out.json"
    if case == "strayfield_point":
        args = _stray_inputs(tmp_path) + ["--point", "1,2", "--out", out]
    elif case == "heating_few":
        table = tmp_path / "rates.csv"
        table.write_text("site,frequency_mhz,rate_quanta_per_s,sigma_quanta_per_s\n3,1.0,20.0,0.5\n")
        args = ["heating", "--csv", table, "--out", out]
    elif case == "diagnose_no_fault":
        args = ["diagnose", "--scenario", _scenario(tmp_path, None), "--out", out]
    else:
        args = ["thermo", "--resistance", 1000.0, "--out", out]
    _refused(capsys, *args)
    assert not out.exists()


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


def test_thermo_unconverged_fit_exits_2(tmp_path, capsys, starved_fit):
    cal = tmp_path / "cal.csv"
    cal.write_text("T_K,R_ohm\n4,2000.1\n77,2400.5\n150,3900.2\n295,6800.9\n")
    out = tmp_path / "fit.json"
    err = _refused(capsys, "thermo", "--calibration", cal, "--out", out)
    assert "status 0" in err
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
