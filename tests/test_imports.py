"""Import weight: each CLI process loads only what its command runs.

Loading scipy takes about half a second and numpy about 0.15 s, which every
CLI process would pay. So the CLI imports each command's analysis modules,
and numpy, inside that command; the solvers the analyses run are ports in
``trapqa._solvers``, so of the README's commands only ``yieldmap`` loads
scipy, for ``scipy.special``'s tails, inside the functions that call them;
the chip test and the power table are plain Python and load no numpy at
all. Each check runs in a fresh interpreter, since this test session has
long since loaded them all.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import trapqa

SRC = str(Path(trapqa.__file__).resolve().parent.parent)

REPORT_MODULES = (
    "import sys; print(' '.join(sorted(m for m in sys.modules"
    " if m.split('.')[0] in ('scipy', 'trapqa', 'concurrent', 'numpy'))))"
)


def _modules_after(code, cwd):
    """The scipy, trapqa, concurrent and numpy modules loaded after running
    ``code`` in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\n{REPORT_MODULES}"],
        capture_output=True, text=True, cwd=cwd, env=env, check=True,
    )
    return proc.stdout.split()


def _scipy_modules_after(code, cwd):
    return [m for m in _modules_after(code, cwd) if m.split(".")[0] == "scipy"]


def _run_main(argv, code=0):
    # a command that writes to stdout must not mix its output into the report
    return (
        "import contextlib, io\nfrom trapqa.cli import main\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    assert main({argv!r}) == {code}"
    )


@pytest.mark.parametrize(
    "module",
    [
        "trapqa.cli",
        "trapqa.core",
        "trapqa.wafertest",
        "trapqa.yieldmap",
        "trapqa.electrostatics",
        "trapqa.thermometry",
        "trapqa.diagnosis",
    ],
)
def test_import_loads_no_scipy(module, tmp_path):
    assert _scipy_modules_after(f"import {module}", tmp_path) == []


def test_cli_import_loads_no_analysis_module(tmp_path):
    # the analysis modules, numpy and scipy wait for a command
    assert _modules_after("import trapqa.cli", tmp_path) == ["trapqa", "trapqa._io", "trapqa.cli"]


def test_wafertest_import_loads_no_numpy(tmp_path):
    # the chip test simulator is plain Python: it needs the standard library alone
    assert _modules_after("import trapqa.wafertest", tmp_path) == ["trapqa", "trapqa._io", "trapqa.wafertest"]


NETLIST = {"name": "toy", "nets": [
    {"id": "DC01", "role": "dc", "pads": ["P1", "P2"], "loop_resistance_ohm": 20.0},
    {"id": "TS1", "role": "ts", "pads": ["T1", "T2", "T3", "T4"], "loop_resistance_ohm": 15.0,
     "element_resistance_ohm": 32.3e3},
    {"id": "RF", "role": "rf", "pads": ["R1", "R2"], "loop_resistance_ohm": 5.0},
    {"id": "GND", "role": "gnd", "pads": ["G1"]},
]}


@pytest.mark.parametrize(
    "argv, code",
    [
        (["dissipation", "--out", "power.csv"], 0),
        (["dissipation", "--v0", "80", "--freq-mhz", "30", "--out", "power.csv"], 0),
        (["wafertest", "--out", "steps.csv", "--summary", "run.json"], 0),
        (["wafertest", "--faults", "faults.json", "--out", "steps.csv", "--summary", "run.json"], 1),
        (["wafertest", "--netlist", "netlist.json", "--out", "steps.csv"], 0),
    ],
    ids=["dissipation", "dissipation_drive", "wafertest", "wafertest_faults", "wafertest_netlist"],
)
def test_stdlib_command_loads_no_numpy(argv, code, tmp_path):
    # the power table and the chip test are plain Python, the CLI included
    (tmp_path / "faults.json").write_text(json.dumps({"faults": [{"kind": "OPEN", "net": "DC05"}]}))
    (tmp_path / "netlist.json").write_text(json.dumps(NETLIST))
    loaded = _modules_after(_run_main(argv, code), tmp_path)
    assert [m for m in loaded if m.split(".")[0] in ("numpy", "scipy")] == []


def test_usage_error_loads_no_numpy(tmp_path):
    code = (
        "from trapqa.cli import main\n"
        "try:\n    main(['wafertest', '--bogus'])\n"
        "except SystemExit as exc:\n    assert exc.code == 2"
    )
    assert _modules_after(code, tmp_path) == ["trapqa", "trapqa._io", "trapqa.cli"]


def test_kernels_import_loads_no_executor(tmp_path):
    # the kernels run their blocks on plain threads: concurrent.futures
    # would add import time to every process that computes a field
    loaded = _modules_after("import trapqa.kernels", tmp_path)
    assert [m for m in loaded if m.split(".")[0] == "concurrent"] == []


SCENARIO = {
    "geometry": "builtin",
    "voltages": {"DC17": 1.0, "DC18": -2.0, "DC19": 1.0, "DC52": 1.0, "DC53": -2.0, "DC54": 1.0},
    "scales": [1.0, 2.0, 4.0],
    "window_um": [-300, 300],
    "fault": {"kind": "NOMINAL"},
}


# Every command of the README, by the id its test takes. Each exits 0 on the
# inputs that _readme_inputs writes, but for those in EXIT_1; only those in
# SCIPY_COMMANDS may load scipy (yieldmap's binomial and normal tails).
README_COMMANDS = {
    "dissipation_stdout": "dissipation",
    "dissipation": "dissipation --out power.csv",
    "wafertest": "wafertest --out steps.csv --summary run.json",
    "wafertest_faults": "wafertest --faults faults.json --out steps.csv",
    "yieldmap": "--seed 99 yieldmap --out-svg wafer.svg --out-csv wafer.csv --out-stats stats.json",
    "yieldmap_plant": "yieldmap --plant-cell 1,1,LEAK_DC_DC,0.9 --out-svg wafer.svg --out-csv wafer.csv",
    "field": "field --z 50:200:16 --y 42.331:42.331:1 --out scan.csv",
    "strayfield": "strayfield --applied applied.json --reference ideal.json --point 0,42.3,124.4 --out stray.json",
    "diagnose": "diagnose --scenario scenario.json --out diag.json",
    "diagnose_measurements": "diagnose --scenario scenario.json --measurements positions.csv --out diag.json",
    "thermo_preset": "thermo --preset TS1 --resistance 29500 --out thermo.json",
    "thermo_calibration": "thermo --calibration rt_curve.csv --out fit.json",
    "heating": "heating --site 10 --out heating.json",
}
EXIT_1 = {"wafertest_faults"}
SCIPY_COMMANDS = {"yieldmap", "yieldmap_plant"}


def _readme_inputs(tmp_path):
    """The input files the README's commands name."""
    (tmp_path / "faults.json").write_text(json.dumps({"faults": [{"kind": "OPEN", "net": "DC05"}]}))
    (tmp_path / "applied.json").write_text(json.dumps({"CP1": 0.2, "DC05": -0.1}))
    (tmp_path / "ideal.json").write_text(json.dumps({"CP1": 0.1}))
    # a nominal trap measured at the nominal positions: diagnose exits 0
    (tmp_path / "scenario.json").write_text(json.dumps(SCENARIO))
    (tmp_path / "positions.csv").write_text("scale,position_um\n1.0,0.0\n2.0,0.0\n4.0,0.0\n")
    (tmp_path / "rt_curve.csv").write_text("T_K,R_ohm\n4,2000.1\n77,2400.5\n150,3900.2\n295,6800.9\n")


def test_readme_commands_are_the_table():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    lines = [
        line.split("#")[0].split()
        for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
        for line in block.replace("\\\n", " ").splitlines()
    ]
    commands = [" ".join(words[1:]) for words in lines if words[:1] == ["trapqa"]]
    assert sorted(commands) == sorted(README_COMMANDS.values())


@pytest.mark.parametrize("name", [name for name in README_COMMANDS if name not in SCIPY_COMMANDS])
def test_numpy_only_command_loads_no_scipy(name, tmp_path):
    _readme_inputs(tmp_path)
    argv = README_COMMANDS[name].split()
    assert _scipy_modules_after(_run_main(argv, 1 if name in EXIT_1 else 0), tmp_path) == []


def test_diagnose_loads_no_quadrature_port(tmp_path):
    # the bounded minimizer lives in diagnosis; the QUADPACK port is thermometry's
    (tmp_path / "scenario.json").write_text(json.dumps(SCENARIO))
    argv = ["diagnose", "--scenario", "scenario.json", "--out", "diag.json"]
    assert "trapqa._solvers" not in _modules_after(_run_main(argv), tmp_path)


def test_field_loads_no_other_analysis_module(tmp_path):
    argv = ["field", "--z", "50:200:4", "--y", "42.331:42.331:1", "--out", "scan.csv"]
    loaded = _modules_after(_run_main(argv), tmp_path)
    for name in ("wafertest", "yieldmap", "diagnosis", "thermometry"):
        assert f"trapqa.{name}" not in loaded
