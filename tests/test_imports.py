"""Import weight: each CLI process loads only what its command runs.

Loading scipy takes about a second, which every CLI process would pay, so
scipy is imported only inside the functions that call it; the CLI imports
each command's analysis modules inside that command. Each check runs in a
fresh interpreter, since this test session has long since loaded them all.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trapqa

SRC = str(Path(trapqa.__file__).resolve().parent.parent)

REPORT_MODULES = (
    "import sys; print(' '.join(sorted(m for m in sys.modules"
    " if m.split('.')[0] in ('scipy', 'trapqa', 'concurrent') or m.startswith('numpy.random'))))"
)


def _modules_after(code, cwd):
    """The scipy, trapqa, concurrent and numpy.random modules loaded after
    running ``code`` in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\n{REPORT_MODULES}"],
        capture_output=True, text=True, cwd=cwd, env=env, check=True,
    )
    return proc.stdout.split()


def _scipy_modules_after(code, cwd):
    return [m for m in _modules_after(code, cwd) if m.split(".")[0] == "scipy"]


def _run_main(argv):
    return f"from trapqa.cli import main\nassert main({argv!r}) == 0"


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
    # the analysis modules, numpy.random and scipy wait for a command
    assert _modules_after("import trapqa.cli", tmp_path) == ["trapqa", "trapqa._io", "trapqa.cli"]


def test_wafertest_import_loads_no_numpy(tmp_path):
    # the chip test simulator is plain Python: it needs the standard library alone
    code = "import sys, trapqa.wafertest\nprint(*(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    assert _modules_after(code, tmp_path) == ["trapqa", "trapqa._io", "trapqa.wafertest"]


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


@pytest.mark.parametrize(
    "argv",
    [
        ["dissipation", "--out", "power.csv"],
        ["wafertest", "--out", "steps.csv", "--summary", "run.json"],
        ["heating", "--out", "heating.json"],
        ["field", "--z", "50:200:4", "--y", "42.331:42.331:1", "--out", "scan.csv"],
        ["strayfield", "--applied", "applied.json", "--reference", "ideal.json",
         "--point", "0,42.3,124.4", "--out", "stray.json"],
        ["diagnose", "--scenario", "scenario.json", "--out", "diag.json"],
        ["diagnose", "--scenario", "scenario.json", "--measurements", "positions.csv",
         "--out", "diag.json"],
    ],
    ids=["dissipation", "wafertest", "heating", "field", "strayfield", "diagnose",
         "diagnose_measurements"],
)
def test_numpy_only_command_loads_no_scipy(argv, tmp_path):
    (tmp_path / "applied.json").write_text(json.dumps({"CP1": 0.2, "DC05": -0.1}))
    (tmp_path / "ideal.json").write_text(json.dumps({"CP1": 0.1}))
    # a nominal trap measured at the nominal positions: diagnose exits 0
    (tmp_path / "scenario.json").write_text(json.dumps(SCENARIO))
    (tmp_path / "positions.csv").write_text(
        "scale,position_um\n1.0,0.0\n2.0,0.0\n4.0,0.0\n"
    )
    assert _scipy_modules_after(_run_main(argv), tmp_path) == []


def test_field_loads_no_other_analysis_module(tmp_path):
    argv = ["field", "--z", "50:200:4", "--y", "42.331:42.331:1", "--out", "scan.csv"]
    loaded = _modules_after(_run_main(argv), tmp_path)
    for name in ("wafertest", "yieldmap", "diagnosis", "thermometry"):
        assert f"trapqa.{name}" not in loaded
