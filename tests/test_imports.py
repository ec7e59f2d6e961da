"""Import weight: the package and the numpy-only CLI commands never load scipy.

Loading scipy takes about a second, which every CLI process would pay, so
scipy is imported only inside the functions that call it. Each check runs in
a fresh interpreter, since this test session has long since loaded scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trapqa

SRC = str(Path(trapqa.__file__).resolve().parent.parent)

REPORT_SCIPY = (
    "import sys; print(' '.join(sorted(m for m in sys.modules"
    " if m == 'scipy' or m.startswith('scipy.'))))"
)


def _scipy_modules_after(code, cwd):
    """The scipy modules loaded after running ``code`` in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\n{REPORT_SCIPY}"],
        capture_output=True, text=True, cwd=cwd, env=env, check=True,
    )
    return proc.stdout.split()


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


@pytest.mark.parametrize(
    "argv",
    [
        ["dissipation", "--out", "power.csv"],
        ["wafertest", "--out", "steps.csv", "--summary", "run.json"],
        ["heating", "--out", "heating.json"],
        ["field", "--z", "50:200:4", "--y", "42.331:42.331:1", "--out", "scan.csv"],
        ["strayfield", "--applied", "applied.json", "--reference", "ideal.json",
         "--point", "0,42.3,124.4", "--out", "stray.json"],
    ],
    ids=lambda argv: argv[0],
)
def test_numpy_only_command_loads_no_scipy(argv, tmp_path):
    (tmp_path / "applied.json").write_text(json.dumps({"CP1": 0.2, "DC05": -0.1}))
    (tmp_path / "ideal.json").write_text(json.dumps({"CP1": 0.1}))
    code = f"from trapqa.cli import main\nassert main({argv!r}) == 0"
    assert _scipy_modules_after(code, tmp_path) == []
