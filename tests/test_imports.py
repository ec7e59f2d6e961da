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

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import trapqa
from test_artifacts import CASES, write_inputs

# The commands run below, and their inputs and exit codes, are cases of the
# artifact manifest: the README's commands are its ``readme`` cases. Of those
# only yieldmap's statistics may load scipy (its binomial and normal tails).
CASE = {case["id"]: case for case in CASES}
README_CASES = [case for case in CASES if case.get("readme")]
NUMPY_CASES = [case for case in README_CASES if "yieldmap" not in case["argv"]]
STDLIB_CASES = [case for case in CASES if case["argv"][0] in ("dissipation", "wafertest")]

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


def _case_code(case, cwd):
    """Code that runs ``case`` of the artifact manifest, whose inputs are
    written into ``cwd``."""
    write_inputs(case, cwd)
    # a command that writes to stdout must not mix its output into the report
    return (
        "import contextlib, io\nfrom trapqa.cli import main\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    assert main({case['argv']!r}) == {case['exit']}"
    )


@pytest.mark.parametrize("case", STDLIB_CASES, ids=[case["id"] for case in STDLIB_CASES])
def test_stdlib_command_loads_no_numpy(case, tmp_path):
    # the power table and the chip test are plain Python, the CLI included
    loaded = _modules_after(_case_code(case, tmp_path), tmp_path)
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


def test_readme_commands_are_the_table():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    lines = [
        line.split("#")[0].split()
        for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
        for line in block.replace("\\\n", " ").splitlines()
    ]
    commands = [" ".join(words[1:]) for words in lines if words[:1] == ["trapqa"]]
    assert sorted(commands) == sorted(" ".join(case["argv"]) for case in README_CASES)


@pytest.mark.parametrize("case", NUMPY_CASES, ids=[case["id"] for case in NUMPY_CASES])
def test_numpy_only_command_loads_no_scipy(case, tmp_path):
    assert _scipy_modules_after(_case_code(case, tmp_path), tmp_path) == []


def test_diagnose_loads_no_quadrature_port(tmp_path):
    # the bounded minimizer lives in diagnosis; the QUADPACK port is thermometry's
    assert "trapqa._solvers" not in _modules_after(_case_code(CASE["diagnose"], tmp_path), tmp_path)


def test_field_loads_no_other_analysis_module(tmp_path):
    loaded = _modules_after(_case_code(CASE["field"], tmp_path), tmp_path)
    for name in ("wafertest", "yieldmap", "diagnosis", "thermometry"):
        assert f"trapqa.{name}" not in loaded
