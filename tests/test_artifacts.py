"""The bytes of every command's artifacts, pinned in one manifest.

``artifacts.json`` lists one case per run: its ``argv``, the ``inputs`` it
reads (a JSON object is written as JSON, a string as it is), its ``exit``
code and the SHA-256 of each output file it writes, ``<stdout>`` standing
for a command's standard output. Cases marked ``readme`` are the README's
own commands (``tests/test_imports.py`` checks the README against them).
Each case runs in-process in an empty directory. A change to an artifact's
bytes is then one reviewed diff of the manifest.
"""

import argparse
import hashlib
import json
from pathlib import Path

import pytest

from trapqa.cli import build_parser, main

CASES = json.loads((Path(__file__).resolve().parent / "artifacts.json").read_text(encoding="utf-8"))
STDOUT = "<stdout>"


def write_inputs(case, directory):
    for name, doc in case.get("inputs", {}).items():
        (directory / name).write_text(doc if isinstance(doc, str) else json.dumps(doc))


@pytest.mark.parametrize("case", CASES, ids=[case["id"] for case in CASES])
def test_artifacts_keep_their_bytes(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_inputs(case, tmp_path)
    assert main(case["argv"]) == case["exit"]
    outputs = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.name not in case.get("inputs", {})}
    stdout = capsys.readouterr().out.encode()
    if stdout:
        outputs[STDOUT] = stdout
    assert {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()} == case["outputs"]


def test_every_subcommand_and_option_has_a_case():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    # every subcommand, and every option of the parser and of each subcommand
    wanted = {(name, None) for name in commands} | {
        (name, option)
        for name, p in [(None, parser), *commands.items()]
        for action in p._actions
        for option in action.option_strings
        if option not in ("-h", "--help")
    }
    used = set()
    for case in CASES:
        command = None
        for word in case["argv"]:
            if command is None and word in commands:
                command = word
                used.add((command, None))
            elif word.startswith("--"):
                used.add((command, word.split("=")[0]))
    assert wanted - used == set()
