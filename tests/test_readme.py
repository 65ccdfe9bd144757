"""README.md runs: every python block, every `nccorr` line of every sh block, and every `name` = value it states.

README is read beside `tests/`, so an installed-copy run checks the README of
the checkout its tests come from against the package it imports.
"""
import argparse
import ast
import importlib
import re
import shlex
from pathlib import Path

import pytest

import nccorr
from nccorr import cli

TEXT = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
FENCE = re.compile(r"^```(\w*)\n(.*?)^```$", re.M | re.S)
BLOCKS = [(m.group(1), m.group(2)) for m in FENCE.finditer(TEXT)]
PROSE = FENCE.sub("", TEXT)

# the only sh lines not run here: installs need the network, and pytest is what runs this file
NOT_RUN = {
    "pip install -e . --no-build-isolation          # library + `nccorr` CLI",
    "pip install -e '.[test]' --no-build-isolation  # with pytest + hypothesis",
    "python -m pytest -q                              # Tier-1, the acceptance gate included",
    "python -m pytest -q -s tests/test_acceptance.py  # the acceptance criteria with live PASS/FAIL lines",
    "python -m pytest -q perfbench                    # the benchmark's own tests",
}

NUMBER = r"-?\d+(?:\.\d+)?(?:e-?\d+)?"
STATED = re.compile(rf"`([A-Za-z_][\w.]*)` = ({NUMBER})")
MODULES = ("core", "qmat", "search", "measures", "states", "sweep", "verify", "cli")
NAMED = re.compile(rf"`((?:{'|'.join(MODULES)})(?:\.\w+)+)`")


def resolve(name: str):
    """The object `nccorr.<name>`, importing a submodule that nothing has imported yet."""
    obj = nccorr
    for part in name.split("."):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            obj = importlib.import_module(f"{obj.__name__}.{part}")
    return obj


def blocks(lang):
    return [code for kind, code in BLOCKS if kind == lang]


def where(code) -> str:
    """README.md:<line of the block's first line>, the block's test id."""
    line = TEXT[:TEXT.index(code)].count("\n") + 1
    return f"README.md:{line}"


def test_every_block_is_python_or_sh():
    assert [kind for kind, _ in BLOCKS if kind not in ("python", "sh")] == []
    assert blocks("python") and blocks("sh")


@pytest.mark.parametrize("code", blocks("python"), ids=where)
def test_python_block_runs(code, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {"__name__": "readme"})


def run(argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse's usage errors
        return exc.code


@pytest.mark.parametrize("code", blocks("sh"), ids=where)
def test_sh_block_runs(code, monkeypatch, tmp_path):
    # one directory per block, so a later line reads the files an earlier one wrote
    monkeypatch.chdir(tmp_path)
    for line in code.splitlines():
        if not line.strip() or line.startswith("#") or line in NOT_RUN:
            continue
        argv = shlex.split(line, comments=True)
        assert argv[0] == "nccorr", f"README line neither run nor listed in NOT_RUN: {line!r}"
        assert run(argv[1:]) == cli.EXIT_OK, line


def test_the_lines_not_run_are_in_readme():
    lines = {line for code in blocks("sh") for line in code.splitlines()}
    assert NOT_RUN <= lines


def test_every_stated_value_is_the_code_s():
    stated = STATED.findall(PROSE)
    assert len(stated) == PROSE.count("` = ") and stated
    for name, text in stated:
        want, got = ast.literal_eval(text), resolve(name)
        assert type(got) is type(want) and got == want, f"README says `{name}` = {text}, the code has {got!r}"


def test_every_named_module_attribute_exists():
    names = NAMED.findall(PROSE)
    assert names
    for name in names:
        resolve(name)


def test_every_flag_of_the_cli_section_is_a_cli_option():
    section = TEXT.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {s for p in sub.choices.values() for a in p._actions for s in a.option_strings}
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    assert flags and flags <= options, flags - options
