"""README.md's examples run as written: its Python block, and each `cyclomap`
line of its shell blocks through `cli.run`."""

import contextlib
import io
import json
import pathlib
import re
import shlex

import pytest

from cyclomap import cli
from cyclomap.mto1 import CRITERIA
from cyclomap.unitary import _FAMILY_IDS

README = (pathlib.Path(__file__).parent.parent / "README.md").read_text()


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)


_CLI_LINES = [line for block in _blocks("sh") for line in block.splitlines()
              if line.startswith("cyclomap ")]


def test_readme_python_block_runs():
    (block,) = _blocks("python")
    exec(compile(block, "README.md", "exec"), {})


def test_readme_lists_cli_lines():
    assert len(_CLI_LINES) >= 10


@pytest.mark.parametrize("line", _CLI_LINES, ids=[line.split()[1] for line in _CLI_LINES])
def test_readme_cli_line_exits_0(line):
    argv = shlex.split(line)[1:]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    assert (code, err.getvalue()) == (0, ""), line
    assert out.getvalue(), line
    if "--json" in argv:
        json.loads(out.getvalue())  # one JSON document and nothing after it


def _listed(flag):
    """The names README lists in backticks after `<flag>` accepts."""
    (names,) = re.findall(rf"`{flag}` accepts `([^`]*)`", README)
    return names.split()


def test_readme_lists_every_crit_theorem_and_family():
    assert _listed("crit --theorem") == list(CRITERIA)
    assert _listed("unit-family --family") == list(_FAMILY_IDS)
