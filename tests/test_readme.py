"""The README's python blocks run, in order, in one namespace, and every
``spgrid`` command of its Command line block exits 0."""

import re
import shlex
from pathlib import Path

from spgrid.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    namespace = {}
    for block in blocks:  # a later block uses the names an earlier one bound
        exec(compile(block, str(README), "exec"), namespace)


def test_command_line_examples_exit_0(capsys):
    [block] = re.findall(r"^## Command line\n.*?^```\n(.*?)^```", README.read_text(),
                         re.M | re.S)
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    assert commands
    for argv in commands:
        assert argv[0] == "spgrid"
        assert main(argv[1:]) == 0, shlex.join(argv)
