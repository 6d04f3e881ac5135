"""The library loads no click: only the command line builds its group."""

import os
import subprocess
import sys
from pathlib import Path

import click
import pytest

from heartglue import cli

SRC = Path(__file__).resolve().parent.parent / "src"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))

# the package and every module pkgutil finds in it, as perfbench's tracer
# imports them
IMPORT_ALL = """
import importlib, pkgutil, sys
import heartglue
for m in pkgutil.iter_modules(heartglue.__path__):
    importlib.import_module(f"heartglue.{m.name}")
print(sorted(k for k in sys.modules if k.split(".")[0] == "click"))
"""


def _python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=ENV, text=True,
                          capture_output=True, timeout=120)


def test_importing_every_module_loads_no_click():
    r = _python("-c", IMPORT_ALL)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "[]\n"


def test_main_is_the_click_group_of_the_commands():
    assert isinstance(cli.main, click.Group)
    assert cli.main is cli.main
    assert tuple(cli.main.commands) == cli.COMMANDS


def test_other_names_stay_missing():
    with pytest.raises(AttributeError, match="no attribute 'mian'"):
        cli.mian


@pytest.mark.parametrize("argv", [
    ["-m", "heartglue.cli"],
    ["-c", "from heartglue.cli import main; main()"],
], ids=["python-m", "console-script"])
def test_command_line_lists_every_command(argv):
    r = _python(*argv, "--help")
    assert r.returncode == 0, r.stderr
    listed = [line.split()[0] for line in
              r.stdout.split("Commands:\n", 1)[1].splitlines()]
    assert sorted(listed) == sorted(cli.COMMANDS)
