"""The package loads its modules on first use: validating and loading documents never import numpy."""

import subprocess
import sys

import pytest

import dpbudget

from test_cli import BAD_SUM, PAPER, UNIFORM, module_env

# Loads documents through the package, then validates through the CLI in
# both formats, with and without an allocation; prints the numpy modules loaded.
_NUMPY_FREE = """
import contextlib, io, sys
from pathlib import Path

import dpbudget
from dpbudget.cli import run_cli

paper, uniform, bad_sum = sys.argv[1:]
workload = dpbudget.load_workload(Path(paper).read_text())
dpbudget.load_allocation(Path(uniform).read_text(), workload)
for extra, code in (([], 0), (["--allocation", uniform], 0), (["--allocation", bad_sum], 1)):
    for fmt in ("text", "json"):
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_cli(["validate", "--workload", paper, *extra, "--format", fmt]) == code
print(sorted(name for name in sys.modules if name.partition(".")[0] == "numpy"))
"""


def test_validate_and_document_loading_do_not_import_numpy():
    completed = subprocess.run(
        [sys.executable, "-c", _NUMPY_FREE, PAPER, UNIFORM, BAD_SUM],
        capture_output=True, text=True, env=module_env(),
    )
    assert (completed.returncode, completed.stderr) == (0, "")
    assert completed.stdout == "[]\n"


def test_help_does_not_import_numpy():
    completed = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "dpbudget", "--help"],
        capture_output=True, text=True, env=module_env(),
    )
    assert completed.returncode == 0
    assert "usage: dpbudget" in completed.stdout
    imported = [line.rpartition("|")[2].strip() for line in completed.stderr.splitlines()]
    assert "dpbudget.cli" in imported
    assert not [name for name in imported if name.partition(".")[0] == "numpy"]


def test_public_names_are_their_home_modules_objects():
    for name in dpbudget.__all__:
        value = getattr(dpbudget, name)
        assert value.__module__.startswith("dpbudget."), name
        assert getattr(sys.modules[value.__module__], name) is value, name
    assert "__all__" in dir(dpbudget)
    assert set(dpbudget.__all__) <= set(dir(dpbudget))
    namespace = {}
    exec("from dpbudget import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(dpbudget.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        dpbudget.no_such_name
