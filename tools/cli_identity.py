"""Byte-identity check of the dpbudget CLI between a revision and the working tree.

    python3 tools/cli_identity.py REV

Extracts ``git archive REV`` and the working tree's ``src/`` into two
directories and runs one list of ``python -m dpbudget`` commands under each,
with ``PYTHONPATH`` set to that side's ``src``. Every command runs in one
shared directory that holds all the documents (``tests/data`` of the working
tree and the documents ``bench/instances.generate(spec, 1, dir)`` writes for
each benchmark workload), and names them by relative paths, so the paths in
messages match. The list is every golden command of the working tree's
``tests/test_golden.py`` (each ``CASES`` and ``FAILING_CASES`` argv, and each
``DUMP_DIGESTS`` case with ``--dump-trials``), then what golden files cannot
hold: the six ``--help`` texts, usage and validation failures, and
``validate``, ``score``, ``compare``, ``optimize --method descent|sqrt|grid``,
a Monte Carlo ``score`` and ``simulate --dump-trials`` on each benchmark workload.

Compares the stdout, stderr and exit code of each command and the sha256 of
each file it writes, prints every command that differs, and exits 1 on any
difference, 0 otherwise. Needs numpy and pytest to import the golden tables;
one command runs at a time.
"""

from __future__ import annotations

import hashlib
import io
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src"), str(ROOT / "tests")]

import test_golden as golden  # noqa: E402
from instances import WORKLOADS, generate  # noqa: E402

# Files a command may write, relative to the shared directory; each is hashed and removed after the command.
OUTPUTS = ("out/trials.csv", "out/allocation.json")


def _golden_commands() -> list[list[str]]:
    """tests/test_golden.py's commands, their document paths made relative to the shared directory."""
    failing = [argv for _, argv in golden.FAILING_CASES.values()]
    dumps = [[*golden.CASES[name], "--dump-trials", OUTPUTS[0]] for name in golden.DUMP_DIGESTS]
    commands = [*golden.CASES.values(), *failing, *dumps]
    return [[arg.replace(str(golden.DATA), "data") for arg in argv] for argv in commands]


def _commands(shared: Path, generated: dict) -> list[list[str]]:
    """The fixed list; ``generated`` holds each benchmark workload's Inputs, written under ``shared``."""
    paper = ["--workload", "data/paper4.json"]
    exclusion = ["--workload", "data/exclusion.json", "--allocation", "data/exclusion_allocation.json"]
    uniform = "data/uniform.json"
    commands = [
        *_golden_commands(),
        # Every --help text.
        ["--help"],
        *([command, "--help"] for command in ("validate", "score", "compare", "optimize", "simulate")),
        # Usage and validation failures.
        [],
        ["score", *paper],
        ["score", "--workload", "data/missing.json", "--allocation", uniform],
        ["score", "--workload", "data", "--allocation", uniform],
        ["score", *paper, "--allocation", uniform, "--estimator", "montecarlo"],
        ["score", *paper, "--allocation", uniform, "--estimator", "montecarlo", "--mc-samples", "10", "--seed", "1"],
        ["simulate", *paper, "--allocation", uniform, "--trials", "100"],
        ["simulate", *paper, "--allocation", uniform, "--trials", "100", "--seed", "-1"],
        ["compare", *paper, uniform],
        ["score", "--workload", uniform, "--allocation", uniform],
        ["optimize", *paper, "--method", "sqrt"],
        ["optimize", *paper, "--method", "descent", "--out", OUTPUTS[1]],
        ["optimize", *paper, "--method", "descent", "--out", "data"],
        ["score", *exclusion],
        ["validate", *exclusion, "--format", "text"],
    ]
    for name, spec in sorted(WORKLOADS.items()):
        inputs = generated[name]
        pool = [str(path.relative_to(shared)) for path in inputs.pool]
        workload, allocation = ["--workload", str(inputs.main.relative_to(shared))], ["--allocation", pool[0]]
        # Two chunks, the last one partial, for the smaller workload; one partial chunk for the larger one.
        trials = "20000" if spec.statistics <= 50 else "2000"
        commands += [
            ["validate", *workload, *allocation],
            ["score", *workload, *allocation],
            ["score", *workload, *allocation, "--format", "csv"],
            ["compare", *workload, *pool],
            ["optimize", *workload, "--method", "descent"],
            ["optimize", "--workload", str(inputs.separable.relative_to(shared)), "--method", "sqrt"],
            ["optimize", "--workload", str(inputs.small.relative_to(shared)), "--method", "grid"],
            ["score", *workload, *allocation, "--estimator", "montecarlo", "--mc-samples", str(spec.mc_samples),
             "--seed", "1"],
            ["simulate", *workload, *allocation, "--trials", trials, "--seed", "1", "--dump-trials", OUTPUTS[0]],
        ]
    return commands


def _run(python_path: Path, shared: Path, argv: list[str]) -> tuple:
    """One command's exit code, stdout, stderr and the sha256 of each file it wrote (None where it wrote none)."""
    env = dict(os.environ, PYTHONPATH=str(python_path), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-m", "dpbudget", *argv], cwd=shared, env=env, capture_output=True)
    digests = []
    for name in OUTPUTS:
        path = shared / name
        if path.exists():
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
            path.unlink()
        else:
            digests.append(None)
    return done.returncode, done.stdout, done.stderr, digests


def _differences(before: tuple, after: tuple) -> list[str]:
    fields = ("exit code", "stdout", "stderr", "written files")
    return [field for field, old, new in zip(fields, before, after) if old != new]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/cli_identity.py REV", file=sys.stderr)
        return 2
    archive = subprocess.run(["git", "archive", "--format=tar", argv[0]], cwd=ROOT, capture_output=True)
    if archive.returncode:
        sys.stderr.write(archive.stderr.decode(errors="replace"))
        return 2
    with tempfile.TemporaryDirectory(prefix="cli-identity-") as scratch:
        scratch = Path(scratch)
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(scratch / "revision", filter="data")
        shutil.copytree(ROOT / "src", scratch / "tree" / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shared = scratch / "shared"
        shutil.copytree(ROOT / "tests" / "data", shared / "data")
        (shared / "out").mkdir()
        generated = {name: generate(spec, 1, shared / "bench" / name) for name, spec in WORKLOADS.items()}
        commands = _commands(shared, generated)
        differing = 0
        for command in commands:
            before = _run(scratch / "revision" / "src", shared, command)
            after = _run(scratch / "tree" / "src", shared, command)
            if before != after:
                differing += 1
                print(f"DIFFERS ({', '.join(_differences(before, after))}): dpbudget {' '.join(command)}")
    print(f"{len(commands)} commands, {differing} differ between {argv[0]} and the working tree")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
