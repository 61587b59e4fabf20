"""Compare the "same behaviour" command set between two checkouts.

Usage:

    python3 tests/compare_commands.py PARENT CHANGE

PARENT and CHANGE are the roots of two checkouts of this repository.
Every argv of cli_commands.txt, the file next to this script, runs as
`python3 -m lqcat.cli ARGV --no-meta` once per checkout, with that
checkout's src/ as PYTHONPATH, OPENBLAS_NUM_THREADS=1 and an empty
working directory; the two runs of one command go side by side.  Each
command whose exit code, stdout or stderr differs is printed with the
first line that differs.  Exits 1 if any command differs, else 0.

Needs only the standard library; pytest does not collect it.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = Path(__file__).resolve().parent / "cli_commands.txt"


def read_commands() -> list[list[str]]:
    """The argvs of the command set: blank and '#' lines skipped."""
    lines = COMMANDS.read_text().splitlines()
    return [shlex.split(line) for line in lines
            if line.strip() and not line.lstrip().startswith("#")]


def start(root: Path, argv: list[str], cwd: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1")
    return subprocess.Popen(
        [sys.executable, "-m", "lqcat.cli", *argv, "--no-meta"],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)


def first_difference(a: str, b: str) -> str:
    """The first line at which two outputs differ, from each side."""
    a_lines, b_lines = a.splitlines(), b.splitlines()
    for k in range(max(len(a_lines), len(b_lines))):
        x = a_lines[k] if k < len(a_lines) else "<end>"
        y = b_lines[k] if k < len(b_lines) else "<end>"
        if x != y:
            return f"line {k + 1}:\n      parent: {x}\n      change: {y}"
    return "trailing newline"


def compare(parent: Path, change: Path, argv: list[str]) -> list[str]:
    """The differences between the two runs of one argv, one per stream."""
    with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
        runs = [start(parent, argv, a), start(change, argv, b)]
        results = [run.communicate() + (run.returncode,) for run in runs]
    (out_a, err_a, code_a), (out_b, err_b, code_b) = results
    diffs = []
    if code_a != code_b:
        diffs.append(f"exit code: parent {code_a}, change {code_b}")
    for name, x, y in (("stdout", out_a, out_b), ("stderr", err_a, err_b)):
        if x != y:
            diffs.append(f"{name} {first_difference(x, y)}")
    return diffs


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tests/compare_commands.py PARENT CHANGE",
              file=sys.stderr)
        return 2
    parent, change = (Path(p).resolve() for p in argv)
    for root in (parent, change):
        if not (root / "src" / "lqcat").is_dir():
            print(f"{root}: no src/lqcat here", file=sys.stderr)
            return 2
    commands = read_commands()
    differing = 0
    for command in commands:
        diffs = compare(parent, change, command)
        if diffs:
            differing += 1
            print(f"DIFFERS: lqcat {shlex.join(command)}")
            for diff in diffs:
                print(f"    {diff}")
    print(f"{differing} of {len(commands)} commands differ "
          f"(exit code, stdout or stderr)")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
