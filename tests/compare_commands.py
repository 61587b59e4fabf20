"""Compare the "same behaviour" command set between two checkouts.

Usage:

    python3 tests/compare_commands.py PARENT CHANGE

PARENT and CHANGE are the roots of two checkouts of this repository.
Every argv of cli_commands.txt, the file next to this script, runs as
`python3 -m lqcat.cli ARGV --no-meta` once per checkout, with that
checkout's src/ as PYTHONPATH, OPENBLAS_NUM_THREADS=1 and an empty
working directory; the two runs of one command go side by side.  Every
stream and file is read as bytes, with no newline translation.  Each
command whose exit code, stdout, stderr or any file it wrote into its
working directory (as with -o) differs is printed with the first line
that differs, the number of lines that differ, the largest
absolute difference between numeric fields (split on commas, whitespace
and JSON punctuation), and whether any other field differs, such as
true/false or NaN.  Exits 1 if any command differs, else 0.

Needs only the standard library; pytest does not collect it.
"""

from __future__ import annotations

import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = Path(__file__).resolve().parent / "cli_commands.txt"
FIELD_SEPARATORS = re.compile(r'[\s,\[\]{}:"]+')


def read_commands() -> list[list[str]]:
    """The argvs of the command set: blank and '#' lines skipped."""
    lines = COMMANDS.read_text().splitlines()
    return [shlex.split(line) for line in lines
            if line.strip() and not line.lstrip().startswith("#")]


def start(root: Path, argv: list[str], cwd: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1")
    return subprocess.Popen(
        [sys.executable, "-m", "lqcat.cli", *argv, "--no-meta"],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def first_difference(a: str, b: str) -> str:
    """The first line at which two outputs differ, from each side."""
    a_lines, b_lines = a.splitlines(), b.splitlines()
    for k in range(max(len(a_lines), len(b_lines))):
        x = a_lines[k] if k < len(a_lines) else "<end>"
        y = b_lines[k] if k < len(b_lines) else "<end>"
        if x != y:
            return f"line {k + 1}:\n      parent: {x}\n      change: {y}"
    return "trailing newline"


def drift(a: str, b: str) -> str:
    """How far two outputs are apart: the lines that differ, the largest
    absolute difference between numeric fields, and whether any other
    field differs (a non-number, a non-finite difference, or a line
    whose field count differs)."""
    a_lines, b_lines = a.splitlines(), b.splitlines()
    lines = abs(len(a_lines) - len(b_lines))
    largest, other = 0.0, lines > 0
    for x, y in zip(a_lines, b_lines):
        if x == y:
            continue
        lines += 1
        x_fields, y_fields = FIELD_SEPARATORS.split(x), FIELD_SEPARATORS.split(y)
        if len(x_fields) != len(y_fields):
            other = True
        for u, v in zip(x_fields, y_fields):
            if u == v:
                continue
            try:
                gap = abs(float(u) - float(v))
            except ValueError:
                gap = math.nan
            if math.isfinite(gap):
                largest = max(largest, gap)
            else:
                other = True
    return (f"differing lines {lines}, largest numeric difference "
            f"{largest:.2g}, other fields {'differ' if other else 'equal'}")


def written_files(cwd: str) -> dict[str, str]:
    """Every file under cwd, by its path relative to cwd, with its text."""
    root = Path(cwd)
    return {str(p.relative_to(root)): p.read_bytes().decode(errors="replace")
            for p in sorted(root.rglob("*")) if p.is_file()}


def compare(parent: Path, change: Path, argv: list[str]) -> list[str]:
    """The differences between the two runs of one argv, one per stream
    or written file."""
    with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
        runs = [start(parent, argv, a), start(change, argv, b)]
        results = [tuple(stream.decode(errors="replace") for stream in run.communicate())
                   + (run.returncode,) for run in runs]
        files_a, files_b = written_files(a), written_files(b)
    (out_a, err_a, code_a), (out_b, err_b, code_b) = results
    diffs = []
    if code_a != code_b:
        diffs.append(f"exit code: parent {code_a}, change {code_b}")
    if files_a.keys() != files_b.keys():
        diffs.append(f"files written: parent {sorted(files_a)}, "
                     f"change {sorted(files_b)}")
    streams = [("stdout", out_a, out_b), ("stderr", err_a, err_b)]
    streams += [(f"file {name}", files_a[name], files_b[name])
                for name in sorted(files_a.keys() & files_b.keys())]
    for name, x, y in streams:
        if x != y:
            diffs.append(f"{name} {first_difference(x, y)}\n      {drift(x, y)}")
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
          f"(exit code, stdout, stderr or a written file)")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
