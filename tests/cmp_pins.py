"""Compare the CLI outputs pinned in tests/data/cmp-pins.txt with fresh runs, byte for byte.

Usage, from the repository root:

    PYTHONPATH=src python3 tests/cmp_pins.py

Each row runs ``python3 -m qtwist ARGV`` in its own process, two rows at a
time, and compares its stdout with the expected file.  Every row whose
output differs is named, and the exit code is 1 if any differs, 0 if all match.
"""

import os
import shlex
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

TABLE = os.path.join(os.path.dirname(__file__), "data", "cmp-pins.txt")


def pins():
    """The rows of the table as (argv list, expected file), in file order."""
    out = []
    with open(TABLE) as fh:
        for line in fh:
            row = line.split("#", 1)[0].strip()
            if row:
                argv, expected = row.split(" | ")
                out.append((shlex.split(argv), expected))
    return out


def differs(pin):
    argv, expected = pin
    got = subprocess.run([sys.executable, "-m", "qtwist", *argv], stdout=subprocess.PIPE).stdout
    with open(expected, "rb") as fh:
        return got != fh.read()


def main():
    rows = pins()
    with ThreadPoolExecutor(2) as pool:
        bad = [pin for pin, d in zip(rows, pool.map(differs, rows)) if d]
    for argv, expected in bad:
        print(f"differs: python3 -m qtwist {shlex.join(argv)} | cmp - {expected}")
    print(f"{len(rows) - len(bad)} of {len(rows)} pins match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
