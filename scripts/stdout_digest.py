#!/usr/bin/env python3
"""Digest of every command's output on a fixed grid, to compare two checkouts.

    PYTHONPATH=src python scripts/stdout_digest.py > digest.txt

Runs ``qhaar.cli.main`` in process for ``verify thm4|thm5|thm6|gamma|all``,
``identity bailey|mass|poisson``, ``spectrum cocentral|rho-inf|rho-sigma``
and the README ``eval-series`` example, each at six values of q and in
json, csv and text: 216 commands.  For each it prints one line: the exit
code, the sha256 of stdout and the sha256 of stderr, then the command.
``wall_time_s:`` lines are removed from both streams before hashing, so
two runs of one checkout print the same lines.  The script exits 0 once
every command has returned; a command that raises ends it with a
traceback.  Digests compare checkouts on one machine: another LAPACK or
SIMD path may change the last bits of a value.
"""
from __future__ import annotations

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout

from qhaar.cli import main

COMMANDS = (
    *(("verify", t) for t in ("thm4", "thm5", "thm6", "gamma", "all")),
    *(("identity", t) for t in ("bailey", "mass", "poisson")),
    *(("spectrum", t) for t in ("cocentral", "rho-inf", "rho-sigma")),
    ("eval-series", "--upper", "8", "--z", "0.0875"),
)
QS = ("0.05", "0.3", "0.5", "0.9", "0.95", "0.99")
FORMATS = ("json", "csv", "text")


def _digest(text: str) -> str:
    kept = [line for line in text.splitlines(keepends=True) if not line.startswith("wall_time_s:")]
    return hashlib.sha256("".join(kept).encode()).hexdigest()


def run(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return f"{code} {_digest(out.getvalue())} {_digest(err.getvalue())}  {' '.join(argv)}"


if __name__ == "__main__":
    for command in COMMANDS:
        for q in QS:
            for fmt in FORMATS:
                print(run([*command, "--q", q, "--output", fmt]), flush=True)
