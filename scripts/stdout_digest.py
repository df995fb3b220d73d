#!/usr/bin/env python3
"""Digest of every command's output on a fixed grid, to compare two checkouts.

    PYTHONPATH=src python scripts/stdout_digest.py > digest.txt

Runs ``qhaar.cli.main`` in process for ``verify thm4|thm5|thm6|gamma|all``,
``identity bailey|mass|poisson``, ``spectrum cocentral|rho-inf|rho-sigma``
and the README ``eval-series`` example, each at six values of q and in
json, csv and text: 216 commands.  For each it prints one line: the exit
code, the sha256 of stdout and the sha256 of stderr, then the command.
``wall_time_s:`` lines are removed from both streams before hashing, so
two runs of one checkout print the same lines.  Then come 24 library
lines, one for each of ``thm4_measure``, ``thm5_measure``,
``thm6_measure`` and ``gamma_measure`` at each of the six q (tau = 0.4,
sigma = 1.5, the CLI defaults): the sha256 of the ``float.hex`` values of
x^0..x^24 asked in ascending and then in descending order, after the
commands above have used the same measures.  A refusal enters the hash as
its exception's name and message.  240 lines in all.  The script exits 0
once every command has returned; a command that raises anything but a
refusal ends it with a traceback.  Digests compare checkouts on one
machine: another LAPACK or SIMD path may change the last bits of a value.
"""
from __future__ import annotations

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout

from qhaar import (
    QContext,
    QHaarError,
    gamma_measure,
    monomials,
    thm4_measure,
    thm5_measure,
    thm6_measure,
)
from qhaar.cli import main

COMMANDS = (
    *(("verify", t) for t in ("thm4", "thm5", "thm6", "gamma", "all")),
    *(("identity", t) for t in ("bailey", "mass", "poisson")),
    *(("spectrum", t) for t in ("cocentral", "rho-inf", "rho-sigma")),
    ("eval-series", "--upper", "8", "--z", "0.0875"),
)
QS = ("0.05", "0.3", "0.5", "0.9", "0.95", "0.99")
FORMATS = ("json", "csv", "text")
TAU, SIGMA = 0.4, 1.5
MEASURES = {
    "thm4_measure": lambda p, ctx: thm4_measure(p),
    "thm5_measure": lambda p, ctx: thm5_measure(p, TAU, ctx),
    "thm6_measure": lambda p, ctx: thm6_measure(p, TAU, SIGMA, ctx),
    "gamma_measure": lambda p, ctx: gamma_measure(p, ctx),
}


def _digest(text: str) -> str:
    kept = [line for line in text.splitlines(keepends=True) if not line.startswith("wall_time_s:")]
    return hashlib.sha256("".join(kept).encode()).hexdigest()


def run(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return f"{code} {_digest(out.getvalue())} {_digest(err.getvalue())}  {' '.join(argv)}"


def _value(measure, p, ctx: QContext) -> str:
    try:
        return float.hex(measure(p, ctx))
    except QHaarError as exc:
        return f"{type(exc).__name__}: {exc}"


def run_measure(name: str, q: str) -> str:
    polys = monomials(24)
    ctx = QContext(float(q))
    values = [_value(MEASURES[name], p, ctx) for p in (*polys, *polys[::-1])]
    digest = hashlib.sha256(" ".join(values).encode()).hexdigest()
    return f"{digest}  {name} --q {q} x^0..x^24 up, down"


if __name__ == "__main__":
    for command in COMMANDS:
        for q in QS:
            for fmt in FORMATS:
                print(run([*command, "--q", q, "--output", fmt]), flush=True)
    for name in MEASURES:
        for q in QS:
            print(run_measure(name, q), flush=True)
