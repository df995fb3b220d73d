"""Commands at the edges of the domain, each with its one exact exit code.

Commands that another test already runs with an exact exit code are not
repeated here: ``identity mass`` at q = 0.05, 0.3 (exit 0) and 0.99
(exit 3) in tests/test_haarverify.py::TestIdentityCommands, and every
command's stock invocation as CSV and text in
tests/test_cli.py::TestEveryCommandFormats.
"""
from __future__ import annotations

import pytest

from qhaar.cli import main

# (command line, exit code): 0 runs and passes, 2 refuses the input, 3 refuses
# a computation that would not converge
COMMANDS = [
    # thm6 at the two mass-threshold draws, rounded as a user types them
    ("verify thm6 --q 0.9 --tau 0.3 --sigma 0.7047", 0),
    ("verify thm6 --q 0.9 --tau 0.3 --sigma 1.2953", 0),
    # thm6 at tau = 0 or sigma = 0, where the measure is even and its odd moments are 0
    ("verify thm6 --q 0.066 --tau 0 --sigma 2.1 --max-degree 12", 0),
    ("verify thm6 --q 0.01 --tau 2 --sigma 0", 0),
    # thm5 where u^(degree+1) = q^(2 tau (degree+1)) leaves the float range
    ("verify thm5 --q 0.3 --tau -200", 3),
    # past the old degree cap, and the empty degree range
    ("verify all --max-degree 24 --trunc-n 80", 0),
    ("verify all --max-degree 0", 0),
    ("verify thm4 --max-degree -1", 2),
    # odd and even phase grids
    ("verify thm6 --max-degree 7", 0),
    ("verify thm6 --max-degree 13", 0),
    ("verify all --q 0.9 --trunc-n 200 --max-degree 9", 0),
    # the spectrum's real gauge at its edges
    ("spectrum rho-sigma --q 0.05 --trunc-n 480", 0),
    ("spectrum rho-inf --q 0.97 --trunc-n 480", 0),
    ("spectrum rho-sigma --q 0.9 --tau 0.3 --sigma 0.7047 --trunc-n 160", 0),
    ("spectrum rho-inf --q 0.3 --trunc-n 480", 0),
    ("spectrum rho-inf --q 0.5 --tau 0 --trunc-n 160", 0),
    # the identity commands at the edges
    ("identity bailey --q 0.9 --tau 0.3 --sigma 0.7047", 0),
    ("identity bailey --q 0.9 --tau 0.3 --sigma 1.2953", 0),
    ("identity bailey --q 0.05 --tau 0.4 --sigma 1.5", 0),
    ("identity bailey --q 0.97 --tau 1.2 --sigma 2.5", 0),
    ("identity bailey --q 0.93", 0),
    ("identity bailey --q 0.99", 0),
    ("identity mass --q 0.95", 0),
    ("identity poisson --q 0.5", 0),
    ("identity poisson --q 0.3", 0),
    ("identity poisson --q 0.85", 0),
    # a nonterminating series
    ("eval-series --upper 0.3,-0.4 --lower 0.7 --z 0.55 --q 0.5", 0),
] + [
    # the report envelope on the defaults, whose N the formats tests lower
    (f"{command} --output {fmt}", 0)
    for fmt in ("csv", "text")
    for command in ("verify all", "spectrum rho-sigma")
]


@pytest.mark.parametrize("argv, code", COMMANDS, ids=[argv for argv, _ in COMMANDS])
def test_exit_code(capsys, argv: str, code: int) -> None:
    got = main(argv.split())
    out, err = capsys.readouterr()
    assert got == code, err
    if code:
        assert out == "" and err.startswith("error: ") and len(err.splitlines()) == 1, err
