#!/usr/bin/env python3
"""Start-up cost of the qhaar commands, each in a fresh interpreter.

    python scripts/startup.py [--runs N]

Runs ``python -m qhaar`` on ``verify all``, ``identity mass``, ``spectrum
rho-sigma`` and ``eval-series --z 0.1`` (the command perfbench's
``setup_s`` times), N times each (default 11), the commands interleaved so
that drift in machine speed falls on all of them alike.  Bytecode writing
is on, and one untimed run of each command writes the cache first, as a
user pays it once.  Prints the median wall time of each command.  Then
runs ``python -X importtime -m qhaar verify all`` N times, which loads
every module of the package, and prints the median self time of each
``qhaar`` module.  A command that exits nonzero ends the script with its
stderr.  Figures hold for the machine they ran on: compare two checkouts by
running the script in each, alternately.
"""
from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
COMMANDS = (
    ("verify", "all"),
    ("identity", "mass"),
    ("spectrum", "rho-sigma"),
    ("eval-series", "--z", "0.1"),
)


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run(argv: list[str], env: dict) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"python {' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return proc


def wall_times(runs: int, env: dict) -> dict[str, list[float]]:
    """Seconds of each command, ``runs`` fresh runs each, interleaved."""
    for cmd in COMMANDS:
        _run(["-m", "qhaar", *cmd], env)
    times: dict[str, list[float]] = {" ".join(cmd): [] for cmd in COMMANDS}
    for _ in range(runs):
        for cmd in COMMANDS:
            start = time.perf_counter()
            _run(["-m", "qhaar", *cmd], env)
            times[" ".join(cmd)].append(time.perf_counter() - start)
    return times


def self_times(runs: int, env: dict) -> dict[str, list[float]]:
    """``-X importtime`` self seconds of each qhaar module, ``runs`` runs of verify all."""
    times: dict[str, list[float]] = {}
    for _ in range(runs):
        stderr = _run(["-X", "importtime", "-m", "qhaar", "verify", "all"], env).stderr
        for line in stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            name = fields[-1].strip()
            if len(fields) == 3 and name.split(".")[0] == "qhaar":
                times.setdefault(name, []).append(int(fields[0]) * 1e-6)
    return times


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=11, help="fresh runs per command (default 11)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    env = _env()
    print(f"wall time of python -m qhaar, median of {args.runs} interleaved runs")
    for name, samples in wall_times(args.runs, env).items():
        print(f"  {statistics.median(samples) * 1e3:8.1f} ms  {name}")
    print(f"-X importtime self time of each qhaar module in verify all, median of {args.runs} runs")
    for name, samples in sorted(self_times(args.runs, env).items()):
        print(f"  {statistics.median(samples) * 1e3:8.2f} ms  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
