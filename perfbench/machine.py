"""Environment record and set-up timings, each from a fresh interpreter."""

from __future__ import annotations

import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import refs

# Inherited thread settings are recorded, never set: the program's own pool
# and OpenBLAS threads are part of what the benchmark measures.
THREAD_VARS = ("QHAAR_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_ARGV = ["-m", "qhaar", "eval-series", "--z", "0.1"]
IMPORT_PACKAGES = ("numpy", "scipy", "qhaar")
SUBPROCESS_TIMEOUT = 60


def program_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=SUBPROCESS_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def cache_sizes() -> dict:
    """Cache sizes of CPU 0 as the kernel reports them, keyed like 'L1d'."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        out[f"L{level}{suffix}"] = size
    return out


def blas_build(numpy) -> dict:
    try:
        deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy before 1.26 only prints
        buf = io.StringIO()
        with redirect_stdout(buf):
            numpy.show_config()
        return {"text": buf.getvalue()}
    return {k: {f: v.get(f) for f in ("name", "version", "openblas configuration")}
            for k, v in deps.items() if k in ("blas", "lapack")}


def environment(root: Path) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_build(numpy),
        "nproc": os.cpu_count(),
        "cache": cache_sizes(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "platform": platform.platform(),
    }


def _run(root: Path, argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], cwd=root, env=program_env(root),
                          capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT)


def setup_times(root: Path, runs: int) -> list[float]:
    """Wall time of ``python -m qhaar eval-series --z 0.1``, ``runs`` times.

    One untimed run first writes the bytecode cache, which users pay once.
    Each output is checked against the Euler product it sums.
    """
    _run(root, SETUP_ARGV)
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        proc = _run(root, SETUP_ARGV)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up command failed ({proc.returncode}): {proc.stderr.strip()}")
        report = json.loads(proc.stdout)
        value = report["rows"][0]["value_re"]
        ref = refs.euler_product(0.1, report["base"])
        if not refs.error(value, ref) <= 1e-12:
            raise RuntimeError(f"eval-series returned {value!r}, reference {ref!r}")
    return times


def parse_importtime(stderr: str) -> dict[str, float]:
    """Seconds each package adds to the import, from ``-X importtime`` output.

    A package's time is the cumulative time of its outermost import lines,
    those not nested inside another import of the same package, so it
    counts what the package pulls in that was not loaded yet.  ``qhaar``
    is therefore the whole ``import qhaar.cli``.
    """
    lines = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        try:
            cumulative = int(fields[1])
        except (IndexError, ValueError):  # the header line
            continue
        name = fields[2].rstrip()
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        lines.append((depth, name.strip().split(".")[0], cumulative))
    totals = {p: 0.0 for p in IMPORT_PACKAGES}
    # the output lists an import after everything it nested; read backwards,
    # every line comes after the lines that enclose it
    stack: list[tuple[int, str]] = []
    for depth, top, cumulative in reversed(lines):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if top in totals and all(t != top for _, t in stack):
            totals[top] += cumulative * 1e-6
        stack.append((depth, top))
    return totals


def import_times(root: Path, runs: int) -> dict[str, float]:
    """Median per-package import time of ``import qhaar.cli`` over ``runs`` fresh runs."""
    samples = []
    for _ in range(runs):
        proc = _run(root, ["-X", "importtime", "-c", "import qhaar.cli"])
        if proc.returncode != 0:
            raise RuntimeError(f"import qhaar.cli failed: {proc.stderr.strip()[-500:]}")
        samples.append(parse_importtime(proc.stderr))
    return {p: statistics.median(s[p] for s in samples) for p in IMPORT_PACKAGES}
