"""Seeded operation lists for the three workloads and the checks on their outputs.

An operation is one ``cli.main([...])`` call or one public-function call.
Inputs come only from the seed: q, tau and sigma are Latin-hypercube draws
(one draw per equal-width stratum, strata shuffled), so every run covers the
whole documented range evenly and runs with different seeds do equal work.

Near an Askey-Wilson mass threshold, where |e| q^(2k) -> 1 for a thm6
parameter e and some k >= 0, the measure route's cost has no bound:
``aw_measure`` doubles its Gauss-Legendre rule to about kappa^(-1/2) nodes,
kappa = min ||e| q^(2k) - 1|, and each doubling builds the rule from an
n x n eigenproblem.  A single draw at kappa ~ 3e-5 costs over a minute and
100 MB in ``measure-identities``, so uniform draws would make a run's time
and memory depend on how close its closest draw came.  Random draws
therefore keep kappa >= KAPPA_MIN (sigma is redrawn inside the band, a few
percent of the range), and ``measure-identities`` adds fixed draws at
kappa = KAPPA_EDGE on both sides of a threshold, so every run pays the same
near-threshold cost and a change to it shows.

Why these workloads:

* ``verify-sweep`` is the command users run; the operator route (dense
  ``element()`` plus Horner powers) dominates and ``verify all`` goes
  through the thread pool.
* ``measure-identities`` exercises only the measure route and the q-series
  primitives (``orthopoly``, ``qseries``); ``qsu2rep`` does no work here,
  so an operator-route change should leave it flat.
* ``spectra`` builds each dense element once and runs LAPACK on it, with no
  powers and no phase grid, at sizes up to about one L2 cache per matrix.
"""

from __future__ import annotations

import importlib
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import refs

TOL = 1e-7
VERIFY_DEGREE = 6
MEASURE_DEGREE = 12
# verify_structure is held to the bound the repository's acceptance test uses
STRUCTURE_TOL = 1e-10
Q_RANGE = (0.3, 0.95)
TAU_RANGE = (0.1, 1.2)
SIGMA_RANGE = (0.3, 2.5)
KAPPA_MIN = 2e-3  # random draws: at most 512 Gauss-Legendre nodes
KAPPA_EDGE = 5e-4  # fixed near-threshold draws: 1024 nodes
VERIFY_TARGETS = ("thm4", "thm5", "thm6", "gamma", "all")
SPECTRUM_TARGETS = ("cocentral", "rho-inf", "rho-sigma")
SPECTRA_SIZES = (160, 320, 480)
MEASURE_THEOREMS = ("thm4", "thm5", "thm6", "gamma")
MEASURE_OPS_PER_DRAW = len(MEASURE_THEOREMS) + 3  # and identity bailey, poisson, mass


@dataclass
class Op:
    """One operation: ``run`` is the timed call, ``check`` judges its result.

    ``check`` returns a list of (kind, detail) failures; kind is "exit",
    "row" or "reference".  A raised exception is judged by the runner.
    Where the workload runs its list more than once, an op marked
    ``retimed`` is timed again in each later pass.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], list]
    retimed: bool = True


@dataclass(frozen=True)
class Workload:
    """A run is a number of groups of operations, and ``measure-identities``
    adds operations that do not depend on the seed.  The list runs
    ``passes`` times; an op's latency is the median of its timings.  With
    ``alike_groups`` every group has the same composition and nearly the
    same cost, so the runner may read ``sweep_s`` from the median group."""

    name: str
    group_size: int  # operations per group
    group_seconds: float  # nominal wall time of one group at the seed commit
    passes: int
    alike_groups: bool
    build: Callable  # (rng, groups, qhaar) -> list[Op]


def latin(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n draws from [lo, hi), one in each of n equal strata, in shuffled order."""
    strata = list(range(n))
    rng.shuffle(strata)
    return [lo + (hi - lo) * (k + rng.random()) / n for k in strata]


def threshold_distance(q: float, tau: float, sigma: float) -> float:
    """kappa: how close a thm6 parameter comes to |e| q^(2k) = 1 for some k >= 0,
    where the k-th mass point of e appears."""
    Q = q * q
    out = math.inf
    for e in refs.thm6_params(q, tau, sigma):
        k = 0
        while True:
            out = min(out, abs(abs(e) * Q**k - 1.0))
            if abs(e) * Q**k <= 1.0:
                break
            k += 1
    return out


def draws(rng: random.Random, n: int) -> list[tuple[float, float, float]]:
    out = []
    for q, tau, sigma in zip(latin(rng, n, *Q_RANGE), latin(rng, n, *TAU_RANGE), latin(rng, n, *SIGMA_RANGE)):
        while threshold_distance(q, tau, sigma) < KAPPA_MIN:
            sigma = rng.uniform(*SIGMA_RANGE)
        out.append((q, tau, sigma))
    return out


def edge_draws() -> list[tuple[float, float, float]]:
    """Two draws at kappa = KAPPA_EDGE: |b| just above 1 (a mass point near -1
    appears) and d just below 1 (no mass point yet)."""
    q, tau = 0.9, 0.3
    # |b| = q^(1 - sigma - tau) and d = q^(1 - sigma + tau)
    b_side = 1.0 - tau - math.log(1.0 + KAPPA_EDGE) / math.log(q)
    d_side = 1.0 + tau - math.log(1.0 - KAPPA_EDGE) / math.log(q)
    return [(q, tau, b_side), (q, tau, d_side)]


def fmt(x: float) -> str:
    return repr(float(x))


def cli_op(argv: list[str], check) -> Op:
    """An op calling ``qhaar.cli.main``; its result is (exit code, stdout)."""
    cli = importlib.import_module("qhaar.cli")

    def run():
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects its input this way
                code = exc.code
        return code, out.getvalue()

    def judge(result):
        code, text = result
        failures = [] if code == 0 else [("exit", f"exit code {code}")]
        if not text:
            return failures or [("exit", "no report on stdout")]
        report = json.loads(text)
        failures += [("row", json.dumps(row, sort_keys=True)) for row in _rows(report) if not row.get("passed", True)]
        return failures + check(report)

    return Op("qhaar " + " ".join(argv), run, judge)


def _rows(report: dict) -> list[dict]:
    if "reports" in report:
        return [row for block in report["reports"] for row in block["rows"]]
    return report.get("rows", [])


def moment_failures(what: str, values, ref: list[float]) -> list:
    out = []
    for k, (v, r) in enumerate(zip(values, ref)):
        err = refs.error(float(v), r)
        if not err <= TOL:
            out.append(("reference", f"{what} x^{k}: {float(v)!r} vs reference {r!r} (error {err:.3g})"))
    return out


# ---------------------------------------------------------------------------
# verify-sweep


def verify_trunc(q: float) -> int:
    """max(160, min_truncation(12, TOL, q)) with the policy written out."""
    return max(160, 12 + math.ceil(math.log(TOL) / (2.0 * math.log(q))))


def build_verify_sweep(rng, groups, qhaar) -> list[Op]:
    ops = []
    for i, (q, tau, sigma) in enumerate(draws(rng, groups * len(VERIFY_TARGETS))):
        target = VERIFY_TARGETS[i % len(VERIFY_TARGETS)]
        argv = [
            "verify", target, "--q", fmt(q), "--tau", fmt(tau), "--sigma", fmt(sigma),
            "--trunc-n", str(verify_trunc(q)), "--max-degree", str(VERIFY_DEGREE),
            "--tol", fmt(TOL), "--output", "json",
        ]

        def check(report, q=q, tau=tau, sigma=sigma):
            failures = []
            for block in report["reports"]:
                ref = refs.moments(block["theorem"], q, tau, sigma, VERIFY_DEGREE)
                values = [row["measure_side"] for row in block["rows"]]
                if len(values) != VERIFY_DEGREE + 1:
                    failures.append(("reference", f"{block['theorem']}: {len(values)} rows"))
                failures += moment_failures(block["theorem"], values, ref)
            return failures

        op = cli_op(argv, check)
        # op_p50_s falls among the single-theorem ops, five per run; a second
        # timing of each, half a minute later, damps a few seconds of host
        # contention.  ``all`` is too slow to repeat.
        op.retimed = target != "all"
        ops.append(op)
    return ops


# ---------------------------------------------------------------------------
# measure-identities


def monomial(k: int) -> tuple[float, ...]:
    return (0.0,) * k + (1.0,)


def measure_op(qhaar, theorem: str, q: float, tau: float, sigma: float) -> Op:
    polys = [monomial(k) for k in range(MEASURE_DEGREE + 1)]
    if theorem == "thm4":
        label = f"thm4_measure(x^k) for k <= {MEASURE_DEGREE}"

        def run():
            return [qhaar.thm4_measure(p) for p in polys]
    elif theorem == "thm5":
        label = f"thm5_measure(x^k, tau={tau!r}, QContext(q={q!r})) for k <= {MEASURE_DEGREE}"

        def run():
            ctx = qhaar.QContext(q)
            return [qhaar.thm5_measure(p, tau, ctx) for p in polys]
    elif theorem == "thm6":
        label = (
            f"thm6_measure(x^k, tau={tau!r}, sigma={sigma!r}, QContext(q={q!r})) "
            f"for k <= {MEASURE_DEGREE}"
        )

        def run():
            ctx = qhaar.QContext(q)
            return [qhaar.thm6_measure(p, tau, sigma, ctx) for p in polys]
    else:
        label = f"gamma_measure(x^k, QContext(q={q!r})) for k <= {MEASURE_DEGREE}"

        def run():
            ctx = qhaar.QContext(q)
            return [qhaar.gamma_measure(p, ctx) for p in polys]

    ref = refs.moments(theorem, q, tau, sigma, MEASURE_DEGREE)
    return Op(label, run, lambda values: moment_failures(theorem, values, ref))


def no_check(report) -> list:
    return []


def build_measure_identities(rng, groups, qhaar) -> list[Op]:
    ops = []
    for q, tau, sigma in draws(rng, groups) + edge_draws():
        ops += [measure_op(qhaar, t, q, tau, sigma) for t in MEASURE_THEOREMS]
        ops.append(cli_op(["identity", "bailey", "--q", fmt(q), "--tau", fmt(tau),
                                  "--sigma", fmt(sigma), "--tol", fmt(TOL)], no_check))
        ops.append(cli_op(["identity", "poisson", "--q", fmt(q), "--seed",
                                  str(rng.randrange(2**31)), "--tol", fmt(TOL)], no_check))
        # the mass cases are fixed at the command's default q = 0.5
        ops.append(cli_op(["identity", "mass", "--q", "0.5", "--tol", fmt(TOL)], no_check))
    return ops


# ---------------------------------------------------------------------------
# spectra


def spectrum_check(target: str, q: float, tau: float, sigma: float, size: int, shared: dict):
    def check(report):
        rows = report["rows"]
        eigs = [row["eigenvalue"] for row in rows]
        failures = []
        if len(rows) != size + 1:
            failures.append(("reference", f"{len(rows)} eigenvalues for size {size}"))
        lo, hi = refs.spectrum_hull(target, q, tau, sigma)
        outside = [x for x in eigs if not lo - TOL <= x <= hi + TOL]
        if outside:
            failures.append(("reference", f"eigenvalues {outside[:3]} outside [{lo!r}, {hi!r}]"))
        total = sum(row["weight"] for row in rows)
        ref_total = refs.weight_total(q, size)
        if not refs.error(total, ref_total) <= TOL:
            failures.append(("reference", f"weights sum to {total!r}, reference {ref_total!r}"))
        if target == "rho-sigma":
            got = sorted(m["x"] for m in report.get("mass_points", []))
            want = refs.thm6_mass_points(q, tau, sigma)
            if len(got) != len(want) or any(abs(a - b) > TOL * max(1.0, abs(b)) for a, b in zip(got, want)):
                failures.append(("reference", f"mass points {got} vs reference {want}"))
            shared["rho_sigma_eigs"] = eigs
        return failures

    return check


def build_spectra(rng, groups, qhaar) -> list[Op]:
    ops = []
    # each size gets draws of its own, so that every size covers the range
    # evenly: an op's cost depends on q as well as on the size
    per_size = [draws(rng, groups) for _ in SPECTRA_SIZES]
    for group_draws in zip(*per_size):
        for size, (q, tau, sigma) in zip(SPECTRA_SIZES, group_draws):
            shared: dict = {}
            for target in SPECTRUM_TARGETS:
                argv = ["spectrum", target, "--q", fmt(q), "--tau", fmt(tau), "--sigma", fmt(sigma),
                        "--trunc-n", str(size), "--output", "json"]
                ops.append(cli_op(argv, spectrum_check(target, q, tau, sigma, size, shared)))

            def support_run(q=q, tau=tau, sigma=sigma, size=size):
                return qhaar.support_check(tau, sigma, qhaar.QContext(q), size=size)

            def support_judge(value, q=q, tau=tau, sigma=sigma, shared=shared):
                if "rho_sigma_eigs" not in shared:
                    return [("reference", "no rho-sigma spectrum to compare with")]
                ref = refs.support_distance(shared["rho_sigma_eigs"], refs.thm6_mass_points(q, tau, sigma))
                if not abs(value - ref) <= TOL:
                    return [("reference", f"support distance {value!r} vs {ref!r} from the spectrum")]
                return []

            ops.append(Op(f"support_check({tau!r}, {sigma!r}, QContext(q={q!r}), size={size})",
                          support_run, support_judge))

            def structure_run(q=q, tau=tau, sigma=sigma, size=size):
                return qhaar.verify_structure(qhaar.QContext(q), tau, sigma, size)

            def structure_judge(report):
                worst = report.max_deviation
                return [] if worst <= STRUCTURE_TOL else [("reference", f"structure deviation {worst!r}")]

            ops.append(Op(f"verify_structure(QContext(q={q!r}), {tau!r}, {sigma!r}, {size})",
                          structure_run, structure_judge))
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-sweep", len(VERIFY_TARGETS), 7.5, 2, True, build_verify_sweep),
        Workload("measure-identities", MEASURE_OPS_PER_DRAW, 0.3, 1, False, build_measure_identities),
        Workload("spectra", 5 * len(SPECTRA_SIZES), 1.4, 3, True, build_spectra),
    )
}
