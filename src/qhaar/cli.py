"""Command line driver for the verification pipelines.

Subcommands:

    verify thm4|thm5|thm6|gamma|all     dual-route closed-form checks
    identity bailey|mass|poisson        standalone identity residuals
    spectrum cocentral|rho-inf|rho-sigma  truncation spectra and weights
    eval-series                         ad-hoc basic hypergeometric sum

Exit codes: 0 all checks passed, 1 a check failed, 2 usage or domain
error, 3 numerical non-convergence (including truncation-policy trips).

Reports echo the full configuration.  JSON output is byte-deterministic
for a fixed RunConfig: keys are sorted, floats carry 17 significant
digits, and the wall time goes to stderr instead of the report.  CSV
holds the flattened row table only.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor  # noqa: F401  unused; perfbench patches it
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConvergenceError, DomainError
from .haarverify import (
    VerifyConfig,
    _support_distance,
    bailey_variant_residuals,
    mass_identity_check,
    monomials,
    thm6_params,
    verify,
)
from .orthopoly import (
    _asc_poisson_form,
    _cqh_poisson_form,
    asc_poisson_series,
    aw_masses,
    cqh_poisson_series,
)
from .qseries import Factorials, QContext, SeriesSpec, phi_rs
from .qsu2rep import SphericalParams, _element_band, op_D

__all__ = ["RunConfig", "main"]

SCHEMA_VERSION = 1

BAILEY_THETAS = (0.3, 0.9, 1.4, 2.2, 2.9)

# third set: the mass parameters of the verify-thm6 measure at q=0.5,
# tau=0.4, sigma=1.5 (a of that quadruple and q^2/ (a b) partner), k=0
MASS_CASES = ((1.6, 0.3, 0), (2.5, -0.2, 1), (-1.8660659830736148, 0.2332649334213164, 0))


@dataclass(frozen=True)
class RunConfig:
    """Flat, serializable run configuration; every field has a CLI flag."""

    q: float = 0.5
    tau: float = 0.4
    sigma: float = 1.5
    trunc_n: int = 160
    max_degree: int = 6
    tol: float = 1e-7
    output: str = "json"
    seed: int = 7041

    def __post_init__(self) -> None:
        if self.output not in ("json", "csv", "text"):
            raise DomainError("output must be json, csv or text")
        if self.max_degree < 0:
            raise DomainError("max_degree must be nonnegative")

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def context(self) -> QContext:
        return QContext(q=self.q)

    def verify_config(self) -> VerifyConfig:
        return VerifyConfig(
            ctx=self.context(),
            tau=self.tau,
            sigma=self.sigma,
            N=self.trunc_n,
            poly_set=monomials(self.max_degree),
            tol=self.tol,
        )


def _config_from_sources(file_values: dict, flag_values: dict) -> RunConfig:
    """Apply precedence flags > config file > defaults."""
    merged: dict = {}
    typemap = {f.name: f.type for f in fields(RunConfig)}
    casts = {"float": float, "int": int, "str": str}
    for key, val in file_values.items():
        if key not in typemap:
            raise DomainError(f"unknown config key {key!r}")
        merged[key] = casts[typemap[key]](val)
    for key, val in flag_values.items():
        if val is not None:
            merged[key] = val
    return RunConfig(**merged)


# ---------------------------------------------------------------------------
# deterministic serialization


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        # not valid bare JSON; make the condition visible rather than crash
        return '"%s"' % repr(x)
    return format(float(x), ".17g")


def _to_json(obj) -> str:
    if isinstance(obj, dict):
        items = sorted(obj.items())
        inner = ",".join(f"{json.dumps(k)}:{_to_json(v)}" for k, v in items)
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_to_json(v) for v in obj) + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if obj is None:
        return "null"
    return json.dumps(obj)


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _to_csv(rows: list[dict]) -> str:
    if not rows:
        return ""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = list(rows[0].keys())
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(row.get(col, "")) for col in header])
    return buf.getvalue()


def _to_text(report: dict, rows: list[dict], wall: float) -> str:
    lines = [f"command: {report['command']} {report.get('target', '')}".rstrip()]
    cfg = report["config"]
    lines.append("config: " + " ".join(f"{k}={_cell(cfg[k])}" for k in sorted(cfg)))
    if rows:
        header = list(rows[0].keys())
        table = [header] + [[_cell(r.get(c, "")) for c in header] for r in rows]
        widths = [max(len(line[i]) for line in table) for i in range(len(header))]
        for line in table:
            lines.append("  ".join(s.ljust(w) for s, w in zip(line, widths)).rstrip())
    for key in ("display_form_inconsistent",):
        if key in report:
            lines.append(f"{key}: {_cell(report[key])}")
    lines.append(f"passed: {_cell(report['passed'])}")
    lines.append(f"wall_time_s: {wall:.3f}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (report-dict, flat-rows, passed)


def _run_verify(target: str, cfg: RunConfig) -> tuple[dict, list[dict], bool]:
    vcfg = cfg.verify_config()
    targets = ("thm4", "thm5", "thm6") if target == "all" else (target,)
    reports = [verify(t, vcfg) for t in targets]
    flat: list[dict] = []
    blocks = []
    for rep in reports:
        rows = []
        for r in rep.rows:
            rows.append(
                {
                    "theorem": rep.theorem,
                    "label": r.label,
                    "trace_side": r.trace_side,
                    "measure_side": r.measure_side,
                    "abs_err": r.abs_err,
                    "rel_err": r.rel_err,
                    "passed": r.passed,
                    "trace_route": r.trace_route,
                    "measure_route": r.measure_route,
                }
            )
        flat.extend(rows)
        blocks.append(
            {
                "theorem": rep.theorem,
                "rows": rows,
                "passed": rep.all_passed,
                "max_rel_err": rep.max_rel_err,
            }
        )
    passed = all(b["passed"] for b in blocks)
    report = {
        "schema": SCHEMA_VERSION,
        "command": "verify",
        "target": target,
        "config": cfg.as_dict(),
        "reports": blocks,
        "passed": passed,
    }
    return report, flat, passed


def _run_identity(target: str, cfg: RunConfig) -> tuple[dict, list[dict], bool]:
    ctx = cfg.context()
    rows: list[dict] = []
    extra: dict = {}
    # each command asks qpoch once, for every angle, case or kernel it checks
    if target == "bailey":
        cons, variant, raw = (
            v.tolist()
            for v in bailey_variant_residuals(BAILEY_THETAS, cfg.tau, cfg.sigma, ctx, raw=True)
        )
        for theta, c, v, r in zip(BAILEY_THETAS, cons, variant, raw):
            rows.append(
                {
                    "theta": theta,
                    "residual": c,
                    "variant_residual": v,
                    "raw_residual": r,
                    "passed": c <= cfg.tol,
                }
            )
        # the two printed prefactor forms cannot both hold; report which
        # one the numbers support instead of silently picking
        extra["display_form_inconsistent"] = any(v > cfg.tol for v in variant)
    elif target == "mass":
        residuals = mass_identity_check(*zip(*MASS_CASES), ctx).tolist()
        for (a, b, k), res in zip(MASS_CASES, residuals):
            rows.append({"a": a, "b": b, "k": k, "residual": res, "passed": bool(res <= cfg.tol)})
    elif target == "poisson":
        rng = np.random.default_rng(cfg.seed)
        hermite = [_poisson_point(rng) + (0.0, 0.0) for _ in range(10)]
        chihara = [
            _poisson_point(rng) + (float(rng.uniform(-0.95, 0.95)), float(rng.uniform(-0.95, 0.95)))
            for _ in range(10)
        ]
        closed = Factorials.join(
            [_cqh_poisson_form(t, x, y) for t, x, y, _, _ in hermite]
            + [_asc_poisson_form(*p, ctx) for p in chihara]
        ).evaluate(ctx)
        kinds = ["q-hermite"] * len(hermite) + ["al-salam-chihara"] * len(chihara)
        for kind, (t, x, y, a, b), value in zip(kinds, hermite + chihara, closed):
            if kind == "q-hermite":
                series = cqh_poisson_series(t, x, y, ctx, _poisson_terms(t))
            else:
                series = asc_poisson_series(t, x, y, a, b, ctx, _poisson_terms(t))
            res = float(abs(series - value) / (1.0 + abs(value)))
            rows.append(
                {
                    "kind": kind,
                    "t": t,
                    "x": x,
                    "y": y,
                    "a": a,
                    "b": b,
                    "residual": res,
                    "passed": bool(res <= cfg.tol),
                }
            )
    else:  # pragma: no cover - argparse restricts choices
        raise DomainError(f"unknown identity {target!r}")
    passed = all(r["passed"] for r in rows)
    report = {
        "schema": SCHEMA_VERSION,
        "command": "identity",
        "target": target,
        "config": cfg.as_dict(),
        "rows": rows,
        "passed": passed,
    }
    report.update(extra)
    return report, rows, passed


def _poisson_point(rng: np.random.Generator) -> tuple[float, float, float]:
    """One draw of (t, x, y): t in (-0.8, 0.8), x and y in (-0.99, 0.99)."""
    return tuple(float(rng.uniform(-lim, lim)) for lim in (0.8, 0.99, 0.99))


def _poisson_terms(t: float) -> int:
    if abs(t) < 1e-3:
        return 16
    return min(4000, int(math.log(1e-14) / math.log(abs(t))) + 8)


def _run_spectrum(target: str, cfg: RunConfig) -> tuple[dict, list[dict], bool]:
    """Eigenvalues and trace weights of the element truncated to 0..trunc_n at angle 0.

    LAPACK gets the real symmetric gauge of the element's band
    (``_Band.real_dense``), similar to it through a diagonal unitary, so
    the eigenvalues are the element's and the weights
    (1 - q^2) sum_n q^{2n} v_n^2 read the gauge-invariant |v_n|^2.
    rho-inf rows name the nearest ladder point, rho-sigma rows the
    distance to the Askey-Wilson support, whose mass points come from
    ``aw_masses`` alone (no quadrature rule is built) and are listed in
    the report.
    """
    ctx = cfg.context()
    q = cfg.q
    name = {"cocentral": "cocentral", "rho-inf": "rho_tau_inf", "rho-sigma": "rho_tau_sigma"}[
        target
    ]
    params = None
    if name == "rho_tau_inf":
        params = SphericalParams(tau=cfg.tau)
    elif name == "rho_tau_sigma":
        params = SphericalParams(tau=cfg.tau, sigma=cfg.sigma)
    M = _element_band(ctx, name, params, 0.0, cfg.trunc_n).real_dense()
    eigvals, vecs = np.linalg.eigh(M)
    dens = op_D(ctx, cfg.trunc_n)
    weights = (1.0 - q * q) * ((vecs**2).T @ dens)
    rows = []
    masses = aw_masses(thm6_params(cfg.tau, cfg.sigma, ctx)) if name == "rho_tau_sigma" else ()
    for i, (x, w) in enumerate(zip(eigvals, weights)):
        row = {"index": i, "eigenvalue": float(x), "weight": float(w)}
        if name == "rho_tau_inf":
            ladder, dist = _nearest_ladder(float(x), q, cfg.tau)
            row["nearest_ladder"] = ladder
            row["ladder_distance"] = dist
        elif name == "rho_tau_sigma":
            row["support_distance"] = _support_distance(float(x), masses)
        rows.append(row)
    report = {
        "schema": SCHEMA_VERSION,
        "command": "spectrum",
        "target": target,
        "config": cfg.as_dict(),
        "rows": rows,
        "passed": True,
    }
    if masses:
        report["mass_points"] = [{"x": xm, "weight": wm} for xm, wm in masses]
    return report, rows, True


_LADDER_RUNGS = 2000  # rungs k = 0..1999 of each rho_tau_inf ladder are candidates


def _nearest_ladder(x: float, q: float, tau: float) -> tuple[float, float]:
    """Nearest point to x, and its distance, among 0 and the ladder rungs.

    The rungs are -q^{2k} and q^{2 tau + 2k} for k < _LADDER_RUNGS.  Only
    the ladder on the side of x can come closer than 0 does.  On it the
    rungs bracketing x are k = floor(u) and floor(u) + 1, where
    u = log(|x| / q^{2 tau}) / (2 log q) on the positive side and
    u = log|x| / (2 log q) on the negative one.  Four rungs from
    floor(u) - 1, moved inside 0.._LADDER_RUNGS - 1, cover any rounding
    of u.  Equal distances go to the lower rung.  For tau >= 0 the result
    equals a scan of every rung in increasing k, bit for bit.
    """
    best, dist = 0.0, abs(x)
    if not 0.0 < dist < math.inf:
        return best, dist
    pos = x > 0.0
    log_q = math.log(q)
    u = (math.log(dist) - (2.0 * tau * log_q if pos else 0.0)) / (2.0 * log_q)
    lo = min(max(math.floor(u) - 1, 0), _LADDER_RUNGS - 4)
    for k in range(lo, lo + 4):
        cand = q ** (2 * tau + 2 * k) if pos else -(q ** (2 * k))
        d = abs(x - cand)
        if d < dist:
            best, dist = cand, d
    return best, dist


def _parse_complex_list(raw: str) -> tuple[complex, ...]:
    if not raw.strip():
        return ()
    try:
        return tuple(complex(tok) for tok in raw.split(",") if tok.strip())
    except ValueError as exc:
        raise DomainError(f"cannot parse parameter list {raw!r}") from exc


def _run_eval_series(args, cfg: RunConfig) -> tuple[dict, list[dict], bool]:
    base = cfg.q if args.base is None else args.base
    ctx = QContext(q=base)
    upper = _parse_complex_list(args.upper)
    lower = _parse_complex_list(args.lower)
    try:
        z = complex(args.z)
    except ValueError as exc:
        raise DomainError(f"cannot parse argument {args.z!r}") from exc
    val = phi_rs(SeriesSpec(upper, lower, z, ctx))
    val = complex(val)
    rows = [{"value_re": val.real, "value_im": val.imag}]
    report = {
        "schema": SCHEMA_VERSION,
        "command": "eval-series",
        "target": "",
        "config": cfg.as_dict(),
        "upper": [[c.real, c.imag] for c in upper],
        "lower": [[c.real, c.imag] for c in lower],
        "z": [z.real, z.imag],
        "base": float(base),
        "rows": rows,
        "passed": True,
    }
    return report, rows, True


# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="qhaar", description="Verify Haar-functional closed forms and q-series identities."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", type=str, default=None, help="flat JSON config file")
        p.add_argument("--q", type=float, default=None)
        p.add_argument("--tau", type=float, default=None)
        p.add_argument("--sigma", type=float, default=None)
        p.add_argument("--trunc-n", dest="trunc_n", type=int, default=None)
        p.add_argument("--max-degree", dest="max_degree", type=int, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--output", choices=("json", "csv", "text"), default=None)
        p.add_argument("--seed", type=int, default=None)

    p_verify = sub.add_parser("verify", help="dual-route theorem checks")
    p_verify.add_argument("target", choices=("thm4", "thm5", "thm6", "gamma", "all"))
    add_config_flags(p_verify)

    p_ident = sub.add_parser("identity", help="standalone identity residuals")
    p_ident.add_argument("target", choices=("bailey", "mass", "poisson"))
    add_config_flags(p_ident)

    p_spec = sub.add_parser("spectrum", help="truncation spectra and trace weights")
    p_spec.add_argument("target", choices=("cocentral", "rho-inf", "rho-sigma"))
    add_config_flags(p_spec)

    p_eval = sub.add_parser("eval-series", help="evaluate a basic hypergeometric series")
    p_eval.add_argument("--upper", type=str, default="", help="comma-separated numerator parameters")
    p_eval.add_argument("--lower", type=str, default="", help="comma-separated denominator parameters")
    p_eval.add_argument("--z", type=str, required=True, help="series argument")
    p_eval.add_argument("--base", type=float, default=None, help="series base (defaults to --q)")
    add_config_flags(p_eval)

    return parser


def _emit(report: dict, rows: list[dict], cfg: RunConfig, wall: float) -> None:
    if cfg.output == "json":
        sys.stdout.write(_to_json(report) + "\n")
        print(f"wall_time_s: {wall:.3f}", file=sys.stderr)
    elif cfg.output == "csv":
        sys.stdout.write(_to_csv(rows))
        print(f"wall_time_s: {wall:.3f}", file=sys.stderr)
    else:
        sys.stdout.write(_to_text(report, rows, wall))


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        file_values = {}
        if args.config is not None:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
            if not isinstance(loaded, dict):
                raise DomainError("config file must hold a flat JSON object")
            file_values = loaded
        flag_values = {
            key: getattr(args, key)
            for key in ("q", "tau", "sigma", "trunc_n", "max_degree", "tol", "output", "seed")
        }
        cfg = _config_from_sources(file_values, flag_values)

        start = time.perf_counter()
        if args.command == "verify":
            report, rows, passed = _run_verify(args.target, cfg)
        elif args.command == "identity":
            report, rows, passed = _run_identity(args.target, cfg)
        elif args.command == "spectrum":
            report, rows, passed = _run_spectrum(args.target, cfg)
        else:
            report, rows, passed = _run_eval_series(args, cfg)
        wall = time.perf_counter() - start
    except ConvergenceError as exc:
        print(f"error: numerical non-convergence: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    _emit(report, rows, cfg, wall)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
