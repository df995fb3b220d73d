"""Command line driver for the verification pipelines.

Subcommands:

    verify thm4|thm5|thm6|gamma|all     dual-route closed-form checks
    identity bailey|mass|poisson        standalone identity residuals
    spectrum cocentral|rho-inf|rho-sigma  truncation spectra and weights
    eval-series                         ad-hoc basic hypergeometric sum

Exit codes: 0 all checks passed, 1 a check failed, 2 usage or domain
error, 3 non-convergence or overflow (including truncation-policy trips).

Reports echo the full configuration.  JSON output is byte-deterministic
for a fixed RunConfig: keys are sorted, floats carry 17 significant
digits, and the wall time goes to stderr instead of the report.  CSV
holds the flattened row table only.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import io
import json
import math
import sys
import time
from typing import NamedTuple, get_type_hints

from . import THEOREMS
from .errors import ConvergenceError, DomainError
from .qseries import Factorials, QContext, SeriesSpec, phi_rs

# Each handler imports the modules it runs, so a command loads only what it
# runs: eval-series needs qseries alone, identity poisson orthopoly, and the
# rest haarverify, which loads every library module.

__all__ = ["RunConfig", "main"]

# Nothing in qhaar reads this name, and no command loads concurrent.futures.
# perfbench/run.py's traced pass patches it (getattr, then setattr), so the
# name must exist.
ThreadPoolExecutor = None

SCHEMA_VERSION = 1

BAILEY_THETAS = (0.3, 0.9, 1.4, 2.2, 2.9)

# third set: the mass parameters of the verify-thm6 measure at q=0.5,
# tau=0.4, sigma=1.5 (a of that quadruple and q^2/ (a b) partner), k=0
MASS_CASES = ((1.6, 0.3, 0), (2.5, -0.2, 1), (-1.8660659830736148, 0.2332649334213164, 0))

OUTPUT_FORMATS = ("json", "csv", "text")

class _RunConfigFields(NamedTuple):
    q: float = 0.5
    tau: float = 0.4
    sigma: float = 1.5
    trunc_n: int = 160
    max_degree: int = 6
    tol: float = 1e-7
    output: str = "json"
    seed: int = 7041


class RunConfig(_RunConfigFields):
    """Flat, serializable run configuration; the parser adds one flag per field, of its type."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, *args, **kwargs) -> "RunConfig":
        self = super().__new__(cls, *args, **kwargs)
        if self.output not in OUTPUT_FORMATS:
            raise DomainError("output must be %s, %s or %s" % OUTPUT_FORMATS)
        if self.max_degree < 0:
            raise DomainError("max_degree must be nonnegative")
        if self.seed < 0:
            raise DomainError("seed must be nonnegative")
        if not 0.0 < self.tol < math.inf:
            raise DomainError("tol must be finite and positive")
        return self

    def as_dict(self) -> dict:
        return self._asdict()

    def context(self) -> QContext:
        return QContext(q=self.q)

    def verify_config(self):
        """The ``haarverify.VerifyConfig`` of these settings."""
        from .haarverify import VerifyConfig

        return VerifyConfig(
            ctx=self.context(),
            tau=self.tau,
            sigma=self.sigma,
            N=self.trunc_n,
            max_degree=self.max_degree,
            tol=self.tol,
        )


# each RunConfig field's type, in field order: its flag parses to it, and its
# config-file value must be a JSON value of it
_FIELD_TYPES = get_type_hints(RunConfig)


def _config_from_sources(file_values: dict, flag_values: dict) -> RunConfig:
    """Apply precedence flags > config file > defaults."""
    merged: dict = {}
    for key, val in file_values.items():
        if key not in _FIELD_TYPES:
            raise DomainError(f"unknown config key {key!r}")
        kind = _FIELD_TYPES[key]
        # a float field also takes a JSON integer; a bool, an int to Python, is refused
        accepted = (int, float) if kind is float else kind
        if isinstance(val, bool) or not isinstance(val, accepted):
            raise DomainError(f"config key {key!r} needs a JSON {kind.__name__}, got {val!r}")
        merged[key] = kind(val)
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
    return format(x, ".17g")


def _dict_json(obj: dict) -> str:
    return "{" + ",".join(json.dumps(k) + ":" + _to_json(v) for k, v in sorted(obj.items())) + "}"


def _list_json(obj: list) -> str:
    rows = _rows_json(obj)
    if rows is not None:
        return rows
    return "[" + ",".join(map(_to_json, obj)) + "]"


def _column_json(col: list) -> list[str]:
    """``_to_json`` of each value of a column; a column of floats formats each value once."""
    if set(map(type, col)) == {float}:
        out = [format(v, ".17g") for v in col]
        # only nan and +-inf end in a letter; _fmt_float quotes them
        return [s if s[-1] not in "nf" else _fmt_float(v) for s, v in zip(out, col)]
    return list(map(_to_json, col))


def _rows_json(rows: list) -> str | None:
    """A list of dicts with one nonempty key set, encoded by column.

    The bytes are those of ``_to_json`` on each row: one ``%`` template per
    row, built from the sorted keys, filled from the encoded columns.  Any
    other list gives None.
    """
    if not rows or type(rows[0]) is not dict or not rows[0]:
        return None
    keys = rows[0].keys()
    if any(type(row) is not dict or row.keys() != keys for row in rows):
        return None
    names = sorted(keys)
    template = "{" + ",".join(json.dumps(k).replace("%", "%%") + ":%s" for k in names) + "}"
    columns = [_column_json([row[name] for row in rows]) for name in names]
    return "[" + ",".join(template % values for values in zip(*columns)) + "]"


# the encoder of each type a report holds, looked up by exact type: every
# handler builds its rows from Python values (.tolist(), float(...), bool(...))
_JSON_BY_TYPE = {
    float: _fmt_float,
    dict: _dict_json,
    list: _list_json,
    bool: lambda b: "true" if b else "false",
    int: str,
    str: json.dumps,
}


def _to_json(obj) -> str:
    encode = _JSON_BY_TYPE.get(type(obj))
    if encode is None:
        raise TypeError(f"a report holds no {type(obj).__name__} value: {obj!r:.60}")
    return encode(obj)


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _to_csv(rows: list[dict]) -> str:
    import csv

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
# subcommand handlers: each returns (report body, flat rows, passed); main
# adds the envelope: schema, command, target, config and passed

def _run_verify(target: str, cfg: RunConfig) -> tuple[dict, list[dict], bool]:
    from .haarverify import verify

    vcfg = cfg.verify_config()
    targets = ("thm4", "thm5", "thm6") if target == "all" else (target,)
    flat: list[dict] = []
    blocks = []
    for rep in [verify(t, vcfg) for t in targets]:
        # a verify row is its theorem, then the VerifyRow fields in declaration order
        rows = [{"theorem": rep.theorem, **r._asdict()} for r in rep.rows]
        flat.extend(rows)
        blocks.append(
            {
                "theorem": rep.theorem,
                "rows": rows,
                "passed": rep.all_passed,
                "max_rel_err": rep.max_rel_err,
            }
        )
    return {"reports": blocks}, flat, all(b["passed"] for b in blocks)


def _identity_bailey(cfg: RunConfig, ctx: QContext) -> dict:
    from .haarverify import bailey_variant_residuals

    residuals = bailey_variant_residuals(BAILEY_THETAS, cfg.tau, cfg.sigma, ctx, raw=True)
    cons, variant, raw = (v.tolist() for v in residuals)
    rows = [
        {"theta": theta, "residual": c, "variant_residual": v, "raw_residual": r,
         "passed": c <= cfg.tol}
        for theta, c, v, r in zip(BAILEY_THETAS, cons, variant, raw)
    ]
    # the two printed prefactor forms cannot both hold; report which
    # one the numbers support instead of silently picking
    return {"rows": rows, "display_form_inconsistent": any(v > cfg.tol for v in variant)}


def _identity_mass(cfg: RunConfig, ctx: QContext) -> dict:
    from .haarverify import mass_identity_check
    from .orthopoly import _mass_ladder

    # each case at its k, or at the last rung of a's mass ladder where q leaves fewer
    cases = [(a, b, min(k, len(_mass_ladder(a, ctx.q)) - 1)) for a, b, k in MASS_CASES]
    residuals = mass_identity_check(*zip(*cases), ctx).tolist()
    rows = [
        {"a": a, "b": b, "k": k, "residual": res, "passed": bool(res <= cfg.tol)}
        for (a, b, k), res in zip(cases, residuals)
    ]
    return {"rows": rows}


# the half-widths of the uniform draws of identity poisson, in order: (t, x, y)
# of ten q-Hermite kernels, then (t, x, y, a, b) of ten Al-Salam-Chihara ones;
# t in (-0.8, 0.8), x and y in (-0.99, 0.99), a and b in (-0.95, 0.95)
_POISSON_LIMITS = (0.8, 0.99, 0.99) * 10 + (0.8, 0.99, 0.99, 0.95, 0.95) * 10

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_sequence(seed: int) -> tuple[list[int], list[int]]:
    """NumPy's ``SeedSequence(seed)`` (NEP 19): its pool of four 32-bit words,
    and its ``generate_state(4, np.uint64)``."""
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    h = 0x43B0D7E5

    def hashmix(v: int, mult: int = 0x931E8875) -> int:
        nonlocal h
        v ^= h
        h = h * mult & _M32
        v = v * h & _M32
        return v ^ v >> 16

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for s in range(4):
        for d in range(4):
            if d != s:
                pool[d] = mix(pool[d], hashmix(pool[s]))
    for word in words[4:]:
        for d in range(4):
            pool[d] = mix(pool[d], hashmix(word))
    h = 0x8B51F9DD
    out = [hashmix(pool[i % 4], 0x58F38DED) for i in range(8)]
    return pool, [out[k] | out[k + 1] << 32 for k in range(0, 8, 2)]


def _pcg64(seed: int) -> tuple[int, int]:
    """NumPy's ``PCG64(seed)`` state and increment, each a 128-bit int."""
    s0, s1, i0, i1 = _seed_sequence(seed)[1]
    inc = ((i0 << 64 | i1) << 1 | 1) & _M128
    return ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _M128, inc


def _uniform_draws(seed: int, limits: tuple[float, ...]) -> list[float]:
    """numpy's ``default_rng(seed).uniform(-limits, limits)``, bit for bit, without numpy.random.

    Each draw steps PCG64 (O'Neill 2014) and takes the top 53 bits of its
    XSL-RR output as the unit double u, then -L + 2L u.
    """
    state, inc = _pcg64(seed)
    draws = []
    for lim in limits:
        state = (state * _PCG_MULT + inc) & _M128
        x, rot = (state >> 64 ^ state) & _M64, state >> 122
        x = (x >> rot | x << (64 - rot)) & _M64
        draws.append(-lim + (lim + lim) * ((x >> 11) * 2.0**-53))
    return draws


def _identity_poisson(cfg: RunConfig, ctx: QContext) -> dict:
    from .orthopoly import _asc_poisson_form, _cqh_poisson_form, asc_poisson_series

    draws = _uniform_draws(cfg.seed, _POISSON_LIMITS)
    hermite = [(*draws[k : k + 3], 0.0, 0.0) for k in range(0, 30, 3)]
    chihara = [tuple(draws[k : k + 5]) for k in range(30, 80, 5)]
    closed = Factorials.join(
        [_cqh_poisson_form(t, x, y) for t, x, y, _, _ in hermite]
        + [_asc_poisson_form(*p, ctx) for p in chihara]
    ).evaluate(ctx)
    kinds = ["q-hermite"] * len(hermite) + ["al-salam-chihara"] * len(chihara)
    rows = []
    for kind, (t, x, y, a, b), value in zip(kinds, hermite + chihara, closed):
        # the q-Hermite kernel is the Al-Salam-Chihara one at a = b = 0
        series = asc_poisson_series(t, x, y, a, b, ctx)
        res = float(abs(series - value) / (1.0 + abs(value)))
        rows.append({"kind": kind, "t": t, "x": x, "y": y, "a": a, "b": b, "residual": res,
                     "passed": bool(res <= cfg.tol)})
    return {"rows": rows}


# each identity target's report body, holding its rows; each asks qpoch
# once, for every angle, case or kernel it checks
_IDENTITIES = {"bailey": _identity_bailey, "mass": _identity_mass, "poisson": _identity_poisson}


def _run_identity(target: str, cfg: RunConfig) -> tuple[dict, list[dict], bool]:
    body = _IDENTITIES[target](cfg, cfg.context())
    return body, body["rows"], all(r["passed"] for r in body["rows"])


# each spectrum target's theorem, whose element it diagonalizes
_SPECTRUM_THEOREMS = {"cocentral": "thm4", "rho-inf": "thm5", "rho-sigma": "thm6"}


def _run_spectrum(target: str, cfg: RunConfig) -> tuple[dict, list[dict], bool]:
    """Eigenvalues and trace weights of the element truncated to 0..trunc_n at angle 0.

    ``_band_spectrum`` diagonalizes the real symmetric gauge of the
    element's band, similar to it through a diagonal unitary, so the
    eigenvalues are the element's and the weights
    (1 - q^2) sum_n q^{2n} v_n^2 read the gauge-invariant |v_n|^2.
    LAPACK sees only the coupled head of the band: rho-inf entries carry
    g and decay like q^n, so past n ~ 37 / ln(1/q) each index is its own
    eigenpair (M[n, n], e_n) up to a perturbation of 2-norm eps * max|M|.
    rho-sigma never decouples and gets the full matrix.  cocentral couples
    only indices of opposite parity, so its spectrum comes from one SVD of
    the even-odd block, about half the order: eigenvalues in pairs -s, s
    and, for an odd order, one exact 0, printed as ``0``.  Its eigenvalues
    and weights differ from a full ``eigh``'s in their last bits.
    rho-inf rows name the nearest ladder point, rho-sigma rows the
    distance to the Askey-Wilson support, whose mass points come from
    ``aw_masses`` alone (no quadrature rule is built) and are listed in
    the report.
    """
    from .haarverify import _support_distances, _theorem, thm6_params
    from .orthopoly import aw_masses
    from .qsu2rep import _band_spectrum, _element_band

    ctx = cfg.context()
    pair = _theorem(_SPECTRUM_THEOREMS[target], cfg.tau, cfg.sigma)
    name = pair.element
    eigvals, weights = _band_spectrum(_element_band(ctx, name, pair.params, 0.0, cfg.trunc_n), ctx)
    xs = eigvals.tolist()
    rows = [
        {"index": i, "eigenvalue": x, "weight": w}
        for i, (x, w) in enumerate(zip(xs, weights.tolist()))
    ]
    body: dict = {"rows": rows}
    if name == "rho_tau_inf":
        for row, x in zip(rows, xs):
            row["nearest_ladder"], row["ladder_distance"] = _nearest_ladder(x, cfg.q, cfg.tau)
    elif name == "rho_tau_sigma":
        masses = aw_masses(thm6_params(cfg.tau, cfg.sigma, ctx))
        for row, dist in zip(rows, _support_distances(eigvals, masses).tolist()):
            row["support_distance"] = dist
        if masses:
            body["mass_points"] = [{"x": xm, "weight": wm} for xm, wm in masses]
    return body, rows, True


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


def _parse_complex(token: str) -> complex:
    """One finite complex number; anything else is refused with DomainError."""
    try:
        value = complex(token)
    except ValueError as exc:
        raise DomainError(f"cannot parse argument {token!r}") from exc
    if not cmath.isfinite(value):
        raise DomainError(f"argument {token!r} is not finite")
    return value


def _parse_complex_list(raw: str) -> tuple[complex, ...]:
    return tuple(_parse_complex(tok) for tok in raw.split(",") if tok.strip())


def _run_eval_series(args, cfg: RunConfig) -> tuple[dict, list[dict], bool]:
    ctx = cfg.context()
    upper = _parse_complex_list(args.upper)
    lower = _parse_complex_list(args.lower)
    z = _parse_complex(args.z)
    val = complex(phi_rs(SeriesSpec(upper, lower, z, ctx)))
    rows = [{"value_re": val.real, "value_im": val.imag}]
    body = {
        "upper": [[c.real, c.imag] for c in upper],
        "lower": [[c.real, c.imag] for c in lower],
        "z": [z.real, z.imag],
        "base": cfg.q,
        "rows": rows,
    }
    return body, rows, True


# each handler maps (parsed arguments, config) to (report body, flat rows, passed)
_HANDLERS = {
    "verify": lambda args, cfg: _run_verify(args.target, cfg),
    "identity": lambda args, cfg: _run_identity(args.target, cfg),
    "spectrum": lambda args, cfg: _run_spectrum(args.target, cfg),
    "eval-series": _run_eval_series,
}


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
        for name, kind in _FIELD_TYPES.items():
            choices = OUTPUT_FORMATS if name == "output" else None
            p.add_argument("--" + name.replace("_", "-"), dest=name, type=kind, choices=choices,
                           default=None)

    p_verify = sub.add_parser("verify", help="dual-route theorem checks")
    p_verify.add_argument("target", choices=(*THEOREMS, "all"))
    add_config_flags(p_verify)

    p_ident = sub.add_parser("identity", help="standalone identity residuals")
    p_ident.add_argument("target", choices=tuple(_IDENTITIES))
    add_config_flags(p_ident)

    p_spec = sub.add_parser("spectrum", help="truncation spectra and trace weights")
    p_spec.add_argument("target", choices=tuple(_SPECTRUM_THEOREMS))
    add_config_flags(p_spec)

    p_eval = sub.add_parser("eval-series", help="evaluate a basic hypergeometric series")
    p_eval.add_argument("--upper", type=str, default="", help="comma-separated numerator parameters")
    p_eval.add_argument("--lower", type=str, default="", help="comma-separated denominator parameters")
    p_eval.add_argument("--z", type=str, required=True, help="series argument")
    add_config_flags(p_eval)

    return parser


def _emit(report: dict, rows: list[dict], cfg: RunConfig, wall: float) -> None:
    if cfg.output == "text":  # the wall time is part of the text body
        sys.stdout.write(_to_text(report, rows, wall))
        return
    sys.stdout.write(_to_json(report) + "\n" if cfg.output == "json" else _to_csv(rows))
    print(f"wall_time_s: {wall:.3f}", file=sys.stderr)


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
        flag_values = {name: getattr(args, name) for name in _FIELD_TYPES}
        cfg = _config_from_sources(file_values, flag_values)

        start = time.perf_counter()
        body, rows, passed = _HANDLERS[args.command](args, cfg)
        wall = time.perf_counter() - start
    except ConvergenceError as exc:
        print(f"error: numerical non-convergence: {exc}", file=sys.stderr)
        return 3
    except OverflowError as exc:
        print(f"error: numerical overflow: {exc}", file=sys.stderr)
        return 3
    except (DomainError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    report = {
        "schema": SCHEMA_VERSION,
        "command": args.command,
        "target": getattr(args, "target", ""),
        "config": cfg.as_dict(),
        **body,
        "passed": passed,
    }
    _emit(report, rows, cfg, wall)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
