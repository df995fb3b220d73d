"""Dual-route verification of closed forms for the Haar functional.

Three closed forms are checked, each by computing both sides independently:
the operator side as a phase-averaged weighted trace of p(element) on a
truncated representation, and the measure side as sum_k c_k m_k over the
claimed measure's moments: in closed form for the semicircle and the
Jackson integrals, and as e_0^T J^k e_0 of the Askey-Wilson Jacobi matrix J,
masses included.  J is memoized with the entries it has grown and the
moments it has given, in a cache of fixed size that only the measure route reads.

    thm4   p((a + a*)/2)        against the semicircle law on [-1, 1]
    thm5   p(rho_tau_inf)       against a two-endpoint Jackson integral
    thm6   p(rho_tau_sigma)     against an Askey-Wilson measure in base q^2

Supporting identities get their own checks: the intermediate expression of
the thm6 functional through diagonal Al-Salam-Chihara Poisson kernels, the
two-term very-well-poised 8W7 relation (Bailey) that collapses the kernel
pair into the Askey-Wilson density, and the matching identity for discrete
mass weights.  The two routes of every comparison share no intermediate
caches; each side is computed from its own module path.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from itertools import islice
from typing import NamedTuple

import numpy as np

from . import THEOREMS
from .errors import ConvergenceError, DomainError
from .orthopoly import (
    AWParams,
    _asc_mass_poisson_tq_form,
    _asc_poisson_form,
    _aw_h0_form,
    _aw_mass_weight_form,
    _aw_theta_weight_form,
    _mass_ladder,
    aw_masses,
)
from .qseries import Factorials, QContext, _as_coeffs, _check_numbers, _check_power_range, _coeff_list
from .qsu2rep import (
    _ELEMENT_REACH,
    SphericalParams,
    _Band,
    _band_moments,
    _band_spectrum,
    _element_band,
    _poly_degree,
    haar_moments,
    haar_trace,
    moment_trace,
    spectral_trace,
)
from .spectral import JacobiCoeffs, _jacobi_moments, _offdiag_sqrt, min_truncation

__all__ = [
    "VerifyConfig",
    "VerifyRow",
    "VerifyReport",
    "THEOREMS",
    "monomials",
    "verify",
    "thm4_measure",
    "thm5_measure",
    "thm6_params",
    "thm6_measure",
    "gamma_measure",
    "IntermediateReport",
    "intermediate_check",
    "bailey_check",
    "bailey_raw_check",
    "bailey_variant_residuals",
    "mass_identity_check",
    "support_check",
    "sigma_limit_check",
]


# smaller measure values than this make relative error meaningless; the
# reported rel_err falls back to the absolute error there
REL_ERR_FLOOR = 1e-6

_TAIL_TOL = 1e-17  # truncation tail of the self-sized traces, below their rounding

def monomials(max_degree: int) -> tuple[tuple[float, ...], ...]:
    """Coefficient tuples (ascending) for 1, x, ..., x^max_degree."""
    if max_degree < 0:
        raise DomainError("max_degree must be nonnegative")
    return tuple((0.0,) * d + (1.0,) for d in range(max_degree + 1))


class _VerifyConfigFields(NamedTuple):
    ctx: QContext
    tau: float = 0.4
    sigma: float = 1.5
    N: int = 160
    max_degree: int = 6
    tol: float = 1e-7


class VerifyConfig(_VerifyConfigFields):
    """Shared knobs for a verification run.

    :func:`verify` checks the monomials x^0 ... x^max_degree: both sides are
    linear in the polynomial, so these rows carry every polynomial of that
    degree.  The truncation policy is enforced by the trace route, which
    knows the element: ``N`` must cover the reach of the largest power, so
    a too-small ``N`` raises TruncationPolicyError from :func:`verify`, not
    from construction.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, *args, **kwargs) -> "VerifyConfig":
        self = super().__new__(cls, *args, **kwargs)
        if self.N < 1:
            raise DomainError("N must be positive")
        if type(self.max_degree) is not int or self.max_degree < 0:
            raise DomainError(f"max_degree must be a nonnegative int, got {self.max_degree!r}")
        if self.tol <= 0.0:
            raise DomainError("tol must be positive")
        return self


class VerifyRow(NamedTuple):
    """One monomial, both routes, and the discrepancy.

    ``rel_err`` is relative to the measure side unless that is smaller than
    REL_ERR_FLOOR, in which case it equals the absolute error.  The route
    labels record where each side's constants came from.
    """

    label: str
    trace_side: float
    measure_side: float
    abs_err: float
    rel_err: float
    passed: bool
    trace_route: str
    measure_route: str


class VerifyReport(NamedTuple):
    theorem: str
    config: VerifyConfig
    rows: tuple[VerifyRow, ...] = ()

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)

    @property
    def max_rel_err(self) -> float:
        return max((r.rel_err for r in self.rows), default=0.0)


def _poly_label(degree: int) -> str:
    return "1" if degree == 0 else ("x" if degree == 1 else f"x^{degree}")


def _row(label: str, trace_side: float, measure_side: float, tol: float,
         trace_route: str, measure_route: str) -> VerifyRow:
    trace_side = float(trace_side)
    measure_side = float(measure_side)
    abs_err = abs(trace_side - measure_side)
    rel_err = abs_err if abs(measure_side) < REL_ERR_FLOOR else abs_err / abs(measure_side)
    return VerifyRow(
        label=label,
        trace_side=trace_side,
        measure_side=measure_side,
        abs_err=abs_err,
        rel_err=rel_err,
        passed=bool(rel_err <= tol),
        trace_route=trace_route,
        measure_route=measure_route,
    )


def _measure_integrals(theorem: str, ctx: QContext | None, tau: float, sigma: float,
                       polys) -> list[float]:
    """Integrals sum_k c_k m_k of each p in ``polys``, in Python floats (:func:`_coeff_list`).

    thm6's moments are e_0^T J^k e_0 on its memoized Jacobi matrix, which keeps them
    (:func:`_jacobi_moments`) whatever the order of the calls; the others are the paper's
    integrals (:func:`_closed_moment`), formed only at the k of a nonzero c_k.  A nan ``tau``
    or ``sigma`` the measure reads raises DomainError by name first, and an integral that is
    not finite ConvergenceError."""
    coeffs = [_coeff_list(p) for p in polys]
    degree = max(map(_poly_degree, coeffs))
    if theorem == "thm6":
        _check_numbers(tau=tau, sigma=sigma)
        moments = _jacobi_moments(_thm6_jacobi(tau, sigma, ctx), degree)
    else:
        if theorem == "thm5":
            _check_power_range(ctx.q, 2.0 * tau * (degree + 1), tau=tau)
        moments = [0.0] * (degree + 1)
        for k in {k for c in coeffs for k, ck in enumerate(c) if ck}:
            moments[k] = _closed_moment(theorem, ctx, tau, k)
    values = [sum(map(operator.mul, c, moments)) for c in coeffs]
    if not all(map(math.isfinite, values)):
        raise ConvergenceError(f"{theorem} measure integral is not finite: {values}")
    return values


def _closed_moment(theorem: str, ctx: QContext | None, tau: float, k: int) -> float:
    """Moment k of the semicircle or a base-q^2 Jackson integral, with Q = q^2 and u = q^(2 tau),
    each 1 - Q^j and u^(k+1) - 1 an expm1 of a multiple of ln q, so that nothing cancels:

        thm4   C_j / 4^j at k = 2j (Catalan), 0 at odd k
        gamma  (1 - Q) / (1 - Q^(k+1)), over [0, 1]
        thm5   (1 - Q)(u^(k+1) + (-1)^k) / ((1 - Q^(k+1))(1 + u)), over [-1, u] / (1 + u)
    """
    if theorem == "thm4":
        j = k // 2
        return 0.0 if k % 2 else math.comb(2 * j, j) / ((j + 1) << (2 * j))
    log_q = math.log(ctx.q)
    moment = math.expm1(2.0 * log_q) / math.expm1(2.0 * (k + 1) * log_q)
    if theorem == "gamma":
        return moment
    log_u = 2.0 * tau * (k + 1) * log_q  # the range check's exponent at the top degree
    ends = math.expm1(log_u) if k % 2 else math.exp(log_u) + 1.0
    return moment * ends / (1.0 + math.exp(2.0 * tau * log_q))


class _Theorem(NamedTuple):
    """The operator side of a theorem's pair: its element and spherical parameters."""

    element: str
    params: SphericalParams | None


def _theorem(theorem: str, tau: float = 0.0, sigma: float = 0.0) -> _Theorem:
    """The element each theorem pairs with its measure (:func:`_measure_integrals`)."""
    if theorem == "thm4":
        return _Theorem("cocentral", None)
    if theorem == "thm5":
        return _Theorem("rho_tau_inf", SphericalParams(tau=tau))
    if theorem == "thm6":
        return _Theorem("rho_tau_sigma", SphericalParams(tau, sigma))
    return _Theorem("gamma_star_gamma", None)


@functools.lru_cache(maxsize=128)
def _thm6_jacobi(tau: float, sigma: float, ctx: QContext) -> JacobiCoeffs:
    """Jacobi matrix of thm6's Askey-Wilson measure (KLS 2010, eq. 14.1.5), memoized.

    At :func:`thm6_params`, with Q = q^2, z = Q^(n+1), s = sinh(tau ln q)
    and t = sinh(sigma ln q), the recurrence reads

        d_n   = -4 q s t Q^n / ((1 + Q^n)(1 + z))
        e_n^2 = (1 - z)^2 [(1 + z)^2 + 4 z s^2] [(1 + z)^2 + 4 z t^2]
                / (4 (1 + z)^2 (1 - Q^(2n+1))(1 - Q^(2n+3)))

    Only s t has a sign and each 1 - Q^j is an expm1: d_n is exactly 0 at tau = 0 or
    sigma = 0, and tau <-> sigma or tau -> -tau acts exactly.  Powers past the float
    range raise ConvergenceError.
    """
    q = ctx.q
    lowest = min(1.0 - abs(sigma) - abs(tau), -abs(tau), -abs(sigma))
    _check_power_range(q, lowest, tau=tau, sigma=sigma)
    log_Q = 2.0 * math.log(q)
    s, t = _sinh_log(q, tau), _sinh_log(q, sigma)
    shift, s2, t2 = -4.0 * (s * t), 4.0 * s * s, 4.0 * t * t

    def offdiag(n: int) -> float:  # each Q^j - 1 an expm1; they come in pairs
        z = q ** (2 * n + 2)
        w = (1.0 + z) ** 2
        num = math.expm1((n + 1) * log_Q) ** 2 * ((w + z * s2) * (w + z * t2))
        den = 4.0 * w * math.expm1((2 * n + 1) * log_Q) * math.expm1((2 * n + 3) * log_Q)
        return _offdiag_sqrt(num / den, n)

    return JacobiCoeffs(
        diag=lambda n: shift * q ** (2 * n + 1) / ((1.0 + q ** (2 * n)) * (1.0 + q ** (2 * n + 2))),
        offdiag=offdiag,
    )


def _sinh_log(q: float, e: float) -> float:
    """sinh(e ln q) within a few ulps: from pow where q^e - q^-e does not cancel (|e ln q| > 1)."""
    x = e * math.log(q)
    return 0.5 * (q**e - q**-e) if abs(x) > 1.0 else math.sinh(x)


@functools.lru_cache(maxsize=128)
def _kernel_jacobi(total: float, product: float, ctx: QContext) -> JacobiCoeffs:
    """Al-Salam-Chihara Jacobi matrix, a + b = ``total``, ab = ``product``, base Q = ``ctx.q``
    (KLS 2010, §14.8): d_n = (a + b) Q^n / 2, e_n^2 = (1 - Q^(n+1))(1 - ab Q^n) / 4; memoized."""
    Q, log_Q = ctx.q, math.log(ctx.q)
    return JacobiCoeffs(
        diag=lambda n: 0.5 * total * Q**n,
        offdiag=lambda n: _offdiag_sqrt(-0.25 * math.expm1((n + 1) * log_Q) * (1.0 - product * Q**n), n),
    )


def _measure_route(theorem: str, ctx: QContext, tau: float, sigma: float, degree: int) -> str:
    """The label :func:`verify` gives the measure side; thm6 counts its mass points and rows."""
    if theorem == "thm4":
        return "semicircle (Chebyshev U), closed-form moments"
    if theorem == "thm5":
        return f"Jackson q^2-integral over [-1, q^(2*{tau:g})], closed-form moments"
    if theorem == "thm6":
        aw, rows = thm6_params(tau, sigma, ctx), degree // 2 + 1
        masses = sum(len(_mass_ladder(e, aw.ctx.q)) for e in aw.as_tuple())
        return f"Askey-Wilson q^2 measure, {masses} mass point(s), Jacobi moments on {rows} row(s)"
    return "Jackson q^2-integral over [0, 1], closed-form moments"


def thm4_measure(p) -> float:
    """Semicircle moments (2/pi) int_{-1}^1 p(x) sqrt(1-x^2) dx, ``p`` ascending coefficients;
    m_2j = C_j / 4^j correctly rounded, and odd moments exactly 0."""
    return _measure_integrals("thm4", None, 0.0, 0.0, [p])[0]


def thm5_measure(p, tau: float, ctx: QContext) -> float:
    """(1 + q^{2 tau})^{-1} times the base-q^2 Jackson integral of p over [-1, q^{2 tau}]."""
    return _measure_integrals("thm5", ctx, tau, 0.0, [p])[0]


def thm6_params(tau: float, sigma: float, ctx: QContext) -> AWParams:
    """Askey-Wilson parameter quadruple attached to rho_tau_sigma, base q^2.

    A tau or sigma whose powers of q leave the float range raises
    ConvergenceError, as it does wherever the parameters enter.
    """
    q = ctx.q
    _check_power_range(q, 1.0 - abs(sigma) - abs(tau), tau=tau, sigma=sigma)
    return AWParams(
        a=-(q ** (sigma + tau + 1.0)),
        b=-(q ** (1.0 - sigma - tau)),
        c=q ** (sigma - tau + 1.0),
        d=q ** (1.0 - sigma + tau),
        ctx=ctx.squared(),
    )


def thm6_measure(p, tau: float, sigma: float, ctx: QContext) -> float:
    """Integral of p against the Askey-Wilson measure attached to rho_tau_sigma."""
    return _measure_integrals("thm6", ctx, tau, sigma, [p])[0]


def gamma_measure(p, ctx: QContext) -> float:
    """Base-q^2 Jackson integral of p over [0, 1]."""
    return _measure_integrals("gamma", ctx, 0.0, 0.0, [p])[0]


def verify(theorem: str, cfg: VerifyConfig) -> VerifyReport:
    """Compare trace and measure sides for x^0 ... x^cfg.max_degree, one row each.

    ``theorem`` is one of "thm4", "thm5", "thm6", "gamma".  One pass of
    :func:`haar_moments` at ``max_degree``, on its smallest exact phase
    grid, serves the trace side of every row, and the measure's moments
    through that degree its measure side (:func:`_measure_integrals`).
    Each row's ``trace_route`` names that grid: one angle in the real gauge
    for the covariant elements, the least M with lcm(M, 2) > 2*degree
    angles for rho_tau_sigma.  Its ``measure_route`` names the measure and
    its moments' source: closed forms, or thm6's deg // 2 + 1 Jacobi rows.
    Neither side returns a number that is not finite: each raises ConvergenceError.
    """
    if theorem not in THEOREMS:
        raise DomainError(f"unknown theorem {theorem!r}; expected one of {THEOREMS}")
    pair = _theorem(theorem, cfg.tau, cfg.sigma)
    polys = monomials(cfg.max_degree)
    measures = _measure_integrals(theorem, cfg.ctx, cfg.tau, cfg.sigma, polys)
    measure_route = _measure_route(theorem, cfg.ctx, cfg.tau, cfg.sigma, cfg.max_degree)
    moments = haar_moments(cfg.ctx, pair.element, cfg.max_degree, cfg.N, pair.params, tol=cfg.tol)
    angles = len(moments)
    grid = "1 angle (real gauge)" if angles == 1 else f"{angles} angles"
    trace_route = f"phase-averaged weighted trace, {grid}, N={cfg.N}"
    rows = tuple(
        _row(_poly_label(k), moment_trace(c, moments), measure, cfg.tol, trace_route, measure_route)
        for k, (c, measure) in enumerate(zip(polys, measures))
    )
    return VerifyReport(theorem=theorem, config=cfg, rows=rows)


class IntermediateReport(NamedTuple):
    """Deviations of the diagonal-Poisson-kernel expression for one polynomial.

    The functional of p(rho_tau_sigma) is rewritten as a weighted pair of
    integrals of p(x) P_{q^2}(x, x) against the two Al-Salam-Chihara
    orthogonality measures, each a weighted Jacobi trace (see
    :func:`intermediate_check`); that value is compared against the
    assembled Askey-Wilson measure route (``vs_measure``) and the operator
    trace route (``vs_trace``), both relative to max(1, |measure|).
    ``support_separation`` is the smallest distance between discrete mass
    points of the two kernels' measures (infinity when either has none);
    the rewriting needs these supports disjoint.
    """

    vs_measure: float
    vs_trace: float
    support_separation: float


def _asc_pair(tau: float, sigma: float, q: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """The Al-Salam-Chihara parameter pairs of the two kernels.

    Their callers also weight the kernels by q^(2 tau) and q^(-2 tau), and
    form a + b with sinh(sigma ln q); the range check covers those too.
    """
    lowest = min(1.0 - abs(sigma) - abs(tau), -2.0 * abs(tau), -abs(sigma))
    _check_power_range(q, lowest, tau=tau, sigma=sigma)
    a1 = q ** (1.0 + sigma - tau)
    b1 = -(q ** (1.0 - sigma - tau))
    a2 = q ** (1.0 - sigma + tau)
    b2 = -(q ** (1.0 + sigma + tau))
    return (a1, b1), (a2, b2)


def _thm6_trace(coeffs: np.ndarray, tau: float, sigma: float, ctx: QContext) -> float:
    """:func:`haar_trace` of p(rho_tau_sigma) at the least size whose tail meets _TAIL_TOL."""
    pair = _theorem("thm6", tau, sigma)
    size = min_truncation(_ELEMENT_REACH[pair.element] * _poly_degree(coeffs), _TAIL_TOL, ctx.q)
    return haar_trace(ctx, pair.element, coeffs, size, pair.params, tol=_TAIL_TOL)


def intermediate_check(p, tau: float, sigma: float, ctx: QContext) -> IntermediateReport:
    """Check the kernel-pair expression of the thm6 functional on one polynomial.

    By the kernel's defining series each integral is sum_n Q^n [p(J)]_{nn},
    Q = q^2, over its measure's Jacobi matrix J (:func:`_kernel_jacobi`),
    read off the band powers of J by ``qsu2rep._band_moments`` as the
    trace route reads its element's: no
    quadrature, and no closed-form kernel (``identity poisson`` checks that).
    J and the trace route's element are truncated where their tails
    Q^(N - reach * degree) fall below _TAIL_TOL, reach 1 for J.  A value
    that leaves the float range raises ConvergenceError, without a numpy
    RuntimeWarning.
    """
    if tau == 0.0:
        raise DomainError("tau = 0 makes a printed prefactor of this identity singular")
    q = ctx.q
    Q = q * q
    coeffs = _as_coeffs(p)
    pairs = _asc_pair(tau, sigma, q)
    s = 2.0 * _sinh_log(q, sigma)  # a + b of each pair is 0 exactly at sigma = 0
    masses1, masses2 = (aw_masses(AWParams(a, b, 0.0, 0.0, ctx.squared())) for a, b in pairs)
    sep = min((abs(x1 - x2) for x1, _ in masses1 for x2, _ in masses2), default=math.inf)
    if sep < 1e-10:
        raise DomainError("mass supports of the two kernel measures collide")
    degree = _poly_degree(coeffs)
    size = min_truncation(degree, _TAIL_TOL, q)
    weights = Q ** np.arange(size)
    parts = []
    for (a, b), total in zip(pairs, (q ** (1.0 - tau) * s, -(q ** (1.0 + tau)) * s)):
        d, e = _kernel_jacobi(total, a * b, ctx.squared()).arrays(size)
        J = _Band({-1: np.append(0.0, e), 0: d, 1: np.append(e, 0.0)})
        parts.append(_band_moments(J, degree, weights, 1)[0].real)
    w1 = (1.0 - Q) / (1.0 + q ** (2.0 * tau))
    w2 = (1.0 - Q) / (1.0 + q ** (-2.0 * tau))
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        val = float((w1 * parts[0] + w2 * parts[1]) @ coeffs[: degree + 1])
    if not math.isfinite(val):
        raise ConvergenceError(f"kernel-pair value {val!r} is not finite")
    meas = thm6_measure(coeffs, tau, sigma, ctx)
    trace = _thm6_trace(coeffs, tau, sigma, ctx)
    scale = max(1.0, abs(meas))
    return IntermediateReport(
        vs_measure=abs(val - meas) / scale,
        vs_trace=abs(val - trace) / scale,
        support_separation=sep,
    )


def _shaped(values: list, shape: tuple):
    """``values`` as an array of ``shape``, or its one value for shape ()."""
    return values[0] if shape == () else np.array(values).reshape(shape)


def _angles(theta) -> list[float]:
    """``theta`` as a flat list of angles; one that is not finite raises DomainError."""
    angles = np.asarray(theta, dtype=float).ravel().tolist()
    if not all(map(math.isfinite, angles)):
        raise DomainError(f"theta must be finite, got {theta!r}")
    return angles


def bailey_raw_check(theta, tau: float, sigma: float, ctx: QContext):
    """Relative residual of the two-term very-well-poised 8W7 relation.

    Evaluated directly at the base-q^2 substitution attached to
    (theta, tau, sigma): a = -q^{2-2 tau}, b = q^2, and the two conjugate
    pairs c, d = -q^{1 -/+ sigma - tau} e^{+/- i theta} ... built from the
    kernel parameters.  ``theta`` may be an array: the residuals then come
    as an array of its shape, all factorials from one ``qpoch`` call; each
    equals the scalar call at that angle bit for bit.
    """
    _check_power_range(ctx.q, min(2.0 - 2.0 * tau, 1.0 - abs(sigma) - tau), tau=tau, sigma=sigma)
    form = Factorials.join([_bailey_raw_form(t, tau, sigma, ctx) for t in _angles(theta)])
    return _shaped(form.evaluate(ctx.squared()), np.shape(theta))


def _bailey_raw_form(theta: float, tau: float, sigma: float, ctx: QContext) -> Factorials:
    q = ctx.q
    Q = q * q
    ctx2 = ctx.squared()
    a = -(q ** (2.0 - 2.0 * tau))
    b = Q
    z = cmath.exp(1j * theta)
    c = -(q ** (1.0 - sigma - tau)) * z
    d = c.conjugate()
    e = q ** (1.0 + sigma - tau) * z
    f = e.conjugate()
    if 0.0 in (c, e, c * d, c * e, c * f, d * e, d * f, e * f):
        raise ConvergenceError(
            f"8W7 parameters at tau={tau!r}, sigma={sigma!r}, q={q!r} underflow to zero"
        )
    # the eight denominator factorials are shared by the second term and the rhs
    lower = (a * Q / c, a * Q / d, a * Q / e, a * Q / f, b * c / a, b * d / a, b * e / a, b * f / a)
    upper = (a * Q, c, d, e, f, b * Q / c, b * Q / d, b * Q / e, b * Q / f)
    rhs_upper = (
        a * Q,
        a * Q / (c * d),
        a * Q / (c * e),
        a * Q / (c * f),
        a * Q / (d * e),
        a * Q / (d * f),
        a * Q / (e * f),
    )

    def assemble(vals: np.ndarray, sums: list) -> float:
        vals = iter(vals.tolist())
        term1 = sums[0] / next(vals)
        den = math.prod(islice(vals, len(lower)), start=1.0)
        pref = math.prod(islice(vals, len(upper)), start=1.0) / (den * next(vals))
        term2 = pref * sums[1] / next(vals)
        rhs = math.prod(vals, start=1.0) / den
        return abs(term1 + term2 - rhs) / abs(rhs)

    # both 8W7 sums in base q^2, the base the form is evaluated in
    series = [(a, b, c, d, e, f, Q), (b * b / a, b, b * c / a, b * d / a, b * e / a, b * f / a, Q)]
    params = [b / a, *lower, *upper, b * b * Q / a, a / b, *rhs_upper]
    return Factorials(params, assemble, series=series)


def bailey_check(theta, tau: float, sigma: float, ctx: QContext):
    """Relative residual of the assembled kernel-pair density identity at theta.

    Pointwise on x = cos(theta): the two diagonal Poisson kernels times
    their one-pair Askey-Wilson densities, weighted by
    (1-q^2)/((1 +/- q^{-/+ 2 tau}) h0), combine into the four-parameter
    density over its h0.  The prefactor of the second term uses the
    internally consistent sign (1 + q^{-2 tau}); see
    :func:`bailey_variant_residuals` for the variant comparison.  tau = 0
    is rejected because the variant prefactor 1/(1 - q^{-2 tau}) is
    singular there.
    """
    return bailey_variant_residuals(theta, tau, sigma, ctx)[0]


def bailey_variant_residuals(theta, tau: float, sigma: float, ctx: QContext, raw: bool = False):
    """Residuals (consistent, variant) of the two second-term prefactors.

    The consistent form divides the second term by (1 + q^{-2 tau}); the
    variant divides by (1 - q^{-2 tau}).  Only one of them can agree with
    the four-parameter density; the caller should flag the discrepancy
    when the variant residual exceeds tolerance instead of silently
    dropping the inconsistent form.  Both share one evaluation of the
    kernels, weights and normalizations.

    ``theta`` may be an array: each residual is then an array of its
    shape; each normalization is computed once and each weight is one
    array form over every angle.  With ``raw`` the :func:`bailey_raw_check` residuals at
    the same angles come third.  Every factorial comes from one ``qpoch``
    call, and each value equals the scalar call at its angle bit for bit.
    """
    if tau == 0.0:
        raise DomainError("tau = 0 makes the variant prefactor 1/(1 - q^{-2 tau}) singular")
    q = ctx.q
    Q = q * q
    ctx2 = ctx.squared()
    (a1, b1), (a2, b2) = _asc_pair(tau, sigma, q)
    p6 = thm6_params(tau, sigma, ctx)
    params4 = (p6.a, p6.b, p6.c, p6.d)
    angles = _angles(theta)
    kernels = [
        Factorials.join([_asc_poisson_form(Q, x, x, a, b, ctx2) for a, b in ((a1, b1), (a2, b2))])
        for x in map(math.cos, angles)
    ]
    weights = [
        _aw_theta_weight_form(np.array(angles), *params)
        for params in ((a1, b1, 0.0, 0.0), (a2, b2, 0.0, 0.0), params4)
    ]
    second_denoms = (1.0 + q ** (-2.0 * tau), 1.0 - q ** (-2.0 * tau))

    def residuals(h0_1, h0_2, h0_4, w1s, w2s, w4s, *kernel_pairs):
        cons, variant = [], []
        for (k1, k2), w1, w2, w4 in zip(kernel_pairs, w1s.tolist(), w2s.tolist(), w4s.tolist()):
            first = (1.0 - Q) * k1 * w1 / ((1.0 + q ** (2.0 * tau)) * h0_1)
            second = (1.0 - Q) * k2 * w2
            rhs = w4 / h0_4
            for out, d in zip((cons, variant), second_denoms):
                out.append(abs(first + second / (d * h0_2) - rhs) / abs(rhs))
        return _shaped(cons, np.shape(theta)), _shaped(variant, np.shape(theta))

    variants = Factorials.join(
        [_aw_h0_form(a1, b1, 0.0, 0.0, ctx2), _aw_h0_form(a2, b2, 0.0, 0.0, ctx2),
         _aw_h0_form(*params4, ctx2), *weights, *kernels],
        residuals,
    )
    raws = [_bailey_raw_form(t, tau, sigma, ctx) for t in angles] if raw else []
    (cons, variant), *raw_values = Factorials.join([variants, *raws]).evaluate(ctx2)
    return (cons, variant, _shaped(raw_values, np.shape(theta))) if raw else (cons, variant)


def mass_identity_check(a, b, k, ctx: QContext):
    """Absolute deviation in the discrete-mass-weight matching identity.

    With x_k the mass point of parameter a (k on the mass ladder of a,
    ``orthopoly._mass_ladder``; signed ab < 1):

        (1-q) / (1 - q/(ab)) * P_k(a; b) * w_k(a; b, 0, 0) / h0(a, b, 0, 0)
            = w_k(a; b, q/a, q/b) / h0(a, b, q/a, q/b).

    The four-parameter side generally violates the bounds a measure
    requires, so the raw weight and normalization helpers are used; the
    identity itself is a meromorphic statement about the formulas.

    ``a``, ``b`` and ``k`` may be arrays that broadcast together, one case
    per element: the deviations then come as an array of that shape.
    Every case is validated first (a DomainError names the case and q),
    then all factorials come from one ``qpoch`` call.
    """
    shape = np.broadcast(a, b, k).shape
    cases = zip(*(np.broadcast_to(v, shape).ravel().tolist() for v in (a, b, k)))
    form = Factorials.join([_mass_identity_form(*case, ctx) for case in cases])
    return _shaped(form.evaluate(ctx), shape)


def _mass_identity_form(a: float, b: float, k: int, ctx: QContext) -> Factorials:
    q = ctx.q
    case = f"mass case (a={a!r}, b={b!r}, k={k!r}) at q={q!r}"
    if a * b >= 1.0:
        raise DomainError(f"{case}: need signed ab < 1")
    if k not in _mass_ladder(a, q):
        raise DomainError(f"{case}: index k beyond the mass ladder of a")
    if b == 0.0:
        raise DomainError(f"{case}: b = 0 makes q/b, a parameter of the four-parameter side, infinite")
    if q / (a * b) == 1.0:
        raise DomainError(f"{case}: q = ab makes the prefactor 1/(1 - q/(ab)) singular")

    def residual(kernel, w2, h2, w4, h4):
        lhs = (1.0 - q) / (1.0 - q / (a * b)) * kernel * w2 / h2
        return abs(lhs - w4 / h4)

    return Factorials.join(
        [
            _asc_mass_poisson_tq_form(k, a, b, ctx),
            _aw_mass_weight_form(a, (b, 0.0, 0.0), k, ctx),
            _aw_h0_form(a, b, 0.0, 0.0, ctx),
            _aw_mass_weight_form(a, (b, q / a, q / b), k, ctx),
            _aw_h0_form(a, b, q / a, q / b, ctx),
        ],
        residual,
    )


def support_check(tau: float, sigma: float, ctx: QContext, size: int = 200) -> float:
    """Largest distance from a truncation eigenvalue to the spectral support.

    The support is [-1, 1] together with the mass points (``aw_masses``; no
    quadrature rule is built) of the Askey-Wilson measure attached to
    rho_tau_sigma.  Eigenvalues of the truncated matrix should approach it
    from within roundoff plus truncation error.  ``_band_spectrum`` takes them
    from the real symmetric gauge of the element's band at angle 0, a
    diagonal unitary similarity, so LAPACK never sees a complex matrix.  It
    splits off only entries below eps * max|M|, and the a^2 and a*^2
    entries of rho_tau_sigma tend to 1/2, so LAPACK gets the whole matrix.
    """
    masses = aw_masses(thm6_params(tau, sigma, ctx))
    pair = _theorem("thm6", tau, sigma)
    eigs, _ = _band_spectrum(_element_band(ctx, pair.element, pair.params, 0.0, size))
    return float(np.max(_support_distances(eigs, masses)))


def _support_distances(xs: np.ndarray, masses) -> np.ndarray:
    """Distance from each of ``xs`` to [-1, 1] together with the mass points of ``masses``.

    ``masses`` holds the (point, weight) pairs of an Askey-Wilson measure.
    max(|x| - 1, 0), then min with each |x - x_m| in turn.
    """
    dist = np.maximum(np.abs(xs) - 1.0, 0.0)
    for xm, _ in masses:
        dist = np.minimum(dist, np.abs(xs - xm))
    return dist


def sigma_limit_check(p, tau: float, ctx: QContext) -> tuple[float, ...]:
    """Errors |h(p(2 q^{sigma+tau-1} rho_tau_sigma)) - h(p(rho_tau_inf))| at sigma = 4, 6, 8.

    The rescaled element converges in norm at rate O(q^sigma), so the
    returned sequence should decrease geometrically.  Each trace takes the
    least size whose tail meets _TAIL_TOL at rho_tau_sigma's reach.
    """
    coeffs = _as_coeffs(p)
    q = ctx.q
    reference = float(spectral_trace(ctx, tau, coeffs))
    out = []
    for sigma in (4.0, 6.0, 8.0):
        scale = 2.0 * q ** (sigma + tau - 1.0)
        scaled = coeffs * scale ** np.arange(coeffs.shape[0])
        out.append(abs(_thm6_trace(scaled, tau, sigma, ctx) - reference))
    return tuple(out)
