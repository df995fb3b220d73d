"""Dual-route verification of closed forms for the Haar functional.

Three closed forms are checked, each by computing both sides independently:
the operator side as a phase-averaged weighted trace of p(element) on a
truncated representation, and the measure side on the Gauss rule of the
claimed measure's Jacobi matrix, exact for polynomials, masses included.

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
import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .errors import ConvergenceError, DomainError
from .orthopoly import (
    AWParams,
    _as_callable,
    _asc_mass_poisson_tq_form,
    _asc_poisson_form,
    _aw_h0_form,
    _aw_mass_weight_form,
    _aw_theta_weight_form,
    _mass_ladder,
    asc_poisson,
    aw_integrate,
    aw_jacobi,
    aw_masses,
    aw_measure,
)
from .qseries import Factorials, QContext, w87
from .qsu2rep import (
    SphericalParams,
    _element_band,
    _poly_degree,
    haar_moments,
    haar_trace,
    moment_trace,
    spectral_trace,
)
from .spectral import JacobiCoeffs, _offdiag_sqrt, gauss_rule

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

THEOREMS = ("thm4", "thm5", "thm6", "gamma")

_THEOREM_ALIASES = {4: "thm4", 5: "thm5", 6: "thm6", "4": "thm4", "5": "thm5", "6": "thm6"}

# smaller measure values than this make relative error meaningless; the
# reported rel_err falls back to the absolute error there
REL_ERR_FLOOR = 1e-6

CALLABLE_NODES = 32  # Gauss rule size for a callable integrand, which has no degree

_SEMICIRCLE = JacobiCoeffs(diag=lambda m: 0.0, offdiag=lambda m: 0.5)  # Chebyshev U


def monomials(max_degree: int) -> tuple[tuple[float, ...], ...]:
    """Coefficient tuples (ascending) for 1, x, ..., x^max_degree."""
    if max_degree < 0:
        raise DomainError("max_degree must be nonnegative")
    return tuple((0.0,) * d + (1.0,) for d in range(max_degree + 1))


@dataclass(frozen=True)
class VerifyConfig:
    """Shared knobs for a verification run.

    ``poly_set`` holds ascending coefficient tuples; the default is the
    monomials through degree 6.  The truncation policy is enforced by the
    trace route, which knows the element: ``N`` must cover the reach of
    the largest power, so a too-small ``N`` raises TruncationPolicyError
    from :func:`verify`, not from construction.
    """

    ctx: QContext
    tau: float = 0.4
    sigma: float = 1.5
    N: int = 160
    poly_set: tuple[tuple[float, ...], ...] = field(default_factory=lambda: monomials(6))
    tol: float = 1e-7

    def __post_init__(self) -> None:
        if self.N < 1:
            raise DomainError("N must be positive")
        if self.tol <= 0.0:
            raise DomainError("tol must be positive")
        if not self.poly_set:
            raise DomainError("poly_set must not be empty")
        object.__setattr__(
            self, "poly_set", tuple(tuple(float(c) for c in p) for p in self.poly_set)
        )

    @property
    def max_degree(self) -> int:
        return max(_poly_degree(np.asarray(p)) for p in self.poly_set)


@dataclass(frozen=True)
class VerifyRow:
    """One polynomial, both routes, and the discrepancy.

    ``rel_err`` is relative to the measure side unless that is smaller than
    REL_ERR_FLOOR, in which case it equals the absolute error.  The route
    labels record where each side's constants came from.
    """

    label: str
    coeffs: tuple[float, ...]
    trace_side: float
    measure_side: float
    abs_err: float
    rel_err: float
    passed: bool
    trace_route: str
    measure_route: str


@dataclass(frozen=True)
class VerifyReport:
    theorem: str
    config: VerifyConfig
    rows: tuple[VerifyRow, ...] = field(default_factory=tuple)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)

    @property
    def max_rel_err(self) -> float:
        return max((r.rel_err for r in self.rows), default=0.0)


def _poly_label(coeffs: np.ndarray) -> str:
    nz = np.nonzero(coeffs)[0]
    if nz.size == 0:
        return "0"
    if nz.size == 1 and coeffs[nz[0]] == 1.0:
        d = int(nz[0])
        return "1" if d == 0 else ("x" if d == 1 else f"x^{d}")
    return f"poly(deg={int(nz[-1])})"


def _as_coeffs(p) -> np.ndarray | None:
    if callable(p):
        return None
    return np.atleast_1d(np.asarray(p, dtype=float))


def _row(label: str, coeffs, trace_side: float, measure_side: float, tol: float,
         trace_route: str, measure_route: str) -> VerifyRow:
    trace_side = float(trace_side)
    measure_side = float(measure_side)
    abs_err = abs(trace_side - measure_side)
    rel_err = abs_err if abs(measure_side) < REL_ERR_FLOOR else abs_err / abs(measure_side)
    return VerifyRow(
        label=label,
        coeffs=tuple(float(c) for c in np.atleast_1d(coeffs)),
        trace_side=trace_side,
        measure_side=measure_side,
        abs_err=abs_err,
        rel_err=rel_err,
        passed=bool(rel_err <= tol),
        trace_route=trace_route,
        measure_route=measure_route,
    )


def _integrate(jacobi: JacobiCoeffs, p) -> float:
    """Integral of p on the Gauss rule of ``jacobi``: exact for coefficients."""
    coeffs = _as_coeffs(p)
    if coeffs is None:
        nodes, weights = gauss_rule(jacobi, CALLABLE_NODES)
        return float(weights @ np.array([float(p(x)) for x in nodes]))
    nodes, weights = gauss_rule(jacobi, _poly_degree(coeffs) // 2 + 1)
    return float(weights @ np.polynomial.polynomial.polyval(nodes, coeffs))


def _jackson_jacobi(lo: float, hi: float, ctx: QContext) -> JacobiCoeffs:
    """Jacobi matrix of the normalized base-q^2 Jackson integral on [lo, hi]:
    big q-Jacobi P_n(x/s; 1, 1, c; q^2) (KLS 2010, eq. 14.5.3), d_n = s (1 - A_n - C_n),
    e_n^2 = s^2 A_n C_{n+1}, C_0 = 0 (printed 0/0).  The integral is even in x, so the
    endpoint far of larger modulus sets s = far/q^2 and c = near/far: |c| <= 1.
    """
    far, near = (lo, hi) if -lo > hi else (hi, lo)
    Q = ctx.q**2
    c = near / far
    s = far / Q

    def A(n: int) -> float:
        num = (1 - Q ** (n + 1)) ** 2 * (1 - c * Q ** (n + 1))
        return num / ((1 - Q ** (2 * n + 1)) * (1 - Q ** (2 * n + 2)))

    def C(n: int) -> float:
        if n == 0:
            return 0.0
        num = (Q**n - c) * Q ** (n + 1) * (1 - Q**n) ** 2
        return num / ((1 - Q ** (2 * n)) * (1 - Q ** (2 * n + 1)))

    return JacobiCoeffs(
        diag=lambda n: s * (1 - A(n) - C(n)),
        offdiag=lambda n: _offdiag_sqrt(s * s * A(n) * C(n + 1), n),
    )


def thm4_measure(p) -> float:
    """Semicircle moments (2/pi) int_{-1}^1 p(x) sqrt(1-x^2) dx.

    ``p`` is an ascending coefficient array or a continuous function on
    [-1, 1]; the Gauss rule is that of Chebyshev U.
    """
    return _integrate(_SEMICIRCLE, p)


def thm5_measure(p, tau: float, ctx: QContext) -> float:
    """(1 + q^{2 tau})^{-1} times the base-q^2 Jackson integral of p over [-1, q^{2 tau}]."""
    return _integrate(_jackson_jacobi(-1.0, ctx.q ** (2.0 * tau), ctx), p)


def thm6_params(tau: float, sigma: float, ctx: QContext) -> AWParams:
    """Askey-Wilson parameter quadruple attached to rho_tau_sigma, base q^2."""
    q = ctx.q
    return AWParams(
        a=-(q ** (sigma + tau + 1.0)),
        b=-(q ** (1.0 - sigma - tau)),
        c=q ** (sigma - tau + 1.0),
        d=q ** (1.0 - sigma + tau),
        ctx=ctx.squared(),
    )


def thm6_measure(p, tau: float, sigma: float, ctx: QContext) -> float:
    """Integral of p against the Askey-Wilson measure attached to rho_tau_sigma."""
    return _integrate(aw_jacobi(thm6_params(tau, sigma, ctx)), p)


def gamma_measure(p, ctx: QContext) -> float:
    """Base-q^2 Jackson integral of p over [0, 1]."""
    return _integrate(_jackson_jacobi(0.0, 1.0, ctx), p)


def verify(theorem, cfg: VerifyConfig) -> VerifyReport:
    """Compare trace and measure sides for every polynomial in cfg.poly_set.

    ``theorem`` is one of "thm4", "thm5", "thm6", "gamma" (the integers
    4, 5, 6 are accepted as aliases).  One pass of :func:`haar_moments`
    at the largest degree serves the trace side of every polynomial, one
    Gauss rule exact at that degree its measure side.
    """
    theorem = _THEOREM_ALIASES.get(theorem, theorem)
    if theorem not in THEOREMS:
        raise DomainError(f"unknown theorem {theorem!r}; expected one of {THEOREMS}")
    ctx = cfg.ctx
    if theorem == "thm4":
        name, params, jacobi = "cocentral", None, _SEMICIRCLE
        measure_route = "semicircle (Chebyshev U)"
    elif theorem == "thm5":
        name, params = "rho_tau_inf", SphericalParams(tau=cfg.tau)
        jacobi = _jackson_jacobi(-1.0, ctx.q ** (2.0 * cfg.tau), ctx)
        measure_route = f"Jackson q^2-integral over [-1, q^(2*{cfg.tau:g})] (big q-Jacobi)"
    elif theorem == "thm6":
        name, params = "rho_tau_sigma", SphericalParams(tau=cfg.tau, sigma=cfg.sigma)
        aw = thm6_params(cfg.tau, cfg.sigma, ctx)
        jacobi = aw_jacobi(aw)
        masses = sum(len(_mass_ladder(e, aw.ctx.q)) for e in aw.as_tuple())
        measure_route = f"Askey-Wilson q^2 measure, {masses} mass point(s)"
    else:
        name, params, jacobi = "gamma_star_gamma", None, _jackson_jacobi(0.0, 1.0, ctx)
        measure_route = "Jackson q^2-integral over [0, 1] (big q-Jacobi)"
    nodes, weights = gauss_rule(jacobi, cfg.max_degree // 2 + 1)
    measure_route += f", Gauss rule of {len(nodes)} node(s)"
    moments = haar_moments(ctx, name, cfg.max_degree, cfg.N, params, tol=cfg.tol)
    trace_route = f"phase-averaged weighted trace, N={cfg.N}"
    rows = tuple(
        _row(_poly_label(c), c, moment_trace(c, moments),
             weights @ np.polynomial.polynomial.polyval(nodes, c), cfg.tol,
             trace_route, measure_route)
        for c in map(np.asarray, cfg.poly_set)
    )
    return VerifyReport(theorem=theorem, config=cfg, rows=rows)


@dataclass(frozen=True)
class IntermediateReport:
    """Deviations of the diagonal-Poisson-kernel expression for one polynomial.

    The functional of p(rho_tau_sigma) is rewritten as a weighted pair of
    integrals of p(x) P_{q^2}(x, x) against the two Al-Salam-Chihara
    orthogonality measures; that value is compared against the assembled
    Askey-Wilson measure route (``vs_measure``) and the operator trace
    route (``vs_trace``), both relative to max(1, |measure|).
    ``support_separation`` is the smallest distance between discrete mass
    points of the two kernels' measures (infinity when either has none);
    the rewriting needs these supports disjoint.
    """

    vs_measure: float
    vs_trace: float
    support_separation: float


def _asc_pair(tau: float, sigma: float, q: float) -> tuple[tuple[float, float], tuple[float, float]]:
    a1 = q ** (1.0 + sigma - tau)
    b1 = -(q ** (1.0 - sigma - tau))
    a2 = q ** (1.0 - sigma + tau)
    b2 = -(q ** (1.0 + sigma + tau))
    return (a1, b1), (a2, b2)


def intermediate_check(
    p, tau: float, sigma: float, ctx: QContext, size: int = 200
) -> IntermediateReport:
    """Check the kernel-pair expression of the thm6 functional on one polynomial."""
    if tau == 0.0:
        raise DomainError("tau = 0 makes a printed prefactor of this identity singular")
    q = ctx.q
    Q = q * q
    ctx2 = ctx.squared()
    coeffs = _as_coeffs(p)
    if coeffs is None:
        raise DomainError("intermediate_check needs polynomial coefficients")
    pv = _as_callable(coeffs)
    (a1, b1), (a2, b2) = _asc_pair(tau, sigma, q)
    spec1 = aw_measure(AWParams(a1, b1, 0.0, 0.0, ctx2))
    spec2 = aw_measure(AWParams(a2, b2, 0.0, 0.0, ctx2))
    if spec1.masses and spec2.masses:
        sep = min(abs(x1 - x2) for x1, _ in spec1.masses for x2, _ in spec2.masses)
    else:
        sep = math.inf
    if sep < 1e-10:
        raise DomainError("mass supports of the two kernel measures collide")
    w1 = (1.0 - Q) / (1.0 + q ** (2.0 * tau))
    w2 = (1.0 - Q) / (1.0 + q ** (-2.0 * tau))
    part1 = aw_integrate(spec1, lambda x: pv(x) * asc_poisson(Q, x, x, a1, b1, ctx2))
    part2 = aw_integrate(spec2, lambda x: pv(x) * asc_poisson(Q, x, x, a2, b2, ctx2))
    val = w1 * part1 + w2 * part2
    meas = thm6_measure(coeffs, tau, sigma, ctx)
    trace = haar_trace(
        ctx, "rho_tau_sigma", coeffs, size, SphericalParams(tau=tau, sigma=sigma), tol=1e-9
    )
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
    return np.asarray(theta, dtype=float).ravel().tolist()


def bailey_raw_check(theta, tau: float, sigma: float, ctx: QContext):
    """Relative residual of the two-term very-well-poised 8W7 relation.

    Evaluated directly at the base-q^2 substitution attached to
    (theta, tau, sigma): a = -q^{2-2 tau}, b = q^2, and the two conjugate
    pairs c, d = -q^{1 -/+ sigma - tau} e^{+/- i theta} ... built from the
    kernel parameters.  ``theta`` may be an array: the residuals then come
    as an array of its shape, all factorials from one ``qpoch`` call; each
    equals the scalar call at that angle bit for bit.
    """
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

    def assemble(vals: np.ndarray) -> float:
        vals = iter(vals.tolist())
        term1 = w87(a, b, c, d, e, f, ctx2, Q) / next(vals)
        den = math.prod(islice(vals, len(lower)), start=1.0)
        pref = math.prod(islice(vals, len(upper)), start=1.0) / (den * next(vals))
        term2 = (
            pref
            * w87(b * b / a, b, b * c / a, b * d / a, b * e / a, b * f / a, ctx2, Q)
            / next(vals)
        )
        rhs = math.prod(vals, start=1.0) / den
        return abs(term1 + term2 - rhs) / abs(rhs)

    return Factorials([b / a, *lower, *upper, b * b * Q / a, a / b, *rhs_upper], assemble)


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
    from within roundoff plus truncation error.  They are those of the real symmetric gauge of the
    element's band at angle 0 (``_Band.real_dense``), a diagonal unitary
    similarity, so LAPACK never sees a complex matrix.
    """
    masses = aw_masses(thm6_params(tau, sigma, ctx))
    params = SphericalParams(tau=tau, sigma=sigma)
    M = _element_band(ctx, "rho_tau_sigma", params, 0.0, size).real_dense()
    eigs = np.linalg.eigvalsh(M)
    return float(max(_support_distance(float(x), masses) for x in eigs))


def _support_distance(x: float, masses) -> float:
    """Distance from x to [-1, 1] together with the mass points of ``masses``.

    ``masses`` holds the (point, weight) pairs of an Askey-Wilson measure.
    """
    dist = max(abs(x) - 1.0, 0.0)
    for xm, _ in masses:
        dist = min(dist, abs(x - xm))
    return dist


def sigma_limit_check(
    p,
    tau: float,
    ctx: QContext,
    sigmas: tuple[float, ...] = (4.0, 6.0, 8.0),
    size: int = 160,
) -> tuple[float, ...]:
    """Errors |h(p(2 q^{sigma+tau-1} rho_tau_sigma)) - h(p(rho_tau_inf))|.

    The rescaled element converges in norm at rate O(q^sigma), so the
    returned sequence should decrease geometrically for increasing sigmas.
    """
    coeffs = _as_coeffs(p)
    if coeffs is None:
        raise DomainError("sigma_limit_check needs polynomial coefficients")
    q = ctx.q
    reference = spectral_trace(ctx, tau, coeffs)
    out = []
    for sigma in sigmas:
        scale = 2.0 * q ** (sigma + tau - 1.0)
        scaled = coeffs * scale ** np.arange(coeffs.shape[0])
        val = haar_trace(
            ctx,
            "rho_tau_sigma",
            scaled,
            size,
            SphericalParams(tau=tau, sigma=sigma),
            tol=1e-9,
        )
        out.append(abs(val - reference))
    return tuple(out)
